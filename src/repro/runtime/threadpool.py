"""Persistent worker thread pool and deterministic sharding primitives.

NumPy releases the GIL inside BLAS kernels and large ufunc loops, so a
process-wide pool of plain Python threads is enough to scale batched GEMMs
and im2col gathers across cores — no pickling, no fork, shared memory for
free.

Determinism contract
--------------------
Elementwise work (gathers, copies) is split into contiguous shards writing
disjoint output slices, so any shard count produces identical bytes.  GEMMs
are decomposed into **fixed-size blocks determined by the operand shape
alone** — never by the thread count — because BLAS may pick a different
K-accumulation order for different operand shapes; running the identical
block list on 1 or N threads therefore yields bitwise-identical results
(asserted by ``tests/runtime/test_parallel_parity.py``).  Any cross-shard
reduction must be accumulated serially in shard-index order after the join.

The thread count comes from the ``REPRO_NUM_THREADS`` environment variable,
defaulting to the machine's CPU count (capped at 8), and can be changed at
runtime with :func:`set_num_threads` or scoped with :func:`thread_scope`.
"""

from __future__ import annotations

import contextlib
import os
import queue
import threading
from typing import Callable, List, Optional, Sequence

import numpy as np

#: Fixed GEMM block sizes.  Blocks are a property of the *problem shape*,
#: never of the thread count: every thread count computes the identical set
#: of sub-GEMMs, which is what makes sharded results bitwise reproducible
#: (BLAS may pick different K-accumulation orders for different operand
#: shapes, so "shard into num_threads pieces" is NOT bitwise-stable).
#: Row blocks are tall because BLAS throughput drops sharply for short-M
#: GEMMs with long reductions (measured 2x on scipy-openblas for M=16,
#: K=7200); blocking only engages for outputs at least two blocks tall.
_GEMM_COL_BLOCK = 4096
_GEMM_ROW_BLOCK = 64
#: Minimum elements of copied data per gather shard.
_MIN_APPLY_CHUNK = 1


def _threads_from_env() -> int:
    raw = os.environ.get("REPRO_NUM_THREADS", "").strip()
    if raw:
        try:
            value = int(raw)
        except ValueError as error:
            raise ValueError(
                f"REPRO_NUM_THREADS must be a positive integer, got {raw!r}"
            ) from error
        if value < 1:
            raise ValueError(f"REPRO_NUM_THREADS must be >= 1, got {value}")
        return value
    return min(os.cpu_count() or 1, 8)


class ThreadPool:
    """Fixed-size pool of daemon worker threads consuming a task queue.

    Tasks are zero-argument callables; :meth:`run_all` executes a batch of
    them (the caller's thread runs the first task itself, so a pool of
    ``n - 1`` workers saturates ``n`` threads) and re-raises the first
    failure by task order.
    """

    def __init__(self, workers: int) -> None:
        self._tasks: "queue.SimpleQueue[Optional[Callable[[], None]]]" = queue.SimpleQueue()
        self._threads: List[threading.Thread] = []
        for index in range(max(0, workers)):
            thread = threading.Thread(
                target=self._worker_loop, name=f"repro-compute-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    @property
    def size(self) -> int:
        return len(self._threads)

    def _worker_loop(self) -> None:
        while True:
            task = self._tasks.get()
            if task is None:
                return
            task()
            # Drop the finished task before blocking on the next one: its
            # closure holds the caller's scratch (e.g. im2col columns).
            del task

    def run_all(self, tasks: Sequence[Callable[[], object]]) -> List[object]:
        """Run ``tasks`` across the pool plus the calling thread.

        Returns the task results in task order; if any task raised, the
        lowest-indexed exception is re-raised after all tasks finished (so
        no task is left running against freed buffers).
        """
        count = len(tasks)
        if count == 0:
            return []
        if count == 1 or self.size == 0:
            return [task() for task in tasks]
        results: List[object] = [None] * count
        errors: List[Optional[BaseException]] = [None] * count
        done = threading.Semaphore(0)

        def make_runner(index: int, task: Callable[[], object]) -> Callable[[], None]:
            def runner() -> None:
                try:
                    results[index] = task()
                except BaseException as error:  # noqa: BLE001 - re-raised below
                    errors[index] = error
                finally:
                    done.release()
            return runner

        for index in range(1, count):
            self._tasks.put(make_runner(index, tasks[index]))
        # The caller's thread runs the first task directly — it must NOT
        # touch the semaphore, which counts *queued-runner* completions only
        # (an extra release could satisfy the join while a runner still
        # runs).
        try:
            results[0] = tasks[0]()
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors[0] = error
        # Work-steal instead of idling: with more tasks than workers the
        # caller keeps draining the queue (possibly helping a concurrent
        # batch — runners release their own batch's semaphore, so that is
        # safe).  Shutdown sentinels are put back for the workers.
        while True:
            try:
                task = self._tasks.get_nowait()
            except queue.Empty:
                break
            if task is None:
                self._tasks.put(None)
                break
            task()
        for _ in range(count - 1):
            done.acquire()
        for error in errors:
            if error is not None:
                raise error
        return results

    def shutdown(self) -> None:
        """Stop all workers (used when resizing the global pool)."""
        for _ in self._threads:
            self._tasks.put(None)
        for thread in self._threads:
            thread.join(timeout=1.0)
        self._threads = []


# ---------------------------------------------------------------------------
# Global pool
# ---------------------------------------------------------------------------

_lock = threading.Lock()
_num_threads: Optional[int] = None
_pool: Optional[ThreadPool] = None


def num_threads() -> int:
    """The configured compute thread count (>= 1)."""
    global _num_threads
    with _lock:
        if _num_threads is None:
            _num_threads = _threads_from_env()
        return _num_threads


def set_num_threads(count: int) -> None:
    """Set the process-wide compute thread count.

    The worker pool is resized lazily on the next parallel call; ``1``
    disables threading entirely (all work runs inline on the caller).
    """
    global _num_threads, _pool
    if count < 1:
        raise ValueError(f"thread count must be >= 1, got {count}")
    with _lock:
        _num_threads = int(count)
        old_pool, _pool = _pool, None
    if old_pool is not None:
        old_pool.shutdown()


@contextlib.contextmanager
def thread_scope(count: int):
    """Temporarily run with ``count`` compute threads (benches and tests)."""
    previous = num_threads()
    set_num_threads(count)
    try:
        yield
    finally:
        set_num_threads(previous)


def get_pool() -> Optional[ThreadPool]:
    """The shared worker pool, or ``None`` when running single-threaded.

    The pool holds ``num_threads() - 1`` workers: the calling thread always
    executes the first shard itself.
    """
    threads = num_threads()
    if threads <= 1:
        return None
    global _pool
    with _lock:
        if _pool is None or _pool.size != threads - 1:
            if _pool is not None:
                _pool.shutdown()
            _pool = ThreadPool(threads - 1)
        return _pool


# ---------------------------------------------------------------------------
# Sharding primitives
# ---------------------------------------------------------------------------


def shard_bounds(total: int, shards: int) -> List[int]:
    """Deterministic near-equal contiguous shard boundaries (len shards+1)."""
    shards = max(1, min(shards, total)) if total > 0 else 1
    return [round(i * total / shards) for i in range(shards + 1)]


def parallel_apply(
    fn: Callable[[int, int], object],
    total: int,
    min_chunk: int = _MIN_APPLY_CHUNK,
    threads: Optional[int] = None,
) -> List[object]:
    """Run ``fn(lo, hi)`` over contiguous shards of ``range(total)``.

    Shards never overlap, so ``fn`` calls writing disjoint output slices are
    bitwise-deterministic at any thread count.  Results are returned in
    shard order (accumulate reductions in that order).  With one thread (or
    a problem smaller than ``min_chunk * 2``) everything runs inline.
    """
    if total <= 0:
        return []
    threads = num_threads() if threads is None else max(1, threads)
    shards = min(threads, max(1, total // max(min_chunk, 1)))
    if shards <= 1:
        return [fn(0, total)]
    bounds = shard_bounds(total, shards)
    tasks = [
        (lambda lo=bounds[i], hi=bounds[i + 1]: fn(lo, hi))
        for i in range(shards)
    ]
    pool = get_pool()
    if pool is None:
        return [task() for task in tasks]
    return pool.run_all(tasks)


def parallel_gemm(
    a: np.ndarray,
    b: np.ndarray,
    out: Optional[np.ndarray] = None,
    shard: str = "cols",
    threads: Optional[int] = None,
) -> np.ndarray:
    """2-D matmul ``a @ b`` executed as fixed-size blocks across the pool.

    ``shard="cols"`` splits the columns of ``b``/``out`` into
    ``_GEMM_COL_BLOCK``-wide blocks; ``shard="rows"`` splits the rows of
    ``a``/``out`` into ``_GEMM_ROW_BLOCK``-high blocks (the right axis when
    the *output* is small but the reduction is long, e.g. conv weight
    gradients).  The block decomposition depends only on the operand shape —
    small problems stay monolithic, large ones are blocked even when running
    single-threaded — so the result is bitwise identical at any thread
    count.  Threads then simply pick up blocks.
    """
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"parallel_gemm needs 2-D operands, got {a.ndim}-D @ {b.ndim}-D")
    if shard not in ("cols", "rows"):
        raise ValueError(f"shard must be 'cols' or 'rows', got {shard!r}")
    if out is None:
        out = np.empty((a.shape[0], b.shape[1]), dtype=np.result_type(a.dtype, b.dtype))
    block = _GEMM_COL_BLOCK if shard == "cols" else _GEMM_ROW_BLOCK
    extent = b.shape[1] if shard == "cols" else a.shape[0]
    if extent < 2 * block:
        np.matmul(a, b, out=out)
        return out
    blocks = range(0, extent, block)
    if shard == "cols":
        tasks = [
            (lambda lo=lo: np.matmul(a, b[:, lo:lo + block], out=out[:, lo:lo + block]))
            for lo in blocks
        ]
    else:
        tasks = [
            (lambda lo=lo: np.matmul(a[lo:lo + block], b, out=out[lo:lo + block]))
            for lo in blocks
        ]
    threads = num_threads() if threads is None else max(1, threads)
    pool = get_pool() if threads > 1 else None
    if pool is None:
        for task in tasks:
            task()
    else:
        pool.run_all(tasks)
    return out
