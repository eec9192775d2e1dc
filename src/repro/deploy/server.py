"""Batched serving engine over one :class:`InferenceSession`.

A :class:`Server` accepts single-example requests from any number of client
threads and executes them on one serving thread with **dynamic
micro-batching**: the serve loop drains the request queue, waiting up to
``max_wait_ms`` after the first request to coalesce up to ``max_batch``
examples into one forward pass
— the classic latency/throughput trade the GEMM-heavy runtime rewards, since
a batch-32 forward costs far less than 32 batch-1 forwards.  Batches are
keyed by input shape: one collection may hold several shapes, each runs as
its own stacked forward pass, and collection ends as soon as any one shape
fills ``max_batch``, so mixed-shape traffic still coalesces per shape.

An optional LRU response cache short-circuits byte-identical requests, and
the server keeps running statistics in **fixed memory**: request latency,
queue wait, and service time each stream into a log-bucketed
:class:`~repro.obs.metrics.Histogram` (p50/p95/p99 within bucket
resolution), alongside cache hit rate, current queue depth, and the
batch-size distribution — soak runs of millions of requests cost the same
few kilobytes as a smoke test.  With telemetry enabled
(``REPRO_TELEMETRY=1``, see OBSERVABILITY.md) the server additionally
emits one NDJSON record per request — queue wait split from service time —
and a ``server.batch`` span per forward pass, under which a profiling
session nests its per-step ``plan.step`` spans.  The telemetry handle is
resolved once in :meth:`start`; when disabled the only cost is a ``None``
check per batch.

Resilience (see DEPLOYMENT.md "Resilience")
-------------------------------------------

Failure behavior is typed, bounded, and deterministic:

* **Admission control** — ``queue_limit=N`` sheds new work at submit time
  with :class:`ServerOverloaded` once ``N`` requests are pending.  Load is
  rejected at the door, never dropped mid-batch: an admitted request is
  always resolved (result, or a typed error).
* **Deadlines** — ``default_deadline_ms=`` (or per-call
  ``submit(x, deadline_ms=...)``) bounds queue residency.  The serve loop
  checks deadlines at dequeue, so an expired request fails fast with
  :class:`DeadlineExceeded` instead of consuming GEMM time; ``predict``'s
  client timeout doubles as the server-side deadline, closing the
  orphaned-work leak where a timed-out client left its request queued and
  still executed.
* **Crash-safe serving** — a supervisor thread detects a dead serve loop,
  restarts it on the same session (a compiled plan keeps no state between
  calls, so a crash cannot leave it half-written), and requeues every
  request the crash orphaned.  A request whose presence kills two consecutive
  executions is **quarantined**: its future fails with
  :class:`RequestQuarantined` and byte-identical payloads are rejected at
  admission from then on.  Batch failures never take hostages — the batch
  is retried one request at a time so exactly the poison input fails.
* **Graceful drain** — :meth:`drain` closes admissions, flushes every
  queued request through the serve loop, then joins it; :meth:`stop`
  remains the fast path that fails still-queued requests with
  :class:`ServerStopped`.
* **Deterministic fault injection** — a seeded
  :class:`~repro.deploy.faults.FaultPlan` (``faults=`` or the
  ``REPRO_FAULTS`` env knob) drives every path above reproducibly; with no
  plan configured the hooks are single ``None`` checks and served outputs
  are bitwise identical to a build without them.

Every shed/expiry/restart/retry/quarantine is counted in
:meth:`ServerStats.snapshot` and mirrored to ``server.*`` counters when
telemetry is on.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass
from queue import Empty, Queue
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.deploy.faults import FaultPlan, InjectedWorkerCrash
from repro.deploy.session import InferenceSession
from repro.obs.metrics import Histogram

#: A request that participates in this many consecutive failed executions is
#: quarantined.  Two is the minimum that distinguishes "the batch died around
#: me" (crash, batch-mate poison) from "I kill whatever executes me".
_MAX_ATTEMPTS = 2
#: Bounded LRU of quarantined payload fingerprints (sha1 digests).
_QUARANTINE_CAPACITY = 256
#: How often the supervisor polls serve-loop liveness.
_SUPERVISE_INTERVAL_S = 0.02


class ServerError(RuntimeError):
    """Base of every typed serving failure raised by :class:`Server`."""


class ServerOverloaded(ServerError):
    """Admission rejected: the bounded request queue is full (shed load)."""


class DeadlineExceeded(ServerError):
    """The request's deadline expired while queued; it was never executed."""


class RequestQuarantined(ServerError):
    """The request (or a byte-identical payload) repeatedly killed executions."""


class ServerStopped(ServerError):
    """The server stopped (or is draining) before the request could be served."""


@dataclass
class _Request:
    x: np.ndarray
    future: Future
    enqueued_at: float
    cache_key: Optional[bytes]
    req_id: int = 0
    #: Stamped when the serve loop pops the request off the queue; the
    #: queue-wait/service-time split in the stats pivots on this instant.
    dequeued_at: float = 0.0
    #: Absolute perf_counter deadline; 0.0 means none.  Checked at dequeue.
    deadline_at: float = 0.0
    #: Failed executions this request participated in (crash or exception);
    #: at ``_MAX_ATTEMPTS`` the request is quarantined instead of retried.
    attempts: int = 0
    #: Admission index consumed from the :class:`FaultPlan`; -1 without one.
    fault_id: int = -1


class ServerStats:
    """Thread-safe rolling statistics of a running server.

    Latency, queue wait, and service time are streaming histograms —
    memory is fixed regardless of how many requests pass through, and
    snapshots read quantiles from bucket counts instead of sorting a
    sample history.  Queue wait is ``dequeued_at - enqueued_at`` (time
    spent waiting for the serve loop); service time is everything after
    the pop, including the batch-assembly wait spent coalescing.

    Resilience events are plain counters: ``rejected`` (admission sheds —
    queue overflow or quarantined payload), ``expired`` (deadlines hit at
    dequeue), ``restarts`` (supervisor serve-loop revivals), ``retries``
    (solo re-executions after a batch failure or crash), ``quarantined``
    (requests that exhausted their attempts).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._latency = Histogram()
        self._queue_wait = Histogram()
        self._service = Histogram()
        self._batch_sizes: Dict[int, int] = {}
        self.requests = 0
        self.served = 0
        self.cache_hits = 0
        self.batches = 0
        self.batched_examples = 0
        self.rejected = 0
        self.expired = 0
        self.restarts = 0
        self.retries = 0
        self.quarantined = 0
        self.started_at = time.perf_counter()
        #: Set by the owning :class:`Server` so snapshots report the live
        #: queue depth; standalone stats objects report 0.
        self.queue_depth_fn: Optional[Callable[[], int]] = None

    def reset(self) -> None:
        """Zero all counters and restart the throughput clock."""
        with self._lock:
            self._latency = Histogram()
            self._queue_wait = Histogram()
            self._service = Histogram()
            self._batch_sizes = {}
            self.requests = 0
            self.served = 0
            self.cache_hits = 0
            self.batches = 0
            self.batched_examples = 0
            self.rejected = 0
            self.expired = 0
            self.restarts = 0
            self.retries = 0
            self.quarantined = 0
            self.started_at = time.perf_counter()

    def record_submit(self, cache_hit: bool) -> int:
        """Count one submitted request; returns its request id (1-based)."""
        with self._lock:
            self.requests += 1
            if cache_hit:
                self.cache_hits += 1
            return self.requests

    def record_rejected(self) -> None:
        """Count one request shed at admission (overload or quarantine)."""
        with self._lock:
            self.rejected += 1

    def record_expired(self) -> None:
        """Count one request dropped at dequeue with an expired deadline."""
        with self._lock:
            self.expired += 1

    def record_restart(self) -> None:
        """Count one supervisor-driven serve-loop restart."""
        with self._lock:
            self.restarts += 1

    def record_retries(self, n: int = 1) -> None:
        """Count requests re-executed solo after a batch failure or crash."""
        with self._lock:
            self.retries += n

    def record_quarantined(self) -> None:
        """Count one request quarantined after exhausting its attempts."""
        with self._lock:
            self.quarantined += 1

    def record_batch(
        self,
        size: int,
        latencies: Sequence[float],
        queue_waits: Sequence[float] = (),
        services: Sequence[float] = (),
    ) -> None:
        with self._lock:
            self.batches += 1
            self.batched_examples += size
            self.served += size
            self._batch_sizes[size] = self._batch_sizes.get(size, 0) + 1
        # Histograms carry their own locks; keep the counter lock narrow.
        self._latency.record_many(latencies)
        if queue_waits:
            self._queue_wait.record_many(queue_waits)
        if services:
            self._service.record_many(services)

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            elapsed = time.perf_counter() - self.started_at
            snapshot: Dict[str, object] = {
                "requests": float(self.requests),
                "served": float(self.served),
                "cache_hits": float(self.cache_hits),
                "cache_hit_rate": (
                    self.cache_hits / self.requests if self.requests else 0.0
                ),
                "batches": float(self.batches),
                "mean_batch_size": (
                    self.batched_examples / self.batches if self.batches else 0.0
                ),
                "batch_size_dist": dict(sorted(self._batch_sizes.items())),
                "throughput_rps": self.requests / elapsed if elapsed > 0 else 0.0,
                "rejected": float(self.rejected),
                "expired": float(self.expired),
                "restarts": float(self.restarts),
                "retries": float(self.retries),
                "quarantined": float(self.quarantined),
            }
        depth_fn = self.queue_depth_fn
        snapshot["queue_depth"] = float(depth_fn()) if depth_fn is not None else 0.0
        if self._latency.count:
            p50, p95, p99 = self._latency.quantiles([0.50, 0.95, 0.99])
            snapshot["latency_mean_ms"] = 1e3 * self._latency.mean
            snapshot["latency_p50_ms"] = 1e3 * p50
            snapshot["latency_p95_ms"] = 1e3 * p95
            snapshot["latency_p99_ms"] = 1e3 * p99
        if self._queue_wait.count:
            p50, p95, p99 = self._queue_wait.quantiles([0.50, 0.95, 0.99])
            snapshot["queue_wait_p50_ms"] = 1e3 * p50
            snapshot["queue_wait_p95_ms"] = 1e3 * p95
            snapshot["queue_wait_p99_ms"] = 1e3 * p99
        if self._service.count:
            p50, p95, p99 = self._service.quantiles([0.50, 0.95, 0.99])
            snapshot["service_p50_ms"] = 1e3 * p50
            snapshot["service_p95_ms"] = 1e3 * p95
            snapshot["service_p99_ms"] = 1e3 * p99
        return snapshot


class Server:
    """Threaded inference server with dynamic micro-batching and an LRU cache.

    Parameters
    ----------
    session:
        The :class:`InferenceSession` (or any object with a ``run(batch)``)
        executing coalesced batches.
    max_batch:
        Largest number of requests fused into one forward pass.  Passes
        are keyed by input shape: a collection window may gather several
        shapes, each served as its own pass of at most ``max_batch`` rows,
        and the window closes early once any shape reaches ``max_batch``.
    max_wait_ms:
        How long the serve loop waits after the first queued request for more
        requests to coalesce.  0 disables batching delay (latency-optimal);
        a couple of milliseconds already fills batches under load.
    cache_size:
        Number of responses kept in the LRU response cache; 0 disables
        caching.  Keys are the exact request bytes, so only byte-identical
        inputs hit.
    workers:
        Must be 1.  Multi-worker serving was removed: on the benchmark host
        ``workers=2`` served fewer requests per second than one loop in
        every measured pair (PERFORMANCE.md); any other value raises
        :class:`ValueError`.
    queue_limit:
        Admission bound: with ``N`` requests already pending, further
        submits raise :class:`ServerOverloaded` instead of growing the
        queue.  ``None`` (default) keeps the queue unbounded — the pre-
        resilience behavior.
    default_deadline_ms:
        Deadline applied to every request that does not carry its own
        ``submit(x, deadline_ms=...)``.  A request still queued when its
        deadline passes fails with :class:`DeadlineExceeded` at dequeue,
        before any compute.  ``None`` (default) means no deadline.
    faults:
        A :class:`~repro.deploy.faults.FaultPlan` of injected failures for
        chaos testing.  ``None`` (default) falls back to the
        ``REPRO_FAULTS`` environment knob (read at :meth:`start`), and with
        that unset too, fault hooks cost one ``None`` check.
    """

    _SHUTDOWN = object()

    def __init__(
        self,
        session: InferenceSession,
        max_batch: int = 32,
        max_wait_ms: float = 2.0,
        cache_size: int = 0,
        # Only kept because perfbench/workloads.py still passes workers=1.
        workers: int = 1,
        queue_limit: Optional[int] = None,
        default_deadline_ms: Optional[float] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        if workers != 1:
            raise ValueError(
                f"workers must be 1, got {workers}: multi-worker serving was "
                f"removed because extra workers measured slower than one serve "
                f"loop (see PERFORMANCE.md)"
            )
        if queue_limit is not None and queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        if default_deadline_ms is not None and default_deadline_ms <= 0:
            raise ValueError(
                f"default_deadline_ms must be > 0, got {default_deadline_ms}"
            )
        self.session = session
        self.max_batch = max_batch
        self.max_wait_s = max_wait_ms / 1e3
        self.queue_limit = queue_limit
        self.default_deadline_ms = default_deadline_ms
        self.stats = ServerStats()
        self._queue: "Queue[object]" = Queue()
        self.stats.queue_depth_fn = self._queue.qsize
        self._cache: "OrderedDict[bytes, np.ndarray]" = OrderedDict()
        self._cache_size = cache_size
        self._cache_lock = threading.Lock()
        # Guards the running/accepting flags together with queue puts, so a
        # submit that passed the admission checks cannot enqueue after stop()
        # has drained, and qsize-vs-limit is checked atomically with the put.
        self._lifecycle_lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._generation = 0
        #: Requests popped off the queue but not yet resolved: what a crash
        #: orphans, and what :meth:`_salvage_crash` requeues.
        self._inflight: List[_Request] = []
        self._crash_error: Optional[BaseException] = None
        self._running = False
        self._accepting = True
        self._telemetry: Optional[obs.Telemetry] = None
        self._counters: Optional[Dict[str, obs.Counter]] = None
        self._faults_config = faults
        self._faults: Optional[FaultPlan] = None
        self._quarantined: "OrderedDict[bytes, bool]" = OrderedDict()
        self._quarantine_lock = threading.Lock()
        self._supervisor: Optional[threading.Thread] = None
        self._supervisor_stop: Optional[threading.Event] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "Server":
        with self._lifecycle_lock:
            if self._running:
                return self
            self._running = True
            self._accepting = True
        # Telemetry state is sampled once per serving session: zero-cost
        # (one None check per batch) when disabled, and a scope entered
        # before start() governs the whole run.
        self._telemetry = obs.telemetry()
        if self._telemetry is not None:
            registry = self._telemetry.registry
            self._counters = {
                "rejected": registry.counter("server.rejected"),
                "expired": registry.counter("server.expired"),
                "restarts": registry.counter("server.restarts"),
                "retries": registry.counter("server.retries"),
                "quarantined": registry.counter("server.quarantined"),
            }
        else:
            self._counters = None
        # Same resolve-once contract for fault injection: an explicit plan
        # wins, else the REPRO_FAULTS knob, else None (every hook disarmed).
        self._faults = (
            self._faults_config if self._faults_config is not None
            else FaultPlan.from_env()
        )
        # Stats cover the current serving session: without the reset, a
        # restarted (or late-started) server reports throughput averaged
        # over time it was not running.
        self.stats.reset()
        self._generation = 0
        self._start_loop("repro-server")
        self._supervisor_stop = threading.Event()
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-server-supervisor", daemon=True
        )
        self._supervisor.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        with self._lifecycle_lock:
            if not self._running:
                return
            self._running = False
            self._queue.put(self._SHUTDOWN)
        if self._supervisor_stop is not None:
            self._supervisor_stop.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=timeout)
            self._supervisor = None
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None
        # Fail any request the serve loop never reached (queued behind the
        # shutdown sentinel, or submitted in the stop race window) instead
        # of leaving its future pending forever.
        while True:
            try:
                item = self._queue.get_nowait()
            except Empty:
                break
            self._task_done()
            if isinstance(item, _Request):
                self._fail(
                    item,
                    ServerStopped("Server stopped before the request was served"),
                )
        telemetry = self._telemetry
        if telemetry is not None and telemetry.sink is not None:
            telemetry.sink.flush()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: close admissions, flush queued work, then stop.

        New submits fail with :class:`ServerStopped` immediately; every
        already-admitted request is served (or resolved with its typed
        error) before the serve loop is joined.  Returns ``True`` on a
        complete drain.  With ``timeout`` seconds elapsed first it returns
        ``False`` — admissions stay closed and in-flight work keeps
        running, so the caller can retry the drain or force :meth:`stop`.
        """
        with self._lifecycle_lock:
            if not self._running:
                return True
            self._accepting = False
        deadline = None if timeout is None else time.perf_counter() + timeout
        # Queue task accounting: every admitted request (and sentinel) is
        # matched by exactly one task_done when resolved, and crash salvage
        # requeues *before* its task_done — so unfinished_tasks reaching 0
        # means every admitted request's future is resolved.
        while self._queue.unfinished_tasks:
            if deadline is not None and time.perf_counter() >= deadline:
                return False
            time.sleep(1e-3)
        self.stop()
        return True

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def submit(
        self, x: np.ndarray, deadline_ms: Optional[float] = None
    ) -> "Future[np.ndarray]":
        """Enqueue one example (no batch dimension); returns a Future of logits.

        ``deadline_ms`` bounds how long the request may wait in queue
        (default: the server's ``default_deadline_ms``); past it the future
        fails with :class:`DeadlineExceeded` without consuming compute.
        Raises :class:`ServerOverloaded` when admission control sheds the
        request and :class:`RequestQuarantined` when the payload is
        byte-identical to a quarantined one.
        """
        # Checked again under the lifecycle lock before enqueueing; this early
        # check also keeps the cache-hit fast path honest about a dead server.
        if not self._running:
            raise ServerError("Server is not running; call start() first")
        x = np.ascontiguousarray(x, dtype=np.float32)
        future: "Future[np.ndarray]" = Future()
        key = self._key_for(x)
        if key is not None:
            cached = self._cache_get(key)
            if cached is not None:
                req_id = self.stats.record_submit(cache_hit=True)
                future.set_result(cached.copy())
                telemetry = self._telemetry
                # Record dicts are only worth building when a sink will
                # actually write them; spans are unaffected (kept in the
                # tracer ring for in-process inspection either way).
                if telemetry is not None and telemetry.sink is not None:
                    telemetry.emit({
                        "type": "request",
                        "id": req_id,
                        "cache_hit": True,
                        "queue_wait_ms": 0.0,
                        "service_ms": 0.0,
                        "latency_ms": 0.0,
                        "batch": 0,
                        "shape": list(x.shape),
                    })
                return future
        # Empty quarantine set (the overwhelmingly common case) costs one
        # truthiness check; only a server that has actually quarantined
        # something pays the fingerprint here.
        if self._quarantined:
            with self._quarantine_lock:
                is_quarantined = self._fingerprint(x) in self._quarantined
            if is_quarantined:
                self._record_rejected()
                raise RequestQuarantined(
                    "Request payload is byte-identical to a quarantined input "
                    "(it previously failed "
                    f"{_MAX_ATTEMPTS} consecutive executions)"
                )
        if deadline_ms is None:
            deadline_ms = self.default_deadline_ms
        elif deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be > 0, got {deadline_ms}")
        request = _Request(
            x=x, future=future, enqueued_at=time.perf_counter(), cache_key=key
        )
        if deadline_ms is not None:
            request.deadline_at = request.enqueued_at + deadline_ms / 1e3
        with self._lifecycle_lock:
            if not self._running:
                raise ServerError("Server is not running; call start() first")
            if not self._accepting:
                raise ServerStopped("Server is draining; not accepting new requests")
            if (
                self.queue_limit is not None
                and self._queue.qsize() >= self.queue_limit
            ):
                self._record_rejected()
                raise ServerOverloaded(
                    f"Request queue is full ({self.queue_limit} pending); "
                    f"shed at admission"
                )
            faults = self._faults
            if faults is not None:
                # Fault indices are *admission order*: only requests that
                # make it past shedding (and the cache) consume one, so a
                # plan targets the same requests regardless of load.
                request.fault_id = faults.next_index()
                flipped = faults.apply_flip(request.x, request.fault_id)
                if flipped is not request.x:
                    request.x = flipped
                    request.cache_key = None  # never cache a corrupted payload
            request.req_id = self.stats.record_submit(cache_hit=False)
            self._queue.put(request)
        return future

    def predict(
        self,
        x: np.ndarray,
        timeout: Optional[float] = 30.0,
        deadline_ms: Optional[float] = None,
    ) -> np.ndarray:
        """Blocking single-example inference.

        The client timeout doubles as the server-side deadline (unless
        ``deadline_ms`` overrides it), so a request its caller has given up
        on is dropped at dequeue instead of executing into the void.
        """
        if deadline_ms is None and timeout is not None:
            deadline_ms = timeout * 1e3
        return self.submit(x, deadline_ms=deadline_ms).result(timeout=timeout)

    def predict_many(
        self, xs: Sequence[np.ndarray], timeout: Optional[float] = 30.0
    ) -> List[np.ndarray]:
        """Submit many examples concurrently and gather their results."""
        deadline_ms = None if timeout is None else timeout * 1e3
        futures = [self.submit(x, deadline_ms=deadline_ms) for x in xs]
        return [f.result(timeout=timeout) for f in futures]

    def clear_cache(self) -> None:
        """Drop every cached response (the load generator's cold phases)."""
        with self._cache_lock:
            self._cache.clear()

    # ------------------------------------------------------------------
    # Serve loop
    # ------------------------------------------------------------------
    def _start_loop(self, name: str) -> None:
        self._thread = threading.Thread(target=self._loop_main, name=name, daemon=True)
        self._thread.start()

    def _loop_main(self) -> None:
        try:
            self._serve_loop()
        except BaseException as error:
            # A crashed loop must never hang its waiters: requeue or fail
            # everything it had popped, then die and let the supervisor
            # restart it.
            self._salvage_crash(error)

    def _serve_loop(self) -> None:
        session = self.session
        faults = self._faults
        while True:
            try:
                first = self._queue.get(timeout=0.1)
            except Empty:
                if not self._running:
                    return
                continue
            if first is self._SHUTDOWN:
                self._task_done()
                return
            if self._expire_if_due(first):
                self._task_done()
                continue
            first.dequeued_at = time.perf_counter()
            self._inflight.append(first)
            collected: List[_Request] = [first]
            # Requests only stack with their own input shape, so fill is
            # counted per shape: collection ends when any shape has a full
            # forward pass (or the wait window closes).
            fill: Dict[tuple, int] = {first.x.shape: 1}
            fullest = 1
            deadline = first.dequeued_at + self.max_wait_s
            drained_sentinel = False
            while fullest < self.max_batch:
                remaining = deadline - time.perf_counter()
                try:
                    item = self._queue.get(block=remaining > 0, timeout=max(remaining, 1e-4))
                except Empty:
                    break
                if item is self._SHUTDOWN:
                    # Finish this collection, then exit.
                    self._task_done()
                    drained_sentinel = True
                    break
                if self._expire_if_due(item):
                    self._task_done()
                    continue
                item.dequeued_at = time.perf_counter()
                self._inflight.append(item)
                collected.append(item)
                fill[item.x.shape] = fill.get(item.x.shape, 0) + 1
                fullest = max(fullest, fill[item.x.shape])
            if faults is not None:
                for request in collected:
                    if request.fault_id >= 0 and faults.take_crash(request.fault_id):
                        raise InjectedWorkerCrash(
                            f"injected worker crash at request {request.fault_id}"
                        )
            self._execute(collected, session)
            self._inflight.clear()
            for _ in collected:
                self._task_done()
            if drained_sentinel:
                return

    def _salvage_crash(self, error: BaseException) -> None:
        self._crash_error = error
        pending = list(self._inflight)
        self._inflight.clear()
        for request in pending:
            request.attempts += 1
            if request.attempts >= _MAX_ATTEMPTS:
                self._quarantine(request, error)
            elif not self._running:
                self._fail(
                    request,
                    ServerStopped("Server stopped before the request was served"),
                )
            else:
                self.stats.record_retries(1)
                counters = self._counters
                if counters is not None:
                    counters["retries"].inc()
                # Requeue strictly before task_done so drain()'s
                # unfinished_tasks count never transiently hits zero while
                # this request is still owed a result.
                self._queue.put(request)
            self._task_done()

    def _supervise(self) -> None:
        stop_event = self._supervisor_stop
        assert stop_event is not None
        while not stop_event.wait(_SUPERVISE_INTERVAL_S):
            thread = self._thread
            if thread is None or thread.is_alive():
                continue
            if not self._running:
                return
            # The serve loop only returns when the server is stopping, so a
            # dead thread on a running server means it crashed.
            self._restart_loop(thread)

    def _restart_loop(self, dead_thread: threading.Thread) -> None:
        with self._lifecycle_lock:
            if not self._running or self._thread is not dead_thread:
                return
            error = self._crash_error
            self._crash_error = None
            self._generation += 1
            self._start_loop(f"repro-server-g{self._generation}")
        self.stats.record_restart()
        counters = self._counters
        if counters is not None:
            counters["restarts"].inc()
        telemetry = self._telemetry
        if telemetry is not None and telemetry.sink is not None:
            telemetry.emit({
                "type": "worker_restart",
                "generation": self._generation,
                "error": repr(error) if error is not None else None,
            })

    def _expire_if_due(self, request: _Request) -> bool:
        """Drop a dequeued request whose deadline already passed (no compute)."""
        if not request.deadline_at or time.perf_counter() < request.deadline_at:
            return False
        self.stats.record_expired()
        counters = self._counters
        if counters is not None:
            counters["expired"].inc()
        waited_ms = 1e3 * (time.perf_counter() - request.enqueued_at)
        self._fail(
            request,
            DeadlineExceeded(
                f"request {request.req_id} exceeded its deadline after "
                f"{waited_ms:.1f} ms in queue; dropped before execution"
            ),
        )
        return True

    def _execute(self, collected: List[_Request], session: InferenceSession) -> None:
        # Only same-shape requests stack: run one forward pass per input
        # shape, in order of each shape's first arrival.  A malformed
        # request thus forms its own group and fails alone, without
        # poisoning the passes of its collection-mates.
        groups: Dict[tuple, List[_Request]] = {}
        for request in collected:
            groups.setdefault(request.x.shape, []).append(request)
        for group in groups.values():
            self._run_batch(group, session)

    def _run_batch(self, batch: List[_Request], session: InferenceSession) -> None:
        """One stacked forward pass over same-shape requests, then resolve them."""
        telemetry = self._telemetry
        run_started = time.perf_counter()
        try:
            faults = self._faults
            if faults is not None:
                fault_ids = [r.fault_id for r in batch if r.fault_id >= 0]
                stall_ms = faults.take_slow(fault_ids)
                if stall_ms > 0:
                    time.sleep(stall_ms / 1e3)
                faults.check_poison(fault_ids)
            stacked = np.stack([request.x for request in batch])
            if telemetry is not None:
                # The batch span parents any plan.step spans a profiling
                # session records from the serve-loop thread.
                with telemetry.tracer.span("server.batch", size=len(batch)):
                    logits = session.run(stacked)
            else:
                logits = session.run(stacked)
        except Exception as error:
            # One failure must cost one future, not the whole batch: retry
            # the members individually so exactly the poison request fails
            # (and, on its second strike, is quarantined).
            self._fail_or_retry(batch, error, session)
            return
        done = time.perf_counter()
        latencies = [done - request.enqueued_at for request in batch]
        queue_waits = [request.dequeued_at - request.enqueued_at for request in batch]
        services = [done - request.dequeued_at for request in batch]
        for request, row in zip(batch, logits):
            # Copy the row out of the batch array: a view would pin the whole
            # batch in the cache, and callers must own their result.
            result = row.copy()
            if request.cache_key is not None:
                self._cache_put(request.cache_key, result.copy())
            try:
                request.future.set_result(result)
            except InvalidStateError:
                pass  # the client cancelled; the result has no taker
        self.stats.record_batch(len(batch), latencies, queue_waits, services)
        # Sink-gated like the cache-hit path: no sink, no record dicts.
        if telemetry is not None and telemetry.sink is not None:
            size = len(batch)
            batch_shape = list(batch[0].x.shape)
            for index, request in enumerate(batch):
                telemetry.emit({
                    "type": "request",
                    "id": request.req_id,
                    "cache_hit": False,
                    "queue_wait_ms": 1e3 * queue_waits[index],
                    "service_ms": 1e3 * services[index],
                    "latency_ms": 1e3 * latencies[index],
                    "batch": size,
                    "shape": batch_shape,
                })
            telemetry.emit({
                "type": "batch",
                "size": size,
                "shape": batch_shape,
                "assembly_ms": 1e3 * (run_started - batch[0].dequeued_at),
                "run_ms": 1e3 * (done - run_started),
            })

    def _fail_or_retry(
        self, batch: List[_Request], error: Exception, session: InferenceSession
    ) -> None:
        retry: List[_Request] = []
        for request in batch:
            request.attempts += 1
            if request.attempts >= _MAX_ATTEMPTS:
                self._quarantine(request, error)
            else:
                retry.append(request)
        if not retry:
            return
        self.stats.record_retries(len(retry))
        counters = self._counters
        if counters is not None:
            counters["retries"].inc(len(retry))
        for request in retry:
            self._run_batch([request], session)

    def _quarantine(self, request: _Request, error: BaseException) -> None:
        fingerprint = self._fingerprint(request.x)
        with self._quarantine_lock:
            self._quarantined[fingerprint] = True
            self._quarantined.move_to_end(fingerprint)
            while len(self._quarantined) > _QUARANTINE_CAPACITY:
                self._quarantined.popitem(last=False)
        self.stats.record_quarantined()
        counters = self._counters
        if counters is not None:
            counters["quarantined"].inc()
        telemetry = self._telemetry
        if telemetry is not None and telemetry.sink is not None:
            telemetry.emit({
                "type": "quarantine",
                "id": request.req_id,
                "attempts": request.attempts,
                "error": repr(error),
            })
        failure = RequestQuarantined(
            f"request {request.req_id} failed {request.attempts} consecutive "
            f"executions and its payload was quarantined: {error}"
        )
        failure.__cause__ = error
        self._fail(request, failure)

    def _record_rejected(self) -> None:
        self.stats.record_rejected()
        counters = self._counters
        if counters is not None:
            counters["rejected"].inc()

    def _fail(self, request: _Request, error: BaseException) -> None:
        try:
            request.future.set_exception(error)
        except InvalidStateError:
            pass  # the client cancelled first

    def _task_done(self) -> None:
        try:
            self._queue.task_done()
        except ValueError:
            pass  # more task_dones than puts can only happen on teardown races

    # ------------------------------------------------------------------
    # Cache
    # ------------------------------------------------------------------
    def _fingerprint(self, x: np.ndarray) -> bytes:
        digest = hashlib.sha1(x.tobytes())
        digest.update(repr(x.shape).encode())
        return digest.digest()

    def _key_for(self, x: np.ndarray) -> Optional[bytes]:
        if self._cache_size <= 0:
            return None
        return self._fingerprint(x)

    def _cache_get(self, key: bytes) -> Optional[np.ndarray]:
        with self._cache_lock:
            value = self._cache.get(key)
            if value is not None:
                self._cache.move_to_end(key)
            return value

    def _cache_put(self, key: bytes, value: np.ndarray) -> None:
        with self._cache_lock:
            self._cache[key] = value
            self._cache.move_to_end(key)
            while len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)
