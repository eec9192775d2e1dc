"""In-memory spans around the library's public calls, and the ledger built from them.

The benchmark changes nothing inside ``src/``: every span is recorded here,
by wrapping a public function or method for the duration of a traced pass
and restoring it afterwards (:func:`instrument`).  A span is
``(id, parent, name, start, end, thread, phase, flops, bytes)``; ``parent``
is the span open on the same thread when it started (0 for none), and
``phase`` is the timed region (``setup`` or ``run``) it belongs to.

A layer's *self time* is the sum of its spans' durations minus the time
their direct children cover.  For each phase the ledger lists the self time
of every span name plus an ``unattributed`` row, the phase's wall time
minus the sum of the rows, so the rows always add up to the phase's
end-to-end time.  Spans on other threads (the server's worker) are counted
against the phase's wall time like the caller's own.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from contextlib import ExitStack, contextmanager, nullcontext
from typing import Callable, Dict, Iterator, List, Optional, Tuple
from unittest import mock

SPAN_FIELDS = ("id", "parent", "name", "start", "end", "thread", "phase", "flops", "bytes")


class NullTracer:
    """The untraced pass: a span is a no-op ``with``."""

    def span(self, name: str, flops: int = 0, nbytes: int = 0):
        return nullcontext()


class Tracer:
    """Thread-aware span recorder; spans stay in memory until :meth:`write`."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.phase = "setup"
        self.spans: List[Tuple] = []
        #: Totals recorded at span boundaries that are not durations
        #: (checkpoint bytes written).
        self.counts: Dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def is_open(self, name: str) -> bool:
        """Whether a span called ``name`` is open on the calling thread."""
        return any(open_name == name for _, open_name in self._stack())

    @contextmanager
    def span(self, name: str, flops: int = 0, nbytes: int = 0) -> Iterator[None]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else 0
        stack.append((span_id, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            # list.append is atomic under the GIL; the server worker and the
            # caller record concurrently.
            self.spans.append(
                (span_id, parent, name, start, end, threading.get_ident(),
                 self.phase, flops, nbytes)
            )

    @contextmanager
    def root(self, phase: str) -> Iterator[None]:
        """Open the phase's root span; everything recorded inside belongs to it."""
        self.phase = phase
        with self.span(phase):
            yield

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"run_id": self.run_id, "fields": SPAN_FIELDS, "spans": self.spans}, handle)


def ledger(spans: List[Tuple], phase: str) -> Dict[str, object]:
    """Self time per span name within ``phase``, plus the unattributed rest.

    Returns ``{"wall_ms", "rows": {name: {"self_ms", "calls"}}, "unattributed_ms"}``.
    """
    phase_spans = [s for s in spans if s[6] == phase]
    root = next(s for s in phase_spans if s[2] == phase and s[1] == 0)
    child_ms: Dict[int, float] = {}
    for s in phase_spans:
        if s[1]:
            child_ms[s[1]] = child_ms.get(s[1], 0.0) + 1e3 * (s[4] - s[3])
    rows: Dict[str, Dict[str, float]] = {}
    for s in phase_spans:
        if s is root:
            continue
        row = rows.setdefault(s[2], {"self_ms": 0.0, "calls": 0})
        row["self_ms"] += 1e3 * (s[4] - s[3]) - child_ms.get(s[0], 0.0)
        row["calls"] += 1
    wall_ms = 1e3 * (root[4] - root[3])
    attributed = sum(row["self_ms"] for row in rows.values())
    return {"wall_ms": wall_ms, "rows": rows, "unattributed_ms": wall_ms - attributed}


def gemm_totals(spans: List[Tuple], phase: str) -> Dict[str, float]:
    """Calls, wall ms, FLOPs and operand bytes of the phase's ``runtime.gemm`` spans."""
    calls = ms = flops = nbytes = 0.0
    for s in spans:
        if s[2] == "runtime.gemm" and s[6] == phase:
            calls += 1
            ms += 1e3 * (s[4] - s[3])
            flops += s[7]
            nbytes += s[8]
    return {"calls": calls, "ms": ms, "flops": flops, "bytes": nbytes}


# ---------------------------------------------------------------------------
# Wrapping public calls
# ---------------------------------------------------------------------------
def wrap(stack: ExitStack, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
    """Replace ``owner.attr`` by ``make(owner.attr)`` until ``stack`` closes."""
    stack.enter_context(mock.patch.object(owner, attr, make(getattr(owner, attr))))


def timed(tracer: Tracer, name: str, skip_inside: Optional[str] = None):
    """Wrapper factory: run the wrapped call inside a ``name`` span.

    With ``skip_inside``, calls made while a span of that name is open on
    the thread are not recorded (their time stays with that span).
    """

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if skip_inside is not None and tracer.is_open(skip_inside):
                return fn(*args, **kwargs)
            with tracer.span(name):
                return fn(*args, **kwargs)

        return wrapper

    return make


def timed_gemm(tracer: Tracer):
    """Wrapper factory for ``parallel_gemm(a, b, ...)``: FLOPs and bytes from shapes."""

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(a, b, *args, **kwargs):
            m, k = a.shape
            n = b.shape[1]
            flops = 2 * m * k * n
            nbytes = a.nbytes + b.nbytes + m * n * max(a.itemsize, b.itemsize)
            with tracer.span("runtime.gemm", flops, nbytes):
                return fn(a, b, *args, **kwargs)

        return wrapper

    return make


def _timed_checkpoint(tracer: Tracer):
    """``Checkpointer.save`` in a span, adding the written file's size to the counts."""

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span("training.checkpoint"):
                path = fn(*args, **kwargs)
            counts = tracer.counts
            counts["training.checkpoint_bytes"] = (
                counts.get("training.checkpoint_bytes", 0.0) + os.path.getsize(path)
            )
            return path

        return wrapper

    return make


@contextmanager
def instrument(tracer: Tracer) -> Iterator[ExitStack]:
    """Wrap the library's public layer entry points for one traced pass.

    Yields the :class:`~contextlib.ExitStack` holding the wrappers, so a
    workload can wrap its own instances (the model's ``forward``, the
    session's ``run``) with :func:`wrap` and have them restored with the
    rest.  ``parallel_gemm`` is wrapped where ``autograd.ops``,
    ``deploy.plan`` and ``runtime.intgemm`` import it; products written as
    ``x @ w`` (linear layers) are not GEMM spans.
    """
    import repro.autograd.ops as ops
    import repro.csq.trainer as trainer
    import repro.deploy.artifact as artifact
    import repro.deploy.plan as plan
    import repro.runtime.intgemm as intgemm
    from repro.autograd.tensor import Tensor
    from repro.csq.regularizer import BudgetAwareRegularizer
    from repro.optim.sgd import SGD
    from repro.training.checkpoint import Checkpointer

    with ExitStack() as stack:
        wrap(stack, trainer, "evaluate", timed(tracer, "training.evaluate"))
        wrap(stack, BudgetAwareRegularizer, "__call__", timed(tracer, "csq.regularizer"))
        wrap(stack, Tensor, "backward", timed(tracer, "autograd.backward"))
        wrap(stack, SGD, "step", timed(tracer, "optim.step"))
        wrap(stack, SGD, "zero_grad", timed(tracer, "optim.step"))
        wrap(stack, Checkpointer, "save", _timed_checkpoint(tracer))
        wrap(stack, artifact, "export_model_layers", timed(tracer, "deploy.export"))
        for module in (ops, plan):
            wrap(stack, module, "im2col", timed(tracer, "autograd.im2col"))
        for module in (ops, plan, intgemm):
            wrap(stack, module, "parallel_gemm", timed_gemm(tracer))
        yield stack
