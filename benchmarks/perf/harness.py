"""Suite/label/JSON benchmark harness.

A *suite* is a named collection of :class:`BenchCase` objects; each case is
a zero-argument callable timed over ``warmup + iters`` calls.  Results carry
enough metadata (label, scale, environment) for a later run to be compared
against a committed baseline with ``scripts/perf_compare.py``.

Kept dependency-free (``time``/``json``/``statistics``) so the harness runs
anywhere the library runs.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


@dataclass
class BenchCase:
    """One timed kernel: ``setup()`` builds state, ``fn(state)`` is timed."""

    name: str
    setup: Callable[[], object]
    fn: Callable[[object], object]
    #: Units of work per call (e.g. images per train step) for throughput.
    work_per_call: float = 1.0
    work_unit: str = "call"
    #: Optional cleanup called with the state after timing (cases that start
    #: worker threads — e.g. a serving engine — must stop them so leaked
    #: pollers do not add jitter to later cases).
    teardown: Optional[Callable[[object], None]] = None


@dataclass
class BenchResult:
    """Timing statistics of one case (seconds per call)."""

    suite: str
    name: str
    iters: int
    mean_s: float
    min_s: float
    max_s: float
    stdev_s: float
    throughput: float
    work_unit: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "suite": self.suite,
            "name": self.name,
            "iters": self.iters,
            "mean_s": self.mean_s,
            "min_s": self.min_s,
            "max_s": self.max_s,
            "stdev_s": self.stdev_s,
            "throughput": self.throughput,
            "work_unit": self.work_unit,
        }


def time_case(suite: str, case: BenchCase, warmup: int, iters: int) -> BenchResult:
    """Time one case: ``warmup`` unrecorded calls, then ``iters`` recorded ones."""
    state = case.setup()
    try:
        for _ in range(warmup):
            case.fn(state)
        samples: List[float] = []
        for _ in range(iters):
            start = time.perf_counter()
            case.fn(state)
            samples.append(time.perf_counter() - start)
    finally:
        if case.teardown is not None:
            case.teardown(state)
    mean = statistics.fmean(samples)
    return BenchResult(
        suite=suite,
        name=case.name,
        iters=iters,
        mean_s=mean,
        min_s=min(samples),
        max_s=max(samples),
        stdev_s=statistics.stdev(samples) if len(samples) > 1 else 0.0,
        throughput=case.work_per_call / mean if mean > 0 else float("inf"),
        work_unit=case.work_unit,
    )


# ---------------------------------------------------------------------------
# Suite registry
# ---------------------------------------------------------------------------

#: name -> callable(scale: str) -> List[BenchCase]
SUITES: Dict[str, Callable[[str], List[BenchCase]]] = {}


def register_suite(name: str):
    def decorator(builder: Callable[[str], List[BenchCase]]):
        SUITES[name] = builder
        return builder
    return decorator


def run_suites(
    names: List[str],
    label: str,
    scale: str = "quick",
    warmup: int = 1,
    iters: int = 5,
    printer: Optional[Callable[[str], None]] = print,
) -> Dict[str, object]:
    """Run the named suites and return the JSON-serializable results document."""
    # Import for side effects: suite registration.
    from benchmarks.perf import (  # noqa: F401
        ops_bench,
        runtime_bench,
        serve_bench,
        telemetry_bench,
        train_bench,
    )

    unknown = [n for n in names if n != "all" and n not in SUITES]
    if unknown:
        raise KeyError(f"Unknown suite(s) {unknown}; available: {sorted(SUITES)}")
    selected = sorted(SUITES) if "all" in names else names

    results: List[BenchResult] = []
    for suite_name in selected:
        for case in SUITES[suite_name](scale):
            result = time_case(suite_name, case, warmup=warmup, iters=iters)
            results.append(result)
            if printer:
                printer(
                    f"  {suite_name}/{result.name}: mean {result.mean_s * 1e3:.3f} ms"
                    f"  ({result.throughput:,.1f} {result.work_unit}/s)"
                )
    return {
        "label": label,
        "scale": scale,
        "warmup": warmup,
        "iters": iters,
        "environment": _environment(),
        "results": [r.to_dict() for r in results],
    }


def _environment() -> Dict[str, object]:
    """Interpreter + machine + compute-runtime metadata recorded per run.

    Delegates to :func:`repro.obs.provenance.environment_block` — one
    canonical provenance block shared with the telemetry run manifests and
    ``scripts/loadgen.py``, so baselines and soak runs are comparable by
    the same identity fields (git SHA, numpy, thread knobs, BLAS backend
    and threads, cpu_count).
    """
    from repro.obs.provenance import environment_block

    return environment_block()


def write_results(document: Dict[str, object], path: str) -> None:
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=False)
        handle.write("\n")
