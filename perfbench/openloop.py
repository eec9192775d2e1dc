"""Open-loop request generator that times every request from its due time.

Arrivals are a Poisson process conditioned on its count: ``n`` instants
drawn uniformly over the rung's window and sorted.  The generator sends each
request at its instant whether or not earlier ones finished, so a stall
shows up as latency on every request due during it.  Latency runs from
the *due* time to completion, never from the actual submit; how late the
generator itself was (submit minus due) is reported separately, because a
late generator invalidates the rung rather than measuring the server.

A rung is sent as a few segments interleaved with the other rungs' (see
:func:`segments`), so a slow spell of the host falls on every rate alike
instead of on whichever rung happened to run then.

A failed or refused request counts as missing the SLO: it enters the
latency quantiles as infinitely slow.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import Future, wait
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np


def arrival_offsets(rng: np.random.Generator, rate: float, seconds: float) -> np.ndarray:
    """Sorted send offsets (s) of ``round(rate * seconds)`` Poisson arrivals."""
    count = max(1, int(round(rate * seconds)))
    return np.sort(rng.uniform(0.0, seconds, size=count))


def segments(offsets: np.ndarray, seconds: float, count: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Split a rung's arrivals into ``count`` equal windows.

    Yields ``(indices, offsets)`` per window, with offsets measured from the
    window's start.
    """
    width = seconds / count
    for part in range(count):
        lo, hi = part * width, (part + 1) * width
        indices = np.nonzero((offsets >= lo) & ((offsets < hi) | (part == count - 1)))[0]
        yield indices, offsets[indices] - lo


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (``inf`` entries sort last)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


@dataclass
class RungResult:
    """One offered rate of the ladder (or one segment of it), with sampled responses."""

    rate: float
    sent: int
    failed: int
    latencies_ms: List[float]
    late_ms: List[float]
    #: First due time to last completion, summed over segments.
    window_s: float
    #: request index -> response logits, every ``sample_every``-th request.
    samples: Dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def achieved_rps(self) -> float:
        completed = self.sent - self.failed
        return completed / self.window_s if completed else 0.0

    def p(self, q: float) -> float:
        return quantile(self.latencies_ms, q)

    def meets_slo(self, slo_ms: float, slo_quantile: float, min_achieved: float) -> bool:
        """Tail under the SLO, nothing failed, and no growing backlog.

        A backlog that grows over the window delays the last completions,
        so the achieved rate (completions over first-due to last-done)
        falls below ``min_achieved`` of the offered rate.
        """
        return (
            self.failed == 0
            and self.p(slo_quantile) <= slo_ms
            and self.achieved_rps >= min_achieved * self.rate
        )

    @classmethod
    def merge(cls, parts: Sequence["RungResult"]) -> "RungResult":
        return cls(
            rate=parts[0].rate,
            sent=sum(p.sent for p in parts),
            failed=sum(p.failed for p in parts),
            latencies_ms=[ms for p in parts for ms in p.latencies_ms],
            late_ms=[ms for p in parts for ms in p.late_ms],
            window_s=sum(p.window_s for p in parts),
            samples={i: r for p in parts for i, r in p.samples.items()},
        )


def run_rung(
    server,
    inputs: Sequence[np.ndarray],
    indices: np.ndarray,
    offsets: np.ndarray,
    rate: float,
    sample_every: int,
    timeout_s: float = 60.0,
) -> RungResult:
    """Send ``inputs[indices[i]]`` at ``offsets[i]`` seconds from now; wait for all of them.

    Every request whose index is a multiple of ``sample_every`` keeps its
    response under that index.
    """
    from repro.deploy import ServerError

    count = len(offsets)
    done_at = [math.inf] * count
    ok = [False] * count
    late_ms = [0.0] * count
    samples: Dict[int, np.ndarray] = {}
    futures: List[Future] = []

    def on_done(future: Future, slot: int) -> None:
        done_at[slot] = time.perf_counter()
        if future.exception() is None:
            ok[slot] = True
            if indices[slot] % sample_every == 0:
                samples[int(indices[slot])] = future.result()

    start = time.perf_counter() + 0.002
    due = start + offsets
    for slot in range(count):
        delay = due[slot] - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent = time.perf_counter()
        late_ms[slot] = 1e3 * max(0.0, sent - due[slot])
        try:
            future = server.submit(inputs[indices[slot]])
        except ServerError:
            done_at[slot] = sent
            continue
        future.add_done_callback(lambda f, slot=slot: on_done(f, slot))
        futures.append(future)
    wait(futures, timeout=timeout_s)

    latencies = [
        1e3 * (done_at[i] - due[i]) if ok[i] else math.inf for i in range(count)
    ]
    completed = [done_at[i] for i in range(count) if ok[i]]
    return RungResult(
        rate=rate,
        sent=count,
        failed=count - len(completed),
        latencies_ms=latencies,
        late_ms=late_ms,
        window_s=(max(completed) - start) if completed else math.inf,
        samples=samples,
    )
