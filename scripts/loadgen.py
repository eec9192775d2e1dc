#!/usr/bin/env python3
"""Open-loop Poisson load generator + soak harness for the deploy server.

Closed-loop benchmarks (``benchmarks/perf/serve_bench.py``) submit a new
request only after the previous one completes, so they can never observe
queueing: the server is always exactly keeping up.  This harness is
**open-loop**: request arrival times are drawn from a Poisson process at a
configured offered rate and dispatched on schedule *regardless* of whether
earlier requests have completed — exactly the regime where tail latency,
queue wait, and batch-size dynamics appear.

Per offered rate the harness runs two phases against a packed resnet20
artifact:

* ``cold`` — every request is a fresh example (the response cache, if any,
  never hits) after a ``Server.clear_cache()``;
* ``warm`` — requests cycle a small pool of repeated examples, so the LRU
  cache serves most of them.

An optional sustained **soak** phase then holds one rate for a configured
duration, reporting per-tick percentiles and queue depth — the long-run
regime where unbounded state (the bug the streaming histograms fixed)
would show up as drift.

Everything the harness consumes comes from the telemetry subsystem
(:mod:`repro.obs`): client-side per-request records stream into
``requests.ndjson``, server-side records (``request``/``batch``/``span``)
into ``events.ndjson`` via a run-scoped sink, latency percentiles come
from the fixed-memory streaming :class:`~repro.obs.metrics.Histogram`,
and ``manifest.json`` carries the full provenance block.  A markdown
report with p50/p95/p99 tables and a throughput-vs-offered-load curve is
written next to them, and a self-check validates percentile monotonicity,
manifest completeness, and NDJSON parseability before exiting.

Usage::

    PYTHONPATH=src python scripts/loadgen.py --smoke          # tier-1 smoke
    PYTHONPATH=src python scripts/loadgen.py \
        --rates 25,50,100 --duration 4 --soak 30              # real run

See OBSERVABILITY.md for the NDJSON schema and report format.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import Future, wait
from typing import Dict, List, Optional, Sequence

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import obs  # noqa: E402
from repro.deploy import (  # noqa: E402
    FaultPlan,
    InferenceSession,
    Server,
    ServerError,
    load_artifact,
    save_artifact,
)
from repro.deploy.testing import frozen_mixed_model  # noqa: E402
from repro.obs.metrics import Histogram  # noqa: E402
from repro.obs.provenance import validate_manifest  # noqa: E402
from repro.obs.sink import NdjsonSink, read_ndjson  # noqa: E402
from repro.utils import seed_everything  # noqa: E402

# Chaos phase configuration (``--chaos``).  The fault indices are admission
# indices, spaced so the poison batch, the crash batch, and the slow stall
# never coalesce into one micro-batch (a crash salvage followed by a poison
# failure in the *same* batch would push every member to the quarantine
# threshold).  Poison and crash land early — before the stall — so their
# requests cannot expire in queue before the fault fires.
_CHAOS_POISON_AT = 2
_CHAOS_CRASH_AT = 12
_CHAOS_SLOW_AT = 20
_CHAOS_SLOW_MS = 600.0
_CHAOS_QUEUE_LIMIT = 4
_CHAOS_DEADLINE_MS = 400.0


# ----------------------------------------------------------------------
# Workload construction
# ----------------------------------------------------------------------
def build_artifact(args, run_dir: str) -> Dict[str, object]:
    """Export a packed mixed-precision resnet20 into the run directory."""
    seed_everything(args.seed)
    kwargs = {"num_classes": 10, "width_mult": args.width}
    calibration_shape = (4, 3, args.sizes[0], args.sizes[0])
    model = frozen_mixed_model(
        args.arch,
        precisions=tuple(args.precisions),
        randomize_bn=False,
        act_bits=args.act_bits,
        calibration_shape=calibration_shape if args.act_bits < 32 else None,
        **kwargs,
    )
    path = os.path.join(run_dir, "artifact.npz")
    save_artifact(model, path, arch=args.arch, arch_kwargs=kwargs)
    return {"path": path, "bytes": os.path.getsize(path)}


def make_example(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.standard_normal((3, size, size)).astype(np.float32)


def make_pool(rng: np.random.Generator, sizes: Sequence[int], count: int) -> List[np.ndarray]:
    """``count`` distinct examples cycling through the configured sizes."""
    return [make_example(rng, sizes[i % len(sizes)]) for i in range(count)]


def poisson_arrivals(rng: np.random.Generator, rate: float, duration: float) -> np.ndarray:
    """Cumulative arrival offsets (seconds) of a Poisson process.

    Open-loop: the schedule is fixed up front and requests are dispatched
    at these instants no matter how the server is doing.
    """
    n = max(4, int(rate * duration * 2))
    gaps = rng.exponential(1.0 / rate, size=n)
    arrivals = np.cumsum(gaps)
    arrivals = arrivals[arrivals < duration]
    if arrivals.size == 0:
        arrivals = np.array([duration / 2.0])
    return arrivals


# ----------------------------------------------------------------------
# Open-loop dispatch
# ----------------------------------------------------------------------
def run_phase(
    server: Server,
    rng: np.random.Generator,
    rate: float,
    duration: float,
    sizes: Sequence[int],
    phase: str,
    client_sink: NdjsonSink,
    pool: Optional[List[np.ndarray]] = None,
    tick_s: float = 0.0,
    tick_rows: Optional[List[Dict[str, float]]] = None,
) -> Dict[str, object]:
    """Dispatch one open-loop phase; returns its summary row.

    ``pool`` switches warm mode (examples cycle the pool, hitting the
    response cache); without it every request is a fresh example.  With
    ``tick_s > 0`` per-tick percentile rows (the soak trace) are appended
    to ``tick_rows`` and emitted as ``soak_tick`` NDJSON records.
    """
    arrivals = poisson_arrivals(rng, rate, duration)
    server.stats.reset()
    latency_hist = Histogram()
    records: List[Dict[str, object]] = []
    futures: List[Future] = []
    errors = 0
    behind_ms_max = 0.0
    done_at: List[float] = []
    # Queue depth is only observable live: sample it at tick boundaries
    # during dispatch; latencies are bucketed into ticks after the fact.
    depth_samples: List[tuple] = []
    last_depth_sample = 0.0

    start = time.perf_counter()
    for index, offset in enumerate(arrivals):
        now = time.perf_counter() - start
        delay = offset - now
        if delay > 0:
            time.sleep(delay)
        else:
            behind_ms_max = max(behind_ms_max, -delay * 1e3)
        x = pool[index % len(pool)] if pool is not None else make_example(
            rng, sizes[index % len(sizes)]
        )
        submitted = time.perf_counter()
        record = {
            "type": "loadgen_request",
            "id": index,
            "phase": phase,
            "rate": rate,
            "size": int(x.shape[-1]),
            "offered_at_s": float(offset),
        }

        def on_done(future: Future, record=record, submitted=submitted) -> None:
            ended = time.perf_counter()
            error = future.exception()
            record["ok"] = error is None
            record["latency_ms"] = 1e3 * (ended - submitted)
            record["done_at_s"] = ended - start
            if error is not None:
                record["error"] = repr(error)

        try:
            future = server.submit(x)
        except ServerError as error:
            # Admission-time shed (queue full / quarantined payload): the
            # rejection is synchronous, so there is no future to wait on.
            record["ok"] = False
            record["error"] = repr(error)
            records.append(record)
            continue
        future.add_done_callback(on_done)
        futures.append(future)
        records.append(record)
        if tick_s > 0:
            now = time.perf_counter() - start
            if now - last_depth_sample >= tick_s:
                depth_samples.append((now, server.stats.snapshot()["queue_depth"]))
                last_depth_sample = now

    wait(futures, timeout=duration + 30.0)
    for record in records:
        if "latency_ms" not in record and "error" not in record:
            # Still pending after the grace window (sheds already carry an
            # error from admission and must not be relabelled as timeouts).
            record["ok"] = False
            record["error"] = "timeout"
            errors += 1
        elif not record["ok"]:
            errors += 1
        else:
            latency_hist.record(record["latency_ms"] / 1e3)
            done_at.append(record["done_at_s"])
        client_sink.emit(record)

    if tick_s > 0:
        buckets: Dict[int, Histogram] = {}
        for record in records:
            if record.get("ok") and "done_at_s" in record:
                bucket = int(record["done_at_s"] // tick_s)
                buckets.setdefault(bucket, Histogram()).record(record["latency_ms"] / 1e3)
        for bucket in sorted(buckets):
            hist = buckets[bucket]
            window_start, window_end = bucket * tick_s, (bucket + 1) * tick_s
            depth = max(
                (d for t, d in depth_samples if window_start <= t < window_end),
                default=0.0,
            )
            p50, p95, p99 = hist.quantiles([0.50, 0.95, 0.99])
            row = {
                "t_s": window_end,
                "requests": hist.count,
                "p50_ms": 1e3 * p50,
                "p95_ms": 1e3 * p95,
                "p99_ms": 1e3 * p99,
                "queue_depth": depth,
            }
            if tick_rows is not None:
                tick_rows.append(row)
            client_sink.emit({"type": "soak_tick", "rate": rate, **row})

    completed = len(done_at)
    span_s = (max(done_at) - float(arrivals[0])) if completed else 0.0
    snapshot = server.stats.snapshot()
    row: Dict[str, object] = {
        "rate": rate,
        "phase": phase,
        "requests": len(records),
        "completed": completed,
        "errors": errors,
        "achieved_rps": completed / span_s if span_s > 0 else 0.0,
        "behind_ms_max": behind_ms_max,
        "mean_batch": snapshot["mean_batch_size"],
        "cache_hit_rate": snapshot["cache_hit_rate"],
        "queue_wait_p95_ms": snapshot.get("queue_wait_p95_ms", 0.0),
        "service_p95_ms": snapshot.get("service_p95_ms", 0.0),
        "rejected": snapshot.get("rejected", 0.0),
        "expired": snapshot.get("expired", 0.0),
        "restarts": snapshot.get("restarts", 0.0),
        "retries": snapshot.get("retries", 0.0),
        "quarantined": snapshot.get("quarantined", 0.0),
    }
    if latency_hist.count:
        p50, p95, p99 = latency_hist.quantiles([0.50, 0.95, 0.99])
        row.update(
            latency_mean_ms=1e3 * latency_hist.mean,
            latency_p50_ms=1e3 * p50,
            latency_p95_ms=1e3 * p95,
            latency_p99_ms=1e3 * p99,
            latency_max_ms=1e3 * latency_hist.max,
        )
    return row


# ----------------------------------------------------------------------
# Chaos phase
# ----------------------------------------------------------------------
def run_chaos_phase(
    args,
    session: InferenceSession,
    rng: np.random.Generator,
    client_sink: NdjsonSink,
) -> Dict[str, object]:
    """One open-loop phase against a resilience-configured server under a
    seeded :class:`FaultPlan`: a persistent poison (quarantine), a worker
    crash (supervisor restart), and a slow step that overflows the bounded
    queue (sheds) and pushes queued requests past their deadline (expiry).

    Exact shed/expired counts are arrival-timing dependent (the serve smoke
    pins them bitwise on a deterministic schedule); here the self-check
    asserts the *contract*: every server-side counter increment surfaces
    client-side as the matching typed error.
    """
    rate = max(args.rates)
    plan = (
        FaultPlan(seed=args.seed)
        .poison_at(_CHAOS_POISON_AT)
        .crash_at(_CHAOS_CRASH_AT)
        .slow_at(_CHAOS_SLOW_AT, ms=_CHAOS_SLOW_MS)
    )
    server = Server(
        session,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        cache_size=0,  # response caching would mask fault/admission behavior
        queue_limit=_CHAOS_QUEUE_LIMIT,
        default_deadline_ms=_CHAOS_DEADLINE_MS,
        faults=plan,
    )
    print(
        f"loadgen: chaos {args.duration:.1f}s @ {rate:g} rps, "
        f"queue_limit {_CHAOS_QUEUE_LIMIT}, deadline {_CHAOS_DEADLINE_MS:g} ms, "
        f"plan {plan!r}"
    )
    with server:
        row = run_phase(server, rng, rate, args.duration, args.sizes,
                        "chaos", client_sink)
    row["fault_plan"] = repr(plan)
    print(
        "loadgen: chaos: {completed} ok, {shed:.0f} shed, {expired:.0f} expired, "
        "{restarts:.0f} restarted, {quarantined:.0f} quarantined".format(
            completed=row["completed"], shed=row["rejected"],
            expired=row["expired"], restarts=row["restarts"],
            quarantined=row["quarantined"],
        )
    )
    return row


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def _fmt(value: object, digits: int = 2) -> str:
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def render_report(
    run_id: str,
    args,
    artifact_info: Dict[str, object],
    kernels: Dict[str, str],
    rows: List[Dict[str, object]],
    soak_rows: List[Dict[str, float]],
    soak_rate: float,
    files: Dict[str, int],
) -> str:
    environment = obs.environment_block()
    lines = [
        f"# Load generator report — {run_id}",
        "",
        f"- git `{environment['git_sha']}`, numpy {environment['numpy']}, "
        f"{environment['cpu_count']} cpu(s), "
        f"{environment['blas']} at {environment['blas_threads']} blas thread(s)",
        f"- artifact: `{args.arch}` width {args.width}, act_bits {args.act_bits}, "
        f"packed {artifact_info['bytes'] / 1024:.1f} KiB, "
        f"gemm kernels {'/'.join(sorted(set(kernels.values())))}",
        f"- server: max_batch {args.max_batch}, max_wait_ms {args.max_wait_ms}, "
        f"cache_size {args.cache_size}",
        f"- open loop: Poisson arrivals, {args.duration:.1f}s per phase, "
        f"request sizes {'/'.join(str(s) for s in args.sizes)}, seed {args.seed}",
        "",
        "## Latency vs offered load",
        "",
        "| offered rps | phase | requests | errors | achieved rps | p50 ms | p95 ms "
        "| p99 ms | max ms | mean batch | cache hit % | queue-wait p95 ms | service p95 ms |",
        "|---:|:---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|",
    ]
    for row in rows:
        lines.append(
            "| {rate:g} | {phase} | {requests} | {errors} | {achieved:.1f} "
            "| {p50} | {p95} | {p99} | {pmax} | {batch:.1f} | {hit:.0f} | {qw} | {sv} |".format(
                rate=row["rate"],
                phase=row["phase"],
                requests=row["requests"],
                errors=row["errors"],
                achieved=row["achieved_rps"],
                p50=_fmt(row.get("latency_p50_ms", 0.0)),
                p95=_fmt(row.get("latency_p95_ms", 0.0)),
                p99=_fmt(row.get("latency_p99_ms", 0.0)),
                pmax=_fmt(row.get("latency_max_ms", 0.0)),
                batch=row["mean_batch"],
                hit=100.0 * row["cache_hit_rate"],
                qw=_fmt(row["queue_wait_p95_ms"]),
                sv=_fmt(row["service_p95_ms"]),
            )
        )
    lines += ["", "## Throughput vs offered load", ""]
    by_rate: Dict[float, Dict[str, Dict[str, object]]] = {}
    for row in rows:
        if row["phase"] in ("cold", "warm"):
            by_rate.setdefault(row["rate"], {})[row["phase"]] = row
    lines += [
        "| offered rps | achieved rps (cold) | achieved rps (warm) | cold achieved/offered |",
        "|---:|---:|---:|---:|",
    ]
    max_achieved = max(
        (row["achieved_rps"] for row in rows), default=1.0
    ) or 1.0
    for rate in sorted(by_rate):
        cold = by_rate[rate].get("cold", {})
        warm = by_rate[rate].get("warm", {})
        cold_rps = float(cold.get("achieved_rps", 0.0))
        warm_rps = float(warm.get("achieved_rps", 0.0))
        lines.append(
            f"| {rate:g} | {cold_rps:.1f} | {warm_rps:.1f} "
            f"| {cold_rps / rate:.2f} |"
        )
    lines += ["", "```", "offered rps    achieved (cold)"]
    for rate in sorted(by_rate):
        cold_rps = float(by_rate[rate].get("cold", {}).get("achieved_rps", 0.0))
        bar = "#" * max(1, int(round(40 * cold_rps / max_achieved)))
        lines.append(f"{rate:>11g}    {bar} {cold_rps:.1f}")
    lines.append("```")
    chaos_rows = [row for row in rows if row.get("phase") == "chaos"]
    if chaos_rows:
        chaos = chaos_rows[0]
        lines += [
            "",
            "## Chaos — seeded fault injection",
            "",
            f"- fault plan `{chaos.get('fault_plan', '?')}`; fresh server with "
            f"queue_limit {_CHAOS_QUEUE_LIMIT}, "
            f"default_deadline_ms {_CHAOS_DEADLINE_MS:g}, cache off",
            "- typed-error contract: every shed / expired / quarantined request "
            "surfaces client-side as `ServerOverloaded` / `DeadlineExceeded` / "
            "`RequestQuarantined` (cross-checked against the server counters "
            "by the self-check)",
            "",
            "| offered rps | requests | completed | shed | expired | restarted "
            "| retried | quarantined | p95 ms |",
            "|---:|---:|---:|---:|---:|---:|---:|---:|---:|",
            "| {rate:g} | {requests} | {completed} | {shed:.0f} | {expired:.0f} "
            "| {restarts:.0f} | {retries:.0f} | {quarantined:.0f} | {p95} |".format(
                rate=chaos["rate"],
                requests=chaos["requests"],
                completed=chaos["completed"],
                shed=chaos["rejected"],
                expired=chaos["expired"],
                restarts=chaos["restarts"],
                retries=chaos["retries"],
                quarantined=chaos["quarantined"],
                p95=_fmt(chaos.get("latency_p95_ms", 0.0)),
            ),
        ]
    if soak_rows:
        lines += [
            "",
            f"## Soak — {args.soak:.0f}s @ {soak_rate:g} rps (warm pool)",
            "",
            "| t (s) | requests | p50 ms | p95 ms | p99 ms | queue depth |",
            "|---:|---:|---:|---:|---:|---:|",
        ]
        for row in soak_rows:
            lines.append(
                "| {t_s:.1f} | {requests} | {p50_ms:.2f} | {p95_ms:.2f} "
                "| {p99_ms:.2f} | {queue_depth:.0f} |".format(**row)
            )
    lines += ["", "## Run files", ""]
    for name, count in files.items():
        suffix = f" ({count} records)" if count >= 0 else ""
        lines.append(f"- `{name}`{suffix}")
    lines.append("")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Self-check
# ----------------------------------------------------------------------
def _check_chaos(
    rows: List[Dict[str, object]],
    per_request: List[Dict[str, object]],
) -> List[str]:
    """Chaos-phase invariants.

    Exact shed/expired counts depend on arrival timing, so the check pins
    what *is* deterministic — the injected poison quarantines exactly one
    request, the injected crash restarts the worker, the stalled queue sheds
    and expires at least one request each — plus the typed-error contract:
    client-observed ``ServerOverloaded`` / ``DeadlineExceeded`` /
    ``RequestQuarantined`` tallies equal the server-side counters.
    """
    failures: List[str] = []
    chaos_rows = [row for row in rows if row.get("phase") == "chaos"]
    if not chaos_rows:
        return ["chaos enabled but no chaos summary row was produced"]
    row = chaos_rows[0]
    chaos_records = [r for r in per_request if r.get("phase") == "chaos"]
    for key, marker in (
        ("rejected", "ServerOverloaded"),
        ("expired", "DeadlineExceeded"),
        ("quarantined", "RequestQuarantined"),
    ):
        client = sum(
            1 for r in chaos_records if marker in str(r.get("error", ""))
        )
        server_side = int(row.get(key, -1))
        if client != server_side:
            failures.append(
                f"chaos: client saw {client} {marker} error(s) but the server "
                f"counted {key}={server_side}"
            )
    if int(row.get("restarts", 0)) < 1:
        failures.append("chaos: injected crash produced no worker restart")
    if int(row.get("quarantined", 0)) != 1:
        failures.append(
            f"chaos: injected poison should quarantine exactly 1 request, "
            f"got {row.get('quarantined')}"
        )
    if int(row.get("rejected", 0)) < 1:
        failures.append("chaos: the slow-step stall shed no requests")
    if int(row.get("expired", 0)) < 1:
        failures.append("chaos: no queued request expired past its deadline")
    return failures


def self_check(
    run_dir: str,
    report_path: str,
    rows: List[Dict[str, object]],
    rates: Sequence[float],
    telemetry_on: bool,
    chaos: bool = False,
) -> List[str]:
    """Validate the run's artifacts; returns failure messages (empty == ok)."""
    failures: List[str] = []
    for row in rows:
        quantile_keys = ("latency_p50_ms", "latency_p95_ms", "latency_p99_ms")
        if all(key in row for key in quantile_keys):
            p50, p95, p99 = (row[key] for key in quantile_keys)
            if not (p50 <= p95 <= p99):
                failures.append(
                    f"percentiles not monotone at rate {row['rate']:g}/{row['phase']}: "
                    f"p50={p50:.2f} p95={p95:.2f} p99={p99:.2f}"
                )
        elif row["completed"]:
            failures.append(
                f"row rate {row['rate']:g}/{row['phase']} completed requests "
                f"but carries no percentiles"
            )
        if row["completed"] + row["errors"] != row["requests"]:
            failures.append(
                f"row rate {row['rate']:g}/{row['phase']}: completed+errors "
                f"!= requests ({row['completed']}+{row['errors']} != {row['requests']})"
            )
    manifest_path = os.path.join(run_dir, "manifest.json")
    if not os.path.exists(manifest_path):
        failures.append("manifest.json missing")
    else:
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        missing = validate_manifest(manifest)
        if missing:
            failures.append(f"manifest incomplete, missing {missing}")
    requests_path = os.path.join(run_dir, "requests.ndjson")
    try:
        client_records = read_ndjson(requests_path)
    except (OSError, ValueError) as error:
        failures.append(f"requests.ndjson unreadable: {error}")
    else:
        per_request = [r for r in client_records if r.get("type") == "loadgen_request"]
        expected = sum(int(row["requests"]) for row in rows)
        if len(per_request) != expected:
            failures.append(
                f"requests.ndjson carries {len(per_request)} loadgen_request "
                f"records, expected {expected}"
            )
        if chaos:
            failures.extend(_check_chaos(rows, per_request))
    if telemetry_on:
        events_path = os.path.join(run_dir, "events.ndjson")
        try:
            events = read_ndjson(events_path)
        except (OSError, ValueError) as error:
            failures.append(f"events.ndjson unreadable: {error}")
        else:
            types = {record.get("type") for record in events}
            for required in ("request", "batch"):
                if required not in types:
                    failures.append(
                        f"events.ndjson has no {required!r} records (types: {sorted(types)})"
                    )
    try:
        with open(report_path) as handle:
            report_text = handle.read()
    except OSError as error:
        failures.append(f"report unreadable: {error}")
    else:
        headings = ["## Latency vs offered load", "## Throughput vs offered load"]
        if chaos:
            headings.append("## Chaos")
        for heading in headings:
            if heading not in report_text:
                failures.append(f"report is missing section {heading!r}")
        for rate in rates:
            if f"| {rate:g} |" not in report_text:
                failures.append(f"report has no row for offered rate {rate:g}")
    return failures


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------
def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--rates", default="25,50,100",
                        help="comma-separated offered request rates (rps)")
    parser.add_argument("--duration", type=float, default=4.0,
                        help="seconds of open-loop dispatch per phase per rate")
    parser.add_argument("--sizes", default="12,16",
                        help="comma-separated square input sizes mixed across requests")
    parser.add_argument("--arch", default="resnet20")
    parser.add_argument("--width", type=float, default=0.2)
    parser.add_argument("--act-bits", type=int, default=4)
    parser.add_argument("--precisions", default="2,3,4,5")
    parser.add_argument("--max-batch", type=int, default=8)
    parser.add_argument("--max-wait-ms", type=float, default=2.0)
    parser.add_argument("--cache-size", type=int, default=64)
    parser.add_argument("--warm-pool", type=int, default=8,
                        help="distinct examples cycled during warm phases")
    parser.add_argument("--soak", type=float, default=0.0,
                        help="seconds of sustained soak after the rate sweep (0 = off)")
    parser.add_argument("--soak-rate", type=float, default=None,
                        help="offered rate during soak (default: middle sweep rate)")
    parser.add_argument("--tick", type=float, default=5.0,
                        help="soak reporting tick in seconds")
    parser.add_argument("--out", default=os.path.join("runs", "loadgen"),
                        help="root directory for run output")
    parser.add_argument("--run-id", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--chaos", action="store_true",
                        help="after the sweep, run a seeded fault-injection phase "
                             "(poison/crash/slow) against a resilience-configured "
                             "server and report shed/expired/restart counts")
    parser.add_argument("--no-telemetry", action="store_true",
                        help="skip the server-side telemetry sink (client records still written)")
    parser.add_argument("--no-check", action="store_true",
                        help="skip the end-of-run self-check")
    parser.add_argument("--smoke", action="store_true",
                        help="fast preset for tier-1: tiny phases, tiny soak")
    args = parser.parse_args(argv)
    if args.smoke:
        args.rates = "20,40,80"
        args.duration = 0.6
        args.sizes = "8"
        args.soak = 1.5
        args.tick = 0.5
        args.warm_pool = 4
        args.max_wait_ms = 1.0
    args.rates = [float(r) for r in str(args.rates).split(",") if r]
    args.sizes = [int(s) for s in str(args.sizes).split(",") if s]
    args.precisions = [int(p) for p in str(args.precisions).split(",") if p]
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    run_id = args.run_id or f"loadgen-{time.strftime('%Y%m%d-%H%M%S')}-{os.getpid()}"
    client_sink = NdjsonSink(args.out, run_id=run_id, filename="requests.ndjson")
    run_dir = client_sink.run_dir
    print(f"loadgen: run {run_id} -> {run_dir}")

    artifact_info = build_artifact(args, run_dir)
    session = InferenceSession(load_artifact(str(artifact_info["path"])))
    kernels = session.gemm_kernels
    print(
        f"loadgen: artifact {artifact_info['bytes'] / 1024:.1f} KiB, "
        f"kernels {'/'.join(sorted(set(kernels.values())))}"
    )
    client_sink.write_manifest(
        label=run_id,
        params={
            "rates": args.rates,
            "duration_s": args.duration,
            "sizes": args.sizes,
            "arch": args.arch,
            "width": args.width,
            "act_bits": args.act_bits,
            "precisions": args.precisions,
            "max_batch": args.max_batch,
            "max_wait_ms": args.max_wait_ms,
            "cache_size": args.cache_size,
            "warm_pool": args.warm_pool,
            "soak_s": args.soak,
            "seed": args.seed,
            "artifact_bytes": artifact_info["bytes"],
            "telemetry": not args.no_telemetry,
            "chaos": args.chaos,
        },
    )

    telemetry_on = not args.no_telemetry
    if telemetry_on:
        events_sink = NdjsonSink(args.out, run_id=run_id, filename="events.ndjson")
        obs.configure_telemetry(enabled=True, sink=events_sink)

    rng = np.random.default_rng(args.seed)
    rows: List[Dict[str, object]] = []
    soak_rows: List[Dict[str, float]] = []
    soak_rate = args.soak_rate or sorted(args.rates)[len(args.rates) // 2]
    server = Server(
        session,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        cache_size=args.cache_size,
    )
    try:
        with server:
            pool = make_pool(rng, args.sizes, args.warm_pool)
            for rate in args.rates:
                server.clear_cache()
                row = run_phase(server, rng, rate, args.duration, args.sizes,
                                "cold", client_sink)
                rows.append(row)
                print(
                    f"loadgen: rate {rate:g} cold: {row['completed']} ok, "
                    f"p95 {row.get('latency_p95_ms', 0.0):.2f} ms, "
                    f"achieved {row['achieved_rps']:.1f} rps"
                )
                row = run_phase(server, rng, rate, args.duration, args.sizes,
                                "warm", client_sink, pool=pool)
                rows.append(row)
                print(
                    f"loadgen: rate {rate:g} warm: {row['completed']} ok, "
                    f"p95 {row.get('latency_p95_ms', 0.0):.2f} ms, "
                    f"cache hit {100 * row['cache_hit_rate']:.0f}%"
                )
            if args.soak > 0:
                print(f"loadgen: soak {args.soak:.0f}s @ {soak_rate:g} rps")
                soak_summary = run_phase(
                    server, rng, soak_rate, args.soak, args.sizes, "soak",
                    client_sink, pool=pool, tick_s=args.tick, tick_rows=soak_rows,
                )
                rows.append(soak_summary)
        if args.chaos:
            # A fresh server: the chaos phase needs its own admission knobs
            # (queue_limit, default deadline) and a seeded FaultPlan, none of
            # which should perturb the sweep/soak measurements above.
            rows.append(run_chaos_phase(args, session, rng, client_sink))
    finally:
        if telemetry_on:
            obs.reset_telemetry()

    files = {"requests.ndjson": client_sink.emitted, "manifest.json": -1,
             "artifact.npz": -1}
    if telemetry_on:
        files["events.ndjson"] = len(read_ndjson(os.path.join(run_dir, "events.ndjson")))
    report = render_report(run_id, args, artifact_info, kernels, rows,
                           soak_rows, soak_rate, files)
    report_path = os.path.join(run_dir, "report.md")
    with open(report_path, "w") as handle:
        handle.write(report)
    client_sink.close()
    print(f"loadgen: report -> {report_path}")

    if not args.no_check:
        failures = self_check(run_dir, report_path, rows, args.rates, telemetry_on,
                              chaos=args.chaos)
        if failures:
            for failure in failures:
                print(f"loadgen self-check FAILED: {failure}")
            return 1
        suffix = (", chaos typed-error tallies match server counters"
                  if args.chaos else "")
        print("loadgen self-check OK: percentiles monotone, manifest complete, "
              f"NDJSON parseable, report renders every rate{suffix}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
