#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload csq_search --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` first repeats that untraced run once, then runs the workload
again with spans recorded around the library's public calls, prints the
per-layer ledger and reports the per-layer metrics, including the tracing
overhead (traced minus untraced time of the same work).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Above it are a readable summary, the output checks, and a provenance line.
Spans and the full result are written under ``.perfbench_out/``.  The
metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 15
#: Setup-phase layers: their ledger rows come from the setup phase; every
#: other per-layer time is a run-phase self time.
SETUP_LAYERS = (
    "deploy.export", "deploy.artifact.save", "deploy.artifact.load", "deploy.session.compile",
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="'tiny' is the self-test's minimal size")
    return parser.parse_args(argv)


def pin_environment() -> None:
    """Run with telemetry off and one compute thread unless the caller chose otherwise.

    Must run before numpy is imported.  One OpenBLAS thread and one
    library compute thread (``REPRO_NUM_THREADS``) keep every workload
    within two busy threads: the trainer and its prefetcher, or the server's
    worker and the request generator.  On a 2-core x86 host the 2-thread
    compute pool ran the offline_eval passes 1.4x slower than one thread,
    with twice the run-to-run spread.  Both values are recorded in the
    provenance line.
    """
    os.environ.pop("REPRO_TELEMETRY", None)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("REPRO_NUM_THREADS", "1")
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def source_digest() -> str:
    """SHA-1 over ``src/`` (identifies the code where git is unavailable)."""
    digest = hashlib.sha1()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:12]


def blas_threads(nproc: int) -> str:
    """The thread count the loaded OpenBLAS reports, else what the environment asks for."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return str(getter())
    return os.environ.get("OPENBLAS_NUM_THREADS", f"default ({nproc})")


def provenance(seed: int) -> dict:
    import numpy as np
    from repro.obs import environment_block

    env = environment_block()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    env.update(
        seed=seed,
        nproc=nproc,
        src_sha1=source_digest(),
        blas=f"{blas.get('name')} {blas.get('version')}",
        blas_threads=blas_threads(nproc),
        repro_env={k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
    )
    return env


def peak_rss_mib() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(workload, tracer, repeats: int):
    """Set up ``repeats`` times; returns the last state and every duration."""
    durations = []
    state = None
    for _ in range(repeats):
        if state is not None:
            workload.teardown(state)
        started = time.perf_counter()
        state = workload.setup(tracer)
        durations.append(time.perf_counter() - started)
    return state, durations


def untraced(workload):
    from perfbench.trace import NullTracer

    tracer = NullTracer()
    state, setups = timed_setups(workload, tracer, SETUP_REPEATS)
    result = workload.run(state, tracer, None)
    return state, result, setups


def traced(workload, run_id: str):
    """One untraced setup + run, then the same work traced; returns both results."""
    from perfbench.trace import NullTracer, Tracer, instrument

    state, setups = timed_setups(workload, NullTracer(), 1)
    baseline = workload.run(state, NullTracer(), None)
    workload.teardown(state)
    tracer = Tracer(run_id)
    with instrument(tracer) as stack:
        with tracer.root("setup"):
            state = workload.setup(tracer)
        with tracer.root("run"):
            result = workload.run(state, tracer, stack)
    return state, result, baseline, tracer


def layer_metrics(tracer, result, baseline) -> tuple:
    from perfbench.trace import gemm_totals, ledger

    setup_ledger = ledger(tracer.spans, "setup")
    run_ledger = ledger(tracer.spans, "run")
    values = {}
    for name, row in run_ledger["rows"].items():
        values[f"{name}_ms"] = row["self_ms"]
    for name in SETUP_LAYERS:
        values[f"{name}_ms"] = setup_ledger["rows"].get(name, {}).get("self_ms", 0.0)
    gemm = gemm_totals(tracer.spans, "run")
    values.update({
        "runtime.gemm_calls": gemm["calls"],
        "runtime.gemm_mbytes": gemm["bytes"] / 1e6,
        "runtime.gemm_gflops": gemm["flops"] / (gemm["ms"] / 1e3) / 1e9 if gemm["ms"] else 0.0,
        "unattributed_ms": run_ledger["unattributed_ms"],
        "tracing.overhead_ms": 1e3 * (result.work_s - baseline.work_s),
        "tracing.overhead_pct": 100.0 * (result.work_s / baseline.work_s - 1.0),
    })
    values.update(tracer.counts)
    values.update(result.layer)
    return values, {"setup": setup_ledger, "run": run_ledger}


def print_ledger(name: str, ledgers: dict) -> None:
    for phase, book in ledgers.items():
        print(f"ledger {name} {phase}: wall {book['wall_ms']:.1f} ms")
        rows = sorted(book["rows"].items(), key=lambda kv: -kv[1]["self_ms"])
        total = 0.0
        for row_name, row in rows:
            total += row["self_ms"]
            print(f"  {row_name:32s} {row['self_ms']:12.2f} ms  {row['calls']:8d} calls")
        total += book["unattributed_ms"]
        print(f"  {'unattributed':32s} {book['unattributed_ms']:12.2f} ms")
        print(f"  {'sum of rows':32s} {total:12.2f} ms")


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no library source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(names)}",
              file=sys.stderr)
        return 2

    from perfbench.workloads import WORKLOADS

    out_dir = os.path.join(ROOT, ".perfbench_out")
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](args.seed, args.size, workdir, args.seconds)
        if args.trace:
            state, result, baseline, tracer = traced(workload, run_id)
            setups = []
        else:
            state, result, setups = untraced(workload)
        workload.finish(state, result)
        checks = workload.check(result.outputs)
        workload.teardown(state)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ledgers = None
    if args.trace:
        values, ledgers = layer_metrics(tracer, result, baseline)
        declared = spec["per_layer"]
        print_ledger(args.workload, ledgers)
        tracer.write(os.path.join(out_dir, f"{run_id}.spans.json"))
    else:
        values = {name: value for name, (value, _) in result.e2e.items()}
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mib"] = peak_rss_mib()
        declared = spec["end_to_end"]
        for name, (value, samples) in sorted(result.e2e.items()):
            print(f"{args.workload} {name} = {value:.6g} (n={samples})")
        print(f"{args.workload} setup_s = {values['setup_s']:.6g} "
              f"(median of {len(setups)}: {', '.join(f'{s:.4f}' for s in setups)})")
    for note in result.notes:
        print(f"{args.workload} {note}")
    for check in checks:
        print(f"check {'PASS' if check.ok else 'FAIL'}: {check.name}: {check.detail}")

    failed_checks = sum(not c.ok for c in checks)
    env = provenance(args.seed)
    print("provenance " + json.dumps(env, sort_keys=True))
    # A layer the workload never entered has zero self time; an end-to-end
    # metric is always measured.
    metrics = {
        m["name"]: {
            "value": float(values.get(m["name"], 0.0) if args.trace else values[m["name"]]),
            "unit": m["unit"],
        }
        for m in declared
    }
    line = {
        "correct": failed_checks == 0,
        "attempted": result.attempted + len(checks),
        "failed": result.failed + failed_checks,
        "metrics": metrics,
    }
    with open(os.path.join(out_dir, f"{run_id}.result.json"), "w") as handle:
        json.dump({"result": line, "all_values": values, "ledgers": ledgers, "provenance": env,
                   "checks": [vars(c) for c in checks]}, handle, indent=1, sort_keys=True)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
