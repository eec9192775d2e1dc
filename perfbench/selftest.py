#!/usr/bin/env python3
"""Self-test of the benchmark at its minimal size.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

1. Runs every workload through ``perfbench/run.py --size tiny`` in a fresh
   process, untraced and traced, and asserts that each run emits exactly
   the metrics ``BENCHMARK.json`` declares for its mode, with their units;
   that its output checks pass; that every end-to-end value is positive;
   that each workload's traced run enters the layers it exists to measure;
   and that no ledger attributes more time than its phase took.
2. Runs every workload in this process, then perturbs each output a check
   compares and asserts the check now fails, so no check is vacuous.

Exits non-zero on the first failed assertion.
"""

from __future__ import annotations

import copy
import glob
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Per-layer metrics each workload's traced run must read non-zero.
MUST_ENTER = {
    "csq_search": (
        "data.wait_ms", "nn.forward_ms", "csq.regularizer_ms", "autograd.backward_ms",
        "optim.step_ms", "training.evaluate_ms", "training.checkpoint_ms",
        "training.checkpoint_bytes", "autograd.im2col_ms", "runtime.gemm_calls",
        "runtime.gemm_gflops", "csq.search_s", "csq.avg_bits", "deploy.artifact_kib",
    ),
    "offline_eval": (
        "deploy.export_ms", "deploy.artifact.save_ms", "deploy.artifact.load_ms",
        "deploy.session.compile_ms", "deploy.session.run_ms", "deploy.session.rows_per_call",
        "deploy.step.conv_ms", "deploy.step.residual_ms", "deploy.step.attention_ms",
        "runtime.gemm_calls", "autograd.im2col_ms", "deploy.artifact_kib",
    ),
    "serve_steady": (
        "deploy.session.run_ms", "deploy.server.mean_batch", "deploy.server.service_p99_ms",
        "loadgen.sent", "serve.latency_p50_ms.high", "runtime.gemm_calls",
    ),
    "serve_mixed": (
        "deploy.session.run_ms", "deploy.server.mean_batch", "deploy.server.cache_hit_rate",
        "loadgen.sent", "serve.latency_p50_ms.high", "runtime.gemm_calls",
    ),
}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def run_tiny(workload: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "2", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    expect(proc.returncode == 0, f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_emission(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            line = run_tiny(workload, trace)
            where = f"{workload} --trace {trace}"
            expect(set(line) == {"correct", "attempted", "failed", "metrics"},
                   f"{where}: result keys {sorted(line)}")
            expect(line["correct"] and line["failed"] == 0 and line["attempted"] >= 1,
                   f"{where}: correct={line['correct']} failed={line['failed']} "
                   f"attempted={line['attempted']}")
            metrics = line["metrics"]
            expect(list(metrics) == [m["name"] for m in declared],
                   f"{where}: emitted {sorted(set(metrics) ^ {m['name'] for m in declared})} "
                   f"differently from BENCHMARK.json")
            for m in declared:
                expect(metrics[m["name"]]["unit"] == m["unit"],
                       f"{where}: {m['name']} unit {metrics[m['name']]['unit']} != {m['unit']}")
            if trace == 0:
                for name, metric in metrics.items():
                    expect(metric["value"] > 0, f"{where}: {name} = {metric['value']}")
            else:
                for name in MUST_ENTER[workload]:
                    expect(metrics[name]["value"] > 0,
                           f"{where}: {name} = 0, the workload never entered that layer")
                check_ledgers(workload)
            print(f"selftest: {where}: {len(metrics)} metrics emitted with units, checks pass")


def check_ledgers(workload: str) -> None:
    """No phase's rows may add up to more than its wall time (double counting)."""
    results = glob.glob(os.path.join(ROOT, ".perfbench_out", f"{workload}-seed3-trace1-*.result.json"))
    latest = max(results, key=os.path.getmtime)
    with open(latest) as handle:
        ledgers = json.load(handle)["ledgers"]
    for phase, book in ledgers.items():
        rows = sum(row["self_ms"] for row in book["rows"].values())
        expect(abs(rows + book["unattributed_ms"] - book["wall_ms"]) < 1e-6,
               f"{workload} {phase}: rows + unattributed != wall")
        expect(book["unattributed_ms"] > -0.05 * book["wall_ms"],
               f"{workload} {phase}: rows exceed the wall time by "
               f"{-book['unattributed_ms']:.2f} ms")


# ---------------------------------------------------------------------------
# Perturbed outputs must fail their checks
# ---------------------------------------------------------------------------
def bump(array):
    """A copy of ``array`` with one element moved by ten times its parity tolerance."""
    import numpy as np

    from perfbench.workloads import parity_tol

    out = np.array(array, dtype=np.float64, copy=True)
    out.flat[0] += 10 * parity_tol(array)
    return out


def flip_first_prediction(served, labels):
    """A copy whose first prediction changes between right and wrong."""
    import numpy as np

    out = np.array(served, copy=True)
    wrong = (int(labels[0]) + 1) % out.shape[1]
    target = wrong if int(np.argmax(out[0])) == int(labels[0]) else int(labels[0])
    out[0, target] = out[0].max() + 1.0
    return out


def failing(check, outputs) -> list:
    return [c.name for c in check(outputs) if not c.ok]


def check_perturbations() -> None:
    import tempfile

    from perfbench import workloads as W
    from perfbench.trace import NullTracer

    for name, cls in W.WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-selftest-") as workdir:
            workload = cls(5, "tiny", workdir, 1.0)
            state = workload.setup(NullTracer())
            result = workload.run(state, NullTracer(), None)
            workload.finish(state, result)
            workload.teardown(state)
        outputs = result.outputs
        expect(not failing(cls.check, outputs), f"{name}: checks fail on unperturbed outputs")
        cases = []
        if name == "csq_search":
            first = next(iter(outputs["precisions"]))
            for bad in (outputs["num_bits"] + 1, -1, 2.5):
                broken = copy.deepcopy(outputs)
                broken["precisions"][first] = bad
                cases.append((f"precision {bad}", broken))
            cases.append(("served logit moved",
                          dict(outputs, served=bump(outputs["served"]))))
        elif name == "offline_eval":
            for label, out in outputs.items():
                cases.append((f"{label} logit moved", dict(
                    outputs, **{label: dict(out, served=bump(out["served"]))})))
                cases.append((f"{label} prediction flipped", dict(
                    outputs, **{label: dict(out, served=flip_first_prediction(
                        out["served"], out["labels"]))})))
        else:
            served = list(outputs["served"])
            served[0] = bump(served[0])
            cases.append(("sampled response moved", dict(outputs, served=served)))
            cases.append(("no samples", dict(outputs, served=[], reference=[])))
        for description, broken in cases:
            expect(failing(cls.check, broken), f"{name}: check passed on perturbed output "
                                               f"({description})")
        print(f"selftest: {name}: {len(cases)} perturbed outputs each fail a check")


def main() -> int:
    sys.path.insert(0, ROOT)
    from perfbench.run import pin_environment

    pin_environment()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    check_perturbations()
    check_emission(spec)
    print("selftest: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
