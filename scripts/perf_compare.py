#!/usr/bin/env python3
"""Base-vs-candidate comparison of two perf-results JSON files.

Prints a markdown table of per-case timings with the speedup of candidate
over base, and (with ``--fail-threshold``) exits non-zero when any case
regressed by more than the given factor — the gate ``scripts/perf_smoke.sh``
uses against the committed ``BENCH_perf.json`` baseline.

Usage::

    python scripts/perf_compare.py BENCH_perf.json candidate.json
    python scripts/perf_compare.py base.json cand.json --fail-threshold 1.5
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from typing import Dict, Tuple


def load_results(path: str) -> Tuple[str, Dict[Tuple[str, str], dict], dict]:
    with open(path) as handle:
        document = json.load(handle)
    by_case = {(r["suite"], r["name"]): r for r in document["results"]}
    return document.get("label", path), by_case, document.get("environment", {})


def environment_mismatch(base: dict, cand: dict) -> str:
    """One line naming every ``environment`` field the two files disagree on.

    A field differs when both record it with different values, or when only
    one side records it.  Empty when the blocks match.
    """
    fields = []
    for key in sorted(set(base) | set(cand)):
        if key not in cand:
            fields.append(f"{key} (base only)")
        elif key not in base:
            fields.append(f"{key} (candidate only)")
        elif base[key] != cand[key]:
            fields.append(f"{key} ({base[key]} vs {cand[key]})")
    return "environment differs: " + ", ".join(fields) if fields else ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two perf result files")
    parser.add_argument("base", help="Baseline results JSON (e.g. committed BENCH_perf.json)")
    parser.add_argument("candidate", help="Candidate results JSON")
    parser.add_argument(
        "--fail-threshold", type=float, default=None,
        help="Exit 1 when any shared case's candidate mean is more than this "
             "factor slower than base (e.g. 1.5)",
    )
    parser.add_argument(
        "--noise-threshold", type=float, default=0.05,
        help="Per-case relative tolerance before a delta counts as an "
             "improvement or regression: cases within ±this fraction of 1.0x "
             "are reported '~ unchanged' and never trip --fail-threshold "
             "(default 0.05)",
    )
    parser.add_argument(
        "--ungate", default=None, metavar="REGEX",
        help="Cases whose suite/name matches this regex are still compared "
             "and shown in the table, but a past-threshold slowdown reports "
             "'slower (ungated)' instead of failing the run.  For cases "
             "whose measurement noise is known to exceed any useful "
             "threshold (e.g. cross-thread wake latency on a 1-core host); "
             "every use should carry a written justification next to it",
    )
    parser.add_argument(
        "--stat", choices=("mean", "min"), default="mean",
        help="Which per-case statistic to compare (default mean).  'min' is "
             "robust to scheduler jitter on shared hosts: the fastest of N "
             "samples of identical work differs between runs only by real "
             "cost differences, so tight thresholds (e.g. the telemetry "
             "on/off 1.05x gate) stay meaningful where a 7-sample mean "
             "polluted by one descheduled sample would trip them",
    )
    args = parser.parse_args(argv)
    stat_key = f"{args.stat}_s"
    ungated = re.compile(args.ungate) if args.ungate else None

    base_label, base, base_env = load_results(args.base)
    cand_label, cand, cand_env = load_results(args.candidate)
    mismatch = environment_mismatch(base_env, cand_env)
    if mismatch:
        print(mismatch + "\n")
    shared = sorted(set(base) & set(cand))
    if not shared:
        print("No shared cases between the two result files", file=sys.stderr)
        return 2

    print(f"| suite/case | {base_label} {args.stat} | {cand_label} {args.stat} | speedup | verdict |")
    print("|---|---:|---:|---:|:--|")
    regressions = []
    speedups = []
    counts = {"faster": 0, "slower": 0, "unchanged": 0}
    for key in shared:
        b, c = base[key], cand[key]
        speedup = b[stat_key] / c[stat_key] if c[stat_key] > 0 else float("inf")
        if math.isfinite(speedup) and speedup > 0:
            speedups.append(speedup)
        rel_change = abs(speedup - 1.0)
        if rel_change <= args.noise_threshold:
            # Within measurement noise: neither an improvement nor a
            # regression, and never counted against --fail-threshold.
            verdict = "~ unchanged"
            counts["unchanged"] += 1
        elif speedup >= 1.0:
            verdict = "faster"
            counts["faster"] += 1
        else:
            verdict = "slower"
            counts["slower"] += 1
            if args.fail_threshold is not None and 1.0 / speedup > args.fail_threshold:
                if ungated is not None and ungated.search(f"{key[0]}/{key[1]}"):
                    verdict = "slower (ungated)"
                else:
                    regressions.append((key, 1.0 / speedup))
                    verdict = "REGRESSION"
        print(
            f"| {key[0]}/{key[1]} | {b[stat_key] * 1e3:.3f} ms "
            f"| {c[stat_key] * 1e3:.3f} ms | {speedup:.2f}x | {verdict} |"
        )

    only_base = sorted(set(base) - set(cand))
    only_cand = sorted(set(cand) - set(base))
    for key in only_base:
        print(f"| {key[0]}/{key[1]} | {base[key][stat_key] * 1e3:.3f} ms | — | — | base only |")
    for key in only_cand:
        print(f"| {key[0]}/{key[1]} | — | {cand[key][stat_key] * 1e3:.3f} ms | — | candidate only |")

    if speedups:
        geomean = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
        print(f"\nGeometric-mean speedup over {len(speedups)} shared case(s): {geomean:.2f}x")
        print(
            f"{counts['faster']} faster, {counts['slower']} slower, "
            f"{counts['unchanged']} within noise (±{args.noise_threshold:.0%})"
        )

    if regressions:
        print(file=sys.stderr)
        for (suite, name), factor in regressions:
            print(
                f"REGRESSION: {suite}/{name} is {factor:.2f}x slower than baseline "
                f"(threshold {args.fail_threshold:.2f}x)",
                file=sys.stderr,
            )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
