#!/usr/bin/env python3
"""Same-host A/B comparison of two checkouts on the end-to-end benchmark.

Usage, from anywhere inside the repository::

    python scripts/ab.py BASE CANDIDATE [WORKLOAD ...] [--pairs N]
    python scripts/ab.py HEAD~1 HEAD serve_steady
    python scripts/ab.py HEAD . offline_eval          # working tree vs HEAD

``BASE`` and ``CANDIDATE`` are git revisions, or ``.`` for the working tree
as it stands.  Each revision is checked out into a scratch ``git worktree``
under ``.ab_work/``, removed on exit.  For every workload (default: every
workload in ``BENCHMARK.json``) the script runs ``--pairs`` pairs (default
10), each one run of each side's own benchmark command
(``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``,
``T`` being ``run_seconds``) with the same seed, seeds 11, 12, …, and
alternates which side runs first.  A run that fails or passes
``RUN_TIMEOUT_S`` is retried once; a run lost twice drops its pair.

It then prints, per end-to-end metric, one markdown row per workload with
both medians, the pairs the candidate won, the parent's interquartile
range and a verdict (:func:`compare`; the rules are PERFORMANCE.md's and
the ``bound``/``better`` fields of ``BENCHMARK.json``), each side's failed
share of operations, each side's ``provenance`` line and one
``environment differs: …`` line when the two disagree on anything but the
code.  When ``perfbench/`` or ``BENCHMARK.json`` differ between the sides
the numbers are printed with no verdict.  Last, one ``--trace 1`` run per
side per workload lists the ledger rows whose self time per call moved
most (:func:`moved_ms`), which shows where a change came from.

Exit status: 1 when any verdict is ``regression`` or the candidate fails a
larger share of operations (or loses more runs) than the base, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: The benchmark's own files: when they differ the sides measure different things.
BENCH_PATHS = ("perfbench", "BENCHMARK.json")
FIRST_SEED = 11
#: Seed of the one traced run per side (not among the pairs' seeds).
TRACE_SEED = 31
#: A traced run repeats the untraced one, so it takes about twice as long.
RUN_TIMEOUT_S = 600
#: A gain needs at least this many pairs, and the candidate winning 9 in 10.
GAIN_PAIRS = 10
#: Provenance fields that identify the code or the run, not the host.
IDENTITY_FIELDS = ("git_sha", "seed", "src_sha1")
MOVED_ROWS = 8


@dataclass(frozen=True)
class Comparison:
    """One end-to-end metric on one workload, over paired runs."""

    pairs: int
    wins: int
    base_median: float
    cand_median: float
    base_iqr: float
    cand_iqr: float
    verdict: str

    @property
    def change(self) -> float:
        """Candidate median relative to the base median (0.1 means 10% higher)."""
        return self.cand_median / self.base_median - 1.0 if self.base_median else 0.0


def quartiles(values: Sequence[float]) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def compare(base: Sequence[float], cand: Sequence[float], better: str, bound: float) -> Comparison:
    """The verdict on paired runs: ``base[i]`` and ``cand[i]`` share a seed.

    - ``gain``: at least ``GAIN_PAIRS`` pairs, the candidate wins at least 9
      in 10 of them (ties count for neither side), and the medians differ in
      its favour by more than the parent's interquartile range;
    - ``regression``: the candidate's median is worse than the parent's by
      more than ``bound``, a fraction of the parent's median;
    - ``unresolved``: either side's interquartile range is wider than
      ``bound`` of the parent's median, so the runs cannot tell;
    - ``none``: otherwise.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, cand))
    base_median, cand_median = statistics.median(base), statistics.median(cand)
    (base_q1, base_q3), (cand_q1, cand_q3) = quartiles(base), quartiles(cand)
    base_iqr, cand_iqr = base_q3 - base_q1, cand_q3 - cand_q1
    ahead = sign * (cand_median - base_median)
    scale = abs(base_median) or 1.0
    if len(base) >= GAIN_PAIRS and 10 * wins >= 9 * len(base) and ahead > base_iqr:
        verdict = "gain"
    elif -ahead > bound * scale:
        verdict = "regression"
    elif max(base_iqr, cand_iqr) > bound * scale:
        verdict = "unresolved"
    else:
        verdict = "none"
    return Comparison(len(base), wins, base_median, cand_median, base_iqr, cand_iqr, verdict)


def environment_mismatch(base: dict, cand: dict) -> str:
    """One line naming every field the two provenance blocks disagree on.

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


# ---------------------------------------------------------------------------
# Checkouts and runs
# ---------------------------------------------------------------------------
def git(*args: str) -> str:
    return subprocess.run(["git", "-C", REPO, *args], check=True, capture_output=True,
                          text=True).stdout.strip()


@dataclass
class Side:
    name: str
    rev: str
    root: str = ""

    @property
    def label(self) -> str:
        if self.rev == ".":
            return "working tree"
        return f"{self.rev} ({git('rev-parse', '--short', self.rev)})"


def bench_digest(root: str) -> str:
    """SHA-1 over the benchmark's own files in one checkout."""
    digest = hashlib.sha1()
    for top in BENCH_PATHS:
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(folder, name)
            for folder, dirs, names in os.walk(path)
            if "__pycache__" not in folder
            for name in names
        )
        for name in files:
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def run_bench(side: Side, command: List[str], workload: str, seed: int, seconds: float,
              trace: int) -> Optional[dict]:
    """One benchmark run in ``side``'s checkout, retried once; ``None`` when lost.

    Returns the result line plus ``provenance`` and, for a traced run, the
    ``ledgers`` of the full result file the run wrote.
    """
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", f"{seconds:g}", "--trace", str(trace)]
    # The side's perfbench puts its own src/ first; a caller's PYTHONPATH
    # must not put the other side's there.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for attempt in (1, 2):
        proc = subprocess.Popen(args, cwd=side.root, env=env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print(f"  {side.name} {workload} seed {seed}: timed out after {RUN_TIMEOUT_S} s "
                  f"(attempt {attempt})", file=sys.stderr)
            continue
        lines = out.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if proc.returncode == 0 else None
        except (IndexError, ValueError):
            result = None
        if result is None:
            tail = (err.strip().splitlines() or ["no output"])[-1]
            print(f"  {side.name} {workload} seed {seed}: exit {proc.returncode}, {tail} "
                  f"(attempt {attempt})", file=sys.stderr)
            continue
        for line in lines:
            if line.startswith("provenance "):
                result["provenance"] = json.loads(line[len("provenance "):])
        if trace:
            run_id = f"{workload}-seed{seed}-trace1-{proc.pid}"
            path = os.path.join(side.root, ".perfbench_out", f"{run_id}.result.json")
            if os.path.exists(path):
                with open(path) as handle:
                    result["ledgers"] = json.load(handle)["ledgers"]
        return result
    return None


def ledger_rows(result: Optional[dict]) -> Dict[str, dict]:
    """``{"phase/row": {"self_ms", "calls"}}`` of a traced run, unattributed included."""
    rows = {}
    for phase, book in ((result or {}).get("ledgers") or {}).items():
        for name, row in book["rows"].items():
            rows[f"{phase}/{name}"] = row
        rows[f"{phase}/unattributed"] = {"self_ms": book["unattributed_ms"], "calls": 0}
    return rows


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------
def print_metric_tables(spec: dict, results: Dict[str, list], same_bench: bool) -> bool:
    """One table per end-to-end metric; returns whether any row is a regression."""
    regressed = False
    for metric in spec["end_to_end"]:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        print(f"\n## {name} ({metric['unit']}, {better} is better, bound {bound:.0%})\n")
        print("| workload | base median | candidate median | change | candidate wins "
              "| base IQR | candidate IQR | verdict |")
        print("|---|---:|---:|---:|---:|---:|---:|:--|")
        for workload, pairs in results.items():
            kept = [(b, c) for b, c in pairs if b is not None and c is not None]
            if not kept:
                print(f"| {workload} | — | — | — | 0/0 | — | — | no complete pair |")
                continue
            r = compare([base["metrics"][name]["value"] for base, _ in kept],
                        [cand["metrics"][name]["value"] for _, cand in kept], better, bound)
            verdict = r.verdict if same_bench else "no verdict (benchmark differs)"
            regressed |= same_bench and r.verdict == "regression"
            print(f"| {workload} | {r.base_median:.4g} | {r.cand_median:.4g} | {r.change:+.1%} "
                  f"| {r.wins}/{r.pairs} | {r.base_iqr:.3g} | {r.cand_iqr:.3g} | {verdict} |")
    return regressed


def print_failures(results: Dict[str, list]) -> bool:
    """Each side's failed share; returns whether the candidate fares worse."""
    worse = False
    print("\n## Failed operations\n")
    print("| workload | base failed/attempted | candidate failed/attempted "
          "| runs lost (base/candidate) |")
    print("|---|---:|---:|---:|")
    for workload, pairs in results.items():
        shares = []
        for side in (0, 1):
            runs = [pair[side] for pair in pairs]
            done = [r for r in runs if r is not None]
            shares.append((sum(r["failed"] for r in done), sum(r["attempted"] for r in done),
                           len(runs) - len(done)))
        (bf, ba, bl), (cf, ca, cl) = shares
        worse |= cf * max(ba, 1) > bf * max(ca, 1) or cl > bl
        print(f"| {workload} | {bf}/{ba} | {cf}/{ca} | {bl}/{cl} |")
    return worse


def moved_ms(base: dict, cand: dict) -> float:
    """How far a ledger row moved: the candidate's self time at the base's call count.

    Time-bounded workloads do more or less work per run as the code gets
    faster or slower, so a row's raw total moves with every other row's.
    Scaling by calls compares time per call; a row without calls (the
    unattributed rest) compares raw totals.
    """
    if base["calls"] and cand["calls"]:
        return cand["self_ms"] * base["calls"] / cand["calls"] - base["self_ms"]
    return cand["self_ms"] - base["self_ms"]


def print_moved_rows(workload: str, base: Optional[dict], cand: Optional[dict]) -> None:
    print(f"\n### {workload}: ledger rows that moved most (--trace 1, seed {TRACE_SEED}, "
          f"one run per side)\n")
    if base is None or cand is None:
        print("a traced run was lost; no ledger to compare")
        return
    b_rows, c_rows = ledger_rows(base), ledger_rows(cand)
    empty = {"self_ms": 0.0, "calls": 0}
    moved = sorted(((moved_ms(b_rows.get(k, empty), c_rows.get(k, empty)), k)
                    for k in set(b_rows) | set(c_rows)), key=lambda item: -abs(item[0]))
    print("| phase/row | base self ms | candidate self ms | base calls | candidate calls "
          "| Δ ms at base calls |")
    print("|---|---:|---:|---:|---:|---:|")
    for delta, key in moved[:MOVED_ROWS]:
        b, c = b_rows.get(key, empty), c_rows.get(key, empty)
        print(f"| {key} | {b['self_ms']:.1f} | {c['self_ms']:.1f} | {b['calls']} "
              f"| {c['calls']} | {delta:+.1f} |")


def measure(sides: Sequence[Side], spec: dict, workloads: Sequence[str], pairs: int) -> dict:
    """``{workload: [(base result, candidate result), ...]}`` over alternating pairs."""
    seconds = spec["run_seconds"]
    results = {}
    for workload in workloads:
        results[workload] = []
        for index in range(pairs):
            seed = FIRST_SEED + index
            order = sides if index % 2 == 0 else sides[::-1]
            got = {side.name: run_bench(side, spec["command"], workload, seed, seconds, 0)
                   for side in order}
            results[workload].append((got["base"], got["candidate"]))
            print(f"{workload} pair {index + 1}/{pairs} seed {seed} ({order[0].name} first): "
                  + ", ".join(f"{name} " + (f"{r['metrics']['throughput_per_s']['value']:.4g}/s"
                                            if r else "lost") for name, r in got.items()),
                  file=sys.stderr)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git revision, or . for the working tree")
    parser.add_argument("candidate", help="git revision, or . for the working tree")
    parser.add_argument("workloads", nargs="*", help="default: every workload in BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=GAIN_PAIRS,
                        help=f"pairs per workload (default {GAIN_PAIRS}; fewer never give a gain)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sides = (Side("base", args.base), Side("candidate", args.candidate))
    work = os.path.join(REPO, ".ab_work")
    os.makedirs(work, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="ab-", dir=work)
    try:
        for side in sides:
            if side.rev == ".":
                side.root = REPO
            else:
                side.root = os.path.join(scratch, side.name)
                git("worktree", "add", "--detach", "--quiet", side.root, side.rev)
        with open(os.path.join(sides[0].root, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        known = [w["name"] for w in spec["workloads"]]
        unknown = sorted(set(args.workloads) - set(known))
        if unknown:
            parser.error(f"unknown workload(s) {unknown}; choose from {known}")
        workloads = args.workloads or known
        same_bench = bench_digest(sides[0].root) == bench_digest(sides[1].root)

        results = measure(sides, spec, workloads, args.pairs)
        traced = {w: [run_bench(side, spec["command"], w, TRACE_SEED, spec["run_seconds"], 1)
                      for side in sides] for w in workloads}

        print(f"# A/B: base {sides[0].label} vs candidate {sides[1].label}\n")
        last_seed = FIRST_SEED + args.pairs - 1
        print(f"{args.pairs} pairs per workload, seeds {FIRST_SEED}–{last_seed}, "
              f"--seconds {spec['run_seconds']:g}, alternating which side runs first.")
        if not same_bench:
            print("\nperfbench/ or BENCHMARK.json differ between the sides: no verdict.")
        provenance = []
        for index, side in enumerate(sides):
            runs = [pair[index] for pairs in results.values() for pair in pairs]
            block = next((r["provenance"] for r in runs if r and "provenance" in r), {})
            provenance.append({k: v for k, v in block.items() if k not in IDENTITY_FIELDS})
            print(f"\nprovenance {side.name} " + json.dumps(block, sort_keys=True))
        mismatch = environment_mismatch(*provenance)
        if mismatch:
            print("\n" + mismatch)
        regressed = print_metric_tables(spec, results, same_bench)
        fails_more = print_failures(results)
        for workload, (base, cand) in traced.items():
            print_moved_rows(workload, base, cand)
        if fails_more:
            print("\nThe candidate fails a larger share of operations, or loses more runs.")
        return 1 if regressed or fails_more else 0
    finally:
        for side in sides:
            if side.root and side.root != REPO:
                subprocess.run(["git", "-C", REPO, "worktree", "remove", "--force", side.root],
                               capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)
        subprocess.run(["git", "-C", REPO, "worktree", "prune"], capture_output=True)


if __name__ == "__main__":
    sys.exit(main())
