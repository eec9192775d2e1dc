"""Tests for the perf benchmark harness and the compare script."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT))

from benchmarks.perf.harness import BenchCase, run_suites, time_case, write_results


class TestTimeCase:
    def test_returns_sane_statistics(self):
        case = BenchCase("noop", lambda: [0], lambda state: state, work_per_call=4.0,
                         work_unit="widget")
        result = time_case("suite", case, warmup=1, iters=3)
        assert result.iters == 3
        assert result.min_s <= result.mean_s <= result.max_s
        assert result.throughput > 0
        assert result.work_unit == "widget"

    def test_setup_runs_once_fn_runs_warmup_plus_iters(self):
        calls = {"setup": 0, "fn": 0}

        def setup():
            calls["setup"] += 1
            return None

        def fn(_):
            calls["fn"] += 1

        time_case("suite", BenchCase("counts", setup, fn), warmup=2, iters=3)
        assert calls == {"setup": 1, "fn": 5}


class TestRunSuites:
    def test_unknown_suite_raises(self):
        with pytest.raises(KeyError):
            run_suites(["nope"], label="x", printer=None)

    def test_tiny_ops_suite_produces_results(self, tmp_path):
        document = run_suites(["ops"], label="unit", scale="tiny", warmup=0, iters=1,
                              printer=None)
        assert document["label"] == "unit"
        assert document["scale"] == "tiny"
        names = {(r["suite"], r["name"]) for r in document["results"]}
        assert ("ops", "im2col_3x3_s1_p1") in names
        assert ("ops", "conv2d_fwd_bwd") in names
        out = tmp_path / "res.json"
        write_results(document, str(out))
        assert json.loads(out.read_text())["results"]


class TestPerfCompare:
    def _doc(self, label, mean_by_case):
        return {
            "label": label,
            "results": [
                {"suite": s, "name": n, "iters": 1, "mean_s": m, "min_s": m,
                 "max_s": m, "stdev_s": 0.0, "throughput": 1.0 / m, "work_unit": "call"}
                for (s, n), m in mean_by_case.items()
            ],
        }

    def _run_compare(self, tmp_path, base, cand, *extra):
        base_path, cand_path = tmp_path / "base.json", tmp_path / "cand.json"
        base_path.write_text(json.dumps(base))
        cand_path.write_text(json.dumps(cand))
        return subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "perf_compare.py"),
             str(base_path), str(cand_path), *extra],
            capture_output=True, text=True,
        )

    def test_reports_speedup_table(self, tmp_path):
        base = self._doc("base", {("ops", "a"): 0.002})
        cand = self._doc("cand", {("ops", "a"): 0.001})
        proc = self._run_compare(tmp_path, base, cand)
        assert proc.returncode == 0
        assert "2.00x" in proc.stdout
        assert "faster" in proc.stdout

    def test_fails_on_regression_beyond_threshold(self, tmp_path):
        base = self._doc("base", {("ops", "a"): 0.001})
        cand = self._doc("cand", {("ops", "a"): 0.002})
        proc = self._run_compare(tmp_path, base, cand, "--fail-threshold", "1.5")
        assert proc.returncode == 1
        assert "REGRESSION" in proc.stdout + proc.stderr

    def test_regression_within_threshold_passes(self, tmp_path):
        base = self._doc("base", {("ops", "a"): 0.0010})
        cand = self._doc("cand", {("ops", "a"): 0.0012})
        proc = self._run_compare(tmp_path, base, cand, "--fail-threshold", "1.5")
        assert proc.returncode == 0

    def test_names_every_environment_field_that_differs(self, tmp_path):
        base = self._doc("base", {("ops", "a"): 0.001})
        cand = self._doc("cand", {("ops", "a"): 0.001})
        base["environment"] = {"cpu_count": 1, "numpy": "2.4.6", "repro_arena": "unset"}
        cand["environment"] = {"cpu_count": 2, "numpy": "2.4.6", "blas_threads": 1}
        proc = self._run_compare(tmp_path, base, cand, "--fail-threshold", "1.5")
        assert proc.returncode == 0
        lines = [line for line in proc.stdout.splitlines() if line.startswith("environment")]
        assert lines == [
            "environment differs: blas_threads (candidate only), cpu_count (1 vs 2), "
            "repro_arena (base only)"
        ]

    def test_matching_environments_print_no_mismatch_line(self, tmp_path):
        base = self._doc("base", {("ops", "a"): 0.001})
        cand = self._doc("cand", {("ops", "a"): 0.001})
        base["environment"] = cand["environment"] = {"cpu_count": 2}
        proc = self._run_compare(tmp_path, base, cand)
        assert proc.returncode == 0
        assert "environment" not in proc.stdout
