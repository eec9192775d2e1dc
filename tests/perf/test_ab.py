"""The verdict rules of ``scripts/ab.py`` on synthetic paired runs."""

import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[2] / "scripts" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", _PATH)
ab = sys.modules["ab"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

#: Ten parent runs with quartiles 98.25 and 101.75 (IQR 3.5).
BASE = [97.0, 98.0, 99.0, 100.0, 100.0, 100.0, 100.0, 101.0, 102.0, 103.0]


def _candidate(wins, gap=10.0):
    """``BASE`` shifted up by ``gap`` in ``wins`` pairs and down by 1 in the rest."""
    return [b + gap if i < wins else b - 1.0 for i, b in enumerate(BASE)]


class TestVerdict:
    def test_nine_of_ten_wins_above_the_iqr_is_a_gain(self):
        result = ab.compare(BASE, _candidate(9), "higher", 0.25)
        assert (result.wins, result.pairs, result.verdict) == (9, 10, "gain")
        assert result.cand_median - result.base_median > result.base_iqr

    def test_eight_of_ten_wins_is_not_a_gain(self):
        result = ab.compare(BASE, _candidate(8), "higher", 0.25)
        assert result.wins == 8
        assert result.cand_median - result.base_median > result.base_iqr
        assert result.verdict == "none"

    def test_a_gap_within_the_parents_iqr_is_not_a_gain(self):
        result = ab.compare(BASE, _candidate(10, gap=1.0), "higher", 0.25)
        assert result.wins == 10
        assert result.verdict == "none"

    def test_fewer_than_ten_pairs_never_give_a_gain(self):
        for pairs in range(1, 10):
            result = ab.compare(BASE[:pairs], [b * 2 for b in BASE[:pairs]], "higher", 0.25)
            assert result.wins == pairs
            assert result.verdict != "gain", pairs

    def test_lower_is_better_counts_a_drop_as_a_win(self):
        result = ab.compare(BASE, [b - 20.0 for b in BASE], "lower", 0.25)
        assert (result.wins, result.verdict) == (10, "gain")

    @pytest.mark.parametrize("better,factor", [("higher", 0.7), ("lower", 1.3)])
    def test_worse_than_the_bound_is_a_regression(self, better, factor):
        result = ab.compare(BASE, [b * factor for b in BASE], better, 0.25)
        assert result.verdict == "regression"

    @pytest.mark.parametrize("better,factor", [("higher", 0.8), ("lower", 1.2)])
    def test_worse_within_the_bound_is_none(self, better, factor):
        result = ab.compare(BASE, [b * factor for b in BASE], better, 0.25)
        assert result.verdict == "none"

    def test_a_spread_wider_than_the_bound_is_unresolved(self):
        wide = [60.0, 70.0, 80.0, 90.0, 100.0, 100.0, 110.0, 120.0, 130.0, 140.0]
        assert ab.compare(wide, list(wide), "higher", 0.25).verdict == "unresolved"
        # The candidate's spread counts too.
        assert ab.compare(BASE, wide, "higher", 0.25).verdict == "unresolved"

    def test_ties_count_for_neither_side(self):
        result = ab.compare(BASE, list(BASE), "higher", 0.25)
        assert (result.wins, result.verdict) == (0, "none")
        assert result.change == 0.0


class TestEnvironmentMismatch:
    def test_names_every_differing_or_one_sided_field(self):
        line = ab.environment_mismatch(
            {"blas_threads": 1, "nproc": 2, "numpy": "2.4.6", "old": "x"},
            {"blas_threads": 2, "nproc": 2, "numpy": "2.4.6", "new": "y"},
        )
        assert line == ("environment differs: blas_threads (1 vs 2), new (candidate only), "
                        "old (base only)")

    def test_matching_blocks_give_no_line(self):
        assert ab.environment_mismatch({"nproc": 2}, {"nproc": 2}) == ""


def test_bench_digest_sees_only_the_benchmarks_files(tmp_path):
    for side in ("a", "b"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("print(1)\n")
        (tmp_path / side / "BENCHMARK.json").write_text("{}\n")
    (tmp_path / "b" / "README.md").write_text("outside the benchmark\n")
    assert ab.bench_digest(str(tmp_path / "a")) == ab.bench_digest(str(tmp_path / "b"))
    (tmp_path / "b" / "perfbench" / "run.py").write_text("print(2)\n")
    assert ab.bench_digest(str(tmp_path / "a")) != ab.bench_digest(str(tmp_path / "b"))


def test_moved_rows_compare_time_per_call():
    base = {"self_ms": 100.0, "calls": 10}
    # Twice the calls in twice the time: a time-bounded run that did more work.
    assert ab.moved_ms(base, {"self_ms": 200.0, "calls": 20}) == 0.0
    assert ab.moved_ms(base, {"self_ms": 150.0, "calls": 10}) == 50.0
    # The unattributed rest has no calls and compares raw totals.
    assert ab.moved_ms({"self_ms": 5.0, "calls": 0}, {"self_ms": 7.0, "calls": 0}) == 2.0
