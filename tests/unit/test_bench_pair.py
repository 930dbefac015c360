"""``tools/bench_pair.py``: the per-metric report is a pure function."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), "..", "..", "tools", "bench_pair.py")
_spec = importlib.util.spec_from_file_location("bench_pair", _PATH)
bench_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pair)

RATE = {"name": "private_queries_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
LATENCY = {"name": "private_nn_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}

PARENT = [300.0, 320.0, 330.0, 340.0, 360.0]  # median 330, quartiles 320 .. 340


def lines(metric, parent, change):
    return bench_pair.report(metric, parent, change).split("\n")


class TestReport:
    def test_a_clear_gain_inside_the_spread_rule(self):
        out = lines(RATE, PARENT, [1000.0, 1010.0, 1020.0, 1030.0, 1040.0])
        assert "bound 25.0%" in out[0]
        assert "median 330" in out[1] and "320 .. 340" in out[1]
        assert "(+209.1%)" in out[2] and "won 5/5, lost 0" in out[2]
        assert out[3] == "  change IQR 20 against bound x parent median 82.5"
        assert out[4] == "  every change run better than every parent run: yes"
        assert out[5] == "  parent runs 300 320 330 340 360"
        assert out[6] == "  change runs 1000 1010 1020 1030 1040"

    def test_a_gain_whose_own_spread_is_over_the_rule(self):
        """The width allowed is absolute: 25 % of the *parent's* median."""
        out = lines(RATE, PARENT, [900.0, 950.0, 1000.0, 1050.0, 1100.0])
        assert out[3] == "  change IQR 100 against bound x parent median 82.5  SPREAD OVER THE RULE"
        assert out[4].endswith("yes")

    def test_one_overlapping_run_is_not_a_clean_sweep(self):
        out = lines(RATE, PARENT, [350.0, 1010.0, 1020.0, 1030.0, 1040.0])
        assert "won 5/5" in out[2]  # pair by pair it still wins every time
        assert out[4].endswith("no")  # but 350 < 360

    def test_lower_is_better_reads_the_other_way(self):
        parent = [4.0, 4.2, 4.4, 4.6, 4.8]
        better = lines(LATENCY, parent, [1.1, 1.2, 1.2, 1.3, 1.4])
        assert "won 5/5, lost 0" in better[2] and better[4].endswith("yes")
        worse = lines(LATENCY, parent, [5.9, 6.0, 6.1, 6.2, 6.3])
        assert "WORSE THAN BOUND" in worse[2] and "won 0/5, lost 5" in worse[2]
        assert worse[4].endswith("no")

    def test_ties_count_for_neither_side(self):
        out = lines(RATE, [1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        assert "won 0/3, lost 0" in out[2]
        assert out[3] == "  change IQR 0 against bound x parent median 0.25"
        assert out[4].endswith("no")

    def test_a_move_inside_the_parents_own_quartiles_says_so(self):
        out = lines(RATE, PARENT, [310.0, 325.0, 335.0, 345.0, 350.0])
        assert "within parent's spread" in out[2]

    def test_one_run_per_side(self):
        assert bench_pair.quartiles([7.0]) == (7.0, 7.0, 7.0)
        assert "won 1/1" in lines(RATE, [7.0], [8.0])[2]


def test_workloads_are_checked_against_the_manifest(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["bench_pair.py", "HEAD", "--workloads", "query_mix_10k,nope"])
    with pytest.raises(SystemExit):
        bench_pair.main()
    assert "declares no workload 'nope'" in capsys.readouterr().err
