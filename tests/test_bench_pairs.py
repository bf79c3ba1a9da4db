"""The paired-run summary of tools/bench_pairs.py, on fixed run results."""

import pytest

import bench_pairs

END_TO_END = [{"name": "units_per_s", "better": "higher", "bound": 0.25},
              {"name": "op_p50_ms", "better": "lower", "bound": 0.25}]


def result(workload, pair, side, units, p50, exit=0, failed=0):
    return {"workload": workload, "pair": pair, "side": side, "seed": pair + 1, "exit": exit,
            "attempted": 10, "failed": failed,
            "metrics": {"units_per_s": {"value": units, "unit": "1/s"},
                        "op_p50_ms": {"value": p50, "unit": "ms"}}}


def test_medians_quartiles_and_pairs_won():
    runs = [result("w", k, side, units, p50) for k, (pu, cu, pp, cp) in enumerate(
        [(100, 110, 10, 9), (100, 110, 10, 10), (100, 90, 10, 12), (100, 110, 10, 9)])
        for side, units, p50 in (("parent", pu, pp), ("change", cu, cp))]
    summary = bench_pairs.summarize(runs, END_TO_END)["w"]
    units = summary["units_per_s"]
    assert units["parent"] == {"median": 100, "q1": 100, "q3": 100, "n": 4, "spread": 0.0}
    assert (units["change"]["median"], units["change"]["q1"], units["change"]["q3"]) == (
        110, 105, 110)
    assert (units["pairs"], units["change_won"], units["change_lost"]) == (4, 3, 1)
    assert units["worse_frac"] == pytest.approx(-0.1)
    assert units["verdict"] == "no change"           # won 3 of 4, short of 9 in 10
    p50 = summary["op_p50_ms"]
    assert (p50["change_won"], p50["change_lost"]) == (2, 1)        # a tie counts for neither
    assert p50["change"]["median"] == 9.5 and p50["worse_frac"] == pytest.approx(-0.05)
    assert summary["ops"] == {"parent": {"attempted": 40, "failed": 0},
                              "change": {"attempted": 40, "failed": 0}}
    assert summary["failed_runs"] == []


def test_verdicts():
    def verdict(parent, change, name="units_per_s"):
        runs = [result("w", k, "parent", p, p) for k, p in enumerate(parent)]
        runs += [result("w", k, "change", c, c) for k, c in enumerate(change)]
        return bench_pairs.summarize(runs, END_TO_END)["w"][name]["verdict"]

    assert verdict([100] * 10, [130] * 10) == "better"
    assert verdict([100] * 10, [130] * 8 + [90] * 2) == "no change"
    assert verdict([100] * 10, [70] * 10) == "worse"
    assert verdict([100] * 10, [70] * 10, "op_p50_ms") == "better"     # lower is better
    assert verdict([100] * 9 + [135], [130] * 9 + [140]) == "better"  # the runs overlap
    assert verdict([100] * 8 + [135], [130] * 8 + [140]) == "no change"  # too few pairs
    assert verdict([50, 100, 150, 200], [100] * 4) == "unresolved"     # spread above bound
    wide = [50, 60, 70, 80, 90, 100, 110, 120, 130, 140]
    assert verdict(wide, [w + 100 for w in wide]) == "better"        # every change run wins
    assert verdict(wide[:4], [w + 100 for w in wide[:4]]) == "better"     # with few pairs
    assert verdict(wide, [w + 50 for w in wide]) == "unresolved"     # the runs overlap


def test_more_failed_ops_refuse_a_gain():
    runs = [result("w", k, "parent", 100, 10) for k in range(10)]
    runs += [result("w", k, "change", 130, 7, failed=k == 0) for k in range(10)]
    summary = bench_pairs.summarize(runs, END_TO_END)["w"]
    assert summary["ops"] == {"parent": {"attempted": 100, "failed": 0},
                              "change": {"attempted": 100, "failed": 1}}
    assert summary["units_per_s"]["verdict"] == "no change"
    assert summary["op_p50_ms"]["verdict"] == "no change"


def test_failed_runs_keep_their_exit_codes():
    runs = [result("w", 0, "parent", 100, 10), result("w", 0, "change", 100, 10, failed=2),
            {"workload": "w", "pair": 1, "side": "change", "seed": 2, "exit": 3},
            result("w", 1, "parent", 100, 10)]
    summary = bench_pairs.summarize(runs, END_TO_END)["w"]
    assert summary["failed_runs"] == [{"side": "change", "pair": 1, "seed": 2, "exit": 3}]
    assert summary["ops"]["change"] == {"attempted": 10, "failed": 2}
    assert summary["units_per_s"]["pairs"] == 1 and summary["units_per_s"]["change"]["n"] == 1
    exited = [result("u", 0, "parent", 100, 10), result("u", 0, "change", 300, 30, exit=1),
              result("u", 1, "parent", 100, 10), result("u", 1, "change", 100, 10)]
    summary = bench_pairs.summarize(exited, END_TO_END)["u"]
    assert summary["failed_runs"] == [{"side": "change", "pair": 0, "seed": 1, "exit": 1}]
    assert summary["units_per_s"]["pairs"] == 1          # a run that exited 1 counts for nothing
    assert summary["units_per_s"]["change"]["median"] == 100
    only_parent = [result("v", 0, "parent", 100, 10),
                   {"workload": "v", "pair": 0, "side": "change", "seed": 1, "exit": 1}]
    assert bench_pairs.summarize(only_parent, END_TO_END)["v"]["units_per_s"][
        "verdict"] == "unresolved"


def test_parse_pairs():
    assert bench_pairs.parse_pairs("wafer-mc=10,design=3") == {"wafer-mc": 10, "design": 3}
