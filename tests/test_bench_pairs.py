import importlib.util
import os

import pytest

PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "bench_pairs.py")
spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "frames_per_s", "better": "higher"},
           {"name": "peak_rss_mb", "better": "lower"}]


def run(workload, seed, side, **metrics):
    return {"workload": workload, "seed": seed, "side": side, "metrics": metrics}


class TestSummarize:
    def test_quartiles_and_wins_per_workload(self):
        runs = []
        for seed, (p, c) in enumerate([(100, 90), (102, 91), (98, 99), (101, 101), (99, 80)]):
            runs += [run("w", seed, "parent", peak_rss_mb=p, frames_per_s=10.0),
                     run("w", seed, "change", peak_rss_mb=c, frames_per_s=10.0 + seed)]
        runs.append(run("v", 0, "parent", peak_rss_mb=5))
        runs.append(run("v", 0, "change", peak_rss_mb=4))
        summary = bench_pairs.summarize(runs, METRICS)
        rss = summary["w"]["peak_rss_mb"]
        assert rss["pairs"] == 5
        assert (rss["change_wins"], rss["parent_wins"]) == (3, 1)      # the tie counts for neither
        assert rss["parent"] == {"q1": 99, "median": 100, "q3": 101}
        assert rss["change"] == {"q1": 90, "median": 91, "q3": 99}
        assert rss["parent_iqr"] == 2
        assert rss["median_change_frac"] == pytest.approx(-0.09)
        fps = summary["w"]["frames_per_s"]
        assert (fps["change_wins"], fps["parent_wins"]) == (4, 0)    # higher is better here
        assert summary["v"]["peak_rss_mb"]["parent"] == {"q1": 5, "median": 5, "q3": 5}
        assert "frames_per_s" not in summary["v"]

    def test_unpaired_and_failed_runs_are_not_counted(self):
        runs = [run("w", 1, "parent", peak_rss_mb=10), run("w", 1, "change", peak_rss_mb=9),
                run("w", 2, "parent", peak_rss_mb=10),
                {"workload": "w", "seed": 3, "side": "parent", "exit": 1},
                {"workload": "w", "seed": 3, "side": "change", "exit": 1}]
        rss = bench_pairs.summarize(runs, METRICS)["w"]["peak_rss_mb"]
        assert (rss["pairs"], rss["change_wins"]) == (1, 1)


def test_parse_seeds():
    assert bench_pairs.parse_seeds("401-404") == [401, 402, 403, 404]
    assert bench_pairs.parse_seeds("7,9") == [7, 9]
