import importlib.util
import json
import os
import subprocess
import sys

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

    @pytest.mark.parametrize("parents, changes, resolved", [
        ([100, 104, 106, 110, 96], [101, 103, 105, 109, 97], True),    # IQR 6 <= 0.1 * 104
        ([80, 104, 118, 130, 90], [101, 103, 105, 109, 97], False),    # IQR 28 > 0.1 * 104
        ([80, 104, 118, 130, 90], [70, 71, 72, 73, 74], True),         # every change run better
        ([80, 104, 118, 130, 90], [70, 71, 72, 73, 81], False),        # one is not
    ])
    def test_a_metric_is_resolved_by_a_narrow_parent_or_a_clean_sweep(self, parents, changes,
                                                                      resolved):
        runs = []
        for seed, (p, c) in enumerate(zip(parents, changes)):
            runs += [run("w", seed, "parent", peak_rss_mb=p),
                     run("w", seed, "change", peak_rss_mb=c)]
        metrics = [{"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]
        row = bench_pairs.summarize(runs, metrics)["w"]["peak_rss_mb"]
        assert row["bound"] == 0.1
        assert row["resolved"] is resolved

    def test_a_clean_sweep_counts_in_the_better_direction(self):
        runs = []
        # the parent's IQR, 5.75, is wider than 0.25 * its median 11.5
        for seed, (p, c) in enumerate([(10, 31), (12, 32), (30, 33), (11, 34)]):
            runs += [run("w", seed, "parent", frames_per_s=p, peak_rss_mb=p),
                     run("w", seed, "change", frames_per_s=c, peak_rss_mb=c)]
        metrics = [{"name": "frames_per_s", "better": "higher", "bound": 0.25},
                   {"name": "peak_rss_mb", "better": "lower", "bound": 0.25}]
        rows = bench_pairs.summarize(runs, metrics)["w"]
        assert rows["frames_per_s"]["resolved"] is True
        assert rows["peak_rss_mb"]["resolved"] is False


def test_parse_seeds():
    assert bench_pairs.parse_seeds("401-404") == [401, 402, 403, 404]
    assert bench_pairs.parse_seeds("7,9") == [7, 9]


def test_command_of_a_traced_run():
    assert bench_pairs.command("decode-long", 411, 30, 1) == [
        sys.executable, "perfbench/run.py", "--workload", "decode-long", "--seed", "411",
        "--seconds", "30", "--trace", "1"]


def test_trace_seed_adds_one_traced_run_per_workload_and_side(tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 5, "workloads": [{"name": "w"}, {"name": "v"}], "end_to_end": METRICS}))
    monkeypatch.setattr(bench_pairs, "REPO", str(tmp_path))
    monkeypatch.setattr(bench_pairs, "revision", lambda ref: {"commit": ref, "tree": ref})
    monkeypatch.setattr(bench_pairs, "unpack", lambda tree, dest: os.makedirs(dest))
    commands = []

    def perfbench(argv, cwd, **kwargs):
        commands.append((os.path.basename(cwd), argv))
        result = {"correct": True, "attempted": 2, "failed": 0,
                  "metrics": {"frames_per_s": {"value": 10.0}}}
        return subprocess.CompletedProcess(
            argv, 0, stdout=json.dumps({"env": {"cores": 2}}) + "\n" + json.dumps(result) + "\n",
            stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", perfbench)
    assert bench_pairs.main(["--parent", "P", "--change", "C", "--label", "t",
                             "--seeds", "1-2", "--trace-seed", "9"]) == 0
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    traced = [(side, argv) for side, argv in commands if argv[-2:] == ["--trace", "1"]]
    assert sorted((side, argv[3]) for side, argv in traced) == [
        ("change", "v"), ("change", "w"), ("parent", "v"), ("parent", "w")]
    assert all(argv == bench_pairs.command(argv[3], 9, 5, 1) for _, argv in traced)
    assert len(commands) == 8 + 4
    assert [(r["workload"], r["side"], r["seed"]) for r in doc["trace_runs"]] == [
        ("w", "parent", 9), ("w", "change", 9), ("v", "parent", 9), ("v", "change", 9)]
    assert set(doc["trace_runs"][0]) == set(doc["runs"][0])
    assert doc["trace_runs"][1]["commit"] == "C" and doc["trace_runs"][0]["correct"] is True
    assert len(doc["runs"]) == 8
    assert doc["summary"]["w"]["frames_per_s"]["pairs"] == 2
