"""Run the benchmark on a parent and a change in alternating pairs and summarize.

    python3 tools/bench_pairs.py --parent HEAD --label my_change --seeds 401-410
    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --label my_change \
        --seeds 401-410 --trace-seed 411

Each side is a `git archive` of its commit, or of the working tree with its
untracked files (`--change` left out), unpacked into a fresh directory
outside the repository.  For every workload of `BENCHMARK.json` and every
seed the two sides run
`python3 perfbench/run.py --workload W --seed S --seconds N --trace 0` back
to back, N being that file's `run_seconds`; the parent runs first for
even-indexed seeds and the change for odd ones.  Every result line, with
its seed, environment line and commit, goes to `BENCH_<label>.json` at the
repository root, rewritten after each run, together with a summary: for
each workload and end-to-end metric of `BENCHMARK.json`, each side's median
and quartiles, the number of pairs, the pairs the change won, the
parent's interquartile range, the metric's bound and whether the runs
resolve it (see `summarize`).  With `--trace-seed S`, each side then makes
one `--trace 1` run of every workload with seed S, kept under `trace_runs`
in the same record layout and left out of the summary.

Uses the standard library only.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values):
    """(q1, median, q3) of `values`, by the inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs, metrics):
    """Per workload and metric: each side's quartiles and the pairs the change won.

    `runs` are records with "workload", "seed", "side" ("parent" or
    "change") and "metrics" {name: value}; `metrics` are BENCHMARK.json's
    end-to-end entries, with "name", "better" ("lower" or "higher") and
    "bound", a fraction.  A pair is the two sides' runs of one workload and
    seed; a tie wins for neither side, and a pair that misses a value on
    either side is not counted.  A metric is "resolved" when the parent's
    interquartile range is at most `bound` times the parent's median, in
    magnitude, or when every change run is better than every parent run:
    otherwise the parent's spread is too wide to tell a change within the
    bound from noise.
    """
    summary = {}
    for workload in sorted({r["workload"] for r in runs}):
        by_side = {"parent": {}, "change": {}}
        for r in runs:
            if r["workload"] == workload and r.get("metrics"):
                by_side[r["side"]][r["seed"]] = r["metrics"]
        seeds = sorted(set(by_side["parent"]) & set(by_side["change"]))
        rows = {}
        for metric in metrics:
            name = metric["name"]
            pairs = [(by_side["parent"][s][name], by_side["change"][s][name]) for s in seeds
                     if name in by_side["parent"][s] and name in by_side["change"][s]]
            if not pairs:
                continue
            sign = 1 if metric["better"] == "higher" else -1
            parents, changes = [p for p, _ in pairs], [c for _, c in pairs]
            parent, change = quartiles(parents), quartiles(changes)
            bound = metric.get("bound")
            rows[name] = {
                "pairs": len(pairs),
                "change_wins": sum(sign * (c - p) > 0 for p, c in pairs),
                "parent_wins": sum(sign * (c - p) < 0 for p, c in pairs),
                "parent": dict(zip(("q1", "median", "q3"), parent)),
                "change": dict(zip(("q1", "median", "q3"), change)),
                "median_change_frac": (change[1] - parent[1]) / parent[1] if parent[1] else None,
                "parent_iqr": parent[2] - parent[0],
                "bound": bound,
                "resolved": (bound is not None and parent[2] - parent[0] <= bound * abs(parent[1])
                             or all(sign * (c - p) > 0 for p in parents for c in changes)),
            }
        summary[workload] = rows
    return summary


def parse_seeds(text):
    """"401-410" or "401,405,409" -> a list of ints."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def git(*args, env=None):
    return subprocess.run(["git", "-C", REPO, *args], check=True, capture_output=True,
                          text=True, env=env).stdout.strip()


def working_tree():
    """The tree id of the working tree, untracked files included, made with a
    scratch index so that the repository's own index is left alone."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))
        git("add", "-A", env=env)
        return git("write-tree", env=env)


def revision(ref):
    """The commit and tree of `ref`, or of the working tree when `ref` is None."""
    if ref is None:
        return {"commit": "working tree on " + git("rev-parse", "HEAD"), "tree": working_tree()}
    return {"commit": git("rev-parse", ref + "^{commit}"),
            "tree": git("rev-parse", ref + "^{tree}")}


def unpack(tree, dest):
    os.makedirs(dest)
    archive = subprocess.run(["git", "-C", REPO, "archive", tree], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def command(workload, seed, seconds, trace):
    """The perfbench command line of one run, to be run in a checkout."""
    return [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]


def run_one(checkout, workload, seed, seconds, trace=0):
    """One run: (exit code, environment line, result line, stderr tail)."""
    proc = subprocess.run(command(workload, seed, seconds, trace), cwd=checkout,
                          capture_output=True, text=True)
    lines = [json.loads(l) for l in proc.stdout.splitlines() if l.startswith("{")]
    env = next((l for l in lines if "env" in l), None)
    result = lines[-1] if lines and "metrics" in lines[-1] else None
    return proc.returncode, env, result, proc.stderr[-2000:]


def record(workload, seed, side, first, commit, outcome):
    """The record of one run, from run_one's `outcome`."""
    code, env, result, err = outcome
    rec = {"workload": workload, "seed": seed, "side": side, "first": first, "commit": commit,
           "exit": code, "env": env and env["env"]}
    if result is not None:
        rec.update({k: result[k] for k in ("correct", "attempted", "failed")})
        rec["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    if code != 0:
        rec["stderr_tail"] = err
    return rec


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="parent commit")
    ap.add_argument("--change", help="changed commit (default: the working tree)")
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--seeds", required=True, help='"401-410" or "401,403,..."')
    ap.add_argument("--trace-seed", type=int,
                    help="also make one --trace 1 run per workload and side with this seed")
    args = ap.parse_args(argv)

    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    sides = {"parent": revision(args.parent), "change": revision(args.change)}
    out_path = os.path.join(REPO, f"BENCH_{args.label}.json")
    doc = {"label": args.label,
           "command": "python3 perfbench/run.py --workload <w> --seed <s> "
                      f"--seconds {seconds} --trace 0",
           "order": "alternating: the parent runs first for even-indexed seeds, the change "
                    "for odd ones; each workload's pair runs back to back",
           "parent": sides["parent"], "change": sides["change"], "runs": [], "summary": {}}
    if args.trace_seed is not None:
        doc["trace_runs"] = []

    def save(runs, rec):
        runs.append(rec)
        doc["summary"] = summarize(doc["runs"], metrics)
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"{rec['workload']} seed {rec['seed']} {rec['side']}: exit {rec['exit']}",
              file=sys.stderr)

    work = tempfile.mkdtemp(prefix="bench_pairs-")
    try:
        checkouts = {}
        for side, info in sides.items():
            checkouts[side] = os.path.join(work, side)
            unpack(info["tree"], checkouts[side])
        for workload in workloads:
            for i, seed in enumerate(parse_seeds(args.seeds)):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    outcome = run_one(checkouts[side], workload, seed, seconds)
                    save(doc["runs"], record(workload, seed, side, order[0],
                                             sides[side]["commit"], outcome))
        if args.trace_seed is not None:
            for workload in workloads:
                for side in sides:
                    outcome = run_one(checkouts[side], workload, args.trace_seed, seconds, trace=1)
                    save(doc["trace_runs"], record(workload, args.trace_seed, side, "parent",
                                                   sides[side]["commit"], outcome))
    finally:
        shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
