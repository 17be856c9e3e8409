"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload train-reduced --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

`--trace 0` times the workload untraced and reports the end-to-end metrics.
`--trace 1` spends half the time untraced and half traced, and reports the
per-layer metrics per round plus `trace.overhead_frac`, the relative loss of
`frames_per_s` under tracing.  `--workload all` runs every workload, each in
its own process.  The last line of standard output is the result; the line
before it records the environment.  The exit code is nonzero when an output
check fails or a traced function the workload must call recorded no call.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOAD_NAMES = ("train-reduced", "train-figure3", "decode-long")


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def measure(wl, budget, tracer=None):
    """Whole rounds until `budget` seconds have passed and the workload has
    its minimum of decode samples.  A traced round starts with a set-up, so
    that every traced count is a whole number per round."""
    rounds = []
    start = time.perf_counter()
    while (not rounds or time.perf_counter() - start < budget
           or sum(len(r.decode_ms) for r in rounds) < wl.MIN_DECODES):
        if tracer is not None:
            wl.setup()
        rounds.append(wl.round())
        wl.remove_stale()
    return rounds


def frames_per_s(rounds):
    return statistics.median(r.frames / r.seconds for r in rounds)


def run_workload(name, seed, seconds, trace, size):
    from tracing import Tracer
    from workloads import WORKLOADS

    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    try:
        wl = WORKLOADS[name](work, seed, size)
        wl.prepare()
        setups = []
        for _ in range(wl.SETUP_REPS):
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)
            wl.remove_stale()
        wl.warmup()
        rounds = measure(wl, seconds / 2 if trace else seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(wl, seconds / 2, tracer)
            finally:
                tracer.uninstall()
            blind = tracer.blind_spots(wl.EXPECTED)
            if blind:
                raise SystemExit(f"{name}: traced functions recorded no call: {', '.join(blind)}")
            metrics = tracer.report(len(traced))
            untraced_fps = frames_per_s(rounds)
            metrics["trace.overhead_frac"] = ((untraced_fps - frames_per_s(traced)) / untraced_fps,
                                              "frac")
            rounds += traced
        else:
            decode_ms = [ms for r in rounds for ms in r.decode_ms]
            metrics = {"setup_s": (statistics.median(setups), "s"),
                       "frames_per_s": (frames_per_s(rounds), "frames/s"),
                       "decode_ms_p50": (statistics.median(decode_ms), "ms"),
                       "decode_ms_p90": (percentile(decode_ms, 90), "ms"),
                       "peak_rss_mb": (peak_rss_mb, "MB")}
        failures = wl.check()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in failures:
        print(f"{name}: check failed: {failure}", file=sys.stderr)
    return {"correct": not failures, "attempted": sum(r.operations for r in rounds), "failed": 0,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(args):
    """Each workload in its own process; prints every result line."""
    ok = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print(json.dumps({"workload": name, "returncode": proc.returncode,
                          "result": json.loads(lines[-1]) if lines else None}))
        ok = ok and proc.returncode == 0
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the harness test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, BENCH_DIR)
    from env import describe, pin_environment
    pin_environment()
    result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.size)
    print(json.dumps({"env": describe(), "workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
