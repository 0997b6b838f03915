#!/usr/bin/env python3
"""Builds and runs the ReplayOpt pipeline benchmark.

Run from the root of a source checkout:

  python3 perfbench/run.py --workload ga_compile --seed 1 --seconds 30 --trace 0

The first run configures and builds perfbench/CMakeLists.txt (the
program's libraries plus the benchmark binary, pipeline_bench) in Release
mode under $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that
variable is unset; later runs only rebuild what changed.

A timed run (--trace 0) runs pipeline_bench once per seed of a fixed panel
derived from --seed, each in its own process, and combines the per-seed
metrics. The panel, not --seconds, sets how much work a timed run
measures, so two commits always measure the same seeds; --seconds is
accepted and ignored. A traced run (--trace 1) runs pipeline_bench once,
at --seed. The last line of stdout is the result JSON. The exit status is
0 when every correctness check passed, 1 when one failed, 2 when the
benchmark could not run.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys

# Seeds per timed run. One seed's GA halts after a seed-dependent number of
# evaluations, so a single seed's wall time swings by a third; a panel of
# seeds, each a pure function of --seed, averages that out.
PANEL = {"ga_compile": 10, "suite_short": 4, "fleet_install_base": 3}
BUILD_JOBS = 4
MASK = (1 << 64) - 1


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def panel_seeds(seed, count):
    """--seed itself, then count - 1 seeds hashed from it (splitmix64)."""
    out = [seed]
    for i in range(1, count):
        z = (seed + 0x9E3779B97F4A7C15 * i) & MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append((z ^ (z >> 31)) & 0xFFFFFFFF)
    return out


def build(root):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no ReplayOpt sources under %s/src; run from a source checkout"
             % root)
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, base, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"),
                        "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "pipeline_bench", "-j", str(BUILD_JOBS)],
                   check=True, stdout=sys.stderr)
    return build_dir


def run_bench(build_dir, workload, seed, trace):
    """Runs pipeline_bench once; returns (exit code, text lines, result)."""
    cmd = [os.path.join(build_dir, "pipeline_bench"),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--out", build_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("pipeline_bench printed no result (exit %d)" % proc.returncode)
    return proc.returncode, lines[:-1], result


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def timed(build_dir, args):
    seeds = panel_seeds(args.seed, PANEL[args.workload])
    runs = []
    for s in seeds:
        code, lines, result = run_bench(build_dir, args.workload, s, 0)
        print("\n".join(lines))
        digest = [l.split()[1] for l in lines
                  if l.startswith("result_digest ")]
        runs.append((code, result, digest[0] if digest else ""))

    def values(name):
        return [r["metrics"][name]["value"] for _, r, _ in runs]

    # Medians over the panel's seeds: a few seeds' searches cost twice the
    # typical one, and a median ignores them, and a stray slow process.
    metrics = {}
    for name, unit in (("wall_s", "s"), ("cpu_s", "s"),
                       ("peak_rss_mb", "MiB"), ("setup_s", "s")):
        metrics[name] = {"value": statistics.median(values(name)),
                         "unit": unit}
    metrics["speedup_ga_geomean"] = {
        "value": geomean(values("speedup_ga_geomean")), "unit": "x"}
    attempted = sum(r["attempted"] for _, r, _ in runs)
    failed = sum(r["failed"] for _, r, _ in runs)
    correct = all(code == 0 and r["correct"] for code, r, _ in runs)
    panel_digest = hashlib.sha256(
        "".join(d for _, _, d in runs).encode()).hexdigest()[:16]

    print("=== %s, seed %d: panel of %d seeds %s"
          % (args.workload, args.seed, len(seeds), seeds))
    print("panel result_digest %s" % panel_digest)
    print("end-to-end metrics over the panel's seeds (median; speedup: "
          "geomean):")
    for name, m in metrics.items():
        print("  %-20s %16.6f %s" % (name, m["value"], m["unit"]))
    print("  %-20s %16.6f %s" % ("failed_ratio", failed / attempted, "ratio"))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(PANEL))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    try:
        build_dir = build(os.getcwd())
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    if args.trace:
        code, lines, result = run_bench(build_dir, args.workload, args.seed,
                                         1)
        print("\n".join(lines))
        print(json.dumps(result))
        sys.exit(code)
    sys.exit(timed(build_dir, args))


if __name__ == "__main__":
    main()
