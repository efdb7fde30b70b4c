#!/usr/bin/env python3
"""Coupled-month benchmark: build, run one workload, check the result.

Run from the root of the repository (or of a checkout of it):

  python3 perfbench/run.py --workload durable_chaos --seed 3 --seconds 45 --trace 0
  python3 perfbench/run.py --report [--seed 1] [--seconds 45]
  python3 perfbench/run.py --write-pins --seeds 0-31

The first form builds perfbench/ into .bench_build/ (once; later runs only
rebuild what changed), runs the workload and prints its metrics; the last
line of standard output is the JSON result.  --report runs every workload
once per trace mode and prints every metric by name and unit.  --write-pins
records the fingerprints of correct runs into perfbench/pins.tsv.  See
perfbench/README.md.
"""

import argparse
import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
BINARY = CMAKE_DIR / "coupled_month"
PINS = HERE / "pins.tsv"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ["base_month", "paper_grid", "durable_chaos"]
RUN_TIMEOUT_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or not (
        ROOT / "bench" / "common.cpp"
    ).is_file():
        die(f"the simulator sources (src/, bench/) are missing under {ROOT}")
    steps = []
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(CMAKE_DIR), "--target",
                  "coupled_month", "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            die("build failed: " + " ".join(cmd))


def declared_metrics():
    """Metric names BENCHMARK.json declares, per trace mode."""
    if not SPEC.is_file():
        return None
    spec = json.loads(SPEC.read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_workload(workload, seed, seconds, trace):
    """Runs the binary; returns (its output lines, the parsed result)."""
    for sub in ("traces", "results"):
        (BUILD / sub).mkdir(parents=True, exist_ok=True)
    name = f"{workload}-seed{seed}"
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--pins", str(PINS),
           "--detail-out", str(BUILD / "results" / f"{name}-trace{trace}.json")]
    if trace:
        # One file per workload, overwritten by each traced run.
        cmd += ["--trace-out", str(BUILD / "traces" / f"{workload}.trace.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines:
        die(f"{workload} exited with code {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        die(f"{workload} did not end with a JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die(f"{workload} result has keys {sorted(result)}")
    declared = declared_metrics()
    if declared is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != declared[trace]:
            die(f"{workload} metrics {sorted(got.items())} differ from "
                f"BENCHMARK.json {sorted(declared[trace].items())}")
    return lines, result


def report(seed, seconds):
    build()
    for workload in WORKLOADS:
        print(f"== {workload} (seed {seed})")
        for trace in (0, 1):
            _, result = run_workload(workload, seed, seconds, trace)
            verdict = "correct" if result["correct"] else "INCORRECT"
            print(f"  trace {trace}: {verdict}, {result['failed']} of "
                  f"{result['attempted']} months failed")
            for name, m in result["metrics"].items():
                print(f"    {name:34} {m['value']:>22.10g} {m['unit']}")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def read_pin_lines(text):
    pins = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        month, seed, scale, fingerprint, end = line.split("\t")
        pins[(month, int(seed), scale)] = (fingerprint, end)
    return pins


def write_pins(seeds):
    build()
    pins = read_pin_lines(PINS.read_text()) if PINS.is_file() else {}

    def one(workload, seed):
        done = subprocess.run(
            [str(BINARY), "--workload", workload, "--seed", str(seed),
             "--write-pins"], stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            die(f"{workload} seed {seed} exited with code {done.returncode}")
        for line in done.stdout.splitlines():
            if line.startswith("# unpinned"):
                print(f"perfbench: {line[2:]}", file=sys.stderr)
        return read_pin_lines(done.stdout)

    # One month-runner per cpu but one, so the rest of the host keeps a cpu.
    jobs = max(1, (os.cpu_count() or 1) - 1)
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        # base_month's months are also paper_grid months, with equal pins.
        futures = [pool.submit(one, w, s) for s in seeds
                   for w in ("paper_grid", "durable_chaos")]
        for f in futures:
            for key, pin in f.result().items():
                if key in pins and pins[key] != pin:
                    print(f"perfbench: pin of {key} changes from {pins[key]} "
                          f"to {pin}", file=sys.stderr)
                pins[key] = pin
    lines = ["# month\tseed\tscale\tdeterminism_fingerprint\tend_time"]
    for (month, seed, scale), (fp, end) in sorted(pins.items()):
        lines.append(f"{month}\t{seed}\t{scale}\t{fp}\t{end}")
    PINS.write_text("\n".join(lines) + "\n")
    print(f"perfbench: {len(pins)} pins in {PINS.relative_to(ROOT)}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=45)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", action="store_true")
    p.add_argument("--write-pins", action="store_true")
    p.add_argument("--seeds", default="0-31")
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be non-negative")

    if args.report:
        report(args.seed, args.seconds)
    elif args.write_pins:
        write_pins(parse_seeds(args.seeds))
    elif args.workload is None:
        p.error("--workload, --report or --write-pins is required")
    else:
        build()
        lines, _ = run_workload(args.workload, args.seed, args.seconds,
                                args.trace)
        print("\n".join(lines))


if __name__ == "__main__":
    main()
