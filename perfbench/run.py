#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload serve-guarded --seed 1 \
        --seconds 20 --trace 0

Builds the benchmark program and the library from this checkout's
sources into .bench_build/, trains the served model once per source
tree (keyed by a hash of the sources, so two trees never share weights
trained by different code), runs the program, and prints its result as
the last line of standard output with each metric's unit taken from
BENCHMARK.json. Build and program diagnostics go to standard error.
Exits non-zero without printing a result when anything fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BUILD_TIMEOUT_S = 800
TRAIN_TIMEOUT_S = 300
RUN_TIMEOUT_S = 150
SETUPS = 9  # setup_s is the median of this many fresh processes


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def quiet(cmd, timeout):
    """Run cmd with its output on standard error."""
    subprocess.run([str(c) for c in cmd], stdout=sys.stderr,
                   stderr=sys.stderr, check=True, timeout=timeout)


def build():
    """Configure once, then (re)build the program; returns its path."""
    tree = BUILD / "cmake"
    if not (tree / "CMakeCache.txt").exists():
        quiet(["cmake", "-S", HERE, "-B", tree,
               "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    quiet(["cmake", "--build", tree, "--target", "perfbench", "-j", jobs],
          BUILD_TIMEOUT_S)
    return tree / "perfbench"


def source_key():
    """Hash of every source the trained weights depend on."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", HERE / "CMakeLists.txt"]
    files += sorted(HERE.glob("src/model.*"))
    files += sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def parameters(exe):
    """Path of the trained parameters, training them when missing."""
    path = BUILD / "model" / f"cifarnet-{source_key()}.params"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        log(f"training the model into {path.name}")
        quiet([exe, "--train", tmp], TRAIN_TIMEOUT_S)
        os.replace(tmp, path)
    return path


def last_json(cmd):
    """Run the program; its last line of standard output, parsed."""
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                         timeout=RUN_TIMEOUT_S, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def setup_seconds(cmd):
    """Process start to first response of one fresh set-up process."""
    start = time.monotonic_ns()  # CLOCK_MONOTONIC, as the program's clock
    done = last_json(cmd + ["--setup-only"])
    return (done["first_response_ns"] - start) / 1e9


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test only: corrupt one served output; the checks must see it.
    ap.add_argument("--perturb", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"perfbench: unknown workload {args.workload}")
    listed = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    try:
        exe = build()
        params = parameters(exe)
    except (subprocess.SubprocessError, OSError) as e:
        sys.exit(f"perfbench: build or training failed: {e}")

    base = [str(c) for c in (exe, "--workload", args.workload, "--seed",
                             args.seed, "--params", params)]
    mode = ["--trace", str(args.trace)]
    cmd = base + mode + ["--seconds", str(args.seconds)]
    if args.perturb:
        cmd.append("--perturb")
    try:
        setups = [] if args.trace else [setup_seconds(base)
                                        for _ in range(SETUPS)]
        result = last_json(cmd)
        # Pattern selection runs alone, in a fresh process.
        selection = last_json(base + mode + ["--select-only"])
    except (subprocess.SubprocessError, OSError, ValueError, KeyError,
            IndexError) as e:
        sys.exit(f"perfbench: benchmark program failed: {e}")

    metrics = result["metrics"]
    metrics.update(selection["metrics"])
    result["correct"] = result["correct"] and selection["correct"]
    if setups:
        metrics["setup_s"] = statistics.median(setups)
    if set(metrics) != set(units):
        sys.exit("perfbench: program metrics differ from BENCHMARK.json: "
                 f"{sorted(set(metrics) ^ set(units))}")
    bad = [k for k, v in metrics.items() if not isinstance(v, (int, float))]
    if bad:
        sys.exit(f"perfbench: non-finite metrics {bad}")
    result["metrics"] = {k: {"value": metrics[k], "unit": units[k]}
                         for k in units}
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
