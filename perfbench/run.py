#!/usr/bin/env python3
"""Build and run the histcc benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload cc_frame --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The C++ benchmark (perfbench/src) is compiled together with the library
sources under src/ into .bench_build/, then run.  Its stdout is passed
through; the last line is the result object, checked here against the
metric names in BENCHMARK.json.  The exit code is the benchmark's: 0 when
every output matched its sequential reference.  Outputs (result files,
Chrome traces, per-layer tables) go to .bench_out/.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path.cwd()
HERE = pathlib.Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ".bench_out"
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def log(*args):
    print("run.py:", *args, file=sys.stderr, flush=True)


def build(target):
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(BUILD), "--target", target, "-j", jobs]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            log("build step failed:", " ".join(cmd))
            return None
    return BUILD / target


def source_id():
    """git commit when available, else a digest of the library sources."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              check=False)
        if proc.returncode == 0:
            return "git:" + proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:12]


def check_result(line, trace):
    """The result object carries exactly the metrics BENCHMARK.json names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ from correct/attempted/failed/metrics"
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        return f"metrics differ from BENCHMARK.json: missing {missing}, " \
               f"unexpected {extra}, or units differ"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        binary = build("perfbench_selftest")
        if binary is None:
            return 1
        return subprocess.run([str(binary)], timeout=RUN_TIMEOUT_S,
                              check=False).returncode
    if args.workload is None:
        parser.error("--workload is required")

    binary = build("perfbench")
    if binary is None:
        return 1
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT, "--source-id", source_id()]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(f"benchmark exited with code {proc.returncode}")
        return proc.returncode or 1
    problem = check_result(lines[-1], args.trace == 1)
    if problem:
        log(problem)
        print("benchmark result rejected:", problem)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
