#!/usr/bin/env python3
"""Builds and runs the couchkv ledger benchmark (see LEDGER.md).

One workload, as BENCHMARK.json runs it:

    python3 ledgerbench/run.py --workload wire_b --seed 1 --seconds 36 --trace 0

Every workload, untraced and traced, printing every metric by name with
its unit (exits non-zero if any output check fails):

    python3 ledgerbench/run.py

The program is built from the sources in this checkout into
.bench_build/ledgerbench. The last line of standard output is the result
object of the last run: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ledgerbench")
BINARY = os.path.join(BUILD, "couchkv_ledgerbench")
WORKLOADS = ["kv_a", "wire_b", "repl_write", "query_e"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# One run must end well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                    "--target", "couchkv_ledgerbench"],
                   check=True, stdout=sys.stderr)


def git_sha():
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_one(workload, seed, seconds, trace, sha):
    """Runs one workload; echoes its output; returns the parsed result."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--git-sha", sha]
    if trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, workload + ".tsv")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    sys.stdout.flush()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: benchmark exited {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        raise RuntimeError(f"{workload}: malformed result {lines[-1]}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload (default: all, traced and not)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    try:
        build()
        sha = git_sha()
        if args.workload:
            runs = [(args.workload, args.trace)]
        else:
            runs = [(w, t) for w in WORKLOADS for t in (0, 1)]
        results = [run_one(w, args.seed, args.seconds, t, sha)
                   for w, t in runs]
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, ValueError) as e:
        print(f"ledgerbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(results[-1]))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
