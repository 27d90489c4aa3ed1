#!/usr/bin/env python3
"""Benchmark entry point named by BENCHMARK.json.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a cheffp checkout. Builds perfbench/main.exe and
bin/cheffp.exe from source with dune, runs workload W for S measured
seconds on inputs generated from seed N, and prints, as the last line of
standard output, one JSON object with the keys correct, attempted, failed
and metrics: the end_to_end metrics of BENCHMARK.json with --trace 0, its
per_layer metrics with --trace 1.

Exit codes: 0 when every output was correct; 1 after printing the result
when some output was wrong; 2, without a result, when the checkout cannot
be built or the run fails or times out.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170
MAIN = "_build/default/perfbench/main.exe"
CHEFFP = "_build/default/bin/cheffp.exe"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group
    (the serve-mix daemon included) and wait for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile("BENCHMARK.json"):
        fail("run from the repository root (no BENCHMARK.json here)")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    for need in ("dune-project", "lib", "bin", "examples/fpbench"):
        if not os.path.exists(need):
            fail("not a cheffp checkout: %s is missing" % need)

    # The build stays inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run_group(
        ["dune", "build", "--root", ".", "./perfbench/main.exe", "./bin/cheffp.exe"],
        BUILD_TIMEOUT_S, stdout=sys.stderr, stderr=sys.stderr, env=env)
    if code != 0:
        fail("dune build failed (exit %d)" % code)

    code, out = run_group(
        [MAIN, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--cheffp", CHEFFP],
        RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    lines = out.splitlines()
    if code != 0 or not lines:
        fail("benchmark program failed (exit %d)" % code)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark program printed no result line")
    for line in lines[:-1]:
        print(line)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics, bad = {}, []
    for m in declared:
        got = result["metrics"].get(m["name"])
        if (got is None or got["unit"] != m["unit"]
                or not isinstance(got["value"], (int, float))
                or not math.isfinite(got["value"])):
            bad.append(m["name"])
        else:
            metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if bad:
        fail("metrics missing, non-finite or in the wrong unit: " + ", ".join(bad))
    print("%s metrics of %s (seed %d):" % (
        "per-layer" if args.trace else "end-to-end", args.workload, args.seed))
    for name, m in metrics.items():
        print("  %-44s %.6g %s (n=%d)" % (
            name, m["value"], m["unit"], result["metrics"][name]["n"]))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
