#!/usr/bin/env python3
"""Builds the benchmark and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--smoke]

The engine library and oib_perfbench are compiled in Release into
perfbench/_build (configured on first use, then rebuilt incrementally).
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of an untraced
run.  With --trace 1 they are the per-layer metrics of a traced run, plus
`overhead.<metric>`: the traced minus the untraced value of each
end-to-end metric, from an untraced run of the same seed made first.  The
traced run also writes a Chrome trace, a span table with self times and
the full figures to perfbench/out/.

Exit status: 0 when every check passed, 1 when a correctness check
failed, 3 when the build failed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(HERE, "_build")
BINARY = os.path.join(BUILD, "oib_perfbench")
OUT = os.path.join(HERE, "out")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def run_once(args, trace):
    """Runs oib_perfbench once; returns (exit code, parsed last line)."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    if trace:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--out", OUT]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return proc.returncode or 1, None
    return proc.returncode, json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="small table, for a quick check of all phases")
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3

    code, result = run_once(args, 0)
    if result is None:
        print("perfbench: oib_perfbench printed no result", file=sys.stderr)
        return code
    if args.trace:
        base = result
        code, result = run_once(args, 1)
        if result is None:
            print("perfbench: the traced oib_perfbench printed no result",
                  file=sys.stderr)
            return code
        metrics = dict(result["layers"])
        for name, m in base["metrics"].items():
            metrics["overhead." + name] = {
                "value": result["metrics"][name]["value"] - m["value"],
                "unit": m["unit"]}
        result["correct"] = result["correct"] and base["correct"]
        path = os.path.join(OUT, "%s_%d_layers.json" % (args.workload,
                                                         args.seed))
        with open(path, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "untraced": base["metrics"],
                       "traced": result["metrics"],
                       "per_layer": metrics}, f, indent=1, sort_keys=True)
        result["metrics"] = metrics

    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0 if result["correct"] and code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
