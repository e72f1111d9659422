#!/usr/bin/env python3
"""Checks that the benchmark repeats: two interleaved sets of runs of the
same code, compared metric by metric against BENCHMARK.json's bounds.

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b]

Run from the repository root.  Every run lasts BENCHMARK.json's
run_seconds.  Set A uses seeds 1..runs, set B seeds runs+1..2*runs, and
the sets alternate run by run (A1 B1 A2 B2 ...), so a drift of the host
hits both sets alike.  For every workload and end-to-end metric it prints
each set's median, quartiles and spread (distance between the quartiles
as a share of the median, as statistics.quantiles(n=4) gives them), then
the difference of the two medians as a share of the first against the
metric's bound.  A spread above a third of the bound is marked '~', a
spread above the bound or a median shift above the bound '!'.  It also
compares the share of failed operations between sets.  The exit status
is 1 when anything is marked '!'.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    t0 = time.time()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed: %s (exit %d)" % (" ".join(cmd),
                                                proc.returncode))
    result = json.loads(lines[-1])
    result["wall_s"] = time.time() - t0
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / q2 if q2 else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    results = {(w, k): [] for w in workloads for k in range(2)}
    for i in range(args.runs):
        for k in range(2):
            for w in workloads:
                seed = 1 + k * args.runs + i
                r = run(spec, w, seed)
                results[(w, k)].append(r)
                print("set %s run %d %-15s seed %3d  %.1fs  correct=%s "
                      "failed=%d/%d  %s" % (
                          "AB"[k], i + 1, w, seed, r["wall_s"], r["correct"],
                          r["failed"], r["attempted"],
                          " ".join("%s=%.4g" % (n, m["value"]) for n, m in
                                   r["metrics"].items())), file=sys.stderr)

    print("nproc: %d   runs per set: %d   seconds per run: %d"
          % (os.cpu_count(), args.runs, spec["run_seconds"]))
    marks = {"~": 0, "!": 0}
    for w in workloads:
        print("\n%s" % w)
        print("%-22s %-34s %-34s %s" % ("metric", "set A median [q1, q3] spread",
                                        "set B median [q1, q3] spread",
                                        "B vs A (bound)"))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cols = []
            medians = []
            for k in range(2):
                vals = [r["metrics"][name]["value"] for r in results[(w, k)]]
                q1, med, q3, sp = spread(vals)
                medians.append(med)
                mark = "!" if sp > bound else "~" if sp > bound / 3 else " "
                marks[mark] = marks.get(mark, 0) + 1
                cols.append("%.4g [%.4g, %.4g] %5.1f%%%s"
                            % (med, q1, q3, 100 * sp, mark))
            shift = (medians[1] - medians[0]) / medians[0]
            worse = shift if m["better"] == "lower" else -shift
            mark = "!" if worse > bound else " "
            marks[mark] = marks.get(mark, 0) + 1
            print("%-22s %-34s %-34s %+6.1f%% (%.0f%%)%s"
                  % (name, cols[0], cols[1], 100 * shift, 100 * bound, mark))
        shares = []
        for k in range(2):
            att = sum(r["attempted"] for r in results[(w, k)])
            fail = sum(r["failed"] for r in results[(w, k)])
            shares.append("%d/%d" % (fail, att))
        print("failed operations: %s" % "  ".join(shares))
    print("\n%d '~' (spread above a third of the bound), %d '!' (spread or "
          "median shift above the bound)" % (marks["~"], marks["!"]))
    return 1 if marks["!"] else 0


if __name__ == "__main__":
    sys.exit(main())
