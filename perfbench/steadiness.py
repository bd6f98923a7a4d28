"""Steadiness check: run workloads on several seeds and report, for each
end-to-end metric, the median and the spread (third minus first quartile,
as a share of the median) next to the bound BENCHMARK.json fixes.

    python3 perfbench/steadiness.py --runs 10 [--workload parse-long ...]

Without --workload it runs the workloads BENCHMARK.json lists.

A spread should stay below a third of its bound.  The share of failed operations must be the same
on every run.  Each run's result is kept in .perfbench_work/steadiness/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from run import HERE, ROOT, WORK, WORKLOADS, benchmark_spec


def one_run(workload, seed, seconds):
    start = time.monotonic()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d exited %d:\n%s"
                           % (workload, seed, proc.returncode, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2]), wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=501,
                    help="seeds first-seed .. first-seed + runs - 1")
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args()
    spec = benchmark_spec()
    seconds = spec["run_seconds"]
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    gated = [w["name"] for w in spec["workloads"]]
    out_dir = os.path.join(WORK, "steadiness")
    os.makedirs(out_dir, exist_ok=True)
    steady = True
    for workload in args.workload or gated:
        results, walls = [], []
        for k in range(args.runs):
            seed = args.first_seed + k
            result, info, wall = one_run(workload, seed, seconds)
            results.append(result)
            walls.append(wall)
            if not result["correct"]:
                print("  seed %d failed its checks: %s"
                      % (seed, "; ".join(info["errors"])))
            with open(os.path.join(out_dir, "%s-seed%d.json"
                                   % (workload, seed)), "w") as fh:
                json.dump({"result": result, "provenance": info}, fh)
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print("== %s: %d runs, wall %.1f..%.1f s, correct %s, failed "
              "shares %s" % (workload, len(results), min(walls), max(walls),
                             correct, sorted(shares)))
        steady = steady and correct and len(shares) == 1
        for name in bound:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            limit = bound[name] / 3.0
            flag = "ok" if spread < limit else "WIDE"
            steady = steady and flag == "ok"
            print("  %-22s median %12.6g  spread %6.2f%%  (bound %4.1f%%)  "
                  "%s" % (name, med, 100 * spread, 100 * bound[name], flag))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
