"""Benchmark of the span parser: training and parsing throughput, latency,
set-up time and memory, with a per-layer trace.

One workload, one seed (the form the BENCHMARK.json command takes):

    python3 perfbench/run.py --workload parse-paper --seed 3 --seconds 45 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it records provenance: git revision, source digest,
numpy and BLAS, CPUs, the seed and the checks' figures.

All four workloads, each untraced and traced, with a summary table and the
tracing overhead:

    python3 perfbench/run.py [--seed 1] [--seconds 45]

``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json.

Fixtures are written by fixture.py and each workload runs in workload.py,
each in a process of its own with BLAS and OpenMP pinned to one thread.
Files go under .perfbench_work/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
SOURCE = os.path.join(ROOT, "src", "spanparser")
WORKLOADS = ("train-toy", "train-paper", "parse-paper", "parse-long")
# a run must end within 180 s; the fixture and the workload share this
RUN_BUDGET_S = 170.0
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchmarkError(RuntimeError):
    pass


def benchmark_spec():
    """BENCHMARK.json: the run length, workloads and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child_env():
    """The environment of the fixture and workload processes only: one BLAS
    thread, the checkout's sources, no bytecode written into it."""
    env = dict(os.environ)
    for name in PINNED_THREADS:
        env[name] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def source_digest():
    """sha256 over the program's and the benchmark's Python sources."""
    h = hashlib.sha256()
    files = sorted(glob.glob(os.path.join(SOURCE, "*.py"))
                   + glob.glob(os.path.join(HERE, "*.py")))
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode("utf-8"))
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def git_rev():
    """HEAD of the checkout, or None when the checkout is not a git work
    tree of its own (git must not find an enclosing repository)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def call(argv, deadline, what):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("no time left for the %s" % what)
    try:
        proc = subprocess.run([sys.executable] + argv, env=child_env(),
                              cwd=ROOT, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchmarkError("the %s did not finish in time" % what) from None
    if proc.returncode != 0:
        raise BenchmarkError("the %s exited with code %d"
                             % (what, proc.returncode))


def run_workload(workload, seed, seconds, trace):
    """Build the fixtures, run the workload, cross-check its output digest
    with the other tracing mode's, and return the result record."""
    deadline = time.monotonic() + RUN_BUDGET_S
    digest_key = source_digest()
    run_dir = os.path.join(WORK, "run-%s-seed%d-trace%d-%d"
                           % (workload, seed, trace, os.getpid()))
    os.makedirs(run_dir)
    try:
        call([os.path.join(HERE, "fixture.py"), "--workload", workload,
              "--seed", str(seed), "--dir", run_dir], deadline, "fixture build")
        out = os.path.join(run_dir, "result.json")
        call([os.path.join(HERE, "workload.py"), "--workload", workload,
              "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(trace), "--dir", run_dir, "--out", out],
             deadline, "workload")
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
        if trace:
            os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
            shutil.move(os.path.join(run_dir, "trace.json"),
                        os.path.join(WORK, "traces", "%s-seed%d.json"
                                     % (workload, seed)))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    # traced and untraced runs of one seed must give byte-identical parses
    # and checkpoints
    digests = os.path.join(WORK, "digests")
    os.makedirs(digests, exist_ok=True)
    name = lambda t: os.path.join(digests, "%s-%s-seed%d-trace%d.txt"
                                  % (digest_key[:16], workload, seed, t))
    with open(name(trace), "w", encoding="utf-8") as fh:
        fh.write(result["digest"])
    other = name(1 - trace)
    if os.path.exists(other):
        with open(other, encoding="utf-8") as fh:
            same = fh.read() == result["digest"]
        result["info"]["same_output_as_other_trace_mode"] = same
        if not same:
            result["correct"] = False
            result["info"]["errors"].append(
                "traced and untraced runs gave different outputs")
    result["info"]["git_rev"] = git_rev()
    result["info"]["source_sha256"] = digest_key
    return result


def final_line(result):
    return json.dumps({key: result[key] for key in
                       ("correct", "attempted", "failed", "metrics")})


def summary(seed, seconds):
    """Every workload untraced and traced; returns the exit code."""
    ok = True
    for workload in WORKLOADS:
        plain = run_workload(workload, seed, seconds, 0)
        traced = run_workload(workload, seed, seconds, 1)
        print("\n== %s (seed %d): attempted %d, failed %d, correct %s"
              % (workload, seed, plain["attempted"], plain["failed"],
                 plain["correct"] and traced["correct"]))
        for name, m in plain["metrics"].items():
            print("  %-34s %14.6g %s" % (name, m["value"], m["unit"]))
        info = plain["info"]
        if "dev_f1" in info:
            print("  %-34s %14.6g %%" % ("dev_f1", info["dev_f1"]))
        for name, m in traced["metrics"].items():
            print("  %-34s %14.6g %s" % (name, m["value"], m["unit"]))
        untraced_rate = plain["metrics"]["sents_per_s"]["value"]
        traced_rate = traced["metrics"]["trace.sents_per_s"]["value"]
        print("  tracing overhead: %+.1f%% (%.4g vs %.4g sentences/s); "
              "identical outputs: %s"
              % (100.0 * (untraced_rate / traced_rate - 1.0), untraced_rate,
                 traced_rate,
                 traced["info"].get("same_output_as_other_trace_mode")))
        for record in (plain, traced):
            for error in record["info"]["errors"]:
                print("  CHECK FAILED: %s" % error)
        ok = ok and plain["correct"] and traced["correct"]
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Span parser benchmark; see perfbench/README.md.")
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload (default: all, with a summary)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int,
                    help="length of a run (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SOURCE, "model.py")):
        print("error: no program sources at %s" % SOURCE, file=sys.stderr)
        return 2
    try:
        if args.seconds is None:
            args.seconds = benchmark_spec()["run_seconds"]
        if args.workload is None:
            return summary(args.seed, args.seconds)
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace)
    except (BenchmarkError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(result["info"]))
    print(final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
