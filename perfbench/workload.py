"""One workload in one process: set-up, timed rounds, then the checks.

    python3 perfbench/workload.py --workload parse-long --seed 1 \
        --seconds 45 --trace 0 --dir FIXTURE_DIR --out RESULT_JSON

``run.py`` starts this with BLAS and OpenMP pinned to one thread, after
``fixture.py`` has written the fixtures into FIXTURE_DIR.  A run repeats
whole rounds of the same operations (a round trains a fresh model, or
parses the whole input once with a freshly loaded one), at least
``min_rounds`` of them and then until one more would pass ``--seconds``.
Every check runs after the timed rounds, with tracing paused.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

import inputs
import oracle
import tracing
from spanparser import autodiff, checkpoint, training, trees

# name -> unit of every end-to-end metric
END_TO_END = {
    "setup_s": "s",
    "sents_per_s": "sentences/s",
    "parse_latency_p50_ms": "ms",
    "parse_latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# Set-up is timed 1 + 2 * SETUP_BURST times, whatever the speed of the code:
# once before the first round, in a burst before the second, and in a burst
# after the checks.  The median of the samples is reported: the machine's
# speed drifts over seconds, and a set-up of the paper config reads about
# 0.15 s in a fast spell and 0.23 s in a slow one, so the fastest sample
# depends on whether a fast spell happened to fall on a sample.
SETUP_BURST = 5

# central finite differences with the acceptance suite's tolerance and
# floor; FD_COORDS coordinates compared, at most FD_MAX_PROBES probed.
# Only coordinates whose gradient reaches FD_MIN_GRAD are probed: the
# paper config's loss carries rounding error that, divided by the smaller
# step, comes near the tolerance on a gradient close to the floor.
FD_COORDS = 6
FD_MAX_PROBES = 18
FD_STEPS = (1e-5, 1e-6)
FD_FLOOR = 1e-3
FD_TOLERANCE = 1e-4
FD_MIN_GRAD = 1e-2

clock = time.perf_counter


class Workload:
    """Shared run loop; subclasses define set-up, one round and the checks.
    Every round runs on a freshly set-up state: training needs a new model,
    and a reloaded checkpoint parses exactly as the previous one did.

    A run has at least ``min_rounds`` rounds.  A sentence's latency is its
    fastest parse in the first ``min_rounds`` rounds only, so the statistic
    does not change with the number of rounds a faster program fits in a
    run."""

    min_rounds = 2

    def __init__(self, name, seed, directory, tracer):
        self.name = name
        self.seed = seed
        self.dir = directory
        self.tracer = tracer
        self.setup_s = []
        self.times = {}         # sentence index -> parse seconds per round
        self.work = [0, 0.0]    # sentences trained or parsed, their seconds
        self.peak_rss_mb = None
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.digests = []
        self.failures = []  # operations that raised
        self.errors = []    # checks that failed
        self.facts = {}

    def path(self, name):
        return os.path.join(self.dir, name)

    def phase(self, name):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def untimed(self):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.paused()

    def timed_setup(self, record=True):
        gc.collect()
        start = clock()
        with self.phase(tracing.SETUP):
            state = self.setup()
        if record:
            self.setup_s.append(clock() - start)
        return state

    def setup_burst(self):
        """SETUP_BURST timed set-ups; returns the state of the last one."""
        state = None
        for _ in range(SETUP_BURST):
            state = None  # release the previous model before the next
            state = self.timed_setup()
        return state

    def measure(self, seconds):
        """Set up once and run the first round, as a single ``spanparser``
        command would, and read the peak memory; then time a burst of
        set-ups and run more rounds, each on a fresh (untimed) set-up.
        Returns the last state and outputs."""
        state = self.timed_setup()
        with self.untimed():
            self.before(state)
        start = clock()
        while True:
            if self.rounds:
                state = None
                state = (self.setup_burst() if self.rounds == 1
                         else self.timed_setup(record=False))
            with self.phase(tracing.ROUND):
                outputs = self.round(state)
            self.rounds += 1
            if self.rounds == 1:
                self.peak_rss_mb = peak_rss_mb()
            with self.untimed():
                self.digests.append(self.digest(outputs))
            elapsed = clock() - start
            if (self.rounds >= self.min_rounds and
                    elapsed * (self.rounds + 1) / self.rounds > seconds):
                return state, outputs

    def add_work(self, sentences, seconds):
        self.work[0] += sentences
        self.work[1] += seconds

    def parse_all(self, model, sentences):
        """Parse as ``spanparser parse`` does; a sentence that raises is a
        failed operation (the CLI writes it as #PARSE-ERROR)."""
        parsed = []
        for index, sentence in enumerate(sentences):
            self.attempted += 1
            start = clock()
            try:
                tree = model.parse(sentence)
            except Exception as exc:  # counted, reported, never fatal
                self.failed += 1
                self.failures.append("parse: %s" % exc)
                parsed.append((sentence, "#PARSE-ERROR %s" % exc))
                continue
            if self.rounds < self.min_rounds:
                self.times.setdefault(index, []).append(clock() - start)
            parsed.append((sentence, tree))
        return parsed

    def rendered(self, parsed):
        return "\n".join(out if isinstance(out, str) else out.render()
                         for _, out in parsed)

    def check_parses(self, model, parsed):
        """The decode oracle on every parsed sentence, against the chart
        the program itself computes for it."""
        for sentence, tree in parsed:
            if isinstance(tree, str):
                continue
            chart = model.score_chart(sentence)
            try:
                oracle.check_parse(tree, sentence, chart, model.labels)
            except oracle.OracleError as exc:
                self.errors.append("oracle, %d words: %s"
                                   % (len(sentence), exc))
        self.facts["oracle_sentences"] = len(parsed)

    def check(self, state, outputs):
        if len(set(self.digests)) != 1:
            self.errors.append("rounds produced different outputs")

    def before(self, state):
        pass


class TrainWorkload(Workload):

    # A round parses few dev sentences (8 on train-paper), so each is parsed
    # DEV_PASSES times a round, and its latency is the fastest of
    # min_rounds * DEV_PASSES parses.
    min_rounds = 4
    DEV_PASSES = 2

    def setup(self):
        """Read the treebanks and build vocabulary, labels and model, as
        ``spanparser train`` does."""
        train_trees = trees.load_trees(self.path("train.mrg"))
        dev_trees = trees.load_trees(self.path("dev.mrg"))
        model = inputs.build_model(self.name, train_trees, self.seed)
        return train_trees, dev_trees, model

    def before(self, state):
        train_trees, dev_trees, model = state
        self.facts["loss_before"] = mean_loss(model, train_trees)
        if self.name == "train-toy":
            self.facts["dev_f1_before"] = training.default_eval_fn(
                model, dev_trees)

    def round(self, state):
        """Train (dev evaluation included) and save the checkpoint, then
        parse the held-out dev sentences with the trained model,
        DEV_PASSES times."""
        train_trees, dev_trees, model = state
        config = inputs.train_config(self.name, self.seed)
        count = config.max_epochs * len(train_trees)
        self.attempted += count
        start = clock()
        try:
            result = training.train(model, train_trees, dev_trees, config)
            checkpoint.save_checkpoint(model, self.path("trained.ckpt"))
        except Exception as exc:  # counted, reported, never fatal
            self.failed += count
            self.failures.append("training: %s" % exc)
            return None
        self.add_work(count, clock() - start)
        self.facts["dev_f1"] = result.best_f1
        dev = [t.sentence() for t in dev_trees]
        for _ in range(self.DEV_PASSES - 1):
            self.parse_all(model, dev)
        return self.parse_all(model, dev)

    def digest(self, parsed):
        h = hashlib.sha256()
        if parsed is not None:
            with open(self.path("trained.ckpt"), "rb") as fh:
                h.update(fh.read())
            h.update(self.rendered(parsed).encode("utf-8"))
        return h.hexdigest()

    def check(self, state, parsed):
        super().check(state, parsed)
        train_trees, _, model = state
        if parsed is None:
            return
        self.check_parses(model, parsed)
        losses = [sentence_loss(model, t) for t in train_trees]
        after = float(np.mean(losses))
        self.facts["loss_after"] = after
        if not after < self.facts["loss_before"]:
            self.errors.append("mean hinge loss did not fall: %.6g -> %.6g"
                               % (self.facts["loss_before"], after))
        if self.name == "train-toy" and not (
                self.facts["dev_f1"] > self.facts["dev_f1_before"]):
            self.errors.append("dev F1 did not rise: %.4g -> %.4g"
                               % (self.facts["dev_f1_before"],
                                  self.facts["dev_f1"]))
        worst, compared, skipped = gradient_check(
            model, train_trees[int(np.argmax(losses))],
            np.random.default_rng(inputs.sub_seed(self.seed, "gradcheck")))
        self.facts["gradcheck"] = {"worst_rel_error": worst,
                                   "compared": compared, "skipped": skipped}
        if not worst < FD_TOLERANCE:
            self.errors.append("finite differences disagree: relative "
                               "error %.3g" % worst)
        if compared < FD_COORDS // 2:
            self.errors.append("only %d coordinates were smooth enough to "
                               "difference" % compared)


class ParseWorkload(Workload):

    def setup(self):
        """Load the checkpoint and read the input, as ``spanparser parse``
        does."""
        model = checkpoint.load_checkpoint(self.path("model.ckpt"))
        sentences = trees.load_tagged(self.path("input.txt"))
        return model, sentences

    def round(self, state):
        model, sentences = state
        start = clock()
        parsed = self.parse_all(model, sentences)
        self.add_work(sum(not isinstance(t, str) for _, t in parsed),
                      clock() - start)
        return parsed

    def digest(self, parsed):
        return hashlib.sha256(self.rendered(parsed).encode("utf-8")).hexdigest()

    def check(self, state, parsed):
        super().check(state, parsed)
        self.check_parses(state[0], parsed)


def sentence_loss(model, tree):
    """Hinge loss of one tree, scored without dropout."""
    return model.sentence_loss(tree.sentence(), model.gold_binary(tree),
                               train=False).value


def mean_loss(model, train_trees):
    return float(np.mean([sentence_loss(model, t) for t in train_trees]))


def gradient_check(model, tree, rng):
    """(worst relative error, coordinates compared, coordinates skipped)
    between backward() and central differences of one sentence's loss.

    Parameters are reached by iterating ``model.store``, in a seeded order
    over those with a gradient coordinate of at least FD_MIN_GRAD; in each,
    the coordinate with the largest gradient and one other such coordinate
    are probed.  The loss is only piecewise smooth: ReLUs switch, and the
    loss-augmented tree can change.  Every evaluation records which ReLU
    inputs are positive and which tree violates the margin, and a
    difference is used only when both ends of its step lie on the same
    smooth piece as the unperturbed point; the steps in FD_STEPS are tried
    in turn, and a coordinate where each of them crosses a kink is skipped.
    """
    sentence, gold = tree.sentence(), model.gold_binary(tree)

    def evaluate():
        pattern = hashlib.sha256()
        relu = autodiff.relu

        def recording_relu(x):
            pattern.update(np.packbits(x.data > 0.0).tobytes())
            return relu(x)

        autodiff.relu = recording_relu
        try:
            result = model.sentence_loss(sentence, gold, train=False)
        finally:
            autodiff.relu = relu
        violator = (None if result.violator is None
                    else sorted(trees.gold_spans(result.violator)))
        return result.value, (pattern.digest(), violator)

    def central(p, i, piece):
        keep = p.data.flat[i]
        try:
            for h in FD_STEPS:
                p.data.flat[i] = keep + h
                up, up_piece = evaluate()
                p.data.flat[i] = keep - h
                down, down_piece = evaluate()
                if up_piece == down_piece == piece:
                    return (up - down) / (2.0 * h)
        finally:
            p.data.flat[i] = keep
        return None

    _, piece = evaluate()
    params = list(model.store)
    for p in params:
        p.clear_grad()
    autodiff.backward(model.sentence_loss(sentence, gold, train=False).loss)
    live = [p for p in params if p.grad is not None
            and np.max(np.abs(p.grad)) >= FD_MIN_GRAD]
    worst, compared, skipped = 0.0, 0, 0
    for index in rng.permutation(len(live)):
        if compared >= FD_COORDS or compared + skipped >= FD_MAX_PROBES:
            break
        p = live[index]
        grad = np.asarray(p.grad).reshape(-1)
        for i in sorted({int(np.argmax(np.abs(grad))), int(rng.choice(
                np.flatnonzero(np.abs(grad) >= FD_MIN_GRAD)))}):
            numeric = central(p, i, piece)
            if numeric is None:
                skipped += 1
                continue
            compared += 1
            worst = max(worst, abs(numeric - grad[i])
                        / max(abs(numeric), abs(grad[i]), FD_FLOOR))
    for p in params:
        p.clear_grad()
    return worst, compared, skipped


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def end_to_end(run):
    """Throughput over all rounds; latency percentiles over the sentences,
    each timed by its fastest parse in the first ``min_rounds`` rounds (the
    machine's speed drifts by tens of percent over seconds, and only ever
    slows a parse down)."""
    fastest = sorted(min(ts) for ts in run.times.values()) or [0.0]
    p90 = (statistics.quantiles(fastest, n=10, method="inclusive")[8]
           if len(fastest) > 1 else fastest[0])
    sentences, seconds = run.work
    return {
        "setup_s": statistics.median(run.setup_s),
        "sents_per_s": sentences / seconds if seconds else 0.0,
        "parse_latency_p50_ms": 1e3 * statistics.median(fastest),
        "parse_latency_p90_ms": 1e3 * p90,
        "peak_rss_mb": run.peak_rss_mb,
    }


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 only prints it
        blas = {}
    threads = {k: os.environ.get(k) for k in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "thread_env": threads, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0))}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--dir", required=True, help="fixture directory")
    ap.add_argument("--out", required=True, help="result JSON path")
    args = ap.parse_args()

    tracer = tracing.Tracer() if args.trace else None
    kind = TrainWorkload if args.workload.startswith("train-") else ParseWorkload
    run = kind(args.workload, args.seed, args.dir, tracer)
    if tracer is not None:
        tracer.install()
    state, outputs = run.measure(args.seconds)
    with run.untimed():
        run.check(state, outputs)
    state = outputs = None
    run.setup_burst()
    info = {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, "rounds": run.rounds,
            "setup_samples_s": run.setup_s,
            "latency_sentences": len(run.times),
            "latency_samples": sum(map(len, run.times.values()))}
    if tracer is not None:
        tracer.uninstall()
        sents_per_s = end_to_end(run)["sents_per_s"]
        metrics = tracing.layer_metrics(tracer, sents_per_s)
        units = tracing.PER_LAYER
        info["self_times"] = tracing.self_time_table(tracer)
        tracer.write(run.path("trace.json"))
    else:
        metrics = end_to_end(run)
        units = END_TO_END
    info.update(run.facts)
    info["environment"] = environment()
    info["errors"] = run.errors[:20]
    info["failures"] = run.failures[:20]
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
        "digest": run.digests[0],
        "info": info,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main())
