"""Spans and counts around the program's layers, recorded from outside.

``Tracer.install`` replaces public functions and methods of the
``spanparser`` modules with wrappers, including the names that ``model``,
``training``, ``checkpoint`` and ``cli`` import directly, and
``uninstall`` puts the originals back.  Each wrapped call becomes a span
(name, start, end, parent); a span's self time is its duration minus the
durations of its child spans, so the self times of all spans under a root
add up to the root's duration.  ``autodiff.matmul`` and ``Tensor``
construction are probes: they are counted (and matmul timed) but open no
span, so they are charged to the layer that called them.

The wrappers only read arguments and results: no model, parse or random
stream changes when tracing is on.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

from spanparser import (autodiff, chart, checkpoint, cli, lexical, model,
                        optim, training, trees)

# span name -> (owner, attribute) pairs that hold the same function
SPANS = (
    ("trees.read", [(trees, "load_trees"), (cli, "load_trees")]),
    ("trees.read", [(trees, "load_tagged"), (cli, "load_tagged")]),
    ("model.init", [(model.SpanParser, "__init__")]),
    ("checkpoint.load", [(checkpoint, "load_checkpoint")]),
    ("checkpoint.save", [(checkpoint, "save_checkpoint")]),
    ("training.train", [(training, "train"), (cli, "train")]),
    ("training.dev_eval", [(training, "default_eval_fn")]),
    ("model.parse", [(model.SpanParser, "parse")]),
    ("model.sentence_loss", [(model.SpanParser, "sentence_loss")]),
    ("model.score_chart", [(model.SpanParser, "score_chart")]),
    ("model.span_score_tensor", [(model.SpanParser, "span_score_tensor")]),
    ("lexical", [(lexical.LexicalModel, "content_vectors")]),
    ("encoder", [(model.Encoder, "encode")]),
    ("chart.span_vectors", [(chart, "span_vectors"),
                            (model, "span_vectors")]),
    ("chart.scorer", [(chart.SpanScorer, "forward")]),
    ("chart.build_chart", [(chart, "build_chart"), (model, "build_chart")]),
    ("chart.cky", [(chart, "cky_decode"), (model, "cky_decode")]),
    ("chart.loss_aug", [(chart, "hinge_loss"), (model, "hinge_loss")]),
    ("autodiff.backward", [(autodiff, "backward"), (training, "backward")]),
    ("optim.adam", [(optim, "adam_step"), (training, "adam_step")]),
)

ROUND = "round"
SETUP = "setup"


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []
        self._undo = []
        self.active = False

    # -- spans -----------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][2] = self.clock()

    @contextlib.contextmanager
    def span(self, name):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    @contextlib.contextmanager
    def paused(self):
        """Run untimed work (checks, reference values) unrecorded."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    @property
    def in_round(self):
        return bool(self._stack) and self.spans[self._stack[0]][0] == ROUND

    # -- installation ----------------------------------------------------

    def install(self):
        for name, targets in SPANS:
            self._patch(targets, self._span_wrapper(name, targets))
        self._patch([(autodiff, "matmul")], self._matmul_probe())
        self._patch([(autodiff.Tensor, "__init__")], self._tensor_probe())
        self.active = True

    def uninstall(self):
        self.active = False
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, targets, make_wrapper):
        original = getattr(*targets[0])
        wrapper = make_wrapper(original)
        for owner, attr in targets:
            if getattr(owner, attr) is not original:
                raise RuntimeError("%s.%s is not the function the tracer "
                                   "expects" % (owner.__name__, attr))
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def _span_wrapper(self, name, targets):
        after = _AFTER.get(targets[0][1])

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                self.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close()
                if after is not None and self.in_round:
                    after(self.counts, args, result)
                return result
            return traced
        return make

    def _matmul_probe(self):
        def make(fn):
            @functools.wraps(fn)
            def probed(a, b):
                if not (self.active and self.in_round):
                    return fn(a, b)
                start = self.clock()
                out = fn(a, b)
                self.counts["matmul_s"] += self.clock() - start
                self.counts["matmul_calls"] += 1
                m, k = a.shape
                self.counts["matmul_flop"] += 2.0 * m * k * b.shape[1]
                return out
            return probed
        return make

    def _tensor_probe(self):
        def make(fn):
            @functools.wraps(fn)
            def probed(tensor, *args, **kwargs):
                fn(tensor, *args, **kwargs)
                if self.active and self.in_round:
                    self.counts["tensors"] += 1
                    self.counts["tensor_bytes"] += tensor.data.nbytes
                    if tensor._grad_fn is not None:
                        self.counts["graph_tensors"] += 1
            return probed
        return make

    # -- results ---------------------------------------------------------

    def totals(self, root):
        """Per span name: calls, inclusive seconds and self seconds, over
        the spans under roots named ``root`` (the roots included)."""
        inside = [False] * len(self.spans)
        child_time = [0.0] * len(self.spans)
        for k, (name, start, end, parent) in enumerate(self.spans):
            inside[k] = name == root if parent < 0 else inside[parent]
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        total, own = defaultdict(float), defaultdict(float)
        for k, (name, start, end, _) in enumerate(self.spans):
            if inside[k]:
                calls[name] += 1
                total[name] += end - start
                own[name] += end - start - child_time[k]
        return calls, total, own

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def _after_cky(counts, args, result):
    n = args[0].shape[0] - 1
    counts["cky_splits"] += n * (n * n - 1) / 6.0


def _after_hinge(counts, args, result):
    counts["hinge_calls"] += 1
    if result.violator is not None:
        counts["violators"] += 1


_AFTER = {"cky_decode": _after_cky, "hinge_loss": _after_hinge}


# name -> unit of every per-layer metric, in report order
PER_LAYER = {
    "trees.read_ms": "ms",
    "model.init_ms": "ms",
    "checkpoint.load_ms": "ms",
    "checkpoint.save_ms": "ms",
    "lexical.ms_per_sent": "ms",
    "encoder.ms_per_sent": "ms",
    "chart.span_vectors_ms_per_sent": "ms",
    "chart.scorer_ms_per_sent": "ms",
    "chart.build_chart_ms_per_sent": "ms",
    "chart.cky_ms_per_sent": "ms",
    "chart.cky_ns_per_split": "ns",
    "chart.loss_aug_ms_per_sent": "ms",
    "training.violator_share": "ratio",
    "training.dev_eval_ms": "ms",
    "training.loop_ms_per_step": "ms",
    "autodiff.backward_ms_per_sent": "ms",
    "autodiff.tensors_per_sent": "count",
    "autodiff.graph_tensors_per_sent": "count",
    "autodiff.tensor_mb_per_sent": "MB",
    "autodiff.matmul_calls_per_sent": "count",
    "autodiff.matmul_gflop_per_sent": "GFLOP",
    "autodiff.matmul_gflops": "GFLOP/s",
    "optim.adam_ms_per_step": "ms",
    "model.self_ms_per_sent": "ms",
    "trace.unattributed_share": "ratio",
    "trace.sents_per_s": "sentences/s",
}

MODEL_GLUE = ("model.parse", "model.sentence_loss", "model.score_chart",
              "model.span_score_tensor")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, sents_per_s: float) -> dict:
    """Every PER_LAYER value; a layer the workload never calls reads 0.

    Hot-path layers report self time per call; set-up phases, checkpoint
    save, loss-augmented decoding (with its chart and decode) and dev
    evaluation report inclusive time per call.  A "sentence" of the
    autodiff counters is one forward pass (``span_score_tensor`` call).
    """
    calls, total, own = tracer.totals(ROUND)
    setup_calls, setup_total, _ = tracer.totals(SETUP)
    c = tracer.counts
    ms = lambda seconds, n: 1e3 * _ratio(seconds, n)
    per_own = lambda name: ms(own[name], calls[name])
    forward = calls["model.span_score_tensor"]
    trained = c["hinge_calls"]
    steps = calls["optim.adam"]
    return {
        "trees.read_ms": ms(setup_total["trees.read"], setup_calls[SETUP]),
        "model.init_ms": ms(setup_total["model.init"],
                            setup_calls["model.init"]),
        "checkpoint.load_ms": ms(setup_total["checkpoint.load"],
                                 setup_calls["checkpoint.load"]),
        "checkpoint.save_ms": ms(total["checkpoint.save"],
                                 calls["checkpoint.save"]),
        "lexical.ms_per_sent": per_own("lexical"),
        "encoder.ms_per_sent": per_own("encoder"),
        "chart.span_vectors_ms_per_sent": per_own("chart.span_vectors"),
        "chart.scorer_ms_per_sent": per_own("chart.scorer"),
        "chart.build_chart_ms_per_sent": per_own("chart.build_chart"),
        "chart.cky_ms_per_sent": per_own("chart.cky"),
        "chart.cky_ns_per_split": 1e9 * _ratio(own["chart.cky"],
                                               c["cky_splits"]),
        "chart.loss_aug_ms_per_sent": ms(total["chart.loss_aug"],
                                         calls["chart.loss_aug"]),
        "training.violator_share": _ratio(c["violators"], trained),
        "training.dev_eval_ms": ms(total["training.dev_eval"],
                                   calls["training.dev_eval"]),
        "training.loop_ms_per_step": ms(own["training.train"], steps),
        "autodiff.backward_ms_per_sent": ms(own["autodiff.backward"],
                                            trained),
        "autodiff.tensors_per_sent": _ratio(c["tensors"], forward),
        "autodiff.graph_tensors_per_sent": _ratio(c["graph_tensors"],
                                                  forward),
        "autodiff.tensor_mb_per_sent": _ratio(c["tensor_bytes"] / 1e6,
                                              forward),
        "autodiff.matmul_calls_per_sent": _ratio(c["matmul_calls"], forward),
        "autodiff.matmul_gflop_per_sent": _ratio(c["matmul_flop"] / 1e9,
                                                 forward),
        "autodiff.matmul_gflops": _ratio(c["matmul_flop"] / 1e9,
                                         c["matmul_s"]),
        "optim.adam_ms_per_step": ms(own["optim.adam"], steps),
        "model.self_ms_per_sent": ms(sum(own[n] for n in MODEL_GLUE),
                                     calls["model.parse"]
                                     + calls["model.sentence_loss"]),
        "trace.unattributed_share": _ratio(own[ROUND], total[ROUND]),
        "trace.sents_per_s": sents_per_s,
    }


def self_time_table(tracer: Tracer) -> dict:
    """Self milliseconds per span name inside the timed rounds, the rounds'
    wall time, and the counts behind the violator share."""
    _, total, own = tracer.totals(ROUND)
    table = {name: 1e3 * seconds for name, seconds in sorted(own.items())}
    return {"self_ms": table, "wall_ms": 1e3 * total[ROUND],
            "violators": tracer.counts["violators"],
            "sentences_trained": tracer.counts["hinge_calls"]}
