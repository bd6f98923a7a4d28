"""Command-line interface: train, parse, eval, and the analysis sweeps.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
Every run is deterministic given the config, seed, and input files.
Building a new model uses every usable CPU: each parameter draws its
initialization from a generator of its own, spawned from the seed, and the
parameters are shared out among threads.  So does training: Adam's
gradient check and update are split across threads, and large weights'
gradients are applied on a worker thread, while the copy of the best dev
iterate is written to a temporary file on the calling thread.  Training
and parsing alike run a factored encoder's position stream on a worker
thread beside the content stream when there are two usable CPUs and its
weights are as large as the paper config's.  The toy config's model is
built and trained on the calling thread alone.  No output's bits depend on
how many CPUs there are.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import re
import sys

from . import checkpoint as ckpt
from . import evaluation
from .config import (ConfigError, apply_overrides, build_configs,
                     load_config_file)
from .encoder import WINDOW_MODES, AttentionControl
from .lexical import read_vector_file
from .model import SpanParser
from .training import default_eval_fn, train
from .trees import ParseError, load_tagged, load_trees, parse_tagged
from .vocab import LabelInventory, Vocabulary

USAGE_ERRORS = (ConfigError, ParseError, FileNotFoundError,
                IsADirectoryError, PermissionError)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args) or 0
    except Exception as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2 if isinstance(exc, USAGE_ERRORS) else 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="spanparser",
        description="Span-based constituency parser with a self-attentive "
                    "encoder")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("train_file", help="bracketed training treebank")
    p.add_argument("dev_file", help="bracketed development treebank")
    p.add_argument("--config", required=True, help="key = value config file")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a config value (repeatable)")
    p.add_argument("--log", help="append evaluation lines to this file")
    p.add_argument("--train-vectors", help="external vectors for train_file")
    p.add_argument("--dev-vectors", help="external vectors for dev_file")
    p.add_argument("--quiet", action="store_true",
                   help="suppress progress lines on stdout")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("parse", help="parse tagged sentences")
    p.add_argument("checkpoint")
    p.add_argument("input", help="tagged sentences, one per line (word_tag)")
    p.add_argument("--out", default="-", help="output path (default stdout)")
    p.add_argument("--vectors", help="external vectors for the input")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("eval", help="score predicted trees against gold")
    p.add_argument("pred_file")
    p.add_argument("gold_file")
    p.add_argument("--tsv", action="store_true",
                   help="also print recall/precision/F1 as one tab-separated "
                        "line")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("analyze-window",
                       help="F1 as a function of an attention window imposed "
                            "at test time")
    p.add_argument("checkpoint")
    p.add_argument("dev_file", help="bracketed treebank to parse and score")
    p.add_argument("--distances", required=True,
                   help="comma-separated distances, e.g. 1,2,5,inf")
    p.add_argument("--mode", default="strict",
                   choices=["strict", "relaxed", "both"])
    p.add_argument("--out", default="-")
    p.add_argument("--vectors", help="external vectors for dev_file")
    p.set_defaults(func=_cmd_analyze_window)

    p = sub.add_parser("analyze-disable",
                       help="F1 with content/position attention terms "
                            "disabled in chosen layers at test time")
    p.add_argument("checkpoint")
    p.add_argument("dev_file")
    p.add_argument("--spec", action="append", default=[],
                   help="configuration like 'content:last4' or "
                        "'content:none,position:first2' (repeatable); "
                        "clauses name the layers where that term stays "
                        "ENABLED; omitted terms stay fully enabled")
    p.add_argument("--out", default="-")
    p.add_argument("--vectors", help="external vectors for dev_file")
    p.set_defaults(func=_cmd_analyze_disable)

    p = sub.add_parser("dump-attention",
                       help="write attention probabilities for one sentence")
    p.add_argument("checkpoint")
    p.add_argument("--text", help="tagged sentence, e.g. 'the_DT cat_NN'")
    p.add_argument("--input", help="tagged file; the first sentence is used")
    p.add_argument("--window", metavar="DISTANCE:MODE",
                   help="impose an attention window, e.g. 2:strict")
    p.add_argument("--out", default="-")
    p.add_argument("--vectors",
                   help="external vectors for every sentence read (all of "
                        "--input, or the --text sentence); the first is used")
    p.set_defaults(func=_cmd_dump_attention)

    return parser


def _output(path):
    """A context manager giving stdout for "-", otherwise ``path`` opened
    for writing, which it closes on leaving the block."""
    return (contextlib.nullcontext(sys.stdout) if path == "-"
            else open(path, "w", encoding="utf-8"))


def _load_vectors(path, sentences, what, mode, flag):
    """The matrices of the vector file ``path``, given as ``flag``, one for
    each of the ``sentences`` read from ``what``; None without a file.
    External ``mode`` needs a file and the other modes read none: a
    mismatch is a usage error."""
    if path is None:
        if mode == "external":
            raise ConfigError("lexical mode 'external' needs %s" % flag)
        return None
    if mode != "external":
        raise ConfigError("%s given, but lexical mode %r reads no vectors"
                          % (flag, mode))
    mats, _ = read_vector_file(path)
    if len(mats) != len(sentences):
        raise ValueError("%s holds %d sentences but %s has %d"
                         % (path, len(mats), what, len(sentences)))
    return mats


def _ext(vectors, k):
    return vectors[k] if vectors is not None else None


# ---------------------------------------------------------------------------
# commands


def _cmd_train(args):
    raw = apply_overrides(load_config_file(args.config), args.set)
    encoder_cfg, lexical_cfg, train_cfg = build_configs(raw)
    train_trees = load_trees(args.train_file)
    dev_trees = load_trees(args.dev_file)
    for path, trees in ((args.train_file, train_trees),
                        (args.dev_file, dev_trees)):
        if not trees:
            raise ConfigError("%s contains no trees" % path)
    train_vecs = _load_vectors(args.train_vectors, train_trees,
                               args.train_file, lexical_cfg.mode,
                               "--train-vectors")
    dev_vecs = _load_vectors(args.dev_vectors, dev_trees, args.dev_file,
                             lexical_cfg.mode, "--dev-vectors")
    # the checkpoint is written after training: find out now if it cannot be
    if os.path.isdir(args.out):
        raise ConfigError("cannot write %s: it is a directory" % args.out)
    out_dir = os.path.dirname(os.path.abspath(args.out))
    if not (os.path.isdir(out_dir) and os.access(out_dir, os.W_OK)):
        raise ConfigError("cannot write %s: %s is not a writable directory"
                          % (args.out, out_dir))

    vocab = Vocabulary.from_trees(train_trees)
    labels = LabelInventory.from_trees(train_trees)
    model = SpanParser(encoder_cfg, lexical_cfg, vocab, labels,
                       seed=train_cfg.seed)

    header = ["# config %s" % args.config]
    header += ["# override %s" % item for item in args.set]
    header.append("# parameters %d" % model.num_parameters())
    header.append("# batches\tlr\ttrain_loss\tdev_f1")
    log_fh = open(args.log, "a", encoding="utf-8") if args.log else None

    def emit(line):
        if not args.quiet:
            print(line)
        if log_fh is not None:
            log_fh.write(line + "\n")
            log_fh.flush()

    try:
        for line in header:
            emit(line)
        result = train(model, train_trees, dev_trees, train_cfg,
                       log_fn=emit, train_external=train_vecs,
                       dev_external=dev_vecs)
        ckpt.save_checkpoint(model, args.out)
        emit("# best dev F1 %.4f, checkpoint written to %s"
             % (result.best_f1, args.out))
    finally:
        if log_fh is not None:
            log_fh.close()
    return 0


def _cmd_parse(args):
    model = ckpt.load_checkpoint(args.checkpoint)
    sentences, lines = load_tagged(args.input, line_indices=True)
    vectors = _load_vectors(args.vectors, sentences, args.input,
                            model.lexical_config.mode, "--vectors")
    with _output(args.out) as out:
        for k, sentence in enumerate(sentences):
            try:
                tree = model.parse(sentence, external=_ext(vectors, k))
            except ValueError as exc:
                out.write("#PARSE-ERROR %d %s\n" % (lines[k], exc))
                continue
            out.write(tree.render() + "\n")
    return 0


def _cmd_eval(args):
    pred = load_trees(args.pred_file)
    gold = load_trees(args.gold_file)
    result = evaluation.score(pred, gold)
    print(evaluation.format_report(result))
    if args.tsv:
        print(result.tsv_line())
    return 0


def _parse_distance(text):
    text = text.strip()
    if text in ("inf", "none", "unlimited"):
        return math.inf
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise ConfigError("window distance %r is not a whole number or inf"
                          % text)
    value = int(text)
    if value < 0:
        raise ConfigError("window distance must be >= 0, got %d" % value)
    return value


def _sweep(args, header, controls):
    """Load the checkpoint, the dev trees and their vectors, then write
    ``header`` and, for each ``(label, control)`` of ``controls(model)``,
    a ``label<TAB>F1`` line: the F1 of the trees parsed under the
    control."""
    model = ckpt.load_checkpoint(args.checkpoint)
    trees = load_trees(args.dev_file)
    vectors = _load_vectors(args.vectors, trees, args.dev_file,
                            model.lexical_config.mode, "--vectors")
    rows = list(controls(model))     # every usage error before any output
    for label, control in rows:
        try:
            control.validate(model.encoder_config)
        except ValueError as exc:
            raise ConfigError("%s: %s" % (label, exc)) from exc
    with _output(args.out) as out:
        out.write(header)
        for label, control in rows:
            f1 = default_eval_fn(model, trees, vectors, control)
            out.write("%s\t%.2f\n" % (label, f1))
    return 0


def _cmd_analyze_window(args):
    def controls(model):
        distances = [_parse_distance(d) for d in args.distances.split(",")]
        modes = ["strict", "relaxed"] if args.mode == "both" else [args.mode]
        return [("%s\t%s" % ("inf" if d == math.inf else "%d" % d, mode),
                 AttentionControl(window=(d, mode)))
                for d in distances for mode in modes]
    return _sweep(args, "# distance\tmode\tF1\n", controls)


def parse_disable_spec(spec: str, num_layers: int) -> AttentionControl:
    """Turn 'content:last4,position:none' into per-layer disable flags.

    Each clause names the layers where that attention term stays ENABLED:
    all, none, first<k>, or last<k>.  Terms without a clause stay enabled
    everywhere; a term named in two clauses is a ConfigError.
    """
    enabled = {}    # the layers each term named so far keeps
    spec = spec.strip()
    if spec:
        for clause in spec.split(","):
            if ":" not in clause:
                raise ConfigError("disable clause %r is not of the form "
                                  "term:layers" % clause)
            term, layers = (s.strip() for s in clause.split(":", 1))
            if term not in ("content", "position"):
                raise ConfigError("unknown attention term %r (use content "
                                  "or position)" % term)
            if term in enabled:
                raise ConfigError("attention term %r is named again in "
                                  "disable clause %r" % (term, clause))
            counted = re.fullmatch(r"(first|last)([0-9]+)", layers)
            if layers == "all":
                keep = set(range(num_layers))
            elif layers == "none":
                keep = set()
            elif counted:
                k = min(int(counted.group(2)), num_layers)
                keep = set(range(k) if counted.group(1) == "first"
                           else range(num_layers - k, num_layers))
            else:
                raise ConfigError("bad layer subset %r in disable clause %r "
                                  "(use all, none, first<k>, or last<k> with "
                                  "k >= 0)" % (layers, clause))
            enabled[term] = keep
    every = range(num_layers)
    return AttentionControl(
        disable_content=tuple(i not in enabled.get("content", every)
                              for i in every),
        disable_position=tuple(i not in enabled.get("position", every)
                               for i in every))


def _cmd_analyze_disable(args):
    def controls(model):
        num_layers = model.encoder_config.num_layers
        return ((spec or "baseline", parse_disable_spec(spec, num_layers))
                for spec in args.spec or ["content:all,position:all"])
    return _sweep(args, "# spec\tF1\n", controls)


def _cmd_dump_attention(args):
    model = ckpt.load_checkpoint(args.checkpoint)
    if (args.text is None) == (args.input is None):
        raise ConfigError("give exactly one of --text or --input")
    if args.text is not None:
        sentences = parse_tagged(args.text)
    else:
        sentences = load_tagged(args.input)
    if not sentences:
        raise ConfigError("no sentence to analyze")
    sentence = sentences[0]
    vectors = _load_vectors(args.vectors, sentences,
                            args.input or "the sentence",
                            model.lexical_config.mode, "--vectors")

    control = None
    if args.window:
        if ":" not in args.window:
            raise ConfigError("--window must be DISTANCE:MODE")
        d, m = args.window.split(":", 1)
        if m.strip() not in WINDOW_MODES:
            raise ConfigError("--window mode %r is not one of %s"
                              % (m.strip(), ", ".join(WINDOW_MODES)))
        control = AttentionControl(window=(_parse_distance(d), m.strip()))

    record = {}
    tree = model.parse(sentence, control=control,
                       external=_ext(vectors, 0), record=record)
    with _output(args.out) as out:
        out.write("# tree %s\n" % tree.render())
        out.write("# tokens <start> %s <stop>\n"
                  % " ".join(w for w, _ in sentence))
        out.write("# layer\thead\tquery\tkey\tprob\n")
        for (layer, head) in sorted(record):
            probs = record[(layer, head)]
            for q in range(probs.shape[0]):
                for k in range(probs.shape[1]):
                    out.write("%d\t%d\t%d\t%d\t%.10f\n"
                              % (layer, head, q, k, probs[q, k]))
    return 0
