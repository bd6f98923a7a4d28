"""Tests of the benchmark's own parts: the decode oracle, the tracer, the
seeded inputs and the metric lists of BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os

import numpy as np
import pytest

import inputs
import oracle
import tracing
import workload
from spanparser import (EncoderConfig, LabelInventory, LexicalConfig,
                        SpanParser, Vocabulary, cky_decode, debinarize,
                        model as model_module, toy_treebank)
from spanparser.trees import BinaryTree

LABELS = LabelInventory(["NP", "S", "VP", "S+VP"])
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def random_chart(rng, n):
    chart = np.zeros((n + 1, n + 1, len(LABELS)))
    for i in range(n):
        for j in range(i + 1, n + 1):
            chart[i, j, 1:] = rng.standard_normal(len(LABELS) - 1)
    return chart


def sentence_of(n):
    return [("w%d" % k, "T%d" % (k % 3)) for k in range(n)]


def decoded(chart, sentence):
    btree, score = cky_decode(chart, sentence)
    return btree, debinarize(btree, LABELS), score


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
def test_oracle_accepts_the_programs_best_tree(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        chart = random_chart(rng, n)
        _, tree, score = decoded(chart, sentence_of(n))
        oracle.check_parse(tree, sentence_of(n), chart, LABELS)
        assert oracle.best_tree_score(chart) == pytest.approx(score,
                                                              rel=1e-12)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_dynamic_program_matches_enumeration(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(10):
        chart = random_chart(rng, n)
        assert oracle.best_tree_score(chart) == pytest.approx(
            oracle.brute_force_score(chart), rel=1e-12)


def test_oracle_rejects_a_planted_non_optimal_tree():
    rng = np.random.default_rng(7)
    n = 6
    sentence = sentence_of(n)
    chart = random_chart(rng, n)
    btree, _, _ = decoded(chart, sentence)
    # the same bracketing with the root's second-best real label
    ranked = np.argsort(chart[0, n, 1:])[::-1] + 1
    assert ranked[0] == btree.label
    btree.label = int(ranked[1])
    planted = debinarize(btree, LABELS)
    with pytest.raises(oracle.OracleError, match="best tree"):
        oracle.check_parse(planted, sentence, chart, LABELS)


def test_oracle_rejects_a_planted_non_optimal_bracketing():
    rng = np.random.default_rng(8)
    n = 7
    sentence = sentence_of(n)
    chart = random_chart(rng, n)
    best, _, _ = decoded(chart, sentence)
    best_spans = {node.span for node in best.nodes()}

    def right_branching(i):
        leaf = BinaryTree(0, (i, i + 1), word=sentence[i][0],
                          tag=sentence[i][1])
        if i == n - 1:
            return leaf
        rest = right_branching(i + 1)
        label = 1 if i == 0 else 0
        return BinaryTree(label, (i, n), left=leaf, right=rest)

    planted_binary = right_branching(0)
    assert {node.span for node in planted_binary.nodes()} != best_spans
    assert chart[0, n, 1] < oracle.best_tree_score(chart) - 1e-6
    planted = debinarize(planted_binary, LABELS)
    with pytest.raises(oracle.OracleError):
        oracle.check_parse(planted, sentence, chart, LABELS)


def test_oracle_rejects_wrong_leaves_and_null_labels():
    rng = np.random.default_rng(9)
    chart = random_chart(rng, 4)
    _, tree, _ = decoded(chart, sentence_of(4))
    with pytest.raises(oracle.OracleError, match="leaves"):
        oracle.check_parse(tree, sentence_of(4)[::-1], chart, LABELS)
    tree.label = LABELS.name(LABELS.null_id)
    with pytest.raises(oracle.OracleError, match="not a real label"):
        oracle.check_parse(tree, sentence_of(4), chart, LABELS)


def tiny_parser():
    trees = toy_treebank(6, seed=4)
    enc = EncoderConfig(num_layers=1, d_model=16, num_heads=2, d_k=8, d_v=8,
                        d_ff=16, span_hidden=8, max_sentence_length=40)
    model = SpanParser(enc, LexicalConfig(mode="char-lstm",
                                          char_embedding_dim=4,
                                          char_lstm_hidden=4),
                       Vocabulary.from_trees(trees),
                       LabelInventory.from_trees(trees), seed=3)
    return model, trees


def test_tracing_leaves_parses_unchanged():
    model, trees = tiny_parser()
    sentences = [t.sentence() for t in trees]
    plain = [model.parse(s).render() for s in sentences]
    originals = (model_module.cky_decode, SpanParser.parse)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span(tracing.ROUND):
            traced = [model.parse(s).render() for s in sentences]
    finally:
        tracer.uninstall()
    assert (model_module.cky_decode, SpanParser.parse) == originals
    assert traced == plain
    calls, _, _ = tracer.totals(tracing.ROUND)
    assert calls["model.parse"] == calls["chart.cky"] == len(sentences)
    metrics = tracing.layer_metrics(tracer, 1.0)
    assert set(metrics) == set(tracing.PER_LAYER)
    assert metrics["autodiff.matmul_calls_per_sent"] > 0
    assert metrics["checkpoint.load_ms"] == 0.0


def test_gradient_check_finds_agreement_on_a_toy_model():
    model, trees = tiny_parser()
    worst, compared, _ = workload.gradient_check(model, trees[0],
                                                 np.random.default_rng(0))
    assert worst < workload.FD_TOLERANCE
    assert compared >= workload.FD_COORDS // 2


def test_inputs_are_a_function_of_the_seed():
    pairs = inputs.lexicon(toy_treebank(20, seed=1))
    a = inputs.parse_sentences("parse-paper", pairs, 5)
    assert a == inputs.parse_sentences("parse-paper", pairs, 5)
    assert a != inputs.parse_sentences("parse-paper", pairs, 6)
    lengths = sorted(len(s) for s in a)
    assert len(a) == 100 and lengths[0] >= 5 and lengths[-1] <= 60
    long = inputs.parse_sentences("parse-long", pairs, 5)
    assert [len(s) for s in long] == list(inputs.LONG_LENGTHS)
    assert long != inputs.parse_sentences("parse-long", pairs, 6)
    train, dev = inputs.split_treebank(10, 5, 3)
    assert not {str(t.sentence()) for t in train} & {str(t.sentence())
                                                     for t in dev}


def test_benchmark_json_lists_the_metrics_the_runs_print():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        workload.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        tracing.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(inputs.WORKLOADS)
