"""End-to-end acceptance checks.

Each test pins down one externally checkable guarantee: exact agreement
between the chart decoders and brute-force enumeration, finite-difference
agreement for every network configuration, the factored-attention
equivalences, evaluator arithmetic, the training schedule, and a full
overfitting run with attention-window ablations.
"""

import math
import time

import numpy as np
import pytest

import spanparser.autodiff as ad
from spanparser.chart import cky_decode, loss_augmented_decode, tree_score
from spanparser.encoder import (
    AttentionControl, Encoder, EncoderConfig, assemble_block_sparse,
    compose_input,
)
from spanparser.evaluation import score
from spanparser.lexical import LexicalConfig, LexicalModel
from spanparser.model import SpanParser
from spanparser.optim import ParameterStore
from spanparser.toydata import toy_treebank
from spanparser.trees import (
    binarize, collapse_unary, gold_spans, parse_bracketed,
)
from spanparser.training import TrainConfig, TrainState, lr_schedule, train
from spanparser.vocab import LabelInventory, Vocabulary

from support import (
    brute_best, gradcheck, random_chart, random_ntree, tiny_encoder,
    tiny_model,
)


# ---------------------------------------------------------------------------
# 1. gradients: every lexical mode and encoder variant, checked end to end
#    against central finite differences on every parameter.


GRAD_COMBOS = [
    ("tags", "factored", {}),
    ("char-lstm", "additive-unfactored", {}),
    ("char-concat", "concatenative-unfactored",
     {"d_model": 32, "char_embedding_dim": 1}),
    ("external", "position-only", {"external_dim": 7}),
    ("tags", "block-sparse-additive", {}),
]


def test_gradients_match_finite_differences_everywhere():
    start = time.time()
    rng = np.random.default_rng(5)
    trees = [random_ntree(rng) for _ in range(30)]
    sent = trees[0].sentence()[:5]
    worst = {}
    for mode, variant, extra in GRAD_COMBOS:
        model = tiny_model(trees, mode, variant, seed=3, num_layers=1,
                           no_dropout=True, **extra)
        ext = (np.random.default_rng(4).standard_normal((len(sent), 7))
               if mode == "external" else None)
        # smooth scalar touching every score: random-weighted sum
        weights = {}

        def loss():
            s = model.span_score_tensor(sent, external=ext)
            if "w" not in weights:
                weights["w"] = np.random.default_rng(0).standard_normal(
                    s.data.shape)
            return ad.sum_all(ad.mul_const(s, weights["w"]))

        err = gradcheck(loss, list(model.store), np.random.default_rng(1),
                        coords=3)
        worst[(mode, variant)] = err
        assert err < 1e-4, "%s/%s: %g" % (mode, variant, err)

    # the hinge objective itself, away from decision boundaries
    small = [t for t in trees if 2 <= len(t.leaves()) <= 6]
    gold = small[0]
    gsent = gold.sentence()
    hinge_model = tiny_model(trees, "tags", "factored", seed=3, num_layers=1,
                             no_dropout=True)
    gb = hinge_model.gold_binary(gold)

    def hinge():
        return hinge_model.sentence_loss(gsent, gb, train=False).loss

    err = gradcheck(hinge, list(hinge_model.store),
                    np.random.default_rng(2), coords=3)
    worst[("hinge", "eval")] = err
    assert err < 1e-4

    # train mode: dropout masks replayed from a fresh rng on every call
    drop_model = tiny_model(trees, "tags", "factored", seed=3, num_layers=1)

    def hinge_train():
        return drop_model.sentence_loss(gsent, gb, train=True,
                                        rng=np.random.default_rng(7)).loss

    err = gradcheck(hinge_train, list(drop_model.store),
                    np.random.default_rng(2), coords=2)
    worst[("hinge", "train")] = err
    assert err < 1e-4

    elapsed = time.time() - start
    assert elapsed < 60.0
    print("\ngradient check, worst relative error per configuration:")
    for key, err in sorted(worst.items()):
        print("  %-40s %.3g" % ("/".join(key), err))


# ---------------------------------------------------------------------------
# 2. decoding: CKY and its loss-augmented variant agree with brute-force
#    enumeration, with exact float equality, on every chart tried.


def test_decoders_match_brute_force_exactly():
    start = time.time()
    rng = np.random.default_rng(0)
    for n in range(1, 7):
        for num_labels in range(2, 5):
            for _ in range(200):
                chart = random_chart(rng, n, num_labels)
                tree, value = cky_decode(chart)
                assert value == brute_best(chart)
                assert tree_score(chart, tree) == pytest.approx(value,
                                                                abs=1e-9)

                gold, _ = cky_decode(random_chart(rng, n, num_labels))
                gtrips = gold_spans(gold)
                _, objective = loss_augmented_decode(chart, gtrips)
                gold_real = [(i, j, l) for i, j, l in gtrips if l != 0]
                grid = {(i, j): l for i, j, l in gold_real}
                aug = chart.copy()
                for i in range(n):
                    for j in range(i + 1, n + 1):
                        gl = grid.get((i, j))
                        if gl is None:
                            aug[i, j, 1:] += 1.0
                        else:
                            aug[i, j, gl] -= 1.0
                assert objective == brute_best(aug) + len(gold_real)
    assert time.time() - start < 30.0


# ---------------------------------------------------------------------------
# 3. binarization direction never changes a tree's chart score.


def test_binarization_direction_never_changes_tree_score():
    rng = np.random.default_rng(17)
    for _ in range(100):
        raw = random_ntree(rng, max_children=8)
        inv = LabelInventory.from_trees([raw])
        collapsed = collapse_unary(raw)
        left = binarize(collapsed, inv, direction="left")
        right = binarize(collapsed, inv, direction="right")
        real_left = {t for t in gold_spans(left) if t[2] != 0}
        real_right = {t for t in gold_spans(right) if t[2] != 0}
        assert real_left == real_right
        chart = random_chart(rng, len(raw.leaves()), len(inv))
        assert tree_score(chart, left) == tree_score(chart, right)


# ---------------------------------------------------------------------------
# 4. a factored attention head is exactly a dense head whose weights are
#    block-sparse (up to float rounding well below 1e-10).


def test_factored_head_matches_assembled_dense_head():
    rng = np.random.default_rng(12)
    for rep in range(100):
        d_k = 2 * int(rng.integers(1, 5))
        d_v = 2 * int(rng.integers(1, 5))
        d_model = 2 * int(rng.integers(4, 17))
        T = int(rng.integers(2, 9))
        enc, _, cfg = tiny_encoder("factored", seed=rep, num_layers=1,
                                   d_model=d_model, num_heads=1, d_k=d_k,
                                   d_v=d_v, d_ff=8, max_len=16)
        content = ad.tensor(rng.standard_normal((T, cfg.content_dim)))
        positions = ad.take_rows(enc.position_table, np.arange(T))
        x = compose_input(content, positions, cfg.variant)
        layer = enc.layers[0]
        out = layer.attn.head_outputs(x, positions, None, False, False)

        dense = assemble_block_sparse(layer, 0)
        xd = x.data
        logits = (xd @ dense["w_q"]) @ (xd @ dense["w_k"]).T
        logits /= math.sqrt(cfg.d_k)
        logits -= logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        ref = probs @ (xd @ dense["w_v"]) @ dense["w_o"]
        assert np.abs(out.data[0] - ref).max() < 1e-10


# ---------------------------------------------------------------------------
# 5. the position-only variant attends identically no matter what the
#    content rows hold, bitwise.


def test_position_only_attention_ignores_content():
    for rep in range(20):
        enc, _, cfg = tiny_encoder("position-only", seed=rep)
        rng = np.random.default_rng(100 + rep)
        T = int(rng.integers(2, 9))
        content = rng.standard_normal((T, cfg.content_dim))
        shuffled = content[rng.permutation(T)]
        replaced = rng.standard_normal((T, cfg.content_dim))
        base = {}
        enc.encode(ad.tensor(content), record=base)
        for other in (shuffled, replaced):
            rec = {}
            enc.encode(ad.tensor(other), record=rec)
            assert rec.keys() == base.keys()
            for key in base:
                assert np.array_equal(rec[key], base[key])


# ---------------------------------------------------------------------------
# 6. factoring pays: strictly fewer attention parameters than either
#    unfactored composition at the same dimensions.


def test_factored_encoder_has_fewer_parameters():
    counts = {}
    for variant in ("factored", "concatenative-unfactored",
                    "additive-unfactored"):
        store = ParameterStore()
        cfg = EncoderConfig(num_layers=8, d_model=512, num_heads=8, d_k=64,
                            d_v=64, d_ff=1024, variant=variant,
                            max_sentence_length=300)
        Encoder(store, cfg)
        counts[variant] = store.size
    print("\nencoder parameter counts at d_model=512, 8 layers, 8 heads:")
    for variant, count in counts.items():
        print("  %-28s %d" % (variant, count))
    assert counts["factored"] < counts["concatenative-unfactored"]
    assert counts["factored"] < counts["additive-unfactored"]


# ---------------------------------------------------------------------------
# 7 and 8. a 2-layer character-LSTM model overfits 50 synthetic trees to
#    F1 >= 99 within 300 batches, and windowing its attention at parse
#    time costs accuracy.


@pytest.fixture(scope="module")
def overfit_run():
    start = time.time()
    trees = toy_treebank(50, seed=11)
    enc = EncoderConfig(num_layers=2, d_model=64, num_heads=4, d_k=16,
                        d_v=16, d_ff=128, variant="factored", span_hidden=64,
                        max_sentence_length=20, attention_dropout=0.0,
                        relu_dropout=0.0, residual_dropout=0.0)
    lex = LexicalConfig(mode="char-lstm", char_embedding_dim=16,
                        char_lstm_hidden=32, word_dropout=0.0,
                        tag_dropout=0.0, morph_dropout=0.0, char_dropout=0.0)
    model = SpanParser(enc, lex, Vocabulary.from_trees(trees),
                       LabelInventory.from_trees(trees), seed=0)
    cfg = TrainConfig(batch_size=10, base_lr=0.002, warmup_batches=20,
                      evals_per_epoch=1, patience_epochs=8, max_epochs=60,
                      seed=0)
    result = train(model, trees, trees, cfg, log_fn=None)
    return model, trees, result, time.time() - start


def test_training_overfits_synthetic_treebank(overfit_run):
    model, trees, result, elapsed = overfit_run
    assert result.state.batches_seen <= 300
    assert elapsed < 600.0
    assert result.best_f1 >= 99.0
    print("\noverfit run: %.2f F1 after %d batches in %.0fs"
          % (result.best_f1, result.state.batches_seen, elapsed))


def test_window_masking_degrades_overfit_model(overfit_run):
    model, trees, _, _ = overfit_run
    assert any(len(t.leaves()) >= 10 for t in trees)

    def f1_under(control):
        preds = [model.parse(t.sentence(), control=control) for t in trees]
        return score(preds, trees).f1

    unwindowed = f1_under(None)
    strict = f1_under(AttentionControl(window=(1, "strict")))
    relaxed = f1_under(AttentionControl(window=(1, "relaxed")))
    print("\nwindow ablation F1: unwindowed %.2f, strict d=1 %.2f, "
          "relaxed d=1 %.2f" % (unwindowed, strict, relaxed))
    assert strict < unwindowed
    # boundary access usually softens the hit; informational only
    print("relaxed - strict = %+.2f" % (relaxed - strict))


# ---------------------------------------------------------------------------
# 9. character-concatenation rows are exactly (8 + 8) * char_dim wide; at
#    char_dim 32 that is the full 512-dimensional content slot.


def test_char_concat_fills_512_wide_content_slot():
    trees = toy_treebank(8, seed=2)
    enc = EncoderConfig(num_layers=1, d_model=1024, num_heads=2, d_k=16,
                        d_v=16, d_ff=32, variant="factored", span_hidden=16,
                        max_sentence_length=16)
    lex = LexicalConfig(mode="char-concat", char_embedding_dim=32,
                        word_dropout=0.0, tag_dropout=0.0, morph_dropout=0.0,
                        char_dropout=0.0)
    assert enc.content_dim == 512 == (8 + 8) * 32
    model = SpanParser(enc, lex, Vocabulary.from_trees(trees),
                       LabelInventory.from_trees(trees), seed=0)
    sent = trees[0].sentence()
    rows = model.lexical.content_vectors([sent], rng=None, externals=None)
    assert rows.data.shape == (len(sent) + 2, 512)
    out = model.parse(sent)
    assert out.sentence() == sent

    # any other slot width is rejected up front
    with pytest.raises(ValueError):
        LexicalModel(ParameterStore(), Vocabulary.from_trees(trees), lex,
                     500)


# ---------------------------------------------------------------------------
# 10. the learning-rate schedule: zero at batch 0, base after warmup,
#    halved once dev F1 stalls for patience_epochs epochs.


def test_learning_rate_schedule_and_stall_halving():
    cfg = TrainConfig(base_lr=0.0008, warmup_batches=160)
    state = TrainState()
    assert lr_schedule(0, state, cfg) == 0.0
    assert lr_schedule(160, state, cfg) == 0.0008
    assert lr_schedule(5000, state, cfg) == 0.0008

    trees = [random_ntree(np.random.default_rng(3)) for _ in range(8)]
    trees = [t for t in trees if len(t.leaves()) <= 10][:4]
    model = tiny_model(trees, "tags", "factored", no_dropout=True)
    script = iter([60.0] + [10.0] * 10)
    cfg = TrainConfig(batch_size=2, base_lr=0.01, warmup_batches=0,
                      evals_per_epoch=1, patience_epochs=5, max_epochs=7,
                      seed=0)
    result = train(model, trees, trees, cfg,
                   eval_fn=lambda m, d: next(script))
    assert result.best_f1 == 60.0
    assert result.state.num_halvings == 1
    assert lr_schedule(100, result.state, cfg) == 0.005


# ---------------------------------------------------------------------------
# 11. evaluator arithmetic on a hand-scored example, plus symmetry.


def test_evaluator_reports_expected_bracket_scores():
    gold = parse_bracketed(
        "(TOP (S (NP (DT the) (NN cat)) (VP (VB saw) (NP (DT a) (NN dog)))))")
    pred = parse_bracketed(
        "(TOP (S (NP (DT the) (NN cat)) (VB saw) (PP (DT a) (NN dog))))")
    result = score(pred, gold)
    assert (result.matched, result.predicted, result.gold) == (3, 4, 5)
    assert result.recall == pytest.approx(60.0, abs=0.01)
    assert result.precision == pytest.approx(75.0, abs=0.01)
    assert result.f1 == pytest.approx(66.67, abs=0.01)

    flipped = score(gold, pred)
    assert flipped.matched == result.matched
    assert flipped.recall == pytest.approx(result.precision)
    assert flipped.precision == pytest.approx(result.recall)
    assert flipped.f1 == pytest.approx(result.f1)
