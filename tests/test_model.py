import numpy as np
import pytest

import spanparser.autodiff as ad
from spanparser.autodiff import Tensor, backward
from spanparser.chart import build_chart
from spanparser.encoder import (FACTORED_VARIANTS, AttentionControl,
                                EncoderConfig)
from spanparser.lexical import LexicalConfig
from spanparser.model import PARSE_PACK, SpanParser
from spanparser.toydata import toy_treebank
from spanparser.trees import parse_bracketed, save_trees
from spanparser.vocab import LabelInventory, Vocabulary

from support import blas_counts, gradcheck, tiny_model

TREES = parse_bracketed(
    "(S (NP (DT the) (NN cat)) (VP (VB saw) (NP (DT a) (NN telescope))))\n"
    "(S (NP (NN dog)) (VP (VB ran)))\n"
    "(TOP (S (VP (VB go))))"
)


def test_construction_is_deterministic_in_seed():
    a = tiny_model(TREES, seed=3)
    b = tiny_model(TREES, seed=3)
    c = tiny_model(TREES, seed=4)
    for (name, pa), (_, pb) in zip(a.store.items(), b.store.items()):
        assert np.array_equal(pa.data, pb.data), name
    assert any(not np.array_equal(pa.data, pc.data)
               for (_, pa), (_, pc) in zip(a.store.items(), c.store.items()))


def test_different_seeds_draw_different_arenas():
    # every drawn parameter's generator depends on the seed, not only on
    # the parameter's index, so no drawn parameter repeats across seeds
    models = [tiny_model(TREES, mode="char-lstm", seed=s) for s in (0, 1, 2)]
    for k, a in enumerate(models):
        for b in models[k + 1:]:
            assert a.store.data.tobytes() != b.store.data.tobytes()
            for (name, pa), (_, pb) in zip(a.store.items(), b.store.items()):
                if np.any((pa.data != 0) & (pa.data != 1)):
                    assert not np.array_equal(pa.data, pb.data), name


def test_requires_real_labels():
    vocab = Vocabulary.from_trees(TREES)
    with pytest.raises(ValueError):
        SpanParser(EncoderConfig(num_layers=1, d_model=16, num_heads=2,
                                 d_k=8, d_v=8, d_ff=16, span_hidden=8),
                   LexicalConfig(), vocab, LabelInventory([]))


def test_span_scores_and_chart_shapes():
    model = tiny_model(TREES)
    sent = TREES[0].sentence()
    scores = model.span_score_tensor(sent)
    n = len(sent)
    assert scores.shape == (n * (n + 1) // 2, len(model.labels) - 1)
    chart = model.score_chart(sent)
    assert chart.shape == (n + 1, n + 1, len(model.labels))
    assert (chart[:, :, 0] == 0).all()
    with pytest.raises(ValueError):
        model.span_score_tensor([])


def test_parse_returns_wellformed_tree():
    model = tiny_model(TREES)
    for tree in TREES:
        sent = tree.sentence()
        out = model.parse(sent)
        assert out.sentence() == sent
        # output labels are inventory entries re-expanded to atomic pieces
        atomic = {piece for lab in model.labels.to_dict()["labels"]
                  for piece in lab.split("+")}
        stack = [out]
        while stack:
            node = stack.pop()
            if not node.is_leaf():
                assert node.label in atomic
                stack.extend(node.children)


def test_gold_binary_and_loss_roundtrip():
    model = tiny_model(TREES)
    tree = TREES[2]
    gb = model.gold_binary(tree)
    assert gb.span == (0, 1)
    assert model.labels.name(gb.label) == "TOP+S+VP"
    result = model.sentence_loss(tree.sentence(), gb, train=False)
    assert result.value >= 0.0


def test_sentence_loss_gradients_reach_all_layers():
    model = tiny_model(TREES, no_dropout=True)
    tree = TREES[0]
    result = model.sentence_loss(tree.sentence(), model.gold_binary(tree),
                                 train=False)
    assert result.violator is not None  # untrained model cannot be perfect
    backward(result.loss)
    touched = [name for name, p in model.store.items()
               if p.grad is not None and np.abs(p.grad).sum() > 0]
    assert "lexical.word_emb" in touched
    assert "encoder.positions" in touched
    assert "scorer.m2" in touched
    assert any(name.startswith("encoder.layer1") for name in touched)


def test_model_gradcheck_end_to_end():
    # finite differences through lexical + encoder + scorer + hinge
    model = tiny_model(TREES, num_layers=1, no_dropout=True)
    tree = TREES[1]
    sent = tree.sentence()
    gb = model.gold_binary(tree)

    def loss():
        return model.sentence_loss(sent, gb, train=False).loss

    names = ["lexical.word_emb", "lexical.tag_emb", "encoder.positions",
             "encoder.layer0.attn.w_qc", "encoder.layer0.ffn.w2p",
             "encoder.layer0.ln1.gain", "scorer.m1", "scorer.m2", "scorer.c2"]
    err = gradcheck(loss, [model.store[n] for n in names],
                    np.random.default_rng(0), coords=4)
    assert err < 1e-4


def test_char_modes_build_and_parse():
    lstm = tiny_model(TREES, mode="char-lstm", char_lstm_hidden=6)
    out = lstm.parse(TREES[1].sentence())
    assert out.sentence() == TREES[1].sentence()
    concat = tiny_model(TREES, mode="char-concat", d_model=64)
    # factored content slot is 32 = 16 * char_dim with char_dim = 2
    assert concat.lexical.chars.char_dim == 2
    out = concat.parse(TREES[1].sentence())
    assert out.sentence() == TREES[1].sentence()


def test_external_mode_parse():
    model = tiny_model(TREES, mode="external", external_dim=5)
    sent = TREES[1].sentence()
    rng = np.random.default_rng(0)
    ext = rng.standard_normal((len(sent), 5))
    out = model.parse(sent, external=ext)
    assert out.sentence() == sent
    with pytest.raises(ValueError):
        model.parse(sent)


def test_attention_control_plumbs_through_parse():
    model = tiny_model(TREES)
    sent = TREES[0].sentence()
    record = {}
    model.parse(sent, control=AttentionControl(window=(1, "strict")),
                record=record)
    T = len(sent) + 2
    for probs in record.values():
        assert probs.shape == (T, T)
        assert probs[0, T - 1] == 0.0  # outside the strict band


def test_parse_runs_without_graph_and_matches_scores(monkeypatch):
    model = tiny_model(TREES)
    sent = TREES[0].sentence()
    reference = build_chart(model.span_score_tensor(sent).data, len(sent))
    graph = []
    init = Tensor.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        graph.append(self._grad_fn is not None)

    monkeypatch.setattr(Tensor, "__init__", counting)
    chart = model.score_chart(sent)
    model.parse(sent)
    assert graph and not any(graph)
    assert np.array_equal(chart, reference)


def test_failed_parse_restores_gradient_tracking():
    model = tiny_model(TREES)
    too_long = [("w", "NN")] * 30  # beyond max_sentence_length 24
    with pytest.raises(ValueError):
        model.parse(too_long)
    scores = model.span_score_tensor(TREES[1].sentence())
    assert scores._grad_fn is not None


def test_num_parameters_counts_every_value():
    model = tiny_model(TREES)
    assert model.num_parameters() == sum(p.data.size for p in model.store)
    assert model.num_parameters() > 0


PACK_TREES = parse_bracketed(
    "(S (NP (DT the) (NN cat)) (VP (VB saw) (NP (DT a) (NN telescope))))\n"
    "(S (NP (NN dog)) (VP (VB ran)))\n"
    "(TOP (S (VP (VB go))))\n"
    "(S (NP (DT a) (NN dog)) (VP (VB saw) (NP (NN cat)) (RB far)))\n"
    "(S (NP (NN cat)) (VP (VB sat)))"
)


@pytest.mark.parametrize("variant", [
    "additive-unfactored", "concatenative-unfactored", "factored",
    "position-only", "block-sparse-additive"])
@pytest.mark.parametrize("mode", ["tags", "char-lstm", "external"])
def test_packed_scores_equal_each_sentences_own(variant, mode):
    extra = {"external_dim": 5} if mode == "external" else {}
    model = tiny_model(PACK_TREES, mode, variant, seed=2, **extra)
    sentences = [t.sentence() for t in PACK_TREES]
    rng = np.random.default_rng(3)
    externals = [rng.standard_normal((len(s), 5)) if extra else None
                 for s in sentences]
    for control in (None, AttentionControl(window=(1, "strict"))):
        for size in range(1, 6):
            pack = model.pack_scores(sentences[:size], control=control,
                                     externals=externals[:size])
            own = [model.span_score_tensor(s, control=control, external=e)
                   for s, e in zip(sentences[:size], externals[:size])]
            assert pack.shape[0] == sum(o.shape[0] for o in own)
            assert np.allclose(pack.data,
                               np.concatenate([o.data for o in own]),
                               rtol=0.0, atol=1e-12)


BATCH_TREES = toy_treebank(17, seed=4)  # 3-14 words, one more than a pack


@pytest.mark.parametrize("variant", [
    "additive-unfactored", "concatenative-unfactored", "factored",
    "position-only", "block-sparse-additive"])
@pytest.mark.parametrize("mode", ["tags", "char-lstm", "external"])
def test_parse_batch_gives_each_sentences_own_parse(variant, mode):
    assert len(BATCH_TREES) > PARSE_PACK
    extra = {"external_dim": 5} if mode == "external" else {}
    model = tiny_model(BATCH_TREES, mode, variant, seed=2, **extra)
    sentences = [t.sentence() for t in BATCH_TREES]
    rng = np.random.default_rng(3)
    externals = ([rng.standard_normal((len(s), 5)) for s in sentences]
                 if extra else None)
    controls = [AttentionControl(window=(2, "strict"))]
    if variant in FACTORED_VARIANTS:
        controls.append(AttentionControl(disable_content=(False, True),
                                         disable_position=(True, False)))
    for control in controls:
        batch = model.parse_batch(sentences, control=control,
                                  externals=externals)
        lone = [model.parse(s, control=control,
                            external=externals[k] if extra else None)
                for k, s in enumerate(sentences)]
        assert [t.render() for t in batch] == [t.render() for t in lone]
        one = model.parse_batch(sentences[:1], control=control,
                                externals=externals[:1] if extra else None)
        assert one == lone[:1]


def test_pack_of_one_is_the_sentence_path_and_packs_refuse_records():
    model = tiny_model(PACK_TREES)
    sent = PACK_TREES[3].sentence()
    assert np.array_equal(model.pack_scores([sent]).data,
                          model.span_score_tensor(sent).data)
    with pytest.raises(ValueError):
        model.pack_scores([sent, sent], record={})
    with pytest.raises(ValueError):
        model.pack_scores([sent, []])


def test_batch_loss_results_match_sentence_losses():
    model = tiny_model(PACK_TREES, no_dropout=True)
    batch = [(t.sentence(), model.gold_binary(t), None) for t in PACK_TREES]
    results, loss = model.batch_loss(batch, train=False)
    own = [model.sentence_loss(s, g, train=False) for s, g, _ in batch]
    for packed, lone in zip(results, own):
        assert packed.value == pytest.approx(lone.value, abs=1e-10)
        assert packed.delta == lone.delta
        assert (packed.violator is None) == (lone.violator is None)
    assert float(loss.data) == pytest.approx(sum(r.value for r in own),
                                             abs=1e-10)


# the OpenBLAS thread count after import, inside the encoder as
# ``pack_scores`` runs it, inside a grad_fn as ``backward`` runs it, after
# each of them returns and raises, and after ``spanparser eval``, as a
# JSON line
SCOPED_PIN_SCRIPT = """
import contextlib
import json
import sys

import numpy as np

import spanparser.autodiff as ad
from spanparser import cli, toy_treebank
from support import openblas_threads, tiny_model

count = openblas_threads()
if count is None:
    print("{}")
    raise SystemExit
counts = {"import": count()}
trees = toy_treebank(4, seed=1)
model = tiny_model(trees, num_layers=1)
encode = model.encoder.encode


def recording(name, then):
    def record(*args):
        counts[name] = count()
        return then(*args)
    return record


def scripted_failure(*args):
    raise KeyError("scripted")


model.encoder.encode = recording("encode", encode)
model.parse(trees[0].sentence())
counts["parse returned"] = count()
model.encoder.encode = recording("encode that raises", scripted_failure)
with contextlib.suppress(KeyError):
    model.parse_batch([t.sentence() for t in trees])
counts["parse_batch raised"] = count()
leaf = ad.tensor(2.0, requires_grad=True)
ad.backward(ad.Tensor(np.array(3.0), (leaf,),
                      recording("grad_fn", lambda g: (g,))))
counts["backward returned"] = count()
with contextlib.suppress(KeyError):
    ad.backward(ad.Tensor(np.array(3.0), (leaf,),
                          recording("grad_fn that raises", scripted_failure)))
counts["backward raised"] = count()
with contextlib.redirect_stdout(sys.stderr):
    assert cli.main(["eval", sys.argv[1], sys.argv[1]]) == 0
counts["eval"] = count()
print(json.dumps(counts))
"""


def test_pack_scores_and_backward_hold_one_blas_thread_for_the_call_only(
        tmp_path):
    save_trees(toy_treebank(4, seed=2), tmp_path / "dev.txt")
    assert blas_counts(SCOPED_PIN_SCRIPT, tmp_path / "dev.txt") == {
        "import": 2, "encode": 1, "parse returned": 2,
        "encode that raises": 1, "parse_batch raised": 2, "grad_fn": 1,
        "backward returned": 2, "grad_fn that raises": 1,
        "backward raised": 2, "eval": 2}
