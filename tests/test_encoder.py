import math

import numpy as np
import pytest

import spanparser.autodiff as ad
from spanparser.autodiff import tensor
from spanparser.encoder import (
    AttentionControl, EncoderConfig, assemble_block_sparse, build_window_mask,
    compose_input,
)

from support import gradcheck, tiny_encoder


def rand_content(rng, T, cfg):
    return tensor(rng.standard_normal((T, cfg.content_dim)))


def test_config_validation():
    with pytest.raises(ValueError):
        EncoderConfig(variant="bogus").validate()
    with pytest.raises(ValueError):
        EncoderConfig(d_model=15).validate()
    with pytest.raises(ValueError):
        EncoderConfig(variant="factored", d_k=7).validate()
    with pytest.raises(ValueError):
        EncoderConfig(attention_dropout=1.0).validate()
    for name in ("d_model", "num_heads", "d_k", "d_v", "d_ff", "span_hidden"):
        for bad in (0, -2):
            with pytest.raises(ValueError, match=name):
                EncoderConfig(**{name: bad}).validate()
    # a one-word sentence needs a start, a word and a stop row
    for bad in (0, 2):
        with pytest.raises(ValueError, match="max_sentence_length"):
            EncoderConfig(max_sentence_length=bad).validate()
    EncoderConfig(max_sentence_length=3).validate()
    EncoderConfig().validate()


def test_content_dim_depends_on_variant():
    assert EncoderConfig(d_model=64, variant="factored").content_dim == 32
    assert EncoderConfig(d_model=64,
                         variant="concatenative-unfactored").content_dim == 32
    assert EncoderConfig(d_model=64,
                         variant="additive-unfactored").content_dim == 64
    assert EncoderConfig(d_model=64, variant="position-only").content_dim == 64
    assert EncoderConfig(d_model=64,
                         variant="block-sparse-additive").content_dim == 64


def test_window_mask_strict():
    m = build_window_mask([5], 1, "strict")[0]
    expect = np.zeros((5, 5), dtype=bool)
    for i in range(5):
        for j in range(5):
            expect[i, j] = abs(i - j) <= 1
    assert np.array_equal(m, expect)
    assert np.array_equal(build_window_mask([4], 0, "strict")[0],
                          np.eye(4, dtype=bool))


def test_window_mask_relaxed_keeps_boundary_rows():
    m = build_window_mask([7], 1, "relaxed")[0]
    # positions 0, 1, 5, 6 see and are seen by everyone
    for k in (0, 1, 5, 6):
        assert m[k].all() and m[:, k].all()
    # interior pairs outside the band stay blocked
    assert not m[2, 4] and not m[4, 2]
    assert m[2, 3] and m[3, 4]


def test_window_mask_unlimited_and_tiny_lengths():
    assert build_window_mask([3], math.inf).all()
    assert build_window_mask([1], 2, "relaxed").shape == (1, 1, 1)
    assert build_window_mask([2], 0, "relaxed").all()
    with pytest.raises(ValueError):
        build_window_mask([3], -2)
    with pytest.raises(ValueError):
        build_window_mask([3], 1, "loose")


def test_pack_window_mask_is_each_sentences_own_in_its_slot():
    def own(T, distance, mode):
        # one sentence's [T, T] window, pair by pair
        edge = [k < 2 or k >= T - 2 for k in range(T)]
        return np.array([[abs(i - j) <= distance
                          or (mode == "relaxed" and (edge[i] or edge[j]))
                          for j in range(T)] for i in range(T)], dtype=bool)

    lengths = [5, 1, 9, 2, 4]
    for distance in (0, 1, math.inf):
        for mode in ("strict", "relaxed"):
            mask = build_window_mask(lengths, distance, mode)
            assert mask.shape == (5, 9, 9) and mask.dtype == bool
            for b, T in enumerate(lengths):
                expect = np.zeros((9, 9), dtype=bool)
                expect[:T, :T] = own(T, distance, mode)
                assert np.array_equal(mask[b], expect), (b, distance, mode)


def test_compose_input_modes():
    c = tensor(np.ones((2, 4)))
    p = tensor(2 * np.ones((2, 4)))
    added = compose_input(c, p, "additive-unfactored")
    assert np.allclose(added.data, 3.0)
    cat = compose_input(c, p, "factored")
    assert cat.shape == (2, 8)
    assert np.allclose(cat.data[:, :4], 1.0) and np.allclose(cat.data[:, 4:], 2.0)


def test_encode_shapes_and_attention_rows():
    enc, store, cfg = tiny_encoder("factored")
    rng = np.random.default_rng(0)
    record = {}
    out = enc.encode(rand_content(rng, 6, cfg), record=record)
    assert out.shape == (6, cfg.d_model)
    assert set(record) == {(l, h) for l in range(2) for h in range(2)}
    for probs in record.values():
        assert probs.shape == (6, 6)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert (probs >= 0).all()


def test_single_token_attends_to_itself():
    enc, _, cfg = tiny_encoder("additive-unfactored")
    record = {}
    enc.encode(tensor(np.random.default_rng(1).standard_normal((1, cfg.d_model))),
               record=record)
    for probs in record.values():
        assert np.array_equal(probs, [[1.0]])


def test_window_forces_exact_zeros_outside_band():
    enc, _, cfg = tiny_encoder("factored")
    rng = np.random.default_rng(2)
    record = {}
    control = AttentionControl(window=(1, "strict"))
    enc.encode(rand_content(rng, 7, cfg), control=control, record=record)
    allow = build_window_mask([7], 1, "strict")[0]
    for probs in record.values():
        assert (probs[~allow] == 0.0).all()
        assert (probs[allow] > 0.0).all()


def test_relaxed_window_keeps_long_range_boundary_links():
    enc, _, cfg = tiny_encoder("factored")
    rng = np.random.default_rng(3)
    record = {}
    control = AttentionControl(window=(1, "relaxed"))
    enc.encode(rand_content(rng, 9, cfg), control=control, record=record)
    probs = record[(0, 0)]
    assert probs[0, 4] > 0.0 and probs[4, 8] > 0.0
    assert probs[3, 6] == 0.0


def test_control_validation():
    enc, _, cfg = tiny_encoder("additive-unfactored")
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError):
        enc.encode(rand_content(rng, 3, cfg),
                   control=AttentionControl(disable_content=(False, False)))
    enc2, _, cfg2 = tiny_encoder("factored")
    with pytest.raises(ValueError):
        enc2.encode(rand_content(rng, 3, cfg2),
                    control=AttentionControl(disable_content=(True,)))
    with pytest.raises(ValueError):
        AttentionControl(window=(-1, "strict")).validate(cfg2)
    with pytest.raises(ValueError):
        AttentionControl(window=(1, "loose")).validate(cfg2)
    AttentionControl(window=(math.inf, "strict")).validate(cfg2)


def test_disabling_both_terms_gives_uniform_attention():
    enc, _, cfg = tiny_encoder("factored")
    rng = np.random.default_rng(7)
    record = {}
    control = AttentionControl(disable_content=(True, True),
                               disable_position=(True, True))
    enc.encode(rand_content(rng, 5, cfg), control=control, record=record)
    for probs in record.values():
        assert np.allclose(probs, 0.2, atol=1e-15)


def test_disabling_one_term_changes_probs():
    enc, _, cfg = tiny_encoder("factored")
    rng = np.random.default_rng(8)
    content = rand_content(rng, 5, cfg)
    plain, no_content = {}, {}
    enc.encode(content, record=plain)
    enc.encode(content, record=no_content,
               control=AttentionControl(disable_content=(True, True)))
    assert not np.allclose(plain[(0, 0)], no_content[(0, 0)])


def test_position_only_attention_ignores_content():
    enc, _, cfg = tiny_encoder("position-only")
    rng = np.random.default_rng(9)
    a, b = {}, {}
    enc.encode(rand_content(rng, 6, cfg), record=a)
    enc.encode(rand_content(rng, 6, cfg), record=b)
    for key in a:
        assert np.array_equal(a[key], b[key])


def test_factored_head_equals_assembled_dense_head():
    enc, _, cfg = tiny_encoder("factored", seed=3)
    rng = np.random.default_rng(10)
    content = rand_content(rng, 5, cfg)
    positions = ad.take_rows(enc.position_table, np.arange(5))
    x = compose_input(content, positions, cfg.variant)
    layer = enc.layers[0]
    out = layer.attn.head_outputs(x, positions, None, False, False)

    dense = assemble_block_sparse(layer, 0)
    xd = x.data
    q = xd @ dense["w_q"]
    k = xd @ dense["w_k"]
    logits = q @ k.T / math.sqrt(cfg.d_k)
    logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    ref = probs @ (xd @ dense["w_v"]) @ dense["w_o"]
    assert np.abs(out.data[0] - ref).max() < 1e-10


def test_assemble_rejects_unfactored_heads():
    enc, _, _ = tiny_encoder("additive-unfactored")
    with pytest.raises(ValueError):
        assemble_block_sparse(enc.layers[0], 0)


def test_factored_has_fewer_parameters_than_unfactored():
    _, fact_store, _ = tiny_encoder("factored")
    _, dense_store, _ = tiny_encoder("concatenative-unfactored")
    assert fact_store.size < dense_store.size


def test_length_and_width_validation():
    enc, _, cfg = tiny_encoder("factored", max_len=5)
    rng = np.random.default_rng(11)
    with pytest.raises(ValueError):
        enc.encode(rand_content(rng, 6, cfg))
    with pytest.raises(ValueError):
        enc.encode(tensor(np.zeros((3, cfg.content_dim + 1))))
    # a pack's lengths must split its rows
    with pytest.raises(ValueError, match="do not split"):
        enc.encode(rand_content(rng, 4, cfg), [2, 1])


def test_eval_is_deterministic_and_train_applies_dropout():
    enc, _, cfg = tiny_encoder("factored")
    rng = np.random.default_rng(12)
    content = rand_content(rng, 4, cfg)
    a = enc.encode(content).data
    b = enc.encode(content).data
    assert np.array_equal(a, b)
    c = enc.encode(content, rng=np.random.default_rng(0)).data
    assert not np.array_equal(a, c)


def test_block_sparse_additive_keeps_full_content_width():
    enc, _, cfg = tiny_encoder("block-sparse-additive")
    assert cfg.content_dim == cfg.d_model
    rng = np.random.default_rng(13)
    out = enc.encode(rand_content(rng, 4, cfg))
    assert out.shape == (4, cfg.d_model)


def test_encoder_gradcheck_small():
    enc, store, cfg = tiny_encoder("factored", num_layers=1, d_model=8,
                                   num_heads=1, d_k=4, d_v=4, d_ff=8)
    rng = np.random.default_rng(14)
    content = tensor(rng.standard_normal((3, cfg.content_dim)))
    w = rng.standard_normal((3, cfg.d_model))

    def loss():
        return ad.sum_all(ad.mul(enc.encode(content), tensor(w)))

    names = ["encoder.positions", "encoder.layer0.attn.w_qc",
             "encoder.layer0.attn.w_op", "encoder.layer0.ffn.w1c",
             "encoder.layer0.ln1.gain", "encoder.layer0.ln2.bias"]
    err = gradcheck(loss, [store[n] for n in names],
                    np.random.default_rng(0), coords=5)
    assert err < 1e-5


@pytest.mark.parametrize("variant", [
    "additive-unfactored", "concatenative-unfactored", "factored",
    "position-only", "block-sparse-additive"])
def test_stacked_attention_gradcheck_every_variant(variant):
    enc, store, cfg = tiny_encoder(variant, num_layers=1, d_model=8,
                                   num_heads=2, d_k=4, d_v=4, d_ff=8)
    rng = np.random.default_rng(15)
    content = tensor(rng.standard_normal((3, cfg.content_dim)))
    w = rng.standard_normal((3, cfg.d_model))

    def loss():
        return ad.sum_all(ad.mul(enc.encode(content), tensor(w)))

    attn = [p for name, p in store.items() if ".attn." in name]
    assert len(attn) == (8 if variant in ("factored",
                                          "block-sparse-additive") else 4)
    err = gradcheck(loss, attn, np.random.default_rng(0), coords=5)
    assert err < 1e-5


@pytest.mark.parametrize("variant", ["factored", "additive-unfactored"])
def test_record_holds_one_distribution_per_layer_and_head(variant):
    enc, _, cfg = tiny_encoder(variant, num_heads=3)
    rng = np.random.default_rng(16)
    T = 6
    record = {}
    enc.encode(rand_content(rng, T, cfg), record=record,
               control=AttentionControl(window=(2, "strict")))
    assert sorted(record) == [(i, h) for i in range(cfg.num_layers)
                              for h in range(cfg.num_heads)]
    for probs in record.values():
        assert probs.shape == (T, T)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert probs[0, T - 1] == 0.0
    assert not np.array_equal(record[(0, 0)], record[(0, 1)])


_NORMS = [("ln1.gain", (16,)), ("ln1.bias", (16,)),
          ("ln2.gain", (16,)), ("ln2.bias", (16,))]
# tiny_encoder: d_model 16, 2 heads of d_k = d_v = 8, d_ff 24
_ONE_STREAM = [
    ("attn.w_q", (16, 16)), ("attn.w_k", (16, 16)), ("attn.w_v", (16, 16)),
    ("attn.w_o", (16, 16)),
    ("ffn.w1", (16, 24)), ("ffn.b1", (24,)), ("ffn.w2", (24, 16)),
    ("ffn.b2", (16,)),
] + _NORMS
_TWO_STREAMS = [
    ("attn.w_qc", (8, 8)), ("attn.w_kc", (8, 8)), ("attn.w_vc", (8, 8)),
    ("attn.w_oc", (8, 8)),
    ("attn.w_qp", (8, 8)), ("attn.w_kp", (8, 8)), ("attn.w_vp", (8, 8)),
    ("attn.w_op", (8, 8)),
    ("ffn.w1c", (8, 12)), ("ffn.b1c", (12,)), ("ffn.w2c", (12, 8)),
    ("ffn.b2c", (8,)),
    ("ffn.w1p", (8, 12)), ("ffn.b1p", (12,)), ("ffn.w2p", (12, 8)),
    ("ffn.b2p", (8,)),
] + _NORMS


@pytest.mark.parametrize("variant, layout", [
    ("additive-unfactored", _ONE_STREAM),
    ("concatenative-unfactored", _ONE_STREAM),
    ("position-only", _ONE_STREAM),
    ("factored", _TWO_STREAMS),
    ("block-sparse-additive", _TWO_STREAMS)])
def test_layer_parameter_layout_is_checkpoint_format_2(variant, layout):
    # names, shapes and order are the checkpoint payload layout
    _, store, _ = tiny_encoder(variant)
    prefix = "encoder.layer0."
    got = [(name[len(prefix):], p.data.shape) for name, p in store.items()
           if name.startswith(prefix)]
    assert got == layout
