import glob
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import spanparser
import spanparser.autodiff as ad
from spanparser.autodiff import DimensionError, Tensor, backward, tensor

from support import leaf_gradcheck as check
from support import (blas_counts, plain_leaf, reference_backward,
                     reference_dropout, reference_layer_norm, reference_merge,
                     reference_softmax, reference_split, sub)


def leaf(rng, *shape):
    return tensor(rng.standard_normal(shape), requires_grad=True)


def test_add_sub_mul_scale():
    rng = np.random.default_rng(1)
    a, b = leaf(rng, 3, 4), leaf(rng, 3, 4)
    check(lambda: ad.sum_all(ad.mul(ad.add(a, b), sub(a, b))), [a, b])
    check(lambda: ad.sum_all(ad.mul_const(a, -2.5)), [a])


def test_add_broadcasts_bias_rows():
    rng = np.random.default_rng(2)
    x, bias = leaf(rng, 4, 3), leaf(rng, 3)
    out = ad.add(x, bias)
    assert out.shape == (4, 3)
    backward(ad.sum_all(out))
    # each bias entry feeds every row
    assert np.allclose(bias.grad, 4.0)
    check(lambda: ad.sum_all(ad.mul(ad.add(x, bias), ad.add(x, bias))),
          [x, bias])
    # the bias goes second
    with pytest.raises(DimensionError):
        ad.add(bias, x)


def test_shape_mismatch_names_the_op():
    a = tensor(np.zeros((2, 3)))
    b = tensor(np.zeros((3, 3)))
    with pytest.raises(DimensionError) as e:
        ad.add(a, b)
    assert "add" in str(e.value)
    with pytest.raises(DimensionError) as e:
        ad.matmul(a, tensor(np.zeros((2, 2))))
    assert "matmul" in str(e.value)


def test_matmul_transpose_reshape():
    rng = np.random.default_rng(3)
    a, b = leaf(rng, 3, 5), leaf(rng, 5, 2)
    check(lambda: ad.sum_all(ad.matmul(a, b)), [a, b])
    check(lambda: ad.sum_all(ad.mul(ad.transpose(a), ad.transpose(a))), [a])
    check(lambda: ad.sum_all(ad.mul(ad.reshape(a, (5, 3)),
                                    ad.reshape(a, (5, 3)))), [a])


def test_concat_and_column_slicing():
    rng = np.random.default_rng(4)
    a, b = leaf(rng, 2, 3), leaf(rng, 2, 3)
    rows = ad.concat([a, b], axis=0)
    assert rows.shape == (4, 3)
    assert ad.concat([a, b], axis=1).shape == (2, 6)
    check(lambda: ad.sum_all(ad.mul(ad.concat([a, b], axis=1),
                                    ad.concat([b, a], axis=1))), [a, b])

    def sliced():
        c = ad.concat([a, b], axis=1)
        return ad.sum_all(ad.mul(ad.slice_cols(c, 1, 4),
                                 ad.slice_cols(c, 2, 5)))

    check(sliced, [a, b])

    x = leaf(rng, 3, 6)
    parts = ad.split_cols(x, 3)
    assert [p.shape for p in parts] == [(3, 2)] * 3
    check(lambda: ad.sum_all(ad.mul(ad.split_cols(x, 3)[0],
                                    ad.split_cols(x, 3)[2])), [x])


@pytest.mark.parametrize("order", [[0, 1, 2], [2, 1, 0]])
def test_column_slice_gradients_are_bitwise_the_zero_padded_ones(order):
    # backward adds a slice's block without building the zero-padded
    # array; the bits, signs of zeros included, must be those of adding it.
    # x's gradient from its full-width term is -0.0 in column 0, which no
    # slice covers: adding a padded array's +0.0 turns it into +0.0
    def graph(make_leaf):
        rng = np.random.default_rng(8)
        a = make_leaf(rng.standard_normal((3, 6)))
        signs = np.ones((3, 6))
        signs[:, 0] = -0.0
        x = ad.add_const(a, 0.0)
        _, right = ad.split_cols(x, 2)
        terms = [ad.mul_const(x, signs), ad.mul(right, right),
                 ad.slice_cols(x, 4, 6)]
        loss = ad.sum_all(terms[order[0]])
        for k in order[1:]:
            loss = ad.add(loss, ad.sum_all(terms[k]))
        return a, loss

    a, loss = graph(lambda v: ad.GradLeaf(v, np.full(v.shape, np.nan)))
    backward(loss)
    ref_a, ref_loss = graph(plain_leaf)
    reference_backward(ref_loss)
    assert a.grad.tobytes() == ref_a.grad.tobytes()
    assert not a.grad[:, 0].any() and not np.signbit(a.grad[:, 0]).any()


def test_take_rows_accumulates_repeats():
    rng = np.random.default_rng(5)
    table = leaf(rng, 4, 3)
    idx = np.array([2, 0, 2, 2])
    out = ad.take_rows(table, idx)
    assert np.array_equal(out.data, table.data[idx])
    backward(ad.sum_all(out))
    assert np.allclose(table.grad[2], 3.0)
    assert np.allclose(table.grad[0], 1.0)
    assert np.allclose(table.grad[1], 0.0)
    check(lambda: ad.sum_all(ad.mul(ad.take_rows(table, idx),
                                    ad.take_rows(table, idx))), [table])


def test_take_cols_and_gather_pairs():
    rng = np.random.default_rng(6)
    x = leaf(rng, 3, 6)
    check(lambda: ad.sum_all(ad.mul(ad.take_cols(x, np.array([0, 2, 4])),
                                    ad.take_cols(x, np.array([1, 3, 5])))),
          [x])
    rows = np.array([0, 2, 2])
    cols = np.array([5, 1, 3])
    g = ad.gather_pairs(x, rows, cols)
    assert np.array_equal(g.data, x.data[rows, cols])
    check(lambda: ad.sum_all(ad.mul(ad.gather_pairs(x, rows, cols),
                                    ad.gather_pairs(x, rows, cols))), [x])


def test_nonlinearities():
    rng = np.random.default_rng(7)
    x = leaf(rng, 4, 5)
    check(lambda: ad.sum_all(ad.mul(ad.relu(x), ad.sigmoid(x))), [x])
    check(lambda: ad.sum_all(ad.mul(ad.tanh(x), ad.tanh(x))), [x])
    y = ad.relu(tensor(np.array([[-1.0, 0.0, 2.0]])))
    assert np.array_equal(y.data, [[0.0, 0.0, 2.0]])


def test_softmax_rows_and_gradient():
    rng = np.random.default_rng(8)
    x = leaf(rng, 3, 4)
    p = ad.softmax(x)
    assert np.allclose(p.data.sum(axis=-1), 1.0)
    w = tensor(rng.standard_normal((3, 4)))
    check(lambda: ad.sum_all(ad.mul(ad.softmax(x), w)), [x])
    # shift invariance
    q = ad.softmax(ad.add_const(x, 1000.0))
    assert np.allclose(p.data, q.data)


def test_layer_norm_statistics_and_gradient():
    rng = np.random.default_rng(9)
    x = leaf(rng, 4, 6)
    gain = tensor(rng.standard_normal(6), requires_grad=True)
    bias = tensor(rng.standard_normal(6), requires_grad=True)
    out = ad.layer_norm(x, gain, bias)
    centered = (out.data - bias.data) / gain.data
    assert np.allclose(centered.mean(axis=-1), 0.0, atol=1e-12)
    assert np.allclose(centered.var(axis=-1), 1.0, atol=1e-4)
    w = tensor(rng.standard_normal((4, 6)))
    check(lambda: ad.sum_all(ad.mul(ad.layer_norm(x, gain, bias), w)),
          [x, gain, bias], tol=1e-5)


# what layer_norm adds to x before normalizing, for an x of [rows, cols]
SUMMANDS = {
    "none": lambda rng, rows, cols: None,
    "full": lambda rng, rows, cols: leaf(rng, rows, cols),
    "bias": lambda rng, rows, cols: leaf(rng, cols),
    "blocks": lambda rng, rows, cols: [leaf(rng, rows, cols // 3),
                                       leaf(rng, rows, cols - cols // 3)],
}


def summand_leaves(summand):
    if summand is None:
        return []
    return list(summand) if isinstance(summand, list) else [summand]


@pytest.mark.parametrize("kind", sorted(SUMMANDS))
def test_layer_norm_of_a_sum_matches_finite_differences(kind):
    rng = np.random.default_rng(16)
    x = leaf(rng, 4, 6)
    summand = SUMMANDS[kind](rng, 4, 6)
    gain, bias = leaf(rng, 6), leaf(rng, 6)
    w = tensor(rng.standard_normal((4, 6)))
    out = ad.layer_norm(x, gain, bias, summand)
    assert out.shape == (4, 6)
    check(lambda: ad.sum_all(ad.mul(ad.layer_norm(x, gain, bias, summand),
                                    w)),
          [x, gain, bias, *summand_leaves(summand)], tol=1e-5)


@pytest.mark.parametrize("dropout", [0.0, 0.3])
@pytest.mark.parametrize("kind", sorted(SUMMANDS))
def test_layer_norm_of_a_sum_is_bitwise_the_reference_composition(kind,
                                                                  dropout):
    # the reference adds (and concatenates) first, one array per step; a
    # wide last axis makes numpy sum it pairwise
    def graph(layer_norm, drop):
        rng = np.random.default_rng(17)
        x = leaf(rng, 7, 300)
        summand = SUMMANDS[kind](rng, 7, 300)
        gain, bias = leaf(rng, 300), leaf(rng, 300)
        leaves = [x, gain, bias, *summand_leaves(summand)]
        for t in leaves:
            t.data *= 1.0 + 1e3 * rng.random(t.shape)
        if summand is not None:
            summand = drop(summand, dropout, np.random.default_rng(3))
        w = tensor(rng.standard_normal((7, 300)))
        out = layer_norm(x, gain, bias, summand)
        backward(ad.sum_all(ad.mul(out, w)))
        return out, leaves

    out, leaves = graph(ad.layer_norm, ad.dropout)
    ref_out, ref_leaves = graph(reference_layer_norm, reference_dropout)
    assert out.data.tobytes() == ref_out.data.tobytes()
    for got, want in zip(leaves, ref_leaves):
        assert got.grad.tobytes() == want.grad.tobytes()


def test_layer_norm_rejects_a_summand_of_another_shape():
    rng = np.random.default_rng(18)
    x, gain, bias = leaf(rng, 3, 4), leaf(rng, 4), leaf(rng, 4)
    for summand in (leaf(rng, 3, 5), leaf(rng, 3),
                    [leaf(rng, 3, 1), leaf(rng, 3, 2)],
                    [leaf(rng, 3, 2), leaf(rng, 2, 2)], []):
        with pytest.raises(DimensionError):
            ad.layer_norm(x, gain, bias, summand)


def test_dropout_of_column_blocks_uses_one_mask_for_the_whole():
    rng = np.random.default_rng(19)
    blocks = [leaf(rng, 50, 3), leaf(rng, 50, 5)]
    out = ad.dropout(blocks, 0.4, np.random.default_rng(2))
    whole = ad.dropout(ad.concat(blocks, axis=1), 0.4,
                       np.random.default_rng(2))
    assert np.array_equal(np.concatenate([o.data for o in out], axis=1),
                          whole.data)
    assert ad.dropout(blocks, 0.4, None) is blocks
    check(lambda: ad.sum_all(ad.mul(*ad.dropout(
        [blocks[0], blocks[0]], 0.4, np.random.default_rng(2)))),
          [blocks[0]])


def test_affine_adds_the_bias_into_the_product():
    rng = np.random.default_rng(20)
    x, w, b = leaf(rng, 5, 3), leaf(rng, 3, 4), leaf(rng, 4)
    out = ad.affine(x, w, b)
    assert out.data.tobytes() == (x.data @ w.data + b.data).tobytes()
    check(lambda: ad.sum_all(ad.mul(ad.affine(x, w, b),
                                    ad.affine(x, w, b))), [x, w, b])
    with pytest.raises(DimensionError):
        ad.affine(x, w, leaf(rng, 3))


def test_row_differences_accumulate_repeats_as_sub_of_take_rows():
    rng = np.random.default_rng(21)
    ends, starts = [3, 1, 3, 2, 0], [0, 0, 2, 1, 3]
    x = leaf(rng, 4, 3)
    g = rng.standard_normal((5, 3)) * 1e3

    def grads(build):
        rows = plain_leaf(x.data)
        out = build(rows)
        reference_backward(ad.sum_all(ad.mul_const(out, g)))
        return out.data.tobytes(), rows.grad.tobytes()

    assert grads(lambda r: ad.row_differences(r, ends, starts)) == grads(
        lambda r: sub(ad.take_rows(r, ends), ad.take_rows(r, starts)))
    check(lambda: ad.sum_all(ad.mul(ad.row_differences(x, ends, starts),
                                    ad.row_differences(x, ends, starts))),
          [x])
    with pytest.raises(DimensionError):
        ad.row_differences(x, ends, starts[:2])


def test_softmax_and_head_moves_are_bitwise_the_reference():
    rng = np.random.default_rng(22)
    logits = rng.standard_normal((6, 5, 5)) * 30.0
    g = rng.standard_normal((6, 5, 5))

    def softmax_bits(softmax):
        x = plain_leaf(logits)
        out = softmax(x)
        reference_backward(ad.sum_all(ad.mul_const(out, g)))
        return out.data.tobytes(), x.grad.tobytes()

    assert softmax_bits(ad.softmax) == softmax_bits(reference_softmax)
    rows = rng.standard_normal((12, 6))
    for mask in (np.ones((2, 6), dtype=bool), np.ones((1, 12), dtype=bool),
                 np.arange(6) < np.array([[6], [4], [2]])):
        r = rows[:mask.sum()]
        for heads in (1, 3):
            stack = ad._split(r, heads, mask)
            assert stack.tobytes() == reference_split(r, heads, mask).tobytes()
            assert (ad._merge(stack, mask).tobytes()
                    == reference_merge(stack, mask).tobytes())


def test_dropout_train_and_eval():
    rng = np.random.default_rng(10)
    x = tensor(rng.standard_normal((200, 8)), requires_grad=True)
    out = ad.dropout(x, 0.25, None)
    assert out is x or np.array_equal(out.data, x.data)
    out = ad.dropout(x, 0.25, np.random.default_rng(0))
    kept = out.data != 0.0
    assert abs(kept.mean() - 0.75) < 0.05
    # survivors are scaled up so the expectation is preserved
    assert np.allclose(out.data[kept], x.data[kept] / 0.75)
    backward(ad.sum_all(out))
    assert np.allclose(x.grad[~kept], 0.0)
    assert np.allclose(x.grad[kept], 1.0 / 0.75)


def test_row_dropout_zeroes_whole_rows():
    x = tensor(np.ones((300, 5)), requires_grad=True)
    out = ad.row_dropout(x, 0.4, np.random.default_rng(1))
    rowsums = out.data.sum(axis=1)
    dropped = rowsums == 0.0
    assert 0.25 < dropped.mean() < 0.55
    assert np.allclose(out.data[~dropped], 1.0 / 0.6)
    # a row is either fully dropped or fully kept
    assert np.all((out.data == 0.0).all(axis=1) | (out.data != 0.0).all(axis=1))


def test_backward_requires_scalar_and_accumulates():
    x = tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        backward(ad.relu(x))
    loss = ad.sum_all(ad.mul(x, x))
    backward(loss)
    first = x.grad.copy()
    backward(loss)
    assert np.allclose(x.grad, 2 * first)


def test_diamond_graph_gradient():
    # d(x*x + x*x)/dx hits the same leaf via two paths
    x = tensor(np.array([[3.0]]), requires_grad=True)
    y = ad.add(ad.mul(x, x), ad.mul(x, x))
    backward(ad.sum_all(y))
    assert np.allclose(x.grad, 12.0)


def test_no_grad_leaves_are_skipped():
    x = tensor(np.ones((2, 2)), requires_grad=False)
    y = ad.relu(x)
    assert not y.requires_grad
    loss = ad.sum_all(y)
    backward(loss)
    assert x.grad is None


def test_deep_chain_does_not_overflow_stack():
    x = tensor(np.ones((1, 1)), requires_grad=True)
    y = x
    for _ in range(5000):
        y = ad.add_const(y, 0.0)
    backward(ad.sum_all(y))
    assert np.allclose(x.grad, 1.0)


def test_mul_const_and_add_const_shapes():
    rng = np.random.default_rng(11)
    x = leaf(rng, 3, 4)
    mask = (rng.random((3, 4)) > 0.5).astype(float)
    check(lambda: ad.sum_all(ad.mul_const(x, mask)), [x])
    check(lambda: ad.sum_all(ad.add_const(x, mask)), [x])
    out = ad.add_const(x, 2.0)
    assert np.allclose(out.data, x.data + 2.0)


def test_batched_heads_gradients():
    rng = np.random.default_rng(12)
    a = leaf(rng, 3, 4, 5)
    b = leaf(rng, 3, 5, 2)
    x = leaf(rng, 4, 6)
    out = ad.bmm(a, b)
    assert np.allclose(out.data[1], a.data[1] @ b.data[1])
    check(lambda: ad.sum_all(ad.mul(ad.bmm(a, b), ad.bmm(a, b))), [a, b])
    check(lambda: ad.sum_all(ad.mul(
        ad.bmm(a, ad.transpose(a)), ad.bmm(a, ad.transpose(a)))), [a])
    # a pack of one sentence pads nothing
    one = np.ones((1, 4), dtype=bool)
    heads = ad.split_heads(x, 3, one)
    assert heads.shape == (3, 4, 2)
    assert np.array_equal(heads.data[1], x.data[:, 2:4])
    assert np.array_equal(ad.merge_heads(heads, one).data, x.data)
    w = tensor(rng.standard_normal((4, 12)))
    check(lambda: ad.sum_all(ad.mul(ad.merge_heads(ad.bmm(
        ad.split_heads(x, 3, one),
        ad.transpose(ad.split_heads(x, 3, one))), one), w)), [x])
    with pytest.raises(DimensionError):
        ad.bmm(a, a)
    with pytest.raises(DimensionError):
        ad.split_heads(x, 4, one)
    with pytest.raises(DimensionError):
        ad.matmul(a, b)


def test_no_grad_builds_no_graph_and_restores_on_error():
    rng = np.random.default_rng(13)
    x = leaf(rng, 3, 3)
    with ad.no_grad():
        y = ad.relu(ad.matmul(x, x))
    assert y._grad_fn is None and not y.requires_grad and y._parents == ()
    assert np.array_equal(y.data, ad.relu(ad.matmul(x, x)).data)
    with pytest.raises(DimensionError):
        with ad.no_grad():
            ad.matmul(x, leaf(rng, 2, 2))
    assert ad.matmul(x, x)._grad_fn is not None


def test_packed_heads_pad_each_sentence_and_invert():
    rng = np.random.default_rng(14)
    lengths = [3, 1, 4]
    mask = np.arange(4) < np.array(lengths)[:, None]
    x = leaf(rng, sum(lengths), 6)
    stack = ad.split_heads(x, 3, mask)
    assert stack.shape == (9, 4, 2)
    start = 0
    for b, T in enumerate(lengths):
        own = ad.split_heads(tensor(x.data[start:start + T]), 3,
                             np.ones((1, T), dtype=bool)).data
        assert np.array_equal(stack.data[3 * b:3 * b + 3, :T], own)
        assert not stack.data[3 * b:3 * b + 3, T:].any()
        start += T
    assert np.array_equal(ad.merge_heads(stack, mask).data, x.data)
    # logits of every sentence against itself, padded keys included
    w = tensor(rng.standard_normal((sum(lengths), 12)))
    check(lambda: ad.sum_all(ad.mul(ad.merge_heads(ad.bmm(
        ad.split_heads(x, 3, mask),
        ad.transpose(ad.split_heads(x, 3, mask))), mask), w)), [x])
    with pytest.raises(DimensionError):
        ad.split_heads(leaf(rng, 7, 6), 3, mask)
    with pytest.raises(DimensionError):
        ad.merge_heads(leaf(rng, 9, 3, 2), mask)


def test_backward_stores_grads_on_leaves_only():
    def graph(make_leaf):
        rng = np.random.default_rng(15)
        w = make_leaf(rng.standard_normal((4, 3)))
        b = make_leaf(rng.standard_normal(3))
        x = tensor(rng.standard_normal((5, 4)))
        h = ad.relu(ad.add(ad.matmul(x, w), b))
        # w and b reach the loss along several paths
        gram = ad.matmul(ad.transpose(w), w)
        out = ad.layer_norm(ad.add(h, ad.matmul(h, gram)), b, b)
        return w, b, h, out

    w, b, h, out = graph(ad.GradLeaf)
    loss = ad.sum_all(ad.mul(out, out))
    backward(loss)
    assert h.grad is None and out.grad is None and loss.grad is None
    # the reference takes plain leaves and GradLeaf parameters alike
    for make_leaf in (plain_leaf, ad.GradLeaf):
        ref_w, ref_b, ref_h, ref_out = graph(make_leaf)
        reference_backward(ad.sum_all(ad.mul(ref_out, ref_out)))
        assert ref_h.grad is not None
        assert np.array_equal(w.grad, ref_w.grad)
        assert np.array_equal(b.grad, ref_b.grad)


def test_backward_writes_leaf_grads_into_their_views():
    # as above, but the buffers are given and filled with NaN, so any value
    # not overwritten shows; w reaches the loss along three paths, once as
    # the right operand of a product, which writes its first contribution
    # straight into the buffer
    def graph(make_leaf):
        rng = np.random.default_rng(15)
        w, b = (make_leaf(rng.standard_normal(shape), shape)
                for shape in ((4, 3), (3,)))
        x = tensor(rng.standard_normal((5, 4)))
        h = ad.relu(ad.add(ad.matmul(x, w), b))
        gram = ad.matmul(ad.transpose(w), w)
        out = ad.layer_norm(ad.add(h, ad.matmul(h, gram)), b, b)
        return w, b, ad.sum_all(ad.mul(out, out))

    w, b, loss = graph(lambda x, shape: ad.GradLeaf(x, np.full(shape, np.nan)))
    buffers = w.grad_view, b.grad_view
    backward(loss)
    assert w.grad is buffers[0] and b.grad is buffers[1]
    ref_w, ref_b, ref_loss = graph(lambda x, shape: plain_leaf(x))
    reference_backward(ref_loss)
    assert np.array_equal(w.grad, ref_w.grad)
    assert np.array_equal(b.grad, ref_b.grad)


def test_cleared_view_is_overwritten_and_uncleared_one_adds_in_order(
        monkeypatch):
    # after clearing, a backward overwrites the buffer (5, then 3); without
    # clearing, each contribution is added to it in turn: from 1, adding
    # 1e16 and then -1e16 gives (1 + c1) + c2 = 0, not 1 + (c1 + c2) = 1;
    # the same on this thread and on backward's worker thread
    for size in (ad.WORKER_LEAF_SIZE, 0):
        monkeypatch.setattr(ad, "WORKER_LEAF_SIZE", size)
        x = ad.GradLeaf(np.ones((1, 1)), np.full((1, 1), 5.0))
        backward(ad.sum_all(ad.mul_const(x, 3.0)))
        assert x.grad is x.grad_view and x.grad[0, 0] == 3.0
        x.grad = None
        backward(ad.sum_all(x))
        assert x.grad[0, 0] == 1.0
        backward(ad.add(ad.sum_all(ad.mul_const(x, 1e16)),
                        ad.sum_all(ad.mul_const(x, -1e16))))
        assert x.grad is x.grad_view and x.grad[0, 0] == 0.0
        # the first product overwrites the cleared buffer (7): 2 + 3, not
        # 7 + 2 + 3; later ones are added in turn, in the order backward
        # reaches them: (5 - 1e16) + 1e16 = 4, not 5 + (-1e16 + 1e16) = 5
        x.grad = None
        x.grad_view.fill(7.0)
        backward(ad.add(ad.sum_all(ad.matmul(tensor([[2.0]]), x)),
                        ad.sum_all(ad.matmul(tensor([[3.0]]), x))))
        assert x.grad is x.grad_view and x.grad[0, 0] == 5.0, size
        backward(ad.add(ad.sum_all(ad.matmul(tensor([[1e16]]), x)),
                        ad.sum_all(ad.matmul(tensor([[-1e16]]), x))))
        assert x.grad[0, 0] == 4.0, size


def test_an_exception_on_the_backward_worker_surfaces(monkeypatch):
    # a buffer of the wrong shape fails where the contribution is applied;
    # the graph's other leaf still gets its gradient, and the worker ends
    monkeypatch.setattr(ad, "WORKER_LEAF_SIZE", 0)
    x = ad.GradLeaf(np.ones((2, 2)), np.zeros((3, 3)))
    y = ad.GradLeaf(np.ones((2, 2)))
    threads = threading.active_count()
    with pytest.raises(ValueError):
        backward(ad.sum_all(ad.matmul(y, x)))
    assert threading.active_count() == threads
    assert x.grad is None
    assert y.grad is y.grad_view and np.array_equal(y.grad, np.full((2, 2),
                                                                    2.0))


def test_backward_worker_runs_under_the_callers_errstate(monkeypatch):
    # the weight gradient x.T @ 1 sums 300 values of 1e306 and overflows,
    # whether this thread or backward's worker computes it
    w = ad.GradLeaf(np.full((256, 256), 1e-10))
    x = tensor(np.full((300, 256), 1e306))
    for size in (0, w.data.size + 1):
        monkeypatch.setattr(ad, "WORKER_LEAF_SIZE", size)
        w.grad = None
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                backward(ad.sum_all(ad.matmul(x, w)))


def test_a_large_leafs_weight_product_is_computed_on_the_worker(
        monkeypatch):
    # matmul hands a leaf's weight product a.T @ g over uncomputed, so for
    # a leaf of WORKER_LEAF_SIZE values or more backward's worker computes
    # it, and for a smaller one this thread does
    threads = []
    matmul = np.matmul

    def recording(*args, **kwargs):
        threads.append(threading.current_thread())
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", recording)
    x = tensor(np.ones((3, 4)))
    for size, on_worker in ((0, True), (10 ** 9, False)):
        monkeypatch.setattr(ad, "WORKER_LEAF_SIZE", size)
        w = ad.GradLeaf(np.ones((4, 2)))
        threads.clear()
        backward(ad.sum_all(ad.matmul(x, w)))
        assert len(threads) == 1
        assert (threads[0] is not threading.main_thread()) == on_worker
        assert np.array_equal(w.grad, np.full((4, 2), 3.0))


def test_a_leaf_requiring_grad_owns_a_zeroed_buffer():
    data = np.arange(6.0).reshape(2, 3)
    x = tensor(data, requires_grad=True)
    assert isinstance(x, ad.GradLeaf) and x.requires_grad and x.grad is None
    assert x.grad_view.shape == (2, 3) and not x.grad_view.any()
    assert not np.shares_memory(x.grad_view, data)
    assert type(tensor(data)) is Tensor and not tensor(data).requires_grad
    # a leaf that is itself the loss gets d(loss)/d(loss) = 1
    s = tensor(2.0, requires_grad=True)
    backward(s)
    assert s.grad is s.grad_view and s.grad == 1.0


PIN_SCRIPT = """
import hashlib
import numpy as np
from spanparser.autodiff import one_blas_thread
rng = np.random.default_rng(3)
a, g = rng.standard_normal((40, 1024)), rng.standard_normal((40, 250))
print(hashlib.sha256((a.T @ g).tobytes()).hexdigest())
with one_blas_thread() as pinned:
    print(pinned)
    print(hashlib.sha256((a.T @ g).tobytes()).hexdigest())
"""


def test_pinned_blas_gives_the_bits_of_one_thread():
    # a weight gradient over 40 rows: OpenBLAS on two threads can sum it
    # in another order than on one, until the pin
    lines = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(spanparser.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", PIN_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr[-2000:]
        lines[threads] = done.stdout.split()
    one, two = lines["1"], lines["2"]
    if two[1] != "True":
        pytest.skip("numpy bundles no OpenBLAS with a known thread setter")
    assert one[1] == "True"
    assert two[2] == one[2] == one[0]
    # whether the unpinned bits differ depends on the CPU and the OpenBLAS
    # kernel, so it is reported rather than asserted
    print("unpinned two-thread product %s the one-thread bits"
          % ("equals" if two[0] == one[0] else "differs from"))


# two threads whose pinned blocks overlap without nesting (A enters, B
# enters, A leaves, B leaves), then nested blocks in one thread, then
# eight threads entering and leaving at a short switch interval; the
# OpenBLAS thread count at each point, as a JSON line
OVERLAP_SCRIPT = """
import json
import sys
import threading

from spanparser.autodiff import one_blas_thread
from support import openblas_threads

count = openblas_threads()
if count is None:
    print("{}")
    raise SystemExit
counts = {"import": count()}
a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()


def a():
    with one_blas_thread():
        a_in.set()
        b_in.wait(60)
    a_out.set()


def b():
    a_in.wait(60)
    with one_blas_thread():
        b_in.set()
        a_out.wait(60)
        counts["b after a left"] = count()


threads = [threading.Thread(target=a), threading.Thread(target=b)]
for t in threads:
    t.start()
for t in threads:
    t.join()
counts["both left"] = count()
with one_blas_thread():
    with one_blas_thread():
        pass
    counts["inner left"] = count()
counts["outer left"] = count()
inside = set()


def churn():
    for _ in range(300):
        with one_blas_thread():
            inside.add(count())


sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=churn) for _ in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
counts["churned"] = not any(t.is_alive() for t in threads)
counts["inside churn"] = sorted(inside)
counts["churn left"] = count()
print(json.dumps(counts))
"""


def test_the_pin_is_held_until_the_last_overlapping_block_leaves():
    assert blas_counts(OVERLAP_SCRIPT) == {
        "import": 2, "b after a left": 1, "both left": 2, "inner left": 1,
        "outer left": 2, "churned": True, "inside churn": [1],
        "churn left": 2}


def test_the_pin_warns_once_where_it_cannot_pin(monkeypatch):
    # a numpy without its bundled OpenBLAS: the lookup finds no library
    monkeypatch.setattr(glob, "glob", lambda pattern: [])
    ad._openblas.cache_clear()
    try:
        with pytest.warns(UserWarning) as caught:
            for _ in range(2):
                with ad.one_blas_thread() as pinned:
                    assert pinned is False
        assert len(caught) == 1
        assert "cannot hold numpy's OpenBLAS" in str(caught[0].message)
    finally:
        ad._openblas.cache_clear()
    # a pin that takes warns of nothing
    monkeypatch.undo()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with ad.one_blas_thread() as pinned:
            pass
    assert not pinned or not caught
