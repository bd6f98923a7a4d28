import threading

import numpy as np
import pytest

import spanparser.autodiff as ad
from spanparser.autodiff import DimensionError, Tensor, backward, tensor

from support import leaf_gradcheck as check
from support import plain_leaf, reference_backward


def leaf(rng, *shape):
    return tensor(rng.standard_normal(shape), requires_grad=True)


def test_add_sub_mul_scale():
    rng = np.random.default_rng(1)
    a, b = leaf(rng, 3, 4), leaf(rng, 3, 4)
    check(lambda: ad.sum_all(ad.mul(ad.add(a, b), ad.sub(a, b))), [a, b])
    check(lambda: ad.sum_all(ad.scale(a, -2.5)), [a])


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
    # and the symmetric order
    check(lambda: ad.sum_all(ad.mul(ad.add(bias, x), ad.add(bias, x))),
          [x, bias])


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


def test_dropout_train_and_eval():
    rng = np.random.default_rng(10)
    x = tensor(rng.standard_normal((200, 8)), requires_grad=True)
    out = ad.dropout(x, 0.25, np.random.default_rng(0), train=False)
    assert out is x or np.array_equal(out.data, x.data)
    out = ad.dropout(x, 0.25, np.random.default_rng(0), train=True)
    kept = out.data != 0.0
    assert abs(kept.mean() - 0.75) < 0.05
    # survivors are scaled up so the expectation is preserved
    assert np.allclose(out.data[kept], x.data[kept] / 0.75)
    backward(ad.sum_all(out))
    assert np.allclose(x.grad[~kept], 0.0)
    assert np.allclose(x.grad[kept], 1.0 / 0.75)


def test_row_dropout_zeroes_whole_rows():
    x = tensor(np.ones((300, 5)), requires_grad=True)
    out = ad.row_dropout(x, 0.4, np.random.default_rng(1), train=True)
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
    heads = ad.split_heads(x, 3)
    assert heads.shape == (3, 4, 2)
    assert np.array_equal(heads.data[1], x.data[:, 2:4])
    assert np.array_equal(ad.merge_heads(heads).data, x.data)
    w = tensor(rng.standard_normal((4, 12)))
    check(lambda: ad.sum_all(ad.mul(ad.merge_heads(ad.bmm(
        ad.split_heads(x, 3), ad.transpose(ad.split_heads(x, 3)))), w)), [x])
    with pytest.raises(DimensionError):
        ad.bmm(a, a)
    with pytest.raises(DimensionError):
        ad.split_heads(x, 4)
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
        own = ad.split_heads(tensor(x.data[start:start + T]), 3).data
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
