import sys

import numpy as np
import pytest

import spanparser.autodiff as ad
from spanparser.autodiff import Tensor, backward, tensor
from spanparser.chart import (
    SpanScorer, all_spans, build_chart, cky_decode, fenceposts,
    hamming_delta, hinge_loss, loss_augmented_decode, margin_loss,
    span_index, span_row, span_vectors, tree_score,
)
from spanparser.optim import ParameterStore
from spanparser.trees import binarize, collapse_unary, gold_spans, parse_bracketed
from spanparser.vocab import LabelInventory

from support import (
    brute_augmented, brute_best, directional_split, leaf_gradcheck,
    random_chart, random_ntree, reference_cky, span_vector, tree_triples,
)


def gold_of(text):
    raw = parse_bracketed(text)[0]
    inv = LabelInventory.from_trees([raw])
    return binarize(collapse_unary(raw), inv), inv


def test_all_spans_order():
    assert all_spans(3) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert all_spans(1) == [(0, 1)]


def test_directional_split_even_odd_columns():
    y = tensor(np.array([[0.0, 1.0, 2.0, 3.0],
                         [4.0, 5.0, 6.0, 7.0]]))
    fwd, bwd = directional_split(y)
    assert np.array_equal(fwd.data, [[0.0, 2.0], [4.0, 6.0]])
    assert np.array_equal(bwd.data, [[1.0, 3.0], [5.0, 7.0]])
    with pytest.raises(ValueError):
        directional_split(tensor(np.zeros((2, 3))))


def test_span_vector_fencepost_arithmetic():
    # rows: start, w1, w2, stop; evens are fwd, odds are bwd
    rng = np.random.default_rng(0)
    y = tensor(rng.standard_normal((4, 6)))
    fwd, bwd = directional_split(y)
    v = span_vector(0, 2, fwd, bwd)
    f = fwd.data[2] - fwd.data[0]
    b = bwd.data[3] - bwd.data[1]
    assert np.allclose(v.data[0], np.concatenate([f, b]))
    v01 = span_vector(0, 1, fwd, bwd)
    assert np.allclose(v01.data[0],
                       np.concatenate([fwd.data[1] - fwd.data[0],
                                       bwd.data[2] - bwd.data[1]]))
    with pytest.raises(ValueError):
        span_vector(1, 1, fwd, bwd)
    with pytest.raises(ValueError):
        span_vector(0, 3, fwd, bwd)


def test_span_vectors_batch_matches_singles():
    rng = np.random.default_rng(1)
    n = 4
    y = tensor(rng.standard_normal((n + 2, 8)))
    batch = span_vectors(fenceposts(y, [n + 2]), [n])
    fwd, bwd = directional_split(y)
    for row, (i, j) in enumerate(all_spans(n)):
        assert np.allclose(batch.data[row], span_vector(i, j, fwd, bwd).data[0])
    with pytest.raises(ValueError):
        span_vectors(fenceposts(y, [n + 2]), [n + 1])


def test_span_vectors_are_additive_along_splits():
    rng = np.random.default_rng(2)
    n = 5
    y = tensor(rng.standard_normal((n + 2, 10)))
    batch = span_vectors(fenceposts(y, [n + 2]), [n]).data
    row = {span: r for r, span in enumerate(all_spans(n))}
    for i in range(n):
        for k in range(i + 1, n):
            for j in range(k + 1, n + 1):
                assert np.allclose(batch[row[(i, j)]],
                                   batch[row[(i, k)]] + batch[row[(k, j)]],
                                   atol=1e-12)


def test_span_scorer_matches_numpy_reimplementation():
    store = ParameterStore()
    rng = np.random.default_rng(3)
    scorer = SpanScorer(store, d_model=10, hidden=7, num_labels=4)
    store.allocate(seed=3)
    v = rng.standard_normal((6, 10))
    out = scorer.forward(scorer.project(tensor(v))).data
    h = v @ store["scorer.m1"].data + store["scorer.c1"].data
    mu = h.mean(axis=1, keepdims=True)
    var = h.var(axis=1, keepdims=True)
    h = (h - mu) / np.sqrt(var + 1e-5)
    h = h * store["scorer.ln.gain"].data + store["scorer.ln.bias"].data
    h = np.maximum(h, 0.0)
    ref = h @ store["scorer.m2"].data + store["scorer.c2"].data
    assert np.allclose(out, ref, atol=1e-12)
    assert out.shape == (6, 3)  # dummy label has no column
    with pytest.raises(ValueError):
        SpanScorer(ParameterStore(), 10, 7, 1)


def test_span_index_and_rows_follow_all_spans():
    for n in (1, 2, 5, 17):
        starts, ends = span_index(n)
        assert list(zip(starts.tolist(), ends.tolist())) == all_spans(n)
        assert np.array_equal(span_row(starts, ends, n),
                              np.arange(len(starts)))
        assert not starts.flags.writeable


def test_fenceposts_pair_forward_and_next_backward_rows():
    rng = np.random.default_rng(10)
    y = tensor(rng.standard_normal((5, 6)))
    u = fenceposts(y, [5]).data
    assert u.shape == (4, 6)
    for k in range(4):
        assert np.array_equal(u[k], np.concatenate([y.data[k, 0::2],
                                                    y.data[k + 1, 1::2]]))


def test_projected_span_scores_match_span_vector_scores():
    # scoring differences of projected fenceposts is the scorer applied to
    # every span_vector, up to float rounding
    rng = np.random.default_rng(11)
    store = ParameterStore()
    scorer = SpanScorer(store, d_model=10, hidden=7, num_labels=4)
    store.allocate(seed=11)
    store["scorer.c1"].data[...] = rng.standard_normal(7)
    n = 6
    y = tensor(rng.standard_normal((n + 2, 10)), requires_grad=True)
    out = scorer.forward(span_vectors(scorer.project(fenceposts(y, [n + 2])),
                                      [n]))
    fwd, bwd = directional_split(y)
    v = np.concatenate([span_vector(i, j, fwd, bwd).data
                        for i, j in all_spans(n)])
    h = v @ store["scorer.m1"].data + store["scorer.c1"].data
    h = (h - h.mean(axis=1, keepdims=True)) / np.sqrt(
        h.var(axis=1, keepdims=True) + 1e-5)
    h = np.maximum(h * store["scorer.ln.gain"].data
                   + store["scorer.ln.bias"].data, 0.0)
    ref = h @ store["scorer.m2"].data + store["scorer.c2"].data
    assert np.allclose(out.data, ref, atol=1e-12)
    weights = rng.standard_normal(out.shape)
    leaf_gradcheck(lambda: ad.sum_all(ad.mul_const(
        scorer.forward(span_vectors(scorer.project(fenceposts(y, [n + 2])),
                                    [n])),
        weights)), [y])


def test_build_chart_layout():
    n = 3
    scores = np.arange(len(all_spans(n)) * 2, dtype=float).reshape(-1, 2)
    chart = build_chart(scores, n)
    assert chart.shape == (4, 4, 3)
    assert (chart[:, :, 0] == 0).all()
    for row, (i, j) in enumerate(all_spans(n)):
        assert np.array_equal(chart[i, j, 1:], scores[row])
    with pytest.raises(ValueError):
        build_chart(scores[:-1], n)


def test_tree_score_hand_example():
    gold, inv = gold_of("(S (NP (DT the) (NN cat)) (VB sat))")
    n = 3
    chart = np.zeros((4, 4, len(inv)))
    chart[0, 3, inv.index("S")] = 1.5
    chart[0, 2, inv.index("NP")] = 2.25
    chart[1, 3, inv.index("NP")] = 100.0  # not in the tree; must not count
    assert tree_score(chart, gold) == 3.75


def test_tree_score_binarization_invariant():
    rng = np.random.default_rng(4)
    for _ in range(50):
        raw = random_ntree(rng)
        inv = LabelInventory.from_trees([raw])
        t = collapse_unary(raw)
        n = len(t.leaves())
        chart = random_chart(rng, n, len(inv))
        left = binarize(t, inv, direction="left")
        right = binarize(t, inv, direction="right")
        assert tree_score(chart, left) == tree_score(chart, right)


def test_cky_matches_brute_force_exactly():
    rng = np.random.default_rng(5)
    for n in range(1, 6):
        for L in (2, 3, 4):
            for _ in range(20):
                chart = random_chart(rng, n, L)
                tree, value = cky_decode(chart)
                assert value == brute_best(chart)
                assert tree_score(chart, tree) == pytest.approx(value, abs=1e-9)
                assert tree.label != 0
                assert tree.span == (0, n)


def test_cky_rejects_empty_sentence():
    with pytest.raises(ValueError):
        cky_decode(np.zeros((1, 1, 2)))


def test_cky_rejects_non_finite_scores():
    rng = np.random.default_rng(6)
    for bad in (np.nan, np.inf, -np.inf):
        chart = random_chart(rng, 4, 3)
        chart[1, 3, 2] = bad
        with pytest.raises(ValueError) as e:
            cky_decode(chart)
        assert "(1, 3)" in str(e.value)


def test_cky_tie_breaking_lowest_split_then_label():
    chart = np.zeros((4, 4, 3))
    tree, value = cky_decode(chart)
    assert value == 0.0
    assert tree.label == 1          # lowest real label at the root
    assert tree.left.span == (0, 1)  # lowest split everywhere
    assert tree.left.label == 0      # dummy wins ties off the root
    assert tree.right.span == (1, 3)
    assert tree.right.left.span == (1, 2)


def test_cky_copies_sentence_onto_leaves():
    chart = np.zeros((3, 3, 2))
    chart[0, 2, 1] = 1.0
    sent = [("the", "DT"), ("cat", "NN")]
    tree, _ = cky_decode(chart, sent)
    leaves = [node for node in tree.nodes() if node.is_leaf()]
    assert [(lf.word, lf.tag) for lf in leaves] == sent


def test_cky_decodes_a_tree_deeper_than_the_recursion_limit():
    # every span ending at n scores 1 under label 1, so the best tree is
    # right-branching, as deep as the sentence is long
    n = sys.getrecursionlimit() + 50
    chart = np.zeros((n + 1, n + 1, 2))
    chart[:n, n, 1] = 1.0
    sent = [("w%d" % i, "T") for i in range(n)]
    tree, value = cky_decode(chart, sent)
    assert value == n
    node = tree
    for i in range(n - 1):
        assert node.span == (i, n) and node.label == 1
        assert node.left.span == (i, i + 1) and node.left.word == "w%d" % i
        node = node.right
    assert node.span == (n - 1, n) and node.is_leaf()
    assert (node.word, node.tag, node.label) == ("w%d" % (n - 1), "T", 1)


def test_cky_matches_reference_loop_bitwise():
    # same trees and the same score bits as the span-by-span loop, on
    # continuous, small-integer (tie-heavy) and all-zero charts
    rng = np.random.default_rng(12)
    for n in (1, 2, 3, 4, 7, 12, 25, 40, 80):
        for L in (2, 3, 6):
            ties = np.zeros((n + 1, n + 1, L))
            ties[:, :, 1:] = np.triu(np.ones((n + 1, n + 1)), 1)[:, :, None] \
                * rng.integers(-2, 3, size=(n + 1, n + 1, L - 1))
            for chart in (random_chart(rng, n, L), ties,
                          np.zeros((n + 1, n + 1, L))):
                tree, value = cky_decode(chart)
                ref_tree, ref_value = reference_cky(chart)
                assert tree_triples(tree) == tree_triples(ref_tree)
                assert np.float64(value).tobytes() == \
                    np.float64(ref_value).tobytes()


def test_hamming_delta_hand_cases():
    gold = [(0, 3, 2), (0, 2, 1), (2, 3, 0)]
    assert hamming_delta(gold, gold) == 0
    assert hamming_delta([(0, 3, 2), (0, 2, 3)], gold) == 1   # wrong label
    assert hamming_delta([(0, 3, 2)], gold) == 1              # missing span
    assert hamming_delta([(0, 3, 2), (0, 2, 1), (1, 3, 1)], gold) == 1
    assert hamming_delta([(0, 3, 1), (1, 2, 1)], gold) == 3
    # dummy labels on either side are not constituents
    assert hamming_delta([(0, 3, 2), (0, 2, 1), (1, 2, 0)], gold) == 0


def test_loss_augmented_decode_matches_enumeration():
    rng = np.random.default_rng(6)
    for n in (2, 3, 4):
        for L in (2, 3):
            for _ in range(15):
                chart = random_chart(rng, n, L)
                gold_chart = random_chart(rng, n, L)
                gold_tree, _ = cky_decode(gold_chart)
                gold = gold_spans(gold_tree)
                tree, objective = loss_augmented_decode(chart, gold)
                assert objective == pytest.approx(brute_augmented(chart, gold),
                                                  abs=1e-9)
                s = tree_score(chart, tree)
                d = hamming_delta(gold_spans(tree), gold)
                assert objective == pytest.approx(s + d, abs=1e-9)
                # the augmented max dominates both plain max and gold
                assert objective >= cky_decode(chart)[1] - 1e-9
                assert objective >= tree_score(chart, gold_tree) - 1e-9


def test_hinge_loss_zero_when_gold_dominates():
    gold, inv = gold_of("(S (NP (DT the) (NN cat)) (VB sat))")
    n = 3
    rows = all_spans(n)
    scores = np.full((len(rows), len(inv) - 1), -10.0)
    for i, j, l in gold_spans(gold):
        if l != 0:
            scores[rows.index((i, j)), l - 1] = 10.0
    scores = tensor(scores, requires_grad=True)
    result = hinge_loss(scores, n, gold)
    assert result.value == 0.0
    assert result.violator is None
    assert result.delta == 0
    assert result.loss is None and margin_loss(scores, [result]) is None


def test_hinge_loss_margin_violation_hand_example():
    gold, inv = gold_of("(S (X x) (Y y))")
    assert len(inv) == 2
    scores = tensor(np.zeros((3, 1)), requires_grad=True)
    result = hinge_loss(scores, 2, gold)
    # flat scores: the worst violator labels every span, delta = 2,
    # scores cancel, so the hinge is exactly the delta
    assert result.value == 2.0
    assert result.delta == 2
    assert result.gold_score == 0.0
    backward(margin_loss(scores, [result]))
    # +1 on the violator-only spans (0,1) and (1,2); the shared root cancels
    assert np.array_equal(scores.grad, [[1.0], [0.0], [1.0]])


def test_hinge_gradient_is_sparse_difference_of_trees():
    rng = np.random.default_rng(7)
    gold, inv = gold_of("(S (NP (DT the) (NN cat)) (VP (VB sat) (RB down)))")
    n = 4
    rows = all_spans(n)
    scores = tensor(rng.standard_normal((len(rows), len(inv) - 1)),
                    requires_grad=True)
    result = hinge_loss(scores, n, gold)
    if result.violator is None:
        pytest.skip("random chart happened to satisfy the margin")
    backward(margin_loss(scores, [result]))
    expect = np.zeros(scores.shape)
    for i, j, l in gold_spans(result.violator):
        if l != 0:
            expect[rows.index((i, j)), l - 1] += 1.0
    for i, j, l in gold_spans(gold):
        if l != 0:
            expect[rows.index((i, j)), l - 1] -= 1.0
    assert np.array_equal(scores.grad, expect)


def test_hinge_loss_finite_differences_away_from_ties():
    # with continuous scores and a fixed seed the argmax tree is stable
    # under the 1e-5 probe, so the hinge is locally linear
    rng = np.random.default_rng(8)
    gold, inv = gold_of("(S (NP (DT the) (NN cat)) (VB sat))")
    n = 3
    scores = tensor(rng.standard_normal((len(all_spans(n)), len(inv) - 1)),
                    requires_grad=True)
    result = hinge_loss(scores, n, gold)
    if result.violator is None:
        pytest.skip("margin satisfied; nothing to differentiate")
    leaf_gradcheck(lambda: margin_loss(scores, [hinge_loss(scores, n, gold)]),
                   [scores], tol=1e-8)


def test_hinge_value_consistency_random():
    rng = np.random.default_rng(9)
    gold, inv = gold_of("(S (NP (DT the) (NN cat)) (VP (VB sat) (RB down)))")
    n = 4
    for _ in range(25):
        scores = tensor(rng.standard_normal((len(all_spans(n)), len(inv) - 1)))
        result = hinge_loss(scores, n, gold)
        assert result.value >= 0.0
        if result.violator is not None:
            chart = build_chart(scores.data, n)
            s_v = tree_score(chart, result.violator)
            assert result.value == pytest.approx(
                s_v + result.delta - result.gold_score, abs=1e-9)


def test_packed_fenceposts_and_span_vectors_stack_each_sentence():
    rng = np.random.default_rng(12)
    words = [3, 1, 5]
    ys = [rng.standard_normal((n + 2, 6)) for n in words]
    u = fenceposts(tensor(np.concatenate(ys)), [n + 2 for n in words])
    singles = [fenceposts(tensor(y), [n + 2]).data
               for y, n in zip(ys, words)]
    assert np.array_equal(u.data, np.concatenate(singles))
    v = span_vectors(u, words)
    assert np.array_equal(v.data, np.concatenate(
        [span_vectors(tensor(f), [n]).data for f, n in zip(singles, words)]))
    with pytest.raises(ValueError):
        span_vectors(u, [3, 1, 4])


def test_packed_hinge_terms_match_lone_sentences():
    rng = np.random.default_rng(13)
    texts = ["(S (NP (DT the) (NN cat)) (VB sat))",
             "(S (X x) (Y y))",
             "(S (NP (DT the) (NN cat)) (VP (VB sat) (RB down)))"]
    raw = [parse_bracketed(t)[0] for t in texts]
    inv = LabelInventory.from_trees(raw)
    golds = [binarize(collapse_unary(t), inv) for t in raw]
    words = [len(t.leaves()) for t in raw]
    blocks = [rng.standard_normal((n * (n + 1) // 2, len(inv) - 1))
              for n in words]
    # the second sentence's gold tree dominates, so it adds no term
    n = words[1]
    blocks[1][:] = -10.0
    for i, j, l in gold_spans(golds[1]):
        if l != 0:
            blocks[1][span_row(i, j, n), l - 1] = 10.0
    pack = tensor(np.concatenate(blocks), requires_grad=True)
    results, offset = [], 0
    for n, gold in zip(words, golds):
        results.append(hinge_loss(pack, n, gold, offset))
        offset += n * (n + 1) // 2
    leaves = [tensor(block, requires_grad=True) for block in blocks]
    lone = [hinge_loss(t, n, gold) for t, n, gold in zip(leaves, words, golds)]
    for packed, own in zip(results, lone):
        assert packed.value == own.value and packed.delta == own.delta
        assert packed.gold_score == own.gold_score
        assert (packed.violator is None) == (own.violator is None)
    assert results[1].violator is None and results[0].loss is None
    assert margin_loss(pack, [results[1]]) is None
    loss = margin_loss(pack, results)
    assert float(loss.data) == pytest.approx(sum(r.value for r in lone),
                                             abs=1e-12)
    backward(loss)
    for t, own in zip(leaves, lone):
        if own.violator is not None:
            backward(margin_loss(t, [own]))
    assert np.array_equal(pack.grad, np.concatenate(
        [np.zeros(t.shape) if t.grad is None else t.grad for t in leaves]))
