"""Span scoring, CKY decoding, and the margin loss.

A parse is scored as the sum of independent labeled span scores
s(T) = sum s(i,j,l).  The dummy label (id 0) scores exactly 0 on every span,
which makes the total invariant to how n-ary trees are binarized and lets a
single CKY pass find the argmax over all binarized trees.

Span vectors follow the fencepost convention: the encoder output row k
corresponds to position k of [start, w_1 .. w_n, stop].  The forward
annotation for fencepost k is the even coordinates of row k (k = 0..n), the
backward annotation the odd coordinates of row k+1 (so the stop row serves
fencepost n).  A span (i, j) is represented as
v = [fwd_j - fwd_i ; bwd_{j+1} - bwd_{i+1}] = u_j - u_i, where the fencepost
row u_k = [fwd_k ; bwd_{k+1}] (k = 0..n).

The scorer's first layer M_1 is linear, so M_1 v = u_j M_1 - u_i M_1: the
n+1 fencepost rows are projected once (``SpanScorer.project``) and the span
rows are gathered as differences of projected rows (``span_vectors``), so no
[num_spans, d_model] array is ever built.  Chart assembly, CKY and the
loss-augmented increments work on whole arrays indexed by per-length span
index arrays; CKY runs one numpy pass per span width.

A mini-batch is scored as one pack: ``fenceposts`` and ``span_vectors``
take the sentences' lengths and return every sentence's rows one after
the other, ``hinge_loss`` decodes each sentence from its own rows of the
packed scores, and ``margin_loss`` gathers the whole batch's loss terms at
once.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .optim import ParameterStore, glorot_uniform, ones
from .trees import BinaryTree, _fold, gold_spans

NULL_ID = 0  # LabelInventory reserves id 0 for the dummy label


class NonFiniteScoreError(ValueError):
    """A chart to decode holds a NaN or infinite score."""


def all_spans(n: int):
    """Every (i, j) with 0 <= i < j <= n in a fixed canonical order; chart
    tensors and span-score rows follow this order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n + 1)]


@lru_cache(maxsize=512)
def span_index(n: int):
    """Read-only (starts, ends) index arrays of all_spans(n), in its order."""
    starts, ends = np.triu_indices(n + 1, k=1)
    starts.flags.writeable = ends.flags.writeable = False
    return starts, ends


def span_row(i, j, n: int):
    """Row of span (i, j) in all_spans(n) order; works on index arrays."""
    return i * n - i * (i - 1) // 2 + (j - i - 1)


def fenceposts(y: Tensor, lengths) -> Tensor:
    """The fencepost rows u_k = [fwd_k ; bwd_{k+1}], k = 0..n, of every
    sentence of a pack: ``y`` holds the encoder output of sentences with
    the token counts ``lengths`` (boundaries included), one after the
    other, and the result stacks each one's [n+1, d_model] rows in the
    same order."""
    # forward annotations are the even columns, backward ones the odd
    fwd = ad.take_cols(y, np.arange(0, y.shape[1], 2))
    bwd = ad.take_cols(y, np.arange(1, y.shape[1], 2))
    # every row but each sentence's stop row starts a fencepost
    stops = np.cumsum(lengths) - 1
    k = np.delete(np.arange(y.shape[0]), stops)
    return ad.concat([ad.take_rows(fwd, k), ad.take_rows(bwd, k + 1)],
                     axis=1)


def span_vectors(rows: Tensor, words) -> Tensor:
    """rows[j] - rows[i] for every span (i, j), in all_spans(n) order, of
    every sentence of a pack, as one [S, width] tensor.  ``rows`` holds the
    fencepost rows of sentences of ``words`` words, one after the other:
    fenceposts gives the span vectors, SpanScorer.project of it M_1 v."""
    if rows.shape[0] != sum(words) + len(words):
        raise ValueError("got %d fencepost rows, expected %d for %s words"
                         % (rows.shape[0], sum(words) + len(words), words))
    first = np.cumsum([0] + [m + 1 for m in words[:-1]])
    starts, ends = (np.concatenate([f + span_index(m)[side]
                                    for f, m in zip(first, words)])
                    for side in (0, 1))
    return ad.row_differences(rows, ends, starts)


class SpanScorer:
    """s(i,j,.) = M_2 relu(LayerNorm(M_1 v + c_1)) + c_2 over real labels.

    ``project`` applies M_1 to fencepost rows and ``forward`` the rest to
    the differences of projected rows, so a pack's scores are
    ``forward(span_vectors(project(fenceposts(y, lengths)), words))``.
    ``forward`` adds c_1 inside the layer norm node and c_2 in place into
    the M_2 product, so neither sum is an array of its own.  The dummy
    label is never parameterized; its score is the constant 0 added when
    the chart is assembled.
    """

    def __init__(self, store: ParameterStore, d_model: int, hidden: int,
                 num_labels: int):
        if num_labels < 2:
            raise ValueError("need at least one real label besides the dummy")
        self.num_labels = num_labels
        self.m1 = store.add("scorer.m1", (d_model, hidden), glorot_uniform)
        self.c1 = store.add("scorer.c1", (hidden,))
        self.ln_gain = store.add("scorer.ln.gain", (hidden,), ones)
        self.ln_bias = store.add("scorer.ln.bias", (hidden,))
        self.m2 = store.add("scorer.m2", (hidden, num_labels - 1),
                            glorot_uniform)
        self.c2 = store.add("scorer.c2", (num_labels - 1,))

    def project(self, rows: Tensor) -> Tensor:
        """[k, d_model] rows times M_1: [k, hidden]."""
        return ad.matmul(rows, self.m1)

    def forward(self, mv: Tensor) -> Tensor:
        """[S, num_labels-1] real-label scores from [S, hidden] rows M_1 v."""
        h = ad.layer_norm(mv, self.ln_gain, self.ln_bias, self.c1)
        return ad.affine(ad.relu(h), self.m2, self.c2)


def build_chart(scores: np.ndarray, n: int) -> np.ndarray:
    """Arrange [S, num_labels-1] real-label scores into a dense chart
    [n+1, n+1, num_labels] with the dummy label fixed at 0."""
    starts, ends = span_index(n)
    if scores.shape[0] != len(starts):
        raise ValueError("got %d score rows for %d spans"
                         % (scores.shape[0], len(starts)))
    chart = np.zeros((n + 1, n + 1, scores.shape[1] + 1))
    chart[starts, ends, 1:] = scores
    return chart


def tree_score(chart: np.ndarray, b: BinaryTree) -> float:
    """Sum of chart entries over the tree's real-labeled spans.

    Dummy-labeled nodes contribute exactly 0 by omission, and summation runs
    in sorted span order, so any two binarizations of the same tree get the
    bitwise-identical score.
    """
    total = 0.0
    for i, j, l in sorted((n.span[0], n.span[1], n.label) for n in b.nodes()
                          if n.label != NULL_ID):
        total += chart[i, j, l]
    return total


def cky_decode(chart: np.ndarray, sentence=None):
    """Exact argmax over binarized trees; returns (BinaryTree, score).

    Any span may take the dummy label except the root.  Ties break toward
    the lowest split index, then the lowest label id.  ``sentence`` is an
    optional list of (word, tag) pairs copied onto the leaves.  A NaN or
    infinite chart entry raises NonFiniteScoreError.
    """
    n = chart.shape[0] - 1
    if n == 0:
        raise ValueError("cannot decode an empty sentence")
    bad = ~np.isfinite(chart)
    if bad.any():
        i, j, l = (int(v) for v in np.argwhere(bad)[0])
        raise NonFiniteScoreError(
            "non-finite chart score %r at span (%d, %d) label %d"
            % (float(chart[i, j, l]), i, j, l))
    best_label = chart.argmax(axis=2)
    best_label[0, n] = 1 + int(np.argmax(chart[0, n, 1:]))
    label_score = np.take_along_axis(chart, best_label[:, :, None],
                                     axis=2)[:, :, 0]
    # by_start[i, w] and by_end[j, w] hold the best subtree score of the
    # width-w span starting at i and ending at j; split[i, w] the width of
    # its best left child.
    by_start = np.zeros((n + 1, n + 1))
    by_end = np.zeros((n + 1, n + 1))
    split = np.zeros((n + 1, n + 1), dtype=np.intp)
    for w in range(1, n + 1):
        count = n - w + 1
        value = label_score.diagonal(w)
        if w > 1:
            # cand[i, t-1] = best[i, i+t] + best[i+t, i+w], t = 1..w-1
            cand = by_start[:count, 1:w] + by_end[w:, w - 1:0:-1]
            t = cand.argmax(axis=1)     # first maximum: lowest split
            split[:count, w] = t + 1
            value = value + cand[np.arange(count), t]
        by_start[:count, w] = value
        by_end[w:, w] = value

    def children(span):
        i, j = span
        if j - i == 1:
            return ()
        k = i + int(split[i, j - i])
        return (i, k), (k, j)

    def build(span, subtrees):
        i, j = span
        word = tag = None
        if sentence is not None and not subtrees:
            word, tag = sentence[i]
        return BinaryTree(int(best_label[i, j]), span, *subtrees, word=word,
                          tag=tag)

    # without recursion, so a tree of any depth decodes
    return _fold((0, n), children, build), float(by_start[0, n])


def hamming_delta(candidate, gold) -> int:
    """Labeled-span Hamming distance between two span sets.

    Inputs are iterables of (i, j, label_id) triples; spans absent from
    either side count as dummy-labeled, so a constituent present on exactly
    one side contributes 1 and a shared span with different labels also
    contributes 1.
    """
    cand = {(i, j): l for i, j, l in candidate if l != NULL_ID}
    gld = {(i, j): l for i, j, l in gold if l != NULL_ID}
    return sum(1 for span in set(cand) | set(gld)
               if cand.get(span, NULL_ID) != gld.get(span, NULL_ID))


def loss_augmented_decode(chart: np.ndarray, gold, sentence=None):
    """Argmax of s(T) + Delta(T, gold); returns (BinaryTree, objective).

    Delta decomposes over the candidate's spans: a real-labeled candidate
    span scores +1 where gold has no constituent, a correctly labeled one
    -1, plus the constant number of real gold spans.  Adding those
    increments to the chart reduces the search to plain CKY.
    """
    gold_real = [(i, j, l) for i, j, l in gold if l != NULL_ID]
    grid = {(i, j): l for i, j, l in gold_real}
    starts, ends = span_index(chart.shape[0] - 1)
    aug = chart.copy()
    aug[starts, ends, 1:] += 1.0
    if grid:
        gi, gj = np.array(list(grid), dtype=np.intp).T
        gl = np.fromiter(grid.values(), dtype=np.intp, count=len(grid))
        aug[gi, gj, 1:] = chart[gi, gj, 1:]
        aug[gi, gj, gl] -= 1.0
    tree, value = cky_decode(aug, sentence)
    return tree, value + len(gold_real)


class HingeResult:
    """Outcome of one sentence's margin computation."""

    __slots__ = ("loss", "value", "delta", "gold_score", "violator", "terms")

    def __init__(self, value, delta, gold_score, violator, terms=None):
        self.loss = None            # the hinge Tensor, once one is built
        self.value = value          # the hinge as a float
        self.delta = delta          # Hamming distance to the violator
        self.gold_score = gold_score
        self.violator = violator    # BinaryTree or None when satisfied
        # (rows, cols, signs) of the score entries the loss adds (+1, the
        # violator's) and subtracts (-1, the gold tree's); None if satisfied
        self.terms = terms


def hinge_loss(scores: Tensor, n: int, gold: BinaryTree,
               offset: int = 0) -> HingeResult:
    """Margin max(0, max_T [s(T) + Delta(T, T*)] - s(T*)) of one sentence
    of the pack ``scores``, the [S, num_labels-1] tensor from SpanScorer
    whose rows from ``offset`` on hold this sentence's spans in
    all_spans(n) order.

    Builds no loss: when some tree violates the margin, the result's
    ``terms`` name the violator's and the gold tree's span scores, and
    margin_loss takes every sentence's terms from the pack at once, so no
    sentence builds a gradient the size of the pack.
    """
    chart = build_chart(scores.data[offset:offset + n * (n + 1) // 2], n)
    gold_triples = gold_spans(gold)
    s_gold = tree_score(chart, gold)
    violator, objective = loss_augmented_decode(chart, gold_triples)
    if objective - s_gold <= 0.0:
        return HingeResult(0.0, 0, s_gold, None)

    def entries(triples):
        real = np.array([t for t in triples if t[2] != NULL_ID],
                        dtype=np.intp).reshape(-1, 3)
        return offset + span_row(real[:, 0], real[:, 1], n), real[:, 2] - 1

    viol_triples = gold_spans(violator)
    delta = hamming_delta(viol_triples, gold_triples)
    (vr, vc), (gr, gc) = entries(viol_triples), entries(gold_triples)
    value = (scores.data[vr, vc].sum() - scores.data[gr, gc].sum()) + delta
    terms = (np.concatenate([vr, gr]), np.concatenate([vc, gc]),
             np.repeat([1.0, -1.0], [len(vr), len(gr)]))
    return HingeResult(float(value), delta, s_gold, violator, terms)


def margin_loss(scores: Tensor, results):
    """The summed loss of the ``results`` (hinge_loss of sentences in the
    pack ``scores``) that violate their margin, as one differentiable
    scalar taken from ``scores`` by a single gather; None when every
    margin holds."""
    live = [r for r in results if r.terms is not None]
    if not live:
        return None
    rows, cols, signs = (np.concatenate(part)
                         for part in zip(*(r.terms for r in live)))
    picked = ad.mul_const(ad.gather_pairs(scores, rows, cols), signs)
    return ad.add_const(ad.sum_all(picked),
                        float(sum(r.delta for r in live)))
