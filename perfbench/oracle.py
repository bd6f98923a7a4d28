"""Decode oracle for the parse outputs, written apart from ``chart.py``.

Given the program's own chart for a sentence (``SpanParser.score_chart``),
the tree ``SpanParser.parse`` returned must

- have the input words and tags as its leaves, in order;
- be a proper constituency tree: spans nest, the root covers the whole
  sentence, and every constituent (unary chains joined) is a real label of
  the model's inventory;
- score, as the sum of its labeled span scores, the best binarized-tree
  score on that chart.  The best score comes from a width-major dynamic
  program vectorised over span starts, and for sentences of at most
  ``BRUTE_FORCE_MAX`` words also from enumerating every bracketing.  The
  two sums add in different orders, so they are compared with a relative
  tolerance, not for equality.
"""

from __future__ import annotations

import math

import numpy as np

BRUTE_FORCE_MAX = 8
SCORE_RTOL = 1e-9


class OracleError(AssertionError):
    """A parse that is malformed or not the best tree on its chart."""


def constituents(tree):
    """(leaves, spans) of an n-ary tree: leaves as (word, tag) pairs, spans
    as (i, j, [labels from innermost to outermost]) per distinct span."""
    leaves = []
    chains = {}

    def walk(node):
        if node.is_leaf():
            leaves.append((node.word, node.tag))
            return
        if not node.children:
            raise OracleError("constituent %r has no children" % node.label)
        start = len(leaves)
        for child in node.children:
            walk(child)
        chains.setdefault((start, len(leaves)), []).append(node.label)

    walk(tree)
    spans = [(i, j, chain) for (i, j), chain in sorted(chains.items())]
    return leaves, spans


def labeled_spans(tree, sentence, labels):
    """Check the tree's structure and return its (i, j, label_id) triples."""
    leaves, spans = constituents(tree)
    if leaves != [tuple(pair) for pair in sentence]:
        raise OracleError("leaves %r differ from the input sentence %r"
                          % (leaves, sentence))
    n = len(sentence)
    if tree.is_leaf() or (0, n) not in {(i, j) for i, j, _ in spans}:
        raise OracleError("the root does not cover the sentence")
    triples = []
    for i, j, chain in spans:
        joined = labels.separator.join(reversed(chain))
        if joined not in labels or labels.index(joined) == labels.null_id:
            raise OracleError("span (%d, %d) has label %r, which is not a "
                              "real label" % (i, j, joined))
        triples.append((i, j, labels.index(joined)))
    _check_nesting([(i, j) for i, j, _ in triples])
    return triples


def _check_nesting(spans):
    """Spans sorted by start, widest first, must form a laminar family."""
    open_ends = []
    for i, j in sorted(spans, key=lambda s: (s[0], -s[1])):
        while open_ends and open_ends[-1] <= i:
            open_ends.pop()
        if open_ends and j > open_ends[-1]:
            raise OracleError("span (%d, %d) crosses an enclosing span "
                              "ending at %d" % (i, j, open_ends[-1]))
        open_ends.append(j)


def span_label_scores(chart):
    """Best label score of every span: any label (the dummy scores 0) below
    the root, a real label at the root."""
    n = chart.shape[0] - 1
    best = chart.max(axis=2)
    best[0, n] = chart[0, n, 1:].max()
    return best


def best_tree_score(chart) -> float:
    """Max over binarized trees of the summed span scores.  ``by_width[i, w]``
    is the best score of span (i, i + w); each width is one vector step."""
    n = chart.shape[0] - 1
    lab = span_label_scores(chart)
    by_width = np.full((n + 1, n + 1), -np.inf)
    starts = np.arange(n)
    by_width[starts, 1] = lab[starts, starts + 1]
    for w in range(2, n + 1):
        starts = np.arange(n - w + 1)[:, None]
        offsets = np.arange(1, w)[None, :]
        left = by_width[starts, offsets]
        right = by_width[starts + offsets, w - offsets]
        starts = starts[:, 0]
        by_width[starts, w] = lab[starts, starts + w] + (left + right).max(axis=1)
    return float(by_width[0, n])


def brute_force_score(chart) -> float:
    """The same maximum by listing every bracketing (Catalan many)."""
    n = chart.shape[0] - 1
    lab = span_label_scores(chart)

    def scores(i, j):
        if j - i == 1:
            return [lab[i, j]]
        return [lab[i, j] + a + b for k in range(i + 1, j)
                for a in scores(i, k) for b in scores(k, j)]

    return max(scores(0, n))


def check_parse(tree, sentence, chart, labels) -> None:
    """Raise OracleError unless ``tree`` is a well-formed best parse of
    ``sentence`` on ``chart``."""
    n = len(sentence)
    if chart.shape[:2] != (n + 1, n + 1):
        raise OracleError("chart shape %s does not fit %d words"
                          % (chart.shape, n))
    if not np.all(np.isfinite(chart)):
        raise OracleError("chart holds non-finite scores")
    triples = labeled_spans(tree, sentence, labels)
    terms = [chart[i, j, l] for i, j, l in triples]
    score = math.fsum(terms)
    best = best_tree_score(chart)
    tol = SCORE_RTOL * (1.0 + math.fsum(abs(t) for t in terms) + abs(best))
    if abs(score - best) > tol:
        raise OracleError("tree scores %.12g but the best tree on the chart "
                          "scores %.12g" % (score, best))
    if n <= BRUTE_FORCE_MAX:
        brute = brute_force_score(chart)
        if abs(brute - best) > tol:
            raise OracleError("dynamic program gives %.12g, enumeration "
                              "%.12g" % (best, brute))
