"""Labeled-bracket precision/recall/F1 over predicted vs gold trees.

Brackets are (i, j, label) triples read off the n-ary trees: every internal
node counts, including the root and single-word constituents; POS tags live
on leaves and are never counted.  Matching is by multiset, so a unary chain
contributes one bracket per level.  No punctuation deletion or label
equivalence classes are applied; trees are compared exactly as given.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .trees import Tree


@dataclass
class EvalResult:
    matched: int
    predicted: int
    gold: int

    @property
    def recall(self) -> float:
        return 100.0 * self.matched / self.gold if self.gold else 0.0

    @property
    def precision(self) -> float:
        return 100.0 * self.matched / self.predicted if self.predicted else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if p + r > 0 else 0.0

    def tsv_line(self) -> str:
        return "%.2f\t%.2f\t%.2f" % (self.recall, self.precision, self.f1)


def tree_brackets(tree: Tree) -> Counter:
    """Multiset of labeled spans of one tree's internal nodes."""
    out = Counter()
    # post-order over an explicit stack: (node, None) on the way down,
    # (node, start) to count its bracket once its children are done
    stack, pos = [(tree, None)], 0
    while stack:
        node, start = stack.pop()
        if start is not None:
            out[(start, pos, node.label)] += 1
        elif node.is_leaf():
            pos += 1
        else:
            stack.append((node, pos))
            stack.extend((child, None) for child in reversed(node.children))
    return out


def score(pred, gold) -> EvalResult:
    """Corpus-level labeled bracket counts for aligned tree lists."""
    pred, gold = list(pred), list(gold)
    if len(pred) != len(gold):
        raise ValueError("got %d predicted trees but %d gold trees"
                         % (len(pred), len(gold)))
    matched = n_pred = n_gold = 0
    for idx, (p, g) in enumerate(zip(pred, gold)):
        if len(p.leaves()) != len(g.leaves()):
            raise ValueError(
                "sentence %d: prediction has %d words but gold has %d"
                % (idx, len(p.leaves()), len(g.leaves())))
        pb, gb = tree_brackets(p), tree_brackets(g)
        matched += sum(min(c, gb[key]) for key, c in pb.items())
        n_pred += sum(pb.values())
        n_gold += sum(gb.values())
    return EvalResult(matched=matched, predicted=n_pred, gold=n_gold)


def format_report(result: EvalResult) -> str:
    lines = [
        "gold brackets       %d" % result.gold,
        "predicted brackets  %d" % result.predicted,
        "matched brackets    %d" % result.matched,
        "labeled recall      %.2f" % result.recall,
        "labeled precision   %.2f" % result.precision,
        "labeled F1          %.2f" % result.f1,
    ]
    return "\n".join(lines)
