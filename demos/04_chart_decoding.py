"""Chart decoding on a random score grid: exact CKY, brute-force
agreement, the loss-augmented variant, and the margin loss built on it."""

import itertools

import numpy as np

import spanparser.autodiff as ad
from spanparser.chart import (
    cky_decode, hamming_delta, hinge_loss, loss_augmented_decode, margin_loss,
    tree_score,
)
from spanparser.trees import gold_spans
from spanparser.vocab import LabelInventory

inv = LabelInventory(["NP", "S", "VP"])
n = 4
rng = np.random.default_rng(7)
chart = np.zeros((n + 1, n + 1, len(inv)))
for i in range(n):
    for j in range(i + 1, n + 1):
        chart[i, j, 1:] = rng.standard_normal(len(inv) - 1)

tree, value = cky_decode(chart, sentence=[("w%d" % k, "T") for k in range(n)])
print("CKY best value %.6f" % value)
print("spans:", sorted(gold_spans(tree)))
print("tree_score agrees: %.6f" % tree_score(chart, tree))


# brute force: enumerate every binary structure and label assignment
def structures(i, j):
    if j - i == 1:
        yield ((i, j),)
        return
    for k in range(i + 1, j):
        for a in structures(i, k):
            for b in structures(k, j):
                yield ((i, j),) + a + b

best = -np.inf
count = 0
for spans in structures(0, n):
    for labels in itertools.product(range(len(inv)), repeat=len(spans)):
        if labels[0] == 0:
            continue  # the root keeps a real label
        count += 1
        s = sum(chart[i, j, l] for (i, j), l in zip(spans, labels))
        best = max(best, s)
print("brute force over %d labeled trees: %.6f" % (count, best))
assert abs(best - value) < 1e-9

# loss-augmented decode: the same chart plus Hamming increments
gold, _ = cky_decode(chart)
worst, objective = loss_augmented_decode(chart, gold_spans(gold))
print("\nmax s(T) + Delta(T, gold) = %.6f" % objective)
print("Delta at the argmax:", hamming_delta(gold_spans(worst),
                                            gold_spans(gold)))

# margin loss from a score tensor: positive when some tree beats gold by
# less than its Hamming distance
scores = ad.tensor(chart[np.triu_indices(n + 1, k=1)][:, 1:],
                   requires_grad=True)
result = hinge_loss(scores, n, gold)
print("hinge value %.6f (violator %s)"
      % (result.value, "found" if result.violator else "none"))
if result.violator is not None:
    # the pack's loss: here a pack of one sentence
    ad.backward(margin_loss(scores, [result]))
    print("gradient rows touched:", int((scores.grad != 0).any(1).sum()))
