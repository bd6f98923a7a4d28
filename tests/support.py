"""Shared helpers for the test suite: finite-difference gradient checking,
brute-force decode oracles and reference span vectors, random tree
generators, tiny model builders, and OpenBLAS thread counts read in a
process of their own."""

import contextlib
import ctypes
import glob
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spanparser
import spanparser.autodiff as ad
from spanparser.autodiff import Tensor, backward
from spanparser.chart import hamming_delta
from spanparser.encoder import Encoder, EncoderConfig
from spanparser.lexical import LexicalConfig
from spanparser.model import SpanParser
from spanparser.optim import ParameterStore
from spanparser.trees import BinaryTree, Tree
from spanparser.vocab import LabelInventory, Vocabulary


def gradcheck(loss_fn, params, rng, coords=6, h=1e-5, floor=1e-3):
    """Max relative error between backward() gradients and central finite
    differences, probing ``coords`` random coordinates per parameter.

    ``loss_fn`` must be deterministic (rebuild any train-mode rng inside).
    The floor keeps noise on near-zero gradients from dominating the ratio.
    """
    params = list(params)
    for p in params:
        p.clear_grad()
    backward(loss_fn())
    worst = 0.0
    for p in params:
        grad = p.grad if p.grad is not None else np.zeros(p.data.shape)
        flat = p.data.reshape(-1)
        gflat = np.asarray(grad).reshape(-1)
        k = min(coords, flat.size)
        for i in rng.choice(flat.size, size=k, replace=False):
            keep = flat[i]
            flat[i] = keep + h
            up = float(loss_fn().data)
            flat[i] = keep - h
            down = float(loss_fn().data)
            flat[i] = keep
            numeric = (up - down) / (2.0 * h)
            analytic = gflat[i]
            rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic),
                                                floor)
            worst = max(worst, rel)
    for p in params:
        p.clear_grad()
    return worst


class _LeafBox:
    """Adapts a bare Tensor to the Parameter interface gradcheck expects."""

    def __init__(self, t):
        self.t = t

    @property
    def data(self):
        return self.t.data

    @property
    def grad(self):
        return self.t.grad

    def clear_grad(self):
        self.t.grad = None


def leaf_gradcheck(build, leaves, seed=0, tol=1e-6, coords=8):
    boxes = [_LeafBox(t) for t in leaves]
    err = gradcheck(build, boxes, np.random.default_rng(seed), coords=coords)
    assert err < tol, "finite differences disagree: %g" % err


def plain_leaf(data):
    """A plain Tensor marked ``requires_grad = True``: a leaf owning no
    gradient buffer, for :func:`reference_backward`."""
    t = Tensor(data)
    t.requires_grad = True
    return t


def reference_backward(loss):
    """The accumulation order of backward, storing every node's grad: the
    contributions to a node are summed in arrival order, on this thread.
    A GradLeaf's grad becomes a new array, its buffer left as it was, and
    a product matmul hands over uncomputed is computed here."""
    order = ad._toposort(loss)
    grads = {id(loss): np.ones(())}
    for node in reversed(order):
        g = grads.get(id(node))
        if g is None:
            continue
        node.grad = g if node.grad is None else node.grad + g
        if node._grad_fn is None:
            continue
        for parent, pg in zip(node._parents, node._grad_fn(g)):
            if parent.requires_grad:
                pg = pg() if callable(pg) else pg
                key = id(parent)
                grads[key] = grads[key] + pg if key in grads else pg


# The ops the fused autodiff ops replace, with one new array per step as
# they had: a reference path that the fused ops must match bit for bit.

_dropout = ad.dropout


def reference_layer_norm(x, gain, bias, summand=None, eps=1e-5):
    """``concat`` of column blocks, ``add`` of the summand, then a layer
    norm node over the sum."""
    if isinstance(summand, (list, tuple)):
        summand = ad.concat(summand, axis=1)
    if summand is not None:
        x = ad.add(x, summand)
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain.data + bias.data

    def grad_fn(g):
        lead = tuple(range(g.ndim - 1))
        dgain = (g * xhat).sum(axis=lead)
        dbias = g.sum(axis=lead)
        dxhat = g * gain.data
        dx = inv * (dxhat
                    - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        return (dx, dgain, dbias)

    return ad._result(out, (x, gain, bias), grad_fn)


def reference_dropout(x, p, rng, train):
    """Dropout of the concatenation of column blocks."""
    if isinstance(x, (list, tuple)):
        x = ad.concat(x, axis=1)
    return _dropout(x, p, rng, train)


def reference_softmax(x):
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def grad_fn(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return ad._result(out, (x,), grad_fn)


def sub(a, b):
    """a - b of two tensors of one shape: the span differences of the
    reference path, which the package takes with ``row_differences``."""
    if a.shape != b.shape:
        raise ad.DimensionError("sub: incompatible shapes %s and %s"
                                % (a.shape, b.shape))
    return ad._result(a.data - b.data, (a, b), lambda g: (g, -g))


def reference_affine(x, w, b):
    return ad.add(ad.matmul(x, w), b)


def reference_row_differences(x, ends, starts):
    return sub(ad.take_rows(x, ends), ad.take_rows(x, starts))


def reference_split(rows, heads, mask):
    B, Tmax = mask.shape
    out = np.zeros((B, heads, Tmax, rows.shape[1] // heads))
    out.transpose(0, 2, 1, 3)[mask] = rows.reshape(rows.shape[0], heads, -1)
    return out.reshape(B * heads, Tmax, -1)


def reference_merge(stack, mask):
    S, Tmax, d = stack.shape
    B = mask.shape[0]
    rows = stack.reshape(B, S // B, Tmax, d).transpose(0, 2, 1, 3)[mask]
    return rows.reshape(rows.shape[0], -1)


# autodiff attribute -> its reference
REFERENCE_OPS = {
    "layer_norm": reference_layer_norm,
    "dropout": reference_dropout,
    "softmax": reference_softmax,
    "affine": reference_affine,
    "row_differences": reference_row_differences,
    "_split": reference_split,
    "_merge": reference_merge,
}


def set_grad(p, g):
    """Give parameter ``p`` the gradient ``g``, written into its grad view
    as backward would."""
    np.copyto(p.tensor.grad_view, g)
    p.tensor.grad = p.tensor.grad_view


def random_chart(rng, n, num_labels):
    """Random span scores with the dummy label pinned at zero."""
    chart = np.zeros((n + 1, n + 1, num_labels))
    for i in range(n):
        for j in range(i + 1, n + 1):
            chart[i, j, 1:] = rng.standard_normal(num_labels - 1)
    return chart


def reference_cky(chart):
    """The span-by-span loop CKY that chart.cky_decode vectorises; returns
    (BinaryTree, score) with the same tie-breaks (lowest split, then lowest
    label) and the same order of float additions."""
    n = chart.shape[0] - 1
    best = np.zeros((n + 1, n + 1))
    best_label = np.zeros((n + 1, n + 1), dtype=int)
    best_split = np.zeros((n + 1, n + 1), dtype=int)
    for width in range(1, n + 1):
        for i in range(0, n - width + 1):
            j = i + width
            if i == 0 and j == n:
                label = 1 + int(np.argmax(chart[i, j, 1:]))
            else:
                label = int(np.argmax(chart[i, j]))
            value = chart[i, j, label]
            if width > 1:
                split = i + 1
                sub = best[i, i + 1] + best[i + 1, j]
                for k in range(i + 2, j):
                    cand = best[i, k] + best[k, j]
                    if cand > sub:
                        sub, split = cand, k
                best_split[i, j] = split
                value += sub
            best[i, j] = value
            best_label[i, j] = label

    def build(i, j):
        label = int(best_label[i, j])
        if j - i == 1:
            return BinaryTree(label, (i, j))
        k = int(best_split[i, j])
        return BinaryTree(label, (i, j), left=build(i, k), right=build(k, j))

    return build(0, n), float(best[0, n])


def directional_split(y: Tensor):
    """Split encoder output columns into forward (even) and backward (odd)
    annotation halves."""
    d = y.shape[1]
    if d % 2 != 0:
        raise ValueError("directional split needs an even width, got %d" % d)
    fwd = ad.take_cols(y, np.arange(0, d, 2))
    bwd = ad.take_cols(y, np.arange(1, d, 2))
    return fwd, bwd


def span_vector(i: int, j: int, fwd: Tensor, bwd: Tensor) -> Tensor:
    """The [1, d_model] vector of one span, built from its four annotation
    rows; ``fwd``/``bwd`` come from directional_split of an encoder output
    with boundary rows.  The reference that chart.fenceposts and
    chart.span_vectors compute for all spans at once."""
    n = fwd.shape[0] - 2
    if not 0 <= i < j <= n:
        raise ValueError("span (%d, %d) out of range for %d words" % (i, j, n))
    f = sub(ad.take_rows(fwd, [j]), ad.take_rows(fwd, [i]))
    b = sub(ad.take_rows(bwd, [j + 1]), ad.take_rows(bwd, [i + 1]))
    return ad.concat([f, b], axis=1)


def tree_triples(tree):
    """A BinaryTree's (i, j, label) triples in node order."""
    return [(node.span[0], node.span[1], node.label) for node in tree.nodes()]


def brute_best(chart):
    """Max tree score by explicit enumeration of binary structures, with the
    per-span best label; the summation shape matches cky_decode so equality
    can be asserted exactly."""
    n = chart.shape[0] - 1

    def span_best(i, j):
        if i == 0 and j == n:
            label = 1 + int(np.argmax(chart[i, j, 1:]))
        else:
            label = int(np.argmax(chart[i, j]))
        return chart[i, j, label]

    def values(i, j):
        if j - i == 1:
            return [span_best(i, j)]
        out = []
        for k in range(i + 1, j):
            for a in values(i, k):
                for b in values(k, j):
                    out.append(span_best(i, j) + (a + b))
        return out

    return max(values(0, n))


def enumerate_labeled_trees(chart):
    """All (triples, score) for every structure and label assignment; only
    feasible for tiny n and label counts."""
    n = chart.shape[0] - 1
    L = chart.shape[2]

    def structures(i, j):
        if j - i == 1:
            return [[(i, j)]]
        out = []
        for k in range(i + 1, j):
            for a in structures(i, k):
                for b in structures(k, j):
                    out.append(a + b + [(i, j)])
        return out

    for spans in structures(0, n):
        choices = [range(1, L) if (i, j) == (0, n) else range(L)
                   for (i, j) in spans]
        stack = [[]]
        for opts in choices:
            stack = [picked + [l] for picked in stack for l in opts]
        for labels in stack:
            triples = [(i, j, l) for (i, j), l in zip(spans, labels)]
            score = sum(chart[i, j, l] for i, j, l in triples)
            yield triples, score


def brute_augmented(chart, gold_triples):
    """Max of s(T) + Delta(T, gold) by full enumeration, computing Delta
    with hamming_delta directly (independent of the chart augmentation)."""
    best = None
    for triples, score in enumerate_labeled_trees(chart):
        value = score + hamming_delta(triples, gold_triples)
        if best is None or value > best:
            best = value
    return best


def random_ntree(rng, max_children=8, depth=3):
    """Random n-ary tree; may contain unary chains (collapse before
    binarizing)."""
    counter = [0]

    def leaf():
        counter[0] += 1
        return Tree.leaf("w%d" % counter[0], "T%d" % (counter[0] % 3))

    def build(level):
        if level >= depth or rng.random() < 0.3:
            return leaf()
        k = int(rng.integers(1, max_children + 1))
        label = "ABCD"[rng.integers(4)]
        return Tree(label, [build(level + 1) for _ in range(k)])

    t = build(0)
    if t.is_leaf():
        t = Tree("A", [t])
    return t


def reference_tokenize(text):
    """``trees._tokenize`` as a character loop: '(' / ')' / atom tokens,
    each with its 1-based (line, column); lines end at "\n" and any
    ``str.isspace`` character separates tokens."""
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch.isspace():
            col += 1
            i += 1
        elif ch in "()":
            tokens.append((ch, line, col))
            col += 1
            i += 1
        else:
            start, startcol = i, col
            while i < n and not text[i].isspace() and text[i] not in "()":
                i += 1
                col += 1
            tokens.append((text[start:i], line, startcol))
    return tokens


def tiny_encoder(variant="factored", seed=0, num_layers=2, d_model=16,
                 num_heads=2, d_k=8, d_v=8, d_ff=24, max_len=24, **kw):
    cfg = EncoderConfig(num_layers=num_layers, d_model=d_model,
                        num_heads=num_heads, d_k=d_k, d_v=d_v, d_ff=d_ff,
                        variant=variant, max_sentence_length=max_len,
                        span_hidden=12, **kw)
    store = ParameterStore()
    encoder = Encoder(store, cfg)
    store.allocate(seed=seed)
    return encoder, store, cfg


def tiny_model(trees, mode="tags", variant="factored", seed=0, d_model=16,
               num_layers=2, char_lstm_hidden=8, no_dropout=False, **kw):
    import dataclasses
    lex_fields = {f.name for f in dataclasses.fields(LexicalConfig)}
    lex_kw = {k: v for k, v in kw.items() if k in lex_fields}
    enc_kw = {k: v for k, v in kw.items() if k not in lex_fields}
    vocab = Vocabulary.from_trees(trees)
    labels = LabelInventory.from_trees(trees)
    enc = EncoderConfig(num_layers=num_layers, d_model=d_model, num_heads=2,
                        d_k=8, d_v=8, d_ff=24, variant=variant,
                        max_sentence_length=24, span_hidden=12, **enc_kw)
    if no_dropout:
        for f in ("word_dropout", "tag_dropout", "morph_dropout",
                  "char_dropout"):
            lex_kw.setdefault(f, 0.0)
        enc.attention_dropout = enc.relu_dropout = enc.residual_dropout = 0.0
    if mode == "char-concat":
        lex_kw.setdefault("char_embedding_dim", enc.content_dim // 16)
    lex = LexicalConfig(mode=mode, char_lstm_hidden=char_lstm_hidden,
                        **lex_kw)
    return SpanParser(enc, lex, vocab, labels, seed=seed)


def openblas_threads():
    """The thread-count getter of the OpenBLAS bundled with numpy's wheel,
    found apart from ``autodiff``'s own lookup; None where there is none."""
    found = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                   "numpy.libs", "libscipy_openblas64_-*.so"))
    return (ctypes.CDLL(found[0]).scipy_openblas_get_num_threads64_
            if found else None)


@contextlib.contextmanager
def no_openblas():
    """Within the block the pin's lookup finds no OpenBLAS, as on a numpy
    built against another BLAS; the lookup is redone on both sides."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(glob, "glob", lambda pattern: [])
        ad._openblas.cache_clear()
        try:
            yield
        finally:
            ad._openblas.cache_clear()


def recording_pins(monkeypatch):
    """Wrap the pin so that each block appends what it yielded on entry and
    ``"left"`` on leaving; returns the list."""
    calls = []
    pin = ad.one_blas_thread

    @contextlib.contextmanager
    def recorded():
        with pin() as pinned:
            calls.append(pinned)
            yield pinned
        calls.append("left")

    monkeypatch.setattr(ad, "one_blas_thread", recorded)
    return calls


def blas_counts(script, *args):
    """Run ``script`` in a process of its own at OPENBLAS_NUM_THREADS=2,
    with the package and the test directory on its path, and return the
    JSON object on the last line of its output: the thread counts it read
    with :func:`openblas_threads`.  Skips the test when the script found no
    OpenBLAS and printed ``{}``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(
                   [str(Path(spanparser.__file__).parents[1]),
                    str(Path(__file__).parent)]))
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    counts = json.loads(done.stdout.splitlines()[-1])
    if not counts:
        pytest.skip("numpy bundles no OpenBLAS with a known thread getter")
    return counts
