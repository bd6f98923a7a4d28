"""Reverse-mode automatic differentiation over dense float64 arrays.

Just enough of a tensor library for this parser: 2-d matrices plus scalars,
per-head [H, T, d] stacks for batched attention (one sentence, or a padded
pack of several), the primitives the encoder/decoder expressions need, and
exact gradient accumulation.  Gradients reach only :class:`GradLeaf`
tensors, each of which owns a gradient buffer (a parameter's is its view of
its store's grad arena) and has every contribution added into it in place.
Everything is float64.  :func:`backward` applies the contributions to large
leaves on a worker thread beside the main one, each leaf's in the order the
graph produces them, so gradients are bitwise those of one thread;
determinism and finite-difference-tight gradients matter more than speed.

Broadcasting is deliberately limited to the cases the model uses (a 1-d bias
added to the rows of a matrix, constant masks); anything else raises a
DimensionError naming the operation and the offending shapes.
"""

from __future__ import annotations

import contextlib
import functools
from concurrent.futures import ThreadPoolExecutor

import numpy as np


class DimensionError(ValueError):
    """Operand shapes incompatible with the requested operation."""


def _dimerr(op, *shapes):
    return DimensionError("%s: incompatible shapes %s"
                          % (op, " and ".join(str(s) for s in shapes)))


class Tensor:
    """A dense float64 array, and for a non-leaf tensor its parents and a
    function mapping the output gradient to per-parent gradients.
    ``requires_grad`` marks a tensor that a :class:`GradLeaf` reaches
    through its parents.  :func:`backward` gives a ``grad`` to leaves only.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn")

    def __init__(self, data, parents=(), grad_fn=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = any(p.requires_grad for p in parents)
        self._parents = tuple(parents)
        self._grad_fn = grad_fn

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return "Tensor(shape=%s, requires_grad=%s)" % (self.shape, self.requires_grad)


class GradLeaf(Tensor):
    """A differentiable leaf whose gradient arrives in place in
    ``grad_view``, a buffer of its shape that it owns (zeroed and its own
    unless one is given).  Its ``grad`` is None or ``grad_view``: the first
    contribution of a :func:`backward` after ``grad`` was set to None
    overwrites the buffer, so a gradient kept across that call must be
    copied."""

    __slots__ = ("grad_view",)

    def __init__(self, data, grad_view=None):
        super().__init__(data)
        self.requires_grad = True
        self.grad_view = (np.zeros(self.data.shape) if grad_view is None
                          else grad_view)


def tensor(data, requires_grad=False):
    """A constant, or with ``requires_grad`` a :class:`GradLeaf`."""
    return GradLeaf(data) if requires_grad else Tensor(data)


class _GradMode:
    enabled = True


@contextlib.contextmanager
def no_grad():
    """Build no graph inside the block: every primitive returns a plain
    tensor without parents or backward closure, so intermediate arrays are
    freed as soon as the forward pass drops them.  Values are unchanged."""
    was, _GradMode.enabled = _GradMode.enabled, False
    try:
        yield
    finally:
        _GradMode.enabled = was


def _result(data, parents, grad_fn):
    if not _GradMode.enabled:
        return Tensor(data)
    needs = any(p.requires_grad for p in parents)
    return Tensor(data, parents=parents, grad_fn=grad_fn if needs else None)


# ---------------------------------------------------------------------------
# primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also accepts a 1-d bias added to each row of a 2-d
    matrix (the only broadcast the model needs)."""
    if a.shape == b.shape:
        return _result(a.data + b.data, (a, b), lambda g: (g, g))
    if a.data.ndim == 2 and b.data.ndim == 1 and a.shape[1] == b.shape[0]:
        return _result(a.data + b.data, (a, b), lambda g: (g, g.sum(axis=0)))
    if b.data.ndim == 2 and a.data.ndim == 1 and b.shape[1] == a.shape[0]:
        return _result(a.data + b.data, (a, b), lambda g: (g.sum(axis=0), g))
    raise _dimerr("add", a.shape, b.shape)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise _dimerr("sub", a.shape, b.shape)
    return _result(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise _dimerr("mul", a.shape, b.shape)
    return _result(a.data * b.data, (a, b),
                   lambda g: (g * b.data, g * a.data))


def scale(x: Tensor, s: float) -> Tensor:
    s = float(s)
    return _result(x.data * s, (x,), lambda g: (g * s,))


def add_const(x: Tensor, c) -> Tensor:
    """Add a non-differentiable constant (scalar or broadcastable array)."""
    out = x.data + c
    if out.shape != x.shape:
        raise _dimerr("add_const", x.shape, np.shape(c))
    return _result(out, (x,), lambda g: (g,))


def mul_const(x: Tensor, c) -> Tensor:
    """Multiply by a non-differentiable constant (masks, scalings)."""
    c = np.asarray(c, dtype=np.float64)
    out = x.data * c
    if out.shape != x.shape:
        raise _dimerr("mul_const", x.shape, c.shape)
    return _result(out, (x,), lambda g: (g * c,))


# OpenBLAS cuts a product's reduction into blocks at different points when
# it runs on one thread and on several, once the reduction is longer than
# its block (384 for the AVX-512 kernels), so such a product's bits depend
# on the thread count.  A weight gradient reduces over every row of a pack;
# it is summed from row blocks no longer than this, in order.
REDUCTION_BLOCK = 384


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise _dimerr("matmul", a.shape, b.shape)

    def grad_fn(g):
        if isinstance(b, GradLeaf):
            # computed where it is applied, straight into b's buffer if it
            # is b's first contribution
            return g @ b.data.T, functools.partial(_rows_product, a.data, g)
        return g @ b.data.T, _rows_product(a.data, g)

    return _result(a.data @ b.data, (a, b), grad_fn)


def _rows_product(a, g, out=None):
    """a.T @ g, summed over blocks of at most REDUCTION_BLOCK rows, into
    ``out`` if given."""
    out = np.matmul(a[:REDUCTION_BLOCK].T, g[:REDUCTION_BLOCK], out=out)
    for start in range(REDUCTION_BLOCK, a.shape[0], REDUCTION_BLOCK):
        stop = start + REDUCTION_BLOCK
        out += a[start:stop].T @ g[start:stop]
    return out


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product of [H, m, k] and [H, k, n] stacks."""
    if (a.data.ndim != 3 or b.data.ndim != 3 or a.shape[0] != b.shape[0]
            or a.shape[2] != b.shape[1]):
        raise _dimerr("bmm", a.shape, b.shape)
    return _result(a.data @ b.data, (a, b),
                   lambda g: (g @ b.data.swapaxes(1, 2),
                              a.data.swapaxes(1, 2) @ g))


def transpose(x: Tensor) -> Tensor:
    """Swap the last two axes of a matrix or of an [H, m, n] stack."""
    if x.data.ndim not in (2, 3):
        raise _dimerr("transpose", x.shape)
    return _result(x.data.swapaxes(-1, -2), (x,),
                   lambda g: (g.swapaxes(-1, -2),))


def split_heads(x: Tensor, heads: int, mask=None) -> Tensor:
    """[T, heads * d] -> [heads, T, d]: column block h becomes head h.

    With ``mask``, a [B, Tmax] boolean array whose row b marks the first
    T_b of Tmax slots, ``x`` is a pack of B sentences' rows, one after the
    other: [sum T_b, heads * d] -> [B * heads, Tmax, d], stack b * heads + h
    holding sentence b's head h, zero beyond its T_b rows."""
    if (x.data.ndim != 2 or heads < 1 or x.shape[1] % heads != 0
            or mask is not None and mask.sum() != x.shape[0]):
        raise _dimerr("split_heads(%d)" % heads, x.shape)
    return _result(_split(x.data, heads, mask), (x,),
                   lambda g: (_merge(g, mask),))


def merge_heads(x: Tensor, mask=None) -> Tensor:
    """The inverse of split_heads: [heads, T, d] -> [T, heads * d], or
    with a pack's ``mask`` [B * heads, Tmax, d] -> [sum T_b, heads * d],
    the padding rows dropped."""
    if (x.data.ndim != 3 or mask is not None
            and (x.shape[0] % mask.shape[0] or x.shape[1] != mask.shape[1])):
        raise _dimerr("merge_heads", x.shape)
    heads = x.shape[0] // (1 if mask is None else mask.shape[0])
    return _result(_merge(x.data, mask), (x,),
                   lambda g: (_split(g, heads, mask),))


def _split(rows, heads, mask):
    T, width = rows.shape
    d = width // heads
    if mask is None:
        return rows.reshape(T, heads, d).transpose(1, 0, 2)
    B, Tmax = mask.shape
    out = np.zeros((B, heads, Tmax, d))
    out.transpose(0, 2, 1, 3)[mask] = rows.reshape(T, heads, d)
    return out.reshape(B * heads, Tmax, d)


def _merge(stack, mask):
    S, T, d = stack.shape
    if mask is None:
        return stack.transpose(1, 0, 2).reshape(T, S * d)
    B = mask.shape[0]
    heads = S // B
    rows = stack.reshape(B, heads, T, d).transpose(0, 2, 1, 3)[mask]
    return rows.reshape(-1, heads * d)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    old = x.shape
    return _result(x.data.reshape(shape), (x,), lambda g: (g.reshape(old),))


def concat(tensors, axis=0) -> Tensor:
    """Join tensors along ``axis``; a single tensor is returned itself."""
    tensors = list(tensors)
    if len(tensors) == 1:
        return tensors[0]
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def grad_fn(g):
        return tuple(np.split(g, splits, axis=axis))

    return _result(np.concatenate([t.data for t in tensors], axis=axis),
                   tensors, grad_fn)


def slice_cols(x: Tensor, start, stop) -> Tensor:
    if x.data.ndim != 2:
        raise _dimerr("slice_cols", x.shape)
    ncols = x.shape[1]

    def grad_fn(g):
        gx = np.zeros(x.shape)
        gx[:, start:stop] = g
        return (gx,)

    if not (0 <= start < stop <= ncols):
        raise _dimerr("slice_cols[%d:%d]" % (start, stop), x.shape)
    return _result(x.data[:, start:stop], (x,), grad_fn)


def split_cols(x: Tensor, sections: int):
    """Split a matrix into equal column blocks (inverse of concat axis=1).

    One section returns ``[x]`` itself, adding no node to the graph."""
    if x.shape[1] % sections != 0:
        raise _dimerr("split_cols(%d)" % sections, x.shape)
    if sections == 1:
        return [x]
    width = x.shape[1] // sections
    return [slice_cols(x, k * width, (k + 1) * width) for k in range(sections)]


def take_rows(x: Tensor, indices) -> Tensor:
    """Row lookup (embedding lookup); duplicate indices accumulate grads."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1 or x.data.ndim != 2:
        raise _dimerr("take_rows", x.shape, idx.shape)

    def grad_fn(g):
        gx = np.zeros(x.shape)
        np.add.at(gx, idx, g)
        return (gx,)

    return _result(x.data[idx], (x,), grad_fn)


def take_cols(x: Tensor, indices) -> Tensor:
    """Column selection; indices must be distinct."""
    idx = np.asarray(indices, dtype=np.intp)
    if x.data.ndim != 2 or idx.ndim != 1:
        raise _dimerr("take_cols", x.shape, idx.shape)
    if len(np.unique(idx)) != len(idx):
        raise ValueError("take_cols requires distinct indices")

    def grad_fn(g):
        gx = np.zeros(x.shape)
        gx[:, idx] = g
        return (gx,)

    return _result(x.data[:, idx], (x,), grad_fn)


def gather_pairs(x: Tensor, rows, cols) -> Tensor:
    """Pick entries x[rows[k], cols[k]] as a 1-d tensor; duplicates allowed."""
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    if x.data.ndim != 2 or rows.shape != cols.shape or rows.ndim != 1:
        raise _dimerr("gather_pairs", x.shape, rows.shape, cols.shape)

    def grad_fn(g):
        gx = np.zeros(x.shape)
        np.add.at(gx, (rows, cols), g)
        return (gx,)

    return _result(x.data[rows, cols], (x,), grad_fn)


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0)
    return _result(out, (x,), lambda g: (g * (x.data > 0.0),))


def sigmoid(x: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-x.data))
    return _result(out, (x,), lambda g: (g * out * (1.0 - out),))


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)
    return _result(out, (x,), lambda g: (g * (1.0 - out * out),))


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis; rows sum to 1."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def grad_fn(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _result(out, (x,), grad_fn)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then apply the
    learned elementwise gain and bias."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise _dimerr("layer_norm", x.shape, gain.shape, bias.shape)
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

    return _result(out, (x, gain, bias), grad_fn)


def dropout(x: Tensor, p: float, rng, train: bool) -> Tensor:
    """Inverted dropout: scale kept entries by 1/(1-p) so eval is identity."""
    if not train or p == 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must be in [0, 1), got %r" % p)
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return mul_const(x, mask)


def row_dropout(x: Tensor, p: float, rng, train: bool) -> Tensor:
    """Dropout that zeroes whole rows (whole embedding vectors) at once."""
    if not train or p == 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must be in [0, 1), got %r" % p)
    mask = (rng.random((x.shape[0], 1)) >= p) / (1.0 - p)
    return mul_const(x, np.broadcast_to(mask, x.shape))


def sum_all(x: Tensor) -> Tensor:
    shape = x.shape
    return _result(x.data.sum(), (x,), lambda g: (np.broadcast_to(g, shape),))


# ---------------------------------------------------------------------------
# backward pass


# a GradLeaf of at least this many values has its gradient contributions
# applied on backward's worker thread
WORKER_LEAF_SIZE = 1 << 16


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into ``grad`` of every :class:`GradLeaf`
    on the gradient path.  ``loss`` must be scalar.  Intermediate tensors
    get no ``grad``: each one's gradient is dropped as soon as it has been
    passed on to its parents, so at most the gradients of the graph's
    current frontier are alive at once.

    A leaf gets each contribution c1, c2, ... in its buffer as it is
    computed: with ``grad`` None the buffer becomes c1, then c1 + c2, ...;
    with a ``grad`` from an earlier call, old + c1, then + c2, ...  So
    repeated calls without clearing gradients add up.

    Contributions to leaves of at least WORKER_LEAF_SIZE values, including
    the weight products ``a.T @ g`` that matmul hands over uncomputed for
    them, are applied on one worker thread in the order they are produced,
    while this thread carries on down the graph; the worker touches nothing
    but those leaves' buffers and ``grad``.  So every leaf's buffer sees the
    same operations in the same order as on one thread, and the bits are
    the same.  The call returns once the worker has applied everything,
    and raises the worker's first exception, if any.
    """
    if loss.data.shape != ():
        raise ValueError("backward requires a scalar loss, got shape %s"
                         % (loss.data.shape,))
    if not loss.requires_grad:
        return

    order = _toposort(loss)
    pass_grads = {id(loss): np.ones(())}
    # the executor starts its thread at the first submit, so a graph of
    # small leaves only starts none
    with ThreadPoolExecutor(max_workers=1) as worker:
        applied = []

        def arrive(leaf, g):
            if leaf.grad_view.size >= WORKER_LEAF_SIZE:
                applied.append(worker.submit(_arrive, leaf, g))
            else:
                _arrive(leaf, g)

        for node in reversed(order):
            g = pass_grads.pop(id(node), None)
            if g is None:
                continue
            if isinstance(node, GradLeaf):
                arrive(node, g)
                continue
            for parent, pg in zip(node._parents, node._grad_fn(g)):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if isinstance(parent, GradLeaf):
                    arrive(parent, pg)
                elif key in pass_grads:
                    pass_grads[key] = pass_grads[key] + pg
                else:
                    pass_grads[key] = pg
        for f in applied:
            f.result()


def _arrive(leaf: GradLeaf, g) -> None:
    """Add a contribution to a leaf's ``grad``, in its ``grad_view``.  ``g``
    is an array or a callable computing one (into ``out=`` if given)."""
    view = leaf.grad_view
    if callable(g):
        if leaf.grad is None:
            g(out=view)
        else:
            view += g()
    elif leaf.grad is None:
        np.copyto(view, g)
    else:
        np.add(view, g, out=view)
    leaf.grad = view


def _toposort(root: Tensor):
    """Iterative postorder over the gradient-relevant subgraph."""
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))
    return order
