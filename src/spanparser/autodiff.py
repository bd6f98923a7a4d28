"""Reverse-mode automatic differentiation over dense float64 arrays.

Just enough of a tensor library for this parser: 2-d matrices plus scalars,
per-head [B * H, Tmax, d] stacks for batched attention over a padded pack
of sentences, the primitives the encoder/decoder expressions need, and
exact gradient accumulation.  Gradients reach only :class:`GradLeaf`
tensors, each of which owns a gradient buffer (a parameter's is its view of
its store's grad arena) and has every contribution added into it in place.
Everything is float64.  :func:`backward` applies the contributions to large
leaves on a worker thread beside the main one, each leaf's in the order the
graph produces them, so gradients are bitwise those of one thread;
determinism and finite-difference-tight gradients matter more than speed.

Work handed to a worker thread goes through :func:`submit`, which runs it
under the submitting thread's numpy error state (``np.errstate`` is per
thread), so an overflow that raises on the calling thread raises on the
worker too.  :func:`no_grad` is process-wide, not per thread: a worker
building tensors inside the caller's ``no_grad`` block builds no graph
either, and the encoder's stream worker relies on this.

Broadcasting is deliberately limited to the cases the model uses (a 1-d bias
added to the rows of a matrix, constant masks); anything else raises a
DimensionError naming the operation and the offending shapes.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading
import warnings
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
    raise _dimerr("add", a.shape, b.shape)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise _dimerr("mul", a.shape, b.shape)
    return _result(a.data * b.data, (a, b),
                   lambda g: (g * b.data, g * a.data))


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


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS thread-count (getter, setter), looked up
    once; None, with a warning, for a numpy built against another BLAS."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_-*.so")):
        try:
            lib = ctypes.CDLL(path)     # the copy numpy has already loaded
            get, set_ = (lib.scipy_openblas_get_num_threads64_,
                         lib.scipy_openblas_set_num_threads64_)
        except (OSError, AttributeError):
            continue
        get.restype, set_.restype = ctypes.c_int, None
        set_.argtypes = [ctypes.c_int]
        return get, set_
    warnings.warn("cannot hold numpy's OpenBLAS to one thread; bits may vary")
    return None


class _Pin:
    lock = threading.Lock()
    blocks = 0      # pinned blocks open in the process
    saved = None    # the thread count the first of them found


@contextlib.contextmanager
def one_blas_thread():
    """Hold numpy's OpenBLAS to one thread for the block, so that no
    product's bits depend on ``OPENBLAS_NUM_THREADS``; yields whether that
    took.  The count is the process's: the first block to enter, in any
    thread, saves it and sets 1, and the last to leave restores it."""
    with _Pin.lock:
        blas = _openblas()
        if blas and not _Pin.blocks:
            _Pin.saved = blas[0]()
            blas[1](1)
        _Pin.blocks += 1
    try:
        yield blas is not None
    finally:
        with _Pin.lock:
            _Pin.blocks -= 1
            if blas and not _Pin.blocks:
                blas[1](_Pin.saved)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise _dimerr("matmul", a.shape, b.shape)

    def grad_fn(g):
        if isinstance(b, GradLeaf):
            # computed where it is applied, straight into b's buffer if it
            # is b's first contribution
            return g @ b.data.T, functools.partial(np.matmul, a.data.T, g)
        return g @ b.data.T, a.data.T @ g

    return _result(a.data @ b.data, (a, b), grad_fn)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for a 1-d bias ``b``: the product is one :func:`matmul`
    node, and the bias is added in place into its new array."""
    product = matmul(x, w)
    if b.shape != (product.shape[1],):
        raise _dimerr("affine", x.shape, w.shape, b.shape)
    np.add(product.data, b.data, out=product.data)
    return _result(product.data, (product, b),
                   lambda g: (g, g.sum(axis=0)))


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


def split_heads(x: Tensor, heads: int, mask) -> Tensor:
    """[sum T_b, heads * d] -> [B * heads, Tmax, d]: ``x`` is a pack of B
    sentences' rows, one after the other, and ``mask`` a [B, Tmax] boolean
    array whose row b marks the first T_b of Tmax slots.  Stack
    b * heads + h holds column block h of sentence b's rows, zero beyond
    its T_b rows."""
    if (x.data.ndim != 2 or heads < 1 or x.shape[1] % heads != 0
            or mask.sum() != x.shape[0]):
        raise _dimerr("split_heads(%d)" % heads, x.shape, mask.shape)
    return _result(_split(x.data, heads, mask), (x,),
                   lambda g: (_merge(g, mask),))


def merge_heads(x: Tensor, mask) -> Tensor:
    """The inverse of split_heads: [B * heads, Tmax, d] ->
    [sum T_b, heads * d], the padding rows dropped."""
    if (x.data.ndim != 3 or x.shape[0] % mask.shape[0]
            or x.shape[1] != mask.shape[1]):
        raise _dimerr("merge_heads", x.shape, mask.shape)
    heads = x.shape[0] // mask.shape[0]
    return _result(_merge(x.data, mask), (x,),
                   lambda g: (_split(g, heads, mask),))


def _split(rows, heads, mask):
    B, Tmax = mask.shape
    if mask.all():
        # no padding: a plain copy into head order (a view for one head)
        return rows.reshape(B, Tmax, heads, -1).transpose(0, 2, 1, 3).reshape(
            B * heads, Tmax, -1)
    out = np.zeros((B, heads, Tmax, rows.shape[1] // heads))
    out.transpose(0, 2, 1, 3)[mask] = rows.reshape(rows.shape[0], heads, -1)
    return out.reshape(B * heads, Tmax, -1)


def _merge(stack, mask):
    S, Tmax, d = stack.shape
    B = mask.shape[0]
    heads_last = stack.reshape(B, S // B, Tmax, d).transpose(0, 2, 1, 3)
    rows = heads_last.reshape(B * Tmax, -1) if mask.all() else heads_last[mask]
    return rows.reshape(rows.shape[0], -1)


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
    """Columns ``start:stop`` of a matrix (a view).  Its gradient reaches
    ``x`` as a :class:`_Columns` block, which :func:`backward` adds into
    x's gradient without building the zero-padded full-width array."""
    if x.data.ndim != 2:
        raise _dimerr("slice_cols", x.shape)
    if not (0 <= start < stop <= x.shape[1]):
        raise _dimerr("slice_cols[%d:%d]" % (start, stop), x.shape)
    return _result(x.data[:, start:stop], (x,),
                   lambda g: (_Columns(x.shape, start, stop, g),))


class _Columns:
    """A gradient of ``shape`` that is ``block`` in columns ``start:stop``
    and zero in every other column.  Called, it builds that array, into
    ``out=`` if given, as matmul's uncomputed products do."""

    __slots__ = ("shape", "start", "stop", "block")

    def __init__(self, shape, start, stop, block):
        self.shape, self.start, self.stop = shape, start, stop
        self.block = block

    def __call__(self, out=None):
        if out is None:
            out = np.zeros(self.shape)
        else:
            out.fill(0.0)
        out[:, self.start:self.stop] = self.block
        return out

    def added_to(self, acc, out):
        """``acc`` + this gradient, into ``out`` (which may be ``acc``).
        The columns outside the block get ``acc + 0.0``, so the bits, the
        signs of zeros included, are those of adding the full array."""
        s, e = self.start, self.stop
        np.add(acc[:, s:e], self.block, out=out[:, s:e])
        np.add(acc[:, :s], 0.0, out=out[:, :s])
        np.add(acc[:, e:], 0.0, out=out[:, e:])
        return out


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


def row_differences(x: Tensor, ends, starts) -> Tensor:
    """Rows x[ends[k]] - x[starts[k]], subtracted in place in the gathered
    ``ends`` rows; x's grad is bitwise that of the difference of two
    ``take_rows``."""
    ends = np.asarray(ends, dtype=np.intp)
    starts = np.asarray(starts, dtype=np.intp)
    if x.data.ndim != 2 or ends.ndim != 1 or ends.shape != starts.shape:
        raise _dimerr("row_differences", x.shape, ends.shape, starts.shape)
    out = x.data[ends]
    out -= x.data[starts]

    def grad_fn(g):
        gx = np.zeros(x.shape)
        np.add.at(gx, ends, g)
        gstarts = np.zeros(x.shape)
        np.add.at(gstarts, starts, g)
        gx -= gstarts
        return (gx,)

    return _result(out, (x,), grad_fn)


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
    """Softmax over the last axis; rows sum to 1.  The shift, exponential
    and division all run in place in the one output array."""
    out = x.data - x.data.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)

    def grad_fn(g):
        gx = g * out
        dot = gx.sum(axis=-1, keepdims=True)
        np.subtract(g, dot, out=gx)
        gx *= out
        return (gx,)

    return _result(out, (x,), grad_fn)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, summand=None,
               eps: float = 1e-5) -> Tensor:
    """LayerNorm(x + summand): normalize the last axis of the sum to zero
    mean and unit variance, then apply the learned elementwise gain and
    bias.  ``summand`` is None, a 1-d bias added to every row of a matrix
    ``x``, or a matrix of x's shape or a list of matrices that side by
    side make it (column blocks, never concatenated).

    The sum is one new array, centred and scaled in place and kept for the
    backward pass; the squares and then the output share a second, and the
    backward pass needs two more.  Values and gradients are bitwise those
    of an ``add`` (and ``concat``) followed by a layer norm of the sum."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise _dimerr("layer_norm", x.shape, gain.shape, bias.shape)
    parts = (() if summand is None else
             (summand,) if isinstance(summand, Tensor) else tuple(summand))
    row_bias = len(parts) == 1 and parts[0].shape == (d,)
    cols = () if summand is None or row_bias else _column_slices(parts)
    if parts and (x.data.ndim != 2 or not row_bias and (
            cols[-1].stop != d or parts[0].shape[0] != x.shape[0])):
        raise _dimerr("layer_norm", x.shape, *(p.shape for p in parts))
    if row_bias:
        total = x.data + parts[0].data
    elif parts:
        total = np.empty(x.shape)
        for p, col in zip(parts, cols):
            np.add(x.data[:, col], p.data, out=total[:, col])
    else:
        total = x.data
    xhat = np.subtract(total, total.mean(axis=-1, keepdims=True),
                       out=total if parts else None)
    out = xhat * xhat
    inv = 1.0 / np.sqrt(out.mean(axis=-1, keepdims=True) + eps)
    xhat *= inv
    np.multiply(xhat, gain.data, out=out)
    out += bias.data

    def grad_fn(g):
        lead = tuple(range(g.ndim - 1))
        work = g * xhat
        dgain = work.sum(axis=lead)
        dbias = g.sum(axis=lead)
        dx = g * gain.data
        mean_dxhat = dx.mean(axis=-1, keepdims=True)
        np.multiply(dx, xhat, out=work)
        mean_dot = work.mean(axis=-1, keepdims=True)
        dx -= mean_dxhat
        np.multiply(xhat, mean_dot, out=work)
        dx -= work
        np.multiply(inv, dx, out=dx)
        dparts = ((dx.sum(axis=0),) if row_bias
                  else tuple(dx[:, col] for col in cols))
        return (dx, *dparts, dgain, dbias)

    return _result(out, (x, *parts, gain, bias), grad_fn)


def _column_slices(blocks):
    """The column slice of each of ``blocks`` (matrices of one row count)
    when they stand side by side."""
    if not blocks or any(b.data.ndim != 2 or b.shape[0] != blocks[0].shape[0]
                         for b in blocks):
        raise _dimerr("column blocks", *(b.shape for b in blocks))
    stops = np.cumsum([b.shape[1] for b in blocks]).tolist()
    return [slice(stop - b.shape[1], stop) for b, stop in zip(blocks, stops)]


def dropout(x, p: float, rng, train: bool):
    """Inverted dropout: scale kept entries by 1/(1-p) so eval is identity.
    ``x`` may be a list of the column blocks of one matrix: the mask is
    drawn for that matrix and its column slices scale the blocks."""
    if not train or p == 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must be in [0, 1), got %r" % p)
    if isinstance(x, Tensor):
        return mul_const(x, (rng.random(x.shape) >= p) / (1.0 - p))
    cols = _column_slices(x)
    mask = (rng.random((x[0].shape[0], cols[-1].stop)) >= p) / (1.0 - p)
    return [mul_const(block, mask[:, col]) for block, col in zip(x, cols)]


def row_dropout(x: Tensor, p: float, rng, train: bool) -> Tensor:
    """Dropout that zeroes whole rows (whole embedding vectors) at once."""
    if not train or p == 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must be in [0, 1), got %r" % p)
    mask = (rng.random((x.shape[0], 1)) >= p) / (1.0 - p)
    return mul_const(x, mask)


def sum_all(x: Tensor) -> Tensor:
    shape = x.shape
    return _result(x.data.sum(), (x,), lambda g: (np.broadcast_to(g, shape),))


# ---------------------------------------------------------------------------
# worker threads and the backward pass


def submit(worker, fn, *args):
    """``worker.submit(fn, *args)`` with ``fn`` run under this thread's
    numpy error state (``np.geterr()``), which a worker thread does not
    otherwise share."""
    return worker.submit(_under_errstate, np.geterr(), fn, args)


def _under_errstate(state, fn, args):
    with np.errstate(**state):
        return fn(*args)


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
    repeated calls without clearing gradients add up.  An intermediate's
    contributions are summed in the same order, in place once the sum is
    an array of backward's own, and a column slice's block is added into
    its columns (:class:`_Columns`); the bits are those of adding each
    contribution as a new full-width array.

    Contributions to leaves of at least WORKER_LEAF_SIZE values, including
    the weight products ``a.T @ g`` that matmul hands over uncomputed for
    them, are applied on one worker thread in the order they are produced,
    while this thread carries on down the graph; the worker touches nothing
    but those leaves' buffers and ``grad``.  So every leaf's buffer sees the
    same operations in the same order as on one thread, and the bits are
    the same.  The worker runs under this thread's numpy error state
    (:func:`submit`).  The call returns once the worker has applied
    everything, and raises the worker's first exception, if any.  It holds
    BLAS to one thread (:func:`one_blas_thread`), the worker's products too.
    """
    if loss.data.shape != ():
        raise ValueError("backward requires a scalar loss, got shape %s"
                         % (loss.data.shape,))
    if not loss.requires_grad:
        return

    order = _toposort(loss)
    pass_grads = {id(loss): np.ones(())}
    # keys whose gradient is an array made here, which no grad_fn has seen,
    # so later contributions are added into it in place
    owned = set()
    # the executor starts its thread at the first submit, so a graph of
    # small leaves only starts none
    with one_blas_thread(), ThreadPoolExecutor(max_workers=1) as worker:
        applied = []

        def arrive(leaf, g):
            if leaf.grad_view.size >= WORKER_LEAF_SIZE:
                applied.append(submit(worker, _arrive, leaf, g))
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
                acc = pass_grads.get(key)
                if isinstance(parent, GradLeaf):
                    arrive(parent, pg)
                elif isinstance(pg, _Columns):
                    pass_grads[key] = (pg() if acc is None else pg.added_to(
                        acc, acc if key in owned else np.empty(acc.shape)))
                    owned.add(key)
                elif acc is None:
                    pass_grads[key] = pg
                elif key in owned:
                    np.add(acc, pg, out=acc)
                else:
                    pass_grads[key] = acc + pg
                    owned.add(key)
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
