"""Trainable parameters, their initialization, and the Adam update."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
# values per block of adam_step: its six block-sized operands (data, m, v,
# the gradient and two scratch buffers) take 1.5 MB
BLOCK = 32768


class OptimizerError(RuntimeError):
    """Raised when an update cannot be applied safely (non-finite grads)."""


class Parameter:
    """A named trainable tensor: values ``start:stop`` of its store's data
    arena, whose view ``tensor`` holds once the store is allocated."""

    __slots__ = ("name", "shape", "start", "stop", "tensor")

    def __init__(self, name: str, shape, start: int):
        self.name = name
        self.shape = tuple(shape)
        self.start = start
        self.stop = start + int(np.prod(self.shape, dtype=np.int64))
        self.tensor = None

    @property
    def data(self):
        return self.tensor.data

    @property
    def grad(self):
        return self.tensor.grad

    def clear_grad(self):
        self.tensor.grad = None

    def __repr__(self):
        return "Parameter(%r, shape=%s)" % (self.name, self.shape)


class ParameterStore:
    """Ordered registry of parameters over three flat float64 arenas of one
    layout, little-endian like the checkpoint payload: ``data`` (every
    parameter's values, in insertion order) and Adam's moments ``m`` and
    ``v``; ``steps`` counts Adam steps.  ``add`` records the layout, then
    ``allocate`` creates the arenas and writes each initialization into its
    view.  Insertion order defines the checkpoint layout, so construction
    must be deterministic.
    """

    def __init__(self):
        self._params = {}
        self._inits = []
        self.size = 0
        self.data = self.m = self.v = None
        self.steps = 0

    def add(self, name: str, shape, init=None) -> Parameter:
        """Register a parameter of ``shape``.  ``init(out)``, if given,
        fills its view when the store is allocated; without one it stays
        zero."""
        if self.data is not None:
            raise ValueError("cannot add parameter %r: the store is "
                             "already allocated" % name)
        if name in self._params:
            raise ValueError("duplicate parameter name %r" % name)
        p = Parameter(name, shape, self.size)
        self.size = p.stop
        self._params[name] = p
        self._inits.append(init)
        return p

    def allocate(self, draw: bool = True) -> None:
        """Create the zeroed arenas, give every parameter its view, and run
        each ``init`` in insertion order (none when ``draw`` is false)."""
        self.data, self.m, self.v = (np.zeros(self.size, dtype="<f8")
                                     for _ in range(3))
        for p, init in zip(self, self._inits):
            p.tensor = Tensor(self.data[p.start:p.stop].reshape(p.shape),
                              requires_grad=True)
            if draw and init is not None:
                init(p.tensor.data)
        self._inits = None

    def check_views(self) -> None:
        """Raise ValueError, naming the parameter, unless every tensor still
        holds its view of the data arena (``p.data[...] = x`` keeps it,
        ``p.tensor.data = x`` does not)."""
        start = self.data.ctypes.data
        for p in self:
            a = p.tensor.data
            if (a.base is not self.data or a.shape != p.shape
                    or a.ctypes.data != start + 8 * p.start
                    or not a.flags.c_contiguous):
                raise ValueError("parameter %r no longer holds its view of "
                                 "the store's data arena" % p.name)

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def __contains__(self, name) -> bool:
        return name in self._params

    def __iter__(self):
        return iter(self._params.values())

    def __len__(self):
        return len(self._params)

    def items(self):
        return self._params.items()

    def num_values(self) -> int:
        return self.size

    def snapshot(self, out: np.ndarray = None) -> np.ndarray:
        """A copy of the data arena, into ``out`` (an earlier one) if given."""
        out = np.empty_like(self.data) if out is None else out
        np.copyto(out, self.data)
        return out

    def restore(self, snap: np.ndarray) -> None:
        """Copy a snapshot back into the data arena."""
        np.copyto(self.data, snap)


def glorot_uniform(rng: np.random.Generator, out: np.ndarray,
                   fans=None) -> None:
    """Glorot/Xavier uniform init of ``out`` in place; bitwise
    ``rng.uniform(-limit, limit, out.shape)``.  ``fans`` overrides
    (fan_in, fan_out), so a stack of per-head blocks keeps each block's own
    limit."""
    fan_in, fan_out = fans or (out.shape[0], out.shape[-1])
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    rng.random(out=out)
    out *= 2 * limit
    out -= limit


def embedding_init(rng: np.random.Generator, out: np.ndarray) -> None:
    """Normal embeddings scaled to keep row norms O(1), N(0, 1)/sqrt(dim),
    drawn into ``out`` in place."""
    rng.standard_normal(out=out)
    out /= np.sqrt(out.shape[-1])


def ones(out: np.ndarray) -> None:
    out.fill(1.0)


def adam_step(store: ParameterStore, lr: float,
              betas=ADAM_BETAS, eps: float = ADAM_EPS) -> None:
    """One Adam update of every parameter in ``store``.

    Parameters without gradients are treated as having zero gradient (their
    moments still decay).  A gradient whose square sum ``np.dot(g, g)`` is
    not finite (NaN, infinity, a value above about 1.3e154, or n values near
    1.3e154 / sqrt(n), whose squares overflow only in the sum) aborts before
    any state is touched, so a failed step leaves the model unchanged.
    The ``data``, ``m`` and ``v`` arenas are updated in place with
    the operations of m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2,
    data -= lr m_hat / (sqrt(v_hat) + eps) in that order.  Every operation
    is elementwise, so they run block by block over each parameter's slice
    of the arenas (BLOCK values at a time, through two BLOCK-sized scratch
    buffers): a block's operands stay in cache from the first operation to
    the last, and the result is bitwise that of whole-array operations.
    """
    store.check_views()
    b1, b2 = betas
    for p in store:
        if p.grad is None:
            continue
        g = np.ravel(p.grad)
        # one read of g; the sum can overflow where no single square does
        with np.errstate(over="ignore"):
            square_sum = np.dot(g, g)
        if not np.isfinite(square_sum):
            raise OptimizerError(
                "non-finite gradient square sum for parameter %r" % p.name)
    store.steps += 1
    m_corr = 1.0 - b1 ** store.steps
    v_corr = 1.0 - b2 ** store.steps
    scratch = np.empty(BLOCK), np.empty(BLOCK)
    data, m, v = store.data, store.m, store.v
    for p in store:
        grad = None if p.grad is None else np.ravel(p.grad)
        for start in range(p.start, p.stop, BLOCK):
            end = min(start + BLOCK, p.stop)
            x, mb, vb = data[start:end], m[start:end], v[start:end]
            g = 0.0 if grad is None else grad[start - p.start:end - p.start]
            a, b = scratch[0][:end - start], scratch[1][:end - start]
            np.multiply(mb, b1, out=mb)
            np.multiply(g, 1.0 - b1, out=a)
            np.add(mb, a, out=mb)
            np.multiply(vb, b2, out=vb)
            np.square(g, out=a)
            np.multiply(a, 1.0 - b2, out=a)
            np.add(vb, a, out=vb)
            np.divide(mb, m_corr, out=a)    # m_hat
            np.divide(vb, v_corr, out=b)    # v_hat
            np.sqrt(b, out=b)
            np.add(b, eps, out=b)
            np.multiply(a, lr, out=a)
            np.divide(a, b, out=a)
            np.subtract(x, a, out=x)
        p.clear_grad()
