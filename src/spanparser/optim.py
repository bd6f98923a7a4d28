"""Trainable parameters, their initialization, and the Adam update."""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .autodiff import GradLeaf

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
# values per block of adam_step: its six block-sized operands (data, m, v,
# the gradient and two scratch buffers) take 1.5 MB
BLOCK = 32768
# fewest blocks a thread of adam_step takes (about 3 ms of work), so a
# store of fewer than twice as many is updated on the calling thread alone
MIN_WORKER_BLOCKS = 8


class OptimizerError(RuntimeError):
    """Raised when an update cannot be applied safely (non-finite grads)."""


class Parameter:
    """A named trainable tensor: values ``start:stop`` of its store's
    arenas.  Once the store is allocated, ``tensor`` holds its view of the
    data arena, and its gradient, if any, is its view of the grad arena."""

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
        """Drop the gradient without zeroing it: the next backward
        overwrites the grad view."""
        self.tensor.grad = None

    def __repr__(self):
        return "Parameter(%r, shape=%s)" % (self.name, self.shape)


class ParameterStore:
    """Ordered registry of parameters over four flat float64 arenas of one
    layout, little-endian like the checkpoint payload: ``data`` (every
    parameter's values, in insertion order), ``grad`` (where backward
    writes their gradients) and Adam's moments ``m`` and ``v``; ``steps``
    counts Adam steps.  ``add`` records the layout, then ``allocate``
    creates the arenas and writes each initialization into its view.
    Insertion order defines the checkpoint layout, so construction must be
    deterministic.
    """

    def __init__(self):
        self._params = {}
        self._inits = []
        self.size = 0
        self.data = self.grad = self.m = self.v = None
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
        """Create the zeroed arenas, give every parameter its views, and
        run each ``init`` in insertion order (none when ``draw`` is false).
        ``np.zeros`` maps a large arena lazily, so the pages of ``grad``,
        ``m`` and ``v`` of a model that never trains are never touched."""
        self.data, self.grad, self.m, self.v = (
            np.zeros(self.size, dtype="<f8") for _ in range(4))
        for p, init in zip(self, self._inits):
            p.tensor = GradLeaf(self.data[p.start:p.stop].reshape(p.shape),
                                self.grad[p.start:p.stop].reshape(p.shape))
            if draw and init is not None:
                init(p.tensor.data)
        self._inits = None

    def check_views(self) -> None:
        """Raise ValueError, naming the parameter, unless every tensor still
        holds its views of the data and grad arenas (``p.data[...] = x``
        keeps them, ``p.tensor.data = x`` does not) and its ``grad`` is
        None or its grad view."""
        for p in self:
            t = p.tensor
            for a, arena, kind in ((t.data, self.data, "data"),
                                   (t.grad_view, self.grad, "grad")):
                if (a.base is not arena or a.shape != p.shape
                        or a.ctypes.data != arena.ctypes.data + 8 * p.start
                        or not a.flags.c_contiguous):
                    raise ValueError("parameter %r no longer holds its view "
                                     "of the store's %s arena" % (p.name, kind))
            if t.grad is not None and t.grad is not t.grad_view:
                raise ValueError("parameter %r has a gradient that is not "
                                 "its grad view" % p.name)

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


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def adam_step(store: ParameterStore, lr: float,
              betas=ADAM_BETAS, eps: float = ADAM_EPS) -> None:
    """One Adam update of every parameter in ``store``.

    ``lr`` must be finite and not negative, ``eps`` finite and positive and
    each beta in [0, 1); otherwise the step raises ValueError naming the
    argument.  A parameter without a gradient has zero gradient (its grad
    view is zeroed; its moments still decay).  If the grad arena's square
    sum is not finite (a NaN, an infinity, a value above about 1.3e154, or
    values whose squares overflow only in the sum), the step raises
    OptimizerError, naming the parameter that holds the largest |g| (the
    first NaN, if any).  Either way ``data``, ``m``, ``v`` and ``steps``
    are left untouched.  Otherwise the arenas are updated in place with the
    operations of m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2,
    data -= lr m_hat / (sqrt(v_hat) + eps), in that order, BLOCK values at
    a time through two BLOCK-sized scratch buffers.  Every operation is
    elementwise, so a block's operands stay in cache from the first
    operation to the last, and the result is bitwise that of whole-array
    operations.

    The blocks are split into contiguous pieces, one for each of up to
    :func:`usable_cpus` threads, each taking at least MIN_WORKER_BLOCKS
    blocks; the calling thread updates the first piece, and a single piece
    starts no thread.  Since every value goes through the same operations
    whichever thread runs them, the result does not depend on the split.
    """
    if not (math.isfinite(lr) and lr >= 0.0):
        raise ValueError("adam_step: lr must be finite and not negative, "
                         "got %r" % (lr,))
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError("adam_step: eps must be finite and positive, "
                         "got %r" % (eps,))
    b1, b2 = betas
    for name, beta in (("beta1", b1), ("beta2", b2)):
        if not 0.0 <= beta < 1.0:
            raise ValueError("adam_step: %s must be in [0, 1), got %r"
                             % (name, beta))
    store.check_views()
    for p in store:
        if p.grad is None:
            p.tensor.grad_view.fill(0.0)
    grad = store.grad
    # one read of the arena; the sum can overflow where no single square does
    with np.errstate(over="ignore"):
        square_sum = np.dot(grad, grad)
    if not np.isfinite(square_sum):
        k = np.argmax(np.abs(grad))
        name = next(p.name for p in store if k < p.stop)
        raise OptimizerError("non-finite gradient square sum; parameter %r "
                             "holds the largest |g|" % name)
    store.steps += 1
    coefficients = (lr, b1, b2, eps, 1.0 - b1 ** store.steps,
                    1.0 - b2 ** store.steps)
    blocks = -(-store.size // BLOCK)
    pieces = max(1, min(usable_cpus(), blocks // MIN_WORKER_BLOCKS))
    bounds = [min(store.size, BLOCK * (blocks * k // pieces))
              for k in range(pieces + 1)]
    with ThreadPoolExecutor(max(1, pieces - 1)) as pool:
        futures = [pool.submit(_adam_blocks, store, coefficients, start, stop)
                   for start, stop in zip(bounds[1:-1], bounds[2:])]
        _adam_blocks(store, coefficients, bounds[0], bounds[1])
        for f in futures:
            f.result()
    for p in store:
        p.clear_grad()


def _adam_blocks(store, coefficients, start, stop):
    """The Adam update of values ``start:stop`` of the arenas, BLOCK at a
    time through two scratch buffers of this call's own."""
    lr, b1, b2, eps, m_corr, v_corr = coefficients
    scratch = np.empty(BLOCK), np.empty(BLOCK)
    for lo in range(start, stop, BLOCK):
        hi = min(lo + BLOCK, stop)
        x, mb, vb, g = (arena[lo:hi] for arena in
                        (store.data, store.m, store.v, store.grad))
        a, b = (s[:x.size] for s in scratch)
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
