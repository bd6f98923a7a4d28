"""Trainable parameters, their initialization, and the Adam update."""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .autodiff import GradLeaf, submit

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
# values per block of adam_step: its six block-sized operands (data, m, v,
# the gradient and two scratch buffers) take 1.5 MB
BLOCK = 32768
# values per np.dot of adam_step's gate: OpenBLAS splits a dot of more than
# 10000 values across threads of its own, and the split changes the
# rounding of the sum with the BLAS thread count
DOT = 8192
# fewest blocks a thread of adam_step takes (about 3 ms of work), so a
# store of fewer than twice as many is updated on the calling thread alone
MIN_WORKER_BLOCKS = 8


class OptimizerError(RuntimeError):
    """Raised when an update cannot be applied safely."""


class Parameter:
    """A named trainable tensor: values ``start:stop`` of its store's
    arenas.  Once the store is allocated, ``tensor`` holds its view of the
    data arena, and its gradient, if any, is its view of the grad arena."""

    __slots__ = ("name", "shape", "start", "stop", "tensor")

    def __init__(self, name: str, shape, start: int):
        self.name = name
        self.shape = tuple(shape)
        self.start = start
        self.stop = start + math.prod(self.shape)
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
    creates the arenas and draws each initialization into its view from a
    seed, or adopts a given data arena, such as a checkpoint's mapped
    payload.
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
        """Register a parameter of ``shape``.  ``init(rng, out)``, if
        given, fills its view ``out`` from the parameter's own generator
        ``rng`` when the store is allocated; without one it stays zero."""
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

    def allocate(self, data: np.ndarray = None, seed: int = 0) -> None:
        """Create the arenas and give every parameter its views.  ``data``,
        if given, is adopted as the data arena as it is, its values the
        parameters' (a checkpoint loader passes the payload mapped from
        its file); it must be a writable 1-d little-endian float64 array
        of the layout's size.  Without it the data arena is zeroed and
        each ``init`` draws from a generator of the parameter's own, spawned
        from ``seed`` (see :func:`_initialize`).
        ``np.zeros`` maps a large arena lazily, so the pages of ``grad``,
        ``m`` and ``v`` of a model that never trains are never touched."""
        if data is not None and (data.dtype != np.dtype("<f8")
                                 or data.shape != (self.size,)
                                 or not data.flags.writeable):
            raise ValueError("a data arena must be a writable <f8 array of "
                             "shape (%d,), got %s %s"
                             % (self.size, data.dtype, data.shape))
        self.data = np.zeros(self.size, dtype="<f8") if data is None else data
        self.grad, self.m, self.v = (np.zeros(self.size, dtype="<f8")
                                     for _ in range(3))
        for p in self:
            p.tensor = GradLeaf(self.data[p.start:p.stop].reshape(p.shape),
                                self.grad[p.start:p.stop].reshape(p.shape))
        if data is None:
            _initialize(self, self._inits, seed)
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


def ones(rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill ``out`` with 1; draws nothing."""
    out.fill(1.0)


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _piece_bounds(size: int) -> list:
    """Bounds of the contiguous pieces that split ``size`` values among
    up to :func:`usable_cpus` threads: each piece but the last is a whole
    number of BLOCKs, and each takes at least MIN_WORKER_BLOCKS blocks, so
    a size of fewer than twice as many is one piece."""
    blocks = -(-size // BLOCK)
    pieces = max(1, min(usable_cpus(), blocks // MIN_WORKER_BLOCKS))
    return [min(size, BLOCK * (blocks * k // pieces))
            for k in range(pieces + 1)]


def _initialize(store: ParameterStore, inits, seed: int) -> None:
    """Call each parameter's ``init(rng, out)`` on its view, ``rng`` its
    own generator: child ``k`` of ``SeedSequence(seed)`` for the parameter
    at insertion index ``k``.  A parameter's values thus depend only on
    the seed and its index, so the parameters are drawn on as many threads
    as :func:`_piece_bounds` splits the data arena into, each parameter by
    the thread whose piece holds its first value, with the same bits."""
    seeds = np.random.SeedSequence(seed).spawn(len(store))
    work = [(p, init, child) for p, init, child in zip(store, inits, seeds)
            if init is not None]
    _on_pieces(_piece_bounds(store.size), _init_piece, work)


def _init_piece(work, start, stop):
    """The inits of the parameters whose first value is in ``start:stop``."""
    for p, init, child in work:
        if start <= p.start < stop:
            init(np.random.default_rng(child), p.data)


def adam_step(store: ParameterStore, lr: float) -> float:
    """One Adam update of every parameter in ``store``, with ADAM_BETAS
    and ADAM_EPS; returns the square sum of the gradients it used (the
    squared global gradient norm).

    ``lr`` must be finite and not negative; otherwise the step raises
    ValueError.  A parameter without a gradient has zero gradient (its
    grad view is zeroed; its moments still decay).

    The step has two phases over the same pieces of the arenas.  The gate
    computes ``np.dot(g, g)`` of each run of DOT values of the grad arena
    and adds these up in order.  If the sum is not finite (a NaN, an
    infinity, a value above about 1.3e154, or values whose squares
    overflow only in the sum), the step raises OptimizerError, naming the
    parameter that holds the largest |g| (the first NaN, if any); then, as
    after a ValueError, ``data``, ``m``, ``v`` and ``steps`` are
    untouched.  The update then goes through the arenas BLOCK values at a
    time, updating each block with the thirteen in-place operations of
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2,
    x -= (m * step) / (sqrt(v) * c + eps), with the bias corrections
    folded into step = lr / (1 - b1^t) and c = 1 / sqrt(1 - b2^t)
    (Kingma & Ba 2015, section 2), so one division per value.  A block's
    operands stay in cache from the first operation to the last, and the
    result is bitwise that of the same whole-array expressions.

    The blocks are split into contiguous pieces, one for each of up to
    :func:`usable_cpus` threads, each taking at least MIN_WORKER_BLOCKS
    blocks; the calling thread takes the first piece, and a single piece
    starts no thread; the others run under this thread's numpy error state
    (:func:`autodiff.submit`).  Every value goes through the same
    operations whichever thread runs them, and the gate's dots are added
    in one order, so neither the update nor the returned sum depends on
    the split, nor on the BLAS thread count: a dot of DOT values runs on
    one OpenBLAS thread.

    An operation that overflows or is invalid (say m * step above the
    largest float) raises OptimizerError naming the parameter.  Each thread
    stops at its first such block, so the step is half done: ``steps`` has
    advanced, ``m`` and ``v`` are updated up to and including the failing
    blocks, ``data`` up to them (a failing block's may hold the non-finite
    result), and the gradients are kept.  Restore a saved copy of the
    data arena first.
    """
    if not (math.isfinite(lr) and lr >= 0.0):
        raise ValueError("adam_step: lr must be finite and not negative, "
                         "got %r" % (lr,))
    store.check_views()
    for p in store:
        if p.grad is None:
            p.tensor.grad_view.fill(0.0)
    bounds = _piece_bounds(store.size)
    squares = np.empty(-(-store.size // DOT))
    _on_pieces(bounds, _square_blocks, store.grad, squares)
    # in order: the sum can overflow where no dot does
    square_sum = sum(squares.tolist())
    if not math.isfinite(square_sum):
        raise OptimizerError(
            "non-finite gradient square sum; parameter %r holds the "
            "largest |g|" % _owner(store, np.argmax(np.abs(store.grad))))
    store.steps += 1
    b1, b2 = ADAM_BETAS
    coefficients = (b1, b2, lr / (1.0 - b1 ** store.steps),
                    1.0 / math.sqrt(1.0 - b2 ** store.steps))
    _on_pieces(bounds, _adam_blocks, store, coefficients)
    for p in store:
        p.clear_grad()
    return square_sum


def _on_pieces(bounds, fn, *args):
    """``fn(*args, start, stop)`` for each piece ``bounds[k]:bounds[k+1]``,
    the first on the calling thread and each other on a thread of its own,
    under this thread's numpy error state; returns once every piece is
    done and the threads are joined, raising the first exception of one.
    An executor starts a thread only when given work, so a single piece
    starts none."""
    with ThreadPoolExecutor(max(1, len(bounds) - 2)) as pool:
        futures = [submit(pool, fn, *args, start, stop)
                   for start, stop in zip(bounds[1:-1], bounds[2:])]
        fn(*args, bounds[0], bounds[1])
        for f in futures:
            f.result()


def _square_blocks(grad, squares, start, stop):
    """The gate: ``squares[k] = g . g`` for each run ``k`` of DOT values
    in values ``start:stop`` of ``grad``.  The whole runs go through one
    stacked matmul of [1, DOT] by [DOT, 1] products, which makes each
    run's dot as np.dot does but releases the GIL once, not once a run."""
    whole = start + (stop - start) // DOT * DOT
    runs = grad[start:whole].reshape(-1, DOT)
    with np.errstate(over="ignore"):    # an overflow is an infinite square
        np.matmul(runs[:, None, :], runs[:, :, None],
                  out=squares[start // DOT:whole // DOT, None, None])
        if whole < stop:
            g = grad[whole:stop]
            squares[whole // DOT] = np.dot(g, g)


def _adam_blocks(store, coefficients, start, stop):
    """The Adam update of values ``start:stop`` of the arenas, BLOCK at a
    time through two scratch buffers of this call's own."""
    b1, b2, step, v_scale = coefficients
    scratch = np.empty(BLOCK), np.empty(BLOCK)
    try:    # numpy checks the floating-point status after every operation
        with np.errstate(over="raise", invalid="raise"):
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
                np.sqrt(vb, out=b)
                np.multiply(b, v_scale, out=b)
                np.add(b, ADAM_EPS, out=b)
                # m * step before the division, so a step too large for
                # the float range overflows here
                np.multiply(mb, step, out=a)
                np.divide(a, b, out=a)
                np.subtract(x, a, out=x)
    except FloatingPointError as exc:
        bad = ~(np.isfinite(x) & np.isfinite(a) & np.isfinite(b))
        raise OptimizerError("adam_step: %s in the update of parameter %r"
                             % (exc, _owner(store, lo + np.argmax(bad)))
                             ) from exc


def _owner(store, k):
    """The name of the parameter holding value ``k`` of the arenas."""
    return next(p.name for p in store if k < p.stop)
