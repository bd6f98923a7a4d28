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
    """A named trainable tensor together with its Adam moment estimates."""

    __slots__ = ("name", "tensor", "m", "v", "steps")

    def __init__(self, name: str, data):
        self.name = name
        self.tensor = Tensor(data, requires_grad=True)
        self.m = np.zeros(self.tensor.shape)
        self.v = np.zeros(self.tensor.shape)
        self.steps = 0

    @property
    def data(self):
        return self.tensor.data

    @property
    def grad(self):
        return self.tensor.grad

    def clear_grad(self):
        self.tensor.grad = None

    def __repr__(self):
        return "Parameter(%r, shape=%s)" % (self.name, self.tensor.shape)


class ParameterStore:
    """Ordered registry of parameters; insertion order defines checkpoint
    layout, so construction must be deterministic.

    ``preset``, when given, maps every parameter name to its array (a
    loaded checkpoint's payload): parameters added with an ``init`` then
    take their preset array and draw nothing.
    """

    def __init__(self, preset: dict = None):
        self._params = {}
        self._preset = preset

    def add(self, name: str, data, init=None) -> Parameter:
        """Register a parameter.  ``data`` is its array, or its shape when
        ``init`` is given; ``init(shape)`` then builds the array, unless a
        preset replaces it."""
        if name in self._params:
            raise ValueError("duplicate parameter name %r" % name)
        if init is not None:
            shape = tuple(data)
            if self._preset is None:
                data = init(shape)
            elif name not in self._preset:
                raise ValueError("no preset array for parameter %r" % name)
            else:
                data = self._preset[name]
                if data.shape != shape:
                    raise ValueError("preset for parameter %r has shape %s "
                                     "but the model expects %s"
                                     % (name, data.shape, shape))
        p = Parameter(name, data)
        self._params[name] = p
        return p

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
        return sum(p.data.size for p in self)

    def snapshot(self) -> dict:
        """A copy of every parameter's values, by name."""
        return {name: p.data.copy() for name, p in self.items()}

    def restore(self, snap: dict) -> None:
        """Copy a snapshot's values back into the parameters' own arrays."""
        for name, p in self.items():
            np.copyto(p.data, snap[name])


def glorot_uniform(rng: np.random.Generator, shape, fans=None) -> np.ndarray:
    """Glorot/Xavier uniform init for weight matrices.  ``fans`` overrides
    (fan_in, fan_out), so a stack of per-head blocks keeps each block's own
    limit."""
    fan_in, fan_out = fans if fans is not None else (shape[0], shape[-1])
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def embedding_init(rng: np.random.Generator, shape) -> np.ndarray:
    """Normal embeddings scaled to keep row norms O(1): N(0, 1)/sqrt(dim)."""
    return rng.standard_normal(shape) / np.sqrt(shape[-1])


def adam_step(params, lr: float,
              betas=ADAM_BETAS, eps: float = ADAM_EPS) -> None:
    """One Adam update over ``params`` (any iterable of Parameter).

    Parameters without gradients are treated as having zero gradient (their
    moments still decay).  Non-finite gradients abort before any state is
    touched, so a failed step leaves the model unchanged.  ``data``, ``m``
    and ``v`` are updated in place with the operations of
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2,
    data -= lr m_hat / (sqrt(v_hat) + eps) in that order.  Every operation
    is elementwise, so they run block by block (BLOCK values at a time,
    through two BLOCK-sized scratch buffers): a block's operands stay in
    cache from the first operation to the last, and the result is bitwise
    that of whole-array operations.
    """
    params = list(params)
    b1, b2 = betas
    for p in params:
        # blocks are slices of a flat view, which only a contiguous array has
        if not p.data.flags.c_contiguous:
            raise OptimizerError(
                "parameter %r is not a contiguous array" % p.name)
        if p.grad is None:
            continue
        g = np.ravel(p.grad)
        # one read of g; the square sum overflows only for |g| near 1e154,
        # which the exact test then tells apart from inf and NaN
        with np.errstate(over="ignore"):
            square_sum = np.dot(g, g)
        if not (np.isfinite(square_sum) or np.all(np.isfinite(g))):
            raise OptimizerError(
                "non-finite gradient for parameter %r" % p.name)
    scratch = np.empty(BLOCK), np.empty(BLOCK)
    for p in params:
        p.steps += 1
        m_corr = 1.0 - b1 ** p.steps
        v_corr = 1.0 - b2 ** p.steps
        data, m, v = p.data.reshape(-1), p.m.reshape(-1), p.v.reshape(-1)
        grad = None if p.grad is None else np.ravel(p.grad)
        for start in range(0, data.size, BLOCK):
            end = min(start + BLOCK, data.size)
            x, mb, vb = data[start:end], m[start:end], v[start:end]
            g = 0.0 if grad is None else grad[start:end]
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
