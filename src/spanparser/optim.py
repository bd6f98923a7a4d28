"""Trainable parameters, their initialization, and the Adam update."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


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
        return {name: p.data.copy() for name, p in self.items()}

    def restore(self, snap: dict) -> None:
        for name, p in self.items():
            p.tensor.data = snap[name].copy()


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
    and ``v`` are updated in place, through two scratch buffers, with the
    operations of m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2,
    data -= lr m_hat / (sqrt(v_hat) + eps) in that order.
    """
    params = list(params)
    b1, b2 = betas
    for p in params:
        g = p.grad
        if g is not None and not np.all(np.isfinite(g)):
            raise OptimizerError(
                "non-finite gradient for parameter %r" % p.name)
    size = max((p.data.size for p in params), default=0)
    scratch = np.empty(size), np.empty(size)
    for p in params:
        g = p.grad if p.grad is not None else 0.0
        p.steps += 1
        a, b = (buf[:p.data.size].reshape(p.data.shape) for buf in scratch)
        np.multiply(p.m, b1, out=p.m)
        np.multiply(g, 1.0 - b1, out=a)
        np.add(p.m, a, out=p.m)
        np.multiply(p.v, b2, out=p.v)
        np.square(g, out=a)
        np.multiply(a, 1.0 - b2, out=a)
        np.add(p.v, a, out=p.v)
        np.divide(p.m, 1.0 - b1 ** p.steps, out=a)   # m_hat
        np.divide(p.v, 1.0 - b2 ** p.steps, out=b)   # v_hat
        np.sqrt(b, out=b)
        np.add(b, eps, out=b)
        np.multiply(a, lr, out=a)
        np.divide(a, b, out=a)
        np.subtract(p.data, a, out=p.data)
        p.clear_grad()
