import numpy as np
import pytest

from spanparser.optim import (
    ADAM_BETAS, ADAM_EPS, BLOCK, OptimizerError, Parameter, ParameterStore,
    adam_step, embedding_init, glorot_uniform,
)


def test_store_ordering_and_duplicates():
    store = ParameterStore()
    a = store.add("w.a", np.zeros((2, 3)))
    b = store.add("w.b", np.ones(4))
    assert list(store) == [a, b]
    assert store["w.b"] is b
    assert "w.a" in store and "w.z" not in store
    assert store.num_values() == 10
    with pytest.raises(ValueError):
        store.add("w.a", np.zeros(1))


def test_snapshot_restore_is_a_deep_copy():
    store = ParameterStore()
    p = store.add("x", np.arange(4.0))
    snap = store.snapshot()
    p.tensor.data = p.data * 10
    store.restore(snap)
    assert np.array_equal(p.data, np.arange(4.0))
    snap["x"][0] = 99.0
    assert p.data[0] == 0.0


def test_adam_first_step_matches_hand_computation():
    # with zero moments, one step moves each coordinate by lr * g/(|g|+eps')
    # where the bias corrections cancel to g / (sqrt(g^2) + eps/corr)
    store = ParameterStore()
    p = store.add("x", np.array([1.0, -2.0, 3.0]))
    g = np.array([0.5, -1.5, 0.0])
    p.tensor.grad = g.copy()
    adam_step(store, lr=0.1)
    b1, b2 = ADAM_BETAS
    m = (1 - b1) * g
    v = (1 - b2) * g * g
    m_hat = m / (1 - b1)
    v_hat = v / (1 - b2)
    expected = np.array([1.0, -2.0, 3.0]) - 0.1 * m_hat / (np.sqrt(v_hat)
                                                           + ADAM_EPS)
    assert np.allclose(p.data, expected, atol=1e-12)
    # the zero-gradient coordinate is untouched on the first step
    assert p.data[2] == 3.0
    assert p.grad is None
    assert p.steps == 1


def test_adam_two_steps_track_reference_formula():
    store = ParameterStore()
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal(5)
    p = store.add("x", x0.copy())
    b1, b2 = ADAM_BETAS
    m = np.zeros(5)
    v = np.zeros(5)
    x = x0.copy()
    for t in (1, 2):
        g = rng.standard_normal(5)
        p.tensor.grad = g.copy()
        adam_step(store, lr=0.01)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x = x - 0.01 * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t))
                                              + ADAM_EPS)
        assert np.allclose(p.data, x, atol=1e-14)


def test_in_place_adam_is_bitwise_the_reference_expressions():
    # several parameters of different shapes share the scratch buffers;
    # step 3 has no gradient for "b"; "d" spans two whole blocks and a
    # partial third
    rng = np.random.default_rng(5)
    shapes = {"a": (3, 4), "b": (7,), "c": (2, 5), "d": (2, BLOCK + 123)}
    store = ParameterStore()
    ref = {}
    for name, shape in shapes.items():
        x = rng.standard_normal(shape)
        store.add(name, x.copy())
        ref[name] = [x, np.zeros(shape), np.zeros(shape)]
    b1, b2 = ADAM_BETAS
    for t in range(1, 6):
        lr = 0.01 * t
        for name, p in store.items():
            g = None if (t, name) == (3, "b") else rng.standard_normal(
                shapes[name])
            p.tensor.grad = None if g is None else g.copy()
            g = 0.0 if g is None else g
            x, m, v = ref[name]
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * np.square(g)
            m_hat = m / (1.0 - b1 ** t)
            v_hat = v / (1.0 - b2 ** t)
            ref[name] = [x - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS), m, v]
        adam_step(store, lr=lr)
        for name, p in store.items():
            x, m, v = ref[name]
            assert np.array_equal(p.data, x)
            assert np.array_equal(p.m, m)
            assert np.array_equal(p.v, v)


def test_missing_gradient_decays_moments():
    store = ParameterStore()
    p = store.add("x", np.zeros(2))
    p.tensor.grad = np.ones(2)
    adam_step(store, lr=0.0)
    m1 = p.m.copy()
    adam_step(store, lr=0.0)  # no grad this time
    assert np.allclose(p.m, ADAM_BETAS[0] * m1)
    assert p.steps == 2


def test_nonfinite_gradient_aborts_without_mutation():
    store = ParameterStore()
    good = store.add("a", np.ones(2))
    bad = store.add("b", np.ones(2))
    good.tensor.grad = np.ones(2)
    bad.tensor.grad = np.array([1.0, np.nan])
    with pytest.raises(OptimizerError) as e:
        adam_step(store, lr=0.1)
    assert "'b'" in str(e.value)
    # nothing moved, no moments updated, grads still present
    assert np.array_equal(good.data, np.ones(2))
    assert np.allclose(good.m, 0.0) and good.steps == 0
    assert good.grad is not None

    bad.tensor.grad = np.array([np.inf, 0.0])
    with pytest.raises(OptimizerError):
        adam_step(store, lr=0.1)

    # a NaN deep in a later block of a large parameter
    big = store.add("c", np.ones(2 * BLOCK + 5))
    bad.tensor.grad = np.ones(2)
    big.tensor.grad = np.ones(2 * BLOCK + 5)
    big.tensor.grad[BLOCK + 7] = np.nan
    with pytest.raises(OptimizerError) as e:
        adam_step(store, lr=0.1)
    assert "'c'" in str(e.value)
    for p in (good, bad, big):
        assert np.all(p.data == 1.0) and p.steps == 0
        assert not p.m.any() and not p.v.any()
        assert p.grad is not None

    # finite gradients whose squares overflow are accepted
    big.tensor.grad[BLOCK + 7] = 1e160
    big.tensor.grad[0] = -1e160
    with np.errstate(over="ignore"):
        adam_step(store, lr=0.1)
    assert big.steps == 1 and np.all(np.isfinite(big.data))


def test_non_contiguous_parameter_is_rejected_before_any_update():
    # a block of a strided array would be a copy, and its update lost
    store = ParameterStore()
    good = store.add("a", np.ones(3))
    strided = store.add("b", np.ones((4, 3)))
    strided.tensor.data = np.ones((3, 4)).T
    good.tensor.grad = np.ones(3)
    with pytest.raises(OptimizerError) as e:
        adam_step(store, lr=0.1)
    assert "'b'" in str(e.value)
    assert np.all(good.data == 1.0) and good.steps == 0


def test_glorot_and_embedding_init_scales():
    rng = np.random.default_rng(3)
    w = glorot_uniform(rng, (400, 200))
    limit = np.sqrt(6.0 / 600)
    assert np.abs(w).max() <= limit
    assert np.abs(w).max() > 0.9 * limit
    e = embedding_init(rng, (1000, 64))
    norms = np.linalg.norm(e, axis=1)
    assert 0.8 < norms.mean() < 1.2


def test_parameter_wraps_requires_grad_tensor():
    p = Parameter("x", np.zeros((2, 2)))
    assert p.tensor.requires_grad
    assert p.grad is None
    p.tensor.grad = np.ones((2, 2))
    p.clear_grad()
    assert p.grad is None
