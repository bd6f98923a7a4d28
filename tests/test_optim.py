import sys
import threading

import numpy as np
import pytest

import spanparser.autodiff as ad
from spanparser import optim
from spanparser.autodiff import backward
from spanparser.checkpoint import load_checkpoint, save_checkpoint
from spanparser.optim import (
    ADAM_BETAS, ADAM_EPS, BLOCK, MIN_WORKER_BLOCKS, OptimizerError,
    ParameterStore, adam_step, embedding_init, glorot_uniform, ones,
)
from spanparser.toydata import toy_treebank

from support import plain_leaf, reference_backward, set_grad, tiny_model

TREES = toy_treebank(6, seed=4)


def filled(values):
    """An init that copies ``values`` into the parameter's view."""
    return lambda out: np.copyto(out, values)


@pytest.fixture
def short_switch_interval():
    """Switch threads as often as the interpreter allows, so that main and
    worker threads interleave at every bytecode boundary they can."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def store_of(**arrays):
    """An allocated store holding a copy of each array, in keyword order."""
    store = ParameterStore()
    for name, x in arrays.items():
        store.add(name, np.shape(x), filled(x))
    store.allocate()
    return store


def test_store_ordering_and_duplicates():
    store = ParameterStore()
    a = store.add("w.a", (2, 3))
    b = store.add("w.b", (4,), ones)
    assert list(store) == [a, b]
    assert store["w.b"] is b
    assert "w.a" in store and "w.z" not in store
    assert store.num_values() == 10
    with pytest.raises(ValueError):
        store.add("w.a", (1,))
    store.allocate()
    assert np.array_equal(store.data, [0.0] * 6 + [1.0] * 4)
    assert (a.start, a.stop, b.start, b.stop) == (0, 6, 6, 10)
    with pytest.raises(ValueError):
        store.add("w.c", (1,))


def test_snapshot_restore_is_a_deep_copy():
    store = store_of(x=np.arange(4.0))
    p = store["x"]
    snap = store.snapshot()
    p.data[...] *= 10
    store.restore(snap)
    assert np.array_equal(p.data, np.arange(4.0))
    snap[0] = 99.0
    assert p.data[0] == 0.0
    # a later snapshot can be written into an earlier one's array
    p.data[...] += 1
    assert store.snapshot(snap) is snap
    assert np.array_equal(snap, np.arange(4.0) + 1)
    assert not np.shares_memory(snap, store.data)


def test_adam_first_step_matches_hand_computation():
    # with zero moments, one step moves each coordinate by lr * g/(|g|+eps')
    # where the bias corrections cancel to g / (sqrt(g^2) + eps/corr)
    store = store_of(x=np.array([1.0, -2.0, 3.0]))
    p = store["x"]
    g = np.array([0.5, -1.5, 0.0])
    set_grad(p, g)
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
    assert store.steps == 1


def test_adam_two_steps_track_reference_formula():
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal(5)
    store = store_of(x=x0)
    p = store["x"]
    b1, b2 = ADAM_BETAS
    m = np.zeros(5)
    v = np.zeros(5)
    x = x0.copy()
    for t in (1, 2):
        g = rng.standard_normal(5)
        set_grad(p, g)
        adam_step(store, lr=0.01)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x = x - 0.01 * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t))
                                              + ADAM_EPS)
        assert np.allclose(p.data, x, atol=1e-14)


def assert_adam_is_the_reference_expressions(shapes, missing, seed=5):
    """Five steps of adam_step on a store of ``shapes`` equal, bit for bit,
    the whole-array expressions of each parameter's update; at step t the
    parameter ``missing[t]`` gets no gradient, its grad view still holding
    an earlier step's."""
    rng = np.random.default_rng(seed)
    ref = {name: [rng.standard_normal(shape), np.zeros(shape),
                  np.zeros(shape)] for name, shape in shapes.items()}
    store = store_of(**{name: x for name, (x, _, _) in ref.items()})
    b1, b2 = ADAM_BETAS
    for t in range(1, 6):
        lr = 0.01 * t
        for name, p in store.items():
            g = None if missing.get(t) == name else rng.standard_normal(
                shapes[name])
            if g is None:
                p.clear_grad()
            else:
                set_grad(p, g)
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
            assert np.array_equal(store.m[p.start:p.stop], m.ravel())
            assert np.array_equal(store.v[p.start:p.stop], v.ravel())
    assert store.steps == 5


def test_in_place_adam_is_bitwise_the_reference_expressions():
    # one pass of blocks over the arenas, some of which span two
    # parameters; step 3 has no gradient for "b"; "d" spans two whole
    # blocks and a partial third
    assert_adam_is_the_reference_expressions(
        {"a": (3, 4), "b": (7,), "c": (2, 5), "d": (2, BLOCK + 123)},
        missing={3: "b"})


@pytest.mark.parametrize("cpus", [1, 2, 3, 5])
def test_threaded_adam_is_bitwise_the_reference_expressions(
        cpus, monkeypatch, short_switch_interval):
    # 42 blocks, the last one partial, split into min(cpus, 42 // 8)
    # pieces that tile the arenas; a piece boundary falls inside "e"
    pieces = []
    blocks = optim._adam_blocks

    def recorded(store, coefficients, start, stop):
        pieces.append((start, stop, threading.get_ident()))
        blocks(store, coefficients, start, stop)

    monkeypatch.setattr(optim, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(optim, "_adam_blocks", recorded)
    shapes = {"a": (3, 4), "b": (7,), "c": (2, 5), "d": (2, BLOCK + 123),
              "e": (40, BLOCK - 7)}
    size = sum(int(np.prod(shape)) for shape in shapes.values())
    assert size // BLOCK == 41 and size % BLOCK
    assert_adam_is_the_reference_expressions(shapes, missing={2: "e",
                                                              4: "a"})
    expected = min(cpus, 42 // MIN_WORKER_BLOCKS)
    for step in range(5):
        ranges = sorted(pieces[step * expected:(step + 1) * expected])
        assert [r[0] for r in ranges] == [0] + [r[1] for r in ranges[:-1]]
        assert ranges[-1][1] == size
        assert all(start % BLOCK == 0 for start, _, _ in ranges)
        # the calling thread updates the first piece, workers the others
        main = threading.main_thread().ident
        assert [ident == main for _, _, ident in ranges] == (
            [True] + [False] * (expected - 1))
    assert len(pieces) == 5 * expected


@pytest.mark.parametrize("argument, value", [
    ("lr", -1e-3), ("lr", np.inf), ("lr", np.nan),
    ("eps", 0.0), ("eps", -1e-8), ("eps", np.inf), ("eps", np.nan),
    ("beta1", -0.1), ("beta1", 1.0), ("beta2", 1.5), ("beta2", np.nan),
])
def test_bad_adam_arguments_raise_before_any_update(argument, value):
    store = store_of(a=np.ones(3), b=np.ones((2, 2)))
    set_grad(store["a"], np.full(3, 0.5))
    set_grad(store["b"], np.ones((2, 2)))
    adam_step(store, lr=0.1)
    set_grad(store["a"], np.ones(3))
    before = [a.copy() for a in (store.data, store.m, store.v, store.grad)]
    kwargs = {"lr": 0.1, "eps": ADAM_EPS, "betas": list(ADAM_BETAS)}
    if argument.startswith("beta"):
        kwargs["betas"][int(argument[-1]) - 1] = value
    else:
        kwargs[argument] = value
    with pytest.raises(ValueError) as e:
        adam_step(store, **kwargs)
    assert argument in str(e.value)
    for a, b in zip((store.data, store.m, store.v, store.grad), before):
        assert np.array_equal(a, b)
    assert store.steps == 1
    assert store["a"].grad is not None and store["b"].grad is None


def test_an_exception_in_an_adam_worker_surfaces(monkeypatch):
    blocks = optim._adam_blocks

    def failing(store, coefficients, start, stop):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("worker piece %d:%d" % (start, stop))
        blocks(store, coefficients, start, stop)

    monkeypatch.setattr(optim, "usable_cpus", lambda: 2)
    monkeypatch.setattr(optim, "_adam_blocks", failing)
    store = store_of(a=np.ones(2 * MIN_WORKER_BLOCKS * BLOCK))
    set_grad(store["a"], np.ones(store.size))
    threads = threading.active_count()
    with pytest.raises(MemoryError, match="worker piece"):
        adam_step(store, lr=0.1)
    assert threading.active_count() == threads


def test_missing_gradient_decays_moments():
    store = store_of(x=np.zeros(2))
    set_grad(store["x"], np.ones(2))
    adam_step(store, lr=0.0)
    m1 = store.m.copy()
    adam_step(store, lr=0.0)  # no grad this time
    assert np.allclose(store.m, ADAM_BETAS[0] * m1)
    assert store.steps == 2


def test_nonfinite_gradient_aborts_without_mutation():
    store = store_of(a=np.ones(2), b=np.ones(2), c=np.ones(2 * BLOCK + 5))
    good, bad, big = store["a"], store["b"], store["c"]

    def assert_untouched():
        assert np.all(store.data == 1.0) and store.steps == 0
        assert not store.m.any() and not store.v.any()
        for p in (good, bad):
            assert p.grad is not None

    set_grad(good, np.ones(2))
    set_grad(bad, [1.0, np.nan])
    with pytest.raises(OptimizerError) as e:
        adam_step(store, lr=0.1)
    assert "'b'" in str(e.value)
    # nothing moved, no moments updated, grads still present
    assert_untouched()

    set_grad(bad, [np.inf, 0.0])
    with pytest.raises(OptimizerError):
        adam_step(store, lr=0.1)

    # a NaN deep in a later block of a large parameter
    set_grad(bad, np.ones(2))
    set_grad(big, np.ones(2 * BLOCK + 5))
    big.tensor.grad[BLOCK + 7] = np.nan
    with pytest.raises(OptimizerError) as e:
        adam_step(store, lr=0.1)
    assert "'c'" in str(e.value)
    assert_untouched()
    assert big.grad is not None

    # finite gradients whose squares overflow would make v infinite and
    # freeze their coordinates, so they are rejected too
    big.tensor.grad[BLOCK + 7] = 1e160
    big.tensor.grad[0] = -1e160
    with pytest.raises(OptimizerError) as e:
        adam_step(store, lr=0.1)
    assert "'c'" in str(e.value)
    assert_untouched()
    assert big.grad is not None

    # so are gradients whose own square sums are finite (1.44e308 and
    # 1.69e308) when the square sum of the whole arena is not
    set_grad(good, [1.2e154, 0.0])
    set_grad(bad, [0.0, 1.3e154])
    set_grad(big, np.ones(2 * BLOCK + 5))
    with pytest.raises(OptimizerError) as e:
        adam_step(store, lr=0.1)
    assert "'b'" in str(e.value)
    assert_untouched()


@pytest.mark.parametrize("fault", ["foreign gradient", "rebound grad view"])
def test_gradient_outside_the_grad_arena_is_rejected_before_any_update(
        fault):
    # either would leave the arena's own, stale values to the update
    store = store_of(a=np.ones(3), b=np.ones((4, 3)))
    set_grad(store["a"], np.ones(3))
    b = store["b"].tensor
    if fault == "foreign gradient":
        b.grad = np.ones((4, 3))
    else:
        b.grad_view = np.ones((4, 3))
        b.grad = b.grad_view
    with pytest.raises(ValueError) as e:
        adam_step(store, lr=0.1)
    assert "'b'" in str(e.value)
    assert np.all(store.data == 1.0) and store.steps == 0
    assert not store.m.any() and not store.v.any()


def test_rebound_parameter_is_rejected_before_any_update():
    # a tensor whose array is no longer its view of the data arena would
    # be left out of the update, and of a saved checkpoint
    store = store_of(a=np.ones(3), b=np.ones((4, 3)), c=np.ones(2))
    good = store["a"]
    set_grad(good, np.ones(3))
    b = store["b"]
    for rebound in (np.ones((4, 3)), np.ones((3, 4)).T,
                    store.data[3:15].reshape(3, 4),
                    store.data[4:16].reshape(4, 3)):
        b.tensor.data = rebound
        with pytest.raises(ValueError) as e:
            adam_step(store, lr=0.1)
        assert "'b'" in str(e.value)
        assert np.all(store.data == 1.0) and store.steps == 0
    # a fresh view at the parameter's own offsets is its view
    b.tensor.data = store.data[3:15].reshape(4, 3)
    adam_step(store, lr=0.1)
    assert store.steps == 1


def test_in_place_inits_match_the_old_draws():
    # glorot (also with per-block fans), embedding, ones and zero inits
    # written into a store's views draw bitwise what the former
    # array-returning expressions drew from the same seed, in order
    def old_glorot(rng, shape, fans=None):
        fan_in, fan_out = fans if fans is not None else (shape[0], shape[-1])
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=shape)

    rng = np.random.default_rng(17)
    expected = {
        "w": old_glorot(rng, (5, 8)),
        "emb": rng.standard_normal((9, 4)) / np.sqrt(4),
        "gain": np.ones(4),
        "bias": np.zeros(3),
        "heads": old_glorot(rng, (6, 12), (6, 3)),
        "table": rng.standard_normal((3, 7)) / np.sqrt(7),
    }
    rng = np.random.default_rng(17)
    store = ParameterStore()
    store.add("w", (5, 8), lambda out: glorot_uniform(rng, out))
    store.add("emb", (9, 4), lambda out: embedding_init(rng, out))
    store.add("gain", (4,), ones)
    store.add("bias", (3,))
    store.add("heads", (6, 12), lambda out: glorot_uniform(rng, out, (6, 3)))
    store.add("table", (3, 7), lambda out: embedding_init(rng, out))
    store.allocate()
    for name, p in store.items():
        assert np.array_equal(p.data, expected[name]), name
    assert np.array_equal(store.data, np.concatenate(
        [x.ravel() for x in expected.values()]))


def test_glorot_and_embedding_init_scales():
    rng = np.random.default_rng(3)
    w = np.empty((400, 200))
    glorot_uniform(rng, w)
    limit = np.sqrt(6.0 / 600)
    assert np.abs(w).max() <= limit
    assert np.abs(w).max() > 0.9 * limit
    e = np.empty((1000, 64))
    embedding_init(rng, e)
    norms = np.linalg.norm(e, axis=1)
    assert 0.8 < norms.mean() < 1.2


def test_parameter_wraps_requires_grad_tensor():
    store = ParameterStore()
    p = store.add("x", (2, 2))
    assert p.tensor is None
    store.allocate()
    assert p.tensor.requires_grad
    assert p.grad is None
    set_grad(p, np.ones((2, 2)))
    p.clear_grad()
    assert p.grad is None


def batch_grads(model, seed=5):
    """Every parameter's gradient (a copy, or None) after a cleared
    backward of one packed training batch of TREES."""
    for p in model.store:
        p.clear_grad()
    batch = [(t.sentence(), model.gold_binary(t), None) for t in TREES]
    _, loss = model.batch_loss(batch, train=True,
                               rng=np.random.default_rng(seed))
    assert loss is not None
    backward(loss)
    return {name: None if p.grad is None else p.grad.copy()
            for name, p in model.store.items()}


def assert_grads_are_arena_views(store):
    grads = [p for p in store if p.grad is not None]
    assert grads
    for p in grads:
        assert p.grad is p.tensor.grad_view
        assert p.grad.base is store.grad and p.grad.shape == p.shape
        assert p.grad.ctypes.data == store.grad.ctypes.data + 8 * p.start
        assert np.array_equal(p.grad.ravel(), store.grad[p.start:p.stop])


def test_backward_fills_the_grad_arena_of_fresh_and_loaded_models(tmp_path):
    model = tiny_model(TREES, mode="char-lstm")
    store = model.store
    assert all(a.shape == (store.size,) and a.dtype == "<f8"
               for a in (store.data, store.grad, store.m, store.v))
    batch_grads(model)
    assert_grads_are_arena_views(model.store)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    again = load_checkpoint(path)
    assert not again.store.grad.any()
    assert all(p.grad is None for p in again.store)
    batch_grads(again)
    assert_grads_are_arena_views(again.store)
    # clearing zeroes nothing; the next backward overwrites the view
    p = again.store["scorer.m1"]
    before = p.grad.copy()
    p.clear_grad()
    assert p.grad is None and np.array_equal(p.tensor.grad_view, before)
    p.tensor.grad_view.fill(np.nan)
    assert np.array_equal(batch_grads(again)["scorer.m1"], before)
    assert p.grad is p.tensor.grad_view
    # training's own steps drop each gradient, and keep the views
    adam_step(again.store, lr=1e-3)
    assert all(p.grad is None for p in again.store)


@pytest.mark.parametrize("variant", [
    "additive-unfactored", "concatenative-unfactored", "factored",
    "position-only", "block-sparse-additive"])
@pytest.mark.parametrize("mode", ["tags", "char-lstm"])
def test_arena_gradients_are_bitwise_the_plain_leaf_gradients(
        variant, mode, monkeypatch, short_switch_interval):
    # the same batch with every parameter a plain leaf, through the
    # reference accumulation that keeps every node's gradient; the arena
    # gradients are taken as training takes them, where the toy leaves are
    # all below backward's worker size, and with every leaf's
    # contributions applied on the worker thread
    model = tiny_model(TREES, mode, variant, seed=2)
    arrive = ad._arrive
    on_worker = []

    def recorded(leaf, g):
        on_worker.append(threading.current_thread()
                         is not threading.main_thread())
        arrive(leaf, g)

    monkeypatch.setattr(ad, "_arrive", recorded)
    in_arena = {}
    for size in (ad.WORKER_LEAF_SIZE, 0):
        monkeypatch.setattr(ad, "WORKER_LEAF_SIZE", size)
        in_arena[size] = batch_grads(model)
        assert on_worker and set(on_worker) == {size == 0}, size
        on_worker.clear()
    for p in model.store:
        p.tensor = plain_leaf(p.data)
    batch = [(t.sentence(), model.gold_binary(t), None) for t in TREES]
    _, loss = model.batch_loss(batch, train=True,
                               rng=np.random.default_rng(5))
    reference_backward(loss)
    for size, grads in in_arena.items():
        for name, p in model.store.items():
            if grads[name] is None:
                assert p.grad is None, (name, size)
            else:
                assert np.array_equal(grads[name], p.grad), (name, size)
