import functools
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import spanparser
import spanparser.autodiff as ad
from spanparser import optim
from spanparser.autodiff import backward
from spanparser.checkpoint import load_checkpoint, save_checkpoint
from spanparser.encoder import VARIANTS, EncoderConfig
from spanparser.lexical import LexicalConfig
from spanparser.model import SpanParser
from spanparser.optim import (
    ADAM_BETAS, ADAM_EPS, BLOCK, DOT, MIN_WORKER_BLOCKS, OptimizerError,
    ParameterStore, adam_step, embedding_init, glorot_uniform, ones,
)
from spanparser.toydata import toy_treebank
from spanparser.vocab import LabelInventory, Vocabulary

from support import plain_leaf, reference_backward, set_grad, tiny_model

TREES = toy_treebank(6, seed=4)


def filled(values):
    """An init that copies ``values`` into the parameter's view."""
    return lambda rng, out: np.copyto(out, values)


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
    assert store.size == 10
    with pytest.raises(ValueError):
        store.add("w.a", (1,))
    store.allocate()
    assert np.array_equal(store.data, [0.0] * 6 + [1.0] * 4)
    assert (a.start, a.stop, b.start, b.stop) == (0, 6, 6, 10)
    with pytest.raises(ValueError):
        store.add("w.c", (1,))


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


def block_square_sum(g):
    """The gate's square sum: ``g . g`` of each run of DOT values, added in
    order."""
    return sum(np.dot(g[k:k + DOT], g[k:k + DOT])
               for k in range(0, g.size, DOT))


def assert_adam_is_the_reference_expressions(shapes, missing, seed=5):
    """Five steps of adam_step on a store of ``shapes`` equal, bit for bit,
    the whole-array expressions of each parameter's update, with the bias
    corrections folded into the step size and the scale of sqrt(v); at
    step t the parameter ``missing[t]`` gets no gradient, its grad view
    still holding an earlier step's.  Each step returns the gradient's
    square sum, its runs' sums added in order."""
    rng = np.random.default_rng(seed)
    ref = {name: [rng.standard_normal(shape), np.zeros(shape),
                  np.zeros(shape)] for name, shape in shapes.items()}
    store = store_of(**{name: x for name, (x, _, _) in ref.items()})
    b1, b2 = ADAM_BETAS
    for t in range(1, 6):
        lr = 0.01 * t
        step = lr / (1.0 - b1 ** t)
        scale = 1.0 / math.sqrt(1.0 - b2 ** t)
        grads = []
        for name, p in store.items():
            g = None if missing.get(t) == name else rng.standard_normal(
                shapes[name])
            if g is None:
                p.clear_grad()
            else:
                set_grad(p, g)
            g = np.zeros(shapes[name]) if g is None else g
            grads.append(g.ravel())
            x, m, v = ref[name]
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * np.square(g)
            ref[name] = [x - (m * step) / (np.sqrt(v) * scale + ADAM_EPS),
                         m, v]
        square_sum = adam_step(store, lr=lr)
        assert square_sum == block_square_sum(np.concatenate(grads))
        for name, p in store.items():
            x, m, v = ref[name]
            assert np.array_equal(p.data, x)
            assert np.array_equal(store.m[p.start:p.stop], m.ravel())
            assert np.array_equal(store.v[p.start:p.stop], v.ravel())
    assert store.steps == 5


def test_adam_tracks_the_textbook_expressions_for_300_steps():
    # the folded bias corrections stay within rounding of m_hat and v_hat
    # as 1 - b**t approaches 1, under a changing lr and gradients from
    # well below to well above eps
    rng = np.random.default_rng(8)
    x = rng.uniform(5.0, 6.0, 6)
    store = store_of(x=x)
    p = store["x"]
    b1, b2 = ADAM_BETAS
    m = v = np.zeros(6)
    for t in range(1, 301):
        lr = 1e-3 * (1.0 + math.sin(t / 7.0))
        g = rng.standard_normal(6) * 10.0 ** rng.uniform(-10.0, 2.0)
        set_grad(p, g)
        adam_step(store, lr=lr)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * (g * g)
        x = x - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t))
                                            + ADAM_EPS)
        assert np.array_equal(store.m, m) and np.array_equal(store.v, v)
        np.testing.assert_allclose(p.data, x, rtol=1e-12, atol=0.0)
    assert store.steps == 300


def test_in_place_adam_is_bitwise_the_reference_expressions():
    # one pass of blocks over the arenas, some of which span two
    # parameters; step 3 has no gradient for "b"; "d" spans two whole
    # blocks and a partial third
    assert_adam_is_the_reference_expressions(
        {"a": (3, 4), "b": (7,), "c": (2, 5), "d": (2, BLOCK + 123)},
        missing={3: "b"})


# 42 blocks, the last one partial; a piece boundary falls inside "e"
PIECE_SHAPES = {"a": (3, 4), "b": (7,), "c": (2, 5), "d": (2, BLOCK + 123),
                "e": (40, BLOCK - 7)}
PIECE_SIZE = sum(int(np.prod(shape)) for shape in PIECE_SHAPES.values())


@pytest.mark.parametrize("cpus", [1, 2, 3, 5])
def test_threaded_adam_is_bitwise_the_reference_expressions(
        cpus, monkeypatch, short_switch_interval):
    # the gate and the update each split the 42 blocks into the same
    # min(cpus, 42 // 8) pieces, which tile the arenas
    pieces = {"_square_blocks": [], "_adam_blocks": []}

    def record(name):
        run = getattr(optim, name)

        def recorded(*args):
            start, stop = args[-2:]
            pieces[name].append((start, stop, threading.get_ident()))
            run(*args)
        monkeypatch.setattr(optim, name, recorded)

    monkeypatch.setattr(optim, "usable_cpus", lambda: cpus)
    for name in pieces:
        record(name)
    assert PIECE_SIZE // BLOCK == 41 and PIECE_SIZE % BLOCK
    assert_adam_is_the_reference_expressions(PIECE_SHAPES,
                                             missing={2: "e", 4: "a"})
    expected = min(cpus, 42 // MIN_WORKER_BLOCKS)
    main = threading.main_thread().ident
    gate, update = ([r[:2] for r in phase] for phase in pieces.values())
    assert sorted(gate) == sorted(update)
    for phase in pieces.values():
        assert len(phase) == 5 * expected
        for step in range(5):
            ranges = sorted(phase[step * expected:(step + 1) * expected])
            assert [r[0] for r in ranges] == [0] + [r[1]
                                                    for r in ranges[:-1]]
            assert ranges[-1][1] == PIECE_SIZE
            assert all(start % BLOCK == 0 for start, _, _ in ranges)
            # the calling thread takes the first piece, workers the others
            assert [ident == main for _, _, ident in ranges] == (
                [True] + [False] * (expected - 1))


SQUARE_SUM_SCRIPT = """
import numpy as np
from spanparser.optim import ParameterStore, adam_step
store = ParameterStore()
store.add("g", (40, 32768))
store.allocate()
rng = np.random.default_rng(12)
p = store["g"]
p.tensor.grad_view[...] = rng.standard_normal(p.shape) * np.exp(
    rng.uniform(-20.0, 20.0, p.shape))
p.tensor.grad = p.tensor.grad_view
print(float(adam_step(store, lr=0.1)).hex())
"""


def test_the_square_sum_does_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits a dot of more than 10000 values across its threads;
    # with 32768-value dots this gradient's sum differs in its last bits
    sums = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(spanparser.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", SQUARE_SUM_SCRIPT],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr[-2000:]
        sums.append(done.stdout.strip())
    assert sums[0] == sums[1], sums


@pytest.mark.parametrize("cpus", [1, 2, 3, 5])
@pytest.mark.parametrize("fault", ["nan", "inf", "overflowing sum"])
def test_the_split_gate_raises_before_any_update(
        fault, cpus, monkeypatch, short_switch_interval):
    # the fault sits in the last piece (for "overflowing sum", squares of
    # 1.44e308 in the first piece and 1.69e308 in the last, each finite);
    # whichever piece count sees it, nothing is written
    monkeypatch.setattr(optim, "usable_cpus", lambda: cpus)
    rng = np.random.default_rng(3)
    store = store_of(**{name: rng.standard_normal(shape)
                        for name, shape in PIECE_SHAPES.items()})
    set_grad(store["e"], rng.standard_normal(PIECE_SHAPES["e"]))
    adam_step(store, lr=0.1)
    for name, shape in PIECE_SHAPES.items():
        set_grad(store[name], rng.standard_normal(shape))
    grad = store["e"].grad.reshape(-1)
    if fault == "overflowing sum":
        store["a"].grad[0, 1] = 1.2e154
        grad[-5] = -1.3e154
    else:
        grad[-5] = {"nan": np.nan, "inf": -np.inf}[fault]
    arrays = (store.data, store.m, store.v, store.grad)
    before = [a.tobytes() for a in arrays]
    with pytest.raises(OptimizerError) as e:
        adam_step(store, lr=0.1)
    assert "parameter 'e'" in str(e.value)
    assert [a.tobytes() for a in arrays] == before
    assert store.steps == 1
    assert all(p.grad is not None for p in store)


@pytest.mark.parametrize("argument, value", [
    ("lr", -1e-3), ("lr", np.inf), ("lr", np.nan),
])
def test_bad_adam_arguments_raise_before_any_update(argument, value):
    store = store_of(a=np.ones(3), b=np.ones((2, 2)))
    set_grad(store["a"], np.full(3, 0.5))
    set_grad(store["b"], np.ones((2, 2)))
    adam_step(store, lr=0.1)
    set_grad(store["a"], np.ones(3))
    before = [a.copy() for a in (store.data, store.m, store.v, store.grad)]
    with pytest.raises(ValueError) as e:
        adam_step(store, **{argument: value})
    assert argument in str(e.value)
    for a, b in zip((store.data, store.m, store.v, store.grad), before):
        assert np.array_equal(a, b)
    assert store.steps == 1
    assert store["a"].grad is not None and store["b"].grad is None


def test_an_exception_in_an_adam_worker_surfaces(monkeypatch):
    # in either phase, the gate or the update
    monkeypatch.setattr(optim, "usable_cpus", lambda: 2)
    store = store_of(a=np.ones(2 * MIN_WORKER_BLOCKS * BLOCK))
    threads = threading.active_count()
    for name in ("_square_blocks", "_adam_blocks"):
        run = getattr(optim, name)

        def failing(*args):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError("worker piece %d:%d" % args[-2:])
            run(*args)

        monkeypatch.setattr(optim, name, failing)
        set_grad(store["a"], np.ones(store.size))
        with pytest.raises(MemoryError, match="worker piece"):
            adam_step(store, lr=0.1)
        monkeypatch.setattr(optim, name, run)
        assert threading.active_count() == threads


def test_a_store_too_small_to_split_is_stepped_on_the_calling_thread(
        monkeypatch):
    # one block short of two workers' share: one piece, and no thread
    started = []
    start = threading.Thread.start

    def recorded(thread):
        started.append(thread)
        start(thread)
    monkeypatch.setattr(threading.Thread, "start", recorded)
    monkeypatch.setattr(optim, "usable_cpus", lambda: 8)
    store = store_of(a=np.ones((2 * MIN_WORKER_BLOCKS - 1) * BLOCK))
    set_grad(store["a"], np.ones(store.size))
    adam_step(store, lr=0.1)
    assert store.steps == 1
    assert started == []


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


def test_an_overflowing_update_raises_naming_the_parameter():
    # a finite lr and finite gradients whose step, lr * m_hat = 1e310,
    # overflows: without a check it would write -inf into b's data
    store = store_of(a=np.ones(3), b=np.ones(2), c=np.ones(2))
    for p in store:
        set_grad(p, np.full(p.shape, 0.5))
    set_grad(store["b"], [0.5, 1e10])
    with pytest.raises(OptimizerError) as e:
        adam_step(store, lr=1e300)
    assert "'b'" in str(e.value) and "overflow" in str(e.value)
    # the failing block's moments are updated and its gradients kept
    assert store.steps == 1 and store.m[4] == pytest.approx(1e9)
    assert store["b"].grad is not None


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
    # the reference: parameter k holds the array-returning expression its
    # in-place init replaced, drawn from child k of SeedSequence(seed),
    # whatever the others draw; glorot (also with per-block fans),
    # embedding, ones and zero inits
    def glorot(rng, shape, fans=None):
        fan_in, fan_out = fans if fans is not None else (shape[0], shape[-1])
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=shape)

    rngs = [np.random.default_rng(child)
            for child in np.random.SeedSequence(17).spawn(6)]
    expected = {
        "w": glorot(rngs[0], (5, 8)),
        "emb": rngs[1].standard_normal((9, 4)) / np.sqrt(4),
        "gain": np.ones(4),
        "bias": np.zeros(3),
        "heads": glorot(rngs[4], (6, 12), (6, 3)),
        "table": rngs[5].standard_normal((3, 7)) / np.sqrt(7),
    }
    store = ParameterStore()
    store.add("w", (5, 8), glorot_uniform)
    store.add("emb", (9, 4), embedding_init)
    store.add("gain", (4,), ones)
    store.add("bias", (3,))
    store.add("heads", (6, 12), functools.partial(glorot_uniform, fans=(6, 3)))
    store.add("table", (3, 7), embedding_init)
    store.allocate(seed=17)
    for name, p in store.items():
        assert p.data.tobytes() == expected[name].tobytes(), name


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("mode", ["tags", "char-lstm", "char-concat",
                                  "external"])
def test_split_initialization_is_bitwise_the_sequential_one(
        variant, mode, monkeypatch, short_switch_interval):
    # at the default BLOCK the toy model is one piece, drawn on the calling
    # thread alone; blocks of 97 values and one block per piece split its
    # arena among as many threads as there are usable CPUs
    kw = {"external_dim": 5} if mode == "external" else {}

    def build():
        return tiny_model(TREES, mode=mode, variant=variant, d_model=64,
                          seed=5, **kw).store.data.tobytes()
    expected = build()
    monkeypatch.setattr(optim, "BLOCK", 97)
    monkeypatch.setattr(optim, "MIN_WORKER_BLOCKS", 1)
    pieces = []
    init_piece = optim._init_piece

    def recorded(work, start, stop):
        pieces.append(start)
        init_piece(work, start, stop)
    monkeypatch.setattr(optim, "_init_piece", recorded)
    for cpus in (1, 2, 3):
        monkeypatch.setattr(optim, "usable_cpus", lambda: cpus)
        pieces.clear()
        assert build() == expected, cpus
        assert len(pieces) == cpus


def test_the_toy_config_is_initialized_on_the_calling_thread(monkeypatch):
    # the toy config's arena is under 2 * MIN_WORKER_BLOCKS blocks
    started = []
    start = threading.Thread.start

    def recorded(thread):
        started.append(thread)
        start(thread)
    monkeypatch.setattr(threading.Thread, "start", recorded)
    monkeypatch.setattr(optim, "usable_cpus", lambda: 8)
    model = SpanParser(
        EncoderConfig(num_layers=2, d_model=64, num_heads=4, d_k=16, d_v=16,
                      d_ff=128, span_hidden=64),
        LexicalConfig(mode="char-lstm", char_embedding_dim=16,
                      char_lstm_hidden=32),
        Vocabulary.from_trees(TREES), LabelInventory.from_trees(TREES))
    assert model.store.size < 2 * MIN_WORKER_BLOCKS * BLOCK
    assert started == []


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
