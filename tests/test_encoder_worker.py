"""The factored encoder's position stream on its worker thread: bitwise the
same outputs, gradients, attention and checkpoints as on one thread."""

import threading

import numpy as np
import pytest

import spanparser.autodiff as ad
from spanparser import encoder as encoder_module
from spanparser.autodiff import backward
from spanparser.checkpoint import save_checkpoint
from spanparser.encoder import FACTORED_VARIANTS, VARIANTS, stream_suffixes
from spanparser.toydata import toy_treebank
from spanparser.training import TrainConfig, train

from support import REFERENCE_OPS, tiny_model

TREES = toy_treebank(6, seed=4)


@pytest.fixture
def run_streams(monkeypatch):
    """``run_streams(on, fn)``: ``fn()`` with the encoder's stream worker
    allowed (``on``) or not, every weight counting as large enough, and
    whether any matmul ran off the calling thread."""
    monkeypatch.setattr(ad, "WORKER_LEAF_SIZE", 0)
    matmul = ad.matmul
    off_main = []

    def recorded(a, b):
        off_main.append(threading.current_thread()
                        is not threading.main_thread())
        return matmul(a, b)

    monkeypatch.setattr(ad, "matmul", recorded)

    def run(on, fn):
        monkeypatch.setattr(encoder_module, "usable_cpus",
                            lambda: 2 if on else 1)
        off_main.clear()
        result = fn()
        return result, any(off_main)

    return run


def both_ways(run_streams, variant, fn):
    """``fn()`` inline and with the stream worker, checking that only a
    factored variant uses the worker."""
    inline, used = run_streams(False, fn)
    assert not used
    threaded, used = run_streams(True, fn)
    assert used == (variant in FACTORED_VARIANTS), variant
    return inline, threaded


@pytest.fixture
def on_reference_ops(monkeypatch):
    """``on_reference_ops(fn)``: ``fn()`` with the fused autodiff ops
    replaced by the reference composition of tests/support.py: every
    residual added to the concatenated (and dropped-out) sublayer output
    before a layer norm, biases added, softmax and the head moves run with
    one new array per step, and span differences taken with ``sub``."""
    def run(fn):
        with monkeypatch.context() as patched:
            for name, op in REFERENCE_OPS.items():
                patched.setattr(ad, name, op)
            return fn()

    return run


def raw(arrays):
    return [a.tobytes() for a in arrays]


@pytest.mark.parametrize("variant", VARIANTS)
def test_scores_are_bitwise_those_of_one_thread(
        variant, run_streams, on_reference_ops, short_switch_interval):
    # ... and those of the reference ops on one thread
    model = tiny_model(TREES, variant=variant, seed=1)
    sentences = [t.sentence() for t in TREES]

    def scores():
        with ad.no_grad():
            lone = [model.span_score_tensor(s).data for s in sentences]
            packed = model.pack_scores(sentences).data
            # a pack of equal lengths has no padding
            even = model.pack_scores(sentences[:1] * 2).data
        return raw(lone + [packed, even])

    want, _ = run_streams(False, lambda: on_reference_ops(scores))
    inline, threaded = both_ways(run_streams, variant, scores)
    assert threaded == inline == want


class DrawRecorder:
    """A random generator that notes whether each ``random`` draw was made
    on the main thread."""

    def __init__(self, seed):
        self.generator = np.random.default_rng(seed)
        self.on_main = []

    def random(self, *args, **kwargs):
        self.on_main.append(threading.current_thread()
                            is threading.main_thread())
        return self.generator.random(*args, **kwargs)


@pytest.mark.parametrize("variant", VARIANTS)
def test_grad_arena_is_bitwise_that_of_one_thread(
        variant, run_streams, on_reference_ops, short_switch_interval):
    # ... and that of the reference ops on one thread, with dropout off
    # and on; with it on, every mask is drawn on the calling thread in
    # stream order
    model = tiny_model(TREES, variant=variant, seed=2)
    batch = [(t.sentence(), model.gold_binary(t), None) for t in TREES]

    def grads():
        arenas = []
        for train_mode in (False, True):
            model.store.grad.fill(0.0)
            for p in model.store:
                p.clear_grad()
            rng = DrawRecorder(5)
            _, loss = model.batch_loss(batch, train=train_mode, rng=rng)
            assert loss is not None and all(rng.on_main)
            assert bool(rng.on_main) == train_mode
            backward(loss)
            arenas.append((model.store.grad.tobytes(),
                           [p.grad is None for p in model.store]))
        return arenas

    want, _ = run_streams(False, lambda: on_reference_ops(grads))
    inline, threaded = both_ways(run_streams, variant, grads)
    assert threaded == inline == want


@pytest.mark.parametrize("variant", VARIANTS)
def test_recorded_attention_is_bitwise_that_of_one_thread(
        variant, run_streams, short_switch_interval):
    model = tiny_model(TREES, variant=variant, seed=3)

    def attention():
        record = {}
        model.parse(TREES[0].sentence(), record=record)
        return sorted(record), raw(record[key] for key in sorted(record))

    inline, threaded = both_ways(run_streams, variant, attention)
    assert threaded == inline


@pytest.mark.parametrize("mode", ["tags", "char-lstm"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_every_product_goes_through_autodiff_matmul(variant, mode,
                                                    monkeypatch):
    # a probe that patches ad.matmul (perfbench's tracer does) sees six
    # products per layer and stream (q, k, v, output, two feed-forward)
    # and the scorer's two, beyond what the lexical layer makes
    model = tiny_model(TREES, mode=mode, variant=variant, seed=9)
    matmul = ad.matmul
    calls = []

    def counted(a, b):
        calls.append(1)
        return matmul(a, b)

    monkeypatch.setattr(ad, "matmul", counted)
    sentence = TREES[2].sentence()
    model.lexical.content_vectors([sentence])
    lexical = len(calls)
    calls.clear()
    model.parse(sentence)
    streams = len(stream_suffixes(variant))
    assert len(calls) - lexical == (
        model.encoder_config.num_layers * streams * 6 + 2)


def test_relus_run_on_the_calling_thread_in_stream_order(
        run_streams, monkeypatch, short_switch_interval):
    # whoever watches ad.relu (a finite-difference check recording which
    # relu inputs are positive, say) sees the calls of one thread
    model = tiny_model(TREES, seed=7)
    relu = ad.relu
    calls = []

    def recorded(x):
        calls.append((threading.current_thread() is threading.main_thread(),
                      x.data.tobytes()))
        return relu(x)

    monkeypatch.setattr(ad, "relu", recorded)

    def relu_calls():
        calls.clear()
        model.parse(TREES[1].sentence())
        return list(calls)

    inline, threaded = both_ways(run_streams, "factored", relu_calls)
    assert threaded == inline and all(main for main, _ in threaded)


def test_training_with_dropout_writes_the_same_checkpoint(
        run_streams, short_switch_interval, tmp_path):
    config = TrainConfig(batch_size=3, base_lr=0.002, warmup_batches=2,
                         evals_per_epoch=1, max_epochs=1)

    def trained():
        model = tiny_model(TREES, num_layers=2)
        assert model.encoder_config.relu_dropout > 0.0
        train(model, TREES, TREES[:2], config, eval_fn=lambda m, d: 0.0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        return path.read_bytes()

    inline, threaded = both_ways(run_streams, "factored", trained)
    assert threaded == inline


def test_worker_builds_no_graph_under_no_grad(run_streams, monkeypatch):
    model = tiny_model(TREES, seed=4)
    init = ad.Tensor.__init__
    built = []

    def recorded(tensor, *args, **kwargs):
        init(tensor, *args, **kwargs)
        if threading.current_thread() is not threading.main_thread():
            built.append(tensor)

    monkeypatch.setattr(ad.Tensor, "__init__", recorded)
    sentences = [t.sentence() for t in TREES]
    run_streams(True, lambda: model.pack_scores(sentences))
    # with a graph the worker's tensors carry backward closures ...
    assert any(t._grad_fn is not None for t in built)
    built.clear()

    def scores():
        with ad.no_grad():
            return model.pack_scores(sentences)

    run_streams(True, scores)
    # ... and under no_grad none
    assert built and all(t._grad_fn is None for t in built)


def test_a_stream_task_exception_surfaces_from_encode(
        run_streams, monkeypatch):
    model = tiny_model(TREES, seed=5)
    affine = encoder_module._affine

    def failing(*args):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("position stream failed")
        return affine(*args)

    monkeypatch.setattr(encoder_module, "_affine", failing)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="position stream failed"):
        run_streams(True, lambda: model.parse(TREES[0].sentence()))
    assert threading.active_count() == threads


def test_stream_worker_runs_under_the_callers_errstate(run_streams):
    # the position stream's feed-forward hidden rows are all 1.7e308, so
    # its second product (12 of them summed with weight 1) overflows; only
    # the worker computes it
    model = tiny_model(TREES, num_layers=1, seed=6)
    model.store["encoder.layer0.ffn.b1p"].data[:] = 1.7e308
    model.store["encoder.layer0.ffn.w2p"].data[:] = 1.0
    sentence = TREES[0].sentence()
    for on in (False, True):
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow") as e:
                run_streams(on, lambda: model.parse(sentence))
        on_worker = any(entry.name == "_under_errstate"
                        for entry in e.traceback)
        assert on_worker == on
