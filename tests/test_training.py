import errno
import mmap
import os
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest

from spanparser import (EncoderConfig, LabelInventory, LexicalConfig,
                        SpanParser, Vocabulary, toy_treebank, training)
from spanparser.autodiff import backward
from spanparser.checkpoint import load_checkpoint, save_checkpoint
from spanparser.training import (
    TrainConfig, TrainState, lr_schedule, train,
)
from spanparser.trees import parse_bracketed, save_trees

from support import gradcheck, no_openblas, openblas_threads, tiny_model

TREES = parse_bracketed(
    "(S (NP (DT the) (NN cat)) (VP (VB sat)))\n"
    "(S (NP (NN dog)) (VP (VB ran)))\n"
    "(S (NP (DT a) (NN telescope)) (VP (VB fell)))\n"
    "(S (NP (NN cat)) (VP (VB saw) (NP (NN dog))))\n"
    "(TOP (S (VP (VB go))))\n"
    "(S (NP (DT the) (NN dog)) (VP (VB ran) (RB far)))"
)


def fresh_model(**kw):
    kw.setdefault("num_layers", 1)
    kw.setdefault("no_dropout", True)
    return tiny_model(TREES, **kw)


def cfg(**kw):
    kw.setdefault("batch_size", 3)
    kw.setdefault("base_lr", 0.001)
    kw.setdefault("warmup_batches", 4)
    kw.setdefault("evals_per_epoch", 1)
    kw.setdefault("patience_epochs", 2)
    kw.setdefault("max_epochs", 3)
    return TrainConfig(**kw)


def test_lr_schedule_warmup_and_halving():
    c = TrainConfig(base_lr=0.0008, warmup_batches=160)
    s = TrainState()
    assert lr_schedule(0, s, c) == 0.0
    assert lr_schedule(80, s, c) == pytest.approx(0.0004)
    assert lr_schedule(160, s, c) == pytest.approx(0.0008)
    assert lr_schedule(5000, s, c) == pytest.approx(0.0008)
    s.num_halvings = 2
    assert lr_schedule(5000, s, c) == pytest.approx(0.0002)
    assert lr_schedule(80, s, c) == pytest.approx(0.0001)
    with pytest.raises(ValueError):
        lr_schedule(-1, s, c)


def test_lr_schedule_without_warmup():
    c = TrainConfig(base_lr=0.01, warmup_batches=0)
    assert lr_schedule(0, TrainState(), c) == 0.01
    assert lr_schedule(1, TrainState(), c) == 0.01


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0).validate()
    with pytest.raises(ValueError):
        TrainConfig(evals_per_epoch=0).validate()
    with pytest.raises(ValueError):
        TrainConfig(halving_factor=1.0).validate()
    for bad in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            TrainConfig(base_lr=bad).validate()
    TrainConfig().validate()


@pytest.mark.parametrize("name, bad", [
    ("max_epochs", 0), ("warmup_batches", -3), ("patience_epochs", 0),
])
def test_bad_schedule_values_are_rejected(name, bad):
    with pytest.raises(ValueError, match=name):
        TrainConfig(**{name: bad}).validate()


def test_batches_seen_counts_partial_batches():
    model = fresh_model()
    result = train(model, TREES, TREES[:2], cfg(batch_size=4, max_epochs=2),
                   eval_fn=lambda m, d: 0.0)
    # 6 sentences, batch 4 -> 2 batches per epoch
    assert result.state.batches_seen == 4


def test_eval_points_quarter_epoch():
    model = fresh_model()
    seen = []
    result = train(model, TREES, TREES[:2],
                   cfg(batch_size=1, evals_per_epoch=3, max_epochs=1),
                   eval_fn=lambda m, d: float(len(seen)) if seen.append(0) is None else 0.0)
    # 6 sentences, 3 evals -> after sentences 2, 4, 6
    assert [row[0] for row in result.log_rows] == [2, 4, 6]


def test_log_rows_and_log_fn_format():
    model = fresh_model()
    lines = []
    result = train(model, TREES, TREES[:2], cfg(max_epochs=2),
                   eval_fn=lambda m, d: 42.0, log_fn=lines.append)
    assert len(result.log_rows) == 2
    assert len(lines) == 2
    batches, lr, mean_loss, f1 = result.log_rows[0]
    assert batches == 2 and f1 == 42.0 and mean_loss >= 0.0
    parts = lines[0].split("\t")
    assert len(parts) == 4
    assert parts[0] == "2"
    assert parts[3] == "42.0000"
    assert float(parts[1]) == pytest.approx(lr, abs=1e-8)


def test_scripted_f1_drives_halving_and_best_restore():
    model = fresh_model()
    script = iter([50.0, 10.0, 10.0, 10.0, 10.0, 10.0])
    snapshots = []

    def eval_fn(m, d):
        snapshots.append(m.store.data.copy())
        return next(script)

    result = train(model, TREES, TREES[:2],
                   cfg(max_epochs=6, patience_epochs=2), eval_fn=eval_fn)
    assert result.best_f1 == 50.0
    # two improvement-free stretches of two epochs each trigger two halvings
    assert result.state.num_halvings == 2
    # the model is left at the iterate that scored 50
    assert np.array_equal(model.store.data, snapshots[0])


class BestFile:
    """Stands in for ``tempfile.TemporaryFile()`` in ``train``: a real
    unlinked temporary file that records, in ``events``, each copy of the
    best iterate (with the offset it starts at and the file's bytes once
    flushed) and each read back.  ``write_error``, if given, is raised by
    every write, and ``short`` bytes are dropped from every read."""

    opened = []

    def __init__(self, events=None, write_error=None, short=0):
        self.file = REAL_TEMPORARY_FILE()
        self.events = [] if events is None else events
        self.write_error, self.short = write_error, short
        self.copies = []
        self.closed = False
        BestFile.opened.append(self)

    def seek(self, offset):
        return self.file.seek(offset)

    def write(self, data):
        self.events.append("copy")
        if self.write_error is not None:
            raise self.write_error
        self.copies.append([self.file.tell()])
        return self.file.write(data)

    def flush(self):
        self.file.flush()
        self.copies[-1].append(os.pread(self.file.fileno(), 1 << 30, 0))

    def readinto(self, buffer):
        self.events.append("read back")
        view = memoryview(buffer).cast("B")
        return self.file.readinto(view[:len(view) - self.short])

    def close(self):
        self.closed = True
        self.file.close()


REAL_TEMPORARY_FILE = tempfile.TemporaryFile


@pytest.fixture
def best_files(monkeypatch):
    """Patches ``make()`` in for ``tempfile.TemporaryFile`` and returns
    the list of BestFiles each call made."""
    monkeypatch.setattr(BestFile, "opened", [])

    def patch(make=BestFile):
        monkeypatch.setattr(tempfile, "TemporaryFile", make)
    patch()
    return BestFile.opened, patch


def test_final_best_iterate_is_kept_without_a_snapshot(monkeypatch,
                                                      best_files):
    # F1 rises at every evaluation: each best iterate but the last is
    # copied just before the step that leaves it, and the last is the
    # model itself, so nothing is read back at the end; the second copy
    # overwrites the first in the run's one file
    opened, patch = best_files
    model = fresh_model()
    script = iter([10.0, 20.0, 30.0])
    events = []
    evaluated = []
    patch(lambda: BestFile(events))

    def eval_fn(m, d):
        events.append("eval")
        evaluated.append(m.store.data.copy())
        return next(script)

    def adam_step(params, lr, step=training.adam_step):
        events.append("step")
        return step(params, lr)

    monkeypatch.setattr("spanparser.training.adam_step", adam_step)
    result = train(model, TREES, TREES[:2], cfg(max_epochs=3),
                   eval_fn=eval_fn)
    assert result.best_f1 == 30.0
    # 2 batches per epoch; the step after each improving evaluation is
    # preceded by a copy
    assert events == ["step", "step", "eval", "copy", "step", "step",
                      "eval", "copy", "step", "step", "eval"]
    assert np.array_equal(model.store.data, evaluated[-1])
    (best_file,) = opened
    assert best_file.closed
    (first_at, first), (second_at, second) = best_file.copies
    assert first_at == second_at == 0
    assert first == evaluated[0].tobytes()
    assert second == evaluated[1].tobytes()


def test_a_best_iterate_that_cannot_be_written_fails_loudly(best_files):
    opened, patch = best_files
    patch(lambda: BestFile(write_error=OSError(
        errno.ENOSPC, os.strerror(errno.ENOSPC))))
    model = fresh_model()
    script = iter([10.0, 5.0])
    with pytest.raises(OSError) as e:
        train(model, TREES, TREES[:2], cfg(max_epochs=2),
              eval_fn=lambda m, d: next(script))
    assert e.value.errno == errno.ENOSPC
    message = str(e.value)
    assert tempfile.gettempdir() in message
    assert "%d bytes" % model.store.data.nbytes in message
    assert "No space left" in message
    (best_file,) = opened
    assert best_file.events == ["copy"] and best_file.closed


def test_a_short_read_back_of_the_best_iterate_raises(best_files):
    opened, patch = best_files
    patch(lambda: BestFile(short=8))
    model = fresh_model()
    script = iter([50.0, 10.0])
    with pytest.raises(OSError, match="read back %d of the best iterate's "
                       "%d bytes" % (model.store.data.nbytes - 8,
                                     model.store.data.nbytes)):
        train(model, TREES, TREES[:2], cfg(max_epochs=2),
              eval_fn=lambda m, d: next(script))
    (best_file,) = opened
    assert best_file.events == ["copy", "read back"] and best_file.closed


def test_the_best_iterate_file_is_closed_when_training_raises(best_files):
    opened, _ = best_files
    model = fresh_model()
    calls = []

    def eval_fn(m, d):
        calls.append(None)
        if len(calls) == 2:
            raise RuntimeError("evaluation failed")
        return 10.0

    with pytest.raises(RuntimeError, match="evaluation failed"):
        train(model, TREES, TREES[:2], cfg(max_epochs=2), eval_fn=eval_fn)
    (best_file,) = opened
    assert best_file.events == ["copy"] and best_file.closed


def test_train_warns_when_it_cannot_hold_one_blas_thread():
    with no_openblas(), pytest.warns(
            UserWarning, match="cannot hold numpy's OpenBLAS"):
        train(fresh_model(), TREES, TREES[:2], cfg(max_epochs=1),
              eval_fn=lambda m, d: 0.0)
    if openblas_threads() is None:
        return
    # a pin that takes warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        train(fresh_model(), TREES, TREES[:2], cfg(max_epochs=1),
              eval_fn=lambda m, d: 0.0)


def test_a_loaded_model_trains_and_restores_its_best_iterate(tmp_path):
    # a loaded model's data arena is a copy-on-write mapping of the
    # checkpoint file; the best iterate comes back bitwise and the file
    # keeps its bytes
    path = tmp_path / "m.ckpt"
    save_checkpoint(fresh_model(), path)
    saved = path.read_bytes()
    model = load_checkpoint(path)
    assert isinstance(model.store.data.base.obj, mmap.mmap)
    script = iter([50.0, 10.0, 10.0])
    evaluated = []

    def eval_fn(m, d):
        evaluated.append(m.store.data.copy())
        return next(script)

    result = train(model, TREES, TREES[:2], cfg(max_epochs=3),
                   eval_fn=eval_fn)
    assert result.best_f1 == 50.0
    assert not np.array_equal(evaluated[0], evaluated[-1])
    assert model.store.data.tobytes() == evaluated[0].tobytes()
    assert path.read_bytes() == saved


def test_training_allocates_no_copy_of_the_data_arena():
    # a wide feed-forward layer makes the arena dwarf the batch's graph:
    # the best-iterate copy lives in a file, so the traced peak stays
    # below one arena
    model = SpanParser(
        EncoderConfig(num_layers=1, d_model=256, num_heads=2, d_k=8, d_v=8,
                      d_ff=4096, span_hidden=12, max_sentence_length=24),
        LexicalConfig(mode="tags", word_dropout=0.0, tag_dropout=0.0),
        Vocabulary.from_trees(TREES), LabelInventory.from_trees(TREES))
    script = iter([50.0, 10.0])
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = train(model, TREES, TREES[:2], cfg(max_epochs=2),
                       eval_fn=lambda m, d: next(script))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert result.state.batches_seen == 4
    assert peak < model.store.data.nbytes


def test_improvement_must_be_strict():
    model = fresh_model()
    script = iter([30.0, 30.0, 30.0])
    result = train(model, TREES, TREES[:2],
                   cfg(max_epochs=3, patience_epochs=2),
                   eval_fn=lambda m, d: next(script))
    # equal F1 never counts as improvement, so one halving fires
    assert result.state.num_halvings == 1
    assert result.best_f1 == 30.0


def test_training_is_deterministic_in_seed():
    a = fresh_model()
    b = fresh_model()
    train(a, TREES, TREES[:2], cfg(max_epochs=2, seed=5),
          eval_fn=lambda m, d: 0.0)
    train(b, TREES, TREES[:2], cfg(max_epochs=2, seed=5),
          eval_fn=lambda m, d: 0.0)
    for (name, pa), (_, pb) in zip(a.store.items(), b.store.items()):
        assert np.array_equal(pa.data, pb.data), name
    c = fresh_model()
    train(c, TREES, TREES[:2], cfg(max_epochs=2, seed=6),
          eval_fn=lambda m, d: 0.0)
    assert any(not np.array_equal(pa.data, pc.data)
               for (_, pa), (_, pc) in zip(a.store.items(), c.store.items()))


def test_dropout_rng_is_the_shuffle_rng(tmp_path):
    # with dropout on, results still reproduce exactly for a fixed seed
    a = tiny_model(TREES, num_layers=1)
    b = tiny_model(TREES, num_layers=1)
    train(a, TREES, TREES[:2], cfg(max_epochs=1), eval_fn=lambda m, d: 0.0)
    train(b, TREES, TREES[:2], cfg(max_epochs=1), eval_fn=lambda m, d: 0.0)
    for (name, pa), (_, pb) in zip(a.store.items(), b.store.items()):
        assert np.array_equal(pa.data, pb.data), name
    save_checkpoint(a, tmp_path / "a.ckpt")
    save_checkpoint(b, tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_empty_treebank_rejected():
    model = fresh_model()
    with pytest.raises(ValueError):
        train(model, [], TREES[:1], cfg())


def test_empty_dev_set_rejected_without_an_eval_fn():
    model = fresh_model()
    before = model.store.data.copy()
    with pytest.raises(ValueError, match="dev set is empty"):
        train(model, TREES, [], cfg())
    assert np.array_equal(model.store.data, before)
    # a scripted evaluation needs no dev trees
    train(model, TREES, [], cfg(max_epochs=1), eval_fn=lambda m, d: 0.0)


def test_nonfinite_loss_aborts_with_context():
    model = fresh_model()
    model.store["lexical.word_emb"].tensor.data[:] = np.inf
    with np.errstate(invalid="ignore"):
        with pytest.raises(RuntimeError) as e:
            train(model, TREES, TREES[:2], cfg(max_epochs=1),
                  eval_fn=lambda m, d: 0.0)
    assert "non-finite" in str(e.value)


def test_default_eval_parses_dev(tmp_path):
    model = fresh_model()
    result = train(model, TREES[:3], TREES[:2], cfg(max_epochs=1))
    assert 0.0 <= result.best_f1 <= 100.0


def test_external_vectors_flow_through_training():
    model = fresh_model(mode="external", external_dim=4)
    rng = np.random.default_rng(0)
    train_ext = [rng.standard_normal((len(t.sentence()), 4)) for t in TREES]
    dev_ext = train_ext[:2]
    result = train(model, TREES, TREES[:2], cfg(max_epochs=1),
                   train_external=train_ext, dev_external=dev_ext)
    assert result.state.batches_seen == 2


def test_loss_decreases_on_tiny_overfit():
    model = fresh_model()
    result = train(model, TREES[:2], TREES[:2],
                   cfg(batch_size=2, max_epochs=20, base_lr=0.02,
                       warmup_batches=2), eval_fn=lambda m, d: 0.0)
    first = result.log_rows[0][2]
    last = result.log_rows[-1][2]
    assert last < first


def _grads(model):
    return {name: None if p.grad is None else p.grad.copy()
            for name, p in model.store.items()}


def test_batch_loss_gradients_are_the_sum_of_sentence_gradients():
    model = fresh_model(num_layers=2)
    batch = [(t.sentence(), model.gold_binary(t), None) for t in TREES]
    results, loss = model.batch_loss(batch, train=False)
    assert sum(r.violator is not None for r in results) >= 2
    backward(loss)
    packed = _grads(model)
    for p in model.store:
        p.clear_grad()
    for sentence, gold, _ in batch:
        result = model.sentence_loss(sentence, gold, train=False)
        if result.violator is not None:
            backward(result.loss)
    summed = _grads(model)
    largest = max(np.abs(g).max() for g in summed.values() if g is not None)
    for name, grad in summed.items():
        if grad is None:
            assert packed[name] is None, name
            continue
        # the floor covers gradients that are zero up to rounding, such as
        # the last layer norm's bias, whose shift cancels in span vectors
        scale = max(np.abs(grad).max(), 1e-3 * largest)
        assert np.abs(packed[name] - grad).max() <= 1e-10 * scale, name


def test_batch_loss_finite_differences_with_dropout():
    # every call replays the same dropout masks from a fresh rng
    model = fresh_model(no_dropout=False)
    batch = [(t.sentence(), model.gold_binary(t), None) for t in TREES[:4]]

    def loss():
        return model.batch_loss(batch, train=True,
                                rng=np.random.default_rng(7))[1]

    assert loss() is not None
    err = gradcheck(loss, list(model.store), np.random.default_rng(2),
                    coords=2)
    assert err < 1e-5


def test_backward_of_a_training_step_allocates_no_gradients(monkeypatch):
    # the parameter gradients go into the store's grad arena, so the
    # traced memory a backward leaves behind is far below the store's size
    trees = toy_treebank(20, seed=4)
    model = SpanParser(
        EncoderConfig(num_layers=2, d_model=64, num_heads=4, d_k=16, d_v=16,
                      d_ff=128, span_hidden=64),
        LexicalConfig(mode="char-lstm", char_embedding_dim=16,
                      char_lstm_hidden=32),
        Vocabulary.from_trees(trees), LabelInventory.from_trees(trees))
    growth = []

    def traced_backward(loss):
        before = tracemalloc.get_traced_memory()[0]
        backward(loss)
        growth.append(tracemalloc.get_traced_memory()[0] - before)

    monkeypatch.setattr(training, "backward", traced_backward)
    tracemalloc.start()
    try:
        train(model, trees, trees[:2], cfg(batch_size=10, max_epochs=1),
              eval_fn=lambda m, d: 0.0)
    finally:
        tracemalloc.stop()
    assert len(growth) == 2
    assert growth[1] < 0.1 * model.store.size * 8
