import numpy as np
import pytest

from spanparser import training
from spanparser.autodiff import backward
from spanparser.checkpoint import save_checkpoint
from spanparser.training import (
    TrainConfig, TrainState, lr_schedule, train,
)
from spanparser.trees import parse_bracketed

from support import gradcheck, tiny_model

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
        snapshots.append(m.store.snapshot())
        return next(script)

    result = train(model, TREES, TREES[:2],
                   cfg(max_epochs=6, patience_epochs=2), eval_fn=eval_fn)
    assert result.best_f1 == 50.0
    # two improvement-free stretches of two epochs each trigger two halvings
    assert result.state.num_halvings == 2
    # the model is left at the iterate that scored 50
    assert np.array_equal(model.store.data, snapshots[0])


def test_final_best_iterate_is_kept_without_a_snapshot(monkeypatch):
    # F1 rises at every evaluation: each best iterate but the last is
    # copied just before the step that leaves it, and the last is the
    # model itself, so nothing is copied or restored at the end; the
    # second copy goes into the array of the first
    model = fresh_model()
    script = iter([10.0, 20.0, 30.0])
    events = []
    evaluated = []
    snapshots = []

    def eval_fn(m, d):
        events.append("eval")
        evaluated.append(m.store.data.copy())
        return next(script)

    def snapshot(out=None, take=model.store.snapshot):
        events.append("snapshot")
        snapshots.append((out, take(out)))
        return snapshots[-1][1]

    def adam_step(params, lr, step=training.adam_step):
        events.append("step")
        step(params, lr)

    def restore(snap):
        raise AssertionError("the final iterate is the best; no restore")

    monkeypatch.setattr(model.store, "snapshot", snapshot)
    monkeypatch.setattr(model.store, "restore", restore)
    monkeypatch.setattr("spanparser.training.adam_step", adam_step)
    result = train(model, TREES, TREES[:2], cfg(max_epochs=3),
                   eval_fn=eval_fn)
    assert result.best_f1 == 30.0
    assert result.state.best_params is None
    # 2 batches per epoch; each snapshot comes right before a step
    assert events == ["step", "step", "eval", "snapshot", "step", "step",
                      "eval", "snapshot", "step", "step", "eval"]
    assert np.array_equal(model.store.data, evaluated[-1])
    (first_out, first), (second_out, second) = snapshots
    assert first_out is None and second_out is first and second is first
    assert np.array_equal(second, evaluated[1])


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
