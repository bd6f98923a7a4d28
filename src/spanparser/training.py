"""Margin training loop: Adam with linear warmup, periodic dev evaluation,
patience-triggered learning-rate halving, and best-iterate selection."""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass

import numpy as np

from .autodiff import backward
from .chart import NonFiniteScoreError
from .evaluation import score
from .optim import adam_step


@dataclass
class TrainConfig:
    batch_size: int = 250
    base_lr: float = 0.0008
    warmup_batches: int = 160
    evals_per_epoch: int = 4
    patience_epochs: int = 5
    halving_factor: float = 0.5
    max_epochs: int = 10
    seed: int = 0

    def validate(self):
        for name in ("batch_size", "evals_per_epoch", "patience_epochs",
                     "max_epochs"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be >= 1" % name)
        if self.warmup_batches < 0:
            raise ValueError("warmup_batches must be >= 0")
        if not 0.0 < self.halving_factor < 1.0:
            raise ValueError("halving_factor must be in (0, 1)")
        if not 0.0 < self.base_lr < math.inf:
            raise ValueError("base_lr must be positive and finite, got %r"
                             % (self.base_lr,))
        return self


@dataclass
class TrainState:
    """Schedule and selection state of a training run.  The best dev
    iterate itself is not held here: :func:`train` keeps its copy in a
    temporary file that lives as long as the run."""

    lr: float = 0.0
    batches_seen: int = 0
    best_f1: float = -1.0
    epochs_since_improvement: int = 0
    num_halvings: int = 0


@dataclass
class TrainResult:
    best_f1: float
    log_rows: list
    state: TrainState


def lr_schedule(batches_seen: int, state: TrainState,
                config: TrainConfig) -> float:
    """Linear warmup to base_lr over warmup_batches, then flat, scaled down
    by the halving factor once per triggered halving."""
    if batches_seen < 0:
        raise ValueError("batches_seen must be >= 0")
    if config.warmup_batches > 0:
        lr = min(config.base_lr * batches_seen / config.warmup_batches,
                 config.base_lr)
    else:
        lr = config.base_lr
    return lr * config.halving_factor ** state.num_halvings


def default_eval_fn(model, dev_trees, dev_external=None, control=None):
    """Parse the dev set in packs (``SpanParser.parse_batch``, under the
    attention ``control``, if given) and return labeled F1 against it."""
    preds = model.parse_batch([tree.sentence() for tree in dev_trees],
                              control=control, externals=dev_external)
    return score(preds, dev_trees).f1


def train(model, treebank, dev, config: TrainConfig, eval_fn=None,
          log_fn=None, train_external=None, dev_external=None) -> TrainResult:
    """Train ``model`` in place and leave it at the best dev iterate.

    Each mini-batch is one packed pass (``SpanParser.batch_loss``): the
    lexical layer, the encoder and the span scorer each run once over all
    of the batch's rows, and each sentence is decoded, loss augmented, on
    its own chart.  The violating sentences' hinge terms make
    one loss, so one backward pass computes each weight gradient as a
    single product over the whole batch, and one Adam step follows.
    Dropout masks are drawn from the shuffle rng, once per batch for the
    lexical rows and for the encoder.

    An evaluation that improves on the best F1 marks the current iterate as
    the best; just before the next Adam step moves away from it, the data
    arena is written, from offset 0, into one unlinked temporary file
    (``tempfile.TemporaryFile()``, in ``tempfile.gettempdir()``, which
    ``TMPDIR`` picks) that the run's first copy opens.  When training
    ends, the best copy, if the model has moved away from it, is read back
    into the arena; when the final evaluation was the best, the model
    already is that iterate and nothing is read.  The file is closed when
    ``train`` returns or raises.  A copy that cannot be written or read
    back in full raises OSError naming the directory and the byte count;
    after a failed read the arena holds neither iterate.

    ``eval_fn(model, dev)``, when given, replaces dev parsing in packs
    (``default_eval_fn``; tests use it to script the F1 trajectory).
    Without it an empty ``dev`` raises ValueError: every evaluation would
    read F1 0.0, and the first would be kept as the best iterate.
    ``log_fn``, when given, receives one tab-separated line per
    evaluation: batches, lr, mean train loss since the previous
    evaluation, dev F1.
    """
    config.validate()
    if not treebank:
        raise ValueError("training set is empty")
    if not dev and eval_fn is None:
        raise ValueError("dev set is empty")
    data = [(tree.sentence(), model.gold_binary(tree),
             None if train_external is None else train_external[k])
            for k, tree in enumerate(treebank)]
    if eval_fn is None:
        eval_fn = lambda m, d: default_eval_fn(m, d, dev_external)

    rng = np.random.default_rng(config.seed)
    state = TrainState()
    log_rows = []
    total = len(data)
    eval_points = sorted({math.ceil(total * k / config.evals_per_epoch)
                          for k in range(1, config.evals_per_epoch + 1)})
    loss_sum, loss_sentences = 0.0, 0
    best_in = None      # what holds the best iterate: "model" or "file"
    best_file = None    # the one file every best-iterate copy overwrites

    def run_eval():
        nonlocal loss_sum, loss_sentences, best_in
        f1 = eval_fn(model, dev)
        mean_loss = loss_sum / loss_sentences if loss_sentences else 0.0
        row = (state.batches_seen, state.lr, mean_loss, f1)
        log_rows.append(row)
        if log_fn is not None:
            log_fn("%d\t%.8f\t%.6f\t%.4f" % row)
        loss_sum, loss_sentences = 0.0, 0
        if f1 > state.best_f1:
            state.best_f1 = f1
            best_in = "model"
            return True
        return False

    def copy_best(read):
        """Write the data arena into the best-iterate file, opening it at
        the first copy, or ``read`` it back from there."""
        nonlocal best_file
        arena = model.store.data
        try:
            if best_file is None:
                best_file = tempfile.TemporaryFile()
            best_file.seek(0)
            if not read:
                best_file.write(arena)
                best_file.flush()
                return
            got = best_file.readinto(arena)
        except OSError as exc:
            raise OSError(exc.errno, "cannot %s the best iterate (%d bytes) "
                          "in a temporary file in %s: %s"
                          % ("read back" if read else "keep", arena.nbytes,
                             tempfile.gettempdir(), exc.strerror or exc)
                          ) from exc
        if got != arena.nbytes:
            raise OSError("read back %d of the best iterate's %d bytes from "
                          "a temporary file in %s; the model holds neither "
                          "the best nor the last iterate"
                          % (got, arena.nbytes, tempfile.gettempdir()))

    try:
        for epoch in range(config.max_epochs):
            order = rng.permutation(total)
            improved = False
            processed = 0
            next_eval = 0
            for start in range(0, total, config.batch_size):
                batch = [data[k] for k in
                         order[start:start + config.batch_size]]
                try:
                    results, loss = model.batch_loss(batch, True, rng)
                except NonFiniteScoreError as exc:
                    raise RuntimeError(
                        "non-finite training loss (epoch %d, batch at "
                        "sentence %d, lr %g): %s"
                        % (epoch, start, state.lr, exc)) from exc
                batch_value = sum(result.value for result in results)
                if not np.isfinite(batch_value):
                    raise RuntimeError(
                        "non-finite training loss (epoch %d, batch at "
                        "sentence %d, lr %g)" % (epoch, start, state.lr))
                if loss is not None:
                    backward(loss)
                # free the batch's graph (and its gradients) before the
                # update
                loss = results = None
                state.batches_seen += 1
                state.lr = lr_schedule(state.batches_seen, state, config)
                if best_in == "model":    # the step moves away from it
                    copy_best(read=False)
                    best_in = "file"
                adam_step(model.store, state.lr)
                loss_sum += batch_value
                loss_sentences += len(batch)
                processed += len(batch)
                while (next_eval < len(eval_points)
                       and processed >= eval_points[next_eval]):
                    improved = run_eval() or improved
                    next_eval += 1
            stalled = 0 if improved else state.epochs_since_improvement + 1
            if stalled >= config.patience_epochs:
                state.num_halvings += 1
                stalled = 0
            state.epochs_since_improvement = stalled
        if best_in == "file":
            copy_best(read=True)
    finally:
        if best_file is not None:
            best_file.close()
    return TrainResult(best_f1=state.best_f1, log_rows=log_rows, state=state)
