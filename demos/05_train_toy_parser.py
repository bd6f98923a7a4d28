"""Train a small parser on synthetic trees, watch the schedule work,
score the result, and round-trip it through a checkpoint file."""

import os
import tempfile

from spanparser.checkpoint import load_checkpoint, save_checkpoint
from spanparser.encoder import EncoderConfig
from spanparser.evaluation import format_report, score
from spanparser.lexical import LexicalConfig
from spanparser.model import SpanParser
from spanparser.toydata import toy_treebank
from spanparser.training import TrainConfig, train
from spanparser.vocab import LabelInventory, Vocabulary

trees = toy_treebank(50, seed=11)
print("treebank: %d trees, lengths %d..%d"
      % (len(trees), min(len(t.leaves()) for t in trees),
         max(len(t.leaves()) for t in trees)))
print("sample:", trees[0].render())

enc = EncoderConfig(num_layers=2, d_model=64, num_heads=4, d_k=16, d_v=16,
                    d_ff=128, variant="factored", span_hidden=64,
                    max_sentence_length=20, attention_dropout=0.0,
                    relu_dropout=0.0, residual_dropout=0.0)
lex = LexicalConfig(mode="char-lstm", char_embedding_dim=16,
                    char_lstm_hidden=32, word_dropout=0.0, tag_dropout=0.0,
                    morph_dropout=0.0, char_dropout=0.0)
model = SpanParser(enc, lex, Vocabulary.from_trees(trees),
                   LabelInventory.from_trees(trees), seed=0)
print("model: %d parameter values" % model.num_parameters())

cfg = TrainConfig(batch_size=10, base_lr=0.002, warmup_batches=20,
                  evals_per_epoch=1, patience_epochs=8, max_epochs=30,
                  seed=0)
print("\nbatches\tlr\tloss\tdev F1")
result = train(model, trees, trees, cfg,
               log_fn=lambda row: (int(row.split("\t")[0]) % 25 == 0
                                   and print(row)))
print("best dev F1: %.2f after %d batches"
      % (result.best_f1, result.state.batches_seen))

# parse_batch scores length-sorted packs of sentences in one pass each
preds = model.parse_batch([t.sentence() for t in trees])
print("\n" + format_report(score(preds, trees)))
print("parse of sample:", preds[0].render())

# checkpoints restore the exact model: same configs, vocab, and values
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "toy.ckpt")
    save_checkpoint(model, path)
    clone = load_checkpoint(path)
same = all(clone.parse(t.sentence()).render() == p.render()
           for t, p in zip(trees, preds))
print("reloaded model parses identically:", same)
