"""Seeded inputs, model configurations and fixtures of the four workloads.

Everything here is a pure function of the workload seed.  Fixtures
(treebank files, tagged input files, checkpoints) are written by
``fixture.py`` in a process of their own, before and outside every timed
region, so no checkpoint binary is ever committed.

Sentence lengths are stratified: the seed at most jitters each length
inside a fixed stratum, and picks the words, tags and order.  The cost of a
parse grows with its length, so fixed strata keep the length make-up, and
with it the timings, the same from seed to seed.
"""

from __future__ import annotations

import zlib

import numpy as np

from run import WORKLOADS  # noqa: F401  (the one list of workloads)
from spanparser import (EncoderConfig, LabelInventory, LexicalConfig,
                        SpanParser, TrainConfig, Vocabulary, toy_treebank)

# The test suite's toy config (2 layers, d_model 64, 4 heads, factored,
# char-LSTM) with the library's non-zero default dropout rates.  The
# position table keeps its default length of 300 so that the checkpoint it
# produces can parse the long sentences of parse-long.
TOY_ENCODER = dict(num_layers=2, d_model=64, num_heads=4, d_k=16, d_v=16,
                   d_ff=128, variant="factored", span_hidden=64)
TOY_LEXICAL = dict(mode="char-lstm", char_embedding_dim=16,
                   char_lstm_hidden=32)
TOY_TRAIN = dict(batch_size=10, base_lr=0.002, warmup_batches=20,
                 evals_per_epoch=1, patience_epochs=8, max_epochs=6)
TOY_TRAIN_TREES = 40
TOY_DEV_TREES = 40

# The paper config is the library default: 8 layers, d_model 1024, 8 heads,
# d_ff 2048, tags lexical.  train-paper turns its dropout off and takes
# four Adam steps (two epochs of two batches of four sentences), with a
# dev evaluation after each epoch.  With dropout on, a few steps left the
# dropout-free loss higher than before on some seeds (42.21 -> 42.34 on
# seed 409 after four full-batch steps at lr 2e-4), so the check that
# training lowers it would fail by chance; without dropout it fell on
# every seed tried.  train-toy keeps dropout on.
PAPER_TRAIN = dict(batch_size=4, base_lr=0.0002, warmup_batches=0,
                   evals_per_epoch=1, patience_epochs=5, max_epochs=2)
PAPER_TRAIN_TREES = 8
PAPER_DEV_TREES = 8

# parse-paper: 100 sentences of 5..60 words, uniform over that range (no
# length mix of real traffic is assumed).
PAPER_PARSE_SENTENCES = 100
PAPER_PARSE_MIN, PAPER_PARSE_MAX = 5, 60
# the treebank whose vocabulary and labels the random paper model gets
PAPER_VOCAB_TREES = 100

# parse-long: fixed lengths, the last the longest the 300-row position
# table allows (298 words plus the two boundary tokens).  CKY time grows as
# n^3, so the lengths are not jittered; the seed picks words and tags.
LONG_LENGTHS = (100, 150, 200, 250, 298)

# train and dev trees are drawn from a treebank this many times larger
POOL_PER_TREE = 8


def sub_seed(seed: int, tag: str) -> int:
    """An independent 32-bit seed for one use of the workload seed."""
    entropy = [seed % (1 << 63), zlib.crc32(tag.encode("utf-8"))]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def toy_configs():
    return (EncoderConfig(**TOY_ENCODER), LexicalConfig(**TOY_LEXICAL))


def paper_configs(dropout=True):
    if dropout:
        return EncoderConfig(), LexicalConfig(mode="tags")
    return (EncoderConfig(attention_dropout=0.0, relu_dropout=0.0,
                          residual_dropout=0.0),
            LexicalConfig(mode="tags", word_dropout=0.0, tag_dropout=0.0))


def train_config(workload: str, seed: int) -> TrainConfig:
    params = TOY_TRAIN if workload == "train-toy" else PAPER_TRAIN
    return TrainConfig(seed=sub_seed(seed, "train-order"), **params)


def model_configs(workload: str):
    if workload == "train-paper":
        return paper_configs(dropout=False)
    return paper_configs() if workload == "parse-paper" else toy_configs()


def split_treebank(n_train: int, n_dev: int, seed: int):
    """Disjoint train and held-out dev trees, each a length-stratified
    sample of one toy treebank (the generator never repeats a sentence):
    tree k of ``count`` is the one at rank (k + 1/2) / count when the pool
    is ordered by length, ties broken at random."""
    pool = toy_treebank(POOL_PER_TREE * (n_train + n_dev),
                        seed=sub_seed(seed, "treebank"))
    rng = np.random.default_rng(sub_seed(seed, "split"))
    picked = []
    for count in (n_train, n_dev):
        tiebreak = rng.permutation(len(pool))
        order = sorted(range(len(pool)),
                       key=lambda k: (len(pool[k].leaves()), tiebreak[k]))
        chosen = [order[int((k + 0.5) * len(order) / count)]
                  for k in range(count)]
        picked.append([pool[k] for k in rng.permutation(chosen)])
        taken = set(chosen)
        pool = [t for k, t in enumerate(pool) if k not in taken]
    return picked[0], picked[1]


def build_model(workload: str, trees, seed: int) -> SpanParser:
    """The model set-up as ``spanparser train`` does it."""
    encoder, lexical = model_configs(workload)
    return SpanParser(encoder, lexical, Vocabulary.from_trees(trees),
                      LabelInventory.from_trees(trees),
                      seed=sub_seed(seed, "model"))


def lexicon(trees):
    """Sorted distinct (word, tag) pairs of a treebank."""
    return sorted({pair for t in trees for pair in t.sentence()})


def random_sentence(rng, pairs, n: int):
    picks = rng.integers(len(pairs), size=n)
    return [pairs[k] for k in picks]


def paper_parse_lengths(rng):
    """Stratified uniform lengths in [5, 60]: stratum k of 100 takes the
    jittered quantile (k + u) / 100 of the uniform distribution."""
    count = PAPER_PARSE_SENTENCES
    u = (np.arange(count) + rng.random(count)) / count
    span = PAPER_PARSE_MAX - PAPER_PARSE_MIN
    lengths = PAPER_PARSE_MIN + np.floor(span * u + 0.5)
    return [int(n) for n in rng.permutation(lengths.astype(int))]


def parse_sentences(workload: str, pairs, seed: int):
    rng = np.random.default_rng(sub_seed(seed, "sentences"))
    lengths = (paper_parse_lengths(rng) if workload == "parse-paper"
               else LONG_LENGTHS)
    return [random_sentence(rng, pairs, n) for n in lengths]


def render_tagged(sentences) -> str:
    return "".join(" ".join("%s_%s" % pair for pair in s) + "\n"
                   for s in sentences)
