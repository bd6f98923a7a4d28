"""Training and scoring are bitwise reproducible whatever the BLAS thread
count, with no pin of the command's or the caller's:
``SpanParser.pack_scores`` and ``autodiff.backward`` hold BLAS to one
thread themselves."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spanparser
from spanparser.toydata import toy_treebank
from spanparser.trees import Tree, save_trees

from support import openblas_threads

# the toy config: 2 layers, d_model 64, 4 heads, factored, char-LSTM, with
# the default dropout rates
TOY_CONFIG = """\
num_layers = 2
d_model = 64
num_heads = 4
d_k = 16
d_v = 16
d_ff = 128
span_hidden = 64
variant = factored
mode = char-lstm
char_embedding_dim = 16
char_lstm_hidden = 32
batch_size = 10
base_lr = 0.002
warmup_batches = 2
evals_per_epoch = 1
max_epochs = 1
seed = 3
"""


# a one-layer model at the paper's widths (d_model 1024, d_ff 2048, 8
# heads), tags mode, scoring three sentences of the toy lexicon: a digest of
# their charts
FORWARD_SCRIPT = """
import hashlib

import numpy as np

from spanparser import (EncoderConfig, LabelInventory, LexicalConfig,
                        SpanParser, Vocabulary, toy_treebank)

trees = toy_treebank(40, seed=5)
pairs = sorted({pair for tree in trees for pair in tree.sentence()})
rng = np.random.default_rng(0)
model = SpanParser(EncoderConfig(num_layers=1), LexicalConfig(mode="tags"),
                   Vocabulary.from_trees(trees),
                   LabelInventory.from_trees(trees), seed=11)
digest = hashlib.sha256()
for n in (12, 25, 40):
    sentence = [pairs[k] for k in rng.integers(len(pairs), size=n)]
    digest.update(model.score_chart(sentence).tobytes())
print(digest.hexdigest())
"""


def _env(threads):
    return dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                OMP_NUM_THREADS=str(threads),
                PYTHONPATH=os.pathsep.join(
                    [str(Path(spanparser.__file__).parents[1])] + sys.path))


def _train(root, threads):
    out = root / ("model-%d.ckpt" % threads)
    subprocess.run([sys.executable, "-m", "spanparser", "train",
                    str(root / "train.txt"), str(root / "dev.txt"),
                    "--config", str(root / "toy.cfg"), "--out", str(out),
                    "--quiet"], env=_env(threads), check=True, timeout=300)
    return out.read_bytes()


def _forward(threads):
    return subprocess.run([sys.executable, "-c", FORWARD_SCRIPT],
                          env=_env(threads), check=True, capture_output=True,
                          text=True, timeout=120).stdout


def test_checkpoint_bytes_do_not_depend_on_blas_threads(tmp_path):
    # six toy sentences under one root give 40-70 words, so the span
    # scorer's output product ([spans, 64] x [64, labels]) and its two
    # gradient products are large enough for OpenBLAS to split across
    # threads (m * n * k above 65536 * 4)
    toy = toy_treebank(72, seed=5)
    trees = [Tree("S", toy[k:k + 6]) for k in range(0, len(toy), 6)]
    save_trees(trees[:8], tmp_path / "train.txt")
    save_trees(trees[8:], tmp_path / "dev.txt")
    (tmp_path / "toy.cfg").write_text(TOY_CONFIG)
    assert _train(tmp_path, 1) == _train(tmp_path, 2)


def test_paper_width_charts_do_not_depend_on_blas_threads():
    # at these widths OpenBLAS splits the forward products across threads
    # and their bits change, so the charts match only under pack_scores's
    # pin (the toy config above gives the same forward bits either way)
    if openblas_threads() is None:
        pytest.skip("numpy bundles no OpenBLAS with a known thread getter")
    assert _forward(1) == _forward(2)
