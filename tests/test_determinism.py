"""Training is bitwise reproducible whatever the BLAS thread count, with
no pin of the command's or the caller's: ``SpanParser.pack_scores`` and
``autodiff.backward`` hold BLAS to one thread themselves."""

import os
import subprocess
import sys
from pathlib import Path

import spanparser
from spanparser.toydata import toy_treebank
from spanparser.trees import Tree, save_trees

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


def _train(root, threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(
                   [str(Path(spanparser.__file__).parents[1])]
                   + sys.path))
    out = root / ("model-%d.ckpt" % threads)
    subprocess.run([sys.executable, "-m", "spanparser", "train",
                    str(root / "train.txt"), str(root / "dev.txt"),
                    "--config", str(root / "toy.cfg"), "--out", str(out),
                    "--quiet"], env=env, check=True, timeout=300)
    return out.read_bytes()


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
