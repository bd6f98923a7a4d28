"""Write one workload's fixtures for one seed: treebank and tagged input
files, and the checkpoint a parse workload loads.

    python3 perfbench/fixture.py --workload parse-paper --seed 1 --dir DIR

``run.py`` calls this in a process of its own before the workload process
starts, so fixture building is outside every timed region and out of the
workload process's peak memory.
"""

from __future__ import annotations

import argparse
import os

import inputs
from spanparser import save_checkpoint, save_trees, toy_treebank, train


def build(workload: str, seed: int, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    path = lambda name: os.path.join(out_dir, name)
    if workload == "train-toy":
        trees, dev = inputs.split_treebank(inputs.TOY_TRAIN_TREES,
                                           inputs.TOY_DEV_TREES, seed)
    elif workload == "train-paper":
        trees, dev = inputs.split_treebank(inputs.PAPER_TRAIN_TREES,
                                           inputs.PAPER_DEV_TREES, seed)
    elif workload == "parse-paper":
        trees = toy_treebank(inputs.PAPER_VOCAB_TREES,
                             seed=inputs.sub_seed(seed, "treebank"))
        model = inputs.build_model(workload, trees, seed)
        save_checkpoint(model, path("model.ckpt"))
    elif workload == "parse-long":
        # the checkpoint the train-toy configuration produces
        trees, dev = inputs.split_treebank(inputs.TOY_TRAIN_TREES,
                                           inputs.TOY_DEV_TREES, seed)
        model = inputs.build_model("train-toy", trees, seed)
        train(model, trees, dev, inputs.train_config("train-toy", seed))
        save_checkpoint(model, path("model.ckpt"))
    else:
        raise ValueError("unknown workload %r" % workload)
    if workload.startswith("train-"):
        save_trees(trees, path("train.mrg"))
        save_trees(dev, path("dev.mrg"))
    else:
        sentences = inputs.parse_sentences(workload, inputs.lexicon(trees),
                                           seed)
        with open(path("input.txt"), "w", encoding="utf-8") as fh:
            fh.write(inputs.render_tagged(sentences))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    args = ap.parse_args()
    build(args.workload, args.seed, args.dir)


if __name__ == "__main__":
    main()
