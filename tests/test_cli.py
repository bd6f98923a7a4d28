import dataclasses
import math

import numpy as np
import pytest

from spanparser import cli
from spanparser.checkpoint import load_checkpoint, save_checkpoint
from spanparser.cli import main, parse_disable_spec
from spanparser.config import ConfigError
from spanparser.lexical import write_vector_file
from spanparser.model import SpanParser
from spanparser.toydata import toy_treebank
from spanparser.trees import (load_tagged, load_trees, parse_bracketed,
                               save_trees)

from support import no_openblas, openblas_threads, recording_pins

CONFIG = """\
# tiny model so command tests stay fast
num_layers = 1
d_model = 16
num_heads = 2
d_k = 8
d_v = 8
d_ff = 24
span_hidden = 12
variant = factored
max_sentence_length = 24
mode = tags

batch_size = 8
base_lr = 0.004
warmup_batches = 4
evals_per_epoch = 1
max_epochs = 1
seed = 0
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    trees = toy_treebank(20, seed=1)
    save_trees(trees, root / "train.txt")
    save_trees(trees[:5], root / "dev.txt")
    (root / "model.cfg").write_text(CONFIG)
    with open(root / "dev.tagged", "w") as fh:
        for t in trees[:5]:
            fh.write(" ".join("%s_%s" % (w, tag)
                              for w, tag in t.sentence()) + "\n")
    code = main(["train", str(root / "train.txt"), str(root / "dev.txt"),
                 "--config", str(root / "model.cfg"),
                 "--out", str(root / "model.ckpt"), "--quiet"])
    assert code == 0
    return root


def test_train_writes_checkpoint_and_progress(tmp_path, capsys):
    trees = toy_treebank(8, seed=2)
    save_trees(trees, tmp_path / "train.txt")
    save_trees(trees[:3], tmp_path / "dev.txt")
    (tmp_path / "model.cfg").write_text(CONFIG)
    code = main(["train", str(tmp_path / "train.txt"),
                 str(tmp_path / "dev.txt"),
                 "--config", str(tmp_path / "model.cfg"),
                 "--out", str(tmp_path / "m.ckpt"),
                 "--set", "max_epochs=2", "--set", "batch_size=4",
                 "--log", str(tmp_path / "train.log")])
    assert code == 0
    out = capsys.readouterr().out
    assert "# parameters" in out
    assert "# batches\tlr\ttrain_loss\tdev_f1" in out
    assert "# best dev F1" in out
    assert "# override max_epochs=2" in out
    assert (tmp_path / "m.ckpt").exists()
    log = (tmp_path / "train.log").read_text()
    assert "# config" in log
    # two epochs, one eval each: two data rows
    rows = [l for l in log.splitlines() if l and not l.startswith("#")]
    assert len(rows) == 2
    assert all(len(r.split("\t")) == 4 for r in rows)


def test_train_quiet_suppresses_stdout(workdir, capsys):
    capsys.readouterr()
    # the fixture already trained with --quiet; train again quickly to probe
    code = main(["train", str(workdir / "train.txt"), str(workdir / "dev.txt"),
                 "--config", str(workdir / "model.cfg"),
                 "--out", str(workdir / "quiet.ckpt"),
                 "--set", "max_epochs=1", "--quiet"])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_parse_outputs_wellformed_trees(workdir, tmp_path):
    out_path = tmp_path / "pred.txt"
    code = main(["parse", str(workdir / "model.ckpt"),
                 str(workdir / "dev.tagged"), "--out", str(out_path)])
    assert code == 0
    preds = load_trees(out_path)
    gold = load_trees(workdir / "dev.txt")
    assert len(preds) == len(gold)
    for p, g in zip(preds, gold):
        assert p.sentence() == g.sentence()


def test_parse_is_deterministic(workdir, tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (a, b):
        assert main(["parse", str(workdir / "model.ckpt"),
                     str(workdir / "dev.tagged"), "--out", str(path)]) == 0
    assert a.read_text() == b.read_text()


def test_parse_to_stdout(workdir, capsys):
    code = main(["parse", str(workdir / "model.ckpt"),
                 str(workdir / "dev.tagged")])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("(")
    assert len(out.strip().splitlines()) == 5


def test_parse_records_failures_without_aborting(workdir, tmp_path):
    bad = tmp_path / "bad.tagged"
    words = " ".join("w%d_NN" % i for i in range(40))  # beyond max length
    bad.write_text("the_DT cat_NN\n%s\ndog_NN ran_VB\n" % words)
    out_path = tmp_path / "out.txt"
    code = main(["parse", str(workdir / "model.ckpt"), str(bad),
                 "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("(")
    assert lines[1].startswith("#PARSE-ERROR 1 ")
    assert lines[2].startswith("(")


def test_parse_error_names_the_input_line_past_blank_lines(workdir,
                                                           tmp_path):
    bad = tmp_path / "bad.tagged"
    words = " ".join("w%d_NN" % i for i in range(40))  # beyond max length
    bad.write_text("the_DT cat_NN\n\n   \n%s\n\ndog_NN ran_VB\n" % words)
    out_path = tmp_path / "out.txt"
    code = main(["parse", str(workdir / "model.ckpt"), str(bad),
                 "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    # one record per sentence; the failing sentence is on line 3
    assert len(lines) == 3
    assert lines[0].startswith("(") and lines[2].startswith("(")
    assert lines[1].startswith("#PARSE-ERROR 3 sentence has 42 tokens")


def test_parse_writes_one_record_per_input_line(workdir, tmp_path):
    # a form feed inside a line separates tokens; it does not end the line
    bad = tmp_path / "bad.tagged"
    words = " ".join("w%d_NN" % i for i in range(40))  # beyond max length
    bad.write_text("the_DT cat_NN\ndog_NN\x0cran_VB\n%s\n" % words)
    out_path = tmp_path / "out.txt"
    code = main(["parse", str(workdir / "model.ckpt"), str(bad),
                 "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert len(lines) == 3
    assert lines[0].startswith("(") and lines[1].startswith("(")
    assert "(VB ran)" in lines[1]
    assert lines[2].startswith("#PARSE-ERROR 2 sentence has 42 tokens")


def test_parse_records_non_finite_scores_as_failures(workdir, tmp_path):
    model = load_checkpoint(workdir / "model.ckpt")
    model.store["scorer.c2"].data[0] = np.nan
    save_checkpoint(model, tmp_path / "nan.ckpt")
    out_path = tmp_path / "out.txt"
    code = main(["parse", str(tmp_path / "nan.ckpt"),
                 str(workdir / "dev.tagged"), "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 5
    assert all(l.startswith("#PARSE-ERROR %d non-finite" % k)
               for k, l in enumerate(lines))


def test_eval_reports_and_tsv(workdir, tmp_path, capsys):
    pred = tmp_path / "pred.txt"
    main(["parse", str(workdir / "model.ckpt"), str(workdir / "dev.tagged"),
          "--out", str(pred)])
    capsys.readouterr()
    code = main(["eval", str(pred), str(workdir / "dev.txt"), "--tsv"])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 7
    assert out[0].startswith("gold brackets")
    assert out[5].startswith("labeled F1")
    assert len(out[6].split("\t")) == 3


def test_eval_self_is_perfect(workdir, capsys):
    code = main(["eval", str(workdir / "dev.txt"), str(workdir / "dev.txt")])
    assert code == 0
    out = capsys.readouterr().out
    assert "labeled F1          100.00" in out


def test_main_pins_blas_and_warns_when_it_cannot(workdir, monkeypatch,
                                                 tmp_path):
    # a command's products run inside the model's pin, each block left;
    # where numpy has no OpenBLAS to hold, the command still runs and the
    # pin warns once
    calls = recording_pins(monkeypatch)
    out = tmp_path / "pred.txt"
    command = ["parse", str(workdir / "model.ckpt"),
               str(workdir / "dev.tagged"), "--out", str(out)]
    assert main(command) == 0
    assert calls and calls.count("left") * 2 == len(calls)
    assert {c for c in calls if c != "left"} == {
        openblas_threads() is not None}
    parsed = out.read_text()
    calls.clear()
    with no_openblas(), pytest.warns(UserWarning) as caught:
        assert main(command) == 0
    assert len(caught) == 1
    assert "cannot hold numpy's OpenBLAS" in str(caught[0].message)
    assert calls and {c for c in calls if c != "left"} == {False}
    assert out.read_text() == parsed


def test_eval_count_mismatch_is_runtime_error(workdir, tmp_path, capsys):
    short = tmp_path / "short.txt"
    save_trees(load_trees(workdir / "dev.txt")[:2], short)
    code = main(["eval", str(short), str(workdir / "dev.txt")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_usage_errors_exit_2(workdir, external, tmp_path, capsys):
    assert main(["parse", str(tmp_path / "missing.ckpt"),
                 str(workdir / "dev.tagged")]) == 2
    assert main(["bogus-command"]) == 2
    assert main([]) == 2
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("no_such_key = 1\n")
    assert main(["train", str(workdir / "train.txt"),
                 str(workdir / "dev.txt"), "--config", str(bad_cfg),
                 "--out", str(tmp_path / "x.ckpt")]) == 2
    capsys.readouterr()
    # values of the right type that a config section refuses
    for item, problem in (
            ("num_layers=-1", "num_layers must be >= 0"),
            ("attention_dropout=1.5", "attention_dropout must be in [0, 1)"),
            ("variant=bogus", "unknown encoder variant 'bogus'"),
            ("max_sentence_length=2", "max_sentence_length must be >= 3"),
            ("seed=-1", "seed must be >= 0, got -1")):
        assert main(["train", str(workdir / "train.txt"),
                     str(workdir / "dev.txt"),
                     "--config", str(workdir / "model.cfg"),
                     "--out", str(tmp_path / "x.ckpt"), "--quiet",
                     "--set", item]) == 2, item
        assert capsys.readouterr().err.startswith("error: " + problem)
    # a char-concat width that does not fill the content slot, found
    # before any tree is read
    assert main(["train", str(tmp_path / "no-trees.txt"),
                 str(tmp_path / "no-trees.txt"),
                 "--config", str(workdir / "model.cfg"),
                 "--out", str(tmp_path / "x.ckpt"), "--quiet",
                 "--set", "mode=char-concat",
                 "--set", "char_embedding_dim=3"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: char-concat produces (8 + 8) * 3 = 48 values per word but "
        "the content slot is 8 wide")
    assert not (tmp_path / "x.ckpt").exists()
    # a vector file that does not fit the external model: three values a
    # vector, or a sentence one vector short, found before a model is
    # built or an output opened
    rng = np.random.default_rng(2)
    sentences = load_tagged(external / "dev.tagged")
    train_words = [len(t.sentence()) for t in load_trees(external /
                                                         "train.txt")]
    write_vector_file(tmp_path / "narrow.vec",
                      [rng.standard_normal((len(s), 3)) for s in sentences])
    write_vector_file(tmp_path / "short.vec",
                      [rng.standard_normal((len(s) - k, 5))
                       for k, s in enumerate(sentences)])
    write_vector_file(tmp_path / "train3.vec",
                      [rng.standard_normal((n, 3)) for n in train_words])
    out = tmp_path / "pred.txt"
    for vectors, problem in (
            ("narrow.vec", "the vectors are 3 wide but the model's "
                           "external_dim is 5"),
            ("short.vec", "sentence 1 (line index 1) of %s has %d words "
                          "but %d vectors" % (external / "dev.tagged",
                                              len(sentences[1]),
                                              len(sentences[1]) - 1))):
        assert main(["parse", str(external / "m.ckpt"),
                     str(external / "dev.tagged"), "--out", str(out),
                     "--vectors", str(tmp_path / vectors)]) == 2, vectors
        assert capsys.readouterr().err == "error: --vectors %s: %s\n" % (
            tmp_path / vectors, problem)
        assert not out.exists()
    # without --quiet, the header line printed once the model is built
    assert main(["train", str(external / "train.txt"),
                 str(external / "dev.txt"),
                 "--config", str(external / "model.cfg"),
                 "--out", str(tmp_path / "x.ckpt"),
                 "--train-vectors", str(tmp_path / "train3.vec"),
                 "--dev-vectors", str(external / "dev.vec")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --train-vectors %s: the vectors "
                                   "are 3 wide" % (tmp_path / "train3.vec"))
    assert captured.out == ""
    assert not (tmp_path / "x.ckpt").exists()


def test_bad_set_override_names_the_override(workdir, tmp_path, capsys):
    capsys.readouterr()
    for item, problem in (
            ("num_layers=two", "key 'num_layers' expects int, got 'two'"),
            ("colour=red", "unknown configuration key 'colour'")):
        assert main(["train", str(workdir / "train.txt"),
                     str(workdir / "dev.txt"),
                     "--config", str(workdir / "model.cfg"),
                     "--out", str(tmp_path / "x.ckpt"), "--quiet",
                     "--set", item]) == 2
        assert capsys.readouterr().err == "error: --set %s: %s\n" % (
            item, problem)
    assert not (tmp_path / "x.ckpt").exists()


def test_train_rejects_an_empty_dev_file(workdir, tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    capsys.readouterr()
    assert main(["train", str(workdir / "train.txt"), str(empty),
                 "--config", str(workdir / "model.cfg"),
                 "--out", str(tmp_path / "x.ckpt"), "--quiet"]) == 2
    assert "%s contains no trees" % empty in capsys.readouterr().err
    assert not (tmp_path / "x.ckpt").exists()


def test_train_rejects_a_missing_out_directory_before_training(
        workdir, tmp_path, capsys):
    out = tmp_path / "nodir" / "m.ckpt"
    log = tmp_path / "train.log"
    capsys.readouterr()
    assert main(["train", str(workdir / "train.txt"),
                 str(workdir / "dev.txt"),
                 "--config", str(workdir / "model.cfg"),
                 "--out", str(out), "--log", str(log)]) == 2
    captured = capsys.readouterr()
    assert "cannot write %s" % out in captured.err
    assert captured.out == ""
    assert not log.exists()
    assert not out.parent.exists()


def test_train_rejects_an_out_path_that_is_a_directory_before_training(
        workdir, tmp_path, capsys):
    out = tmp_path / "models"
    out.mkdir()
    log = tmp_path / "train.log"
    capsys.readouterr()
    assert main(["train", str(workdir / "train.txt"),
                 str(workdir / "dev.txt"),
                 "--config", str(workdir / "model.cfg"),
                 "--out", str(out), "--log", str(log)]) == 2
    captured = capsys.readouterr()
    assert "cannot write %s: it is a directory" % out in captured.err
    assert captured.out == ""
    assert not log.exists()
    assert list(out.iterdir()) == []


def test_analyze_window_table(workdir, tmp_path):
    out_path = tmp_path / "win.tsv"
    code = main(["analyze-window", str(workdir / "model.ckpt"),
                 str(workdir / "dev.txt"), "--distances", "0,2,inf",
                 "--mode", "strict", "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "# distance\tmode\tF1"
    assert len(lines) == 4
    dists = [l.split("\t")[0] for l in lines[1:]]
    assert dists == ["0", "2", "inf"]
    for line in lines[1:]:
        float(line.split("\t")[2])


def test_analyze_window_both_modes(workdir, tmp_path):
    out_path = tmp_path / "win2.tsv"
    code = main(["analyze-window", str(workdir / "model.ckpt"),
                 str(workdir / "dev.txt"), "--distances", "1",
                 "--mode", "both", "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert [l.split("\t")[1] for l in lines[1:]] == ["strict", "relaxed"]


def test_analyze_window_bad_distance(workdir, capsys):
    assert main(["analyze-window", str(workdir / "model.ckpt"),
                 str(workdir / "dev.txt"), "--distances", "-3"]) == 2
    capsys.readouterr()
    for bad in ("abc", "1.5", "1,,2"):
        assert main(["analyze-window", str(workdir / "model.ckpt"),
                     str(workdir / "dev.txt"), "--distances", bad]) == 2
        assert "window distance" in capsys.readouterr().err


def test_parse_disable_spec_layer_subsets():
    c = parse_disable_spec("content:last2", 4)
    assert c.disable_content == (True, True, False, False)
    assert c.disable_position == (False, False, False, False)
    c = parse_disable_spec("content:none,position:first1", 3)
    assert c.disable_content == (True, True, True)
    assert c.disable_position == (False, True, True)
    c = parse_disable_spec("position:all", 2)
    assert c.disable_position == (False, False)
    c = parse_disable_spec("", 2)
    assert c.disable_content == (False, False)
    c = parse_disable_spec("content:first9", 2)  # clamps to the stack
    assert c.disable_content == (False, False)
    with pytest.raises(ConfigError):
        parse_disable_spec("tone:all", 2)
    with pytest.raises(ConfigError):
        parse_disable_spec("content-last4", 2)
    with pytest.raises(ConfigError):
        parse_disable_spec("content:middle2", 2)
    c = parse_disable_spec("content:first0", 2)
    assert c.disable_content == (True, True)
    # a negative, missing or non-numeric count is an error, not "no layers"
    # and so is a term named again ("position:all" comes first)
    for clause in ("content:first-2", "content:last-1", "content:firstX",
                   "content:last", "position:first 1", "content:last1.5",
                   "position:none"):
        with pytest.raises(ConfigError) as e:
            parse_disable_spec("position:all," + clause, 4)
        assert repr(clause) in str(e.value)
    with pytest.raises(ConfigError, match="term 'content' is named again"):
        parse_disable_spec("content:first2,content:last1", 4)


def test_analyze_disable_table(workdir, tmp_path, capsys):
    out_path = tmp_path / "dis.tsv"
    code = main(["analyze-disable", str(workdir / "model.ckpt"),
                 str(workdir / "dev.txt"),
                 "--spec", "content:all,position:all",
                 "--spec", "content:none",
                 "--spec", "position:none", "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "# spec\tF1"
    assert len(lines) == 4
    baseline = float(lines[1].split("\t")[1])
    assert 0.0 <= baseline <= 100.0
    # a bad layer count is a usage error naming the clause
    for spec in ("content:first-2", "content:last-1", "content:firstX",
                 "content:last"):
        assert main(["analyze-disable", str(workdir / "model.ckpt"),
                     str(workdir / "dev.txt"), "--spec", spec]) == 2
        assert repr(spec) in capsys.readouterr().err


def test_analyze_disable_default_is_baseline(workdir, tmp_path):
    out_path = tmp_path / "dis2.tsv"
    code = main(["analyze-disable", str(workdir / "model.ckpt"),
                 str(workdir / "dev.txt"), "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("content:all,position:all\t")


def test_a_bad_spec_after_a_good_one_writes_no_table(workdir, tmp_path,
                                                    capsys):
    # every spec is parsed before the output is opened
    out_path = tmp_path / "dis3.tsv"
    assert main(["analyze-disable", str(workdir / "model.ckpt"),
                 str(workdir / "dev.txt"), "--spec", "content:all",
                 "--spec", "bogus:all", "--out", str(out_path)]) == 2
    assert "'bogus'" in capsys.readouterr().err
    assert not out_path.exists()


def test_analyze_disable_on_an_unfactored_model_writes_no_table(
        workdir, tmp_path, capsys):
    # each control is checked against the model before the output is opened
    factored = load_checkpoint(workdir / "model.ckpt")
    model = SpanParser(dataclasses.replace(factored.encoder_config,
                                           variant="additive-unfactored"),
                       factored.lexical_config, factored.vocab,
                       factored.labels)
    save_checkpoint(model, tmp_path / "additive.ckpt")
    out_path = tmp_path / "dis4.tsv"
    capsys.readouterr()
    assert main(["analyze-disable", str(tmp_path / "additive.ckpt"),
                 str(workdir / "dev.txt"), "--out", str(out_path)]) == 2
    assert "only applies to factored variants" in capsys.readouterr().err
    assert not out_path.exists()


def test_dump_attention_rows_are_distributions(workdir, tmp_path):
    out_path = tmp_path / "att.tsv"
    code = main(["dump-attention", str(workdir / "model.ckpt"),
                 "--text", "the_DT cat_NN sat_VB", "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("# tree (")
    assert lines[1] == "# tokens <start> the cat sat <stop>"
    assert lines[2] == "# layer\thead\tquery\tkey\tprob"
    rows = [l.split("\t") for l in lines[3:]]
    T = 5
    assert len(rows) == 1 * 2 * T * T  # layers * heads * T * T
    sums = {}
    for layer, head, q, k, p in rows:
        sums.setdefault((layer, head, q), 0.0)
        sums[(layer, head, q)] += float(p)
    for total in sums.values():
        assert total == pytest.approx(1.0, abs=1e-6)


def test_dump_attention_window_zeroes_far_pairs(workdir, tmp_path):
    out_path = tmp_path / "attw.tsv"
    code = main(["dump-attention", str(workdir / "model.ckpt"),
                 "--text", "the_DT cat_NN sat_VB down_RB",
                 "--window", "1:strict", "--out", str(out_path)])
    assert code == 0
    for line in out_path.read_text().splitlines()[3:]:
        layer, head, q, k, p = line.split("\t")
        if abs(int(q) - int(k)) > 1:
            assert float(p) == 0.0


def test_dump_attention_input_flag_and_errors(workdir, tmp_path, capsys):
    out_path = tmp_path / "atti.tsv"
    code = main(["dump-attention", str(workdir / "model.ckpt"),
                 "--input", str(workdir / "dev.tagged"),
                 "--out", str(out_path)])
    assert code == 0
    assert out_path.read_text().startswith("# tree (")
    assert main(["dump-attention", str(workdir / "model.ckpt")]) == 2
    assert main(["dump-attention", str(workdir / "model.ckpt"),
                 "--text", "a_DT", "--input",
                 str(workdir / "dev.tagged")]) == 2
    assert main(["dump-attention", str(workdir / "model.ckpt"),
                 "--text", "a_DT", "--window", "oops"]) == 2
    capsys.readouterr()
    for window, message in (("abc:strict", "window distance 'abc'"),
                            ("1.5:strict", "window distance '1.5'"),
                            ("2:sideways", "--window mode 'sideways'")):
        assert main(["dump-attention", str(workdir / "model.ckpt"),
                     "--text", "a_DT", "--window", window]) == 2
        assert message in capsys.readouterr().err


def write_tagged(path, sentences):
    """One ``word_tag`` line per sentence."""
    with open(path, "w") as fh:
        for sentence in sentences:
            fh.write(" ".join("%s_%s" % pair for pair in sentence) + "\n")


@pytest.fixture(scope="module")
def external(tmp_path_factory):
    """A directory holding an external-mode config (``model.cfg``), the
    treebanks and vector files it was trained on, the checkpoint
    (``m.ckpt``) and the dev sentences tagged."""
    root = tmp_path_factory.mktemp("external")
    trees = toy_treebank(6, seed=3)
    save_trees(trees, root / "train.txt")
    save_trees(trees[:2], root / "dev.txt")
    cfg = CONFIG.replace("mode = tags", "mode = external\nexternal_dim = 5")
    (root / "model.cfg").write_text(cfg)
    rng = np.random.default_rng(0)
    write_vector_file(root / "train.vec",
                      [rng.standard_normal((len(t.sentence()), 5))
                       for t in trees])
    write_vector_file(root / "dev.vec",
                      [rng.standard_normal((len(t.sentence()), 5))
                       for t in trees[:2]])
    code = main(["train", str(root / "train.txt"), str(root / "dev.txt"),
                 "--config", str(root / "model.cfg"),
                 "--out", str(root / "m.ckpt"),
                 "--train-vectors", str(root / "train.vec"),
                 "--dev-vectors", str(root / "dev.vec"), "--quiet"])
    assert code == 0
    write_tagged(root / "dev.tagged", [t.sentence() for t in trees[:2]])
    return root


def test_external_mode_through_cli(external, tmp_path):
    code = main(["parse", str(external / "m.ckpt"),
                 str(external / "dev.tagged"),
                 "--vectors", str(external / "dev.vec"),
                 "--out", str(tmp_path / "pred.txt")])
    assert code == 0
    assert len(load_trees(tmp_path / "pred.txt")) == 2


def test_dump_attention_checks_the_vectors_of_every_sentence_read(
        external, tmp_path, capsys):
    # the vector file holds a matrix for each sentence of --input, and the
    # first one's is used: the tree is the first sentence's parse
    sentences = [t.sentence() for t in toy_treebank(3, seed=8)]
    rng = np.random.default_rng(1)
    mats = [rng.standard_normal((len(s), 5)) for s in sentences]
    write_tagged(tmp_path / "three.tagged", sentences)
    write_vector_file(tmp_path / "three.vec", mats)
    write_tagged(tmp_path / "first.tagged", sentences[:1])
    write_vector_file(tmp_path / "first.vec", mats[:1])
    model = str(external / "m.ckpt")
    assert main(["dump-attention", model,
                 "--input", str(tmp_path / "three.tagged"),
                 "--vectors", str(tmp_path / "three.vec"),
                 "--out", str(tmp_path / "input.tsv")]) == 0
    assert main(["parse", model, str(tmp_path / "first.tagged"),
                 "--vectors", str(tmp_path / "first.vec"),
                 "--out", str(tmp_path / "first.txt")]) == 0
    tree = (tmp_path / "first.txt").read_text()
    assert tree.startswith("(") and tree.count("\n") == 1
    dump = (tmp_path / "input.tsv").read_text()
    assert dump.splitlines()[0] == "# tree " + tree.rstrip("\n")
    # --text reads one sentence, so its vector file holds one matrix
    text = " ".join("%s_%s" % pair for pair in sentences[0])
    capsys.readouterr()
    assert main(["dump-attention", model, "--text", text,
                 "--vectors", str(tmp_path / "three.vec")]) == 1
    assert ("three.vec holds 3 sentences but the sentence has 1"
            in capsys.readouterr().err)
    assert main(["dump-attention", model, "--text", text,
                 "--vectors", str(tmp_path / "first.vec"),
                 "--out", str(tmp_path / "text.tsv")]) == 0
    assert (tmp_path / "text.tsv").read_text() == dump


def test_parse_vectors_must_match_the_lexical_mode(workdir, external,
                                                   tmp_path, capsys):
    # a tags model given vectors, and an external one given none, are
    # usage errors raised before any sentence is parsed
    capsys.readouterr()
    for model, vectors, words in (
            (workdir / "model.ckpt", ["--vectors", str(external / "dev.vec")],
             ("--vectors given", "lexical mode 'tags'")),
            (external / "m.ckpt", [], ("lexical mode 'external'",
                                       "needs --vectors"))):
        out = tmp_path / "pred.txt"
        assert main(["parse", str(model), str(external / "dev.tagged"),
                     "--out", str(out)] + vectors) == 2
        err = capsys.readouterr().err
        assert all(w in err for w in words), err
        assert not out.exists()


def test_train_vectors_must_match_the_lexical_mode(external, tmp_path,
                                                   capsys, monkeypatch):
    # checked before a model is built or trained
    def refuse(*args, **kwargs):
        raise AssertionError("built a model")
    monkeypatch.setattr(cli, "SpanParser", refuse)
    tags = tmp_path / "tags.cfg"
    tags.write_text(CONFIG)
    vectors = ["--train-vectors", str(external / "train.vec"),
               "--dev-vectors", str(external / "dev.vec")]
    capsys.readouterr()
    for config, flags, words in (
            (tags, vectors, ("--train-vectors given", "lexical mode 'tags'")),
            (external / "model.cfg", vectors[:2],
             ("lexical mode 'external'", "needs --dev-vectors")),
            (external / "model.cfg", vectors[2:],
             ("lexical mode 'external'", "needs --train-vectors"))):
        out = tmp_path / "m.ckpt"
        assert main(["train", str(external / "train.txt"),
                     str(external / "dev.txt"), "--config", str(config),
                     "--out", str(out), "--quiet"] + flags) == 2
        err = capsys.readouterr().err
        assert all(w in err for w in words), err
        assert not out.exists()
