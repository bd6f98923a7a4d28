import pathlib

import pytest

from spanparser.config import (
    ConfigError, apply_overrides, build_configs, default_config_text,
    load_config_file, parse_config_text,
)


def test_parse_key_value_lines():
    raw = parse_config_text(
        "# full-line comment\n"
        "\n"
        "d_model = 64\n"
        "variant = factored   # inline comment\n"
        "  base_lr=0.001\n")
    assert raw == {"d_model": "64", "variant": "factored",
                   "base_lr": "0.001"}


def test_parse_errors_carry_source_and_line():
    with pytest.raises(ConfigError) as e:
        parse_config_text("d_model = 8\nnot a setting\n", source="foo.cfg")
    assert "foo.cfg:2" in str(e.value)


def test_build_configs_types_and_defaults():
    enc, lex, tr = build_configs({
        "d_model": "64", "num_layers": "2", "variant": "factored",
        "mode": "char-lstm", "char_lstm_hidden": "32",
        "use_word_embeddings": "false",
        "batch_size": "10", "base_lr": "0.004",
    })
    assert enc.d_model == 64 and enc.num_layers == 2
    assert lex.mode == "char-lstm" and lex.use_word_embeddings is False
    assert tr.batch_size == 10 and tr.base_lr == 0.004
    # unlisted keys keep their dataclass defaults
    assert enc.num_heads == 8
    assert tr.patience_epochs == 5


def test_bool_spellings():
    for text, value in (("true", True), ("YES", True), ("on", True),
                        ("1", True), ("false", False), ("Off", False),
                        ("0", False), ("no", False)):
        _, lex, _ = build_configs({"use_word_embeddings": text})
        assert lex.use_word_embeddings is value
    with pytest.raises(ConfigError):
        build_configs({"use_word_embeddings": "maybe"})


def test_type_errors_name_key_and_type():
    with pytest.raises(ConfigError) as e:
        build_configs({"d_model": "sixteen"})
    assert "'d_model'" in str(e.value) and "int" in str(e.value)
    with pytest.raises(ConfigError):
        build_configs({"base_lr": "fast"})


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as e:
        build_configs({"dmodel": "64"})
    assert "dmodel" in str(e.value)


def test_validation_runs_on_built_configs():
    with pytest.raises(ValueError):
        build_configs({"variant": "bogus"})
    with pytest.raises(ValueError):
        build_configs({"batch_size": "0"})


def test_overrides_win_and_are_validated():
    raw = {"d_model": "64"}
    merged = apply_overrides(raw, ["d_model=128", "num_heads = 4"])
    assert merged["d_model"] == "128"
    assert merged["num_heads"] == "4"
    assert raw["d_model"] == "64"  # input not mutated
    with pytest.raises(ConfigError):
        apply_overrides(raw, ["d_model"])


def test_default_config_text_roundtrips():
    text = default_config_text()
    raw = parse_config_text(text)
    enc, lex, tr = build_configs(raw)
    from spanparser.encoder import EncoderConfig
    from spanparser.lexical import LexicalConfig
    from spanparser.training import TrainConfig
    assert enc == EncoderConfig()
    assert lex == LexicalConfig()
    assert tr == TrainConfig()


def test_load_config_file(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text("num_layers = 3\nmode = tags\n")
    raw = load_config_file(path)
    assert raw == {"num_layers": "3", "mode": "tags"}
    with pytest.raises(ConfigError) as e:
        path.write_text("oops\n")
        load_config_file(path)
    assert str(path) in str(e.value)


@pytest.mark.parametrize("text, line, problem", [
    ("d_model = 64\nnum_heads = 4\nd_model = 32\n", 3,
     "duplicate key 'd_model', first set on line 1"),
    ("# layers\nnum_layers = two\n", 2,
     "key 'num_layers' expects int, got 'two'"),
    ("d_model = 64\ncolour = red\n", 2,
     "unknown configuration key 'colour'"),
], ids=["duplicate", "type-mismatch", "unknown-key"])
def test_file_errors_name_the_source_and_line(text, line, problem):
    with pytest.raises(ConfigError) as e:
        parse_config_text(text, source="foo.cfg")
    assert str(e.value) == "foo.cfg:%d: %s" % (line, problem)


def test_formats_doc_lists_every_key_with_its_default():
    doc = (pathlib.Path(__file__).parent.parent / "docs" / "formats.md"
           ).read_text(encoding="utf-8")
    after = doc.split("The full key set with defaults:", 1)[1]
    block = after.split("```", 2)[1]
    keys = parse_config_text(block, source="docs/formats.md")
    assert list(keys.items()) == list(
        parse_config_text(default_config_text()).items())
