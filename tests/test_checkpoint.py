import errno
import hashlib
import json
import mmap
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spanparser
import spanparser.model as model_module
from spanparser.autodiff import backward
from spanparser.checkpoint import (FORMAT_VERSION, MAGIC, PAYLOAD_ALIGN,
                                   load_checkpoint, save_checkpoint)
from spanparser.encoder import EncoderConfig
from spanparser.lexical import LexicalConfig
from spanparser.model import SpanParser
from spanparser.optim import adam_step
from spanparser.trees import parse_bracketed
from spanparser.vocab import LabelInventory, Vocabulary

from support import tiny_model

TREES = parse_bracketed(
    "(S (NP (DT the) (NN cat)) (VP (VB sat)))\n"
    "(S (NP (NN dog)) (VP (VB ran) (RB off)))"
)


def trained_like_model(seed=0, **kw):
    model = tiny_model(TREES, seed=seed, **kw)
    # perturb away from the seed-deterministic init so the payload matters
    rng = np.random.default_rng(99)
    for p in model.store:
        p.data[...] += rng.standard_normal(p.shape)
    return model


def test_roundtrip_is_bitwise(tmp_path):
    model = trained_like_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    again = load_checkpoint(path)
    assert again.encoder_config == model.encoder_config
    assert again.lexical_config == model.lexical_config
    assert again.vocab.words == model.vocab.words
    assert again.labels.labels == model.labels.labels
    assert again.seed == model.seed
    for (name, pa), (_, pb) in zip(model.store.items(), again.store.items()):
        assert np.array_equal(pa.data, pb.data), name
    # identical predictions
    sent = TREES[0].sentence()
    assert model.parse(sent) == again.parse(sent)


def test_roundtrip_char_lstm_mode(tmp_path):
    model = trained_like_model(mode="char-lstm", char_lstm_hidden=6)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    again = load_checkpoint(path)
    assert again.num_parameters() == model.num_parameters()
    for (name, pa), (_, pb) in zip(model.store.items(), again.store.items()):
        assert np.array_equal(pa.data, pb.data), name


def test_file_layout_starts_with_magic_and_version(tmp_path):
    model = trained_like_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    assert raw[:8] == MAGIC
    assert struct.unpack_from("<I", raw, 8)[0] == FORMAT_VERSION
    (header_len,) = struct.unpack_from("<Q", raw, 12)
    header = json.loads(raw[20:20 + header_len].decode("utf-8"))
    assert header["seed"] == model.seed
    names = [e["name"] for e in header["params"]]
    assert names == [name for name, _ in model.store.items()]
    payload = len(raw) - 20 - header_len
    assert payload == 8 * model.num_parameters()
    # the header is padded with JSON whitespace up to a page boundary
    assert (20 + header_len) % PAYLOAD_ALIGN == 0
    assert raw[20:20 + header_len].endswith(b" ")


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTACKPTxxxx")
    with pytest.raises(ValueError) as e:
        load_checkpoint(path)
    assert "magic" in str(e.value)


def test_unknown_version_rejected(tmp_path):
    model = trained_like_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, 8, 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError) as e:
        load_checkpoint(path)
    assert "version 99" in str(e.value) and str(path) in str(e.value)


def test_truncated_payload_rejected(tmp_path):
    model = trained_like_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(ValueError) as e:
        load_checkpoint(path)
    assert "truncated" in str(e.value) and str(path) in str(e.value)


def test_trailing_garbage_rejected(tmp_path):
    model = trained_like_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    path.write_bytes(raw + b"\x00" * 8)
    with pytest.raises(ValueError) as e:
        load_checkpoint(path)
    assert "trailing" in str(e.value) and str(path) in str(e.value)


def test_shape_mismatch_rejected(tmp_path):
    model = trained_like_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    rewrite_header(path, lambda h: h["params"][0].update(shape=[1, 1]))
    with pytest.raises(ValueError) as e:
        load_checkpoint(path)
    assert "shape" in str(e.value) and str(path) in str(e.value)


def rewrite_header(path, edit):
    """Apply ``edit`` to the JSON header of the checkpoint at ``path``."""
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", raw, 12)
    header = json.loads(raw[20:20 + header_len].decode("utf-8"))
    edit(header)
    blob = json.dumps(header, ensure_ascii=False).encode("utf-8")
    path.write_bytes(raw[:12] + struct.pack("<Q", len(blob)) + blob
                     + raw[20 + header_len:])


PARAMETER_LIST_EDITS = [
    lambda h: h["params"].reverse(),
    lambda h: h["params"].insert(1, h["params"][0]),
    lambda h: h["params"].pop(),
]


@pytest.mark.parametrize("edit", PARAMETER_LIST_EDITS,
                         ids=["reordered", "duplicated", "missing"])
def test_parameter_list_must_match_the_model_in_order(tmp_path, edit):
    model = trained_like_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    rewrite_header(path, edit)
    with pytest.raises(ValueError) as e:
        load_checkpoint(path)
    assert "does not match" in str(e.value) and str(path) in str(e.value)


def test_failed_save_leaves_previous_file(tmp_path, monkeypatch):
    model = trained_like_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    before = path.read_bytes()
    model.store.data[0] += 1.0

    class DiskFull:
        """A file whose payload write stops part-way with ENOSPC."""

        def __init__(self, name, mode):
            self.fh = open(name, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            if isinstance(data, memoryview):
                self.fh.write(bytes(data)[:64])
                raise OSError(errno.ENOSPC, "No space left on device")
            return self.fh.write(data)

    monkeypatch.setattr("spanparser.checkpoint.open", DiskFull,
                        raising=False)
    with pytest.raises(OSError):
        save_checkpoint(model, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


def test_save_rejects_a_rebound_parameter(tmp_path):
    model = trained_like_model()
    p = model.store["scorer.m1"]
    p.tensor.data = p.data.copy()
    with pytest.raises(ValueError) as e:
        save_checkpoint(model, tmp_path / "m.ckpt")
    assert "'scorer.m1'" in str(e.value)
    assert list(tmp_path.iterdir()) == []


def assert_views_tile_the_arena(store):
    assert store.data.flags.c_contiguous
    offset = 0
    for p in store:
        assert p.data.base is store.data and p.data.flags.writeable
        assert p.data.ctypes.data == store.data.ctypes.data + 8 * offset
        offset += p.data.size
    assert offset == store.data.size == store.m.size == store.v.size


def test_parameters_tile_the_data_arena(tmp_path):
    model = trained_like_model(mode="char-lstm", char_lstm_hidden=6)
    assert_views_tile_the_arena(model.store)
    # a fresh store owns its data arena; a loaded one's is the mapped file
    assert model.store.data.flags.owndata
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    again = load_checkpoint(path)
    assert_views_tile_the_arena(again.store)
    assert not again.store.data.flags.owndata
    base = again.store.data.base
    assert isinstance(getattr(base, "obj", base), mmap.mmap)
    assert np.array_equal(again.store.data, model.store.data)


def test_load_draws_no_init_and_shares_one_buffer(tmp_path, monkeypatch):
    model = trained_like_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)

    class NoDraws:
        def __getattr__(self, name):
            raise AssertionError("loading drew a random initialization")

    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: NoDraws())
    again = load_checkpoint(path)
    base = next(iter(again.store)).data.base
    assert base is not None
    assert all(p.data.base is base and p.data.flags.writeable
               for p in again.store)


MALFORMED_HEADERS = [
    (lambda h: h.pop("params"), "no 'params' entry"),
    (lambda h: h["encoder_config"].update(colour=1),
     "unknown EncoderConfig key 'colour'"),
    (lambda h: h["encoder_config"].update(d_model="16"),
     "EncoderConfig d_model is '16', expected int"),
    (lambda h: h["encoder_config"].update(mode="tags"),
     "unknown EncoderConfig key 'mode'"),
    # well-typed, but refused by EncoderConfig.validate as the model is built
    (lambda h: h["encoder_config"].update(variant="nonsense"),
     "malformed header: ValueError: unknown encoder variant 'nonsense'"),
]


@pytest.mark.parametrize("edit, problem", MALFORMED_HEADERS,
                         ids=["no-params", "unknown-config-key",
                              "string-d_model", "other-class-key",
                              "invalid-variant"])
def test_malformed_header_names_the_file_and_the_problem(tmp_path, edit,
                                                         problem):
    path = tmp_path / "m.ckpt"
    save_checkpoint(trained_like_model(), path)
    rewrite_header(path, edit)
    with pytest.raises(ValueError) as e:
        load_checkpoint(path)
    assert str(path) in str(e.value) and problem in str(e.value)


def test_header_length_past_the_end_of_the_file_is_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(trained_like_model(), path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<Q", raw, 12, len(raw))
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError) as e:
        load_checkpoint(path)
    assert str(path) in str(e.value) and "past the end" in str(e.value)


def file_sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def train_one_step(model):
    for p in model.store:
        p.clear_grad()
    batch = [(t.sentence(), model.gold_binary(t), None) for t in TREES]
    _, loss = model.batch_loss(batch, train=True,
                               rng=np.random.default_rng(3))
    backward(loss)
    adam_step(model.store, lr=0.01)


def test_training_a_loaded_model_leaves_its_file_unchanged(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(trained_like_model(), path)
    digest = file_sha256(path)
    model = load_checkpoint(path)
    before = model.store.data.copy()
    train_one_step(model)
    assert not np.array_equal(model.store.data, before)
    assert file_sha256(path) == digest
    # a loaded store is saved like any other, and reloads as it is
    save_checkpoint(model, tmp_path / "trained.ckpt")
    again = load_checkpoint(tmp_path / "trained.ckpt")
    assert np.array_equal(again.store.data, model.store.data)
    assert file_sha256(path) == digest


def test_saving_over_the_file_a_live_model_was_loaded_from(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(trained_like_model(), path)
    live = load_checkpoint(path)
    train_one_step(live)
    weights = live.store.data.copy()
    save_checkpoint(live, path)
    assert np.array_equal(live.store.data, weights)
    assert np.array_equal(load_checkpoint(path).store.data, weights)
    # another model saved over the file leaves the live one as it was
    other = trained_like_model(seed=1)
    save_checkpoint(other, path)
    assert np.array_equal(live.store.data, weights)
    assert np.array_equal(load_checkpoint(path).store.data,
                          other.store.data)


def test_loading_copies_no_payload(tmp_path):
    # a position table of 400000 rows makes a payload of about 26 MB; the
    # second load is measured, past the first one's one-off costs
    model = SpanParser(
        EncoderConfig(num_layers=1, d_model=16, num_heads=2, d_k=8, d_v=8,
                      d_ff=24, span_hidden=12, max_sentence_length=400000),
        LexicalConfig(), Vocabulary.from_trees(TREES),
        LabelInventory.from_trees(TREES))
    payload = 8 * model.num_parameters()
    assert payload > 25e6
    path = tmp_path / "big.ckpt"
    save_checkpoint(model, path)
    del model
    script = (
        "import os, sys\n"
        "from spanparser.checkpoint import load_checkpoint\n"
        "def rss():\n"
        "    with open('/proc/self/statm') as fh:\n"
        "        return int(fh.read().split()[1]) * os.sysconf("
        "'SC_PAGE_SIZE')\n"
        "first = load_checkpoint(sys.argv[1])\n"
        "before = rss()\n"
        "second = load_checkpoint(sys.argv[1])\n"
        "print(rss() - before)\n")
    if not os.path.exists("/proc/self/statm"):
        pytest.skip("needs /proc/self/statm to read resident memory")
    env = dict(os.environ, PYTHONPATH=str(
        Path(spanparser.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script, str(path)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    grown = int(done.stdout.split()[-1])
    assert grown < payload / 10, (grown, payload)


def test_version_4_file_is_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(trained_like_model(), path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, 8, 4)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError) as e:
        load_checkpoint(path)
    assert "version 4" in str(e.value) and str(path) in str(e.value)


def test_misaligned_payload_is_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(trained_like_model(), path)
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", raw, 12)
    blob = raw[20:20 + header_len].rstrip(b" ")
    path.write_bytes(raw[:12] + struct.pack("<Q", len(blob)) + blob
                     + raw[20 + header_len:])
    with pytest.raises(ValueError) as e:
        load_checkpoint(path)
    assert str(path) in str(e.value)
    assert "multiple of %d" % PAYLOAD_ALIGN in str(e.value)


REJECTIONS = [
    (test_bad_magic_rejected, ()),
    (test_unknown_version_rejected, ()),
    (test_truncated_payload_rejected, ()),
    (test_trailing_garbage_rejected, ()),
    (test_shape_mismatch_rejected, ()),
    *((test_parameter_list_must_match_the_model_in_order, (edit,))
      for edit in PARAMETER_LIST_EDITS),
    *((test_malformed_header_names_the_file_and_the_problem, case)
      for case in MALFORMED_HEADERS),
    (test_header_length_past_the_end_of_the_file_is_rejected, ()),
    (test_version_4_file_is_rejected, ()),
    (test_misaligned_payload_is_rejected, ()),
]


@pytest.mark.parametrize("rejection, args", REJECTIONS,
                         ids=[rejection.__name__[len("test_"):]
                              for rejection, _ in REJECTIONS])
def test_every_rejection_comes_before_the_mapping(tmp_path, monkeypatch,
                                                  rejection, args):
    # each rejection test, run with a mapping that fails loudly: it still
    # sees its own ValueError, so every check precedes the mapping
    def unreachable(*args, **kwargs):
        raise AssertionError("a rejected checkpoint reached the mapping")

    monkeypatch.setattr(mmap, "mmap", unreachable)
    rejection(tmp_path, *args)


def test_a_load_builds_the_module_graph_once(tmp_path, monkeypatch):
    path = tmp_path / "m.ckpt"
    save_checkpoint(trained_like_model(), path)
    built = []
    modules = model_module._modules

    def counted(*args):
        built.append(args)
        return modules(*args)

    monkeypatch.setattr(model_module, "_modules", counted)
    load_checkpoint(path)
    assert len(built) == 1
