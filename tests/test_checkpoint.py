import errno
import json
import struct

import numpy as np
import pytest

from spanparser.checkpoint import FORMAT_VERSION, MAGIC, load_checkpoint, save_checkpoint
from spanparser.trees import parse_bracketed

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


@pytest.mark.parametrize("edit", [
    lambda h: h["params"].reverse(),
    lambda h: h["params"].insert(1, h["params"][0]),
    lambda h: h["params"].pop(),
], ids=["reordered", "duplicated", "missing"])
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
    assert store.data.flags.c_contiguous and store.data.flags.owndata
    offset = 0
    for p in store:
        assert p.data.base is store.data and p.data.flags.writeable
        assert p.data.ctypes.data == store.data.ctypes.data + 8 * offset
        offset += p.data.size
    assert offset == store.data.size == store.m.size == store.v.size


def test_parameters_tile_the_data_arena(tmp_path):
    model = trained_like_model(mode="char-lstm", char_lstm_hidden=6)
    assert_views_tile_the_arena(model.store)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    again = load_checkpoint(path)
    assert_views_tile_the_arena(again.store)
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


@pytest.mark.parametrize("edit, problem", [
    (lambda h: h.pop("params"), "no 'params' entry"),
    (lambda h: h["encoder_config"].update(colour=1),
     "unknown EncoderConfig key 'colour'"),
    (lambda h: h["encoder_config"].update(d_model="16"),
     "EncoderConfig d_model is '16', expected int"),
], ids=["no-params", "unknown-config-key", "string-d_model"])
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
