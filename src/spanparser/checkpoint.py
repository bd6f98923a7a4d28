"""Versioned binary checkpoints.

Byte layout (all integers little-endian):

    bytes 0..7    magic b"SPANCKPT"
    bytes 8..11   format version, uint32
    bytes 12..19  header length in bytes, uint64
    next          UTF-8 JSON header
    rest          parameter payload: raw float64 arrays, little-endian,
                  C order, concatenated in the header's "params" order

The header records both model configs, the vocabulary, the label inventory,
the construction seed, and for every parameter its name and shape, so a
checkpoint is self-describing: loading rebuilds the model from the header
and reads the payload into its parameter store's data arena, whose layout
the header's parameter list must equal, in order.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import struct

from .encoder import EncoderConfig
from .lexical import LexicalConfig
from .model import SpanParser
from .vocab import LabelInventory, Vocabulary

MAGIC = b"SPANCKPT"
FORMAT_VERSION = 2
_PREAMBLE = 20  # magic, version, header length


def save_checkpoint(model: SpanParser, path) -> None:
    """Write ``model`` to ``path`` atomically: the bytes go to a temporary
    file in the same directory, which then replaces ``path``, so a save
    that fails or is killed part-way leaves the previous file whole (the
    file is not fsynced, so this does not cover a power loss)."""
    model.store.check_views()
    header = {
        "format": "span-parser-checkpoint",
        "encoder_config": dataclasses.asdict(model.encoder_config),
        "lexical_config": dataclasses.asdict(model.lexical_config),
        "vocab": model.vocab.to_dict(),
        "labels": model.labels.to_dict(),
        "seed": model.seed,
        "params": [{"name": p.name, "shape": list(p.shape)}
                   for p in model.store],
    }
    blob = json.dumps(header, ensure_ascii=False).encode("utf-8")
    tmp = "%s.%s.tmp" % (os.fspath(path), os.urandom(6).hex())
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", FORMAT_VERSION))
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            fh.write(model.store.data.data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _config(cls, entries):
    """``cls(**entries)`` once every entry is a field of ``cls`` holding a
    value of the field's type (an int also serves as a float)."""
    types = {f.name: type(f.default) for f in dataclasses.fields(cls)}
    for key, value in entries.items():
        want = types.get(key)
        if want is None:
            raise ValueError("unknown %s key %r" % (cls.__name__, key))
        if type(value) is not want and (want, type(value)) != (float, int):
            raise ValueError("%s %s is %r, expected %s"
                             % (cls.__name__, key, value, want.__name__))
    return cls(**entries)


def load_checkpoint(path) -> SpanParser:
    """Rebuild the model a checkpoint describes.  The model is built
    without drawing an initialization, and the payload is read straight
    into its store's data arena.  A file that is not a whole, well-formed
    checkpoint raises ValueError naming the file and the problem."""
    with open(path, "rb") as fh:
        preamble = fh.read(_PREAMBLE)
        if preamble[:8] != MAGIC:
            raise ValueError("%s is not a checkpoint file (bad magic)" % path)
        if len(preamble) < _PREAMBLE:
            raise ValueError("checkpoint %s is truncated in its preamble"
                             % path)
        (version,) = struct.unpack_from("<I", preamble, 8)
        if version != FORMAT_VERSION:
            raise ValueError("checkpoint %s format version %d is not "
                             "supported (expected %d)"
                             % (path, version, FORMAT_VERSION))
        (header_len,) = struct.unpack_from("<Q", preamble, 12)
        payload_bytes = os.fstat(fh.fileno()).st_size - _PREAMBLE - header_len
        if payload_bytes < 0:
            raise ValueError("checkpoint %s header length %d runs past the "
                             "end of the file" % (path, header_len))
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
            model = SpanParser(
                _config(EncoderConfig, header["encoder_config"]),
                _config(LexicalConfig, header["lexical_config"]),
                Vocabulary.from_dict(header["vocab"]),
                LabelInventory.from_dict(header["labels"]),
                seed=header.get("seed", 0),
                draw=False,
            )
            listed = [(e["name"], tuple(e["shape"])) for e in header["params"]]
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            problem = ("no %s entry" % exc if isinstance(exc, KeyError)
                       else "%s: %s" % (type(exc).__name__, exc))
            raise ValueError("checkpoint %s has a malformed header: %s"
                             % (path, problem)) from exc
        for k, (got, want) in enumerate(itertools.zip_longest(
                listed, [(p.name, p.shape) for p in model.store])):
            if got != want:
                raise ValueError("checkpoint %s parameter %d (name, shape) "
                                 "is %s and does not match the model's %s"
                                 % (path, k, got, want))

        data = model.store.data
        if fh.readinto(data) != data.nbytes:
            raise ValueError("checkpoint %s payload is truncated" % path)
        trailing = payload_bytes - data.nbytes
        if trailing:
            raise ValueError("checkpoint %s has %d trailing bytes"
                             % (path, trailing))
    return model
