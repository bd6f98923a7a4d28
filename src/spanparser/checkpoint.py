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
with the payload as its parameters.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct

import numpy as np

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
    params = [{"name": name, "shape": list(p.data.shape)}
              for name, p in model.store.items()]
    header = {
        "format": "span-parser-checkpoint",
        "encoder_config": dataclasses.asdict(model.encoder_config),
        "lexical_config": dataclasses.asdict(model.lexical_config),
        "vocab": model.vocab.to_dict(),
        "labels": model.labels.to_dict(),
        "seed": model.seed,
        "params": params,
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
            for _, p in model.store.items():
                fh.write(np.ascontiguousarray(p.data, dtype="<f8").data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_checkpoint(path) -> SpanParser:
    """Rebuild the model a checkpoint describes.  The payload is read once
    into one float64 buffer and every parameter is a view of it; no random
    initialization is drawn."""
    with open(path, "rb") as fh:
        preamble = fh.read(_PREAMBLE)
        if preamble[:8] != MAGIC:
            raise ValueError("%s is not a checkpoint file (bad magic)" % path)
        if len(preamble) < _PREAMBLE:
            raise ValueError("checkpoint %s is truncated in its preamble"
                             % path)
        (version,) = struct.unpack_from("<I", preamble, 8)
        if version != FORMAT_VERSION:
            raise ValueError("checkpoint format version %d is not supported "
                             "(expected %d)" % (version, FORMAT_VERSION))
        (header_len,) = struct.unpack_from("<Q", preamble, 12)
        header = json.loads(fh.read(header_len).decode("utf-8"))
        payload_bytes = os.fstat(fh.fileno()).st_size - _PREAMBLE - header_len

        recorded = header["params"]
        offsets, total = [], 0
        for entry in recorded:
            count = int(np.prod(entry["shape"], dtype=np.int64))
            offsets.append((entry, total, total + count))
            total += count
            if 8 * total > payload_bytes:
                raise ValueError("checkpoint payload is truncated at %r"
                                 % entry["name"])
        buffer = np.empty(total, dtype="<f8")
        arrays = {entry["name"]: buffer[start:end].reshape(entry["shape"])
                  for entry, start, end in offsets}
        if len(arrays) != len(offsets):
            raise ValueError("checkpoint lists a parameter name twice")

        model = SpanParser(
            EncoderConfig(**header["encoder_config"]),
            LexicalConfig(**header["lexical_config"]),
            Vocabulary.from_dict(header["vocab"]),
            LabelInventory.from_dict(header["labels"]),
            seed=header.get("seed", 0),
            preset=arrays,
        )
        unused = [name for name in arrays if name not in model.store]
        if unused:
            raise ValueError("checkpoint parameter %r does not exist in the "
                             "rebuilt model" % unused[0])

        if fh.readinto(memoryview(buffer).cast("B")) != buffer.nbytes:
            raise ValueError("checkpoint payload is truncated")
        trailing = payload_bytes - buffer.nbytes
        if trailing:
            raise ValueError("checkpoint has %d trailing bytes" % trailing)
    return model
