"""Versioned binary checkpoints.

Byte layout (all integers little-endian):

    bytes 0..7    magic b"SPANCKPT"
    bytes 8..11   format version, uint32
    bytes 12..19  header length in bytes, uint64
    next          UTF-8 JSON header, padded with spaces so that the
                  payload starts at a multiple of PAYLOAD_ALIGN bytes
    rest          parameter payload: raw float64 arrays, little-endian,
                  C order, concatenated in the header's "params" order

The header records both model configs, the vocabulary, the label inventory,
the construction seed, and for every parameter its name and shape, so a
checkpoint is self-describing: loading rebuilds the model from the header,
and the payload, mapped copy-on-write from the file, becomes its parameter
store's data arena, whose layout the header's parameter list must equal,
in order.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import mmap
import os
import struct

import numpy as np

from .config import config_from_values
from .encoder import EncoderConfig
from .lexical import LexicalConfig
from .model import SpanParser
from .vocab import LabelInventory, Vocabulary

MAGIC = b"SPANCKPT"
FORMAT_VERSION = 5
_PREAMBLE = 20  # magic, version, header length
# the payload's offset in the file is a multiple of this (one page)
PAYLOAD_ALIGN = 4096


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
    blob += b" " * (-(_PREAMBLE + len(blob)) % PAYLOAD_ALIGN)
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


def load_checkpoint(path) -> SpanParser:
    """Rebuild the model a checkpoint describes.  The model's modules are
    built once, from the header's configs, without drawing an
    initialization; the header's parameter list, the payload's size and
    its alignment are then checked against the store they registered, and
    the payload, mapped copy-on-write from the file rather than read,
    becomes the store's data arena: loading copies nothing, processes
    that load one file share its page-cache pages until they write to
    them, and writes to the model (a training step, say) stay private to
    it and never reach the file.  A file that is not a whole, well-formed
    checkpoint raises ValueError naming the file and the problem, before
    anything is mapped.

    The model depends on the file for as long as it is alive.  Saving
    over it with :func:`save_checkpoint` is safe, since the save writes a
    new file and renames it over the old one, which the mapping keeps.
    But a program that truncates the file or rewrites it in place while
    the model is alive can change the model's weights or kill the process
    with SIGBUS when a weight is next read."""
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
        offset = _PREAMBLE + header_len
        payload_bytes = os.fstat(fh.fileno()).st_size - offset
        if payload_bytes < 0:
            raise ValueError("checkpoint %s header length %d runs past the "
                             "end of the file" % (path, header_len))
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
            configs = (
                config_from_values(EncoderConfig, header["encoder_config"]),
                config_from_values(LexicalConfig, header["lexical_config"]),
                Vocabulary.from_dict(header["vocab"]),
                LabelInventory.from_dict(header["labels"]))
            seed = header["seed"]
            if type(seed) is not int:
                raise TypeError("seed %r is not an integer" % (seed,))
            listed = [(e["name"], tuple(e["shape"])) for e in header["params"]]
            # the modules validate the configs as they are built
            return SpanParser(*configs, seed=seed, data=lambda store: _payload(
                path, fh, offset, payload_bytes, listed, store))
        except _PayloadError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            problem = ("no %s entry" % exc if isinstance(exc, KeyError)
                       else "%s: %s" % (type(exc).__name__, exc))
            raise ValueError("checkpoint %s has a malformed header: %s"
                             % (path, problem)) from exc


def _payload(path, fh, offset, payload_bytes, listed, store):
    """Check a checkpoint's parameter list ``listed``, payload size and
    alignment against the layout registered in ``store``, then map the
    file and return its payload as the store's data arena."""
    layout = ((p.name, p.shape) for p in store)
    for k, (got, want) in enumerate(itertools.zip_longest(listed, layout)):
        if got != want:
            raise _PayloadError("checkpoint %s parameter %d (name, shape) is "
                                "%s and does not match the model's %s"
                                % (path, k, got, want))
    if payload_bytes < 8 * store.size:
        raise _PayloadError("checkpoint %s payload is truncated" % path)
    if payload_bytes > 8 * store.size:
        raise _PayloadError("checkpoint %s has %d trailing bytes"
                            % (path, payload_bytes - 8 * store.size))
    if offset % PAYLOAD_ALIGN:
        raise _PayloadError("checkpoint %s payload starts at byte %d, not at "
                            "a multiple of %d" % (path, offset, PAYLOAD_ALIGN))
    mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
    return np.frombuffer(mapped, "<f8", count=store.size, offset=offset)


class _PayloadError(ValueError):
    """A checkpoint whose parameter list or payload does not fit the model
    its header describes; raised from inside the model's construction, so
    it is told apart from a malformed header."""
