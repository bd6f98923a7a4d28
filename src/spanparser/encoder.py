"""Self-attentive encoder with a factored content/position attention option.

The encoder stacks identical layers, each a multi-head self-attention
sublayer followed by a position-wise feed-forward sublayer, both wrapped as
LayerNorm(x + Dropout(Sublayer(x))).  Heads are summed, not concatenated.

Five wirings of the token inputs and the attention arithmetic are supported:

- ``additive-unfactored``: z = content + position, standard attention.
- ``concatenative-unfactored``: z = [content; position] with halved embedding
  widths, standard attention over the concatenation.
- ``factored``: same concatenated inputs, but every projection is
  block-sparse across the content/position halves.  Attention logits are the
  sum of a content dot product and a position dot product, each scaled by
  1/sqrt(d_k/2); a single softmax weights both value halves.  The
  feed-forward sublayer is split into independent content and position
  copies.  Each half is a "stream" (see :func:`stream_suffixes`).
- ``position-only``: additive inputs, but queries and keys are computed from
  the original position embeddings at every layer, so attention patterns are
  independent of content.
- ``block-sparse-additive``: additive inputs pushed through the factored
  machinery on the two contiguous halves of the model dimension (a control
  for separating the effect of sparsity from the effect of factoring).

The two streams of a factored layer meet only where their logit terms are
summed before the shared softmax and at each residual and layer norm.  At
sizes where it pays (see :meth:`Encoder.encode`), the position stream's
share of each layer runs on a worker thread while the calling thread runs
the content stream's: its q/k logit term and value projection, its
weighted values and output product, and the two products of its
feed-forward copy.  The shared steps, the relus and every random draw stay
on the calling thread, so the bits do not depend on the worker.
"""

from __future__ import annotations

import contextlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
import functools

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .optim import (ParameterStore, embedding_init, glorot_uniform, ones,
                    usable_cpus)

VARIANTS = (
    "additive-unfactored",
    "concatenative-unfactored",
    "factored",
    "position-only",
    "block-sparse-additive",
)

# variants whose token inputs are a concatenation [content; position]
CONCAT_INPUT_VARIANTS = ("concatenative-unfactored", "factored")
# variants using block-sparse projections and split attention logits
FACTORED_VARIANTS = ("factored", "block-sparse-additive")

MASK_PENALTY = -1e9
WINDOW_MODES = ("strict", "relaxed")


@dataclass
class EncoderConfig:
    num_layers: int = 8
    d_model: int = 1024
    num_heads: int = 8
    d_k: int = 64
    d_v: int = 64
    d_ff: int = 2048
    variant: str = "factored"
    attention_dropout: float = 0.2
    relu_dropout: float = 0.1
    residual_dropout: float = 0.2
    max_sentence_length: int = 300
    span_hidden: int = 250

    def validate(self):
        if self.variant not in VARIANTS:
            raise ValueError("unknown encoder variant %r (choose from %s)"
                             % (self.variant, ", ".join(VARIANTS)))
        if self.num_layers < 0:
            raise ValueError("num_layers must be >= 0")
        for name in ("d_model", "num_heads", "d_k", "d_v", "d_ff",
                     "span_hidden"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be >= 1" % name)
        if self.max_sentence_length < 3:
            raise ValueError("max_sentence_length must be >= 3 (a one-word "
                             "sentence has start, word and stop rows)")
        if self.d_model % 2 != 0:
            raise ValueError("d_model must be even (span vectors split the "
                             "encoder output into two directional halves)")
        if self.variant in FACTORED_VARIANTS or self.variant in CONCAT_INPUT_VARIANTS:
            for name in ("d_model", "d_k", "d_v", "d_ff"):
                if getattr(self, name) % 2 != 0:
                    raise ValueError("%s must be even for variant %r"
                                     % (name, self.variant))
        for name in ("attention_dropout", "relu_dropout", "residual_dropout"):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise ValueError("%s must be in [0, 1)" % name)
        return self

    @property
    def content_dim(self) -> int:
        """Width of each token's content and of its position embedding."""
        if self.variant in CONCAT_INPUT_VARIANTS:
            return self.d_model // 2
        return self.d_model


@dataclass
class AttentionControl:
    """Test-time attention surgery.

    ``disable_content`` / ``disable_position``: per-layer flags zeroing the
    corresponding logit term (factored variants only).  ``window``: a
    (distance, mode) pair restricting every query to the keys the window
    allows (see :func:`build_window_mask`), or None for no window; distance
    may be ``math.inf``, which allows every key.
    """

    disable_content: tuple = None
    disable_position: tuple = None
    window: tuple = None

    def validate(self, config: EncoderConfig):
        for name in ("disable_content", "disable_position"):
            flags = getattr(self, name)
            if flags is None:
                continue
            if config.variant not in FACTORED_VARIANTS:
                raise ValueError(
                    "%s only applies to factored variants, not %r"
                    % (name, config.variant))
            if len(flags) != config.num_layers:
                raise ValueError("%s needs one flag per layer (%d), got %d"
                                 % (name, config.num_layers, len(flags)))
        if self.window is not None:
            check_window(*self.window)
        return self


def check_window(distance, mode: str) -> None:
    """ValueError unless ``distance`` is >= 0 (``math.inf`` allowed) and
    ``mode`` is one of WINDOW_MODES."""
    if not distance >= 0:
        raise ValueError("window distance must be >= 0, got %r" % (distance,))
    if mode not in WINDOW_MODES:
        raise ValueError("window mode must be one of %s, got %r"
                         % (WINDOW_MODES, mode))


def build_window_mask(lengths, distance, mode: str = "strict") -> np.ndarray:
    """Boolean [B, Tmax, Tmax] mask of a pack of sentences of ``lengths``
    tokens: True where query i and key j of sentence b are both among its
    tokens and the window allows the pair.

    ``strict`` allows |i - j| <= distance.  ``relaxed`` also allows every
    pair in which either token is among the sentence's first two or last
    two (they host the boundary tokens, whose long-range links matter more
    than the window).  A distance of math.inf allows every pair.
    """
    check_window(distance, mode)
    lengths = np.asarray(lengths)[:, None, None]
    idx = np.arange(lengths.max())
    i, j = idx[:, None], idx[None, :]
    allow = np.abs(i - j) <= distance
    if mode == "relaxed":
        allow = (allow | (i < 2) | (i >= lengths - 2)
                 | (j < 2) | (j >= lengths - 2))
    return allow & (i < lengths) & (j < lengths)


def compose_input(content: Tensor, position: Tensor, variant: str) -> Tensor:
    """Combine per-token content and position embeddings into encoder input."""
    if variant in CONCAT_INPUT_VARIANTS:
        return ad.concat([content, position], axis=1)
    return ad.add(content, position)


def stream_suffixes(variant: str) -> tuple:
    """Parameter-name suffix of each stream a layer runs: factored variants
    run a content stream ``c`` and a position stream ``p``, each on 1/2 of
    every width (d_model, d_k, d_v, d_ff); the others run one stream."""
    return ("c", "p") if variant in FACTORED_VARIANTS else ("",)


def _add_streams(store, prefix, suffixes, roles):
    """One dict of parameters per stream, added stream by stream in the
    order of ``roles`` ((role, shape, init) triples); stream ``s`` names
    role ``r`` as ``prefix.r + s``."""
    return [{role: store.add("%s.%s%s" % (prefix, role, suffix), shape, init)
             for role, shape, init in roles}
            for suffix in suffixes]


def _map_streams(worker, task, *per_stream):
    """``task(*args)`` for each stream's ``args``, in stream order.  With a
    ``worker`` (see :meth:`Encoder.encode`), the second stream's task runs
    on it while this thread runs the first's."""
    if worker is None:
        return [task(*args) for args in per_stream]
    first, second = per_stream
    pending = ad.submit(worker, task, *second)
    return [task(*first), pending.result()]


class MultiHeadAttention:
    """All heads of one layer's attention sublayer, computed together.

    Each stream projects once into every head's columns, attends through
    batched [H, T, T] products, and one output product over the merged
    heads sums the heads.  Factored variants run a content and a position
    stream on the two halves of the model dimension, whose logits add up
    before a shared softmax; unfactored variants run one full-width stream,
    position-only taking its queries and keys from the position embeddings.
    The streams' outputs are returned as column blocks, which the layer's
    residual layer norm takes as they are, so they are never concatenated.

    Given a worker, the position stream's per-stream work runs on it: its
    logit term and value projection, then its probability-weighted values,
    merged heads and output product.  The logit sum, the penalty, the
    softmax and attention dropout stay on the calling thread.
    """

    def __init__(self, store: ParameterStore, prefix: str,
                 config: EncoderConfig):
        self.position_queries = config.variant == "position-only"
        self.num_heads = heads = config.num_heads
        self.attention_dropout = config.attention_dropout
        suffixes = stream_suffixes(config.variant)
        n = len(suffixes)
        d_io, d_k, d_v = config.d_model // n, config.d_k // n, config.d_v // n
        self.d_k = d_k
        # "w_q"/"w_k"/"w_v" are [d_in, H * d_k] with head h in column block
        # h, "w_o" is [H * d_v, d_out] with head h in row block h; each block
        # is drawn with its own per-head fans
        self.streams = _add_streams(store, prefix, suffixes, [
            (role, shape, functools.partial(glorot_uniform, fans=fans))
            for role, shape, fans in (
                ("w_q", (d_io, heads * d_k), (d_io, d_k)),
                ("w_k", (d_io, heads * d_k), (d_io, d_k)),
                ("w_v", (d_io, heads * d_v), (d_io, d_v)),
                ("w_o", (heads * d_v, d_io), (d_v, d_io)))])

    def forward(self, x: Tensor, positions: Tensor, mask, penalty,
                disable_content: bool, disable_position: bool, rng,
                record=None, worker=None) -> list:
        """Sum of every head's contribution, shape [sum T_b, d_model], as
        one [sum T_b, d_model / streams] column block per stream.

        ``x`` is a pack of sentences whose [B, Tmax] ``mask`` marks each
        one's rows (see :func:`autodiff.split_heads`); each attends within
        itself through one padded [B * H, Tmax, Tmax] stack.  ``penalty``
        is an additive logit mask (0 where allowed) or None.  ``positions``
        carries the original position embeddings for position-only
        queries; ignored otherwise.  ``record``, if a list, receives the
        [B * H, Tmax, Tmax] attention probabilities before dropout.
        ``worker``, if given, runs the position stream's work.
        """
        probs, values = self._attend(x, positions, mask, penalty,
                                     disable_content, disable_position,
                                     rng, record, worker)
        return _map_streams(worker, functools.partial(_output, probs, mask),
                            *zip(values, self.streams))

    def head_outputs(self, x: Tensor, positions: Tensor, penalty,
                     disable_content: bool, disable_position: bool) -> Tensor:
        """Each head's own contribution to one sentence at evaluation, shape
        [H, T, d_model]; these sum to :meth:`forward`'s blocks side by
        side."""
        mask = np.ones((1, x.shape[0]), dtype=bool)
        probs, values = self._attend(x, positions, mask, penalty,
                                     disable_content, disable_position, None)
        # w_o's row block h is head h's [d_v, d_out] output matrix
        return ad.concat(
            [ad.bmm(ad.bmm(probs, v),
                    ad.reshape(stream["w_o"],
                               (self.num_heads, v.shape[2], -1)))
             for v, stream in zip(values, self.streams)], axis=2)

    def _attend(self, x, positions, mask, penalty, disable_content,
                disable_position, rng, record=None, worker=None):
        """The [B * H, Tmax, Tmax] attention probabilities after dropout,
        and per stream the [B * H, Tmax, d_v] values they weight."""
        inputs = ad.split_cols(x, len(self.streams))
        sources = [positions] if self.position_queries else inputs
        # AttentionControl allows disable flags only with two streams
        active = (not disable_content, not disable_position)
        projected = _map_streams(
            worker, functools.partial(self._project, mask),
            *zip(sources, inputs, self.streams, active))
        terms = [term for term, _ in projected if term is not None]
        if terms:
            logits = functools.reduce(ad.add, terms)
        else:
            B, T = mask.shape
            logits = Tensor(np.zeros((B * self.num_heads, T, T)))
        if penalty is not None:
            logits = ad.add_const(logits, penalty)
        probs = ad.softmax(logits)
        if record is not None:
            record.append(probs.data)
        probs = ad.dropout(probs, self.attention_dropout, rng)
        return probs, [v for _, v in projected]

    def _project(self, mask, source, inp, stream, on):
        """One stream's scaled q k^T logit term (None when it is switched
        off) and its values."""
        heads = self.num_heads
        term = None
        if on:
            q = ad.split_heads(ad.matmul(source, stream["w_q"]), heads, mask)
            k = ad.split_heads(ad.matmul(source, stream["w_k"]), heads, mask)
            term = ad.mul_const(ad.bmm(q, ad.transpose(k)),
                                1.0 / math.sqrt(self.d_k))
        return term, ad.split_heads(ad.matmul(inp, stream["w_v"]),
                                    heads, mask)


def _output(probs, mask, values, stream):
    """One stream's share of the attention output: its probability-weighted
    values, heads merged, times its output matrix."""
    return ad.matmul(ad.merge_heads(ad.bmm(probs, values), mask),
                     stream["w_o"])


class FeedForward:
    """Position-wise W2 relu(W1 x + b1) + b2, run on each stream's columns;
    ``forward`` returns each stream's output as a column block, as
    :class:`MultiHeadAttention` does.  Each bias is added in place into its
    product (:func:`autodiff.affine`).

    Given a worker, the position stream's two products (with their biases)
    run on it.  The relus and relu dropout of both streams run between them
    on the calling thread, in stream order, so the random stream and the
    order of the relu calls are those of one thread."""

    def __init__(self, store, prefix, config: EncoderConfig):
        suffixes = stream_suffixes(config.variant)
        d = config.d_model // len(suffixes)
        dff = config.d_ff // len(suffixes)
        self.relu_dropout = config.relu_dropout
        self.streams = _add_streams(store, prefix, suffixes, (
            ("w1", (d, dff), glorot_uniform), ("b1", (dff,), None),
            ("w2", (dff, d), glorot_uniform), ("b2", (d,), None)))

    def forward(self, x: Tensor, rng, worker=None) -> list:
        inputs = ad.split_cols(x, len(self.streams))
        hidden = _map_streams(worker, functools.partial(_affine, "w1", "b1"),
                              *zip(inputs, self.streams))
        hidden = [ad.dropout(ad.relu(h), self.relu_dropout, rng)
                  for h in hidden]
        return _map_streams(worker, functools.partial(_affine, "w2", "b2"),
                            *zip(hidden, self.streams))


def _affine(weight, bias, x, stream):
    """x W + b with one stream's parameters named ``weight`` and ``bias``."""
    return ad.affine(x, stream[weight], stream[bias])


class EncoderLayer:
    def __init__(self, store, prefix, config: EncoderConfig):
        self.residual_dropout = config.residual_dropout
        self.attn = MultiHeadAttention(store, prefix + ".attn", config)
        self.ffn = FeedForward(store, prefix + ".ffn", config)
        d = config.d_model
        self.ln1_gain = store.add(prefix + ".ln1.gain", (d,), ones)
        self.ln1_bias = store.add(prefix + ".ln1.bias", (d,))
        self.ln2_gain = store.add(prefix + ".ln2.gain", (d,), ones)
        self.ln2_bias = store.add(prefix + ".ln2.bias", (d,))

    def forward(self, x, positions, mask, penalty, disable_content,
                disable_position, rng, record=None, worker=None):
        attn = self.attn.forward(x, positions, mask, penalty, disable_content,
                                 disable_position, rng, record, worker)
        attn = ad.dropout(attn, self.residual_dropout, rng)
        x = ad.layer_norm(x, self.ln1_gain, self.ln1_bias, attn)
        ff = ad.dropout(self.ffn.forward(x, rng, worker),
                        self.residual_dropout, rng)
        return ad.layer_norm(x, self.ln2_gain, self.ln2_bias, ff)


class Encoder:
    """The full stack: learned position table plus num_layers layers."""

    def __init__(self, store: ParameterStore, config: EncoderConfig):
        config.validate()
        self.config = config
        self.position_table = store.add(
            "encoder.positions",
            (config.max_sentence_length, config.content_dim), embedding_init)
        self.layers = [EncoderLayer(store, "encoder.layer%d" % i, config)
                       for i in range(config.num_layers)]

    def encode(self, x: Tensor, lengths=None, rng=None,
               control: AttentionControl = None, record=None) -> Tensor:
        """Encode a pack of sentences: ``x`` holds every sentence's
        [T_b, content_dim] content rows, start and stop rows included, one
        after the other, and ``lengths`` the T_b (None for one sentence).
        The result holds every sentence's [T_b, d_model] rows in the same
        order.  Row-wise work (projections, feed-forward, layer norms) runs
        once over all the pack's rows, and attention runs every sentence on
        its own through one padded stack per layer.

        ``record``, if given, is a dict filled with attention probabilities
        keyed (layer, head) -> [T, T] arrays; it needs a single sentence.

        With two streams, at least two usable CPUs and position-stream
        weights of at least autodiff.WORKER_LEAF_SIZE values (the paper
        config, not the toy one), each layer's position-stream work runs on
        one worker thread opened for this call while this thread runs the
        content stream's; everything the streams share (logit sum, softmax,
        residuals, layer norms), the feed-forward relus and every dropout
        draw stay on this thread, in the order of one thread.  Each
        stream's work makes the same numpy calls on the same operands and
        builds the same graph either way, so outputs and gradients are
        bitwise those of one thread.  The worker runs under this thread's
        numpy error state and ``no_grad``, and its first exception is
        raised here.
        """
        cfg = self.config
        lengths = [x.shape[0]] if lengths is None else list(lengths)
        if x.data.ndim != 2 or x.shape[1] != cfg.content_dim:
            raise ValueError("content is %s but variant %r wants width %d"
                             % (x.shape, cfg.variant, cfg.content_dim))
        if not lengths or sum(lengths) != x.shape[0] or min(lengths) < 1:
            raise ValueError("%d content rows do not split into sentences "
                             "of %s tokens" % (x.shape[0], lengths))
        if max(lengths) > cfg.max_sentence_length:
            raise ValueError(
                "sentence has %d tokens with boundaries; the position "
                "table holds %d" % (max(lengths), cfg.max_sentence_length))
        if record is not None and len(lengths) > 1:
            raise ValueError("attention can be recorded for one sentence "
                             "only, not a pack of %d" % len(lengths))
        if control is not None:
            control.validate(cfg)

        positions = ad.take_rows(self.position_table, np.concatenate(
            [np.arange(T) for T in lengths]))
        x = compose_input(x, positions, cfg.variant)
        mask = np.arange(max(lengths)) < np.array(lengths)[:, None]
        penalty = self._penalty(lengths, control)
        all_on = (False,) * cfg.num_layers
        off_c = control and control.disable_content or all_on
        off_p = control and control.disable_position or all_on
        # the executor starts its thread at the first submit
        with (ThreadPoolExecutor(max_workers=1) if self._stream_worker_pays()
              else contextlib.nullcontext()) as worker:
            for i, layer in enumerate(self.layers):
                layer_record = [] if record is not None else None
                x = layer.forward(x, positions, mask, penalty,
                                  bool(off_c[i]), bool(off_p[i]), rng,
                                  layer_record, worker)
                if record is not None:
                    for h, probs in enumerate(layer_record[0]):
                        record[(i, h)] = probs
        return x

    def _stream_worker_pays(self) -> bool:
        """Whether the position stream runs on a worker thread: with two
        streams, at least two usable CPUs, and a largest position-stream
        weight of at least autodiff.WORKER_LEAF_SIZE values (the size from
        which backward hands a leaf's gradient to its worker)."""
        if not self.layers or usable_cpus() < 2:
            return False
        layer = self.layers[0]
        if len(layer.attn.streams) < 2:
            return False
        weights = (*layer.attn.streams[1].values(),
                   *layer.ffn.streams[1].values())
        return (max(math.prod(p.shape) for p in weights)
                >= ad.WORKER_LEAF_SIZE)

    def _penalty(self, lengths, control):
        """The additive [B * H, Tmax, Tmax] logit mask of a pack, masking
        each sentence's padded keys and the keys outside the control's
        window; None when there is neither.  Every window keeps the
        diagonal, so no real query row is left empty."""
        distance, mode = (control and control.window) or (math.inf, "strict")
        if distance == math.inf and min(lengths) == max(lengths):
            return None
        penalty = np.where(build_window_mask(lengths, distance, mode),
                           0.0, MASK_PENALTY)
        return np.repeat(penalty, self.config.num_heads, axis=0)


def assemble_block_sparse(layer: EncoderLayer, head: int) -> dict:
    """Pack one factored head's eight blocks, cut from the layer's stacked
    weights, into standard dense projections.

    The factored head scales each half's logits by 1/sqrt(d_k/2) while a
    standard head scales the joint product by 1/sqrt(d_k); folding
    (d_k / (d_k/2)) ** 0.25 = 2 ** 0.25 into both query and key blocks makes
    the dense head reproduce the factored one exactly.
    """
    attn = layer.attn
    if len(attn.streams) != 2:
        raise ValueError("layer attention is not factored")
    if not 0 <= head < attn.num_heads:
        raise ValueError("head %d out of range for %d heads"
                         % (head, attn.num_heads))
    alpha = 2.0 ** 0.25

    def block(stream, name):
        w = stream[name].data
        if name == "w_o":
            rows = w.shape[0] // attn.num_heads
            return w[head * rows:(head + 1) * rows]
        cols = w.shape[1] // attn.num_heads
        return w[:, head * cols:(head + 1) * cols]

    def blockdiag(name, scale=1.0):
        a, b = (scale * block(stream, name) for stream in attn.streams)
        out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]))
        out[:a.shape[0], :a.shape[1]] = a
        out[a.shape[0]:, a.shape[1]:] = b
        return out

    return {
        "w_q": blockdiag("w_q", alpha),
        "w_k": blockdiag("w_k", alpha),
        "w_v": blockdiag("w_v"),
        "w_o": blockdiag("w_o"),
    }
