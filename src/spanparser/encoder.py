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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import functools

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .optim import ParameterStore, embedding_init, glorot_uniform, ones

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
    init_scheme: str = "glorot"
    window_distance: int = -1       # -1 means unwindowed
    window_mode: str = "strict"

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
        if self.d_model % 2 != 0:
            raise ValueError("d_model must be even (span vectors split the "
                             "encoder output into two directional halves)")
        if self.variant in FACTORED_VARIANTS or self.variant in CONCAT_INPUT_VARIANTS:
            for name in ("d_model", "d_k", "d_v", "d_ff"):
                if getattr(self, name) % 2 != 0:
                    raise ValueError("%s must be even for variant %r"
                                     % (name, self.variant))
        if self.init_scheme not in ("glorot", "normal"):
            raise ValueError("unknown init_scheme %r" % self.init_scheme)
        if self.window_mode not in WINDOW_MODES:
            raise ValueError("window_mode must be one of %s"
                             % (WINDOW_MODES,))
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
    (distance, mode) pair overriding the configured window; distance may be
    ``math.inf`` for unwindowed.
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
            distance, mode = self.window
            if mode not in WINDOW_MODES:
                raise ValueError("window mode must be one of %s"
                                 % (WINDOW_MODES,))
            if distance < 0:
                raise ValueError("window distance must be >= 0")
        return self


def build_window_mask(length: int, distance, mode: str = "strict") -> np.ndarray:
    """Boolean [length, length] matrix; True where attention is allowed.

    ``strict`` keeps |i - j| <= distance.  ``relaxed`` additionally lets the
    first two and last two positions attend and be attended to everywhere
    (they host the boundary tokens, whose long-range links matter more than
    the window).  distance may be math.inf or None for no restriction.
    """
    if distance is None or distance == math.inf:
        return np.ones((length, length), dtype=bool)
    if distance < 0:
        raise ValueError("window distance must be >= 0, got %r" % (distance,))
    if mode not in WINDOW_MODES:
        raise ValueError("window mode must be one of %s" % (WINDOW_MODES,))
    idx = np.arange(length)
    allow = np.abs(idx[:, None] - idx[None, :]) <= distance
    if mode == "relaxed":
        special = np.zeros(length, dtype=bool)
        for k in (0, 1, length - 2, length - 1):
            if 0 <= k < length:
                special[k] = True
        allow = allow | special[:, None] | special[None, :]
    return allow


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


def _weight(rng, out, scheme, fans=None):
    if scheme == "glorot":
        return glorot_uniform(rng, out, fans)
    rng.standard_normal(out=out)
    out *= 0.02


class MultiHeadAttention:
    """All heads of one layer's attention sublayer, computed together.

    Each stream projects once into every head's columns, attends through
    batched [H, T, T] products, and one output product over the merged
    heads sums the heads.  Factored variants run a content and a position
    stream on the two halves of the model dimension, whose logits add up
    before a shared softmax; unfactored variants run one full-width stream,
    position-only taking its queries and keys from the position embeddings.
    """

    def __init__(self, store: ParameterStore, prefix: str,
                 config: EncoderConfig, rng):
        self.position_queries = config.variant == "position-only"
        self.num_heads = heads = config.num_heads
        suffixes = stream_suffixes(config.variant)
        n = len(suffixes)
        d_io, d_k, d_v = config.d_model // n, config.d_k // n, config.d_v // n
        self.d_k = d_k
        weight = functools.partial(_weight, rng, scheme=config.init_scheme)
        # "w_q"/"w_k"/"w_v" are [d_in, H * d_k] with head h in column block
        # h, "w_o" is [H * d_v, d_out] with head h in row block h; each block
        # is drawn with its own per-head fans
        self.streams = _add_streams(store, prefix, suffixes, [
            (role, shape, functools.partial(weight, fans=fans))
            for role, shape, fans in (
                ("w_q", (d_io, heads * d_k), (d_io, d_k)),
                ("w_k", (d_io, heads * d_k), (d_io, d_k)),
                ("w_v", (d_io, heads * d_v), (d_io, d_v)),
                ("w_o", (heads * d_v, d_io), (d_v, d_io)))])

    def forward(self, x: Tensor, positions: Tensor, penalty,
                disable_content: bool, disable_position: bool,
                train: bool, rng, dropout_p: float, record=None,
                mask=None) -> Tensor:
        """Sum of every head's contribution, shape [T, d_model].

        ``penalty`` is an additive logit mask (0 where allowed) or None.
        ``positions`` carries the original position embeddings for
        position-only queries; ignored otherwise.  ``record``, if a list,
        receives the [H, T, T] attention probabilities before dropout.
        ``mask``, when given, makes ``x`` a pack of sentences (see
        :func:`autodiff.split_heads`): every sentence attends within
        itself through one padded [B * H, Tmax, Tmax] stack, and
        ``penalty`` must then mask the padded keys.
        """
        contexts = self._contexts(x, positions, penalty, disable_content,
                                  disable_position, train, rng, dropout_p,
                                  record, mask)
        outs = [ad.matmul(ad.merge_heads(ctx, mask), stream["w_o"].tensor)
                for ctx, stream in zip(contexts, self.streams)]
        return ad.concat(outs, axis=1)

    def head_outputs(self, x: Tensor, positions: Tensor, penalty,
                     disable_content: bool, disable_position: bool,
                     train: bool, rng, dropout_p: float) -> Tensor:
        """Each head's own contribution, shape [H, T, d_model]; these sum
        to :meth:`forward`."""
        contexts = self._contexts(x, positions, penalty, disable_content,
                                  disable_position, train, rng, dropout_p)
        # w_o's row block h is head h's [d_v, d_out] output matrix
        return ad.concat(
            [ad.bmm(ctx, ad.reshape(stream["w_o"].tensor,
                                    (self.num_heads, ctx.shape[2], -1)))
             for ctx, stream in zip(contexts, self.streams)], axis=2)

    def _contexts(self, x, positions, penalty, disable_content,
                  disable_position, train, rng, dropout_p, record=None,
                  mask=None):
        """Per stream, the [H, T, d_v] attention-weighted values
        ([B * H, Tmax, d_v] for a pack)."""
        heads = self.num_heads
        inputs = ad.split_cols(x, len(self.streams))
        # AttentionControl allows disable flags only with two streams
        active = (not disable_content, not disable_position)
        sources = [positions] if self.position_queries else inputs
        inv = 1.0 / math.sqrt(self.d_k)
        logits = None
        for source, stream, on in zip(sources, self.streams, active):
            if not on:
                continue
            q = ad.split_heads(ad.matmul(source, stream["w_q"].tensor),
                               heads, mask)
            k = ad.split_heads(ad.matmul(source, stream["w_k"].tensor),
                               heads, mask)
            term = ad.scale(ad.bmm(q, ad.transpose(k)), inv)
            logits = term if logits is None else ad.add(logits, term)
        if logits is None:
            B, T = (1, x.shape[0]) if mask is None else mask.shape
            logits = Tensor(np.zeros((B * heads, T, T)))
        if penalty is not None:
            logits = ad.add_const(logits, penalty)
        probs = ad.softmax(logits)
        if record is not None:
            record.append(probs.data)
        probs = ad.dropout(probs, dropout_p, rng, train)
        return [ad.bmm(probs, ad.split_heads(
                    ad.matmul(inp, stream["w_v"].tensor), heads, mask))
                for inp, stream in zip(inputs, self.streams)]


class FeedForward:
    """Position-wise W2 relu(W1 x + b1) + b2, run on each stream's columns."""

    def __init__(self, store, prefix, config: EncoderConfig, rng):
        suffixes = stream_suffixes(config.variant)
        d = config.d_model // len(suffixes)
        dff = config.d_ff // len(suffixes)
        weight = functools.partial(_weight, rng, scheme=config.init_scheme)
        self.streams = _add_streams(store, prefix, suffixes, (
            ("w1", (d, dff), weight), ("b1", (dff,), None),
            ("w2", (dff, d), weight), ("b2", (d,), None)))

    def forward(self, x: Tensor, train: bool, rng, relu_p: float) -> Tensor:
        outs = []
        for inp, stream in zip(ad.split_cols(x, len(self.streams)),
                               self.streams):
            h = ad.relu(ad.add(ad.matmul(inp, stream["w1"].tensor),
                               stream["b1"].tensor))
            h = ad.dropout(h, relu_p, rng, train)
            outs.append(ad.add(ad.matmul(h, stream["w2"].tensor),
                               stream["b2"].tensor))
        return ad.concat(outs, axis=1)


class EncoderLayer:
    def __init__(self, store, prefix, config: EncoderConfig, rng):
        self.config = config
        self.attn = MultiHeadAttention(store, prefix + ".attn", config, rng)
        self.ffn = FeedForward(store, prefix + ".ffn", config, rng)
        d = config.d_model
        self.ln1_gain = store.add(prefix + ".ln1.gain", (d,), ones)
        self.ln1_bias = store.add(prefix + ".ln1.bias", (d,))
        self.ln2_gain = store.add(prefix + ".ln2.gain", (d,), ones)
        self.ln2_bias = store.add(prefix + ".ln2.bias", (d,))

    def forward(self, x, positions, penalty, disable_content,
                disable_position, train, rng, record=None, mask=None):
        cfg = self.config
        attn = self.attn.forward(x, positions, penalty, disable_content,
                                 disable_position, train, rng,
                                 cfg.attention_dropout, record, mask)
        attn = ad.dropout(attn, cfg.residual_dropout, rng, train)
        x = ad.layer_norm(ad.add(x, attn), self.ln1_gain.tensor,
                          self.ln1_bias.tensor)
        ff = self.ffn.forward(x, train, rng, cfg.relu_dropout)
        ff = ad.dropout(ff, cfg.residual_dropout, rng, train)
        return ad.layer_norm(ad.add(x, ff), self.ln2_gain.tensor,
                             self.ln2_bias.tensor)


class Encoder:
    """The full stack: learned position table plus num_layers layers."""

    def __init__(self, store: ParameterStore, config: EncoderConfig, rng):
        config.validate()
        self.config = config
        self.position_table = store.add(
            "encoder.positions",
            (config.max_sentence_length, config.content_dim),
            functools.partial(embedding_init, rng))
        self.layers = [EncoderLayer(store, "encoder.layer%d" % i, config, rng)
                       for i in range(config.num_layers)]

    def encode(self, content, train: bool = False, rng=None,
               control: AttentionControl = None, record=None) -> Tensor:
        """Encode a sentence; ``content`` is [T, content_dim] with rows for
        the start and stop tokens included.

        ``content`` may also be a list of such matrices, a pack of
        sentences: the result then holds every sentence's [T_b, d_model]
        rows one after the other.  Row-wise work (projections, feed-forward,
        layer norms) runs once over all the pack's rows, and attention runs
        every sentence on its own through one padded stack per layer.  A
        pack of one computes exactly what a lone sentence does.

        ``record``, if given, is a dict filled with attention probabilities
        keyed (layer, head) -> [T, T] arrays; it needs a single sentence.
        """
        cfg = self.config
        contents = [content] if isinstance(content, Tensor) else list(content)
        if not contents:
            raise ValueError("nothing to encode")
        lengths = [c.shape[0] for c in contents]
        for c in contents:
            if c.shape[0] > cfg.max_sentence_length:
                raise ValueError(
                    "sentence has %d tokens with boundaries; the position "
                    "table holds %d" % (c.shape[0], cfg.max_sentence_length))
            if c.shape[1] != cfg.content_dim:
                raise ValueError("content is %s but variant %r wants width %d"
                                 % (c.shape, cfg.variant, cfg.content_dim))
        if record is not None and len(contents) > 1:
            raise ValueError("attention can be recorded for one sentence "
                             "only, not a pack of %d" % len(contents))
        if control is not None:
            control.validate(cfg)

        positions = ad.take_rows(self.position_table.tensor,
                                 np.concatenate([np.arange(T)
                                                 for T in lengths]))
        x = compose_input(ad.concat(contents, axis=0), positions, cfg.variant)

        mask = None
        if len(lengths) > 1:
            mask = np.arange(max(lengths)) < np.array(lengths)[:, None]
        penalty = self._penalty(lengths, control)
        all_on = (False,) * cfg.num_layers
        off_c = control and control.disable_content or all_on
        off_p = control and control.disable_position or all_on
        for i, layer in enumerate(self.layers):
            layer_record = [] if record is not None else None
            x = layer.forward(x, positions, penalty, bool(off_c[i]),
                              bool(off_p[i]), train, rng, layer_record, mask)
            if record is not None:
                for h, probs in enumerate(layer_record[0]):
                    record[(i, h)] = probs
        return x

    def _penalty(self, lengths, control):
        """The additive logit mask of a sentence ([T, T], or None without a
        window) or of a pack ([B * H, Tmax, Tmax], its padded keys masked
        too).  Every window keeps the diagonal, so no real query row is
        left empty."""
        distance, mode = self.config.window_distance, self.config.window_mode
        if control is not None and control.window is not None:
            distance, mode = control.window
        if distance is None or distance < 0:
            distance = math.inf
        if len(lengths) == 1 and distance == math.inf:
            return None
        Tmax = max(lengths)
        allow = np.zeros((len(lengths), Tmax, Tmax), dtype=bool)
        for b, T in enumerate(lengths):
            allow[b, :T, :T] = build_window_mask(T, distance, mode)
        penalty = np.where(allow, 0.0, MASK_PENALTY)
        if len(lengths) == 1:
            return penalty[0]
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
