"""Factored self-attention up close: attention maps, window masking, and
the block-sparse equivalence that justifies the factoring."""

import math

import numpy as np

import spanparser.autodiff as ad
from spanparser.encoder import (
    AttentionControl, Encoder, EncoderConfig, assemble_block_sparse,
    compose_input,
)
from spanparser.optim import ParameterStore

cfg = EncoderConfig(num_layers=2, d_model=32, num_heads=2, d_k=8, d_v=8,
                    d_ff=48, variant="factored", max_sentence_length=16)
store = ParameterStore()
enc = Encoder(store, cfg)
store.allocate(seed=0)
rng = np.random.default_rng(0)
print("encoder holds %d values in %d parameters"
      % (store.size, len(store)))

# content rows for a 6-token sentence (start and stop included), a pack of
# one; in the real model these come from the lexical layer
T = 6
content = ad.tensor(rng.standard_normal((T, cfg.content_dim)) * 0.3)

record = {}
y = enc.encode(content, [T], record=record)
print("output shape:", y.data.shape)
probs = record[(0, 0)]
print("layer 0 head 0 attention, query row 2:", np.round(probs[2], 3),
      "sum %.6f" % probs[2].sum())

# strict window: probability mass outside |i-j| <= 1 is exactly zero
record = {}
enc.encode(content, [T], control=AttentionControl(window=(1, "strict")),
           record=record)
probs = record[(0, 0)]
off_band = [probs[i, j] for i in range(T) for j in range(T)
            if abs(i - j) > 1]
print("strict d=1, largest off-band probability:", max(off_band))

# relaxed window keeps the two boundary tokens on each side visible
record = {}
enc.encode(content, [T], control=AttentionControl(window=(1, "relaxed")),
           record=record)
print("relaxed d=1, P(query 3 -> key 0):", record[(0, 0)][3, 0])

# disabling both factored terms leaves a uniform attention distribution
record = {}
enc.encode(content, [T],
           control=AttentionControl(disable_content=(True, True),
                                    disable_position=(True, True)),
           record=record)
print("both terms disabled, row 0:", np.round(record[(0, 0)][0], 3))

# the factored head equals a dense head whose weight matrices are block
# sparse, with the 2^(1/4) rescaling folded in
layer = enc.layers[0]
positions = ad.take_rows(enc.position_table, np.arange(T))
x = compose_input(content, positions, cfg.variant)
out = layer.attn.head_outputs(x, positions, None, False, False)
dense = assemble_block_sparse(layer, 0)
xd = x.data
logits = (xd @ dense["w_q"]) @ (xd @ dense["w_k"]).T / math.sqrt(cfg.d_k)
logits -= logits.max(axis=1, keepdims=True)
p = np.exp(logits)
p /= p.sum(axis=1, keepdims=True)
ref = p @ (xd @ dense["w_v"]) @ dense["w_o"]
print("factored vs assembled dense head, max |diff|:",
      np.abs(out.data[0] - ref).max())
