"""Lexical representations: the content half of each token's embedding.

Four modes.  ``tags`` sums a word embedding and a predicted-POS-tag
embedding.  The character modes replace the tag slot with a subword
representation of the same width: ``char-lstm`` runs a bidirectional
character LSTM over each word and projects the concatenated final states;
``char-concat`` embeds the first and last few letters and concatenates them
directly (so its output width is fixed by the letter count and character
embedding size, and must equal the slot width).  ``external`` projects
pretrained per-token vectors supplied at run time and uses them alone.

Boundary tokens: in the embedding modes the start/stop rows come from the
reserved word/tag entries; in the character modes the boundary "words" are
single reserved pseudo-characters; in external mode they are learned rows,
since pretrained files only cover real tokens.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .optim import ParameterStore, glorot_uniform, embedding_init
from .vocab import Vocabulary, START, STOP

MODES = ("tags", "char-lstm", "char-concat", "external")


@dataclass
class LexicalConfig:
    mode: str = "tags"
    use_word_embeddings: bool = True
    char_embedding_dim: int = 0      # 0 picks the mode default (64 / 32)
    char_lstm_hidden: int = 64
    prefix_length: int = 8
    suffix_length: int = 8
    external_dim: int = 0
    word_dropout: float = 0.4
    tag_dropout: float = 0.2
    morph_dropout: float = 0.2
    char_dropout: float = 0.2

    def validate(self):
        if self.mode not in MODES:
            raise ValueError("unknown lexical mode %r (choose from %s)"
                             % (self.mode, ", ".join(MODES)))
        if self.mode == "external" and self.external_dim <= 0:
            raise ValueError("external mode needs external_dim > 0")
        for name in ("word_dropout", "tag_dropout", "morph_dropout",
                     "char_dropout"):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise ValueError("%s must be in [0, 1)" % name)
        return self

    def resolved_char_dim(self) -> int:
        if self.char_embedding_dim > 0:
            return self.char_embedding_dim
        return 64 if self.mode == "char-lstm" else 32


def _char_id_seq(vocab: Vocabulary, word: str):
    if word == START:
        return [vocab.char_id(START)]
    if word == STOP:
        return [vocab.char_id(STOP)]
    return [vocab.char_id(ch) for ch in word]


class CharConcat:
    """Fixed-width subword features: embed the first ``prefix_length`` and
    last ``suffix_length`` letters and concatenate all of them."""

    def __init__(self, store: ParameterStore, vocab: Vocabulary,
                 config: LexicalConfig, slot_dim: int, rng):
        self.vocab = vocab
        self.prefix = config.prefix_length
        self.suffix = config.suffix_length
        self.char_dim = config.resolved_char_dim()
        self.char_dropout = config.char_dropout
        width = (self.prefix + self.suffix) * self.char_dim
        if width != slot_dim:
            raise ValueError(
                "char-concat produces (%d + %d) * %d = %d values per word "
                "but the content slot is %d wide; adjust char_embedding_dim "
                "or d_model" % (self.prefix, self.suffix, self.char_dim,
                                width, slot_dim))
        self.char_emb = store.add("lexical.char_emb",
                                  (len(vocab.chars), self.char_dim),
                                  partial(embedding_init, rng))

    def positions(self, word: str) -> np.ndarray:
        """Char ids for one word: prefix letters padded right, suffix
        letters padded left, e.g. 'cat' -> [c a t . . . . . | . . . . . c a t]."""
        ids = _char_id_seq(self.vocab, word)
        pad = self.vocab.PAD_ID
        pre = ids[:self.prefix]
        pre = pre + [pad] * (self.prefix - len(pre))
        suf = ids[-self.suffix:]
        suf = [pad] * (self.suffix - len(suf)) + suf
        return np.array(pre + suf, dtype=np.intp)

    def forward(self, words, train: bool, rng) -> Tensor:
        ids = np.stack([self.positions(w) for w in words])
        flat = ad.take_rows(self.char_emb.tensor, ids.ravel())
        flat = ad.dropout(flat, self.char_dropout, rng, train)
        return ad.reshape(flat, (len(words), ids.shape[1] * self.char_dim))


class CharLSTM:
    """Bidirectional character LSTM; the final states of both directions are
    concatenated and projected to the content slot width.

    All of a sentence's words run as one batch: shorter words stop updating
    via a per-step mask (h = h_new * m + h_old * (1 - m)), so each word's
    final state is the state at its last real character.
    """

    def __init__(self, store: ParameterStore, vocab: Vocabulary,
                 config: LexicalConfig, slot_dim: int, rng):
        self.vocab = vocab
        self.char_dim = config.resolved_char_dim()
        self.hidden = config.char_lstm_hidden
        self.char_dropout = config.char_dropout
        glorot = partial(glorot_uniform, rng)
        self.char_emb = store.add("lexical.char_emb",
                                  (len(vocab.chars), self.char_dim),
                                  partial(embedding_init, rng))
        self.dirs = {}
        for tag in ("fwd", "bwd"):
            self.dirs[tag] = {
                "w_x": store.add("lexical.char_lstm.%s.w_x" % tag,
                                 (self.char_dim, 4 * self.hidden), glorot),
                "w_h": store.add("lexical.char_lstm.%s.w_h" % tag,
                                 (self.hidden, 4 * self.hidden), glorot),
                "b": store.add("lexical.char_lstm.%s.b" % tag,
                               (4 * self.hidden,)),
            }
        self.proj = store.add("lexical.char_lstm.proj",
                              (2 * self.hidden, slot_dim), glorot)
        self.proj_bias = store.add("lexical.char_lstm.proj_bias", (slot_dim,))

    def _run_direction(self, ids: np.ndarray, mask: np.ndarray, weights,
                       train: bool, rng) -> Tensor:
        W, L = ids.shape
        H = self.hidden
        h = Tensor(np.zeros((W, H)))
        c = Tensor(np.zeros((W, H)))
        for t in range(L):
            x_t = ad.take_rows(self.char_emb.tensor, ids[:, t])
            x_t = ad.dropout(x_t, self.char_dropout, rng, train)
            gates = ad.add(ad.add(ad.matmul(x_t, weights["w_x"].tensor),
                                  ad.matmul(h, weights["w_h"].tensor)),
                           weights["b"].tensor)
            gi, gf, gg, go = ad.split_cols(gates, 4)
            c_new = ad.add(ad.mul(ad.sigmoid(gf), c),
                           ad.mul(ad.sigmoid(gi), ad.tanh(gg)))
            h_new = ad.mul(ad.sigmoid(go), ad.tanh(c_new))
            m = np.broadcast_to(mask[:, t:t + 1], (W, H))
            c = ad.add(ad.mul_const(c_new, m), ad.mul_const(c, 1.0 - m))
            h = ad.add(ad.mul_const(h_new, m), ad.mul_const(h, 1.0 - m))
        return h

    def forward(self, words, train: bool, rng) -> Tensor:
        seqs = [_char_id_seq(self.vocab, w) for w in words]
        W = len(seqs)
        L = max(len(s) for s in seqs)
        pad = self.vocab.PAD_ID
        fwd_ids = np.full((W, L), pad, dtype=np.intp)
        bwd_ids = np.full((W, L), pad, dtype=np.intp)
        mask = np.zeros((W, L))
        for k, seq in enumerate(seqs):
            n = len(seq)
            fwd_ids[k, :n] = seq
            bwd_ids[k, :n] = seq[::-1]
            mask[k, :n] = 1.0
        h_f = self._run_direction(fwd_ids, mask, self.dirs["fwd"], train, rng)
        h_b = self._run_direction(bwd_ids, mask, self.dirs["bwd"], train, rng)
        both = ad.concat([h_f, h_b], axis=1)
        return ad.add(ad.matmul(both, self.proj.tensor), self.proj_bias.tensor)


class LexicalModel:
    """Maps a tagged sentence to the [n+2, slot_dim] content matrix."""

    def __init__(self, store: ParameterStore, vocab: Vocabulary,
                 config: LexicalConfig, slot_dim: int, rng):
        config.validate()
        self.vocab = vocab
        self.config = config
        self.slot_dim = slot_dim
        self.word_emb = None
        self.tag_emb = None
        self.chars = None
        self.external_proj = None
        mode = config.mode
        if mode == "tags" or (mode in ("char-lstm", "char-concat")
                              and config.use_word_embeddings):
            self.word_emb = store.add("lexical.word_emb",
                                      (len(vocab.words), slot_dim),
                                      partial(embedding_init, rng))
        if mode == "tags":
            self.tag_emb = store.add("lexical.tag_emb",
                                     (len(vocab.tags), slot_dim),
                                     partial(embedding_init, rng))
        elif mode == "char-lstm":
            self.chars = CharLSTM(store, vocab, config, slot_dim, rng)
        elif mode == "char-concat":
            self.chars = CharConcat(store, vocab, config, slot_dim, rng)
        elif mode == "external":
            self.external_proj = store.add(
                "lexical.external_proj", (config.external_dim, slot_dim),
                partial(glorot_uniform, rng))
            self.external_boundaries = store.add(
                "lexical.external_boundaries", (2, slot_dim),
                partial(embedding_init, rng))

    def content_vectors(self, sentence, train: bool = False, rng=None,
                        external: np.ndarray = None) -> Tensor:
        """``sentence`` is a list of (word, tag) pairs without boundaries.

        ``external`` is the [n, external_dim] pretrained matrix for this
        sentence (external mode only).
        """
        cfg = self.config
        words = [START] + [w for w, _ in sentence] + [STOP]

        if cfg.mode == "external":
            if external is None:
                raise ValueError("lexical mode is external but no vectors "
                                 "were supplied for the sentence")
            if external.shape != (len(sentence), cfg.external_dim):
                raise ValueError(
                    "external vectors are %s but the sentence needs (%d, %d)"
                    % (external.shape, len(sentence), cfg.external_dim))
            inner = ad.matmul(Tensor(external), self.external_proj.tensor)
            bounds = self.external_boundaries.tensor
            start = ad.take_rows(bounds, [0])
            stop = ad.take_rows(bounds, [1])
            out = ad.concat([start, inner, stop], axis=0)
            return ad.row_dropout(out, cfg.word_dropout, rng, train)

        total = None
        if self.word_emb is not None:
            ids = [self.vocab.word_id(w) for w in words]
            rows = ad.take_rows(self.word_emb.tensor, ids)
            total = ad.row_dropout(rows, cfg.word_dropout, rng, train)
        if cfg.mode == "tags":
            tags = [START] + [t for _, t in sentence] + [STOP]
            ids = [self.vocab.tag_id(t) for t in tags]
            rows = ad.take_rows(self.tag_emb.tensor, ids)
            rows = ad.row_dropout(rows, cfg.tag_dropout, rng, train)
            total = rows if total is None else ad.add(total, rows)
        else:
            rows = self.chars.forward(words, train, rng)
            rows = ad.row_dropout(rows, cfg.morph_dropout, rng, train)
            total = rows if total is None else ad.add(total, rows)
        return total


# ---------------------------------------------------------------------------
# pretrained vector files


def write_vector_file(path, sentences) -> None:
    """Write per-token vectors: a `num_sentences dim` header, then for each
    sentence its token count on one line and one vector per line."""
    sentences = [np.asarray(m, dtype=np.float64) for m in sentences]
    if not sentences:
        raise ValueError("no sentences to write")
    dim = sentences[0].shape[1]
    if dim == 0:
        raise ValueError("%s: vectors must have at least one value, got "
                         "[n, 0] matrices" % path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%d %d\n" % (len(sentences), dim))
        for mat in sentences:
            if mat.ndim != 2 or mat.shape[1] != dim:
                raise ValueError("all sentences must be [n, %d] matrices" % dim)
            fh.write("%d\n" % mat.shape[0])
            for row in mat:
                fh.write(" ".join(repr(float(x)) for x in row) + "\n")


def read_vector_file(path):
    """Read the format written by :func:`write_vector_file`.

    Returns (list of [n, dim] arrays, dim).  Malformed input raises
    ValueError naming the path and the line.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    pos = 0

    def next_line(what, width, kind=int):
        """The next non-blank line's ``width`` values (ints are counts)."""
        nonlocal pos
        while pos < len(lines) and not lines[pos].strip():
            pos += 1
        if pos >= len(lines):
            raise ValueError("%s: unexpected end of file" % path)
        pos += 1
        try:
            values = [kind(x) for x in lines[pos - 1].split()]
        except ValueError:
            values = []
        if len(values) != width or kind is int and min(values) < 0:
            raise ValueError("%s: line %d: expected %s, got %r"
                             % (path, pos, what, lines[pos - 1]))
        return values

    count, dim = next_line("'num_sentences dim', two counts", 2)
    if dim == 0:
        raise ValueError("%s: line %d: the dimension must be positive, got 0"
                         % (path, pos))
    out = []
    for _ in range(count):
        (n,) = next_line("a token count", 1)
        mat = np.empty((n, dim))
        for i in range(n):
            mat[i] = next_line("%d numbers" % dim, dim, float)
        out.append(mat)
    return out, dim
