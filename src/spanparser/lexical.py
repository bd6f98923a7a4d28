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

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .optim import ParameterStore, embedding_init, glorot_uniform
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
        if self.char_lstm_hidden < 1:
            raise ValueError("char_lstm_hidden must be >= 1")
        for name in ("char_embedding_dim", "prefix_length", "suffix_length"):
            if getattr(self, name) < 0:
                raise ValueError("%s must be >= 0" % name)
        for name in ("word_dropout", "tag_dropout", "morph_dropout",
                     "char_dropout"):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise ValueError("%s must be in [0, 1)" % name)
        return self

    def check_width(self, slot_dim: int):
        """Raise ValueError unless char-concat fills ``slot_dim`` values."""
        char_dim = self.resolved_char_dim()
        width = (self.prefix_length + self.suffix_length) * char_dim
        if self.mode == "char-concat" and width != slot_dim:
            raise ValueError(
                "char-concat produces (%d + %d) * %d = %d values per word "
                "but the content slot is %d wide; adjust char_embedding_dim "
                "or d_model" % (self.prefix_length, self.suffix_length,
                                char_dim, width, slot_dim))

    def resolved_char_dim(self) -> int:
        if self.char_embedding_dim > 0:
            return self.char_embedding_dim
        return 64 if self.mode == "char-lstm" else 32


def _char_id_seq(vocab: Vocabulary, word: str):
    if word in (START, STOP):
        return [vocab.char_id(word)]
    return vocab.char_ids(word)


class CharConcat:
    """Fixed-width subword features: embed the first ``prefix_length`` and
    last ``suffix_length`` letters and concatenate all of them."""

    def __init__(self, store: ParameterStore, vocab: Vocabulary,
                 config: LexicalConfig, slot_dim: int):
        self.vocab = vocab
        self.prefix = config.prefix_length
        self.suffix = config.suffix_length
        self.char_dim = config.resolved_char_dim()
        self.char_dropout = config.char_dropout
        self.char_emb = store.add("lexical.char_emb",
                                  (len(vocab.chars), self.char_dim),
                                  embedding_init)

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

    def forward(self, words, rng) -> Tensor:
        ids = np.stack([self.positions(w) for w in words])
        flat = ad.take_rows(self.char_emb, ids.ravel())
        flat = ad.dropout(flat, self.char_dropout, rng)
        return ad.reshape(flat, (len(words), ids.shape[1] * self.char_dim))


class CharLSTM:
    """Bidirectional character LSTM; the final states of both directions are
    concatenated and projected to the content slot width.

    All of a pack's words run as one batch for as many steps as the
    longest has characters; each word's final state is the state at its
    last real character, and the steps after it (over padding) go unused.
    """

    def __init__(self, store: ParameterStore, vocab: Vocabulary,
                 config: LexicalConfig, slot_dim: int):
        self.vocab = vocab
        self.char_dim = config.resolved_char_dim()
        self.hidden = config.char_lstm_hidden
        self.char_dropout = config.char_dropout
        self.char_emb = store.add("lexical.char_emb",
                                  (len(vocab.chars), self.char_dim),
                                  embedding_init)
        self.dirs = {}
        for tag in ("fwd", "bwd"):
            self.dirs[tag] = {
                "w_x": store.add("lexical.char_lstm.%s.w_x" % tag,
                                 (self.char_dim, 4 * self.hidden),
                                 glorot_uniform),
                "w_h": store.add("lexical.char_lstm.%s.w_h" % tag,
                                 (self.hidden, 4 * self.hidden),
                                 glorot_uniform),
                "b": store.add("lexical.char_lstm.%s.b" % tag,
                               (4 * self.hidden,)),
            }
        self.proj = store.add("lexical.char_lstm.proj",
                              (2 * self.hidden, slot_dim), glorot_uniform)
        self.proj_bias = store.add("lexical.char_lstm.proj_bias", (slot_dim,))

    def _run_direction(self, ids: np.ndarray, last: np.ndarray, weights,
                       rng) -> Tensor:
        """Every word's final state, [W, H]: row ``last[k]`` of the [L * W,
        H] stack of every step's states (step t's in rows t * W ...)."""
        W, L = ids.shape
        H = self.hidden
        h = Tensor(np.zeros((W, H)))
        c = Tensor(np.zeros((W, H)))
        states = []
        for t in range(L):
            x_t = ad.take_rows(self.char_emb, ids[:, t])
            x_t = ad.dropout(x_t, self.char_dropout, rng)
            gates = ad.add(ad.add(ad.matmul(x_t, weights["w_x"]),
                                  ad.matmul(h, weights["w_h"])),
                           weights["b"])
            gi, gf, gg, go = ad.split_cols(gates, 4)
            c = ad.add(ad.mul(ad.sigmoid(gf), c),
                       ad.mul(ad.sigmoid(gi), ad.tanh(gg)))
            h = ad.mul(ad.sigmoid(go), ad.tanh(c))
            states.append(h)
        return ad.take_rows(ad.concat(states, axis=0), last)

    def forward(self, words, rng) -> Tensor:
        seqs = [_char_id_seq(self.vocab, w) for w in words]
        W = len(seqs)
        L = max(len(s) for s in seqs)
        pad = self.vocab.PAD_ID
        fwd_ids = np.full((W, L), pad, dtype=np.intp)
        bwd_ids = np.full((W, L), pad, dtype=np.intp)
        for k, seq in enumerate(seqs):
            n = len(seq)
            fwd_ids[k, :n] = seq
            bwd_ids[k, :n] = seq[::-1]
        # word k's last real character is at step len - 1
        last = (np.array([len(s) for s in seqs]) - 1) * W + np.arange(W)
        h_f = self._run_direction(fwd_ids, last, self.dirs["fwd"], rng)
        h_b = self._run_direction(bwd_ids, last, self.dirs["bwd"], rng)
        both = ad.concat([h_f, h_b], axis=1)
        return ad.add(ad.matmul(both, self.proj), self.proj_bias)


class LexicalModel:
    """Maps a pack of tagged sentences to their stacked content rows."""

    def __init__(self, store: ParameterStore, vocab: Vocabulary,
                 config: LexicalConfig, slot_dim: int):
        config.validate().check_width(slot_dim)
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
                                      embedding_init)
        if mode == "tags":
            self.tag_emb = store.add("lexical.tag_emb",
                                     (len(vocab.tags), slot_dim),
                                     embedding_init)
        elif mode == "char-lstm":
            self.chars = CharLSTM(store, vocab, config, slot_dim)
        elif mode == "char-concat":
            self.chars = CharConcat(store, vocab, config, slot_dim)
        elif mode == "external":
            self.external_proj = store.add(
                "lexical.external_proj", (config.external_dim, slot_dim),
                glorot_uniform)
            self.external_boundaries = store.add(
                "lexical.external_boundaries", (2, slot_dim), embedding_init)

    def content_vectors(self, sentences, rng=None, externals=None) -> Tensor:
        """Each sentence's [n+2, slot_dim] rows, boundaries included, one
        after the other, for a pack of lists of (word, tag) pairs.  Each
        table is looked up, each dropout mask drawn and the character modes
        run once per pack.  ``externals`` gives each sentence's
        [n, external_dim] pretrained matrix (external mode only)."""
        cfg = self.config
        if cfg.mode == "external":
            return self._external_rows(sentences, externals, rng)
        tokens = [pair for sentence in sentences
                  for pair in [(START, START), *sentence, (STOP, STOP)]]
        words = [w for w, _ in tokens]
        total = None
        if self.word_emb is not None:
            ids = [self.vocab.word_id(w) for w in words]
            rows = ad.take_rows(self.word_emb, ids)
            total = ad.row_dropout(rows, cfg.word_dropout, rng)
        if cfg.mode == "tags":
            ids = [self.vocab.tag_id(t) for _, t in tokens]
            rows = ad.take_rows(self.tag_emb, ids)
            rows = ad.row_dropout(rows, cfg.tag_dropout, rng)
        else:
            rows = self.chars.forward(words, rng)
            rows = ad.row_dropout(rows, cfg.morph_dropout, rng)
        return rows if total is None else ad.add(total, rows)

    def _external_rows(self, sentences, externals, rng):
        """Each sentence's projected vectors between the learned start and
        stop rows.  In the product each sits between two zero rows, so that
        no product has one row: numpy hands those to another BLAS routine,
        whose bits differ."""
        dim = self.config.external_dim
        vectors = np.zeros((sum(len(s) + 2 for s in sentences), dim))
        # row k of the projection is row k + 2 of ``rows``
        ids = np.arange(2, len(vectors) + 2)
        first = 0
        for k, sentence in enumerate(sentences):
            ext = None if externals is None else externals[k]
            n, shape = len(sentence), getattr(ext, "shape", None)
            if shape != (n, dim):
                raise ValueError("lexical mode is external: sentence %d needs "
                                 "(%d, %d) vectors, got %s" % (k, n, dim, shape))
            vectors[first + 1:first + n + 1] = ext
            ids[first], ids[first + n + 1] = 0, 1
            first += n + 2
        projected = ad.matmul(Tensor(vectors), self.external_proj)
        rows = ad.concat([self.external_boundaries, projected], axis=0)
        return ad.row_dropout(ad.take_rows(rows, ids),
                              self.config.word_dropout, rng)


# ---------------------------------------------------------------------------
# pretrained vector files


def write_vector_file(path, sentences) -> None:
    """Write per-token vectors: a `num_sentences dim` header, then for each
    sentence its token count on one line and one vector per line.

    Every sentence is checked to be an [n, dim] matrix of one dim >= 1
    before the file is opened; ValueError names the path and the sentence."""
    sentences = [np.asarray(m, dtype=np.float64) for m in sentences]
    if not sentences:
        raise ValueError("no sentences to write")
    dim = sentences[0].shape[1] if sentences[0].ndim == 2 else None
    for k, mat in enumerate(sentences):
        if mat.ndim != 2 or mat.shape[1] != dim or dim == 0:
            raise ValueError("%s: sentence %d is a %s array, not an [n, dim] "
                             "matrix of the first sentence's dim, at least 1"
                             % (path, k, mat.shape))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%d %d\n" % (len(sentences), dim))
        for mat in sentences:
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
        if (len(values) != width or kind is int and min(values) < 0
                or not np.isfinite(values).all()):
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
            mat[i] = next_line("%d finite numbers" % dim, dim, float)
        out.append(mat)
    for extra, line in enumerate(lines[pos:], start=pos + 1):
        if line.strip():
            raise ValueError("%s: line %d: expected the end of the file "
                             "after %d sentences, got %r"
                             % (path, extra, count, line))
    return out, dim
