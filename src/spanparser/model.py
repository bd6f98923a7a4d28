"""The full parser: lexical content vectors, the self-attentive encoder, the
span scorer, and CKY decoding glued into one trainable object."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .chart import (SpanScorer, build_chart, cky_decode, fenceposts,
                    hinge_loss, margin_loss, span_vectors)
from .encoder import Encoder, EncoderConfig
from .lexical import LexicalConfig, LexicalModel
from .optim import ParameterStore
from .trees import Tree, binarize, collapse_unary, debinarize
from .vocab import LabelInventory, Vocabulary

# sentences per pack in parse_batch
PARSE_PACK = 16


class SpanParser:
    """Scores labeled spans of tagged sentences and decodes parse trees.

    Construction is deterministic in ``seed``; two parsers built from equal
    configs, vocabularies, and seeds are identical parameter for parameter.
    With ``draw`` false no initialization is drawn and every parameter is
    zero, for a checkpoint loader to read its payload into ``store.data``.
    """

    def __init__(self, encoder_config: EncoderConfig,
                 lexical_config: LexicalConfig, vocab: Vocabulary,
                 labels: LabelInventory, seed: int = 0, draw: bool = True):
        if len(labels) < 2:
            raise ValueError("label inventory has no real labels")
        self.encoder_config = encoder_config.validate()
        self.lexical_config = lexical_config.validate()
        self.vocab = vocab
        self.labels = labels
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.store = ParameterStore()
        self.lexical = LexicalModel(self.store, vocab, lexical_config,
                                    encoder_config.content_dim, rng)
        self.encoder = Encoder(self.store, encoder_config, rng)
        self.scorer = SpanScorer(self.store, encoder_config.d_model,
                                 encoder_config.span_hidden, len(labels), rng)
        self.store.allocate(draw)

    def num_parameters(self) -> int:
        return self.store.num_values()

    def span_score_tensor(self, sentence, train: bool = False, rng=None,
                          control=None, external=None, record=None):
        """Run the network on one tagged sentence (list of (word, tag)
        pairs) and return the [num_spans, num_labels-1] score tensor."""
        return self.pack_scores([sentence], train, rng, control,
                                [external], record)

    def pack_scores(self, sentences, train: bool = False, rng=None,
                    control=None, externals=None, record=None):
        """Score a pack of tagged sentences in one pass: the
        [sum of num_spans, num_labels-1] tensor holding each sentence's
        span scores in turn.  Lexical content is built per sentence;
        the encoder and the span scorer each run once over the pack.
        ``externals`` gives each sentence's pretrained vectors (external
        mode)."""
        if not sentences or not all(sentences):
            raise ValueError("cannot score an empty sentence")
        if externals is None:
            externals = [None] * len(sentences)
        contents = [self.lexical.content_vectors(s, train, rng, ext)
                    for s, ext in zip(sentences, externals)]
        words = [len(s) for s in sentences]
        lengths = [n + 2 for n in words]
        y = self.encoder.encode(contents, train, rng, control, record)
        projected = self.scorer.project(fenceposts(y, lengths))
        return self.scorer.forward(span_vectors(projected, words))

    def score_chart(self, sentence, control=None, external=None, record=None):
        """The [n+1, n+1, num_labels] chart; builds no autodiff graph."""
        with ad.no_grad():
            scores = self.span_score_tensor(sentence, control=control,
                                            external=external, record=record)
        return build_chart(scores.data, len(sentence))

    def parse(self, sentence, control=None, external=None, record=None) -> Tree:
        """Decode the best tree for a tagged sentence."""
        chart = self.score_chart(sentence, control, external, record)
        btree, _ = cky_decode(chart, sentence)
        return debinarize(btree, self.labels)

    def parse_batch(self, sentences, control=None, externals=None):
        """Decode the best tree for each tagged sentence, in input order.

        The sentences are sorted by length and scored in packs of up to
        PARSE_PACK (``pack_scores``, building no graph), so similar lengths
        share a pack and little padding is attended over; each sentence's
        chart is then assembled and decoded on its own.  ``externals``
        gives each sentence's pretrained vectors (external mode).  A
        packed sentence's scores equal its lone ones up to rounding (a
        pack of one is bitwise ``parse``)."""
        if externals is None:
            externals = [None] * len(sentences)
        order = sorted(range(len(sentences)),
                       key=lambda k: len(sentences[k]))
        trees = [None] * len(sentences)
        for start in range(0, len(order), PARSE_PACK):
            pack = order[start:start + PARSE_PACK]
            with ad.no_grad():
                scores = self.pack_scores(
                    [sentences[k] for k in pack], control=control,
                    externals=[externals[k] for k in pack]).data
            offset = 0
            for k in pack:
                n = len(sentences[k])
                size = n * (n + 1) // 2
                chart = build_chart(scores[offset:offset + size], n)
                offset += size
                btree, _ = cky_decode(chart, sentences[k])
                trees[k] = debinarize(btree, self.labels)
        return trees

    def gold_binary(self, tree: Tree):
        """Binarize a treebank tree against this model's label inventory."""
        return binarize(collapse_unary(tree, self.labels.separator),
                        self.labels)

    def sentence_loss(self, sentence, gold_binary, train: bool = True,
                      rng=None, external=None):
        """HingeResult for one sentence against its binarized gold tree."""
        scores = self.span_score_tensor(sentence, train=train, rng=rng,
                                        external=external)
        return hinge_loss(scores, len(sentence), gold_binary)

    def batch_loss(self, batch, train: bool = True, rng=None):
        """One packed pass over a mini-batch of (sentence, gold_binary,
        external) triples: (each sentence's HingeResult, the batch's
        summed loss tensor, or None when every margin holds)."""
        scores = self.pack_scores([s for s, _, _ in batch], train, rng,
                                  externals=[ext for _, _, ext in batch])
        results, offset = [], 0
        for sentence, gold, _ in batch:
            n = len(sentence)
            results.append(hinge_loss(scores, n, gold, offset))
            offset += n * (n + 1) // 2
        return results, margin_loss(scores, results)
