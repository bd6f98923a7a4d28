"""The full parser: lexical content vectors, the self-attentive encoder, the
span scorer, and CKY decoding glued into one trainable object."""

from __future__ import annotations

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
    configs, vocabularies, and seeds are identical parameter for parameter,
    each parameter drawn from a generator of its own spawned from ``seed``
    (see :meth:`ParameterStore.allocate`).
    ``data``, if given, is called with the parameter store once every
    parameter is registered and before anything is allocated, and returns
    the data arena to adopt instead of drawing an initialization (see
    :meth:`ParameterStore.allocate`): a checkpoint loader checks its file
    against the store's layout and returns the payload it maps.
    """

    def __init__(self, encoder_config: EncoderConfig,
                 lexical_config: LexicalConfig, vocab: Vocabulary,
                 labels: LabelInventory, seed: int = 0, data=None):
        self.encoder_config = encoder_config
        self.lexical_config = lexical_config
        self.vocab = vocab
        self.labels = labels
        self.seed = seed
        self.store = ParameterStore()
        self.lexical, self.encoder, self.scorer = _modules(
            self.store, encoder_config, lexical_config, vocab, labels)
        self.store.allocate(None if data is None else data(self.store), seed)

    def num_parameters(self) -> int:
        return self.store.size

    def span_score_tensor(self, sentence, rng=None, control=None,
                          external=None, record=None):
        """Run the network on one tagged sentence (list of (word, tag)
        pairs) and return the [num_spans, num_labels-1] score tensor."""
        return self.pack_scores([sentence], rng, control, [external], record)

    def pack_scores(self, sentences, rng=None, control=None, externals=None,
                    record=None):
        """Score a pack of tagged sentences in one pass: the
        [sum of num_spans, num_labels-1] tensor holding each sentence's
        span scores in turn.  The lexical layer, the encoder and the span
        scorer each run once over the pack, on one BLAS thread.  ``rng``
        draws every dropout mask; None (evaluation) draws none.  ``externals``
        gives each sentence's pretrained vectors (external mode)."""
        if not sentences or not all(sentences):
            raise ValueError("cannot score an empty sentence")
        words = [len(s) for s in sentences]
        lengths = [n + 2 for n in words]
        with ad.one_blas_thread():
            x = self.lexical.content_vectors(sentences, rng, externals)
            y = self.encoder.encode(x, lengths, rng, control, record)
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
        order = sorted(range(len(sentences)),
                       key=lambda k: len(sentences[k]))
        trees = [None] * len(sentences)
        for start in range(0, len(order), PARSE_PACK):
            pack = order[start:start + PARSE_PACK]
            with ad.no_grad():
                scores = self.pack_scores(
                    [sentences[k] for k in pack], control=control,
                    externals=externals and [externals[k] for k in pack])
            offset = 0
            for k in pack:
                n = len(sentences[k])
                size = n * (n + 1) // 2
                chart = build_chart(scores.data[offset:offset + size], n)
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
        """HingeResult for one sentence against its binarized gold tree,
        its ``loss`` the differentiable hinge (a 0 tensor when the margin
        holds): ``batch_loss`` of a batch of one, given ``rng`` only if
        ``train``.  ``train`` stays for ``perfbench/workload.py``, which
        passes ``train=False``, until ROADMAP item 3 deletes this method."""
        (result,), loss = self.batch_loss([(sentence, gold_binary, external)],
                                          rng if train else None)
        result.loss = ad.tensor(0.0) if loss is None else loss
        return result

    def batch_loss(self, batch, rng=None):
        """One packed pass over a mini-batch of (sentence, gold_binary,
        external) triples, dropout drawn from ``rng`` (None: no dropout):
        (each sentence's HingeResult, the batch's summed loss tensor, or
        None when every margin holds)."""
        scores = self.pack_scores([s for s, _, _ in batch], rng,
                                  externals=[ext for _, _, ext in batch])
        results, offset = [], 0
        for sentence, gold, _ in batch:
            n = len(sentence)
            results.append(hinge_loss(scores, n, gold, offset))
            offset += n * (n + 1) // 2
        return results, margin_loss(scores, results)


def _modules(store, encoder_config, lexical_config, vocab, labels):
    """Validate the configs and register the lexical layer's, the
    encoder's and the scorer's parameters in ``store``, in that order."""
    if len(labels) < 2:
        raise ValueError("label inventory has no real labels")
    encoder_config.validate()
    return (LexicalModel(store, vocab, lexical_config,
                         encoder_config.content_dim),
            Encoder(store, encoder_config),
            SpanScorer(store, encoder_config.d_model,
                       encoder_config.span_hidden, len(labels)))
