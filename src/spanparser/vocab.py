"""Vocabularies for words, POS tags, characters, and constituent labels."""

from __future__ import annotations

from .trees import NULL_LABEL, DEFAULT_SEPARATOR, collapse_unary

PAD = "<pad>"
UNK = "<unk>"
START = "<start>"
STOP = "<stop>"
SPECIALS = (PAD, UNK, START, STOP)


class Vocabulary:
    """Word/tag/char string-to-id maps with shared special tokens.

    Ids are dense from 0; the four specials occupy ids 0..3 in every map.
    Items unseen at training time map to the unknown id.
    """

    PAD_ID = 0
    UNK_ID = 1
    START_ID = 2
    STOP_ID = 3

    def __init__(self, words, tags, chars):
        self.words = list(SPECIALS) + sorted(set(words) - set(SPECIALS))
        self.tags = list(SPECIALS) + sorted(set(tags) - set(SPECIALS))
        self.chars = list(SPECIALS) + sorted(set(chars) - set(SPECIALS))
        self._word_ids = {w: i for i, w in enumerate(self.words)}
        self._tag_ids = {t: i for i, t in enumerate(self.tags)}
        self._char_ids = {c: i for i, c in enumerate(self.chars)}

    @classmethod
    def from_trees(cls, trees):
        words, tags, chars = set(), set(), set()
        for tree in trees:
            for word, tag in tree.sentence():
                words.add(word)
                tags.add(tag)
                chars.update(word)
        return cls(words, tags, chars)

    def word_id(self, word):
        return self._word_ids.get(word, self.UNK_ID)

    def tag_id(self, tag):
        if tag is None:
            raise ValueError("token is missing a POS tag")
        return self._tag_ids.get(tag, self.UNK_ID)

    def char_id(self, char):
        return self._char_ids.get(char, self.UNK_ID)

    def char_ids(self, word):
        return [self.char_id(c) for c in word]

    def to_dict(self):
        return {"words": self.words, "tags": self.tags, "chars": self.chars}

    @classmethod
    def from_dict(cls, d):
        return cls(d["words"], d["tags"], d["chars"])


class LabelInventory:
    """Bijection between constituent labels (including collapsed unary
    chains) and dense ids.  Id 0 is reserved for the null label used by
    binarization; it never appears in rendered output trees."""

    null_id = 0

    def __init__(self, labels, separator=DEFAULT_SEPARATOR):
        self.labels = [NULL_LABEL] + sorted(set(labels) - {NULL_LABEL})
        self.separator = separator
        self._ids = {lab: i for i, lab in enumerate(self.labels)}

    @classmethod
    def from_trees(cls, trees, separator=DEFAULT_SEPARATOR):
        """Collect every constituent label (one collapsed entry per unary
        chain) observed in the trees.

        Raw treebank labels must not contain the separator character, or the
        collapsed entries would be ambiguous: ValueError names the first
        tree (counted from 0) with such a label.
        """
        labels = set()
        for k, tree in enumerate(trees):
            atomic = set()
            _collect_labels(tree, atomic)
            for label in sorted(atomic):
                if separator in label:
                    raise ValueError(
                        "tree %d: label %r contains %r, the separator that "
                        "joins a unary chain's labels" % (k, label, separator))
            _collect_labels(collapse_unary(tree, separator), labels)
        return cls(labels, separator)

    def index(self, label):
        try:
            return self._ids[label]
        except KeyError:
            raise KeyError("unknown constituent label %r" % label) from None

    def name(self, label_id):
        return self.labels[label_id]

    def __len__(self):
        return len(self.labels)

    def __contains__(self, label):
        return label in self._ids

    def to_dict(self):
        return {"labels": self.labels[1:], "separator": self.separator}

    @classmethod
    def from_dict(cls, d):
        return cls(d["labels"], d["separator"])


def _collect_labels(tree, out):
    stack = [tree]
    while stack:
        node = stack.pop()
        if not node.is_leaf():
            out.add(node.label)
            stack.extend(node.children)
