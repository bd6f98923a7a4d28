"""Bracketed constituency trees and the binarized form scored by the chart decoder.

An n-ary ``Tree`` is what treebank files contain.  Before scoring, a tree is
unary-collapsed (chains like S over VP become a single "S+VP" node) and then
binarized into a ``BinaryTree`` whose extra nodes carry the reserved null
label.  Null-labeled spans always score zero, so every binarization of a tree
receives the same total score; we binarize right-branching by default and the
direction is configurable for testing that property.

POS tags are not treated as constituents: they stay attached to leaf nodes
and never participate in unary collapsing or span labeling.
"""

from __future__ import annotations

import re

NULL_LABEL = "∅"  # reserved label for nodes introduced by binarization
DEFAULT_SEPARATOR = "+"


class ParseError(ValueError):
    """Malformed bracketed input, with 1-based line/column of the offence."""

    def __init__(self, message, line, column):
        super().__init__("%s (line %d, column %d)" % (message, line, column))
        self.line = line
        self.column = column


class Tree:
    """N-ary labeled tree. Leaves carry a word and its POS tag."""

    __slots__ = ("label", "children", "word", "tag")

    def __init__(self, label, children=(), word=None, tag=None):
        self.label = label
        self.children = tuple(children)
        self.word = word
        self.tag = tag
        if self.is_leaf():
            if word is None:
                raise ValueError("internal node %r has no children" % label)
        elif word is not None:
            raise ValueError("node %r has both children and a word" % label)

    @classmethod
    def leaf(cls, word, tag):
        return cls(tag, (), word=word, tag=tag)

    def is_leaf(self):
        return not self.children

    def leaves(self):
        out, stack = [], [self]
        while stack:
            node = stack.pop()
            if node.is_leaf():
                out.append(node)
            else:
                stack.extend(reversed(node.children))
        return out

    def sentence(self):
        """The (word, tag) pairs at the leaves, left to right."""
        return [(leaf.word, leaf.tag) for leaf in self.leaves()]

    def render(self):
        # a stack of nodes still to render and text to emit after them
        parts, stack = [], [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
            elif item.is_leaf():
                parts.append("(%s %s)" % (item.tag, item.word))
            else:
                parts.append("(%s" % (item.label,))
                stack.append(")")
                for child in reversed(item.children):
                    stack.extend((child, " "))
        return "".join(parts)

    def __eq__(self, other):
        if not isinstance(other, Tree):
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if (a.label != b.label or a.word != b.word or a.tag != b.tag
                    or len(a.children) != len(b.children)):
                return False
            pairs.extend(zip(a.children, b.children))
        return True

    def __hash__(self):
        # each node hashes its fields with its children's hashes
        return _fold(self, lambda node: node.children,
                     lambda node, hashes: hash((node.label, node.word,
                                                node.tag, tuple(hashes))))

    def __repr__(self):
        return "Tree(%s)" % self.render()


class BinaryTree:
    """Binarized tree node over fencepost span (i, j).

    Internal nodes have exactly two children; width-1 spans are leaves and
    keep the word and POS tag.  ``label`` is a LabelInventory id; nodes
    introduced by binarization (and leaves without a covering single-word
    constituent) carry the null id.
    """

    __slots__ = ("label", "span", "left", "right", "word", "tag")

    def __init__(self, label, span, left=None, right=None, word=None, tag=None):
        self.label = label
        self.span = span
        self.left = left
        self.right = right
        self.word = word
        self.tag = tag

    def is_leaf(self):
        return self.left is None

    def nodes(self):
        """Every node in preorder: a node, then its left and right
        subtrees."""
        out, stack = [], [self]
        while stack:
            node = stack.pop()
            out.append(node)
            if not node.is_leaf():
                stack.extend((node.right, node.left))
        return out

    def __repr__(self):
        return "BinaryTree(label=%r, span=%r)" % (self.label, self.span)


def _fold(root, children, combine):
    """combine(node, [results of its children]) for every node below and
    including ``root``, children before parents, without recursion; returns
    root's result.  ``children(node)`` lists the nodes to combine."""
    stack = [(root, iter(children(root)), [])]
    while True:
        node, pending, done = stack[-1]
        child = next(pending, None)
        if child is not None:
            stack.append((child, iter(children(child)), []))
            continue
        stack.pop()
        value = combine(node, done)
        if not stack:
            return value
        stack[-1][2].append(value)


# ---------------------------------------------------------------------------
# Bracketed text parsing / rendering


# a parenthesis, or a run of anything else up to whitespace or one; what
# no token covers is whitespace (str.isspace), and "\n" ends a line
_TOKEN = re.compile(r"[()]|[^\s()]+")


class _Misplaced(Exception):
    """A parse error at a token index, ``args`` (message, index, columns
    past the token's start); parse_bracketed turns it into a ParseError
    with the token's line and column."""


def _tokenize(text):
    """Every '(' / ')' / atom token with its (line, column), from the match
    offsets of one scan per line.  parse_bracketed reads the tokens alone
    and calls this only to place an error."""
    return [(m.group(), line, m.start() + 1)
            for line, text_line in enumerate(text.split("\n"), start=1)
            for m in _TOKEN.finditer(text_line)]


def parse_bracketed(text):
    """Parse bracketed treebank text into a list of trees.

    Accepts the usual PTB-style label-less wrapper "( (S ...) )"; the
    wrapper node keeps an empty-string label.  The text is split into
    tokens by one regex scan; malformed text raises ParseError with the
    line and column of the offending token.
    """
    try:
        return _build_trees(_TOKEN.findall(text))
    except _Misplaced as exc:
        message, index, shift = exc.args
        _, line, column = _tokenize(text)[index]
        raise ParseError(message, line, column + shift) from None


def _build_trees(tokens):
    """The trees of a token list, read in one loop: each '(' with its
    label, and a whole leaf "(TAG word)" at once.  Open constituents live
    on an explicit stack, so nesting depth is not limited by the
    interpreter's recursion limit.  The loop checks what Tree's
    constructor would (an internal node has children, a leaf a word), so
    it builds nodes without calling it."""
    missing = "unbalanced parentheses: missing ')'"
    new = Tree.__new__
    trees = siblings = []   # the innermost open constituent's children
    stack = []              # (label, enclosing siblings) of each open one
    n = len(tokens)
    pos = 0
    while pos < n:
        tok = tokens[pos]
        if tok == ")" and stack:
            label, enclosing = stack.pop()
            node = new(Tree)
            node.label, node.children = label, tuple(siblings)
            node.word = node.tag = None
            enclosing.append(node)
            siblings = enclosing
            pos += 1
            continue
        if tok != "(":
            if stack:
                raise _Misplaced("unexpected token %r inside constituent %r"
                                 % (tok, stack[-1][0]), pos, 0)
            raise _Misplaced("expected '(' to open a tree, found %r" % tok,
                             pos, 0)
        if pos + 1 >= n:
            raise _Misplaced(missing, pos, 0)
        label = tokens[pos + 1]
        if label == ")":
            raise _Misplaced("empty constituent", pos + 1, 0)
        if label == "(":    # an unlabeled constituent
            stack.append(("", siblings))
            siblings = []
            pos += 1
            continue
        if pos + 2 >= n:
            raise _Misplaced(missing, pos + 1, 0)
        word = tokens[pos + 2]
        if word == ")":
            raise _Misplaced("constituent %r has no children" % label,
                             pos + 2, 0)
        if word == "(":
            stack.append((label, siblings))
            siblings = []
            pos += 2
            continue
        if pos + 3 >= n:
            raise _Misplaced(missing, pos + 2, 0)
        tok = tokens[pos + 3]
        if tok == "(":
            raise _Misplaced("leaf %r cannot have children" % word, pos + 3, 0)
        if tok != ")":
            raise _Misplaced("expected ')' after leaf word, found %r" % tok,
                             pos + 3, 0)
        leaf = new(Tree)
        leaf.label = leaf.tag = label
        leaf.children, leaf.word = (), word
        siblings.append(leaf)
        pos += 4
    if stack:
        raise _Misplaced(missing, n - 1, len(tokens[-1]))
    return trees


def render_bracketed(trees):
    """Render trees one per line, the inverse of parse_bracketed."""
    return "\n".join(t.render() for t in trees) + "\n"


def load_trees(path):
    with open(path, encoding="utf-8") as f:
        return parse_bracketed(f.read())


def save_trees(trees, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write(render_bracketed(trees))


# ---------------------------------------------------------------------------
# Pre-tagged sentence files: one sentence per line, word_tag tokens


def parse_tagged(text, line_indices=False):
    """Parse a sidecar tag file into sentences of (word, tag) pairs, one
    per non-blank line.  With ``line_indices``, return (sentences, the
    zero-based line index of each) instead.

    Lines end at "\n" only (a file read in text mode has had "\r\n" and
    "\r" turned into it); any other whitespace, "\x0c" or "\u2028" say,
    separates tokens.  Tokens are split on the last underscore, so words
    may contain underscores but tags may not.  A token without a
    non-empty word and tag raises ParseError with its line and column.
    """
    sentences, indices = [], []
    for index, line in enumerate(text.split("\n")):
        pairs = [token.rpartition("_") for token in line.split()]
        if not pairs:
            continue
        # a token without "_" partitions into ("", "", token)
        if not all(word and tag for word, _, tag in pairs):
            _malformed_token(line, index + 1)
        sentences.append([(word, tag) for word, _, tag in pairs])
        indices.append(index)
    return (sentences, indices) if line_indices else sentences


def _malformed_token(line, lineno):
    """Raise ParseError at the first malformed token of a tagged line."""
    for match in re.finditer(r"\S+", line):
        token = match.group()
        word, sep, tag = token.rpartition("_")
        problem = ("has no _tag suffix" if not sep else
                   "has an empty tag" if not tag else
                   "has an empty word" if not word else None)
        if problem:
            raise ParseError("token %r %s" % (token, problem),
                             lineno, match.start() + 1)


def load_tagged(path, line_indices=False):
    with open(path, encoding="utf-8") as f:
        return parse_tagged(f.read(), line_indices)


# ---------------------------------------------------------------------------
# Unary chains


def collapse_unary(t, separator=DEFAULT_SEPARATOR):
    """Merge chains of single-child internal nodes into one joined label.

    The chain S over VP over a leaf becomes a single "S+VP" node above the
    leaf; the POS tag link to the word itself is never collapsed.
    """
    def chain(node):
        """The labels of the unary chain from ``node`` down, and the node
        at its bottom."""
        labels = [node.label]
        while len(node.children) == 1 and not node.children[0].is_leaf():
            node = node.children[0]
            labels.append(node.label)
        return labels, node

    def combine(node, children):
        if node.is_leaf():
            return node
        return Tree(separator.join(chain(node)[0]), children)

    return _fold(t, lambda node: chain(node)[1].children, combine)


def expand_unary(t, separator=DEFAULT_SEPARATOR):
    """Split joined labels back into nested single-child nodes."""
    return _fold(t, lambda node: node.children,
                 lambda node, children: node if node.is_leaf() else
                 _wrap_labels(node.label, tuple(children), separator))


# ---------------------------------------------------------------------------
# Binarization


def binarize(t, inventory, direction="right"):
    """Binarize a unary-collapsed tree into a BinaryTree with label ids.

    Nodes introduced to split >2-child constituents carry the null id, as do
    width-1 leaf spans that have no single-word constituent above them.
    """
    if direction not in ("right", "left"):
        raise ValueError("direction must be 'right' or 'left'")
    if t.is_leaf():
        raise ValueError("cannot binarize a bare leaf")
    words = 0  # leaves are combined left to right

    def combine(node, subs):
        nonlocal words
        if node.is_leaf():
            words += 1
            return BinaryTree(inventory.null_id, (words - 1, words),
                              word=node.word, tag=node.tag)
        combined = _combine(subs, inventory.null_id, direction)
        if combined.label != inventory.null_id:
            # only happens for a single internal child, i.e. an uncollapsed
            # chain
            raise ValueError("tree is not unary-collapsed at %r" % node.label)
        combined.label = inventory.index(node.label)
        return combined

    root = _fold(t, lambda node: node.children, combine)
    assert words == len(t.leaves())
    return root


def _combine(subs, null_id, direction):
    if len(subs) == 1:
        return subs[0]
    if direction == "right":
        node = subs[-1]
        for sub in reversed(subs[:-1]):
            node = BinaryTree(null_id, (sub.span[0], node.span[1]),
                              left=sub, right=node)
    else:
        node = subs[0]
        for sub in subs[1:]:
            node = BinaryTree(null_id, (node.span[0], sub.span[1]),
                              left=node, right=sub)
    return node


def debinarize(b, inventory):
    """Invert binarize: splice out null nodes and re-expand collapsed labels."""
    if b.label == inventory.null_id:
        raise ValueError("binary tree root has the null label, nothing to emit")
    def combine(node, parts):
        # a node yields the list of n-ary trees that replace it
        if node.is_leaf():
            children = [Tree.leaf(node.word, node.tag)]
        else:
            children = parts[0] + parts[1]
        if node.label == inventory.null_id:
            return children
        return [_wrap_labels(inventory.name(node.label), children,
                             inventory.separator)]

    trees = _fold(b, lambda node: () if node.is_leaf()
                  else (node.left, node.right), combine)
    assert len(trees) == 1
    return trees[0]


def _wrap_labels(joined, children, separator):
    labels = joined.split(separator)
    node = Tree(labels[-1], children)
    for label in reversed(labels[:-1]):
        node = Tree(label, (node,))
    return node


def gold_spans(b):
    """All (i, j, label_id) triples of a binarized tree, null nodes included."""
    return {(node.span[0], node.span[1], node.label) for node in b.nodes()}
