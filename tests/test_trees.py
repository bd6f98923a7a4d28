import numpy as np
import pytest

import spanparser.trees as trees_module
from spanparser.evaluation import score
from spanparser.trees import (
    NULL_LABEL, ParseError, Tree, binarize, collapse_unary, debinarize,
    expand_unary, gold_spans, load_tagged, load_trees, parse_bracketed,
    parse_tagged, render_bracketed, save_trees,
)
from spanparser.vocab import LabelInventory

from support import random_ntree, reference_tokenize

EXAMPLE = "(S (NP (DT the) (NN cat)) (VP (VB sat)))"


def test_parse_and_render_roundtrip():
    trees = parse_bracketed(EXAMPLE)
    assert len(trees) == 1
    t = trees[0]
    assert t.label == "S"
    assert t.sentence() == [("the", "DT"), ("cat", "NN"), ("sat", "VB")]
    assert t.render() == EXAMPLE


def test_parse_multiple_trees_and_whitespace():
    text = "  (A (X a))\n\n(B (Y b) (Z c))  "
    trees = parse_bracketed(text)
    assert [t.label for t in trees] == ["A", "B"]
    assert render_bracketed(trees) == "(A (X a))\n(B (Y b) (Z c))\n"


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse_bracketed("(S (NP (DT the))")
    assert "unbalanced" in str(e.value)
    assert e.value.line == 1

    with pytest.raises(ParseError):
        parse_bracketed("(S)")
    with pytest.raises(ParseError):
        parse_bracketed("()")
    with pytest.raises(ParseError):
        parse_bracketed("(S (NP the cat extra))")
    with pytest.raises(ParseError) as e:
        parse_bracketed("(A (X a))\n(B (Y b)")
    assert e.value.line == 2


@pytest.mark.parametrize("text, message", [
    ("(A a) b", "expected '(' to open a tree, found 'b' (line 1, column 7)"),
    (")", "expected '(' to open a tree, found ')' (line 1, column 1)"),
    ("(A (X a)) )",
     "expected '(' to open a tree, found ')' (line 1, column 11)"),
    ("()", "empty constituent (line 1, column 2)"),
    ("(S", "unbalanced parentheses: missing ')' (line 1, column 2)"),
    ("(S (", "unbalanced parentheses: missing ')' (line 1, column 4)"),
    ("(S (NN", "unbalanced parentheses: missing ')' (line 1, column 5)"),
    ("(S (NP (DT the))",
     "unbalanced parentheses: missing ')' (line 1, column 17)"),
    ("((S (NN a))\n",
     "unbalanced parentheses: missing ')' (line 1, column 12)"),
    ("(S)", "constituent 'S' has no children (line 1, column 3)"),
    ("(S (NN dog (", "leaf 'dog' cannot have children (line 1, column 12)"),
    ("(S (NN dog cat))",
     "expected ')' after leaf word, found 'cat' (line 1, column 12)"),
    ("(S (NN dog)\n  cat)",
     "unexpected token 'cat' inside constituent 'S' (line 2, column 3)"),
])
def test_each_parse_error_names_its_token(text, message):
    with pytest.raises(ParseError) as e:
        parse_bracketed(text)
    assert str(e.value) == message


def test_tree_file_roundtrip(tmp_path):
    trees = parse_bracketed(EXAMPLE + "\n(TOP (X y))")
    path = tmp_path / "trees.txt"
    save_trees(trees, path)
    again = load_trees(path)
    assert again == trees


def test_parse_tagged_and_file(tmp_path):
    sents = parse_tagged("the_DT cat_NN\nsat_VB\n")
    assert sents == [[("the", "DT"), ("cat", "NN")], [("sat", "VB")]]
    # words may contain underscores; the tag is everything after the last one
    assert parse_tagged("a_b_NN") == [[("a_b", "NN")]]
    # blank lines hold no sentence but still count as lines
    assert parse_tagged("\nx_X\n  \ny_Y z_Z\n", line_indices=True) == (
        [[("x", "X")], [("y", "Y"), ("z", "Z")]], [1, 3])
    with pytest.raises(ValueError) as e:
        parse_tagged("the_DT cat\n")
    assert "line 1" in str(e.value)
    path = tmp_path / "s.txt"
    path.write_text("x_X y_Y\n")
    assert load_tagged(path) == [[("x", "X"), ("y", "Y")]]
    assert load_tagged(path, line_indices=True) == ([[("x", "X"), ("y", "Y")]],
                                                    [0])


def test_collapse_and_expand_unary():
    t = parse_bracketed("(S (VP (VB sat)))")[0]
    c = collapse_unary(t)
    assert c.label == "S+VP"
    assert len(c.children) == 1 and c.children[0].is_leaf()
    assert expand_unary(c) == t

    # tags are never absorbed into the chain
    t2 = parse_bracketed("(A (B (C (X x) (Y y))))")[0]
    c2 = collapse_unary(t2)
    assert c2.label == "A+B+C"
    assert expand_unary(c2) == t2


def test_collapse_idempotent_on_branching():
    t = parse_bracketed(EXAMPLE)[0]
    assert collapse_unary(t) == t


def test_binarize_shapes_and_null_intermediates():
    t = collapse_unary(parse_bracketed("(S (A a) (B b) (C c) (D d))")[0])
    inv = LabelInventory(["S"])
    b = binarize(t, inv)
    assert b.span == (0, 4)
    assert inv.name(b.label) == "S"
    # right binarization splits off the first child
    assert b.left.span == (0, 1)
    assert b.right.span == (1, 4)
    assert b.right.label == inv.null_id
    lb = binarize(t, inv, direction="left")
    assert lb.left.span == (0, 3)
    assert lb.left.label == inv.null_id

    with pytest.raises(ValueError):
        binarize(t, inv, direction="middle")
    unary = parse_bracketed("(S (VP (VB sat) (VB ran)))")[0]
    with pytest.raises(ValueError) as e:
        binarize(unary, LabelInventory(["S", "VP"]))
    assert "unary-collapsed" in str(e.value)


def test_binarize_debinarize_roundtrip_random():
    # debinarize both splices out null nodes and re-expands joined labels,
    # so the round trip recovers the original n-ary tree
    rng = np.random.default_rng(7)
    for _ in range(60):
        raw = random_ntree(rng)
        inv = LabelInventory.from_trees([raw])
        t = collapse_unary(raw)
        assert expand_unary(t) == raw
        for direction in ("right", "left"):
            b = binarize(t, inv, direction=direction)
            assert debinarize(b, inv) == raw


def test_debinarize_expands_joined_labels():
    raw = parse_bracketed("(S (VP (VB sat) (NP (NN mat))))")[0]
    inv = LabelInventory.from_trees([raw])
    b = binarize(collapse_unary(raw), inv)
    out = debinarize(b, inv)
    assert out == raw
    assert out.label == "S" and out.children[0].label == "VP"


def test_gold_spans_includes_null_intermediates():
    t = collapse_unary(parse_bracketed("(S (A a) (B b) (C c))")[0])
    inv = LabelInventory.from_trees([t])
    b = binarize(t, inv)
    spans = gold_spans(b)
    assert (0, 3, inv.index("S")) in spans
    assert (1, 3, inv.null_id) in spans
    # leaf spans appear too, with the null label when no constituent sits there
    assert {(0, 1, inv.null_id), (1, 2, inv.null_id)} <= spans
    assert len(spans) == 5

    single = collapse_unary(parse_bracketed("(S (NP (NN dog)) (VB ran))")[0])
    bs = binarize(single, LabelInventory.from_trees([single]))
    inv2 = LabelInventory.from_trees([single])
    assert (0, 1, inv2.index("NP")) in gold_spans(bs)


def test_leaf_node_invariants():
    with pytest.raises(ValueError):
        Tree("S", [])
    leaf = Tree.leaf("dog", "NN")
    assert leaf.is_leaf() and leaf.word == "dog" and leaf.tag == "NN"


def test_parse_tagged_errors_carry_line_and_column():
    for text, line, column in (("the_DT cat\n", 1, 8),
                               ("a_X\n  b_ c_Y\n", 2, 3),
                               ("x_X _Y\n", 1, 5)):
        with pytest.raises(ParseError) as e:
            parse_tagged(text)
        assert (e.value.line, e.value.column) == (line, column)


def test_parse_bracketed_handles_deep_nesting():
    depth = 3000
    text = "(S " * depth + "(NN w)" + ")" * depth
    (tree,) = parse_bracketed(text)
    # the walks over the read tree are not limited by recursion depth either
    assert tree.render() == text
    assert tree.leaves() == [Tree.leaf("w", "NN")]
    assert LabelInventory.from_trees([tree]).labels == [
        NULL_LABEL, "+".join(["S"] * depth)]
    result = score([tree], [tree])
    assert result.matched == result.gold == depth
    node = tree
    for _ in range(depth):
        assert node.label == "S" and len(node.children) == 1
        node = node.children[0]
    assert node.is_leaf() and (node.tag, node.word) == ("NN", "w")


def fuzzed_texts(alphabet="()ab_ \n"):
    """Random strings over ``alphabet`` and every prefix of a valid tree
    file and a valid tagged file."""
    rng = np.random.default_rng(21)
    valid_trees = render_bracketed([random_ntree(rng) for _ in range(3)])
    valid_tagged = "the_DT cat_NN\na_b_NN sat_VB\n"
    texts = []
    for _ in range(400):
        texts.append("".join(rng.choice(list(alphabet),
                                        size=int(rng.integers(0, 30)))))
    for valid in (valid_trees, valid_tagged):
        texts += [valid[:k] for k in range(len(valid) + 1)]
    return texts


def test_parsers_fail_only_with_parse_error_on_fuzzed_input():
    # random and truncated input either parses or raises ParseError with
    # a position; no other exception escapes
    for text in fuzzed_texts():
        for parse in (parse_bracketed, parse_tagged):
            try:
                parse(text)
            except ParseError as exc:
                assert exc.line >= 1 and exc.column >= 1


def test_the_tokenizer_matches_the_character_loop(monkeypatch):
    # the fuzzed texts, once more over an alphabet that adds whitespace
    # that is not a space and ends no line
    texts = fuzzed_texts() + fuzzed_texts("()ab_ \n\r\t\x0c\u00a0")
    texts += ["(S\r\n (A\ta)\x0c(B\u00a0b)\x85(C c)\u2028)\n",
              "(A a)\x0c\n\t(B b)\r)", "(A a)\n (B\t\x0c(C c)\r\n\n"]
    outcomes = []
    for text in texts:
        tokens = reference_tokenize(text)
        assert trees_module._tokenize(text) == tokens, repr(text)
        try:
            outcomes.append(parse_bracketed(text))
            continue
        except ParseError as exc:
            outcomes.append(str(exc))
            where = (exc.line, exc.column)
        # an error points at a token, or just past the last one
        tok, line, column = tokens[-1]
        assert where in {(line, column) for _, line, column in tokens} | {
            (line, column + len(tok))}, (repr(text), str(exc))
    # placing each error by the loop's tokens gives the same ParseErrors
    monkeypatch.setattr(trees_module, "_tokenize", reference_tokenize)
    for text, outcome in zip(texts, outcomes):
        try:
            assert parse_bracketed(text) == outcome
        except ParseError as exc:
            assert str(exc) == outcome
    assert any(isinstance(outcome, str) and "line 2," in outcome
               for outcome in outcomes)


def test_a_tagged_line_is_one_sentence():
    # "\x0c" and the other characters that str.splitlines breaks at, but
    # "\n" does not, separate tokens
    text = "a_DT b_NN\nc_DT\x0cd_NN\ne_DT f_NN\n"
    assert parse_tagged(text, line_indices=True) == (
        [[("a", "DT"), ("b", "NN")], [("c", "DT"), ("d", "NN")],
         [("e", "DT"), ("f", "NN")]], [0, 1, 2])
    for sep in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\u00a0\r\t":
        assert parse_tagged("x_X%sy_Y\nz_Z" % sep, line_indices=True) == (
            [[("x", "X"), ("y", "Y")], [("z", "Z")]], [0, 1]), repr(sep)
    with pytest.raises(ParseError) as e:
        parse_tagged("a_DT\u2028b_NN\nc_DT\x0cd\n")
    assert (e.value.line, e.value.column) == (2, 6)


def test_deep_branching_tree_collapses_binarizes_and_round_trips():
    from support import tiny_model
    depth = 3000
    text = "(S (A a) " * depth + "(A a)" + ")" * depth
    (tree,) = parse_bracketed(text)
    inventory = LabelInventory.from_trees([tree])
    assert inventory.labels == [NULL_LABEL, "S"]
    collapsed = collapse_unary(tree)
    assert collapsed == tree
    binary = binarize(collapsed, inventory)
    assert binary.span == (0, depth + 1)
    assert len(binary.nodes()) == 2 * (depth + 1) - 1
    assert debinarize(binary, inventory) == tree
    assert expand_unary(collapsed) == tree
    model = tiny_model([tree], num_layers=1)
    gold = model.gold_binary(tree)
    assert sorted(gold_spans(gold)) == sorted(gold_spans(binary))


def test_equality_and_hash_of_deep_chains():
    depth = 3000
    text = "(S " * depth + "(NN w)" + ")" * depth
    (a,) = parse_bracketed(text)
    (b,) = parse_bracketed(text)
    (c,) = parse_bracketed(text.replace("(NN w)", "(NN v)"))
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert not a == Tree("S", [Tree.leaf("w", "NN")])
    assert len({a, b, c}) == 2
