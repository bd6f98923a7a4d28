import pytest

from spanparser.trees import parse_bracketed
from spanparser.vocab import (
    PAD, START, STOP, UNK, LabelInventory, Vocabulary,
)

TREES = parse_bracketed(
    "(S (NP (DT the) (NN cat)) (VP (VB sat)))\n"
    "(S (NP (NN dog)) (VP (VB ran)))"
)


def test_vocabulary_specials_and_ids():
    v = Vocabulary.from_trees(TREES)
    assert v.words[:4] == [PAD, UNK, START, STOP]
    assert v.word_id(PAD) == 0 and v.word_id(UNK) == 1
    assert v.word_id(START) == 2 and v.word_id(STOP) == 3
    # deterministic: non-special entries are sorted
    assert v.words[4:] == sorted(v.words[4:])
    assert v.tags[4:] == sorted(v.tags[4:])
    assert v.chars[4:] == sorted(v.chars[4:])


def test_unknown_items_map_to_unk():
    v = Vocabulary.from_trees(TREES)
    assert v.word_id("zyzzyva") == 1
    assert v.char_id("Q") == 1
    assert v.tag_id("XYZ") == 1
    with pytest.raises(ValueError):
        v.tag_id(None)


def test_char_ids_cover_training_words():
    v = Vocabulary.from_trees(TREES)
    ids = v.char_ids("cat")
    assert len(ids) == 3
    assert all(i >= 4 for i in ids)


def test_vocabulary_dict_roundtrip():
    v = Vocabulary.from_trees(TREES)
    w = Vocabulary.from_dict(v.to_dict())
    assert w.words == v.words and w.tags == v.tags and w.chars == v.chars


def test_label_inventory_null_first_and_sorted():
    inv = LabelInventory.from_trees(TREES)
    assert inv.null_id == 0
    assert len(inv) == 1 + 3  # null, NP, S, VP
    assert inv.name(0) not in ("S", "NP", "VP")
    assert [inv.name(i) for i in range(1, 4)] == ["NP", "S", "VP"]
    assert inv.index("S") == 2
    with pytest.raises(KeyError):
        inv.index("QQ")


def test_label_inventory_collects_collapsed_chains():
    trees = parse_bracketed("(S (VP (VB go)))")
    inv = LabelInventory.from_trees(trees)
    # from_trees collapses unary chains itself, so the joined label exists
    assert "S+VP" in inv
    assert "S" not in inv


def test_label_inventory_rejects_separator_in_atomic_labels():
    trees = parse_bracketed("(A+B (X x) (Y y))")
    with pytest.raises(ValueError):
        LabelInventory.from_trees(trees)
    # the error names the tree; the separator is no setting of any command
    with pytest.raises(ValueError, match=r"^tree 2: label 'NP\+X' contains "
                       r"'\+', the separator that joins a unary chain's"):
        LabelInventory.from_trees(TREES + parse_bracketed(
            "(S (NP+X (NN dog)) (VP (VB ran)))"))


def test_label_inventory_dict_roundtrip():
    inv = LabelInventory.from_trees(TREES)
    again = LabelInventory.from_dict(inv.to_dict())
    assert len(again) == len(inv)
    assert again.index("VP") == inv.index("VP")
