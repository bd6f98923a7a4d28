import numpy as np
import pytest

from spanparser.autodiff import Tensor, backward, mul_const, sum_all
from spanparser.lexical import (
    CharConcat, CharLSTM, LexicalConfig, LexicalModel, read_vector_file,
    write_vector_file,
)
from spanparser.optim import ParameterStore
from spanparser.trees import parse_bracketed
from spanparser.vocab import START, STOP, Vocabulary

TREES = parse_bracketed(
    "(S (NP (DT the) (NN telescope)) (VP (VB saw) (NP (NN cat))))"
)
VOCAB = Vocabulary.from_trees(TREES)
SENT = TREES[0].sentence()
# a pack: sentences of other lengths, sharing words, one with unknown words
PACK = [SENT, [("cat", "NN")], [("saw", "VB"), ("the", "DT"), ("dog", "NN"),
                                ("telescope", "NN")]]
# every mode at the default slot of 16: (8 + 8) * 1 for char-concat
MODES = {
    "tags": {},
    "char-lstm": {"char_embedding_dim": 4, "char_lstm_hidden": 6},
    "char-concat": {"char_embedding_dim": 1},
    "external": {"external_dim": 5},
}


def make(mode, slot=16, **kw):
    cfg = LexicalConfig(mode=mode, **kw)
    store = ParameterStore()
    model = LexicalModel(store, VOCAB, cfg, slot)
    store.allocate()
    return model, store, cfg


def test_config_validation():
    with pytest.raises(ValueError):
        LexicalConfig(mode="wordpiece").validate()
    with pytest.raises(ValueError):
        LexicalConfig(mode="external").validate()
    with pytest.raises(ValueError):
        LexicalConfig(word_dropout=1.5).validate()
    assert LexicalConfig(mode="char-lstm").resolved_char_dim() == 64
    assert LexicalConfig(mode="char-concat").resolved_char_dim() == 32
    assert LexicalConfig(char_embedding_dim=7).resolved_char_dim() == 7


@pytest.mark.parametrize("name, bad", [
    ("char_lstm_hidden", 0), ("char_embedding_dim", -1),
    ("prefix_length", -1), ("suffix_length", -2),
])
def test_bad_sizes_are_rejected(name, bad):
    with pytest.raises(ValueError, match=name):
        LexicalConfig(**{name: bad}).validate()


def externals_for(sentences, dim=5, seed=1):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((len(s), dim)) for s in sentences]


def test_tags_mode_sums_word_and_tag_rows():
    model, store, _ = make("tags")
    out = model.content_vectors([SENT])
    assert out.shape == (len(SENT) + 2, 16)
    words = [START] + [w for w, _ in SENT] + [STOP]
    tags = [START] + [t for _, t in SENT] + [STOP]
    expect = (store["lexical.word_emb"].data[[VOCAB.word_id(w) for w in words]]
              + store["lexical.tag_emb"].data[[VOCAB.tag_id(t) for t in tags]])
    assert np.allclose(out.data, expect)


def test_char_concat_layout_prefix_right_padded_suffix_left_padded():
    model, _, cfg = make("char-concat", slot=16 * 2, char_embedding_dim=2)
    cc = model.chars
    pos = cc.positions("cat")
    c, a, t = (VOCAB.char_id(ch) for ch in "cat")
    pad = VOCAB.PAD_ID
    assert list(pos[:8]) == [c, a, t] + [pad] * 5
    assert list(pos[8:]) == [pad] * 5 + [c, a, t]

    long_pos = cc.positions("abcdefghij")
    ids = [VOCAB.char_id(ch) for ch in "abcdefghij"]
    assert list(long_pos[:8]) == ids[:8]
    assert list(long_pos[8:]) == ids[-8:]

    # boundary words are single pseudo-characters, not spelled out
    start_pos = cc.positions(START)
    assert list(start_pos[:8]) == [VOCAB.char_id(START)] + [pad] * 7


def test_char_concat_prefix_suffix_can_overlap_for_short_words():
    model, _, _ = make("char-concat", slot=32, char_embedding_dim=2)
    pos = model.chars.positions("ab")
    a, b = VOCAB.char_id("a"), VOCAB.char_id("b")
    assert list(pos[:2]) == [a, b]
    assert list(pos[-2:]) == [a, b]


def test_char_concat_slot_width_must_match():
    with pytest.raises(ValueError) as e:
        make("char-concat", slot=100, char_embedding_dim=2)
    assert "(8 + 8) * 2 = 32" in str(e.value)


def test_char_concat_forward_is_embedding_concatenation():
    model, store, _ = make("char-concat", slot=32, char_embedding_dim=2)
    out = model.content_vectors([SENT])
    emb = store["lexical.char_emb"].data
    row = out.data[1 + 0] - store["lexical.word_emb"].data[VOCAB.word_id("the")]
    pos = model.chars.positions("the")
    assert np.allclose(row, emb[pos].ravel())


def test_words_differing_only_in_middle_get_distinct_features():
    model, _, _ = make("char-concat", slot=32, char_embedding_dim=2,
                       use_word_embeddings=False)
    # 17 letters: the 9th letter falls outside both the prefix and the suffix
    a = model.chars.positions("aaaaaaaa" + "e" + "tttttttt")
    b = model.chars.positions("aaaaaaaa" + "o" + "tttttttt")
    # middles are invisible to char-concat
    assert np.array_equal(a, b)
    lstm_model, _, _ = make("char-lstm", char_embedding_dim=4,
                            char_lstm_hidden=6, use_word_embeddings=False)
    va = lstm_model.chars.forward(["cat"], False, None).data
    vb = lstm_model.chars.forward(["cot"], False, None).data
    assert not np.allclose(va, vb)


def test_char_lstm_batching_matches_single_word_runs():
    # the per-step mask must make padded batch runs equal word-by-word runs
    model, _, _ = make("char-lstm", char_embedding_dim=4, char_lstm_hidden=6,
                       use_word_embeddings=False)
    lstm = model.chars
    words = ["a", "telescope", "cat", START, "the"]
    batch = lstm.forward(words, False, None).data
    for k, w in enumerate(words):
        single = lstm.forward([w], False, None).data
        assert np.allclose(batch[k], single[0], atol=1e-12)


def test_char_lstm_final_state_ignores_padding_steps():
    model, _, _ = make("char-lstm", char_embedding_dim=4, char_lstm_hidden=6,
                       use_word_embeddings=False)
    lstm = model.chars
    # same word padded to different lengths by different batch companions
    a = lstm.forward(["cat", "telescope"], False, None).data[0]
    b = lstm.forward(["cat", "a"], False, None).data[0]
    assert np.allclose(a, b, atol=1e-12)


def test_char_lstm_gradients_flow_to_all_weights():
    model, store, _ = make("char-lstm", char_embedding_dim=4,
                           char_lstm_hidden=6, use_word_embeddings=False)
    out = model.content_vectors([SENT])
    backward(sum_all(out))
    for name in ("lexical.char_emb", "lexical.char_lstm.fwd.w_x",
                 "lexical.char_lstm.bwd.w_h", "lexical.char_lstm.fwd.b",
                 "lexical.char_lstm.proj"):
        g = store[name].grad
        assert g is not None and np.abs(g).sum() > 0.0


def test_word_embeddings_can_augment_char_modes():
    with_words, store_w, _ = make("char-lstm", char_embedding_dim=4,
                                  char_lstm_hidden=6)
    assert "lexical.word_emb" in store_w
    without, store_wo, _ = make("char-lstm", char_embedding_dim=4,
                                char_lstm_hidden=6, use_word_embeddings=False)
    assert "lexical.word_emb" not in store_wo
    assert "lexical.tag_emb" not in store_w


def test_external_mode_projects_and_learns_boundaries():
    model, store, cfg = make("external", external_dim=5)
    ext = np.random.default_rng(1).standard_normal((len(SENT), 5))
    out = model.content_vectors([SENT], externals=[ext])
    assert out.shape == (len(SENT) + 2, 16)
    proj = store["lexical.external_proj"].data
    bounds = store["lexical.external_boundaries"].data
    assert np.allclose(out.data[1:-1], ext @ proj)
    assert np.allclose(out.data[0], bounds[0])
    assert np.allclose(out.data[-1], bounds[1])

    with pytest.raises(ValueError):
        model.content_vectors([SENT])
    with pytest.raises(ValueError):
        model.content_vectors([SENT, SENT], externals=[ext, None])
    with pytest.raises(ValueError, match="sentence 1"):
        model.content_vectors([SENT, SENT], externals=[ext, ext[:, :3]])


@pytest.mark.parametrize("mode", sorted(MODES))
def test_pack_rows_are_each_sentences_own_rows(mode):
    model, _, _ = make(mode, **MODES[mode])
    slot = model.slot_dim
    externals = externals_for(PACK) if mode == "external" else None
    pack = model.content_vectors(PACK, externals=externals).data
    assert pack.shape == (sum(len(s) + 2 for s in PACK), slot)
    start = 0
    for k, sentence in enumerate(PACK):
        own = model.content_vectors(
            [sentence], externals=externals and [externals[k]]).data
        assert np.array_equal(pack[start:start + len(own)], own)
        start += len(own)


@pytest.mark.parametrize("mode", ["tags", "char-concat"])
def test_packed_word_table_gradient_is_the_sum_of_sentence_gradients(mode):
    model, _, _ = make(mode, **MODES[mode])
    slot = model.slot_dim
    table = model.word_emb.tensor
    rng = np.random.default_rng(4)
    # SENT's words come back in the third sentence, and every sentence
    # has the start and stop rows
    weights = [rng.standard_normal((len(s) + 2, slot)) for s in PACK]
    backward(sum_all(mul_const(model.content_vectors(PACK),
                               np.concatenate(weights))))
    packed = table.grad.copy()
    summed = np.zeros(table.shape)
    for sentence, w in zip(PACK, weights):
        table.grad = None
        backward(sum_all(mul_const(model.content_vectors([sentence]), w)))
        summed += table.grad
    assert np.allclose(packed, summed, rtol=0, atol=1e-14)
    assert not np.array_equal(packed, 0.0)


def test_word_dropout_zeroes_whole_token_rows():
    model, _, _ = make("tags", word_dropout=0.5, tag_dropout=0.0)
    rng = np.random.default_rng(2)
    sent = [("the", "DT")] * 200
    out = model.content_vectors([sent], train=True, rng=rng).data
    base = model.content_vectors([sent], train=False).data
    word = model.word_emb.data[VOCAB.word_id("the")]
    # each row either lost its word part or kept it doubled (inverted scaling)
    dropped = kept = 0
    for k in range(1, 201):
        if np.allclose(out[k], base[k] - word):
            dropped += 1
        elif np.allclose(out[k], base[k] + word):
            kept += 1
    assert dropped + kept == 200
    assert 60 < dropped < 140


def test_vector_file_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    sents = [rng.standard_normal((4, 6)), rng.standard_normal((1, 6))]
    path = tmp_path / "vecs.txt"
    write_vector_file(path, sents)
    loaded, dim = read_vector_file(path)
    assert dim == 6 and len(loaded) == 2
    for a, b in zip(loaded, sents):
        assert np.array_equal(a, b)  # %r round-trips float64 exactly


def test_vector_file_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 3\n1\n0.0 1.0 2.0\n1\n0.0 1.0\n")
    with pytest.raises(ValueError) as e:
        read_vector_file(path)
    assert "expected 3" in str(e.value)
    path.write_text("1 3\n1\n")
    with pytest.raises(ValueError):
        read_vector_file(path)
    with pytest.raises(ValueError):
        write_vector_file(tmp_path / "x.txt", [])


def test_zero_width_vectors_are_not_written(tmp_path):
    # each row would be an empty line, which reading skips as blank
    path = tmp_path / "empty.txt"
    with pytest.raises(ValueError) as e:
        write_vector_file(path, [np.zeros((2, 0)), np.zeros((1, 0))])
    assert str(path) in str(e.value)
    assert not path.exists()
    # a vector that is not a matrix, and a later sentence of another width,
    # are named before any line is written
    for sentences, bad in (([np.zeros(3)], 0),
                           ([np.zeros((1, 3)), np.zeros((1, 2))], 1)):
        with pytest.raises(ValueError) as e:
            write_vector_file(path, sentences)
        assert str(path) in str(e.value)
        assert "sentence %d " % bad in str(e.value)
        assert not path.exists()


@pytest.mark.parametrize("text, line", [
    ("2 x\n", 1),                          # a non-integer header
    ("1 2\n1 0\n0.0 1.0\n", 2),            # a count line with two tokens
    ("1 2\n1\n0.0 one\n", 3),              # a non-numeric value
    ("1 -2\n1\n\n", 1),                    # a negative dimension
    ("\n2 0\n1\n\n1\n\n", 2),              # a dimension of 0
    ("1 2\n2\n0.0 1.0\n0.5 nan\n", 4),     # non-finite values, which
    ("1 2\n1\n\ninf 1.0\n", 4),              # would surface only as a
    ("1 2\n1\n-inf 1.0\n", 3),               # non-finite chart or loss
], ids=["header", "count", "value", "negative-dim", "zero-dim", "nan", "inf",
        "minus-inf"])
def test_malformed_vector_file_names_the_path_and_line(tmp_path, text, line):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as e:
        read_vector_file(path)
    assert "%s: line %d:" % (path, line) in str(e.value)
