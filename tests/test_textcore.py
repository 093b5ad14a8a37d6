import json

import numpy as np
import pytest

from hybridchat.textcore import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    RESERVED_TOKENS,
    UNK_ID,
    ConversationExample,
    Corpus,
    Vocabulary,
    decode,
    encode,
    load_corpus,
    save_corpus,
    tokenize,
)


def make_corpus(lines):
    return Corpus([ConversationExample(tokenize(c), tokenize(r)) for c, r in lines])


class TestTokenize:
    def test_punctuation_split(self):
        assert tokenize("Going to Din Tai Fung!") == ["going", "to", "din", "tai", "fung", "!"]

    def test_empty(self):
        assert tokenize("") == []

    def test_casefold_and_whitespace_collapse(self):
        assert tokenize("A  a") == ["a", "a"]

    def test_apostrophes_are_split(self):
        assert tokenize("don't") == ["don", "'", "t"]

    def test_idempotent_on_own_output(self):
        rng = np.random.default_rng(7)
        alphabet = list("abc !?.,;'xyz0")
        for _ in range(200):
            s = "".join(rng.choice(alphabet, size=rng.integers(0, 40)))
            toks = tokenize(s)
            assert tokenize(" ".join(toks)) == toks


class TestVocabulary:
    def test_frequency_order(self):
        vocab = Vocabulary.build(make_corpus([("a b", "a")]), max_size=10, min_count=1)
        assert "a" in vocab and "b" in vocab
        assert vocab.id_of("a") < vocab.id_of("b")

    def test_min_count_threshold(self):
        vocab = Vocabulary.build(make_corpus([("a b", "a b")]), max_size=0, min_count=3)
        assert len(vocab) == 4  # reserved only

    def test_max_size_keeps_frequency_then_lex_winner(self):
        # counts: x=2, y=2 -> tie broken lexicographically, x wins
        vocab = Vocabulary.build(make_corpus([("x x y y", "x y")]), max_size=1, min_count=3)
        assert len(vocab) == 5
        assert vocab.id_of("x") == 4
        assert vocab.id_of("y") == UNK_ID

    def test_reserved_ids_fixed(self):
        vocab = Vocabulary.build(make_corpus([("a", "b")]), max_size=0)
        assert vocab.id_to_token[:4] == list(RESERVED_TOKENS)
        assert (PAD_ID, UNK_ID, BOS_ID, EOS_ID) == (0, 1, 2, 3)

    def test_dense_ids_and_roundtrip(self):
        vocab = Vocabulary.build(make_corpus([("c a b", "b c c")]), max_size=0)
        assert sorted(vocab.token_to_id.values()) == list(range(len(vocab)))
        for tok in ("a", "b", "c"):
            assert vocab.token_of(vocab.id_of(tok)) == tok

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary.build(Corpus([]), max_size=0)

    def test_deterministic(self):
        lines = [("the cat sat", "on the mat"), ("a cat", "a hat")]
        v1 = Vocabulary.build(make_corpus(lines), max_size=0)
        v2 = Vocabulary.build(make_corpus(lines), max_size=0)
        assert v1.id_to_token == v2.id_to_token

    def test_save_load_roundtrip(self, tmp_path):
        vocab = Vocabulary.build(make_corpus([("a b c", "d e")]), max_size=0)
        path = tmp_path / "vocab.txt"
        vocab.save(str(path))
        loaded = Vocabulary.load(str(path))
        assert loaded.id_to_token == vocab.id_to_token
        assert loaded.sha256() == vocab.sha256()


class TestEncode:
    @pytest.fixture
    def vocab(self):
        return Vocabulary.build(make_corpus([("a b c", "d")]), max_size=0)

    def test_identity_lookup(self, vocab):
        assert encode(["a"], vocab, 30) == [vocab.id_of("a")]

    def test_unk(self, vocab):
        assert encode(["zzz-unseen"], vocab, 30) == [UNK_ID]

    def test_clipping(self, vocab):
        ids = encode(["a"] * 40, vocab, max_len=30)
        assert len(ids) == 30

    def test_eos_appended_after_clipping(self, vocab):
        ids = encode(["a"] * 40, vocab, max_len=30, add_eos=True)
        assert len(ids) == 31 and ids[-1] == EOS_ID

    def test_roundtrip_in_vocab(self, vocab):
        toks = ["a", "c", "b"]
        assert decode(encode(toks, vocab, 30), vocab) == toks


class TestLoadCorpus:
    def write(self, tmp_path, lines):
        p = tmp_path / "corpus.jsonl"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(p)

    def test_basic_line(self, tmp_path):
        path = self.write(tmp_path, [json.dumps({"context": "hi", "response": "hello", "facts": []})])
        corpus = load_corpus(path)
        assert len(corpus) == 1
        assert corpus.examples[0].context == ["hi"]
        assert corpus.examples[0].facts == []

    def test_missing_field_names_line(self, tmp_path):
        path = self.write(tmp_path, [json.dumps({"context": "hi", "facts": []})])
        with pytest.raises(ValueError, match=":1"):
            load_corpus(path)

    def test_malformed_json_names_line(self, tmp_path):
        good = json.dumps({"context": "a", "response": "b", "facts": []})
        path = self.write(tmp_path, [good, "{not json"])
        with pytest.raises(ValueError, match=":2"):
            load_corpus(path)

    def test_order_preserved(self, tmp_path):
        lines = [
            json.dumps({"context": f"c{i}", "response": f"r{i}", "facts": []}) for i in range(3)
        ]
        corpus = load_corpus(self.write(tmp_path, lines))
        assert [ex.context for ex in corpus] == [["c0"], ["c1"], ["c2"]]

    def test_facts_tokenized(self, tmp_path):
        path = self.write(
            tmp_path,
            [json.dumps({"context": "a", "response": "b", "facts": ["Nice pizza!", "hot oven"]})],
        )
        corpus = load_corpus(path)
        assert corpus.examples[0].facts == [["nice", "pizza", "!"], ["hot", "oven"]]

    def test_save_load_roundtrip(self, tmp_path):
        path = self.write(
            tmp_path,
            [json.dumps({"context": "a b", "response": "c", "facts": ["d e"]})],
        )
        corpus = load_corpus(path)
        out = tmp_path / "copy.jsonl"
        save_corpus(corpus, str(out))
        again = load_corpus(str(out))
        assert again.examples[0].context == corpus.examples[0].context
        assert again.examples[0].facts == corpus.examples[0].facts
