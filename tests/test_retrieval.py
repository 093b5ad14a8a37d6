import math
import re
from collections import Counter

import numpy as np
import pytest

from hybridchat.retrieval import RepositoryIndex, build_index, retrieve

K1, B = 1.2, 0.75


def toks(s):
    return s.split()


def pairs(*contexts):
    return [(toks(c), toks(f"r{i}")) for i, c in enumerate(contexts)]


# -- independent oracle: scores straight from the formula on raw documents ----

def oracle_scores(contexts, query):
    docs = [Counter(c) for c in contexts]
    n = len(docs)
    lengths = [sum(d.values()) for d in docs]
    avgdl = sum(lengths) / n
    out = []
    for i, d in enumerate(docs):
        s = 0.0
        for term in query:
            tf = d.get(term, 0)
            if tf == 0:
                continue
            df = sum(1 for other in docs if term in other)
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            s += idf * tf * (K1 + 1.0) / (tf + K1 * (1.0 - B + B * lengths[i] / avgdl))
        out.append(s)
    return out


def oracle_topk(contexts, responses, query, k):
    """Full selection contract: positive scores, (-score, doc) order, dedup."""
    scores = oracle_scores(contexts, query)
    ranked = sorted((i for i in range(len(contexts)) if scores[i] > 0.0),
                    key=lambda i: (-scores[i], i))
    picked = []
    seen = set()
    for i in ranked:
        key = " ".join(responses[i])
        if key in seen:
            continue
        seen.add(key)
        picked.append((i, scores[i]))
        if len(picked) == k:
            break
    return picked


class TestBuildIndex:
    def test_single_pair_statistics(self):
        index = build_index([(toks("a b"), toks("r"))])
        assert index.n_docs == 1
        assert index.avg_doc_length == 2.0
        assert index.postings["a"] == [(0, 1)]
        assert index.postings["b"] == [(0, 1)]

    def test_shared_term_postings_in_doc_order(self):
        index = build_index(pairs("a b", "a c"))
        assert index.postings["a"] == [(0, 1), (1, 1)]

    def test_rebuild_is_identical(self):
        data = pairs("the cat", "a cat sat", "dogs bark")
        i1, i2 = build_index(data), build_index(data)
        assert i1.postings == i2.postings
        assert i1.doc_lengths == i2.doc_lengths
        assert i1.doc_store == i2.doc_store

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_index([])


class TestBm25Score:
    def make_worked_index(self):
        return build_index(pairs("cat sat", "cat cat sat", "dog"))

    def test_no_overlap_zero(self):
        index = build_index(pairs("cat sat"))
        assert index.bm25_score(["dog"], 0) == 0.0

    def test_worked_example_value(self):
        # idf = ln(1 + (3-2+0.5)/(2+0.5)) = ln 1.6; tf part = 2*2.2 / (2 + 1.2*(0.25 + 0.75*3/2))
        index = self.make_worked_index()
        expected = math.log(1.6) * (2 * 2.2) / (2 + 1.2 * (0.25 + 0.75 * 1.5))
        assert expected == pytest.approx(0.5666, abs=1e-4)
        assert index.bm25_score(["cat"], 1) == pytest.approx(expected, abs=1e-12)

    def test_worked_example_ranking(self):
        index = self.make_worked_index()
        scores = [index.bm25_score(["cat"], d) for d in range(3)]
        assert scores[1] > scores[0] > scores[2] == 0.0

    def test_padded_equal_length_keeps_tf_winner(self):
        contexts = [toks("cat sat p1"), toks("cat cat sat"), toks("dog q1 q2")]
        index = build_index([(c, toks(f"r{i}")) for i, c in enumerate(contexts)])
        got = [index.bm25_score(["cat"], d) for d in range(3)]
        want = oracle_scores(contexts, ["cat"])
        np.testing.assert_allclose(got, want, atol=1e-12)
        assert np.argmax(got) == 1

    def test_repeated_query_terms_add(self):
        index = self.make_worked_index()
        single = index.bm25_score(["cat"], 0)
        double = index.bm25_score(["cat", "cat"], 0)
        assert double == pytest.approx(2 * single, abs=1e-12)

    def test_invalid_doc_rejected(self):
        index = self.make_worked_index()
        with pytest.raises(ValueError):
            index.bm25_score(["cat"], 3)


class TestRetrieve:
    def test_self_match_ranks_first(self):
        data = pairs("the cat sat", "dogs bark loud", "pizza is great")
        index = build_index(data)
        got = retrieve(toks("the cat sat"), index, k=3)
        assert got[0].doc_id == 0
        assert got[0].rank == 1

    def test_no_overlap_empty(self):
        index = build_index(pairs("cat sat"))
        assert retrieve(toks("zebra"), index, k=9) == []

    def test_k2_matches_bruteforce(self):
        contexts = ["cat sat here", "cat cat sat", "a cat", "sat sat", "dog"]
        data = [(toks(c), toks(f"r{i}")) for i, c in enumerate(contexts)]
        index = build_index(data)
        got = retrieve(toks("cat sat"), index, k=2)
        want = oracle_topk([toks(c) for c in contexts], [d[1] for d in data], toks("cat sat"), 2)
        assert [(g.doc_id, g.score) for g in got] == [
            (i, pytest.approx(s, abs=1e-12)) for i, s in want
        ]

    def test_scores_nonincreasing_and_ranks_dense(self):
        index = build_index(pairs("a b c", "a b", "a", "b c", "c"))
        got = retrieve(toks("a b c"), index, k=9)
        assert all(got[i].score >= got[i + 1].score for i in range(len(got) - 1))
        assert [g.rank for g in got] == list(range(1, len(got) + 1))

    def test_duplicate_responses_deduplicated_with_backfill(self):
        data = [
            (toks("cat sat"), toks("hello there")),
            (toks("cat sat"), toks("hello there")),   # same response, same score
            (toks("cat here"), toks("other reply")),
        ]
        index = build_index(data)
        got = retrieve(toks("cat sat"), index, k=2)
        assert len(got) == 2
        assert [" ".join(g.response) for g in got] == ["hello there", "other reply"]

    def test_bad_k_rejected(self):
        index = build_index(pairs("a"))
        with pytest.raises(ValueError):
            retrieve(toks("a"), index, k=0)


def random_corpus(rng, max_docs=200, max_vocab=50):
    vocab = [f"w{i}" for i in range(rng.integers(5, max_vocab + 1))]
    n = int(rng.integers(2, max_docs + 1))
    contexts = []
    responses = []
    for i in range(n):
        length = int(rng.integers(1, 12))
        contexts.append([vocab[int(j)] for j in rng.integers(0, len(vocab), size=length)])
        responses.append([f"resp{i}", vocab[int(rng.integers(0, len(vocab)))]])
    return contexts, responses


class TestOracleEquivalence:
    def test_random_corpora_match_bruteforce(self):
        rng = np.random.default_rng(2024)
        for trial in range(20):
            contexts, responses = random_corpus(rng, max_docs=60, max_vocab=30)
            index = build_index(list(zip(contexts, responses)))
            qlen = int(rng.integers(1, 6))
            vocab = sorted({t for c in contexts for t in c})
            query = [vocab[int(j)] for j in rng.integers(0, len(vocab), size=qlen)]
            for k in (1, 5, 9):
                got = retrieve(query, index, k=k)
                want = oracle_topk(contexts, responses, query, k)
                assert [g.doc_id for g in got] == [i for i, _ in want], f"trial {trial} k={k}"
                np.testing.assert_allclose(
                    [g.score for g in got], [s for _, s in want], atol=1e-12
                )


def sort_everything_retrieve(context, index, k):
    """retrieve's contract by sorting every positively scored doc."""
    scores = index.score_all(context)
    ranked = sorted(((d, s) for d, s in scores.items() if s > 0.0),
                    key=lambda item: (-item[1], item[0]))
    picked = []
    seen = set()
    for doc_id, score in ranked:
        response = index.doc_store[doc_id][1]
        key = " ".join(response)
        if key in seen:
            continue
        seen.add(key)
        picked.append((doc_id, score, len(picked) + 1, response))
        if len(picked) == k:
            break
    return picked


def as_tuples(got):
    return [(g.doc_id, g.score, g.rank, g.response) for g in got]


class TestPartialRanking:
    """retrieve ranks only a window of the best docs; it must equal a full sort."""

    def test_shared_top_response_widens_window(self):
        # the 60 best docs share one reply, so the first windows dedupe to one result
        data = [(toks("q q q") + [f"f{i % 7}"] * (i % 4), toks("same reply")) for i in range(60)]
        data += [(toks("q") + [f"g{i}"] * (3 + i % 5), toks(f"reply {i}")) for i in range(150)]
        order = np.random.default_rng(3).permutation(len(data))
        index = build_index([data[i] for i in order])
        query = toks("q")
        ranked = sorted(index.score_all(query).items(), key=lambda item: (-item[1], item[0]))
        replies = [" ".join(index.doc_store[d][1]) for d, _ in ranked]
        assert set(replies[:60]) == {"same reply"} and "same reply" not in replies[60:]
        for k in (1, 3, 9, 40):
            got = retrieve(query, index, k=k)
            assert len(got) == k
            assert as_tuples(got) == sort_everything_retrieve(query, index, k)

    def test_ties_straddling_the_window_break_by_doc_id(self):
        # 2 docs above, then 60 docs tied at one score across every window edge.
        # Half the tied docs match "a", half "b" (same df, same length); the
        # "b" docs have the lower ids but reach score_all's dict last.
        data = [(toks("a b"), toks(f"top {i}")) for i in range(2)]
        data += [(toks("b z"), toks(f"tied b{i}")) for i in range(30)]
        data += [(toks("a z"), toks(f"tied a{i}")) for i in range(30)]
        data += [(toks("a z z z"), toks(f"low {i}")) for i in range(20)]
        data += [(toks("b z z z"), toks(f"low b{i}")) for i in range(20)]
        index = build_index(data)
        query = toks("a b")
        assert len(set(index.score_all(query).values())) == 3
        for k in (1, 3, 9, 40):
            got = retrieve(query, index, k=k)
            assert as_tuples(got) == sort_everything_retrieve(query, index, k)

    def test_random_duplicated_corpora(self):
        rng = np.random.default_rng(2025)
        for trial in range(40):
            n_docs = int(rng.integers(2, 300))
            vocab = [f"w{i}" for i in range(int(rng.integers(3, 30)))]
            n_replies = int(rng.integers(1, 10))
            data = []
            for i in range(n_docs):
                context = [vocab[int(j)] for j in rng.integers(0, len(vocab), int(rng.integers(1, 8)))]
                reply = f"r{int(rng.integers(0, n_replies))}" if rng.random() < 0.8 else f"u{i}"
                data.append((context, [reply]))
            index = build_index(data)
            query = [vocab[int(j)] for j in rng.integers(0, len(vocab), int(rng.integers(1, 5)))]
            for k in (1, 3, 9, 40):
                got = retrieve(query, index, k=k)
                assert as_tuples(got) == sort_everything_retrieve(query, index, k), (trial, k)
                assert all(type(g.score) is float and type(g.doc_id) is int for g in got)


class TestScoreLocality:
    def test_swap_of_unrelated_doc_leaves_scores_unchanged(self):
        # same N, same df for query terms, same doc lengths -> identical scores
        base = [toks("cat sat here"), toks("cat cat sat"), toks("x y z")]
        swapped = [toks("cat sat here"), toks("cat cat sat"), toks("u v w")]
        q = toks("cat sat")
        a = build_index([(c, toks(f"r{i}")) for i, c in enumerate(base)])
        b = build_index([(c, toks(f"r{i}")) for i, c in enumerate(swapped)])
        for d in (0, 1):
            assert a.bm25_score(q, d) == pytest.approx(b.bm25_score(q, d), abs=1e-12)

    def test_adding_fresh_doc_of_average_length_preserves_single_term_order(self):
        base = [toks("cat sat here"), toks("cat cat sat"), toks("dog dog here")]
        # avgdl = 3; new doc of 3 fresh terms keeps avgdl and df("cat") fixed
        extended = base + [toks("n1 n2 n3")]
        s_base = oracle_scores(base, ["cat"])
        s_ext = oracle_scores(extended, ["cat"])
        order_base = sorted(range(3), key=lambda i: (-s_base[i], i))
        order_ext = sorted(range(3), key=lambda i: (-s_ext[i], i))
        assert order_base == order_ext
        idx = build_index([(c, toks(f"r{i}")) for i, c in enumerate(extended)])
        got = [idx.bm25_score(["cat"], d) for d in range(4)]
        np.testing.assert_allclose(got, s_ext, atol=1e-12)


def small_index_bytes(tmp_path):
    """A saved two-document index with a non-ASCII term, as bytes."""
    full = tmp_path / "full.idx"
    build_index(pairs("the café sat", "a dog barked")).save(str(full))
    return full.read_bytes()


class TestIndexPersistence:
    def test_roundtrip_bit_exact(self, tmp_path):
        index = build_index(pairs("the cat sat", "a dog barked", "cats and dogs"))
        p1, p2 = tmp_path / "a.idx", tmp_path / "b.idx"
        index.save(str(p1))
        loaded = RepositoryIndex.load(str(p1))
        loaded.save(str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_index_retrieves_identically(self, tmp_path):
        data = pairs("the cat sat", "a cat here", "dogs bark")
        index = build_index(data)
        path = tmp_path / "x.idx"
        index.save(str(path))
        loaded = RepositoryIndex.load(str(path))
        q = toks("cat sat")
        got = retrieve(q, loaded, k=3)
        want = retrieve(q, index, k=3)
        assert [(g.doc_id, g.score, g.rank) for g in got] == [
            (w.doc_id, w.score, w.rank) for w in want
        ]

    def test_bad_file_rejected(self, tmp_path):
        p = tmp_path / "junk.idx"
        p.write_bytes(b"garbage!")
        with pytest.raises(ValueError):
            RepositoryIndex.load(str(p))

    def test_every_truncation_names_the_file(self, tmp_path):
        raw = small_index_bytes(tmp_path)
        cut = tmp_path / "cut.idx"
        for n in range(len(raw)):
            cut.write_bytes(raw[:n])
            with pytest.raises(ValueError, match=f"^{re.escape(str(cut))}: "):
                RepositoryIndex.load(str(cut))
        cut.write_bytes(raw + b"\x00")
        with pytest.raises(ValueError, match=f"^{re.escape(str(cut))}: .*trailing"):
            RepositoryIndex.load(str(cut))

    def test_every_byte_flip_loads_or_names_the_file(self, tmp_path):
        raw = small_index_bytes(tmp_path)
        bad = tmp_path / "bad.idx"
        for i in range(len(raw)):
            flipped = bytearray(raw)
            flipped[i] ^= 0xFF
            bad.write_bytes(bytes(flipped))
            try:
                RepositoryIndex.load(str(bad))
            except ValueError as exc:
                assert str(exc).startswith(f"{bad}: "), (i, str(exc))

    def test_invalid_posting_names_the_file(self, tmp_path):
        index = build_index(pairs("cat", "dog"))
        index.postings["cat"] = [(7, 1)]
        path = tmp_path / "bad.idx"
        index.save(str(path))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*invalid doc 7"):
            RepositoryIndex.load(str(path))
