import logging

import numpy as np
import pytest

from hybridchat.metrics import GENERATED, RETRIEVED
from hybridchat.nncore import Tensor, grad_check, load_checkpoint, no_grad
from hybridchat.ranking import (
    Candidate,
    CandidateSet,
    RankerConfig,
    RankerModel,
    RankerTrainConfig,
    SupervisionConfig,
    TrainingTriple,
    _cnn_graph,
    _interaction_graph,
    encode_triples,
    hinge_loss,
    make_distant_labels,
    make_training_triples,
    pad_ids,
    pairwise_accuracy,
    rerank,
    score_batch,
    train_ranker,
)
from hybridchat.pipeline import PipelineConfig
from hybridchat.synth import separability_data
from hybridchat.textcore import UNK_ID, Corpus, ConversationExample, Vocabulary


def ranker_config(vocab, emb, matrix, kernels, conv, pool, mlp, dropout):
    return RankerConfig(vocab, embedding_size=emb, matrix_size=matrix, conv_kernels=kernels,
                        conv_window=conv, pool_window=pool, conv_stages=1, mlp_hidden=mlp,
                        dropout=dropout)


def train_config(**kwargs):
    return RankerTrainConfig(**{"patience": 10, "margin": 1.0, "l2_coeff": 0.0, **kwargs})


def tiny_model(vocab=12, emb=4, matrix=4, kernels=2, conv=(2, 2), pool=(2, 2), seed=0,
               mlp=6, dropout=0.0):
    cfg = ranker_config(vocab, emb, matrix, kernels, conv, pool, mlp, dropout)
    return RankerModel(cfg, np.random.default_rng(seed))


def grid_of(model, ctx_ids, cand_ids):
    """Interaction grid of one padded context/candidate pair."""
    L = model.config.matrix_size
    with no_grad():
        m = _interaction_graph(model, pad_ids(ctx_ids, L)[None], pad_ids(cand_ids, L)[None])
    return m.data[0, 0]


def cnn_features(model, matrix):
    """CNN feature vector of one interaction grid."""
    with no_grad():
        return _cnn_graph(model, Tensor(np.asarray(matrix, dtype=np.float64)[None, None])).data[0]


def score_pair(model, ctx_ids, cand_ids):
    """score_batch of one padded context/candidate pair."""
    L = model.config.matrix_size
    with no_grad():
        s = score_batch(model, pad_ids(ctx_ids, L)[None], pad_ids(cand_ids, L)[None])
    return float(s.data[0])


class TestInteractionMatrix:
    def test_orthonormal_embeddings(self):
        model = tiny_model(emb=2)
        model.embedding.data[...] = 0.0
        model.embedding.data[4] = [1.0, 0.0]   # a
        model.embedding.data[5] = [0.0, 1.0]   # b
        m = grid_of(model, [4, 5], [5])
        assert m[0, 0] == 0.0 and m[1, 0] == 1.0
        assert np.all(m[2:] == 0.0) and np.all(m[:, 1:] == 0.0)

    def test_identical_sequences_unit_diagonal(self):
        model = tiny_model(emb=3)
        rng = np.random.default_rng(1)
        for i in range(4, 8):
            v = rng.normal(size=3)
            model.embedding.data[i] = v / np.linalg.norm(v)
        ids = [4, 5, 6, 7]
        m = grid_of(model, ids, ids)
        np.testing.assert_allclose(np.diag(m)[:4], 1.0, atol=1e-12)

    def test_zero_unk_embedding_zero_row_col(self):
        model = tiny_model()
        model.embedding.data[UNK_ID] = 0.0
        m = grid_of(model, [4, UNK_ID, 5], [UNK_ID, 6])
        assert np.all(m[1, :] == 0.0)
        assert np.all(m[:, 0] == 0.0)

    def test_transpose_symmetry(self):
        model = tiny_model(seed=3)
        a, b = [4, 5, 6], [7, 8]
        np.testing.assert_allclose(
            grid_of(model, a, b).T, grid_of(model, b, a), atol=1e-15
        )


class TestCnnForward:
    def test_identity_kernel_then_pool(self):
        model = tiny_model(matrix=2, kernels=1, conv=(1, 1), pool=(2, 2))
        model.conv_kernels[0].data[...] = 1.0
        model.conv_biases[0].data[...] = 0.0
        feats = cnn_features(model, np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_allclose(feats, [4.0], atol=1e-15)

    def test_zero_kernels_zero_features(self):
        model = tiny_model(matrix=4, kernels=3, conv=(2, 2), pool=(2, 2))
        model.conv_kernels[0].data[...] = 0.0
        model.conv_biases[0].data[...] = 0.0
        rng = np.random.default_rng(0)
        feats = cnn_features(model, rng.normal(size=(4, 4)))
        np.testing.assert_array_equal(feats, np.zeros_like(feats))

    def test_hand_evaluated_conv_map(self):
        model = tiny_model(matrix=3, kernels=1, conv=(2, 2), pool=(2, 2))
        kernel = np.array([[0.5, -1.0], [2.0, 0.25]])
        bias = 0.1
        model.conv_kernels[0].data[0, 0] = kernel
        model.conv_biases[0].data[...] = bias
        m = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
        conv_map = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                acc = bias
                for s in range(2):
                    for t in range(2):
                        acc += kernel[s, t] * m[i + s, j + t]
                conv_map[i, j] = max(acc, 0.0)
        feats = cnn_features(model, m)
        np.testing.assert_allclose(feats, [conv_map.max()], atol=1e-12)

    def test_dominated_values_do_not_matter(self):
        model = tiny_model(matrix=2, kernels=1, conv=(1, 1), pool=(2, 2), seed=5)
        model.conv_kernels[0].data[...] = 1.0
        model.conv_biases[0].data[...] = 0.0
        base = np.array([[1.0, 2.0], [3.0, 9.0]])
        tweaked = np.array([[0.5, 2.5], [1.0, 9.0]])
        np.testing.assert_array_equal(cnn_features(model, base), cnn_features(model, tweaked))

    def test_too_small_matrix_rejected_at_build(self):
        with pytest.raises(ValueError):
            tiny_model(matrix=5, conv=(6, 6), pool=(1, 1))
        with pytest.raises(ValueError):
            tiny_model(matrix=6, conv=(3, 3), pool=(6, 6))

    def test_wrong_shape_rejected(self):
        model = tiny_model(matrix=4)
        with pytest.raises(ValueError):
            cnn_features(model, np.zeros((1, 1)))       # smaller than the 2x2 kernel


class TestScore:
    def test_zero_model_constant_bias(self):
        model = tiny_model()
        model.set_zero()
        model.out.b.data[...] = 0.75
        assert score_pair(model, [4, 5], [6]) == pytest.approx(0.75, abs=1e-15)
        assert score_pair(model, [7], [8, 9, 10]) == pytest.approx(0.75, abs=1e-15)

    def test_stateless_per_pair(self):
        model = tiny_model(seed=7)
        a = score_pair(model, [4, 5], [6, 7])
        _ = score_pair(model, [4, 5], [8, 9])
        b = score_pair(model, [4, 5], [6, 7])
        assert a == b

    def test_batch_matches_single(self):
        model = tiny_model(seed=9)
        L = model.config.matrix_size
        ctx = np.stack([pad_ids([4, 5], L), pad_ids([6], L)])
        cand = np.stack([pad_ids([7, 8], L), pad_ids([9], L)])
        with no_grad():
            batch_scores = score_batch(model, ctx, cand).data
        assert batch_scores[0] == pytest.approx(score_pair(model, [4, 5], [7, 8]), abs=1e-12)
        assert batch_scores[1] == pytest.approx(score_pair(model, [6], [9]), abs=1e-12)


class TestHingeLoss:
    def test_zero_when_margin_met(self):
        pos = Tensor(np.array([2.0, 3.0]))
        neg = Tensor(np.array([0.5, 1.9]))
        assert float(hinge_loss(pos, neg, margin=1.0).data) == 0.0

    def test_worked_example(self):
        loss = hinge_loss(Tensor(np.array([0.2])), Tensor(np.array([0.5])), margin=1.0)
        assert float(loss.data) == pytest.approx(1.3, abs=1e-12)

    def test_l2_only_when_margins_met(self):
        model = tiny_model()
        pos = Tensor(np.array([5.0]))
        neg = Tensor(np.array([0.0]))
        lam = 0.01
        loss = hinge_loss(pos, neg, margin=1.0, l2_coeff=lam, params=model.params)
        want = lam * sum(float((p.data ** 2).sum()) for p in model.params.values())
        assert float(loss.data) == pytest.approx(want, rel=1e-12)

    def test_monotonicity(self):
        base = float(hinge_loss(Tensor(np.array([0.2])), Tensor(np.array([0.5])), 1.0).data)
        up_pos = float(hinge_loss(Tensor(np.array([0.3])), Tensor(np.array([0.5])), 1.0).data)
        up_neg = float(hinge_loss(Tensor(np.array([0.2])), Tensor(np.array([0.6])), 1.0).data)
        assert up_pos < base < up_neg

    def test_kink_subgradient_is_zero(self):
        from hybridchat.nncore import Parameter
        sp = Parameter(np.array([1.5]), "sp")
        sn = Parameter(np.array([0.5]), "sn")
        loss = hinge_loss(sp, sn, margin=1.0)   # margin exactly met
        loss.backward()
        assert sp.grad[0] == 0.0 and sn.grad[0] == 0.0


def make_pool(cands, context=("hello", "there")):
    return CandidateSet(list(context), cands, ground_truth=None)


def cand(tokens, provenance=RETRIEVED, rank=1):
    return Candidate(list(tokens), provenance, rank)


class TestDistantLabels:
    GT = "the spicy noodles are amazing here friend".split()

    def overlap_candidate(self, n_match, tag, provenance=RETRIEVED, rank=1):
        # same length as GT, exactly n_match shared unigrams, BP = 1
        toks = self.GT[:n_match] + [f"filler{tag}{i}" for i in range(len(self.GT) - n_match)]
        return Candidate(toks, provenance, rank)

    def test_identical_candidate_positive_under_all_signals(self):
        pool = make_pool([
            cand(self.GT, GENERATED, 0),
            self.overlap_candidate(2, "a", rank=1),
            self.overlap_candidate(1, "b", rank=2),
            self.overlap_candidate(0, "c", rank=3),
            self.overlap_candidate(0, "d", rank=4),
        ])
        for signal in ("bleu1", "bleu2", "rougel", "sentbleu"):
            sup = SupervisionConfig(signal=signal, k_prime=3)
            pos, neg = make_distant_labels(pool, self.GT, sup)
            assert any(p.tokens == self.GT for p in pos), signal

    def test_zero_overlap_tiebreak_by_provenance_then_rank(self):
        pool = make_pool([
            self.overlap_candidate(0, "r2", RETRIEVED, 2),
            self.overlap_candidate(0, "g", GENERATED, 0),
            self.overlap_candidate(0, "r1", RETRIEVED, 1),
            self.overlap_candidate(0, "r3", RETRIEVED, 3),
        ])
        pos, neg = make_distant_labels(pool, self.GT, SupervisionConfig(signal="bleu1", k_prime=2))
        assert pos[0].provenance == GENERATED
        assert pos[1].rank == 1
        assert {c.rank for c in neg} == {2, 3}

    def test_sorted_scores_with_tie_rule(self):
        # BLEU-1 signals 0.9, 0.5, 0.5, 0.1 over 10-token candidates
        gt = "w1 w2 w3 w4 w5 w6 w7 w8 w9 w10".split()
        mk = lambda n, tag, prov, rank: Candidate(
            gt[:n] + [f"x{tag}{i}" for i in range(10 - n)], prov, rank)
        pool = make_pool([
            mk(1, "d", RETRIEVED, 1),
            mk(5, "b", RETRIEVED, 3),
            mk(9, "a", GENERATED, 0),
            mk(5, "c", RETRIEVED, 2),
        ])
        from hybridchat.metrics import SIGNALS
        signals = sorted((SIGNALS["bleu1"](c.tokens, gt) for c in pool.candidates),
                         reverse=True)
        assert signals == pytest.approx([0.9, 0.5, 0.5, 0.1], abs=1e-12)
        pos, neg = make_distant_labels(pool, gt, SupervisionConfig(signal="bleu1", k_prime=3))
        assert pos[0].provenance == GENERATED          # 0.9
        assert pos[1].rank == 2 and pos[2].rank == 3   # tied 0.5 pair by rank
        assert neg[0].rank == 1                        # 0.1 loser

    def test_permutation_invariance_with_distinct_scores(self):
        gt = "w1 w2 w3 w4 w5 w6 w7 w8".split()
        cands = [
            Candidate(gt[:n] + [f"y{n}{i}" for i in range(8 - n)], RETRIEVED, r)
            for n, r in [(7, 1), (5, 2), (3, 3), (2, 4), (1, 5)]
        ]
        cfg = SupervisionConfig(signal="bleu1", k_prime=3)
        base_pos, _ = make_distant_labels(make_pool(cands), gt, cfg)
        rng = np.random.default_rng(0)
        for _ in range(5):
            shuffled = [cands[i] for i in rng.permutation(len(cands))]
            pos, _ = make_distant_labels(make_pool(shuffled), gt, cfg)
            assert {tuple(p.tokens) for p in pos} == {tuple(p.tokens) for p in base_pos}

    def test_pool_too_small_rejected(self):
        pool = make_pool([cand(["a"]), cand(["b"])])
        with pytest.raises(ValueError):
            make_distant_labels(pool, ["a"], SupervisionConfig(signal="bleu1", k_prime=2))


class TestTrainingTriples:
    def fixture(self, n_pos, n_neg):
        pos = [cand([f"p{i}"], RETRIEVED, i + 1) for i in range(n_pos)]
        neg = [cand([f"n{i}"], RETRIEVED, n_pos + i + 1) for i in range(n_neg)]
        return pos, neg

    def test_kprime_one_uses_ground_truth_only(self):
        pos, neg = self.fixture(1, 9)
        triples = make_training_triples(["c"], ["gold"], pos, neg, k_prime=1)
        assert len(triples) == 9
        assert all(t.positive == ["gold"] for t in triples)

    def test_kprime_three_cross_product(self):
        pos, neg = self.fixture(3, 7)
        triples = make_training_triples(["c"], ["gold"], pos, neg, k_prime=3)
        assert len(triples) == 21
        positives = {tuple(t.positive) for t in triples}
        assert positives == {("gold",), ("p0",), ("p1",)}

    def test_ground_truth_always_positive(self):
        for k in (1, 2, 3):
            pos, neg = self.fixture(3, 4)
            triples = make_training_triples(["c"], ["gold"], pos, neg, k_prime=k)
            assert {tuple(t.positive) for t in triples} >= {("gold",)}

    def test_no_negatives_skips_with_warning(self, caplog):
        pos, _ = self.fixture(2, 0)
        with caplog.at_level(logging.WARNING):
            triples = make_training_triples(["c"], ["gold"], pos, [], k_prime=2)
        assert triples == []
        assert any("no negative" in r.message for r in caplog.records)


class TestRerank:
    def make_vocab(self):
        corpus = Corpus([ConversationExample(
            "hello there pizza dumplings great spicy".split(),
            "try the pizza".split())])
        return Vocabulary.build(corpus, max_size=0)

    def test_single_candidate_chosen(self):
        model, vocab = tiny_model(vocab=20, seed=11), self.make_vocab()
        pool = make_pool([cand(["pizza"], GENERATED, 0)])
        result = rerank(model, vocab, pool)
        assert result.chosen.tokens == ["pizza"]

    def test_zero_model_tiebreak_prefers_generated(self):
        model, vocab = tiny_model(vocab=20), self.make_vocab()
        model.set_zero()
        pool = make_pool([
            cand(["pizza"], RETRIEVED, 1),
            cand(["dumplings"], GENERATED, 0),
            cand(["great"], RETRIEVED, 2),
        ])
        result = rerank(model, vocab, pool)
        assert result.chosen.provenance == GENERATED
        assert [c.provenance for c in result.ranked] == [GENERATED, RETRIEVED, RETRIEVED]
        assert [c.rank for c in result.ranked[1:]] == [1, 2]

    def test_order_matches_independent_scores(self):
        model, vocab = tiny_model(vocab=20, seed=13), self.make_vocab()
        pool = make_pool([
            cand(["pizza", "great"], RETRIEVED, 1),
            cand(["dumplings"], GENERATED, 0),
            cand(["spicy", "pizza"], RETRIEVED, 2),
        ])
        result = rerank(model, vocab, pool)
        from hybridchat.textcore import encode
        oracle = []
        for c in pool.candidates:
            s = score_pair(model, encode(pool.context, vocab, 30), encode(c.tokens, vocab, 30))
            oracle.append((s, c))
        oracle.sort(key=lambda item: (-item[0],) + item[1].sort_key())
        assert [c.tokens for c in result.ranked] == [c.tokens for _, c in oracle]
        np.testing.assert_allclose(result.scores, [s for s, _ in oracle], atol=1e-12)

    def test_affine_transform_of_scores_keeps_order(self):
        model, vocab = tiny_model(vocab=20, seed=13), self.make_vocab()
        pool = make_pool([
            cand(["pizza", "great"], RETRIEVED, 1),
            cand(["dumplings"], GENERATED, 0),
            cand(["spicy", "pizza"], RETRIEVED, 2),
        ])
        result = rerank(model, vocab, pool)
        transformed = [3.7 * s + 11.0 for s in result.scores]
        assert sorted(transformed, reverse=True) == transformed

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            rerank(tiny_model(vocab=20), self.make_vocab(), make_pool([]))

    def test_two_generated_rejected(self):
        pool = make_pool([cand(["a"], GENERATED, 0), cand(["b"], GENERATED, 0)])
        with pytest.raises(ValueError):
            rerank(tiny_model(vocab=20), self.make_vocab(), pool)


class TestHingeGradient:
    def test_ranker_loss_matches_finite_differences(self):
        # full-length rows of distinct tokens (no PAD zeros, no repeated
        # dot-product pairs) and O(1) parameter scale so no ReLU or pooling
        # decision sits within the finite-difference step of its kink
        model = tiny_model(vocab=24, emb=4, matrix=6, kernels=3, conv=(2, 2), pool=(2, 2),
                           mlp=8, seed=17)
        scale_rng = np.random.default_rng(99)
        for p in model.params.values():
            p.data[...] = scale_rng.normal(size=p.data.shape) * 0.5
        ctx = np.array([[4, 5, 6, 7, 8, 9], [10, 11, 12, 13, 14, 15]])
        pos = np.array([[16, 17, 18, 19, 20, 21], [4, 6, 8, 10, 12, 14]])
        neg = np.array([[22, 23, 5, 7, 9, 11], [16, 18, 20, 22, 13, 15]])

        def loss():
            sp = score_batch(model, ctx, pos)
            sn = score_batch(model, ctx, neg)
            return hinge_loss(sp, sn, margin=1.0, l2_coeff=1e-3, params=model.params)

        err = grad_check(loss, list(model.params.values()), np.random.default_rng(1),
                         n_samples=80)
        assert err < 1e-4


class TestTrainRanker:
    def build_vocab(self, tokens):
        corpus = Corpus([ConversationExample(list(tokens), ["ok"])])
        return Vocabulary.build(corpus, max_size=0)

    def test_separates_copy_from_disjoint(self):
        triples, tokens = separability_data(80, seed=3)
        vocab = self.build_vocab(tokens)
        cfg = ranker_config(len(vocab), 16, 12, 8, (3, 3), (3, 3), 32, 0.5)
        model = RankerModel(cfg, np.random.default_rng(5))
        tcfg = train_config(learning_rate=3e-3, batch_size=24, validate_every=25,
                            max_steps=400, seed=5, target_accuracy=0.97)
        held_out, _ = separability_data(60, seed=99)
        log = train_ranker(model, triples, held_out, vocab, tcfg)
        acc = pairwise_accuracy(model, encode_triples(held_out, vocab, 12))
        assert acc > 0.9, f"held-out accuracy {acc}"

    def test_large_l2_shrinks_weights(self):
        triples, tokens = separability_data(20, seed=7)
        vocab = self.build_vocab(tokens)

        def run(lam):
            cfg = ranker_config(len(vocab), 8, 8, 4, (2, 2), (2, 2), 8, 0.0)
            model = RankerModel(cfg, np.random.default_rng(11))
            tcfg = train_config(learning_rate=1e-3, batch_size=10, validate_every=50,
                                max_steps=50, l2_coeff=lam, seed=11)
            train_ranker(model, triples, triples, vocab, tcfg)
            return sum(float((p.data ** 2).sum()) for p in model.params.values())

        assert run(1e3) < run(0.0)

    def test_checkpoint_pairs_best_parameters_with_their_step(self, tmp_path):
        # learning rate 0: validation never improves after the first check
        triples, tokens = separability_data(12, seed=7)
        vocab = self.build_vocab(tokens)
        model = tiny_model(vocab=len(vocab), seed=3)
        tcfg = train_config(learning_rate=0.0, batch_size=4, validate_every=2,
                            max_steps=6, seed=3)
        path = str(tmp_path / "rank.ckpt")
        log = train_ranker(model, triples, triples, vocab, tcfg, vocab_hash="vh",
                           ckpt_path=path)
        assert (log.best_step, log.steps_run) == (2, 6)
        blob = load_checkpoint(path)
        assert blob["optimizer_state"]["t"] == log.best_step
        for name, p in model.params.items():
            np.testing.assert_array_equal(blob["params"][name], p.data)

    def test_bad_margin_and_l2_rejected(self):
        triples, tokens = separability_data(4, seed=7)
        vocab = self.build_vocab(tokens)
        model = tiny_model(vocab=len(vocab))
        for bad in ({"margin": 0.0}, {"l2_coeff": -1e-3}):
            tcfg = train_config(learning_rate=1e-3, batch_size=2, validate_every=1,
                                max_steps=1, **bad)
            with pytest.raises(ValueError, match="margin|l2"):
                train_ranker(model, triples, triples, vocab, tcfg)

    def test_no_triples_rejected(self):
        vocab = self.build_vocab(["a"])
        model = tiny_model(vocab=len(vocab))
        with pytest.raises(ValueError):
            train_ranker(model, [], [], vocab, PipelineConfig().ranker_train_config(0))


class TestRankerCheckpoint:
    def test_roundtrip(self, tmp_path):
        model = tiny_model(seed=21)
        path = str(tmp_path / "ranker.ckpt")
        model.save(path, vocab_hash="vh")
        loaded = RankerModel.load(path, expected_vocab_hash="vh")
        for name, p in model.params.items():
            np.testing.assert_array_equal(p.data, loaded.params[name].data)
        assert loaded.config == model.config

    def test_kind_mismatch_rejected(self, tmp_path):
        from hybridchat.generation import GeneratorModel
        gen = GeneratorModel(PipelineConfig(gen_embedding_size=4, gen_hidden_size=4)
                             .generator_config(8), np.random.default_rng(0))
        path = str(tmp_path / "gen.ckpt")
        gen.save(path, vocab_hash="vh")
        with pytest.raises(ValueError, match="generator"):
            RankerModel.load(path)

