"""Acceptance suite: one test per primary exit criterion.

Each test enforces its stated tolerance and time budget and prints one
pass line (visible with `pytest -s`).  Criteria cover gradient
correctness, retrieval/metric/beam oracles, optimization convergence,
distant supervision, end-to-end determinism, and artifact round-trips.
"""

import dataclasses
import time

import numpy as np
import pytest

from hybridchat.generation import (
    DecodingSession,
    GeneratorModel,
    beam_search,
    make_batch,
    nll_loss,
    perplexity,
    train_generator,
)
from hybridchat.metrics import SIGNALS, corpus_bleu, distinct_n, rouge_l
from hybridchat.nncore import Adam, grad_check
from hybridchat.pipeline import (
    DESK_OVERRIDES,
    PipelineConfig,
    evaluate_corpus,
    prepare_artifacts,
    run_ablation,
    run_pipeline,
    encode_corpus,
)
from hybridchat.ranking import (
    Candidate,
    CandidateSet,
    RankerModel,
    SupervisionConfig,
    encode_triples,
    hinge_loss,
    make_distant_labels,
    make_training_triples,
    pairwise_accuracy,
    score_batch,
    train_ranker,
)
from hybridchat.retrieval import RepositoryIndex, build_index, retrieve
from hybridchat.synth import separability_data, synthetic_corpus
from hybridchat.textcore import EOS_ID, Corpus, ConversationExample, Vocabulary

from .test_generation import enumerate_hypotheses, gen_config
from .test_pipeline import write_env
from .test_retrieval import oracle_topk, random_corpus


DESK = PipelineConfig.from_sections(DESK_OVERRIDES)


def _report(name: str) -> None:
    print(f"[ACCEPTANCE] {name}: PASS")


class TestCriterionGradientCorrectness:
    """Analytic vs central finite-difference gradients, >=200 coords, <1e-4, <60 s."""

    def test_generator_nll_and_ranker_hinge_gradients(self):
        t0 = time.time()
        rng = np.random.default_rng(4242)

        gen = GeneratorModel(gen_config(40, 64, 64), np.random.default_rng(7))
        batch = make_batch([
            ([4, 9, 17, 25], [[6, 30], [12]], [8, 21, 5, EOS_ID]),
            ([11, 35, 6], [[22, 7]], [30, 14, EOS_ID]),
        ])

        def gen_loss():
            out, _ = nll_loss(gen, batch)
            return out

        gen_err = grad_check(gen_loss, list(gen.params.values()), rng, n_samples=200)
        assert gen_err < 1e-4, f"generator NLL gradient error {gen_err}"

        ranker = RankerModel(DESK.ranker_config(64), np.random.default_rng(9))
        scale_rng = np.random.default_rng(11)
        for p in ranker.params.values():
            p.data[...] = scale_rng.normal(size=p.data.shape) * 0.4
        ids = scale_rng.permutation(np.arange(4, 64))
        ctx = np.stack([ids[:30], ids[30:60]])
        pos = np.stack([ids[10:40], np.concatenate([ids[45:], ids[:15]])])
        neg = np.stack([ids[20:50], np.concatenate([ids[5:20], ids[40:55]])])

        def ranker_loss():
            sp = score_batch(ranker, ctx, pos)
            sn = score_batch(ranker, ctx, neg)
            return hinge_loss(sp, sn, margin=1.0, l2_coeff=1e-4, params=ranker.params)

        rank_err = grad_check(ranker_loss, list(ranker.params.values()), rng, n_samples=200)
        assert rank_err < 1e-4, f"ranker hinge gradient error {rank_err}"

        elapsed = time.time() - t0
        assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"
        _report(f"gradient correctness (gen {gen_err:.2e}, ranker {rank_err:.2e}, "
                f"{elapsed:.1f}s)")


class TestCriterionBm25OracleEquivalence:
    """retrieve() == brute-force top-K on 100 random corpora; worked score to 1e-4."""

    def test_worked_example_score(self):
        index = build_index([
            ("cat sat".split(), ["r0"]),
            ("cat cat sat".split(), ["r1"]),
            (["dog"], ["r2"]),
        ])
        assert index.bm25_score(["cat"], 1) == pytest.approx(0.5666, abs=1e-4)

    def test_hundred_random_corpora_match_bruteforce(self):
        t0 = time.time()
        rng = np.random.default_rng(777)
        for trial in range(100):
            contexts, responses = random_corpus(rng, max_docs=200, max_vocab=50)
            index = build_index(list(zip(contexts, responses)))
            vocab = sorted({t for c in contexts for t in c})
            query = [vocab[int(j)]
                     for j in rng.integers(0, len(vocab), size=int(rng.integers(1, 7)))]
            for k in (1, 5, 9):
                got = retrieve(query, index, k=k)
                want = oracle_topk(contexts, responses, query, k)
                assert [g.doc_id for g in got] == [i for i, _ in want], \
                    f"trial {trial} k={k}: doc order diverged"
                np.testing.assert_allclose([g.score for g in got], [s for _, s in want],
                                           atol=1e-12)
        elapsed = time.time() - t0
        assert elapsed < 30.0, f"BM25 oracle sweep took {elapsed:.1f}s"
        _report(f"BM25 oracle equivalence (100 corpora, K in {{1,5,9}}, {elapsed:.1f}s)")


class TestCriterionMetricOracles:
    def test_stated_values(self):
        got = corpus_bleu([["the", "the", "cat"]], [["the", "cat", "sat"]], max_n=1)
        assert got == pytest.approx(2.0 / 3.0, abs=1e-9)

        got = rouge_l("the cat the mat".split(), "the cat sat on the mat".split(), beta=1.2)
        assert got == pytest.approx(0.7722, abs=1e-4)

        assert distinct_n([["yes", "yes"], ["yes", "no"]], 1) == 0.5

        ident = [["the", "cat", "sat", "on", "the", "mat"]]
        assert corpus_bleu(ident, ident) == pytest.approx(1.0, abs=1e-12)
        assert rouge_l(ident[0], ident[0]) == pytest.approx(1.0, abs=1e-12)
        _report("metric oracles (BLEU-1 2/3, ROUGE-L 0.7722, Distinct-1 0.5, identity 1.0)")


class TestCriterionBeamSearchOracle:
    """Beam >= 9 equals exhaustive enumeration under the normalized score."""

    def make_three_token_model(self, seed):
        # vocab: 4 reserved + {a=4, b=5}; decoder proposes only {a, b, EOS}
        return GeneratorModel(gen_config(6, 5, 4), np.random.default_rng(seed))

    def test_matches_enumeration_on_random_weight_models(self):
        for seed in (1, 2, 3):
            model = self.make_three_token_model(seed)
            got = beam_search(model, [4, 5], [[5]], beam_size=9, max_len=2)
            session = DecodingSession(model, [4, 5], [[5]])
            want = enumerate_hypotheses(session, 2, [4, 5])
            assert len(got) == len(want) == 7
            assert [g[0] for g in got] == [w[0] for w in want], f"seed {seed}"
            np.testing.assert_allclose([g[1] for g in got], [w[1] for w in want],
                                       atol=1e-12)

    def test_matches_enumeration_on_hand_set_distributions(self):
        # zero recurrent weights + fixed output bias: every step emits
        # softmax(bias) regardless of history
        model = self.make_three_token_model(0)
        model.set_zero()
        model.out_proj.b.data[...] = [0.0, 0.0, 0.0, 0.4, 1.1, 0.2]
        got = beam_search(model, [4], None, beam_size=9, max_len=2)
        session = DecodingSession(model, [4], None)
        want = enumerate_hypotheses(session, 2, [4, 5])
        assert [g[0] for g in got] == [w[0] for w in want]
        np.testing.assert_allclose([g[1] for g in got], [w[1] for w in want], atol=1e-12)
        _report("beam search equals exhaustive enumeration (3-token vocab, max_len 2)")


@pytest.fixture(scope="module")
def corpus_and_vocab():
    corpus = synthetic_corpus(50, seed=7, split="train")
    vocab = Vocabulary.build(corpus, max_size=0)
    return encode_corpus(corpus, vocab, 30), vocab


class TestCriterionOverfitConvergence:
    """Per-token perplexity < 1.1 on 50 pairs within 2000 steps, < 5 min, both paths."""

    @pytest.mark.parametrize("variant", ["desk-facts", "desk"])
    def test_memorizes_fifty_pairs(self, corpus_and_vocab, variant):
        examples, vocab = corpus_and_vocab
        cfg = DESK
        if variant == "desk":
            examples = [(c, [], t) for c, _, t in examples]   # facts stripped: F = 0
            cfg = dataclasses.replace(DESK, gen_facts=False)
        model = GeneratorModel(cfg.generator_config(len(vocab)), np.random.default_rng(0))
        tcfg = cfg.generator_train_config(seed=0)
        tcfg.max_steps = 2000
        tcfg.target_ppl = 1.05
        t0 = time.time()
        log = train_generator(model, examples, examples, tcfg)
        elapsed = time.time() - t0
        ppl = perplexity(model, examples)
        assert log.steps_run <= 2000
        assert ppl < 1.1, f"{variant}: perplexity {ppl:.4f} after {log.steps_run} steps"
        assert elapsed < 300.0, f"{variant}: training took {elapsed:.1f}s"
        _report(f"overfit convergence [{variant}] (ppl {ppl:.4f}, "
                f"{log.steps_run} steps, {elapsed:.1f}s)")


class TestCriterionDistantSupervision:
    def make_pool(self, gt):
        mk = lambda toks, prov, rank: Candidate(list(toks), prov, rank)
        fill = lambda tag, n: [f"pad{tag}{i}" for i in range(n)]
        cands = [
            mk(gt, "generated", 0),                              # exact ground truth
            mk(gt[:4] + fill("a", len(gt) - 4), "retrieved", 1),
            mk(gt[:3] + fill("b", len(gt) - 3), "retrieved", 2),
            mk(gt[:2] + fill("c", len(gt) - 2), "retrieved", 3),
            mk(gt[:1] + fill("d", len(gt) - 1), "retrieved", 4),
            mk(fill("e", len(gt)), "retrieved", 5),
        ]
        return CandidateSet(["ctx"], cands, ground_truth=list(gt))

    def test_identical_candidate_positive_under_all_signals(self):
        gt = "the spicy noodle soup is amazing today friend".split()
        pool = self.make_pool(gt)
        for signal in SIGNALS:
            cfg = SupervisionConfig(signal=signal, k_prime=3)
            pos, neg = make_distant_labels(pool, gt, cfg)
            assert len(pos) == 3, signal
            assert any(p.tokens == gt for p in pos), signal
            assert len(pos) + len(neg) == 6

    def test_triple_counts_are_cross_products(self):
        gt = "the spicy noodle soup is amazing today friend".split()
        pool = self.make_pool(gt)
        for k_prime in (1, 2, 3):
            cfg = SupervisionConfig(signal="bleu1", k_prime=k_prime)
            pos, neg = make_distant_labels(pool, gt, cfg)
            triples = make_training_triples(pool.context, gt, pos, neg, k_prime)
            assert len(triples) == k_prime * len(neg)
            assert {tuple(t.positive) for t in triples} >= {tuple(gt)}
        _report("distant supervision (identity positive x4 signals, k'=3 exact, "
                "triple counts)")


class TestCriterionRankerSeparability:
    """Held-out pairwise accuracy > 0.95 within 1000 steps, < 5 min."""

    def test_separates_within_budget(self):
        train, tokens = separability_data(250, seed=11)
        held, _ = separability_data(120, seed=207)
        vocab = Vocabulary.build(Corpus([ConversationExample(tokens, ["ok"])]), max_size=0)
        model = RankerModel(DESK.ranker_config(len(vocab)), np.random.default_rng(2))
        tcfg = DESK.ranker_train_config(seed=0)
        tcfg.max_steps = 1000
        tcfg.target_accuracy = 0.99
        t0 = time.time()
        log = train_ranker(model, train, held, vocab, tcfg)
        elapsed = time.time() - t0
        acc = pairwise_accuracy(model, encode_triples(held, vocab,
                                                      model.config.matrix_size))
        assert log.steps_run <= 1000
        assert acc > 0.95, f"held-out pairwise accuracy {acc:.4f}"
        assert elapsed < 300.0, f"ranker training took {elapsed:.1f}s"
        _report(f"ranker separability (acc {acc:.4f}, {log.steps_run} steps, "
                f"{elapsed:.1f}s)")


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("accept_e2e"))
    cfg_path = write_env(root, seed=31)
    cfg = PipelineConfig.from_file(cfg_path)
    manifest = run_pipeline(cfg, retrain=True)
    return {"root": root, "cfg_path": cfg_path, "cfg": cfg, "manifest": manifest}


class TestCriterionEndToEnd:
    """Seeded determinism, pool contract, selection partition, ablation shapes."""

    def test_two_seeded_runs_identical(self, env, tmp_path_factory):
        other = str(tmp_path_factory.mktemp("accept_e2e_rerun"))
        cfg2 = PipelineConfig.from_file(write_env(other, seed=31))
        manifest2 = run_pipeline(cfg2, retrain=True)
        assert manifest2.chosen == env["manifest"].chosen
        assert manifest2.report.to_dict() == env["manifest"].report.to_dict()
        _report("end-to-end determinism (identical chosen responses across runs)")

    def test_pool_contract_and_partition(self, env):
        cfg = env["cfg"]
        artifacts, corpora = prepare_artifacts(cfg)
        report, chosen, pools = evaluate_corpus(artifacts, corpora["test"], cfg)
        for c, pool in zip(chosen, pools):
            assert any(c.tokens == cand.tokens for cand in pool.candidates), \
                "chosen response not a pool member"
        report.validate()
        assert report.picked_gen + report.picked_ret == report.n_examples
        share = 100.0 * (report.picked_gen + report.picked_ret) / report.n_examples
        assert share == 100.0
        _report(f"pool contract + selection partition ({report.picked_gen} gen / "
                f"{report.picked_ret} ret of {report.n_examples})")

    def test_ablation_tables(self, env):
        cfg = PipelineConfig.from_file(env["cfg_path"])
        kprime_rows = run_ablation(cfg, axis="kprime")
        assert [r.setting for r in kprime_rows] == ["k_prime=1", "k_prime=2", "k_prime=3"]
        signal_rows = run_ablation(cfg, axis="signal")
        assert [r.setting for r in signal_rows] == [
            "signal=bleu1", "signal=bleu2", "signal=rougel", "signal=sentbleu"]
        for row in kprime_rows + signal_rows:
            assert row.error is None, f"{row.setting}: {row.error}"
            row.report.validate()
        _report("ablation tables (3-row k' axis, 4-row signal axis, all reports valid)")


class TestCriterionRoundTrips:
    def test_checkpoint_roundtrip_bit_identical(self, tmp_path):
        gen = GeneratorModel(gen_config(30, 16, 12, dropout=0.3), np.random.default_rng(3))
        opt = Adam(gen.params, lr=1e-3)
        for p in gen.params.values():
            p.grad = np.random.default_rng(4).normal(size=p.data.shape)
        opt.step()
        p1, p2 = str(tmp_path / "g1.ckpt"), str(tmp_path / "g2.ckpt")
        gen.save(p1, vocab_hash="vh", optimizer=opt)
        blob = GeneratorModel.load(p1)
        opt2 = Adam(blob.params, lr=1e-3)
        from hybridchat.nncore import load_checkpoint
        opt2.load_state_dict(load_checkpoint(p1)["optimizer_state"])
        blob.save(p2, vocab_hash="vh", optimizer=opt2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

        rank = RankerModel(DESK.ranker_config(30), np.random.default_rng(5))
        r1, r2 = str(tmp_path / "r1.ckpt"), str(tmp_path / "r2.ckpt")
        rank.save(r1, vocab_hash="vh")
        RankerModel.load(r1).save(r2, vocab_hash="vh")
        assert open(r1, "rb").read() == open(r2, "rb").read()

    def test_index_roundtrip_bit_identical(self, tmp_path):
        corpus = synthetic_corpus(40, seed=13)
        index = build_index([(ex.context, ex.response) for ex in corpus])
        p1, p2 = str(tmp_path / "a.idx"), str(tmp_path / "b.idx")
        index.save(p1)
        RepositoryIndex.load(p1).save(p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()
        _report("checkpoint and index round-trips bit-identical")
