import configparser
import hashlib
import io
import json
import os

import numpy as np
import pytest

from hybridchat.metrics import GENERATED, RETRIEVED
from hybridchat.pipeline import (
    DESK_OVERRIDES,
    Artifacts,
    PipelineConfig,
    build_pool,
    chat,
    choose_response,
    corpus_pools,
    default_config_text,
    evaluate_corpus,
    fallback_response,
    prepare_artifacts,
    read_candidates_jsonl,
    run_ablation,
    run_pipeline,
    write_candidates_jsonl,
)
from hybridchat.ranking import CandidateSet, RankerModel
from hybridchat.synth import synthetic_corpus
from hybridchat.textcore import load_corpus, save_corpus


TEST_SECTIONS = {
    "vocab": {"max_size": "2000"},
    "generator": {
        "embedding_size": "48", "hidden_size": "48", "dropout": "0.0",
        "learning_rate": "0.003", "steps_between_validation": "50",
        "batch_size": "25", "max_steps": "100",
    },
    "retrieval": {"k": "5"},
    "ranker": {
        "embedding_size": "24", "conv_kernels": "8", "mlp_hidden": "32",
        "learning_rate": "0.002", "batch_size": "32",
        "steps_between_validation": "20", "max_steps": "60",
    },
    "run": {"seed": "11", "beam_size": "3", "max_len": "12"},
}


def write_env(root, seed=11, sections=TEST_SECTIONS):
    data_dir = os.path.join(root, "data")
    os.makedirs(data_dir, exist_ok=True)
    for split, n in (("train", 50), ("valid", 8), ("test", 8)):
        save_corpus(synthetic_corpus(n, seed=1, split=split),
                    os.path.join(data_dir, f"{split}.jsonl"))
    merged = {s: dict(kv) for s, kv in sections.items()}
    merged.setdefault("run", {})["seed"] = str(seed)
    lines = []
    for section, kv in merged.items():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for k, v in kv.items())
        lines.append("")
    cfg_path = os.path.join(root, "config.ini")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
    return cfg_path


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("pipe"))
    cfg_path = write_env(root)
    cfg = PipelineConfig.from_file(cfg_path)
    manifest = run_pipeline(cfg, retrain=True)
    artifacts, corpora = prepare_artifacts(cfg)   # reloads the saved artifacts
    return {"root": root, "cfg_path": cfg_path, "cfg": cfg, "manifest": manifest,
            "artifacts": artifacts, "corpora": corpora}


class TestConfig:
    def test_full_scale_defaults_carry_reference_values(self):
        parser = configparser.ConfigParser()
        parser.read_string(default_config_text(desk=False))
        g = parser["generator"]
        assert g["embedding_size"] == "256" and g["hidden_size"] == "256"
        assert g["lstm_layers"] == "2" and g["dropout"] == "0.3"
        assert g["learning_rate"] == "0.001" and g["learning_rate_decay"] == "0.5"
        assert g["steps_between_validation"] == "5000"
        assert g["early_stopping_patience"] == "10"
        assert g["batch_size"] == "500"
        r = parser["ranker"]
        assert r["conv_window"] == "6" and r["pool_window"] == "6"
        assert r["conv_kernels"] == "64" and r["dropout"] == "0.5"
        s = parser["supervision"]
        assert s["signal"] == "bleu1" and s["k_prime"] == "3" and s["margin"] == "1.0"
        assert parser["retrieval"]["k"] == "9"
        assert parser["run"]["max_len"] == "30"

    def test_desk_variant_parses(self):
        parser = configparser.ConfigParser()
        parser.read_string(default_config_text(desk=True))
        cfg = PipelineConfig.from_sections(
            {s: dict(parser.items(s)) for s in parser.sections()})
        assert cfg.gen_hidden_size == 64 and cfg.max_len == 15

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            PipelineConfig.from_sections({"run": {"bogus": "1"}})
        with pytest.raises(ValueError, match="unknown config section"):
            PipelineConfig.from_sections({"general": {}})

    def test_hash_depends_on_values(self):
        a = PipelineConfig.from_sections({})
        b = PipelineConfig.from_sections({"run": {"seed": "1"}})
        assert a.config_hash() != b.config_hash()
        assert a.config_hash() == PipelineConfig.from_sections({}).config_hash()

    def test_relative_paths_resolved_against_config_file(self, tmp_path):
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text("[paths]\ntrain_corpus = data/train.jsonl\n")
        cfg = PipelineConfig.from_file(str(cfg_path))
        assert cfg.train_corpus == str(tmp_path / "data" / "train.jsonl")

    def test_missing_file_rejected(self):
        with pytest.raises(FileNotFoundError):
            PipelineConfig.from_file("/nonexistent/config.ini")

    def test_unparsable_number_names_key(self):
        with pytest.raises(ValueError, match=r"\[ranker\] batch_size"):
            PipelineConfig.from_sections({"ranker": {"batch_size": "abc"}})
        with pytest.raises(ValueError, match=r"\[retrieval\] bm25_k1"):
            PipelineConfig.from_sections({"retrieval": {"bm25_k1": "1,2"}})

    def test_boolean_words(self):
        for text, want in (("on", True), ("off", False), ("TRUE", True), ("false", False),
                           ("yes", True), ("no", False), ("1", True), ("0", False)):
            cfg = PipelineConfig.from_sections({"generator": {"facts": text}})
            assert cfg.gen_facts is want, text
        for text in ("of", "2", ""):
            with pytest.raises(ValueError, match=r"\[generator\] facts"):
                PipelineConfig.from_sections({"generator": {"facts": text}})

    def test_golden_hashes_and_init_config_text(self):
        # values of the hand-mapped config that the field table replaced
        assert PipelineConfig.from_sections({}).config_hash() == (
            "446c360aae7b439e5f7d80bdf3d1a2a7a28f0be5d3cf65e5b3637a5aaf6a60a3")
        assert PipelineConfig.from_sections(DESK_OVERRIDES).config_hash() == (
            "454aa67c0c0661105bdc8fef6d5b4288f4d66d795138154e8b886374cfae80d6")
        text_sha = {desk: hashlib.sha256(default_config_text(desk=desk).encode()).hexdigest()
                    for desk in (False, True)}
        assert text_sha[False] == (
            "c71441a0c34cf7674c5793e3dc4e0c5fb33b011c84501591cf5c2a3859ede7f6")
        assert text_sha[True] == (
            "a206aa2befe3a7d5cfa047dbe24f1aa6fd98f2d49db9832de0a73dfaf9511685")


class TestSynthCorpus:
    def test_deterministic(self):
        a = synthetic_corpus(20, seed=5)
        b = synthetic_corpus(20, seed=5)
        assert [ex.context for ex in a] == [ex.context for ex in b]
        assert [ex.facts for ex in a] == [ex.facts for ex in b]

    def test_roundtrips_through_jsonl(self, tmp_path):
        corpus = synthetic_corpus(10, seed=2)
        path = str(tmp_path / "c.jsonl")
        save_corpus(corpus, path)
        loaded = load_corpus(path)
        assert [ex.response for ex in loaded] == [ex.response for ex in corpus]


class TestRunPipeline:
    def test_manifest_shape(self, env):
        manifest = env["manifest"]
        report = manifest.report
        report.validate()
        assert report.n_examples == 8
        assert len(manifest.chosen) == 8
        assert manifest.index_sha and manifest.generator_sha and manifest.ranker_sha
        parsed = json.loads(manifest.to_json())
        assert parsed["config_hash"] == env["cfg"].config_hash()

    def test_selection_stats_partition(self, env):
        report = env["manifest"].report
        assert report.picked_gen + report.picked_ret == report.n_examples

    def test_chosen_always_from_pool(self, env):
        artifacts, corpora, cfg = env["artifacts"], env["corpora"], env["cfg"]
        report, chosen, pools = evaluate_corpus(artifacts, corpora["test"], cfg)
        for c, pool in zip(chosen, pools):
            assert pool.candidates, "pool unexpectedly empty"
            assert any(c.tokens == cand.tokens and c.provenance == cand.provenance
                       for cand in pool.candidates)

    def test_pool_size_is_retrieved_plus_one(self, env):
        artifacts, corpora, cfg = env["artifacts"], env["corpora"], env["cfg"]
        for ex in corpora["test"]:
            pool = build_pool(artifacts, ex.context, ex.facts, cfg)
            n_ret = sum(1 for c in pool.candidates if c.provenance == RETRIEVED)
            n_gen = sum(1 for c in pool.candidates if c.provenance == GENERATED)
            assert n_gen == 1
            assert len(pool.candidates) == n_ret + 1
            assert n_ret <= cfg.retrieval_k

    def test_seeded_reruns_identical(self, env, tmp_path):
        cfg_path = write_env(str(tmp_path), seed=11)
        manifest2 = run_pipeline(PipelineConfig.from_file(cfg_path), retrain=True)
        assert manifest2.chosen == env["manifest"].chosen
        assert manifest2.report.to_dict() == env["manifest"].report.to_dict()

    def test_verbatim_context_recovers_gold_response_in_pool(self, env):
        artifacts, corpora, cfg = env["artifacts"], env["corpora"], env["cfg"]
        ex = corpora["train"].examples[0]
        pool = build_pool(artifacts, ex.context, ex.facts, cfg)
        assert any(c.tokens == ex.response for c in pool.candidates
                   if c.provenance == RETRIEVED)

    def test_zero_ranker_degenerates_to_generated(self, env):
        artifacts, corpora, cfg = env["artifacts"], env["corpora"], env["cfg"]
        zero = RankerModel(artifacts.ranker.config, np.random.default_rng(0))
        zero.set_zero()
        scoped = Artifacts(artifacts.vocab, artifacts.index, artifacts.generator, zero)
        for ex in corpora["test"]:
            pool = build_pool(scoped, ex.context, ex.facts, cfg)
            has_gen = any(c.provenance == GENERATED for c in pool.candidates)
            chosen = choose_response(scoped, pool, cfg)
            if has_gen:
                assert chosen.provenance == GENERATED


class TestFallback:
    def test_empty_pool_uses_repository(self, env, caplog):
        artifacts, cfg = env["artifacts"], env["cfg"]
        empty = CandidateSet(["zzz"], [], None)
        import logging
        with caplog.at_level(logging.WARNING):
            chosen = choose_response(artifacts, empty, cfg)
        assert chosen.provenance == RETRIEVED
        assert chosen.rank == 0
        responses = {" ".join(r) for _, r in artifacts.index.doc_store}
        assert " ".join(chosen.tokens) in responses
        assert any("fallback" in r.message for r in caplog.records)

    def test_no_overlap_falls_back_to_first_doc(self, env):
        index = env["artifacts"].index
        got = fallback_response(index, ["zzzz", "qqqq"])
        assert got == index.doc_store[0][1]

    def test_overlap_picks_best_scoring_doc(self, env):
        index = env["artifacts"].index
        ctx = index.doc_store[3][0]
        got = fallback_response(index, ctx)
        scores = index.score_all(ctx)
        best = min(scores.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        assert got == index.doc_store[best][1]


class TestAblation:
    def test_kprime_axis_three_valid_rows(self, env):
        cfg = PipelineConfig.from_file(env["cfg_path"])
        rows = run_ablation(cfg, axis="kprime")
        assert [r.setting for r in rows] == ["k_prime=1", "k_prime=2", "k_prime=3"]
        for row in rows:
            assert row.error is None, row.error
            row.report.validate()
            assert row.report.picked_gen + row.report.picked_ret == row.report.n_examples
        # the row at the config's k' trains the ranker `run` trained, and the axis matters
        run_report = env["manifest"].report.to_dict()
        same = [r for r in rows if r.setting == f"k_prime={cfg.k_prime}"]
        assert len(same) == 1 and same[0].report.to_dict() == run_report
        assert any(r.report.to_dict() != run_report for r in rows if r is not same[0])

    def test_signal_axis_error_rows_are_isolated(self, env):
        cfg = PipelineConfig.from_file(env["cfg_path"])
        cfg.k_prime = 50   # every pool is too small -> no triples -> row errors
        rows = run_ablation(cfg, axis="signal")
        assert [r.setting for r in rows] == [
            "signal=bleu1", "signal=bleu2", "signal=rougel", "signal=sentbleu"]
        assert all(r.error is not None and r.report is None for r in rows)

    def test_unknown_axis_rejected(self, env):
        with pytest.raises(ValueError):
            run_ablation(PipelineConfig.from_file(env["cfg_path"]), axis="bogus")


class TestChat:
    def run_chat(self, env, lines):
        out = io.StringIO()
        rc = chat(env["artifacts"], env["cfg"], input_stream=io.StringIO(lines), output_stream=out)
        return rc, out.getvalue()

    def test_quit_exits_cleanly(self, env):
        rc, out = self.run_chat(env, ":quit\n")
        assert rc == 0
        assert "bye." in out

    def test_empty_input_reprompts(self, env):
        rc, out = self.run_chat(env, "\n:quit\n")
        assert rc == 0
        assert "say something" in out

    def test_utterance_gets_tagged_response(self, env):
        rc, out = self.run_chat(env, "craving tacos and noodles right now\n:quit\n")
        assert rc == 0
        assert "[generated]" in out or "[retrieved#" in out

    def test_stateless_turns_repeat_identically(self, env):
        line = "anyone tried the dumplings at dumpling house ?\n"
        _, out = self.run_chat(env, line + line + ":quit\n")
        # replies appear after the inline "> " prompt; alternatives are indented
        replies = [l.removeprefix("> ") for l in out.splitlines()
                   if l.removeprefix("> ").startswith("[")]
        assert len(replies) == 2 and replies[0] == replies[1]


class TestCandidateJsonl:
    def test_roundtrip(self, env, tmp_path):
        artifacts, corpora, cfg = env["artifacts"], env["corpora"], env["cfg"]
        pools = corpus_pools(artifacts, corpora["valid"], cfg)
        path = str(tmp_path / "cands.jsonl")
        write_candidates_jsonl(path, pools)
        loaded = read_candidates_jsonl(path)
        assert len(loaded) == len(pools)
        for a, b in zip(pools, loaded):
            assert a.context == b.context
            assert [c.tokens for c in a.candidates] == [c.tokens for c in b.candidates]
            assert [c.provenance for c in a.candidates] == [c.provenance for c in b.candidates]
            assert a.ground_truth == b.ground_truth

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"context": "hi"}\n')
        with pytest.raises(ValueError, match="candidates"):
            read_candidates_jsonl(str(path))
        path.write_text('{"context": "hi", "candidates": [{"provenance": "retrieved"}]}\n')
        with pytest.raises(ValueError, match=r"bad.jsonl:1: missing field 'text'"):
            read_candidates_jsonl(str(path))
