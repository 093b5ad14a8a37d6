import json
import os

import numpy as np
import pytest

from hybridchat.cli import main
from hybridchat.generation import GeneratorModel
from hybridchat.pipeline import PipelineConfig, run_pipeline, write_candidates_jsonl
from hybridchat.pipeline import corpus_pools, prepare_artifacts

from .test_pipeline import TEST_SECTIONS, write_env


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("cli"))
    cfg_path = write_env(root, seed=23)
    cfg = PipelineConfig.from_file(cfg_path)
    run_pipeline(cfg, retrain=True)      # builds workdir artifacts once
    artifacts, corpora = prepare_artifacts(cfg)
    return {"root": root, "cfg_path": cfg_path, "cfg": cfg,
            "artifacts": artifacts, "corpora": corpora}


class TestStandaloneCommands:
    def test_init_config_both_variants(self, tmp_path):
        for flag, name in ((True, "desk.ini"), (False, "full.ini")):
            out = str(tmp_path / name)
            argv = ["init-config", "--out", out] + (["--desk"] if flag else [])
            assert main(argv) == 0
            cfg = PipelineConfig.from_file(out)
            assert (cfg.gen_hidden_size, cfg.max_len) == ((64, 15) if flag else (256, 30))

    def test_synth_data_writes_three_splits(self, tmp_path):
        out_dir = str(tmp_path / "data")
        assert main(["synth-data", "--out-dir", out_dir,
                     "--train", "5", "--valid", "2", "--test", "2"]) == 0
        for split in ("train", "valid", "test"):
            assert os.path.exists(os.path.join(out_dir, f"{split}.jsonl"))

    def test_build_index_and_retrieve(self, tmp_path, capsys):
        data_dir = str(tmp_path / "data")
        main(["synth-data", "--out-dir", data_dir, "--train", "20",
              "--valid", "2", "--test", "2"])
        idx = str(tmp_path / "repo.idx")
        assert main(["build-index", "--corpus", os.path.join(data_dir, "train.jsonl"),
                     "--out", idx]) == 0
        capsys.readouterr()
        assert main(["retrieve", "--index", idx, "--k", "3",
                     "--query", "craving tacos and noodles right now"]) == 0
        out = json.loads(capsys.readouterr().out.strip())
        assert out["results"], "expected at least one retrieval hit"
        assert out["results"][0]["rank"] == 1

        cut = str(tmp_path / "cut.idx")
        with open(idx, "rb") as src, open(cut, "wb") as dst:
            dst.write(src.read()[:20])
        assert main(["retrieve", "--index", cut, "--query", "tacos"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {cut}: ")

    def test_evaluate(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.jsonl"
        ref = tmp_path / "ref.jsonl"
        hyp.write_text(json.dumps({"response": "the cat sat on the mat"}) + "\n")
        ref.write_text(json.dumps({"response": "the cat sat on a mat"}) + "\n")
        out = str(tmp_path / "report.json")
        assert main(["evaluate", "--hyp", str(hyp), "--ref", str(ref), "--out", out]) == 0
        report = json.loads(open(out).read())
        assert 0.0 <= report["bleu"] <= 100.0

    def test_missing_fields_name_the_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        out = str(tmp_path / "out.json")
        bad.write_text(json.dumps({"text": "x"}) + "\n")
        assert main(["evaluate", "--hyp", str(bad), "--ref", str(bad), "--out", out]) == 1
        assert f"error: {bad}:1: missing field 'response'" in capsys.readouterr().err
        bad.write_text(json.dumps({"context": "hi", "ground_truth": "yo",
                                   "candidates": [{"provenance": "retrieved"}]}) + "\n")
        assert main(["label", "--candidates", str(bad), "--out", out]) == 1
        assert f"error: {bad}:1: missing field 'text'" in capsys.readouterr().err
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text("[run]\nseed = 1\n")
        bad.write_text(json.dumps({"context": "hi", "positive": "yo"}) + "\n")
        assert main(["train-ranker", "--triples", str(bad), "--config", str(cfg_path),
                     "--out", out]) == 1
        assert f"error: {bad}:1: missing field 'negative'" in capsys.readouterr().err

    def test_error_paths_return_nonzero(self, tmp_path, capsys):
        assert main(["build-index", "--corpus", "/nonexistent.jsonl",
                     "--out", str(tmp_path / "x.idx")]) == 1
        assert "error:" in capsys.readouterr().err


class TestPipelineCommands:
    def test_run_reuses_artifacts(self, env, tmp_path, capsys):
        manifest_path = str(tmp_path / "manifest.json")
        assert main(["run", "--config", env["cfg_path"], "--manifest", manifest_path]) == 0
        out = capsys.readouterr().out
        assert "BLEU" in out and "picked generated" in out
        manifest = json.loads(open(manifest_path).read())
        assert manifest["report"]["n_examples"] == 8

    def test_run_seed_override_changes_hash(self, env, tmp_path):
        m1 = str(tmp_path / "m1.json")
        assert main(["--seed", "99", "run", "--config", env["cfg_path"],
                     "--manifest", m1]) == 0
        manifest = json.loads(open(m1).read())
        assert manifest["seed"] == 99

    def test_generate_label_train_rerank_chain(self, env, tmp_path, capsys):
        root, cfg = env["root"], env["cfg"]
        ckpt = os.path.join(root, "work", "generator.ckpt")

        inputs = str(tmp_path / "inputs.jsonl")
        with open(inputs, "w") as fh:
            fh.write(json.dumps({"context": "craving tacos and noodles right now",
                                 "facts": ["locals love the tacos here"]}) + "\n")
        gen_out = str(tmp_path / "gen.jsonl")
        assert main(["generate", "--ckpt", ckpt, "--beam", "3", "--max-len", "12",
                     "--input", inputs, "--out", gen_out]) == 0
        row = json.loads(open(gen_out).read().strip())
        assert "generated" in row and row["score"] <= 0.0

        pools = corpus_pools(env["artifacts"], env["corpora"]["valid"], cfg)
        cands = str(tmp_path / "cands.jsonl")
        write_candidates_jsonl(cands, pools)
        triples = str(tmp_path / "triples.jsonl")
        assert main(["label", "--candidates", cands, "--signal", "bleu1",
                     "--kprime", "2", "--out", triples]) == 0
        assert sum(1 for _ in open(triples)) > 0

        ranker_out = os.path.join(root, "work", "ranker-cli.ckpt")
        assert main(["train-ranker", "--triples", triples, "--config", env["cfg_path"],
                     "--out", ranker_out]) == 0

        rerank_out = str(tmp_path / "rerank.jsonl")
        stats_out = str(tmp_path / "stats.json")
        assert main(["rerank", "--ckpt", ranker_out, "--candidates", cands,
                     "--out", rerank_out, "--stats", stats_out]) == 0
        stats = json.loads(open(stats_out).read())
        assert stats["picked_gen"] + stats["picked_ret"] == stats["n"] == len(pools)

    def test_train_generator_command(self, env, tmp_path, capsys):
        out = str(tmp_path / "gen2.ckpt")
        sections = {k: dict(v) for k, v in TEST_SECTIONS.items()}
        sections["generator"] = {
            "embedding_size": "32", "hidden_size": "32", "dropout": "0.0",
            "learning_rate": "0.003", "steps_between_validation": "25",
            "batch_size": "25", "max_steps": "50",
        }
        cfg_path = write_env(str(tmp_path / "tg"), seed=5, sections=sections)
        assert main(["train-generator", "--config", cfg_path, "--facts", "on",
                     "--out", out]) == 0
        assert os.path.exists(out)
        assert "best valid ppl" in capsys.readouterr().out

    def test_train_generator_matches_the_run_generator(self, env, tmp_path):
        # both draw model init and training from the config seed's named streams
        out = str(tmp_path / "gen-env.ckpt")
        assert main(["train-generator", "--config", env["cfg_path"], "--out", out]) == 0
        trained = GeneratorModel.load(out).params
        for name, p in env["artifacts"].generator.params.items():
            assert np.array_equal(trained[name].data, p.data), name

    def test_train_generator_keeps_config_facts_off(self, tmp_path):
        out = str(tmp_path / "gen3.ckpt")
        sections = {k: dict(v) for k, v in TEST_SECTIONS.items()}
        sections["generator"] = {
            "facts": "off", "embedding_size": "8", "hidden_size": "8", "dropout": "0.0",
            "steps_between_validation": "2", "batch_size": "25", "max_steps": "2",
        }
        cfg_path = write_env(str(tmp_path / "tg"), seed=5, sections=sections)
        assert main(["train-generator", "--config", cfg_path, "--out", out]) == 0
        assert GeneratorModel.load(out).config.use_facts is False
        assert main(["train-generator", "--config", cfg_path, "--facts", "on",
                     "--out", out]) == 0
        assert GeneratorModel.load(out).config.use_facts is True

    def test_ablate_writes_table(self, env, tmp_path, capsys):
        table_path = str(tmp_path / "table.json")
        assert main(["ablate", "--config", env["cfg_path"], "--axis", "kprime",
                     "--out", table_path]) == 0
        table = json.loads(open(table_path).read())
        assert [row["setting"] for row in table] == ["k_prime=1", "k_prime=2", "k_prime=3"]
        assert all(row["error"] is None for row in table)

    def test_chat_command(self, env, monkeypatch, capsys):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("hello there\n:quit\n"))
        assert main(["chat", "--config", env["cfg_path"]]) == 0
        assert "bye." in capsys.readouterr().out
