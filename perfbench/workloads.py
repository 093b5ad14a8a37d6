"""The benchmark's workloads: inputs, phases, accounting and checks.

Every workload runs the same phases in one process, against the public
functions of hybridchat:

  setup      build and write vocabulary, BM25 index and seeded checkpoints,
             then load them all back through pipeline.prepare_artifacts, as
             the `chat` command does at start (repeated; the median counts)
  generator  generation.train_generator for a fixed number of steps
  label      pipeline.build_pool + pipeline.pools_to_triples per pool (the
             corpus_triples stage of `run --retrain`)
  ranker     ranking.train_ranker for a fixed number of steps
  query      closed loop, one client: tokenize, pipeline.build_pool,
             pipeline.choose_response, for its own share of --seconds and
             until at least `min_queries` were answered

The researcher's workload queries last, with the models it trained.  The
chat workloads query right after setup, as `chat` does, with the seeded
models; their training burst follows and trains copies.  The workloads
differ in inputs and phase sizes; see README.md for which layer each one
loads and which it bypasses.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import checks
import zipf


@dataclass(frozen=True)
class Spec:
    name: str
    wide: bool            # Zipfian repository (zipf.py) instead of the desk synth corpus
    chat: bool            # queries right after setup on the seeded, untrained models; the
                          # training burst after them trains copies and need not beat chance
    setup_repeats: int
    query_share: float    # the query phase runs for this share of --seconds
    tail_pct: float       # query_tail_ms percentile; min_queries leaves >= 10 samples beyond it
    min_queries: int
    check_sample: int     # queries re-checked against the BM25 oracle and teacher forcing
    gen_steps_per_s: float  # generator steps per --seconds (rounded to whole epochs)
    ranker_steps_per_s: float
    label_train: int      # pools labelled for ranker training (0: the whole train split)
    label_valid: int      # pools labelled for ranker validation


# Chat queries are answered by the untrained models: per-query work does not
# depend on the weights (beam search always runs max_len steps).
SPECS = {
    "train-desk": Spec("train-desk", wide=False, chat=False, setup_repeats=21,
                       query_share=0.5, tail_pct=95.0, min_queries=200, check_sample=20,
                       gen_steps_per_s=14.4, ranker_steps_per_s=6.0, label_train=0,
                       label_valid=40),
    "chat-desk": Spec("chat-desk", wide=False, chat=True, setup_repeats=21,
                      query_share=0.7, tail_pct=95.0, min_queries=200, check_sample=20,
                      gen_steps_per_s=4.0, ranker_steps_per_s=2.0, label_train=120,
                      label_valid=40),
    "chat-wide": Spec("chat-wide", wide=True, chat=True, setup_repeats=3,
                      query_share=0.7, tail_pct=90.0, min_queries=100, check_sample=8,
                      gen_steps_per_s=2.4, ranker_steps_per_s=2.0, label_train=30,
                      label_valid=18),
}

DESK_SPLITS = {"train": 300, "valid": 40, "test": 400}
DESK_QUERIES = 2000
WIDE_GEN_TRAIN = 500      # the generator trains on this prefix of the repository
WIDE_SPLITS = {"valid": 100, "test": 1000, "label": 48}
WIDE_QUERIES = 1000


@dataclass
class Phase:
    attempted: int = 0
    succeeded: int = 0
    failed: int = 0
    degraded: dict = field(default_factory=dict)

    def degrade(self, what: str) -> None:
        self.degraded[what] = self.degraded.get(what, 0) + 1


@dataclass
class Query:
    text: str
    facts: list[str]


@dataclass
class Result:
    e2e: dict
    phases: dict
    checks: list          # (name, ok, detail)
    notes: list

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def _seed_int(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _boundary_failure(what: str) -> None:
    print(f"[perfbench] {what} failed:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile; failed queries enter as +inf."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


# -- inputs -----------------------------------------------------------------------


def make_inputs(hc, spec: Spec, seed: int, data_dir: str):
    """Write the splits `chat` reads; return every split and the chat queries."""
    txt = hc.textcore
    os.makedirs(data_dir, exist_ok=True)

    def corpus_of(pairs, split):
        return txt.Corpus([txt.ConversationExample(c, r, []) for c, r in pairs], split=split)

    if spec.wide:
        # The repository is written, not kept: the oracle regenerates it after
        # the run, so the benchmark adds no long-lived objects to the heap.
        splits = {"train": corpus_of(zipf.zipf_pairs(zipf.REPOSITORY_PAIRS, seed, "repository"),
                                     "train")}
        for split, n in WIDE_SPLITS.items():
            splits[split] = corpus_of(zipf.zipf_pairs(n, seed, split,
                                                      cycle_lengths=split == "label"), split)
        queries = [Query(" ".join(c), []) for c, _ in
                   zipf.zipf_pairs(WIDE_QUERIES, seed, "queries", cycle_lengths=True)]
    else:
        splits = {split: hc.synth.synthetic_corpus(n, seed=seed, split=split)
                  for split, n in DESK_SPLITS.items()}
        source = (splits["test"] if spec.name == "train-desk"
                  else hc.synth.synthetic_corpus(DESK_QUERIES, seed=seed, split="queries"))
        queries = [Query(" ".join(ex.context), [" ".join(f) for f in ex.facts])
                   for ex in source]
    for split in ("train", "valid", "test"):
        txt.save_corpus(splits[split], os.path.join(data_dir, f"{split}.jsonl"))
    if spec.wide:
        del splits["train"]
    return splits, queries


def repository_pairs(spec: Spec, seed: int, splits):
    """The (context, response) pairs the index was built from, as generated."""
    if spec.wide:
        return zipf.zipf_pairs(zipf.REPOSITORY_PAIRS, seed, "repository")
    return [(ex.context, ex.response) for ex in splits["train"]]


def make_config(hc, seed: int, data_dir: str, work_dir: str):
    sections = copy.deepcopy(hc.pipeline.DESK_OVERRIDES)
    sections["paths"] = {
        "train_corpus": os.path.join(data_dir, "train.jsonl"),
        "valid_corpus": os.path.join(data_dir, "valid.jsonl"),
        "test_corpus": os.path.join(data_dir, "test.jsonl"),
        "workdir": work_dir,
    }
    sections["run"]["seed"] = str(seed)
    return hc.pipeline.PipelineConfig.from_sections(sections)


# -- phases -----------------------------------------------------------------------


def setup_once(hc, cfg, seed: int):
    """Build and write every artifact, then load them back as `chat` does."""
    txt, ret = hc.textcore, hc.retrieval
    os.makedirs(cfg.workdir, exist_ok=True)
    train = txt.load_corpus(cfg.train_corpus, "train")
    vocab = txt.Vocabulary.build(train, cfg.vocab_max_size, cfg.vocab_min_count)
    vocab.save(cfg.vocab_path)
    index = ret.build_index([(ex.context, ex.response) for ex in train],
                            k1=cfg.bm25_k1, b=cfg.bm25_b)
    index.save(cfg.index_path)
    del index, train
    vocab_hash = vocab.sha256()
    hc.generation.GeneratorModel(cfg.generator_config(len(vocab)), _rng(seed, 1)).save(
        cfg.generator_ckpt, vocab_hash)
    hc.ranking.RankerModel(cfg.ranker_config(len(vocab)), _rng(seed, 2)).save(
        cfg.ranker_ckpt, vocab_hash)
    return hc.pipeline.prepare_artifacts(cfg)


def _batches_consumed(n: int, batch: int, steps: int) -> int:
    """Examples the trainers' shuffle-cursor loop consumes in `steps` steps."""
    total = cursor = 0
    for _ in range(steps):
        if cursor >= n:
            cursor = 0
        take = min(batch, n - cursor)
        total += take
        cursor += batch
    return total


def run_workload(hc, spec: Spec, seed: int, seconds: float, work_root: str, tracer) -> Result:
    """Run every phase once; work_root is a scratch directory the caller removes."""
    pipe, gen, rank, txt = hc.pipeline, hc.generation, hc.ranking, hc.textcore
    data_dir = os.path.join(work_root, "data")
    splits, queries = make_inputs(hc, spec, seed, data_dir)
    phases = {name: Phase() for name in ("setup", "generator", "label", "ranker", "query")}
    results: list = []
    notes: list = []
    e2e: dict = {}
    rss: dict = {}

    def check(name, ok, detail=""):
        results.append((name, bool(ok), detail))

    # setup ----------------------------------------------------------------------
    # Each repeat writes into a fresh directory, as a first `run` does:
    # rewriting an existing file costs ext4 a data flush at close.
    setup_times = []
    artifacts = corpora = cfg = None
    for k in range(spec.setup_repeats):
        if cfg is not None:
            shutil.rmtree(cfg.workdir, ignore_errors=True)
        artifacts = corpora = None
        cfg = make_config(hc, seed, data_dir, os.path.join(work_root, f"work-{k}"))
        gc.collect()
        phases["setup"].attempted += 1
        t0 = time.perf_counter()
        with tracer.span("stage.setup"):
            artifacts, corpora = setup_once(hc, cfg, seed)
        setup_times.append(time.perf_counter() - t0)
        phases["setup"].succeeded += 1
    e2e["setup_s"] = statistics.median(setup_times)
    rss["setup"] = _peak_rss_mb()
    vocab, sup = artifacts.vocab, cfg.supervision_config()
    # Keep what the phases need and drop the loaded corpora, as `chat` does.
    train_examples = list(corpora["train"])[: WIDE_GEN_TRAIN if spec.wide else None]
    valid_corpus = corpora["valid"]
    corpora = None
    gc.collect()
    trained = artifacts
    answered = []            # (index, context, facts, pool, chosen) for the deferred checks

    def generator_phase():
        nonlocal trained
        enc_train = pipe.encode_corpus(txt.Corpus(train_examples), vocab, cfg.max_len)
        enc_valid = pipe.encode_corpus(valid_corpus, vocab, cfg.max_len)
        enc_test = pipe.encode_corpus(splits["test"], vocab, cfg.max_len)
        # Whole epochs of whole batches: the target tokens trained on are then
        # known without replaying the trainer's shuffle.
        if len(enc_train) % cfg.gen_batch_size:
            raise ValueError("generator split must be a whole number of batches")
        epoch = len(enc_train) // cfg.gen_batch_size
        gen_steps = epoch * max(1, round(spec.gen_steps_per_s * seconds / epoch))
        tokens = gen_steps // epoch * sum(len(t) for _, _, t in enc_train)
        if spec.chat:
            trained = pipe.Artifacts(vocab, artifacts.index,
                                     gen.GeneratorModel.load(cfg.generator_ckpt, vocab.sha256()),
                                     rank.RankerModel.load(cfg.ranker_ckpt, vocab.sha256()))
        ppl0 = gen.perplexity(trained.generator, enc_test)
        tcfg = dataclasses.replace(cfg.generator_train_config(_seed_int(seed, 3)),
                                   max_steps=gen_steps)
        phases["generator"].attempted = 1
        tracer.tag = "gen-step:1"
        try:
            t0 = time.perf_counter()
            with tracer.span("stage.generator"):
                glog = gen.train_generator(trained.generator, enc_train, enc_valid, tcfg,
                                           vocab_hash=vocab.sha256(),
                                           ckpt_path=cfg.generator_ckpt)
            dt = time.perf_counter() - t0
            phases["generator"].succeeded = 1
            e2e["gen_train_tokens_per_s"] = tokens / dt
            e2e["gen_valid_ppl"] = gen.perplexity(trained.generator, enc_test)
            losses = [h["train_loss"] for h in glog.history]
            check("generator losses finite", all(math.isfinite(x) for x in losses),
                  f"{sum(not math.isfinite(x) for x in losses)} of {len(losses)} not finite")
            check("generator ran every step", glog.steps_run == gen_steps,
                  f"{glog.steps_run}/{gen_steps}")
            check("gen_valid_ppl below untrained", e2e["gen_valid_ppl"] < ppl0,
                  f"{e2e['gen_valid_ppl']:.4f} vs untrained {ppl0:.4f}")
        except Exception:   # noqa: BLE001 - phase boundary: count, report, keep going
            _boundary_failure("generator training")
            phases["generator"].failed = 1
            check("generator training", False, "raised")
        notes.append(f"generator: {gen_steps} steps x {cfg.gen_batch_size} examples, "
                     f"{tokens} target tokens; gen_valid_ppl on the {len(enc_test)}-pair test "
                     f"split, untrained {ppl0:.3f}")

    triples, valid_triples = [], []

    def label_phase():
        if spec.wide:
            label_train = list(splits["label"])[: spec.label_train]
            label_valid = list(splits["label"])[spec.label_train:
                                                spec.label_train + spec.label_valid]
        else:
            label_train = train_examples[: spec.label_train or None]
            label_valid = list(valid_corpus)[: spec.label_valid]
        # Each pool is built and labelled on its own (pools_to_triples of one
        # pool yields that pool's triples), so the rate is the median pool's:
        # a burst of load on a shared machine moves the median little.
        phase = phases["label"]
        pools, pool_times = [], []
        with tracer.span("stage.label"):
            for part, examples, out in (("train", label_train, triples),
                                        ("valid", label_valid, valid_triples)):
                for i, ex in enumerate(examples):
                    phase.attempted += 1
                    tracer.tag = f"pool-{part}:{i}"
                    t0 = time.perf_counter()
                    try:
                        pool = pipe.build_pool(trained, ex.context, ex.facts, cfg,
                                               ground_truth=ex.response)
                        out.extend(pipe.pools_to_triples([pool], sup))
                    except Exception:   # noqa: BLE001 - one failed pool must not stop the run
                        _boundary_failure(f"labelling pool {part}:{i}")
                        phase.failed += 1
                        continue
                    pool_times.append(time.perf_counter() - t0)
                    phase.succeeded += 1
                    pools.append(pool)
        e2e["label_pools_per_s"] = 1.0 / statistics.median(pool_times)
        for pool in pools:
            if not any(c.provenance == hc.metrics.GENERATED for c in pool.candidates):
                phase.degrade("empty_generation")
            if len(pool.candidates) <= sup.k_prime:
                phase.degrade("pool_too_small")
        notes.append(f"label: {phase.attempted} pools -> {len(triples)} train / "
                     f"{len(valid_triples)} valid triples")

    def ranker_phase():
        rank_steps = max(10, round(spec.ranker_steps_per_s * seconds))
        rcfg = dataclasses.replace(cfg.ranker_train_config(_seed_int(seed, 4)),
                                   max_steps=rank_steps)
        consumed = _batches_consumed(len(triples), rcfg.batch_size, rank_steps)
        phases["ranker"].attempted = 1
        accuracy = float("nan")
        tracer.tag = "rank-step:1"
        try:
            t0 = time.perf_counter()
            with tracer.span("stage.ranker"):
                rlog = rank.train_ranker(trained.ranker, triples, valid_triples, vocab, rcfg,
                                         vocab_hash=vocab.sha256(), ckpt_path=cfg.ranker_ckpt)
            dt = time.perf_counter() - t0
            phases["ranker"].succeeded = 1
            e2e["rank_train_triples_per_s"] = consumed / dt
            accuracy = rlog.best_accuracy
            losses = [h["train_loss"] for h in rlog.history]
            check("ranker losses finite", all(math.isfinite(x) for x in losses),
                  f"{sum(not math.isfinite(x) for x in losses)} of {len(losses)} not finite")
            if not spec.chat:
                check("held-out pairwise accuracy > 0.5", accuracy > 0.5,
                      f"{accuracy:.4f} on {len(valid_triples)} triples")
        except Exception:   # noqa: BLE001 - phase boundary: count, report, keep going
            _boundary_failure("ranker training")
            phases["ranker"].failed = 1
            check("ranker training", False, "raised")
        notes.append(f"ranker: {rank_steps} steps, {consumed} triples consumed, "
                     f"held-out pairwise accuracy {accuracy:.4f}")

    def query_phase():
        phase = phases["query"]
        start = time.perf_counter()
        deadline = start + spec.query_share * seconds
        latencies: list[float] = []
        i = 0
        while i < spec.min_queries or time.perf_counter() < deadline:
            q = queries[i % len(queries)]
            tracer.tag = f"q:{i}"
            phase.attempted += 1
            t0 = time.perf_counter()
            try:
                with tracer.span("stage.query"):
                    ctx = txt.tokenize(q.text)
                    facts = [txt.tokenize(f) for f in q.facts]
                    pool = pipe.build_pool(artifacts, ctx, facts, cfg)
                    chosen = pipe.choose_response(artifacts, pool, cfg)
                latencies.append(time.perf_counter() - t0)
                phase.succeeded += 1
                answered.append((i, ctx, facts, pool, chosen))
            except Exception:   # noqa: BLE001 - a failed query is counted, not fatal
                _boundary_failure(f"query {i}")
                latencies.append(math.inf)
                phase.failed += 1
            i += 1
        tracer.tag = None
        # The chat workloads query before training, so this peak is that of
        # the chat path (set-up included); train-desk queries last.
        e2e["peak_rss_mb"] = _peak_rss_mb()
        e2e["query_p50_ms"] = 1000.0 * percentile(latencies, 50.0)
        e2e["query_tail_ms"] = 1000.0 * percentile(latencies, spec.tail_pct)
        beyond = sum(1 for x in latencies if x > e2e["query_tail_ms"] / 1000.0)
        notes.append(f"query_tail_ms is p{spec.tail_pct:g} of {len(latencies)} queries "
                     f"({beyond} beyond it); closed loop, 1 client; "
                     f"measured {time.perf_counter() - start:.1f} s")

    order = [("generator", generator_phase), ("label", label_phase),
             ("ranker", ranker_phase), ("query", query_phase)]
    if spec.chat:   # chat answers right after set-up, before any training
        order.insert(0, order.pop())
    for name, run_phase in order:
        gc.collect()
        run_phase()
        rss[name] = _peak_rss_mb()
    notes.append("peak RSS after each phase (MB): "
                 + ", ".join(f"{k} {v:.0f}" for k, v in rss.items()))

    # deferred output checks, untraced ---------------------------------------------------
    if hasattr(tracer, "uninstall"):
        tracer.uninstall()
    _query_checks(hc, spec, cfg, artifacts, splits, answered, phases["query"], check)
    check("no operation failed", all(p.failed == 0 for p in phases.values()),
          ", ".join(f"{k}={p.failed}" for k, p in phases.items()))
    return Result(e2e=e2e, phases=phases, checks=results, notes=notes)


def _query_checks(hc, spec, cfg, artifacts, splits, answered, query_phase, check):
    pipe, gen, txt = hc.pipeline, hc.generation, hc.textcore
    GENERATED = hc.metrics.GENERATED
    bad_member = []
    for i, ctx, facts, pool, chosen in answered:
        if not any(c.provenance == GENERATED for c in pool.candidates):
            query_phase.degrade("empty_generation")
        if pool.candidates:
            if not any(c is chosen for c in pool.candidates):
                bad_member.append(i)
        else:
            query_phase.degrade("fallback")
            if chosen.tokens != pipe.fallback_response(artifacts.index, ctx):
                bad_member.append(i)
    check("chosen response is in its pool or is the fallback", not bad_member,
          f"violations at queries {bad_member[:10]}")

    oracle = checks.BruteForceBm25(repository_pairs(spec, cfg.seed, splits),
                                   artifacts.index.k1, artifacts.index.b)
    sample = answered[: spec.check_sample]
    bad_ret, beam_errs, bad_gen = [], [], []
    for i, ctx, facts, pool, chosen in sample:
        problem = checks.retrieval_matches(
            oracle, hc.retrieval.retrieve(ctx, artifacts.index, k=cfg.retrieval_k),
            ctx, cfg.retrieval_k)
        if problem:
            bad_ret.append(f"q{i}: {problem}")
        ctx_ids = txt.encode(ctx, artifacts.vocab, max_len=cfg.max_len)
        facts_ids = [txt.encode(f, artifacts.vocab, max_len=cfg.max_len) for f in facts]
        ids, score, err = checks.beam_score_error(hc, artifacts.generator, ctx_ids, facts_ids,
                                                  cfg.beam_size, cfg.max_len)
        beam_errs.append(err)
        generated = [c for c in pool.candidates if c.provenance == GENERATED]
        want = txt.decode(ids, artifacts.vocab) if ids else None
        if (generated[0].tokens if generated else None) != want:
            bad_gen.append(i)
    check(f"retrieval top-{cfg.retrieval_k} equals brute-force BM25 on {len(sample)} queries",
          not bad_ret, "; ".join(bad_ret[:3]))
    worst = max(beam_errs, default=0.0)
    check(f"top beam score equals teacher-forced log-likelihood on {len(beam_errs)} queries",
          bool(beam_errs) and worst <= 1e-9, f"max error {worst:.3g}")
    check("pool's generated candidate is the top beam hypothesis", not bad_gen,
          f"mismatch at queries {bad_gen[:10]}")
