"""End-to-end orchestration: config files, artifact builds, runs, ablations, chat.

A run wires the three stages together per test context: retrieve up to K
responses from the repository, generate one candidate by beam search,
pool them, re-rank with the trained matcher, and emit the winner.  All
randomness derives from one seed, so a config hash plus seed pins every
byte of the output.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import json
import logging
import os
import sys
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .generation import (
    GeneratorConfig,
    GeneratorModel,
    GeneratorTrainConfig,
    beam_search,
    train_generator,
)
from .metrics import GENERATED, RETRIEVED, SIGNALS, MetricReport, evaluate_run
from .nncore.checkpoint import file_sha256
from .nncore.optim import TrainLog
from .ranking import (
    Candidate,
    CandidateSet,
    RankerConfig,
    RankerModel,
    RankerTrainConfig,
    SupervisionConfig,
    TrainingTriple,
    make_distant_labels,
    make_training_triples,
    rerank,
    train_ranker,
)
from .retrieval import DEFAULT_B, DEFAULT_K, DEFAULT_K1, RepositoryIndex, build_index, retrieve
from .textcore import (
    Corpus,
    Vocabulary,
    check_fields,
    decode,
    encode,
    load_corpus,
    read_jsonl,
    tokenize,
)

logger = logging.getLogger(__name__)

DESK_OVERRIDES = {
    "vocab": {"max_size": "2000"},
    "generator": {
        "embedding_size": "64",
        "hidden_size": "64",
        "dropout": "0.0",
        "learning_rate": "0.003",
        "steps_between_validation": "100",
        "batch_size": "25",
        "max_steps": "1500",
    },
    "ranker": {
        "embedding_size": "32",
        "conv_kernels": "16",
        "mlp_hidden": "64",
        "learning_rate": "0.002",
        "batch_size": "32",
        "steps_between_validation": "100",
        "max_steps": "600",
    },
    "run": {"beam_size": "5", "max_len": "15"},
}


def _key(section: str, key: str, default, words: tuple[str, str] = ("false", "true")):
    """A config field read from `[section] key`, with its full-scale default.

    The default's type is the field's type.  A bool is written as
    words[value] by `init-config`.
    """
    return field(default=default, metadata={"ini": (section, key), "words": words})


def _parse(f, text: str):
    """Typed value of one config string; errors name the `[section] key`."""
    kind = type(f.default)
    try:
        if kind is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
        return kind(text)
    except (KeyError, ValueError):
        section, key = f.metadata["ini"]
        want = "on/off, true/false, yes/no or 1/0" if kind is bool else kind.__name__
        raise ValueError(f"[{section}] {key}: cannot read {text!r} as {want}") from None


@dataclass
class PipelineConfig:
    """Typed view of one resolved config file.

    Each field is declared once, with its `[section] key` and full-scale
    default; parsing, `init-config` and the model configs all read this table.
    """

    train_corpus: str = _key("paths", "train_corpus", "data/train.jsonl")
    valid_corpus: str = _key("paths", "valid_corpus", "data/valid.jsonl")
    test_corpus: str = _key("paths", "test_corpus", "data/test.jsonl")
    workdir: str = _key("paths", "workdir", "work")
    vocab_max_size: int = _key("vocab", "max_size", 20000)
    vocab_min_count: int = _key("vocab", "min_count", 1)
    gen_facts: bool = _key("generator", "facts", True, words=("off", "on"))
    gen_embedding_size: int = _key("generator", "embedding_size", 256)
    gen_hidden_size: int = _key("generator", "hidden_size", 256)
    gen_layers: int = _key("generator", "lstm_layers", 2)
    gen_dropout: float = _key("generator", "dropout", 0.3)
    gen_lr: float = _key("generator", "learning_rate", 0.001)
    gen_lr_decay: float = _key("generator", "learning_rate_decay", 0.5)
    gen_validate_every: int = _key("generator", "steps_between_validation", 5000)
    gen_patience: int = _key("generator", "early_stopping_patience", 10)
    gen_batch_size: int = _key("generator", "batch_size", 500)
    gen_max_steps: int = _key("generator", "max_steps", 100000)
    retrieval_k: int = _key("retrieval", "k", DEFAULT_K)
    bm25_k1: float = _key("retrieval", "bm25_k1", DEFAULT_K1)
    bm25_b: float = _key("retrieval", "bm25_b", DEFAULT_B)
    rank_embedding_size: int = _key("ranker", "embedding_size", 300)
    matrix_size: int = _key("ranker", "matrix_size", 30)
    conv_window: int = _key("ranker", "conv_window", 6)
    pool_window: int = _key("ranker", "pool_window", 6)
    conv_kernels: int = _key("ranker", "conv_kernels", 64)
    conv_stages: int = _key("ranker", "conv_stages", 1)
    mlp_hidden: int = _key("ranker", "mlp_hidden", 128)
    rank_dropout: float = _key("ranker", "dropout", 0.5)
    rank_lr: float = _key("ranker", "learning_rate", 0.0001)
    rank_batch_size: int = _key("ranker", "batch_size", 500)
    rank_validate_every: int = _key("ranker", "steps_between_validation", 1000)
    rank_patience: int = _key("ranker", "early_stopping_patience", 10)
    rank_max_steps: int = _key("ranker", "max_steps", 50000)
    signal: str = _key("supervision", "signal", "bleu1")
    k_prime: int = _key("supervision", "k_prime", 3)
    margin: float = _key("supervision", "margin", 1.0)
    l2_coeff: float = _key("supervision", "l2_coeff", 0.0)
    seed: int = _key("run", "seed", 0)
    beam_size: int = _key("run", "beam_size", 10)
    max_len: int = _key("run", "max_len", 30)

    @classmethod
    def from_sections(cls, sections: dict) -> "PipelineConfig":
        table = {f.metadata["ini"]: f for f in fields(cls)}
        known = {section for section, _ in table}
        values = {}
        for section, kv in sections.items():
            if section not in known:
                raise ValueError(f"unknown config section [{section}]")
            for key, text in kv.items():
                f = table.get((section, key))
                if f is None:
                    raise ValueError(f"unknown config key {key!r} in [{section}]")
                values[f.name] = _parse(f, str(text))
        return cls(**values)

    @classmethod
    def from_file(cls, path: str) -> "PipelineConfig":
        parser = configparser.ConfigParser()
        if not parser.read(path, encoding="utf-8"):
            raise FileNotFoundError(f"config file not found: {path}")
        sections = {s: dict(parser.items(s)) for s in parser.sections()}
        cfg = cls.from_sections(sections)
        base = os.path.dirname(os.path.abspath(path))
        for attr in ("train_corpus", "valid_corpus", "test_corpus", "workdir"):
            value = getattr(cfg, attr)
            if value and not os.path.isabs(value):
                setattr(cfg, attr, os.path.join(base, value))
        return cfg

    # derived paths ----------------------------------------------------------

    @property
    def vocab_path(self) -> str:
        return os.path.join(self.workdir, "vocab.txt")

    @property
    def index_path(self) -> str:
        return os.path.join(self.workdir, "repository.idx")

    @property
    def generator_ckpt(self) -> str:
        return os.path.join(self.workdir, "generator.ckpt")

    @property
    def ranker_ckpt(self) -> str:
        return os.path.join(self.workdir, "ranker.ckpt")

    # sub-config builders ------------------------------------------------------

    def generator_config(self, vocab_size: int) -> GeneratorConfig:
        return GeneratorConfig(
            vocab_size,
            embedding_size=self.gen_embedding_size,
            hidden_size=self.gen_hidden_size,
            num_layers=self.gen_layers,
            use_facts=self.gen_facts,
            dropout=self.gen_dropout,
        )

    def generator_train_config(self, seed: int) -> GeneratorTrainConfig:
        return GeneratorTrainConfig(
            learning_rate=self.gen_lr,
            lr_decay=self.gen_lr_decay,
            validate_every=self.gen_validate_every,
            patience=self.gen_patience,
            batch_size=self.gen_batch_size,
            max_steps=self.gen_max_steps,
            seed=seed,
        )

    def ranker_config(self, vocab_size: int) -> RankerConfig:
        return RankerConfig(
            vocab_size,
            embedding_size=self.rank_embedding_size,
            matrix_size=self.matrix_size,
            conv_kernels=self.conv_kernels,
            conv_window=(self.conv_window, self.conv_window),
            pool_window=(self.pool_window, self.pool_window),
            conv_stages=self.conv_stages,
            mlp_hidden=self.mlp_hidden,
            dropout=self.rank_dropout,
        )

    def ranker_train_config(self, seed: int) -> RankerTrainConfig:
        return RankerTrainConfig(
            learning_rate=self.rank_lr,
            batch_size=self.rank_batch_size,
            validate_every=self.rank_validate_every,
            patience=self.rank_patience,
            max_steps=self.rank_max_steps,
            margin=self.margin,
            l2_coeff=self.l2_coeff,
            seed=seed,
        )

    def supervision_config(self) -> SupervisionConfig:
        return SupervisionConfig(signal=self.signal, k_prime=self.k_prime)

    def config_hash(self) -> str:
        payload = json.dumps(self.__dict__, sort_keys=True).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


def default_config_text(desk: bool = False) -> str:
    """Render a config file with every key spelled out.

    Full-scale defaults carry the training-scale hyperparameters (the
    facts-grounded generator column); the desk variant shrinks models and
    schedules for test-scale corpora.
    """
    values: dict[str, dict[str, str]] = {}
    for f in fields(PipelineConfig):
        section, key = f.metadata["ini"]
        default = f.default
        text = f.metadata["words"][default] if isinstance(default, bool) else str(default)
        values.setdefault(section, {})[key] = text
    if desk:
        for section, kv in DESK_OVERRIDES.items():
            values[section].update(kv)
    out = io.StringIO()
    for section, kv in values.items():
        out.write(f"[{section}]\n")
        for key, val in kv.items():
            out.write(f"{key} = {val}\n")
        out.write("\n")
    return out.getvalue()


@dataclass
class Artifacts:
    """Everything a run needs after the build stages."""

    vocab: Vocabulary
    index: RepositoryIndex
    generator: GeneratorModel
    ranker: RankerModel | None = None


@dataclass
class RunManifest:
    config_hash: str
    seed: int
    index_sha: str
    generator_sha: str
    ranker_sha: str
    report: MetricReport
    chosen: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "seed": self.seed,
            "index_sha": self.index_sha,
            "generator_sha": self.generator_sha,
            "ranker_sha": self.ranker_sha,
            "report": self.report.to_dict(),
            "chosen": self.chosen,
            "timings": {k: round(v, 4) for k, v in self.timings.items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _seed_streams(seed: int) -> dict[str, int]:
    children = np.random.SeedSequence(seed).spawn(4)
    names = ("generator_init", "generator_train", "ranker_init", "ranker_train")
    return {name: int(child.generate_state(1)[0]) for name, child in zip(names, children)}


def encode_corpus(corpus: Corpus, vocab: Vocabulary, max_len: int):
    """Corpus -> encoded (context, facts, target-with-EOS) triples."""
    out = []
    for ex in corpus:
        ctx = encode(ex.context, vocab, max_len=max_len)
        facts = [encode(f, vocab, max_len=max_len) for f in ex.facts]
        tgt = encode(ex.response, vocab, max_len=max_len, add_eos=True)
        out.append((ctx, [f for f in facts if f], tgt))
    return out


def generate_candidate(artifacts: Artifacts, ctx_tokens: list[str],
                       facts_tokens: list[list[str]], cfg: PipelineConfig):
    """Top beam hypothesis as a Candidate, or None when it comes back empty."""
    vocab = artifacts.vocab
    ctx_ids = encode(ctx_tokens, vocab, max_len=cfg.max_len)
    facts_ids = [encode(f, vocab, max_len=cfg.max_len) for f in facts_tokens]
    hyps = beam_search(artifacts.generator, ctx_ids, facts_ids,
                       beam_size=cfg.beam_size, max_len=cfg.max_len)
    if not hyps or not hyps[0][0]:
        return None
    ids, norm_score = hyps[0]
    return Candidate(decode(ids, vocab), GENERATED, rank=0, origin_score=norm_score)


def build_pool(artifacts: Artifacts, ctx_tokens: list[str],
               facts_tokens: list[list[str]], cfg: PipelineConfig,
               ground_truth: list[str] | None = None) -> CandidateSet:
    """Mix one generated candidate with up to K retrieved ones."""
    candidates = []
    generated = generate_candidate(artifacts, ctx_tokens, facts_tokens, cfg)
    if generated is not None:
        candidates.append(generated)
    else:
        logger.warning("generation produced nothing for context %r", " ".join(ctx_tokens))
    for r in retrieve(ctx_tokens, artifacts.index, k=cfg.retrieval_k):
        candidates.append(Candidate(r.response, RETRIEVED, rank=r.rank, origin_score=r.score))
    pool = CandidateSet(list(ctx_tokens), candidates, ground_truth=ground_truth)
    pool.validate()
    return pool


def fallback_response(index: RepositoryIndex, ctx_tokens: list[str]) -> list[str]:
    """Highest-BM25 repository response, falling back to doc 0 on no overlap."""
    scores = index.score_all(ctx_tokens)
    if scores:
        best = min(scores.items(), key=lambda item: (-item[1], item[0]))[0]
    else:
        best = 0
    return list(index.doc_store[best][1])


def choose_response(artifacts: Artifacts, pool: CandidateSet, cfg: PipelineConfig) -> Candidate:
    """Re-rank the pool, or apply the repository fallback when it is empty."""
    if pool.candidates:
        return rerank(artifacts.ranker, artifacts.vocab, pool).chosen
    logger.warning("empty candidate pool for %r; using repository fallback",
                   " ".join(pool.context))
    return Candidate(fallback_response(artifacts.index, pool.context),
                     RETRIEVED, rank=0, origin_score=0.0)


# -- artifact preparation --------------------------------------------------------


def build_generator(cfg: PipelineConfig, vocab: Vocabulary, train: Corpus, valid: Corpus,
                    ckpt_path: str | None = None) -> tuple[GeneratorModel, TrainLog]:
    """Init the generator from the seed's named streams and train it."""
    seeds = _seed_streams(cfg.seed)
    model = GeneratorModel(cfg.generator_config(len(vocab)),
                           np.random.default_rng(seeds["generator_init"]))
    log = train_generator(
        model,
        encode_corpus(train, vocab, cfg.max_len),
        encode_corpus(valid, vocab, cfg.max_len),
        cfg.generator_train_config(seeds["generator_train"]),
        vocab_hash=vocab.sha256(),
        ckpt_path=ckpt_path,
    )
    return model, log


def build_ranker(cfg: PipelineConfig, vocab: Vocabulary, triples: list[TrainingTriple],
                 valid_triples: list[TrainingTriple],
                 ckpt_path: str | None = None) -> tuple[RankerModel, TrainLog]:
    """Init the ranker from the seed's named streams and train it."""
    seeds = _seed_streams(cfg.seed)
    model = RankerModel(cfg.ranker_config(len(vocab)),
                        np.random.default_rng(seeds["ranker_init"]))
    log = train_ranker(model, triples, valid_triples, vocab,
                       cfg.ranker_train_config(seeds["ranker_train"]),
                       vocab_hash=vocab.sha256(), ckpt_path=ckpt_path)
    return model, log


def prepare_artifacts(cfg: PipelineConfig, retrain: bool = False,
                      timings: dict | None = None) -> tuple[Artifacts, dict[str, Corpus]]:
    """Build or load vocabulary, index, generator, and ranker.

    Existing files under the workdir are reused unless retrain is set.
    """
    timings = timings if timings is not None else {}
    os.makedirs(cfg.workdir, exist_ok=True)
    corpora = {
        "train": load_corpus(cfg.train_corpus, "train"),
        "valid": load_corpus(cfg.valid_corpus, "valid"),
        "test": load_corpus(cfg.test_corpus, "test"),
    }

    def stage(name: str, path: str, load, build, save: bool = False):
        """Load `path` if it may be reused, else build it; `save` writes what no trainer wrote."""
        t = time.perf_counter()
        if not retrain and os.path.exists(path):
            value = load(path)
        else:
            value = build()
            if save:
                value.save(path)
        timings[name] = time.perf_counter() - t
        return value

    def ranker_from_pools() -> RankerModel:
        sup = cfg.supervision_config()
        return build_ranker(cfg, vocab, corpus_triples(artifacts, corpora["train"], cfg, sup),
                            corpus_triples(artifacts, corpora["valid"], cfg, sup),
                            cfg.ranker_ckpt)[0]

    vocab = stage("vocab", cfg.vocab_path, Vocabulary.load, lambda: Vocabulary.build(
        corpora["train"], cfg.vocab_max_size, cfg.vocab_min_count), save=True)
    index = stage("index", cfg.index_path, RepositoryIndex.load, lambda: build_index(
        [(ex.context, ex.response) for ex in corpora["train"]], k1=cfg.bm25_k1, b=cfg.bm25_b),
        save=True)
    generator = stage(
        "generator", cfg.generator_ckpt, lambda path: GeneratorModel.load(path, vocab.sha256()),
        lambda: build_generator(cfg, vocab, corpora["train"], corpora["valid"],
                                cfg.generator_ckpt)[0])
    artifacts = Artifacts(vocab=vocab, index=index, generator=generator)
    artifacts.ranker = stage("ranker", cfg.ranker_ckpt,
                             lambda path: RankerModel.load(path, vocab.sha256()),
                             ranker_from_pools)
    return artifacts, corpora


def corpus_pools(artifacts: Artifacts, corpus: Corpus, cfg: PipelineConfig):
    """Candidate pool per example, ground truth attached."""
    return [
        build_pool(artifacts, ex.context, ex.facts, cfg, ground_truth=ex.response)
        for ex in corpus
    ]


def pools_to_triples(pools: list[CandidateSet], sup: SupervisionConfig) -> list[TrainingTriple]:
    """Distant labels then triples for every pool large enough to split."""
    triples: list[TrainingTriple] = []
    skipped = 0
    for pool in pools:
        if len(pool.candidates) <= sup.k_prime:
            skipped += 1
            continue
        pos, neg = make_distant_labels(pool, pool.ground_truth, sup)
        triples.extend(make_training_triples(pool.context, pool.ground_truth, pos, neg,
                                             sup.k_prime))
    if skipped:
        logger.warning("skipped %d contexts whose pools were not larger than k'=%d",
                       skipped, sup.k_prime)
    return triples


def corpus_triples(artifacts: Artifacts, corpus: Corpus, cfg: PipelineConfig,
                   sup: SupervisionConfig) -> list[TrainingTriple]:
    return pools_to_triples(corpus_pools(artifacts, corpus, cfg), sup)


# -- runs --------------------------------------------------------------------------


def evaluate_corpus(artifacts: Artifacts, corpus: Corpus, cfg: PipelineConfig,
                    pools: list[CandidateSet] | None = None):
    """Choose a response per example and score the run.

    Returns (MetricReport, chosen candidates, pools) so callers can check
    pool membership and provenance.
    """
    if pools is None:
        pools = [build_pool(artifacts, ex.context, ex.facts, cfg) for ex in corpus]
    chosen = [choose_response(artifacts, pool, cfg) for pool in pools]
    outputs = [c.tokens for c in chosen]
    references = [ex.response for ex in corpus]
    provenance = [(c.provenance, c.rank) for c in chosen]
    report = evaluate_run(outputs, references, provenance)
    return report, chosen, pools


def run_pipeline(cfg: PipelineConfig, retrain: bool = False) -> RunManifest:
    """Full retrieve -> generate -> re-rank pass over the test corpus."""
    timings: dict[str, float] = {}
    artifacts, corpora = prepare_artifacts(cfg, retrain=retrain, timings=timings)
    t = time.perf_counter()
    report, chosen, _ = evaluate_corpus(artifacts, corpora["test"], cfg)
    timings["inference"] = time.perf_counter() - t
    return RunManifest(
        config_hash=cfg.config_hash(),
        seed=cfg.seed,
        index_sha=file_sha256(cfg.index_path),
        generator_sha=file_sha256(cfg.generator_ckpt),
        ranker_sha=file_sha256(cfg.ranker_ckpt),
        report=report,
        chosen=[
            {"context": " ".join(ex.context), "response": " ".join(c.tokens),
             "provenance": c.provenance, "rank": c.rank}
            for c, ex in zip(chosen, corpora["test"])
        ],
        timings=timings,
    )


# axis name -> (SupervisionConfig field, the values one row each tries)
ABLATION_AXES = {
    "signal": ("signal", tuple(SIGNALS)),
    "kprime": ("k_prime", (1, 2, 3)),
}


@dataclass
class AblationRow:
    setting: str
    report: MetricReport | None = None
    error: str | None = None


def run_ablation(cfg: PipelineConfig, axis: str, retrain: bool = False) -> list[AblationRow]:
    """One train-ranker + evaluate cycle per setting along the chosen axis.

    axis "signal" varies the distant-supervision metric (4 rows); axis
    "kprime" varies positives per context (3 rows).  A failed cycle yields
    an error marker row instead of aborting the table.
    """
    if axis not in ABLATION_AXES:
        raise ValueError(f"unknown ablation axis {axis!r} (use one of {list(ABLATION_AXES)})")
    key, values = ABLATION_AXES[axis]

    artifacts, corpora = prepare_artifacts(cfg, retrain=retrain)
    train_pools = corpus_pools(artifacts, corpora["train"], cfg)
    valid_pools = corpus_pools(artifacts, corpora["valid"], cfg)
    test_pools = corpus_pools(artifacts, corpora["test"], cfg)

    rows = []
    for value in values:
        name = f"{key}={value}"
        try:
            sup = replace(cfg.supervision_config(), **{key: value})
            ranker, _ = build_ranker(cfg, artifacts.vocab, pools_to_triples(train_pools, sup),
                                     pools_to_triples(valid_pools, sup))
            scoped = Artifacts(artifacts.vocab, artifacts.index, artifacts.generator, ranker)
            report, _, _ = evaluate_corpus(scoped, corpora["test"], cfg, pools=test_pools)
            report.validate()
            rows.append(AblationRow(setting=name, report=report))
        except Exception as exc:   # noqa: BLE001 - row-level fault isolation
            logger.exception("ablation row %s failed", name)
            rows.append(AblationRow(setting=name, error=f"{type(exc).__name__}: {exc}"))
    return rows


def ablation_table_json(rows: list[AblationRow]) -> str:
    return json.dumps(
        [
            {"setting": r.setting,
             "report": r.report.to_dict() if r.report else None,
             "error": r.error}
            for r in rows
        ],
        indent=2,
    )


# -- interactive chat ----------------------------------------------------------------


def chat(artifacts: Artifacts, cfg: PipelineConfig,
         input_stream=None, output_stream=None) -> int:
    """Single-turn REPL: retrieve, generate, re-rank, print the winner.

    Empty input reprompts; `:quit` exits with status 0.  Each turn is
    stateless, so repeating an utterance repeats the response.
    """
    stdin = input_stream if input_stream is not None else sys.stdin
    stdout = output_stream if output_stream is not None else sys.stdout

    def say(text: str) -> None:
        stdout.write(text + "\n")
        stdout.flush()

    say("hybridchat ready. type an utterance, or :quit to exit.")
    while True:
        stdout.write("> ")
        stdout.flush()
        line = stdin.readline()
        if not line:
            break
        line = line.strip()
        if not line:
            say("(say something, or :quit to exit)")
            continue
        if line == ":quit":
            break
        ctx_tokens = tokenize(line)
        pool = build_pool(artifacts, ctx_tokens, [], cfg)
        if not pool.candidates:
            say(f"[fallback] {' '.join(fallback_response(artifacts.index, ctx_tokens))}")
            continue
        ranked = rerank(artifacts.ranker, artifacts.vocab, pool)
        top = ranked.chosen
        tag = top.provenance if top.provenance == GENERATED else f"retrieved#{top.rank}"
        say(f"[{tag}] {' '.join(top.tokens)}")
        for cand, s in list(zip(ranked.ranked, ranked.scores))[1:4]:
            alt_tag = cand.provenance if cand.provenance == GENERATED else f"retrieved#{cand.rank}"
            say(f"    alt [{alt_tag} score={s:+.4f}] {' '.join(cand.tokens)}")
    say("bye.")
    return 0


# -- candidate pool JSONL interchange ---------------------------------------------------


def write_candidates_jsonl(path: str, pools: list[CandidateSet]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for pool in pools:
            obj = {
                "context": " ".join(pool.context),
                "candidates": [
                    {"text": " ".join(c.tokens), "provenance": c.provenance, "rank": c.rank}
                    for c in pool.candidates
                ],
            }
            if pool.ground_truth is not None:
                obj["ground_truth"] = " ".join(pool.ground_truth)
            fh.write(json.dumps(obj) + "\n")


def read_candidates_jsonl(path: str) -> list[CandidateSet]:
    pools = []
    for lineno, obj in read_jsonl(path, ("context", "candidates")):
        cands = []
        for c in obj["candidates"]:
            check_fields(c, ("text", "provenance"), path, lineno)
            cands.append(Candidate(tokenize(c["text"]), c["provenance"], int(c.get("rank", 0))))
        gt = tokenize(obj["ground_truth"]) if "ground_truth" in obj else None
        pool = CandidateSet(tokenize(obj["context"]), cands, ground_truth=gt)
        pool.validate()
        pools.append(pool)
    return pools
