"""Command-line entry points for every pipeline stage.

Stage commands (build-index, train-generator, generate, label,
train-ranker, rerank, evaluate) operate on files so each step can be
inspected; `run`, `ablate`, and `chat` drive the whole pipeline from one
config file.  `init-config` writes a fully keyed default config and
`synth-data` emits a deterministic toy corpus to try everything on.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from .generation import GeneratorModel, beam_search, train_generator
from .metrics import count_picks, evaluate_run
from .pipeline import (
    PipelineConfig,
    _seed_streams,
    ablation_table_json,
    chat,
    default_config_text,
    encode_corpus,
    pools_to_triples,
    prepare_artifacts,
    read_candidates_jsonl,
    run_ablation,
    run_pipeline,
)
from .ranking import RankerModel, SupervisionConfig, TrainingTriple, rerank, train_ranker
from .retrieval import RepositoryIndex, build_index, retrieve
from .textcore import (
    Vocabulary,
    decode,
    encode,
    load_corpus,
    read_jsonl,
    save_corpus,
    tokenize,
)


def _sibling_vocab(path: str, explicit: str | None) -> Vocabulary:
    vocab_path = explicit or os.path.join(os.path.dirname(os.path.abspath(path)), "vocab.txt")
    return Vocabulary.load(vocab_path)


def _read_jsonl(path: str, names: tuple[str, ...]) -> list[dict]:
    return [obj for _, obj in read_jsonl(path, names)]


def cmd_init_config(args) -> int:
    text = default_config_text(desk=args.desk)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {'desk' if args.desk else 'full'}-scale config to {args.out}")
    return 0


def cmd_synth_data(args) -> int:
    from .synth import synthetic_corpus

    os.makedirs(args.out_dir, exist_ok=True)
    seed = args.seed if args.seed is not None else 0
    sizes = {"train": args.train, "valid": args.valid, "test": args.test}
    for split, n in sizes.items():
        corpus = synthetic_corpus(n, seed=seed, split=split,
                                  with_facts=not args.no_facts)
        path = os.path.join(args.out_dir, f"{split}.jsonl")
        save_corpus(corpus, path)
        print(f"wrote {n} examples to {path}")
    return 0


def cmd_build_index(args) -> int:
    corpus = load_corpus(args.corpus)
    index = build_index([(ex.context, ex.response) for ex in corpus])
    index.save(args.out)
    print(f"indexed {index.n_docs} pairs -> {args.out}")
    return 0


def cmd_retrieve(args) -> int:
    index = RepositoryIndex.load(args.index)
    queries = [args.query] if args.query else [line.strip() for line in sys.stdin if line.strip()]
    for q in queries:
        results = retrieve(tokenize(q), index, k=args.k)
        print(json.dumps({
            "query": q,
            "results": [
                {"rank": r.rank, "score": round(r.score, 6), "doc_id": r.doc_id,
                 "response": " ".join(r.response)}
                for r in results
            ],
        }))
    return 0


def cmd_train_generator(args) -> int:
    cfg = _load_config(args)
    if args.corpus:
        cfg.train_corpus = os.path.abspath(args.corpus)
    if args.facts is not None:
        cfg.gen_facts = args.facts == "on"
    train = load_corpus(cfg.train_corpus, "train")
    valid = load_corpus(cfg.valid_corpus, "valid") if os.path.exists(cfg.valid_corpus) else train
    vocab = Vocabulary.build(train, cfg.vocab_max_size, cfg.vocab_min_count)
    out_dir = os.path.dirname(os.path.abspath(args.out)) or "."
    os.makedirs(out_dir, exist_ok=True)
    vocab.save(os.path.join(out_dir, "vocab.txt"))
    seeds = _seed_streams(cfg.seed)
    model = GeneratorModel(cfg.generator_config(len(vocab)),
                           np.random.default_rng(seeds["generator_init"]))
    log = train_generator(
        model,
        encode_corpus(train, vocab, cfg.max_len),
        encode_corpus(valid, vocab, cfg.max_len),
        cfg.generator_train_config(seeds["generator_train"]),
        vocab_hash=vocab.sha256(),
        ckpt_path=args.out,
    )
    print(f"trained {log.steps_run} steps; best valid ppl {log.best_metric:.4f} -> {args.out}")
    return 0


def cmd_generate(args) -> int:
    model = GeneratorModel.load(args.ckpt)
    vocab = _sibling_vocab(args.ckpt, args.vocab)
    rows = _read_jsonl(args.input, ("context",))
    with open(args.out, "w", encoding="utf-8") as fh:
        for row in rows:
            ctx = encode(tokenize(row["context"]), vocab, max_len=args.max_len)
            facts = [encode(tokenize(f), vocab, max_len=args.max_len)
                     for f in row.get("facts", [])]
            hyps = beam_search(model, ctx, facts, beam_size=args.beam, max_len=args.max_len)
            ids, score = hyps[0] if hyps else ([], float("-inf"))
            fh.write(json.dumps({
                "context": row["context"],
                "generated": " ".join(decode(ids, vocab)),
                "score": score,
            }) + "\n")
    print(f"generated {len(rows)} responses -> {args.out}")
    return 0


def cmd_label(args) -> int:
    pools = read_candidates_jsonl(args.candidates)
    if any(pool.ground_truth is None for pool in pools):
        raise ValueError("labeling requires ground_truth on every candidate line")
    triples = pools_to_triples(pools, SupervisionConfig(signal=args.signal, k_prime=args.kprime))
    with open(args.out, "w", encoding="utf-8") as fh:
        for t in triples:
            fh.write(json.dumps({
                "context": " ".join(t.context),
                "positive": " ".join(t.positive),
                "negative": " ".join(t.negative),
            }) + "\n")
    print(f"wrote {len(triples)} training triples -> {args.out}")
    return 0


def cmd_train_ranker(args) -> int:
    cfg = _load_config(args)
    rows = _read_jsonl(args.triples, ("context", "positive", "negative"))
    triples = [TrainingTriple(tokenize(r["context"]), tokenize(r["positive"]),
                              tokenize(r["negative"])) for r in rows]
    vocab = _sibling_vocab(args.out, args.vocab)
    seeds = _seed_streams(cfg.seed)
    n_valid = max(1, len(triples) // 10)
    model = RankerModel(cfg.ranker_config(len(vocab)),
                        np.random.default_rng(seeds["ranker_init"]))
    log = train_ranker(model, triples[n_valid:], triples[:n_valid], vocab,
                       cfg.ranker_train_config(seeds["ranker_train"]),
                       vocab_hash=vocab.sha256(), ckpt_path=args.out)
    print(f"trained {log.steps_run} steps; best pairwise accuracy "
          f"{log.best_accuracy:.4f} -> {args.out}")
    return 0


def cmd_rerank(args) -> int:
    model = RankerModel.load(args.ckpt)
    vocab = _sibling_vocab(args.ckpt, args.vocab)
    pools = read_candidates_jsonl(args.candidates)
    picks = []
    with open(args.out, "w", encoding="utf-8") as fh:
        for pool in pools:
            result = rerank(model, vocab, pool)
            top = result.chosen
            picks.append((top.provenance, top.rank))
            fh.write(json.dumps({
                "context": " ".join(pool.context),
                "chosen": " ".join(top.tokens),
                "provenance": top.provenance,
                "rank": top.rank,
                "scores": [round(s, 6) for s in result.scores],
            }) + "\n")
    if args.stats:
        with open(args.stats, "w", encoding="utf-8") as fh:
            json.dump({**count_picks(picks), "n": len(pools)}, fh, indent=2)
    print(f"re-ranked {len(pools)} pools -> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    hyp = [tokenize(r["response"]) for r in _read_jsonl(args.hyp, ("response",))]
    ref = [tokenize(r["response"]) for r in _read_jsonl(args.ref, ("response",))]
    report = evaluate_run(hyp, ref)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2)
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def _load_config(args) -> PipelineConfig:
    cfg = PipelineConfig.from_file(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def cmd_run(args) -> int:
    cfg = _load_config(args)
    manifest = run_pipeline(cfg, retrain=args.retrain)
    if args.manifest:
        with open(args.manifest, "w", encoding="utf-8") as fh:
            fh.write(manifest.to_json())
    report = manifest.report
    print(f"BLEU {report.bleu:.4f}  ROUGE-L {report.rouge_l:.4f}  "
          f"Distinct-1 {report.distinct1:.4f}  Distinct-2 {report.distinct2:.4f}")
    total = max(report.n_examples, 1)
    print(f"picked generated {report.picked_gen} ({100.0 * report.picked_gen / total:.2f}%)  "
          f"retrieved {report.picked_ret} ({100.0 * report.picked_ret / total:.2f}%)  "
          f"top1-bm25 {report.picked_top1_bm25}")
    return 0


def cmd_ablate(args) -> int:
    cfg = _load_config(args)
    rows = run_ablation(cfg, axis=args.axis, retrain=args.retrain)
    table = ablation_table_json(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(table)
    print(table)
    return 0


def cmd_chat(args) -> int:
    cfg = _load_config(args)
    artifacts, _ = prepare_artifacts(cfg)
    return chat(artifacts, cfg)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridchat",
        description="hybrid retrieval-generation conversation pipeline",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init-config", help="write a fully keyed config file")
    p.add_argument("--out", required=True)
    p.add_argument("--desk", action="store_true", help="desk-scale values instead of full training scale")
    p.set_defaults(fn=cmd_init_config)

    p = sub.add_parser("synth-data", help="write a deterministic synthetic corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--train", type=int, default=300)
    p.add_argument("--valid", type=int, default=40)
    p.add_argument("--test", type=int, default=40)
    p.add_argument("--no-facts", action="store_true")
    p.set_defaults(fn=cmd_synth_data)

    p = sub.add_parser("build-index", help="index a corpus for retrieval")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_build_index)

    p = sub.add_parser("retrieve", help="query an index (stdin lines or --query)")
    p.add_argument("--index", required=True)
    p.add_argument("--k", type=int, default=PipelineConfig.retrieval_k)
    p.add_argument("--query")
    p.set_defaults(fn=cmd_retrieve)

    p = sub.add_parser("train-generator", help="train the seq2seq generator")
    p.add_argument("--config", required=True)
    p.add_argument("--corpus", help="override the config's training corpus")
    p.add_argument("--facts", choices=("on", "off"),
                   help="override the config's [generator] facts")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train_generator)

    p = sub.add_parser("generate", help="beam-generate responses for a JSONL of contexts")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--vocab", help="vocabulary file (default: vocab.txt next to ckpt)")
    p.add_argument("--beam", type=int, default=PipelineConfig.beam_size)
    p.add_argument("--max-len", type=int, default=PipelineConfig.max_len)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("label", help="distant-supervision labels -> training triples")
    p.add_argument("--candidates", required=True)
    p.add_argument("--signal", choices=("bleu1", "bleu2", "rougel", "sentbleu"),
                   default=PipelineConfig.signal)
    p.add_argument("--kprime", type=int, default=PipelineConfig.k_prime)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_label)

    p = sub.add_parser("train-ranker", help="train the CNN matcher on triples")
    p.add_argument("--triples", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--vocab", help="vocabulary file (default: vocab.txt next to --out)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train_ranker)

    p = sub.add_parser("rerank", help="re-rank candidate pools from a JSONL file")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--vocab", help="vocabulary file (default: vocab.txt next to ckpt)")
    p.add_argument("--candidates", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stats", help="write selection statistics JSON here")
    p.set_defaults(fn=cmd_rerank)

    p = sub.add_parser("evaluate", help="score hypotheses against references")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("run", help="full pipeline over the test corpus")
    p.add_argument("--config", required=True)
    p.add_argument("--manifest", help="write the run manifest JSON here")
    p.add_argument("--retrain", action="store_true", help="rebuild all artifacts")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("ablate", help="supervision-signal or k' ablation table")
    p.add_argument("--config", required=True)
    p.add_argument("--axis", choices=("signal", "kprime"), required=True)
    p.add_argument("--out", help="write the table JSON here")
    p.add_argument("--retrain", action="store_true")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("chat", help="interactive single-turn REPL")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_chat)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.fn(args)
    except (ValueError, FileNotFoundError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
