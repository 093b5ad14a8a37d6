"""Which hybridchat calls a traced run wraps, and the per-layer metrics.

Span names are ``<module>.<callable>``; the stage spans (``stage.*``) come
from the benchmark's own phases.  Each per-layer metric of BENCHMARK.json
is derived from the spans after the run; see README.md for the end-to-end
metric each one is expected to move.
"""

from __future__ import annotations

import statistics

from tracing import Tracer

# Every TAPE_SAMPLE-th backward call also counts the nodes reachable from
# the loss, outside the timed span.
TAPE_SAMPLE = 10
# pipeline.inference_s times one pass of this many queries.
INFERENCE_QUERIES = 40


def _tape_nodes(root) -> int:
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for p in node.parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def install(tracer: Tracer, hc) -> None:
    """Wrap the calls of every layer; `hc` is the imported hybridchat namespace."""
    ad, gen, rank, ret, txt = hc.autodiff, hc.generation, hc.ranking, hc.retrieval, hc.textcore
    ckpt, optim, pipe = hc.checkpoint, hc.optim, hc.pipeline

    backward_calls = [0]

    def sample_tape(args):
        backward_calls[0] += 1
        if backward_calls[0] % TAPE_SAMPLE == 1:
            return _tape_nodes(args[0])
        return None

    def next_step(args, kwargs, result):
        # Spans after an optimizer step belong to the next training step.
        if isinstance(tracer.tag, str) and ":" in tracer.tag:
            kind, n = tracer.tag.rsplit(":", 1)
            tracer.tag = f"{kind}:{int(n) + 1}"
        return None

    def postings(args, kwargs, result):
        index, query = args[0], args[1]
        scanned = sum(len(index.postings.get(t, ())) for t in query)
        return (scanned, sum(1 for s in result.values() if s > 0.0))

    def length(args, kwargs, result):
        return len(result)

    # pipeline
    tracer.patch_function(pipe.build_pool, "pipeline.build_pool")
    tracer.patch_function(pipe.generate_candidate, "pipeline.generate_candidate")
    tracer.patch_function(pipe.choose_response, "pipeline.choose_response")
    tracer.patch_function(pipe.fallback_response, "pipeline.fallback_response")
    tracer.patch_function(pipe.pools_to_triples, "pipeline.pools_to_triples")
    # textcore
    tracer.patch_function(txt.load_corpus, "textcore.load_corpus")
    tracer.patch_method(txt.Vocabulary, "build", "textcore.Vocabulary.build")
    # retrieval
    tracer.patch_function(ret.build_index, "retrieval.build_index")
    tracer.patch_function(ret.retrieve, "retrieval.retrieve", count=length)
    tracer.patch_method(ret.RepositoryIndex, "score_all", "retrieval.score_all", count=postings)
    tracer.patch_method(ret.RepositoryIndex, "save", "retrieval.RepositoryIndex.save")
    tracer.patch_method(ret.RepositoryIndex, "load", "retrieval.RepositoryIndex.load")
    # generation
    tracer.patch_function(gen.train_generator, "generation.train_generator")
    tracer.patch_function(gen.nll_loss, "generation.nll_loss")
    tracer.patch_function(gen.perplexity, "generation.perplexity")
    tracer.patch_function(gen.beam_search, "generation.beam_search", count=length)
    tracer.patch_method(gen.DecodingSession, "__init__", "generation.DecodingSession.__init__")
    tracer.patch_method(gen.DecodingSession, "step", "generation.DecodingSession.step")
    # ranking (make_distant_labels is the metrics layer's distant-supervision signal)
    tracer.patch_function(rank.train_ranker, "ranking.train_ranker")
    tracer.patch_function(rank.score_batch, "ranking.score_batch")
    tracer.patch_function(rank.pairwise_accuracy, "ranking.pairwise_accuracy")
    tracer.patch_function(rank.rerank, "ranking.rerank",
                          count=lambda a, k, r: len(r.ranked))
    tracer.patch_function(rank.make_distant_labels, "metrics.make_distant_labels")
    # nncore
    tracer.patch_method(ad.Tensor, "backward", "nncore.Tensor.backward", before=sample_tape)
    tracer.patch_function(ad.conv2d_valid, "nncore.conv2d_valid")
    tracer.patch_function(optim.clip_global_norm, "nncore.clip_global_norm")
    tracer.patch_method(optim.Adam, "step", "nncore.Adam.step", count=next_step)
    tracer.patch_function(ckpt.save_checkpoint, "nncore.save_checkpoint")
    tracer.patch_function(ckpt.load_checkpoint, "nncore.load_checkpoint")


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def per_layer_metrics(tracer: Tracer) -> dict[str, float]:
    spans = tracer.spans
    selfs = tracer.self_times()
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def parent_is(s, name):
        return s.parent is not None and spans[s.parent].name == name

    def under(s, name):
        p = s.parent
        while p is not None:
            if spans[p].name == name:
                return True
            p = spans[p].parent
        return False

    def ms(seq):
        return _median(1000.0 * s.dur for s in seq)

    def total(seq):
        return sum(s.dur for s in seq)

    train_gen, train_rank = "generation.train_generator", "ranking.train_ranker"
    beams = named("generation.beam_search")
    gen_bw = [s for s in named("nncore.Tensor.backward") if under(s, train_gen)]
    rank_bw = [s for s in named("nncore.Tensor.backward") if under(s, train_rank)]
    saves = [s for s in named("nncore.save_checkpoint")
             if under(s, train_gen) or under(s, train_rank)]
    adam = named("nncore.Adam.step")
    scores = [s for s in named("retrieval.score_all") if parent_is(s, "retrieval.retrieve")]
    retrieves = named("retrieval.retrieve")
    returned = sum(s.count for s in retrieves)
    setups = named("stage.setup")
    corpus_loads = [sum(c.dur for c in _descendants(children, s, "textcore.load_corpus"))
                    for s in setups]
    queries = named("stage.query")

    return {
        "pipeline.generator_s": total(named("stage.generator")),
        "pipeline.label_s": total(named("stage.label")),
        "pipeline.ranker_s": total(named("stage.ranker")),
        "pipeline.inference_s": total(queries[:INFERENCE_QUERIES]),
        "generation.nll_forward_ms": ms(s for s in named("generation.nll_loss")
                                        if parent_is(s, train_gen)),
        "generation.validate_s": total(s for s in named("generation.perplexity")
                                       if under(s, train_gen)),
        "generation.beam_ms": ms(beams),
        "generation.session_init_ms": ms(named("generation.DecodingSession.__init__")),
        "generation.decode_step_ms": _median(
            1000.0 * sum(c.dur for c in children.get(b.sid, ())
                         if c.name == "generation.DecodingSession.step")
            for b in beams),
        "generation.beam_self_ms": _median(1000.0 * selfs[b.sid] for b in beams),
        "generation.hyps_per_query": _median(b.count for b in beams),
        "nncore.gen_backward_ms": ms(gen_bw),
        "nncore.gen_tape_nodes": _median(s.count for s in gen_bw if s.count is not None),
        "nncore.rank_backward_ms": ms(rank_bw),
        "nncore.rank_tape_nodes": _median(s.count for s in rank_bw if s.count is not None),
        "nncore.optim_ms": 1000.0 * (total(named("nncore.clip_global_norm")) + total(adam))
        / max(len(adam), 1),
        "nncore.conv2d_ms": ms(named("nncore.conv2d_valid")),
        "nncore.ckpt_save_ms": ms(saves),
        "nncore.ckpt_saves": len(saves),
        "nncore.ckpt_load_ms": ms(named("nncore.load_checkpoint")),
        "ranking.score_batch_ms": ms(s for s in named("ranking.score_batch")
                                     if parent_is(s, train_rank)),
        "ranking.validate_s": total(s for s in named("ranking.pairwise_accuracy")
                                    if under(s, train_rank)),
        "ranking.rerank_ms": ms(named("ranking.rerank")),
        "ranking.pool_size": _median(s.count for s in named("ranking.rerank")),
        "metrics.label_ms": ms(named("metrics.make_distant_labels")),
        "retrieval.retrieve_ms": ms(retrieves),
        "retrieval.score_all_ms": ms(named("retrieval.score_all")),
        "retrieval.postings_per_query": _median(s.count[0] for s in scores),
        "retrieval.scored_per_returned": sum(s.count[1] for s in scores) / max(returned, 1),
        "retrieval.build_s": _median(s.dur for s in named("retrieval.build_index")),
        "retrieval.save_s": _median(s.dur for s in named("retrieval.RepositoryIndex.save")),
        "retrieval.load_s": _median(s.dur for s in named("retrieval.RepositoryIndex.load")),
        "textcore.load_corpus_s": _median(corpus_loads),
        "textcore.vocab_build_ms": ms(named("textcore.Vocabulary.build")),
    }


def _descendants(children, span, name):
    stack = list(children.get(span.sid, ()))
    while stack:
        s = stack.pop()
        if s.name == name:
            yield s
        stack.extend(children.get(s.sid, ()))


def isolation(layer: dict[str, float], e2e: dict[str, float], workload: str) -> list:
    """Checks that the workload loads the layer it was chosen for: (name, ok, detail)."""
    p50 = e2e["query_p50_ms"]
    if workload == "chat-wide":
        share = layer["retrieval.retrieve_ms"] / p50
        return [("isolation: retrieval.retrieve_ms is most of query_p50_ms", share > 0.5,
                 f"share {share:.2f}")]
    if workload == "chat-desk":
        beam = layer["generation.beam_ms"] / p50
        ret = layer["retrieval.retrieve_ms"] / p50
        return [("isolation: generation.beam_ms is most of query_p50_ms", beam > 0.5,
                 f"share {beam:.2f}"),
                ("isolation: retrieval.retrieve_ms is under a tenth of query_p50_ms", ret < 0.1,
                 f"share {ret:.3f}")]
    stages = {k: layer[k] for k in ("pipeline.generator_s", "pipeline.label_s",
                                    "pipeline.ranker_s", "pipeline.inference_s")}
    return [("isolation: pipeline.generator_s is the largest stage",
             max(stages, key=stages.get) == "pipeline.generator_s",
             ", ".join(f"{k.split('.')[1]}={v:.2f} s" for k, v in stages.items()))]
