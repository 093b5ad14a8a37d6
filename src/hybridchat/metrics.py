"""Evaluation metrics: corpus/sentence BLEU, ROUGE-L, Distinct-n, run reports.

The same functions double as distant-supervision signals for the ranker
(BLEU-1/BLEU-2 are corpus BLEU at max_n 1 and 2 on a single pair).
All scores live in [0, 1]; reports scale BLEU and ROUGE-L by 100.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass


def _ngram_counts(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _brevity_penalty(cand_len: int, ref_len: int) -> float:
    if cand_len == 0:
        return 0.0
    if cand_len >= ref_len:
        return 1.0
    return math.exp(1.0 - ref_len / cand_len)


def corpus_bleu(candidates: list[list[str]], references: list[list[str]], max_n: int = 4) -> float:
    """Corpus-pooled clipped n-gram precision BLEU with brevity penalty.

    Counts are pooled over the whole corpus before the geometric mean, so
    the score is invariant under permuting (candidate, reference) pairs
    jointly.  Any pooled precision of zero makes the score zero.
    """
    if len(candidates) != len(references):
        raise ValueError(f"{len(candidates)} candidates vs {len(references)} references")
    if not candidates:
        raise ValueError("corpus_bleu of an empty corpus")
    clipped = [0] * (max_n + 1)
    totals = [0] * (max_n + 1)
    cand_len = 0
    ref_len = 0
    for cand, ref in zip(candidates, references):
        cand_len += len(cand)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            counts = _ngram_counts(cand, n)
            ref_counts = _ngram_counts(ref, n)
            totals[n] += sum(counts.values())
            clipped[n] += sum(min(v, ref_counts[g]) for g, v in counts.items())
    log_sum = 0.0
    for n in range(1, max_n + 1):
        if totals[n] == 0 or clipped[n] == 0:
            return 0.0
        log_sum += math.log(clipped[n] / totals[n])
    return _brevity_penalty(cand_len, ref_len) * math.exp(log_sum / max_n)


def sentence_bleu(candidate: list[str], reference: list[str], max_n: int = 4) -> float:
    """Per-sentence BLEU with add-one smoothing on n >= 2 counts.

    Orders with no candidate n-grams at all (candidate shorter than n) are
    skipped from the geometric mean; a zero unigram precision still means
    zero.  Missing higher-order overlap therefore yields a small positive
    smoothed value rather than zero.
    """
    if not candidate:
        return 0.0
    log_ps = []
    for n in range(1, max_n + 1):
        total = len(candidate) - n + 1
        if total <= 0:
            continue
        counts = _ngram_counts(candidate, n)
        ref_counts = _ngram_counts(reference, n)
        clip = sum(min(v, ref_counts[g]) for g, v in counts.items())
        if n == 1:
            if clip == 0:
                return 0.0
            log_ps.append(math.log(clip / total))
        else:
            log_ps.append(math.log((clip + 1.0) / (total + 1.0)))
    return _brevity_penalty(len(candidate), len(reference)) * math.exp(
        sum(log_ps) / len(log_ps)
    )


def _lcs_length(a: list[str], b: list[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def rouge_l(candidate: list[str], reference: list[str], beta: float = 1.2) -> float:
    """LCS F-score: P = LCS/|cand|, R = LCS/|ref|, F = (1+b^2)PR / (R + b^2 P)."""
    lcs = _lcs_length(candidate, reference)
    if lcs == 0:
        return 0.0
    p = lcs / len(candidate)
    r = lcs / len(reference)
    return (1.0 + beta * beta) * p * r / (r + beta * beta * p)


def distinct_n(responses: list[list[str]], n: int) -> float:
    """Unique n-grams across all responses divided by the total word count.

    The denominator is total generated words for every n, so Distinct-2 of
    single-word responses is 0 by construction.
    """
    if not responses:
        raise ValueError("distinct_n of an empty response list")
    total_words = sum(len(r) for r in responses)
    if total_words == 0:
        return 0.0
    grams = set()
    for resp in responses:
        grams.update(tuple(resp[i:i + n]) for i in range(len(resp) - n + 1))
    return len(grams) / total_words


GENERATED = "generated"
RETRIEVED = "retrieved"

SIGNALS = {
    "bleu1": lambda cand, ref: corpus_bleu([cand], [ref], max_n=1),
    "bleu2": lambda cand, ref: corpus_bleu([cand], [ref], max_n=2),
    "rougel": rouge_l,
    "sentbleu": sentence_bleu,
}


@dataclass
class MetricReport:
    """Automatic metrics plus selection statistics for one evaluation run."""

    bleu: float                      # corpus BLEU-4, scaled x100
    rouge_l: float                   # mean per-example ROUGE-L F, scaled x100
    distinct1: float
    distinct2: float
    n_examples: int
    picked_gen: int = 0
    picked_ret: int = 0
    picked_top1_bm25: int = 0
    selection_recorded: bool = False

    def validate(self) -> None:
        if not 0.0 <= self.bleu <= 100.0:
            raise ValueError(f"bleu out of range: {self.bleu}")
        if not 0.0 <= self.rouge_l <= 100.0:
            raise ValueError(f"rouge_l out of range: {self.rouge_l}")
        for name, v in (("distinct1", self.distinct1), ("distinct2", self.distinct2)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} out of range: {v}")
        if self.selection_recorded:
            if self.picked_gen + self.picked_ret != self.n_examples:
                raise ValueError(
                    f"selection stats do not partition: {self.picked_gen} + "
                    f"{self.picked_ret} != {self.n_examples}"
                )
            if self.picked_top1_bm25 > self.picked_ret:
                raise ValueError("picked_top1_bm25 exceeds picked_ret")

    def to_dict(self) -> dict:
        return {
            "bleu": self.bleu,
            "rouge_l": self.rouge_l,
            "distinct1": self.distinct1,
            "distinct2": self.distinct2,
            "n_examples": self.n_examples,
            "picked_gen": self.picked_gen,
            "picked_ret": self.picked_ret,
            "picked_top1_bm25": self.picked_top1_bm25,
        }


def count_picks(provenance: list[tuple[str, int]]) -> dict[str, int]:
    """Selection statistics of (kind, retrieval_rank) pairs, keyed as in MetricReport."""
    counts = {"picked_gen": 0, "picked_ret": 0, "picked_top1_bm25": 0}
    for kind, rank in provenance:
        if kind == GENERATED:
            counts["picked_gen"] += 1
        elif kind == RETRIEVED:
            counts["picked_ret"] += 1
            if rank == 1:
                counts["picked_top1_bm25"] += 1
        else:
            raise ValueError(f"unknown provenance kind {kind!r}")
    return counts


def evaluate_run(
    outputs: list[list[str]],
    references: list[list[str]],
    provenance: list[tuple[str, int]] | None = None,
) -> MetricReport:
    """Score a system run; provenance entries are (kind, retrieval_rank) pairs.

    kind is "generated" or "retrieved"; retrieval_rank is the BM25 rank the
    chosen candidate came from (1-based, 0 for generated candidates).
    """
    if len(outputs) != len(references):
        raise ValueError(f"{len(outputs)} outputs vs {len(references)} references")
    if provenance is not None and len(provenance) != len(outputs):
        raise ValueError("provenance log length does not match outputs")
    picks = count_picks(provenance) if provenance is not None else {}
    per_rouge = [rouge_l(c, r) for c, r in zip(outputs, references)]
    report = MetricReport(
        bleu=100.0 * corpus_bleu(outputs, references, max_n=4),
        rouge_l=100.0 * (sum(per_rouge) / len(per_rouge)),
        distinct1=distinct_n(outputs, 1),
        distinct2=distinct_n(outputs, 2),
        n_examples=len(outputs),
        selection_recorded=provenance is not None,
        **picks,
    )
    report.validate()
    return report
