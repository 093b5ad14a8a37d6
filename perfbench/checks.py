"""Output checks that do not trust the code under test.

The BM25 oracle scores every document of the repository from the raw
(context, response) pairs, so it shares no data structure with the
inverted index.  The beam check re-scores the top hypothesis by teacher
forcing through the training loss.
"""

from __future__ import annotations

import math

import numpy as np


class BruteForceBm25:
    """Okapi BM25 over every document, computed column-wise with numpy.

    Follows the retrieval spec term by term (repeated query terms count
    with multiplicity, in query order), so scores agree with the index to
    the last bit when both are right.
    """

    def __init__(self, pairs, k1: float, b: float):
        self.k1, self.b = k1, b
        self.term_id: dict[str, int] = {}
        rows = [[self.term_id.setdefault(t, len(self.term_id)) for t in ctx] for ctx, _ in pairs]
        self.n = len(rows)
        width = max(len(r) for r in rows)
        self.mat = np.full((self.n, width), -1, dtype=np.int64)
        for i, r in enumerate(rows):
            self.mat[i, : len(r)] = r
        lengths = [len(r) for r in rows]
        self.dl = np.asarray(lengths, dtype=np.float64)
        self.avgdl = sum(lengths) / self.n
        self.responses = [" ".join(resp) for _, resp in pairs]

    def scores(self, query: list[str]) -> np.ndarray:
        k1, b = self.k1, self.b
        out = np.zeros(self.n)
        for term in query:
            tid = self.term_id.get(term)
            if tid is None:
                continue
            tf = (self.mat == tid).sum(axis=1)
            df = int((tf > 0).sum())
            idf = math.log(1.0 + (self.n - df + 0.5) / (df + 0.5))
            part = tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * self.dl / self.avgdl))
            out += np.where(tf > 0, idf * part, 0.0)
        return out

    def top_k(self, query: list[str], k: int) -> list[tuple[int, float]]:
        """(doc id, score) best first; positive scores only, ties by doc id,
        repeated response strings dropped."""
        s = self.scores(query)
        docs = np.nonzero(s > 0.0)[0]
        order = docs[np.lexsort((docs, -s[docs]))]
        out, seen = [], set()
        for d in order.tolist():
            if self.responses[d] in seen:
                continue
            seen.add(self.responses[d])
            out.append((d, float(s[d])))
            if len(out) == k:
                break
        return out


def retrieval_matches(oracle: BruteForceBm25, retrieved, query, k) -> str | None:
    """None when retrieve() returned the oracle's top-k, else a description."""
    want = oracle.top_k(query, k)
    got = [(r.doc_id, r.score) for r in retrieved]
    if [d for d, _ in want] != [d for d, _ in got]:
        return f"doc ids {[d for d, _ in got]} != brute force {[d for d, _ in want]}"
    worst = max((abs(a - b) for (_, a), (_, b) in zip(want, got)), default=0.0)
    if worst > 1e-9:
        return f"scores differ from brute force by {worst:.3g}"
    return None


def beam_score_error(hc, model, ctx_ids, facts_ids, beam_size, max_len):
    """(top hypothesis ids, its score, |score - teacher-forced normalized log-likelihood|).

    A hypothesis shorter than max_len (the empty one too) finished on EOS,
    which its score includes.
    """
    gen, textcore = hc.generation, hc.textcore
    hyps = gen.beam_search(model, ctx_ids, facts_ids, beam_size=beam_size, max_len=max_len)
    ids, score = hyps[0]
    target = ids + [textcore.EOS_ID] if len(ids) < max_len else list(ids)
    facts = [f for f in facts_ids if f] if model.config.use_facts else []
    batch = gen.make_batch([(list(ctx_ids), facts, target)])
    with hc.autodiff.no_grad():
        loss, n_tok = gen.nll_loss(model, batch)
    expected = -float(loss.data) / n_tok
    return ids, score, abs(expected - score)
