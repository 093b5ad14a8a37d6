"""Seeded Zipfian conversation corpus for the repository-scale workload.

Where each parameter comes from:

- EXPONENT: word frequencies follow Zipf's law, cf_i ~ 1 / i, so the
  exponent is 1 (G. K. Zipf, Human Behavior and the Principle of Least
  Effort, 1949; Manning, Raghavan & Schuetze, Introduction to Information
  Retrieval, 2008, section 5.1.2; S. T. Piantadosi, Psychonomic Bulletin &
  Review 21(5), 2014, reviews fits close to 1).
- TYPES: Heaps' law M = k * T**b, with the fit k = 44, b = 0.49 that
  Introduction to Information Retrieval (section 5.1.1) gives for the
  Reuters-RCV1 collection, at the repository's T tokens.
- RESPONSE_LEN and COPY_RATE: the shape of the repository's own synthetic
  corpus (hybridchat.synth): its responses have 7..8 tokens, and 22% of
  response tokens occur in their own context (measured over 10,000
  synthetic pairs, seed 0).
- CONTEXT_LEN: from the shortest synthetic context (6 tokens) up to the
  desk config's max_len (15), the longest context the desk generator
  reads whole.  Lengths are drawn uniformly over each range.
- REPOSITORY_PAIRS: large enough that BM25 retrieval is most of a chat
  query's time at the desk config's beam size and vocabulary cap, which
  is what the workload is for.

Under this law a few terms have posting lists covering much of the
repository, so the BM25 scan cost grows with repository size, and the
vocabulary cap of the desk config is what bounds the generator's output
layer.  The copied tokens give the ranker a lexical-overlap signal.
"""

from __future__ import annotations

import zlib

import numpy as np

REPOSITORY_PAIRS = 130_000
EXPONENT = 1.0
COPY_RATE = 0.22
CONTEXT_LEN = (6, 16)        # [low, high) tokens
RESPONSE_LEN = (7, 9)
_MEAN_PAIR_TOKENS = (sum(CONTEXT_LEN) - 1) / 2 + (sum(RESPONSE_LEN) - 1) / 2
TYPES = round(44 * (REPOSITORY_PAIRS * _MEAN_PAIR_TOKENS) ** 0.49)

_WORDS = [f"w{i}" for i in range(TYPES)]


def _probs() -> np.ndarray:
    p = 1.0 / np.arange(1, TYPES + 1, dtype=np.float64) ** EXPONENT
    return p / p.sum()


def zipf_pairs(n: int, seed: int, split: str,
               cycle_lengths: bool = False) -> list[tuple[list[str], list[str]]]:
    """n (context, response) token lists; the same arguments give the same pairs.

    With cycle_lengths the context lengths run through CONTEXT_LEN in
    order instead of being drawn, so any run of consecutive pairs covers
    the lengths evenly: a run that answers only the first queries does not
    depend on how their lengths happened to fall.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(split.encode()), n]))
    p = _probs()
    clen = rng.integers(*CONTEXT_LEN, size=n)
    if cycle_lengths:
        lo, hi = CONTEXT_LEN
        clen = lo + np.arange(n) % (hi - lo)
    rlen = rng.integers(*RESPONSE_LEN, size=n)
    ctok = rng.choice(TYPES, size=int(clen.sum()), p=p)
    rtok = rng.choice(TYPES, size=int(rlen.sum()), p=p)
    copy = rng.random(int(rlen.sum())) < COPY_RATE
    pick = rng.random(int(rlen.sum()))
    pairs = []
    ci = ri = 0
    for a, b in zip(clen.tolist(), rlen.tolist()):
        ctx = ctok[ci: ci + a]
        resp = rtok[ri: ri + b].copy()
        mask = copy[ri: ri + b]
        resp[mask] = ctx[(pick[ri: ri + b][mask] * a).astype(np.int64)]
        pairs.append(([_WORDS[t] for t in ctx.tolist()], [_WORDS[t] for t in resp.tolist()]))
        ci += a
        ri += b
    return pairs
