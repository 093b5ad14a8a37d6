"""BM25 retrieval over a historical context/response repository.

Contexts are indexed; queries are incoming contexts; results carry the
stored *responses* (context-context match).  Okapi BM25 with
idf = ln(1 + (N - df + 0.5)/(df + 0.5)), k1 = 1.2, b = 0.75.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass

import numpy as np

from .nncore.checkpoint import BinaryReader

DEFAULT_K = 9
DEFAULT_K1 = 1.2
DEFAULT_B = 0.75

_MAGIC = b"HYCHIDX1"
_VERSION = 1


@dataclass
class RetrievedCandidate:
    """One retrieved response with its provenance inside the repository."""

    response: list[str]
    doc_id: int
    score: float
    rank: int


class RepositoryIndex:
    """Inverted index over context text plus a (context, response) doc store.

    Construction is single-threaded; a built index is never mutated, so
    concurrent queries are safe.
    """

    def __init__(self, k1: float = DEFAULT_K1, b: float = DEFAULT_B):
        self.k1 = k1
        self.b = b
        self.postings: dict[str, list[tuple[int, int]]] = {}
        self.doc_lengths: list[int] = []
        self.avg_doc_length = 0.0
        self.doc_store: list[tuple[list[str], list[str]]] = []

    @property
    def n_docs(self) -> int:
        return len(self.doc_store)

    def validate(self) -> None:
        n = self.n_docs
        if len(self.doc_lengths) != n:
            raise ValueError("doc length table does not match doc store")
        for term, plist in self.postings.items():
            for doc_id, tf in plist:
                if not 0 <= doc_id < n:
                    raise ValueError(f"posting for {term!r} references invalid doc {doc_id}")
                if tf < 1:
                    raise ValueError(f"posting for {term!r} has term frequency {tf}")
        if n:
            expected = sum(self.doc_lengths) / n
            if abs(self.avg_doc_length - expected) > 1e-9:
                raise ValueError("average document length is inconsistent")

    # -- scoring -------------------------------------------------------------

    def idf(self, term: str) -> float:
        df = len(self.postings.get(term, ()))
        return math.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5))

    def _tf_part(self, tf: int, doc_id: int) -> float:
        dl = self.doc_lengths[doc_id]
        return tf * (self.k1 + 1.0) / (tf + self.k1 * (1.0 - self.b + self.b * dl / self.avg_doc_length))

    def bm25_score(self, query_terms: list[str], doc_id: int) -> float:
        """Okapi BM25 of one document; repeated query terms count with multiplicity."""
        if not 0 <= doc_id < self.n_docs:
            raise ValueError(f"invalid doc id {doc_id}")
        score = 0.0
        for term in query_terms:
            plist = self.postings.get(term)
            if not plist:
                continue
            tf = 0
            for d, f in plist:
                if d == doc_id:
                    tf = f
                    break
            if tf == 0:
                continue
            score += self.idf(term) * self._tf_part(tf, doc_id)
        return score

    def score_all(self, query_terms: list[str]) -> dict[int, float]:
        """Scores for every document sharing at least one query term."""
        scores: dict[int, float] = {}
        for term in query_terms:
            plist = self.postings.get(term)
            if not plist:
                continue
            w = self.idf(term)
            for doc_id, tf in plist:
                scores[doc_id] = scores.get(doc_id, 0.0) + w * self._tf_part(tf, doc_id)
        return scores

    # -- persistence -----------------------------------------------------------

    def save(self, path: str) -> None:
        buf = io.BytesIO()
        buf.write(_MAGIC)
        buf.write(struct.pack("<I", _VERSION))
        buf.write(struct.pack("<dd", self.k1, self.b))
        buf.write(struct.pack("<I", self.n_docs))
        buf.write(struct.pack("<d", self.avg_doc_length))
        for length in self.doc_lengths:
            buf.write(struct.pack("<I", length))
        for context, response in self.doc_store:
            for seq in (context, response):
                raw = " ".join(seq).encode("utf-8")
                buf.write(struct.pack("<I", len(raw)))
                buf.write(raw)
        terms = sorted(self.postings)
        buf.write(struct.pack("<I", len(terms)))
        for term in terms:
            raw = term.encode("utf-8")
            buf.write(struct.pack("<I", len(raw)))
            buf.write(raw)
            plist = self.postings[term]
            buf.write(struct.pack("<I", len(plist)))
            for doc_id, tf in plist:
                buf.write(struct.pack("<II", doc_id, tf))
        with open(path, "wb") as fh:
            fh.write(buf.getvalue())

    @classmethod
    def load(cls, path: str) -> "RepositoryIndex":
        """Read an index written by save(); ValueError naming `path` if it is bad."""
        with open(path, "rb") as fh:
            if fh.read(len(_MAGIC)) != _MAGIC:
                raise ValueError(f"{path}: not an index file")
            reader = BinaryReader(fh)
            try:
                (version,) = reader.unpack("<I")
                if version != _VERSION:
                    raise ValueError(f"{path}: unsupported index version {version}")
                index = cls._read_body(reader)
            except (EOFError, UnicodeDecodeError) as exc:
                raise ValueError(f"{path}: truncated or corrupt index ({exc!r})") from exc
        if reader.left:
            raise ValueError(f"{path}: truncated or corrupt index (trailing bytes)")
        try:
            index.validate()
        except ValueError as exc:
            raise ValueError(f"{path}: corrupt index ({exc})") from exc
        return index

    @classmethod
    def _read_body(cls, reader: BinaryReader) -> "RepositoryIndex":
        k1, b = reader.unpack("<dd")
        index = cls(k1=k1, b=b)
        (n,) = reader.unpack("<I")
        (index.avg_doc_length,) = reader.unpack("<d")
        index.doc_lengths = list(reader.unpack(f"<{n}I"))
        for _ in range(n):
            pair = []
            for _ in range(2):
                text = reader.read_str()
                pair.append(text.split(" ") if text else [])
            index.doc_store.append((pair[0], pair[1]))
        (n_terms,) = reader.unpack("<I")
        for _ in range(n_terms):
            term = reader.read_str()
            (n_post,) = reader.unpack("<I")
            flat = reader.unpack(f"<{2 * n_post}I")
            index.postings[term] = list(zip(flat[0::2], flat[1::2]))
        return index


def build_index(
    pairs: list[tuple[list[str], list[str]]],
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
) -> RepositoryIndex:
    """Index tokenized (context, response) pairs; postings stay in doc-id order."""
    if not pairs:
        raise ValueError("cannot build an index from no pairs")
    index = RepositoryIndex(k1=k1, b=b)
    for doc_id, (context, response) in enumerate(pairs):
        index.doc_store.append((list(context), list(response)))
        index.doc_lengths.append(len(context))
        counts: dict[str, int] = {}
        for term in context:
            counts[term] = counts.get(term, 0) + 1
        for term in sorted(counts):
            index.postings.setdefault(term, []).append((doc_id, counts[term]))
    index.avg_doc_length = sum(index.doc_lengths) / index.n_docs
    index.validate()
    return index


def retrieve(
    context: list[str],
    index: RepositoryIndex,
    k: int = DEFAULT_K,
) -> list[RetrievedCandidate]:
    """Top-k responses whose stored contexts best match the query context.

    Only documents with positive BM25 score qualify, ranked by (-score, doc
    id).  Duplicate response strings are removed, backfilling from the
    ranking tail, so fewer than k candidates can come back.  The ranking is
    exact but partial: the best 4k docs (with every doc tied at the cut) are
    sorted and deduplicated, and the window grows 4x while dedupe leaves
    fewer than k results and unsorted docs remain.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    scores = index.score_all(context)
    doc_ids = np.fromiter(scores.keys(), dtype=np.int64, count=len(scores))
    values = np.fromiter(scores.values(), dtype=np.float64, count=len(scores))
    positive = values > 0.0
    doc_ids, values = doc_ids[positive], values[positive]
    window = 4 * k
    while True:
        if window < values.size:
            cut = np.partition(values, values.size - window)[values.size - window]
            head = np.flatnonzero(values >= cut)
        else:
            head = np.arange(values.size)
        head = head[np.lexsort((doc_ids[head], -values[head]))]
        results = _dedupe(index, doc_ids[head].tolist(), values[head].tolist(), k)
        if len(results) == k or head.size == values.size:
            return results
        window *= 4


def _dedupe(index: RepositoryIndex, doc_ids: list[int], scores: list[float],
            k: int) -> list[RetrievedCandidate]:
    """The first k ranked docs whose response text has not been seen yet."""
    results: list[RetrievedCandidate] = []
    seen_responses: set[str] = set()
    for doc_id, score in zip(doc_ids, scores):
        response = index.doc_store[doc_id][1]
        key = " ".join(response)
        if key in seen_responses:
            continue
        seen_responses.add(key)
        results.append(RetrievedCandidate(list(response), doc_id, score, rank=len(results) + 1))
        if len(results) == k:
            break
    return results
