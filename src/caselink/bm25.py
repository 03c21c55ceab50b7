"""Okapi BM25 inverted index over the case corpus.

Scoring uses the +1-smoothed IDF (non-negative for any document frequency):

    idf(t)  = ln((N - df + 0.5) / (df + 0.5) + 1)
    s(q, d) = sum_t qtf(t) * idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl))

Case-to-case similarity treats the full token multiset of the source case as
the query, so repeated terms contribute once per occurrence.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .binfile import pack, pack_json, pack_text, read_container
from .corpus import CorpusStore
from .errors import EmptyCorpusError, IngestError

_MAGIC = b"BM25"
_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ScoredPair:
    source_id: str
    target_id: str
    score: float


@dataclass
class Bm25Index:
    """Inverted index: per-term postings arrays (doc index, term frequency)."""

    doc_ids: tuple[str, ...]
    postings: dict[str, tuple[np.ndarray, np.ndarray]]  # term -> (doc idx, tf), sorted by doc idx
    doc_len: np.ndarray
    avgdl: float
    k1: float = 1.2
    b: float = 0.75
    _id_to_idx: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self._id_to_idx = {d: i for i, d in enumerate(self.doc_ids)}
        # doc index -> position in ascending-id order, the tie-break key of top_k
        self._id_rank = np.argsort(sorted(range(self.n_docs), key=self.doc_ids.__getitem__))

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    def doc_index(self, doc_id: str) -> int:
        try:
            return self._id_to_idx[doc_id]
        except KeyError:
            raise IndexError(f"unknown document id {doc_id!r}") from None

    def idf(self, term: str) -> float:
        post = self.postings.get(term)
        if post is None:
            return 0.0
        df = len(post[0])
        return math.log((self.n_docs - df + 0.5) / (df + 0.5) + 1.0)


def build_index(store: CorpusStore, k1: float = 1.2, b: float = 0.75) -> Bm25Index:
    """Index every case document (queries and candidates alike)."""
    if store.n_cases == 0:
        raise EmptyCorpusError("cannot build an index over an empty corpus")
    if k1 <= 0:
        raise ValueError("k1 must be > 0")
    if not 0.0 <= b <= 1.0:
        raise ValueError("b must be in [0, 1]")

    doc_len = np.array([len(c.tokens) for c in store.cases], dtype=np.float64)
    raw: dict[str, list[tuple[int, int]]] = {}
    for i, case in enumerate(store.cases):
        for term, tf in Counter(case.tokens).items():
            raw.setdefault(term, []).append((i, tf))

    postings: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for term, pairs in raw.items():
        # insertion order is already ascending doc index
        idx = np.array([p[0] for p in pairs], dtype=np.int64)
        tf = np.array([p[1] for p in pairs], dtype=np.float64)
        postings[term] = (idx, tf)

    return Bm25Index(
        doc_ids=tuple(c.id for c in store.cases),
        postings=postings,
        doc_len=doc_len,
        avgdl=float(doc_len.mean()),
        k1=k1,
        b=b,
    )


def bm25_score(index: Bm25Index, query_tokens: list[str] | tuple[str, ...], doc_index: int) -> float:
    """Score one document against a query token sequence, by :func:`score_all`."""
    if not 0 <= doc_index < index.n_docs:
        raise IndexError(f"doc_index {doc_index} out of range [0, {index.n_docs})")
    return float(score_all(index, query_tokens)[doc_index])


def score_all(index: Bm25Index, query_tokens: list[str] | tuple[str, ...]) -> np.ndarray:
    """BM25 scores of every document for the query, as a dense float array."""
    scores = np.zeros(index.n_docs, dtype=np.float64)
    if index.avgdl > 0:
        norms = index.k1 * (1.0 - index.b + index.b * index.doc_len / index.avgdl)
    else:
        norms = np.full(index.n_docs, index.k1)
    for term, qtf in Counter(query_tokens).items():
        post = index.postings.get(term)
        if post is None:
            continue
        idx, tf = post
        scores[idx] += qtf * index.idf(term) * tf * (index.k1 + 1.0) / (tf + norms[idx])
    return scores


def top_k(
    index: Bm25Index, rows: np.ndarray, scores: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` highest-scoring ``rows`` (integer doc indices, aligned with
    ``scores``) and their scores, best first; ties break by ascending doc id."""
    order = np.lexsort((index._id_rank[rows], -scores))[:k]
    return rows[order], scores[order]


def topk_similar(index: Bm25Index, store: CorpusStore, doc_id: str, k: int) -> list[ScoredPair]:
    """Top-k most BM25-similar cases to ``doc_id`` (self excluded), by :func:`top_k`."""
    if k < 1:
        raise ValueError("k must be >= 1")
    src = index.doc_index(doc_id)
    scores = score_all(index, store.cases[src].tokens)
    others = np.delete(np.arange(index.n_docs), src)
    rows, top = top_k(index, others, scores[others], k)
    return [ScoredPair(doc_id, index.doc_ids[i], s) for i, s in zip(rows.tolist(), top.tolist())]


# ---------------------------------------------------------------------------
# Binary cache
# ---------------------------------------------------------------------------

def save_index(index: Bm25Index, path: str | Path, digest: str = "") -> None:
    """Serialize the index; ``digest`` identifies the corpus bytes it was built from."""
    meta = {
        "k1": index.k1,
        "b": index.b,
        "avgdl": index.avgdl,
        "doc_ids": list(index.doc_ids),
        "doc_len": index.doc_len.astype(int).tolist(),
        "digest": digest,
    }
    with open(path, "wb") as fh:
        fh.write(_MAGIC + pack("I", _FORMAT_VERSION) + pack_json(meta) + pack("Q", len(index.postings)))
        for term in sorted(index.postings):
            idx, tf = index.postings[term]
            fh.write(pack_text(term) + pack("Q", len(idx)))
            fh.write(idx.astype("<u4").tobytes())
            fh.write(tf.astype("<u4").tobytes())


def load_index(path: str | Path) -> tuple[Bm25Index, str]:
    """Load a cached index; returns (index, corpus digest recorded at save time)."""
    with read_container(path, _MAGIC, "BM25 index cache", IngestError, _FORMAT_VERSION) as r:
        meta = r.json()
        (n_terms,) = r.unpack("Q")
        postings: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for _ in range(n_terms):
            term = r.text()
            (n_post,) = r.unpack("Q")
            idx = r.array("<u4", n_post).astype(np.int64)
            tf = r.array("<u4", n_post).astype(np.float64)
            postings[term] = (idx, tf)
    index = Bm25Index(
        doc_ids=tuple(meta["doc_ids"]),
        postings=postings,
        doc_len=np.array(meta["doc_len"], dtype=np.float64),
        avgdl=float(meta["avgdl"]),
        k1=float(meta["k1"]),
        b=float(meta["b"]),
    )
    return index, meta["digest"]
