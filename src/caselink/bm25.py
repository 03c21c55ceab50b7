"""Okapi BM25 over the case corpus, as one sparse docs x terms weight matrix.

Scoring uses the +1-smoothed IDF (non-negative for any document frequency):

    idf(t)  = ln((N - df + 0.5) / (df + 0.5) + 1)
    W[d, t] = idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl))
    s(q, d) = sum_t qtf(t) * W[d, t]

The index computes W once; the scores of a set of queries are the sparse
product of their term-count rows with W.T, summed in vocabulary order.
Case-to-case similarity treats the full token multiset of the source case as
the query, so repeated terms contribute once per occurrence.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .binfile import pack, pack_json, pack_text, read_container
from .corpus import CorpusStore
from .errors import EmptyCorpusError, IngestError

_MAGIC = b"BM25"
_FORMAT_VERSION = 1

# Source rows scored together by _block_top_k: one dense block of scores is
# _BLOCK_ROWS x n_docs float64, 4.3 MB at 2,100 documents.
_BLOCK_ROWS = 256


@dataclass(frozen=True)
class ScoredPair:
    source_id: str
    target_id: str
    score: float


@dataclass
class Bm25Index:
    """Per-term postings arrays (doc index, term frequency), and the term-count
    and BM25 weight matrices built from them."""

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
        # Sorted: _term_cols searches it, and a built and a loaded index (whose
        # postings come in different orders) sum each score in the same order.
        terms = sorted(self.postings)
        self._terms = np.array(terms, dtype=str)
        posts = [self.postings[t] for t in terms]
        df = np.array([len(idx) for idx, _ in posts], dtype=np.int64)
        docs = np.concatenate([np.zeros(0, np.int64), *(idx for idx, _ in posts)])
        tf = np.concatenate([np.zeros(0), *(tf for _, tf in posts)])
        idf = np.log((self.n_docs - df + 0.5) / (df + 0.5) + 1.0)
        norm = self.k1 * (1.0 - self.b + self.b * self.doc_len[docs] / self.avgdl)
        weight = np.repeat(idf, df) * tf * (self.k1 + 1.0) / (tf + norm)
        # Term t's postings are row t of a terms x docs CSR: that is W.T, and
        # the transpose of the counts gives the docs x terms term-count rows.
        indptr = np.concatenate(([0], np.cumsum(df)))
        shape = (len(posts), self.n_docs)
        self._wt = sp.csr_matrix((weight, docs, indptr), shape=shape)
        self._tf = sp.csr_matrix((tf, docs, indptr), shape=shape).T.tocsr()

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    def doc_index(self, doc_id: str) -> int:
        try:
            return self._id_to_idx[doc_id]
        except KeyError:
            raise IndexError(f"unknown document id {doc_id!r}") from None

    def _term_cols(self, tokens: np.ndarray) -> np.ndarray:
        """Vocabulary columns of the tokens that are in the vocabulary."""
        cols = np.searchsorted(self._terms, tokens)
        found = cols < len(self._terms)
        found[found] = self._terms[cols[found]] == tokens[found]
        return cols[found]


def check_parameters(k1: float, b: float) -> None:
    """Raise ValueError unless ``k1`` is a finite number > 0 and ``0 <= b <= 1``
    (NaN fails both)."""
    if not 0.0 < k1 < math.inf:
        raise ValueError(f"k1 must be a finite number > 0, got {k1}")
    if not 0.0 <= b <= 1.0:
        raise ValueError(f"b must be in [0, 1], got {b}")


def build_index(store: CorpusStore, k1: float = 1.2, b: float = 0.75) -> Bm25Index:
    """Index every case document (queries and candidates alike)."""
    if store.n_cases == 0:
        raise EmptyCorpusError("cannot build an index over an empty corpus")
    check_parameters(k1, b)

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


def _score_rows(index: Bm25Index, counts: sp.csr_matrix) -> np.ndarray:
    """Dense (queries x docs) BM25 scores of term-count rows (queries x terms)."""
    return (counts @ index._wt).toarray()


def score_all(index: Bm25Index, query_tokens: list[str] | tuple[str, ...]) -> np.ndarray:
    """BM25 scores of every document for the query, as a dense float array."""
    cols, qtf = np.unique(index._term_cols(np.array(query_tokens, dtype=str)), return_counts=True)
    shape = (1, len(index._terms))
    counts = sp.csr_matrix((qtf.astype(np.float64), cols, [0, len(cols)]), shape=shape)
    return _score_rows(index, counts)[0]


def top_k(
    index: Bm25Index, rows: np.ndarray, scores: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` highest-scoring ``rows`` (integer doc indices, aligned with
    ``scores``) and their scores, best first; ties break by ascending doc id."""
    order = np.lexsort((index._id_rank[rows], -scores))[:k]
    return rows[order], scores[order]


def _select_top_k(
    index: Bm25Index, cols: np.ndarray, scores: np.ndarray, ok: np.ndarray | bool, k: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per row of ``scores`` (its columns aligned with the doc indices ``cols``):
    what :func:`top_k` returns for the columns where ``ok`` holds.

    ``np.partition`` finds each row's k-th best score; every column at or
    above it is kept, so ties at the cut reach the sort, and one lexsort
    orders the block by (row, -score, id)."""
    n_rows, m = scores.shape
    k = min(k, m)
    if k < 1:
        return [(cols[:0], scores[i, :0]) for i in range(n_rows)]
    scores = np.where(ok, scores, -np.inf)
    kth = np.partition(scores, m - k, axis=1)[:, m - k]
    r, c = np.nonzero(ok & (scores >= kth[:, None]))
    order = np.lexsort((index._id_rank[cols[c]], -scores[r, c], r))
    r, c = r[order], c[order]
    starts = np.searchsorted(r, np.arange(n_rows))
    ends = np.minimum(np.searchsorted(r, np.arange(n_rows), side="right"), starts + k)
    return [(cols[c[s:e]], scores[r[s:e], c[s:e]]) for s, e in zip(starts, ends)]


def _block_top_k(
    index: Bm25Index,
    src: np.ndarray,
    cols: np.ndarray,
    k: int,
    eligible: Callable[[slice], np.ndarray] | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per source doc in ``src``, with its own tokens as the query: what
    :func:`top_k` returns for the doc indices ``cols``. For the sources at
    positions ``at`` of ``src``, ``eligible(at)`` (bool, sources x cols)
    narrows the columns.

    Sources are scored ``_BLOCK_ROWS`` at a time, so memory stays
    O(_BLOCK_ROWS x n_docs)."""
    out: list[tuple[np.ndarray, np.ndarray]] = []
    for s in range(0, len(src), _BLOCK_ROWS):
        at = slice(s, s + _BLOCK_ROWS)
        ok = True if eligible is None else eligible(at)
        out += _select_top_k(index, cols, _score_rows(index, index._tf[src[at]])[:, cols], ok, k)
    return out


def topk_similar(index: Bm25Index, store: CorpusStore, doc_id: str, k: int) -> list[ScoredPair]:
    """Top-k most BM25-similar cases to ``doc_id`` (self excluded), as
    :func:`_block_top_k` selects them for one row."""
    if k < 1:
        raise ValueError("k must be >= 1")
    src = index.doc_index(doc_id)
    cols = np.arange(index.n_docs)
    scores = score_all(index, store.cases[src].tokens)
    [(rows, top)] = _select_top_k(index, cols, scores[None, :], cols[None, :] != src, k)
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
