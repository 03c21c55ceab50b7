"""Okapi BM25 over the case corpus, as one sparse docs x terms weight matrix.

Scoring uses the +1-smoothed IDF (non-negative for any document frequency):

    idf(t)  = ln((N - df + 0.5) / (df + 0.5) + 1)
    W[d, t] = idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl))
    s(q, d) = sum_t qtf(t) * W[d, t]

The index computes W once. The scores of a set of queries are the rows of W
times a dense terms x queries block of their term counts, one sparse-times-dense
product whose sums run over each document's terms in vocabulary order. Source
documents are scored in blocks of _BLOCK_ROWS, so only a terms x _BLOCK_ROWS
block of counts is ever dense; W itself stays sparse.
Case-to-case similarity treats the full token multiset of the source case as
the query, so repeated terms contribute once per occurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .binfile import pack, pack_record, read_container, record
from .corpus import CorpusStore
from .errors import EmptyCorpusError, IngestError

_MAGIC = b"BM25"
_FORMAT_VERSION = 2

# Source rows scored together by block_top_k. Each block holds a dense
# terms x _BLOCK_ROWS float64 block of the sources' term counts (1.2 MB at 569
# terms, 4 MB at 1,979) and a _BLOCK_ROWS x n_docs float64 block of scores
# (4.3 MB at 2,100 documents). The weight matrix stays sparse.
_BLOCK_ROWS = 256


@dataclass(frozen=True)
class ScoredPair:
    source_id: str
    target_id: str
    score: float


@dataclass
class Bm25Index:
    """The sorted vocabulary and the docs x terms term-count CSR. Document
    lengths, avgdl, idf and the BM25 weight matrix are derived from them."""

    doc_ids: tuple[str, ...]
    terms: np.ndarray  # str, strictly increasing: term t is column t of tf
    tf: sp.csr_matrix  # docs x terms counts, float64, canonical (sorted, no duplicates)
    k1: float = 1.2
    b: float = 0.75
    _id_to_idx: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self._id_to_idx = {d: i for i, d in enumerate(self.doc_ids)}
        # doc index -> position in ascending-id order, the tie-break key of top_k
        self._id_rank = np.argsort(sorted(range(self.n_docs), key=self.doc_ids.__getitem__))
        self.doc_len = self.tf.sum(axis=1).A1
        self.avgdl = float(self.doc_len.mean())
        df = np.bincount(self.tf.indices, minlength=len(self.terms))
        idf = np.log((self.n_docs - df + 0.5) / (df + 0.5) + 1.0)
        counts = self.tf.data
        dl = np.repeat(self.doc_len, np.diff(self.tf.indptr))  # each entry's doc length
        norm = self.k1 * (1.0 - self.b + self.b * dl / self.avgdl)
        weight = idf[self.tf.indices] * counts * (self.k1 + 1.0) / (counts + norm)
        # W (docs x terms), canonical like tf: row d lists d's terms in ascending order
        self._w = sp.csr_matrix((weight, self.tf.indices, self.tf.indptr), shape=self.tf.shape)

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    @property
    def postings(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """term -> (doc indices, tf), sorted by doc index: a view of ``tf``,
        rebuilt on each access, that changes nothing in the index."""
        by_term = self.tf.T.tocsr()
        cuts = by_term.indptr[1:-1]
        return dict(zip(self.terms.tolist(), zip(np.split(by_term.indices.astype(np.int64), cuts),
                                                 np.split(by_term.data, cuts))))

    def doc_index(self, doc_id: str) -> int:
        try:
            return self._id_to_idx[doc_id]
        except KeyError:
            raise IndexError(f"unknown document id {doc_id!r}") from None

    def _term_cols(self, tokens: np.ndarray) -> np.ndarray:
        """Vocabulary columns of the tokens that are in the vocabulary."""
        cols = np.searchsorted(self.terms, tokens)
        found = cols < len(self.terms)
        found[found] = self.terms[cols[found]] == tokens[found]
        return cols[found]


def check_parameters(k1: float, b: float) -> None:
    """Raise ValueError unless ``k1`` is a finite number > 0 and ``0 <= b <= 1``
    (NaN fails both)."""
    if not 0.0 < k1 < math.inf:
        raise ValueError(f"k1 must be a finite number > 0, got {k1}")
    if not 0.0 <= b <= 1.0:
        raise ValueError(f"b must be in [0, 1], got {b}")


def check_case_order(index: Bm25Index, store: CorpusStore) -> None:
    """Raise ValueError, naming the first row that differs, unless the index
    rows are the cases of ``store`` in order: a case's position in
    ``store.cases`` is its index row."""
    ids = store.node_ids[:store.n_cases]
    if index.doc_ids != ids:
        pairs = enumerate(zip_longest(index.doc_ids, ids))
        row, (got, want) = next((i, pair) for i, pair in pairs if pair[0] != pair[1])
        raise ValueError(f"BM25 index row {row} holds {got!r}, not case {row} of the corpus, "
                         f"{want!r}: the index was built from other cases or in another order")


def build_index(store: CorpusStore, k1: float = 1.2, b: float = 0.75) -> Bm25Index:
    """Index every case document (queries and candidates alike)."""
    if store.n_cases == 0:
        raise EmptyCorpusError("cannot build an index over an empty corpus")
    check_parameters(k1, b)

    tokens = [t for c in store.cases for t in c.tokens]
    vocab = sorted(set(tokens))  # code-point order, as numpy compares str arrays
    col = {t: i for i, t in enumerate(vocab)}
    cols = np.fromiter(map(col.__getitem__, tokens), dtype=np.int64, count=len(tokens))
    rows = np.repeat(np.arange(store.n_cases), [len(c.tokens) for c in store.cases])
    # the COO -> CSR conversion sums each (doc, term) pair's ones into its count
    tf = sp.csr_matrix((np.ones(len(tokens)), (rows, cols)), shape=(store.n_cases, len(vocab)))
    return Bm25Index(doc_ids=tuple(c.id for c in store.cases), terms=np.array(vocab, dtype=str),
                     tf=tf, k1=k1, b=b)


def bm25_score(index: Bm25Index, query_tokens: list[str] | tuple[str, ...], doc_index: int) -> float:
    """Score one document against a query token sequence, by :func:`score_all`."""
    if not 0 <= doc_index < index.n_docs:
        raise IndexError(f"doc_index {doc_index} out of range [0, {index.n_docs})")
    return float(score_all(index, query_tokens)[doc_index])


# score_all and block_top_k score with one sparse-times-dense product: the
# weight rows W[d] times a dense column of query term counts. Its scores are
# bit-identical to those of the sparse product of the queries' count rows with
# W.T. That product sums qtf * w over the terms t of q and d, in ascending t,
# starting from 0. This one sums w * x over every term t of d (W is
# canonical), in ascending t, also from 0. Each term it adds is either the same
# product (IEEE multiplication commutes) or w * 0 = +0.0. Every weight is > 0,
# since idf uses the + 1 form, so each sum is non-negative and adding +0.0
# leaves it unchanged.
def score_all(index: Bm25Index, query_tokens: list[str] | tuple[str, ...]) -> np.ndarray:
    """BM25 scores of every document for the query, as a dense float array."""
    cols, qtf = np.unique(index._term_cols(np.array(query_tokens, dtype=str)), return_counts=True)
    counts = np.zeros(len(index.terms))
    counts[cols] = qtf
    return index._w @ counts


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


def block_top_k(
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

    Sources are scored ``_BLOCK_ROWS`` at a time against the weight rows of
    ``cols``, so memory stays O(_BLOCK_ROWS x (n_docs + n_terms))."""
    w = index._w[cols]
    out: list[tuple[np.ndarray, np.ndarray]] = []
    for s in range(0, len(src), _BLOCK_ROWS):
        at = slice(s, s + _BLOCK_ROWS)
        ok = True if eligible is None else eligible(at)
        scores = np.ascontiguousarray((w @ index.tf[src[at]].T.toarray()).T)
        out += _select_top_k(index, cols, scores, ok, k)
    return out


def topk_similar(index: Bm25Index, store: CorpusStore, doc_id: str, k: int) -> list[ScoredPair]:
    """Top-k most BM25-similar cases to ``doc_id`` (self excluded), as
    :func:`block_top_k` selects them for one row."""
    if k < 1:
        raise ValueError("k must be >= 1")
    check_case_order(index, store)
    src = index.doc_index(doc_id)
    cols = np.arange(index.n_docs)
    scores = score_all(index, store.cases[src].tokens)
    [(rows, top)] = _select_top_k(index, cols, scores[None, :], cols[None, :] != src, k)
    return [ScoredPair(doc_id, index.doc_ids[i], s) for i, s in zip(rows.tolist(), top.tolist())]


# ---------------------------------------------------------------------------
# Binary index file
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Meta:
    """The JSON meta record of ``bm25.bin``."""

    k1: float
    b: float
    digest: str  # of the corpus bytes the index was built from
    doc_ids: list[str]
    terms: list[str]


def save_index(index: Bm25Index, path: str | Path, digest: str = "") -> None:
    """Serialize the index; ``digest`` identifies the corpus bytes it was built from."""
    meta = _Meta(index.k1, index.b, digest, list(index.doc_ids), index.terms.tolist())
    tf = index.tf
    with open(path, "wb") as fh:
        fh.write(_MAGIC + pack("I", _FORMAT_VERSION) + pack_record(meta) + pack("Q", tf.nnz))
        for a in (tf.indptr, tf.indices, tf.data):
            fh.write(a.astype("<u4").tobytes())


def load_index(path: str | Path) -> tuple[Bm25Index, str]:
    """Load a ``bm25.bin`` that :func:`save_index` wrote; returns (index, corpus
    digest recorded at save time). No stage reads one back, since every run
    builds its index; this serves readers of a run's outputs, such as the
    benchmark's output checks (``perfbench/checks.py``).

    Another magic or format version, a meta record that does not fit
    :class:`_Meta` or whose ``k1`` and ``b`` fail :func:`check_parameters`, a
    vocabulary that is not strictly increasing, or a term-count CSR that is
    malformed, not canonical or holds a zero count, raises IngestError."""
    with read_container(path, _MAGIC, "BM25 index", IngestError, _FORMAT_VERSION) as r:
        meta = _Meta(**record(_Meta, r.json(), IngestError, f"{path}: meta"))
        (nnz,) = r.unpack("Q")
        indptr = r.array("<u4", len(meta.doc_ids) + 1)
        indices = r.array("<u4", nnz)
        counts = r.array("<u4", nnz)
        terms = np.array(meta.terms, dtype=str)
        check_parameters(meta.k1, meta.b)
        if not np.all(terms[:-1] < terms[1:]):
            raise ValueError("vocabulary is not strictly increasing")
        if indptr[-1] != nnz:
            raise ValueError(f"index pointer ends at {indptr[-1]}, not at {nnz} entries")
        tf = sp.csr_matrix((counts.astype(np.float64), indices, indptr),
                           shape=(len(indptr) - 1, len(terms)))
        tf.check_format(full_check=True)
        # score bits depend on the order in which each row's entries are summed
        if not tf.has_canonical_format:
            raise ValueError("term columns unsorted or repeated within a document")
        if not np.all(counts > 0):
            raise ValueError("a term count is zero")
    index = Bm25Index(doc_ids=tuple(meta.doc_ids), terms=terms, tf=tf, k1=meta.k1, b=meta.b)
    return index, meta.digest
