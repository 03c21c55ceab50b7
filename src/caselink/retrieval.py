"""Retrieval: temporal filtering, two-stage ranking (lexical prefilter, then
dense re-ranking), a lexical-only baseline, and micro-averaged evaluation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bm25 import Bm25Index, block_top_k, check_case_order, top_k_rows
from .corpus import CaseDocument, CorpusStore, iter_lines, write_json
from .embeddings import stack_vectors, unit_rows
from .errors import DimensionError, ParseError

logger = logging.getLogger(__name__)

PREFILTER_SIZE = 10
FINAL_SIZE = 5


def _older(queries: list[CaseDocument], candidates: list[CaseDocument]) -> np.ndarray:
    """(queries x candidates) bool: the candidate is strictly older than the
    query. An undated candidate is older than every query, and an undated
    query newer than every candidate."""
    query_years = np.array([np.inf if q.year is None else q.year for q in queries])
    cand_years = np.array([-np.inf if c.year is None else c.year for c in candidates])
    return cand_years < query_years[:, None]


def year_filter(query: CaseDocument, candidates: list[CaseDocument]) -> list[CaseDocument]:
    """Keep candidates strictly older than the query.

    Candidates with no extractable year are kept; a query with no year
    disables filtering entirely.
    """
    return [c for c, older in zip(candidates, _older([query], candidates)[0]) if older]


@dataclass(frozen=True)
class RankResult:
    query_id: str
    eligible_ids: tuple[str, ...]  # after the year filter, corpus order
    prefilter_ids: tuple[str, ...]  # lexical top-10, rank order
    final_ids: tuple[str, ...]  # dense top-5, rank order
    prefilter_scores: tuple[float, ...]
    final_scores: tuple[float, ...]


@dataclass(frozen=True)
class RetrievalRun:
    results: tuple[RankResult, ...]

    def retrieved(self) -> dict[str, tuple[str, ...]]:
        return {r.query_id: r.final_ids for r in self.results}


@dataclass(frozen=True, eq=False)
class Prefilter:
    """The lexical stage for a list of queries: per query, the BM25 top
    candidates after the year filter. It does not depend on the encoder, so
    one prefilter serves every re-ranking of the same queries."""

    query_ids: tuple[str, ...]
    top: tuple[tuple[np.ndarray, np.ndarray], ...]  # per query: (doc rows, BM25 scores), rank order
    eligible_ids: tuple[tuple[str, ...], ...]  # per query; equal rows share one tuple


def prefilter(
    store: CorpusStore, index: Bm25Index, query_ids: list[str] | tuple[str, ...], size: int
) -> Prefilter:
    """The year filter and the BM25 top-``size`` eligible candidates of every
    query of ``query_ids``, scored in one :func:`bm25.block_top_k` call."""
    check_case_order(index, store)
    src = [index.doc_index(qid) for qid in query_ids]
    queries = [store.cases[i] for i in src]
    candidates = store.candidates()
    cand_rows = np.array([index.doc_index(c.id) for c in candidates], dtype=np.int64)
    eligible = _older(queries, candidates)
    top = block_top_k(index, np.array(src, dtype=np.int64), cand_rows, size, eligible)
    # one tuple per distinct eligibility row: queries of one year share theirs
    cand_ids = np.array([c.id for c in candidates], dtype=object)
    shared: dict[bytes, tuple[str, ...]] = {}
    for ok in eligible:
        if (key := ok.tobytes()) not in shared:
            shared[key] = tuple(cand_ids[ok])
    return Prefilter(
        query_ids=tuple(query_ids), top=tuple(top),
        eligible_ids=tuple(shared[ok.tobytes()] for ok in eligible),
    )


def rerank(
    index: Bm25Index, pre: Prefilter, representations: dict[str, np.ndarray], final_size: int
) -> RetrievalRun:
    """Re-rank each query's prefilter rows by cosine on the representations
    and keep the top ``final_size``, ordered as :func:`bm25.top_k` orders.

    The queries and their prefilter cells are stacked and normalised at once.
    Queries are grouped by fill count and each group's cosines are one
    batched matrix-vector product at that count: a product over rows padded
    to a common count would not give the bits of a product over the cells."""
    n_queries = len(pre.query_ids)
    fill = np.array([len(rows) for rows, _ in pre.top], dtype=np.int64)
    cells = np.concatenate([np.empty(0, np.int64), *(rows for rows, _ in pre.top)])
    unit, _ = unit_rows(stack_vectors(
        representations, [*pre.query_ids, *map(index.doc_ids.__getitem__, cells.tolist())]))
    u_query, u_cell = unit[:n_queries], unit[n_queries:]
    first = np.cumsum(fill) - fill  # each query's first cell
    dense = np.empty(len(cells))
    for n in np.unique(fill[fill > 0]):
        group = np.flatnonzero(fill == n)
        at = first[group, None] + np.arange(n)
        dense[at] = np.matmul(u_cell[at], u_query[group, :, None])[..., 0]
    query_of = np.repeat(np.arange(n_queries), fill)
    final = top_k_rows(index, query_of, cells, dense, n_queries, final_size)
    return RetrievalRun(results=_results(index, pre, final))


def _results(
    index: Bm25Index, pre: Prefilter, final: list[tuple[np.ndarray, np.ndarray]]
) -> tuple[RankResult, ...]:
    """A RankResult per query of ``pre``, with ``final`` its (rows, scores)."""
    doc_id = index.doc_ids.__getitem__
    return tuple(
        RankResult(
            query_id=qid,
            eligible_ids=eligible,
            prefilter_ids=tuple(map(doc_id, rows.tolist())),
            final_ids=tuple(map(doc_id, final_rows.tolist())),
            prefilter_scores=tuple(scores.tolist()),
            final_scores=tuple(final_scores.tolist()),
        )
        for qid, eligible, (rows, scores), (final_rows, final_scores) in zip(
            pre.query_ids, pre.eligible_ids, pre.top, final)
    )


def two_stage_rank(
    store: CorpusStore,
    index: Bm25Index,
    representations: dict[str, np.ndarray],
    query_id: str,
    prefilter_size: int = PREFILTER_SIZE,
    final_size: int = FINAL_SIZE,
) -> RankResult:
    """Rank candidates for one query: year filter, lexical top-``prefilter_size``,
    then cosine top-``final_size`` on the learned representations.

    Both stages rank as ``bm25.top_k`` does: ties break toward the smaller id.
    """
    run = rank_all(store, index, representations, [query_id], prefilter_size, final_size)
    return run.results[0]


def bm25_baseline_rank(
    store: CorpusStore,
    index: Bm25Index,
    query_id: str,
    final_size: int = FINAL_SIZE,
) -> RankResult:
    """Lexical-only baseline: the prefilter of :func:`two_stage_rank`, cut to
    ``final_size``."""
    pre = prefilter(store, index, [query_id], final_size)
    return _results(index, pre, pre.top)[0]


def check_sizes(prefilter_size: int, final_size: int) -> None:
    """Raise ValueError unless ``1 <= final_size <= prefilter_size``."""
    if final_size < 1 or prefilter_size < final_size:
        raise ValueError(f"ranking sizes must satisfy 1 <= final_size <= prefilter_size, "
                         f"got final_size={final_size}, prefilter_size={prefilter_size}")


def rank_all(
    store: CorpusStore,
    index: Bm25Index,
    representations: dict[str, np.ndarray],
    query_ids: list[str] | tuple[str, ...] | None = None,
    prefilter_size: int = PREFILTER_SIZE,
    final_size: int = FINAL_SIZE,
) -> RetrievalRun:
    """:func:`two_stage_rank` for every query in ``query_ids`` (default: all):
    one :func:`prefilter`, then one :func:`rerank`."""
    check_sizes(prefilter_size, final_size)
    if query_ids is None:
        query_ids = [q.id for q in store.queries()]
    pre = prefilter(store, index, query_ids, prefilter_size)
    return rerank(index, pre, representations, final_size)


@dataclass(frozen=True)
class EvalReport:
    precision: float
    recall: float
    f1: float
    n_retrieved: int
    n_relevant: int
    n_hits: int

    def to_dict(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "retrieved": self.n_retrieved,
            "relevant": self.n_relevant,
            "correct": self.n_hits,
        }


def f_measure(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def evaluate_runs(
    retrieved: dict[str, tuple[str, ...]],
    labels: dict[str, tuple[str, ...]],
) -> EvalReport:
    """Micro-averaged precision/recall/F1 over the queries present in the run.

    Counts (hits, retrieved, relevant) are summed across queries before any
    division. A run with zero retrieved items scores zero precision and logs
    a warning rather than raising; one that retrieves an id twice for a query
    is a ValueError naming the query, since it would count that hit twice.
    """
    hits = 0
    n_retrieved = 0
    n_relevant = 0
    for qid, ret in retrieved.items():
        if len(set(ret)) != len(ret):
            raise ValueError(f"the run retrieves a candidate twice for query {qid!r}")
        gold = set(labels.get(qid, ()))
        n_retrieved += len(ret)
        n_relevant += len(gold)
        hits += sum(1 for cid in ret if cid in gold)
    if n_retrieved == 0:
        logger.warning("evaluation over %d queries retrieved nothing", len(retrieved))
        precision = 0.0
    else:
        precision = hits / n_retrieved
    recall = hits / n_relevant if n_relevant else 0.0
    return EvalReport(
        precision=precision,
        recall=recall,
        f1=f_measure(precision, recall),
        n_retrieved=n_retrieved,
        n_relevant=n_relevant,
        n_hits=hits,
    )


def representations_from_rows(
    node_ids: list[str] | tuple[str, ...], h: np.ndarray
) -> dict[str, np.ndarray]:
    if len(node_ids) != h.shape[0]:
        raise DimensionError("node id list does not match representation rows")
    return dict(zip(node_ids, h))


def write_run_tsv(run: RetrievalRun, path: str | Path) -> None:
    """TSV run file: one line per retrieved item,
    ``query_id<TAB>candidate_id<TAB>rank<TAB>score`` with six-decimal scores."""
    lines = []
    for r in run.results:
        for rank, (cid, score) in enumerate(zip(r.final_ids, r.final_scores), start=1):
            lines.append(f"{r.query_id}\t{cid}\t{rank}\t{score:.6f}")
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def write_run_json(run: RetrievalRun, path: str | Path) -> None:
    """JSON run file: query id mapped to its ordered candidate id array."""
    write_json(path, {r.query_id: list(r.final_ids) for r in run.results})


def write_report_json(report: EvalReport, path: str | Path) -> None:
    write_json(path, report.to_dict())


def read_run_tsv(path: str | Path) -> dict[str, tuple[str, ...]]:
    """Parse a TSV run file back into query -> retrieved ids (rank order). A line
    that is not 4 tab-separated fields with an integer rank, or that repeats a
    query's candidate or rank, is a ParseError naming the file and the line."""
    per_query: dict[str, dict[int, str]] = {}
    pairs: set[tuple[str, str]] = set()
    for line_no, line in iter_lines(path):
        parts = line.split("\t")
        if len(parts) != 4:
            raise ParseError("expected 4 tab-separated fields", line_no, path)
        qid, cid, rank, _score = parts
        try:
            rank = int(rank)
        except ValueError:
            raise ParseError(f"rank {rank!r} is not an integer", line_no, path) from None
        ranked = per_query.setdefault(qid, {})
        if rank in ranked:
            raise ParseError(f"query {qid!r} repeats rank {rank}", line_no, path)
        if (qid, cid) in pairs:
            raise ParseError(f"query {qid!r} repeats candidate {cid!r}", line_no, path)
        ranked[rank] = cid
        pairs.add((qid, cid))
    return {qid: tuple(ranked[r] for r in sorted(ranked)) for qid, ranked in per_query.items()}
