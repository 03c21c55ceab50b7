"""Retrieval: temporal filtering, two-stage ranking (lexical prefilter, then
dense re-ranking), a lexical-only baseline, and micro-averaged evaluation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bm25 import Bm25Index, block_top_k, check_case_order, top_k
from .corpus import CaseDocument, CorpusStore, iter_lines, write_json
from .embeddings import unit_rows
from .errors import DimensionError, MissingEmbeddingError, ParseError

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


def _lexical_stage(
    store: CorpusStore, index: Bm25Index, query_ids: list[str] | tuple[str, ...], size: int
) -> list[tuple]:
    """Per query: look it up, apply the year filter and take the BM25
    top-``size`` eligible candidates. Returns (query, eligible ids, top rows,
    their scores) per query; the candidate arrays are built once per call."""
    check_case_order(index, store)
    queries = [store.cases[index.doc_index(qid)] for qid in query_ids]
    candidates = store.candidates()
    cand_ids = np.array([c.id for c in candidates], dtype=object)
    cand_rows = np.array([index.doc_index(c.id) for c in candidates], dtype=np.int64)
    eligible = _older(queries, candidates)
    src = np.array([index.doc_index(q.id) for q in queries], dtype=np.int64)
    tops = block_top_k(index, src, cand_rows, size, lambda at: eligible[at])
    return [
        (query, tuple(cand_ids[ok]), rows, scores)
        for query, ok, (rows, scores) in zip(queries, eligible, tops)
    ]


def _dense_stage(
    index: Bm25Index, representations: dict[str, np.ndarray], lexical: tuple, final_size: int
) -> RankResult:
    """Re-rank one query's lexical top rows by cosine on the representations."""
    query, eligible_ids, pre_rows, pre_scores = lexical
    if query.id not in representations:
        raise MissingEmbeddingError(f"no representation for query {query.id!r}")
    pre_ids = tuple(index.doc_ids[i] for i in pre_rows)
    for cid in pre_ids:
        if cid not in representations:
            raise MissingEmbeddingError(f"no representation for candidate {cid!r}")
    unit, _ = unit_rows(np.array([representations[i] for i in (query.id, *pre_ids)]))
    dense = unit[1:] @ unit[0]
    final_rows, final_scores = top_k(index, pre_rows, dense, final_size)
    return RankResult(
        query_id=query.id,
        eligible_ids=eligible_ids,
        prefilter_ids=pre_ids,
        final_ids=tuple(index.doc_ids[i] for i in final_rows),
        prefilter_scores=tuple(pre_scores.tolist()),
        final_scores=tuple(final_scores.tolist()),
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
    """Lexical-only baseline: the lexical stage of :func:`two_stage_rank`, cut
    to ``final_size``."""
    _, eligible_ids, rows, scores = _lexical_stage(store, index, [query_id], final_size)[0]
    ids = tuple(index.doc_ids[i] for i in rows)
    return RankResult(
        query_id=query_id,
        eligible_ids=eligible_ids,
        prefilter_ids=ids,
        final_ids=ids,
        prefilter_scores=tuple(scores.tolist()),
        final_scores=tuple(scores.tolist()),
    )


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
    """:func:`two_stage_rank` for every query in ``query_ids`` (default: all),
    with the lexical stage scored for all of them at once."""
    check_sizes(prefilter_size, final_size)
    if query_ids is None:
        query_ids = [q.id for q in store.queries()]
    lexical = _lexical_stage(store, index, query_ids, prefilter_size)
    return RetrievalRun(
        results=tuple(_dense_stage(index, representations, lex, final_size) for lex in lexical)
    )


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
    return {nid: h[i] for i, nid in enumerate(node_ids)}


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
