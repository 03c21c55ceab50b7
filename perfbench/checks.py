"""Output checks on one pipeline run, and the quality ladder built from its
artifacts with public caselink functions only.

The checks read ``run.json``, ``report.json`` and the run's own ``bm25.bin``;
the ladder also reads ``graph.gcg1``. Nothing here is timed.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from caselink.bm25 import load_index, score_all
from caselink.corpus import CorpusStore
from caselink.gat import init_params, model_forward
from caselink.graph import load_graph
from caselink.retrieval import (
    bm25_baseline_rank,
    evaluate_runs,
    rank_all,
    representations_from_rows,
    year_filter,
)
from caselink.training import TrainingConfig

# Scores this close to the k-th best count as tied with it, so a change in
# floating-point summation order cannot fail the prefilter check.
SCORE_TOL = 1e-9


@dataclass
class CheckResult:
    queries: int = 0
    bad_queries: int = 0
    problems: list[str] = field(default_factory=list)


def prefilter_floor(scores: np.ndarray, index, eligible, size: int) -> float:
    """The ``size``-th best BM25 score among the query's year-eligible candidates,
    less a tolerance: an id scoring at least this is inside the prefilter."""
    eligible = [scores[index.doc_index(c.id)] for c in eligible]
    if len(eligible) <= size:
        return -np.inf
    kth = np.sort(eligible)[::-1][size - 1]
    return kth - SCORE_TOL * max(1.0, abs(kth))


def check_run(
    store: CorpusStore, out_dir: Path, prefilter_size: int, final_size: int
) -> CheckResult:
    """Check one pipeline output directory against the corpus it was run on."""
    result = CheckResult()
    run = json.loads((out_dir / "run.json").read_text("utf-8"))
    report = json.loads((out_dir / "report.json").read_text("utf-8"))
    index, _ = load_index(out_dir / "bm25.bin")

    retrieved = {q: tuple(ids) for q, ids in run.items()}
    recomputed = evaluate_runs(retrieved, store.labels).to_dict()
    if report != recomputed:
        result.problems.append(f"report.json {report} != evaluate_runs(run.json) {recomputed}")

    by_id = {c.id: c for c in store.cases}
    extra = sorted(set(run) - {q.id for q in store.queries()})
    if extra:
        result.problems.append(f"run.json has entries for non-queries: {extra[:5]}")
    for query in store.queries():
        result.queries += 1
        reason = _query_problem(index, store, by_id, query, run.get(query.id),
                                prefilter_size, final_size)
        if reason:
            result.bad_queries += 1
            result.problems.append(f"query {query.id}: {reason}")
    return result


def _query_problem(index, store, by_id, query, ids, prefilter_size, final_size) -> str | None:
    if ids is None:
        return "missing from run.json"
    if len(ids) != final_size or len(set(ids)) != final_size:
        return f"expected {final_size} distinct ids, got {ids}"
    unknown = [c for c in ids if c not in by_id or by_id[c].role.value != "candidate"]
    if unknown:
        return f"not candidates: {unknown}"
    eligible = year_filter(query, store.candidates())
    late = sorted(set(ids) - {c.id for c in eligible})
    if late:
        return f"not decided strictly before {query.year}: {late}"
    scores = score_all(index, query.tokens)
    floor = prefilter_floor(scores, index, eligible, prefilter_size)
    outside = [c for c in ids if scores[index.doc_index(c)] < floor]
    if outside:
        return f"outside the BM25 top-{prefilter_size}: {outside}"
    return None


_README_RESULT = re.compile(r'#\s*\{"correct":\s*(\d+),\s*"f1":\s*([0-9.eE+-]+)')


def readme_quickstart(readme: Path) -> tuple[int, float]:
    """The ``correct`` count and F1 the README publishes for its quick start."""
    match = _README_RESULT.search(readme.read_text("utf-8"))
    if match is None:
        raise ValueError(f"{readme} has no quick-start result line")
    return int(match.group(1)), float(match.group(2))


def quality_ladder(
    store: CorpusStore, out_dir: Path, prefilter_size: int, final_size: int, seed: int
) -> dict[str, float]:
    """F1 of the rankers the trained encoder should beat, and the recall the
    BM25 prefilter leaves for any re-ranker."""
    index, _ = load_index(out_dir / "bm25.bin")
    graph = load_graph(out_dir / "graph.gcg1")
    labels = store.labels
    queries = [q.id for q in store.queries()]

    def f1(run) -> float:
        return evaluate_runs(run, labels).f1

    bm25_run = {q: bm25_baseline_rank(store, index, q, final_size).final_ids for q in queries}
    raw = rank_all(store, index, representations_from_rows(graph.node_ids, graph.features),
                   queries, prefilter_size, final_size)
    defaults = TrainingConfig()
    dims = [graph.dim] + [defaults.hidden_dim or graph.dim] * defaults.layers
    h, _ = model_forward(init_params(seed, dims), graph.features, graph.adjacency)
    untrained = rank_all(store, index, representations_from_rows(graph.node_ids, h),
                         queries, prefilter_size, final_size)

    kept = sum(len(set(r.prefilter_ids) & set(labels[r.query_id])) for r in raw.results)
    relevant = sum(len(set(labels[q])) for q in queries)
    return {
        "f1_bm25": f1(bm25_run),
        "f1_raw_emb": f1(raw.retrieved()),
        "f1_untrained": f1(untrained.retrieved()),
        "recall_ceiling": kept / relevant,
    }
