"""Spans around public caselink functions, recorded from outside the program.

A wrapper replaces a function object in every ``caselink.*`` namespace that
binds it (its home module, the from-imports in ``cli`` and the re-exports in
``__init__``), so calls made through any of those names are seen. Calls made
from inside the home module go through its globals and are seen too. The
bindings are restored when the ``installed`` context exits.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

# Every public function traced in a traced run, by layer (= caselink module).
LAYERS: dict[str, tuple[str, ...]] = {
    "corpus": ("ingest_corpus", "load_charge_lexicon"),
    # load_index, the warm-cache path, is left out: no workload reads a cache.
    "bm25": ("build_index", "save_index", "score_all", "topk_similar"),
    "embeddings": (
        "load_embedding_file",
        "normalize_table",
        "write_binary_embeddings",
        "read_binary_embeddings",
    ),
    "graph": (
        "build_global_case_graph",
        "build_case_case_edges",
        "build_case_charge_edges",
        "build_charge_charge_edges",
        "assemble_gcg",
        "save_graph",
        "load_graph",
    ),
    "gat": ("model_forward", "backward_gradients", "prepare_structure", "save_checkpoint"),
    "training": (
        "train",
        "hard_negative_pools",
        "sample_batch",
        "total_loss_and_grads",
        "infonce_loss",
        "degreg_loss",
        "adam_step",
    ),
    "retrieval": ("rank_all", "two_stage_rank", "evaluate_runs", "write_run_tsv", "write_run_json"),
    "cli": ("main",),
}
TRACED = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

# The only functions wrapped in an untraced run: the root call and the phase
# boundaries the end-to-end metrics are cut at.
PHASES = ("cli.main", "graph.build_global_case_graph", "training.train", "retrieval.evaluate_runs")


def _checkpoint_bytes(args, kwargs, result) -> dict[str, int]:
    path = Path(args[1] if len(args) > 1 else kwargs["path"])
    sidecar = Path(str(path) + ".json")
    size = path.stat().st_size + (sidecar.stat().st_size if sidecar.exists() else 0)
    return {"gat.checkpoint_bytes": size}


def _index_counts(index) -> dict[str, int]:
    return {
        "bm25.terms": len(index.postings),
        "bm25.postings": sum(len(idx) for idx, _ in index.postings.values()),
    }


# Work counts taken at the same boundaries as the spans: (args, kwargs, result) -> counts.
COUNTERS: dict[str, Callable[..., dict[str, int]]] = {
    "corpus.ingest_corpus": lambda a, k, r: {"corpus.tokens": sum(len(c.tokens) for c in r.cases)},
    "bm25.build_index": lambda a, k, r: _index_counts(r),
    "graph.build_case_case_edges": lambda a, k, r: {"graph.edges.case_case": r.nnz // 2},
    "graph.build_case_charge_edges": lambda a, k, r: {"graph.edges.case_charge": r.nnz},
    "graph.build_charge_charge_edges": lambda a, k, r: {"graph.edges.charge_charge": r.nnz // 2},
    "gat.save_checkpoint": _checkpoint_bytes,
    "training.adam_step": lambda a, k, r: {"training.steps": 1},
    "training.sample_batch": lambda a, k, r: {"training.batch_entries": len(r.entries)},
    "retrieval.rank_all": lambda a, k, r: {"retrieval.queries": len(r.results)},
}
COUNT_NAMES = (
    "corpus.tokens",
    "bm25.terms",
    "bm25.postings",
    "graph.edges.case_case",
    "graph.edges.case_charge",
    "graph.edges.charge_charge",
    "gat.checkpoint_bytes",
    "training.steps",
    "training.batch_entries",
    "retrieval.queries",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    run_id: str


class Tracer:
    """Keeps spans and counts in memory; one instance per measured call."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, counter: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            self._stack.append(len(self.spans))
            span = Span(name, time.perf_counter(), math.nan, parent, self.run_id)
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                self.counts.update(counter(args, kwargs, result))
            return result

        wrapper.__perfbench_wrapper__ = True
        return wrapper

    def rows(self) -> list[dict]:
        return [asdict(s) | {"id": i} for i, s in enumerate(self.spans)]


def caselink_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "caselink" or name.startswith("caselink.")]


def originals(names) -> dict[str, Callable]:
    """The function object each ``layer.function`` name refers to in its home module."""
    out = {}
    for qual in names:
        layer, fn = qual.split(".")
        out[qual] = getattr(importlib.import_module(f"caselink.{layer}"), fn)
    return out


def stale_bindings(expected: dict[str, Callable]) -> list[str]:
    """``module.attr`` bindings that are still wrappers or no longer the originals."""
    bad = []
    for qual, fn in expected.items():
        layer, name = qual.split(".")
        if getattr(sys.modules[f"caselink.{layer}"], name) is not fn:
            bad.append(qual)
    for module in caselink_modules():
        for attr, value in vars(module).items():
            if getattr(value, "__perfbench_wrapper__", False):
                bad.append(f"{module.__name__}.{attr}")
    return bad


@contextlib.contextmanager
def replaced(fn: Callable, replacement: Callable):
    """Bind ``replacement`` wherever a caselink module binds ``fn``; restore on exit."""
    patches = [(m, attr) for m in caselink_modules() for attr, v in vars(m).items() if v is fn]
    try:
        for module, attr in patches:
            setattr(module, attr, replacement)
        yield
    finally:
        for module, attr in patches:
            setattr(module, attr, fn)


@contextlib.contextmanager
def installed(tracer: Tracer, names):
    """Wrap every caselink binding of each named function in a span recorder."""
    with contextlib.ExitStack() as stack:
        for qual, fn in originals(names).items():
            stack.enter_context(replaced(fn, tracer.wrap(qual, fn, COUNTERS.get(qual))))
        yield


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.end - s.start - covered)
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """``<name>.calls``, ``.total_s`` and ``.self_s`` for every traced name."""
    out: dict[str, float] = {}
    for name in TRACED:
        out.update({f"{name}.calls": 0, f"{name}.total_s": 0.0, f"{name}.self_s": 0.0})
    for s, self_s in zip(spans, self_times(spans)):
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.total_s"] += s.end - s.start
        out[f"{s.name}.self_s"] += self_s
    return out


def phases(spans: list[Span]) -> dict[str, float]:
    """Phase boundaries of one pipeline call, cut at the PHASES spans."""

    def first(name, after=-math.inf):
        return next(s for s in spans if s.name == name and s.start >= after)

    root = next(s for s in spans if s.name == "cli.main" and s.parent is None)
    graph = first("graph.build_global_case_graph", root.start)
    train = first("training.train", graph.end)
    evaluate = first("retrieval.evaluate_runs", train.end)
    return {
        "pipeline_s": root.end - root.start,
        "setup_s": graph.start - root.start,
        "graph_s": graph.end - graph.start,
        "train_s": train.end - train.start,
        "rank_s": evaluate.start - train.end,
    }
