import math

import pytest

import caselink
import caselink.cli
import caselink.retrieval
import caselink.training
import tracer
from caselink.bm25 import build_index, topk_similar
from caselink.synthetic import SyntheticSpec, generate
from tracer import Span, Tracer


def span(name, start, end, parent=None):
    return Span(name, start, end, parent, "run")


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("graph.build_global_case_graph", 1.0, 4.0, parent=0),
        span("bm25.score_all", 2.0, 3.0, parent=1),
        span("bm25.score_all", 3.5, 3.75, parent=1),
        span("training.train", 5.0, 7.0, parent=0),
    ]
    assert tracer.self_times(spans) == pytest.approx([5.0, 1.75, 1.0, 0.25, 2.0])

    metrics = tracer.layer_metrics(spans)
    assert metrics["bm25.score_all.calls"] == 2
    assert metrics["bm25.score_all.total_s"] == pytest.approx(1.25)
    assert metrics["graph.build_global_case_graph.self_s"] == pytest.approx(1.75)
    assert metrics["cli.main.self_s"] == pytest.approx(5.0)
    assert metrics["gat.model_forward.calls"] == 0  # untouched names still report
    assert len(metrics) == 3 * len(tracer.TRACED)


def test_self_time_counts_overlapping_children_once():
    spans = [span("a", 0.0, 4.0), span("b", 1.0, 3.0, 0), span("c", 2.0, 3.5, 0)]
    assert tracer.self_times(spans)[0] == pytest.approx(1.5)


def test_phases_cut_at_boundary_spans():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("graph.build_global_case_graph", 0.5, 2.0, parent=0),
        span("training.train", 2.5, 9.0, parent=0),
        span("retrieval.evaluate_runs", 9.5, 9.6, parent=0),
    ]
    assert tracer.phases(spans) == pytest.approx(
        {"pipeline_s": 10.0, "setup_s": 0.5, "graph_s": 1.5, "train_s": 6.5, "rank_s": 0.5}
    )


def test_install_wraps_every_binding_and_restores_them():
    originals = tracer.originals(tracer.TRACED)
    train = caselink.training.train
    assert caselink.cli.train is train  # from-import in cli
    t = Tracer("run")
    with tracer.installed(t, tracer.TRACED):
        assert caselink.cli.train is caselink.training.train
        assert caselink.training.train is not train
        assert caselink.evaluate_runs is caselink.retrieval.evaluate_runs  # __init__ re-export
        assert caselink.cli.evaluate_runs is caselink.retrieval.evaluate_runs
        assert tracer.stale_bindings(originals)
        caselink.cli.evaluate_runs({}, {})
        caselink.evaluate_runs({}, {})
    assert [s.name for s in t.spans] == ["retrieval.evaluate_runs"] * 2
    assert all(s.parent is None and not math.isnan(s.end) for s in t.spans)
    assert caselink.cli.train is train and caselink.training.train is train
    assert tracer.stale_bindings(originals) == []


def test_calls_inside_the_home_module_nest_and_count():
    ds = generate(SyntheticSpec(n_clusters=2, candidates_per_cluster=8, queries_per_cluster=2,
                                relevant_per_query=2, seed=1))
    t = Tracer("run")
    with tracer.installed(t, tracer.TRACED):
        index = caselink.bm25.build_index(ds.store)
        topk_similar(index, ds.store, ds.store.cases[0].id, 3)  # module-level name, not wrapped
        caselink.bm25.topk_similar(index, ds.store, ds.store.cases[0].id, 3)
    assert [s.name for s in t.spans] == ["bm25.build_index", "bm25.score_all",
                                         "bm25.topk_similar", "bm25.score_all"]
    assert t.spans[3].parent == 2  # score_all called from inside topk_similar
    assert t.counts["bm25.terms"] == len(index.postings)
    assert build_index is tracer.originals(["bm25.build_index"])["bm25.build_index"]


def test_bindings_restored_when_the_call_raises():
    originals = tracer.originals(tracer.TRACED)
    t = Tracer("run")
    with pytest.raises(TypeError):
        with tracer.installed(t, tracer.TRACED):
            caselink.retrieval.evaluate_runs()
    assert tracer.stale_bindings(originals) == []
    assert not math.isnan(t.spans[0].end)
