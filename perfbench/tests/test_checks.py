import json
from pathlib import Path

import pytest

import checks
import run
import tracer
from caselink import cli
from caselink.bm25 import load_index, score_all
from caselink.corpus import ingest_corpus
from caselink.synthetic import SyntheticSpec, generate, write_dataset

README = Path(__file__).resolve().parents[2] / "README.md"
FLAGS = ["--epochs", "2", "--lr", "0.01"]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A tiny dataset plus one candidate decided after every query and one with
    no year, and one run."""
    root = tmp_path_factory.mktemp("bench")
    spec = SyntheticSpec(n_clusters=2, candidates_per_cluster=8, queries_per_cluster=2,
                         relevant_per_query=2, seed=3)
    paths = write_dataset(generate(spec), root / "data")
    with paths["corpus"].open("a", encoding="utf-8") as fh:
        fh.write(json.dumps({"id": "late", "role": "candidate",
                             "text": "Decided May 1, 2030. c0w0 c0w1 c1w0"}) + "\n")
        fh.write(json.dumps({"id": "undated", "role": "candidate",
                             "text": "c0w0 c0w1 c1w0"}) + "\n")
    with paths["embeddings"].open("a", encoding="utf-8") as fh:
        for case_id in ("late", "undated"):
            fh.write(json.dumps({"id": case_id,
                                 "vector": [1.0] + [0.0] * (spec.dim - 1)}) + "\n")
    config = root / "config.json"
    config.write_text(json.dumps({k: str(v) for k, v in paths.items()}), "utf-8")
    call = run.pipeline_call(cli, config, root / "out", FLAGS, tracer.PHASES, "untraced")
    assert call.code == 0
    store = ingest_corpus(paths["corpus"], paths["labels"])
    return store, config, call


def doctored(tmp_path, call, edit) -> Path:
    out = tmp_path / "doctored"
    out.mkdir()
    for name in ("run.json", "report.json", "bm25.bin"):
        (out / name).write_bytes((call.out / name).read_bytes())
    data = json.loads((out / "run.json").read_text("utf-8"))
    edit(data)
    (out / "run.json").write_text(json.dumps(data), "utf-8")
    return out


def test_pipeline_output_passes(pipeline):
    store, _, call = pipeline
    result = checks.check_run(store, call.out, 10, 5)
    assert result.problems == []
    assert result.queries == 4 and result.bad_queries == 0
    assert set(call.phases) == {"pipeline_s", "setup_s", "graph_s", "train_s", "rank_s"}
    assert all(v > 0 for v in call.phases.values())


def test_short_list_is_rejected(pipeline, tmp_path):
    store, _, call = pipeline
    out = doctored(tmp_path, call, lambda run: run["q000"].pop())
    result = checks.check_run(store, out, 10, 5)
    assert result.bad_queries == 1
    assert any(p.startswith("query q000: expected 5 distinct ids") for p in result.problems)
    assert any(p.startswith("report.json") for p in result.problems)


def test_post_dated_candidate_is_rejected(pipeline, tmp_path):
    store, _, call = pipeline
    out = doctored(tmp_path, call, lambda run: run["q001"].__setitem__(0, "late"))
    result = checks.check_run(store, out, 10, 5)
    assert result.bad_queries == 1
    assert any("q001: not decided strictly before" in p for p in result.problems)


def test_undated_candidate_is_eligible_as_in_year_filter(pipeline, tmp_path):
    store, _, call = pipeline
    assert next(c for c in store.candidates() if c.id == "undated").year is None
    assert "undated" not in json.loads((call.out / "run.json").read_text("utf-8"))["q001"]
    out = doctored(tmp_path, call, lambda run: run["q001"].__setitem__(0, "undated"))
    result = checks.check_run(store, out, 10, 5)
    assert not any("not decided strictly before" in p for p in result.problems)


def test_candidate_outside_the_prefilter_is_rejected(pipeline, tmp_path):
    store, _, call = pipeline
    index, _ = load_index(call.out / "bm25.bin")
    query = next(q for q in store.queries() if q.id == "q000")
    scores = score_all(index, query.tokens)
    weakest = min((c for c in store.candidates() if c.id not in ("late", "undated")),
                  key=lambda c: scores[index.doc_index(c.id)]).id
    out = doctored(tmp_path, call, lambda run: run["q000"].__setitem__(4, weakest))
    result = checks.check_run(store, out, 10, 5)
    assert f"query q000: outside the BM25 top-10: ['{weakest}']" in result.problems


def test_missing_query_is_rejected(pipeline, tmp_path):
    store, _, call = pipeline
    out = doctored(tmp_path, call, lambda run: run.pop("q003"))
    result = checks.check_run(store, out, 10, 5)
    assert "query q003: missing from run.json" in result.problems


def test_traced_call_is_byte_identical_and_restores_bindings(pipeline, tmp_path):
    _, config, call = pipeline
    originals = tracer.originals(tracer.TRACED)
    traced = run.pipeline_call(cli, config, tmp_path / "traced", FLAGS, tracer.TRACED, "traced")
    assert traced.code == 0
    for name in ("run.json", "report.json"):
        assert (traced.out / name).read_bytes() == (call.out / name).read_bytes()
    assert tracer.stale_bindings(originals) == []
    metrics = tracer.layer_metrics(traced.trace.spans)
    assert metrics["cli.main.calls"] == 1
    assert metrics["training.infonce_loss.calls"] == 2
    assert metrics["gat.save_checkpoint.calls"] == 3  # two epochs plus the best one
    assert traced.trace.counts["training.steps"] == 2
    assert traced.trace.counts["retrieval.queries"] == 4
    root = traced.trace.spans[0]
    assert root.name == "cli.main" and root.parent is None
    assert metrics["cli.main.total_s"] == pytest.approx(traced.phases["pipeline_s"])


def test_readme_quickstart_result_is_parsed():
    assert checks.readme_quickstart(README) == (71, 0.7888888888888889)
