"""Two-stage ranking and micro-averaged evaluation.

Retrieval for each query runs in two stages: a year filter drops candidates
decided in or after the query's year (a precedent must predate the citing
case), BM25 keeps the lexical top-10, and the trained encoder's cosine
similarity picks the final top-5. This demo compares that pipeline against a
BM25-only baseline on a synthetic corpus, using micro-averaged precision /
recall / F1 (counts summed across queries before dividing). It scores the
queries it trained on, as `caselink pipeline` does (README, Quick start), so
the F1 is not a held-out score; a held-out split with the epoch picked on
dev F1 is ROADMAP item 3.

Run with:  python3 demos/04_rank_and_evaluate.py
"""

from caselink.bm25 import build_index
from caselink.gat import model_forward
from caselink.graph import build_global_case_graph
from caselink.retrieval import (
    RetrievalRun,
    bm25_baseline_rank,
    evaluate_runs,
    rank_all,
    representations_from_rows,
)
from caselink.synthetic import SyntheticSpec, generate
from caselink.training import TrainingConfig, train


def main() -> None:
    spec = SyntheticSpec(seed=2)  # 100 candidates, 20 queries, 5 clusters
    dataset = generate(spec)
    store, labels, table = dataset.store, dataset.labels, dataset.table
    index = build_index(store)
    graph = build_global_case_graph(store, table, index, k=5, delta=0.9)

    print("training the encoder (150 epochs, ~2 s)...")
    config = TrainingConfig(epochs=150, lr=0.01, dropout=0.1, tau=0.05, seed=2)
    result = train(store, graph, labels, config, bm25_index=index)

    # Node representations come from a deterministic forward pass, without dropout.
    h, _ = model_forward(result.params, graph.features, graph.adjacency)
    representations = representations_from_rows(graph.node_ids, h)

    trained_run = rank_all(store, index, representations)
    baseline_run = RetrievalRun(
        results=tuple(bm25_baseline_rank(store, index, q.id) for q in store.queries())
    )

    trained = evaluate_runs(trained_run.retrieved(), labels)
    baseline = evaluate_runs(baseline_run.retrieved(), labels)

    print("\n              precision   recall       F1")
    print(
        f"BM25 top-5     {baseline.precision:9.4f} {baseline.recall:8.4f} "
        f"{baseline.f1:8.4f}"
    )
    print(
        f"two-stage      {trained.precision:9.4f} {trained.recall:8.4f} "
        f"{trained.f1:8.4f}"
    )

    example = trained_run.results[0]
    print(f"\nanatomy of one query ({example.query_id}):")
    print(f"  eligible after year filter: {len(example.eligible_ids)} candidates")
    print(f"  lexical top-10:            {list(example.prefilter_ids)}")
    print(f"  final top-5 (cosine):      {list(example.final_ids)}")
    print(f"  labeled relevant:          {sorted(labels[example.query_id])}")
    print(
        "\nEvery final list is contained in its lexical top-10, which is "
        "contained in the year-eligible pool."
    )


if __name__ == "__main__":
    main()
