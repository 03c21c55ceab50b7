"""Training the graph-attention encoder.

The encoder is a stack of graph-attention layers written directly in numpy,
with hand-derived backpropagation and a from-scratch Adam optimizer. The
objective combines:

  * a contrastive (InfoNCE) term pulling each query toward one labeled
    relevant case and away from sampled easy and hard negatives — hard
    negatives are irrelevant cases that BM25 nonetheless ranks highly;
  * a degree-regularization term that penalizes candidate rows of the cosine
    similarity matrix, discouraging embeddings that are uniformly close to
    everything.

Run with:  python3 demos/03_train_encoder.py
"""

import tempfile
from pathlib import Path

from caselink.bm25 import build_index
from caselink.graph import build_global_case_graph
from caselink.synthetic import SyntheticSpec, generate
from caselink.training import TrainingConfig, train


def main() -> None:
    # A planted-cluster corpus: relevant pairs share a cluster's vocabulary
    # and embedding direction, so there is real signal to learn.
    spec = SyntheticSpec(
        n_clusters=3,
        candidates_per_cluster=10,
        queries_per_cluster=3,
        relevant_per_query=3,
        dim=16,
        seed=11,
    )
    dataset = generate(spec)
    store, labels, table = dataset.store, dataset.labels, dataset.table
    print(
        f"synthetic corpus: {store.n_cases} cases "
        f"({len(labels)} queries), {len(store.charges)} charges"
    )

    index = build_index(store)
    graph = build_global_case_graph(store, table, index, k=5, delta=0.9)
    print(f"graph: {graph.adjacency.nnz} directed edge slots, dim {graph.dim}\n")

    config = TrainingConfig(
        epochs=25,
        batch_size=16,
        layers=2,
        dropout=0.1,
        lr=5e-3,
        tau=0.05,
        lam=1e-3,
        seed=0,
    )
    with tempfile.TemporaryDirectory(prefix="caselink-demo03-") as ckpt_dir:
        result = train(store, graph, config, checkpoint_dir=ckpt_dir, bm25_index=index)
        written = sorted(p.name for p in Path(ckpt_dir).iterdir())

    print("epoch  total-loss  contrastive  degree-reg")
    for log in result.log:
        if log.epoch % 5 == 0 or log.epoch == len(result.log) - 1:
            print(
                f"{log.epoch:5d}  {log.mean_loss:10.4f}  {log.infonce:11.4f}  "
                f"{log.degreg:10.4f}"
            )

    first, last = result.log[0], result.log[-1]
    print(
        f"\nmean loss fell from {first.mean_loss:.4f} to {last.mean_loss:.4f}; "
        f"best epoch was {result.best_epoch}"
    )
    print(f"files written to the checkpoint directory: {', '.join(written)}")
    print(
        "Training is fully deterministic for a given config and seed — rerunning "
        "this script reproduces these numbers exactly."
    )


if __name__ == "__main__":
    main()
