"""Benchmark workloads: the synthetic input each one generates, its pipeline
flags, and the layer each one is meant to stress.

Every workload runs ``caselink pipeline`` with the README quick-start training
flags. The input size and the epoch count are chosen so that a different
layer owns the largest share of the run on each workload (see README.md in
this directory for the measured shares).
"""

from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_SEED = 2  # the README quick-start seed

# The README quick-start training flags; everything else keeps its default.
README_TRAINING_FLAGS = ("--lr", "0.01", "--dropout", "0.1", "--tau", "0.05")


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict = field(default_factory=dict)  # SyntheticSpec fields; seed comes from --seed
    epochs: int = 150
    # Calls after each full call that skip the phases dominating it ("train":
    # --epochs 0; "graph": reuse the full call's graph), adding samples of
    # the shorter phases at a fraction of a full call's cost.
    probes: tuple[tuple[str, ...], ...] = (("train",),) * 3

    def pipeline_flags(self) -> list[str]:
        return ["--epochs", str(self.epochs), *README_TRAINING_FLAGS]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(name="quickstart", epochs=150),
        Workload(
            name="lexical",
            spec={"n_clusters": 10, "candidates_per_cluster": 200, "queries_per_cluster": 10},
            epochs=3,
            probes=(("graph",), ("graph", "train")),
        ),
    )
}
