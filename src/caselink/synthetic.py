"""Synthetic retrieval benchmarks with planted cluster structure.

Each cluster contributes a shared vocabulary, a charge mention, and a set of
queries whose relevant candidates share both a rare topical vocabulary and a
topical embedding direction. Non-relevant candidates in the same cluster can
borrow other queries' topic words (lexical contamination) without sharing
their embedding direction, so lexical ranking is deliberately noisier than
dense ranking. Candidates carry 1990s decision dates and queries 2010s ones,
keeping every candidate temporally eligible.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .corpus import (
    _MONTHS,
    CaseDocument,
    ChargeEntry,
    CorpusStore,
    Role,
    replaced,
    write_json,
    write_jsonl,
)
from .embeddings import EmbeddingTable

_CHARGE_SUFFIXES = (
    "alpha",
    "bravo",
    "charlie",
    "delta",
    "echo",
    "foxtrot",
    "golf",
    "hotel",
    "india",
    "juliet",
)


@dataclass(frozen=True)
class SyntheticSpec:
    n_clusters: int = 5
    candidates_per_cluster: int = 20
    queries_per_cluster: int = 4
    relevant_per_query: int = 4
    dim: int = 32
    seed: int = 0
    topic_strength: float = 0.8
    noise_strength: float = 0.3
    cluster_vocab: int = 6
    topic_vocab: int = 4
    filler_vocab: int = 30
    filler_len: int = 12
    contamination: float = 0.6

    def __post_init__(self):
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        if self.relevant_per_query * self.queries_per_cluster > self.candidates_per_cluster:
            raise ValueError("not enough candidates per cluster to assign relevance")
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if not 0.0 <= self.contamination <= 1.0:
            raise ValueError("contamination must be in [0, 1]")
        if min(self.cluster_vocab, self.topic_vocab, self.filler_vocab, self.filler_len) < 1:
            raise ValueError("vocabulary sizes must be >= 1")


@dataclass(frozen=True)
class SyntheticDataset:
    store: CorpusStore
    table: EmbeddingTable
    spec: SyntheticSpec

    @property
    def labels(self) -> Mapping[str, tuple[str, ...]]:
        return self.store.labels

    @property
    def n_queries(self) -> int:
        return len(self.labels)


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _soup(rng: np.random.Generator, counts: Counter) -> str:
    words = list(counts.elements())
    return " ".join(words[i] for i in rng.permutation(len(words)))


def _charge_name(k: int) -> str:
    """``statutory offense alpha`` … ``juliet``, then ``alpha1``, ``bravo1``, …:
    a numbered name is one token, so it never matches an unnumbered one."""
    number, i = divmod(k, len(_CHARGE_SUFFIXES))
    return f"statutory offense {_CHARGE_SUFFIXES[i]}{number or ''}"


def generate(spec: SyntheticSpec) -> SyntheticDataset:
    """Build the full in-memory dataset: corpus, labels, and embeddings."""
    rng = np.random.default_rng(spec.seed)
    centers = [_unit(rng, spec.dim) for _ in range(spec.n_clusters)]
    charges = tuple(ChargeEntry(f"charge_{k}", _charge_name(k)) for k in range(spec.n_clusters))
    vectors = {ch.id: _unit(rng, spec.dim) for ch in charges}
    if spec.n_clusters >= 2:
        # make one pair of charges nearly collinear so the charge block of the
        # graph gets at least one edge at the default threshold
        near = vectors["charge_0"] + 0.05 * _unit(rng, spec.dim)
        vectors["charge_1"] = near / np.linalg.norm(near)

    filler_words = [f"f{j}" for j in range(spec.filler_vocab)]
    cases: list[CaseDocument] = []
    labels: dict[str, tuple[str, ...]] = {}
    n_rel = spec.relevant_per_query

    for k, center in enumerate(centers):
        cluster_words = [f"c{k}w{j}" for j in range(spec.cluster_vocab)]
        query_ids = [f"q{k * spec.queries_per_cluster + i:03d}"
                     for i in range(spec.queries_per_cluster)]
        cand_ids = [f"cand{k * spec.candidates_per_cluster + i:03d}"
                    for i in range(spec.candidates_per_cluster)]
        topic_words = {qid: [f"{qid}t{j}" for j in range(spec.topic_vocab)] for qid in query_ids}
        topic_vecs = {qid: _unit(rng, spec.dim) for qid in query_ids}

        # candidate id -> (the query it is relevant to, whether strongly)
        owner: dict[str, tuple[str, bool]] = {}
        for j, qid in enumerate(query_ids):
            labels[qid] = tuple(cand_ids[j * n_rel:(j + 1) * n_rel])
            owner |= {cid: (qid, i < (n_rel + 1) // 2) for i, cid in enumerate(labels[qid])}

        def base_counts() -> Counter:
            counts = Counter({w: int(rng.integers(1, 4)) for w in cluster_words})
            counts.update(filler_words[int(i)]
                          for i in rng.choice(len(filler_words), size=spec.filler_len))
            return counts

        def add_case(case_id: str, role: Role, counts: Counter, decade: int,
                     topic: np.ndarray | None) -> None:
            """Date and write the case, then draw its vector: a fresh topic
            when ``topic`` is None, then the noise."""
            year = decade + int(rng.integers(0, 10))
            month = _MONTHS[int(rng.integers(0, 12))].title()
            day = int(rng.integers(1, 29))
            text = (f"Decided {month} {day}, {year}. The court entered a conviction for "
                    f"{_charge_name(k)}. {_soup(rng, counts)}")
            case = CaseDocument.from_text(case_id, text, role)
            assert case.year == year
            cases.append(case)
            if topic is None:
                topic = _unit(rng, spec.dim)
            v = center + spec.topic_strength * topic + spec.noise_strength * _unit(rng, spec.dim)
            vectors[case_id] = v / np.linalg.norm(v)

        for qid in query_ids:
            counts = base_counts()
            counts.update(dict.fromkeys(topic_words[qid], 3))
            add_case(qid, Role.QUERY, counts, 2010, topic_vecs[qid])

        for cid in cand_ids:
            counts = base_counts()
            mine, strong = owner.get(cid, (None, False))
            if mine is not None:
                words = topic_words[mine]
                if strong:
                    for i in rng.choice(len(words), size=max(1, len(words) - 1), replace=False):
                        counts[words[int(i)]] += 2
                else:
                    counts[words[int(rng.integers(len(words)))]] += 1
            if rng.random() < spec.contamination:
                other = query_ids[int(rng.integers(len(query_ids)))]
                if other != mine:
                    words = topic_words[other]
                    take = int(rng.integers(1, 3))
                    for i in rng.choice(len(words), size=min(take, len(words)), replace=False):
                        counts[words[int(i)]] += int(rng.integers(2, 5))
            add_case(cid, Role.CANDIDATE, counts, 1990, topic_vecs.get(mine))

    store = CorpusStore(cases=tuple(cases), charges=charges, labels=labels)
    return SyntheticDataset(store, EmbeddingTable(dim=spec.dim, vectors=vectors), spec)


def dataset_writers(ds: SyntheticDataset) -> dict[str, Callable[[Path], None]]:
    """The writer of each dataset file, by file name; the name's stem is the
    file's key in :func:`write_dataset`'s result and the pipeline config."""
    return {
        "corpus.jsonl": lambda path: write_jsonl(path, (
            {"id": c.id, "text": c.text, "role": c.role.value} for c in ds.store.cases)),
        "labels.json": lambda path: write_json(path, {q: list(r) for q, r in ds.labels.items()}),
        "lexicon.jsonl": lambda path: write_jsonl(
            path, ({"id": ch.id, "name": ch.name} for ch in ds.store.charges)),
        "embeddings.jsonl": lambda path: write_jsonl(path, (
            {"id": i, "vector": ds.table.vectors[i].tolist()} for i in ds.store.node_ids)),
    }


def write_dataset(ds: SyntheticDataset, out_dir: str | Path) -> dict[str, Path]:
    """Materialize the dataset as corpus/labels/lexicon/embedding files,
    committed together; returns each file's path by its key."""
    out = Path(out_dir)
    writers = dataset_writers(ds)
    with replaced({out / name: write for name, write in writers.items()}):
        pass
    return {Path(name).stem: out / name for name in writers}
