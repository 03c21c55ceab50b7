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

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import (
    CaseDocument,
    ChargeEntry,
    CorpusStore,
    Role,
    extract_latest_year,
    tokenize,
    write_json,
    write_jsonl,
)
from .embeddings import EmbeddingTable

MONTHS = (
    "January",
    "February",
    "March",
    "April",
    "May",
    "June",
    "July",
    "August",
    "September",
    "October",
    "November",
    "December",
)

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
    labels: dict[str, tuple[str, ...]]
    table: EmbeddingTable
    spec: SyntheticSpec

    @property
    def n_queries(self) -> int:
        return len(self.labels)


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _soup(rng: np.random.Generator, counts: dict[str, int]) -> str:
    words: list[str] = []
    for w, c in counts.items():
        words.extend([w] * c)
    order = rng.permutation(len(words))
    return " ".join(words[i] for i in order)


def _charge_name(k: int) -> str:
    """``statutory offense alpha`` … ``juliet``, then ``alpha1``, ``bravo1``, …:
    a numbered name is one token, so it never matches an unnumbered one."""
    number, i = divmod(k, len(_CHARGE_SUFFIXES))
    return f"statutory offense {_CHARGE_SUFFIXES[i]}{number or ''}"


def generate(spec: SyntheticSpec) -> SyntheticDataset:
    """Build the full in-memory dataset: corpus, labels, and embeddings."""
    rng = np.random.default_rng(spec.seed)
    centers = [_unit(rng, spec.dim) for _ in range(spec.n_clusters)]

    charges = []
    charge_vecs: dict[str, np.ndarray] = {}
    for k in range(spec.n_clusters):
        cid = f"charge_{k}"
        charges.append(ChargeEntry(id=cid, name=_charge_name(k)))
        charge_vecs[cid] = _unit(rng, spec.dim)
    if spec.n_clusters >= 2:
        # make one pair of charges nearly collinear so the charge block of the
        # graph gets at least one edge at the default threshold
        near = charge_vecs["charge_0"] + 0.05 * _unit(rng, spec.dim)
        charge_vecs["charge_1"] = near / np.linalg.norm(near)

    filler_words = [f"f{j}" for j in range(spec.filler_vocab)]

    cases: list[CaseDocument] = []
    labels: dict[str, tuple[str, ...]] = {}
    vectors: dict[str, np.ndarray] = dict(charge_vecs)

    gq = 0
    gc = 0
    for k in range(spec.n_clusters):
        center = centers[k]
        cluster_words = [f"c{k}w{j}" for j in range(spec.cluster_vocab)]
        charge = _charge_name(k)

        query_ids = [f"q{gq + i:03d}" for i in range(spec.queries_per_cluster)]
        topic_words = {
            qid: [f"{qid}t{j}" for j in range(spec.topic_vocab)] for qid in query_ids
        }
        topic_vecs = {qid: _unit(rng, spec.dim) for qid in query_ids}

        cand_ids = [f"cand{gc + i:03d}" for i in range(spec.candidates_per_cluster)]
        assigned: dict[str, str] = {}  # candidate id -> query id
        strength: dict[str, str] = {}  # candidate id -> "strong" | "weak"
        pos = 0
        for qid in query_ids:
            block = cand_ids[pos : pos + spec.relevant_per_query]
            labels[qid] = tuple(block)
            half = (len(block) + 1) // 2
            for i, cid in enumerate(block):
                assigned[cid] = qid
                strength[cid] = "strong" if i < half else "weak"
            pos += spec.relevant_per_query

        def base_counts() -> dict[str, int]:
            counts: dict[str, int] = {}
            for w in cluster_words:
                counts[w] = int(rng.integers(1, 4))
            picks = rng.choice(len(filler_words), size=spec.filler_len, replace=True)
            for i in picks:
                w = filler_words[int(i)]
                counts[w] = counts.get(w, 0) + 1
            return counts

        def date_sentence(decade_start: int) -> tuple[str, int]:
            year = decade_start + int(rng.integers(0, 10))
            month = MONTHS[int(rng.integers(0, 12))]
            day = int(rng.integers(1, 29))
            return f"Decided {month} {day}, {year}.", year

        for qid in query_ids:
            counts = base_counts()
            for w in topic_words[qid]:
                counts[w] = counts.get(w, 0) + 3
            date, year = date_sentence(2010)
            text = (
                f"{date} The court entered a conviction for {charge}. "
                f"{_soup(rng, counts)}"
            )
            assert extract_latest_year(text) == year
            cases.append(
                CaseDocument(
                    id=qid, text=text, tokens=tuple(tokenize(text)), year=year,
                    role=Role.QUERY,
                )
            )
            noise = spec.noise_strength * _unit(rng, spec.dim)
            v = center + spec.topic_strength * topic_vecs[qid] + noise
            vectors[qid] = v / np.linalg.norm(v)

        for cid in cand_ids:
            counts = base_counts()
            owner = assigned.get(cid)
            if owner is not None:
                words = topic_words[owner]
                if strength[cid] == "strong":
                    chosen = rng.choice(len(words), size=max(1, len(words) - 1), replace=False)
                    for i in chosen:
                        counts[words[int(i)]] = counts.get(words[int(i)], 0) + 2
                else:
                    w = words[int(rng.integers(len(words)))]
                    counts[w] = counts.get(w, 0) + 1
            if rng.random() < spec.contamination:
                other = query_ids[int(rng.integers(len(query_ids)))]
                if other != owner:
                    words = topic_words[other]
                    take = int(rng.integers(1, 3))
                    chosen = rng.choice(len(words), size=min(take, len(words)), replace=False)
                    for i in chosen:
                        counts[words[int(i)]] = counts.get(words[int(i)], 0) + int(
                            rng.integers(2, 5)
                        )
            date, year = date_sentence(1990)
            text = (
                f"{date} The court entered a conviction for {charge}. "
                f"{_soup(rng, counts)}"
            )
            assert extract_latest_year(text) == year
            cases.append(
                CaseDocument(
                    id=cid, text=text, tokens=tuple(tokenize(text)), year=year,
                    role=Role.CANDIDATE,
                )
            )
            if owner is not None:
                topic = topic_vecs[owner]
            else:
                topic = _unit(rng, spec.dim)
            noise = spec.noise_strength * _unit(rng, spec.dim)
            v = center + spec.topic_strength * topic + noise
            vectors[cid] = v / np.linalg.norm(v)

        gq += spec.queries_per_cluster
        gc += spec.candidates_per_cluster

    store = CorpusStore(cases=tuple(cases), charges=tuple(charges), labels=dict(labels))
    table = EmbeddingTable(dim=spec.dim, vectors=vectors)
    return SyntheticDataset(store=store, labels=labels, table=table, spec=spec)


def write_dataset(ds: SyntheticDataset, out_dir: str | Path) -> dict[str, Path]:
    """Materialize the dataset as corpus/labels/lexicon/embedding files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "corpus": out / "corpus.jsonl",
        "labels": out / "labels.json",
        "lexicon": out / "lexicon.jsonl",
        "embeddings": out / "embeddings.jsonl",
    }

    write_jsonl(paths["corpus"], ({"id": case.id, "text": case.text, "role": case.role.value}
                                  for case in ds.store.cases))
    write_json(paths["labels"], {q: list(cids) for q, cids in ds.labels.items()})
    write_jsonl(paths["lexicon"], ({"id": ch.id, "name": ch.name} for ch in ds.store.charges))
    write_jsonl(paths["embeddings"], ({"id": node_id, "vector": ds.table.vectors[node_id].tolist()}
                                      for node_id in ds.store.node_ids))
    return paths
