"""Synthetic corpus generator: structure, determinism, and file roundtrips."""

import numpy as np
import pytest

from caselink.corpus import (
    Role,
    ingest_corpus,
    load_charge_lexicon,
    load_labels,
    normalize_charge_name,
)
from caselink.embeddings import load_embedding_file
from caselink.graph import build_case_charge_edges
from caselink.synthetic import SyntheticSpec, generate, write_dataset


SMALL = SyntheticSpec(
    n_clusters=3,
    candidates_per_cluster=8,
    queries_per_cluster=2,
    relevant_per_query=3,
    dim=16,
    seed=4,
)


class TestSpecValidation:
    def test_relevance_budget_enforced(self):
        with pytest.raises(ValueError):
            SyntheticSpec(candidates_per_cluster=5, queries_per_cluster=2, relevant_per_query=3)

    def test_dim_floor(self):
        with pytest.raises(ValueError):
            SyntheticSpec(dim=1)

    def test_contamination_range(self):
        with pytest.raises(ValueError):
            SyntheticSpec(contamination=1.5)

    @pytest.mark.parametrize("field", ["cluster_vocab", "topic_vocab", "filler_vocab",
                                       "filler_len"])
    def test_vocabulary_sizes_below_one_rejected(self, field):
        with pytest.raises(ValueError, match="vocabulary sizes must be >= 1"):
            SyntheticSpec(**{field: 0})
        SyntheticSpec(**{field: 1})


class TestGenerate:
    def test_counts(self):
        ds = generate(SMALL)
        assert ds.store.n_cases == 3 * (8 + 2)
        assert len(ds.store.queries()) == 6
        assert len(ds.store.candidates()) == 24
        assert ds.store.n_charges == 3
        assert ds.n_queries == 6

    def test_labels_are_disjoint_subsets_of_candidates(self):
        ds = generate(SMALL)
        seen = set()
        candidate_ids = {c.id for c in ds.store.candidates()}
        for qid, rel in ds.labels.items():
            assert len(rel) == SMALL.relevant_per_query
            assert set(rel) <= candidate_ids
            assert not (set(rel) & seen)
            seen |= set(rel)

    def test_all_label_ids_resolve(self):
        ds = generate(SMALL)
        ids = {c.id for c in ds.store.cases}
        for qid, rel in ds.labels.items():
            assert qid in ids
            assert set(rel) <= ids

    def test_queries_postdate_candidates(self):
        ds = generate(SMALL)
        query_years = [c.year for c in ds.store.queries()]
        cand_years = [c.year for c in ds.store.candidates()]
        assert all(y is not None for y in query_years + cand_years)
        assert min(query_years) > max(cand_years)

    def test_every_case_mentions_its_charge(self):
        ds = generate(SMALL)
        names = [normalize_charge_name(c.name) for c in ds.store.charges]
        for case in ds.store.cases:
            text = " ".join(case.text.lower().split())
            assert any(name in text for name in names)

    def test_embeddings_cover_all_nodes_and_are_unit_norm(self):
        ds = generate(SMALL)
        for case in ds.store.cases:
            assert abs(np.linalg.norm(ds.table[case.id]) - 1.0) < 1e-12
        for charge in ds.store.charges:
            assert abs(np.linalg.norm(ds.table[charge.id]) - 1.0) < 1e-12

    def test_relevant_pairs_are_closer_than_cross_cluster(self):
        ds = generate(SMALL)
        rel_sims = []
        cross_sims = []
        all_rel = {cid for rel in ds.labels.values() for cid in rel}
        for qid, rel in ds.labels.items():
            qv = ds.table[qid]
            for cid in rel:
                rel_sims.append(float(qv @ ds.table[cid]))
            for other in ds.store.candidates():
                if other.id not in rel and other.id not in all_rel:
                    cross_sims.append(float(qv @ ds.table[other.id]))
        assert np.mean(rel_sims) > np.mean(cross_sims) + 0.2

    def test_deterministic(self):
        a = generate(SMALL)
        b = generate(SMALL)
        assert [c.text for c in a.store.cases] == [c.text for c in b.store.cases]
        assert a.labels == b.labels
        for case in a.store.cases:
            np.testing.assert_array_equal(a.table[case.id], b.table[case.id])

    def test_seed_changes_output(self):
        a = generate(SMALL)
        c = generate(SyntheticSpec(**{**SMALL.__dict__, "seed": 5}))
        assert [x.text for x in a.store.cases] != [x.text for x in c.store.cases]

    def test_more_clusters_than_charge_suffixes(self):
        spec = SyntheticSpec(n_clusters=23, candidates_per_cluster=2, queries_per_cluster=1,
                             relevant_per_query=1, dim=4, seed=3)
        ds = generate(spec)
        names = [c.name for c in ds.store.charges]
        assert names[:2] == ["statutory offense alpha", "statutory offense bravo"]
        assert names[10:12] == ["statutory offense alpha1", "statutory offense bravo1"]
        assert names[22] == "statutory offense charlie2"
        assert len(set(names)) == 23
        links = build_case_charge_edges(ds.store).toarray()
        for k in range(23):  # cluster k is cases 3k .. 3k + 2: one query, two candidates
            assert list(np.flatnonzero(links[k])) == [3 * k, 3 * k + 1, 3 * k + 2]


class TestWriteDataset:
    def test_files_roundtrip_through_real_loaders(self, tmp_path):
        ds = generate(SMALL)
        paths = write_dataset(ds, tmp_path)
        store = ingest_corpus(paths["corpus"], paths["labels"])
        assert [c.id for c in store.cases] == [c.id for c in ds.store.cases]
        assert [c.role for c in store.cases] == [c.role for c in ds.store.cases]
        assert [c.year for c in store.cases] == [c.year for c in ds.store.cases]

        labels = load_labels(paths["labels"])
        assert labels == ds.labels

        lexicon = load_charge_lexicon(paths["lexicon"])
        assert [e.name for e in lexicon] == [c.name for c in ds.store.charges]

        table = load_embedding_file(paths["embeddings"])
        assert len(table) == ds.store.n_cases + ds.store.n_charges
        for case in ds.store.cases:
            np.testing.assert_allclose(table[case.id], ds.table[case.id], atol=1e-12)

    def test_roles_in_corpus_file(self, tmp_path):
        ds = generate(SMALL)
        paths = write_dataset(ds, tmp_path)
        store = ingest_corpus(paths["corpus"])  # roles must come from the file itself
        assert len(store.queries()) == 6
        assert len(store.candidates()) == 24
