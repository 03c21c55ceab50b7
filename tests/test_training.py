"""Trainer: sampling, the two loss terms, Adam, and the epoch loop."""

import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from caselink.bm25 import build_index, score_all
from caselink.corpus import replaced
from caselink.errors import DimensionError, LabelError, NumericalError, TraceError
from caselink.gat import GatParams, load_checkpoint
from caselink.graph import Provenance, build_global_case_graph
from caselink.synthetic import SyntheticSpec, generate
from caselink.embeddings import unit_rows
from caselink.training import (
    CHECKPOINT_FILES,
    AdamState,
    BatchEntry,
    TrainingBatch,
    TrainingConfig,
    adam_step,
    check_checkpoint_provenance,
    check_labels,
    degreg_loss,
    easy_negatives,
    hard_negative_pools,
    infonce_loss,
    sample_batch,
    total_loss_and_grads,
    train,
)

from conftest import make_store, random_gcg, toy_batch


def scatter_reference_infonce_grad(h, batch, tau, row_of):
    """The InfoNCE gradient with the per-row sums written as two unbuffered
    ``np.add.at`` scatters: the query contributions, then the cell ones."""
    entries = batch.entries
    n = len(entries)
    queries = np.array([row_of[e.query_id] for e in entries])
    own = [[row_of[e.positive_id], *(row_of[i] for i in e.negative_ids)] for e in entries]
    positives = np.array([rows[0] for rows in own])
    lengths = np.array([len(rows) for rows in own])
    own_mask = np.arange(lengths.max()) < lengths[:, None]
    own_rows = np.repeat(positives[:, None], own_mask.shape[1], axis=1)
    own_rows[own_mask] = np.concatenate(own)
    in_batch = np.array(
        [[p.positive_id not in e.known_positive_ids for p in entries] for e in entries]
    )
    np.fill_diagonal(in_batch, False)
    rows = np.hstack([own_rows, np.broadcast_to(positives, (n, n))])
    mask = np.hstack([own_mask, in_batch])
    used, local = np.unique(np.concatenate([queries, rows.ravel()]), return_inverse=True)
    unit, norms = unit_rows(h[used])
    u_q = unit[local[:n]]
    u_r = unit[local[n:]].reshape(*rows.shape, -1)
    logits = np.where(mask, np.einsum("bd,bld->bl", u_q, u_r) / tau, -np.inf)
    exp = np.exp(logits - logits.max(axis=1, keepdims=True))
    dcos = exp / exp.sum(axis=1)[:, None]
    dcos[:, 0] -= 1.0
    dcos /= tau * n
    d_unit = np.zeros_like(unit)
    np.add.at(d_unit, local[:n], np.einsum("bl,bld->bd", dcos, u_r))
    np.add.at(d_unit, local[n:], (dcos[:, :, None] * u_q[:, None, :]).reshape(-1, h.shape[1]))
    proj = np.einsum("ij,ij->i", unit, d_unit)
    dh = np.zeros_like(h)
    dh[used] = (d_unit - proj[:, None] * unit) / norms[:, None]
    return dh


def small_dataset():
    spec = SyntheticSpec(
        n_clusters=2,
        candidates_per_cluster=6,
        queries_per_cluster=2,
        relevant_per_query=3,
        dim=8,
        seed=1,
    )
    ds = generate(spec)
    graph = build_global_case_graph(
        ds.store, ds.table, build_index(ds.store), k=3, delta=0.9
    )
    return ds, graph


class TestTrainingConfig:
    def test_defaults(self):
        cfg = TrainingConfig()
        assert cfg.batch_size == 256
        assert cfg.layers == 2
        assert cfg.hidden_dim is None
        assert cfg.dropout == 0.2
        assert cfg.lr == 1e-3
        assert cfg.weight_decay == 1e-4
        assert cfg.n_easy_neg == 1
        assert cfg.n_hard_neg == 5
        assert cfg.lam == 1e-3
        assert cfg.tau == 0.1
        assert cfg.hard_neg_pool_size == 10
        assert cfg.epochs == 30
        assert cfg.seed == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(tau=0.0)
        with pytest.raises(ValueError):
            TrainingConfig(dropout=1.0)
        with pytest.raises(ValueError):
            TrainingConfig(lr=0.0)
        with pytest.raises(ValueError):
            TrainingConfig(batch_size=0)

    @pytest.mark.parametrize("field", ["lr", "tau", "weight_decay", "lam"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_rates_must_be_finite_and_in_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainingConfig(**{field: value})

    @pytest.mark.parametrize("field", ["n_easy_neg", "n_hard_neg", "hard_neg_pool_size"])
    def test_negative_sampling_sizes_rejected(self, field):
        with pytest.raises(ValueError, match="sampling sizes must be >= 0"):
            TrainingConfig(**{field: -1})
        TrainingConfig(**{field: 0})

    @pytest.mark.parametrize("field, value", [("hidden_dim", 0), ("hidden_dim", -3)])
    def test_encoder_sizes_below_one_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainingConfig(**{field: value})
        TrainingConfig(**{field: 1})


class TestHardNegativePools:
    def test_pool_excludes_positives_and_follows_ranking(self):
        from caselink.corpus import Role

        store = make_store(
            [
                ("q1", "alpha beta gamma", Role.QUERY),
                ("c1", "alpha beta gamma", Role.CANDIDATE),
                ("c2", "alpha beta", Role.CANDIDATE),
                ("c3", "alpha", Role.CANDIDATE),
                ("c4", "unrelated text", Role.CANDIDATE),
            ]
        )
        index = build_index(store)
        labels = {"q1": ("c1",)}
        pools = hard_negative_pools(store, index, labels, pool_size=3)
        scores = score_all(index, store.cases[0].tokens)
        assert pools["q1"] == ("c2", "c3")
        assert scores[2] > scores[3]  # c2 outranks c3

    def test_ties_resolve_by_ascending_id(self):
        from caselink.corpus import Role

        for order, labels, expected in [
            (("q1", "cb", "ca", "cc"), {"q1": ()}, ("ca", "cb")),
            # query not first; a tied positive is dropped after the cut
            (("cd", "q1", "cc", "ca", "cb"), {"q1": ("ca",)}, ("cb",)),
        ]:
            store = make_store(
                [(c, "alpha", Role.QUERY if c == "q1" else Role.CANDIDATE) for c in order]
            )
            pools = hard_negative_pools(store, build_index(store), labels, pool_size=2)
            assert pools["q1"] == expected


def easy_negative_pools(labels, candidate_ids):
    """Reference pools: per query, every candidate that is not one of its
    positives, in candidate order, listed in full."""
    pools = {}
    for qid, positives in labels.items():
        pos_set = set(positives)
        pools[qid] = tuple(c for c in candidate_ids if c not in pos_set)
    return pools


def listed(easy):
    """Every query's pool of an ``EasyNegatives``, mapped index by index."""
    return {qid: easy.ids(qid, np.arange(easy.size(qid))) for qid in easy.skips}


class TestEasyNegatives:
    def test_indices_map_to_the_listed_pools(self):
        candidates = ["c1", "c2", "c3", "c4", "c5", "c6"]
        for labels in [
            {"q1": ("c1",), "q2": ("c2", "c3")},
            {"q1": ("c9", "c2")},  # a positive that is no candidate keeps the pool's size
            {"q1": ("c4", "c4", "c1")},  # a positive listed twice is skipped once
            {"q1": ("c6", "c1", "c3", "c2", "c5")},  # every candidate is a positive but one
            {"q1": tuple(candidates)},  # an empty pool
            {"q1": ()},
        ]:
            assert listed(easy_negatives(labels, candidates)) == easy_negative_pools(
                labels, candidates)

    def test_random_labels_map_to_the_listed_pools(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            candidates = [f"c{i}" for i in rng.permutation(int(rng.integers(1, 40)))]
            universe = candidates + ["x1", "x2"]
            labels = {f"q{j}": tuple(universe[int(i)] for i in
                                     rng.integers(len(universe), size=int(rng.integers(0, 8))))
                      for j in range(5)}
            easy = easy_negatives(labels, candidates)
            reference = easy_negative_pools(labels, candidates)
            assert {qid: easy.size(qid) for qid in labels} == {
                qid: len(pool) for qid, pool in reference.items()}
            assert listed(easy) == reference
            for qid, pool in reference.items():  # indices in any order, one at a time
                idx = rng.permutation(len(pool))
                assert easy.ids(qid, idx) == tuple(pool[i] for i in idx)
                assert all(easy.ids(qid, np.array([i])) == (pool[i],) for i in idx)


class TestCheckLabels:
    # q1's positives hold "a" twice and "zz", no candidate: 2 of them are candidates
    LABELS = {"q2": ("a",), "q1": ("a", "b", "a", "zz")}
    CANDIDATES = ["a", "b", "c", "d"]

    def test_the_pools_cover_every_labelled_query(self):
        pools = check_labels(self.LABELS, self.CANDIDATES, 2)
        assert sorted(pools.skips) == ["q1", "q2"]
        assert (pools.size("q1"), pools.size("q2")) == (2, 3)

    @pytest.mark.parametrize("labels, n_easy_neg, message", [
        ({}, 0, "no labeled queries to train on"),
        ({"q2": (), "q1": ("a",)}, 0, "query 'q2' has no labeled positive"),
        (LABELS, 3, "not enough easy negatives for query 'q1': 2 candidates are not its "
                    "positives, n_easy_neg is 3"),
        ({"q2": ("a", "b"), "q1": ("a",)}, 3, "not enough easy negatives for query 'q2': 2 "
                                              "candidates are not its positives, n_easy_neg is 3"),
    ], ids=["no query", "no positive", "first sorted", "later query"])
    def test_the_first_query_at_fault_is_named(self, labels, n_easy_neg, message):
        with pytest.raises(LabelError, match=f"^{message}$"):
            check_labels(labels, self.CANDIDATES, n_easy_neg)


class TestSampleBatch:
    def _fixture(self):
        labels = {"q1": ("c1",), "q2": ("c2", "c3")}
        pools = {"q1": ("c2", "c4"), "q2": ("c1", "c4")}
        candidates = ["c1", "c2", "c3", "c4", "c5", "c6"]
        return labels, pools, easy_negatives(labels, candidates)

    def test_easy_pools_drop_positives_and_keep_candidate_order(self):
        labels, _, easy = self._fixture()
        assert listed(easy) == {"q1": ("c2", "c3", "c4", "c5", "c6"),
                                "q2": ("c1", "c4", "c5", "c6")}

    def test_seeded_draws_are_pinned(self):
        # literals from the sampler that rebuilt each easy pool per query and
        # epoch: prebuilt pools of the same length must draw the same entries
        labels, pools, easy = self._fixture()
        cfg = TrainingConfig(n_easy_neg=2, n_hard_neg=1)
        rng = np.random.default_rng(3)
        drawn = [(e.query_id, e.positive_id, e.easy_negative_ids, e.hard_negative_ids)
                 for epoch in range(2)
                 for e in sample_batch(labels, pools, easy, cfg, rng, ["q1", "q2", "q1"],
                                       epoch=epoch).entries]
        assert drawn == [
            ("q1", "c1", ("c2", "c5"), ("c2",)),
            ("q2", "c2", ("c5", "c6"), ("c1",)),
            ("q1", "c1", ("c3", "c2"), ("c4",)),
            ("q1", "c1", ("c6", "c3"), ("c4",)),
            ("q2", "c3", ("c6", "c1"), ("c1",)),
            ("q1", "c1", ("c4", "c5"), ("c2",)),
        ]

    @pytest.mark.parametrize("empty_pools", [False, True], ids=["hard pool", "empty hard pool"])
    def test_no_hard_negatives_draw_only_the_positive_and_the_easy_negatives(self, empty_pools):
        labels, pools, easy = self._fixture()
        if empty_pools:
            pools = {qid: () for qid in pools}
        cfg = TrainingConfig(n_easy_neg=2, n_hard_neg=0)
        rng, reference = np.random.default_rng(3), np.random.default_rng(3)
        drawn = []
        for epoch in range(2):
            for e in sample_batch(labels, pools, easy, cfg, rng, ["q1", "q2", "q1"],
                                  epoch=epoch).entries:
                drawn.append((e.query_id, e.positive_id, e.easy_negative_ids, e.hard_negative_ids))
                reference.integers(len(labels[e.query_id]))
                reference.choice(easy.size(e.query_id), size=2, replace=False)
        assert drawn == [
            ("q1", "c1", ("c2", "c5"), ()),
            ("q2", "c2", ("c1", "c6"), ()),
            ("q1", "c1", ("c2", "c4"), ()),
            ("q1", "c1", ("c3", "c4"), ()),
            ("q2", "c2", ("c1", "c6"), ()),
            ("q1", "c1", ("c2", "c4"), ()),
        ]
        # the empty hard-negative draw took nothing from the generator
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_deterministic_for_seeded_rng(self):
        labels, pools, candidates = self._fixture()
        cfg = TrainingConfig(n_easy_neg=2, n_hard_neg=1)
        b1 = sample_batch(labels, pools, candidates, cfg, np.random.default_rng(3), ["q1", "q2"])
        b2 = sample_batch(labels, pools, candidates, cfg, np.random.default_rng(3), ["q1", "q2"])
        assert b1 == b2

    def test_negatives_exclude_known_positives(self):
        labels, pools, candidates = self._fixture()
        cfg = TrainingConfig(n_easy_neg=3, n_hard_neg=2)
        rng = np.random.default_rng(0)
        for _ in range(20):
            batch = sample_batch(labels, pools, candidates, cfg, rng, ["q1", "q2"])
            for entry in batch.entries:
                positives = set(labels[entry.query_id])
                assert entry.positive_id in positives
                assert not positives & set(entry.easy_negative_ids)
                assert set(entry.hard_negative_ids) <= set(pools[entry.query_id])

    def test_easy_negatives_never_repeat_within_entry(self):
        labels, pools, candidates = self._fixture()
        cfg = TrainingConfig(n_easy_neg=4, n_hard_neg=0)
        rng = np.random.default_rng(1)
        for _ in range(20):
            batch = sample_batch(labels, pools, candidates, cfg, rng, ["q1"])
            easy = batch.entries[0].easy_negative_ids
            assert len(set(easy)) == len(easy)

    def test_empty_hard_pool_falls_back_to_easy_sampling(self, caplog):
        labels = {"q1": ("c1",)}
        pools = {"q1": ()}
        cfg = TrainingConfig(n_easy_neg=1, n_hard_neg=2)
        with caplog.at_level("WARNING", logger="caselink.training"):
            batch = sample_batch(
                labels, pools, easy_negatives(labels, ["c1", "c2", "c3", "c4"]), cfg,
                np.random.default_rng(0), ["q1"]
            )
        assert not caplog.records  # train() reports empty pools, once per run
        entry = batch.entries[0]
        assert len(entry.hard_negative_ids) == 2
        assert "c1" not in entry.hard_negative_ids
        assert (entry.easy_negative_ids, entry.hard_negative_ids) == (("c4",), ("c4", "c3"))

    def test_no_positive_is_an_error(self):
        cfg = TrainingConfig()
        with pytest.raises(LabelError):
            sample_batch({"q1": ()}, {}, easy_negatives({"q1": ()}, ["c1", "c2"]), cfg,
                         np.random.default_rng(0), ["q1"])

    def test_insufficient_easy_negatives_is_an_error(self):
        cfg = TrainingConfig(n_easy_neg=2)
        with pytest.raises(LabelError):
            sample_batch(
                {"q1": ("c1",)}, {}, easy_negatives({"q1": ("c1",)}, ["c1", "c2"]), cfg,
                np.random.default_rng(0), ["q1"]
            )


class TestInfonceLoss:
    def _row_of(self, ids):
        return {nid: i for i, nid in enumerate(ids)}

    def test_equal_similarities_give_log_one_plus_p(self):
        for p in (1, 4, 9):
            ids = ["q", "pos"] + [f"n{i}" for i in range(p)]
            h = np.tile(np.array([1.0, 0.5, -0.25]), (len(ids), 1))
            entry = BatchEntry(
                query_id="q",
                positive_id="pos",
                easy_negative_ids=tuple(f"n{i}" for i in range(p)),
                hard_negative_ids=(),
                known_positive_ids=frozenset({"pos"}),
            )
            loss, _ = infonce_loss(
                h, TrainingBatch((entry,)), tau=0.1, row_of=self._row_of(ids)
            )
            assert loss == pytest.approx(math.log(1.0 + p), abs=1e-12)

    def test_hand_worked_opposed_pair(self):
        # cos(query, positive)=1, cos(query, negative)=-1, tau=1:
        # loss = ln(1 + e^{-2})
        ids = ["q", "pos", "neg"]
        h = np.array([[1.0, 0.0], [2.0, 0.0], [-3.0, 0.0]])
        entry = BatchEntry(
            query_id="q",
            positive_id="pos",
            easy_negative_ids=("neg",),
            hard_negative_ids=(),
            known_positive_ids=frozenset({"pos"}),
        )
        loss, _ = infonce_loss(h, TrainingBatch((entry,)), tau=1.0, row_of=self._row_of(ids))
        assert loss == pytest.approx(math.log(1.0 + math.exp(-2.0)), abs=1e-12)
        assert loss == pytest.approx(0.126928, abs=1e-6)

    def test_in_batch_positives_of_other_entries_join_the_denominator(self):
        ids = ["q1", "p1", "q2", "p2", "n1", "n2"]
        rng = np.random.default_rng(8)
        h = rng.standard_normal((len(ids), 4))
        row_of = self._row_of(ids)

        def entry(qid, pid, negs, known):
            return BatchEntry(
                query_id=qid,
                positive_id=pid,
                easy_negative_ids=negs,
                hard_negative_ids=(),
                known_positive_ids=frozenset(known),
            )

        base = TrainingBatch(
            (
                entry("q1", "p1", ("n1",), {"p1"}),
                entry("q2", "p2", ("n2",), {"p2"}),
            )
        )
        # shared positive: p2 is also a known positive of q1, so it must be
        # filtered out of q1's denominator
        filtered = TrainingBatch(
            (
                entry("q1", "p1", ("n1",), {"p1", "p2"}),
                entry("q2", "p2", ("n2",), {"p2"}),
            )
        )
        loss_base, _ = infonce_loss(h, base, tau=0.5, row_of=row_of)
        loss_filtered, _ = infonce_loss(h, filtered, tau=0.5, row_of=row_of)
        assert loss_base != loss_filtered

        # manual recomputation of the filtered batch
        def unit(v):
            return v / np.linalg.norm(v)

        def cos(a, b):
            return float(unit(h[row_of[a]]) @ unit(h[row_of[b]]))

        tau = 0.5
        # q1: negatives n1 only (p2 filtered as known positive)
        logits1 = np.array([cos("q1", "p1"), cos("q1", "n1")]) / tau
        l1 = math.log(np.exp(logits1 - logits1.max()).sum()) + logits1.max() - logits1[0]
        # q2: negatives n2 plus in-batch positive p1
        logits2 = np.array([cos("q2", "p2"), cos("q2", "n2"), cos("q2", "p1")]) / tau
        l2 = math.log(np.exp(logits2 - logits2.max()).sum()) + logits2.max() - logits2[0]
        assert loss_filtered == pytest.approx((l1 + l2) / 2.0, abs=1e-12)

    def test_batch_mean_over_independent_entries(self):
        ids = ["q1", "p1", "q2", "p2", "n1"]
        rng = np.random.default_rng(9)
        h = rng.standard_normal((len(ids), 3))
        row_of = self._row_of(ids)
        e1 = BatchEntry("q1", "p1", ("n1",), (), frozenset({"p1", "p2"}))
        e2 = BatchEntry("q2", "p2", ("n1",), (), frozenset({"p1", "p2"}))
        both, _ = infonce_loss(h, TrainingBatch((e1, e2)), tau=0.7, row_of=row_of)
        only1, _ = infonce_loss(h, TrainingBatch((e1,)), tau=0.7, row_of=row_of)
        only2, _ = infonce_loss(h, TrainingBatch((e2,)), tau=0.7, row_of=row_of)
        assert both == pytest.approx((only1 + only2) / 2.0, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        ids = ["q1", "p1", "q2", "p2", "n1", "n2", "x"]
        rng = np.random.default_rng(10)
        h = rng.standard_normal((len(ids), 4))
        row_of = self._row_of(ids)
        batch = TrainingBatch(
            (
                BatchEntry("q1", "p1", ("n1",), ("n2",), frozenset({"p1"})),
                BatchEntry("q2", "p2", ("n2",), (), frozenset({"p2"})),
            )
        )
        _, dh = infonce_loss(h, batch, tau=0.3, row_of=row_of)
        eps = 1e-6
        for i in range(h.shape[0]):
            for j in range(h.shape[1]):
                orig = h[i, j]
                h[i, j] = orig + eps
                plus, _ = infonce_loss(h, batch, tau=0.3, row_of=row_of)
                h[i, j] = orig - eps
                minus, _ = infonce_loss(h, batch, tau=0.3, row_of=row_of)
                h[i, j] = orig
                fd = (plus - minus) / (2 * eps)
                assert fd == pytest.approx(dh[i, j], abs=1e-7)

    def test_row_sums_equal_the_add_at_scatter_bit_for_bit(self):
        # 12 entries: every positive is an in-batch column of the 11 other
        # entries, and three shared negatives recur in every entry, so each
        # used row sums 10 or more terms, where a pairwise sum would round
        # differently from a sequential one
        rng = np.random.default_rng(21)
        ids = [f"q{i}" for i in range(12)] + [f"p{i}" for i in range(12)] + ["n0", "n1", "n2"]
        row_of = self._row_of(ids)
        h = rng.standard_normal((len(ids), 6))
        batch = TrainingBatch(tuple(
            BatchEntry(f"q{i}", f"p{i}", ("n0", "n1"), ("n2",) if i % 2 else (),
                       frozenset({f"p{i}", f"p{(i + 1) % 12}"}))
            for i in range(12)
        ))
        _, dh = infonce_loss(h, batch, tau=0.2, row_of=row_of)
        assert np.array_equal(dh, scatter_reference_infonce_grad(h, batch, 0.2, row_of))

    def test_in_batch_mask_equals_the_pairwise_reference_bit_for_bit(self):
        # q0 and q1 share the positive p0; q2 knows q3's positive p3, so p3 is
        # no in-batch negative of q2; q1 knows p2, q2's positive
        rng = np.random.default_rng(22)
        ids = ["q0", "q1", "q2", "q3", "p0", "p2", "p3", "n0"]
        row_of = self._row_of(ids)
        h = rng.standard_normal((len(ids), 4))

        def batch(q2_known):
            return TrainingBatch((
                BatchEntry("q0", "p0", ("n0",), (), frozenset({"p0"})),
                BatchEntry("q1", "p0", ("n0",), (), frozenset({"p0", "p2"})),
                BatchEntry("q2", "p2", (), ("n0",), frozenset(q2_known)),
                BatchEntry("q3", "p3", ("n0",), (), frozenset({"p3", "unseen"})),
            ))

        _, dh = infonce_loss(h, batch({"p2", "p3"}), tau=0.2, row_of=row_of)
        assert np.array_equal(dh, scatter_reference_infonce_grad(h, batch({"p2", "p3"}), 0.2,
                                                                 row_of))
        _, unmasked = infonce_loss(h, batch({"p2"}), tau=0.2, row_of=row_of)
        assert not np.array_equal(dh, unmasked)  # the known positive p3 was masked out
        # a known positive that is neither a batch positive nor a row is ignored
        _, absent = infonce_loss(h, batch({"p2", "p3", "absent"}), tau=0.2, row_of=row_of)
        assert "absent" not in row_of
        assert np.array_equal(absent, dh)
        assert np.array_equal(absent, scatter_reference_infonce_grad(
            h, batch({"p2", "p3", "absent"}), 0.2, row_of))

    def test_validation_errors(self):
        h = np.ones((2, 2))
        row_of = {"q": 0, "p": 1}
        entry = BatchEntry("q", "p", (), (), frozenset({"p"}))
        with pytest.raises(ValueError):
            infonce_loss(h, TrainingBatch((entry,)), tau=0.0, row_of=row_of)
        with pytest.raises(ValueError):
            infonce_loss(h, TrainingBatch(()), tau=0.1, row_of=row_of)

    def test_zero_norm_row_rejected(self):
        h = np.array([[0.0, 0.0], [1.0, 0.0]])
        entry = BatchEntry("q", "p", (), (), frozenset({"p"}))
        with pytest.raises(NumericalError):
            infonce_loss(h, TrainingBatch((entry,)), tau=0.1, row_of={"q": 0, "p": 1})


    def test_zero_norm_row_outside_the_batch_is_ignored(self):
        rng = np.random.default_rng(16)
        h = rng.standard_normal((4, 3))
        h[3] = 0.0  # a node no entry refers to
        row_of = {"q": 0, "p": 1, "n": 2, "unused": 3}
        entry = BatchEntry("q", "p", ("n",), (), frozenset({"p"}))
        loss, dh = infonce_loss(h, TrainingBatch((entry,)), tau=0.1, row_of=row_of)
        ref_loss, ref_dh = infonce_loss(h[:3], TrainingBatch((entry,)), tau=0.1, row_of=row_of)
        assert loss == ref_loss
        np.testing.assert_array_equal(dh[:3], ref_dh)
        assert not np.any(dh[3])


class TestInfonceBlocks:
    """``infonce_loss`` scores the batch ``_CELL_BLOCK`` cells x dims at a time;
    the block size changes neither the loss nor the gradient, and bounds the
    memory the loss takes."""

    @staticmethod
    def _batch():
        # q0 is the query of two entries, p1 the positive of two, q4 a query
        # and another entry's positive; the own lengths run from 1 to 6
        # (hard pools cut short) and some known positives are in-batch
        ids = ["q0", "q1", "q2", "q4", "q6", "p0", "p1", "p3", "p6", "p7",
               *(f"n{i}" for i in range(6))]
        spec = [("q0", "p0", 1, 5), ("q1", "p1", 1, 2), ("q2", "p1", 1, 0),
                ("q0", "p3", 0, 0), ("q4", "p6", 1, 4), ("q6", "q4", 1, 1),
                ("q2", "p7", 0, 3), ("q1", "p3", 1, 5)]
        entries = tuple(
            BatchEntry(q, p, tuple(f"n{i}" for i in range(easy)),
                       tuple(f"n{5 - i}" for i in range(hard)),
                       frozenset({p, "p7"} if q == "q1" else {p}))
            for q, p, easy, hard in spec
        )
        return {nid: i for i, nid in enumerate(ids)}, TrainingBatch(entries)

    # (k, c): a block of k x L x d + c cells x dims; the batch has B = 8 entries
    @pytest.mark.parametrize("k, c", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 0), (3, 0), (8, 0)],
                             ids=["1", "L*d-1", "L*d", "L*d+1", "2*L*d", "3*L*d", "B*L*d"])
    def test_every_block_size_gives_the_scatter_reference_bit_for_bit(self, k, c,
                                                                       monkeypatch):
        import caselink.training as training_module

        row_of, batch = self._batch()
        rng = np.random.default_rng(23)
        h = rng.standard_normal((len(row_of), 5))
        B, d = len(batch.entries), h.shape[1]
        L = max(1 + len(e.negative_ids) for e in batch.entries) + B
        assert B == 8
        monkeypatch.setattr(training_module, "_CELL_BLOCK", k * L * d + c)
        loss, dh = infonce_loss(h, batch, tau=0.2, row_of=row_of)
        monkeypatch.undo()
        ref_loss, _ = infonce_loss(h, batch, tau=0.2, row_of=row_of)
        assert loss == ref_loss
        assert np.array_equal(dh, scatter_reference_infonce_grad(h, batch, 0.2, row_of))

    def test_peak_memory_is_bounded_by_the_block_not_the_batch(self):
        import tracemalloc

        import caselink.training as training_module

        # 64 entries of 1 easy and 5 hard negatives over 512 rows of 256 dims:
        # the batch's cells x dims, 64 x 71 x 256 floats, are 9.3 MB a copy
        rng = np.random.default_rng(24)
        n_rows, d, B = 512, 256, 64
        h = rng.standard_normal((n_rows, d))
        row_of = {f"r{i}": i for i in range(n_rows)}
        picks = rng.permutation(n_rows)
        entries = tuple(
            BatchEntry(f"r{picks[i]}", f"r{picks[B + i]}", (f"r{rng.integers(n_rows)}",),
                       tuple(f"r{j}" for j in rng.choice(n_rows, size=5, replace=False)),
                       frozenset({f"r{picks[B + i]}"}))
            for i in range(B)
        )
        L = 7 + B
        infonce_loss(h, TrainingBatch(entries), tau=0.1, row_of=row_of)  # warm caches
        tracemalloc.start()
        try:
            infonce_loss(h, TrainingBatch(entries), tau=0.1, row_of=row_of)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # h-sized: the used rows, their unit rows, the unit-row gradient, two
        # temporaries of its backward and dh; block-sized: the gathered cell
        # rows, then the cell terms and their scatter indices
        block = max(training_module._CELL_BLOCK, L * d) * 8
        assert peak < 6 * h.nbytes + 4 * block
        assert 4 * block < B * L * d * 8 / 2


class TestDegregLoss:
    def test_identical_rows_hit_upper_bound(self):
        n, o = 5, 3
        h = np.tile(np.array([0.6, -0.8]), (n, 1))
        cand = np.arange(n - o, n)
        loss, _ = degreg_loss(h, n, cand)
        assert loss == pytest.approx(o * n, abs=1e-12)

    def test_single_candidate_orthogonal_pair(self):
        h = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss, _ = degreg_loss(h, 2, np.array([1]))
        assert loss == pytest.approx(1.0, abs=1e-12)

    def test_matches_double_loop_reference(self):
        rng = np.random.default_rng(12)
        for _ in range(15):
            n = int(rng.integers(2, 10))
            d = int(rng.integers(2, 5))
            o = int(rng.integers(1, n + 1))
            h = rng.standard_normal((n + 2, d))  # two extra non-case rows
            cand = np.sort(rng.choice(n, size=o, replace=False))
            unit = h[:n] / np.linalg.norm(h[:n], axis=1, keepdims=True)
            expected = sum(
                float(unit[i] @ unit[j]) for i in cand for j in range(n)
            )
            loss, _ = degreg_loss(h, n, cand)
            assert loss == pytest.approx(expected, abs=1e-10)

    def test_bounds(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(2, 12))
            o = int(rng.integers(1, n + 1))
            h = rng.standard_normal((n, 3))
            cand = np.sort(rng.choice(n, size=o, replace=False))
            loss, _ = degreg_loss(h, n, cand)
            assert o * (2.0 - n) - 1e-9 <= loss <= o * n + 1e-9

    def test_rows_beyond_cases_are_ignored(self):
        rng = np.random.default_rng(14)
        h = rng.standard_normal((6, 3))
        cand = np.array([2, 3])
        loss_a, dh_a = degreg_loss(h, 4, cand)
        h2 = h.copy()
        h2[4:] = rng.standard_normal((2, 3))
        loss_b, dh_b = degreg_loss(h2, 4, cand)
        assert loss_a == loss_b
        np.testing.assert_array_equal(dh_a[:4], dh_b[:4])
        assert not np.any(dh_a[4:])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        h = rng.standard_normal((7, 4))
        cand = np.array([3, 5, 6])
        _, dh = degreg_loss(h, 7, cand)
        eps = 1e-6
        for i in range(7):
            for j in range(4):
                orig = h[i, j]
                h[i, j] = orig + eps
                plus, _ = degreg_loss(h, 7, cand)
                h[i, j] = orig - eps
                minus, _ = degreg_loss(h, 7, cand)
                h[i, j] = orig
                fd = (plus - minus) / (2 * eps)
                assert fd == pytest.approx(dh[i, j], abs=1e-7)

    def test_validation(self):
        h = np.ones((3, 2))
        with pytest.raises(ValueError):
            degreg_loss(h, 3, np.array([], dtype=np.int64))
        h[1] = 0.0
        with pytest.raises(NumericalError):
            degreg_loss(h, 3, np.array([0]))


class TestTotalLoss:
    def test_total_combines_terms_linearly(self):
        graph = random_gcg()
        from caselink.gat import init_params

        params = init_params(7, [graph.dim, graph.dim, graph.dim])
        batch = toy_batch()
        cfg1 = TrainingConfig(lam=1e-3, tau=0.1, dropout=0.0)
        cfg2 = TrainingConfig(lam=5e-3, tau=0.1, dropout=0.0)
        t1, nce1, reg1, _, _ = total_loss_and_grads(
            params, graph, batch, cfg1, train_mode=False
        )
        t2, nce2, reg2, _, _ = total_loss_and_grads(
            params, graph, batch, cfg2, train_mode=False
        )
        assert t1 == nce1 + cfg1.lam * reg1
        assert nce1 == nce2 and reg1 == reg2  # eval forward is deterministic
        assert t2 - t1 == pytest.approx((cfg2.lam - cfg1.lam) * reg1, abs=1e-12)

    def test_lam_zero_skips_regularizer(self):
        graph = random_gcg()
        from caselink.gat import init_params

        params = init_params(7, [graph.dim, graph.dim])
        cfg = TrainingConfig(lam=0.0, dropout=0.0)
        total, nce, reg, _, _ = total_loss_and_grads(
            params, graph, toy_batch(), cfg, train_mode=False
        )
        assert reg == 0.0
        assert total == nce

    def test_train_mode_drops_out_at_the_config_rate(self):
        from caselink.gat import init_params, model_forward

        graph = random_gcg()
        params = init_params(7, [graph.dim, graph.dim, graph.dim])
        batch = toy_batch()
        totals = {}
        for rate in (0.0, 0.5):
            cfg = TrainingConfig(lam=1e-3, tau=0.1, dropout=rate)
            totals[rate], *_ = total_loss_and_grads(params, graph, batch, cfg, train_mode=True,
                                                    rng=np.random.default_rng(3))
        assert totals[0.0] != totals[0.5]
        h, _ = model_forward(params, graph.features, graph.adjacency, dropout=0.5,
                             rng=np.random.default_rng(3))
        nce, _ = infonce_loss(h, batch, 0.1, graph.node_rows)
        reg, _ = degreg_loss(h, graph.n_cases, graph.candidate_rows)
        assert totals[0.5] == nce + 1e-3 * reg


class TestAdamStep:
    def _scalar_setup(self, w0=0.0, grad=1.0):
        # dims [1, 1]: the flat vector is W[0, 0], a_src[0], a_dst[0]
        params = GatParams(dims=[1, 1], flat=np.array([w0, 0.0, 0.0]))
        grads = np.array([grad, 0.0, 0.0])
        return params, grads, AdamState.zeros_like(params)

    def test_hand_worked_first_step(self):
        params, grads, state = self._scalar_setup()
        new_params, new_state = adam_step(params, grads, state, lr=1e-3)
        # bias-corrected m_hat = 1, v_hat = 1: step = lr / (1 + eps)
        assert new_params.flat[0] == pytest.approx(-0.000999999990, abs=1e-12)
        assert new_state.t == 1

    def test_zero_gradient_leaves_parameters_unchanged(self):
        params, _, state = self._scalar_setup()
        new_params, _ = adam_step(params, np.zeros(3), state, lr=1e-3)
        np.testing.assert_array_equal(new_params.flat, params.flat)

    def test_purity(self):
        params, grads, state = self._scalar_setup(w0=0.5)
        w_before = params.flat.copy()
        out1, s1 = adam_step(params, grads, state, lr=1e-2)
        out2, s2 = adam_step(params, grads, state, lr=1e-2)
        np.testing.assert_array_equal(params.flat, w_before)
        assert state.t == 0
        assert not np.any(state.m) and not np.any(state.v)
        np.testing.assert_array_equal(out1.flat, out2.flat)
        np.testing.assert_array_equal(s1.m, s2.m)
        assert not np.shares_memory(out1.flat, params.flat)

    def test_weight_decay_equals_l2_gradient_shift(self):
        params, grads, state = self._scalar_setup(w0=0.7, grad=0.3)
        with_wd, _ = adam_step(params, grads, state, lr=1e-3, weight_decay=0.01)
        shifted = grads + 0.01 * params.flat
        manual, _ = adam_step(params, shifted, state, lr=1e-3, weight_decay=0.0)
        np.testing.assert_array_equal(with_wd.flat, manual.flat)

    def test_shape_mismatch_rejected(self):
        params, grads, state = self._scalar_setup()
        with pytest.raises(DimensionError):
            adam_step(params, np.zeros(4), state, lr=1e-3)

    def test_bias_correction_across_steps(self):
        params, grads, state = self._scalar_setup()
        p, s = params, state
        for _ in range(3):
            p, s = adam_step(p, grads, s, lr=1e-3)
        assert s.t == 3
        # constant gradient: every bias-corrected step is ~lr regardless of t
        assert p.flat[0] == pytest.approx(-3e-3, rel=1e-6)


class TestTrainLoop:
    def test_loss_decreases_on_separable_data(self):
        ds, graph = small_dataset()
        cfg = TrainingConfig(
            epochs=8,
            batch_size=8,
            dropout=0.0,
            lr=0.01,
            n_easy_neg=1,
            n_hard_neg=2,
            hard_neg_pool_size=5,
            seed=0,
        )
        result = train(ds.store, graph, ds.labels, cfg, build_index(ds.store))
        losses = [e.mean_loss for e in result.log]
        assert len(losses) == 8
        assert min(losses) < losses[0]
        assert result.best_epoch == int(np.argmin(losses))

    def test_epoch_log_holds_the_means_of_its_steps_bit_for_bit(self, monkeypatch):
        import caselink.training as training_module

        steps = []  # (epoch, total, infonce, degreg) per step

        def recording(params, graph, batch, config, **kwargs):
            result = total_loss_and_grads(params, graph, batch, config, **kwargs)
            steps.append((batch.epoch, *result[:3]))
            return result

        monkeypatch.setattr(training_module, "total_loss_and_grads", recording)
        ds, graph = small_dataset()
        cfg = TrainingConfig(epochs=3, batch_size=1, hard_neg_pool_size=5, seed=0)
        result = train(ds.store, graph, ds.labels, cfg, build_index(ds.store))
        assert [e for e, *_ in steps] == [0] * 4 + [1] * 4 + [2] * 4  # 4 queries, 4 steps
        for log in result.log:
            rows = [values for e, *values in steps if e == log.epoch]
            means = [float(np.mean(column)).hex() for column in zip(*rows)]
            assert [log.mean_loss.hex(), log.infonce.hex(), log.degreg.hex()] == means

    @pytest.mark.parametrize("scripted, best", [
        ([3.0, 1.0, 2.0, 1.0], 1), ([1.0, 1.0, 1.0], 0), ([2.0, 1.5, 1.5, 0.5], 3),
    ])
    def test_best_epoch_is_the_first_of_the_lowest_mean_loss(self, monkeypatch, scripted, best):
        import caselink.training as training_module

        stepped = []  # the params after every Adam step, one step per epoch

        def scripted_loss(params, graph, batch, config, **kwargs):
            _, nce, reg, grads, trace = total_loss_and_grads(params, graph, batch, config,
                                                             **kwargs)
            return scripted[batch.epoch], nce, reg, grads, trace

        def recording_adam_step(*args, **kwargs):
            params, state = adam_step(*args, **kwargs)
            stepped.append(params)
            return params, state

        monkeypatch.setattr(training_module, "total_loss_and_grads", scripted_loss)
        monkeypatch.setattr(training_module, "adam_step", recording_adam_step)
        ds, graph = small_dataset()
        cfg = TrainingConfig(epochs=len(scripted), batch_size=8, hard_neg_pool_size=5, seed=0)
        result = train(ds.store, graph, ds.labels, cfg, build_index(ds.store))
        assert [log.mean_loss for log in result.log] == scripted
        assert result.best_epoch == best
        assert len(stepped) == len(scripted)
        np.testing.assert_array_equal(result.params.flat, stepped[best].flat)
        assert all(not np.array_equal(result.params.flat, params.flat)
                   for epoch, params in enumerate(stepped) if epoch != best)

    def test_empty_hard_pools_are_reported_once_per_run(self, caplog):
        ds, graph = small_dataset()
        cfg = TrainingConfig(epochs=3, batch_size=2, hard_neg_pool_size=0, seed=0)
        with caplog.at_level("WARNING", logger="caselink.training"):
            train(ds.store, graph, ds.labels, cfg, build_index(ds.store))
        (record,) = caplog.records
        queries = sorted(ds.labels)
        assert f"{len(queries)} of {len(queries)} queries have an empty hard-negative pool" \
            in record.getMessage()
        assert ", ".join(queries) in record.getMessage()
        caplog.clear()
        with caplog.at_level("WARNING", logger="caselink.training"):
            train(ds.store, graph, ds.labels, replace(cfg, hard_neg_pool_size=5),
                  build_index(ds.store))
            train(ds.store, graph, ds.labels, replace(cfg, n_hard_neg=0),
                  build_index(ds.store))
        assert not caplog.records

    def test_deterministic_given_seed(self):
        ds, graph = small_dataset()
        cfg = TrainingConfig(
            epochs=3, batch_size=4, dropout=0.2, lr=0.01, hard_neg_pool_size=5, seed=1
        )
        r1 = train(ds.store, graph, ds.labels, cfg, build_index(ds.store))
        r2 = train(ds.store, graph, ds.labels, cfg, build_index(ds.store))
        np.testing.assert_array_equal(r1.params.flat, r2.params.flat)
        assert [e.mean_loss for e in r1.log] == [e.mean_loss for e in r2.log]

    def test_checkpoints_and_log_files(self, tmp_path, monkeypatch):
        import caselink.training as training_module

        stepped = []  # the params after every Adam step; the last is the final epoch's

        def recording_adam_step(*args, **kwargs):
            params, state = adam_step(*args, **kwargs)
            stepped.append(params)
            return params, state

        monkeypatch.setattr(training_module, "adam_step", recording_adam_step)
        ds, graph = small_dataset()
        cfg = TrainingConfig(epochs=3, batch_size=8, hard_neg_pool_size=5, seed=0)
        result = train(ds.store, graph, ds.labels, cfg, build_index(ds.store),
                       checkpoint_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "checkpoint.gatc", "checkpoint.gatc.json", "checkpoint_last.gatc",
            "checkpoint_last.gatc.json", "training_log.jsonl",
        ]
        assert sorted(CHECKPOINT_FILES) == sorted(p.name for p in tmp_path.iterdir())
        for name, params in [("checkpoint.gatc", result.params),
                             ("checkpoint_last.gatc", stepped[-1])]:
            np.testing.assert_array_equal(load_checkpoint(tmp_path / name).flat, params.flat)
        log_lines = (tmp_path / "training_log.jsonl").read_text().splitlines()
        assert len(log_lines) == 3
        entry = json.loads(log_lines[0])
        assert set(entry) == {"epoch", "mean_loss", "infonce", "degreg", "wall_ms"}

    def test_edge_structure_and_pools_are_built_once_per_run(self, monkeypatch):
        import caselink.training as training_module

        calls = {"prepare_structure": [], "easy_negatives": [], "adam_step": [],
                 "backward_gradients": []}

        def recording(module, name, record=lambda args, result: None):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                calls[name].append(record(args, result))
                return result

            monkeypatch.setattr(module, name, wrapper)

        recording(training_module, "prepare_structure", lambda args, result: result)
        recording(training_module, "easy_negatives")
        recording(training_module, "adam_step")
        recording(training_module, "backward_gradients", lambda args, result: args[1].structure)
        ds, graph = small_dataset()
        cfg = TrainingConfig(epochs=3, batch_size=2, hard_neg_pool_size=5, seed=0)
        train(ds.store, graph, ds.labels, cfg, build_index(ds.store))
        assert {name: len(made) for name, made in calls.items()} == {
            "prepare_structure": 1, "easy_negatives": 1, "adam_step": 6,
            "backward_gradients": 6}
        # every step's forward and backward ran on the one structure
        (structure,) = calls["prepare_structure"]
        assert all(s is structure for s in calls["backward_gradients"])

    def test_non_finite_parameters_stop_before_the_last_checkpoint(self, tmp_path,
                                                                    monkeypatch):
        import caselink.training as training_module

        stepped = []

        def poisoned_adam_step(*args, **kwargs):
            params, state = adam_step(*args, **kwargs)
            stepped.append(params)
            if len(stepped) == 2:
                params = replace(params, flat=np.where(params.flat > 0, np.inf, params.flat))
            return params, state

        monkeypatch.setattr(training_module, "adam_step", poisoned_adam_step)
        ds, graph = small_dataset()
        cfg = TrainingConfig(epochs=3, batch_size=8, hard_neg_pool_size=5, seed=0)
        with pytest.raises(NumericalError, match="non-finite parameter at epoch 1"):
            train(ds.store, graph, ds.labels, cfg, build_index(ds.store), checkpoint_dir=tmp_path)
        last = load_checkpoint(tmp_path / "checkpoint_last.gatc")
        np.testing.assert_array_equal(last.flat, stepped[0].flat)
        # the one finished epoch is the best, and the log holds it alone
        assert sorted(CHECKPOINT_FILES) == sorted(p.name for p in tmp_path.iterdir())
        best = load_checkpoint(tmp_path / "checkpoint.gatc")
        np.testing.assert_array_equal(best.flat, stepped[0].flat)
        log = (tmp_path / "training_log.jsonl").read_text().splitlines()
        assert [json.loads(line)["epoch"] for line in log] == [0]

    def test_too_few_easy_negatives_fail_before_any_checkpoint(self, tmp_path):
        ds, graph = small_dataset()
        cfg = TrainingConfig(epochs=1, n_easy_neg=10, hard_neg_pool_size=5, seed=0)
        # 12 candidates, 3 of them each query's positives: 9 easy negatives a query
        with pytest.raises(LabelError, match=f"^not enough easy negatives for query "
                                             f"'{min(ds.labels)}': 9 candidates"):
            train(ds.store, graph, ds.labels, cfg, build_index(ds.store), checkpoint_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_a_run_that_diverges_in_its_first_epoch_keeps_the_initial_params(self, tmp_path):
        from caselink.gat import init_params

        ds, graph = small_dataset()
        cfg = TrainingConfig(epochs=3, batch_size=2, lr=1e300, hard_neg_pool_size=5, seed=0)
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match="at epoch 0"):
            train(ds.store, graph, ds.labels, cfg, build_index(ds.store), checkpoint_dir=tmp_path)
        init = init_params(cfg.seed, [graph.dim] * (cfg.layers + 1))
        for name in ("checkpoint.gatc", "checkpoint_last.gatc"):
            np.testing.assert_array_equal(load_checkpoint(tmp_path / name).flat, init.flat)
        assert sorted(CHECKPOINT_FILES) == sorted(p.name for p in tmp_path.iterdir())
        assert (tmp_path / "training_log.jsonl").read_text() == ""

    def test_last_checkpoint_sidecar_is_written_once(self, tmp_path, monkeypatch):
        import caselink.training as training_module

        commits = []

        def recording_replaced(writers):
            commits.append(sorted(p.name for p in writers if p.suffix == ".json"))
            return replaced(writers)

        monkeypatch.setattr(training_module, "replaced", recording_replaced)
        ds, graph = small_dataset()
        cfg = TrainingConfig(epochs=3, batch_size=8, hard_neg_pool_size=5, seed=0)
        train(ds.store, graph, ds.labels, cfg, build_index(ds.store), checkpoint_dir=tmp_path)
        assert commits == [["checkpoint_last.gatc.json"], [], [], ["checkpoint.gatc.json"]]
        assert json.loads((tmp_path / "checkpoint_last.gatc.json").read_text()) == json.loads(
            (tmp_path / "checkpoint.gatc.json").read_text())

    def test_sidecar_holds_the_config_and_dims(self, tmp_path):
        ds, graph = small_dataset()
        cfg = TrainingConfig(epochs=1, batch_size=8, hidden_dim=5, hard_neg_pool_size=5, seed=0)
        train(ds.store, graph, ds.labels, cfg, build_index(ds.store), checkpoint_dir=tmp_path)
        sidecar = json.loads((tmp_path / "checkpoint.gatc.json").read_text())
        assert sidecar == {"config": asdict(cfg), "dims": [graph.dim, 5, 5], "provenance": None}
        assert load_checkpoint(tmp_path / "checkpoint.gatc").dims == sidecar["dims"]

    def test_sidecar_holds_the_graph_provenance(self, tmp_path):
        ds, graph = small_dataset()
        built_from = Provenance("c" * 64, "l" * 64, 1.2, 0.75, 5, 0.9)
        graph = replace(graph, provenance=built_from)
        cfg = TrainingConfig(epochs=1, batch_size=8, hard_neg_pool_size=5, seed=0)
        train(ds.store, graph, ds.labels, cfg, build_index(ds.store), checkpoint_dir=tmp_path)
        sidecar = json.loads((tmp_path / "checkpoint.gatc.json").read_text())
        assert sidecar["provenance"] == asdict(built_from)
        check_checkpoint_provenance(tmp_path / "checkpoint.gatc", built_from)
        with pytest.raises(TraceError, match="trained on a graph built with delta 0.9, "
                                             "this run has 0.5"):
            check_checkpoint_provenance(tmp_path / "checkpoint.gatc",
                                        replace(built_from, delta=0.5))

    def test_epochs_zero_returns_initialization(self):
        ds, graph = small_dataset()
        from caselink.gat import init_params

        cfg = TrainingConfig(epochs=0, seed=5)
        result = train(ds.store, graph, ds.labels, cfg, build_index(ds.store))
        dims = [graph.dim] + [graph.dim] * cfg.layers
        init = init_params(cfg.seed, dims)
        np.testing.assert_array_equal(result.params.flat, init.flat)

    def test_no_labels_rejected(self):
        ds, graph = small_dataset()
        with pytest.raises(LabelError):
            train(ds.store, graph, {}, TrainingConfig(epochs=1), build_index(ds.store))

    def test_query_without_positives_rejected(self):
        ds, graph = small_dataset()
        labels = dict(ds.labels)
        labels[next(iter(labels))] = ()
        with pytest.raises(LabelError):
            train(ds.store, graph, labels, TrainingConfig(epochs=1), build_index(ds.store))
