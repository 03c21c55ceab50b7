"""Global case graph: edge builders, block assembly, and serialization."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from caselink import bm25
from caselink.bm25 import block_top_k, build_index
from caselink.corpus import CorpusStore, Role
from caselink.embeddings import EmbeddingTable
from caselink.errors import (
    DimensionError,
    GraphConstructionError,
    MissingEmbeddingError,
    NumericalError,
)
from caselink.graph import (
    Provenance,
    assemble_gcg,
    build_case_case_edges,
    build_case_charge_edges,
    build_charge_charge_edges,
    build_global_case_graph,
    check_node_order,
    load_graph,
    save_graph,
)

from conftest import make_store, random_gcg, random_store
from test_bm25 import naive_bm25


def table_of(pairs) -> EmbeddingTable:
    vectors = {k: np.asarray(v, dtype=np.float64) for k, v in pairs}
    dim = len(next(iter(vectors.values())))
    return EmbeddingTable(dim=dim, vectors=vectors)


def assert_canonical_binary(block):
    """``block`` is an int8 CSR in canonical format, every stored value 1."""
    assert block.format == "csr" and block.dtype == np.int8
    assert block.has_canonical_format
    assert np.all(block.data == 1)


class TestCaseCaseEdges:
    def test_three_docs_k2_is_a_triangle(self):
        store = make_store([("a", "x y"), ("b", "y z"), ("c", "z w")])
        adj = build_case_case_edges(build_index(store), store, k=2)
        expected = np.ones((3, 3)) - np.eye(3)
        np.testing.assert_array_equal(adj.toarray(), expected)
        assert_canonical_binary(adj)  # each pair came from both its cases: counted once

    def test_single_doc_has_no_edges(self):
        store = make_store([("a", "x y")])
        adj = build_case_case_edges(build_index(store), store, k=1)
        assert adj.nnz == 0

    def test_k1_matches_bruteforce_union(self):
        rng = np.random.default_rng(19)
        store = random_store(rng, n_docs=5, vocab_size=6)
        adj = build_case_case_edges(build_index(store), store, k=1)
        docs = [list(c.tokens) for c in store.cases]
        expected = np.zeros((5, 5), dtype=np.int8)
        for i in range(5):
            best = min(
                ((-naive_bm25(docs, docs[i], j), store.cases[j].id, j) for j in range(5) if j != i)
            )[2]
            expected[i, best] = expected[best, i] = 1
        np.testing.assert_array_equal(adj.toarray(), expected)

    def test_symmetric_binary_zero_diagonal_with_min_degree(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            n = int(rng.integers(2, 12))
            k = int(rng.integers(1, 5))
            store = random_store(rng, n_docs=n, vocab_size=6)
            adj = build_case_case_edges(build_index(store), store, k=k)
            assert_canonical_binary(adj)
            dense = adj.toarray()
            np.testing.assert_array_equal(dense, dense.T)
            assert set(np.unique(dense)) <= {0, 1}
            assert np.all(np.diag(dense) == 0)
            assert np.all(dense.sum(axis=1) >= min(k, n - 1))

    @staticmethod
    def _mask_edges(index, n, k):
        """The case-case adjacency built with an eligibility mask that excludes
        each source's own column."""
        src = np.arange(n)
        dense = np.zeros((n, n), dtype=np.int8)
        for s, (top, _) in enumerate(block_top_k(index, src, src, k, src != src[:, None])):
            dense[s, top] = dense[top, s] = 1
        return dense

    @pytest.mark.parametrize("block", [1, 2, bm25._BLOCK_ROWS])
    def test_k_at_least_the_corpus_size_equals_the_mask_version(self, monkeypatch, block):
        # every row has fewer than k other cases, so each row's k-th score is -inf
        monkeypatch.setattr(bm25, "_BLOCK_ROWS", block)
        rng = np.random.default_rng(137)
        for n in range(1, 7):
            cases = list(random_store(rng, n_docs=n, vocab_size=3, max_len=4).cases)
            cases[-1] = dataclasses.replace(cases[0], id="zz")  # a duplicate text: tied scores
            store = CorpusStore(cases=tuple(cases))
            index = build_index(store)
            for k in (max(n - 1, 1), n, n + 3):
                adj = build_case_case_edges(index, store, k=k)
                np.testing.assert_array_equal(adj.toarray(), self._mask_edges(index, n, k))
                np.testing.assert_array_equal(adj.toarray(), np.ones((n, n)) - np.eye(n))

    def test_k_below_one_rejected(self):
        store = make_store([("a", "x")])
        with pytest.raises(ValueError):
            build_case_case_edges(build_index(store), store, k=0)


class TestChargeChargeEdges:
    def test_identical_embeddings_connected(self):
        table = table_of([("c1", [1.0, 0.0]), ("c2", [1.0, 0.0])])
        adj = build_charge_charge_edges(["c1", "c2"], table, delta=0.9)
        np.testing.assert_array_equal(adj.toarray(), [[0, 1], [1, 0]])
        assert_canonical_binary(adj)

    def test_orthogonal_embeddings_not_connected(self):
        table = table_of([("c1", [1.0, 0.0]), ("c2", [0.0, 1.0])])
        adj = build_charge_charge_edges(["c1", "c2"], table, delta=0.5)
        assert adj.nnz == 0

    def test_similarity_below_threshold(self):
        # cos((1,0), (1,1)/sqrt 2) ~ 0.7071 < 0.85: no edge
        table = table_of([("c1", [1.0, 0.0]), ("c2", [2.0**-0.5, 2.0**-0.5])])
        adj = build_charge_charge_edges(["c1", "c2"], table, delta=0.85)
        assert adj.nnz == 0

    def test_threshold_is_strict(self):
        mat = np.array([[1.0, 0.0], [1.0, 1.0]])
        unit = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        cos = float((unit @ unit.T)[0, 1])
        table = table_of([("c1", mat[0]), ("c2", mat[1])])
        at_threshold = build_charge_charge_edges(["c1", "c2"], table, delta=cos)
        assert at_threshold.nnz == 0
        just_below = build_charge_charge_edges(
            ["c1", "c2"], table, delta=float(np.nextafter(cos, 0.0))
        )
        assert just_below.nnz == 2

    def test_scale_invariance(self):
        table = table_of([("c1", [0.2, 0.0]), ("c2", [7.0, 0.0])])
        adj = build_charge_charge_edges(["c1", "c2"], table, delta=0.9)
        assert adj.nnz == 2

    def test_empty_charge_list(self):
        adj = build_charge_charge_edges([], table_of([("x", [1.0])]), delta=0.9)
        assert adj.shape == (0, 0)
        assert_canonical_binary(adj)

    def test_missing_embedding(self):
        with pytest.raises(MissingEmbeddingError, match="^no embedding for: 'c1'$"):
            build_charge_charge_edges(["c1"], table_of([("x", [1.0])]), delta=0.9)

    def test_zero_norm_embedding_rejected(self):
        table = table_of([("c1", [1.0, 0.0]), ("c2", [0.0, 0.0])])
        with pytest.raises(NumericalError):
            build_charge_charge_edges(["c1", "c2"], table, delta=0.9)

    def test_delta_range_validated(self):
        table = table_of([("c1", [1.0])])
        with pytest.raises(ValueError):
            build_charge_charge_edges(["c1"], table, delta=1.0)
        with pytest.raises(ValueError):
            build_charge_charge_edges(["c1"], table, delta=0.0)


class TestCaseChargeEdges:
    def test_normalized_name_matches_spaced_text(self):
        store = make_store(
            [("d1", "application for Judicial  Review of the decision")],
            charges=[("c1", "judicial review")],
        )
        adj = build_case_charge_edges(store)
        np.testing.assert_array_equal(adj.toarray(), [[1]])

    def test_absent_charge_name(self):
        store = make_store(
            [("d1", "a contract dispute"), ("d2", "")],
            charges=[("c1", "tax evasion"), ("c2", "§§")],  # c2 has no tokens to match
        )
        adj = build_case_charge_edges(store)
        assert adj.nnz == 0
        assert_canonical_binary(adj)

    def test_fixture_matrix(self):
        store = make_store(
            [
                ("d1", "charged with tax evasion and fraud"),
                ("d2", "a fraud trial"),
                ("d3", "nothing relevant"),
                ("d4", "Carson v. State, an arsonist"),  # names match whole tokens only
            ],
            charges=[("c1", "tax evasion"), ("c2", "fraud"), ("c3", "arson")],
        )
        adj = build_case_charge_edges(store)
        expected = np.array([[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0]])
        np.testing.assert_array_equal(adj.toarray(), expected)
        assert_canonical_binary(adj)

    def test_charge_named_only_in_cjk_links(self):
        store = make_store(
            [("d1", "被告人 犯 盗窃罪 判处 有期徒刑"), ("d2", "a theft trial")],
            charges=[("c1", "盗窃罪")],
        )
        np.testing.assert_array_equal(build_case_charge_edges(store).toarray(), [[1, 0]])

    def test_shape_is_charges_by_cases(self):
        store = make_store(
            [("d1", "x"), ("d2", "y")], charges=[("c1", "a"), ("c2", "b"), ("c3", "c")]
        )
        assert build_case_charge_edges(store).shape == (3, 2)


class TestAssembleGcg:
    def test_two_cases_one_charge_single_bridge(self):
        a_case = sp.csr_matrix((2, 2), dtype=np.int8)
        a_charge = sp.csr_matrix((1, 1), dtype=np.int8)
        a_bridge = sp.csr_matrix(np.array([[1, 0]], dtype=np.int8))
        graph = assemble_gcg(
            a_case,
            a_bridge,
            a_charge,
            np.eye(2),
            np.ones((1, 2)),
            ["d1", "d2"],
            ["c1"],
            [Role.QUERY, Role.CANDIDATE],
        )
        dense = graph.adjacency.toarray()
        expected = np.zeros((3, 3), dtype=np.int8)
        expected[0, 2] = expected[2, 0] = 1
        np.testing.assert_array_equal(dense, expected)
        assert graph.node_ids == ("d1", "d2", "c1")

    def test_block_placement(self):
        rng = np.random.default_rng(47)
        n, m, d = 6, 3, 4
        upper = np.triu(rng.random((n, n)) < 0.4, 1)
        a_case = (upper | upper.T).astype(np.int8)
        upper_c = np.triu(rng.random((m, m)) < 0.5, 1)
        a_charge = (upper_c | upper_c.T).astype(np.int8)
        a_bridge = (rng.random((m, n)) < 0.4).astype(np.int8)
        graph = assemble_gcg(
            sp.csr_matrix(a_case),
            sp.csr_matrix(a_bridge),
            sp.csr_matrix(a_charge),
            rng.standard_normal((n, d)),
            rng.standard_normal((m, d)),
            [f"d{i}" for i in range(n)],
            [f"c{i}" for i in range(m)],
            [Role.CANDIDATE] * n,
        )
        expected = np.block([[a_case, a_bridge.T], [a_bridge, a_charge]])
        np.testing.assert_array_equal(graph.adjacency.toarray(), expected)
        assert_canonical_binary(graph.adjacency)

    def test_no_charges(self):
        a_case = sp.csr_matrix(np.array([[0, 1], [1, 0]], dtype=np.int8))
        for charge_features in (np.zeros((0, 2)), np.zeros(0)):
            graph = assemble_gcg(
                a_case,
                sp.csr_matrix((0, 2), dtype=np.int8),
                sp.csr_matrix((0, 0), dtype=np.int8),
                np.eye(2),
                charge_features,
                ["d1", "d2"],
                [],
                [Role.CANDIDATE, Role.CANDIDATE],
            )
            assert graph.n_nodes == 2
            np.testing.assert_array_equal(graph.adjacency.toarray(), a_case.toarray())
            assert_canonical_binary(graph.adjacency)
            np.testing.assert_array_equal(graph.features, np.eye(2))

    @staticmethod
    def _two_cases(**changes):
        """assemble_gcg's arguments for two unlinked candidate cases and no
        charges, with ``changes``."""
        return dict(a_case=sp.csr_matrix((2, 2), dtype=np.int8),
                    a_bridge=sp.csr_matrix((0, 2), dtype=np.int8),
                    a_charge=sp.csr_matrix((0, 0), dtype=np.int8),
                    case_features=np.eye(2), charge_features=np.zeros((0, 2)),
                    case_ids=["d1", "d2"], charge_ids=[], roles=[Role.CANDIDATE] * 2) | changes

    ONE_CHARGE = {"a_bridge": sp.csr_matrix((1, 2), dtype=np.int8),
                  "a_charge": sp.csr_matrix((1, 1), dtype=np.int8), "charge_ids": ["c1"]}

    @pytest.mark.parametrize("changes, error, message", [
        ({"a_case": sp.csr_matrix(np.array([[0, 1], [0, 0]], dtype=np.int8))},
         GraphConstructionError, "case-case block must be symmetric"),
        ({"a_case": sp.csr_matrix(np.array([[1, 0], [0, 0]], dtype=np.int8))},
         GraphConstructionError, "case-case block must have a zero diagonal"),
        ({"a_case": sp.csr_matrix(np.array([[0, 2], [2, 0]], dtype=np.int8))},
         GraphConstructionError, "case-case block must be binary"),
        ({"a_case": sp.csr_matrix((3, 3), dtype=np.int8)},
         DimensionError, r"case-case block has shape \(3, 3\), expected \(2, 2\)"),
        ({"case_features": np.eye(3), "charge_features": np.zeros((0, 3))},
         DimensionError, "feature row counts do not match node counts"),
        ({**ONE_CHARGE, "charge_features": np.zeros((1, 3))},
         DimensionError, "case and charge feature dims differ"),
        ({"roles": [Role.CANDIDATE]}, DimensionError, "one role per case node required"),
    ], ids=["asymmetric", "nonzero diagonal", "non-binary", "block shape", "feature rows",
            "feature dims", "role count"])
    def test_malformed_input_rejected(self, changes, error, message):
        assemble_gcg(**self._two_cases())
        with pytest.raises(error, match=message):
            assemble_gcg(**self._two_cases(**changes))

    def test_role_rows(self):
        graph = random_gcg(n_cases=6, n_queries=2)
        np.testing.assert_array_equal(graph.candidate_rows, [2, 3, 4, 5])
        assert not graph.candidate_rows.flags.writeable


class TestBuildGlobalCaseGraph:
    def _inputs(self):
        store = make_store(
            [
                ("q1", "armed robbery of a bank vault", Role.QUERY),
                ("d1", "armed robbery trial with a vault", Role.CANDIDATE),
                ("d2", "quiet title to farmland", Role.CANDIDATE),
            ],
            charges=[("c1", "armed robbery"), ("c2", "quiet title")],
        )
        table = table_of(
            [
                ("q1", [1.0, 0.0, 0.0]),
                ("d1", [0.9, 0.1, 0.0]),
                ("d2", [0.0, 1.0, 0.0]),
                ("c1", [0.0, 0.0, 1.0]),
                ("c2", [0.0, 0.7, 0.7]),
            ]
        )
        return store, table

    def test_a_one_case_corpus_has_an_empty_case_block(self):
        store = make_store([("q1", "armed robbery of a bank vault", Role.QUERY)],
                           charges=[("c1", "armed robbery")])
        table = table_of([("q1", [1.0, 0.0]), ("c1", [0.0, 1.0])])
        graph = build_global_case_graph(store, table, build_index(store), k=3, delta=0.9)
        assert graph.node_ids == ("q1", "c1")
        assert_canonical_binary(graph.adjacency)
        # the one bridge is the only edge: no case-case edge, no self-loop
        np.testing.assert_array_equal(graph.adjacency.toarray(), [[0, 1], [1, 0]])

    def test_end_to_end_structure(self):
        store, table = self._inputs()
        graph = build_global_case_graph(store, table, build_index(store), k=1, delta=0.9)
        assert graph.n_cases == 3 and graph.n_charges == 2
        assert graph.node_ids == ("q1", "d1", "d2", "c1", "c2")
        assert graph.roles == (Role.QUERY, Role.CANDIDATE, Role.CANDIDATE)
        dense = graph.adjacency.toarray()
        np.testing.assert_array_equal(dense, dense.T)
        assert np.all(np.diag(dense) == 0)
        # bridges: "armed robbery" occurs in q1 and d1; "quiet title" in d2
        assert dense[3, 0] == 1 and dense[3, 1] == 1 and dense[4, 2] == 1

    def test_missing_embedding_rejected(self):
        store, table = self._inputs()
        incomplete = EmbeddingTable(
            dim=3, vectors={k: v for k, v in table.vectors.items() if k != "d2"}
        )
        with pytest.raises(MissingEmbeddingError, match="^no embedding for: 'd2'$"):
            build_global_case_graph(store, incomplete, build_index(store), k=1, delta=0.9)

    def test_missing_embedding_fails_before_any_edge_is_built(self, monkeypatch):
        from caselink import graph

        store, table = self._inputs()
        incomplete = EmbeddingTable(
            dim=3, vectors={k: v for k, v in table.vectors.items() if k != "c2"}
        )
        index = build_index(store)

        def refuse(*args, **kwargs):
            raise AssertionError("an edge block was built")

        for name in ("build_case_case_edges", "build_charge_charge_edges",
                     "build_case_charge_edges"):
            monkeypatch.setattr(graph, name, refuse)
        with pytest.raises(MissingEmbeddingError, match="^no embedding for: 'c2'$"):
            build_global_case_graph(store, incomplete, index, k=1, delta=0.9)

    def test_feature_rows_follow_node_order(self):
        store, table = self._inputs()
        graph = build_global_case_graph(store, table, build_index(store), k=1, delta=0.9)
        for node_id in graph.node_ids:
            np.testing.assert_array_equal(
                graph.features[graph.node_rows[node_id]], table[node_id]
            )

    # the nodes of _inputs(), in order and with their roles
    QUERY = ("q1", "x", Role.QUERY)
    CASES = [("d1", "x"), ("d2", "x")]
    CHARGES = [("c1", "a"), ("c2", "b")]

    @pytest.mark.parametrize("cases, charges, row, have, need", [
        ([QUERY, ("d1", "x", Role.QUERY), ("d2", "x")], CHARGES,
         1, "'d1' (candidate)", "'d1' (query)"),
        ([QUERY, *CASES[::-1]], CHARGES, 1, "'d1' (candidate)", "'d2' (candidate)"),
        ([QUERY, *CASES], [*CHARGES, ("c3", "c")], 5, "nothing", "'c3' (charge)"),
        ([QUERY, *CASES], [], 3, "'c1' (charge)", "nothing"),
    ], ids=["role", "order", "extra charge", "no charges"])
    def test_check_node_order_names_the_first_row_that_differs(self, cases, charges, row, have,
                                                                need):
        store, table = self._inputs()
        graph = build_global_case_graph(store, table, build_index(store), k=1, delta=0.9)
        check_node_order(graph, make_store([self.QUERY, *self.CASES], self.CHARGES), "g.gcg1")
        with pytest.raises(GraphConstructionError) as exc_info:
            check_node_order(graph, make_store(cases, charges), "g.gcg1")
        assert str(exc_info.value).startswith(
            f"g.gcg1: graph row {row} holds {have}, not node {row} of the corpus, {need}: ")

class TestGraphSerialization:
    def test_roundtrip(self, tmp_path):
        graph = random_gcg(seed=11)
        path = tmp_path / "graph.bin"
        save_graph(graph, path)
        loaded = load_graph(path)
        assert loaded.n_cases == graph.n_cases
        assert loaded.n_charges == graph.n_charges
        assert loaded.node_ids == graph.node_ids
        assert loaded.roles == graph.roles
        assert_canonical_binary(graph.adjacency)
        assert_canonical_binary(loaded.adjacency)
        assert loaded.adjacency.shape == graph.adjacency.shape
        np.testing.assert_array_equal(loaded.adjacency.indptr, graph.adjacency.indptr)
        np.testing.assert_array_equal(loaded.adjacency.indices, graph.adjacency.indices)
        np.testing.assert_array_equal(
            loaded.features, graph.features.astype(np.float32).astype(np.float64)
        )

    def test_a_loaded_graph_saved_again_keeps_its_provenance(self, tmp_path):
        built_from = Provenance("abc", "def", k1=1.2, b=0.75, k_edges=5, delta=0.9)
        first, second = tmp_path / "g1.bin", tmp_path / "g2.bin"
        save_graph(dataclasses.replace(random_gcg(seed=11), provenance=built_from), first)
        save_graph(load_graph(first), second)
        assert load_graph(second).provenance == built_from
        assert second.read_bytes() == first.read_bytes()

    def test_magic_bytes(self, tmp_path):
        path = tmp_path / "graph.bin"
        save_graph(random_gcg(), path)
        assert path.read_bytes()[:4] == b"GCG1"

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(GraphConstructionError):
            load_graph(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_feature_is_rejected_naming_the_file(self, tmp_path, value):
        graph = random_gcg(seed=11)
        graph.features[3, 1] = value
        path = tmp_path / "graph.bin"
        save_graph(graph, path)
        with pytest.raises(GraphConstructionError, match="non-finite") as info:
            load_graph(path)
        assert info.value.path == path and str(info.value).startswith(f"{path}: ")

    def test_save_is_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "g1.bin", tmp_path / "g2.bin"
        save_graph(random_gcg(seed=13), p1)
        save_graph(random_gcg(seed=13), p2)
        assert p1.read_bytes() == p2.read_bytes()
