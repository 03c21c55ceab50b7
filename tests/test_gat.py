"""Graph-attention encoder: forward semantics, backward gradients, checkpoints."""

import struct

import numpy as np
import pytest
import scipy.sparse as sp

from caselink.errors import DimensionError, NumericalError, TraceError
from caselink.gat import (
    _EDGE_BLOCK,
    _draw_masks,
    LEAKY_SLOPE,
    GatParams,
    backward_gradients,
    init_params,
    layer_views,
    load_checkpoint,
    model_forward,
    prepare_structure,
    save_checkpoint,
)

from conftest import finite_difference_worst_rel_err, random_gcg


def naive_gat_forward(params: GatParams, features: np.ndarray, dense_adj: np.ndarray):
    """Per-node reference implementation with explicit loops (eval mode)."""
    h = np.asarray(features, dtype=np.float64).copy()
    n = h.shape[0]
    with_loops = dense_adj + np.eye(n)
    for li, layer in enumerate(params.layers):
        z = h @ layer.W
        out = np.zeros((n, layer.d_out))
        for i in range(n):
            nbrs = [j for j in range(n) if with_loops[i, j] != 0]
            raw = np.array([z[i] @ layer.a_src + z[j] @ layer.a_dst for j in nbrs])
            e = np.where(raw > 0, raw, LEAKY_SLOPE * raw)
            w = np.exp(e - e.max())
            alpha = w / w.sum()
            for a, j in zip(alpha, nbrs):
                out[i] += a * z[j]
        if li < len(params.layers) - 1:
            out = np.where(out > 0, out, np.expm1(np.minimum(out, 0.0)))
        h = out
    return h


def no_edge_adj(n: int) -> sp.csr_matrix:
    return sp.csr_matrix((n, n), dtype=np.int8)


def hub_adj(n: int, seed: int) -> sp.csr_matrix:
    """Random symmetric graph in which node 0 neighbours every other node, so
    its column of A + I holds n >= 9 edges: long enough that a pairwise
    (reduceat) sum would round differently from a sequential one."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < 0.3, 1)
    upper[0, 1:] = True
    return sp.csr_matrix((upper | upper.T).astype(np.int8))


def scatter_reference_backward(params: GatParams, trace, d_out: np.ndarray, dropout: float):
    """The backward pass of a forward at rate ``dropout``, with both sums over
    ``col`` written as unbuffered ``np.add.at`` scatters, which add in
    ascending edge order."""
    structure = trace.structure
    row, col, indptr = structure.row, structure.col, structure.indptr
    keep = 1.0 - dropout
    grads = np.zeros_like(params.flat)
    gh = d_out
    for layer, lt, g in zip(reversed(params.layers), reversed(trace.layers),
                            reversed(layer_views(grads, params.dims))):
        pre = lt.pre_act
        d_pre = gh * np.where(pre > 0, 1.0, np.exp(np.minimum(pre, 0.0))) if lt.apply_elu else gh
        d_alpha_used = np.einsum("ed,ed->e", d_pre[row], lt.z[col])
        dz = np.zeros_like(lt.z)
        np.add.at(dz, col, lt.alpha_used[:, None] * d_pre[row])
        d_alpha = d_alpha_used if lt.att_mask is None else d_alpha_used * lt.att_mask / keep
        s_row = np.add.reduceat(lt.alpha * d_alpha, indptr[:-1])
        draw = lt.alpha * (d_alpha - s_row[row]) * np.where(lt.raw > 0, 1.0, LEAKY_SLOPE)
        du = np.add.reduceat(draw, indptr[:-1])
        dv = np.zeros(structure.n_nodes)
        np.add.at(dv, col, draw)
        dz += np.outer(du, layer.a_src) + np.outer(dv, layer.a_dst)
        g.a_src[:] = lt.z.T @ du
        g.a_dst[:] = lt.z.T @ dv
        g.W[:] = lt.h_used.T @ dz
        gh = dz @ layer.W.T
        if lt.in_mask is not None:
            gh = gh * lt.in_mask / keep
    return grads, gh


class TestInitParams:
    def test_deterministic_per_seed(self):
        p1 = init_params(3, [8, 8, 4])
        p2 = init_params(3, [8, 8, 4])
        np.testing.assert_array_equal(p1.flat, p2.flat)
        p3 = init_params(4, [8, 8, 4])
        assert not np.array_equal(p1.layers[0].W, p3.layers[0].W)

    def test_layer_shapes(self):
        params = init_params(0, [6, 5, 3])
        assert params.layers[0].W.shape == (6, 5)
        assert params.layers[1].W.shape == (5, 3)
        assert params.layers[1].a_src.shape == (3,)
        assert params.dims == [6, 5, 3]

    def test_glorot_bound(self):
        params = init_params(1, [8, 8])
        bound = np.sqrt(6.0 / 16.0)
        assert np.all(np.abs(params.layers[0].W) <= bound)

    def test_too_short_dims_rejected(self):
        with pytest.raises(DimensionError):
            init_params(0, [8])

    def test_draws_follow_the_documented_order(self):
        # per layer: W row-major from +-sqrt(6 / (d_in + d_out)), then a_src || a_dst
        # jointly from +-sqrt(6 / (2 d_out + 1)); checkpoints written earlier rely on it
        dims = [4, 3, 2]
        rng = np.random.default_rng(11)
        expected = []
        for d_in, d_out in zip(dims, dims[1:]):
            limit_w = np.sqrt(6.0 / (d_in + d_out))
            limit_a = np.sqrt(6.0 / (2 * d_out + 1))
            expected.append(rng.uniform(-limit_w, limit_w, size=(d_in, d_out)).ravel())
            expected.append(rng.uniform(-limit_a, limit_a, size=2 * d_out))
        np.testing.assert_array_equal(init_params(11, dims).flat, np.concatenate(expected))


class TestLayerViews:
    def test_views_follow_the_payload_order_and_write_through(self):
        flat = np.arange(22.0)  # dims [2, 3, 2]: 6 + 3 + 3 values, then 6 + 2 + 2
        first, second = layer_views(flat, [2, 3, 2])
        np.testing.assert_array_equal(first.W, [[0, 1, 2], [3, 4, 5]])
        np.testing.assert_array_equal(first.a_src, [6, 7, 8])
        np.testing.assert_array_equal(first.a_dst, [9, 10, 11])
        np.testing.assert_array_equal(second.W, [[12, 13], [14, 15], [16, 17]])
        np.testing.assert_array_equal(second.a_src, [18, 19])
        np.testing.assert_array_equal(second.a_dst, [20, 21])
        second.a_src[:] = -1.0
        np.testing.assert_array_equal(flat[18:20], [-1.0, -1.0])

    @pytest.mark.parametrize("length", [21, 23])
    def test_length_that_does_not_fit_the_dims_rejected(self, length):
        with pytest.raises(DimensionError):
            layer_views(np.zeros(length), [2, 3, 2])
        with pytest.raises(DimensionError):
            GatParams(dims=[2, 3, 2], flat=np.zeros(length))


class TestForward:
    def test_isolated_node_applies_weight_and_hidden_elu(self):
        rng = np.random.default_rng(2)
        params = init_params(5, [4, 4, 3])
        h = rng.standard_normal((1, 4))
        out, _ = model_forward(params, h, no_edge_adj(1))
        hidden = h @ params.layers[0].W
        hidden = np.where(hidden > 0, hidden, np.expm1(np.minimum(hidden, 0.0)))
        np.testing.assert_allclose(out, hidden @ params.layers[1].W, atol=1e-15)

    def test_two_identical_neighbours_split_attention_evenly(self):
        params = init_params(6, [3, 3])
        h = np.tile(np.array([[0.3, -0.7, 1.1]]), (2, 1))
        adj = sp.csr_matrix(np.array([[0, 1], [1, 0]], dtype=np.int8))
        out, trace = model_forward(params, h, adj)
        np.testing.assert_array_equal(trace.layers[0].alpha, np.full(4, 0.5))
        np.testing.assert_allclose(out[0], out[1], atol=1e-15)

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            n = int(rng.integers(2, 12))
            d_in = int(rng.integers(2, 6))
            d_hidden = int(rng.integers(2, 6))
            upper = np.triu(rng.random((n, n)) < 0.4, 1)
            dense = (upper | upper.T).astype(np.int8)
            params = init_params(trial, [d_in, d_hidden, d_hidden])
            h = rng.standard_normal((n, d_in))
            out, _ = model_forward(params, h, sp.csr_matrix(dense))
            np.testing.assert_allclose(out, naive_gat_forward(params, h, dense), atol=1e-12)

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_prepared_structure_gives_the_adjacency_forward_bit_for_bit(self, dropout):
        adj = hub_adj(14, seed=1)
        params = init_params(3, [5, 4, 4])
        h = np.random.default_rng(4).standard_normal((14, 5))
        structure = prepare_structure(adj)
        for _ in range(2):  # the same structure serves again
            a, trace_a = model_forward(params, h, adj, dropout=dropout,
                                       rng=np.random.default_rng(5))
            b, trace_b = model_forward(params, h, structure, dropout=dropout,
                                       rng=np.random.default_rng(5))
            assert trace_b.structure is structure
            assert np.array_equal(a, b)
            for la, lb in zip(trace_a.layers, trace_b.layers):
                assert np.array_equal(la.alpha_used, lb.alpha_used)

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_pre_act_equals_a_per_edge_loop_bit_for_bit(self, dropout):
        # node 0's row of A + I holds 40 edges, enough for a pairwise sum to
        # round differently from the sequential one
        params = init_params(1, [6, 5, 4])
        h = np.random.default_rng(7).standard_normal((40, 6))
        _, trace = model_forward(params, h, hub_adj(40, seed=3), dropout=dropout,
                                 rng=np.random.default_rng(8))
        row, col = trace.structure.row, trace.structure.col
        for lt in trace.layers:
            expected = np.zeros_like(lt.pre_act)
            for e in range(len(row)):
                expected[row[e]] += lt.alpha_used[e] * lt.z[col[e]]
            assert np.array_equal(lt.pre_act, expected)

    def test_attention_rows_sum_to_one(self):
        graph = random_gcg(seed=23)
        params = init_params(0, [graph.dim, graph.dim, graph.dim])
        _, trace = model_forward(params, graph.features, graph.adjacency)
        indptr = trace.structure.indptr
        for lt in trace.layers:
            sums = np.add.reduceat(lt.alpha, indptr[:-1])
            np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(31)
        graph = random_gcg(seed=8, n_cases=9, n_charges=3, dim=5)
        params = init_params(2, [5, 5, 5])
        out, _ = model_forward(params, graph.features, graph.adjacency)
        perm = rng.permutation(graph.n_nodes)
        dense = graph.adjacency.toarray()[np.ix_(perm, perm)]
        out_p, _ = model_forward(params, graph.features[perm], sp.csr_matrix(dense))
        np.testing.assert_allclose(out_p, out[perm], atol=1e-10)

    def test_eval_mode_is_deterministic(self):
        graph = random_gcg(seed=3)
        params = init_params(0, [graph.dim, graph.dim])
        o1, _ = model_forward(params, graph.features, graph.adjacency)
        o2, _ = model_forward(params, graph.features, graph.adjacency)
        np.testing.assert_array_equal(o1, o2)

    def test_zero_dropout_train_equals_eval(self):
        graph = random_gcg(seed=4)
        params = init_params(0, [graph.dim, graph.dim])
        eval_out, _ = model_forward(params, graph.features, graph.adjacency)
        train_out, _ = model_forward(
            params,
            graph.features,
            graph.adjacency,
            dropout=0.0,
            rng=np.random.default_rng(0),
        )
        np.testing.assert_array_equal(train_out, eval_out)

    def test_dropout_draws_depend_on_rng(self):
        graph = random_gcg(seed=5)
        params = init_params(0, [graph.dim, graph.dim])
        a, _ = model_forward(
            params, graph.features, graph.adjacency, dropout=0.4,
            rng=np.random.default_rng(1),
        )
        b, _ = model_forward(
            params, graph.features, graph.adjacency, dropout=0.4,
            rng=np.random.default_rng(1),
        )
        c, _ = model_forward(
            params, graph.features, graph.adjacency, dropout=0.4,
            rng=np.random.default_rng(2),
        )
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_dropout_never_zeroes_an_output_row(self):
        graph = random_gcg(seed=6)
        params = init_params(0, [graph.dim, graph.dim])
        rng = np.random.default_rng(7)
        for _ in range(25):
            out, _ = model_forward(
                params, graph.features, graph.adjacency, dropout=0.9, rng=rng
            )
            assert np.all(np.linalg.norm(out, axis=1) > 0.0)

    def test_repaired_masks_equal_a_per_node_loop_bit_for_bit(self):
        def loop_reference(rng, rate, h_shape, structure):
            """The same draws, repaired one dead neighbourhood at a time."""
            in_mask = (rng.random(h_shape) >= rate).astype(np.float64)
            att_mask = (rng.random(len(structure.row)) >= rate).astype(np.float64)
            dead_rows = np.flatnonzero(~in_mask.any(axis=1))
            if len(dead_rows):
                in_mask[dead_rows] = 1.0
            kept = np.add.reduceat(att_mask, structure.indptr[:-1])
            dead = np.flatnonzero(kept == 0.0)
            for i in dead:
                att_mask[structure.indptr[i] : structure.indptr[i + 1]] = 1.0
            return in_mask, att_mask

        structure = prepare_structure(hub_adj(30, seed=4))
        in_mask, att_mask = _draw_masks(np.random.default_rng(5), 0.9, (30, 4), structure)
        ref_in, ref_att = loop_reference(np.random.default_rng(5), 0.9, (30, 4), structure)
        assert np.array_equal(in_mask, ref_in) and np.array_equal(att_mask, ref_att)
        # the same draws before any repair: both kinds of repair took place
        rng = np.random.default_rng(5)
        drawn_in = rng.random((30, 4)) >= 0.9
        drawn_att = (rng.random(len(structure.row)) >= 0.9).astype(np.float64)
        assert (~drawn_in.any(axis=1)).any()
        assert (np.add.reduceat(drawn_att, structure.indptr[:-1]) == 0.0).any()

    def test_dropout_requires_rng(self):
        graph = random_gcg(seed=5)
        params = init_params(0, [graph.dim, graph.dim])
        with pytest.raises(ValueError, match="^dropout requires an rng$"):
            model_forward(params, graph.features, graph.adjacency, dropout=0.2)

    @pytest.mark.parametrize("dropout", [-0.1, 1.0, np.nan])
    def test_a_dropout_outside_0_to_1_rejected(self, dropout):
        graph = random_gcg(seed=5)
        params = init_params(0, [graph.dim, graph.dim])
        with pytest.raises(ValueError, match=r"^dropout must be in \[0, 1\)"):
            model_forward(params, graph.features, graph.adjacency, dropout=dropout,
                          rng=np.random.default_rng(0))

    def test_zero_dropout_draws_nothing_from_the_rng(self):
        graph = random_gcg(seed=5)
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        model_forward(init_params(0, [graph.dim, graph.dim, graph.dim]), graph.features,
                      graph.adjacency, dropout=0.0, rng=rng)
        assert rng.bit_generator.state == before

    def test_non_finite_features_rejected(self):
        params = init_params(0, [2, 2])
        bad = np.array([[1.0, np.nan]])
        with pytest.raises(NumericalError):
            model_forward(params, bad, no_edge_adj(1))

    def test_feature_dim_mismatch_rejected(self):
        params = init_params(0, [3, 3])
        with pytest.raises(DimensionError):
            model_forward(params, np.zeros((2, 4)), no_edge_adj(2))

    @pytest.mark.parametrize("adjacency, message", [
        (sp.csr_matrix((2, 3), dtype=np.int8), "adjacency must be square"),
        (no_edge_adj(3), "adjacency size does not match feature rows"),
    ], ids=["not square", "other size"])
    def test_an_adjacency_that_does_not_fit_the_features_rejected(self, adjacency, message):
        with pytest.raises(DimensionError, match=message):
            model_forward(init_params(0, [3, 3]), np.ones((2, 3)), adjacency)


class TestBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        graph = random_gcg(seed=14, n_cases=8, n_charges=2, dim=5)
        params = init_params(3, [5, 4, 4])
        direction = rng.standard_normal((graph.n_nodes, 4))

        def loss_fn(p):
            out, _ = model_forward(p, graph.features, graph.adjacency)
            return float((out * direction).sum())

        _, trace = model_forward(params, graph.features, graph.adjacency)
        grads, _ = backward_gradients(params, trace, direction)
        worst = finite_difference_worst_rel_err(params, loss_fn, grads)
        assert worst < 1e-6

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        graph = random_gcg(seed=15, n_cases=6, n_charges=2, dim=4)
        params = init_params(4, [4, 4, 4])
        direction = rng.standard_normal((graph.n_nodes, 4))
        features = graph.features.copy()

        _, trace = model_forward(params, features, graph.adjacency)
        _, d_h = backward_gradients(params, trace, direction)

        eps = 1e-6
        worst = 0.0
        for i in range(features.shape[0]):
            for j in range(features.shape[1]):
                orig = features[i, j]
                features[i, j] = orig + eps
                plus, _ = model_forward(params, features, graph.adjacency)
                features[i, j] = orig - eps
                minus, _ = model_forward(params, features, graph.adjacency)
                features[i, j] = orig
                fd = float(((plus - minus) * direction).sum()) / (2 * eps)
                rel = abs(fd - d_h[i, j]) / max(abs(fd), abs(d_h[i, j]), 1e-8)
                worst = max(worst, rel)
        assert worst < 1e-6

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_sums_over_col_equal_the_add_at_scatter_bit_for_bit(self, dropout):
        n = 16
        adj = hub_adj(n, seed=7)
        params = init_params(8, [6, 5, 5])
        rng = np.random.default_rng(9)
        h = rng.standard_normal((n, 6))
        _, trace = model_forward(params, h, adj, dropout=dropout, rng=rng)
        assert np.bincount(trace.structure.col).max() >= 9
        d_out = rng.standard_normal((n, 5))
        grads, d_h = backward_gradients(params, trace, d_out)
        ref_grads, ref_d_h = scatter_reference_backward(params, trace, d_out, dropout)
        assert np.array_equal(grads, ref_grads)
        assert np.array_equal(d_h, ref_d_h)

    def test_blocked_edge_dots_equal_one_einsum_over_all_edges_bit_for_bit(self):
        structure = prepare_structure(hub_adj(120, seed=5))
        n_edges = len(structure.row)
        assert n_edges > 2 * _EDGE_BLOCK and n_edges % _EDGE_BLOCK  # full blocks and a part
        rng = np.random.default_rng(6)
        x, y = rng.standard_normal((120, 7)), rng.standard_normal((120, 7))
        expected = np.einsum("ed,ed->e", x[structure.row], y[structure.col])
        assert np.array_equal(structure.edge_dots(x, y), expected)

    def test_zero_upstream_gradient_gives_zero_grads(self):
        graph = random_gcg(seed=16)
        params = init_params(0, [graph.dim, graph.dim])
        _, trace = model_forward(params, graph.features, graph.adjacency)
        grads, d_h = backward_gradients(params, trace, np.zeros_like(trace.output))
        assert grads.shape == params.flat.shape
        assert not np.any(grads)
        assert not np.any(d_h)

    def test_mismatched_trace_rejected(self):
        graph = random_gcg(seed=17)
        params = init_params(0, [graph.dim, graph.dim])
        _, trace = model_forward(params, graph.features, graph.adjacency)
        other = init_params(0, [graph.dim, 3, 3])
        with pytest.raises(TraceError):
            backward_gradients(other, trace, np.zeros((graph.n_nodes, 3)))

    def test_params_of_other_dims_or_a_misshapen_gradient_rejected(self):
        graph = random_gcg(seed=17)
        params = init_params(0, [graph.dim, graph.dim])
        _, trace = model_forward(params, graph.features, graph.adjacency)
        wide = graph.dim + 1
        with pytest.raises(TraceError, match="trace shapes do not match parameters"):
            backward_gradients(init_params(0, [graph.dim, wide]), trace,
                               np.zeros((graph.n_nodes, wide)))
        with pytest.raises(TraceError, match=rf"upstream gradient shape \({graph.n_nodes}, "
                                              rf"{wide}\) != output shape"):
            backward_gradients(params, trace, np.zeros((graph.n_nodes, wide)))


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        params = init_params(21, [6, 5, 4])
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.dims == params.dims
        np.testing.assert_array_equal(loaded.flat, params.flat)

    def test_bytes_are_the_header_plus_the_flat_vector(self, tmp_path):
        params = init_params(21, [6, 5, 4])
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        header = b"GATC" + struct.pack("<II", 2, 3) + struct.pack("<3I", 6, 5, 4)
        assert path.read_bytes() == header + params.flat.astype("<f8").tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_rejected(self, tmp_path, value):
        params = init_params(0, [3, 2, 2])
        params.layers[1].a_dst[0] = value
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        with pytest.raises(TraceError, match="non-finite"):
            load_checkpoint(path)

    @pytest.mark.parametrize("dims, value", [
        ([5], 1.0),
        ([5, 0], 1.0),
        ([3, 2], np.nan),
    ], ids=["one dim", "a zero dim", "nan parameter"])
    def test_a_damaged_checkpoint_is_a_trace_error_naming_the_file(self, tmp_path, dims, value):
        path = tmp_path / "model.ckpt"
        header = struct.pack(f"<II{len(dims)}I", 2, len(dims), *dims)
        path.write_bytes(b"GATC" + header + np.full(10, value).astype("<f8").tobytes())
        with pytest.raises(TraceError) as info:
            load_checkpoint(path)
        assert info.value.path == path and str(info.value).startswith(f"{path}: ")

    def test_a_version_1_checkpoint_is_a_trace_error_naming_the_file(self, tmp_path):
        # version 1 stored a LeakyReLU slope and a dropout rate after the dims
        path = tmp_path / "model.ckpt"
        header = struct.pack("<II2Idd", 1, 2, 3, 2, 0.2, 0.1)
        path.write_bytes(b"GATC" + header + init_params(0, [3, 2]).flat.astype("<f8").tobytes())
        with pytest.raises(TraceError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"{path}: unsupported checkpoint file version 1"
        assert info.value.path == path

    def test_magic(self, tmp_path):
        params = init_params(0, [3, 3])
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        assert path.read_bytes()[:4] == b"GATC"
        assert sorted(tmp_path.iterdir()) == [path]  # no sidecar

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(TraceError):
            load_checkpoint(path)
