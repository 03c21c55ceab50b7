"""Graph attention encoder with hand-written forward and backward passes.

One attention head per layer. For node i with neighborhood N(i) plus a
transient self-loop:

    z_j    = W h_j
    e_ij   = LeakyReLU(a_src . z_i + a_dst . z_j)
    alpha  = softmax_j(e_ij)  over j in N(i) u {i}
    h'_i   = sum_j alpha_ij z_j

ELU is applied between layers, identity after the last, so final cosine
similarities span [-1, 1]; the LeakyReLU slope is GAT's 0.2. Dropout, at the
rate a training step passes to the forward, hits layer inputs and attention
weights. All arithmetic is float64 so analytic gradients can be validated
against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .binfile import pack, read_container
from .errors import DimensionError, NumericalError, TraceError

_MAGIC = b"GATC"
_FORMAT_VERSION = 2  # version 1 also stored a LeakyReLU slope and a dropout rate
LEAKY_SLOPE = 0.2
_EDGE_BLOCK = 1024  # edges per block of SelfLoopStructure.edge_dots


@dataclass
class LayerParams:
    """One layer's parameters, as views into the encoder's flat vector."""

    W: np.ndarray  # (d_in, d_out)
    a_src: np.ndarray  # (d_out,)
    a_dst: np.ndarray  # (d_out,)

    @property
    def d_in(self) -> int:
        return self.W.shape[0]

    @property
    def d_out(self) -> int:
        return self.W.shape[1]


def _param_count(dims: list[int] | tuple[int, ...], error: type[Exception] = DimensionError) -> int:
    if len(dims) < 2 or min(dims) < 1:
        raise error(f"dims must chain at least one layer of sizes >= 1, not {dims}")
    return sum((d_in + 2) * d_out for d_in, d_out in zip(dims, dims[1:]))


def layer_views(flat: np.ndarray, dims: list[int] | tuple[int, ...]) -> list[LayerParams]:
    """Each layer's ``W`` (row-major), ``a_src`` and ``a_dst`` as views into
    the 1-D vector ``flat``, in this order, layer after layer: the layout of
    the parameters, their gradient, the Adam moments and the GATC payload."""
    if flat.shape != (_param_count(dims),):
        raise DimensionError(
            f"parameter vector of shape {flat.shape} does not fit dims {list(dims)}"
        )
    layers, start = [], 0
    for d_in, d_out in zip(dims, dims[1:]):
        mid = start + d_in * d_out
        layers.append(LayerParams(W=flat[start:mid].reshape(d_in, d_out),
                                  a_src=flat[mid : mid + d_out],
                                  a_dst=flat[mid + d_out : mid + 2 * d_out]))
        start = mid + 2 * d_out
    return layers


@dataclass
class GatParams:
    """All encoder parameters in one float64 vector laid out by ``layer_views``."""

    dims: list[int]
    flat: np.ndarray

    def __post_init__(self):
        self.dims = list(self.dims)
        self.flat = np.ascontiguousarray(self.flat, dtype=np.float64)
        layer_views(self.flat, self.dims)  # the length must fit the dims

    @property
    def layers(self) -> list[LayerParams]:
        return layer_views(self.flat, self.dims)


@dataclass
class LayerTrace:
    """Everything the backward pass needs to replay one layer exactly."""

    h_used: np.ndarray  # layer input after input dropout
    z: np.ndarray  # (N, d_out)
    raw: np.ndarray  # per-edge pre-LeakyReLU logits
    alpha: np.ndarray  # per-edge attention after softmax
    alpha_used: np.ndarray  # after attention dropout
    pre_act: np.ndarray  # aggregated output before activation
    apply_elu: bool
    in_mask: np.ndarray | None  # dropout keep masks, None at rate 0
    att_mask: np.ndarray | None


@dataclass
class ForwardTrace:
    layers: list[LayerTrace]
    structure: SelfLoopStructure
    output: np.ndarray
    keep: float  # 1 - the dropout rate; the masks scale kept values by 1 / keep


@dataclass(frozen=True)
class SelfLoopStructure:
    """CSR edge structure of A + I: per-edge aggregating row and neighbor col.

    Message passing is a product with the weighted adjacency A_w, whose entry
    (row[e], col[e]) is w[e]: ``weighted_sum`` gives A_w @ x,
    ``weighted_sum_transposed`` gives A_wᵀ @ x, and ``edge_dots`` the
    per-edge products that make their gradient in w. Both products use one
    pair of scipy index arrays, ``indptr`` and ``indices``: read as CSR they
    hold A_w, read as CSC A_wᵀ. Either product walks the edges in ascending
    order, adding edge e's term to output row row[e], or col[e], starting
    from zero: bit for bit a sequential scatter-add, where a reduceat would
    sum long segments pairwise. ``row`` and ``col`` are int64 for numpy's
    gathers. The structure depends on the graph alone, so one instance serves
    every forward and backward pass over it.
    """

    indptr: np.ndarray  # scipy's index arrays of A + I
    indices: np.ndarray
    row: np.ndarray  # aggregating node per edge
    col: np.ndarray  # neighbor per edge
    n_nodes: int

    def edge_dots(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Per-edge dot products ``x[row[e]] . y[col[e]]``: the gradient of
        ``(weighted_sum(w, y) * x).sum()`` with respect to ``w``. Gathered a
        block of edges at a time, so the gathered rows stay small enough to
        be reused from cache, where a gather over all edges would allocate
        (and page in) two edges x dims arrays per call."""
        out = np.empty(len(self.row))
        for s in range(0, len(out), _EDGE_BLOCK):
            e = slice(s, s + _EDGE_BLOCK)
            out[e] = np.einsum("ed,ed->e", x[self.row[e]], y[self.col[e]])
        return out

    def weighted_sum(self, weights: np.ndarray, x: np.ndarray) -> np.ndarray:
        """A_w @ x: row i sums ``weights[e] * x[col[e]]`` over its edges."""
        return sp.csr_matrix((weights, self.indices, self.indptr),
                             shape=(self.n_nodes, self.n_nodes)) @ x

    def weighted_sum_transposed(self, weights: np.ndarray, x: np.ndarray) -> np.ndarray:
        """A_wᵀ @ x: row c sums ``weights[e] * x[row[e]]`` over the edges with
        ``col[e] == c``."""
        return sp.csc_matrix((weights, self.indices, self.indptr),
                             shape=(self.n_nodes, self.n_nodes)) @ x


def prepare_structure(adjacency: sp.spmatrix) -> SelfLoopStructure:
    n = adjacency.shape[0]
    if adjacency.shape != (n, n):
        raise DimensionError("adjacency must be square")
    with_loops = sp.csr_matrix(adjacency, dtype=np.float64) + sp.identity(
        n, format="csr", dtype=np.float64
    )
    with_loops.sum_duplicates()
    with_loops.sort_indices()
    indptr, indices = with_loops.indptr, with_loops.indices
    row = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    return SelfLoopStructure(indptr=indptr, indices=indices, row=row,
                             col=indices.astype(np.int64), n_nodes=n)


def init_params(seed: int, dims: list[int] | tuple[int, ...]) -> GatParams:
    """Glorot-uniform initialization, deterministic per seed.

    W entries are drawn from +-sqrt(6 / (d_in + d_out)); the attention vector
    pair (a_src, a_dst) is drawn jointly with fan 2*d_out + 1.
    """
    rng = np.random.default_rng(seed)
    flat = np.empty(_param_count(dims))
    for layer in layer_views(flat, dims):
        limit_w = np.sqrt(6.0 / (layer.d_in + layer.d_out))
        limit_a = np.sqrt(6.0 / (2 * layer.d_out + 1))
        layer.W[:] = rng.uniform(-limit_w, limit_w, size=layer.W.shape)
        a = rng.uniform(-limit_a, limit_a, size=2 * layer.d_out)
        layer.a_src[:], layer.a_dst[:] = a[: layer.d_out], a[layer.d_out :]
    return GatParams(dims=dims, flat=flat)


def _elu(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))


def _elu_grad(pre: np.ndarray) -> np.ndarray:
    # d/dx elu(x) = 1 for x > 0, exp(x) otherwise
    return np.where(pre > 0, 1.0, np.exp(np.minimum(pre, 0.0)))


def _layer_forward(
    layer: LayerParams,
    h_in: np.ndarray,
    structure: SelfLoopStructure,
    apply_elu: bool,
    keep: float,
    in_mask: np.ndarray | None,
    att_mask: np.ndarray | None,
) -> tuple[np.ndarray, LayerTrace]:
    row, col, indptr = structure.row, structure.col, structure.indptr

    h_used = h_in if in_mask is None else h_in * in_mask / keep
    z = h_used @ layer.W
    u = z @ layer.a_src
    v = z @ layer.a_dst
    raw = u[row] + v[col]
    e = np.where(raw > 0, raw, LEAKY_SLOPE * raw)

    # every row has at least its self-loop, so reduceat segments are non-empty
    row_max = np.maximum.reduceat(e, indptr[:-1])
    ex = np.exp(e - row_max[row])
    denom = np.add.reduceat(ex, indptr[:-1])
    alpha = ex / denom[row]
    alpha_used = alpha if att_mask is None else alpha * att_mask / keep

    pre_act = structure.weighted_sum(alpha_used, z)
    out = _elu(pre_act) if apply_elu else pre_act
    trace = LayerTrace(
        h_used=h_used,
        z=z,
        raw=raw,
        alpha=alpha,
        alpha_used=alpha_used,
        pre_act=pre_act,
        apply_elu=apply_elu,
        in_mask=in_mask,
        att_mask=att_mask,
    )
    return out, trace


def _draw_masks(
    rng: np.random.Generator,
    rate: float,
    h_shape: tuple[int, int],
    structure: SelfLoopStructure,
) -> tuple[np.ndarray, np.ndarray]:
    in_mask = (rng.random(h_shape) >= rate).astype(np.float64)
    att_mask = (rng.random(len(structure.row)) >= rate).astype(np.float64)
    # A fully dropped neighborhood or feature row would zero a node's output
    # row, which the cosine-based losses cannot accept; such rows keep all
    # their weights.
    in_mask[~in_mask.any(axis=1)] = 1.0
    dead = np.add.reduceat(att_mask, structure.indptr[:-1]) == 0.0
    att_mask[dead[structure.row]] = 1.0
    return in_mask, att_mask


def model_forward(
    params: GatParams,
    features: np.ndarray,
    adjacency: sp.spmatrix | SelfLoopStructure,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, ForwardTrace]:
    """Apply all layers; rows 0..n-1 of the result are the case representations.

    ``adjacency`` is the graph's adjacency, or its ``prepare_structure`` when
    several passes share one graph; both give the same result. A ``dropout``
    rate in (0, 1) draws each layer's masks from ``rng``; 0 draws nothing.
    """
    if not 0.0 <= dropout < 1.0:
        raise ValueError(f"dropout must be in [0, 1), not {dropout}")
    if dropout > 0.0 and rng is None:
        raise ValueError("dropout requires an rng")
    h = np.asarray(features, dtype=np.float64)
    if not np.all(np.isfinite(h)):
        raise NumericalError("non-finite value in input features")
    if h.shape[1] != params.dims[0]:
        raise DimensionError(f"feature dim {h.shape[1]} != first layer d_in {params.dims[0]}")
    structure = (adjacency if isinstance(adjacency, SelfLoopStructure)
                 else prepare_structure(adjacency))
    if structure.n_nodes != h.shape[0]:
        raise DimensionError("adjacency size does not match feature rows")

    keep = 1.0 - dropout
    layers = params.layers
    traces: list[LayerTrace] = []
    for li, layer in enumerate(layers):
        in_mask = att_mask = None
        if dropout > 0.0:
            in_mask, att_mask = _draw_masks(rng, dropout, h.shape, structure)
        h, trace = _layer_forward(layer, h, structure, li < len(layers) - 1, keep,
                                  in_mask, att_mask)
        traces.append(trace)
    return h, ForwardTrace(layers=traces, structure=structure, output=h, keep=keep)


def _check_trace(layers: list[LayerParams], trace: ForwardTrace) -> None:
    if len(trace.layers) != len(layers):
        raise TraceError("trace layer count does not match parameters")
    for layer, lt in zip(layers, trace.layers):
        if lt.h_used.shape[1] != layer.d_in or lt.z.shape[1] != layer.d_out:
            raise TraceError("trace shapes do not match parameters")


def backward_gradients(
    params: GatParams,
    trace: ForwardTrace,
    d_out: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact reverse-mode gradients of the traced forward pass.

    Returns the parameter gradient, one vector laid out like ``params.flat``,
    and the gradient with respect to the model input features.
    """
    layers = params.layers
    _check_trace(layers, trace)
    d_out = np.asarray(d_out, dtype=np.float64)
    if d_out.shape != trace.output.shape:
        raise TraceError(
            f"upstream gradient shape {d_out.shape} != output shape {trace.output.shape}"
        )
    structure = trace.structure
    row, col, indptr = structure.row, structure.col, structure.indptr
    keep = trace.keep

    grads = np.zeros_like(params.flat)
    gh = d_out
    for layer, lt, g in zip(reversed(layers), reversed(trace.layers),
                            reversed(layer_views(grads, params.dims))):
        d_pre = gh * _elu_grad(lt.pre_act) if lt.apply_elu else gh

        # aggregation: pre_act = A_alpha @ z, A_alpha[row[e], col[e]] = alpha_used[e]
        d_alpha_used = structure.edge_dots(d_pre, lt.z)
        dz = structure.weighted_sum_transposed(lt.alpha_used, d_pre)

        d_alpha = (
            d_alpha_used if lt.att_mask is None else d_alpha_used * lt.att_mask / keep
        )
        # softmax backward per row segment
        s_row = np.add.reduceat(lt.alpha * d_alpha, indptr[:-1])
        de = lt.alpha * (d_alpha - s_row[row])
        draw = de * np.where(lt.raw > 0, 1.0, LEAKY_SLOPE)

        du = np.add.reduceat(draw, indptr[:-1])
        dv = np.bincount(col, weights=draw, minlength=structure.n_nodes)
        dz += np.outer(du, layer.a_src) + np.outer(dv, layer.a_dst)

        g.a_src[:] = lt.z.T @ du
        g.a_dst[:] = lt.z.T @ dv
        g.W[:] = lt.h_used.T @ dz
        gh = dz @ layer.W.T
        if lt.in_mask is not None:
            gh = gh * lt.in_mask / keep
    return grads, gh


# ---------------------------------------------------------------------------
# Checkpoint format
# ---------------------------------------------------------------------------

def save_checkpoint(params: GatParams, path: str | Path) -> None:
    """Write the versioned binary checkpoint: the dims and the flat parameters."""
    dims = params.dims
    with open(path, "wb") as fh:
        fh.write(_MAGIC + pack("II", _FORMAT_VERSION, len(dims)) + pack(f"{len(dims)}I", *dims))
        fh.write(params.flat.astype("<f8").tobytes())


def load_checkpoint(path: str | Path) -> GatParams:
    """Read a checkpoint. Another format version (a version-1 file must be
    trained again), dims that chain no layer, or a non-finite parameter raise
    TraceError naming the file."""
    with read_container(path, _MAGIC, "checkpoint file", TraceError, _FORMAT_VERSION) as r:
        (n_dims,) = r.unpack("I")
        dims = r.array("<u4", n_dims).tolist()
        # read_container reraises a ValueError as a TraceError naming the file
        flat = r.array("<f8", _param_count(dims, ValueError)).astype(np.float64)
        if not np.all(np.isfinite(flat)):
            raise ValueError("a parameter is non-finite")
    return GatParams(dims=dims, flat=flat)
