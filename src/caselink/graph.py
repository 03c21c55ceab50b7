"""Global case graph construction: case-case edges from BM25 neighborhoods,
charge-charge edges from embedding similarity, case-charge edges from charge
name occurrence, assembled into one undirected, unweighted adjacency.

Node order is ``CorpusStore.node_ids``: cases 0..n-1, charges n..n+m-1.
Self-loops are not stored; the encoder adds them transiently.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from itertools import zip_longest
from pathlib import Path
from types import MappingProxyType

import numpy as np
import scipy.sparse as sp

from .binfile import pack, pack_record, read_container, record
from .bm25 import Bm25Index, block_top_k, check_case_order
from .corpus import CorpusStore, Role, normalize_charge_name
from .embeddings import STORED_DTYPE, EmbeddingTable, stack_vectors, unit_rows
from .errors import DimensionError, GraphConstructionError

_MAGIC = b"GCG1"


@dataclass(frozen=True)
class Provenance:
    """What a graph's edges were built from: the sha256 digests of the corpus and
    lexicon files, and the run's BM25 ``k1`` and ``b``, ``k_edges`` and ``delta``."""

    corpus_digest: str
    lexicon_digest: str
    k1: float
    b: float
    k_edges: int
    delta: float

    def first_difference(self, want: Provenance) -> tuple[str, object, object] | None:
        """The first field whose value differs from ``want``'s, as (name, this
        value, ``want``'s value); None when every field agrees."""
        pairs = zip(asdict(self).items(), asdict(want).values())
        return next(((name, have, need) for (name, have), need in pairs if have != need), None)


@dataclass
class GlobalCaseGraph:
    n_cases: int
    n_charges: int
    adjacency: sp.csr_matrix  # (n+m) x (n+m), symmetric, binary, zero diagonal
    features: np.ndarray  # (n+m) x d_emb, float64
    node_ids: tuple[str, ...]
    roles: tuple[Role, ...]  # per case node
    provenance: Provenance | None = None  # what the edges were built from, if known

    @property
    def n_nodes(self) -> int:
        return self.n_cases + self.n_charges

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def __post_init__(self):
        # read-only node id -> row map and candidate rows, built once with the graph
        self.node_rows = MappingProxyType({nid: i for i, nid in enumerate(self.node_ids)})
        self.candidate_rows = np.flatnonzero([r is Role.CANDIDATE for r in self.roles])
        self.candidate_rows.flags.writeable = False


def _edge_block(rows, cols, shape: tuple[int, int], symmetric: bool = False) -> sp.csr_matrix:
    """The binary int8 CSR of ``shape`` with an edge at each pair ``(rows[i],
    cols[i])``, and at its mirror when ``symmetric``; in canonical format: a
    repeated pair is one edge, the indices of each row are sorted."""
    if symmetric:
        rows, cols = np.concatenate((rows, cols)), np.concatenate((cols, rows))
    block = sp.csr_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=shape)
    block.data[:] = 1  # the conversion summed repeated pairs
    return block


def build_case_case_edges(index: Bm25Index, store: CorpusStore, k: int) -> sp.csr_matrix:
    """OR-symmetrized top-k BM25 neighborhood adjacency over case nodes."""
    if k < 1:
        raise ValueError("k must be >= 1")
    check_case_order(index, store)
    n = store.n_cases
    src = np.arange(n)
    tops = block_top_k(index, src, src, k, exclude_self=True)
    sources = np.repeat(src, [len(top) for top, _ in tops])
    targets = np.concatenate([np.zeros(0, np.int64), *(top for top, _ in tops)])
    return _edge_block(sources, targets, (n, n), symmetric=True)  # no self-pair: no diagonal


def build_charge_charge_edges(
    charge_ids: list[str] | tuple[str, ...],
    table: EmbeddingTable,
    delta: float,
) -> sp.csr_matrix:
    """Edges between charges whose embedding cosine similarity exceeds delta."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    unit, _ = unit_rows(stack_vectors(table, charge_ids))
    rows, cols = np.nonzero(unit @ unit.T > delta)
    upper = rows < cols
    return _edge_block(rows[upper], cols[upper], (len(unit), len(unit)), symmetric=True)


def build_case_charge_edges(store: CorpusStore) -> sp.csr_matrix:
    """m x n matrix: 1 where the charge name's tokens occur, in order and
    adjacent, among the case's tokens."""
    m, n = store.n_charges, store.n_cases
    # padded with spaces, so a name matches whole tokens only ("arson" is not in "carson")
    texts = [f" {' '.join(c.tokens)} " for c in store.cases]
    rows: list[int] = []
    cols: list[int] = []
    for i, charge in enumerate(store.charges):
        key = normalize_charge_name(charge.name)
        name = f" {key} "
        for j, text in enumerate(texts):
            if key and name in text:
                rows.append(i)
                cols.append(j)
    return _edge_block(rows, cols, (m, n))


def _check_block(name: str, block: sp.spmatrix, shape: tuple[int, int], symmetric: bool) -> sp.csr_matrix:
    if block.shape != shape:
        raise DimensionError(f"{name} has shape {block.shape}, expected {shape}")
    block = sp.csr_matrix(block)
    if block.nnz and not np.all(block.data == 1):
        raise GraphConstructionError(f"{name} must be binary")
    if symmetric and (block - block.T).nnz != 0:
        raise GraphConstructionError(f"{name} must be symmetric")
    if symmetric and block.diagonal().any():
        raise GraphConstructionError(f"{name} must have a zero diagonal")
    return block


def assemble_gcg(
    a_case: sp.spmatrix,
    a_bridge: sp.spmatrix,
    a_charge: sp.spmatrix,
    case_features: np.ndarray,
    charge_features: np.ndarray,
    case_ids: list[str] | tuple[str, ...],
    charge_ids: list[str] | tuple[str, ...],
    roles: list[Role] | tuple[Role, ...],
) -> GlobalCaseGraph:
    """Assemble [[A_case, A_bridge^T], [A_bridge, A_charge]] plus node features."""
    n = len(case_ids)
    m = len(charge_ids)
    a_case = _check_block("case-case block", a_case, (n, n), symmetric=True)
    a_charge = _check_block("charge-charge block", a_charge, (m, m), symmetric=True)
    a_bridge = _check_block("case-charge block", a_bridge, (m, n), symmetric=False)

    case_features = np.asarray(case_features, dtype=np.float64)
    charge_features = np.asarray(charge_features, dtype=np.float64)
    if case_features.shape[0] != n or charge_features.shape[0] != m:
        raise DimensionError("feature row counts do not match node counts")
    if m > 0 and n > 0 and case_features.shape[1] != charge_features.shape[1]:
        raise DimensionError("case and charge feature dims differ")
    if len(roles) != n:
        raise DimensionError("one role per case node required")

    adjacency = sp.bmat([[a_case, a_bridge.T], [a_bridge, a_charge]], format="csr", dtype=np.int8)
    adjacency.sort_indices()
    return GlobalCaseGraph(
        n_cases=n,
        n_charges=m,
        adjacency=adjacency,
        features=np.vstack([case_features, charge_features.reshape(m, case_features.shape[1])]),
        node_ids=tuple(case_ids) + tuple(charge_ids),
        roles=tuple(roles),
    )


def build_global_case_graph(
    store: CorpusStore,
    table: EmbeddingTable,
    index: Bm25Index,
    k: int,
    delta: float,
) -> GlobalCaseGraph:
    """Construct all three edge blocks from one corpus and assemble the graph;
    the features are stacked first, so a missing vector fails before any edge."""
    n, ids = store.n_cases, store.node_ids
    features = stack_vectors(table, ids)
    a_case = build_case_case_edges(index, store, k)
    a_charge = build_charge_charge_edges(ids[n:], table, delta)
    a_bridge = build_case_charge_edges(store)
    return assemble_gcg(a_case, a_bridge, a_charge, features[:n], features[n:], ids[:n], ids[n:],
                        tuple(c.role for c in store.cases))


# ---------------------------------------------------------------------------
# Serialization: JSON header + upper-triangle edge list + float32 features
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Header:
    """The JSON header of ``graph.gcg1``."""

    n: int  # case nodes
    m: int  # charge nodes
    dim: int
    ids: list[str]  # per node, cases first
    roles: list[str]  # per case node, a Role value
    # the Provenance fields, each null in a graph saved without one
    corpus_digest: str | None
    lexicon_digest: str | None
    k1: float | None
    b: float | None
    k_edges: int | None
    delta: float | None


def save_graph(graph: GlobalCaseGraph, path: str | Path) -> None:
    """Serialize the graph with its provenance, what its edges were built from.
    A graph without one has those header fields null, and :func:`check_provenance`
    refuses the file."""
    built_from = asdict(graph.provenance) if graph.provenance else dict.fromkeys(
        f.name for f in fields(Provenance))
    header = _Header(graph.n_cases, graph.n_charges, graph.dim, list(graph.node_ids),
                     [r.value for r in graph.roles], **built_from)
    upper = sp.triu(graph.adjacency, k=1).tocoo()
    order = np.lexsort((upper.col, upper.row))
    edges = np.column_stack([upper.row[order], upper.col[order]]).astype("<u4")
    with open(path, "wb") as fh:
        fh.write(_MAGIC + pack_record(header) + pack("Q", len(edges)))
        fh.write(edges.tobytes())
        fh.write(graph.features.astype(STORED_DTYPE).tobytes())


def load_graph(path: str | Path) -> GlobalCaseGraph:
    """Read a ``graph.gcg1``. A header that does not fit :class:`_Header`, ids or
    roles that do not fit its counts, a repeated id, edge pairs other than
    strictly increasing ``(i, j)`` with ``i < j < n + m``, or a non-finite
    feature raise GraphConstructionError naming the file; a short file raises
    IngestError."""
    with read_container(path, _MAGIC, "serialized case graph", GraphConstructionError) as r:
        h = _Header(**record(_Header, r.json(), GraphConstructionError, f"{path}: header"))
        if min(h.n, h.m, h.dim) < 0:
            raise ValueError("header n, m and dim must be >= 0")
        (n_edges,) = r.unpack("Q")
        edges = r.array("<u4", 2 * n_edges).reshape(-1, 2)
        n_nodes = h.n + h.m
        features = r.array(STORED_DTYPE, n_nodes * h.dim).reshape(n_nodes, h.dim).astype(np.float64)
        i, j = edges.T.astype(np.int64)
        if len(h.ids) != n_nodes:
            raise ValueError(f"{len(h.ids)} node ids for n + m = {n_nodes} nodes")
        if len(set(h.ids)) != n_nodes:
            raise ValueError("a node id is repeated")
        if len(h.roles) != h.n:
            raise ValueError(f"{len(h.roles)} roles for n = {h.n} cases")
        roles = tuple(Role(r) for r in h.roles)
        if not np.all((i < j) & (j < n_nodes)):
            raise ValueError(f"an edge pair is not (i, j) with i < j < {n_nodes}")
        if not np.all(np.diff(i * n_nodes + j) > 0):
            raise ValueError("edge pairs are not strictly increasing")
        if not np.all(np.isfinite(features)):
            raise ValueError("a node feature is non-finite")
    adjacency = _edge_block(i, j, (n_nodes, n_nodes), symmetric=True)
    built_from = {f.name: getattr(h, f.name) for f in fields(Provenance)}
    provenance = None if None in built_from.values() else Provenance(**built_from)
    return GlobalCaseGraph(h.n, h.m, adjacency, features, tuple(h.ids), roles, provenance)


def check_node_order(gcg: GlobalCaseGraph, store: CorpusStore, path) -> None:
    """Raise GraphConstructionError, naming ``path`` and the first row that
    differs, unless the graph's nodes are those of ``store``: its node ids in
    order, each case with its role."""
    def rows(ids, roles):
        return [f"{node_id!r} ({role.value if role else 'charge'})"
                for node_id, role in zip_longest(ids, roles)]

    got = rows(gcg.node_ids, gcg.roles)
    want = rows(store.node_ids, [c.role for c in store.cases])
    if got != want:
        pairs = enumerate(zip_longest(got, want, fillvalue="nothing"))
        row, (have, need) = next((i, pair) for i, pair in pairs if pair[0] != pair[1])
        raise GraphConstructionError(
            f"graph row {row} holds {have}, not node {row} of the corpus, {need}: the graph "
            "was built from another corpus or in another order", path=path)


def check_provenance(gcg: GlobalCaseGraph, want: Provenance, path) -> None:
    """Raise GraphConstructionError, naming ``path`` and the first field that
    differs, unless the graph records that its edges were built as ``want``
    says: from the same corpus and lexicon files, with the same settings."""
    if gcg.provenance is None:
        raise GraphConstructionError(
            "the graph records no provenance (its corpus and lexicon digests, k1, b, k_edges "
            "and delta are missing): it was saved without them", path=path)
    if (differs := gcg.provenance.first_difference(want)) is not None:
        name, have, need = differs
        raise GraphConstructionError(
            f"the graph was built with {name} {have!r}, this run has {need!r}: build "
            "the graph again for this corpus and these settings", path=path)
