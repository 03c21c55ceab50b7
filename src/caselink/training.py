"""Training: contrastive InfoNCE objective with easy/hard/in-batch negatives,
degree regularization on candidate rows of the cosine pseudo-adjacency, and a
hand-rolled Adam optimizer.

The loss per batch entry is

    -log[ exp(cos(h_q, h_pos)/tau) /
          (exp(cos(h_q, h_pos)/tau) + sum_i exp(cos(h_q, h_neg_i)/tau)) ]

where the negatives are the entry's sampled easy and hard negatives plus the
positives of the other entries in the batch (excluding any that are labeled
positives of this query). The degree regularizer sums cos(h_i, h_j) over all
candidate rows i and all case columns j, diagonal included.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, asdict, replace
from pathlib import Path

import numpy as np

from .binfile import record
from .bm25 import Bm25Index, block_top_k, check_case_order
from .corpus import CorpusStore, Role, decode_object, read_text, replaced, write_json, write_jsonl
from .embeddings import unit_rows
from .errors import DimensionError, LabelError, NumericalError, TraceError
from .gat import (
    ForwardTrace,
    GatParams,
    SelfLoopStructure,
    backward_gradients,
    init_params,
    model_forward,
    prepare_structure,
    save_checkpoint,
)
from .graph import GlobalCaseGraph, Provenance

logger = logging.getLogger(__name__)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# What train() writes to its checkpoint_dir: the best and the last epoch's
# checkpoints, each with a JSON sidecar of the config, the dims and the graph's
# provenance, and the epoch log.
BEST_CHECKPOINT = "checkpoint.gatc"
LAST_CHECKPOINT = "checkpoint_last.gatc"
TRAINING_LOG = "training_log.jsonl"
CHECKPOINT_FILES = (BEST_CHECKPOINT, f"{BEST_CHECKPOINT}.json",
                    LAST_CHECKPOINT, f"{LAST_CHECKPOINT}.json", TRAINING_LOG)

# Cells x dims of the batch entries infonce_loss scores together: 256 KB of
# float64 gathered cell rows per block, and as much again for the block's
# scatter indices and its cell terms, where the whole batch at once took
# B x L x d of each (2.2 GB at 256 entries of 4,096 dims). In a sweep of 2^14
# to 2^17 on perfbench's lexical workload, 2^15 to 2^17 trained equally fast
# and 2^14 about 3% slower.
_CELL_BLOCK = 1 << 15

_LISTED_QUERIES = 5  # query ids named by train()'s empty hard-pool warning


@dataclass(frozen=True)
class TrainingConfig:
    batch_size: int = 256
    layers: int = 2
    hidden_dim: int | None = None  # defaults to the embedding dim
    dropout: float = 0.2
    lr: float = 1e-3
    weight_decay: float = 1e-4
    n_easy_neg: int = 1
    n_hard_neg: int = 5
    lam: float = 1e-3  # degree-regularization coefficient
    tau: float = 0.1
    hard_neg_pool_size: int = 10
    epochs: int = 30
    seed: int = 0

    def __post_init__(self):
        # written so that NaN fails every check
        for name in ("lr", "tau"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be a finite number > 0")
        for name in ("weight_decay", "lam"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be a finite number >= 0")
        if self.batch_size < 1 or self.layers < 1 or self.epochs < 0:
            raise ValueError("batch_size/layers must be >= 1 and epochs >= 0")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.hidden_dim is not None and self.hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1")
        if min(self.n_easy_neg, self.n_hard_neg, self.hard_neg_pool_size) < 0:
            raise ValueError("sampling sizes must be >= 0")


@dataclass(frozen=True)
class BatchEntry:
    query_id: str
    positive_id: str
    easy_negative_ids: tuple[str, ...]
    hard_negative_ids: tuple[str, ...]
    known_positive_ids: frozenset[str]

    @property
    def negative_ids(self) -> tuple[str, ...]:
        return self.easy_negative_ids + self.hard_negative_ids


@dataclass(frozen=True)
class TrainingBatch:
    entries: tuple[BatchEntry, ...]
    epoch: int = 0


@dataclass
class AdamState:
    """First and second moments, laid out like ``GatParams.flat``, and the step."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @staticmethod
    def zeros_like(params: GatParams) -> "AdamState":
        return AdamState(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def hard_negative_pools(store: CorpusStore, index: Bm25Index,
                        pool_size: int) -> dict[str, tuple[str, ...]]:
    """Per query of ``store.labels``: candidates in the BM25 top ``pool_size``,
    positives excluded."""
    check_case_order(index, store)
    labels = store.labels
    cand_rows = np.array(
        [i for i, c in enumerate(store.cases) if c.role is Role.CANDIDATE], dtype=np.int64
    )
    src = np.array([index.doc_index(qid) for qid in labels], dtype=np.int64)
    pools: dict[str, tuple[str, ...]] = {}
    for qid, (top, _) in zip(labels, block_top_k(index, src, cand_rows, pool_size)):
        positives = set(labels[qid])
        pools[qid] = tuple(index.doc_ids[i] for i in top if index.doc_ids[i] not in positives)
    return pools


@dataclass(frozen=True)
class EasyNegatives:
    """Per query, the candidates that are not its positives, addressed by
    index in candidate order instead of listed.

    ``skips[qid]`` holds the sorted candidate positions of the query's
    distinct positives, the k-th lowered by k, so the i-th non-positive
    candidate sits at position i + (number of skips <= i).
    """

    candidate_ids: tuple[str, ...]
    skips: dict[str, np.ndarray]

    def size(self, qid: str) -> int:
        return len(self.candidate_ids) - len(self.skips[qid])

    def ids(self, qid: str, idx: np.ndarray) -> tuple[str, ...]:
        """The non-positive candidates at indices ``idx`` in [0, size(qid))."""
        skips = self.skips[qid]
        positions = idx + np.searchsorted(skips, idx, side="right")
        return tuple(self.candidate_ids[p] for p in positions.tolist())


def easy_negatives(
    labels: dict[str, tuple[str, ...]],
    candidate_ids: list[str] | tuple[str, ...],
) -> EasyNegatives:
    """Each query's easy-negative pool, every candidate that is not one of its
    positives, as an ``EasyNegatives`` built in O(candidates + labels)."""
    position = {c: i for i, c in enumerate(candidate_ids)}
    skips: dict[str, np.ndarray] = {}
    for qid, positives in labels.items():
        hits = sorted({position[p] for p in positives if p in position})
        skips[qid] = np.array(hits, dtype=np.int64) - np.arange(len(hits))
    return EasyNegatives(candidate_ids=tuple(candidate_ids), skips=skips)


def sample_batch(
    labels: dict[str, tuple[str, ...]],
    hard_pools: dict[str, tuple[str, ...]],
    easy_pools: EasyNegatives,
    config: TrainingConfig,
    rng: np.random.Generator,
    query_subset: list[str] | tuple[str, ...],
    epoch: int = 0,
) -> TrainingBatch:
    """Sample one positive plus easy and hard negatives for each query.

    Easy negatives are indices drawn into the query's ``EasyNegatives`` pool
    and mapped to candidate ids, hard negatives come from its BM25 pool; if
    exclusion empties the hard pool, the hard negatives are drawn from the
    easy pool instead (``train()`` reports such queries once, with its pools).
    """
    entries: list[BatchEntry] = []
    for qid in query_subset:
        positives = labels.get(qid, ())
        if not positives:
            raise LabelError(f"query {qid!r} has no labeled positive")
        positive = positives[int(rng.integers(len(positives)))]

        n_easy = easy_pools.size(qid)
        if n_easy < config.n_easy_neg:
            raise LabelError(f"not enough easy negatives for query {qid!r}")
        easy = easy_pools.ids(qid, rng.choice(n_easy, size=config.n_easy_neg, replace=False))

        # with n_hard_neg 0 the draw is empty and takes nothing from rng
        if hard_pool := hard_pools.get(qid, ()):
            take = rng.choice(len(hard_pool), size=min(config.n_hard_neg, len(hard_pool)),
                              replace=False)
            hard = tuple(hard_pool[i] for i in take.tolist())
        else:
            hard = easy_pools.ids(
                qid, rng.choice(n_easy, size=min(config.n_hard_neg, n_easy), replace=False)
            )

        entries.append(
            BatchEntry(
                query_id=qid,
                positive_id=positive,
                easy_negative_ids=easy,
                hard_negative_ids=hard,
                known_positive_ids=frozenset(positives),
            )
        )
    return TrainingBatch(entries=tuple(entries), epoch=epoch)


def _unit_rows_backward(unit: np.ndarray, norms: np.ndarray, d_unit: np.ndarray) -> np.ndarray:
    """Gradient with respect to the rows x, given the gradient with respect to
    their unit rows u = x / ||x||: (g - (u.g) u) / ||x|| per row."""
    proj = np.einsum("ij,ij->i", unit, d_unit)
    return (d_unit - proj[:, None] * unit) / norms[:, None]


def infonce_loss(
    h: np.ndarray,
    batch: TrainingBatch,
    tau: float,
    row_of: dict[str, int],
) -> tuple[float, np.ndarray]:
    """Batch-mean InfoNCE loss and its analytic gradient with respect to h.

    The batch becomes one (B x L) matrix of rows of h plus a validity mask:
    column 0 is each entry's positive, then its own negatives, then the
    positives of every entry in batch order, valid where they are in-batch
    negatives (another entry's positive that is not a known positive).

    Entries are scored ``_CELL_BLOCK // (L x d)`` at a time (at least one), so
    only one block's gathered cell rows are held: transient memory is
    O(max(_CELL_BLOCK, L x d)) floats, not O(B x L x d). The gradient of the
    unit rows is summed in two passes over the blocks, each a 1-D
    ``np.add.at`` into the flat (used rows x d) sum: the query-row terms of
    every block, then the cell terms of every block. ``np.add.at`` adds one
    index after another from zero, so every row sums its query terms, then its
    cell terms, in batch order, whatever the block size; cosines, softmax and
    loss are per entry. The result is the same bit for bit for every block size.
    """
    if not tau > 0:
        raise ValueError("tau must be > 0")
    if not batch.entries:
        raise ValueError("empty batch")
    entries = batch.entries
    n = len(entries)
    queries = np.array([row_of[e.query_id] for e in entries], dtype=np.int64)
    own = [[row_of[e.positive_id], *(row_of[i] for i in e.negative_ids)] for e in entries]
    positives = np.array([rows[0] for rows in own], dtype=np.int64)
    lengths = np.array([len(rows) for rows in own])
    own_mask = np.arange(lengths.max()) < lengths[:, None]
    # pad with the entry's positive, so every cell names a row the batch uses
    own_rows = np.repeat(positives[:, None], own_mask.shape[1], axis=1)
    own_rows[own_mask] = np.concatenate(own)
    # known[i, c]: the batch's c-th distinct positive is a known positive of
    # entry i; each entry's positive is then one column lookup
    col_of: dict[str, int] = {}
    pos_cols = [col_of.setdefault(e.positive_id, len(col_of)) for e in entries]
    hits = [(i, col_of[k]) for i, e in enumerate(entries)
            for k in e.known_positive_ids if k in col_of]
    known = np.zeros((n, len(col_of)), dtype=bool)
    known[tuple(np.array(hits, dtype=np.int64).reshape(-1, 2).T)] = True
    in_batch = ~known[:, pos_cols]
    np.fill_diagonal(in_batch, False)
    rows = np.hstack([own_rows, np.broadcast_to(positives, (n, n))])
    mask = np.hstack([own_mask, in_batch])

    # normalise each used row once; every cosine is one product of unit rows
    used, local = np.unique(np.concatenate([queries, rows.ravel()]), return_inverse=True)
    unit, norms = unit_rows(h[used])
    d = h.shape[1]
    q_local, r_local = local[:n], local[n:].reshape(rows.shape)
    u_q = unit[q_local]
    step = max(1, _CELL_BLOCK // (rows.shape[1] * d))
    blocks = [slice(s, s + step) for s in range(0, n, step)]
    dims = np.arange(d)

    losses = np.empty(n)
    dcos = np.empty(rows.shape)
    d_unit = np.zeros(len(used) * d)
    for b in blocks:
        u_r = unit[r_local[b]]
        logits = np.where(mask[b], np.einsum("bd,bld->bl", u_q[b], u_r) / tau, -np.inf)
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        denom = exp.sum(axis=1)
        losses[b] = np.log(denom) - shifted[:, 0]  # -log softmax[0]
        g = dcos[b]
        g[:] = exp / denom[:, None]
        g[:, 0] -= 1.0
        g /= tau * n
        np.add.at(d_unit, (q_local[b, None] * d + dims).ravel(),
                  np.einsum("bl,bld->bd", g, u_r).ravel())
    for b in blocks:
        np.add.at(d_unit, (r_local[b, :, None] * d + dims).ravel(),
                  (dcos[b, :, None] * u_q[b, None, :]).ravel())
    dh = np.zeros_like(h)
    dh[used] = _unit_rows_backward(unit, norms, d_unit.reshape(len(used), d))
    return float(np.mean(losses)), dh


def degreg_loss(
    h: np.ndarray,
    n_cases: int,
    candidate_rows: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Sum of cos(h_i, h_j) over candidate rows i and all case columns j.

    The diagonal contributes a constant 1 per candidate row and has zero
    gradient. Returns the loss and its gradient with respect to h.
    """
    if len(candidate_rows) == 0:
        raise ValueError("degree regularization requires at least one candidate")
    unit, norms = unit_rows(h[:n_cases])

    cand_mask = np.zeros(n_cases, dtype=bool)
    cand_mask[candidate_rows] = True
    s_all = unit.sum(axis=0)
    s_cand = unit[cand_mask].sum(axis=0)
    loss = float(s_cand @ s_all)

    d_unit = np.tile(s_cand, (n_cases, 1))
    d_unit[cand_mask] += s_all
    dh = np.zeros_like(h)
    dh[:n_cases] = _unit_rows_backward(unit, norms, d_unit)
    return loss, dh


def total_loss_and_grads(
    params: GatParams,
    graph: GlobalCaseGraph,
    batch: TrainingBatch,
    config: TrainingConfig,
    rng: np.random.Generator | None = None,
    train_mode: bool = True,
    structure: SelfLoopStructure | None = None,
) -> tuple[float, float, float, np.ndarray, ForwardTrace]:
    """Combined objective: InfoNCE + lam * DegReg, backpropagated once.

    With ``train_mode`` the forward drops out at ``config.dropout``, drawing
    its masks from ``rng``; without it nothing is dropped. ``structure`` is
    ``prepare_structure(graph.adjacency)`` when the caller keeps one across
    steps. Returns (total, infonce, degreg, parameter gradients, forward trace).
    """
    h, trace = model_forward(
        params, graph.features, graph.adjacency if structure is None else structure,
        dropout=config.dropout if train_mode else 0.0, rng=rng,
    )
    nce, dh = infonce_loss(h, batch, config.tau, graph.node_rows)
    if config.lam > 0.0:
        reg, dh_reg = degreg_loss(h, graph.n_cases, graph.candidate_rows)
        dh = dh + config.lam * dh_reg
    else:
        reg = 0.0
    grads, _ = backward_gradients(params, trace, dh)
    return nce + config.lam * reg, nce, reg, grads, trace


def adam_step(
    params: GatParams,
    grads: np.ndarray,
    state: AdamState,
    lr: float,
    weight_decay: float = 0.0,
) -> tuple[GatParams, AdamState]:
    """One classic Adam update (L2 weight decay folded into the gradient).

    Pure function: inputs are not mutated; the result holds fresh arrays.
    """
    if grads.shape != params.flat.shape:
        raise DimensionError(
            f"gradient shape {grads.shape} != parameter shape {params.flat.shape}"
        )
    if weight_decay:
        grads = grads + weight_decay * params.flat
    t = state.t + 1
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grads
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grads * grads
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    flat = params.flat - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return replace(params, flat=flat), AdamState(m=m, v=v, t=t)


@dataclass
class EpochLog:
    epoch: int
    mean_loss: float
    infonce: float
    degreg: float
    wall_ms: float


@dataclass
class TrainResult:
    params: GatParams
    log: list[EpochLog]
    best_epoch: int


def check_labels(store: CorpusStore, n_easy_neg: int) -> None:
    """Raise LabelError, naming the first query at fault in sorted order, unless
    ``store.labels`` has a query, each query a positive and at least ``n_easy_neg``
    easy negatives. A query's easy negatives are counted, not built: the store
    holds its positives as distinct candidates, so they number candidates - positives."""
    labels = store.labels
    if not labels:
        raise LabelError("no labeled queries to train on")
    n_candidates = len(store.candidates())
    for qid in sorted(labels):
        if not labels[qid]:
            raise LabelError(f"query {qid!r} has no labeled positive")
        if (n_easy := n_candidates - len(labels[qid])) < n_easy_neg:
            raise LabelError(f"not enough easy negatives for query {qid!r}: {n_easy} candidates "
                             f"are not its positives, n_easy_neg is {n_easy_neg}")


def _checkpoints(ckpt_dir: Path, names, params: GatParams, sidecar: dict | None) -> dict:
    """For :func:`corpus.replaced`: per name of ``names``, the writers of the
    checkpoint ``ckpt_dir / name`` of ``params`` and, unless None, its ``sidecar``."""
    writers = {}
    for name in names:
        writers[ckpt_dir / name] = lambda path: save_checkpoint(params, path)
        if sidecar is not None:
            writers[ckpt_dir / f"{name}.json"] = lambda path: write_json(path, sidecar)
    return writers


def check_checkpoint_provenance(checkpoint: str | Path, want: Provenance) -> None:
    """Raise TraceError, naming the sidecar of ``checkpoint`` and the first field
    that differs, unless the provenance it records, that of the graph the
    checkpoint was trained on, is ``want``. A checkpoint without a sidecar, or
    whose sidecar records no provenance, passes: nothing says what it came from."""
    sidecar = Path(f"{checkpoint}.json")
    if not sidecar.exists():
        return
    recorded = decode_object(read_text(sidecar), sidecar).get("provenance")
    if recorded is None:
        return
    trained_on = Provenance(**record(Provenance, recorded, TraceError, f"{sidecar}: provenance"))
    if (differs := trained_on.first_difference(want)) is not None:
        name, have, need = differs
        raise TraceError(
            f"the checkpoint was trained on a graph built with {name} {have!r}, this run has "
            f"{need!r}: train again for this corpus and these settings", path=sidecar)


def train(store: CorpusStore, graph: GlobalCaseGraph, config: TrainingConfig,
          bm25_index: Bm25Index, checkpoint_dir: str | Path | None = None) -> TrainResult:
    """Optimize encoder parameters on one training graph.

    Each epoch shuffles the queries of ``store.labels``, partitions them into batches,
    and runs a full-graph forward per batch with the loss restricted to the
    batch entries; the best-epoch params are returned. After :func:`check_labels`, the edge
    structure, the easy-negative pools and the hard-negative pools, ranked by ``bm25_index``
    (the index the graph was built from), are built once, before the first step; one warning
    names the queries whose hard pool is empty. A non-finite loss or parameter is a
    NumericalError. With ``checkpoint_dir``,
    ``checkpoint_last.gatc`` is committed after each epoch (its sidecar, which
    never changes, with the first). However the epochs end, a NumericalError
    included, one commit then completes the directory: ``checkpoint.gatc`` with
    its sidecar holds the best finished epoch (else the initial params),
    ``training_log.jsonl`` every finished epoch, and ``checkpoint_last.gatc``
    the initial params if no epoch finished.
    """
    check_labels(store, config.n_easy_neg)
    easy_pools = easy_negatives(store.labels, [c.id for c in store.candidates()])
    queries = sorted(store.labels)
    hard_pools = hard_negative_pools(store, bm25_index, config.hard_neg_pool_size)
    if config.n_hard_neg and (empty := [qid for qid in queries if not hard_pools[qid]]):
        logger.warning(
            "%d of %d queries have an empty hard-negative pool after excluding positives "
            "(%s); their hard negatives are drawn from the easy pool",
            len(empty), len(queries), ", ".join(empty[:_LISTED_QUERIES])
            + (", ..." if len(empty) > _LISTED_QUERIES else ""),
        )
    structure = prepare_structure(graph.adjacency)

    rng = np.random.default_rng(config.seed)
    dims = [graph.dim] + [config.hidden_dim or graph.dim] * config.layers
    params = init_params(config.seed, dims)

    ckpt_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
    sidecar = {"config": asdict(config), "dims": dims,
               "provenance": asdict(graph.provenance) if graph.provenance else None}

    logs: list[EpochLog] = []
    best_params, best_epoch = params, 0
    adam = AdamState.zeros_like(params)

    try:
        # a diverging run overflows; the finiteness checks below are its one report
        with np.errstate(over="ignore", invalid="ignore"):
            for epoch in range(config.epochs):
                t0 = time.perf_counter()
                order = list(queries)
                rng.shuffle(order)
                steps: list[tuple[float, float, float]] = []  # (total, infonce, degreg)
                for start in range(0, len(order), config.batch_size):
                    subset = order[start : start + config.batch_size]
                    batch = sample_batch(
                        store.labels, hard_pools, easy_pools, config, rng, subset, epoch=epoch
                    )
                    total, nce, reg, grads, _ = total_loss_and_grads(
                        params, graph, batch, config, rng=rng, train_mode=True, structure=structure
                    )
                    if not np.isfinite(total):
                        raise NumericalError(
                            f"non-finite loss at epoch {epoch}; last good checkpoint retained"
                        )
                    params, adam = adam_step(params, grads, adam, config.lr, config.weight_decay)
                    if not np.all(np.isfinite(params.flat)):
                        raise NumericalError(
                            f"non-finite parameter at epoch {epoch}; last good checkpoint retained"
                        )
                    steps.append((total, nce, reg))

                means = (float(np.mean(column)) for column in zip(*steps))
                logs.append(EpochLog(epoch, *means, wall_ms=(time.perf_counter() - t0) * 1e3))
                # the first epoch of the lowest mean loss
                best_epoch = min(range(len(logs)), key=lambda e: logs[e].mean_loss)
                if best_epoch == epoch:
                    best_params = params
                if ckpt_dir is not None:
                    with replaced(_checkpoints(ckpt_dir, [LAST_CHECKPOINT], params,
                                               sidecar if epoch == 0 else None)):
                        pass
    finally:
        if ckpt_dir is not None:
            # no epoch finished: the initial params are the best and the last
            names = [BEST_CHECKPOINT] if logs else [LAST_CHECKPOINT, BEST_CHECKPOINT]
            writers = _checkpoints(ckpt_dir, names, best_params, sidecar)
            writers[ckpt_dir / TRAINING_LOG] = lambda path: write_jsonl(path, map(asdict, logs))
            with replaced(writers):
                pass
    return TrainResult(params=best_params, log=logs, best_epoch=best_epoch)
