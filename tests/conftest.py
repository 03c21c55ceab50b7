"""Shared builders: tiny corpora, random graphs, and a finite-difference checker."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from caselink.corpus import (
    CaseDocument,
    ChargeEntry,
    CorpusStore,
    Role,
    extract_latest_year,
    tokenize,
)
from caselink.gat import GatParams
from caselink.graph import GlobalCaseGraph, assemble_gcg
from caselink.training import BatchEntry, TrainingBatch


def make_case(
    case_id: str,
    text: str,
    role: Role = Role.CANDIDATE,
    year: int | None | str = "auto",
) -> CaseDocument:
    """Build a CaseDocument with tokens (and, by default, year) derived from text."""
    if year == "auto":
        year = extract_latest_year(text)
    return CaseDocument(
        id=case_id, text=text, tokens=tuple(tokenize(text)), year=year, role=role
    )


def make_store(
    cases: list[tuple],
    charges: list[tuple[str, str]] = (),
    labels: dict[str, tuple[str, ...]] | None = None,
) -> CorpusStore:
    """cases: (id, text[, role[, year]]) tuples; charges: (id, name) tuples."""
    docs = tuple(make_case(*spec) for spec in cases)
    entries = tuple(ChargeEntry(id=cid, name=name) for cid, name in charges)
    return CorpusStore(cases=docs, charges=entries, labels=labels or {})


def random_text(rng: np.random.Generator, vocab_size: int, length: int) -> str:
    words = [f"w{int(i):02d}" for i in rng.integers(0, vocab_size, size=length)]
    return " ".join(words)


def random_store(
    rng: np.random.Generator,
    n_docs: int,
    vocab_size: int = 10,
    max_len: int = 12,
    n_queries: int = 0,
) -> CorpusStore:
    """Token-soup corpus with deterministic ids; first n_queries docs are queries."""
    cases = []
    for i in range(n_docs):
        length = int(rng.integers(1, max_len + 1))
        role = Role.QUERY if i < n_queries else Role.CANDIDATE
        cases.append(make_case(f"doc{i:03d}", random_text(rng, vocab_size, length), role))
    return CorpusStore(cases=tuple(cases))


def random_gcg(
    seed: int = 42,
    n_cases: int = 12,
    n_charges: int = 4,
    dim: int = 8,
    n_queries: int = 3,
) -> GlobalCaseGraph:
    """Random global graph with all three edge blocks populated."""
    rng = np.random.default_rng(seed)

    def sym_block(n: int, p: float) -> sp.csr_matrix:
        upper = np.triu(rng.random((n, n)) < p, 1)
        return sp.csr_matrix((upper | upper.T).astype(np.int8))

    a_case = sym_block(n_cases, 0.3)
    a_charge = sym_block(n_charges, 0.5)
    a_bridge = sp.csr_matrix(
        (rng.random((n_charges, n_cases)) < 0.3).astype(np.int8)
    )
    case_feat = rng.standard_normal((n_cases, dim))
    charge_feat = rng.standard_normal((n_charges, dim))
    case_ids = [f"case{i:02d}" for i in range(n_cases)]
    charge_ids = [f"ch{i}" for i in range(n_charges)]
    roles = [Role.QUERY] * n_queries + [Role.CANDIDATE] * (n_cases - n_queries)
    return assemble_gcg(
        a_case, a_bridge, a_charge, case_feat, charge_feat, case_ids, charge_ids, roles
    )


def toy_batch() -> TrainingBatch:
    """Three entries over random_gcg(), exercising in-batch negative filtering."""
    entries = (
        BatchEntry(
            query_id="case00",
            positive_id="case03",
            easy_negative_ids=("case04",),
            hard_negative_ids=("case05", "case06"),
            known_positive_ids=frozenset({"case03"}),
        ),
        BatchEntry(
            query_id="case01",
            positive_id="case07",
            easy_negative_ids=("case08",),
            hard_negative_ids=("case09",),
            known_positive_ids=frozenset({"case07", "case03"}),
        ),
        BatchEntry(
            query_id="case02",
            positive_id="case10",
            easy_negative_ids=("case11",),
            hard_negative_ids=(),
            known_positive_ids=frozenset({"case10"}),
        ),
    )
    return TrainingBatch(entries=entries, epoch=0)


def finite_difference_worst_rel_err(
    params: GatParams,
    loss_fn,
    grads,
    eps: float = 1e-5,
) -> float:
    """Max relative error between analytic grads and central differences.

    Relative error is |fd - g| / max(|fd|, |g|, 1e-8), elementwise over the
    flat parameter vector; ``grads`` has the same layout.
    """
    worst = 0.0
    flat = params.flat
    for i in range(len(flat)):
        orig = flat[i]
        flat[i] = orig + eps
        plus = loss_fn(params)
        flat[i] = orig - eps
        minus = loss_fn(params)
        flat[i] = orig
        fd = (plus - minus) / (2.0 * eps)
        g = float(grads[i])
        worst = max(worst, abs(fd - g) / max(abs(fd), abs(g), 1e-8))
    return worst


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)
