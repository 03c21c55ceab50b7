"""Node embeddings: file-backed tables, a binary cache format, and a remote
HTTP provider standing in for an external text-embedding model.

Binary cache layout ("EMB1", little-endian):
    magic "EMB1" | u32 dim | u64 count | records of
    (u16 id byte-length, id utf-8 bytes, dim float32 components)

Remote protocol: POST {"id": str, "text": str} -> {"vector": [float, ...]}.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .binfile import pack, pack_text, read_container
from .corpus import iter_records, string_field
from .errors import (DimensionError, DimMismatchError, IngestError, MissingEmbeddingError,
                     NumericalError, ProviderError, located)

_MAGIC = b"EMB1"

# The one precision of a stored vector: EMB1 records and GCG1 node features.
STORED_DTYPE = np.dtype("<f4")


@dataclass(frozen=True)
class ProviderConfig:
    endpoint: str
    truncation_tokens: int = 4096
    max_retries: int = 3
    retry_base_delay: float = 0.1
    max_in_flight: int = 4

    def __post_init__(self):
        if not self.endpoint:
            raise ValueError("an endpoint URL is required")
        if self.truncation_tokens < 1:
            raise ValueError("truncation_tokens must be >= 1")
        if self.max_retries < 0:  # fetch tries once plus max_retries times
            raise ValueError("max_retries must be >= 0")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight (threads) must be >= 1")


@dataclass
class EmbeddingTable:
    """Ordered map of node id -> float64 vector; all vectors share one dim."""

    dim: int
    vectors: dict[str, np.ndarray]

    def __getitem__(self, node_id: str) -> np.ndarray:
        return self.vectors[node_id]

    def __contains__(self, node_id: str) -> bool:
        return node_id in self.vectors

    def __len__(self) -> int:
        return len(self.vectors)


def stack_vectors(vectors: Mapping[str, np.ndarray] | EmbeddingTable,
                  ids: Sequence[str]) -> np.ndarray:
    """``vectors[i]`` for each id of ``ids``, in order, as a (len(ids), dim)
    float64 matrix ((0, 0) for no ids). The one missing-vector check: every id
    -> vector lookup stacks here, and MissingEmbeddingError names the first 20
    missing ids, each once, and counts the rest."""
    missing = list(dict.fromkeys(i for i in ids if i not in vectors))
    if missing:
        shown = ", ".join(repr(m) for m in missing[:20])
        more = f" (+{len(missing) - 20} more)" if len(missing) > 20 else ""
        raise MissingEmbeddingError(f"no embedding for: {shown}{more}")
    if len(ids) == 0:
        return np.zeros((0, 0))
    return np.array([vectors[i] for i in ids], dtype=np.float64)


def unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale each row of the matrix ``x`` to unit L2 norm: returns (unit rows,
    row norms). Every cosine in the package is a product of unit rows; raises
    NumericalError on a zero row, whose cosine is undefined."""
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms == 0.0):
        raise NumericalError("zero-norm row in cosine")
    return x / norms[:, None], norms


def _vector(node_id: str, value, dim: int | None, line_number: int | None = None,
            path=None) -> np.ndarray:
    """``value`` as a 1-D float64 vector of ``dim`` components (any number when
    ``dim`` is None): the shape half of the one check every vector read or
    fetched passes, made per vector; :func:`_check_finite` is the other half. A
    value that is not a list of numbers, or has another dim (a DimMismatchError),
    is a DimensionError naming ``node_id`` and, when given, the file and line it
    was read from. A vector with another dim and a non-finite component fails the finite half
    first, as it would if the halves ran in one call."""
    try:
        vec = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        vec = None
    if vec is None or vec.ndim != 1:
        raise DimensionError(f"vector for id {node_id!r} is not a list of numbers",
                             line_number, path)
    if dim is not None and len(vec) != dim:
        _check_finite({node_id: vec}, [line_number], path)
        raise DimMismatchError(f"vector for id {node_id!r} has dim {len(vec)}, expected {dim}",
                               line_number, path)
    return vec


# Components _check_finite stacks at a time (2 MB of float64), so its pass
# never copies a whole table of wide vectors.
_FINITE_BLOCK = 1 << 18


def _check_finite(vectors: Mapping[str, np.ndarray], lines: Sequence[int | None] | None = None,
                  path=None) -> None:
    """The finite half of the vector check: one pass over every vector of
    ``vectors``, which share one dim, stacked a block of rows at a time. The
    first, in order, with a non-finite component is a ValueError naming its id
    and, when given, the file and its line in ``lines``."""
    rows = list(vectors.values())
    step = max(1, _FINITE_BLOCK // max(1, len(rows[0]))) if rows else 1
    for start in range(0, len(rows), step):
        finite = np.isfinite(np.array(rows[start:start + step])).all(axis=1)
        if not finite.all():
            at = start + int(np.argmin(finite))
            raise ValueError(located(f"non-finite component in vector for id "
                                     f"{list(vectors)[at]!r}",
                                     None if lines is None else lines[at], path))


def load_embedding_file(path: str | Path, expected_dim: int | None = None) -> EmbeddingTable:
    """Load embeddings from JSONL ({"id", "vector"}) or the EMB1 binary format.
    Each vector is shaped on its line and all are checked for finiteness at
    once; a fault found at a later line is raised only after the vectors before
    it pass that check, so the error names the first fault in file order."""
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == _MAGIC:
        table = read_binary_embeddings(path)
        if expected_dim is not None and table.dim != expected_dim:
            raise DimMismatchError(f"file dim {table.dim} != expected {expected_dim}", path=path)
        return table

    vectors: dict[str, np.ndarray] = {}
    lines: list[int] = []
    dim = expected_dim
    try:
        for i, _, rec in iter_records(path, ("id", "vector")):
            node_id = string_field(rec, "id", i, path)
            if node_id in vectors:
                raise IngestError(f"duplicate embedding id {node_id!r}", i, path)
            vectors[node_id] = vec = _vector(node_id, rec["vector"], dim, i, path)
            dim = len(vec)
            lines.append(i)
    finally:  # an earlier non-finite vector wins over a later line's fault
        _check_finite(vectors, lines, path)
    if not vectors:
        raise IngestError("embedding file is empty", path=path)
    return EmbeddingTable(dim=int(dim), vectors=vectors)


def write_binary_embeddings(
    table: EmbeddingTable, path: str | Path, ids: Sequence[str] | None = None
) -> None:
    """Write vectors in EMB1 layout; ``ids`` fixes the record order (and may
    select a subset), defaulting to the table's insertion order. The rows are
    stacked before the file is opened, so a missing id writes nothing, and
    the file is written as one buffer."""
    ordered = list(ids) if ids is not None else list(table.vectors)
    rows = stack_vectors(table, ordered).astype(STORED_DTYPE)
    records = (pack_text(node_id) + row.tobytes() for node_id, row in zip(ordered, rows))
    Path(path).write_bytes(b"".join([_MAGIC, pack("I", table.dim), pack("Q", len(ordered)),
                                     *records]))


def read_binary_embeddings(path: str | Path) -> EmbeddingTable:
    """Read an EMB1 file; its vectors are checked as :func:`load_embedding_file`
    checks a JSONL file's, and the first fault in file order is raised."""
    with read_container(path, _MAGIC, "EMB1 embedding cache", IngestError) as r:
        dim, count = r.unpack("IQ")
        vectors: dict[str, np.ndarray] = {}
        try:
            for _ in range(count):
                node_id = r.text()
                if node_id in vectors:
                    raise IngestError(f"duplicate embedding id {node_id!r}", path=path)
                vectors[node_id] = _vector(node_id, r.array(STORED_DTYPE, dim), dim)
        finally:
            _check_finite(vectors)
    return EmbeddingTable(dim=int(dim), vectors=vectors)


def normalize_table(table: EmbeddingTable) -> EmbeddingTable:
    """Scale every vector to unit L2 norm. A zero vector has no direction, so it
    is a data error (IngestError) that names its id."""
    ids = list(table.vectors)
    rows = stack_vectors(table, ids)
    try:
        unit, _ = unit_rows(rows)
    except NumericalError:
        zero = ids[int(np.flatnonzero(np.linalg.norm(rows, axis=1) == 0.0)[0])]
        raise IngestError(f"cannot normalize the zero vector of id {zero!r}") from None
    return EmbeddingTable(dim=table.dim, vectors=dict(zip(ids, unit)))


def round_to_stored(table: EmbeddingTable) -> EmbeddingTable:
    """Every vector rounded to ``STORED_DTYPE`` and held as float64: the values
    an ``EMB1`` or ``GCG1`` file written from ``table`` reads back as."""
    return EmbeddingTable(table.dim, {node_id: v.astype(STORED_DTYPE).astype(np.float64)
                                      for node_id, v in table.vectors.items()})


def truncate_text(text: str, max_tokens: int) -> str:
    """Keep the first ``max_tokens`` whitespace-delimited tokens."""
    parts = text.split()
    if len(parts) <= max_tokens:
        return text
    return " ".join(parts[:max_tokens])


def _http_post_json(endpoint: str, payload: dict, timeout: float = 30.0) -> dict:
    """POST ``payload`` as JSON and return the decoded JSON answer. An error
    status raises ``urllib.error.HTTPError``, which ``fetch`` retries. urllib
    is imported here, since it loads ``ssl`` and ``http.client``, which a run
    from an embeddings file never needs."""
    import urllib.request

    request = urllib.request.Request(endpoint, data=json.dumps(payload).encode("utf-8"),
                                     headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=timeout) as resp:
        return json.load(resp)


class RemoteEmbeddingProvider:
    """Fetches embeddings over HTTP with retries and a dim check.

    Each text is truncated to ``truncation_tokens`` before it is sent. Every
    response passes the same finite and dim checks as a file vector; the
    ``expected_dim``, or else the first response, fixes the provider
    dimension, so a mismatch raises DimMismatchError. Vectors come back as the
    endpoint sent them.
    """

    def __init__(
        self,
        config: ProviderConfig,
        transport: Callable[[str, dict], dict] | None = None,
        expected_dim: int | None = None,
    ):
        self.config = config
        self._transport = transport or _http_post_json
        self._dim = expected_dim
        self._lock = threading.Lock()

    @property
    def dim(self) -> int | None:
        return self._dim

    def fetch(self, node_id: str, text: str) -> np.ndarray:
        if not text:
            raise ValueError("text must be non-empty")
        payload = {"id": node_id, "text": truncate_text(text, self.config.truncation_tokens)}
        for attempt in range(self.config.max_retries + 1):
            try:
                body = self._transport(self.config.endpoint, payload)
                break
            except Exception as exc:  # transport decides what is transient
                if attempt == self.config.max_retries:
                    raise ProviderError(f"embedding fetch for {node_id!r} failed after "
                                        f"{attempt + 1} attempts: {exc}") from exc
                time.sleep(self.config.retry_base_delay * (2**attempt))

        if not isinstance(body, dict) or "vector" not in body:
            raise ProviderError(f"embedding response for {node_id!r} from "
                                f"{self.config.endpoint} has no \"vector\" field")
        with self._lock:
            vec = _vector(node_id, body["vector"], self._dim)
            _check_finite({node_id: vec})
            self._dim = len(vec)
        return vec

    def fetch_many(self, items: Iterable[tuple[str, str]]) -> EmbeddingTable:
        """Fetch embeddings for (id, text) pairs, at most max_in_flight concurrently."""
        items = list(items)
        with ThreadPoolExecutor(max_workers=self.config.max_in_flight) as pool:
            results = list(pool.map(lambda it: self.fetch(it[0], it[1]), items))
        vectors = {node_id: vec for (node_id, _), vec in zip(items, results)}
        if self._dim is None:
            raise ProviderError("no embeddings fetched")
        return EmbeddingTable(dim=self._dim, vectors=vectors)

