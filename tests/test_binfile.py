"""Byte layouts of the four binary formats, packed by hand from the README table,
and the check of JSON records against their dataclasses."""

import dataclasses
import json
import struct
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from caselink import bm25, graph
from caselink.binfile import Reader, field_kinds, pack_record, read_container, record
from caselink.bm25 import build_index, save_index
from caselink.cli import RunOptions
from caselink.corpus import Role
from caselink.embeddings import EmbeddingTable, read_binary_embeddings, write_binary_embeddings
from caselink.errors import GraphConstructionError, IngestError, TraceError
from caselink.gat import GatParams, save_checkpoint
from caselink.graph import GlobalCaseGraph, Provenance, save_graph
from caselink.synthetic import SyntheticSpec
from caselink.training import TrainingConfig

from conftest import make_store


def compact_json(obj):
    data = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return struct.pack("<I", len(data)) + data


def bm25_file(path):
    # terms a, b, é; rows {a: 1, b: 2} and {é: 1}
    save_index(build_index(make_store([("d1", "b a b"), ("d2", "é")])), path, "xyz")
    meta = {"b": 0.75, "digest": "xyz", "doc_ids": ["d1", "d2"], "k1": 1.2,
            "terms": ["a", "b", "é"]}
    return (b"BM25" + struct.pack("<I", 2) + compact_json(meta) + struct.pack("<Q", 3)
            + struct.pack("<3I", 0, 2, 3) + struct.pack("<3I", 0, 1, 2)
            + struct.pack("<3I", 1, 2, 1))


def emb1_file(path):
    table = EmbeddingTable(dim=2, vectors={"a": np.array([1.0, 2.0]),
                                           "bé": np.array([0.5, -1.0])})
    write_binary_embeddings(table, path)
    return (b"EMB1" + struct.pack("<IQ", 2, 2)
            + struct.pack("<H", 1) + b"a" + struct.pack("<2f", 1.0, 2.0)
            + struct.pack("<H", 3) + "bé".encode("utf-8") + struct.pack("<2f", 0.5, -1.0))


def gcg1_file(path):
    adjacency = sp.csr_matrix(np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=np.int8))
    features = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    save_graph(GlobalCaseGraph(n_cases=2, n_charges=1, adjacency=adjacency, features=features,
                               node_ids=("q1", "c1", "x1"), roles=(Role.QUERY, Role.CANDIDATE),
                               provenance=Provenance("abc", "def", k1=1.2, b=0.75, k_edges=5,
                                                     delta=0.9)), path)
    header = {"b": 0.75, "corpus_digest": "abc", "delta": 0.9, "dim": 2,
              "ids": ["q1", "c1", "x1"], "k1": 1.2, "k_edges": 5, "lexicon_digest": "def",
              "m": 1, "n": 2, "roles": ["query", "candidate"]}
    return (b"GCG1" + compact_json(header) + struct.pack("<Q", 2)
            + struct.pack("<4I", 0, 1, 0, 2) + struct.pack("<6f", 1, 0, 0, 1, 0.5, 0.5))


def gatc_file(path):
    # dims [1, 2]: W = [[1, 2]], a_src = [3, 4], a_dst = [5, 6]
    params = GatParams(dims=[1, 2], flat=np.arange(1.0, 7.0))
    save_checkpoint(params, path)
    return (b"GATC" + struct.pack("<II", 2, 2) + struct.pack("<2I", 1, 2)
            + struct.pack("<6d", 1, 2, 3, 4, 5, 6))


@pytest.mark.parametrize("write", [bm25_file, emb1_file, gcg1_file, gatc_file],
                         ids=["BM25", "EMB1", "GCG1", "GATC"])
def test_writer_bytes_match_the_documented_layout(tmp_path, write):
    path = tmp_path / "file.bin"
    expected = write(path)
    assert path.read_bytes() == expected


@dataclasses.dataclass
class Fields:
    count: int
    rate: float
    names: list[str]
    path: Path | None = None
    size: int = 3


FIELDS = {"count": 2, "rate": 0.5, "names": ["a"]}


class TestRecord:
    def test_fields_are_keyed_by_name_and_converted_to_their_kind(self):
        out = record(Fields, FIELDS | {"rate": 1, "path": "a/b", "names": []}, KeyError, "x")
        assert out == {"count": 2, "rate": 1.0, "names": [], "path": Path("a/b")}
        assert type(out["rate"]) is float

    def test_null_for_an_optional_field(self):
        assert record(Fields, FIELDS | {"path": None}, KeyError, "x")["path"] is None

    def test_alias_names_a_field(self):
        out = record(Fields, {"n": 2, "rate": 0.5, "names": ["a"]}, KeyError, "x", {"n": "count"})
        assert out["count"] == 2

    @pytest.mark.parametrize("values, message", [
        (FIELDS | {"count": True}, "x 'count' is not an integer (got True)"),
        (FIELDS | {"rate": False}, "x 'rate' is not a number (got False)"),
        (FIELDS | {"count": 2.0}, "x 'count' is not an integer (got 2.0)"),
        (FIELDS | {"rate": "0.5"}, "x 'rate' is not a number (got '0.5')"),
        (FIELDS | {"rate": 10**400}, "x 'rate' is not a number"),
        (FIELDS | {"size": None}, "x 'size' is not an integer (got None)"),
        (FIELDS | {"path": 3}, "x 'path' is not a path string or null (got 3)"),
        (FIELDS | {"names": "ab"}, "x 'names' is not a list of strings (got 'ab')"),
        (FIELDS | {"names": ["a", 2]}, "x 'names' is not a list of strings"),
        ({"count": 2, "rate": 0.5}, "x 'names' is not a list of strings (missing)"),
        (FIELDS | {"Count": 2}, "x has an unknown key 'Count'"),
        ([FIELDS], "x is not a JSON object"),
    ], ids=["bool for an int", "bool for a float", "float for an int", "string for a float",
            "int past the float range", "null for a plain field", "int for a path",
            "string for a list", "list with an int", "required field missing", "unknown key",
            "not an object"])
    def test_rejected(self, values, message):
        with pytest.raises(KeyError) as info:
            record(Fields, values, KeyError, "x")
        assert str(info.value.args[0]).startswith(message)

    def test_error_names_the_alias_as_written(self):
        with pytest.raises(KeyError, match="x 'n' is not an integer"):
            record(Fields, FIELDS | {"n": "2"}, KeyError, "x", {"n": "count"})


class TestPackRecord:
    def test_bytes_are_the_compact_json_of_every_field(self):
        value = Fields(count=2, rate=0.5, names=["é", "a"], size=7)
        assert pack_record(value) == compact_json(dataclasses.asdict(value))

    def test_reader_gives_back_the_record(self):
        value = Fields(count=2, rate=0.5, names=["é"])
        data = pack_record(value)
        reader = Reader("f.bin", data)
        assert Fields(**record(Fields, reader.json(), KeyError, "x")) == value
        assert reader.pos == len(data)

    @pytest.mark.parametrize("byte, reason", [(b"x", "not valid JSON"),
                                              (b"\xff", "not valid UTF-8")], ids=["x", "0xff"])
    def test_block_that_does_not_decode_is_ingest_error_naming_the_file(self, byte, reason):
        data = pack_record(Fields(count=2, rate=0.5, names=[]))
        with pytest.raises(IngestError,
                           match=f"^f.bin: the JSON block at byte 4 is {reason}") as info:
            Reader("f.bin", data[:4] + byte + data[5:]).json()
        assert info.value.path == "f.bin"


def test_a_value_error_in_the_block_is_the_container_error_naming_the_file(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"MAGC")
    with pytest.raises(GraphConstructionError) as info:
        with read_container(path, b"MAGC", "test file", GraphConstructionError):
            raise ValueError("the file disagrees with itself")
    assert str(info.value) == f"{path}: the file disagrees with itself"
    assert info.value.path == path and info.value.line_number is None


def test_unsupported_version_is_the_container_error_naming_the_file(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"MAGC" + struct.pack("<I", 9))
    with pytest.raises(TraceError) as info:
        with read_container(path, b"MAGC", "test file", TraceError, version=1):
            pass
    assert str(info.value) == f"{path}: unsupported test file version 9"
    assert info.value.path == path


def test_non_finite_emb1_vector_is_ingest_error_naming_the_file_in_path(tmp_path):
    path = tmp_path / "emb.bin"
    write_binary_embeddings(EmbeddingTable(dim=2, vectors={"a": np.array([1.0, np.nan])}), path)
    with pytest.raises(IngestError) as info:
        read_binary_embeddings(path)
    assert str(info.value) == f"{path}: non-finite component in vector for id 'a'"
    assert info.value.path == path


@pytest.mark.parametrize("damage, message", [
    (lambda data: b"EMB2" + data[4:], "not a valid EMB1 embedding cache"),
    (lambda data: data[:-3], "truncated: wanted 8 bytes, got 5"),
    (lambda data: data + b"\x00\x00", "2 trailing bytes"),
], ids=["wrong magic", "truncated", "trailing bytes"])
def test_a_damaged_emb1_file_is_ingest_error_whose_path_is_the_file(tmp_path, damage,
                                                                     message):
    path = tmp_path / "emb.bin"
    path.write_bytes(damage(emb1_file(path)))
    with pytest.raises(IngestError) as info:
        read_binary_embeddings(path)
    assert str(info.value) == f"{path}: {message}"
    assert info.value.path == path


@pytest.mark.parametrize("cls", [RunOptions, TrainingConfig, SyntheticSpec, bm25._Meta,
                                 graph._Header], ids=lambda cls: cls.__name__)
def test_every_record_field_has_a_kind_record_checks(cls):
    """A field that record() cannot check (a bool, a list of ints) fails here,
    instead of being checked as some other kind."""
    assert list(field_kinds(cls)) == [f.name for f in dataclasses.fields(cls)]


@pytest.mark.parametrize("annotation", [bool, list[int], int | str, dict, "float | None | str"])
def test_kinds_record_cannot_check_are_type_errors(annotation):
    cls = dataclasses.make_dataclass("Odd", [("field", annotation)])
    with pytest.raises(TypeError, match="Odd.field"):
        field_kinds(cls)
