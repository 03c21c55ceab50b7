"""Byte layouts of the four binary formats, packed by hand from the README table."""

import json
import struct

import numpy as np
import pytest
import scipy.sparse as sp

from caselink.bm25 import build_index, save_index
from caselink.corpus import Role
from caselink.embeddings import EmbeddingTable, write_binary_embeddings
from caselink.gat import GatParams, save_checkpoint
from caselink.graph import GlobalCaseGraph, save_graph

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
                               node_ids=("q1", "c1", "x1"),
                               roles=(Role.QUERY, Role.CANDIDATE)), path)
    header = {"dim": 2, "ids": ["q1", "c1", "x1"], "m": 1, "n": 2,
              "roles": ["query", "candidate"]}
    return (b"GCG1" + compact_json(header) + struct.pack("<Q", 2)
            + struct.pack("<4I", 0, 1, 0, 2) + struct.pack("<6f", 1, 0, 0, 1, 0.5, 0.5))


def gatc_file(path):
    # dims [1, 2]: W = [[1, 2]], a_src = [3, 4], a_dst = [5, 6]
    params = GatParams(dims=[1, 2], flat=np.arange(1.0, 7.0), leaky_slope=0.2, dropout_rate=0.1)
    save_checkpoint(params, path)
    return (b"GATC" + struct.pack("<II", 1, 2) + struct.pack("<2I", 1, 2)
            + struct.pack("<dd", 0.2, 0.1) + struct.pack("<6d", 1, 2, 3, 4, 5, 6))


@pytest.mark.parametrize("write", [bm25_file, emb1_file, gcg1_file, gatc_file],
                         ids=["BM25", "EMB1", "GCG1", "GATC"])
def test_writer_bytes_match_the_documented_layout(tmp_path, write):
    path = tmp_path / "file.bin"
    expected = write(path)
    assert path.read_bytes() == expected
