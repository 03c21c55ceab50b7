"""Embedding tables: file loading, the binary format, and the remote provider."""

import http.server
import json
import math
import sys
import threading

import numpy as np
import pytest

from caselink import embeddings
from caselink.embeddings import (
    EmbeddingTable,
    ProviderConfig,
    RemoteEmbeddingProvider,
    load_embedding_file,
    normalize_table,
    read_binary_embeddings,
    round_to_stored,
    stack_vectors,
    truncate_text,
    unit_rows,
    write_binary_embeddings,
)
from caselink.errors import (
    DimensionError,
    IngestError,
    MissingEmbeddingError,
    NumericalError,
    ParseError,
    ProviderError,
)

from conftest import make_store


def write_jsonl_vectors(path, entries):
    with open(path, "w", encoding="utf-8") as fh:
        for node_id, vec in entries:
            fh.write(json.dumps({"id": node_id, "vector": vec}) + "\n")


def normalized(vectors: dict) -> dict:
    table = EmbeddingTable(dim=len(next(iter(vectors.values()))), vectors=vectors)
    return normalize_table(table).vectors


class TestL2Normalize:
    """L2 normalization of a table's vectors, through ``normalize_table``."""

    def test_three_four_five_triangle(self):
        np.testing.assert_allclose(
            normalized({"a": np.array([3.0, 4.0])})["a"], [0.6, 0.8], atol=1e-15
        )

    def test_unit_vector_unchanged(self):
        v = np.array([1.0, 0.0, 0.0])
        np.testing.assert_array_equal(normalized({"a": v})["a"], v)

    def test_zero_vector_rejected(self):
        vectors = {"a": np.array([1.0, 2.0, 2.0]), "case 7": np.zeros(3)}
        with pytest.raises(IngestError, match="'case 7'"):
            normalized(vectors)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            dim = int(rng.integers(1, 12))
            vectors = {f"v{i}": rng.standard_normal(dim) for i in range(4)}
            once = normalized(vectors)
            twice = normalized(once)
            for node_id, vec in once.items():
                np.testing.assert_allclose(twice[node_id], vec, atol=1e-12)
                assert abs(np.linalg.norm(vec) - 1.0) < 1e-12


class TestUnitRows:
    def _cosine(self, a, b):
        unit, _ = unit_rows(np.array([a, b]))
        return unit[0] @ unit[1]

    def test_identical_vectors(self):
        v = np.array([0.3, -0.2, 0.9])
        assert self._cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_opposite_vectors(self):
        v = np.array([1.0, 2.0])
        assert self._cosine(v, -v) == pytest.approx(-1.0, abs=1e-12)

    def test_forty_five_degrees(self):
        a = np.array([1.0, 0.0])
        b = np.array([1.0, 1.0])
        assert self._cosine(a, b) == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_returns_unit_rows_and_norms(self):
        unit, norms = unit_rows(np.array([[3.0, 4.0], [0.0, -2.0]]))
        np.testing.assert_allclose(unit, [[0.6, 0.8], [0.0, -1.0]], atol=1e-15)
        np.testing.assert_array_equal(norms, [5.0, 2.0])

    def test_zero_row_rejected(self):
        with pytest.raises(NumericalError):
            unit_rows(np.array([[1.0, 0.0], [0.0, 0.0]]))


class TestLoadEmbeddingFile:
    def test_two_consistent_lines(self, tmp_path):
        p = tmp_path / "emb.jsonl"
        write_jsonl_vectors(p, [("a", [1, 2, 3, 4]), ("b", [5, 6, 7, 8])])
        table = load_embedding_file(p)
        assert table.dim == 4
        np.testing.assert_array_equal(table["a"], [1, 2, 3, 4])

    def test_ragged_dims_rejected(self, tmp_path):
        p = tmp_path / "emb.jsonl"
        write_jsonl_vectors(p, [("a", [1, 2, 3, 4]), ("b", [5, 6, 7, 8, 9])])
        with pytest.raises(DimensionError, match=f"^line 2: {p}: vector for id 'b' has dim 5"):
            load_embedding_file(p)

    def test_expected_dim_mismatch_rejected(self, tmp_path):
        p = tmp_path / "emb.jsonl"
        write_jsonl_vectors(p, [("a", [1, 2])])
        with pytest.raises(DimensionError):
            load_embedding_file(p, expected_dim=3)

    def test_duplicate_id_rejected(self, tmp_path):
        p = tmp_path / "emb.jsonl"
        write_jsonl_vectors(p, [("a", [1, 2]), ("a", [3, 4])])
        with pytest.raises(IngestError, match=f"^line 2: {p}: duplicate embedding id 'a'$"):
            load_embedding_file(p)

    def test_non_finite_component_rejected(self, tmp_path):
        p = tmp_path / "emb.jsonl"
        p.write_text('{"id": "a", "vector": [1.0, NaN]}\n')
        with pytest.raises(ValueError, match=f"^line 1: {p}: non-finite component"):
            load_embedding_file(p)

    @pytest.mark.parametrize("line", ["[1, 2]", '"abc"', "7", '{"vector": [1.0]}',
                                      '{"id": "b"}'],
                             ids=["a list", "a string", "a number", "no id", "no vector"])
    def test_line_that_is_not_an_id_vector_object_is_parse_error(self, tmp_path, line):
        p = tmp_path / "emb.jsonl"
        p.write_text('{"id": "a", "vector": [1.0]}\n\n' + line + "\n")
        with pytest.raises(ParseError, match=f"^line 3: {p}: "):
            load_embedding_file(p)

    @pytest.mark.parametrize("vector", [5, None, "ab", [[1.0, 2.0]], [1.0, [2.0]], [1.0, "x"]],
                             ids=["a number", "null", "a string", "nested", "ragged",
                                  "a string component"])
    def test_vector_that_is_not_a_list_of_numbers_names_its_id(self, tmp_path, vector):
        p = tmp_path / "emb.jsonl"
        p.write_text(json.dumps({"id": "a", "vector": vector}) + "\n")
        with pytest.raises(DimensionError,
                           match=f"^line 1: {p}: vector for id 'a' is not a list of numbers"):
            load_embedding_file(p)

    def test_invalid_utf8_is_parse_error_naming_the_file_and_line(self, tmp_path):
        p = tmp_path / "emb.jsonl"
        p.write_bytes(b'{"id": "a", "vector": [1.0]}\n{"id": "\xe9", "vector": [2.0]}\n')
        with pytest.raises(ParseError, match=f"^line 2: {p} is not valid UTF-8"):
            load_embedding_file(p)

    def test_numeric_id_is_read_as_a_string(self, tmp_path):
        p = tmp_path / "emb.jsonl"
        p.write_text('{"id": 7, "vector": [1.0, 2.0]}\n')
        assert list(load_embedding_file(p).vectors) == ["7"]

    def test_binary_file_is_sniffed(self, tmp_path):
        table = EmbeddingTable(dim=3, vectors={"a": np.array([1.0, 2.0, 3.0])})
        p = tmp_path / "emb.bin"
        write_binary_embeddings(table, p)
        loaded = load_embedding_file(p)
        assert loaded.dim == 3
        np.testing.assert_array_equal(loaded["a"], [1.0, 2.0, 3.0])


class TestFaultOrder:
    """Vectors are shaped line by line and checked for finiteness at once, yet
    the error names the first fault in file order, as one check per vector did."""

    LATER_FAULTS = {
        "a duplicate id": '{"id": "a", "vector": [3.0, 4.0]}',
        "a dim mismatch": '{"id": "c", "vector": [3.0, 4.0, 5.0]}',
        "a vector that is not a list": '{"id": "c", "vector": "x"}',
        "a line that is not JSON": '{"id": "c", "vector": [3.0,',
        "an id that is not a string": '{"id": null, "vector": [3.0, 4.0]}',
    }

    @pytest.mark.parametrize("later", LATER_FAULTS.values(), ids=LATER_FAULTS)
    def test_earlier_non_finite_vector_wins_in_jsonl(self, tmp_path, later):
        p = tmp_path / "emb.jsonl"
        p.write_text('{"id": "a", "vector": [1.0, 2.0]}\n'
                     '{"id": "b", "vector": [Infinity, 2.0]}\n\n' + later + "\n")
        with pytest.raises(ValueError) as info:
            load_embedding_file(p)
        assert type(info.value) is ValueError
        assert str(info.value) == f"line 2: {p}: non-finite component in vector for id 'b'"

    def test_later_non_finite_vector_does_not_hide_an_earlier_fault(self, tmp_path):
        p = tmp_path / "emb.jsonl"
        write_jsonl_vectors(p, [("a", [1.0, 2.0]), ("b", [1.0]), ("c", [float("nan"), 2.0])])
        with pytest.raises(DimensionError, match=f"^line 2: {p}: vector for id 'b' has dim 1"):
            load_embedding_file(p)

    def test_non_finite_vector_of_another_dim_is_named_non_finite(self, tmp_path):
        p = tmp_path / "emb.jsonl"
        write_jsonl_vectors(p, [("a", [1.0, 2.0]), ("b", [1.0, float("nan"), 2.0])])
        with pytest.raises(ValueError,
                           match=f"^line 2: {p}: non-finite component in vector for id 'b'$"):
            load_embedding_file(p)

    def test_first_of_two_non_finite_vectors_is_named(self, tmp_path):
        p = tmp_path / "emb.jsonl"
        write_jsonl_vectors(p, [("a", [1.0, 2.0]), ("b", [float("-inf"), 2.0]),
                                ("c", [float("nan"), 2.0])])
        with pytest.raises(ValueError, match=f"^line 2: {p}: .* for id 'b'$"):
            load_embedding_file(p)

    @pytest.mark.parametrize("block", [1, 4, 5])
    def test_finite_pass_names_the_first_non_finite_vector_across_blocks(self, tmp_path,
                                                                         monkeypatch, block):
        monkeypatch.setattr(embeddings, "_FINITE_BLOCK", block)  # 1 or 2 rows of dim 2
        p = tmp_path / "emb.jsonl"
        vectors = [[1.0, 2.0]] * 3 + [[1.0, float("nan")], [float("inf"), 0.0]]
        write_jsonl_vectors(p, [(f"n{i}", v) for i, v in enumerate(vectors)])
        with pytest.raises(ValueError, match=f"^line 4: {p}: .* for id 'n3'$"):
            load_embedding_file(p)

    @staticmethod
    def _emb1(tmp_path, ids):
        """An EMB1 file of ``ids``, whose record for "b" holds a NaN."""
        vectors = {"a": np.array([1.0, 2.0]), "b": np.array([np.nan, 2.0]),
                   "c": np.array([3.0, 4.0])}
        p = tmp_path / "emb.bin"
        write_binary_embeddings(EmbeddingTable(dim=2, vectors=vectors), p, ids=ids)
        return p

    def test_earlier_non_finite_vector_wins_over_a_duplicate_id_in_emb1(self, tmp_path):
        p = self._emb1(tmp_path, ["a", "b", "c", "a"])
        with pytest.raises(IngestError, match=f"^{p}: non-finite component in vector for id 'b'$"):
            read_binary_embeddings(p)
        p = self._emb1(tmp_path, ["a", "c", "a", "b"])
        with pytest.raises(IngestError, match=f"^{p}: duplicate embedding id 'a'$"):
            read_binary_embeddings(p)

    @pytest.mark.parametrize("cut", ["truncated", "an id that is not UTF-8", "trailing bytes"])
    def test_earlier_non_finite_vector_wins_over_a_later_damaged_record_in_emb1(self, tmp_path,
                                                                               cut):
        p = self._emb1(tmp_path, ["a", "b", "c"])
        data = p.read_bytes()
        last = data.rindex(b"\x01\x00c")  # the u16 length and the id of the last record
        data = {"truncated": data[:-3], "trailing bytes": data + b"\x00",
                "an id that is not UTF-8": data[:last + 2] + b"\xff" + data[last + 3:]}[cut]
        p.write_bytes(data)
        with pytest.raises(IngestError, match=f"^{p}: non-finite component in vector for id 'b'$"):
            load_embedding_file(p)

    def test_remote_non_finite_vector_of_another_dim_is_named_non_finite(self):
        vectors = iter([[1.0, 2.0], [1.0, float("nan"), 3.0]])
        provider = RemoteEmbeddingProvider(remote_config(),
                                           transport=lambda e, p: {"vector": next(vectors)})
        provider.fetch("a", "text")
        with pytest.raises(ValueError, match="^non-finite component in vector for id 'b'$"):
            provider.fetch("b", "text")
        assert provider.dim == 2

    def test_vectors_equal_the_float64_array_of_each_line_bit_for_bit(self, tmp_path):
        p = tmp_path / "emb.jsonl"
        lines = [[1, -2, 3], [0.1, -0.0, 2.5e-320], [1.7976931348623157e308, -1e-7, 7.0],
                 [123456789012345678901234567890, 0.30000000000000004, -5]]
        write_jsonl_vectors(p, [(f"n{i}", v) for i, v in enumerate(lines)])
        table = load_embedding_file(p)
        assert list(table.vectors) == [f"n{i}" for i in range(len(lines))]
        for i, vec in enumerate(lines):
            want = np.asarray(json.loads(json.dumps(vec)), dtype=np.float64)
            got = table[f"n{i}"]
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestBinaryFormat:
    def test_large_table_roundtrips_bit_exactly(self, tmp_path):
        rng = np.random.default_rng(13)
        vectors = {
            f"id{i:04d}": rng.standard_normal(16).astype(np.float32).astype(np.float64)
            for i in range(1000)
        }
        table = EmbeddingTable(dim=16, vectors=vectors)
        p = tmp_path / "emb.bin"
        write_binary_embeddings(table, p)
        loaded = read_binary_embeddings(p)
        assert len(loaded) == 1000
        for node_id, vec in vectors.items():
            np.testing.assert_array_equal(loaded[node_id], vec)

    def test_magic_and_header(self, tmp_path):
        table = EmbeddingTable(dim=2, vectors={"x": np.array([1.0, 2.0])})
        p = tmp_path / "emb.bin"
        write_binary_embeddings(table, p)
        raw = p.read_bytes()
        assert raw[:4] == b"EMB1"
        assert int.from_bytes(raw[4:8], "little") == 2
        assert int.from_bytes(raw[8:16], "little") == 1

    def test_explicit_id_order_and_subset(self, tmp_path):
        table = EmbeddingTable(
            dim=2,
            vectors={
                "b": np.array([1.0, 0.0]),
                "a": np.array([0.0, 1.0]),
                "c": np.array([1.0, 1.0]),
            },
        )
        p = tmp_path / "emb.bin"
        write_binary_embeddings(table, p, ids=["c", "a"])
        loaded = read_binary_embeddings(p)
        assert set(loaded.vectors) == {"c", "a"}

    def test_missing_requested_id(self, tmp_path):
        table = EmbeddingTable(dim=2, vectors={"a": np.array([1.0, 0.0])})
        with pytest.raises(MissingEmbeddingError, match="^no embedding for: 'zz'$"):
            write_binary_embeddings(table, tmp_path / "emb.bin", ids=["a", "zz"])
        assert not (tmp_path / "emb.bin").exists()  # rows are stacked before the file opens

    def test_rounded_table_equals_what_its_file_reads_back(self, tmp_path):
        rng = np.random.default_rng(5)
        table = normalize_table(EmbeddingTable(
            dim=6, vectors={f"n{i}": rng.standard_normal(6) for i in range(50)}))
        rounded = round_to_stored(table)
        assert list(rounded.vectors) == list(table.vectors)
        p = tmp_path / "emb.bin"
        write_binary_embeddings(table, p)
        loaded = read_binary_embeddings(p)
        for node_id, vec in rounded.vectors.items():
            assert vec.dtype == np.float64
            assert np.array_equal(vec, loaded[node_id]), node_id
            assert np.array_equal(round_to_stored(rounded)[node_id], vec)  # idempotent
        assert any(not np.array_equal(table[i], rounded[i]) for i in table.vectors)

    def test_non_finite_component_is_ingest_error_naming_the_file(self, tmp_path):
        p = tmp_path / "emb.bin"
        write_binary_embeddings(EmbeddingTable(dim=2, vectors={"a": np.array([1.0, np.nan])}), p)
        with pytest.raises(IngestError, match=f"^{p}: non-finite component in vector for id 'a'$"):
            read_binary_embeddings(p)

    def test_id_that_is_not_utf8_is_ingest_error_naming_the_file(self, tmp_path):
        p = tmp_path / "emb.bin"
        write_binary_embeddings(EmbeddingTable(dim=1, vectors={"ab": np.ones(1)}), p)
        data = p.read_bytes()
        p.write_bytes(data[:18] + b"\xff" + data[19:])  # the id's first byte
        with pytest.raises(IngestError, match=f"^{p}: the text at byte 18 is not valid UTF-8"):
            read_binary_embeddings(p)


class TestTableHelpers:
    def test_normalize_table(self):
        table = EmbeddingTable(
            dim=2, vectors={"a": np.array([3.0, 4.0]), "b": np.array([0.0, 2.0])}
        )
        normed = normalize_table(table)
        for vec in normed.vectors.values():
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-12

    def test_matrix_row_order(self):
        table = EmbeddingTable(
            dim=2, vectors={"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])}
        )
        mat = stack_vectors(table, ["b", "a"])
        np.testing.assert_array_equal(mat, [[0.0, 1.0], [1.0, 0.0]])

    def test_coverage_passes_when_complete(self):
        store = make_store([("d1", "x")], charges=[("c1", "fraud")])
        table = EmbeddingTable(
            dim=2, vectors={"d1": np.array([1.0, 0.0]), "c1": np.array([0.0, 1.0])}
        )
        assert stack_vectors(table, store.node_ids).shape == (2, 2)

    def test_coverage_reports_missing_ids(self):
        store = make_store([("d1", "x"), ("d2", "y")], charges=[("c1", "fraud")])
        table = EmbeddingTable(dim=2, vectors={"d1": np.array([1.0, 0.0])})
        with pytest.raises(MissingEmbeddingError, match="d2"):
            stack_vectors(table, store.node_ids)


class TestStackVectors:
    @staticmethod
    def vectors(n):
        return {f"n{i}": np.array([float(i), -float(i), 1.0]) for i in range(n)}

    @pytest.mark.parametrize("wrap", [dict, lambda v: EmbeddingTable(dim=3, vectors=v)],
                             ids=["dict", "EmbeddingTable"])
    def test_rows_follow_ids_as_float64(self, wrap):
        vectors = self.vectors(4)
        ids = ["n3", "n0", "n2", "n0"]
        mat = stack_vectors(wrap(vectors), ids)
        assert mat.dtype == np.float64 and mat.shape == (4, 3)
        for row, node_id in zip(mat, ids):
            assert np.array_equal(row, vectors[node_id])

    @pytest.mark.parametrize("wrap", [dict, lambda v: EmbeddingTable(dim=3, vectors=v)],
                             ids=["dict", "EmbeddingTable"])
    def test_names_the_first_twenty_missing_ids_and_counts_the_rest(self, wrap):
        held = self.vectors(3)
        ids = ["n0", *(f"gone{i}" for i in range(25)), "n1"]
        shown = ", ".join(repr(f"gone{i}") for i in range(20))
        with pytest.raises(MissingEmbeddingError) as info:
            stack_vectors(wrap(held), ids)
        assert str(info.value) == f"no embedding for: {shown} (+5 more)"

    def test_a_missing_id_asked_for_twice_is_named_once(self):
        ids = ["gone0", "n0", "gone1", "gone0", *(f"gone{i}" for i in range(25))]
        shown = ", ".join(repr(f"gone{i}") for i in range(20))
        with pytest.raises(MissingEmbeddingError) as info:
            stack_vectors(self.vectors(1), ids)
        assert str(info.value) == f"no embedding for: {shown} (+5 more)"

    def test_at_most_twenty_missing_ids_are_all_named(self):
        with pytest.raises(MissingEmbeddingError, match="^no embedding for: 'a', 'b'$"):
            stack_vectors(self.vectors(1), ["a", "n0", "b"])

    def test_no_ids_give_an_empty_matrix(self):
        assert stack_vectors(self.vectors(2), []).shape == (0, 0)

    def test_values_equal_the_rows_stacked_one_by_one(self):
        rng = np.random.default_rng(3)
        vectors = {f"n{i}": rng.standard_normal(7) for i in range(30)}
        ids = list(vectors)[::-1]
        want = np.stack([vectors[i] for i in ids])
        assert stack_vectors(vectors, ids).tobytes() == want.tobytes()


class TestTruncation:
    def test_truncates_to_token_budget(self):
        text = " ".join(f"t{i}" for i in range(5000))
        out = truncate_text(text, 4096)
        assert len(out.split()) == 4096
        assert out.split()[0] == "t0" and out.split()[-1] == "t4095"

    def test_short_text_unchanged(self):
        assert truncate_text("a b c", 10) == "a b c"


class TestProviderConfig:
    def test_remote_requires_endpoint(self):
        with pytest.raises(ValueError):
            ProviderConfig(endpoint="")

    def test_truncation_tokens_validated(self):
        with pytest.raises(ValueError):
            ProviderConfig(endpoint="http://unit.test/embed", truncation_tokens=0)

    def test_max_retries_validated(self):
        # fetch's loop runs max_retries + 1 times, so each pass breaks or raises
        with pytest.raises(ValueError, match="max_retries"):
            ProviderConfig(endpoint="http://unit.test/embed", max_retries=-1)

    def test_max_in_flight_validated(self):
        with pytest.raises(ValueError, match="max_in_flight"):
            ProviderConfig(endpoint="http://unit.test/embed", max_in_flight=0)


def remote_config(**overrides):
    base = dict(
        endpoint="http://unit.test/embed",
        retry_base_delay=1e-4,
    )
    base.update(overrides)
    return ProviderConfig(**base)


class TestRemoteProvider:
    def test_fetch_returns_the_raw_response(self):
        def transport(endpoint, payload):
            return {"vector": [3.0, 4.0]}

        provider = RemoteEmbeddingProvider(remote_config(), transport=transport)
        np.testing.assert_array_equal(provider.fetch("a", "text"), [3.0, 4.0])

    def test_request_body_contains_truncated_text(self):
        seen = []

        def transport(endpoint, payload):
            seen.append(payload["text"])
            return {"vector": [1.0, 0.0]}

        provider = RemoteEmbeddingProvider(
            remote_config(truncation_tokens=10), transport=transport
        )
        provider.fetch("a", " ".join(f"t{i}" for i in range(5000)))
        assert seen[0] == " ".join(f"t{i}" for i in range(10))

    def test_transient_failures_are_retried(self):
        state = {"calls": 0}

        def transport(endpoint, payload):
            state["calls"] += 1
            if state["calls"] < 3:
                raise ConnectionError("transient")
            return {"vector": [1.0, 0.0]}

        provider = RemoteEmbeddingProvider(remote_config(), transport=transport)
        vec = provider.fetch("a", "text")
        assert state["calls"] == 3
        np.testing.assert_array_equal(vec, [1.0, 0.0])

    def test_persistent_failure_raises_after_retries(self):
        state = {"calls": 0}

        def transport(endpoint, payload):
            state["calls"] += 1
            raise ConnectionError("down")

        provider = RemoteEmbeddingProvider(
            remote_config(max_retries=3), transport=transport
        )
        with pytest.raises(ProviderError):
            provider.fetch("a", "text")
        assert state["calls"] == 4

    def test_fetching_nothing_without_a_dim_is_an_error(self):
        def transport(endpoint, payload):
            raise AssertionError("nothing to fetch")

        with pytest.raises(ProviderError, match="no embeddings fetched"):
            RemoteEmbeddingProvider(remote_config(), transport=transport).fetch_many([])
        table = RemoteEmbeddingProvider(remote_config(), expected_dim=4,
                                        transport=transport).fetch_many([])
        assert (table.dim, table.vectors) == (4, {})

    def test_dim_mismatch_across_responses(self):
        state = {"calls": 0}

        def transport(endpoint, payload):
            state["calls"] += 1
            return {"vector": [1.0] * (8 if state["calls"] == 1 else 9)}

        provider = RemoteEmbeddingProvider(remote_config(), transport=transport)
        provider.fetch("a", "text")
        with pytest.raises(DimensionError):
            provider.fetch("b", "other")

    def test_non_finite_response_rejected(self):
        def transport(endpoint, payload):
            return {"vector": [1.0, float("nan")]}

        provider = RemoteEmbeddingProvider(remote_config(), transport=transport)
        with pytest.raises(ValueError):
            provider.fetch("a", "text")

    @pytest.mark.parametrize("body", [{"embedding": [1.0]}, [1.0, 2.0], "1.0", None],
                             ids=["no vector key", "list", "string", "null"])
    def test_response_without_a_vector_names_the_id_and_the_endpoint(self, body):
        calls = []

        def transport(endpoint, payload):
            calls.append(payload)
            return body

        provider = RemoteEmbeddingProvider(remote_config(), transport=transport)
        with pytest.raises(ProviderError) as info:
            provider.fetch("node7", "text")
        assert str(info.value) == ("embedding response for 'node7' from "
                                   'http://unit.test/embed has no "vector" field')
        assert len(calls) == 1  # a malformed response is not retried
        assert provider.dim is None

    def test_empty_text_rejected(self):
        provider = RemoteEmbeddingProvider(
            remote_config(), transport=lambda e, p: {"vector": [1.0]}
        )
        with pytest.raises(ValueError):
            provider.fetch("a", "")

    def test_fetch_many_builds_table(self):
        def transport(endpoint, payload):
            seed = sum(ord(ch) for ch in payload["id"])
            rng = np.random.default_rng(seed)
            return {"vector": rng.standard_normal(4).tolist()}

        provider = RemoteEmbeddingProvider(remote_config(), transport=transport)
        table = provider.fetch_many([(f"id{i}", f"text {i}") for i in range(20)])
        assert len(table) == 20
        assert table.dim == 4


class _EchoHandler(http.server.BaseHTTPRequestHandler):
    """Deterministic embedding endpoint: vector derived from the text length."""

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        n = len(payload["text"])
        body = json.dumps({"vector": [float(n), 1.0, 2.0]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class _ScriptedHandler(http.server.BaseHTTPRequestHandler):
    """Answers each POST with the next status of the server's ``statuses`` and
    records the request's path, Content-Type and JSON body in ``seen``."""

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.seen.append((self.path, self.headers["Content-Type"], json.loads(body)))
        status = self.server.statuses.pop(0)
        answer = json.dumps({"vector": [1.0, 2.0]} if status == 200 else {"error": "down"})
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(answer)))
        self.end_headers()
        self.wfile.write(answer.encode())

    def log_message(self, *args):
        pass


class TestRemoteProviderOverHttp:
    def test_the_default_transport_needs_only_the_standard_library(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "requests", None)  # as if it were not installed
        server = http.server.HTTPServer(("127.0.0.1", 0), _ScriptedHandler)
        server.seen, server.statuses = [], [200, 500, 500, 500]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            config = ProviderConfig(endpoint=f"http://127.0.0.1:{port}/embed", max_retries=2,
                                    retry_base_delay=0.0)
            provider = RemoteEmbeddingProvider(config)
            np.testing.assert_array_equal(provider.fetch("case1", "one two"), [1.0, 2.0])
            assert server.seen == [("/embed", "application/json",
                                    {"id": "case1", "text": "one two"})]
            with pytest.raises(ProviderError, match="failed after 3 attempts: HTTP Error 500"):
                provider.fetch("case2", "three")
            assert len(server.seen) == 4 and server.statuses == []
        finally:
            server.shutdown()
            server.server_close()

    def test_fetch_through_real_http_server(self):
        server = http.server.HTTPServer(("127.0.0.1", 0), _EchoHandler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            config = ProviderConfig(endpoint=f"http://127.0.0.1:{port}/embed")
            provider = RemoteEmbeddingProvider(config)
            vec = provider.fetch("case1", "hello")
            np.testing.assert_array_equal(vec, [5.0, 1.0, 2.0])
            table = provider.fetch_many([("a", "xy"), ("b", "xyz")])
            np.testing.assert_array_equal(table["a"], [2.0, 1.0, 2.0])
            np.testing.assert_array_equal(table["b"], [3.0, 1.0, 2.0])
        finally:
            server.shutdown()
            server.server_close()
