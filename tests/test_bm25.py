"""Lexical index: scoring formula, top-k neighbours, and the binary index file."""

import json
import math
import struct
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from caselink import bm25
from caselink.bm25 import (
    Bm25Index,
    block_top_k,
    bm25_score,
    build_index,
    load_index,
    save_index,
    score_all,
    top_k,
    topk_similar,
)
from caselink.corpus import CorpusStore
from caselink.errors import EmptyCorpusError, IngestError
from caselink.graph import build_case_case_edges
from caselink.retrieval import bm25_baseline_rank, rank_all
from caselink.synthetic import SyntheticSpec, generate
from caselink.training import hard_negative_pools

from conftest import make_case, make_store, random_store


def naive_bm25(docs, query, j, k1=1.2, b=0.75):
    """Reference scorer straight from the formula, no inverted index."""
    n = len(docs)
    avgdl = sum(len(d) for d in docs) / n
    dl = len(docs[j])
    score = 0.0
    for term in query:  # each query occurrence contributes separately
        df = sum(1 for d in docs if term in d)
        tf = docs[j].count(term)
        if df == 0 or tf == 0:
            continue
        idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
        score += idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))
    return score


def sparse_product_scores(index, counts):
    """Dense (queries x docs) scores of the term-count rows ``counts`` (a
    queries x terms CSR) by the sparse x sparse product with W.T: the kernel
    the sparse x dense one replaced, kept as its bit-identity reference."""
    return (counts @ index._w.T.tocsr()).toarray()


def sparse_product_score_all(index, tokens):
    """:func:`score_all` through :func:`sparse_product_scores`."""
    cols, qtf = np.unique(index._term_cols(np.array(tokens, dtype=str)), return_counts=True)
    counts = sp.csr_matrix((qtf.astype(np.float64), cols, [0, len(cols)]),
                           shape=(1, len(index.terms)))
    return sparse_product_scores(index, counts)[0]


class TestBuildIndex:
    def test_single_doc(self):
        store = make_store([("d1", "one two three")])
        index = build_index(store)
        assert index.n_docs == 1
        assert index.avgdl == 3.0

    def test_avgdl_is_mean_length(self):
        store = make_store([("d1", "a b"), ("d2", "a b c d")])
        assert build_index(store).avgdl == 3.0

    def test_postings_sorted_by_doc_index(self):
        rng = np.random.default_rng(3)
        store = random_store(rng, n_docs=5, vocab_size=6)
        index = build_index(store)
        for term, (idx, tf) in index.postings.items():
            assert np.all(np.diff(idx) > 0), term
            assert len(idx) == len(tf)

    def test_count_matrix_matches_the_tokens(self):
        store = make_store([("d1", "Straße straße 盗窃罪 b 2010"), ("d2", ""),
                            ("d3", "b a Körperverletzung b 2010 körperverletzung 9")])
        index = build_index(store)
        tokens = [t for c in store.cases for t in c.tokens]
        assert "strasse" in tokens  # Straße casefolds
        assert np.all(index.terms[1:] > index.terms[:-1])
        assert np.array_equal(index.terms, np.unique(np.array(tokens, dtype=str)))
        assert index.terms.tolist() == sorted(set(tokens))
        assert index.doc_len.tolist() == [len(c.tokens) for c in store.cases]
        assert index.avgdl == len(tokens) / 3
        for row, case in zip(index.tf.toarray(), store.cases):
            assert dict(zip(index.terms.tolist(), row.tolist())) == (
                {t: 0.0 for t in index.terms.tolist()} | Counter(case.tokens))
        assert index.tf.has_canonical_format

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            build_index(make_store([]))

    def test_parameter_validation(self):
        store = make_store([("d1", "a")])
        with pytest.raises(ValueError):
            build_index(store, k1=0.0)
        with pytest.raises(ValueError):
            build_index(store, b=1.5)

    @pytest.mark.parametrize("k1", [math.nan, math.inf])
    def test_non_finite_k1_rejected(self, k1):
        with pytest.raises(ValueError, match="k1"):
            build_index(make_store([("d1", "a")]), k1=k1)


class TestBm25Score:
    def test_hand_worked_two_doc_corpus(self):
        store = make_store([("d1", "cat sat"), ("d2", "dog ran")])
        index = build_index(store)
        # df=1, N=2: IDF = ln((2-1+0.5)/1.5 + 1) = ln 2; tf=1, dl=avgdl
        # => ln 2 * 2.2 / 2.2 = ln 2
        assert bm25_score(index, ["cat"], 0) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_term_absent_from_doc_scores_zero(self):
        store = make_store([("d1", "cat sat"), ("d2", "dog ran")])
        index = build_index(store)
        assert bm25_score(index, ["cat"], 1) == 0.0

    def test_empty_query_scores_zero(self):
        store = make_store([("d1", "cat sat")])
        index = build_index(store)
        assert bm25_score(index, [], 0) == 0.0

    def test_out_of_range_doc_index(self):
        index = build_index(make_store([("d1", "a")]))
        with pytest.raises(IndexError):
            bm25_score(index, ["a"], 1)
        with pytest.raises(IndexError):
            bm25_score(index, ["a"], -1)

    def test_repeated_query_terms_scale_contribution(self):
        store = make_store([("d1", "cat sat"), ("d2", "dog ran")])
        index = build_index(store)
        single = bm25_score(index, ["cat"], 0)
        double = bm25_score(index, ["cat", "cat"], 0)
        assert double == pytest.approx(2.0 * single, abs=1e-12)

    def test_idf_formula(self):
        # d1 has average length and tf 1, so its score for "cat" is idf("cat")
        store = make_store([("d1", "cat sat"), ("d2", "dog ran")])
        index = build_index(store)
        assert bm25_score(index, ["cat"], 0) == pytest.approx(math.log(2.0), abs=1e-12)
        assert bm25_score(index, ["unseen"], 0) == 0.0

    def test_matches_naive_reference_on_random_corpora(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n_docs = int(rng.integers(2, 21))
            store = random_store(rng, n_docs=n_docs, vocab_size=10)
            index = build_index(store)
            docs = [list(c.tokens) for c in store.cases]
            q = int(rng.integers(n_docs))
            for j in range(n_docs):
                got = bm25_score(index, docs[q], j)
                want = naive_bm25(docs, docs[q], j)
                assert got == pytest.approx(want, abs=1e-9)

    def test_score_all_agrees_with_scalar_scores(self):
        rng = np.random.default_rng(23)
        store = random_store(rng, n_docs=12, vocab_size=8)
        index = build_index(store)
        query = list(store.cases[0].tokens)
        dense = score_all(index, query)
        for j in range(store.n_cases):
            assert dense[j] == pytest.approx(bm25_score(index, query, j), abs=1e-12)

    def test_scores_non_negative(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            store = random_store(rng, n_docs=int(rng.integers(2, 15)), vocab_size=6)
            index = build_index(store)
            for case in store.cases:
                assert np.all(score_all(index, case.tokens) >= 0.0)


class TestTopkSimilar:
    def test_k_exceeding_pool_returns_all_others(self):
        store = make_store([("d1", "a b"), ("d2", "a c"), ("d3", "b c")])
        index = build_index(store)
        assert len(topk_similar(index, store, "d1", 5)) == 2

    def test_k_below_one_rejected(self):
        store = make_store([("d1", "a b"), ("d2", "a c")])
        with pytest.raises(ValueError, match="k must be >= 1"):
            topk_similar(build_index(store), store, "d1", 0)

    def test_shared_terms_beat_disjoint(self):
        store = make_store([("d1", "cat sat mat"), ("d2", "cat sat"), ("d3", "dog")])
        index = build_index(store)
        top = topk_similar(index, store, "d1", 1)
        assert top[0].target_id == "d2"

    def test_ties_break_by_ascending_id(self):
        for docs, expected in [
            ([("q", "cat"), ("b", "cat dog"), ("a", "cat dog")], ["a", "b"]),
            # a three-way tie, source in the middle, cut below the tie
            ([("c", "cat dog"), ("q", "cat"), ("a", "cat dog"), ("b", "cat dog")], ["a", "b"]),
        ]:
            store = make_store(docs)
            index = build_index(store)
            top = topk_similar(index, store, "q", 2)
            assert [p.target_id for p in top] == expected
            assert top[0].score == top[1].score

    def test_never_contains_source(self):
        rng = np.random.default_rng(31)
        store = random_store(rng, n_docs=10, vocab_size=5)
        index = build_index(store)
        for case in store.cases:
            pairs = topk_similar(index, store, case.id, 4)
            assert case.id not in {p.target_id for p in pairs}
            assert all(p.source_id == case.id for p in pairs)

    def test_sorted_non_increasing(self):
        rng = np.random.default_rng(37)
        store = random_store(rng, n_docs=15, vocab_size=6)
        index = build_index(store)
        for case in store.cases:
            scores = [p.score for p in topk_similar(index, store, case.id, 7)]
            assert scores == sorted(scores, reverse=True)

    def test_unknown_id(self):
        store = make_store([("d1", "a")])
        index = build_index(store)
        with pytest.raises(IndexError):
            topk_similar(index, store, "nope", 1)

    def test_matches_bruteforce_selection(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n_docs = int(rng.integers(3, 15))
            store = random_store(rng, n_docs=n_docs, vocab_size=8)
            index = build_index(store)
            docs = [list(c.tokens) for c in store.cases]
            k = int(rng.integers(1, 6))
            for s in range(n_docs):
                expected = sorted(
                    (
                        (-naive_bm25(docs, docs[s], j), store.cases[j].id)
                        for j in range(n_docs)
                        if j != s
                    ),
                )[:k]
                got = topk_similar(index, store, store.cases[s].id, k)
                assert [p.target_id for p in got] == [cid for _, cid in expected]


class TestCaseOrder:
    """Every function that takes a case's position in the store as its index
    row refuses an index whose rows are other cases or in another order."""

    @pytest.fixture
    def reversed_pair(self):
        ds = generate(SyntheticSpec(n_clusters=2, candidates_per_cluster=8, queries_per_cluster=2,
                                    relevant_per_query=2, seed=1))
        index = build_index(ds.store)
        return index, CorpusStore(cases=ds.store.cases[::-1], labels=ds.store.labels)

    def test_the_store_the_index_was_built_from_passes(self):
        store = random_store(np.random.default_rng(0), 6)
        bm25.check_case_order(build_index(store), store)

    @pytest.mark.parametrize("call", [
        lambda index, store: rank_all(store, index, {}),
        lambda index, store: bm25_baseline_rank(store, index, store.queries()[0].id),
        lambda index, store: hard_negative_pools(store, index, store.labels, 5),
        lambda index, store: build_case_case_edges(index, store, 3),
        lambda index, store: topk_similar(index, store, store.cases[0].id, 3),
    ], ids=["rank_all", "bm25_baseline_rank", "hard_negative_pools", "build_case_case_edges",
            "topk_similar"])
    def test_reversed_cases_are_rejected(self, reversed_pair, call):
        index, store = reversed_pair
        want, got = store.cases[0].id, index.doc_ids[0]
        with pytest.raises(ValueError, match=f"^BM25 index row 0 holds {got!r}, not case 0 of "
                                             f"the corpus, {want!r}"):
            call(index, store)

    def test_a_shorter_store_names_the_first_missing_case(self):
        store = make_store([("a", "x y"), ("b", "y z"), ("c", "z")])
        with pytest.raises(ValueError, match="^BM25 index row 2 holds 'c', not case 2 of the "
                                             "corpus, None"):
            bm25.check_case_order(build_index(store), make_store([("a", "x y"), ("b", "y z")]))


class TestTopK:
    @staticmethod
    def _index():
        return build_index(make_store([("c", "x"), ("a", "x"), ("b", "x")]))

    def test_k_at_least_rows_returns_every_row_in_order(self):
        index = self._index()
        rows = np.array([0, 1, 2])
        scores = np.array([1.0, 1.0, 2.0])
        for k in (3, 10):
            top, top_scores = top_k(index, rows, scores, k)
            assert [index.doc_ids[i] for i in top] == ["b", "a", "c"]
            assert top_scores.tolist() == [2.0, 1.0, 1.0]

    def test_empty_rows(self):
        top, top_scores = top_k(self._index(), np.array([], dtype=np.int64), np.array([]), 5)
        assert top.shape == (0,) and top_scores.shape == (0,)


class TestBlockTopK:
    """``block_top_k`` scores sources in blocks of ``_BLOCK_ROWS`` rows; the
    block sizes below do not divide the corpus sizes."""

    @staticmethod
    def _store(rng, n_docs, vocab_size, max_len):
        """A random corpus plus one empty document, with ids not in corpus order."""
        cases = random_store(rng, n_docs, vocab_size, max_len).cases + (make_case("x", ""),)
        ids = rng.permutation(len(cases))
        return CorpusStore(cases=tuple(replace(c, id=f"d{i:02d}") for c, i in zip(cases, ids)))

    @staticmethod
    def _others(index, k):
        """Every doc as a source, ranking every other doc."""
        every = np.arange(index.n_docs)
        return block_top_k(index, every, every, k, every != every[:, None])

    @pytest.mark.parametrize("block", [1, 3, 7, bm25._BLOCK_ROWS])
    def test_scores_match_naive_reference(self, monkeypatch, block):
        monkeypatch.setattr(bm25, "_BLOCK_ROWS", block)
        rng = np.random.default_rng(59)
        for _ in range(10):
            store = self._store(rng, int(rng.integers(2, 21)), vocab_size=6, max_len=12)
            index = build_index(store)
            docs = [list(c.tokens) for c in store.cases]
            for s, (rows, scores) in enumerate(self._others(index, index.n_docs)):
                assert sorted(rows.tolist()) == [j for j in range(index.n_docs) if j != s]
                for j, got in zip(rows, scores):
                    assert got == pytest.approx(naive_bm25(docs, docs[s], j), abs=1e-9)

    def test_score_all_matches_naive_reference(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            store = self._store(rng, int(rng.integers(2, 21)), vocab_size=6, max_len=12)
            index = build_index(store)
            docs = [list(c.tokens) for c in store.cases]
            for s in range(len(docs)):
                # repeated terms, and terms no document contains
                query = docs[s] + docs[s][:2] + ["unseen", "w99"]
                got = score_all(index, query)
                for j in range(len(docs)):
                    assert got[j] == pytest.approx(naive_bm25(docs, query, j), abs=1e-9)

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_equals_top_k_over_the_full_row(self, monkeypatch, block):
        monkeypatch.setattr(bm25, "_BLOCK_ROWS", block)
        rng = np.random.default_rng(67)
        straddling = 0
        for _ in range(10):
            # a tiny vocabulary makes exact ties common
            store = self._store(rng, int(rng.integers(8, 20)), vocab_size=3, max_len=3)
            index = build_index(store)
            every = np.arange(index.n_docs)
            for k in (1, 2, 4, index.n_docs):
                for s, (rows, scores) in enumerate(self._others(index, k)):
                    others = np.delete(every, s)
                    row = score_all(index, store.cases[s].tokens)[others]
                    want_rows, want_scores = top_k(index, others, row, k)
                    np.testing.assert_array_equal(rows, want_rows)
                    np.testing.assert_array_equal(scores, want_scores)
                    ranked = np.sort(row)[::-1]
                    straddling += k < len(ranked) and ranked[k - 1] == ranked[k]
        assert straddling > 0  # ties crossed the cut, so the tie-break was exercised

    @pytest.mark.parametrize("block", [1, 3, bm25._BLOCK_ROWS])
    def test_leaves_the_mask_unchanged_and_returns_what_is_eligible(self, monkeypatch, block):
        monkeypatch.setattr(bm25, "_BLOCK_ROWS", block)
        store = self._store(np.random.default_rng(79), 12, vocab_size=4, max_len=6)
        index = build_index(store)
        every = np.arange(index.n_docs)
        k = 4
        mask = np.random.default_rng(83).random((index.n_docs, index.n_docs)) < 0.6
        mask[0] = False  # no eligible column
        mask[1] = False
        mask[1, [2, 5, 9]] = True  # fewer than k eligible columns
        before = mask.copy()
        got = block_top_k(index, every, every, k, mask)
        np.testing.assert_array_equal(mask, before)
        rows, scores = got[0]
        assert rows.shape == scores.shape == (0,)
        assert rows.dtype == every.dtype and scores.dtype == np.float64
        for s, (rows, scores) in enumerate(got):
            cols = every[mask[s]]
            row = score_all(index, store.cases[s].tokens)[cols]
            want_rows, want_scores = top_k(index, cols, row, k)
            np.testing.assert_array_equal(rows, want_rows)
            np.testing.assert_array_equal(scores, want_scores)
        assert sorted(got[1][0].tolist()) == [2, 5, 9]


    @pytest.mark.parametrize("block", [1, 3, bm25._BLOCK_ROWS])
    def test_exclude_self_equals_a_mask_of_each_sources_own_column(self, monkeypatch, block):
        monkeypatch.setattr(bm25, "_BLOCK_ROWS", block)
        rng = np.random.default_rng(89)
        for _ in range(6):
            store = self._store(rng, int(rng.integers(3, 16)), vocab_size=3, max_len=4)
            index = build_index(store)
            n = index.n_docs
            src = rng.permutation(n)[: int(rng.integers(1, n + 1))]
            cols = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
            masked = rng.random((len(src), len(cols))) < 0.7
            for eligible in (None, masked):
                own = cols != src[:, None]  # some sources are not among the columns
                mask = own if eligible is None else own & eligible
                for k in (1, 3, len(cols), len(cols) + 2):
                    got = block_top_k(index, src, cols, k, eligible, exclude_self=True)
                    want = block_top_k(index, src, cols, k, mask)
                    for (rows, scores), (want_rows, want_scores) in zip(got, want, strict=True):
                        np.testing.assert_array_equal(rows, want_rows)
                        np.testing.assert_array_equal(scores, want_scores)


class TestSparseProductReference:
    """``score_all`` and ``block_top_k`` score bit for bit as the sparse
    product of the sources' count rows with W.T."""

    @staticmethod
    def _stores(rng):
        """Random corpora with repeated documents (so scores tie) and an empty
        document, then a corpus whose vocabulary is empty."""
        for _ in range(8):
            cases = random_store(rng, int(rng.integers(3, 25)), vocab_size=int(rng.integers(2, 30)),
                                 max_len=20).cases
            cases += tuple(cases[i] for i in rng.integers(0, len(cases), size=len(cases) // 2))
            cases += (make_case("x", ""),)
            ids = rng.permutation(len(cases))
            yield CorpusStore(cases=tuple(replace(c, id=f"d{i:03d}") for c, i in zip(cases, ids)))
        yield make_store([("e1", ""), ("e2", "")])

    def test_score_all(self):
        rng = np.random.default_rng(71)
        for store in self._stores(rng):
            index = build_index(store)
            for case in store.cases:
                # repeated terms, and a term no document contains
                query = case.tokens + case.tokens[:3] + ("unseen",)
                assert np.array_equal(score_all(index, query),
                                      sparse_product_score_all(index, query))

    @pytest.mark.parametrize("block", [1, 3, bm25._BLOCK_ROWS])
    def test_block_top_k(self, monkeypatch, block):
        monkeypatch.setattr(bm25, "_BLOCK_ROWS", block)
        rng = np.random.default_rng(73)
        straddling = 0
        for store in self._stores(rng):
            index = build_index(store)
            n = index.n_docs
            want = sparse_product_scores(index, index.tf)  # every doc as the source
            src = rng.permutation(n)[: max(1, n - 2)]
            every = np.arange(n)
            # the case-case call (self excluded), then a candidate subset with and
            # without an eligible mask, as for the prefilter and the hard pools
            subset = np.sort(rng.choice(n, size=max(1, 2 * n // 3), replace=False))
            masked = rng.random((len(src), len(subset))) < 0.7
            for cols, eligible in [(every, every != src[:, None]), (subset, masked), (subset, None)]:
                ok = np.ones((len(src), len(cols)), bool) if eligible is None else eligible
                for k in (1, 3, len(cols)):
                    got = block_top_k(index, src, cols, k, eligible)
                    assert len(got) == len(src)
                    for i, (rows, scores) in enumerate(got):
                        row = want[src[i], cols[ok[i]]]
                        want_rows, want_scores = top_k(index, cols[ok[i]], row, k)
                        assert np.array_equal(rows, want_rows)
                        assert np.array_equal(scores, want_scores)
                        ranked = np.sort(row)[::-1]
                        straddling += k < len(ranked) and ranked[k - 1] == ranked[k]
        assert straddling > 0  # ties crossed the cut, so the tie-break was exercised


class TestBinaryCache:
    def test_roundtrip_preserves_scores(self, tmp_path):
        rng = np.random.default_rng(43)
        store = random_store(rng, n_docs=18, vocab_size=9)
        index = build_index(store, k1=1.4, b=0.6)
        path = tmp_path / "index.bin"
        save_index(index, path, digest="abc123")
        loaded, digest = load_index(path)
        assert digest == "abc123"
        assert loaded.doc_ids == index.doc_ids
        assert loaded.k1 == index.k1 and loaded.b == index.b
        assert loaded.avgdl == index.avgdl
        for case in store.cases:
            np.testing.assert_array_equal(
                score_all(loaded, case.tokens), score_all(index, case.tokens)
            )

    def test_roundtrip_keeps_every_derived_array(self, tmp_path):
        # non-ASCII terms, and a document with no tokens
        store = make_store([("d1", "Körperverletzung 盗窃罪 b"), ("d2", ""),
                            ("d3", "b b ärger a 盗窃罪")])
        index = build_index(store)
        save_index(index, tmp_path / "index.bin")
        loaded, _ = load_index(tmp_path / "index.bin")
        assert np.array_equal(loaded.terms, index.terms)
        for name in ("tf", "_w"):
            for part in ("data", "indices", "indptr"):
                got, want = getattr(getattr(loaded, name), part), getattr(getattr(index, name), part)
                assert np.array_equal(got, want), (name, part)
        assert np.array_equal(loaded.doc_len, index.doc_len)
        assert loaded.avgdl == index.avgdl

    def test_magic_header(self, tmp_path):
        store = make_store([("d1", "a b")])
        path = tmp_path / "index.bin"
        save_index(build_index(store), path)
        assert path.read_bytes()[:4] == b"BM25"


def write_v2(path, terms, indptr, indices, counts, nnz=None, meta=None, magic=b"BM25",
             version=2):
    """A version-2 ``bm25.bin`` packed by hand, for a two-document corpus;
    ``meta``, when given, replaces the whole meta record, and ``magic`` and
    ``version`` replace the header's."""
    meta = json.dumps(META | {"terms": terms} if meta is None else meta,
                      sort_keys=True, separators=(",", ":")).encode()
    nnz = len(indices) if nnz is None else nnz
    path.write_bytes(magic + struct.pack("<II", version, len(meta)) + meta + struct.pack("<Q", nnz)
                     + struct.pack(f"<{len(indptr)}I", *indptr)
                     + struct.pack(f"<{len(indices)}I", *indices)
                     + struct.pack(f"<{len(counts)}I", *counts))


# The index file of "a b b" and "b c": terms a, b, c; rows {a: 1, b: 2} and {b: 1, c: 1}.
INTACT = dict(terms=["a", "b", "c"], indptr=[0, 2, 4], indices=[0, 1, 1, 2], counts=[1, 2, 1, 1])
META = {"b": 0.75, "digest": "", "doc_ids": ["d1", "d2"], "k1": 1.2, "terms": ["a", "b", "c"]}


class TestMalformedCache:
    def test_hand_packed_file_equals_the_saved_one(self, tmp_path):
        save_index(build_index(make_store([("d1", "a b b"), ("d2", "b c")])), tmp_path / "saved")
        write_v2(tmp_path / "packed", **INTACT)
        assert (tmp_path / "packed").read_bytes() == (tmp_path / "saved").read_bytes()
        load_index(tmp_path / "packed")

    @pytest.mark.parametrize("damage,reason", [
        ({"terms": ["b", "a", "c"]}, "vocabulary is not strictly increasing"),
        ({"terms": ["a", "a", "c"]}, "vocabulary is not strictly increasing"),
        ({"indptr": [1, 2, 4]}, "index pointer should start with 0"),
        ({"indptr": [0, 5, 4]}, "indptr must be a non-decreasing sequence"),
        ({"indptr": [0, 2, 3]}, "index pointer ends at 3, not at 4 entries"),
        ({"indices": [0, 1, 1, 3]}, "indices must be < 3"),
        ({"indices": [1, 0, 1, 2]}, "unsorted or repeated within a document"),
        ({"indices": [0, 0, 1, 2]}, "unsorted or repeated within a document"),
        ({"counts": [1, 0, 1, 1]}, "a term count is zero"),
        ({"meta": [META]}, "meta is not a JSON object"),
        ({"meta": META | {"terms": "abc"}}, "meta 'terms' is not a list of strings"),
        ({"meta": META | {"terms": ["a", 2, "c"]}}, "meta 'terms' is not a list of strings"),
        ({"meta": META | {"doc_ids": "d1d2"}}, "meta 'doc_ids' is not a list of strings"),
        ({"meta": META | {"doc_ids": ["d1", None]}}, "meta 'doc_ids' is not a list of strings"),
        ({"meta": META | {"digest": 7}}, "meta 'digest' is not a string"),
        ({"meta": META | {"k1": "1.2"}}, "meta 'k1' is not a number"),
        ({"meta": META | {"b": True}}, "meta 'b' is not a number"),
        ({"meta": META | {"k1": -1}}, "k1 must be a finite number > 0"),
        ({"meta": META | {"b": 5}}, r"b must be in \[0, 1\]"),
        ({"meta": {k: v for k, v in META.items() if k != "terms"}},
         "meta 'terms' is not a list of strings"),
        ({"meta": {k: v for k, v in META.items() if k != "digest"}}, "meta 'digest' is not a string"),
        ({"meta": {k: v for k, v in META.items() if k != "k1"}}, "meta 'k1' is not a number"),
        ({"version": 1}, "unsupported BM25 index version 1"),
        ({"magic": b"junk"}, "not a valid BM25 index"),
    ], ids=["terms unsorted", "terms repeated", "indptr start", "indptr decreasing",
            "indptr short", "column out of range", "columns unsorted", "duplicate entry",
            "zero count", "meta a list", "terms a string", "terms not strings",
            "doc ids a string", "doc ids not strings", "digest a number", "k1 a string",
            "b a bool", "k1 negative", "b above 1", "terms missing", "digest missing",
            "k1 missing", "version 1", "another magic"])
    def test_rejected(self, tmp_path, damage, reason):
        path = tmp_path / "index.bin"
        write_v2(path, **(INTACT | damage))
        with pytest.raises(IngestError, match=reason) as info:
            load_index(path)
        assert str(path) in str(info.value)
