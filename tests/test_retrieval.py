"""Two-stage ranking, year filtering, micro-averaged evaluation, run files."""

import math
from collections import Counter

import numpy as np
import pytest

from caselink import bm25
from caselink.bm25 import block_top_k, build_index, score_all, top_k
from caselink.corpus import Role
from caselink.embeddings import stack_vectors, unit_rows
from caselink.errors import DimensionError, MissingEmbeddingError, NumericalError, ParseError
from caselink.retrieval import (
    EvalReport,
    bm25_baseline_rank,
    evaluate_runs,
    f_measure,
    prefilter,
    rank_all,
    read_run_tsv,
    representations_from_rows,
    two_stage_rank,
    write_report_json,
    write_run_json,
    write_run_tsv,
    year_filter,
)

from conftest import make_case, make_store, random_text
from test_bm25 import naive_bm25


class TestYearFilter:
    def _query(self, year):
        return make_case("q", "query text", Role.QUERY, year)

    def test_keeps_strictly_older(self):
        candidates = [
            make_case("c1", "x", Role.CANDIDATE, 2008),
            make_case("c2", "x", Role.CANDIDATE, 2012),
            make_case("c3", "x", Role.CANDIDATE, 2010),
        ]
        kept = year_filter(self._query(2010), candidates)
        assert [c.id for c in kept] == ["c1"]

    def test_candidates_without_year_are_kept(self):
        candidates = [
            make_case("c1", "x", Role.CANDIDATE, None),
            make_case("c2", "x", Role.CANDIDATE, 2012),
        ]
        kept = year_filter(self._query(2010), candidates)
        assert [c.id for c in kept] == ["c1"]

    def test_query_without_year_disables_filtering(self):
        candidates = [
            make_case("c1", "x", Role.CANDIDATE, 2050),
            make_case("c2", "x", Role.CANDIDATE, None),
        ]
        kept = year_filter(self._query(None), candidates)
        assert [c.id for c in kept] == ["c1", "c2"]


def ranking_fixture():
    """One query (year 2010) and 12 candidates; two are too recent."""
    rng = np.random.default_rng(51)
    cases = [("q1", "alpha beta gamma delta epsilon decided March 1, 2010", Role.QUERY)]
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
    for i in range(12):
        year = 2015 if i >= 10 else 1990 + i
        n_terms = int(rng.integers(1, 6))
        words = " ".join(rng.choice(vocab, size=n_terms, replace=False))
        cases.append(
            (f"c{i:02d}", f"{words} decided March 1, {year}", Role.CANDIDATE)
        )
    store = make_store(cases)
    reps = {
        c.id: rng.standard_normal(6) for c in store.cases
    }
    return store, build_index(store), reps


class TestTwoStageRank:
    def test_year_filter_is_applied(self):
        store, index, reps = ranking_fixture()
        result = two_stage_rank(store, index, reps, "q1")
        assert set(result.eligible_ids) == {f"c{i:02d}" for i in range(10)}
        assert not {"c10", "c11"} & set(result.final_ids)

    def test_containment_chain(self):
        store, index, reps = ranking_fixture()
        result = two_stage_rank(store, index, reps, "q1")
        assert set(result.final_ids) <= set(result.prefilter_ids)
        assert set(result.prefilter_ids) <= set(result.eligible_ids)
        assert len(result.final_ids) == 5
        assert len(result.prefilter_ids) == 10

    def test_matches_independent_reference(self):
        store, index, reps = ranking_fixture()
        result = two_stage_rank(store, index, reps, "q1")

        docs = [list(c.tokens) for c in store.cases]
        idx_of = store.case_index()
        eligible = [c.id for c in store.candidates() if c.year is not None and c.year < 2010]
        lexical = sorted(
            eligible, key=lambda cid: (-naive_bm25(docs, docs[0], idx_of[cid]), cid)
        )[:10]
        assert list(result.prefilter_ids) == lexical

        def cos(a, b):
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

        dense = sorted(lexical, key=lambda cid: (-cos(reps["q1"], reps[cid]), cid))[:5]
        assert list(result.final_ids) == dense

    def test_small_pool_returns_fewer(self):
        store = make_store(
            [
                ("q1", "alpha decided March 1, 2010", Role.QUERY),
                ("c1", "alpha decided March 1, 2001", Role.CANDIDATE),
                ("c2", "alpha decided March 1, 2002", Role.CANDIDATE),
                ("c3", "alpha decided March 1, 2003", Role.CANDIDATE),
            ]
        )
        reps = {cid: np.array([1.0, float(i)]) for i, cid in enumerate(["q1", "c1", "c2", "c3"])}
        result = two_stage_rank(store, build_index(store), reps, "q1")
        assert len(result.final_ids) == 3
        assert set(result.final_ids) == {"c1", "c2", "c3"}

    def test_dense_ties_break_by_ascending_id(self):
        v = np.array([1.0, 1.0])
        w = np.array([2.0, 0.5])
        # every candidate ties at both stages; corpus order is not id order
        for order, prefilter_size, prefilter, final in [
            (("cb", "ca"), 10, ("ca", "cb"), ("ca", "cb")),
            (("cc", "ca", "cd", "cb"), 3, ("ca", "cb", "cc"), ("ca", "cb")),
        ]:
            store = make_store(
                [("q1", "alpha", Role.QUERY)] + [(c, "alpha", Role.CANDIDATE) for c in order]
            )
            reps = {"q1": v, **{c: w.copy() for c in order}}  # identical cosines
            result = two_stage_rank(
                store, build_index(store), reps, "q1", prefilter_size, final_size=2
            )
            assert result.prefilter_ids == prefilter
            assert result.final_ids == final

    def test_no_eligible_candidate_gives_empty_ranking(self):
        store = make_store(
            [
                ("q1", "alpha decided March 1, 1990", Role.QUERY),
                ("c1", "alpha decided March 1, 2001", Role.CANDIDATE),
            ]
        )
        index = build_index(store)
        reps = {"q1": np.ones(2), "c1": np.ones(2)}
        for result in (two_stage_rank(store, index, reps, "q1"),
                       bm25_baseline_rank(store, index, "q1")):
            assert result.eligible_ids == ()
            assert result.prefilter_ids == result.final_ids == ()
            assert result.prefilter_scores == result.final_scores == ()

    def test_dense_scores_are_cosines(self):
        store = make_store(
            [("q1", "alpha", Role.QUERY)]
            + [(c, "alpha", Role.CANDIDATE) for c in ("c1", "c2", "c3")]
        )
        reps = {
            "q1": np.array([1.0, 0.0]),
            "c1": np.array([-3.0, 0.0]),  # opposite
            "c2": np.array([1.0, 1.0]),  # 45 degrees
            "c3": np.array([2.0, 0.0]),  # same direction
        }
        result = two_stage_rank(store, build_index(store), reps, "q1")
        assert result.final_ids == ("c3", "c2", "c1")
        np.testing.assert_allclose(
            result.final_scores, [1.0, math.sqrt(0.5), -1.0], rtol=0, atol=1e-12
        )

    def test_zero_norm_candidate_representation_rejected(self):
        store, index, reps = ranking_fixture()
        zeroed = dict(reps)
        zeroed[two_stage_rank(store, index, reps, "q1").prefilter_ids[-1]] = np.zeros(6)
        with pytest.raises(NumericalError):
            two_stage_rank(store, index, zeroed, "q1")

    def test_scale_invariance_of_dense_stage(self):
        store, index, reps = ranking_fixture()
        base = two_stage_rank(store, index, reps, "q1")
        scaled = {k: 3.7 * v for k, v in reps.items()}
        rescored = two_stage_rank(store, index, scaled, "q1")
        assert base.final_ids == rescored.final_ids

    def test_unknown_query_id(self):
        store, index, reps = ranking_fixture()
        with pytest.raises(IndexError):
            two_stage_rank(store, index, reps, "nope")

    def test_missing_representations(self):
        store, index, reps = ranking_fixture()
        no_query = {k: v for k, v in reps.items() if k != "q1"}
        with pytest.raises(MissingEmbeddingError, match="^no embedding for: 'q1'$"):
            two_stage_rank(store, index, no_query, "q1")
        dropped = dict(reps)
        result = two_stage_rank(store, index, reps, "q1")
        del dropped[result.prefilter_ids[0]]
        with pytest.raises(MissingEmbeddingError,
                           match=f"^no embedding for: {result.prefilter_ids[0]!r}$"):
            two_stage_rank(store, index, dropped, "q1")

    def test_query_never_retrieved(self):
        store, index, reps = ranking_fixture()
        result = two_stage_rank(store, index, reps, "q1")
        assert "q1" not in result.final_ids


class TestBm25Baseline:
    def test_final_equals_lexical_top5(self):
        store, index, reps = ranking_fixture()
        result = bm25_baseline_rank(store, index, "q1")
        two_stage = two_stage_rank(store, index, reps, "q1")
        assert result.final_ids == two_stage.prefilter_ids[:5]
        assert result.final_ids == result.prefilter_ids

    def test_unknown_query_id(self):
        store, index, _ = ranking_fixture()
        with pytest.raises(IndexError):
            bm25_baseline_rank(store, index, "nope")

    def test_lexical_ties_break_by_ascending_id(self):
        store = make_store(
            [("q1", "alpha beta", Role.QUERY)]
            + [(c, "alpha", Role.CANDIDATE) for c in ("cc", "ca", "cd", "cb")]
            + [("cz", "alpha beta", Role.CANDIDATE)]
        )
        result = bm25_baseline_rank(store, build_index(store), "q1", final_size=3)
        assert result.final_ids == ("cz", "ca", "cb")
        assert result.final_scores[0] > result.final_scores[1] == result.final_scores[2]


class TestRankAll:
    def test_covers_all_queries_by_default(self):
        store = make_store(
            [
                ("q1", "alpha beta", Role.QUERY),
                ("q2", "beta gamma", Role.QUERY),
                ("c1", "alpha", Role.CANDIDATE),
                ("c2", "beta", Role.CANDIDATE),
            ]
        )
        rng = np.random.default_rng(3)
        reps = {c.id: rng.standard_normal(4) for c in store.cases}
        run = rank_all(store, build_index(store), reps)
        assert set(run.retrieved()) == {"q1", "q2"}
        for ids in run.retrieved().values():
            assert len(ids) == len(set(ids)) <= 2

    @pytest.mark.parametrize("prefilter_size, final_size", [(10, 0), (-1, 5), (3, 5)])
    def test_sizes_outside_one_to_prefilter_are_rejected(self, prefilter_size, final_size):
        store = make_store([("q1", "alpha", Role.QUERY), ("c1", "alpha", Role.CANDIDATE)])
        reps = {"q1": np.ones(2), "c1": np.ones(2)}
        with pytest.raises(ValueError, match="final_size"):
            rank_all(store, build_index(store), reps, prefilter_size=prefilter_size,
                     final_size=final_size)


class TestLexicalYearFilter:
    @pytest.mark.parametrize("block", [1, bm25._BLOCK_ROWS])
    def test_eligible_ids_equal_year_filter(self, monkeypatch, block):
        # queries in one rank_all call, scored in one block or one per block
        monkeypatch.setattr(bm25, "_BLOCK_ROWS", block)
        store = make_store(
            [
                ("q_2010", "alpha beta decided March 1, 2010", Role.QUERY),
                ("c_2001", "alpha beta decided March 1, 2001"),
                ("c_2015", "alpha decided March 1, 2015"),
                ("q_undated", "alpha gamma", Role.QUERY),
                ("c_2010", "beta decided March 1, 2010"),
                ("c_undated", "alpha beta gamma"),
                ("q_2005", "gamma decided March 1, 2005", Role.QUERY),
            ]
        )
        index = build_index(store)
        rng = np.random.default_rng(5)
        reps = {c.id: rng.standard_normal(4) for c in store.cases}
        by_id = {c.id: c for c in store.cases}
        run = rank_all(store, index, reps, prefilter_size=3, final_size=2)
        baseline = [bm25_baseline_rank(store, index, q.id, 3) for q in store.queries()]
        for result in (*run.results, *baseline):
            kept = year_filter(by_id[result.query_id], store.candidates())
            assert result.eligible_ids == tuple(c.id for c in kept)
            rows = np.array([index.doc_index(c.id) for c in kept], dtype=np.int64)
            scores = score_all(index, by_id[result.query_id].tokens)[rows]
            top, _ = top_k(index, rows, scores, 3)
            assert result.prefilter_ids == tuple(index.doc_ids[i] for i in top)
        assert [r.eligible_ids for r in run.results] == [
            ("c_2001", "c_undated"),
            ("c_2001", "c_2015", "c_2010", "c_undated"),
            ("c_2001", "c_undated"),
        ]


def reference_rank(store, index, reps, query_id, prefilter_size, final_size):
    """One query's ranking as it was computed query by query: the year
    filter, the BM25 top rows of that query alone, then a product of its own
    stacked unit rows and :func:`top_k`."""
    query = store.cases[index.doc_index(query_id)]
    kept = year_filter(query, store.candidates())
    cols = np.array([index.doc_index(c.id) for c in kept], dtype=np.int64)
    [(pre_rows, pre_scores)] = block_top_k(index, np.array([index.doc_index(query_id)]), cols,
                                           prefilter_size)
    pre_ids = tuple(index.doc_ids[i] for i in pre_rows)
    unit, _ = unit_rows(stack_vectors(reps, (query_id, *pre_ids)))
    final_rows, final_scores = top_k(index, pre_rows, unit[1:] @ unit[0], final_size)
    return (tuple(c.id for c in kept), pre_ids, tuple(index.doc_ids[i] for i in final_rows),
            tuple(pre_scores.tolist()), tuple(final_scores.tolist()))


def rerank_fixture(dim, seed=17):
    """30 dated candidates in shuffled corpus order and 11 queries with 0,
    1, 2, 6, 8, 22 and 30 eligible candidates. c04, c09 and c13 share q07's
    vector and lead its lexical order in reverse id order, so its dense ties
    break by id against the lexical order."""
    rng = np.random.default_rng(seed)
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    cands = []
    for i in range(30):
        words = " ".join(rng.choice(vocab, size=3))
        words = {4: "omega", 9: "omega psi", 13: "omega psi psi"}.get(i, words)
        year = 1989 if i == 0 else 1991 + i % 20
        cands.append((f"c{i:02d}", f"{words} decided March 1, {year}", Role.CANDIDATE))
    queries = [(f"q{i:02d}", " ".join(rng.choice(vocab, size=4))
                + ("" if year is None else f" decided March 1, {year}"), Role.QUERY)
               for i, year in enumerate([1985, 1990, 1992, 1994, 1995, 2003, 2003, 2030,
                                         2030, 2030, None])]
    queries[7] = ("q07", "omega psi gamma decided March 1, 2030", Role.QUERY)
    cases = cands + queries
    store = make_store([cases[i] for i in rng.permutation(len(cases))])
    reps = {c.id: rng.standard_normal(dim) for c in store.cases}
    for cid in ("c04", "c09", "c13"):
        reps[cid] = reps["q07"].copy()
    return store, build_index(store), reps


class TestRerankParity:
    """rank_all's one re-rank gives the bits of the query-by-query stage."""

    @pytest.mark.parametrize("block", [1, bm25._BLOCK_ROWS])
    @pytest.mark.parametrize("dim", [3, 8, 32])
    @pytest.mark.parametrize("prefilter_size, final_size", [(10, 5), (4, 4), (7, 3)])
    def test_equals_the_query_by_query_reference(self, monkeypatch, block, dim,
                                                 prefilter_size, final_size):
        monkeypatch.setattr(bm25, "_BLOCK_ROWS", block)
        store, index, reps = rerank_fixture(dim)
        run = rank_all(store, index, reps, prefilter_size=prefilter_size,
                       final_size=final_size)
        kinds = set()
        for r in run.results:
            want = reference_rank(store, index, reps, r.query_id, prefilter_size, final_size)
            got = (r.eligible_ids, r.prefilter_ids, r.final_ids, r.prefilter_scores,
                   r.final_scores)
            assert got == want, r.query_id
            for got_scores, want_scores in zip(got[3:], want[3:]):
                assert np.array(got_scores).tobytes() == np.array(want_scores).tobytes()
            eligible = len(r.eligible_ids)
            kinds.add("none" if eligible == 0 else "fewer" if eligible < prefilter_size
                      else "more" if eligible > prefilter_size else "as many")
        assert kinds >= {"none", "fewer", "more"}
        [q07] = [r for r in run.results if r.query_id == "q07"]
        assert q07.prefilter_ids[:3] == ("c13", "c09", "c04")
        assert q07.final_ids[:3] == ("c04", "c09", "c13")

    def test_one_query_ranks_as_it_does_among_all(self):
        store, index, reps = rerank_fixture(8)
        every = {r.query_id: r for r in rank_all(store, index, reps).results}
        for qid in every:
            assert two_stage_rank(store, index, reps, qid) == every[qid]

    def test_prefilter_holds_each_querys_top_list_and_shares_eligible_ids(self):
        store, index, _ = rerank_fixture(8)
        query_ids = [q.id for q in store.queries()]
        pre = prefilter(store, index, query_ids, 10)
        assert pre.query_ids == tuple(query_ids)
        assert len(pre.top) == len(pre.eligible_ids) == len(query_ids)
        fills = set()
        for (rows, scores), eligible in zip(pre.top, pre.eligible_ids):
            assert rows.dtype == np.int64 and scores.dtype == np.float64
            assert rows.shape == scores.shape == (min(10, len(eligible)),)
            assert {index.doc_ids[i] for i in rows.tolist()} <= set(eligible)
            assert np.isfinite(scores).all() and (np.diff(scores) <= 0).all()
            fills.add(len(rows))
        assert {0, 10} < fills  # empty, full and part-filled lists
        by_ids: dict = {}
        for eligible in pre.eligible_ids:
            assert by_ids.setdefault(eligible, eligible) is eligible  # one tuple per row
        assert len(by_ids) < len(query_ids)

    def test_no_queries(self):
        store, index, reps = rerank_fixture(8)
        pre = prefilter(store, index, [], 10)
        assert pre.top == () and pre.eligible_ids == ()
        assert rank_all(store, index, reps, []).results == ()

    def test_query_without_eligible_candidates_still_needs_its_vector(self):
        store, index, reps = rerank_fixture(8)
        assert two_stage_rank(store, index, reps, "q00").eligible_ids == ()
        missing = {k: v for k, v in reps.items() if k != "q00"}
        with pytest.raises(MissingEmbeddingError, match="^no embedding for: 'q00'$"):
            rank_all(store, index, missing)
        with pytest.raises(NumericalError, match="zero-norm"):
            rank_all(store, index, {**reps, "q00": np.zeros(8)})

    def test_missing_candidate_of_several_queries_is_named_once(self):
        store, index, reps = rerank_fixture(8)
        run = rank_all(store, index, reps)
        counts = Counter(cid for r in run.results for cid in r.prefilter_ids)
        gone, n = min(counts.items(), key=lambda item: (-item[1], item[0]))
        assert n >= 2
        held = {k: v for k, v in reps.items() if k != gone}
        with pytest.raises(MissingEmbeddingError, match=f"^no embedding for: {gone!r}$"):
            rank_all(store, index, held)
        with pytest.raises(NumericalError, match="zero-norm"):
            rank_all(store, index, {**reps, gone: np.zeros(8)})


class TestEvaluateRuns:
    def test_hand_counted_micro_average(self):
        retrieved = {
            "q1": ("a", "b", "c", "d", "e"),
            "q2": ("f", "g", "h", "i", "j"),
        }
        labels = {
            "q1": ("a", "b", "x", "y"),
            "q2": ("f", "u", "v", "w"),
        }
        report = evaluate_runs(retrieved, labels)
        assert report.precision == pytest.approx(0.3, abs=1e-12)
        assert report.recall == pytest.approx(0.375, abs=1e-12)
        assert report.f1 == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert report.to_dict() == {
            "precision": report.precision,
            "recall": report.recall,
            "f1": report.f1,
            "retrieved": 10,
            "relevant": 8,
            "correct": 3,
        }

    def test_micro_not_macro(self):
        retrieved = {"q1": ("a",), "q2": tuple(f"z{i}" for i in range(9))}
        labels = {"q1": ("a",), "q2": ("b",)}
        report = evaluate_runs(retrieved, labels)
        assert report.precision == pytest.approx(0.1, abs=1e-12)

    def test_perfect_run(self):
        retrieved = {"q1": ("a", "b")}
        labels = {"q1": ("a", "b")}
        report = evaluate_runs(retrieved, labels)
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)

    def test_empty_retrieval_scores_zero_with_warning(self, caplog):
        with caplog.at_level("WARNING", logger="caselink.retrieval"):
            report = evaluate_runs({"q1": ()}, {"q1": ("a",)})
        assert report.precision == 0.0
        assert report.recall == 0.0
        assert report.f1 == 0.0
        assert "retrieved nothing" in caplog.text

    def test_a_candidate_retrieved_twice_is_rejected(self):
        # counted as three hits, this run scored recall 1.5 and F1 1.2
        with pytest.raises(ValueError, match="twice for query 'q1'"):
            evaluate_runs({"q1": ("c1", "c1", "c1")}, {"q1": ("c1", "c2")})

    def test_only_run_queries_are_counted(self):
        retrieved = {"q1": ("a",)}
        labels = {"q1": ("a",), "q9": ("b", "c")}
        report = evaluate_runs(retrieved, labels)
        assert report.n_relevant == 1
        assert report.f1 == 1.0

    def test_f_measure(self):
        assert f_measure(0.0, 0.0) == 0.0
        assert f_measure(0.5, 0.5) == pytest.approx(0.5, abs=1e-15)
        assert f_measure(0.2908, 0.3019) == pytest.approx(
            2 * 0.2908 * 0.3019 / (0.2908 + 0.3019), abs=1e-15
        )


class TestRunFiles:
    def _run(self):
        store, index, reps = ranking_fixture()
        return rank_all(store, index, reps)

    def test_tsv_format(self, tmp_path):
        from caselink.retrieval import RankResult, RetrievalRun

        run = RetrievalRun(
            results=(
                RankResult(
                    query_id="q1",
                    eligible_ids=("c1", "c2"),
                    prefilter_ids=("c1", "c2"),
                    final_ids=("c2", "c1"),
                    prefilter_scores=(1.5, 0.25),
                    final_scores=(0.875, -0.5),
                ),
            )
        )
        path = tmp_path / "run.tsv"
        write_run_tsv(run, path)
        assert path.read_text() == "q1\tc2\t1\t0.875000\nq1\tc1\t2\t-0.500000\n"

    def test_tsv_roundtrip(self, tmp_path):
        run = self._run()
        path = tmp_path / "run.tsv"
        write_run_tsv(run, path)
        assert read_run_tsv(path) == run.retrieved()

    def test_malformed_tsv_rejected(self, tmp_path):
        path = tmp_path / "run.tsv"
        path.write_text("q1\tc1\t1\n")
        with pytest.raises(ParseError, match=f"^line 1: {path}: expected 4 tab-separated fields"):
            read_run_tsv(path)

    @pytest.mark.parametrize("lines, line, reason", [
        (["q1\tc1\tx\t0.5"], 1, "rank 'x' is not an integer"),
        (["q1\tc1\t1\t0.5", "q1\tc1\t2\t0.5", "q1\tc1\t3\t0.5"], 2,
         "query 'q1' repeats candidate 'c1'"),
        (["q1\tc1\t1\t0.5", "", "q2\tc1\t1\t0.5", "q1\tc2\t1\t0.4"], 4,
         "query 'q1' repeats rank 1"),
        (["q1\tc1\t1\t0.5", "q1\tc2\t2\tabc"], 2, "score 'abc' is not a finite number"),
        (["q1\tc1\t1\tnan"], 1, "score 'nan' is not a finite number"),
        (["q1\tc1\t1\t-inf"], 1, "score '-inf' is not a finite number"),
        (["q1\tc1\t1\t"], 1, "score '' is not a finite number"),
    ], ids=["rank not an integer", "candidate repeated", "rank repeated", "score not a number",
            "score nan", "score infinite", "score empty"])
    def test_damaged_run_line_is_parse_error_naming_the_file_and_line(self, tmp_path, lines,
                                                                       line, reason):
        path = tmp_path / "run.tsv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"^line {line}: {path}: {reason}$") as info:
            read_run_tsv(path)
        assert (info.value.line_number, info.value.path) == (line, path)

    def test_lines_split_on_newlines_only(self, tmp_path):
        path = tmp_path / "run.tsv"
        path.write_text("q1\tc\u2028x\t2\t0.5\r\nq1\tc\x0cy\t1\t0.6\n", encoding="utf-8")
        assert read_run_tsv(path) == {"q1": ("c\x0cy", "c\u2028x")}

    def test_json_run_format(self, tmp_path):
        import json

        run = self._run()
        path = tmp_path / "run.json"
        write_run_json(run, path)
        payload = json.loads(path.read_text())
        assert payload == {qid: list(ids) for qid, ids in run.retrieved().items()}

    def test_report_json_keys(self, tmp_path):
        import json

        report = evaluate_runs({"q1": ("a",)}, {"q1": ("a",)})
        path = tmp_path / "report.json"
        write_report_json(report, path)
        payload = json.loads(path.read_text())
        assert set(payload) == {"precision", "recall", "f1", "retrieved", "relevant", "correct"}


class TestRepresentationsFromRows:
    def test_maps_ids_to_rows(self):
        h = np.arange(6.0).reshape(3, 2)
        reps = representations_from_rows(["a", "b", "c"], h)
        np.testing.assert_array_equal(reps["b"], [2.0, 3.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            representations_from_rows(["a"], np.zeros((2, 2)))


class TestRankingInvariants:
    def test_property_sweep(self):
        rng = np.random.default_rng(61)
        for trial in range(10):
            n_cand = int(rng.integers(3, 15))
            cases = [
                (
                    "q1",
                    random_text(rng, 8, 6) + " decided March 1, 2010",
                    Role.QUERY,
                )
            ]
            for i in range(n_cand):
                year = int(rng.integers(1990, 2020))
                cases.append(
                    (
                        f"c{i:02d}",
                        random_text(rng, 8, int(rng.integers(2, 9)))
                        + f" decided March 1, {year}",
                        Role.CANDIDATE,
                    )
                )
            store = make_store(cases)
            reps = {c.id: rng.standard_normal(5) for c in store.cases}
            result = two_stage_rank(store, build_index(store), reps, "q1")
            assert len(result.final_ids) == len(set(result.final_ids))
            assert len(result.final_ids) <= 5
            assert len(result.prefilter_ids) <= 10
            assert set(result.final_ids) <= set(result.prefilter_ids)
            assert set(result.prefilter_ids) <= set(result.eligible_ids)
            years = {c.id: c.year for c in store.cases}
            for cid in result.final_ids:
                assert years[cid] is None or years[cid] < 2010
            assert list(result.final_scores) == sorted(result.final_scores, reverse=True)
