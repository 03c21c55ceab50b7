"""Corpus ingestion, tokenization, year extraction, and the charge lexicon."""

import dataclasses
import json
import random

import numpy as np
import pytest

from caselink import corpus
from caselink.corpus import (
    _DATE_PATTERNS,
    _MONTH_YEAR_RE,
    _MONTHS,
    _TOKEN_RE,
    ChargeEntry,
    Role,
    decode_object,
    extract_latest_year,
    ingest_corpus,
    iter_lines,
    load_charge_lexicon,
    load_labels,
    normalize_charge_name,
    read_text,
    replaced,
    tokenize,
)
from caselink.errors import (
    EmptyLexiconError,
    IngestError,
    LabelResolutionError,
    ParseError,
)

from caselink.synthetic import SyntheticSpec, generate

from conftest import make_store


class TestTokenize:
    def test_lowercase_and_punctuation_split(self):
        assert tokenize("The Cat, sat.") == ["the", "cat", "sat"]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_citation_style_text(self):
        assert tokenize("R. v. Smith 2010 FC 123") == ["r", "v", "smith", "2010", "fc", "123"]

    def test_unicode_letters_stay_in_one_token(self):
        assert tokenize("Körperverletzung") == ["körperverletzung"]
        assert tokenize("盗窃罪") == ["盗窃罪"]
        assert tokenize("STRAẞE, Straße") == ["strasse", "strasse"]  # casefolded

    def test_mixed_separators(self):
        assert tokenize("a-b_c  d\te\nf") == ["a", "b", "c", "d", "e", "f"]

    def test_idempotent_on_joined_output(self):
        rng = np.random.default_rng(7)
        alphabet = list("abcXYZ019 ,.;:-()[]'\"\n\t/")
        for _ in range(100):
            chars = rng.choice(alphabet, size=int(rng.integers(0, 60)))
            text = "".join(chars)
            once = tokenize(text)
            assert tokenize(" ".join(once)) == once


class TestAsciiTokenizePath:
    """ASCII text is tokenized without the regex; its tokens must equal the
    regex's over the casefolded text."""

    @staticmethod
    def regex_tokens(text):
        return _TOKEN_RE.findall(text.casefold())

    def test_every_ascii_code_point_alone_and_between_letters(self):
        for code in range(128):
            c = chr(code)
            for text in (c, f"a{c}b", f"Z{c}{c}9", f"{c}x{c}"):
                assert tokenize(text) == self.regex_tokens(text), repr(text)

    def test_random_ascii_strings(self):
        rng = np.random.default_rng(131)
        for _ in range(500):
            codes = rng.integers(0, 128, size=int(rng.integers(0, 80)))
            text = "".join(map(chr, codes))
            assert tokenize(text) == self.regex_tokens(text), repr(text)

    def test_every_text_of_a_synthetic_corpus(self):
        texts = [c.text for c in generate(SyntheticSpec(seed=3)).store.cases]
        assert texts and all(text.isascii() for text in texts)
        for text in texts:
            assert tokenize(text) == self.regex_tokens(text)

    def test_only_text_with_a_non_ascii_character_takes_the_regex(self, monkeypatch):
        texts = []

        class Spy:
            def findall(self, text):
                texts.append(text)
                return _TOKEN_RE.findall(text)

        monkeypatch.setattr(corpus, "_TOKEN_RE", Spy())
        assert tokenize("Assault, R. v. Smith (2010)") == ["assault", "r", "v", "smith", "2010"]
        assert texts == []
        assert tokenize("Assault, Straße (2010)") == ["assault", "strasse", "2010"]
        assert texts == ["assault, strasse (2010)"]


class TestExtractLatestYear:
    def test_multiple_long_form_dates_take_maximum(self):
        assert extract_latest_year("heard January 5, 2009; decided March 2, 2010") == 2010

    def test_no_dates(self):
        assert extract_latest_year("no dates here") is None

    def test_bracketed_and_iso_agree(self):
        assert extract_latest_year("[2008] 2 F.C.R. 100 ... 2008-11-30") == 2008

    def test_iso_date(self):
        assert extract_latest_year("filed 2014-07-31 in the registry") == 2014

    def test_day_first_date(self):
        assert extract_latest_year("decided 17 September 2003") == 2003

    def test_month_year_without_day(self):
        assert extract_latest_year("argued in March 2010") == 2010

    def test_bare_number_not_adjacent_to_month_ignored(self):
        assert extract_latest_year("volume 2010 at page 1995") is None

    def test_month_year_outside_plausible_window_ignored(self):
        assert extract_latest_year("a march 1756 pamphlet") is None

    def test_case_insensitive(self):
        assert extract_latest_year("DECIDED JANUARY 2, 1999") == 1999

    def test_maximality_over_synthesized_dates(self):
        rng = np.random.default_rng(11)
        months = ["January", "March", "July", "December"]
        for _ in range(50):
            years = rng.integers(1900, 2090, size=int(rng.integers(1, 6)))
            parts = []
            for y in years:
                style = int(rng.integers(3))
                month = months[int(rng.integers(len(months)))]
                day = int(rng.integers(1, 28))
                if style == 0:
                    parts.append(f"{month} {day}, {y}")
                elif style == 1:
                    parts.append(f"{y}-01-{day:02d}")
                else:
                    parts.append(f"[{y}]")
            text = " filler ".join(parts)
            assert extract_latest_year(text) == int(years.max())


def five_scan_latest_year(text: str) -> int | None:
    """Reference: a finditer scan of the whole lowered text per pattern."""
    lowered = text.lower()
    years: list[int] = []
    for pat in _DATE_PATTERNS:
        for m in pat.finditer(lowered):
            y = int(m.group(1))
            if 1000 <= y <= 9999:
                years.append(y)
    for m in _MONTH_YEAR_RE.finditer(lowered):
        y = int(m.group(1))
        if 1850 <= y <= 2100:
            years.append(y)
    return max(years) if years else None


_MONTH_FORMS = [form(m) for m in _MONTHS for form in (str.lower, str.title, str.upper)]
_DAYS = ["1", "5", "09", "12", "31", "1st", "2nd", "3rd", "4th", "22nd", "11TH", "٣"]
_YEARS = ["099", "0999", "1000", "1756", "1849", "1850", "1999", "2010", "2100", "2101", "9999",
          "12345", "٢٠١٠", "2O10"]
_OTHER = ["-", "-01-02", "2010-01-02", "1700-01-01", "٢٠١٠-٠١-٠٢", "[", "]", "[2008]", "[1849]",
          ",", "İ", "_", "mayor", "xmay", "decided", "v", *_MONTH_FORMS[:6], *_DAYS[:4], *_YEARS]
_SEPARATORS = ["", " ", " ", "  ", ", ", ",", "\t", "\n", "\xa0", "\u2003", " , "]


def random_dated_text(rng: random.Random) -> str:
    """Up to five parts, each three times in four a month, day and year in one
    of the three shapes extract_latest_year looks for, from pieces that often
    break a shape; otherwise one to four other pieces."""
    parts = []
    for _ in range(rng.randint(1, 5)):
        month, day, year = rng.choice(_MONTH_FORMS), rng.choice(_DAYS), rng.choice(_YEARS)
        shape = rng.choice([[month, day, year], [day, month, year], [month, year], []])
        parts += shape or [rng.choice(_OTHER) for _ in range(rng.randint(1, 4))]
    return "".join(part + rng.choice(_SEPARATORS) for part in parts)


class TestExtractLatestYearAgainstFiveScans:
    @pytest.mark.parametrize("text, year", [
        ("decided 5 March 1756", 1756),  # a day-first date takes the wide window
        ("march 1700-01-01", 1700),
        ("xmay 5, 2010", None),
        ("mayor 2010", None),
        ("12th  december,  1999", 1999),
        ("june 1 ٢٠١٠", 2010),
    ])
    def test_pinned_cases(self, text, year):
        assert five_scan_latest_year(text) == year
        assert extract_latest_year(text) == year

    def test_equals_the_five_scans_on_random_texts(self):
        rng = random.Random(17)
        texts = [random_dated_text(rng) for _ in range(20_000)]
        expected = [five_scan_latest_year(t) for t in texts]
        assert sum(y is not None for y in expected) >= 0.3 * len(texts)
        for text, year in zip(texts, expected):
            assert extract_latest_year(text) == year, repr(text)


# Ids that break the node id rule, each with the start of its error's reason.
BAD_IDS = [
    pytest.param("", "empty id", id="empty"),
    pytest.param("a\tb", "id 'a\\\\tb' contains a tab, CR or LF", id="tab"),
    pytest.param("a\rb", "id 'a\\\\rb' contains a tab", id="CR"),
    pytest.param("a\nb", "id 'a\\\\nb' contains a tab", id="LF"),
    pytest.param("x" * 70_000, "id of 70,000 UTF-8 bytes is longer than 65,535",
                 id="70,000 bytes"),
    pytest.param("é" * 32_768, "id of 65,536 UTF-8 bytes is longer than 65,535",
                 id="65,536 bytes"),
    pytest.param("a\ud800", "id 'a\\\\ud800' is not valid Unicode", id="lone surrogate"),
]


class TestIngestCorpus:
    def _write_jsonl(self, path, records):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec) + "\n")

    def test_two_line_file_preserves_order(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        self._write_jsonl(
            p,
            [
                {"id": "q1", "text": "alpha beta"},
                {"id": "d1", "text": "gamma delta"},
            ],
        )
        store = ingest_corpus(p)
        assert store.n_cases == 2
        assert [c.id for c in store.cases] == ["q1", "d1"]
        assert store.cases[0].tokens == ("alpha", "beta")

    def test_duplicate_id_rejected(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        self._write_jsonl(p, [{"id": "a", "text": "x"}, {"id": "a", "text": "y"}])
        with pytest.raises(IngestError, match="duplicate"):
            ingest_corpus(p)

    def test_label_referencing_unknown_id(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        self._write_jsonl(
            p, [{"id": f"d{i}", "text": "t"} for i in range(9)] + [{"id": "q1", "text": "t"}]
        )
        lp = tmp_path / "labels.json"
        lp.write_text(json.dumps({"q1": ["d3", "d99"]}))
        with pytest.raises(LabelResolutionError,
                           match=f"^{lp}: label for query 'q1' references unknown id 'd99'$"):
            ingest_corpus(p, lp)

    @pytest.mark.parametrize("labels, message", [
        ({"d1": ["d2"]}, "label query id 'd1' is a case with role 'candidate', not a query"),
        ({"q1": ["d1", "q2"]},
         "label for query 'q1' references 'q2', a case with role 'query', not a candidate"),
        ({"q1": ["d1", "d2", "d1"]}, "label for query 'q1' lists 'd1' twice"),
    ], ids=["key a candidate", "positive a query", "positive twice"])
    def test_labels_that_break_the_rule_on_roles_name_the_labels_file(self, tmp_path, labels,
                                                                        message):
        p = tmp_path / "corpus.jsonl"
        self._write_jsonl(p, [{"id": "q1", "text": "t"}, {"id": "q2", "text": "t", "role": "query"},
                              {"id": "d1", "text": "t", "role": "candidate"},
                              {"id": "d2", "text": "t"}])
        lp = tmp_path / "labels.json"
        lp.write_text(json.dumps(labels))
        with pytest.raises(LabelResolutionError, match=f"^{lp}: {message}$") as info:
            ingest_corpus(p, lp)
        assert info.value.path == lp

    def test_malformed_line_reports_line_number(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        p.write_text('{"id": "a", "text": "x"}\n{broken\n')
        with pytest.raises(ParseError) as exc_info:
            ingest_corpus(p)
        assert exc_info.value.line_number == 2
        assert exc_info.value.path == p

    def test_missing_field_is_parse_error(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        self._write_jsonl(p, [{"id": "a"}])
        with pytest.raises(ParseError):
            ingest_corpus(p)

    def test_roles_from_labels_and_default(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        self._write_jsonl(
            p,
            [
                {"id": "q1", "text": "t"},
                {"id": "d1", "text": "t"},
                {"id": "d2", "text": "t", "role": "query"},
            ],
        )
        lp = tmp_path / "labels.json"
        lp.write_text(json.dumps({"q1": ["d1"]}))
        store = ingest_corpus(p, lp)
        roles = {c.id: c.role for c in store.cases}
        assert roles == {"q1": Role.QUERY, "d1": Role.CANDIDATE, "d2": Role.QUERY}
        assert store.labels == {"q1": ("d1",)}

    def test_unknown_role_rejected(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        self._write_jsonl(p, [{"id": "a", "text": "x", "role": "judge"}])
        with pytest.raises(ParseError):
            ingest_corpus(p)

    def test_year_extracted_during_ingestion(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        self._write_jsonl(p, [{"id": "a", "text": "decided January 2, 2011"}])
        assert ingest_corpus(p).cases[0].year == 2011

    def test_directory_adapter_maps_filenames_to_ids(self, tmp_path):
        d = tmp_path / "corpus"
        d.mkdir()
        (d / "001.txt").write_text("first case")
        (d / "002.txt").write_text("second case")
        store = ingest_corpus(d)
        assert [c.id for c in store.cases] == ["001.txt", "002.txt"]
        assert store.cases[1].tokens == ("second", "case")

    def test_invalid_utf8_is_parse_error_naming_the_file_and_line(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        p.write_bytes(b'{"id": "a", "text": "x"}\r\n\r\n{"id": "b", "text": "caf\xe9"}\n')
        with pytest.raises(ParseError, match=f"^line 3: {p} is not valid UTF-8") as info:
            ingest_corpus(p)
        assert info.value.line_number == 3

    def test_invalid_utf8_in_a_directory_file_names_it(self, tmp_path):
        (tmp_path / "a.txt").write_text("fine")
        (tmp_path / "b.txt").write_bytes(b"one\ntwo caf\xe9")
        with pytest.raises(ParseError, match=f"^line 2: {tmp_path / 'b.txt'} is not valid"):
            ingest_corpus(tmp_path)

    @pytest.mark.parametrize("bad, reason", BAD_IDS)
    def test_an_id_outside_the_node_id_rule_is_a_parse_error_naming_the_line(
            self, tmp_path, bad, reason):
        p = tmp_path / "corpus.jsonl"
        self._write_jsonl(p, [{"id": "a", "text": "x"}, {"id": bad, "text": "y"}])
        with pytest.raises(ParseError, match=f"^line 2: {p}: {reason}") as info:
            ingest_corpus(p)
        assert info.value.line_number == 2 and info.value.path == p

    def test_an_id_of_65535_bytes_is_kept(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        longest = "é" * 32_767 + "a"  # 65,535 UTF-8 bytes
        self._write_jsonl(p, [{"id": longest, "text": "x"}])
        assert ingest_corpus(p).cases[0].id == longest

    def test_a_file_name_with_a_tab_is_a_parse_error(self, tmp_path):
        d = tmp_path / "corpus"
        d.mkdir()
        (d / "a.txt").write_text("first case")
        named = d / "b\tc.txt"
        named.write_text("second case")
        with pytest.raises(ParseError) as info:
            ingest_corpus(d)
        assert str(info.value) == f"{named}: id 'b\\tc.txt' contains a tab, CR or LF"
        assert info.value.path == named and info.value.line_number is None

    def test_ingestion_is_deterministic(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        self._write_jsonl(
            p, [{"id": f"d{i}", "text": f"tok{i} shared"} for i in range(20)]
        )
        assert ingest_corpus(p) == ingest_corpus(p)


class TestLabels:
    def test_load_labels(self, tmp_path):
        lp = tmp_path / "labels.json"
        lp.write_text(json.dumps({"q1": ["d1", "d2"], "q2": []}))
        assert load_labels(lp) == {"q1": ("d1", "d2"), "q2": ()}

    def test_a_number_id_is_its_decimal_text(self, tmp_path):
        lp = tmp_path / "labels.json"
        lp.write_text('{"q1": [7, 2.5, "d1"]}')
        assert load_labels(lp) == {"q1": ("7", "2.5", "d1")}

    def test_a_boolean_id_is_rejected_even_where_its_repr_is_a_case_id(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"id": "q1", "text": "a", "role": "query"}\n'
                          '{"id": "True", "text": "b"}\n')
        lp = tmp_path / "labels.json"
        lp.write_text('{"q1": [true]}')
        with pytest.raises(ParseError, match=f"^{lp}: each label id for 'q1' must be a string "
                                             "or a number, not a boolean$"):
            ingest_corpus(corpus, lp)

    def test_non_object_rejected(self, tmp_path):
        lp = tmp_path / "labels.json"
        lp.write_text("[1, 2]")
        with pytest.raises(IngestError, match=f"^{lp}: file is not a JSON object$"):
            load_labels(lp)

    def test_non_list_values_rejected(self, tmp_path):
        lp = tmp_path / "labels.json"
        lp.write_text(json.dumps({"q1": "d1"}))
        with pytest.raises(IngestError, match=f"^{lp}: labels for 'q1' must be a list of ids$"):
            load_labels(lp)

    def test_a_repeated_key_is_parse_error_naming_the_file_and_the_key(self, tmp_path):
        lp = tmp_path / "labels.json"
        lp.write_text('{"q1": ["d1", "d2"], "q2": [], "q1": ["d3"]}')
        with pytest.raises(ParseError, match=f"^{lp}: repeated key 'q1'$"):
            load_labels(lp)

    def test_truncated_file_is_parse_error_naming_it(self, tmp_path):
        lp = tmp_path / "labels.json"
        lp.write_text('{\n  "q1": ["d1",\n')
        with pytest.raises(ParseError, match=f"^line 3: {lp}: invalid JSON"):
            load_labels(lp)


class TestChargeLexicon:
    def test_plain_text_lexicon(self, tmp_path):
        p = tmp_path / "lex.txt"
        p.write_text("judicial review\nimmigration appeal\n")
        entries = load_charge_lexicon(p)
        assert len(entries) == 2
        assert [e.name for e in entries] == ["judicial review", "immigration appeal"]

    def test_jsonl_lexicon(self, tmp_path):
        p = tmp_path / "lex.jsonl"
        p.write_text('{"id": "c1", "name": "tax evasion"}\n{"id": "c2", "name": "fraud"}\n')
        entries = load_charge_lexicon(p)
        assert [e.id for e in entries] == ["c1", "c2"]

    @pytest.mark.parametrize("bad, reason", BAD_IDS)
    def test_an_id_outside_the_node_id_rule_is_a_parse_error_naming_the_line(
            self, tmp_path, bad, reason):
        p = tmp_path / "lex.jsonl"
        lines = [{"id": "c1", "name": "fraud"}, {"id": bad, "name": "theft"}]
        p.write_text("".join(json.dumps(rec) + "\n" for rec in lines), encoding="utf-8")
        with pytest.raises(ParseError, match=f"^line 2: {p}: {reason}"):
            load_charge_lexicon(p)

    def test_duplicate_name_rejected(self, tmp_path):
        p = tmp_path / "lex.txt"
        p.write_text("x\n\nX\n")
        with pytest.raises(IngestError, match=f"^line 3: {p}: duplicate charge name 'X'$"):
            load_charge_lexicon(p)

    def test_duplicate_after_normalization_rejected(self, tmp_path):
        p = tmp_path / "lex.txt"
        p.write_text("Tax  Evasion\ntax evasion\n")
        with pytest.raises(IngestError):
            load_charge_lexicon(p)

    def test_names_with_the_same_tokens_are_duplicates(self, tmp_path):
        p = tmp_path / "lex.txt"
        p.write_text("Straße\nSTRASSE\n", encoding="utf-8")  # both tokenize to ["strasse"]
        with pytest.raises(IngestError):
            load_charge_lexicon(p)

    def test_name_without_letters_or_digits_rejected(self, tmp_path):
        p = tmp_path / "lex.jsonl"
        p.write_text('{"id": "c1", "name": "fraud"}\n{"id": "c2", "name": " -- "}\n')
        with pytest.raises(ParseError, match=f"^line 2: {p}: "):
            load_charge_lexicon(p)

    def test_invalid_utf8_is_parse_error_naming_the_file_and_line(self, tmp_path):
        p = tmp_path / "lex.txt"
        p.write_bytes(b"fraud\ntheft\nabus de confiance \xe0 autrui\n")
        with pytest.raises(ParseError, match=f"^line 3: {p} is not valid UTF-8"):
            load_charge_lexicon(p)

    def test_empty_lexicon_rejected(self, tmp_path):
        p = tmp_path / "lex.txt"
        p.write_text("\n\n")
        with pytest.raises(EmptyLexiconError):
            load_charge_lexicon(p)

    def test_normalize_charge_name(self):
        assert normalize_charge_name("  Judicial   Review ") == "judicial review"
        assert normalize_charge_name("Straße, STRASSE") == "strasse strasse"

    def test_ingest_corpus_attaches_the_lexicon(self, tmp_path):
        corpus, lexicon = tmp_path / "corpus.jsonl", tmp_path / "lex.jsonl"
        corpus.write_text('{"id": "a", "text": "text"}\n')
        lexicon.write_text('{"id": "c1", "name": "fraud"}\n{"id": "c2", "name": "theft"}\n')
        store = ingest_corpus(corpus, None, lexicon)
        assert store.charges == (ChargeEntry(id="c1", name="fraud"),
                                 ChargeEntry(id="c2", name="theft"))
        assert store.cases == ingest_corpus(corpus).cases
        assert store.node_ids == ("a", "c1", "c2")


class TestCorpusStore:
    def test_query_candidate_split(self):
        store = make_store(
            [
                ("q1", "alpha", Role.QUERY),
                ("d1", "beta", Role.CANDIDATE),
                ("d2", "gamma", Role.CANDIDATE),
            ]
        )
        assert [c.id for c in store.queries()] == ["q1"]
        assert [c.id for c in store.candidates()] == ["d1", "d2"]

    def test_case_index_matches_order(self):
        store = make_store([("b", "x"), ("a", "y"), ("c", "z")])
        assert store.case_index() == {"b": 0, "a": 1, "c": 2}

    def test_node_ids_are_the_cases_then_the_charges(self):
        store = make_store([("b", "x"), ("a", "y")], charges=[("z", "fraud"), ("c", "theft")])
        assert store.node_ids == ("b", "a", "z", "c")
        assert dataclasses.replace(store, charges=()).node_ids == ("b", "a")

    @pytest.mark.parametrize("cases, charges, shared", [
        (["a", "b", "a"], [], "a"),
        (["a", "b"], ["x", "y", "x"], "x"),
        (["a", "b"], ["x", "b"], "b"),
    ], ids=["case twice", "charge twice", "charge as a case"])
    def test_a_shared_node_id_is_rejected(self, cases, charges, shared):
        with pytest.raises(IngestError, match=f"^duplicate node id {shared!r}: "):
            make_store([(c, "text") for c in cases],
                       charges=[(c, f"name {i}") for i, c in enumerate(charges)])

    @pytest.mark.parametrize("labels, message", [
        ({"q1": ("d1",), "ghost": ("d1",)}, "label query id 'ghost' not in corpus"),
        ({"d1": ("d2",)}, "label query id 'd1' is a case with role 'candidate', not a query"),
        ({"q1": ("d1", "d9")}, "label for query 'q1' references unknown id 'd9'"),
        ({"q1": ("d1", "q2")},
         "label for query 'q1' references 'q2', a case with role 'query', not a candidate"),
        ({"q1": ("fraud",)}, "label for query 'q1' references unknown id 'fraud'"),
        ({"q1": ("d1",), "q2": ("d2", "d1", "d2")}, "label for query 'q2' lists 'd2' twice"),
    ], ids=["key unknown", "key a candidate", "positive unknown", "positive a query",
            "positive a charge", "positive twice"])
    def test_labels_are_checked_against_the_roles(self, labels, message):
        store = make_store([("q1", "a", Role.QUERY), ("q2", "b", Role.QUERY), ("d1", "c"),
                            ("d2", "d")], charges=[("fraud", "fraud")], labels={"q1": ("d1",)})
        assert dataclasses.replace(store, labels={"q1": (), "q2": ("d1", "d2")}).labels
        with pytest.raises(LabelResolutionError, match=f"^{message}$"):
            dataclasses.replace(store, labels=labels)

    def test_a_plain_lexicon_id_can_clash_with_a_jsonl_one(self, tmp_path):
        p = tmp_path / "lex.txt"
        p.write_text('{"id": "charge_1", "name": "fraud"}\ntheft\n')
        charges = load_charge_lexicon(p)
        assert [c.id for c in charges] == ["charge_1", "charge_1"]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"id": "a", "text": "text"}\n')
        with pytest.raises(IngestError, match="duplicate node id 'charge_1'"):
            ingest_corpus(corpus, None, p)


class TestReadText:
    def test_newlines_are_translated_as_path_read_text_does(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_bytes("a\r\nb\rc\u2028d\n".encode("utf-8"))
        assert read_text(p) == p.read_text(encoding="utf-8") == "a\nb\nc\u2028d\n"

    @pytest.mark.parametrize("data, line", [
        (b"\xff", 1), (b"ab\ncd\xe9", 2), (b"a\r\nb\r\n\xe9", 3), (b"a\rb\r\xe9", 3),
    ])
    def test_invalid_utf8_names_the_file_and_line(self, tmp_path, data, line):
        p = tmp_path / "f.txt"
        p.write_bytes(data)
        with pytest.raises(ParseError, match=f"^line {line}: {p} is not valid UTF-8"):
            read_text(p)


class TestReplaced:
    @staticmethod
    def writer(text):
        return lambda path: path.write_text(text)

    def test_every_file_is_renamed_into_place_after_the_block(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "sub" / "b.txt"
        a.write_text("old")
        with replaced({a: self.writer("new a"), b: self.writer("new b")}):
            assert a.read_text() == "old" and not b.exists()
            assert sorted(p.name for p in tmp_path.rglob("*.tmp")) == ["a.txt.tmp", "b.txt.tmp"]
        assert (a.read_text(), b.read_text()) == ("new a", "new b")
        assert list(tmp_path.rglob("*.tmp")) == []

    @pytest.mark.parametrize("failing", ["writer", "block"])
    def test_a_raise_leaves_no_tmp_file_and_replaces_no_file(self, tmp_path, failing):
        a, b, c = (tmp_path / name for name in ("a.txt", "b.txt", "c.txt"))
        a.write_text("old a")
        b.write_text("old b")

        def fails(path):
            path.write_text("torn")
            raise OSError("No space left on device")

        writers = {a: self.writer("new a"), b: fails if failing == "writer" else self.writer("new b"),
                   c: self.writer("new c")}
        with pytest.raises(OSError if failing == "writer" else KeyError):
            with replaced(writers):
                raise KeyError("block")
        assert (a.read_text(), b.read_text()) == ("old a", "old b")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.txt"]


class TestLinesAndObjects:
    def test_lines_are_split_on_newlines_only_and_blank_ones_skipped(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_bytes("a\r\n  \r\nb\u2028c\x0cd\n\n e \n".encode("utf-8"))
        assert list(iter_lines(p)) == [(1, "a"), (3, "b\u2028c\x0cd"), (5, " e ")]

    def test_a_file_that_is_not_json_names_the_line_of_the_fault(self, tmp_path):
        p = tmp_path / "f.json"
        with pytest.raises(ParseError, match=f"^line 2: {p}: invalid JSON: ") as info:
            decode_object('{"a": 1,\n}', p)
        assert (info.value.line_number, info.value.path) == (2, p)

    @pytest.mark.parametrize("error", [ParseError, IngestError])
    def test_a_value_that_is_not_an_object_raises_the_given_error(self, tmp_path, error):
        with pytest.raises(error, match=f"^{tmp_path}: file is not a JSON object$"):
            decode_object("[1]", tmp_path, error=error)
        with pytest.raises(error, match=f"^line 7: {tmp_path}: line is not a JSON object$"):
            decode_object("7", tmp_path, 7, error=error)

    def test_a_key_twice_in_a_file_is_rejected_at_any_depth(self, tmp_path):
        for text, key in [('{"a": 1, "b": 2, "a": 3}', "a"),
                          ('{"a": [{"x": 1}, {"y": {"z": 1, "z": 1}}]}', "z")]:
            with pytest.raises(ParseError, match=f"^{tmp_path}: repeated key {key!r}$"):
                decode_object(text, tmp_path)
        assert decode_object('{"a": {"a": 1}, "b": {"a": 2}}', tmp_path) == {
            "a": {"a": 1}, "b": {"a": 2}}
        # a JSONL line is decoded as json.loads does, the last value winning
        assert decode_object('{"a": 1, "a": 3}', tmp_path, 2) == {"a": 3}

    def test_a_line_without_a_required_key(self, tmp_path):
        assert decode_object('{"id": "a"}', tmp_path, 4, ("id",)) == {"id": "a"}
        with pytest.raises(ParseError, match=f"^line 4: {tmp_path}: missing required field "
                                             "'id' or 'text'$"):
            decode_object('{"id": "a"}', tmp_path, 4, ("id", "text"))

    def test_a_null_charge_name_names_the_file_and_line(self, tmp_path):
        p = tmp_path / "lex.txt"
        p.write_text('fraud\n{"id": "c1", "name": null}\n')
        with pytest.raises(ParseError, match=f"^line 2: {p}: 'name' must be a string or a "
                                             "number, not null$"):
            load_charge_lexicon(p)

    def test_a_number_charge_name_is_its_decimal_text(self, tmp_path):
        p = tmp_path / "lex.txt"
        p.write_text('fraud\n{"id": "c1", "name": 5}\n')
        assert [ch.name for ch in load_charge_lexicon(p)] == ["fraud", "5"]
