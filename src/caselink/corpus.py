"""Corpus ingestion: case documents, charge lexicon, tokenization, trial years.

Input formats:
  corpus  -- JSONL, one object per line: {"id": str, "text": str, "role": "query"|"candidate"?}
             (or a directory of text files; file name -> id, body -> text);
             a numeric id is read as its string
  ids     -- every corpus and lexicon id: non-empty, no tab, CR or LF, at most
             65,535 UTF-8 bytes (:func:`node_id_field`)
  labels  -- JSON object: query id -> list of relevant candidate ids, each listed once
  charges -- plain text (one charge name per line) or JSONL {"id": ..., "name": ...}

:func:`ingest_corpus` reads a run's corpus, labels and lexicon into its one store.
Text inputs are read through :func:`read_text`, :func:`iter_lines` and :func:`decode_object`,
so every fault in one is an error naming the file and the line; JSON files are written
through :func:`write_json`, JSONL files through :func:`write_jsonl`.
Every file the package writes reaches its name through :func:`replaced`, the one
commit: a ``.tmp`` sibling, renamed into place with the files committed beside it.
"""

from __future__ import annotations

import contextlib
import enum
import json
import os
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

from .errors import (
    EmptyLexiconError,
    IngestError,
    LabelError,
    LabelResolutionError,
    ParseError,
)

_TOKEN_RE = re.compile(r"[^\W_]+")  # runs of Unicode letters and digits
# Every ASCII character that is not a letter or a digit, mapped to a space.
_ASCII_SEPARATORS = str.maketrans({c: " " for c in map(chr, range(128)) if not c.isalnum()})

_MONTHS = (
    "january february march april may june july august september october november december"
).split()
_MONTH_ALT = "|".join(_MONTHS)

# Date patterns scanned by extract_latest_year. Year plausibility windows:
# explicit dates accept [1000, 9999]; a bare year following a month name is
# restricted to [1850, 2100] to avoid picking up citation numbers.
_DATE_PATTERNS = (
    # "January 5, 2010" / "january 5 2010"
    re.compile(rf"\b(?:{_MONTH_ALT})\s+\d{{1,2}}(?:st|nd|rd|th)?\s*,?\s+(\d{{4}})\b"),
    # "5 January 2010"
    re.compile(rf"\b\d{{1,2}}(?:st|nd|rd|th)?\s+(?:{_MONTH_ALT})\s*,?\s+(\d{{4}})\b"),
    # ISO 8601 date
    re.compile(r"\b(\d{4})-\d{2}-\d{2}\b"),
    # neutral-citation year "[2010]"
    re.compile(r"\[(\d{4})\]"),
)
# bare year directly following a month name ("March 2010")
_MONTH_YEAR_RE = re.compile(rf"\b(?:{_MONTH_ALT})\s*,?\s+(\d{{4}})\b")


class Role(enum.Enum):
    QUERY = "query"
    CANDIDATE = "candidate"


@dataclass(frozen=True)
class CaseDocument:
    """One legal case: raw text plus derived tokens, year, and query/candidate role."""

    id: str
    text: str
    tokens: tuple[str, ...]
    year: int | None
    role: Role

    @classmethod
    def from_text(cls, case_id: str, text: str, role: Role) -> CaseDocument:
        """The case of ``text``: its tokens by :func:`tokenize` and its year by
        :func:`extract_latest_year`, the one place either is derived from a text."""
        return cls(case_id, text, tuple(tokenize(text)), extract_latest_year(text), role)


@dataclass(frozen=True)
class ChargeEntry:
    """A charge name from the lexicon and its node id; its vector is looked up
    by that id in the embedding table."""

    id: str
    name: str


@dataclass(frozen=True)
class CorpusStore:
    """Immutable corpus. ``node_ids``, the cases and then the charges, is the canonical
    node order; an id in it twice is an IngestError naming it. A ``labels`` key that is no
    query, or a positive that is no candidate or is twice in one list, is a LabelResolutionError."""

    cases: tuple[CaseDocument, ...]
    charges: tuple[ChargeEntry, ...] = ()
    labels: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    node_ids: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ids = tuple(c.id for c in self.cases) + tuple(ch.id for ch in self.charges)
        repeated = [node_id for node_id, count in Counter(ids).items() if count > 1]
        if repeated:
            raise IngestError(f"duplicate node id {repeated[0]!r}: no two cases or charges "
                              "may share an id")
        object.__setattr__(self, "node_ids", ids)
        roles = {c.id: c.role for c in self.cases}
        for qid, positives in self.labels.items():
            if roles.get(qid) is not Role.QUERY:
                raise LabelResolutionError(f"label query id {qid!r} " + (
                    "not in corpus" if qid not in roles
                    else f"is a case with role {roles[qid].value!r}, not a query"))
            for rid in positives:
                if roles.get(rid) is not Role.CANDIDATE:
                    raise LabelResolutionError(f"label for query {qid!r} references " + (
                        f"unknown id {rid!r}" if rid not in roles
                        else f"{rid!r}, a case with role {roles[rid].value!r}, not a candidate"))
            if len(set(positives)) < len(positives):
                rid = next(r for i, r in enumerate(positives) if r in positives[:i])
                raise LabelResolutionError(f"label for query {qid!r} lists {rid!r} twice")

    @property
    def n_cases(self) -> int:
        return len(self.cases)

    @property
    def n_charges(self) -> int:
        return len(self.charges)

    def case_index(self) -> dict[str, int]:
        return {c.id: i for i, c in enumerate(self.cases)}

    def queries(self) -> tuple[CaseDocument, ...]:
        return tuple(c for c in self.cases if c.role is Role.QUERY)

    def candidates(self) -> tuple[CaseDocument, ...]:
        return tuple(c for c in self.cases if c.role is Role.CANDIDATE)


def tokenize(text: str) -> list[str]:
    """Casefold and split on runs of characters that are not Unicode letters or digits.

    ASCII text takes a path without the regex, with equal tokens: there
    ``casefold()`` is ``lower()``, and ``[^\\W_]`` matches exactly the characters
    for which ``str.isalnum()`` holds, so turning every other character into a
    space and splitting on whitespace leaves the regex's runs."""
    if text.isascii():
        return text.lower().translate(_ASCII_SEPARATORS).split()
    return _TOKEN_RE.findall(text.casefold())


def extract_latest_year(text: str) -> int | None:
    """Return the largest plausible year mentioned in ``text``, or None.

    Recognizes long-form English dates, ISO dates, bracketed citation years,
    and bare years following month names.
    """
    # The long-form and month-year patterns start at a month name, so they are
    # tried only where str.find puts one, and every day-first match ends in the
    # month-year match of its month. match(s, pos) checks \b against the real
    # preceding character and no pattern's matches overlap, so this finds what
    # a finditer scan of the whole text per pattern would.
    lowered = text.lower()
    explicit: list[int] = []  # plausible in [1000, 9999]
    month_year: list[int] = []  # plausible in [1850, 2100]
    for sign, pat in (("-", _DATE_PATTERNS[2]), ("[", _DATE_PATTERNS[3])):
        if sign in lowered:
            explicit += (int(m.group(1)) for m in pat.finditer(lowered))
    for month in _MONTHS:
        pos = lowered.find(month)
        while pos >= 0:
            if m := _DATE_PATTERNS[0].match(lowered, pos):
                explicit.append(int(m.group(1)))
            if m := _MONTH_YEAR_RE.match(lowered, pos):
                (explicit if _follows_day(lowered, pos) else month_year).append(int(m.group(1)))
            pos = lowered.find(month, pos + 1)
    years = [y for y in explicit if 1000 <= y <= 9999]
    years += (y for y in month_year if 1850 <= y <= 2100)
    return max(years, default=None)


def _follows_day(lowered: str, pos: int) -> bool:
    """Whether the day-first pattern matches with its month at ``pos``: its
    day and suffix, at most 4 characters, end where the whitespace before
    ``pos`` begins."""
    start = pos
    while start and lowered[start - 1].isspace():
        start -= 1
    return start < pos and any(_DATE_PATTERNS[1].match(lowered, s)
                               for s in range(max(start - 4, 0), start))


def read_text(path: str | Path) -> str:
    """The UTF-8 text of a file, newlines translated to ``"\\n"`` as
    ``Path.read_text`` does. Bytes that are not UTF-8 are a ParseError naming
    the file and the line they are on."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = _newlines(data[:exc.start].decode("utf-8")).count("\n") + 1
        raise ParseError(f"{path} is not valid UTF-8 ({exc.reason} at byte {exc.start})",
                         line_number=line) from None
    return _newlines(text)


def write_json(path: str | Path, obj) -> None:
    """Write ``obj`` to ``path`` as UTF-8 JSON: keys sorted, indented by 2, one
    final newline. Every JSON file the package writes is written here."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    """Write each record to ``path`` as one line of UTF-8 JSON, keys sorted.
    Every JSONL file the package writes is written here."""
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(rec, sort_keys=True) + "\n" for rec in records)


@contextlib.contextmanager
def replaced(writers: Mapping[Path, Callable[[Path], object]]) -> Iterator[None]:
    """Commit the files ``writers`` maps, ``path -> writer``: each writer writes
    its file's ``.tmp`` sibling (directories made), then the block runs, then
    every file is renamed into place. If a writer or the block raises, the
    ``.tmp`` files are removed and no file is replaced."""
    tmps = {path: path.with_name(path.name + ".tmp") for path in writers}
    try:
        for path, write in writers.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            write(tmps[path])
        yield
    except BaseException:
        for tmp in tmps.values():
            tmp.unlink(missing_ok=True)
        raise
    for path, tmp in tmps.items():
        os.replace(tmp, path)


def _newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


def iter_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield (line number, line) per non-blank line of a text file: its
    :func:`read_text` split on ``"\\n"`` only, numbered from 1."""
    for i, line in enumerate(read_text(path).split("\n"), start=1):
        if line.strip():
            yield i, line


def _unique_keys(pairs: list[tuple[str, object]], path) -> dict:
    """The JSON object of ``pairs``; a key in it twice is a ParseError naming ``path``."""
    if len(value := dict(pairs)) < len(pairs):
        repeated = next(key for key, n in Counter(key for key, _ in pairs).items() if n > 1)
        raise ParseError(f"repeated key {repeated!r}", path=path)
    return value


def decode_object(text: str, path, line_number: int | None = None,
                  required: tuple[str, ...] = (), error: type[Exception] = ParseError) -> dict:
    """``text``, a whole file or its line ``line_number``, as a JSON object holding
    every ``required`` key. Text that is not JSON, or lacks a key, is a ParseError
    and JSON that is not an object raises ``error``, each naming the file and line.
    A key twice in an object of a whole file is a ParseError (a JSONL line skips the
    check, which would double its decode time)."""
    try:
        value = json.loads(text, object_pairs_hook=None if line_number is not None
                           else lambda pairs: _unique_keys(pairs, path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg} at column {exc.colno}",
                         line_number or exc.lineno, path) from None
    if not isinstance(value, dict):
        raise error(f"{'file' if line_number is None else 'line'} is not a JSON object",
                    line_number, path)
    if not all(key in value for key in required):
        raise ParseError(f"missing required field {' or '.join(map(repr, required))}",
                         line_number, path)
    return value


_JSON_KINDS = {type(None): "null", bool: "a boolean", int: "a number", float: "a number",
               list: "an array", dict: "an object"}


def json_string(value, what: str, line_number: int | None, path, numbers: bool = True) -> str:
    """A decoded JSON value as a str: a string as it is and, with ``numbers``,
    a number as its decimal text. Any other value (null, true or false, an
    array or an object) is a ParseError naming the file, the line and ``what``."""
    if isinstance(value, str) or (numbers and _JSON_KINDS[type(value)] == "a number"):
        return str(value)
    raise ParseError(f"{what} must be a string{' or a number' if numbers else ''}, "
                     f"not {_JSON_KINDS[type(value)]}", line_number, path)


def string_field(rec: dict, key: str, line_number: int | None, path, numbers: bool = True) -> str:
    """``rec[key]`` as :func:`json_string` reads it, named by its key."""
    return json_string(rec[key], repr(key), line_number, path, numbers)


# A node id's UTF-8 bytes carry a u16 length in an EMB1 record.
_MAX_ID_BYTES = 65_535


def node_id_field(rec: dict, line_number: int | None, path) -> str:
    """``rec["id"]`` as :func:`string_field` reads it, held to the one rule for
    a node id: non-empty, no tab, CR or LF (the field and line separators of
    a run file), and at most 65,535 UTF-8 bytes. Anything else is a
    ParseError naming the file and the line."""
    cid = string_field(rec, "id", line_number, path)
    if not cid:
        raise ParseError("empty id", line_number, path)
    try:
        size = len(cid.encode("utf-8"))
    except UnicodeEncodeError:  # a lone surrogate, which JSON can escape
        raise ParseError(f"id {cid!r} is not valid Unicode", line_number, path) from None
    if size > _MAX_ID_BYTES:
        raise ParseError(f"id of {size:,} UTF-8 bytes is longer than {_MAX_ID_BYTES:,}",
                         line_number, path)
    if "\t" in cid or "\r" in cid or "\n" in cid:
        raise ParseError(f"id {cid!r} contains a tab, CR or LF", line_number, path)
    return cid


def load_labels(path: str | Path) -> dict[str, tuple[str, ...]]:
    """Load a labels file: JSON object mapping query id -> relevant candidate ids.
    A file that is not UTF-8 JSON is a ParseError, one not such an object an IngestError.
    Each id is read by :func:`json_string`, as a JSONL id is: a number is its
    decimal text, and any other value that is not a string is a ParseError
    naming the query."""
    labels: dict[str, tuple[str, ...]] = {}
    for qid, rel in decode_object(read_text(path), path, error=IngestError).items():
        if not isinstance(rel, list):
            raise IngestError(f"labels for {qid!r} must be a list of ids", path=path)
        labels[qid] = tuple(json_string(r, f"each label id for {qid!r}", None, path) for r in rel)
    return labels


def check_labelled(query_ids: Iterable[str], labels: Mapping[str, tuple[str, ...]],
                   labels_path, path=None) -> None:
    """Raise LabelError unless every query of ``query_ids`` is a key of the
    ``labels`` read from ``labels_path``; the error names ``path``, where the
    queries were read, and up to five missing queries. ``pipeline`` and
    ``eval`` score by this one rule: an unlabelled query's retrieved ids
    could only count as misses."""
    missing = sorted(set(query_ids) - set(labels))
    if missing:
        raise LabelError(f"queries missing from the labels in {labels_path}: {missing[:5]}",
                         path=path)


def iter_records(
    path: Path, required: tuple[str, ...],
) -> Iterator[tuple[int | None, Path, dict]]:
    """Yield (line_number, file, record) per non-blank line of a JSONL file, or
    (None, file, ``{"id": file name, "text": its body}``) per file of a text
    directory, so an error about a record names the file it came from. A line
    that is not a JSON object holding every ``required`` key is a ParseError."""
    if path.is_dir():
        for p in sorted(path.iterdir()):
            if p.is_file():
                yield None, p, {"id": p.name, "text": read_text(p)}
        return
    for i, line in iter_lines(path):
        yield i, path, decode_object(line, path, i, required)


def ingest_corpus(
    corpus_path: str | Path,
    labels_path: str | Path | None = None,
    lexicon_path: str | Path | None = None,
) -> CorpusStore:
    """Read a corpus file (JSONL or directory), labels and lexicon into one CorpusStore.

    Roles: an explicit "role" field wins; otherwise ids on the query side of
    the labels file become queries and everything else is a candidate.
    """
    corpus_path = Path(corpus_path)
    labels = load_labels(labels_path) if labels_path is not None else {}

    cases: list[CaseDocument] = []
    for line_no, where, rec in iter_records(corpus_path, ("id", "text")):
        cid = node_id_field(rec, line_no, where)
        text = string_field(rec, "text", line_no, where, numbers=False)

        explicit = rec.get("role")
        if explicit is not None:
            try:
                role = Role(str(explicit).lower())
            except ValueError:
                raise ParseError(f"unknown role {explicit!r}", line_no, where) from None
        else:
            role = Role.QUERY if cid in labels else Role.CANDIDATE

        cases.append(CaseDocument.from_text(cid, text, role))

    charges = load_charge_lexicon(lexicon_path) if lexicon_path is not None else ()
    try:
        return CorpusStore(cases=tuple(cases), charges=charges, labels=labels)
    except LabelResolutionError as exc:
        raise LabelResolutionError(exc.message, path=labels_path) from None


def normalize_charge_name(name: str) -> str:
    """The name's tokens joined by single spaces: the one key on which charge
    names are deduplicated and matched against case text."""
    return " ".join(tokenize(name))


def load_charge_lexicon(path: str | Path) -> tuple[ChargeEntry, ...]:
    """Load the charge lexicon: plain text (one name per line) or JSONL {"id","name"}."""
    path = Path(path)
    entries: list[ChargeEntry] = []
    seen: set[str] = set()
    for i, line in iter_lines(path):
        cid, name = f"charge_{len(entries)}", line.strip()
        if name.startswith("{"):
            rec = decode_object(name, path, i, ("name",))
            cid = node_id_field(rec, i, path) if "id" in rec else cid
            name = string_field(rec, "name", i, path)
        name = " ".join(name.split())
        key = normalize_charge_name(name)
        if not key:
            raise ParseError(f"charge name {name!r} has no letters or digits", i, path)
        if key in seen:
            raise IngestError(f"duplicate charge name {name!r}", i, path)
        seen.add(key)
        entries.append(ChargeEntry(id=cid, name=name))
    if not entries:
        raise EmptyLexiconError("charge lexicon is empty", path=path)
    return tuple(entries)
