"""Framing of the four binary formats (``BM25``, ``EMB1``, ``GCG1``, ``GATC``):
a 4-byte magic, an optional u32 version, then little-endian fields. Loaders
read through :func:`read_container`, which bounds every read by the bytes left
in the file, so a corrupt length field is reported as truncation before
anything is allocated. :func:`record` checks a JSON record against its dataclass."""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import reprlib
import struct
import types
import typing
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import CaseLinkError, IngestError


def pack(fmt: str, *values) -> bytes:
    """Little-endian ``struct.pack``."""
    return struct.pack("<" + fmt, *values)


def pack_record(obj) -> bytes:
    """The fields of the dataclass ``obj`` as compact, key-sorted UTF-8 JSON
    prefixed by its u32 byte length: what :meth:`Reader.json` and :func:`record`
    read back. The field values are not copied."""
    fields = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    data = json.dumps(fields, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return pack("I", len(data)) + data


def pack_text(text: str) -> bytes:
    """A UTF-8 string prefixed by its u16 byte length."""
    data = text.encode("utf-8")
    return pack("H", len(data)) + data


class Reader:
    """Reads the fields of one container file in order."""

    def __init__(self, path, data: bytes):
        self.path, self.data, self.pos = path, memoryview(data), 0

    def _take(self, n: int) -> memoryview:
        left = len(self.data) - self.pos
        if not 0 <= n <= left:
            raise IngestError(f"truncated: wanted {n} bytes, got {left}", path=self.path)
        self.pos += n
        return self.data[self.pos - n : self.pos]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack("<" + fmt, self._take(struct.calcsize("<" + fmt)))

    def array(self, dtype: str, count: int) -> np.ndarray:
        """``count`` items of ``dtype`` (such as ``"<u4"``) as a read-only view."""
        dtype = np.dtype(dtype)
        return np.frombuffer(self._take(dtype.itemsize * count), dtype=dtype)

    def _utf8(self, n: int, what: str) -> str:
        at = self.pos
        try:
            return str(self._take(n), "utf-8")
        except UnicodeDecodeError as exc:
            raise IngestError(f"the {what} at byte {at} is not valid UTF-8 "
                              f"({exc.reason} at byte {at + exc.start})", path=self.path) from None

    def json(self):
        """A u32-length-prefixed UTF-8 JSON block. Like every field, one that does
        not decode is an IngestError naming the file."""
        (n,) = self.unpack("I")
        at = self.pos
        try:
            return json.loads(self._utf8(n, "JSON block"))
        except json.JSONDecodeError as exc:
            raise IngestError(f"the JSON block at byte {at} is not valid JSON "
                              f"({exc.msg} at char {exc.pos})", path=self.path) from None

    def text(self) -> str:
        """A u16-length-prefixed UTF-8 string."""
        (n,) = self.unpack("H")
        return self._utf8(n, "text")


@contextlib.contextmanager
def read_container(path: str | Path, magic: bytes, what: str, error: type[CaseLinkError],
                   version: int | None = None) -> Iterator[Reader]:
    """Yield a :class:`Reader` past the magic and the optional u32 version.

    A wrong magic or version raises ``error``, and so does a ValueError raised
    in the block, as ``error(message, path=path)`` (its text reads
    ``<path>: <message>``); a read past the end of the file, or bytes left over
    when the block exits, raises IngestError, with the path in the same way.
    """
    r = Reader(path, Path(path).read_bytes())
    if r.unpack("4s") != (magic,):
        raise error(f"not a valid {what}", path=path)
    if version is not None:
        (found,) = r.unpack("I")
        if found != version:
            raise error(f"unsupported {what} version {found}", path=path)
    try:
        yield r
    except ValueError as exc:
        raise error(str(exc), path=path) from None
    if r.pos < len(r.data):
        raise IngestError(f"{len(r.data) - r.pos} trailing bytes", path=path)


# The annotations record() can check, each with its name in errors and its test.
_KINDS = {
    int: ("an integer", lambda v: isinstance(v, int)),
    float: ("a number", lambda v: isinstance(v, (int, float))),
    str: ("a string", lambda v: isinstance(v, str)),
    Path: ("a path string", lambda v: isinstance(v, str)),
    list[str]: ("a list of strings",
                lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v)),
}


@functools.cache  # build_parser asks once per subcommand
def field_kinds(cls) -> dict[str, tuple[type, bool, bool]]:
    """Per field of the dataclass ``cls``: (kind, nullable, required). The kind, the
    annotation less ``| None``, must be a ``_KINDS`` key: ``bool`` is a TypeError."""
    hints, out = typing.get_type_hints(cls), {}
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        args = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
        kinds = [a for a in args if a is not type(None)]
        if len(kinds) != 1 or kinds[0] not in _KINDS:
            raise TypeError(f"{cls.__name__}.{f.name}: record() cannot check {hint}")
        out[f.name] = (kinds[0], len(kinds) < len(args),
                       f.default is f.default_factory is dataclasses.MISSING)
    return out


def record(cls, values, error: type[Exception], where: str, aliases: dict | None = None) -> dict:
    """The JSON object ``values`` checked against the dataclass ``cls``, keyed by
    field name (``aliases`` maps a key as written to one), each value converted to
    its field's kind. An int passes for a float, null only for ``X | None``, a bool
    for nothing; any other misfit, an unknown key or a missing field without a
    default raises ``error`` naming the key as written after ``where``."""
    if not isinstance(values, dict):
        raise error(f"{where} is not a JSON object")
    kinds, out = field_kinds(cls), {}
    for key, value in values.items():
        name = (aliases or {}).get(key, key)
        if name not in kinds:
            raise error(f"{where} has an unknown key {key!r}")
        kind, nullable, _ = kinds[name]
        try:
            if value is not None or not nullable:
                if isinstance(value, bool) or not _KINDS[kind][1](value):
                    raise TypeError
                value = kind(value)  # OverflowError for an int past the float range
        except (TypeError, OverflowError):
            raise error(f"{where} {key!r} is not {_KINDS[kind][0]}{' or null' * nullable} "
                        f"(got {reprlib.repr(value)})") from None
        out[name] = value
    for name, (kind, _, required) in kinds.items():
        if required and name not in out:
            raise error(f"{where} {name!r} is not {_KINDS[kind][0]} (missing)")
    return out
