"""Framing of the four binary formats (``BM25``, ``EMB1``, ``GCG1``, ``GATC``):
a 4-byte magic, an optional u32 version, then little-endian fields. Loaders
read through :func:`read_container`, which bounds every read by the bytes left
in the file, so a corrupt length field is reported as truncation before
anything is allocated."""

from __future__ import annotations

import contextlib
import json
import struct
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import IngestError


def pack(fmt: str, *values) -> bytes:
    """Little-endian ``struct.pack``."""
    return struct.pack("<" + fmt, *values)


def pack_json(obj) -> bytes:
    """Compact, key-sorted UTF-8 JSON prefixed by its u32 byte length."""
    data = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
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
            raise IngestError(f"{self.path} is truncated: wanted {n} bytes, got {left}")
        self.pos += n
        return self.data[self.pos - n : self.pos]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack("<" + fmt, self._take(struct.calcsize("<" + fmt)))

    def array(self, dtype: str, count: int) -> np.ndarray:
        """``count`` items of ``dtype`` (such as ``"<u4"``) as a read-only view."""
        dtype = np.dtype(dtype)
        return np.frombuffer(self._take(dtype.itemsize * count), dtype=dtype)

    def json(self):
        (n,) = self.unpack("I")
        return json.loads(bytes(self._take(n)))

    def text(self) -> str:
        (n,) = self.unpack("H")
        return str(self._take(n), "utf-8")


@contextlib.contextmanager
def read_container(path: str | Path, magic: bytes, what: str, error: type[Exception],
                   version: int | None = None) -> Iterator[Reader]:
    """Yield a :class:`Reader` past the magic and the optional u32 version.

    A wrong magic or version raises ``error``; a read past the end of the file,
    or bytes left over when the block exits, raises IngestError.
    """
    r = Reader(path, Path(path).read_bytes())
    if r.unpack("4s") != (magic,):
        raise error(f"{path} is not a valid {what}")
    if version is not None:
        (found,) = r.unpack("I")
        if found != version:
            raise error(f"{path}: unsupported {what} version {found}")
    yield r
    if r.pos < len(r.data):
        raise IngestError(f"{path} has {len(r.data) - r.pos} trailing bytes")
