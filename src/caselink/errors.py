"""Exception types shared across the caselink package."""

from __future__ import annotations


def located(message: str, line_number: int | None = None, path=None) -> str:
    """``message`` as ``line N: <path>: <message>``, leaving out a part that is None."""
    where = "" if path is None else f"{path}: "
    return where + message if line_number is None else f"line {line_number}: {where}{message}"


class CaseLinkError(Exception):
    """Base class for all caselink errors; one about an input file names its path and line."""

    def __init__(self, message: str, line_number: int | None = None, path=None):
        super().__init__(located(message, line_number, path))
        self.message, self.line_number, self.path = message, line_number, path


class IngestError(CaseLinkError):
    """Corpus or lexicon input violates a uniqueness/shape constraint."""


class ParseError(CaseLinkError):
    """An input file could not be parsed."""


class LabelResolutionError(CaseLinkError):
    """A label file references an id that is not in the corpus."""


class EmptyLexiconError(CaseLinkError):
    """The charge lexicon file contains no entries."""


class EmptyCorpusError(CaseLinkError):
    """An operation requires at least one document."""


class DimensionError(CaseLinkError):
    """Vector/matrix dimensions are inconsistent."""


class DimMismatchError(DimensionError):
    """A vector read or fetched has another dim than the one the run expects."""


class MissingEmbeddingError(CaseLinkError):
    """A node id has no embedding vector."""


class GraphConstructionError(CaseLinkError):
    """An adjacency block violates symmetry/binarity requirements."""


class NumericalError(CaseLinkError):
    """A numerical invariant failed (NaN/Inf input, zero-norm row, diverged loss)."""


class TraceError(CaseLinkError):
    """A forward trace does not match the parameters it is replayed against."""


class LabelError(CaseLinkError):
    """A training query has no usable positive label."""


class ProviderError(CaseLinkError):
    """The remote embedding endpoint failed after all retries."""
