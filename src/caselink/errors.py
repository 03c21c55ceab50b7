"""Exception types shared across the caselink package."""

from __future__ import annotations


class CaseLinkError(Exception):
    """Base class for all caselink-specific errors."""


class IngestError(CaseLinkError):
    """Corpus or lexicon input violates a uniqueness/shape constraint."""


class ParseError(CaseLinkError):
    """A corpus line could not be parsed; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class LabelResolutionError(CaseLinkError):
    """A label file references an id that is not in the corpus."""


class EmptyLexiconError(CaseLinkError):
    """The charge lexicon file contains no entries."""


class EmptyCorpusError(CaseLinkError):
    """An operation requires at least one document."""


class DimensionError(CaseLinkError):
    """Vector/matrix dimensions are inconsistent."""


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
