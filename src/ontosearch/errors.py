"""Exception hierarchy shared by all ontosearch modules.

Every error carries a stable machine-readable ``code`` of the form
``<module>.<Name>`` so the CLI and the HTTP service can emit one-line
parsable errors without string matching on messages.
"""

from __future__ import annotations

import json


class OntoSearchError(Exception):
    """Base class for all errors raised by this package."""

    code = "ontosearch.Error"

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message

    def json_line(self) -> str:
        """The one-line JSON form in which both surfaces send an error."""
        return json.dumps({"error": self.code, "message": self.message})


# --- ontology ---------------------------------------------------------------

class DuplicateConceptId(OntoSearchError):
    code = "ontology.DuplicateConceptId"


class DuplicateLabel(OntoSearchError):
    code = "ontology.DuplicateLabel"


class UnknownConceptId(OntoSearchError):
    code = "ontology.UnknownConceptId"


class UnknownParentId(OntoSearchError):
    code = "ontology.UnknownParentId"


class CycleDetected(OntoSearchError):
    code = "ontology.CycleDetected"

    def __init__(self, message: str, cycle: list[str] | None = None):
        super().__init__(message)
        self.cycle = cycle or []


class EmptyLabel(OntoSearchError):
    code = "ontology.EmptyLabel"


# --- io ---------------------------------------------------------------------

class IoError(OntoSearchError):
    """A file that could not be opened, read or written."""

    code = "io.Error"


class FileNotFound(IoError):
    code = "io.FileNotFound"


class MalformedLine(OntoSearchError):
    """An input file, or a line of one, that does not match its documented
    format; the message names the file (and the line, where there is one)."""

    code = "io.MalformedLine"


# --- embedder ---------------------------------------------------------------

class DimensionMismatch(OntoSearchError):
    code = "embedder.DimensionMismatch"


class MissingEmbedding(OntoSearchError):
    code = "embedder.MissingEmbedding"


class InconsistentDimension(OntoSearchError):
    code = "embedder.InconsistentDimension"


class EmptyDataset(OntoSearchError):
    code = "embedder.EmptyDataset"


# --- ranker -----------------------------------------------------------------

class EmptyQueryConcept(OntoSearchError):
    code = "ranker.EmptyQueryConcept"


class MalformedStopwordFile(OntoSearchError):
    code = "ranker.MalformedStopwordFile"


# --- eval -------------------------------------------------------------------

class EmptyQueryAfterStopwords(OntoSearchError):
    code = "eval.EmptyQueryAfterStopwords"


class LengthMismatch(OntoSearchError):
    code = "eval.LengthMismatch"


class TooFewPairs(OntoSearchError):
    code = "eval.TooFewPairs"


# --- app --------------------------------------------------------------------

class UsageError(OntoSearchError, ValueError):
    """A bad flag, option, parameter or config value, raised where it is
    found; also a ``ValueError``, for library callers."""

    code = "app.UsageError"


class NotFound(OntoSearchError):
    code = "app.NotFound"


class PayloadTooLarge(OntoSearchError):
    code = "app.PayloadTooLarge"


class RequestTimeout(OntoSearchError):
    code = "app.RequestTimeout"
