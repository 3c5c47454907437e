"""Exception hierarchy shared by all ontosearch modules.

Every error carries a stable machine-readable ``code`` of the form
``<module>.<Name>`` so the CLI and the HTTP service can emit one-line
parsable errors without string matching on messages.
"""

from __future__ import annotations


class OntoSearchError(Exception):
    """Base class for all errors raised by this package."""

    code = "ontosearch.Error"

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


# --- ontology ---------------------------------------------------------------

class OntologyError(OntoSearchError):
    code = "ontology.Error"


class DuplicateConceptId(OntologyError):
    code = "ontology.DuplicateConceptId"


class DuplicateLabel(OntologyError):
    code = "ontology.DuplicateLabel"


class UnknownConceptId(OntologyError):
    code = "ontology.UnknownConceptId"


class UnknownParentId(OntologyError):
    code = "ontology.UnknownParentId"


class CycleDetected(OntologyError):
    code = "ontology.CycleDetected"

    def __init__(self, message: str, cycle: list[str] | None = None):
        super().__init__(message)
        self.cycle = cycle or []


class EmptyLabel(OntologyError):
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

class EmbedderError(OntoSearchError):
    code = "embedder.Error"


class DimensionMismatch(EmbedderError):
    code = "embedder.DimensionMismatch"


class MissingEmbedding(EmbedderError):
    code = "embedder.MissingEmbedding"


class InconsistentDimension(EmbedderError):
    code = "embedder.InconsistentDimension"


class EmptyDataset(EmbedderError):
    code = "embedder.EmptyDataset"


# --- ranker -----------------------------------------------------------------

class RankerError(OntoSearchError):
    code = "ranker.Error"


class EmptyQueryConcept(RankerError):
    code = "ranker.EmptyQueryConcept"


class MalformedStopwordFile(RankerError):
    code = "ranker.MalformedStopwordFile"


# --- eval -------------------------------------------------------------------

class EvalError(OntoSearchError):
    code = "eval.Error"


class EmptyQueryAfterStopwords(EvalError):
    code = "eval.EmptyQueryAfterStopwords"


class LengthMismatch(EvalError):
    code = "eval.LengthMismatch"


class TooFewPairs(EvalError):
    code = "eval.TooFewPairs"


# --- app --------------------------------------------------------------------

class UsageError(OntoSearchError):
    code = "app.UsageError"


class NotFound(OntoSearchError):
    code = "app.NotFound"


class PayloadTooLarge(OntoSearchError):
    code = "app.PayloadTooLarge"


class RequestTimeout(OntoSearchError):
    code = "app.RequestTimeout"
