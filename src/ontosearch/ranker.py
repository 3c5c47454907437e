"""Searchable indexes over concept labels.

Two rankers answer the same question -- which concepts best match this
text -- by different means:

* ``VectorIndex``: one unit-normalised embedding row per (concept, label),
  scored by cosine against the encoded query with an exact full scan;
* ``Bm25Index``: Okapi BM25 where each concept's document is the token bag
  of all its labels, stop-words removed at index and query time.

Both score a text into one dense array over their rows (a vector row is
one label of a concept, a BM25 row is a whole concept).  One shared core
(``_search``) folds a query's texts row by row, takes each concept's MAX
over its rows, and breaks score ties by ascending concept id.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .embedder import _ZERO_NORM_EPS, Encoder, all_finite, tokenize
from .errors import (
    EmptyQueryConcept,
    MalformedLine,
    MalformedStopwordFile,
    UnknownConceptId,
    UsageError,
)
from .npzio import decoding, read_lines, save_arrays, writing
from .ontology import OntologyGraph

_NONE = np.intp(np.iinfo(np.intp).max)  # above every row and text position
BM25_K1, BM25_B = 1.2, 0.75  # default BM25 term saturation and length normalisation

# Default English stop-word list (30 words), used when no file is supplied.
DEFAULT_STOPWORDS = frozenset(
    """a an and are as at be by for from has he in is it its of on that the
    to was were will with this but they not or""".split()
)


@dataclass(frozen=True)
class RankedHit:
    concept_id: str
    best_label: str
    score: float
    rank: int

    def to_dict(self) -> dict:
        return {
            "concept_id": self.concept_id,
            "best_label": self.best_label,
            "score": self.score,
            "rank": self.rank,
        }


def hit_json_line(hit: RankedHit) -> str:
    """Canonical one-line JSON form of a hit; the CLI prints these and the
    service joins the same strings into arrays, keeping the two surfaces
    byte-identical."""
    return json.dumps(hit.to_dict(), ensure_ascii=False, separators=(",", ":"))


def hits_json_array(hits: Iterable[RankedHit]) -> str:
    """A JSON array of the hits' lines, byte for byte: the service's answer
    and the ``hits`` of each line ``match`` prints."""
    return "[" + ",".join(map(hit_json_line, hits)) + "]"


def _search(index, texts: list[str], k: int, score) -> list[RankedHit]:
    """The ranking path of every search entry point.

    ``score(text)`` gives the score of each row of ``index`` (a fresh
    array, which the fold overwrites).  The index's ``concept_max`` turns
    the folded row scores into one score per concept, ``hits`` picks the
    concepts that may be returned, and ``winners`` names the row, and so
    the label, behind each returned concept's score.
    """
    if k < 1:
        raise UsageError("k must be >= 1")
    if not texts:
        raise EmptyQueryConcept("query concept has no labels")
    row_scores, first = _fold_rows(score, texts)
    best = index.concept_max(row_scores)
    hits = index.hits(best)
    top = hits[_top_k(best[hits], k)]
    rows = index.winners(row_scores, first, best, top)
    return [RankedHit(index.concept_ids[row], index.labels[row], value, rank)
            for rank, (row, value) in enumerate(zip(rows.tolist(), row_scores[rows].tolist()), 1)]


def _fold_rows(score, texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Each row's MAX score over ``texts`` and the position of the first
    text reaching it.

    The MAX is strict, so a row keeps the bits of the earliest text
    reaching its score (of +0.0 and -0.0, whichever came first), and a
    NaN never replaces a score nor is replaced.  Memory is a few arrays
    the size of the rows, however many texts there are.
    """
    best = score(texts[0])
    first = np.zeros(len(best), dtype=np.min_scalar_type(len(texts) - 1))
    bits = best.view(np.int64)
    for position, text in enumerate(texts[1:], 1):
        scores = score(text)
        better = scores > best
        # a select on the bits: exact, where ``np.maximum`` lets a NaN in
        # and keeps either zero on a tie, and ``np.where`` costs 3x as much
        diff = scores.view(np.int64)
        diff ^= bits
        diff *= better
        bits ^= diff
        np.maximum(first, better * first.dtype.type(position), out=first)
    return best, first


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k best scores, descending; ties keep position order,
    which is the graph's ascending concept id order in both indexes."""
    candidates = np.arange(len(scores))
    if k < len(scores):
        cut = np.partition(scores, len(scores) - k)[len(scores) - k]
        candidates = np.flatnonzero(~(scores < cut))  # NaN-safe ">= cut"
    return candidates[np.argsort(-scores[candidates], kind="stable")[:k]]


# --- vector index --------------------------------------------------------------


class VectorIndex:
    """Exact cosine index: one unit-normalised row per label of ``graph``,
    concepts in the graph's ascending id order, then each one's labels in order."""

    def __init__(self, graph: OntologyGraph, rows: np.ndarray, encoder_fingerprint: str = ""):
        self.concept_ids, self.labels, counts = _label_rows(graph)
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or len(rows) != len(self.labels):
            raise MalformedLine(f"rows of shape {rows.shape}, but the ontology has "
                                f"{len(self.labels)} labels")
        if not all_finite(rows):
            raise MalformedLine("vector index rows hold NaN or infinite values")
        self.dim = rows.shape[1]
        self.rows = rows
        self.encoder_fingerprint = encoder_fingerprint
        # concept c owns rows _bounds[c]:_bounds[c + 1]
        self._bounds = graph.label_ptr
        self._concept_of_row = np.repeat(np.arange(len(graph)), counts)

    def __len__(self) -> int:
        return len(self.concept_ids)

    def score(self, query_vec: np.ndarray) -> np.ndarray:
        """Every row's cosine with the query: one matrix-vector product
        over all rows, whose rounding the BLAS library decides; a
        zero-norm query scores 0."""
        q = np.asarray(query_vec, dtype=np.float64)
        norm = float(np.linalg.norm(q))
        if norm < _ZERO_NORM_EPS:
            return np.zeros(len(self))
        scores = self.rows @ (q / norm)
        return np.clip(scores, -1.0, 1.0, out=scores)

    def concept_max(self, row_scores: np.ndarray) -> np.ndarray:
        """Each concept's MAX over its rows (NaN if any is NaN)."""
        best = np.full(len(self._bounds) - 1, -np.inf)
        with np.errstate(invalid="ignore"):  # a NaN row makes its concept NaN
            np.maximum.at(best, self._concept_of_row, row_scores)
        return best

    def hits(self, best: np.ndarray) -> np.ndarray:
        """Every concept has a score."""
        return np.arange(len(best))

    def winners(self, row_scores: np.ndarray, first: np.ndarray, best: np.ndarray,
                concepts: np.ndarray) -> np.ndarray:
        """The row behind each of ``concepts``' score ``best``: of the
        earliest text reaching it (``first`` of each row, from
        ``_fold_rows``), the first row reaching it.  Only the row runs of
        ``concepts`` are read."""
        if not len(concepts):
            return concepts
        lo = self._bounds[concepts]
        counts = self._bounds[concepts + 1] - lo
        starts = np.cumsum(counts) - counts  # of each run in the flat rows
        rows = np.repeat(lo - starts, counts) + np.arange(counts.sum())
        labels = first[rows]
        reached = ~(row_scores[rows] < np.repeat(best[concepts], counts))  # NaN-safe ">="
        earliest = np.minimum.reduceat(np.where(reached, labels, _NONE), starts)
        reached &= labels == np.repeat(earliest, counts)
        return np.minimum.reduceat(np.where(reached, rows, _NONE), starts)


def _label_rows(graph: OntologyGraph) -> tuple[list[str], list[str], np.ndarray]:
    """The vector index's row layout: one (concept id, label) row per
    label, in the graph's concept order, then label order, and each
    concept's label count."""
    counts = np.diff(graph.label_ptr)
    return np.array(graph.ids, dtype=object).repeat(counts).tolist(), graph.labels, counts


def build_vector_index(graph: OntologyGraph, encoder: Encoder) -> VectorIndex:
    """One row per (concept, label) in ``_label_rows`` order.

    Rows are normalised to unit length; an all-zero embedding is kept as the
    zero row (it cosine-scores 0 against everything).  An embedding, or a
    norm, that overflows raises ``io.MalformedLine`` naming the label.
    """
    labels = graph.labels
    rows = np.zeros((len(labels), encoder.dim), dtype=np.float64)
    with np.errstate(over="raise", invalid="raise"):
        for row, label in zip(rows, labels):
            try:
                vec = np.asarray(encoder.embed(label), dtype=np.float64)
                norm = float(np.linalg.norm(vec))
            except FloatingPointError:
                raise MalformedLine(f"the embedding of label {label!r} overflows") from None
            if norm >= _ZERO_NORM_EPS:
                row[:] = vec / norm
    return VectorIndex(graph, rows, encoder.fingerprint())


def search_text(
    index: VectorIndex, query: str, k: int, encoder: Encoder
) -> list[RankedHit]:
    """Exact top-k concepts for a text query; k is clamped to the corpus."""
    return search_concept(index, [query], k, encoder)


def search_concept(
    index: VectorIndex, query_labels: list[str], k: int, encoder: Encoder
) -> list[RankedHit]:
    """Concept-to-concept search: one text search per query label, with
    per-target-concept MAX aggregation across the labels.  A text whose
    embedding, or its norm, overflows raises ``UsageError`` naming it; an
    embedding that is already NaN or infinite is scored as it is."""

    def score(text: str) -> np.ndarray:
        with np.errstate(over="raise"):
            try:
                return index.score(encoder.embed(text))
            except FloatingPointError:
                raise UsageError(f"the embedding of query {text!r} overflows") from None

    return _search(index, query_labels, k, score)


# --- BM25 index -----------------------------------------------------------------


def load_stopwords(path: str | Path | None) -> frozenset[str]:
    """Stop-word file: one token per line, UTF-8; empty lines skipped.

    Entries are lowercased to match tokenizer output.  None loads the
    built-in default list.
    """
    if path is None:
        return DEFAULT_STOPWORDS
    words: set[str] = set()
    for lineno, line in read_lines(path):
        word = line.strip()
        if not word:
            continue
        if any(ch.isspace() for ch in word):
            raise MalformedStopwordFile(
                f"{path}:{lineno}: expected one token per line"
            )
        words.add(word.lower())
    return frozenset(words)


def check_bm25_params(k1: float, b: float) -> None:
    """Refuse a ``k1`` that is negative or not finite, and a ``b`` outside [0, 1]."""
    if not 0.0 <= k1 < math.inf:
        raise UsageError(f"k1 must be finite and >= 0, got {k1}")
    if not 0.0 <= b <= 1.0:
        raise UsageError(f"b must lie in [0, 1], got {b}")


class Bm25Index:
    """Okapi BM25 over one document per concept of ``graph``, in the graph's
    ascending id order (the order score ties are broken in); ``term_freqs`` holds
    each document's token counts.

    IDF(t) = ln(1 + (N - df + 0.5) / (df + 0.5)); a term's contribution is
    IDF(t) * tf*(k1+1) / (tf + k1*(1 - b + b*|D|/avgdl)).
    """

    def __init__(
        self,
        graph: OntologyGraph,
        term_freqs: list[dict[str, int]],
        stopwords: frozenset[str],
        k1: float,
        b: float,
    ):
        check_bm25_params(k1, b)
        if len(term_freqs) != len(graph):
            raise MalformedLine(f"{len(term_freqs)} documents, but the ontology has "
                                f"{len(graph)} concepts")
        self.concept_ids = graph.ids
        self.term_freqs = term_freqs
        # one row per concept, labelled with its preferred label
        self.labels = list(map(graph.labels.__getitem__, graph.label_ptr[:-1].tolist()))
        self.stopwords = stopwords
        self.k1 = k1
        self.b = b
        self.doc_lens = [sum(tf.values()) for tf in term_freqs]
        self.n_docs = len(self.concept_ids)
        self.avgdl = (
            sum(self.doc_lens) / self.n_docs if self.n_docs else 0.0
        )
        # CSR postings: the term in slot s occurs in documents
        # _doc[_indptr[s]:_indptr[s + 1]] with frequencies _tf[same range]
        terms = list(chain.from_iterable(term_freqs))  # document-major
        self._slots = {term: slot for slot, term in enumerate(dict.fromkeys(terms))}
        slot_of = np.fromiter(map(self._slots.__getitem__, terms), np.intp, len(terms))
        order = np.argsort(slot_of, kind="stable")
        df = np.bincount(slot_of, minlength=len(self._slots))
        self.df = dict(zip(self._slots, df.tolist()))
        self._indptr = np.concatenate(([0], np.cumsum(df)))
        self._doc = np.repeat(np.arange(self.n_docs), [len(tf) for tf in term_freqs])[order]
        self._tf = np.fromiter(chain.from_iterable(map(dict.values, term_freqs)), np.int64)[order]
        lens = np.asarray(self.doc_lens, dtype=np.float64)
        self._norm = k1 * (1.0 - b + b * lens / self.avgdl) if self.avgdl else np.zeros(self.n_docs)
        self._pos = graph.position
        self._fingerprint: str | None = None

    def concept_max(self, row_scores: np.ndarray) -> np.ndarray:
        """Each row is a concept."""
        return row_scores

    def hits(self, best: np.ndarray) -> np.ndarray:
        """A concept scoring 0 (no query term in its document) is no hit."""
        return np.flatnonzero(best > 0.0)

    def winners(self, row_scores, first, best, concepts: np.ndarray) -> np.ndarray:
        """Each row is a concept, labelled with its preferred label."""
        return concepts

    def idf(self, term: str) -> float:
        df = self.df.get(term, 0)
        return math.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5))

    def score_tokens(self, tokens: list[str]) -> np.ndarray:
        """Every document's score, summed over the query's postings in token
        order with the operations of the formula above, so a repeated term
        counts twice; stop-words are dropped here."""
        scores = np.zeros(self.n_docs)
        for term in tokens:
            slot = self._slots.get(term)
            if slot is None or term in self.stopwords:
                continue
            lo, hi = self._indptr[slot], self._indptr[slot + 1]
            docs, f = self._doc[lo:hi], self._tf[lo:hi]
            scores[docs] += self.idf(term) * f * (self.k1 + 1.0) / (f + self._norm[docs])
        return scores

    def fingerprint(self) -> str:
        """Computed once: the index is never mutated after construction."""
        if self._fingerprint is None:
            h = hashlib.sha256()
            h.update(f"bm25:{self.k1}:{self.b}:{self.n_docs}:".encode())
            for cid, tf in zip(self.concept_ids, self.term_freqs):
                h.update(cid.encode("utf-8") + b"\x00")
                for term in sorted(tf):
                    h.update(f"{term}={tf[term]};".encode("utf-8"))
            h.update("|".join(sorted(self.stopwords)).encode("utf-8"))
            self._fingerprint = h.hexdigest()
        return self._fingerprint


def build_bm25_index(
    graph: OntologyGraph,
    stopwords: frozenset[str] | str | Path | None = None,
    k1: float = BM25_K1,
    b: float = BM25_B,
) -> Bm25Index:
    """Index every concept as the stop-word-filtered token bag of all its
    labels concatenated; ``stopwords`` is a loaded set or what
    ``load_stopwords`` reads."""
    if not isinstance(stopwords, frozenset):
        stopwords = load_stopwords(stopwords)
    labels, ptr = graph.labels, graph.label_ptr.tolist()
    term_freqs = [
        dict(Counter(t for label in labels[lo:hi] for t in tokenize(label)
                     if t not in stopwords))
        for lo, hi in zip(ptr, ptr[1:])
    ]
    return Bm25Index(graph, term_freqs, stopwords, k1=k1, b=b)


def bm25_score(index: Bm25Index, query_tokens: list[str], concept_id: str) -> float:
    """Score one concept for a tokenised query (stop-words dropped here);
    a term occurring twice in the query contributes twice."""
    pos = index._pos.get(concept_id)
    if pos is None:
        raise UnknownConceptId(f"unknown concept id {concept_id!r}")
    return float(index.score_tokens(query_tokens)[pos])


class Bm25Scores(Mapping):
    """One text's BM25 scores as the dense array of the ranker contract;
    read as a mapping, it holds {concept_id: score} for the concepts
    scoring > 0."""

    def __init__(self, index: Bm25Index, scores: np.ndarray):
        self.index = index
        self.scores = scores
        self.hits = index.hits(scores)

    def __len__(self) -> int:
        return len(self.hits)

    def __iter__(self) -> Iterator[str]:
        return (self.index.concept_ids[r] for r in self.hits.tolist())

    def __getitem__(self, concept_id: str) -> float:
        pos = self.index._pos.get(concept_id)
        if pos is None or not self.scores[pos] > 0.0:
            raise KeyError(concept_id)
        return float(self.scores[pos])


def bm25_all_scores(index: Bm25Index, query: str) -> Bm25Scores:
    """Score every concept; only concepts with score > 0 appear."""
    return Bm25Scores(index, index.score_tokens(tokenize(query)))


def bm25_search(index: Bm25Index, query: str, k: int) -> list[RankedHit]:
    """Top-k concepts by BM25; zero-score concepts never appear."""
    return bm25_search_concept(index, [query], k)


def bm25_search_concept(index: Bm25Index, query_labels: list[str], k: int) -> list[RankedHit]:
    """MAX aggregation over per-label BM25 scores, mirroring search_concept."""
    return _search(index, query_labels, k, lambda text: bm25_all_scores(index, text).scores)


# --- persistence ---------------------------------------------------------------

_VECTOR_VERSION = 2
_BM25_VERSION = 2


def save_vector_index(index: VectorIndex, path: str | Path) -> None:
    save_arrays(
        path,
        version=_VECTOR_VERSION,
        rows=index.rows,
        fingerprint=index.encoder_fingerprint,
    )


def load_vector_index(path: str | Path, graph: OntologyGraph) -> VectorIndex:
    with decoding(path, "bundle file"), open(path, "rb") as fh, \
            np.load(fh, allow_pickle=False) as data:
        version = int(data["version"])
        if version != _VECTOR_VERSION:
            raise MalformedLine(f"unsupported vector index version {version}")
        return VectorIndex(graph, data["rows"], str(data["fingerprint"]))


def save_bm25_index(index: Bm25Index, path: str | Path) -> None:
    payload = {
        "version": _BM25_VERSION,
        "k1": index.k1,
        "b": index.b,
        "term_freqs": index.term_freqs,
        "df": {t: index.df[t] for t in sorted(index.df)},
        "avgdl": index.avgdl,
        "stopwords": sorted(index.stopwords),
    }
    with writing(path) as fh:
        fh.write(json.dumps(payload, ensure_ascii=False) + "\n")


def load_bm25_index(path: str | Path, graph: OntologyGraph) -> Bm25Index:
    with decoding(path, "bundle file"):
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        version = int(payload["version"])
        if version != _BM25_VERSION:
            raise MalformedLine(f"unsupported BM25 index version {version}")
        index = Bm25Index(
            graph,
            term_freqs=[dict(tf) for tf in payload["term_freqs"]],
            stopwords=frozenset(payload["stopwords"]),
            k1=payload["k1"],
            b=payload["b"],
        )
        # df/avgdl are derivable from the documents; a mismatch means corruption
        if index.df != payload["df"] or index.avgdl != payload["avgdl"]:
            raise MalformedLine("stored df/avgdl disagree with documents")
        return index
