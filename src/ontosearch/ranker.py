"""Searchable indexes over concept labels.

Two rankers answer the same question -- which concepts best match this
text -- by different means:

* ``VectorIndex``: one unit-normalised embedding row per (concept, label),
  scored by cosine against the encoded query.  A float32 copy of the rows
  screens out, with an exact error bound, the concepts that cannot reach
  the top k; only the rest are scored in float64, to the bits a full scan
  gives them;
* ``Bm25Index``: Okapi BM25 where each concept's document is the token bag
  of all its labels, stop-words removed at index and query time.

Both score a text into one dense array over their rows (a vector row is
one label of a concept, a BM25 row is a whole concept).  One shared core
(``_search``) folds a query's texts row by row, and the index part that
holds the rows names the rows behind its k best concepts: each concept's
MAX over its rows, score ties broken by ascending concept id.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property
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
from .ontology import OntologyGraph, runs

_NONE = np.intp(np.iinfo(np.intp).max)  # above every row and text position
BM25_K1, BM25_B = 1.2, 0.75  # default BM25 term saturation and length normalisation

# OpenBLAS's matrix-vector kernel scores rows 4 at a time, and the last
# n % 4 rows of a call through a tail path that rounds otherwise; a call on
# a multiple of 32 rows gives each of up to 8 threads whole 4-row blocks
_KERNEL_ROWS = 4
_BLOCK_ROWS = 8 * _KERNEL_ROWS
# rescoring a row costs a gather and a list entry, about 16 rows of a full scan
_SCREEN_SHARE = 16

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


def _search(index, texts: list[str], k: int, query) -> list[RankedHit]:
    """The ranking path of every search entry point.

    ``query(text)`` gives what the index's ``row_scores`` takes for a text.
    ``index.candidates`` narrows the index to a part holding every concept
    that can be among the k best: the index itself, or a few of its
    concepts with their rows.  The part's ``row_scores`` gives the score of
    each of its rows (a fresh array, which the fold overwrites), and its
    ``top`` names the rows, and so the labels, behind its k best concepts,
    best first.
    """
    if k < 1:
        raise UsageError("k must be >= 1")
    if not texts:
        raise EmptyQueryConcept("query concept has no labels")
    queries = list(map(query, texts))
    part = index.candidates(queries, k)
    row_scores, first = _fold_rows(part.row_scores, queries)
    rows = part.top(row_scores, first, k)
    return [RankedHit(part.concept_ids[row], part.labels[row], value, rank)
            for rank, (row, value) in enumerate(zip(rows.tolist(), row_scores[rows].tolist()), 1)]


def _fold_rows(score, queries: list) -> tuple[np.ndarray, np.ndarray]:
    """Each row's MAX score over ``queries`` and the position of the first
    query reaching it.

    The MAX is strict, so a row keeps the bits of the earliest query
    reaching its score (of +0.0 and -0.0, whichever came first), and a
    NaN never replaces a score nor is replaced.  Memory is a few arrays
    the size of the rows, however many queries there are.
    """
    best = score(queries[0])
    first = np.zeros(len(best), dtype=np.min_scalar_type(len(queries) - 1))
    bits = best.view(np.int64)
    for position, query in enumerate(queries[1:], 1):
        scores = score(query)
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


def _unit(query_vec: np.ndarray) -> np.ndarray | None:
    """The query scaled to unit length; None for a zero-norm query."""
    q = np.asarray(query_vec, dtype=np.float64)
    norm = float(np.linalg.norm(q))
    return None if norm < _ZERO_NORM_EPS else q / norm


class _ConceptRuns:
    """Rows in one run per concept, the concepts in ascending id order:
    concept c owns rows ``bounds[c]:bounds[c + 1]``, and row r is label
    ``labels[r]`` of concept ``concept_ids[r]``.  A subclass supplies
    ``_dot(q)``, the product of its rows with q."""

    def __init__(self, concept_ids: list[str], labels: list[str], bounds: np.ndarray):
        self.concept_ids = concept_ids
        self.labels = labels
        self._bounds = bounds
        self._concept_of_row = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))

    def __len__(self) -> int:
        return len(self.concept_ids)

    def row_scores(self, q: np.ndarray | None) -> np.ndarray:
        """Every row's cosine with the unit query ``q`` (0 for None), each
        to the bits of a one-thread BLAS product."""
        if q is None:
            return np.zeros(len(self))
        scores = self._dot(q)
        return np.clip(scores, -1.0, 1.0, out=scores)

    def top(self, row_scores: np.ndarray, first: np.ndarray, k: int) -> np.ndarray:
        """The rows behind the k best concepts, best first.  A concept
        scores the MAX over its rows (NaN if any is NaN), and its row is, of
        the earliest text reaching that score (``first`` of each row, from
        ``_fold_rows``), the first row reaching it, read from the concept's
        own run."""
        best = np.full(len(self._bounds) - 1, -np.inf)
        with np.errstate(invalid="ignore"):  # a NaN row makes its concept NaN
            np.maximum.at(best, self._concept_of_row, row_scores)
        concepts = _top_k(best, k)
        if not len(concepts):
            return concepts
        rows, starts, counts = runs(self._bounds, concepts)
        labels = first[rows]
        reached = ~(row_scores[rows] < np.repeat(best[concepts], counts))  # NaN-safe ">="
        earliest = np.minimum.reduceat(np.where(reached, labels, _NONE), starts)
        reached &= labels == np.repeat(earliest, counts)
        return np.minimum.reduceat(np.where(reached, rows, _NONE), starts)


class VectorIndex(_ConceptRuns):
    """Exact cosine index: one unit-normalised row per label of ``graph``,
    concepts in the graph's ascending id order, then each one's labels in
    order."""

    def __init__(self, graph: OntologyGraph, rows: np.ndarray, encoder_fingerprint: str = ""):
        concept_ids, labels, counts = _label_rows(graph)
        super().__init__(concept_ids, labels, graph.label_ptr)
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or len(rows) != len(self.labels):
            raise MalformedLine(f"rows of shape {rows.shape}, but the ontology has "
                                f"{len(self.labels)} labels")
        if not all_finite(rows):
            raise MalformedLine("vector index rows hold NaN or infinite values")
        self.dim = rows.shape[1]
        self.rows = rows
        self.encoder_fingerprint = encoder_fingerprint
        self._width = int(counts.max(initial=0))  # the most labels a concept has

    @cached_property
    def rows32(self) -> np.ndarray:
        """The rows in float32, for the screen: derived at the first
        search, never saved; 4 bytes per row and dimension."""
        with np.errstate(over="ignore"):  # rows too long to screen
            return self.rows.astype(np.float32)

    @cached_property
    def _eps(self) -> float:
        """The most a row's float32 score can differ from its float64 one.

        A float32 score of a row r against a unit query lies within
        gamma |r| of its float64 score, gamma = (dim + 2) u / (1 - (dim + 2) u),
        u = 2^-24, in any summation order (Higham, "Accuracy and Stability
        of Numerical Algorithms", 2nd ed., section 3.1).  1% covers the
        float64 rounding, and 2^-100 (1 + |r|) float32 underflow; rows
        long enough to overflow float32 are not screened (infinity).
        """
        with np.errstate(over="ignore"):
            longest = math.sqrt(float(np.einsum("ij,ij->i", self.rows, self.rows).max(initial=0.0)))
        gamma = (self.dim + 2) * 2.0 ** -24
        if gamma >= 0.5 or longest >= 2.0 ** 64:
            return math.inf
        return 1.01 * gamma / (1.0 - gamma) * longest + 2.0 ** -100 * (1.0 + longest)

    def score(self, query_vec: np.ndarray) -> np.ndarray:
        """Every row's cosine with the query; a zero-norm query scores 0."""
        return self.row_scores(_unit(query_vec))

    def _dot(self, q: np.ndarray) -> np.ndarray:
        """``rows @ q``, each row to the bits of a one-thread product at any
        thread count up to 8: whole blocks of ``_BLOCK_ROWS`` rows in one
        call, and the rest as the end of a call that takes the last block
        too, never alone (numpy hands a one-row product to ``ddot``, which
        rounds otherwise)."""
        rows, n = self.rows, len(self)
        m = n - n % _BLOCK_ROWS
        if m in (0, n):
            return rows @ q
        scores = np.empty(n)
        np.matmul(rows[:m], q, out=scores[:m])
        scores[m:] = (rows[m - _BLOCK_ROWS:] @ q)[_BLOCK_ROWS:]
        return scores

    def candidates(self, queries: list, k: int) -> _ConceptRuns:
        """The concepts that can be among the k best for ``queries`` (unit
        vectors, or None), with their rows.

        Each row's float32 scores, MAX-folded over the queries, lie within
        ``_eps`` of its float64 ones.  Let t be the (k w)-th best row, w
        the most labels a concept has: at least k concepts score t - eps or
        more, so a concept whose rows all lie below t - 2 eps cannot tie
        the k-th.  The concepts left are cut again at the k-th best of
        their float32 scores.  Every concept is a candidate, and the index
        answers itself, for a query that is not finite, k w of n rows or
        more, rows too long to screen, or candidates holding more than
        1/_SCREEN_SHARE of the rows.
        """
        n, wide = len(self), k * self._width
        if wide >= n or self._eps == math.inf:
            return self
        screen = np.full(n, -1.0, dtype=np.float32)
        for q in queries:
            if q is None:
                np.maximum(screen, 0.0, out=screen)
            elif all_finite(q):
                np.maximum(screen, self.rows32 @ q.astype(np.float32), out=screen)
            else:
                return self
        np.minimum(screen, 1.0, out=screen)
        rows = np.flatnonzero(screen >= self._floor(np.partition(screen, n - wide)[n - wide]))
        # the float32 score of each concept these rows reach, the MAX of
        # its rows, all of which at or above the floor are here; then the
        # same cut at the k-th of them
        concepts = self._concept_of_row[rows]  # ascending, as the rows are
        starts = np.flatnonzero(np.diff(concepts, prepend=-1))
        upper = np.maximum.reduceat(screen[rows], starts)
        concepts = concepts[starts[upper >= self._floor(np.partition(upper, len(upper) - k)[-k])]]
        if (self._bounds[concepts + 1] - self._bounds[concepts]).sum() * _SCREEN_SHARE > n:
            return self
        return _Candidates(self, concepts)

    def _floor(self, t: np.float32) -> np.float32:
        """A float32 at or below t - 2 eps: one step below it rounded to nearest."""
        return np.nextafter(np.float32(float(t) - 2.0 * self._eps), np.float32(-np.inf))


class _Candidates(_ConceptRuns):
    """Some concepts of a vector index with their rows, which
    ``row_scores`` scores to the bits ``VectorIndex.row_scores`` gives them."""

    def __init__(self, index: VectorIndex, concepts: np.ndarray):
        rows, starts, _ = runs(index._bounds, concepts)
        picked = rows.tolist()
        super().__init__(list(map(index.concept_ids.__getitem__, picked)),
                         list(map(index.labels.__getitem__, picked)),
                         np.append(starts, len(rows)))
        # a row keeps its bits in any call that puts it in a whole 4-row
        # block of a multiple of 32 rows: gather the rows into one, zero
        # padded; the index's last n % 4 rows are scored as the index's
        # own call scores them, at the end of a call
        n = len(index)
        self._tail_from = n - n % _KERNEL_ROWS
        split = int(np.searchsorted(rows, self._tail_from))
        self._block = np.zeros((-(-split // _BLOCK_ROWS) * _BLOCK_ROWS, index.dim))
        np.take(index.rows, rows[:split], axis=0, out=self._block[:split])
        self._tail = rows[split:] - self._tail_from
        self._index_rows = index.rows

    def _dot(self, q: np.ndarray) -> np.ndarray:
        scores = (self._block @ q)[:len(self) - len(self._tail)]
        if len(self._tail):
            lo = max(self._tail_from - _KERNEL_ROWS, 0)
            tail = (self._index_rows[lo:] @ q)[self._tail_from - lo:]
            scores = np.concatenate((scores, tail[self._tail]))
        return scores


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
    embedding, or its norm, overflows raises ``UsageError`` naming it, and
    so do scores that overflow (rows far longer than unit); an embedding
    that is already NaN or infinite is scored as it is."""

    def query(text: str) -> np.ndarray | None:
        try:
            return _unit(encoder.embed(text))
        except FloatingPointError:
            raise UsageError(f"the embedding of query {text!r} overflows") from None

    with np.errstate(over="raise"):
        try:
            return _search(index, query_labels, k, query)
        except FloatingPointError:
            raise UsageError(f"the scores of query {query_labels!r} overflow") from None


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
        with np.errstate(over="ignore"):  # an avgdl of 0 leaves every length 0
            self._norm = k1 * (1.0 - b + b * lens / self.avgdl) if self.avgdl else lens
        if not all_finite(self._norm):
            raise UsageError(f"k1 = {k1} with b = {b} overflows a document's length normalisation")
        self._pos = graph.position
        self._fingerprint: str | None = None

    def candidates(self, queries: list[str], k: int) -> Bm25Index:
        """Every concept: a query's terms reach only the documents they are in."""
        return self

    def row_scores(self, text: str) -> np.ndarray:
        """Every document's score for ``text``."""
        return bm25_all_scores(self, text).scores

    def top(self, row_scores: np.ndarray, first: np.ndarray, k: int) -> np.ndarray:
        """The k best documents, each a concept labelled with its preferred
        label; one scoring 0 (no query term in it) is no hit."""
        hits = np.flatnonzero(row_scores > 0.0)
        return hits[_top_k(row_scores[hits], k)]

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
    scoring > 0, found at the first such read."""

    def __init__(self, index: Bm25Index, scores: np.ndarray):
        self.index = index
        self.scores = scores

    @cached_property
    def _hits(self) -> np.ndarray:
        return np.flatnonzero(self.scores > 0.0)

    def __len__(self) -> int:
        return len(self._hits)

    def __iter__(self) -> Iterator[str]:
        return (self.index.concept_ids[r] for r in self._hits.tolist())

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
    """MAX aggregation over per-label BM25 scores, mirroring search_concept;
    scores that overflow (a huge k1) raise ``UsageError`` naming the query."""
    with np.errstate(over="raise"):
        try:
            return _search(index, query_labels, k, lambda text: text)
        except FloatingPointError:
            raise UsageError(f"the BM25 scores of query {query_labels!r} overflow") from None


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
