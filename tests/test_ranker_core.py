"""The shared scoring core behind every ranker entry point.

* A golden digest pins the exact ``hit_json_line`` output of a fixed query
  set, so any change to scores, labels, order or tie-breaking shows.
* A property test compares every entry point with a plain dict-and-sort
  reference ranker on small random ontologies full of ties.
* The row fold of a concept query is compared byte for byte with the
  per-label fold it replaced, and the vector index's ``top`` (concept MAX,
  top k and winning rows) with the per-run ``reduceat`` scoring kept as
  its reference; the memory the index keeps is bounded per row, and a
  query's memory does not grow with its labels.
* A row's score does not depend on the rows scored with it, and the
  float32-screened vector search equals, byte for byte, the same search
  with every concept a candidate.
"""

import hashlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from synthdata import synthetic_ontology

from ontosearch.embedder import PrecomputedEncoder, StaticWordVectors, SubwordEmbedder, tokenize
from ontosearch.errors import MalformedLine
from ontosearch.ontology import Concept, OntologyGraph
from ontosearch.ranker import (
    BM25_B,
    BM25_K1,
    DEFAULT_STOPWORDS,
    Bm25Index,
    RankedHit,
    VectorIndex,
    _Candidates,
    _label_rows,
    _top_k,
    _unit,
    build_bm25_index,
    build_vector_index,
    bm25_all_scores,
    bm25_score,
    bm25_search,
    bm25_search_concept,
    hit_json_line,
    search_concept,
    search_text,
)

# --- golden output ---------------------------------------------------------------

GOLDEN_TEXTS = (
    "pw0a",
    "pw1a pw1b",
    "w0x1x0a w0x2x0a",  # two concepts tie on BM25
    "w2x3x1b w2x3x1b w2x3x2a",  # a repeated term counts twice
    "the of and",  # stop-words only
    "",  # zero-norm query vector
    "w5x7x2a pw5b w3x0x0a",
    "unknown tokens here",
    "W1X1X1A",
)
GOLDEN_CONCEPTS = (
    ("w0x1x0a w0x1x0b", "w0x1x1a w0x1x1b", "w0x1x2a w0x1x2b"),
    ("w1x2x0a w1x2x0b", "w3x4x1a w3x4x1b"),
    ("pw2a pw2b", "w2x0x0a"),
    ("the", "of"),
    ("w0x1x0a w0x2x0a", "w0x1x0a"),
    ("pw0a", "pw0a"),
)
# sha256 of golden_lines(), pinned from the row-by-row dict ranker that the
# dense-array core replaced; any change to a score, label or order shows here
GOLDEN_SHA256 = "4361f43ff1c93489ebd89ee90ece9058404363024337bc48d0a10782a2008aab"


def _word_vectors(graph: OntologyGraph) -> StaticWordVectors:
    """Every token gets one of a few fixed directions, so many labels and
    concepts tie exactly; every fifth token has no vector (it is skipped)."""
    palette = [
        np.array([1.0, 0.0, 0.0]),
        np.array([0.0, 2.0, 0.0]),
        np.array([1.0, 1.0, 0.0]),
        np.array([-1.0, 0.0, 1.0]),
    ]
    tokens = sorted({t for c in graph.concepts.values() for lb in c.labels for t in tokenize(lb)})
    return StaticWordVectors(
        {t: palette[i % len(palette)] for i, t in enumerate(tokens) if i % 5}, dim=3
    )


def golden_lines() -> list[str]:
    graph = synthetic_ontology(6, 8, 3)
    n = len(graph)
    bm25 = build_bm25_index(graph)
    encoders = {
        "subword": SubwordEmbedder(bucket_count=512, dim=8, seed=5),
        "wordvec": _word_vectors(graph),
    }
    lines = []
    for k in (1, 5, 10, n):
        for name, encoder in encoders.items():
            index = build_vector_index(graph, encoder)
            for text in GOLDEN_TEXTS:
                lines.append(f"# {name} text k={k} {text!r}")
                lines += map(hit_json_line, search_text(index, text, k, encoder))
            for labels in GOLDEN_CONCEPTS:
                lines.append(f"# {name} concept k={k} {labels!r}")
                lines += map(hit_json_line, search_concept(index, list(labels), k, encoder))
        for text in GOLDEN_TEXTS:
            lines.append(f"# bm25 text k={k} {text!r}")
            lines += map(hit_json_line, bm25_search(bm25, text, k))
        for labels in GOLDEN_CONCEPTS:
            lines.append(f"# bm25 concept k={k} {labels!r}")
            lines += map(hit_json_line, bm25_search_concept(bm25, list(labels), k))
    return lines


def test_golden_output_is_unchanged():
    digest = hashlib.sha256("\n".join(golden_lines()).encode("utf-8")).hexdigest()
    assert digest == GOLDEN_SHA256


# --- property: equal to a plain dict-and-sort reference ----------------------------

VOCAB = ("a", "the", "of", "x", "y", "z", "q")  # the first three are stop-words
PALETTE = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (-1.0, 0.0), (2.0, 0.0))

words = st.lists(st.sampled_from(VOCAB + ("nope",)), min_size=1, max_size=3)
label_text = st.builds(
    lambda ws, upper: " ".join(ws).upper() if upper else " ".join(ws), words, st.booleans()
)
query_text = st.one_of(label_text, st.just(""))


@st.composite
def ontologies(draw):
    n = draw(st.integers(1, 12))  # ids c0..c11 sort as strings, not numbers
    concepts = [
        Concept(
            id=f"c{i}",
            labels=tuple(draw(st.lists(label_text, min_size=1, max_size=3, unique=True))),
            parent_ids=frozenset(),
        )
        for i in range(n)
    ]
    vectors = {
        t: np.array(PALETTE[j])
        for t, j in zip(VOCAB, draw(st.lists(st.integers(-1, len(PALETTE) - 1),
                                             min_size=len(VOCAB), max_size=len(VOCAB))))
        if j >= 0
    }
    return OntologyGraph(concepts), StaticWordVectors(vectors, dim=2)


def _top(best: dict[str, tuple[float, str]], k: int) -> list[str]:
    ordered = sorted(best.items(), key=lambda item: (-item[1][0], item[0]))[:k]
    return [
        hit_json_line(RankedHit(cid, label, score, rank))
        for rank, (cid, (score, label)) in enumerate(ordered, start=1)
    ]


def reference_vector(index, encoder, texts, k):
    best: dict[str, tuple[float, str]] = {}
    for text in texts:
        q = np.asarray(encoder.embed(text), dtype=np.float64)
        norm = float(np.linalg.norm(q))
        if norm < 1e-12:
            scores = np.zeros(len(index))
        else:
            scores = np.clip(index.rows @ (q / norm), -1.0, 1.0)
        for i, cid in enumerate(index.concept_ids):
            if cid not in best or float(scores[i]) > best[cid][0]:
                best[cid] = (float(scores[i]), index.labels[i])
    return _top(best, k)


def reference_bm25_score(index, tokens, pos):
    tf = index.term_freqs[pos]
    dl = sum(tf.values())
    norm = index.k1 * (1.0 - index.b + index.b * dl / index.avgdl) if index.avgdl else 0.0
    score = 0.0
    for term in tokens:
        f = tf.get(term, 0)
        if term in index.stopwords or f == 0:
            continue
        df = sum(1 for doc in index.term_freqs if term in doc)
        idf = math.log(1.0 + (len(index.term_freqs) - df + 0.5) / (df + 0.5))
        score += idf * f * (index.k1 + 1.0) / (f + norm)
    return score


def reference_bm25(index, texts, k):
    best: dict[str, tuple[float, str]] = {}
    for text in texts:
        for pos, cid in enumerate(index.concept_ids):
            score = reference_bm25_score(index, tokenize(text), pos)
            if score > best.get(cid, (0.0,))[0]:
                best[cid] = (score, index.labels[pos])
    return _top(best, k)


def as_lines(hits):
    return [hit_json_line(h) for h in hits]


@settings(max_examples=300, deadline=None)
@given(ontologies(), st.lists(query_text, min_size=1, max_size=3), st.integers(1, 15))
def test_every_entry_point_equals_the_reference(onto, texts, k):
    graph, encoder = onto
    vector = build_vector_index(graph, encoder)
    bm25 = build_bm25_index(graph)
    assert as_lines(search_text(vector, texts[0], k, encoder)) == reference_vector(
        vector, encoder, texts[:1], k)
    assert as_lines(search_concept(vector, texts, k, encoder)) == reference_vector(
        vector, encoder, texts, k)
    assert as_lines(bm25_search(bm25, texts[0], k)) == reference_bm25(bm25, texts[:1], k)
    assert as_lines(bm25_search_concept(bm25, texts, k)) == reference_bm25(bm25, texts, k)
    tokens = [t for text in texts for t in tokenize(text)]
    for pos, cid in enumerate(bm25.concept_ids):
        assert bm25_score(bm25, tokens, cid) == reference_bm25_score(bm25, tokens, pos)
    scores = bm25_all_scores(bm25, texts[0])
    expected = {cid: reference_bm25_score(bm25, tokenize(texts[0]), pos)
                for pos, cid in enumerate(bm25.concept_ids)}
    expected = {cid: score for cid, score in expected.items() if score > 0.0}
    assert len(scores) == len(expected) and dict(scores) == expected


# --- rows checked against the graph ------------------------------------------------


def flat_graph(concept_ids, labels):
    """The graph of parentless concepts whose label rows are
    ``concept_ids``/``labels``, concepts inserted in order of first row."""
    labels_of = {}
    for cid, label in zip(concept_ids, labels):
        labels_of.setdefault(cid, []).append(label)
    return OntologyGraph(Concept(id=cid, labels=tuple(ls)) for cid, ls in labels_of.items())


THREE_ROWS = flat_graph(["a", "a", "b"], ["x", "y", "z"])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_vector_rows_that_are_not_finite_are_rejected(bad):
    rows = np.ones((3, 2))
    rows[1, 0] = bad
    with pytest.raises(MalformedLine, match="NaN or infinite"):
        VectorIndex(THREE_ROWS, rows)


@pytest.mark.parametrize("shape", [(2, 2), (4, 2), (3,), (0, 2)])
def test_vector_rows_not_one_per_label_are_rejected(shape):
    with pytest.raises(MalformedLine, match=r"rows of shape .*, but the ontology has 3 labels"):
        VectorIndex(THREE_ROWS, np.ones(shape))


@pytest.mark.parametrize("documents", [0, 1, 3])
def test_bm25_documents_not_one_per_concept_are_rejected(documents):
    with pytest.raises(MalformedLine, match=f"{documents} documents, but the ontology has 2"):
        Bm25Index(THREE_ROWS, [{"x": 1}] * documents, DEFAULT_STOPWORDS, BM25_K1, BM25_B)


# --- top against the reduceat reference ---------------------------------------------


def reduceat_score(index, query_vec):
    """The reference per-concept scoring: a max per concept run with
    ``np.maximum.reduceat``, then the first row of the run that is not
    below it with ``np.minimum.reduceat``."""
    ids = index.concept_ids
    starts = np.array([i for i in range(len(ids)) if i == 0 or ids[i] != ids[i - 1]], dtype=np.intp)
    concept_of_row = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(ids)))
    q = np.asarray(query_vec, dtype=np.float64)
    norm = float(np.linalg.norm(q))
    if norm < 1e-12 or len(index) == 0:
        scores = np.zeros(len(index))
    else:
        scores = index.rows @ (q / norm)
        np.clip(scores, -1.0, 1.0, out=scores)
    best = np.maximum.reduceat(scores, starts)
    below = scores < best[concept_of_row]
    winners = np.minimum.reduceat(np.where(below, len(index), np.arange(len(index))), starts)
    return scores[winners], winners


# few directions, so labels and concepts tie; signed and unsigned zeros
TIE_ROWS = ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (-1.0, 0.0), (2.0, 0.0),
            (0.0, 0.0), (-0.0, -0.0), (-0.0, 1.0))
TIE_QUERIES = TIE_ROWS + ((1.0, -0.0), (math.nan, 0.0), (math.inf, 1.0), (-math.inf, math.inf))


@st.composite
def run_indexes(draw):
    """A graph of up to 12 concepts, inserted in shuffled order, one of
    which may hold far more labels than the rest, and its index with rows
    from TIE_ROWS."""
    counts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=12))
    if draw(st.booleans()):
        counts[draw(st.integers(0, len(counts) - 1))] = draw(st.integers(5, 40))
    concepts = [Concept(id=f"c{c:02d}", labels=tuple(f"l{c}.{j}" for j in range(m)))
                for c, m in enumerate(counts)]
    graph = OntologyGraph(draw(st.permutations(concepts)))
    rows = [TIE_ROWS[draw(st.integers(0, len(TIE_ROWS) - 1))] for _ in range(sum(counts))]
    return graph, VectorIndex(graph, np.array(rows))


def contract_top(index, query_vec, k=None):
    """The scores and winning rows of one query's k best concepts (all, by
    default), best first, through the row contract: ``score``, then
    ``top`` with every row reached by the only text."""
    rows = index.score(query_vec)
    k = len(index._bounds) - 1 if k is None else k
    top = index.top(rows, np.zeros(len(rows), dtype=np.intp), k)
    return rows[top], top


def reference_top(index, query_vec):
    """``reduceat_score``'s (score, winning row) of every concept, best
    first, score ties (and NaNs, last) in ascending concept id order."""
    scores, winners = reduceat_score(index, query_vec)
    order = np.argsort(-scores, kind="stable")
    return scores[order], winners[order]


@settings(max_examples=300, deadline=None)
@given(run_indexes(), st.lists(st.sampled_from(TIE_QUERIES), min_size=1, max_size=4),
       st.integers(1, 13))
def test_concept_max_and_winners_equal_reduceat(graph_index, queries, k):
    graph, index = graph_index
    # rows follow the graph, grouped per concept in ascending id order,
    # whatever order the concepts were inserted in
    assert (index.concept_ids, index.labels) == _label_rows(graph)[:2]
    assert index.concept_ids == sorted(index.concept_ids)
    for query in queries:
        with np.errstate(invalid="ignore"):  # an infinite query divides inf by inf
            scores, winners = contract_top(index, np.array(query))
            expected_scores, expected_winners = reference_top(index, np.array(query))
            # fewer concepts: the first k, each resolved from its own run
            some_scores, some = contract_top(index, np.array(query), k)
        assert scores.tobytes() == expected_scores.tobytes()  # NaN and -0.0 included
        assert winners.tolist() == expected_winners.tolist()
        assert some_scores.tobytes() == expected_scores[:k].tobytes()
        assert some.tolist() == expected_winners[:k].tolist()


def test_wide_concept_equals_reduceat_and_keeps_little_memory_per_row():
    """10,000 concepts of 3 labels plus one of 5,000: the index keeps a
    concept id per row and a bound per concept, never a layout padded to
    the widest concept (about 11 KB per row here)."""
    ids = [f"c{c:05d}" for c in range(10_000) for _ in range(3)] + ["c99999"] * 5_000
    rows = np.zeros((len(ids), 1))
    rows[-1] = 1.0  # the wide concept's last label is its best
    graph = flat_graph(ids, [f"l{i}" for i in range(len(ids))])
    tracemalloc.start()
    try:
        index = VectorIndex(graph, rows)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept <= 32 * len(ids)
    scores, winners = contract_top(index, np.ones(1))
    expected_scores, expected_winners = reference_top(index, np.ones(1))
    assert scores.tobytes() == expected_scores.tobytes()
    assert winners.tolist() == expected_winners.tolist()
    # the wide concept scores 1 and ranks first; the rest tie at 0, in id order
    assert winners[0] == len(ids) - 1 and winners[1:].tolist() == list(range(0, 30_000, 3))


def test_row_scores_are_row_local():
    """Each row scores to the same bits whichever rows share its BLAS call:
    the whole index's scores equal, row for row, those of any few of its
    concepts (gathered into zero-padded 32-row blocks, the index's last
    n % 4 rows at the end of a call), with 0, 1 or 31 rows past a multiple
    of 32, and under 32 rows.  That these are the bits of a one-thread
    product, at one and two threads, is pinned in test_openblas.py."""
    rng = np.random.default_rng(9)
    q = SubwordEmbedder(bucket_count=512, dim=64, seed=3).embed("pain in the lower back")
    for n in (1, 3, 5, 31, 64, 65, 1001, 1024, 1055):
        rows = rng.standard_normal((n, 64))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        index = VectorIndex(flat_graph([f"c{i:04d}" for i in range(n)], ["x"] * n), rows)
        whole = index.score(q)
        for size in (1, 3, 40, n):
            concepts = np.sort(rng.choice(n, min(size, n), replace=False))
            part = _Candidates(index, concepts)
            assert part.row_scores(_unit(q)).tobytes() == whole[concepts].tobytes()


# --- the float32 screen against every concept as a candidate ------------------------


def every_concept(index, texts, k, encoder):
    """``search_concept`` with no concept screened out."""
    with mock.patch.object(VectorIndex, "candidates", lambda self, queries, k: self):
        return search_concept(index, texts, k, encoder)


@st.composite
def screen_cases(draw):
    """A 2-D index of up to 150 concepts of 1-4 labels, one of which may
    hold up to 40, and an encoder of query texts.  Rows repeat a few ties,
    zero and -0.0 rows and rows 1e-9 apart (one in float32), at a scale
    that may stop the screen; queries add zero, NaN and infinite vectors
    and copies of rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.integers(1, 5, draw(st.one_of(st.integers(1, 12), st.integers(13, 150))))
    if draw(st.integers(0, 3)) == 0:
        counts[rng.integers(len(counts))] = draw(st.integers(5, 40))
    graph = OntologyGraph(Concept(id=f"c{c:03d}", labels=tuple(f"l{c}.{j}" for j in range(m)))
                          for c, m in enumerate(counts.tolist()))
    n = int(counts.sum())
    unit = rng.standard_normal((n + 8, 2))
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    pool = np.concatenate((TIE_ROWS, unit[n:]))
    pool = np.concatenate((pool, pool * (1.0 + 1e-9)))
    rows = np.where(rng.random((n, 1)) < draw(st.sampled_from((0.0, 0.1, 0.5))),
                    pool[rng.integers(0, len(pool), n)], unit[:n])
    rows *= draw(st.sampled_from((1.0, 1.0, 1.0, 1e-40, 1e15, 2.0**70)))
    queries = np.concatenate((TIE_QUERIES, rows[rng.integers(0, n, 4)],
                              rng.standard_normal((8, 2))))
    return (VectorIndex(graph, rows),
            PrecomputedEncoder({str(i): q for i, q in enumerate(queries)}, 2))


@settings(max_examples=500, deadline=None)
@given(screen_cases(), st.data())
def test_screened_search_equals_every_concept_a_candidate(case, data):
    """Byte for byte: ties, duplicate, zero and -0.0 rows, zero, NaN and
    infinite queries, one concept far wider than the rest, indexes under
    and over 32 rows, and k from 1 to past the number of concepts."""
    index, encoder = case
    texts = data.draw(st.lists(st.sampled_from(sorted(encoder.index)), min_size=1, max_size=4))
    k = data.draw(st.one_of(st.integers(1, 2), st.integers(1, 4), st.integers(1, len(index._bounds))))
    with np.errstate(invalid="ignore"):  # an infinite query divides inf by inf
        assert as_lines(search_concept(index, texts, k, encoder)) == as_lines(
            every_concept(index, texts, k, encoder))


def test_screen_keeps_few_concepts():
    """On 3,000 random 64-d rows the screen leaves a few concepts of 1,000
    to score in float64, and the answer is the full scan's."""
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((3000, 64))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    index = VectorIndex(flat_graph([f"c{i // 3:04d}" for i in range(3000)],
                                   [f"l{i}" for i in range(3000)]), rows)
    encoder = PrecomputedEncoder({"a": rng.standard_normal(64), "b": rows[7] + 0.1}, 64)
    for texts in (["a"], ["b"], ["a", "b"]):
        part = index.candidates([_unit(encoder.embed(t)) for t in texts], 10)
        assert 10 <= len(part._bounds) - 1 <= 50
        assert as_lines(search_concept(index, texts, 10, encoder)) == as_lines(
            every_concept(index, texts, 10, encoder))


# --- the row fold against the per-label fold it replaced ----------------------------


def per_label_search(index, texts, k, score):
    """``_search`` as it was before the row fold: ``score(text)`` gives
    each concept's score and the row behind it (-1 for no hit), and a
    strict MAX folds them label by label."""
    best, rows = score(texts[0])
    for text in texts[1:]:
        scores, winners = score(text)
        better = scores > best
        best = np.where(better, scores, best)
        rows = np.where(better, winners, rows)
    hits = np.flatnonzero(rows >= 0)
    top = hits[_top_k(best[hits], k)]
    return [hit_json_line(RankedHit(index.concept_ids[row], index.labels[row], value, rank))
            for rank, (row, value) in enumerate(zip(rows[top].tolist(), best[top].tolist()), 1)]


def per_label_bm25(index, text):
    scores = index.score_tokens(tokenize(text))
    return scores, np.where(scores > 0.0, np.arange(len(scores)), -1)


# text i embeds to TIE_QUERIES[i]: zero, NaN and infinite queries included
QUERY_TABLE = PrecomputedEncoder({str(i): np.array(q) for i, q in enumerate(TIE_QUERIES)}, 2)


def _with_repeats(data, texts):
    return texts + data.draw(st.lists(st.sampled_from(texts), max_size=3))


@settings(max_examples=300, deadline=None)
@given(run_indexes(), ontologies(), st.data())
def test_concept_search_equals_the_per_label_fold(graph_index, onto, data):
    """Repeated labels, ±0 and zero rows, one concept far wider than the
    rest, and k from 1 to past the number of concepts."""
    _, index = graph_index
    texts = _with_repeats(data, data.draw(st.lists(
        st.sampled_from(sorted(QUERY_TABLE.index)), min_size=1, max_size=5)))
    k = data.draw(st.integers(1, len(set(index.concept_ids)) + 1))
    with np.errstate(invalid="ignore"):  # an infinite query divides inf by inf
        got = as_lines(search_concept(index, texts, k, QUERY_TABLE))
        expected = per_label_search(
            index, texts, k, lambda text: reduceat_score(index, QUERY_TABLE.embed(text)))
    assert got == expected

    bm25 = build_bm25_index(onto[0])
    texts = _with_repeats(data, data.draw(st.lists(query_text, min_size=1, max_size=5)))
    k = data.draw(st.integers(1, len(bm25.concept_ids) + 1))
    assert as_lines(bm25_search_concept(bm25, texts, k)) == per_label_search(
        bm25, texts, k, lambda text: per_label_bm25(bm25, text))


def test_query_memory_does_not_grow_with_its_labels():
    """The fold keeps a few arrays the size of the rows, never one per
    label: a 400-label query peaks within 2x of a 1-label query."""
    ids = [f"c{c:05d}" for c in range(10_000) for _ in range(2)]
    rows = np.random.default_rng(4).standard_normal((len(ids), 4))
    graph = flat_graph(ids, [f"l{i}" for i in range(len(ids))])
    index = VectorIndex(graph, rows / np.linalg.norm(rows, axis=1, keepdims=True))
    encoder = StaticWordVectors({"x": np.array([1.0, 2.0, 0.0, 1.0]),
                                 "y": np.array([0.0, -1.0, 3.0, 1.0])}, dim=4)

    def peak(labels):
        tracemalloc.start()
        try:
            search_concept(index, labels, 10, encoder)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = peak(["x"])
    assert peak(["x", "y", "x y", "y y x"] * 100) <= 2 * one
