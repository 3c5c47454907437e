import math

import numpy as np
import pytest

from ontosearch.embedder import PrecomputedEncoder, SubwordEmbedder
from ontosearch.errors import (
    EmptyQueryConcept,
    MalformedLine,
    MalformedStopwordFile,
    UnknownConceptId,
)
from ontosearch.ontology import Concept, OntologyGraph
from ontosearch.ranker import (
    DEFAULT_STOPWORDS,
    bm25_score,
    bm25_search,
    bm25_search_concept,
    build_bm25_index,
    build_vector_index,
    hit_json_line,
    load_bm25_index,
    load_stopwords,
    load_vector_index,
    save_bm25_index,
    save_vector_index,
    search_concept,
    search_text,
)


def graph_of(*specs):
    return OntologyGraph(
        Concept(id=c, labels=tuple(ls), parent_ids=frozenset(ps))
        for c, ls, ps in specs
    )


def unit(x, y):
    v = np.array([x, y], dtype=np.float64)
    return v / np.linalg.norm(v)


@pytest.fixture
def toy_vector_setup():
    graph = graph_of(
        ("c1", ["l1a", "l1b"], []),
        ("c2", ["l2a"], []),
        ("c3", ["l3a"], []),
    )
    encoder = PrecomputedEncoder(
        {
            "l1a": unit(0.9, math.sqrt(1 - 0.81)),
            "l1b": unit(0.7, math.sqrt(1 - 0.49)),
            "l2a": unit(0.4, math.sqrt(1 - 0.16)),
            "l3a": unit(0.8, math.sqrt(1 - 0.64)),
            "q": np.array([1.0, 0.0]),
            "q2": unit(0.4, math.sqrt(1 - 0.16)),
        },
        dim=2,
    )
    return graph, encoder, build_vector_index(graph, encoder)


class TestVectorIndex:
    def test_one_row_per_concept_label(self):
        graph = graph_of(("a", ["x", "y"], []), ("b", ["u", "v"], []))
        enc = SubwordEmbedder(bucket_count=128, dim=8, seed=0)
        index = build_vector_index(graph, enc)
        assert len(index) == 4
        assert index.concept_ids == ["a", "a", "b", "b"]
        assert index.labels == ["x", "y", "u", "v"]

    def test_rows_unit_or_zero(self):
        graph = graph_of(("a", ["asthenia", "?"], []))  # "?" has no tokens
        enc = SubwordEmbedder(bucket_count=128, dim=8, seed=0)
        index = build_vector_index(graph, enc)
        norms = np.linalg.norm(index.rows, axis=1)
        assert norms[0] == pytest.approx(1.0, abs=1e-12)
        assert norms[1] == 0.0

    def test_rebuild_identical(self, toy_vector_setup):
        graph, encoder, index = toy_vector_setup
        again = build_vector_index(graph, encoder)
        np.testing.assert_array_equal(index.rows, again.rows)
        assert index.encoder_fingerprint == again.encoder_fingerprint

    def test_empty_graph(self):
        enc = SubwordEmbedder(bucket_count=16, dim=4, seed=0)
        index = build_vector_index(graph_of(), enc)
        assert len(index) == 0
        assert search_text(index, "anything", 5, enc) == []


class TestSearchText:
    def test_self_match_is_rank_one_with_score_one(self, toy_vector_setup):
        graph, encoder, index = toy_vector_setup
        hits = search_text(index, "l2a", 3, encoder)
        assert hits[0].concept_id == "c2"
        assert hits[0].rank == 1
        assert hits[0].score == pytest.approx(1.0, abs=1e-12)

    def test_per_concept_max_dedup(self, toy_vector_setup):
        graph, encoder, index = toy_vector_setup
        hits = search_text(index, "q", 10, encoder)
        c1_hits = [h for h in hits if h.concept_id == "c1"]
        assert len(c1_hits) == 1
        assert c1_hits[0].score == pytest.approx(0.9, abs=1e-12)
        assert c1_hits[0].best_label == "l1a"

    def test_k_clamped_to_corpus(self, toy_vector_setup):
        graph, encoder, index = toy_vector_setup
        assert len(search_text(index, "q", 10, encoder)) == 3

    def test_scores_non_increasing_and_ranks_consecutive(self, toy_vector_setup):
        graph, encoder, index = toy_vector_setup
        hits = search_text(index, "q", 10, encoder)
        assert [h.rank for h in hits] == list(range(1, len(hits) + 1))
        assert all(a.score >= b.score for a, b in zip(hits, hits[1:]))

    def test_exact_ties_broken_by_concept_id(self):
        graph = graph_of(("za", ["one"], []), ("ab", ["two"], []))
        vec = unit(1.0, 1.0)
        enc = PrecomputedEncoder({"one": vec, "two": vec.copy(), "q": vec.copy()}, dim=2)
        hits = search_text(build_vector_index(graph, enc), "q", 2, enc)
        assert [h.concept_id for h in hits] == ["ab", "za"]

    def test_k_must_be_positive(self, toy_vector_setup):
        graph, encoder, index = toy_vector_setup
        with pytest.raises(ValueError):
            search_text(index, "q", 0, encoder)

    def test_matches_brute_force_oracle(self):
        # independent oracle: raw cosine + per-concept max + full sort
        rng = np.random.default_rng(2024)
        dim = 16
        n = 200
        concept_ids = [f"c{i:04d}" for i in range(n)]
        vectors = rng.normal(size=(n, dim))
        vectors[25] = vectors[75]  # force exact cross-concept ties
        vectors[120] = vectors[10]
        table = {concept_ids[i]: vectors[i] for i in range(n)}
        queries = {f"q{j}": rng.normal(size=dim) for j in range(20)}
        enc = PrecomputedEncoder({**table, **queries}, dim=dim)
        graph = graph_of(*[(cid, [cid], []) for cid in concept_ids])
        index = build_vector_index(graph, enc)

        def oracle(qvec, k):
            scored = []
            for cid in concept_ids:
                v = table[cid]
                cos = float(
                    np.dot(qvec, v) / (np.linalg.norm(qvec) * np.linalg.norm(v))
                )
                scored.append((cid, cos))
            scored.sort(key=lambda t: (-t[1], t[0]))
            return [cid for cid, _ in scored[:k]]

        for qname, qvec in queries.items():
            for k in (1, 5, 10, 100):
                hits = search_text(index, qname, k, enc)
                assert [h.concept_id for h in hits] == oracle(qvec, k)


class TestSearchConcept:
    def test_single_label_equals_search_text(self, toy_vector_setup):
        graph, encoder, index = toy_vector_setup
        assert search_concept(index, ["q"], 3, encoder) == search_text(
            index, "q", 3, encoder
        )

    def test_max_aggregation_across_labels(self, toy_vector_setup):
        graph, encoder, index = toy_vector_setup
        # "q2" scores c2 at 1.0; "q" scores c2 at 0.4 -> aggregate 1.0
        hits = search_concept(index, ["q", "q2"], 3, encoder)
        c2 = next(h for h in hits if h.concept_id == "c2")
        assert c2.score == pytest.approx(1.0, abs=1e-12)

    def test_duplicate_query_label_is_idempotent(self, toy_vector_setup):
        graph, encoder, index = toy_vector_setup
        assert search_concept(index, ["q", "q"], 3, encoder) == search_concept(
            index, ["q"], 3, encoder
        )

    def test_empty_label_list(self, toy_vector_setup):
        graph, encoder, index = toy_vector_setup
        with pytest.raises(EmptyQueryConcept):
            search_concept(index, [], 3, encoder)


class TestStopwords:
    def test_default_list_has_30_words(self):
        assert len(DEFAULT_STOPWORDS) == 30

    def test_file_loading_lowercases(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("OF\nthe\n\n", encoding="utf-8")
        assert load_stopwords(path) == {"of", "the"}

    def test_internal_whitespace_rejected(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("of the\n", encoding="utf-8")
        with pytest.raises(MalformedStopwordFile):
            load_stopwords(path)

    def test_empty_file_removes_nothing(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("", encoding="utf-8")
        assert load_stopwords(path) == frozenset()


@pytest.fixture
def bm25_fixture(tmp_path):
    """The worked corpus: surviving token counts 3/1/3, avgdl = 7/3."""
    graph = graph_of(
        ("c1", ["headache", "head pain"], []),
        ("c2", ["vomiting"], []),
        ("c3", ["injury of muscle tissue"], []),
    )
    stop = tmp_path / "stop.txt"
    stop.write_text("of\n", encoding="utf-8")
    return graph, build_bm25_index(graph, stop)


class TestBm25:
    def test_avgdl_is_7_thirds(self, bm25_fixture):
        _, index = bm25_fixture
        assert index.doc_lens == [3, 1, 3]
        assert index.avgdl == pytest.approx(7 / 3, abs=1e-15)

    def test_hand_computed_worked_case(self, bm25_fixture):
        # independent hand evaluation of the scoring formula:
        # idf = ln(1 + (3 - 1 + 0.5) / (1 + 0.5)); tf part with tf=1,
        # |D|=3, avgdl=7/3, k1=1.2, b=0.75
        _, index = bm25_fixture
        idf = math.log(1 + (3 - 1 + 0.5) / (1 + 0.5))
        tf_part = (1 * 2.2) / (1 + 1.2 * (1 - 0.75 + 0.75 * (3 / (7 / 3))))
        expected = idf * tf_part
        assert expected == pytest.approx(0.8782, abs=5e-4)  # sanity on magnitude
        assert bm25_score(index, ["headache"], "c1") == pytest.approx(
            expected, abs=1e-9
        )

    def test_absent_terms_contribute_zero(self, bm25_fixture):
        _, index = bm25_fixture
        assert bm25_score(index, ["headache"], "c2") == 0.0
        assert bm25_score(index, ["absent", "words"], "c1") == 0.0

    def test_stopword_only_query_scores_zero(self, bm25_fixture):
        _, index = bm25_fixture
        assert bm25_score(index, ["of"], "c3") == 0.0
        assert bm25_search(index, "of", 5) == []

    def test_unknown_concept(self, bm25_fixture):
        _, index = bm25_fixture
        with pytest.raises(UnknownConceptId):
            bm25_score(index, ["headache"], "nope")

    def test_stopword_only_label_contributes_nothing(self, tmp_path):
        graph = graph_of(("c", ["of the", "vomiting"], []))
        stop = tmp_path / "stop.txt"
        stop.write_text("of\nthe\n", encoding="utf-8")
        index = build_bm25_index(graph, stop)
        assert index.term_freqs[0] == {"vomiting": 1}

    def test_full_token_overlap_ranks_first(self, bm25_fixture):
        _, index = bm25_fixture
        hits = bm25_search(index, "head pain", 3)
        assert hits[0].concept_id == "c1"
        assert hits[0].best_label == "headache"  # preferred label reported

    def test_zero_overlap_concept_absent(self):
        graph = graph_of(("m", ["Macrodontia"], []), ("t", ["tooth decay"], []))
        index = build_bm25_index(graph, None)
        hits = bm25_search(index, "tooth mass excess", 5)
        assert all(h.concept_id != "m" for h in hits)

    def test_equal_scores_ordered_by_id(self):
        graph = graph_of(("zz", ["shared token"], []), ("aa", ["shared token"], []))
        index = build_bm25_index(graph, None)
        hits = bm25_search(index, "shared", 2)
        assert [h.concept_id for h in hits] == ["aa", "zz"]

    def test_idf_strictly_decreasing_in_df(self):
        # term_i occurs in exactly i documents of a 6-doc corpus
        specs = []
        for d in range(6):
            tokens = " ".join(f"term{i}" for i in range(d + 1, 7))
            specs.append((f"d{d}", [tokens], []))
        index = build_bm25_index(graph_of(*specs), None)
        idfs = [index.idf(f"term{i}") for i in range(1, 7)]
        dfs = [index.df[f"term{i}"] for i in range(1, 7)]
        assert dfs == [1, 2, 3, 4, 5, 6]  # df grows, so idf must fall
        assert all(a > b for a, b in zip(idfs, idfs[1:]))

    def test_adding_query_term_occurrence_never_decreases_own_score(self):
        # single-term query equal to the added term
        rng = np.random.default_rng(7)
        vocabulary = [f"w{i}" for i in range(12)]
        for trial in range(30):
            docs = [
                " ".join(rng.choice(vocabulary, size=rng.integers(1, 8)))
                for _ in range(5)
            ]
            target = int(rng.integers(0, 5))
            term = str(rng.choice(vocabulary))
            before_graph = graph_of(*[(f"d{i}", [doc], []) for i, doc in enumerate(docs)])
            before = bm25_score(
                build_bm25_index(before_graph, None), [term], f"d{target}"
            )
            docs[target] = docs[target] + " " + term
            after_graph = graph_of(*[(f"d{i}", [doc], []) for i, doc in enumerate(docs)])
            after = bm25_score(
                build_bm25_index(after_graph, None), [term], f"d{target}"
            )
            assert after >= before - 1e-12

    def test_concept_mode_max_aggregation(self, bm25_fixture):
        _, index = bm25_fixture
        merged = bm25_search_concept(index, ["headache", "vomiting"], 3)
        single_a = bm25_search(index, "headache", 3)
        single_b = bm25_search(index, "vomiting", 3)
        assert {h.concept_id for h in merged} == (
            {h.concept_id for h in single_a} | {h.concept_id for h in single_b}
        )
        with pytest.raises(EmptyQueryConcept):
            bm25_search_concept(index, [], 3)


class TestPersistence:
    def test_vector_round_trip_bitwise(self, toy_vector_setup, tmp_path):
        graph, _, index = toy_vector_setup
        path = tmp_path / "vec.npz"
        save_vector_index(index, path)
        back = load_vector_index(path, graph)
        np.testing.assert_array_equal(back.rows, index.rows)
        # the graph's labels, sorted by concept id
        assert back.concept_ids == ["c1", "c1", "c2", "c3"]
        assert back.labels == ["l1a", "l1b", "l2a", "l3a"]
        assert back.encoder_fingerprint == index.encoder_fingerprint

    def test_vector_rows_must_match_the_graph(self, toy_vector_setup, tmp_path):
        graph, _, index = toy_vector_setup
        path = tmp_path / "vec.npz"
        save_vector_index(index, path)
        # one label fewer and one more: 3 and 5 rows expected, 4 stored
        for labels in (["l1a"], ["l1a", "l1b", "l1c"]):
            changed = graph_of(("c1", labels, []), ("c2", ["l2a"], []), ("c3", ["l3a"], []))
            with pytest.raises(MalformedLine, match=r"rows of shape \(4, 2\)"):
                load_vector_index(path, changed)

    def test_vector_save_is_byte_reproducible(self, toy_vector_setup, tmp_path):
        _, _, index = toy_vector_setup
        save_vector_index(index, tmp_path / "a.npz")
        save_vector_index(index, tmp_path / "b.npz")
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()

    def test_bm25_round_trip(self, bm25_fixture, tmp_path):
        graph, index = bm25_fixture
        path = tmp_path / "bm25.json"
        save_bm25_index(index, path)
        back = load_bm25_index(path, graph)
        assert back.concept_ids == ["c1", "c2", "c3"]
        assert back.labels == ["headache", "vomiting", "injury of muscle tissue"]
        assert back.term_freqs == index.term_freqs
        assert back.df == index.df
        assert back.avgdl == index.avgdl
        assert back.stopwords == index.stopwords
        assert back.fingerprint() == index.fingerprint()
        assert bm25_score(back, ["headache"], "c1") == bm25_score(
            index, ["headache"], "c1"
        )

    def test_bm25_documents_must_match_the_graph(self, bm25_fixture, tmp_path):
        graph, index = bm25_fixture
        path = tmp_path / "bm25.json"
        save_bm25_index(index, path)
        grown = graph_of(*((c.id, c.labels, c.parent_ids) for c in graph.concepts.values()),
                         ("c4", ["extra"], []))
        with pytest.raises(MalformedLine, match="3 documents"):
            load_bm25_index(path, grown)

    def test_bm25_save_is_byte_reproducible(self, bm25_fixture, tmp_path):
        _, index = bm25_fixture
        save_bm25_index(index, tmp_path / "a.json")
        save_bm25_index(index, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_hit_json_line_is_compact_and_stable(toy_vector_setup):
    graph, encoder, index = toy_vector_setup
    hit = search_text(index, "l2a", 1, encoder)[0]
    line = hit_json_line(hit)
    assert line.startswith('{"concept_id":"c2","best_label":"l2a","score":')
    assert line == hit_json_line(hit)
