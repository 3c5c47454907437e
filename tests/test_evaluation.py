import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats
from scipy.special import betainc as scipy_betainc

from ontosearch.errors import (
    EmptyQueryAfterStopwords,
    LengthMismatch,
    MalformedLine,
    TooFewPairs,
    UnknownConceptId,
)
from ontosearch.evaluation import (
    EvalQuery,
    PerQueryResult,
    bucketize_by_overlap,
    evaluate_run,
    hits_at_k,
    mrr,
    ndcg_at_k,
    overlap_degree,
    paired_t_test,
    rank_of_first_relevant,
    read_queries,
    regularized_incomplete_beta,
    significance_against,
)
from ontosearch.ontology import Concept
from ontosearch.ranker import RankedHit


def hits_list(*concept_ids):
    return [
        RankedHit(concept_id=cid, best_label=cid, score=1.0 - 0.01 * i, rank=i)
        for i, cid in enumerate(concept_ids, start=1)
    ]


class TestHitsAtK:
    def test_rank1_k1(self):
        assert hits_at_k(hits_list("x", "y"), {"x"}, 1) == 1

    def test_rank7_k5(self):
        results = hits_list("a", "b", "c", "d", "e", "f", "x")
        assert hits_at_k(results, {"x"}, 5) == 0
        assert hits_at_k(results, {"x"}, 10) == 1

    def test_any_of_several_relevant(self):
        results = hits_list("a", "b", "c", "x", "e")
        assert hits_at_k(results, {"zz", "x"}, 5) == 1

    def test_monotone_in_k(self):
        results = hits_list("a", "b", "x")
        values = [hits_at_k(results, {"x"}, k) for k in range(1, 6)]
        assert values == sorted(values)

    def test_hits_at_least_mrr_indicator(self):
        # hits@k == 1 exactly when the first relevant rank r satisfies
        # 1/r >= 1/k
        import itertools

        for ids in itertools.permutations(("a", "b", "x", "y"), 3):
            results = hits_list(*ids)
            rr = mrr(results, {"x"})
            for k in (1, 2, 3):
                assert hits_at_k(results, {"x"}, k) >= (1 if rr >= 1 / k else 0)


class TestMrr:
    def test_reciprocal_rank_worked_values(self):
        # ranks 1, 2, 5 and 7 for the same query across methods
        for rank, expected in [(1, 1.0), (2, 0.5), (5, 0.2), (7, 1 / 7)]:
            results = hits_list(*[f"f{i}" for i in range(1, rank)], "x")
            assert mrr(results, {"x"}) == pytest.approx(expected, abs=1e-9)

    def test_miss_is_zero(self):
        assert mrr(hits_list("a", "b"), {"x"}) == 0.0

    def test_max_over_single_relevant(self):
        results = hits_list("a", "x", "b", "y")
        combined = mrr(results, {"x", "y"})
        assert combined == max(mrr(results, {"x"}), mrr(results, {"y"}))


class TestNdcg:
    def test_worked_example_gains_31211(self, asthenia_graph):
        # rank order: the truth, a sibling, the parent, an uncle, a
        # grandparent -> gains [3, 1, 2, 1, 1]
        results = hits_list("asthenia", "feeling-tired", "fatigue", "exhaustion", "energy")
        value = ndcg_at_k(results, "asthenia", asthenia_graph, 5)
        dcg = sum(g / math.log2(i + 1) for i, g in enumerate([3, 1, 2, 1, 1], 1))
        idcg = sum(g / math.log2(i + 1) for i, g in enumerate([3, 2, 1, 1, 1], 1))
        assert value == pytest.approx(dcg / idcg, abs=1e-12)
        # exact value is 0.976533...; the reference 0.976 is the truncation
        assert value == pytest.approx(0.9765, abs=5e-4)
        assert math.floor(value * 1000) == 976

    def test_sorted_gains_give_one(self, asthenia_graph):
        results = hits_list("asthenia", "fatigue", "feeling-tired", "energy")
        assert ndcg_at_k(results, "asthenia", asthenia_graph, 4) == pytest.approx(1.0)

    def test_all_zero_gains_give_zero(self):
        # disjoint roots share no relation at all
        from ontosearch.ontology import OntologyGraph

        graph = OntologyGraph(
            Concept(id=c, labels=(c,), parent_ids=frozenset())
            for c in ("isolated-a", "isolated-b", "isolated-c")
        )
        results = hits_list("isolated-b", "isolated-c")
        assert ndcg_at_k(results, "isolated-a", graph, 2) == 0.0

    def test_multiple_truths_take_max_gain(self, asthenia_graph):
        # vs {asthenia} alone the gains are [1, 3] (sibling first); adding
        # feeling-tired as a second truth lifts both ranks to gain 3
        results = hits_list("feeling-tired", "asthenia")
        single = ndcg_at_k(results, "asthenia", asthenia_graph, 2)
        multi = ndcg_at_k(results, ["asthenia", "feeling-tired"], asthenia_graph, 2)
        assert single < 1.0
        assert multi == pytest.approx(1.0, abs=1e-12)

    def test_permutation_below_k_irrelevant(self, asthenia_graph):
        a = hits_list("asthenia", "fatigue", "exhaustion", "energy")
        b = hits_list("asthenia", "fatigue", "energy", "exhaustion")
        k = 2
        assert ndcg_at_k(a, "asthenia", asthenia_graph, k) == ndcg_at_k(
            b, "asthenia", asthenia_graph, k
        )

    def test_value_in_unit_interval(self, asthenia_graph):
        import itertools

        ids = list(asthenia_graph.concepts)
        for perm in itertools.permutations(ids, 3):
            value = ndcg_at_k(hits_list(*perm), "asthenia", asthenia_graph, 3)
            assert 0.0 <= value <= 1.0


class TestOverlap:
    def concept(self, *labels):
        return Concept(id="c", labels=tuple(labels), parent_ids=frozenset())

    def test_one_third_shared(self):
        value = overlap_degree(
            "narrow retinal arterioles",
            self.concept("Retinal arteries attenuated"),
        )
        assert value == pytest.approx(1 / 3, abs=1e-15)

    def test_zero_overlap(self):
        assert overlap_degree("tooth mass excess", self.concept("Macrodontia")) == 0.0

    def test_query_equal_to_label(self):
        assert overlap_degree("head pain", self.concept("Head pain")) == 1.0

    def test_pooled_over_all_labels(self):
        concept = self.concept("Macrodontia", "tooth mass excess")
        assert overlap_degree("tooth mass excess", concept) == 1.0

    def test_stopword_only_query_raises(self):
        with pytest.raises(EmptyQueryAfterStopwords):
            overlap_degree("of the", self.concept("anything"))

    def test_duplication_and_order_invariance(self):
        concept = self.concept("Retinal arteries attenuated")
        a = overlap_degree("narrow retinal arterioles", concept)
        b = overlap_degree("retinal narrow retinal arterioles narrow", concept)
        assert a == b


class TestBuckets:
    def rows(self, overlaps, hits10=None):
        hits10 = hits10 or [1] * len(overlaps)
        return [
            PerQueryResult(
                query_id=f"q{i}",
                rank_of_first_relevant=1,
                hits={10: h},
                ndcg={10: 1.0},
                mrr=1.0,
                overlap_degree=o,
            )
            for i, (o, h) in enumerate(zip(overlaps, hits10))
        ]

    def test_interval_membership(self):
        rows = self.rows([0.0, 0.33, 1.0])
        buckets = bucketize_by_overlap(rows)
        assert buckets[0].query_ids == ["q0"]
        assert buckets[1].query_ids == ["q1"]
        assert buckets[4].query_ids == ["q2"]  # 1.0 lands in the closed last bucket
        assert rows[0].bucket == 0 and rows[1].bucket == 1 and rows[2].bucket == 4

    def test_each_lower_edge_opens_its_bucket(self):
        rows = self.rows([0.0, 0.19999, 0.2, 0.4, 0.6, 0.79999, 0.8, 0.99999, 1.0])
        bucketize_by_overlap(rows)
        assert [row.bucket for row in rows] == [0, 0, 1, 2, 3, 3, 4, 4, 4]

    def test_empty_bucket_mean_absent(self):
        buckets = bucketize_by_overlap(self.rows([0.1]))
        assert buckets[0].mean_hits_at_k == 1.0
        assert all(b.mean_hits_at_k is None for b in buckets[1:])

    def test_mean_hits(self):
        buckets = bucketize_by_overlap(self.rows([0.05, 0.1], hits10=[1, 0]))
        assert buckets[0].mean_hits_at_k == 0.5

    def test_rows_without_overlap_skipped(self):
        rows = self.rows([0.5])
        rows[0].overlap_degree = None
        buckets = bucketize_by_overlap(rows)
        assert all(not b.query_ids for b in buckets)


class TestPairedTTest:
    def test_all_zero_differences(self):
        assert paired_t_test([1.0, 1.0, 1.0], [1.0, 1.0, 1.0]) == (0.0, 1.0)

    def test_d_one_zero_closed_form(self):
        # d = [1, 0]: t = 1 with nu = 1; for nu=1 the t CDF is the Cauchy
        # CDF, so two-sided p = 2*(1 - (1/2 + atan(1)/pi)) = 0.5
        t, p = paired_t_test([1.0, 0.0], [0.0, 0.0])
        assert t == pytest.approx(1.0, abs=1e-12)
        assert p == pytest.approx(0.5, abs=1e-9)

    def test_swap_negates_t_keeps_p(self):
        a = [0.3, 0.9, 0.4, 0.7]
        b = [0.1, 0.5, 0.6, 0.2]
        t1, p1 = paired_t_test(a, b)
        t2, p2 = paired_t_test(b, a)
        assert t2 == pytest.approx(-t1, abs=1e-12)
        assert p2 == pytest.approx(p1, abs=1e-12)

    def test_identical_samples(self):
        a = [0.2, 0.4, 0.8]
        assert paired_t_test(a, list(a)) == (0.0, 1.0)

    def test_constant_nonzero_difference(self):
        t, p = paired_t_test([1.0, 1.0], [0.0, 0.0])
        assert t == math.inf
        assert p == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            paired_t_test([1.0], [1.0, 2.0])

    def test_too_few_pairs(self):
        with pytest.raises(TooFewPairs):
            paired_t_test([1.0], [0.0])

    def test_against_scipy_oracle(self):
        import numpy as np

        rng = np.random.default_rng(5)
        for n in (2, 3, 5, 20, 100):
            for _ in range(10):
                a = rng.normal(size=n)
                b = a + rng.normal(scale=0.5, size=n)
                t, p = paired_t_test(list(a), list(b))
                expected = scipy_stats.ttest_rel(a, b)
                assert t == pytest.approx(expected.statistic, rel=1e-10, abs=1e-12)
                assert p == pytest.approx(expected.pvalue, rel=1e-9, abs=1e-12)

    @given(
        st.lists(st.floats(-1, 1), min_size=2, max_size=30),
        st.lists(st.floats(-1, 1), min_size=2, max_size=30),
    )
    @settings(max_examples=60)
    def test_p_in_unit_interval(self, a, b):
        n = min(len(a), len(b))
        t, p = paired_t_test(a[:n], b[:n])
        assert 0.0 <= p <= 1.0


def test_regularized_incomplete_beta_matches_scipy():
    for a in (0.5, 1.0, 2.5, 7.0):
        for b in (0.5, 1.5, 4.0):
            for x in (0.0, 1e-6, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0 - 1e-6, 1.0):
                ours = regularized_incomplete_beta(a, b, x)
                ref = float(scipy_betainc(a, b, x))
                assert ours == pytest.approx(ref, rel=1e-10, abs=1e-13)


class TestEvaluateRun:
    def fixed_ranker(self, table):
        def handle(query, k):
            return table[query.query_id][:k]

        return handle

    def test_single_query_arithmetic(self, asthenia_graph):
        queries = [
            EvalQuery(query_id="q1", relevant_ids=frozenset({"asthenia"}),
                      query_text="weakness")
        ]
        table = {"q1": hits_list("fatigue", "asthenia", "energy")}
        report = evaluate_run(queries, self.fixed_ranker(table), asthenia_graph)
        assert report.aggregates["hits@1"] == 0
        assert report.aggregates["hits@5"] == 1
        assert report.aggregates["mrr"] == pytest.approx(0.5)
        assert report.per_query[0].rank_of_first_relevant == 2

    def test_identical_runs_identical_reports(self, asthenia_graph):
        queries = [
            EvalQuery(query_id="q1", relevant_ids=frozenset({"asthenia"}),
                      query_text="lassitude"),
            EvalQuery(query_id="q2", relevant_ids=frozenset({"fatigue"}),
                      query_text="weariness"),
        ]
        table = {
            "q1": hits_list("asthenia", "fatigue"),
            "q2": hits_list("energy", "fatigue"),
        }
        first = evaluate_run(queries, self.fixed_ranker(table), asthenia_graph)
        second = evaluate_run(queries, self.fixed_ranker(table), asthenia_graph)
        assert first.to_json() == second.to_json()

    def test_aggregates_are_means(self, asthenia_graph):
        queries = [
            EvalQuery(query_id=f"q{i}", relevant_ids=frozenset({"asthenia"}),
                      query_text="weak feeling")
            for i in range(4)
        ]
        table = {
            "q0": hits_list("asthenia"),
            "q1": hits_list("fatigue", "asthenia"),
            "q2": hits_list("energy"),
            "q3": hits_list("exhaustion", "energy", "asthenia"),
        }
        report = evaluate_run(queries, self.fixed_ranker(table), asthenia_graph)
        for key in report.aggregates:
            if key == "overlap_degree":
                values = [
                    r.overlap_degree for r in report.per_query
                    if r.overlap_degree is not None
                ]
            elif key == "mrr":
                values = [r.mrr for r in report.per_query]
            elif key.startswith("hits@"):
                values = [r.hits[int(key.split("@")[1])] for r in report.per_query]
            else:
                values = [r.ndcg[int(key.split("@")[1])] for r in report.per_query]
            assert abs(report.aggregates[key] - sum(values) / len(values)) < 1e-12

    def test_strictly_better_run_gets_positive_t(self, asthenia_graph):
        queries = [
            EvalQuery(query_id=f"q{i}", relevant_ids=frozenset({"asthenia"}),
                      query_text="weakness")
            for i in range(5)
        ]
        good = {f"q{i}": hits_list("asthenia") for i in range(5)}
        bad = {f"q{i}": hits_list("energy") if i else hits_list("asthenia")
               for i in range(5)}
        report_good = evaluate_run(queries, self.fixed_ranker(good), asthenia_graph)
        report_bad = evaluate_run(queries, self.fixed_ranker(bad), asthenia_graph)
        sig = significance_against(
            report_good, report_bad.to_dict(), "bad-run", stat="hits", k=10
        )
        assert sig["t"] > 0
        assert 0.0 < sig["p"] < 1.0

    def test_concept_mode_query_and_report_shape(self, asthenia_graph):
        queries = [
            EvalQuery(
                query_id="q1",
                relevant_ids=frozenset({"fatigue"}),
                query_labels=("Fatigue", "Weariness"),
            )
        ]
        table = {"q1": hits_list("fatigue")}
        report = evaluate_run(queries, self.fixed_ranker(table), asthenia_graph)
        payload = json.loads(report.to_json())
        assert set(payload) == {"per_query", "aggregates", "buckets", "significance"}
        row = payload["per_query"][0]
        assert row["overlap_degree"] is None  # concept-mode: no overlap
        assert row["hits@1"] == 1
        assert payload["buckets"] == []  # no overlaps anywhere

    def test_overlap_and_buckets_recorded(self, asthenia_graph):
        queries = [
            EvalQuery(query_id="q1", relevant_ids=frozenset({"asthenia"}),
                      query_text="lassitude words"),
        ]
        table = {"q1": hits_list("asthenia")}
        report = evaluate_run(queries, self.fixed_ranker(table), asthenia_graph)
        row = report.per_query[0]
        assert row.overlap_degree == pytest.approx(0.5)  # lassitude shared
        assert report.buckets[row.bucket].query_ids == ["q1"]

    @pytest.mark.parametrize("query", [
        EvalQuery("q2", frozenset({"fatigue", "NOPE"}), query_labels=("Fatigue",)),
        EvalQuery("q2", frozenset({"NOPE"}), query_text="tired"),
    ])
    def test_unknown_relevant_id_fails_before_any_query_runs(self, asthenia_graph, query):
        queries = [EvalQuery("q1", frozenset({"fatigue"}), query_text="tired"), query]
        asked = []

        def ranker(query, k):
            asked.append(query.query_id)
            return []

        with pytest.raises(UnknownConceptId, match="^query 'q2': unknown relevant "
                                                   "concept id 'NOPE'$"):
            evaluate_run(queries, ranker, asthenia_graph)
        assert asked == []


class TestQueryFile:
    def test_text_mode(self, tmp_path):
        path = tmp_path / "q.tsv"
        path.write_text(
            "q1\tweak feeling\tasthenia\nq2\ttired\tfatigue,exhaustion\n",
            encoding="utf-8",
        )
        queries = read_queries(path, mode="text")
        assert queries[0].query_text == "weak feeling"
        assert queries[1].relevant_ids == {"fatigue", "exhaustion"}

    def test_concept_mode(self, tmp_path):
        path = tmp_path / "q.tsv"
        path.write_text("q1\tFatigue|Weariness\tfatigue\n", encoding="utf-8")
        queries = read_queries(path, mode="concept")
        assert queries[0].query_labels == ("Fatigue", "Weariness")

    @pytest.mark.parametrize("relevant", ["", ",", ",,"])
    def test_row_without_relevant_id(self, tmp_path, relevant):
        path = tmp_path / "q.tsv"
        path.write_text(f"q1\ttired\tfatigue\nq2\tweak\t{relevant}\n", encoding="utf-8")
        with pytest.raises(MalformedLine, match=f"^{re.escape(str(path))}:2: "):
            read_queries(path)

    @pytest.mark.parametrize("row, got", [("q2\tweak", 2), ("q2\tweak\tfatigue\tx", 4)])
    def test_row_with_wrong_field_count(self, tmp_path, row, got):
        path = tmp_path / "q.tsv"
        path.write_text(f"# queries\n\nq1\ttired\tfatigue\n{row}\n", encoding="utf-8")
        with pytest.raises(MalformedLine, match=f"^{re.escape(str(path))}:4: expected 3 "
                                                f"tab-separated fields, got {got}$"):
            read_queries(path)

    @pytest.mark.parametrize("body", ["", "|", "||"])
    def test_concept_row_without_label(self, tmp_path, body):
        path = tmp_path / "q.tsv"
        path.write_text(f"q1\tFatigue\tfatigue\nq2\t{body}\tfatigue\n", encoding="utf-8")
        with pytest.raises(MalformedLine, match=f"^{re.escape(str(path))}:2: no query label$"):
            read_queries(path, mode="concept")

    def test_repeated_query_id(self, tmp_path):
        path = tmp_path / "q.tsv"
        path.write_text("# queries\nq1\ttired\tfatigue\nq2\tweak\tasthenia\nq1\tzzz\tfatigue\n",
                        encoding="utf-8")
        with pytest.raises(MalformedLine, match=f"^{re.escape(str(path))}:4: query id 'q1' "
                                                f"repeats line 2$"):
            read_queries(path)

    def test_validation(self):
        with pytest.raises(ValueError):
            EvalQuery(query_id="x", relevant_ids=frozenset({"a"}))
        with pytest.raises(ValueError):
            EvalQuery(query_id="x", relevant_ids=frozenset(), query_text="t")
