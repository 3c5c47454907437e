"""Ranking evaluation: Hits@K, relation-gain nDCG@K, MRR, overlap-degree
buckets, and paired t-test significance between runs.

nDCG gains come from the ontology: an exact hit gains 3, a direct parent
or child 2, a grandparent/grandchild/uncle/sibling 1, anything else 0.
DCG uses the linear gain g_i / log2(i + 1), and the ideal ordering is the
returned gain multiset sorted descending (not the best achievable set).
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .embedder import tokenize
from .errors import (
    EmptyQueryAfterStopwords,
    LengthMismatch,
    MalformedLine,
    TooFewPairs,
    UnknownConceptId,
    UsageError,
)
from .npzio import read_rows
from .ontology import Concept, OntologyGraph, gain_of_relation, relation_between
from .ranker import DEFAULT_STOPWORDS, RankedHit

BUCKET_EDGES = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
DEFAULT_K_LIST = (1, 5, 10)


@dataclass(frozen=True)
class EvalQuery:
    """One evaluation query: free text or a bag of labels, plus its
    relevant concept id(s)."""

    query_id: str
    relevant_ids: frozenset[str]
    query_text: str | None = None
    query_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if (self.query_text is None) == (self.query_labels is None):
            raise ValueError(
                f"query {self.query_id!r}: exactly one of query_text/query_labels"
            )
        if not self.relevant_ids:
            raise ValueError(f"query {self.query_id!r}: relevant_ids is empty")


# --- core metrics --------------------------------------------------------------

def rank_of_first_relevant(
    results: Sequence[RankedHit], relevant_ids: Iterable[str]
) -> int | None:
    relevant = set(relevant_ids)
    for hit in results:
        if hit.concept_id in relevant:
            return hit.rank
    return None


def hits_at_k(results: Sequence[RankedHit], relevant_ids: Iterable[str], k: int) -> int:
    """1 iff any relevant concept appears at rank <= k."""
    if k < 1:
        raise UsageError("k must be >= 1")
    rank = rank_of_first_relevant(results, relevant_ids)
    return 1 if rank is not None and rank <= k else 0


def mrr(results: Sequence[RankedHit], relevant_ids: Iterable[str]) -> float:
    """Reciprocal rank of the first relevant result; 0.0 on a miss."""
    rank = rank_of_first_relevant(results, relevant_ids)
    return 1.0 / rank if rank is not None else 0.0


def ndcg_at_k(
    results: Sequence[RankedHit],
    truth_ids: str | Iterable[str],
    graph: OntologyGraph,
    k: int,
) -> float:
    """Relation-gain nDCG over the top k results.

    With several truth concepts each rank takes its maximum gain.  When
    every returned gain is zero the ideal is zero too and the value is
    defined as 0.0.
    """
    if k < 1:
        raise UsageError("k must be >= 1")
    truths = [truth_ids] if isinstance(truth_ids, str) else list(truth_ids)
    gains = [
        max(gain_of_relation(relation_between(graph, hit.concept_id, t)) for t in truths)
        for hit in results[:k]
    ]
    dcg = sum(g / math.log2(i + 1) for i, g in enumerate(gains, start=1))
    idcg = sum(
        g / math.log2(i + 1)
        for i, g in enumerate(sorted(gains, reverse=True), start=1)
    )
    return dcg / idcg if idcg > 0.0 else 0.0


def overlap_degree(
    query: str, truth_concept: Concept, stopwords: frozenset[str] = DEFAULT_STOPWORDS
) -> float:
    """Fraction of the query's non-stop-word token set found among the
    truth concept's pooled label tokens."""
    t_q = {t for t in tokenize(query) if t not in stopwords}
    if not t_q:
        raise EmptyQueryAfterStopwords(
            f"query {query!r} has no non-stop-word tokens"
        )
    t_c = {
        t
        for label in truth_concept.labels
        for t in tokenize(label)
        if t not in stopwords
    }
    return len(t_q & t_c) / len(t_q)


# --- paired t-test ---------------------------------------------------------------

def _betacf(a: float, b: float, x: float) -> float:
    # Continued fraction for the incomplete beta (modified Lentz).
    max_iter = 300
    eps = 3e-16
    fpmin = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) via the continued-fraction expansion."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def paired_t_test(
    scores_a: Sequence[float], scores_b: Sequence[float]
) -> tuple[float, float]:
    """Two-sided paired t-test over per-query scores.

    Returns (t, p) with p from the exact Student-t CDF,
    p = I_{nu/(nu+t^2)}(nu/2, 1/2), nu = n - 1.  All-zero differences give
    (0.0, 1.0); identical non-zero differences have zero variance and give
    (+/-inf, 0.0).
    """
    if len(scores_a) != len(scores_b):
        raise LengthMismatch(
            f"paired samples differ in length: {len(scores_a)} vs {len(scores_b)}"
        )
    n = len(scores_a)
    if n < 2:
        raise TooFewPairs(f"need at least 2 pairs, got {n}")
    diffs = [a - b for a, b in zip(scores_a, scores_b)]
    if all(d == 0.0 for d in diffs):
        return 0.0, 1.0
    mean = sum(diffs) / n
    var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    if var == 0.0:
        return math.copysign(math.inf, mean), 0.0
    t = mean / math.sqrt(var / n)
    nu = n - 1
    p = regularized_incomplete_beta(nu / 2.0, 0.5, nu / (nu + t * t))
    return t, p


# --- run evaluation ---------------------------------------------------------------

@dataclass
class PerQueryResult:
    query_id: str
    rank_of_first_relevant: int | None
    hits: dict[int, int]
    ndcg: dict[int, float]
    mrr: float
    overlap_degree: float | None = None
    bucket: int | None = None

    def to_dict(self) -> dict:
        row: dict = {
            "query_id": self.query_id,
            "rank_of_first_relevant": self.rank_of_first_relevant,
        }
        for k in sorted(self.hits):
            row[f"hits@{k}"] = self.hits[k]
        for k in sorted(self.ndcg):
            row[f"ndcg@{k}"] = self.ndcg[k]
        row["mrr"] = self.mrr
        row["overlap_degree"] = self.overlap_degree
        row["bucket"] = self.bucket
        return row


@dataclass
class OverlapBucket:
    lower: float
    upper: float
    query_ids: list[str] = field(default_factory=list)
    mean_hits_at_k: float | None = None

    def to_dict(self, k: int) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "query_ids": self.query_ids,
            f"mean_hits@{k}": self.mean_hits_at_k,
        }


@dataclass
class EvalReport:
    per_query: list[PerQueryResult]
    aggregates: dict[str, float]
    buckets: list[OverlapBucket] = field(default_factory=list)
    significance: list[dict] = field(default_factory=list)
    bucket_hits_k: int = 10

    def to_dict(self) -> dict:
        return {
            "per_query": [row.to_dict() for row in self.per_query],
            "aggregates": self.aggregates,
            "buckets": [b.to_dict(self.bucket_hits_k) for b in self.buckets],
            "significance": self.significance,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), ensure_ascii=False, indent=2, allow_nan=False) + "\n"


def bucketize_by_overlap(
    rows: Sequence[PerQueryResult], k: int = 10
) -> list[OverlapBucket]:
    """Assign rows to the [lo, hi) intervals of ``BUCKET_EDGES`` (last
    interval closed) and average their Hits@k.  Empty buckets report no
    mean rather than zero.  Rows without an overlap value (concept-mode
    queries) are left out."""
    buckets = [OverlapBucket(lower=lo, upper=hi)
               for lo, hi in zip(BUCKET_EDGES, BUCKET_EDGES[1:])]
    sums = [0 for _ in buckets]
    for row in rows:
        overlap = row.overlap_degree
        if overlap is None:
            continue
        index = min(bisect_right(BUCKET_EDGES, overlap), len(buckets)) - 1
        row.bucket = index
        buckets[index].query_ids.append(row.query_id)
        sums[index] += row.hits.get(k, 0)
    for i, bucket in enumerate(buckets):
        if bucket.query_ids:
            bucket.mean_hits_at_k = sums[i] / len(bucket.query_ids)
    return buckets


RankerHandle = Callable[[EvalQuery, int], list[RankedHit]]


def evaluate_run(
    queries: Sequence[EvalQuery],
    ranker: RankerHandle,
    graph: OntologyGraph,
    k_list: Sequence[int] = DEFAULT_K_LIST,
    stopwords: frozenset[str] = DEFAULT_STOPWORDS,
) -> EvalReport:
    """Run every query through ``ranker`` at k = max(k_list) and assemble
    per-query rows, aggregate means, and overlap buckets.

    Overlap degree is computed for text queries only (best value across
    several truth concepts); a query that is all stop-words records no
    overlap instead of failing the run.  Every relevant id must name a
    concept of ``graph``, checked for all queries before the first runs.
    """
    k_list = sorted(set(k_list))
    if not k_list or k_list[0] < 1:
        raise UsageError(f"every k must be >= 1, got {k_list}")
    for query in queries:
        for cid in sorted(query.relevant_ids):
            if cid not in graph:
                raise UnknownConceptId(
                    f"query {query.query_id!r}: unknown relevant concept id {cid!r}")
    k_max = max(k_list)
    rows: list[PerQueryResult] = []
    for query in queries:
        results = ranker(query, k_max)
        overlap: float | None = None
        if query.query_text is not None:
            best = None
            for truth_id in sorted(query.relevant_ids):
                try:
                    value = overlap_degree(
                        query.query_text, graph.get(truth_id), stopwords
                    )
                except EmptyQueryAfterStopwords:
                    break
                best = value if best is None else max(best, value)
            overlap = best
        rows.append(
            PerQueryResult(
                query_id=query.query_id,
                rank_of_first_relevant=rank_of_first_relevant(
                    results, query.relevant_ids
                ),
                hits={k: hits_at_k(results, query.relevant_ids, k) for k in k_list},
                ndcg={
                    k: ndcg_at_k(results, query.relevant_ids, graph, k)
                    for k in k_list
                },
                mrr=mrr(results, query.relevant_ids),
                overlap_degree=overlap,
            )
        )

    aggregates: dict[str, float] = {}
    n = len(rows)
    if n:
        for k in k_list:
            aggregates[f"hits@{k}"] = sum(r.hits[k] for r in rows) / n
        for k in k_list:
            aggregates[f"ndcg@{k}"] = sum(r.ndcg[k] for r in rows) / n
        aggregates["mrr"] = sum(r.mrr for r in rows) / n
        with_overlap = [r.overlap_degree for r in rows if r.overlap_degree is not None]
        if with_overlap:
            aggregates["overlap_degree"] = sum(with_overlap) / len(with_overlap)

    bucket_k = k_max if 10 not in k_list else 10
    buckets = (
        bucketize_by_overlap(rows, k=bucket_k)
        if any(r.overlap_degree is not None for r in rows)
        else []
    )
    return EvalReport(
        per_query=rows,
        aggregates=aggregates,
        buckets=buckets,
        bucket_hits_k=bucket_k,
    )


def per_query_stat(report_dict: dict, stat: str, k: int) -> dict[str, float]:
    """Extract {query_id: value} for the t-test pairing from a report dict;
    ``stat`` is 'hits' (the Hits@k indicator) or 'rr' (reciprocal rank).
    A repeated query id would leave the pairing ambiguous and is refused."""
    key = f"hits@{k}" if stat == "hits" else "mrr"
    out = {}
    for row in report_dict["per_query"]:
        if key not in row:
            raise KeyError(f"per-query rows carry no {key!r} field")
        if row["query_id"] in out:
            raise ValueError(f"query id {row['query_id']!r} repeats")
        out[row["query_id"]] = float(row[key])
    return out


def significance_against(
    report: EvalReport,
    baseline_dict: dict,
    baseline_name: str,
    stat: str = "hits",
    k: int = 10,
) -> dict:
    """Paired t-test of this run against a baseline report, matched by
    query id over the intersection of the two query sets.  A zero-variance
    t (+/-inf) is recorded as None, which JSON writes as null."""
    ours = per_query_stat(report.to_dict(), stat, k)
    theirs = per_query_stat(baseline_dict, stat, k)
    shared = sorted(set(ours) & set(theirs))
    t, p = paired_t_test([ours[q] for q in shared], [theirs[q] for q in shared])
    return {
        "baseline": baseline_name,
        "stat": f"hits@{k}" if stat == "hits" else "rr",
        "n": len(shared),
        "t": t if math.isfinite(t) else None,
        "p": p,
    }


# --- query file IO ---------------------------------------------------------------

def read_queries(path: str | Path, mode: str = "text") -> list[EvalQuery]:
    """Query TSV: ``query_id<TAB>query<TAB>relevant_id[,relevant_id...]``.

    In concept mode the query column holds ``label1|label2|...``.  Query ids
    are unique, since significance tests pair runs by id.
    """
    if mode not in ("text", "concept"):
        raise ValueError(f"unknown query mode {mode!r}")
    path = Path(path)
    queries: list[EvalQuery] = []
    first_line: dict[str, int] = {}
    for lineno, (qid, body, relevant) in read_rows(path, 3):
        if qid in first_line:
            raise MalformedLine(
                f"{path}:{lineno}: query id {qid!r} repeats line {first_line[qid]}")
        first_line[qid] = lineno
        relevant_ids = frozenset(x for x in relevant.split(",") if x)
        if not relevant_ids:
            raise MalformedLine(f"{path}:{lineno}: no relevant concept id")
        if mode == "text":
            queries.append(EvalQuery(qid, relevant_ids, query_text=body))
        else:
            labels = tuple(x for x in body.split("|") if x)
            if not labels:
                raise MalformedLine(f"{path}:{lineno}: no query label")
            queries.append(EvalQuery(qid, relevant_ids, query_labels=labels))
    return queries
