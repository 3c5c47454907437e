"""match-eval: the batch ``match``/``eval`` path, in process, one thread.

Each pass runs ``evaluation.evaluate_run`` four times over the fixed
seeded query set: concept-mode queries (1..5 perturbed labels of one true
target) through ``store.match_hits`` and text-mode queries through
``store.query_hits``, each with the vector and the BM25 ranker.  Every
pass must produce the same report as the first; the first pass's report
digests and the bundle's table and rows must equal the pinned ones
(``reference``); a sample of the first pass's rankings is checked against
the reference rankers in ``oracle``.  The host probe runs after every
query, outside its timing: each query's latency is scaled by the probes
around it, the rest of each ``evaluate_run`` by the median of the probes
taken during it, and set-up by the run's median probe.
"""

from __future__ import annotations

import time
from pathlib import Path

import common
import oracle
import reference
import tracing
from common import HostProbe, Result, median, min_samples

SETUP_REPEATS = 5
K_LIST = (1, 5, 10)
ORACLE_SAMPLE = 8  # queries per (mode, ranker) checked against the reference
RUNS = (("concept", "vector"), ("concept", "bm25"), ("text", "vector"), ("text", "bm25"))
MATCH = ("concept", "vector")


def read_queries(work: Path) -> dict:
    from ontosearch import evaluation

    return {mode: evaluation.read_queries(work / "inputs" / f"{mode}_queries.tsv", mode=mode)
            for mode in ("concept", "text")}


def answer(bundle, query, k: int, ranker: str):
    """What the ranker handle ``eval`` builds returns for one query."""
    from ontosearch import store

    if query.query_text is not None:
        return store.query_hits(bundle, query.query_text, k, ranker)
    return store.match_hits(bundle, list(query.query_labels), k, ranker)


def evaluate(bundle, queries, handle):
    from ontosearch import evaluation

    return evaluation.evaluate_run(queries, handle, bundle.graph, k_list=K_LIST,
                                   stopwords=bundle.bm25.stopwords).to_dict()


def report_digests(run: tuple, report: dict) -> dict[str, str]:
    key = "/".join(run)
    return {f"{key}/aggregates": reference.text_digest(sorted(report["aggregates"].items())),
            f"{key}/per_query": reference.text_digest(report["per_query"])}


def reference_digests(work: Path, seed: int, n_concepts: int) -> dict[str, str]:
    """The digests a run pins, computed untimed from scratch."""
    from ontosearch import store

    common.prep(work, seed, n_concepts, bundle=True)
    bundle = store.load_bundle(work / "bundle")
    queries = read_queries(work)
    digests = reference.bundle_digests(bundle)
    for run in RUNS:
        report = evaluate(bundle, queries[run[0]],
                          lambda query, k, ranker=run[1]: answer(bundle, query, k, ranker))
        digests.update(report_digests(run, report))
    return digests


class Session:
    """A loaded bundle, its query sets, and what the passes observed.
    Latencies and ``eval_s`` are scaled to the reference host speed; the
    ``raw`` figures are not."""

    def __init__(self, work: Path, bundle, result: Result, probe: HostProbe):
        self.bundle = bundle
        self.queries = read_queries(work)
        self.result = result
        self.probe = probe
        self.latency_s = {run: [] for run in RUNS}
        self.raw_latency_s = {run: [] for run in RUNS}
        self.eval_s = self.raw_eval_s = 0.0
        self.evaluated = 0
        # time in the handle, with probes, raw and scaled, of the current evaluate_run
        self.handle_wall = self.handle_raw = self.handle_scaled = 0.0
        self.first: dict[tuple, list[dict]] = {}
        self.samples: dict[tuple, dict] = {}
        self.digests = reference.bundle_digests(bundle)

    def handle(self, ranker: str, run: tuple, probes: list[float], tracer):
        """The ranker handle ``evaluate_run`` calls, plus a host probe after
        each query, appended to ``probes``."""
        bundle, probe = self.bundle, self.probe
        latencies, raw = self.latency_s[run], self.raw_latency_s[run]
        sample = self.samples.setdefault(run, {}) if run not in self.first else None

        def handle(query, k):
            t0 = time.perf_counter()
            hits = answer(bundle, query, k, ranker)
            took = time.perf_counter() - t0
            probes.append(probe.now())
            self.handle_wall += time.perf_counter() - t0
            self.handle_raw += took
            raw.append(took)
            latencies.append(took * probe.factor(probes[-2], probes[-1]))
            self.handle_scaled += latencies[-1]
            if sample is not None and len(sample) < ORACLE_SAMPLE:
                sample[query] = hits
            return hits

        return tracer.wrap_function(handle, "evaluation.ranker_handle") if tracer else handle

    def one_pass(self, tracer=None) -> None:
        for run in RUNS:
            mode, ranker = run
            queries = self.queries[mode]
            self.result.attempted += len(queries)
            probes = [self.probe.now()]
            self.handle_wall = self.handle_raw = self.handle_scaled = 0.0
            t0 = time.perf_counter()
            try:
                report = evaluate(self.bundle, queries, self.handle(ranker, run, probes, tracer))
            except Exception as exc:  # a query that raises fails the whole run
                self.result.fail(len(queries), why=f"{mode}/{ranker}: {exc!r}")
                continue
            # the queries scaled one by one, evaluate_run's own work as a whole
            own = time.perf_counter() - t0 - self.handle_wall
            self.eval_s += self.handle_scaled + own * HostProbe.REFERENCE_S / median(probes)
            self.raw_eval_s += self.handle_raw + own
            self.evaluated += len(queries)
            self.compare(run, report)

    def compare(self, run: tuple, report: dict) -> None:
        rows = report["per_query"]
        if run not in self.first:
            self.first[run] = rows
            self.digests.update(report_digests(run, report))
            return
        differing = sum(1 for a, b in zip(rows, self.first[run]) if a != b)
        if differing:
            self.result.fail(differing, why=f"{'/'.join(run)}: rows differ between passes")

    def run_passes(self, seconds: float, need: int, tracer=None) -> None:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(self.latency_s[MATCH]) < need:
            self.one_pass(tracer)

    def check_oracle(self) -> None:
        ref = oracle.Reference(self.bundle)
        for run, sample in self.samples.items():
            for query, hits in sample.items():
                expected = ref.rank(query, max(K_LIST), run[1])
                got = [(h.concept_id, h.best_label, h.score) for h in hits]
                if not oracle.same_ranking(got, expected):
                    self.result.fail(why=f"{'/'.join(run)} {query.query_id}: ranking differs from reference")


def load(work: Path):
    """(bundle, seconds ``load_bundle`` took)."""
    from ontosearch import store

    t0 = time.perf_counter()
    bundle = store.load_bundle(work / "bundle")
    return bundle, time.perf_counter() - t0


def run(work: Path, seed: int, seconds: float, trace: bool, n_concepts: int) -> Result:
    common.prep(work, seed, n_concepts, bundle=True)
    with HostProbe() as probe:
        result, session = measure(work, seconds, trace, probe)
        result.extra["probe_s"] = median(probe.probes)
    result.extra["digests"] = session.digests
    reference.check("match-eval", seed, n_concepts, session.digests, result, reference_digests)
    return result


def measure(work: Path, seconds: float, trace: bool, probe: HostProbe):
    result = Result()
    if not trace:
        setups = []
        bundle = None
        for _ in range(SETUP_REPEATS):
            bundle = None  # keep one bundle alive at a time
            bundle, took = load(work)
            setups.append(took)
        session = Session(work, bundle, result, probe)
        session.run_passes(seconds, min_samples(0.5))
        result.metrics["rss_mb"] = common.peak_rss_mb()  # before the oracle's own memory
        session.check_oracle()
        result.metrics["setup_s"] = median(setups) * probe.run_factor()
        result.metrics["latency_ms"] = median(session.latency_s[MATCH]) * 1e3
        result.metrics["throughput_per_s"] = session.evaluated / session.eval_s
        result.extra["raw"] = {
            "setup_s": median(setups),
            "latency_ms": median(session.raw_latency_s[MATCH]) * 1e3,
            "throughput_per_s": session.evaluated / session.raw_eval_s,
        }
        result.extra["samples"] = {"setup": len(setups), "match": len(session.latency_s[MATCH]),
                                   "queries": session.evaluated}
        return result, session

    # traced run: an untraced phase, then a traced one on a fresh load
    plain = Session(work, load(work)[0], result, probe)
    plain.run_passes(seconds, min_samples(0.95))
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        plain.bundle = None
        traced = Session(work, load(work)[0], result, probe)
        traced.run_passes(seconds, min_samples(0.5), tracer)
    finally:
        tracer.uninstall()
    if traced.digests != plain.digests:
        result.fail(why="traced report digests differ from untraced")
    traced.check_oracle()
    spans = tracer.records()
    metrics = tracing.layer_metrics(spans)
    metrics["trace.overhead_pct"] = 100.0 * (
        median(traced.latency_s[MATCH]) / median(plain.latency_s[MATCH]) - 1.0)
    metrics["match_p50_ms"] = median(plain.latency_s[MATCH]) * 1e3
    metrics["match_p95_ms"] = tracing.tail(plain.latency_s[MATCH], 0.95)
    metrics["eval_qps"] = plain.evaluated / plain.eval_s
    result.extra["layers"] = metrics
    result.extra["spans"] = spans
    return result, traced
