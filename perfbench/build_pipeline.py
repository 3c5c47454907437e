"""build-pipeline: the write side, no query path.

Set-up loads the ontology TSVs and initialises the seeded subword table.
Each iteration then starts from that table and runs four stages in order:
``generate_triplets`` + ``split_dataset``; ``train`` for a fixed number of
Adam steps on a fixed prefix of the train split; ``build_vector_index`` +
``build_bm25_index`` + ``save_bundle``; and ``load_bundle``.  Every
iteration must write byte-identical artifacts, load back what it saved,
and produce the triplet count the hierarchy implies; the trained table
and the vector rows must equal the pinned ones (``reference``).

It runs on a smaller ontology than the other workloads (``N_CONCEPTS``),
so that a run averages several iterations.  Times are raw, not scaled by
the host probe: scaled build timings spread more between runs than raw
ones (METRICS.md gives the figures).
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict
from pathlib import Path

import common
import reference
import tracing
from common import Result, median

# Smaller than the other workloads' 10,000 concepts, so that a run holds
# about eight iterations: one iteration on 10,000 concepts took 7-9 s, so a
# run averaged two, and host noise that one iteration caught moved the
# run's figure by a quarter (METRICS.md).
N_CONCEPTS = 2_500
SETUP_REPEATS = 5
MIN_ITERATIONS = 2  # the second one checks that artifacts repeat byte for byte
TRAIN_STEPS = 16
BATCH = 32
LEARNING_RATE = 1e-3


def _mod(name: str):
    # ``ontosearch.train`` is shadowed by the function of that name in the
    # package namespace, so modules are fetched by their full name
    return importlib.import_module(f"ontosearch.{name}")


def expected_triplet_count(graph) -> int:
    """Entries ``generate_triplets`` must emit, derived from the hierarchy:
    each ordered pair of a concept's labels yields one entry per non-empty
    pool (parents; siblings and uncles) and one more when both are."""
    children = defaultdict(set)
    for cid, concept in graph.concepts.items():
        for pid in concept.parent_ids:
            children[pid].add(cid)

    def siblings(cid):
        out = set()
        for pid in graph.concepts[cid].parent_ids:
            out |= children[pid]
        out.discard(cid)
        return out

    total = 0
    for cid, concept in graph.concepts.items():
        n = len(concept.labels)
        if n < 2:
            continue
        has_parent = bool(concept.parent_ids)
        others = siblings(cid)
        for pid in concept.parent_ids:
            others |= siblings(pid)
        has_other = bool(others)
        total += n * (n - 1) * (has_parent + has_other + (has_parent and has_other))
    return total


# --- the stages, shared by the timed iterations and ``reference_digests`` ------

def load_graph(inputs: Path):
    return _mod("ontology").load_ontology(
        inputs / "concepts.tsv", inputs / "labels.tsv", inputs / "relations.tsv")


def triplet_sets(graph, seed: int):
    """(number of triplets generated, the training prefix of the split)."""
    triplets = _mod("triplets")
    dataset = triplets.generate_triplets(graph, seed)
    train_set = triplets.split_dataset(dataset, seed=seed)[0]
    return len(dataset), triplets.TripletDataset(train_set.entries[:TRAIN_STEPS * BATCH], seed)


def train_prefix(model, prefix, seed: int) -> None:
    train = _mod("train")
    cfg = train.TrainConfig(epochs=1, batch_size=BATCH, learning_rate=LEARNING_RATE, seed=seed)
    train.train(model, prefix, None, cfg)


def build_and_save(graph, model, out: Path):
    ranker, store = _mod("ranker"), _mod("store")
    vector = ranker.build_vector_index(graph, model)
    bm25 = ranker.build_bm25_index(graph)
    store.save_bundle(out, graph, vector=vector, encoder=model, bm25=bm25)
    return vector, bm25


def content_digests(count: int, table, rows) -> dict[str, str]:
    """What a faster build must keep bit for bit."""
    return {"triplets.count": str(count), "encoder.table": reference.array_digest(table),
            "vector.rows": reference.array_digest(rows)}


def reference_digests(work: Path, seed: int, n_concepts: int) -> dict[str, str]:
    """``content_digests`` of one iteration, computed untimed from scratch."""
    common.prep(work, seed, n_concepts, bundle=False)
    graph = load_graph(work / "inputs")
    model = _mod("embedder").SubwordEmbedder(seed=seed)
    count, prefix = triplet_sets(graph, seed)
    train_prefix(model, prefix, seed)
    vector = _mod("ranker").build_vector_index(graph, model)
    return content_digests(count, model.table, vector.rows)


class Pipeline:
    def __init__(self, work: Path, seed: int, result: Result, tracer=None):
        self.work, self.seed, self.result = work, seed, result
        self.tracer = tracer
        self.inputs = work / "inputs"
        self.table_path = work / "table.npy"
        self.setup_s: list[float] = []
        self.stage_s: dict[str, list[float]] = defaultdict(list)
        self.iteration_s: list[float] = []
        self.train_rates: list[float] = []
        self.artifacts: dict[str, str] | None = None  # file digests, first iteration
        self.digests: dict[str, str] | None = None    # content digests, first iteration

    @staticmethod
    def timed(fn):
        """Run ``fn()``; return its result and the seconds it took."""
        t0 = time.perf_counter()
        out = fn()
        return out, time.perf_counter() - t0

    def untraced(self, fn):
        """Run ``fn()`` (the benchmark's own checks) with no spans recorded."""
        if not self.tracer:
            return fn()
        with self.tracer.paused():
            return fn()

    def setup(self) -> None:
        import numpy as np

        embedder = _mod("embedder")
        self.graph = None

        def load_and_init():
            return load_graph(self.inputs), embedder.SubwordEmbedder(seed=self.seed).table

        (self.graph, table), took = self.timed(load_and_init)
        self.setup_s.append(took)
        # iterations start from the saved table, so the benchmark holds no copy
        np.save(self.table_path, table)
        self.result.attempted += 2

    def iteration(self) -> None:
        import numpy as np

        out = self.work / "bundle"
        model = self.untraced(lambda: _mod("embedder").SubwordEmbedder(
            seed=self.seed, table=np.load(self.table_path)))
        if self.tracer:
            tracing.watch_encoder(self.tracer, model)
        took = {}

        def stage(name, fn):
            result, took[name] = self.timed(fn)
            return result

        count, prefix = stage("triplets", lambda: triplet_sets(self.graph, self.seed))
        stage("train", lambda: train_prefix(model, prefix, self.seed))
        vector, bm25 = stage("index", lambda: build_and_save(self.graph, model, out))
        saved = self.untraced(lambda: (content_digests(count, model.table, vector.rows),
                                       bm25.fingerprint()))
        # load with only the graph held, as a fresh process would
        del model, vector, bm25
        loaded = stage("load", lambda: _mod("store").load_bundle(out))
        self.result.attempted += 7  # triplets, split, train, 2 index builds, save, load

        for name, seconds in took.items():
            self.stage_s[name].append(seconds)
        self.iteration_s.append(sum(took.values()))
        self.train_rates.append(len(prefix) / took["train"])
        self.untraced(lambda: self.check(*saved, loaded, out))

    def check(self, digests: dict, bm25_fingerprint: str, loaded, out: Path) -> None:
        expected = expected_triplet_count(self.graph)
        if digests["triplets.count"] != str(expected):
            self.result.fail(why=f"{digests['triplets.count']} triplets, hierarchy implies {expected}")
        artifacts = common.dir_digests(out)
        if self.artifacts is None:
            self.artifacts, self.digests = artifacts, digests
        elif artifacts != self.artifacts or digests != self.digests:
            self.result.fail(why="artifacts differ between iterations")
        back = content_digests(digests["triplets.count"], loaded.encoder.table, loaded.vector.rows)
        if not (loaded.graph == self.graph and back == digests
                and loaded.bm25.fingerprint() == bm25_fingerprint):
            self.result.fail(why="loaded bundle differs from the one saved")

    def run_for(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while True:
            self.iteration()
            if time.perf_counter() >= deadline and len(self.iteration_s) >= MIN_ITERATIONS:
                break


def run(work: Path, seed: int, seconds: float, trace: bool, n_concepts: int) -> Result:
    common.prep(work, seed, n_concepts, bundle=False)
    result, pipe = measure(work, seed, seconds, trace)
    result.extra["artifacts"], result.extra["digests"] = pipe.artifacts, pipe.digests
    reference.check("build-pipeline", seed, n_concepts, pipe.digests, result, reference_digests)
    return result


def measure(work: Path, seed: int, seconds: float, trace: bool):
    result = Result()
    pipe = Pipeline(work, seed, result)
    if not trace:
        for _ in range(SETUP_REPEATS):
            pipe.setup()
        pipe.run_for(seconds)
        result.metrics["setup_s"] = median(pipe.setup_s)
        result.metrics["latency_ms"] = statistics.fmean(pipe.iteration_s) * 1e3
        result.metrics["throughput_per_s"] = median(pipe.train_rates)
        result.metrics["rss_mb"] = common.peak_rss_mb()
        result.extra["samples"] = {"setup": len(pipe.setup_s), "iterations": len(pipe.iteration_s)}
        result.extra["stages_s"] = dict(pipe.stage_s)
        return result, pipe

    # traced run: untraced iterations, then traced ones from a traced set-up
    pipe.setup()
    pipe.run_for(seconds)
    plain = pipe
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        pipe = Pipeline(work, seed, result, tracer)
        pipe.setup()
        pipe.run_for(seconds)
    finally:
        tracer.uninstall()
    if (pipe.artifacts, pipe.digests) != (plain.artifacts, plain.digests):
        result.fail(why="traced artifacts differ from untraced")
    spans = tracer.records()
    metrics = tracing.layer_metrics(spans)
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.fmean(pipe.iteration_s) / statistics.fmean(plain.iteration_s) - 1.0)
    metrics["triplets_s"] = median(plain.stage_s["triplets"])
    metrics["train_triplets_per_s"] = median(plain.train_rates)
    metrics["index_build_s"] = median(plain.stage_s["index"])
    result.extra["layers"] = metrics
    result.extra["spans"] = spans
    return result, pipe
