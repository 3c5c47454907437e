"""Tests of the benchmark itself: seeded inputs, percentile rule, tracing,
and a tiny run of every workload.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import common
import gen
import reference
import tracing

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# --- inputs ------------------------------------------------------------------

def _files(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def _stream(seed: int, onto, hot, n: int = 300) -> list:
    streams = [gen.RequestStream(seed, client, onto, hot) for client in (0, 1)]
    return [s.next() for s in streams for _ in range(n)]


def test_same_seed_gives_same_inputs_byte_for_byte(tmp_path):
    a = gen.write_inputs(5, tmp_path / "a", n_concepts=600)
    b = gen.write_inputs(5, tmp_path / "b", n_concepts=600)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _stream(5, a, gen.hot_set(5, a)) == _stream(5, b, gen.hot_set(5, b))


def test_another_seed_gives_other_inputs(tmp_path):
    gen.write_inputs(5, tmp_path / "a", n_concepts=600)
    gen.write_inputs(6, tmp_path / "b", n_concepts=600)
    a, b = _files(tmp_path / "a"), _files(tmp_path / "b")
    assert all(a[name] != b[name] for name in a)


def test_ontology_shape():
    onto = gen.generate_ontology(3)
    rows = sum(len(labels) for labels in onto.labels.values())
    assert len(onto.ids) == gen.N_CONCEPTS
    assert 28_000 <= rows <= 34_000
    assert all(1 <= len(labels) <= 6 for labels in onto.labels.values())
    assert sum(len(p) > 1 for p in onto.parents.values()) > 1000  # multi-parent
    depth = {}
    for cid in onto.ids:  # parents always come earlier in ``ids``
        depth[cid] = 1 + max((depth[p] for p in onto.parents[cid]), default=0)
    leaves = set(onto.ids) - {p for ps in onto.parents.values() for p in ps}
    assert {depth[c] for c in leaves} >= {3, 4, 5}
    # a shared vocabulary: many terms occur in many concepts
    docs = {}
    for cid in onto.ids:
        for token in {t for label in onto.labels[cid] for t in label.lower().split()}:
            docs[token] = docs.get(token, 0) + 1
    assert max(docs.values()) > 500


def test_request_mix_is_exact_per_block():
    onto = gen.generate_ontology(4, 300)
    stream = gen.RequestStream(4, 0, onto, gen.hot_set(4, onto))
    kinds = [stream.next()[0].split(":")[0] for _ in range(200)]
    assert kinds.count("vector") == 120
    assert kinds.count("bm25") == 50
    assert kinds.count("concept") == 20
    assert kinds.count("healthz") == 10


def test_concept_queries_rotate_label_counts():
    onto = gen.generate_ontology(4, 300)
    queries = gen.eval_set(4, onto, 10, 0).concept
    assert [len(labels) for _, labels, _ in queries] == [1, 2, 3, 4, 5] * 2


# --- percentiles ---------------------------------------------------------------

def test_p95_needs_ten_samples_beyond_it():
    assert common.min_samples(0.95) == 200
    assert common.min_samples(0.5) == 20
    with pytest.raises(common.InsufficientSamples):
        common.percentile(range(199), 0.95)
    assert common.percentile(range(200), 0.95) == 189  # 10 samples above


def test_median_is_exempt():
    assert common.percentile([3.0, 1.0, 2.0], 0.5) == 2.0


# --- tracing -------------------------------------------------------------------

class _Thing:
    def work(self, x):
        return self.inner(x) + 1

    def inner(self, x):
        return x * 2


def test_wrap_records_nested_spans_and_uninstall_restores():
    original = _Thing.__dict__["work"]
    tracer = tracing.Tracer()
    tracer.wrap(_Thing, "work", "thing.work")
    thing = _Thing()
    tracer.wrap(thing, "inner", "thing.inner", attrs=lambda a, k, r: {"out": r})
    with tracer.request("r1"):
        assert thing.work(3) == 7
    inner, outer = tracer.records()
    assert outer["name"] == "thing.work" and inner["parent"] == outer["id"]
    assert inner["request"] == outer["request"] == "r1"
    assert inner["attrs"] == {"out": 6}
    tracer.uninstall()
    assert _Thing.__dict__["work"] is original and "inner" not in vars(thing)


def test_install_skips_names_the_program_no_longer_has(monkeypatch):
    common.require_program()
    from ontosearch import ranker

    monkeypatch.delattr(ranker, "bm25_all_scores")
    build = ranker.build_vector_index
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert ranker.build_vector_index is not build  # the others are wrapped
        assert not hasattr(ranker, "bm25_all_scores")
    finally:
        tracer.uninstall()
    assert ranker.build_vector_index is build
    assert tracing.layer_metrics([])["ranker.bm25_nonzero_docs"] == 0


def test_self_time_subtracts_covered_child_time():
    span = {"start_ns": 0, "end_ns": 100}
    children = [{"start_ns": 10, "end_ns": 30}, {"start_ns": 20, "end_ns": 50},
                {"start_ns": 90, "end_ns": 120}]
    assert tracing.self_ns(span, children) == 100 - 40 - 10


# --- pinned digests --------------------------------------------------------------

def _check(monkeypatch, seed, digests):
    monkeypatch.setattr(reference, "pinned", lambda: {"w": {
        "7-10": {"a": "1", "b": "2"}, reference.key(*reference.CANARY): {"a": "3"}}})
    computed = []

    def compute(work, seed, n_concepts):
        computed.append((seed, n_concepts))
        return {"a": "3"}

    result = common.Result()
    reference.check("w", seed, 10, digests, result, compute)
    return result, computed


def test_pinned_key_compares_the_run_digests(monkeypatch):
    result, computed = _check(monkeypatch, 7, {"a": "1", "b": "2"})
    assert result.failed == 0 and not computed and result.extra["reference"] == "7-10"
    result, _ = _check(monkeypatch, 7, {"a": "1", "b": "x", "c": "3"})
    assert result.failed == 2  # b differs, c is not pinned


def test_unpinned_key_checks_the_canary_from_scratch(monkeypatch):
    result, computed = _check(monkeypatch, 8, {"a": "anything"})
    assert computed == [reference.CANARY] and result.failed == 0
    assert result.extra["reference"] == reference.key(*reference.CANARY)


# --- whole runs ----------------------------------------------------------------

_LOAD = ["ontology.load_s", "store.load_s", "store.bundle_bytes"]
_EMBED = ["embedder.embed_fresh_ms", "embedder.features_per_text", "embedder.distinct_texts"]
_QUERY = ["embedder.embed_hot_ms", "ranker.search_text_ms", "ranker.score_ms",
          "ranker.rows_scanned", "ranker.bm25_search_ms", "ranker.bm25_nonzero_docs"]
# per-layer metrics each workload must measure (all others report 0)
LAYERS = {
    "serve-mixed": _LOAD + _EMBED + _QUERY + [
        "ranker.bm25_fingerprint_ms", "service.hits_array_ms", "service.transport_ms",
        "service.concept_p50_ms", "service.health_ms", "service.requests",
        "search_p50_ms", "search_p95_ms", "bm25_p50_ms", "bm25_p95_ms",
        "healthz_p50_ms", "throughput_rps"],
    "match-eval": _LOAD + _EMBED + _QUERY + [
        "ranker.search_concept_ms", "ranker.labels_per_match", "evaluation.self_s",
        "evaluation.queries", "match_p50_ms", "match_p95_ms", "eval_qps"],
    "build-pipeline": _LOAD + _EMBED + [
        "rng.table_init_s", "triplets.generate_s", "triplets.split_s", "triplets.count",
        "train.steps", "train.ms_per_step", "ranker.vector_build_s", "ranker.bm25_build_s",
        "npzio.save_s", "npzio.bytes_written", "store.save_s", "triplets_s",
        "train_triplets_per_s", "index_build_s"],
}

def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3) -> subprocess.CompletedProcess:
    # a traced run needs a few seconds for hot texts to repeat
    seconds = "3" if trace else "0.5"
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", seconds, "--trace", str(trace), "--concepts", "300"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for spec in declared:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        missing = [name for name in LAYERS[workload]
                   if not result["metrics"][name]["value"] > 0]
        assert not missing, missing
    report = json.loads(proc.stdout.strip().splitlines()[-2])
    assert {"python", "numpy", "nproc", "cpu", "seed"} <= set(report["environment"])
    assert report["reference"] == "3-300"  # the pinned key, not the canary
    if not trace:
        assert set(report.get("raw", {})) <= set(result["metrics"])


def test_unpinned_seed_passes_through_the_canary():
    proc = _run("match-eval", 0, seed=5)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads(proc.stdout.strip().splitlines()[-2])
    assert result["correct"] is True, proc.stdout
    assert report["reference"] == reference.key(*reference.CANARY)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = _run("match-eval", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
