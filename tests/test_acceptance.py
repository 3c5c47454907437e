"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured runtime (run with ``pytest -s`` to see them).

Expected values come from independent oracles computed inside each test
(hand-evaluated formulas, brute-force re-implementations, finite
differences, draw-sequence replay), never from the code under test.
"""

import json
import math
import time
import urllib.parse
import urllib.request
from pathlib import Path

import numpy as np
import pytest
from synthdata import synthetic_ontology

from ontosearch import store
from ontosearch.cli import main
from ontosearch.embedder import PrecomputedEncoder, SubwordEmbedder
from ontosearch.evaluation import (
    mrr,
    ndcg_at_k,
    overlap_degree,
    paired_t_test,
)
from ontosearch.ontology import Concept, OntologyGraph, load_ontology, save_ontology
from ontosearch.ranker import (
    RankedHit,
    VectorIndex,
    bm25_score,
    bm25_search,
    build_bm25_index,
    build_vector_index,
    hit_json_line,
    search_text,
)
from ontosearch.rng import SplitMix64
from ontosearch.service import SearchService, make_server, start_in_thread
from ontosearch.train import TrainConfig, train, triplet_loss, triplet_loss_gradients
from ontosearch.triplets import generate_triplets, split_dataset

FIG = Path(__file__).parent / "data" / "asthenia"


def fig_args():
    return [
        "--concepts", str(FIG / "concepts.tsv"),
        "--labels", str(FIG / "labels.tsv"),
        "--relations", str(FIG / "relations.tsv"),
    ]


def hits_list(*concept_ids):
    return [
        RankedHit(concept_id=cid, best_label=cid, score=1.0 - 0.01 * i, rank=i)
        for i, cid in enumerate(concept_ids, start=1)
    ]


def report(n, name, elapsed, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {n:02d}] {name}: PASS in {elapsed:.4f}s{suffix}")


def test_01_ndcg_worked_example(asthenia_graph):
    # truth, sibling, parent, uncle, grandparent -> gains [3, 1, 2, 1, 1]
    results = hits_list(
        "asthenia", "feeling-tired", "fatigue", "exhaustion", "energy"
    )
    ndcg_at_k(results, "asthenia", asthenia_graph, 5)  # warm caches
    start = time.perf_counter()
    value = ndcg_at_k(results, "asthenia", asthenia_graph, 5)
    elapsed = time.perf_counter() - start
    # oracle: hand-evaluated linear-gain DCG over the retrieved-set ideal
    dcg = sum(g / math.log2(i + 1) for i, g in enumerate([3, 1, 2, 1, 1], 1))
    idcg = sum(g / math.log2(i + 1) for i, g in enumerate([3, 2, 1, 1, 1], 1))
    assert value == pytest.approx(dcg / idcg, abs=1e-12)
    # exact value is 0.976533...; the reference figure 0.976 is that value
    # truncated to three decimals
    assert value == pytest.approx(0.9765, abs=5e-4)
    assert math.floor(value * 1000) == 976
    assert elapsed < 1e-3
    report(1, "nDCG worked example", elapsed, f"nDCG@5={value:.6f}")


def test_02_mrr_worked_examples():
    cases = {1: 1.0, 2: 0.5, 5: 0.2, 7: 1.0 / 7.0}
    mrr(hits_list("truth"), {"truth"})  # warm up before timing
    start = time.perf_counter()
    for rank, expected in cases.items():
        results = hits_list(*[f"filler{i}" for i in range(1, rank)], "truth")
        assert mrr(results, {"truth"}) == pytest.approx(expected, abs=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 1e-3
    report(2, "MRR worked examples", elapsed, "ranks 1,2,5,7")


def test_03_overlap_worked_examples():
    attenuated = Concept(
        id="c1", labels=("Retinal arteries attenuated",), parent_ids=frozenset()
    )
    macrodontia = Concept(id="c2", labels=("Macrodontia",), parent_ids=frozenset())
    overlap_degree("warm up", macrodontia)  # regex compilation off the clock
    start = time.perf_counter()
    one_third = overlap_degree("narrow retinal arterioles", attenuated)
    zero = overlap_degree("tooth mass excess", macrodontia)
    elapsed = time.perf_counter() - start
    assert one_third == 1 / 3
    assert zero == 0.0
    assert elapsed < 1e-3
    report(3, "overlap worked examples", elapsed, "1/3 and 0.0")


# Hand enumeration for seed 7: the generator's bounded draws are
# randrange(2) x4 for the asthenia pairs = [1, 0, 0, 1], then randrange(1)
# x4 (always 0) for the fatigue pairs.  Pools are sorted:
#   asthenia: parents [Fatigue, Weariness], others [Exhaustion, Feeling tired]
#   fatigue:  parents [Energy and stamina finding], others [Exhaustion]
SEED7_ENTRIES = [
    ("Asthenia", "Lassitude", "Weariness"),
    ("Asthenia", "Lassitude", "Exhaustion"),
    ("Asthenia", "Weariness", "Exhaustion"),
    ("Lassitude", "Asthenia", "Fatigue"),
    ("Lassitude", "Asthenia", "Feeling tired"),
    ("Lassitude", "Fatigue", "Feeling tired"),
    ("Fatigue", "Weariness", "Energy and stamina finding"),
    ("Fatigue", "Weariness", "Exhaustion"),
    ("Fatigue", "Energy and stamina finding", "Exhaustion"),
    ("Weariness", "Fatigue", "Energy and stamina finding"),
    ("Weariness", "Fatigue", "Exhaustion"),
    ("Weariness", "Energy and stamina finding", "Exhaustion"),
]


def test_04_triplet_generation_oracle(tmp_path, capsys):
    # replay the documented draw semantics to justify the frozen literals
    rng = SplitMix64(7)
    assert [rng.randrange(2) for _ in range(4)] == [1, 0, 0, 1]
    parents = ["Fatigue", "Weariness"]
    others = ["Exhaustion", "Feeling tired"]
    replay = []
    draws = iter([1, 0, 0, 1])
    for a, p_label in (("Asthenia", "Lassitude"), ("Lassitude", "Asthenia")):
        p = parents[next(draws)]
        o = others[next(draws)]
        replay += [(a, p_label, p), (a, p_label, o), (a, p, o)]
    assert replay == SEED7_ENTRIES[:6]

    start = time.perf_counter()
    run_dirs = [tmp_path / "a", tmp_path / "b"]
    for out in run_dirs:
        assert main(["triplets", *fig_args(), "--seed", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    elapsed = time.perf_counter() - start

    # byte-identical reruns
    for name in ("train.tsv", "dev.tsv", "test.tsv", "manifest.json"):
        assert (run_dirs[0] / name).read_bytes() == (run_dirs[1] / name).read_bytes()
    # the split files together hold exactly the hand enumeration
    emitted = []
    for name in ("train.tsv", "dev.tsv", "test.tsv"):
        for line in (run_dirs[0] / name).read_text(encoding="utf-8").splitlines():
            emitted.append(tuple(line.split("\t")))
    assert sorted(emitted) == sorted(SEED7_ENTRIES)
    # and in generation order before the split shuffle
    graph = load_ontology(*[Path(a) for a in (
        FIG / "concepts.tsv", FIG / "labels.tsv", FIG / "relations.tsv")])
    generated = [
        (e.anchor, e.positive, e.negative)
        for e in generate_triplets(graph, seed=7)
    ]
    assert generated == SEED7_ENTRIES
    # 3*n*(n-1) per n-label concept with non-empty pools (two 2-label concepts)
    assert len(generated) == 2 * (3 * 2 * 1)
    assert elapsed < 1.0
    report(4, "triplet generation oracle", elapsed, "12 entries, 2 runs identical")


def test_05_gradient_finite_difference_check():
    rng = np.random.default_rng(42)
    h = 1e-4
    margin = 0.1
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    while checked < 100:
        va, vp, vn = rng.normal(size=(3, 8))
        if (
            triplet_loss(va, vp, vn, margin) <= 1e-3
            or np.linalg.norm(va - vp) <= 1e-3
            or np.linalg.norm(va - vn) <= 1e-3
        ):
            continue
        analytic = triplet_loss_gradients(va, vp, vn, margin)
        vectors = [va, vp, vn]
        for which in range(3):
            numeric = np.zeros(8)
            for i in range(8):
                bumped = [v.copy() for v in vectors]
                bumped[which][i] += h
                up = triplet_loss(*bumped, margin)
                bumped[which][i] -= 2 * h
                down = triplet_loss(*bumped, margin)
                numeric[i] = (up - down) / (2 * h)
            # worst coordinate error, relative to the gradient's scale
            # (a raw per-coordinate ratio is meaningless where the true
            # coordinate is ~0 and the finite difference contributes its
            # own ~1e-9 noise)
            rel = np.abs(analytic[which] - numeric).max() / max(
                np.abs(analytic[which]).max(), 1e-8
            )
            worst = max(worst, rel)
        checked += 1
    elapsed = time.perf_counter() - start
    assert worst < 1e-4
    assert elapsed < 1.0
    report(5, "gradient finite-difference check", elapsed,
           f"100 triplets, max rel err {worst:.2e}")


def test_06_exact_retrieval_oracle():
    rng = np.random.default_rng(2025)
    dim = 32
    n = 1000
    concept_ids = [f"c{i:04d}" for i in range(n)]
    vectors = rng.normal(size=(n, dim))
    for src, dst in ((3, 411), (3, 700), (42, 999), (120, 121)):
        vectors[dst] = vectors[src]  # exact cross-concept score ties
    table = {concept_ids[i]: vectors[i] for i in range(n)}
    queries = {f"q{j:02d}": rng.normal(size=dim) for j in range(16)}
    queries["q_tie"] = vectors[3].copy()  # hits the duplicated rows exactly
    encoder = PrecomputedEncoder({**table, **queries}, dim=dim)
    graph = OntologyGraph(
        Concept(id=cid, labels=(cid,), parent_ids=frozenset())
        for cid in concept_ids
    )
    index = build_vector_index(graph, encoder)

    def oracle(qvec, k):
        qn = np.linalg.norm(qvec)
        scored = sorted(
            (
                (cid, float(np.dot(qvec, table[cid])
                            / (qn * np.linalg.norm(table[cid]))))
                for cid in concept_ids
            ),
            key=lambda t: (-t[1], t[0]),
        )
        return [cid for cid, _ in scored[:k]]

    start = time.perf_counter()
    for qname, qvec in queries.items():
        for k in (1, 5, 10, 100):
            hits = search_text(index, qname, k, encoder)
            assert [h.concept_id for h in hits] == oracle(qvec, k), (qname, k)
            assert [h.rank for h in hits] == list(range(1, k + 1))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(6, "exact retrieval vs brute force", elapsed,
           f"{len(queries)} queries x k in (1,5,10,100), {n} rows")


def test_07_bm25_oracle(tmp_path):
    graph = OntologyGraph([
        Concept(id="c1", labels=("headache", "head pain"), parent_ids=frozenset()),
        Concept(id="c2", labels=("vomiting",), parent_ids=frozenset()),
        Concept(id="c3", labels=("injury of muscle tissue",), parent_ids=frozenset()),
    ])
    stop = tmp_path / "stop.txt"
    stop.write_text("of\n", encoding="utf-8")
    start = time.perf_counter()
    index = build_bm25_index(graph, stop)
    got = bm25_score(index, ["headache"], "c1")
    elapsed = time.perf_counter() - start
    # hand-evaluated formula: N=3, df=1, tf=1, |D1|=3, avgdl=7/3
    idf = math.log(1 + (3 - 1 + 0.5) / (1 + 0.5))
    tf_part = 2.2 / (1 + 1.2 * (1 - 0.75 + 0.75 * (3 / (7 / 3))))
    assert got == pytest.approx(idf * tf_part, abs=1e-9)
    assert f"{got:.4f}" == "0.8782"

    # monotonicity: re-adding a query term to its own document never
    # lowers that document's score for that term
    rng = np.random.default_rng(17)
    vocab = [f"w{i}" for i in range(10)]
    for _ in range(40):
        docs = [
            " ".join(rng.choice(vocab, size=rng.integers(1, 7))) for _ in range(6)
        ]
        target = int(rng.integers(0, 6))
        term = str(rng.choice(vocab))

        def score_of(all_docs):
            g = OntologyGraph(
                Concept(id=f"d{i}", labels=(doc,), parent_ids=frozenset())
                for i, doc in enumerate(all_docs)
            )
            return bm25_score(build_bm25_index(g, None), [term], f"d{target}")

        before = score_of(docs)
        docs[target] += " " + term
        assert score_of(docs) >= before - 1e-12

    # idf strictly decreasing in document frequency
    specs = []
    for d in range(6):
        tokens = " ".join(f"term{i}" for i in range(d + 1, 7))
        specs.append(Concept(id=f"d{d}", labels=(tokens,), parent_ids=frozenset()))
    idx = build_bm25_index(OntologyGraph(specs), None)
    idfs = [idx.idf(f"term{i}") for i in range(1, 7)]
    assert all(a > b for a, b in zip(idfs, idfs[1:]))
    total = time.perf_counter() - start
    assert total < 1.0
    report(7, "BM25 hand-computed oracle + properties", total,
           f"worked score {got:.4f}")


def test_08_t_test_oracle():
    paired_t_test([1.0, 2.0], [0.5, 0.1])  # warm up before timing
    start = time.perf_counter()
    t0, p0 = paired_t_test([0.5, 0.5, 0.5], [0.5, 0.5, 0.5])
    t1, p1 = paired_t_test([1.0, 0.0], [0.0, 0.0])
    elapsed = time.perf_counter() - start
    assert (t0, p0) == (0.0, 1.0)
    assert t1 == pytest.approx(1.0, abs=1e-12)
    # nu=1 closed form: two-sided p from the Cauchy CDF, 2*(1 - cdf(1)) = 0.5
    assert p1 == pytest.approx(2 * (1 - (0.5 + math.atan(1.0) / math.pi)), abs=1e-9)
    assert p1 == pytest.approx(0.5, abs=1e-9)
    assert elapsed < 1e-3
    report(8, "paired t-test oracle", elapsed, "p=1 exact, p=0.5 at nu=1")


def without_label(graph, cid, held_out):
    """``graph`` with label ``held_out`` of concept ``cid`` left out."""
    return OntologyGraph(
        Concept(
            id=c.id,
            labels=tuple(lb for lb in c.labels if not (c.id == cid and lb == held_out)),
            parent_ids=c.parent_ids,
        )
        for c in graph.concepts.values()
    )


def test_09_vocabulary_mismatch_experiment():
    start = time.perf_counter()
    graph = synthetic_ontology(10, 10, 3)  # 100 children x 3 labels + 10 roots
    dataset = generate_triplets(graph, seed=11)
    train_set, dev_set, _ = split_dataset(dataset, seed=11)
    cfg = TrainConfig(learning_rate=1e-3, epochs=5, batch_size=32, margin=0.1, seed=11)
    model = SubwordEmbedder(bucket_count=4096, dim=64, seed=11)
    model, history = train(model, train_set, dev_set, cfg)
    assert history.epochs[-1].train_loss < history.epochs[0].train_loss

    index = build_vector_index(graph, model)
    child_rows = [
        i for i, cid in enumerate(index.concept_ids) if cid.startswith("c")
    ]
    hits1 = 0
    nearest_same = 0
    for i in child_rows:
        rows = np.delete(index.rows, i, axis=0)
        sub = VectorIndex(without_label(graph, index.concept_ids[i], index.labels[i]), rows,
                          index.encoder_fingerprint)
        ids = sub.concept_ids
        top = search_text(sub, index.labels[i], 1, model)[0]
        hits1 += top.concept_id == index.concept_ids[i]
        q = model.embed(index.labels[i])
        nearest_same += ids[int(np.argmax(rows @ (q / np.linalg.norm(q))))] == \
            index.concept_ids[i]
    trained_hits_at_1 = hits1 / len(child_rows)
    assert trained_hits_at_1 >= 0.9
    assert nearest_same / len(child_rows) >= 0.9  # synonym-vector expectation

    # BM25 on the same leave-one-out protocol: labels are token-disjoint by
    # construction, so every held-out query has overlap 0 against what
    # remains of its concept and keyword search cannot place it in any top-10
    bm25_misses = 0
    zero_overlap_queries = 0
    for i in child_rows:
        cid = index.concept_ids[i]
        held_out = index.labels[i]
        reduced = without_label(graph, cid, held_out)
        assert overlap_degree(held_out, reduced.concepts[cid], frozenset()) == 0.0
        zero_overlap_queries += 1
        hits = bm25_search(build_bm25_index(reduced, None), held_out, 10)
        bm25_misses += all(h.concept_id != cid for h in hits)
    assert bm25_misses == zero_overlap_queries == len(child_rows)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(9, "vocabulary-mismatch experiment", elapsed,
           f"trained Hits@1={trained_hits_at_1:.3f}, BM25 Hits@10=0 on "
           f"{zero_overlap_queries} zero-overlap queries")


def run_pipeline(base, tag, capsys):
    """ingest -> triplets -> train -> index -> eval with fixed seeds."""
    work = base / tag
    work.mkdir()
    graph = synthetic_ontology(5, 10, 2)
    save_ontology(graph, work / "concepts.tsv", work / "labels.tsv",
                  work / "relations.tsv")
    args = [
        "--concepts", str(work / "concepts.tsv"),
        "--labels", str(work / "labels.tsv"),
        "--relations", str(work / "relations.tsv"),
    ]
    queries = work / "queries.tsv"
    with open(queries, "w", encoding="utf-8") as fh:
        for g in range(5):
            for c in range(10):
                cid = f"c{g:03d}n{c:03d}"
                fh.write(f"q-{cid}\t{graph.concepts[cid].labels[1]}\t{cid}\n")
    assert main(["ingest", *args]) == 0
    assert main(["triplets", *args, "--seed", "13", "--out", str(work / "trip")]) == 0
    assert main([
        "train", "--triplets", str(work / "trip" / "train.tsv"),
        "--dev", str(work / "trip" / "dev.tsv"),
        "--dim", "32", "--buckets", "2048", "--epochs", "3", "--batch", "32",
        "--lr", "0.001", "--margin", "0.1", "--warmup", "0.1", "--seed", "13",
        "--out", str(work / "model.npz"),
    ]) == 0
    assert main(["index", *args, "--model", str(work / "model.npz"), "--bm25",
                 "--out", str(work / "index")]) == 0
    assert main(["eval", "--index", str(work / "index"), "--queries", str(queries),
                 "--k", "1,5,10", "--out", str(work / "report.json")]) == 0
    capsys.readouterr()
    return work


def test_10_end_to_end_determinism(tmp_path, capsys):
    start = time.perf_counter()
    first = run_pipeline(tmp_path, "run1", capsys)
    second = run_pipeline(tmp_path, "run2", capsys)
    elapsed = time.perf_counter() - start
    report_bytes = (first / "report.json").read_bytes()
    assert report_bytes == (second / "report.json").read_bytes()
    # artifacts too: model, indexes, split files (timestamp-free containers)
    for rel in (
        "model.npz",
        "trip/train.tsv", "trip/dev.tsv", "trip/test.tsv", "trip/manifest.json",
        "index/vector.npz", "index/encoder.npz", "index/bm25.json",
        "index/meta.json",
    ):
        assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel
    payload = json.loads(report_bytes)
    assert payload["aggregates"]["hits@1"] > 0.9  # the pipeline actually works
    assert elapsed < 360.0
    report(10, "end-to-end determinism", elapsed,
           f"hits@1={payload['aggregates']['hits@1']:.2f}, all artifacts identical")


def test_11_cli_service_parity(tmp_path, capsys):
    work = run_pipeline(tmp_path, "svc", capsys)
    bundle = store.load_bundle(work / "index")
    service = SearchService(bundle)
    server = make_server(service)
    start_in_thread(server)
    host, port = server.socket.getsockname()
    base = f"http://{host}:{port}"
    try:
        rng = np.random.default_rng(7)
        all_labels = [lb for c in bundle.graph.concepts.values() for lb in c.labels]
        queries = [str(rng.choice(all_labels)) for _ in range(30)]
        queries += [
            " ".join(rng.choice(["w3x1x0a", "pw2b", "zzz", "w0x0x1b", "qqq"],
                                size=2))
            for _ in range(20)
        ]
        start = time.perf_counter()
        for i, query in enumerate(queries):
            ranker = "bm25" if i % 5 == 4 else "vector"
            code = main(["query", "--index", str(work / "index"),
                         "--q", query, "--k", "10", "--ranker", ranker])
            assert code == 0
            cli_lines = capsys.readouterr().out.splitlines()
            url = (f"{base}/search?q={urllib.parse.quote(query)}"
                   f"&k=10&ranker={ranker}")
            with urllib.request.urlopen(url) as resp:
                body = resp.read().decode("utf-8")
            assert body == "[" + ",".join(cli_lines) + "]", query
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        report(11, "CLI/service parity", elapsed, f"{len(queries)} queries")
    finally:
        server.shutdown()
        server.server_close()
