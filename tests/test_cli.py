import json
import os
import shutil
import struct
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

import ontosearch.cli as cli
from ontosearch import ranker as ranker_module
from ontosearch.cli import main
from ontosearch.config import _KEYS as config_keys
from ontosearch.config import _flag as config_flag
from ontosearch.embedder import (
    PrecomputedEncoder,
    StaticWordVectors,
    SubwordEmbedder,
    load_encoder,
    save_encoder,
)
from ontosearch.npzio import save_arrays

FIG = Path(__file__).parent / "data" / "asthenia"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def ontology_args():
    return [
        "--concepts", str(FIG / "concepts.tsv"),
        "--labels", str(FIG / "labels.tsv"),
        "--relations", str(FIG / "relations.tsv"),
    ]


@pytest.fixture
def built_index(tmp_path, capsys):
    """triplets -> train -> index (vector + bm25) on the asthenia fixture."""
    trip_dir = tmp_path / "triplets"
    model = tmp_path / "model.npz"
    index_dir = tmp_path / "index"
    assert main(["triplets", *ontology_args(), "--seed", "7",
                 "--out", str(trip_dir)]) == 0
    assert main([
        "train", "--triplets", str(trip_dir / "train.tsv"),
        "--dev", str(trip_dir / "dev.tsv"),
        "--dim", "16", "--buckets", "512", "--epochs", "2",
        "--lr", "0.001", "--seed", "7", "--out", str(model),
    ]) == 0
    assert main([
        "index", *ontology_args(), "--model", str(model),
        "--bm25", "--out", str(index_dir),
    ]) == 0
    capsys.readouterr()
    return index_dir


class TestIngest:
    def test_stats_line(self, capsys):
        code, out, _ = run(capsys, "ingest", *ontology_args())
        assert code == 0
        stats = json.loads(out)
        assert stats == {
            "concepts": 5, "labels": 7, "relations": 4, "roots": 1, "leaves": 3,
        }

    def test_invalid_ontology_reports_coded_error(self, capsys, tmp_path):
        (tmp_path / "c.tsv").write_text("A\ta\nA\ta2\n", encoding="utf-8")
        (tmp_path / "l.tsv").write_text("", encoding="utf-8")
        (tmp_path / "r.tsv").write_text("", encoding="utf-8")
        code, _, err = run(
            capsys, "ingest",
            "--concepts", str(tmp_path / "c.tsv"),
            "--labels", str(tmp_path / "l.tsv"),
            "--relations", str(tmp_path / "r.tsv"),
        )
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ontology.DuplicateConceptId"


class TestTriplets:
    def test_writes_split_and_manifest(self, capsys, tmp_path):
        out = tmp_path / "t"
        code, stdout, _ = run(
            capsys, "triplets", *ontology_args(), "--seed", "7", "--out", str(out)
        )
        assert code == 0
        summary = json.loads(stdout)
        assert summary["total"] == 12
        lines = []
        for name in ("train.tsv", "dev.tsv", "test.tsv"):
            lines += (out / name).read_text(encoding="utf-8").splitlines()
        assert len(lines) == 12
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 7

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["triplets", *ontology_args(), "--seed", "3",
                         "--out", str(out)]) == 0
        capsys.readouterr()
        for name in ("train.tsv", "dev.tsv", "test.tsv", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_bad_ratios(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "triplets", *ontology_args(), "--out", str(tmp_path / "x"),
            "--ratios", "0.5,0.5,0.5",
        )
        assert code == 2
        assert json.loads(err)["error"] == "app.UsageError"


class TestTrainCommand:
    def test_trains_and_reports_history(self, capsys, tmp_path):
        trip = tmp_path / "t"
        assert main(["triplets", *ontology_args(), "--seed", "1",
                     "--out", str(trip)]) == 0
        capsys.readouterr()
        model = tmp_path / "m.npz"
        code, out, _ = run(
            capsys, "train", "--triplets", str(trip / "train.tsv"),
            "--dim", "8", "--buckets", "128", "--epochs", "1",
            "--out", str(model),
        )
        assert code == 0
        summary = json.loads(out)
        assert len(summary["epochs"]) == 1
        assert model.exists()

    def test_diverging_training_is_one_coded_error(self, capsys, tmp_path):
        """An lr whose step overflows: no NaN loss, no warning, no model."""
        trip = tmp_path / "t"
        assert main(["triplets", *ontology_args(), "--seed", "7",
                     "--out", str(trip)]) == 0
        capsys.readouterr()
        model = tmp_path / "m.npz"
        code, out, err = run(
            capsys, "train", "--triplets", str(trip / "train.tsv"), "--dim", "8",
            "--epochs", "1", "--batch", "8", "--lr", "1e308", "--out", str(model),
        )
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        error = json.loads(err)
        assert error["error"] == "train.Diverged"
        assert "epoch 1, step 2:" in error["message"]
        assert not model.exists()

    def test_allocation_that_cannot_be_met_is_one_coded_error(self, capsys, tmp_path):
        """A table of 10**15 floats (7.1 PiB), past the 128 TiB a process can
        address whatever the overcommit setting."""
        trip = tmp_path / "t"
        assert main(["triplets", *ontology_args(), "--out", str(trip)]) == 0
        capsys.readouterr()
        model = tmp_path / "m.npz"
        code, out, err = run(
            capsys, "train", "--triplets", str(trip / "train.tsv"), "--dim", "1000000",
            "--buckets", "1000000000", "--epochs", "1", "--out", str(model),
        )
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "app.OutOfMemory"
        assert not model.exists()

    def test_table_past_numpy_size_limit_is_one_coded_error(self, capsys, tmp_path):
        """2**70 rows: more elements than a numpy array may hold."""
        trip = tmp_path / "t"
        assert main(["triplets", *ontology_args(), "--out", str(trip)]) == 0
        capsys.readouterr()
        model = tmp_path / "m.npz"
        code, out, err = run(
            capsys, "train", "--triplets", str(trip / "train.tsv"), "--dim", "4",
            "--buckets", str(2**70), "--epochs", "1", "--out", str(model),
        )
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "app.OutOfMemory"
        assert not model.exists()

    @pytest.mark.parametrize("seed", [2**64, 2**70, -2**63 - 1])
    def test_seed_the_model_file_cannot_store_is_refused(self, capsys, tmp_path, seed):
        """The model file stores the seed as a 64-bit integer: a seed past
        that range is refused before training, and no model is written."""
        trip = tmp_path / "t"
        assert main(["triplets", *ontology_args(), "--out", str(trip)]) == 0
        capsys.readouterr()
        model = tmp_path / "m.npz"
        code, out, err = run(
            capsys, "train", "--triplets", str(trip / "train.tsv"), "--dim", "4",
            "--buckets", "16", "--epochs", "1", "--seed", str(seed), "--out", str(model),
        )
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "app.UsageError"
        assert not model.exists()

    @pytest.mark.parametrize("seed", [2**64 - 1, -2**63])
    def test_seed_at_the_edge_of_the_range_is_stored(self, capsys, tmp_path, seed):
        trip = tmp_path / "t"
        assert main(["triplets", *ontology_args(), "--out", str(trip)]) == 0
        model = tmp_path / "m.npz"
        assert main(["train", "--triplets", str(trip / "train.tsv"), "--dim", "4",
                     "--buckets", "16", "--epochs", "1", "--seed", str(seed),
                     "--out", str(model)]) == 0
        assert load_encoder(model).seed == seed


class TestQuery:
    def test_vector_self_match(self, capsys, built_index):
        code, out, _ = run(
            capsys, "query", "--index", str(built_index),
            "--q", "Lassitude", "--k", "3",
        )
        assert code == 0
        hits = [json.loads(line) for line in out.splitlines()]
        assert hits[0]["concept_id"] == "asthenia"
        assert hits[0]["rank"] == 1
        assert hits[0]["score"] == pytest.approx(1.0, abs=1e-9)

    def test_k_clamps_and_ranks_consecutive(self, capsys, built_index):
        code, out, _ = run(
            capsys, "query", "--index", str(built_index), "--q", "Fatigue",
            "--k", "10",
        )
        hits = [json.loads(line) for line in out.splitlines()]
        assert len(hits) == 5  # five concepts in the fixture
        assert [h["rank"] for h in hits] == [1, 2, 3, 4, 5]

    def test_bm25_ranker(self, capsys, built_index):
        code, out, _ = run(
            capsys, "query", "--index", str(built_index),
            "--q", "energy stamina", "--ranker", "bm25", "--k", "5",
        )
        assert code == 0
        hits = [json.loads(line) for line in out.splitlines()]
        assert hits[0]["concept_id"] == "energy"

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 2
        assert json.loads(err)["error"] == "app.UsageError"

    def test_missing_index(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "query", "--index", str(tmp_path / "absent"), "--q", "x"
        )
        assert code == 2
        assert "meta.json" in json.loads(err)["message"]


class TestMatch:
    def test_emits_one_line_per_source_concept(self, capsys, built_index, tmp_path):
        src_c = tmp_path / "src_concepts.tsv"
        src_l = tmp_path / "src_labels.tsv"
        src_c.write_text("s1\tLassitude\ns2\tWeariness\n", encoding="utf-8")
        src_l.write_text("s1\tAsthenia\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "match", "--index", str(built_index),
            "--source-concepts", str(src_c), "--source-labels", str(src_l),
            "--k", "2",
        )
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert [row["source_id"] for row in lines] == ["s1", "s2"]
        assert lines[0]["hits"][0]["concept_id"] == "asthenia"
        assert lines[1]["hits"][0]["concept_id"] == "fatigue"


class TestEval:
    def queries_file(self, tmp_path):
        path = tmp_path / "q.tsv"
        path.write_text(
            "q1\tLassitude\tasthenia\nq2\tWeariness\tfatigue\n", encoding="utf-8"
        )
        return path

    def test_report_written(self, capsys, built_index, tmp_path):
        out = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "eval", "--index", str(built_index),
            "--queries", str(self.queries_file(tmp_path)),
            "--out", str(out),
        )
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["aggregates"]["hits@1"] == 1.0
        assert report["aggregates"]["mrr"] == 1.0
        assert len(report["per_query"]) == 2
        assert report["significance"] == []

    def test_baseline_significance(self, capsys, built_index, tmp_path):
        queries = self.queries_file(tmp_path)
        base = tmp_path / "base.json"
        ours = tmp_path / "ours.json"
        assert main(["eval", "--index", str(built_index), "--queries",
                     str(queries), "--ranker", "bm25", "--out", str(base)]) == 0
        assert main(["eval", "--index", str(built_index), "--queries",
                     str(queries), "--baseline-run", str(base),
                     "--stat", "hits", "--out", str(ours)]) == 0
        capsys.readouterr()
        report = json.loads(ours.read_text(encoding="utf-8"))
        assert len(report["significance"]) == 1
        entry = report["significance"][0]
        assert entry["baseline"] == "base.json"
        assert entry["stat"] == "hits@10"
        assert entry["n"] == 2
        assert 0.0 <= entry["p"] <= 1.0

    def test_multiple_baselines(self, capsys, built_index, tmp_path):
        queries = self.queries_file(tmp_path)
        base_a = tmp_path / "a.json"
        base_b = tmp_path / "b.json"
        ours = tmp_path / "ours.json"
        for path, ranker in ((base_a, "bm25"), (base_b, "vector")):
            assert main(["eval", "--index", str(built_index), "--queries",
                         str(queries), "--ranker", ranker,
                         "--out", str(path)]) == 0
        assert main(["eval", "--index", str(built_index), "--queries",
                     str(queries), "--baseline-run", str(base_a),
                     "--baseline-run", str(base_b), "--out", str(ours)]) == 0
        capsys.readouterr()
        report = json.loads(ours.read_text(encoding="utf-8"))
        assert [e["baseline"] for e in report["significance"]] == [
            "a.json", "b.json"
        ]
        # identical runs compare as no difference
        assert report["significance"][1]["t"] == 0.0
        assert report["significance"][1]["p"] == 1.0

    def test_concept_mode(self, capsys, built_index, tmp_path):
        path = tmp_path / "qc.tsv"
        path.write_text("q1\tAsthenia|Lassitude\tasthenia\n", encoding="utf-8")
        out = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "eval", "--index", str(built_index), "--queries", str(path),
            "--mode", "concept", "--out", str(out),
        )
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["aggregates"]["hits@1"] == 1.0
        assert report["per_query"][0]["overlap_degree"] is None

    @pytest.mark.parametrize("mode, body", [("concept", "foo|bar"), ("text", "foo")])
    @pytest.mark.parametrize("ranker", ["vector", "bm25"])
    def test_unknown_relevant_id(self, capsys, built_index, tmp_path, mode, body, ranker):
        path = tmp_path / "q.tsv"
        path.write_text(f"q0\tFatigue\tfatigue\nq1\t{body}\tNOPE\n", encoding="utf-8")
        code, out, err = run(capsys, "eval", "--index", str(built_index), "--queries", str(path),
                             "--mode", mode, "--ranker", ranker)
        assert (code, out) == (1, "")
        error = json.loads(err)
        assert error["error"] == "ontology.UnknownConceptId"
        assert "'q1'" in error["message"] and "'NOPE'" in error["message"]

    def test_concept_query_without_labels(self, capsys, built_index, tmp_path):
        path = tmp_path / "qc.tsv"
        path.write_text("q0\tFatigue\tfatigue\nq1\t|\tasthenia\n", encoding="utf-8")
        code, out, err = run(capsys, "eval", "--index", str(built_index), "--queries", str(path),
                             "--mode", "concept")
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "io.MalformedLine",
                                   "message": f"{path}:2: no query label"}

    def test_reciprocal_rank_stat(self, capsys, built_index, tmp_path):
        queries = self.queries_file(tmp_path)
        base = tmp_path / "base.json"
        ours = tmp_path / "ours.json"
        assert main(["eval", "--index", str(built_index), "--queries",
                     str(queries), "--ranker", "bm25", "--out", str(base)]) == 0
        assert main(["eval", "--index", str(built_index), "--queries",
                     str(queries), "--baseline-run", str(base),
                     "--stat", "rr", "--out", str(ours)]) == 0
        capsys.readouterr()
        entry = json.loads(ours.read_text(encoding="utf-8"))["significance"][0]
        assert entry["stat"] == "rr"


class TestOtherEncoders:
    def test_word_vector_index(self, capsys, tmp_path):
        wv = tmp_path / "wv.txt"
        # tokens covering the fixture labels
        wv.write_text(
            "asthenia 1 0 0\nlassitude 1 0.1 0\nfatigue 0 1 0\n"
            "weariness 0 1 0.1\nexhaustion 0 0 1\n",
            encoding="utf-8",
        )
        index_dir = tmp_path / "index"
        assert main(["index", *ontology_args(), "--word-vectors", str(wv),
                     "--out", str(index_dir)]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, "query", "--index", str(index_dir),
                           "--q", "lassitude", "--k", "2")
        assert code == 0
        hits = [json.loads(line) for line in out.splitlines()]
        assert hits[0]["concept_id"] == "asthenia"

    def test_precomputed_index(self, capsys, tmp_path):
        pre = tmp_path / "pre.tsv"
        labels = {
            "Asthenia": "1 0", "Lassitude": "0.9 0.1",
            "Energy and stamina finding": "0 1", "Exhaustion": "0.1 0.9",
            "Fatigue": "0.5 0.5", "Weariness": "0.6 0.5",
            "Feeling tired": "0.4 0.6",
        }
        pre.write_text(
            "".join(f"{k}\t{v}\n" for k, v in labels.items()), encoding="utf-8"
        )
        index_dir = tmp_path / "index"
        assert main(["index", *ontology_args(), "--precomputed", str(pre),
                     "--out", str(index_dir)]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, "query", "--index", str(index_dir),
                           "--q", "Asthenia", "--k", "1")
        assert code == 0
        hit = json.loads(out.splitlines()[0])
        assert hit["concept_id"] == "asthenia"
        assert hit["score"] == pytest.approx(1.0, abs=1e-12)

    def test_index_without_anything_to_build(self, capsys, tmp_path):
        code, _, err = run(capsys, "index", *ontology_args(),
                           "--out", str(tmp_path / "x"))
        assert code == 2
        assert json.loads(err)["error"] == "app.UsageError"


class TestBm25OnlyIndex:
    def test_query_works_and_vector_reports_missing(self, capsys, tmp_path):
        index_dir = tmp_path / "kw"
        assert main(["index", *ontology_args(), "--bm25",
                     "--out", str(index_dir)]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, "query", "--index", str(index_dir),
                           "--q", "feeling tired", "--ranker", "bm25")
        assert code == 0
        assert json.loads(out.splitlines()[0])["concept_id"] == "feeling-tired"
        code, _, err = run(capsys, "query", "--index", str(index_dir),
                           "--q", "anything")
        assert code == 2
        assert "no vector ranker" in json.loads(err)["message"]

    def test_rebuild_without_bm25_drops_the_old_bm25_index(self, capsys, built_index,
                                                           tmp_path):
        labels = tmp_path / "labels.tsv"
        labels.write_text((FIG / "labels.tsv").read_text(encoding="utf-8")
                          .replace("Lassitude", "Prostration"), encoding="utf-8")
        args = ontology_args()
        args[args.index("--labels") + 1] = str(labels)
        assert main(["index", *args, "--model", str(tmp_path / "model.npz"),
                     "--out", str(built_index)]) == 0
        assert not (built_index / "bm25.json").exists()
        capsys.readouterr()
        for text in ("lassitude", "prostration"):
            code, out, err = run(capsys, "query", "--index", str(built_index),
                                 "--q", text, "--ranker", "bm25")
            assert (code, out) == (2, "")
            assert json.loads(err) == {"error": "app.UsageError",
                                       "message": "index has no bm25 ranker"}


def refuse_constant(name):
    raise ValueError(f"non-JSON constant {name}")


class TestEvalPairing:
    """A significance test pairs two runs by query id, so its report must be
    JSON and every id must name one row."""

    @pytest.fixture
    def bm25_eval(self, capsys, tmp_path):
        index_dir = tmp_path / "kw"
        assert main(["index", *ontology_args(), "--bm25", "--out", str(index_dir)]) == 0
        capsys.readouterr()

        def bm25_eval(query_rows, baseline_ids):
            queries = tmp_path / "q.tsv"
            queries.write_text("".join(f"{row}\n" for row in query_rows), encoding="utf-8")
            baseline = tmp_path / "base.json"
            baseline.write_text(json.dumps({"per_query": [
                {"query_id": qid, "hits@1": 0} for qid in baseline_ids]}), encoding="utf-8")
            out = tmp_path / "report.json"
            code, _, err = run(capsys, "eval", "--index", str(index_dir), "--ranker", "bm25",
                               "--queries", str(queries), "--k", "1",
                               "--baseline-run", str(baseline), "--out", str(out))
            return code, err, queries, out

        return bm25_eval

    def test_zero_variance_t_is_written_as_null(self, bm25_eval):
        code, _, _, out = bm25_eval(["q1\tLassitude\tasthenia", "q2\tfeeling tired\tfeeling-tired"],
                                    ["q1", "q2"])
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"), parse_constant=refuse_constant)
        assert report["aggregates"]["hits@1"] == 1.0
        assert report["significance"] == [
            {"baseline": "base.json", "stat": "hits@1", "n": 2, "t": None, "p": 0.0}]

    def test_repeated_query_id_is_refused(self, bm25_eval):
        code, err, queries, out = bm25_eval(
            ["q1\tlassitude\tasthenia", "q1\tzzz\tasthenia", "q2\ttired\tfeeling-tired"],
            ["q1", "q2"])
        assert code == 1 and not out.exists()
        assert json.loads(err) == {"error": "io.MalformedLine",
                                   "message": f"{queries}:2: query id 'q1' repeats line 1"}

    def test_baseline_repeating_an_id_is_refused(self, bm25_eval):
        code, err, _, out = bm25_eval(["q1\tlassitude\tasthenia", "q2\ttired\tfeeling-tired"],
                                      ["q1", "q1", "q2"])
        assert code == 2 and not out.exists()
        error = json.loads(err)
        assert error["error"] == "app.UsageError"
        assert error["message"].startswith("bad --baseline-run")
        assert "query id 'q1' repeats" in error["message"]


class TestArgumentValidation:
    @pytest.mark.parametrize("flag, value", [("--conf", "k.conf"), ("--ran", "bm25")])
    def test_abbreviated_flag_is_refused(self, capsys, built_index, tmp_path, monkeypatch,
                                         flag, value):
        monkeypatch.chdir(tmp_path)
        Path("k.conf").write_text("ranker.k = 2\n", encoding="utf-8")
        code, out, err = run(capsys, "query", "--index", str(built_index), "--q", "fatigue",
                             flag, value)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "app.UsageError"
        assert "unrecognized arguments" in json.loads(err)["message"]

    @pytest.mark.parametrize("spelling", [("--config", "a.conf", "--config", "b.conf"),
                                          ("--config=a.conf", "--config", "b.conf"),
                                          ("--config", "a.conf", "--config=b.conf")])
    def test_repeated_config_is_refused(self, capsys, built_index, tmp_path, monkeypatch,
                                        spelling):
        monkeypatch.chdir(tmp_path)
        Path("a.conf").write_text("ranker.k = 2\n", encoding="utf-8")
        Path("b.conf").write_text("ranker.k = 3\n", encoding="utf-8")
        code, out, err = run(capsys, "query", "--index", str(built_index), "--q", "fatigue",
                             *spelling)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "app.UsageError"
        assert "--config" in json.loads(err)["message"]

    def test_query_k_zero(self, capsys, built_index):
        code, _, err = run(capsys, "query", "--index", str(built_index),
                           "--q", "x", "--k", "0")
        assert code == 2
        assert json.loads(err)["error"] == "app.UsageError"
        assert "k must be >= 1" in json.loads(err)["message"]

    def test_serve_bad_bind(self, capsys, built_index):
        code, _, err = run(capsys, "serve", "--index", str(built_index),
                           "--bind", "nonsense")
        assert code == 2
        assert json.loads(err)["error"] == "app.UsageError"

    @pytest.mark.parametrize("flag", [["--margin", "-1"], ["--margin", "0"],
                                      ["--dim", "0"], ["--buckets", "0"],
                                      ["--batch", "0"], ["--warmup", "2"],
                                      ["--lr", "nan"], ["--lr", "inf"], ["--lr", "-1"],
                                      ["--margin", "nan"]])
    def test_train_bad_flag(self, capsys, tmp_path, flag):
        trip = tmp_path / "t"
        assert main(["triplets", *ontology_args(), "--out", str(trip)]) == 0
        capsys.readouterr()
        code, _, err = run(capsys, "train", "--triplets", str(trip / "train.tsv"),
                           "--dim", "4", "--buckets", "16", *flag,
                           "--out", str(tmp_path / "m.npz"))
        assert code == 2
        assert json.loads(err)["error"] == "app.UsageError"
        assert not (tmp_path / "m.npz").exists()

    @pytest.mark.parametrize("flag", [["--k1", "nan"], ["--k1", "inf"], ["--k1", "-1"],
                                      ["--b", "nan"], ["--b", "2"], ["--b", "-0.5"]])
    def test_index_bad_bm25_flag(self, capsys, tmp_path, flag):
        code, out, err = run(capsys, "index", *ontology_args(), "--bm25", *flag,
                             "--out", str(tmp_path / "index"))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "app.UsageError"
        assert json.loads(err)["message"].startswith(f"{flag[0][2:]} must")
        assert not (tmp_path / "index").exists()

    @pytest.mark.parametrize("ks", ["0", "1,0,5", "-3"])
    def test_eval_k_below_one(self, capsys, built_index, tmp_path, ks):
        queries = tmp_path / "q.tsv"
        queries.write_text("q1\tLassitude\tasthenia\n", encoding="utf-8")
        code, _, err = run(capsys, "eval", "--index", str(built_index),
                           "--queries", str(queries), "--k", ks)
        assert code == 2
        assert json.loads(err)["error"] == "app.UsageError"

    def test_serve_port_out_of_range(self, capsys, built_index):
        code, _, err = run(capsys, "serve", "--index", str(built_index),
                           "--bind", "127.0.0.1:99999")
        assert code == 2
        assert json.loads(err)["error"] == "app.UsageError"

    @pytest.mark.parametrize("content", ["not json {", '{"aggregates": {}}'],
                             ids=["not-json", "no-per-query"])
    def test_eval_bad_baseline_run(self, capsys, built_index, tmp_path, content):
        queries = tmp_path / "q.tsv"
        queries.write_text("q1\tLassitude\tasthenia\n", encoding="utf-8")
        baseline = tmp_path / "base.json"
        baseline.write_text(content, encoding="utf-8")
        code, _, err = run(capsys, "eval", "--index", str(built_index),
                           "--queries", str(queries), "--baseline-run", str(baseline))
        assert code == 2
        assert json.loads(err)["error"] == "app.UsageError"
        assert "base.json" in json.loads(err)["message"]

    def test_config_is_a_directory(self, capsys, tmp_path):
        code, _, err = run(capsys, "ingest", *ontology_args(), "--config", str(tmp_path))
        assert code == 1
        assert json.loads(err)["error"] == "io.Error"

    def test_missing_input_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "ingest", *ontology_args()[:-1], str(tmp_path / "absent.tsv"))
        assert code == 1
        assert json.loads(err)["error"] == "io.FileNotFound"
        assert "absent.tsv" in json.loads(err)["message"]


class TestIndexBm25Flags:
    """`index` checks --k1, --b and --stopwords before it builds anything,
    with or without --bm25."""

    @pytest.fixture
    def model(self, tmp_path):
        model = tmp_path / "model.npz"
        save_encoder(SubwordEmbedder(bucket_count=16, dim=4, seed=0), model)
        return model

    @pytest.mark.parametrize("flag", [["--k1", "nan"], ["--k1", "-1"], ["--b", "2"]])
    def test_bad_range_without_bm25(self, capsys, tmp_path, model, flag):
        code, out, err = run(capsys, "index", *ontology_args(), "--model", str(model), *flag,
                             "--out", str(tmp_path / "index"))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "app.UsageError"
        assert json.loads(err)["message"].startswith(f"{flag[0][2:]} must")
        assert not (tmp_path / "index").exists()

    @pytest.mark.parametrize("content, error", [
        (None, "io.FileNotFound"),
        ("two words\n", "ranker.MalformedStopwordFile"),
    ], ids=["missing", "malformed"])
    def test_bad_stopwords_without_bm25(self, capsys, tmp_path, model, content, error):
        stop = tmp_path / "stop.txt"
        if content is not None:
            stop.write_text(content, encoding="utf-8")
        code, out, err = run(capsys, "index", *ontology_args(), "--model", str(model),
                             "--stopwords", str(stop), "--out", str(tmp_path / "index"))
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == error
        assert str(stop) in json.loads(err)["message"]
        assert not (tmp_path / "index").exists()

    def test_stopword_file_read_once(self, capsys, tmp_path, monkeypatch, model):
        reads = []
        read_lines = ranker_module.read_lines
        monkeypatch.setattr(ranker_module, "read_lines",
                            lambda path: reads.append(str(path)) or read_lines(path))
        stop = tmp_path / "stop.txt"
        stop.write_text("of\n", encoding="utf-8")
        code, out, _ = run(capsys, "index", *ontology_args(), "--model", str(model), "--bm25",
                           "--stopwords", str(stop), "--out", str(tmp_path / "index"))
        assert code == 0
        assert json.loads(out)["bm25_docs"] == 5
        assert reads == [str(stop)]

    def test_config_bm25_values_with_vector_only_index(self, capsys, tmp_path, model):
        stop = tmp_path / "stop.txt"
        stop.write_text("of\n", encoding="utf-8")
        conf = tmp_path / "pipe.conf"
        conf.write_text(f"ranker.k1 = 1.5\nranker.b = 0.5\npaths.stopwords = {stop}\n",
                        encoding="utf-8")
        code, out, _ = run(capsys, "index", "--config", str(conf), *ontology_args(),
                           "--model", str(model), "--out", str(tmp_path / "index"))
        assert code == 0
        assert json.loads(out) == {"out": str(tmp_path / "index"), "vector_rows": 7,
                                   "bm25_docs": 0}


@pytest.mark.parametrize("encoder", [
    SubwordEmbedder(bucket_count=16, dim=4, seed=0, table=np.full((16, 4), 1e308)),
    StaticWordVectors({"feeling": np.full(2, 1e308), "tired": np.full(2, 1e308)}, 2),
    PrecomputedEncoder({label: np.full(2, 1e308) for label in (
        "Asthenia", "Lassitude", "Energy and stamina finding", "Exhaustion", "Fatigue",
        "Weariness", "Feeling tired")}, 2),
], ids=["subword", "wordvec", "precomputed"])
def test_index_model_that_overflows(tmp_path, encoder):
    """Finite model tables whose label embeddings (or their norms) overflow:
    one JSON line on stderr naming the model file, and no numpy warning,
    exit 1."""
    model = tmp_path / "model.npz"
    save_encoder(encoder, model)
    result = subprocess.run(
        [sys.executable, "-m", "ontosearch", "index", *ontology_args(),
         "--model", str(model), "--out", str(tmp_path / "index")],
        capture_output=True, text=True, check=False, env=package_env(),
    )
    assert result.returncode == 1
    assert result.stdout == "" and result.stderr.count("\n") == 1, result.stderr
    error = json.loads(result.stderr)
    assert error["error"] == "io.MalformedLine"
    assert str(model) in error["message"]
    assert not (tmp_path / "index").exists()


@pytest.fixture
def overflowing_query_index(tmp_path):
    """A word-vector index on the asthenia fixture whose ``zzz`` token is
    finite but overflows a norm, and overflows a mean when repeated; no
    label holds it, so the build succeeds."""
    vectors = tmp_path / "v.txt"
    vectors.write_text("zzz 1e308 1e308\nasthenia 1 0\nfatigue 0 1\n", encoding="utf-8")
    index_dir = tmp_path / "index"
    assert main(["index", *ontology_args(), "--word-vectors", str(vectors),
                 "--out", str(index_dir)]) == 0
    return index_dir


@pytest.mark.parametrize("text", ["zzz", "zzz zzz", "asthenia zzz"])
def test_query_whose_embedding_overflows(overflowing_query_index, text):
    """One JSON line on stderr naming the query, no numpy warning and no
    NaN score on stdout, exit 2."""
    result = subprocess.run(
        [sys.executable, "-m", "ontosearch", "query", "--index", str(overflowing_query_index),
         "--q", text],
        capture_output=True, text=True, check=False, env=package_env(),
    )
    assert result.returncode == 2
    assert result.stdout == "" and result.stderr.count("\n") == 1, result.stderr
    error = json.loads(result.stderr)
    assert error["error"] == "app.UsageError"
    assert repr(text) in error["message"]


# every config key, with a value of its type; the paths.* input files exist
def config_values(tmp_path):
    stop = tmp_path / "stop.txt"
    stop.write_text("of\n", encoding="utf-8")
    return {
        "paths.concepts": str(FIG / "concepts.tsv"),
        "paths.labels": str(FIG / "labels.tsv"),
        "paths.relations": str(FIG / "relations.tsv"),
        "paths.stopwords": str(stop),
        "paths.out": str(tmp_path / "out"),
        "train.dim": 8,
        "train.buckets": 64,
        "train.epochs": 3,
        "train.batch": 4,
        "train.lr": 0.003,
        "train.margin": 0.25,
        "train.warmup": 0.2,
        "ranker.k": 7,
        "ranker.k1": 1.5,
        "ranker.b": 0.5,
        "serve.bind": "127.0.0.1:9099",
        "seeds.triplets": 3,
        "seeds.train": 4,
    }


# the required flags no config key feeds
OTHER_FLAGS = {
    "ingest": [],
    "triplets": [],
    "train": ["--triplets", "train.tsv"],
    "index": [],
    "query": ["--index", "index", "--q", "fatigue"],
    "match": ["--index", "index", "--source-concepts", "c.tsv", "--source-labels", "l.tsv"],
    "eval": ["--index", "index", "--queries", "q.tsv"],
    "serve": ["--index", "index"],
}


class TestConfigFlags:
    """A config's values reach the parsed flags of every command they feed,
    with their types, and an explicit flag still wins."""

    @pytest.fixture
    def parsed(self, monkeypatch):
        parsed = []
        monkeypatch.setattr(cli, "_COMMANDS",
                            {name: lambda args: parsed.append(args) or 0
                             for name in cli._COMMANDS})
        return parsed

    def test_every_key_is_covered(self, tmp_path):
        assert set(config_values(tmp_path)) == set(config_keys)
        assert set(OTHER_FLAGS) == set(cli._COMMANDS)

    @pytest.mark.parametrize("command", sorted(OTHER_FLAGS))
    def test_values_reach_the_command(self, tmp_path, parsed, command):
        values = config_values(tmp_path)
        conf = write_config(tmp_path / "pipe.conf", values)
        fed = {config_flag(key): value for key, value in values.items()
               if command in config_keys[key]}
        assert main([command, "--config", str(conf), *OTHER_FLAGS[command]]) == 0
        for flag, value in fed.items():
            got = getattr(parsed[-1], flag)
            assert (got, type(got)) == (value, type(value)), flag

        overrides = {flag: value + ("-x" if isinstance(value, str) else 1)
                     for flag, value in fed.items()}
        explicit = [arg for flag, value in overrides.items() for arg in (f"--{flag}", str(value))]
        assert main([command, "--config", str(conf), *OTHER_FLAGS[command], *explicit]) == 0
        for flag, value in overrides.items():
            got = getattr(parsed[-1], flag)
            assert (got, type(got)) == (value, type(value)), flag

    @pytest.mark.parametrize("explicit", [["--epochs", "2"], ["--epochs=2"]])
    def test_explicit_flag_replaces_a_malformed_value(self, capsys, tmp_path, parsed, explicit):
        conf = write_config(tmp_path / "bad.conf", {"train.epochs": "many"})
        argv = ["train", "--config", str(conf), "--triplets", "t.tsv", "--out", "m.npz"]
        assert main([*argv, *explicit]) == 0
        assert parsed[-1].epochs == 2
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "--epochs: invalid int value: 'many'" in json.loads(err)["message"]

    def test_values_starting_with_a_dash(self, tmp_path, parsed):
        conf = write_config(tmp_path / "pipe.conf",
                            {"paths.out": "-out", "seeds.triplets": -3, "train.margin": -0.5})
        assert main(["triplets", "--config", str(conf), *ontology_args()]) == 0
        assert (parsed[-1].out, parsed[-1].seed) == ("-out", -3)
        assert main(["train", "--config", str(conf), "--triplets", "train.tsv"]) == 0
        assert (parsed[-1].out, parsed[-1].margin) == ("-out", -0.5)


def write_config(path, values):
    path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()),
                    encoding="utf-8")
    return path


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _rewrite_json(**changes):
    def rewrite(path):
        payload = json.loads(path.read_text(encoding="utf-8"))
        for key, value in changes.items():
            if value is None:
                del payload[key]
            else:
                payload[key] = value
        path.write_text(json.dumps(payload), encoding="utf-8")
    return rewrite


def _rewrite_npz(**changes):
    def rewrite(path):
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        for name, value in changes.items():
            if value is None:
                del arrays[name]
            else:
                arrays[name] = value
        save_arrays(path, **arrays)
    return rewrite


def _poison_npz(name, value):
    """Set rows 1-2 of array ``name`` to ``value`` (NaN or an infinity)."""
    def poison(path):
        with np.load(path) as data:
            array = data[name].copy()
        array[1:3] = value
        _rewrite_npz(**{name: array})(path)
    return poison


def _unknown_compression(path):
    """Set every entry's compression method, in its local header and in its
    central-directory record, to 99, which ``zipfile`` cannot decode."""
    data = bytearray(path.read_bytes())
    with zipfile.ZipFile(path) as zf:
        infos = zf.infolist()
    record = struct.unpack_from("<I", data, data.rfind(b"PK\x05\x06") + 16)[0]
    for info in infos:
        struct.pack_into("<H", data, info.header_offset + 8, 99)
        struct.pack_into("<H", data, record + 10, 99)
        names, extra, comment = struct.unpack_from("<HHH", data, record + 28)
        record += 46 + names + extra + comment
    path.write_bytes(bytes(data))


def _add_label(path):
    with path.open("a", encoding="utf-8") as fh:
        fh.write("asthenia\tWeakness\n")


def _add_bad_byte(path):
    with path.open("ab") as fh:
        fh.write(b"asthenia\tWeak\xffness\n")


def _drop_label(path):
    path.write_text("".join(path.read_text(encoding="utf-8").splitlines(True)[:-1]),
                    encoding="utf-8")


def _narrow_rows(path):
    """Cut the 16-wide rows to 3 columns, fingerprint kept; a ``dim``
    entry, as files of the old layout carry, says 3 as well."""
    with np.load(path) as data:
        rows = data["rows"][:, :3]
    _rewrite_npz(rows=rows, dim=3)(path)


def _swap_encoder(path):
    """An encoder of the same shape, but not the one the rows came from."""
    save_encoder(SubwordEmbedder(bucket_count=512, dim=16, seed=8), path)


class TestCorruptBundle:
    """A bundle file that cannot be read gives one coded line naming the
    file it was caught in once, never a traceback."""

    @pytest.mark.parametrize("target, corrupt, named", [
        ("bm25.json", _truncate, "bm25.json"),
        ("bm25.json", _rewrite_json(term_freqs=None), "bm25.json"),
        ("bm25.json", _rewrite_json(term_freqs=[{}]), "bm25.json"),
        ("bm25.json", _rewrite_json(version=1), "bm25.json"),
        ("bm25.json", _rewrite_json(k1=np.nan), "bm25.json"),
        ("bm25.json", _rewrite_json(b=2.0), "bm25.json"),
        ("vector.npz", lambda path: path.write_text("not a zip\n"), "vector.npz"),
        ("vector.npz", _truncate, "vector.npz"),
        ("vector.npz", _rewrite_npz(rows=None), "vector.npz"),
        ("vector.npz", _rewrite_npz(version=1), "vector.npz"),
        # the vector index's row count no longer matches the ontology's labels
        ("labels.tsv", _add_label, "vector.npz"),
        ("labels.tsv", _drop_label, "vector.npz"),
        ("labels.tsv", _add_bad_byte, "labels.tsv"),
        ("encoder.npz", lambda path: path.write_text("not a zip\n"), "encoder.npz"),
        ("encoder.npz", _truncate, "encoder.npz"),
        ("vector.npz", _poison_npz("rows", np.nan), "vector.npz"),
        ("encoder.npz", _poison_npz("table", np.inf), "encoder.npz"),
        ("vector.npz", _unknown_compression, "vector.npz"),
        ("encoder.npz", _unknown_compression, "encoder.npz"),
        # each file reads well alone; the pair disagrees
        ("vector.npz", _narrow_rows, "vector.npz"),
        ("encoder.npz", _swap_encoder, "vector.npz"),
    ], ids=["bm25-not-json", "bm25-no-term-freqs", "bm25-one-document", "bm25-version-1", "bm25-k1-nan",
            "bm25-b-2", "vector-not-a-zip",
            "vector-truncated", "vector-no-rows", "vector-version-1", "label-added",
            "label-dropped", "labels-not-utf8", "encoder-not-a-zip", "encoder-truncated",
            "vector-rows-nan", "encoder-table-inf", "vector-compression-99",
            "encoder-compression-99", "vector-narrower-than-encoder", "encoder-swapped"])
    def test_one_malformed_line(self, capsys, built_index, target, corrupt, named):
        corrupt(built_index / target)
        ranker = "bm25" if target == "bm25.json" else "vector"
        code, out, err = run(capsys, "query", "--index", str(built_index),
                             "--q", "Fatigue", "--ranker", ranker)
        assert code == 1
        assert out == "" and err.count("\n") == 1
        assert json.loads(err)["error"] == "io.MalformedLine"
        assert json.loads(err)["message"].count(named) == 1


class TestIndexModel:
    """`index --model` with a file that is not an encoder container gives
    one coded line naming it, exit 1."""

    @pytest.mark.parametrize("corrupt", [
        lambda path: path.write_text("not an encoder\n"),
        _truncate,
        _rewrite_npz(table=None),
        _rewrite_npz(version=2),
        _rewrite_npz(table=np.zeros((16, 4, 1))),
        _rewrite_npz(kind="wordvec", tokens=np.array(["fatigue"]), matrix=np.ones(3),
                     table=None),
    ], ids=["text-file", "truncated", "no-table", "version-2", "table-3-d",
            "wordvec-matrix-1-d"])
    def test_one_malformed_line(self, capsys, tmp_path, corrupt):
        model = tmp_path / "model.npz"
        save_encoder(SubwordEmbedder(bucket_count=16, dim=4, seed=0), model)
        corrupt(model)
        code, out, err = run(capsys, "index", *ontology_args(), "--model", str(model),
                             "--out", str(tmp_path / "index"))
        assert code == 1
        assert out == "" and err.count("\n") == 1
        error = json.loads(err)
        assert error["error"] == "io.MalformedLine"
        assert str(model) in error["message"]
        assert "bundle file" not in error["message"]

    @pytest.mark.parametrize("encoder, corrupt", [
        (StaticWordVectors({"fatigue": np.array([np.nan, 1.0]), "weariness": np.ones(2)}, 2),
         None),
        (PrecomputedEncoder({"Fatigue": np.array([1.0, -np.inf])}, 2), None),
        (StaticWordVectors({"fatigue": np.ones(2), "weariness": np.ones(2)}, 2),
         _rewrite_npz(matrix=np.ones((1, 2)))),
    ], ids=["wordvec-nan", "precomputed-inf", "wordvec-matrix-short"])
    def test_bad_matrix(self, capsys, tmp_path, encoder, corrupt):
        """A word-vector or precomputed matrix must be finite and hold one
        row per token or text."""
        model = tmp_path / "model.npz"
        save_encoder(encoder, model)
        if corrupt:
            corrupt(model)
        code, out, err = run(capsys, "index", *ontology_args(), "--model", str(model),
                             "--out", str(tmp_path / "index"))
        assert code == 1
        assert out == "" and err.count("\n") == 1
        error = json.loads(err)
        assert error["error"] == "io.MalformedLine"
        assert str(model) in error["message"]


class TestOldLayout:
    """Files written while ``dim``, ``bucket_count`` and ``duplicates`` were
    stored beside the arrays whose shapes give them: they load, the extra
    entries unread, and answer byte for byte as before."""

    def test_bundle(self, capsys, built_index):
        commands = [
            ["query", "--index", str(built_index), "--q", "tired weariness", "--k", "5"],
            ["match", "--index", str(built_index), "--source-concepts",
             str(FIG / "concepts.tsv"), "--source-labels", str(FIG / "labels.tsv")],
        ]
        before = [run(capsys, *argv) for argv in commands]
        _rewrite_npz(dim=16)(built_index / "vector.npz")
        _rewrite_npz(dim=16, bucket_count=512)(built_index / "encoder.npz")
        assert [run(capsys, *argv) for argv in commands] == before

    @pytest.mark.parametrize("encoder, old_entries", [
        (SubwordEmbedder(bucket_count=64, dim=4, seed=3), dict(dim=4, bucket_count=64)),
        (StaticWordVectors({"fatigue": np.array([1.0, 0.0]), "tired": np.array([0.5, 0.5]),
                            "weakness": np.array([0.0, 1.0])}, 2), dict(dim=2, duplicates=1)),
    ], ids=["subword", "wordvec"])
    def test_model(self, capsys, tmp_path, encoder, old_entries):
        model = tmp_path / "model.npz"

        def answer(index):
            assert main(["index", *ontology_args(), "--model", str(model),
                         "--out", str(index)]) == 0
            capsys.readouterr()
            return run(capsys, "query", "--index", str(index), "--q", "tired")

        save_encoder(encoder, model)
        new = answer(tmp_path / "new")
        assert new[0] == 0 and new[1]
        _rewrite_npz(**old_entries)(model)
        assert answer(tmp_path / "old") == new


BAD = "<file with a byte that is not UTF-8>"


def _ontology_args_with_bad(name):
    args = ontology_args()
    args[args.index(f"--{name}") + 1] = BAD
    return args


class TestUndecodableInput:
    """Every text input must be UTF-8: a file with any other byte gives one
    coded line naming it, exit 1."""

    @pytest.mark.parametrize("argv, content", [
        (["ingest", *_ontology_args_with_bad("concepts")], "asthenia\tAsthenia\n"),
        (["ingest", *_ontology_args_with_bad("labels")], "asthenia\tLassitude\n"),
        (["ingest", *_ontology_args_with_bad("relations")], "asthenia\tfatigue\n"),
        (["train", "--triplets", BAD, "--dim", "4", "--buckets", "16", "--out", "m.npz"],
         "Fatigue\tWeariness\tAsthenia\n"),
        (["eval", "--index", "index", "--queries", BAD], "q1\tFatigue\tfatigue\n"),
        (["index", *ontology_args(), "--word-vectors", BAD, "--out", "out"], "fatigue 1 0\n"),
        (["index", *ontology_args(), "--precomputed", BAD, "--out", "out"], "Fatigue\t1 0\n"),
        (["index", *ontology_args(), "--bm25", "--stopwords", BAD, "--out", "out"], "the\n"),
        (["ingest", *ontology_args(), "--config", BAD], "ranker.k = 5\n"),
    ], ids=["ingest-concepts", "ingest-labels", "ingest-relations", "train-triplets",
            "eval-queries", "index-word-vectors", "index-precomputed", "index-stopwords",
            "config"])
    def test_one_malformed_line(self, capsys, tmp_path, monkeypatch, argv, content):
        monkeypatch.chdir(tmp_path)
        assert main(["index", *ontology_args(), "--bm25", "--out", "index"]) == 0
        capsys.readouterr()
        bad = tmp_path / "bad.txt"
        bad.write_bytes(content.encode("utf-8") + b"\xff\n")
        code, out, err = run(capsys, *[str(bad) if arg == BAD else arg for arg in argv])
        assert code == 1
        assert out == "" and err.count("\n") == 1
        error = json.loads(err)
        assert error["error"] == "io.MalformedLine"
        assert str(bad) in error["message"]


def declared_script(name):
    """The `module:function` target of `name` in pyproject's [project.scripts]."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def assert_ingest_stats(result):
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["concepts"] == 5, result.stderr


def package_env():
    """The environment of a child process that imports this package
    (its source directory first on PYTHONPATH), without an install."""
    import ontosearch

    package_root = Path(ontosearch.__file__).resolve().parents[1]
    pythonpath = [str(package_root), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}


def test_console_script_entry_point():
    """The declared console script runs in its own process the way pip's
    generated wrapper runs it: load the entry point, take the arguments
    from sys.argv and exit with main's return code."""
    target = declared_script("ontosearch")
    wrapper = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        f"fn = EntryPoint('ontosearch', {target!r}, 'console_scripts').load()\n"
        "sys.argv[0] = 'ontosearch'\n"
        "sys.exit(fn())\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", wrapper, "ingest", *ontology_args()],
        capture_output=True, text=True, check=False, env=package_env(),
    )
    assert_ingest_stats(result)


def test_python_dash_m():
    result = subprocess.run(
        [sys.executable, "-m", "ontosearch", "ingest", *ontology_args()],
        capture_output=True, text=True, check=False, env=package_env(),
    )
    assert_ingest_stats(result)


@pytest.mark.skipif(shutil.which("ontosearch") is None,
                    reason="ontosearch console script not installed")
def test_installed_console_script():
    result = subprocess.run(
        ["ontosearch", "ingest", *ontology_args()],
        capture_output=True, text=True, check=False,
    )
    assert_ingest_stats(result)
