"""Every file the package writes goes through ``npzio.writing``: a writer
that fails mid-write leaves its target with the old bytes and leaves no
temporary file behind."""

import errno
import json
from pathlib import Path

import numpy as np
import pytest

from ontosearch import npzio, store
from ontosearch.cli import main
from ontosearch.embedder import SubwordEmbedder, load_encoder, save_encoder
from ontosearch.errors import UsageError
from ontosearch.ontology import save_ontology
from ontosearch.ranker import build_bm25_index, build_vector_index, save_bm25_index
from ontosearch.triplets import (
    SplitRatios,
    generate_triplets,
    split_dataset,
    write_split,
    write_triplets,
)

OLD = b"the old bytes\n"


class HalfWrittenFile:
    """A file whose first write stores half of its data, then fails as a
    full disk does."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)


@pytest.fixture
def disk_full_at(monkeypatch):
    """``disk_full_at(name)``: writes of the file named ``name`` fail."""
    def fail(name):
        real_open = open

        def opener(file, mode="r", **kwargs):
            fh = real_open(file, mode, **kwargs)
            return HalfWrittenFile(fh) if Path(file).name.startswith(f".{name}.") else fh

        monkeypatch.setattr(npzio, "open", opener, raising=False)
    return fail


def assert_untouched(directory, target):
    assert (directory / target).read_bytes() == OLD
    assert not [p.name for p in directory.iterdir() if p.name.endswith(".tmp")]


def ontology_files(tmp_path):
    return [tmp_path / name for name in ("concepts.tsv", "labels.tsv", "relations.tsv")]


def split_of(graph):
    return split_dataset(generate_triplets(graph, seed=4), seed=4)


WRITERS = {
    "npz": ("w.npz", lambda g, d: npzio.save_arrays(d / "w.npz", a=np.arange(3))),
    "encoder": ("m.npz", lambda g, d: save_encoder(SubwordEmbedder(bucket_count=4, dim=2),
                                                   d / "m.npz")),
    "concepts": ("concepts.tsv", lambda g, d: save_ontology(g, *ontology_files(d))),
    "labels": ("labels.tsv", lambda g, d: save_ontology(g, *ontology_files(d))),
    "relations": ("relations.tsv", lambda g, d: save_ontology(g, *ontology_files(d))),
    "bm25": ("bm25.json", lambda g, d: save_bm25_index(build_bm25_index(g), d / "bm25.json")),
    "triplets": ("t.tsv", lambda g, d: write_triplets(d / "t.tsv", generate_triplets(g, 4))),
    "manifest": ("manifest.json",
                 lambda g, d: write_split(d, *split_of(g), seed=4, ratios=SplitRatios())),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_keeps_the_old_bytes(asthenia_graph, tmp_path, disk_full_at, writer):
    target, write = WRITERS[writer]
    (tmp_path / target).write_bytes(OLD)
    disk_full_at(target)
    with pytest.raises(OSError, match="No space left"):
        write(asthenia_graph, tmp_path)
    assert_untouched(tmp_path, target)


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_write_replaces_the_old_bytes(asthenia_graph, tmp_path, writer):
    target, write = WRITERS[writer]
    (tmp_path / target).write_bytes(OLD)
    write(asthenia_graph, tmp_path)
    assert (tmp_path / target).read_bytes() != OLD
    assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


def test_failed_eval_out_keeps_the_old_bytes(asthenia_graph, tmp_path, disk_full_at, capsys):
    store.save_bundle(tmp_path / "index", asthenia_graph, bm25=build_bm25_index(asthenia_graph))
    queries = tmp_path / "q.tsv"
    queries.write_text("q1\tLassitude\tasthenia\n", encoding="utf-8")
    out = tmp_path / "report.json"
    out.write_bytes(OLD)
    disk_full_at("report.json")
    assert main(["eval", "--index", str(tmp_path / "index"), "--queries", str(queries),
                 "--ranker", "bm25", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "io.Error"
    assert_untouched(tmp_path, "report.json")


def test_interrupted_index_is_not_an_index_directory(asthenia_graph, tmp_path, monkeypatch):
    """``save_bundle`` removes ``meta.json`` first and writes it last, so a
    build that fails part way leaves a directory no loader takes for an
    index, and every file in it whole."""
    model = SubwordEmbedder(bucket_count=64, dim=4, seed=1)
    vector = build_vector_index(asthenia_graph, model)
    out = tmp_path / "index"
    store.save_bundle(out, asthenia_graph, vector=vector, encoder=model)
    assert store.load_bundle(out).rankers == ["vector"]

    def broken_save(encoder, path):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(store, "save_encoder", broken_save)
    with pytest.raises(OSError):
        store.save_bundle(out, asthenia_graph, vector=vector, encoder=model)
    with pytest.raises(UsageError, match="not an index directory"):
        store.load_bundle(out)
    assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]


def test_opening_error_names_the_target(tmp_path):
    with pytest.raises(FileNotFoundError) as caught:
        npzio.save_arrays(tmp_path / "missing" / "w.npz", a=np.arange(3))
    assert caught.value.filename == str(tmp_path / "missing" / "w.npz")
    (tmp_path / "d.npz").mkdir()
    with pytest.raises(IsADirectoryError) as caught:
        npzio.save_arrays(tmp_path / "d.npz", a=np.arange(3))
    assert caught.value.filename == str(tmp_path / "d.npz")
    assert [p.name for p in tmp_path.iterdir()] == ["d.npz"]


@pytest.mark.parametrize("seed", [2**64, 2**70, -2**63 - 1])
def test_seed_the_file_cannot_store_is_refused_before_writing(tmp_path, seed):
    path = tmp_path / "m.npz"
    with pytest.raises(UsageError, match=r"\[-2\*\*63, 2\*\*64\)"):
        save_encoder(SubwordEmbedder(bucket_count=4, dim=2, seed=seed), path)
    assert not path.exists()
    save_encoder(SubwordEmbedder(bucket_count=4, dim=2, seed=5), path)
    good = path.read_bytes()
    with pytest.raises(UsageError):
        save_encoder(SubwordEmbedder(bucket_count=4, dim=2, seed=seed), path)
    assert path.read_bytes() == good
    assert load_encoder(path).seed == 5
    assert [p.name for p in tmp_path.iterdir()] == ["m.npz"]
