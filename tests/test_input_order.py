"""The row order of the ontology files does not matter.

``OntologyGraph`` holds its concepts, and each concept's children, in
ascending id order, and every artifact and answer follows that order.  So
rewriting ``concepts.tsv``, ``labels.tsv`` and ``relations.tsv`` with their
rows permuted (each concept's labels keeping their relative order) must
leave the bundle files, the triplet files and the ``query``/``match``
output byte for byte as they were.
"""

import contextlib
import functools
import io
import random
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ontosearch.cli import main
from ontosearch.embedder import SubwordEmbedder, save_encoder
from ontosearch.ontology import Concept, OntologyGraph

WORDS = ["muscle", "weakness", "fatigue", "pain", "chronic", "acute", "tired", "loss"]


def _ontology() -> tuple[list[tuple[str, str]], list[tuple[str, str]], list[tuple[str, str]]]:
    """Rows of a 16-concept DAG: ids whose written order is not their
    sorted order, one to three labels from a small vocabulary (so scores
    tie), several parents per concept."""
    rng = random.Random(5)
    ids = [f"{rng.choice('qzbk')}{i:02d}" for i in range(16)]
    concepts, labels, relations = [], [], []
    for i, cid in enumerate(ids):
        texts = list(dict.fromkeys(" ".join(rng.sample(WORDS, rng.randint(1, 3)))
                                   for _ in range(rng.randint(1, 3))))
        concepts.append((cid, texts[0]))
        labels += [(cid, text) for text in texts[1:]]
        relations += [(cid, pid) for pid in rng.sample(ids[:i], min(i, rng.randint(0, 3)))]
    return concepts, labels, relations


CONCEPTS, LABELS, RELATIONS = _ontology()
QUERIES = ["muscle weakness", "tired", "chronic pain loss", "nothing known"]


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _outputs(concepts, labels, relations) -> dict[str, bytes]:
    """Every file ``index`` and ``triplets`` write, and the ``query`` and
    ``match`` output of both rankers, for an ontology given as its rows."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, rows in (("c.tsv", concepts), ("l.tsv", labels), ("r.tsv", relations)):
            (work / name).write_text("".join(f"{a}\t{b}\n" for a, b in rows), encoding="utf-8")
        save_encoder(SubwordEmbedder(bucket_count=64, dim=8, seed=1), work / "model.npz")
        ontology = ["--concepts", str(work / "c.tsv"), "--labels", str(work / "l.tsv"),
                    "--relations", str(work / "r.tsv")]
        _run(["index", *ontology, "--model", str(work / "model.npz"), "--bm25",
              "--out", str(work / "index")])
        _run(["triplets", *ontology, "--seed", "3", "--out", str(work / "triplets")])
        outputs = {f"{path.parent.name}/{path.name}": path.read_bytes()
                   for sub in ("index", "triplets") for path in (work / sub).iterdir()}
        for ranker in ("vector", "bm25"):
            for q in QUERIES:
                outputs[f"query {ranker} {q}"] = _run(
                    ["query", "--index", str(work / "index"), "--q", q, "--k", "5",
                     "--ranker", ranker]).encode()
            outputs[f"match {ranker}"] = _run(
                ["match", "--index", str(work / "index"), "--source-concepts",
                 str(work / "c.tsv"), "--source-labels", str(work / "l.tsv"), "--k", "4",
                 "--ranker", ranker]).encode()
        return outputs


@functools.cache
def _unpermuted() -> dict[str, bytes]:
    return _outputs(CONCEPTS, LABELS, RELATIONS)


@st.composite
def label_interleavings(draw):
    """The rows of ``LABELS`` in a random order that keeps each concept's
    labels in their relative order."""
    queues: dict[str, list] = {}
    for row in LABELS:
        queues.setdefault(row[0], []).append(row)
    owners = draw(st.permutations([cid for cid, _ in LABELS]))
    return [queues[cid].pop(0) for cid in owners]


@settings(max_examples=20, deadline=None)
@given(concepts=st.permutations(CONCEPTS), labels=label_interleavings(),
       relations=st.permutations(RELATIONS))
def test_permuted_ontology_rows_move_no_output_byte(concepts, labels, relations):
    permuted = _outputs(concepts, labels, relations)
    assert permuted.keys() == _unpermuted().keys()
    for name, data in _unpermuted().items():
        assert permuted[name] == data, name


@settings(max_examples=100)
@given(n=st.integers(1, 14), data=st.data())
def test_graph_iterates_concepts_and_children_in_ascending_id_order(n, data):
    # ids "c1" < "c10" < "c2": code-point order, not creation order
    specs = [(f"c{i}", data.draw(st.sets(st.integers(0, i - 1), max_size=3)) if i else set())
             for i in range(n)]
    concepts = data.draw(st.permutations(
        [Concept(id=cid, labels=("x",), parent_ids=frozenset(f"c{p}" for p in parents))
         for cid, parents in specs]))
    graph = OntologyGraph(concepts)
    assert list(graph.concepts) == sorted(c.id for c in concepts)
    assert list(graph.children) == list(graph.concepts)
    for pid, children in graph.children.items():
        assert children == sorted(c.id for c in concepts if pid in c.parent_ids)
