import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontosearch.errors import (
    CycleDetected,
    DuplicateConceptId,
    DuplicateLabel,
    EmptyLabel,
    MalformedLine,
    UnknownConceptId,
    UnknownParentId,
)
from ontosearch import ontology
from ontosearch.ontology import (
    Concept,
    OntologyGraph,
    RelationKind,
    gain_of_relation,
    get_siblings,
    get_uncles,
    load_ontology,
    relation_between,
    runs,
    save_ontology,
)


def graph_of(*specs):
    """specs: (id, labels, parents) tuples."""
    return OntologyGraph(
        Concept(id=c, labels=tuple(ls), parent_ids=frozenset(ps))
        for c, ls, ps in specs
    )


def write_tsv(path, rows):
    path.write_text("".join(f"{a}\t{b}\n" for a, b in rows), encoding="utf-8")


class TestLoading:
    def test_single_concept_no_relations(self, tmp_path):
        write_tsv(tmp_path / "c.tsv", [("A", "asthenia")])
        (tmp_path / "l.tsv").write_text("", encoding="utf-8")
        (tmp_path / "r.tsv").write_text("", encoding="utf-8")
        graph = load_ontology(tmp_path / "c.tsv", tmp_path / "l.tsv", tmp_path / "r.tsv")
        assert len(graph) == 1
        assert graph.concepts["A"].labels == ("asthenia",)
        assert not graph.concepts["A"].parent_ids

    def test_two_node_cycle_detected(self, tmp_path):
        write_tsv(tmp_path / "c.tsv", [("A", "a"), ("B", "b")])
        (tmp_path / "l.tsv").write_text("", encoding="utf-8")
        write_tsv(tmp_path / "r.tsv", [("A", "B"), ("B", "A")])
        with pytest.raises(CycleDetected) as excinfo:
            load_ontology(tmp_path / "c.tsv", tmp_path / "l.tsv", tmp_path / "r.tsv")
        # one concrete offending cycle is reported
        assert len(excinfo.value.cycle) >= 3
        assert excinfo.value.cycle[0] == excinfo.value.cycle[-1]

    def test_self_loop_is_a_cycle(self, tmp_path):
        write_tsv(tmp_path / "c.tsv", [("A", "a")])
        (tmp_path / "l.tsv").write_text("", encoding="utf-8")
        write_tsv(tmp_path / "r.tsv", [("A", "A")])
        with pytest.raises(CycleDetected):
            load_ontology(tmp_path / "c.tsv", tmp_path / "l.tsv", tmp_path / "r.tsv")

    def test_label_for_unknown_concept(self, tmp_path):
        write_tsv(tmp_path / "c.tsv", [("A", "a")])
        write_tsv(tmp_path / "l.tsv", [("Z", "zeta")])
        (tmp_path / "r.tsv").write_text("", encoding="utf-8")
        with pytest.raises(UnknownConceptId):
            load_ontology(tmp_path / "c.tsv", tmp_path / "l.tsv", tmp_path / "r.tsv")

    def test_relation_with_unknown_parent(self, tmp_path):
        write_tsv(tmp_path / "c.tsv", [("A", "a")])
        (tmp_path / "l.tsv").write_text("", encoding="utf-8")
        write_tsv(tmp_path / "r.tsv", [("A", "NOPE")])
        with pytest.raises(UnknownParentId):
            load_ontology(tmp_path / "c.tsv", tmp_path / "l.tsv", tmp_path / "r.tsv")

    def test_graph_names_the_least_id_with_an_unknown_parent(self):
        with pytest.raises(UnknownParentId, match="concept 'A' names unknown parent 'Y'"):
            graph_of(("B", ["b"], ["X"]), ("A", ["a"], ["Y"]))

    def test_duplicate_concept_id(self, tmp_path):
        write_tsv(tmp_path / "c.tsv", [("A", "a"), ("A", "a2")])
        (tmp_path / "l.tsv").write_text("", encoding="utf-8")
        (tmp_path / "r.tsv").write_text("", encoding="utf-8")
        with pytest.raises(DuplicateConceptId, match=r"c\.tsv:2: duplicate concept id 'A'"):
            load_ontology(tmp_path / "c.tsv", tmp_path / "l.tsv", tmp_path / "r.tsv")

    def test_empty_label_rejected(self, tmp_path):
        write_tsv(tmp_path / "c.tsv", [("A", "  ")])
        (tmp_path / "l.tsv").write_text("", encoding="utf-8")
        (tmp_path / "r.tsv").write_text("", encoding="utf-8")
        with pytest.raises(EmptyLabel):
            load_ontology(tmp_path / "c.tsv", tmp_path / "l.tsv", tmp_path / "r.tsv")

    def test_duplicate_label_within_concept(self, tmp_path):
        write_tsv(tmp_path / "c.tsv", [("A", "a")])
        write_tsv(tmp_path / "l.tsv", [("A", "a")])
        (tmp_path / "r.tsv").write_text("", encoding="utf-8")
        with pytest.raises(DuplicateLabel):
            load_ontology(tmp_path / "c.tsv", tmp_path / "l.tsv", tmp_path / "r.tsv")

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        (tmp_path / "c.tsv").write_text("# comment\nA\ta\n\n", encoding="utf-8")
        (tmp_path / "l.tsv").write_text("", encoding="utf-8")
        (tmp_path / "r.tsv").write_text("", encoding="utf-8")
        graph = load_ontology(tmp_path / "c.tsv", tmp_path / "l.tsv", tmp_path / "r.tsv")
        assert len(graph) == 1

    def test_wrong_column_count(self, tmp_path):
        (tmp_path / "c.tsv").write_text("A\ta\textra\n", encoding="utf-8")
        (tmp_path / "l.tsv").write_text("", encoding="utf-8")
        (tmp_path / "r.tsv").write_text("", encoding="utf-8")
        with pytest.raises(MalformedLine):
            load_ontology(tmp_path / "c.tsv", tmp_path / "l.tsv", tmp_path / "r.tsv")

    def test_round_trip(self, asthenia_graph, tmp_path):
        save_ontology(
            asthenia_graph,
            tmp_path / "c.tsv", tmp_path / "l.tsv", tmp_path / "r.tsv",
        )
        reloaded = load_ontology(
            tmp_path / "c.tsv", tmp_path / "l.tsv", tmp_path / "r.tsv"
        )
        assert reloaded == asthenia_graph
        # and a second save is byte-identical (canonical serialisation)
        save_ontology(
            reloaded, tmp_path / "c2.tsv", tmp_path / "l2.tsv", tmp_path / "r2.tsv"
        )
        for a, b in (("c.tsv", "c2.tsv"), ("l.tsv", "l2.tsv"), ("r.tsv", "r2.tsv")):
            assert (tmp_path / a).read_bytes() == (tmp_path / b).read_bytes()


class TestSiblings:
    def test_siblings_of_asthenia(self, asthenia_graph):
        assert get_siblings(asthenia_graph, "asthenia") == {"feeling-tired"}

    def test_root_has_no_siblings(self, asthenia_graph):
        assert get_siblings(asthenia_graph, "energy") == set()

    def test_union_over_multiple_parents(self):
        graph = graph_of(
            ("P1", ["p1"], []),
            ("P2", ["p2"], []),
            ("A", ["a"], ["P1", "P2"]),
            ("X", ["x"], ["P1"]),
            ("Y", ["y"], ["P2"]),
        )
        assert get_siblings(graph, "A") == {"X", "Y"}

    def test_unknown_id(self, asthenia_graph):
        with pytest.raises(UnknownConceptId):
            get_siblings(asthenia_graph, "nope")

    def test_uncles_of_asthenia(self, asthenia_graph):
        assert get_uncles(asthenia_graph, "asthenia") == {"exhaustion"}


class TestRelationKind:
    def test_identity_is_same(self, asthenia_graph):
        assert relation_between(asthenia_graph, "asthenia", "asthenia") is RelationKind.SAME

    def test_fatigue_is_parent_of_asthenia(self, asthenia_graph):
        assert (
            relation_between(asthenia_graph, "fatigue", "asthenia")
            is RelationKind.PARENT_OF_TRUTH
        )
        assert (
            relation_between(asthenia_graph, "asthenia", "fatigue")
            is RelationKind.CHILD_OF_TRUTH
        )

    def test_grandparent_and_grandchild(self, asthenia_graph):
        assert (
            relation_between(asthenia_graph, "energy", "asthenia")
            is RelationKind.GRANDPARENT_OF_TRUTH
        )
        assert (
            relation_between(asthenia_graph, "asthenia", "energy")
            is RelationKind.GRANDCHILD_OF_TRUTH
        )

    def test_uncle_and_sibling(self, asthenia_graph):
        assert (
            relation_between(asthenia_graph, "exhaustion", "asthenia")
            is RelationKind.UNCLE_OF_TRUTH
        )
        assert (
            relation_between(asthenia_graph, "feeling-tired", "asthenia")
            is RelationKind.SIBLING_OF_TRUTH
        )

    def test_disjoint_subtrees_are_other(self):
        graph = graph_of(
            ("R1", ["r1"], []), ("R2", ["r2"], []),
            ("A", ["a"], ["R1"]), ("B", ["b"], ["R2"]),
        )
        assert relation_between(graph, "A", "B") is RelationKind.OTHER

    def test_nephew_gets_other(self, asthenia_graph):
        # child of a sibling: feeling-tired relative to exhaustion's view
        # asthenia is a child of fatigue, fatigue is sibling of exhaustion
        assert (
            relation_between(asthenia_graph, "asthenia", "exhaustion")
            is RelationKind.OTHER
        )

    def test_highest_gain_wins_when_both_apply(self):
        # X is both a sibling of T (shared parent P) and a parent of T:
        # parent wins (gain 2 over gain 1).
        graph = graph_of(
            ("P", ["p"], []),
            ("X", ["x"], ["P"]),
            ("T", ["t"], ["P", "X"]),
        )
        assert relation_between(graph, "X", "T") is RelationKind.PARENT_OF_TRUTH


class TestConceptInvariants:
    def test_rejects_empty_and_duplicate_labels(self):
        with pytest.raises(EmptyLabel):
            Concept(id="a", labels=(), parent_ids=frozenset())
        with pytest.raises(EmptyLabel):
            Concept(id="a", labels=("x", "  "), parent_ids=frozenset())
        with pytest.raises(DuplicateLabel):
            Concept(id="a", labels=("x", "x"), parent_ids=frozenset())
        with pytest.raises(EmptyLabel):
            Concept(id="", labels=("x",), parent_ids=frozenset())

    def test_case_differences_are_distinct_labels(self):
        concept = Concept(id="a", labels=("Pain", "pain"), parent_ids=frozenset())
        assert concept.preferred_label == "Pain"


class TestGain:
    @pytest.mark.parametrize(
        "kind,gain",
        [
            (RelationKind.SAME, 3),
            (RelationKind.PARENT_OF_TRUTH, 2),
            (RelationKind.CHILD_OF_TRUTH, 2),
            (RelationKind.GRANDPARENT_OF_TRUTH, 1),
            (RelationKind.GRANDCHILD_OF_TRUTH, 1),
            (RelationKind.UNCLE_OF_TRUTH, 1),
            (RelationKind.SIBLING_OF_TRUTH, 1),
            (RelationKind.OTHER, 0),
        ],
    )
    def test_gain_table(self, kind, gain):
        assert gain_of_relation(kind) == gain


# --- randomised structural properties ------------------------------------------

@st.composite
def random_dags(draw):
    """Small random DAG: each concept may take parents among earlier ids."""
    n = draw(st.integers(min_value=1, max_value=12))
    specs = []
    for i in range(n):
        parents = draw(
            st.sets(st.integers(min_value=0, max_value=i - 1), max_size=3)
        ) if i else set()
        specs.append((f"c{i:02d}", [f"label {i}"], {f"c{p:02d}" for p in parents}))
    return graph_of(*specs)


@given(random_dags())
@settings(max_examples=60)
def test_never_own_sibling_and_symmetry(graph):
    ids = list(graph.concepts)
    for cid in ids:
        siblings = get_siblings(graph, cid)
        assert cid not in siblings
        for other in siblings:
            assert cid in get_siblings(graph, other)


@given(random_dags())
@settings(max_examples=60)
def test_parent_child_duality_and_self_gain(graph):
    ids = list(graph.concepts)
    for x in ids:
        assert gain_of_relation(relation_between(graph, x, x)) == 3
        for y in ids:
            forward = relation_between(graph, x, y)
            backward = relation_between(graph, y, x)
            if forward is RelationKind.PARENT_OF_TRUTH:
                assert backward is RelationKind.CHILD_OF_TRUTH
            if forward is RelationKind.GRANDPARENT_OF_TRUTH:
                assert backward is RelationKind.GRANDCHILD_OF_TRUTH


def reference_relation(graph, result_id, truth_id):
    """The set-based definition: each neighbour set built whole from
    ``children``, ``get_uncles`` and ``get_siblings``."""
    truth = graph.get(truth_id)
    if result_id == truth_id:
        return RelationKind.SAME
    if result_id in truth.parent_ids:
        return RelationKind.PARENT_OF_TRUTH
    if truth_id in graph.get(result_id).parent_ids:
        return RelationKind.CHILD_OF_TRUTH
    if result_id in {gp for pid in truth.parent_ids for gp in graph.parents_of(pid)}:
        return RelationKind.GRANDPARENT_OF_TRUTH
    if result_id in {gc for cid in graph.children[truth_id] for gc in graph.children[cid]}:
        return RelationKind.GRANDCHILD_OF_TRUTH
    if result_id in get_uncles(graph, truth_id):
        return RelationKind.UNCLE_OF_TRUTH
    if result_id in get_siblings(graph, truth_id):
        return RelationKind.SIBLING_OF_TRUTH
    return RelationKind.OTHER


@given(random_dags())
@settings(max_examples=100)
def test_relation_matches_the_neighbour_set_definition(graph):
    for x in graph.concepts:
        for y in graph.concepts:
            assert relation_between(graph, x, y) is reference_relation(graph, x, y), (x, y)


@st.composite
def dags_with_a_back_edge(draw):
    """A random DAG whose concept ``child`` also takes ``parent`` as a
    parent, where ``child`` is ``parent`` or one of its ancestors."""
    graph = draw(random_dags())
    parent = draw(st.sampled_from(sorted(graph.concepts)))
    ancestors, todo = {parent}, [parent]
    while todo:
        for pid in graph.parents_of(todo.pop()):
            if pid not in ancestors:
                ancestors.add(pid)
                todo.append(pid)
    child = draw(st.sampled_from(sorted(ancestors)))
    return [Concept(id=c.id, labels=c.labels,
                    parent_ids=c.parent_ids | {parent} if c.id == child else c.parent_ids)
            for c in graph.concepts.values()]


def cycle_of(concepts):
    with pytest.raises(CycleDetected) as excinfo:
        OntologyGraph(concepts)
    return excinfo.value.cycle


@given(dags_with_a_back_edge())
@settings(max_examples=100)
def test_named_cycle_is_real_and_independent_of_row_order(concepts):
    cycle = cycle_of(concepts)
    parents = {c.id: c.parent_ids for c in concepts}
    assert cycle[0] == cycle[-1]
    assert len(set(cycle[:-1])) == len(cycle) - 1
    assert all(parent in parents[child] for child, parent in zip(cycle, cycle[1:]))
    assert cycle_of(concepts[::-1]) == cycle


NAME_CYCLES = """
import json, sys
from ontosearch.errors import CycleDetected
from ontosearch.ontology import Concept, OntologyGraph
cycles = []
for specs in json.load(sys.stdin):
    try:
        OntologyGraph(Concept(id=c, labels=("x",), parent_ids=frozenset(ps)) for c, ps in specs)
        cycles.append(None)
    except CycleDetected as exc:
        cycles.append(exc.cycle)
print(json.dumps(cycles))
"""


def test_named_cycle_is_independent_of_hash_seed():
    rng = random.Random(0)
    graphs = [[(f"c{i:02d}", [f"c{p:02d}" for p in rng.sample(range(30), rng.randint(0, 2))])
               for i in range(30)] for _ in range(200)]
    src = str(Path(ontology.__file__).parents[1])
    named = [
        json.loads(subprocess.run(
            [sys.executable, "-c", NAME_CYCLES], input=json.dumps(graphs), capture_output=True,
            text=True, check=True, env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
        ).stdout)
        for seed in ("1", "2")
    ]
    assert named[0] == named[1]
    assert sum(cycle is not None for cycle in named[0]) > 100


def test_long_cycle_behind_a_long_tail_is_named_in_linear_time():
    n = 20_000
    concepts = [Concept(id=f"a{i:05d}", labels=("x",),
                        parent_ids=frozenset({f"a{i + 1:05d}" if i + 1 < n else "b00000"}))
                for i in range(n)]
    concepts += [Concept(id=f"b{i:05d}", labels=("x",), parent_ids=frozenset({f"b{(i + 1) % n:05d}"}))
                 for i in range(n)]
    start = time.perf_counter()
    cycle = cycle_of(concepts)
    assert time.perf_counter() - start < 1.0
    assert cycle == [f"b{i:05d}" for i in range(n)] + ["b00000"]


def reference_runs(ptr, rows):
    """``runs`` one list at a time, in Python."""
    positions, starts, counts = [], [], []
    for row in rows:
        starts.append(len(positions))
        counts.append(ptr[row + 1] - ptr[row])
        positions += range(ptr[row], ptr[row + 1])
    return positions, starts, counts


# five lists of 2, 0, 3, 0 and 1 entries: zero-length lists between others and last but one
RUN_PTR = [0, 2, 2, 5, 5, 6]


@pytest.mark.parametrize("rows", [[], [1], [3, 1], [4], [0, 1, 2, 3, 4], [4, 2, 0], [2, 2, 0],
                                  [3, 4, 3]],
                         ids=["empty", "one-empty", "two-empty", "last", "all", "reversed",
                              "repeated", "empty-around-last"])
def test_runs_equal_a_python_reference(rows):
    got = runs(np.array(RUN_PTR, dtype=np.intp), np.array(rows, dtype=np.intp))
    assert [part.tolist() for part in got] == list(reference_runs(RUN_PTR, rows))
