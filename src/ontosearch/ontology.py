"""Hierarchical ontology: concepts, labels, is-a relations, and the
structural queries (siblings, uncles, relation classification) that drive
training-data generation and relation-gain scoring.

The on-disk form is three UTF-8 TSV files without headers; lines starting
with ``#`` are comments:

    concepts.tsv   concept_id <TAB> preferred_label
    labels.tsv     concept_id <TAB> label          (additional synonyms only)
    relations.tsv  child_id   <TAB> parent_id

A graph is immutable once loaded and safe to share across threads.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import (
    CycleDetected,
    DuplicateConceptId,
    DuplicateLabel,
    EmptyLabel,
    MalformedLine,
    UnknownConceptId,
    UnknownParentId,
)
from .npzio import read_table, writing


class RelationKind(enum.Enum):
    """How a returned concept relates to the ground-truth concept.

    Classification is single-valued: when several kinds apply (possible in
    a multi-parent hierarchy) the highest-gain kind wins, and within one
    gain level the member listed first here wins.
    """

    SAME = "same"
    PARENT_OF_TRUTH = "parent_of_truth"
    CHILD_OF_TRUTH = "child_of_truth"
    GRANDPARENT_OF_TRUTH = "grandparent_of_truth"
    GRANDCHILD_OF_TRUTH = "grandchild_of_truth"
    UNCLE_OF_TRUTH = "uncle_of_truth"
    SIBLING_OF_TRUTH = "sibling_of_truth"
    OTHER = "other"


_GAIN = {
    RelationKind.SAME: 3,
    RelationKind.PARENT_OF_TRUTH: 2,
    RelationKind.CHILD_OF_TRUTH: 2,
    RelationKind.GRANDPARENT_OF_TRUTH: 1,
    RelationKind.GRANDCHILD_OF_TRUTH: 1,
    RelationKind.UNCLE_OF_TRUTH: 1,
    RelationKind.SIBLING_OF_TRUTH: 1,
    RelationKind.OTHER: 0,
}


def gain_of_relation(kind: RelationKind) -> int:
    """Relation gain used by nDCG: exact 3, parent/child 2, grand/uncle/sibling 1."""
    return _GAIN[kind]


@dataclass(frozen=True)
class Concept:
    """One ontology concept: an opaque id plus its ordered labels.

    ``labels[0]`` is the preferred label; the rest are synonyms.  Labels are
    stored as-is and compared case-sensitively; tokenisation lowercases
    downstream.
    """

    id: str
    labels: tuple[str, ...]
    parent_ids: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        if not self.id:
            raise EmptyLabel("concept id must be non-empty")
        if not self.labels:
            raise EmptyLabel(f"concept {self.id!r} has no labels")
        if any(not label.strip() for label in self.labels):
            raise EmptyLabel(f"concept {self.id!r} has an empty label")
        if len(set(self.labels)) != len(self.labels):
            raise DuplicateLabel(f"concept {self.id!r} repeats a label")

    @property
    def preferred_label(self) -> str:
        return self.labels[0]


class OntologyGraph:
    """Validated concept DAG, held in columns.  ``ids`` run in ascending id
    order, which all output follows, and ``position`` maps each id to its
    index ``i`` there.  Concept ``i`` has the labels
    ``labels[label_ptr[i]:label_ptr[i + 1]]``, preferred first, the parents
    ``parent_idx[parent_ptr[i]:parent_ptr[i + 1]]`` and the children
    ``child_idx[child_ptr[i]:child_ptr[i + 1]]``, each list of positions
    ascending.  ``concepts`` and ``children`` read these columns as
    mappings in ascending id order."""

    def __init__(self, concepts: Iterable[Concept]):
        by_id: dict[str, Concept] = {}
        for concept in concepts:
            if concept.id in by_id:
                raise DuplicateConceptId(f"duplicate concept id {concept.id!r}")
            by_id[concept.id] = concept
        ids = sorted(by_id)
        position = dict(zip(ids, range(len(ids))))
        labels: list[str] = []
        counts: list[int] = []
        child: list[int] = []
        parent: list[int] = []
        for i, cid in enumerate(ids):
            concept = by_id[cid]
            unknown = [pid for pid in concept.parent_ids if pid not in position]
            if unknown:
                raise UnknownParentId(f"concept {cid!r} names unknown parent {min(unknown)!r}")
            labels += concept.labels
            counts.append(len(concept.labels))
            child += [i] * len(concept.parent_ids)
            parent += map(position.__getitem__, concept.parent_ids)
        self._hold(ids, position, labels, counts, child, parent)

    @classmethod
    def _of_columns(cls, ids, position, labels, counts, child, parent) -> OntologyGraph:
        graph = cls.__new__(cls)
        graph._hold(ids, position, labels, counts, child, parent)
        return graph

    def _hold(self, ids: list[str], position: dict[str, int], labels: list[str],
              counts, child, parent) -> None:
        """Hold checked columns: ``labels`` in concept order with ``counts``
        of each concept, and the (``child``, ``parent``) position pairs of
        the is-a relation, in any order and possibly repeated; then check
        that the relation has no cycle."""
        n = len(ids)
        self.ids, self.position, self.labels = ids, position, labels
        self.label_ptr = _ptr(counts)
        # one key per edge, child * width + parent, each once; the keys
        # parent * width + child, sorted, give the children
        width = max(n, 1)
        edges = sorted_unique(np.asarray(child, dtype=np.int64) * width
                              + np.asarray(parent, dtype=np.int64))
        child_of, parent_of = np.divmod(edges, width)
        self.parent_ptr = _ptr(np.bincount(child_of, minlength=n))
        self.parent_idx = parent_of.astype(np.int32)
        parent_of, child_of = np.divmod(np.sort(parent_of * width + child_of), width)
        self.child_ptr = _ptr(np.bincount(parent_of, minlength=n))
        self.child_idx = child_of.astype(np.int32)
        # the arrays as read one list at a time: indexing a memoryview gives
        # a Python int, where numpy would build a scalar
        self._label_ptr = memoryview(self.label_ptr)
        self._parents = memoryview(self.parent_ptr), memoryview(self.parent_idx)
        self._children = memoryview(self.child_ptr), memoryview(self.child_idx)
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        # Kahn: peel concepts whose parents are all peeled.  Each concept left
        # has a parent left, so walking least parents from the least id left
        # must meet an id again; the walk from that id on is one cycle.
        waiting = np.diff(self.parent_ptr).tolist()
        ptr, children = self.child_ptr.tolist(), self.child_idx.tolist()
        ready = [i for i, n in enumerate(waiting) if not n]
        for i in ready:  # ready grows as it is walked
            for child in children[ptr[i]:ptr[i + 1]]:
                waiting[child] -= 1
                if not waiting[child]:
                    ready.append(child)
        if len(ready) == len(waiting):
            return
        position: dict[int, int] = {}
        node = next(i for i, n in enumerate(waiting) if n)
        while node not in position:
            position[node] = len(position)
            node = next(p for p in self.parents_at(node) if waiting[p])
        cycle = [self.ids[i] for i in list(position)[position[node]:] + [node]]
        raise CycleDetected("parent relation contains a cycle: " + " -> ".join(cycle),
                            cycle=cycle)

    @property
    def concepts(self) -> Mapping[str, Concept]:
        """Read-only: each id, ascending, to its ``Concept``, built when read."""
        return _Concepts(self)

    @property
    def children(self) -> Mapping[str, list[str]]:
        """Read-only: each id, ascending, to its children's ids, ascending."""
        return _Children(self)

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, concept_id: str) -> bool:
        return concept_id in self.position

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, OntologyGraph) and self.ids == other.ids
                and self.labels == other.labels
                and np.array_equal(self.label_ptr, other.label_ptr)
                and np.array_equal(self.parent_ptr, other.parent_ptr)
                and np.array_equal(self.parent_idx, other.parent_idx))

    def index(self, concept_id: str) -> int:
        """The position of ``concept_id``."""
        try:
            return self.position[concept_id]
        except KeyError:
            raise UnknownConceptId(f"unknown concept id {concept_id!r}") from None

    def labels_at(self, i: int) -> list[str]:
        ptr = self._label_ptr
        return self.labels[ptr[i]:ptr[i + 1]]

    def parents_at(self, i: int) -> list[int]:
        ptr, idx = self._parents
        return idx[ptr[i]:ptr[i + 1]].tolist()

    def children_at(self, i: int) -> list[int]:
        ptr, idx = self._children
        return idx[ptr[i]:ptr[i + 1]].tolist()

    def get(self, concept_id: str) -> Concept:
        i = self.index(concept_id)
        return Concept(self.ids[i], tuple(self.labels_at(i)),
                       frozenset(self.ids[p] for p in self.parents_at(i)))

    def parents_of(self, concept_id: str) -> frozenset[str]:
        return frozenset(self.ids[p] for p in self.parents_at(self.index(concept_id)))


def _ptr(counts: np.ndarray) -> np.ndarray:
    """CSR offsets of lists of ``counts`` entries each."""
    return np.concatenate(([0], np.cumsum(counts, dtype=np.intp)))


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)`` of a 1-D array by one sort, which is many times
    faster than ``np.unique``'s hash table on numpy 2."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def gather(ptr: np.ndarray, values: np.ndarray, rows: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray]:
    """Lists ``rows`` of the CSR array ``values`` with offsets ``ptr``, one
    after another: for each entry, the index in ``rows`` of its list, and
    its value."""
    lo = ptr[rows]
    counts = ptr[rows + 1] - lo
    which = np.repeat(np.arange(len(rows)), counts)
    starts = np.cumsum(counts) - counts  # of each list in the result
    return which, values[np.repeat(lo - starts, counts) + np.arange(len(which))]


class _Concepts(Mapping):
    __slots__ = ("_graph",)

    def __init__(self, graph: OntologyGraph):
        self._graph = graph

    def __getitem__(self, concept_id: str) -> Concept:
        if concept_id not in self._graph.position:
            raise KeyError(concept_id)
        return self._graph.get(concept_id)

    def __contains__(self, concept_id: object) -> bool:
        return concept_id in self._graph.position

    def __iter__(self) -> Iterator[str]:
        return iter(self._graph.ids)

    def __len__(self) -> int:
        return len(self._graph.ids)


class _Children(_Concepts):
    __slots__ = ()

    def __getitem__(self, concept_id: str) -> list[str]:
        graph = self._graph
        return [graph.ids[c] for c in graph.children_at(graph.position[concept_id])]


def get_siblings(graph: OntologyGraph, concept_id: str) -> set[str]:
    """All concepts sharing at least one parent with ``concept_id``, excluding it.

    In a multi-parent hierarchy the result is the union over all parents.
    """
    i = graph.index(concept_id)
    return {graph.ids[s] for p in graph.parents_at(i) for s in graph.children_at(p) if s != i}


def get_uncles(graph: OntologyGraph, concept_id: str) -> set[str]:
    """Siblings of any direct parent of ``concept_id``."""
    return {graph.ids[u] for p in graph.parents_at(graph.index(concept_id))
            for g in graph.parents_at(p) for u in graph.children_at(g) if u != p}


def relation_between(
    graph: OntologyGraph, result_id: str, truth_id: str
) -> RelationKind:
    """Classify ``result_id`` relative to ``truth_id``; highest gain wins."""
    result, truth = graph.index(result_id), graph.index(truth_id)
    if result == truth:
        return RelationKind.SAME
    ptr, idx = graph._parents  # the parents of i are idx[ptr[i]:ptr[i + 1]]
    truth_parents = idx[ptr[truth]:ptr[truth + 1]]
    if result in truth_parents:
        return RelationKind.PARENT_OF_TRUTH
    result_parents = idx[ptr[result]:ptr[result + 1]]
    if truth in result_parents:
        return RelationKind.CHILD_OF_TRUTH
    grandparents = set()
    for p in truth_parents:
        grandparents.update(idx[ptr[p]:ptr[p + 1]])
    if result in grandparents:
        return RelationKind.GRANDPARENT_OF_TRUTH
    for p in result_parents:
        if truth in idx[ptr[p]:ptr[p + 1]]:
            return RelationKind.GRANDCHILD_OF_TRUTH
    # an uncle shares a parent with a parent of the truth (itself is PARENT above)
    if not grandparents.isdisjoint(result_parents):
        return RelationKind.UNCLE_OF_TRUTH
    if not set(truth_parents).isdisjoint(result_parents):
        return RelationKind.SIBLING_OF_TRUTH
    return RelationKind.OTHER


# --- TSV loading / saving ----------------------------------------------------

def load_ontology(
    concepts_path: str | Path,
    labels_path: str | Path,
    relations_path: str | Path | None,
) -> OntologyGraph:
    """Load and validate the three-file TSV form of an ontology.

    ``relations_path`` may be None for a flat label set (e.g. the source
    side of ontology matching, where no hierarchy is needed).

    Each file is read whole and checked before the next is opened.  The
    first faulty row of a file is reported with its path and line number;
    a row with several faults gets the first of: field count, unknown or
    empty id, empty label, repeated id or label.

    Raises DuplicateConceptId, UnknownConceptId, UnknownParentId,
    CycleDetected, EmptyLabel, DuplicateLabel or MalformedLine.
    """
    (cids, preferred), lines, fault = read_table(concepts_path, 2)
    preferred = list(map(str.strip, preferred))
    ids = sorted(cids)
    position = dict(zip(ids, range(len(ids))))
    _raise_first(
        fault,
        (_find(cids, ""), lambda row: MalformedLine(
            f"{concepts_path}:{lines[row]}: empty concept id")),
        (_find(preferred, ""), lambda row: EmptyLabel(
            f"{concepts_path}:{lines[row]}: empty preferred label")),
        (_first_repeat(cids) if len(position) < len(cids) else None,
         lambda row: DuplicateConceptId(
             f"{concepts_path}:{lines[row]}: duplicate concept id {cids[row]!r}")))
    owners = list(map(position.__getitem__, cids))

    (label_cids, labels), lines, fault = read_table(labels_path, 2)
    labels = list(map(str.strip, labels))
    label_owners = list(map(position.get, label_cids, repeat(-1)))
    repeat_row = _first_repeated_pair(owners + label_owners, preferred + labels)
    _raise_first(
        fault,
        (_find(label_owners, -1), lambda row: UnknownConceptId(
            f"{labels_path}:{lines[row]}: label names unknown concept {label_cids[row]!r}")),
        (_find(labels, ""), lambda row: EmptyLabel(
            f"{labels_path}:{lines[row]}: empty label for {label_cids[row]!r}")),
        (None if repeat_row is None else repeat_row - len(owners), lambda row: DuplicateLabel(
            f"{labels_path}:{lines[row]}: duplicate label {labels[row]!r} for "
            f"{label_cids[row]!r}")))
    # each concept's labels together, in ascending id order, preferred first
    owners = np.array(owners + label_owners, dtype=np.intp)
    labels = preferred + labels
    labels = list(map(labels.__getitem__, np.argsort(owners, kind="stable").tolist()))
    counts = np.bincount(owners, minlength=len(ids))

    child: list[int] = []
    parent: list[int] = []
    if relations_path is not None:
        (children, parents), lines, fault = read_table(relations_path, 2)
        child = list(map(position.get, children, repeat(-1)))
        parent = list(map(position.get, parents, repeat(-1)))
        _raise_first(
            fault,
            (_find(child, -1), lambda row: UnknownConceptId(
                f"{relations_path}:{lines[row]}: relation names unknown child "
                f"{children[row]!r}")),
            (_find(parent, -1), lambda row: UnknownParentId(
                f"{relations_path}:{lines[row]}: relation names unknown parent "
                f"{parents[row]!r}")))
    return OntologyGraph._of_columns(ids, position, labels, counts, child, parent)


def _raise_first(fault: MalformedLine | None,
                 *checks: tuple[int | None, Callable[[int], Exception]]) -> None:
    """Raise the fault of the first row that fails one of ``checks``, each
    given as its first failing row and its fault, and at a tie the check
    given first; else ``read_table``'s ``fault``, which follows every row.
    What a check finds after the first faulty row does not matter: that
    row wins."""
    failed = [(row, k) for k, (row, _) in enumerate(checks) if row is not None]
    if failed:
        row, k = min(failed)
        raise checks[k][1](row)
    if fault is not None:
        raise fault


def _find(column: list, value) -> int | None:
    """The first row that holds ``value``, or None."""
    return column.index(value) if value in column else None


def _first_repeat(values: list) -> int | None:
    """The first index whose value occurs before it, or None."""
    seen = set()
    for i, value in enumerate(values):
        if value in seen:
            return i
        seen.add(value)


def _first_repeated_pair(owners: list[int], labels: list[str]) -> int | None:
    """``_first_repeat`` of the (owner, label) pairs, which it builds only
    when two pairs share a hash of both."""
    keys = np.fromiter(map(hash, labels), np.int64, len(labels))
    # the owner spread over 64 bits by the golden-ratio constant, as an int64
    keys ^= np.asarray(owners, dtype=np.int64) * -0x61C8864680B583EB
    keys.sort()
    if not (keys[1:] == keys[:-1]).any():
        return None
    return _first_repeat(list(zip(owners, labels)))


def save_ontology(
    graph: OntologyGraph,
    concepts_path: str | Path,
    labels_path: str | Path,
    relations_path: str | Path,
) -> None:
    """Write the three-file TSV form in the graph's concept order, so
    output is canonical."""
    ids, labels, ptr = graph.ids, graph.labels, graph.label_ptr.tolist()
    parent_ptr, parents = graph.parent_ptr.tolist(), graph.parent_idx.tolist()
    with writing(concepts_path) as fh:
        fh.write("".join(f"{cid}\t{labels[lo]}\n" for cid, lo in zip(ids, ptr)))
    with writing(labels_path) as fh:
        fh.write("".join(f"{cid}\t{label}\n" for cid, lo, hi in zip(ids, ptr, ptr[1:])
                         for label in labels[lo + 1:hi]))
    with writing(relations_path) as fh:
        fh.write("".join(f"{cid}\t{ids[p]}\n"
                         for cid, lo, hi in zip(ids, parent_ptr, parent_ptr[1:])
                         for p in parents[lo:hi]))
