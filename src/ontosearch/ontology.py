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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .errors import (
    CycleDetected,
    DuplicateConceptId,
    DuplicateLabel,
    EmptyLabel,
    MalformedLine,
    UnknownConceptId,
    UnknownParentId,
)
from .npzio import read_rows, writing


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
    """Validated concept DAG with a derived parent->children map."""

    def __init__(self, concepts: Iterable[Concept]):
        self.concepts: dict[str, Concept] = {}
        for concept in concepts:
            if concept.id in self.concepts:
                raise DuplicateConceptId(f"duplicate concept id {concept.id!r}")
            self.concepts[concept.id] = concept
        self.children: dict[str, set[str]] = {cid: set() for cid in self.concepts}
        for concept in self.concepts.values():
            for pid in concept.parent_ids:
                if pid not in self.concepts:
                    raise UnknownParentId(
                        f"concept {concept.id!r} names unknown parent {pid!r}"
                    )
                self.children[pid].add(concept.id)
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        # Kahn: peel concepts whose parents are all peeled.  Each concept left
        # has a parent left, so walking least parents from the least id left
        # must meet an id again; the walk from that id on is one cycle.
        waiting = {cid: len(c.parent_ids) for cid, c in self.concepts.items()}
        ready = [cid for cid, n in waiting.items() if not n]
        for cid in ready:  # ready grows as it is walked
            del waiting[cid]
            for child in self.children[cid]:
                waiting[child] -= 1
                if not waiting[child]:
                    ready.append(child)
        if not waiting:
            return
        position: dict[str, int] = {}
        node = min(waiting)
        while node not in position:
            position[node] = len(position)
            node = min(p for p in self.concepts[node].parent_ids if p in waiting)
        cycle = list(position)[position[node]:] + [node]
        raise CycleDetected("parent relation contains a cycle: " + " -> ".join(cycle),
                            cycle=cycle)

    def __len__(self) -> int:
        return len(self.concepts)

    def __contains__(self, concept_id: str) -> bool:
        return concept_id in self.concepts

    def __eq__(self, other: object) -> bool:
        return isinstance(other, OntologyGraph) and self.concepts == other.concepts

    def get(self, concept_id: str) -> Concept:
        try:
            return self.concepts[concept_id]
        except KeyError:
            raise UnknownConceptId(f"unknown concept id {concept_id!r}") from None

    def parents_of(self, concept_id: str) -> frozenset[str]:
        return self.get(concept_id).parent_ids

    def sorted_ids(self) -> list[str]:
        return sorted(self.concepts)


def get_siblings(graph: OntologyGraph, concept_id: str) -> set[str]:
    """All concepts sharing at least one parent with ``concept_id``, excluding it.

    In a multi-parent hierarchy the result is the union over all parents.
    """
    siblings: set[str] = set()
    for pid in graph.parents_of(concept_id):
        siblings.update(graph.children[pid])
    siblings.discard(concept_id)
    return siblings


def get_uncles(graph: OntologyGraph, concept_id: str) -> set[str]:
    """Siblings of any direct parent of ``concept_id``."""
    uncles: set[str] = set()
    for pid in graph.parents_of(concept_id):
        uncles.update(get_siblings(graph, pid))
    return uncles


def relation_between(
    graph: OntologyGraph, result_id: str, truth_id: str
) -> RelationKind:
    """Classify ``result_id`` relative to ``truth_id``; highest gain wins."""
    result = graph.get(result_id)
    truth = graph.get(truth_id)
    if result_id == truth_id:
        return RelationKind.SAME
    if result_id in truth.parent_ids:
        return RelationKind.PARENT_OF_TRUTH
    if truth_id in result.parent_ids:
        return RelationKind.CHILD_OF_TRUTH
    grandparent_sets = [graph.concepts[pid].parent_ids for pid in truth.parent_ids]
    if any(result_id in grandparents for grandparents in grandparent_sets):
        return RelationKind.GRANDPARENT_OF_TRUTH
    if any(truth_id in graph.concepts[pid].parent_ids for pid in result.parent_ids):
        return RelationKind.GRANDCHILD_OF_TRUTH
    # an uncle shares a parent with a parent of the truth (itself is PARENT above)
    if any(not result.parent_ids.isdisjoint(grandparents) for grandparents in grandparent_sets):
        return RelationKind.UNCLE_OF_TRUTH
    if not result.parent_ids.isdisjoint(truth.parent_ids):
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

    Raises DuplicateConceptId, UnknownConceptId, UnknownParentId,
    CycleDetected, EmptyLabel, DuplicateLabel or MalformedLine.
    """
    labels: dict[str, list[str]] = {}  # in concepts.tsv order
    for lineno, (cid, preferred) in read_rows(concepts_path, 2):
        preferred = preferred.strip()
        if not cid:
            raise MalformedLine(f"{concepts_path}:{lineno}: empty concept id")
        if not preferred:
            raise EmptyLabel(f"{concepts_path}:{lineno}: empty preferred label")
        if cid in labels:
            raise DuplicateConceptId(f"{concepts_path}:{lineno}: duplicate concept id {cid!r}")
        labels[cid] = [preferred]

    for lineno, (cid, label) in read_rows(labels_path, 2):
        label = label.strip()
        if cid not in labels:
            raise UnknownConceptId(
                f"{labels_path}:{lineno}: label names unknown concept {cid!r}"
            )
        if not label:
            raise EmptyLabel(f"{labels_path}:{lineno}: empty label for {cid!r}")
        if label in labels[cid]:
            raise DuplicateLabel(
                f"{labels_path}:{lineno}: duplicate label {label!r} for {cid!r}"
            )
        labels[cid].append(label)

    parents: dict[str, set[str]] = {cid: set() for cid in labels}
    for lineno, (child, parent) in (
        read_rows(relations_path, 2) if relations_path is not None else ()
    ):
        if child not in labels:
            raise UnknownConceptId(
                f"{relations_path}:{lineno}: relation names unknown child {child!r}"
            )
        if parent not in labels:
            raise UnknownParentId(
                f"{relations_path}:{lineno}: relation names unknown parent {parent!r}"
            )
        parents[child].add(parent)

    return OntologyGraph(
        Concept(id=cid, labels=tuple(labels[cid]), parent_ids=frozenset(parents[cid]))
        for cid in labels
    )


def save_ontology(
    graph: OntologyGraph,
    concepts_path: str | Path,
    labels_path: str | Path,
    relations_path: str | Path,
) -> None:
    """Write the three-file TSV form; rows sorted so output is canonical."""
    ids = graph.sorted_ids()
    with writing(concepts_path) as fh:
        for cid in ids:
            fh.write(f"{cid}\t{graph.concepts[cid].preferred_label}\n")
    with writing(labels_path) as fh:
        for cid in ids:
            for label in graph.concepts[cid].labels[1:]:
                fh.write(f"{cid}\t{label}\n")
    with writing(relations_path) as fh:
        for cid in ids:
            for pid in sorted(graph.concepts[cid].parent_ids):
                fh.write(f"{cid}\t{pid}\n")
