"""``load_ontology`` against a reference loader: the earlier one, which read
each TSV line by line, built a ``Concept`` per concept and a dict-based
graph, and checked each concept twice.  The loader must read the same
graph from any input, or refuse it with the same error class and message.

One difference is declared: a file that is not UTF-8 is refused before any
of its lines is checked, where the reference, decoding as it read, could
first report a fault on an earlier line.
"""

from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ontosearch.errors import (
    CycleDetected,
    DuplicateConceptId,
    DuplicateLabel,
    EmptyLabel,
    MalformedLine,
    OntoSearchError,
    UnknownConceptId,
    UnknownParentId,
)
from ontosearch.ontology import Concept, OntologyGraph, load_ontology

# --- the reference ---------------------------------------------------------------


def reference_rows(path, columns):
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line or line.startswith("#"):
                    continue
                fields = line.split("\t")
                if len(fields) != columns:
                    raise MalformedLine(f"{path}:{lineno}: expected {columns} tab-separated "
                                        f"fields, got {len(fields)}")
                yield lineno, fields
    except UnicodeDecodeError as exc:
        raise MalformedLine(f"{path}: not UTF-8 text ({exc.reason})") from None


class ReferenceGraph:
    def __init__(self, concepts):
        self.concepts = {}
        for concept in concepts:
            if concept.id in self.concepts:
                raise DuplicateConceptId(f"duplicate concept id {concept.id!r}")
            self.concepts[concept.id] = concept
        self.concepts = dict(sorted(self.concepts.items()))
        self.children = {cid: [] for cid in self.concepts}
        for concept in self.concepts.values():
            for pid in concept.parent_ids:
                if pid not in self.concepts:
                    raise UnknownParentId(f"concept {concept.id!r} names unknown parent {pid!r}")
                self.children[pid].append(concept.id)
        waiting = {cid: len(c.parent_ids) for cid, c in self.concepts.items()}
        ready = [cid for cid, n in waiting.items() if not n]
        for cid in ready:
            del waiting[cid]
            for child in self.children[cid]:
                waiting[child] -= 1
                if not waiting[child]:
                    ready.append(child)
        if waiting:
            position = {}
            node = min(waiting)
            while node not in position:
                position[node] = len(position)
                node = min(p for p in self.concepts[node].parent_ids if p in waiting)
            cycle = list(position)[position[node]:] + [node]
            raise CycleDetected("parent relation contains a cycle: " + " -> ".join(cycle),
                                cycle=cycle)


def reference_load(concepts_path, labels_path, relations_path):
    labels = {}
    for lineno, (cid, preferred) in reference_rows(concepts_path, 2):
        preferred = preferred.strip()
        if not cid:
            raise MalformedLine(f"{concepts_path}:{lineno}: empty concept id")
        if not preferred:
            raise EmptyLabel(f"{concepts_path}:{lineno}: empty preferred label")
        if cid in labels:
            raise DuplicateConceptId(f"{concepts_path}:{lineno}: duplicate concept id {cid!r}")
        labels[cid] = [preferred]
    for lineno, (cid, label) in reference_rows(labels_path, 2):
        label = label.strip()
        if cid not in labels:
            raise UnknownConceptId(f"{labels_path}:{lineno}: label names unknown concept {cid!r}")
        if not label:
            raise EmptyLabel(f"{labels_path}:{lineno}: empty label for {cid!r}")
        if label in labels[cid]:
            raise DuplicateLabel(f"{labels_path}:{lineno}: duplicate label {label!r} for {cid!r}")
        labels[cid].append(label)
    parents = {cid: set() for cid in labels}
    for lineno, (child, parent) in (
        reference_rows(relations_path, 2) if relations_path is not None else ()
    ):
        if child not in labels:
            raise UnknownConceptId(
                f"{relations_path}:{lineno}: relation names unknown child {child!r}")
        if parent not in labels:
            raise UnknownParentId(
                f"{relations_path}:{lineno}: relation names unknown parent {parent!r}")
        parents[child].add(parent)
    return ReferenceGraph(
        Concept(id=cid, labels=tuple(labels[cid]), parent_ids=frozenset(parents[cid]))
        for cid in labels
    )


# --- inputs ------------------------------------------------------------------------

# ids are not stripped, so " a" and "a" differ; U+0085 and U+2028 are line
# breaks to str.splitlines, but not to a text-mode file
IDS = ["a", "b", "c", "d", "e", "A", " a", "a b", "é", "x\u0085y", "p q", "r\x0cs"]
LABELS = ["pain", "Pain", " pain ", "\u0085pain", "pa in", "fatigue", "tired\u0085",
          "muscle weakness", "weakness", " lassitude", "x\x1cy", "asthenia"]
BAD_LABELS = ["", "  ", "\u0085", "\u2028 "]
# lines that are no row, and lines that are a faulty row or none of two fields
SKIPPED_LINES = ["", "#", "# a\tb", "#a"]
FAULTY_LINES = ["a", "a\tb\tc", "\t", "\t\t", " # a\tb", " "]
LINE_ENDS = ["\n", "\r\n", "\r"]


def rare(strategy, common):
    """``strategy`` now and then, else ``common``."""
    return st.integers(0, 15).flatmap(lambda k: strategy if k == 15 else common)


@st.composite
def tsv(draw, rows):
    """TSV text of ``rows`` with skipped lines and perhaps a faulty line put
    in, each line with its own line end, and the last perhaps with none."""
    lines = ["\t".join(row) for row in rows]
    odd = draw(st.lists(rare(st.sampled_from(FAULTY_LINES), st.sampled_from(SKIPPED_LINES)),
                        max_size=2))
    for line in odd:
        lines.insert(draw(st.integers(0, len(lines))), line)
    ends = [draw(st.sampled_from(LINE_ENDS)) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text[:-len(ends[-1])]
    return text


@st.composite
def ontology_texts(draw):
    """(concepts, labels, relations) texts: mostly valid rows over a few
    ids, with every fault kind put in at random lines."""
    ids = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=6, unique=True))
    known = st.sampled_from(ids)
    label = rare(st.sampled_from(BAD_LABELS), st.sampled_from(LABELS))
    concept_rows = [[cid, draw(label)] for cid in ids]
    if draw(st.integers(0, 7)) == 7:  # a repeated or empty id
        concept_rows.insert(draw(st.integers(0, len(concept_rows))),
                            [draw(st.sampled_from([*ids, ""])), draw(label)])
    label_rows = draw(st.lists(st.tuples(rare(st.just("zz"), known), label), max_size=6))
    # edges mostly from a later id to an earlier one, so most graphs load;
    # self-loops, back edges (cycles), unknown ids and repeats besides
    index = st.integers(0, len(ids) - 1)
    edges = draw(st.lists(st.tuples(index, index, st.integers(0, 3).map(bool)), max_size=8))
    relation_rows = [[ids[max(i, j)], ids[min(i, j)]] if forward else [ids[i], ids[j]]
                     for i, j, forward in edges if i != j or not forward]
    if draw(st.integers(0, 7)) == 7:
        relation_rows.insert(draw(st.integers(0, len(relation_rows))),
                             draw(st.permutations([draw(known), "zz"])))
    if relation_rows and draw(st.booleans()):
        relation_rows.append(draw(st.sampled_from(relation_rows)))
    return (draw(tsv(concept_rows)), draw(tsv(label_rows)), draw(tsv(relation_rows)))


def write(tmp, texts):
    paths = [tmp / name for name in ("concepts.tsv", "labels.tsv", "relations.tsv")]
    for path, text in zip(paths, texts):
        path.write_bytes(text.encode("utf-8"))
    return paths


def outcome(load, paths):
    """The graph as plain data, or the error class, message and cycle."""
    try:
        graph = load(*paths)
    except OntoSearchError as exc:
        return type(exc), exc.message, getattr(exc, "cycle", None)
    return ([(cid, c.labels, sorted(c.parent_ids)) for cid, c in graph.concepts.items()],
            [(pid, list(children)) for pid, children in graph.children.items()])


@settings(max_examples=400, deadline=None)
@given(ontology_texts(), st.booleans())
@example(("a\tpain\r\nb\tx\u0085y\n", "a\t pain\r\n", "b\ta\rb\ta\n"), True)
@example(("b\tb\n#\ta\na\ta\n", "a\tp q\n", "a\tb\nb\ta\n"), True)
@example(("a\tx\n\nb\ty\tz\n", "a\t\n", ""), True)
def test_loader_equals_reference(tmp_path_factory, texts, hierarchy):
    paths = write(tmp_path_factory.mktemp("ontology"), texts)
    if not hierarchy:
        paths[2] = None
    expected = outcome(reference_load, paths)
    assert outcome(load_ontology, paths) == expected


@st.composite
def concept_lists(draw):
    """Concepts given in code, in any order: a repeated id, a parent no
    concept has (always ``zz``) and cycles among them."""
    ids = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=6))
    return [Concept(id=cid, labels=tuple(draw(st.lists(st.sampled_from(LABELS[:6]), min_size=1,
                                                        max_size=3, unique=True))),
                    parent_ids=frozenset(draw(st.lists(st.sampled_from([*ids, "zz"]),
                                                       max_size=2))))
            for cid in ids]


@settings(max_examples=200, deadline=None)
@given(concept_lists())
def test_graph_in_code_equals_reference(concepts):
    expected = outcome(lambda: ReferenceGraph(concepts), [])
    assert outcome(lambda: OntologyGraph(concepts), []) == expected


def test_a_file_that_is_not_utf8_is_refused_before_its_lines(tmp_path):
    """The declared difference: a fault at line 1 of a file whose bytes go
    wrong farther on is reported by the reference, which decodes 8 KiB at
    a time, but the whole file is decoded before any line is read."""
    concepts, labels, relations = write(tmp_path, ("a\tpain\n", "", ""))
    labels.write_bytes(b"zz\tpain\n" + b"a\tx\n" * 4096 + b"a\t\xff\n")
    with pytest.raises(UnknownConceptId, match=r"labels\.tsv:1: label names unknown concept"):
        reference_load(concepts, labels, relations)
    with pytest.raises(MalformedLine, match=r"labels\.tsv: not UTF-8 text \(invalid start byte\)"):
        load_ontology(concepts, labels, relations)
