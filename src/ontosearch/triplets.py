"""Training-triplet generation from an ontology hierarchy, plus the
train/dev/test split.

For every concept, every ordered pair of distinct labels (l1, l2) yields up
to three entries: one random direct-parent label p and one random
sibling-or-uncle label o are drawn for the pair, then

    (anchor=l1, positive=l2, negative=p)
    (anchor=l1, positive=l2, negative=o)
    (anchor=l1, positive=p,  negative=o)

An entry whose required pool is empty is skipped individually.  Concepts are
visited in the graph's ascending id order and label pairs in label-sequence
order, and a pool draw consumes generator output only when that pool is
non-empty, so the whole dataset is a pure function of (graph, seed).
"""

from __future__ import annotations

import json
import math
from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import MalformedLine, UsageError
from .npzio import read_lines, writing
from .ontology import OntologyGraph, gather, sorted_unique
from .rng import SplitMix64


@dataclass(frozen=True)
class TripletExample:
    anchor: str
    positive: str
    negative: str


class TripletEntries(Sequence):
    """Read-only view of a dataset's rows as ``TripletExample``s, each built
    when it is read.  It compares equal to a list of the same entries, and
    ``+`` and slicing give lists."""

    __slots__ = ("_labels", "_rows")
    __hash__ = None

    def __init__(self, labels: Sequence[str], rows: np.ndarray):
        self._labels, self._rows = labels, rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(TripletEntries(self._labels, self._rows[i]))
        a, p, n = self._rows[i].tolist()
        return TripletExample(self._labels[a], self._labels[p], self._labels[n])

    def __iter__(self):
        labels = self._labels
        return (TripletExample(labels[a], labels[p], labels[n])
                for a, p, n in self._rows.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, TripletEntries)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __add__(self, other) -> list[TripletExample]:
        return [*self, *other]

    def __radd__(self, other) -> list[TripletExample]:
        return [*other, *self]

    def __repr__(self) -> str:
        return f"TripletEntries({list(self)!r})"


def _indexed(triples: Iterable[Sequence[str]]) -> tuple[list[str], np.ndarray]:
    """The sorted label pool of ``triples`` and their ``(N, 3)`` rows of
    indices into it."""
    triples = list(triples)
    labels = sorted({text for triple in triples for text in triple})
    index = {label: i for i, label in enumerate(labels)}
    rows = np.array([[index[text] for text in triple] for triple in triples], dtype=np.int32)
    return labels, rows.reshape(-1, 3)


class TripletDataset:
    """Ordered triplet entries plus the seed they were sampled with.

    An entry is a row of an ``(N, 3)`` int32 array, ``rows``, of indices
    into ``labels``, the sorted label pool; ``entries`` reads the rows as
    ``TripletExample``s.  ``TripletDataset(entries, seed)`` builds the
    rows from any iterable of ``TripletExample``s.
    """

    __slots__ = ("labels", "rows", "seed")

    def __init__(self, entries: Iterable[TripletExample], seed: int):
        self.labels, self.rows = _indexed(
            (e.anchor, e.positive, e.negative) for e in entries)
        self.seed = seed

    @classmethod
    def _of_rows(cls, labels: Sequence[str], rows: np.ndarray, seed: int) -> TripletDataset:
        dataset = cls.__new__(cls)
        dataset.labels, dataset.rows, dataset.seed = labels, rows, seed
        return dataset

    @property
    def entries(self) -> TripletEntries:
        return TripletEntries(self.labels, self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.entries)


@dataclass(frozen=True)
class SplitRatios:
    train: float = 0.90
    dev: float = 0.05
    test: float = 0.05

    def __post_init__(self):
        for name, value in (("train", self.train), ("dev", self.dev), ("test", self.test)):
            if not 0.0 <= value <= 1.0:
                raise UsageError(f"{name} ratio {value} outside [0, 1]")
        if abs(self.train + self.dev + self.test - 1.0) > 1e-9:
            raise UsageError("split ratios must sum to 1.0")


def generate_triplets(
    graph: OntologyGraph,
    seed: int,
    single_label_fallback: bool = False,
    dedup: bool = False,
) -> TripletDataset:
    """Emit (anchor, positive, negative) entries for every concept of ``graph``.

    With ``single_label_fallback`` a one-label concept still contributes
    (label, parent-label, other-label) when both pools are non-empty.  With
    ``dedup`` exact duplicate entries are dropped, keeping first occurrences.

    The rows index the sorted pool of every label of ``graph``, so a
    concept's pool, its labels' indices in ascending order, is also sorted
    by code point.  Pass 1 plans each concept's label pairs and pools; the
    concepts, pairs and pool sizes fix every bound in advance, so all draws
    are made in one call and pass 2 fills the rows in numpy.
    """
    labels = sorted(set(graph.labels))
    index = dict(zip(labels, range(len(labels))))
    label_ids = np.fromiter(map(index.__getitem__, graph.labels), np.int64, len(graph.labels))

    # pass 1, per concept: its parent pool and its other pool (the labels of
    # its siblings and uncles), from gathers over the graph's lists
    n_labels = np.diff(graph.label_ptr)
    concepts = np.flatnonzero(n_labels > (0 if single_label_fallback else 1))
    at, parent = gather(graph.parent_ptr, graph.parent_idx, concepts)
    child = concepts[at]  # edge e runs from child[e] to parent[e]
    sibling_edge, sibling = gather(graph.child_ptr, graph.child_idx, parent)
    is_sibling = sibling != child[sibling_edge]  # no concept is its own sibling
    via, grandparent = gather(graph.parent_ptr, graph.parent_idx, parent)
    at, uncle = gather(graph.child_ptr, graph.child_idx, grandparent)
    uncle_edge = via[at]
    is_uncle = uncle != parent[uncle_edge]  # an uncle is a sibling of the parent
    # concept c's parent pool is pool 2c, its other pool 2c + 1: one key per
    # (pool, label id), each once, in pool order and ascending within a pool
    pool = np.concatenate([2 * child, 2 * child[sibling_edge[is_sibling]] + 1,
                           2 * child[uncle_edge[is_uncle]] + 1])
    which, label = gather(graph.label_ptr, label_ids,
                          np.concatenate([parent, sibling[is_sibling], uncle[is_uncle]]))
    pool_of, pools = np.divmod(sorted_unique(pool[which] * len(labels) + label),
                               max(len(labels), 1))
    n_parent, n_other = np.bincount(pool_of, minlength=2 * len(graph)).reshape(-1, 2)[concepts].T

    n = n_labels[concepts]
    has_parent, has_other = n_parent > 0, n_other > 0
    pairs = np.where(n > 1, n * (n - 1) * (has_parent | has_other), has_parent & has_other)
    planned = pairs > 0
    n, pairs, n_parent, n_other = n[planned], pairs[planned], n_parent[planned], n_other[planned]
    # of each planned concept in order: its labels, and its two pools
    concept_labels = gather(graph.label_ptr, label_ids, concepts[planned])[1].astype(np.int32)
    is_planned = np.zeros(len(graph), dtype=bool)
    is_planned[concepts[planned]] = True
    # a -1 ends the pools, so an empty pool at the end still starts in range
    pools = np.append(pools[is_planned[pool_of // 2]], -1).astype(np.int32)
    size = n_parent + n_other
    plan = np.stack([np.cumsum(n) - n, n, pairs, np.cumsum(size) - size, n_parent, n_other],
                    axis=1)

    # pass 2, per label pair
    label_at, n, _, parent_at, n_parent, n_other = np.repeat(plan, plan[:, 2], axis=0).T
    # the k-th pair of an n-label concept is (i, j) with i = k // (n - 1) and
    # j the (k % (n - 1))-th index other than i; a one-label concept's is (0, 0)
    k = np.arange(len(n)) - np.repeat(np.cumsum(plan[:, 2]) - plan[:, 2], plan[:, 2])
    m = np.maximum(n - 1, 1)
    i, j = k // m, k % m
    j = np.where(n > 1, j + (j >= i), i)
    anchor, positive = concept_labels[label_at + i], concept_labels[label_at + j]

    # a pair draws a parent, then an other, from whichever of its pools are non-empty
    bounds = np.stack([n_parent, n_other], axis=1)
    drawn = bounds > 0
    draws = np.zeros(bounds.shape, dtype=np.int64)
    draws[drawn] = SplitMix64(seed).randrange_array(bounds[drawn])
    parent = pools[parent_at + draws[:, 0]]
    other = pools[parent_at + n_parent + draws[:, 1]]

    has_parent, has_other, several = drawn[:, 0], drawn[:, 1], n > 1
    candidates = np.stack([
        np.stack([anchor, positive, parent], axis=1),
        np.stack([anchor, positive, other], axis=1),
        np.stack([anchor, parent, other], axis=1),
    ], axis=1)
    emitted = np.stack([has_parent & several, has_other & several, has_parent & has_other],
                       axis=1)
    rows = candidates[emitted]

    if dedup and len(rows):
        first = np.unique(rows, axis=0, return_index=True)[1]
        rows = rows[np.sort(first)]
    return TripletDataset._of_rows(labels, rows, seed)


def split_dataset(
    dataset: TripletDataset,
    ratios: SplitRatios = SplitRatios(),
    seed: int = 0,
) -> tuple[TripletDataset, TripletDataset, TripletDataset]:
    """Shuffle with ``seed`` and partition: dev and test get floor(N*ratio)
    entries each (taken from the shuffled tail), train keeps the remainder."""
    n = len(dataset)
    order = array("q", range(n))  # 8 B an entry, and numpy indexes by it in place
    SplitMix64(seed).shuffle(order)
    shuffled = dataset.rows[order]
    n_dev = math.floor(n * ratios.dev)
    n_test = math.floor(n * ratios.test)
    n_train = n - n_dev - n_test
    return tuple(
        TripletDataset._of_rows(dataset.labels, part, seed)
        for part in (shuffled[:n_train], shuffled[n_train:n_train + n_dev],
                     shuffled[n_train + n_dev:])
    )


# --- TSV round trip ----------------------------------------------------------

def write_triplets(path: str | Path, dataset: TripletDataset) -> None:
    labels = dataset.labels
    with writing(path) as fh:
        fh.write("".join(f"{labels[a]}\t{labels[p]}\t{labels[n]}\n"
                         for a, p, n in dataset.rows.tolist()))


def read_triplets(path: str | Path) -> TripletDataset:
    """A file does not record the seed it was sampled with; it reads as 0."""
    triples = []
    path = Path(path)
    for lineno, line in read_lines(path):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise MalformedLine(f"{path}:{lineno}: expected 3 tab-separated fields")
        triples.append(parts)
    return TripletDataset._of_rows(*_indexed(triples), seed=0)


def write_split(
    out_dir: str | Path,
    train: TripletDataset,
    dev: TripletDataset,
    test: TripletDataset,
    seed: int,
    ratios: SplitRatios,
    single_label_fallback: bool = False,
    dedup: bool = False,
) -> None:
    """Write train/dev/test TSVs and a manifest.json describing the run."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_triplets(out / "train.tsv", train)
    write_triplets(out / "dev.tsv", dev)
    write_triplets(out / "test.tsv", test)
    manifest = {
        "seed": seed,
        "ratios": {"train": ratios.train, "dev": ratios.dev, "test": ratios.test},
        "counts": {
            "total": len(train) + len(dev) + len(test),
            "train": len(train),
            "dev": len(dev),
            "test": len(test),
        },
        "single_label_fallback": single_label_fallback,
        "dedup": dedup,
    }
    with writing(out / "manifest.json") as fh:
        fh.write(json.dumps(manifest, indent=2) + "\n")
