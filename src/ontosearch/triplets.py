"""Training-triplet generation from an ontology hierarchy, plus the
train/dev/test split.

For every concept, every ordered pair of distinct labels (l1, l2) yields up
to three entries: one random direct-parent label p and one random
sibling-or-uncle label o are drawn for the pair, then

    (anchor=l1, positive=l2, negative=p)
    (anchor=l1, positive=l2, negative=o)
    (anchor=l1, positive=p,  negative=o)

An entry whose required pool is empty is skipped individually.  Concepts are
visited in ascending id order and label pairs in label-sequence order, and
a pool draw consumes generator output only when that pool is non-empty, so
the whole dataset is a pure function of (graph, seed).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import MalformedLine
from .npzio import read_lines
from .ontology import OntologyGraph, get_siblings, get_uncles
from .rng import SplitMix64


@dataclass(frozen=True)
class TripletExample:
    anchor: str
    positive: str
    negative: str


@dataclass
class TripletDataset:
    """Ordered triplet entries plus the seed they were sampled with."""

    entries: list[TripletExample]
    seed: int

    def __len__(self) -> int:
        return len(self.entries)

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
                raise ValueError(f"{name} ratio {value} outside [0, 1]")
        if abs(self.train + self.dev + self.test - 1.0) > 1e-9:
            raise ValueError("split ratios must sum to 1.0")


def _label_pool(graph: OntologyGraph, concept_ids) -> list[str]:
    # Distinct label strings, sorted by code point: the "sorted pool" that
    # uniform draws index into.
    pool = {label for cid in concept_ids for label in graph.concepts[cid].labels}
    return sorted(pool)


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
    """
    rng = SplitMix64(seed)
    entries: list[TripletExample] = []
    for cid in graph.sorted_ids():
        concept = graph.concepts[cid]
        parent_pool = _label_pool(graph, sorted(concept.parent_ids))
        others = get_siblings(graph, cid) | get_uncles(graph, cid)
        other_pool = _label_pool(graph, sorted(others))

        labels = concept.labels
        if len(labels) == 1:
            if single_label_fallback and parent_pool and other_pool:
                p = rng.choice(parent_pool)
                o = rng.choice(other_pool)
                entries.append(TripletExample(labels[0], p, o))
            continue
        for i, anchor in enumerate(labels):
            for j, positive in enumerate(labels):
                if i == j:
                    continue
                p = rng.choice(parent_pool) if parent_pool else None
                o = rng.choice(other_pool) if other_pool else None
                if p is not None:
                    entries.append(TripletExample(anchor, positive, p))
                if o is not None:
                    entries.append(TripletExample(anchor, positive, o))
                if p is not None and o is not None:
                    entries.append(TripletExample(anchor, p, o))

    if dedup:
        seen: set[TripletExample] = set()
        unique: list[TripletExample] = []
        for entry in entries:
            if entry not in seen:
                seen.add(entry)
                unique.append(entry)
        entries = unique
    return TripletDataset(entries=entries, seed=seed)


def split_dataset(
    dataset: TripletDataset,
    ratios: SplitRatios = SplitRatios(),
    seed: int = 0,
) -> tuple[TripletDataset, TripletDataset, TripletDataset]:
    """Shuffle with ``seed`` and partition: dev and test get floor(N*ratio)
    entries each (taken from the shuffled tail), train keeps the remainder."""
    shuffled = list(dataset.entries)
    SplitMix64(seed).shuffle(shuffled)
    n = len(shuffled)
    n_dev = math.floor(n * ratios.dev)
    n_test = math.floor(n * ratios.test)
    n_train = n - n_dev - n_test
    return (
        TripletDataset(shuffled[:n_train], seed),
        TripletDataset(shuffled[n_train:n_train + n_dev], seed),
        TripletDataset(shuffled[n_train + n_dev:], seed),
    )


# --- TSV round trip ----------------------------------------------------------

def write_triplets(path: str | Path, dataset: TripletDataset) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for entry in dataset.entries:
            fh.write(f"{entry.anchor}\t{entry.positive}\t{entry.negative}\n")


def read_triplets(path: str | Path) -> TripletDataset:
    """A file does not record the seed it was sampled with; it reads as 0."""
    entries = []
    path = Path(path)
    for lineno, line in read_lines(path):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise MalformedLine(f"{path}:{lineno}: expected 3 tab-separated fields")
        entries.append(TripletExample(*parts))
    return TripletDataset(entries=entries, seed=0)


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
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
