import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from synthdata import synthetic_ontology
from test_ontology import random_dags

from ontosearch import triplets
from ontosearch.ontology import Concept, OntologyGraph, get_siblings, get_uncles
from ontosearch.rng import SplitMix64
from ontosearch.triplets import (
    SplitRatios,
    TripletDataset,
    TripletExample,
    generate_triplets,
    read_triplets,
    split_dataset,
    write_split,
    write_triplets,
)


def graph_of(*specs):
    return OntologyGraph(
        Concept(id=c, labels=tuple(ls), parent_ids=frozenset(ps))
        for c, ls, ps in specs
    )


class TestGenerate:
    def test_asthenia_worked_example(self, asthenia_graph):
        # seed 2's first two bounded draws over two-element pools are both 0,
        # picking "Fatigue" from [Fatigue, Weariness] and "Exhaustion" from
        # [Exhaustion, Feeling tired] for the first ordered label pair.
        ds = generate_triplets(asthenia_graph, seed=2)
        assert [
            (e.anchor, e.positive, e.negative) for e in ds.entries[:3]
        ] == [
            ("Asthenia", "Lassitude", "Fatigue"),
            ("Asthenia", "Lassitude", "Exhaustion"),
            ("Asthenia", "Fatigue", "Exhaustion"),
        ]
        # two two-label concepts with full pools: 6 entries each
        assert len(ds) == 12

    def test_count_is_3n_times_n_minus_1(self):
        # one parent, one sibling, so both pools are non-empty
        labels = [f"label {i}" for i in range(4)]
        graph = graph_of(
            ("p", ["parent label"], []),
            ("c", labels, ["p"]),
            ("s", ["sibling label"], ["p"]),
        )
        ds = generate_triplets(graph, seed=0)
        n = 4
        per_concept = 3 * n * (n - 1)
        assert sum(1 for e in ds if e.anchor in labels) == per_concept

    def test_single_label_no_fallback_emits_nothing(self):
        graph = graph_of(
            ("p", ["parent label"], []),
            ("c", ["only label"], ["p"]),
            ("s", ["sibling label"], ["p"]),
        )
        ds = generate_triplets(graph, seed=0, single_label_fallback=False)
        assert all(e.anchor != "only label" for e in ds)

    def test_single_label_fallback_emits_one(self):
        graph = graph_of(
            ("p", ["parent label"], []),
            ("c", ["only label"], ["p"]),
            ("s", ["sibling label"], ["p"]),
        )
        ds = generate_triplets(graph, seed=0, single_label_fallback=True)
        ours = [e for e in ds if e.anchor == "only label"]
        assert ours == [TripletExample("only label", "parent label", "sibling label")]

    def test_root_without_parents_still_uses_other_pool(self):
        # roots sharing no parent have no siblings; give the root a
        # two-label shape and no pools at all -> nothing emitted
        graph = graph_of(("r", ["one", "two"], []))
        assert len(generate_triplets(graph, seed=1)) == 0

    def test_rule2_fires_without_parents(self):
        # two roots cannot be siblings (no shared parent), so attach both
        # to a shared parent and strip the parent's labels from the pool
        # check instead: a concept with siblings but whose parent pool is
        # empty is impossible here; emulate by multiple roots under none.
        # Instead verify: concept with parent but no siblings/uncles emits
        # only rule 1.
        graph = graph_of(
            ("p", ["parent label"], []),
            ("c", ["one", "two"], ["p"]),
        )
        ds = generate_triplets(graph, seed=5)
        assert [(e.anchor, e.positive, e.negative) for e in ds] == [
            ("one", "two", "parent label"),
            ("two", "one", "parent label"),
        ]

    def test_empty_graph(self):
        assert len(generate_triplets(graph_of(), seed=0)) == 0

    def test_deterministic_byte_output(self, asthenia_graph, tmp_path):
        a = generate_triplets(asthenia_graph, seed=99)
        b = generate_triplets(asthenia_graph, seed=99)
        write_triplets(tmp_path / "a.tsv", a)
        write_triplets(tmp_path / "b.tsv", b)
        assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()

    def test_different_seed_different_draws(self, asthenia_graph):
        entries = {
            seed: tuple(
                (e.anchor, e.positive, e.negative)
                for e in generate_triplets(asthenia_graph, seed=seed)
            )
            for seed in range(6)
        }
        assert len(set(entries.values())) > 1

    def test_adding_isolated_subtree_keeps_prefix(self, asthenia_graph):
        before = generate_triplets(asthenia_graph, seed=7).entries
        concepts = list(asthenia_graph.concepts.values())
        # ascii 'z' sorts after every existing id; parent is a leaf, so no
        # existing concept's pools change
        concepts.append(
            Concept(
                id="zz-new",
                labels=("Znew one", "Znew two"),
                parent_ids=frozenset({"feeling-tired"}),
            )
        )
        extended = OntologyGraph(concepts)
        after = generate_triplets(extended, seed=7).entries
        assert after[: len(before)] == before
        assert len(after) == len(before) + 6

    def test_dedup_drops_exact_duplicates(self):
        # two sibling concepts with identical label pairs both emit
        # (q, r, p) and (r, q, p) through rule 1
        graph = graph_of(
            ("p", ["p label"], []),
            ("a", ["q", "r"], ["p"]),
            ("b", ["q", "r"], ["p"]),
        )
        plain = generate_triplets(graph, seed=0, dedup=False)
        deduped = generate_triplets(graph, seed=0, dedup=True)
        assert len(set(plain.entries)) == len(deduped)
        assert len(deduped) < len(plain)
        # first occurrences survive in order
        seen = []
        for e in plain:
            if e not in seen:
                seen.append(e)
        assert deduped.entries == seen

    def test_emissions_resolve_against_graph(self, asthenia_graph):
        # labels in the fixture are globally unique, so each entry must
        # match one of the three emission shapes of the generator
        graph = asthenia_graph
        owner = {
            label: cid
            for cid, c in graph.concepts.items()
            for label in c.labels
        }

        def parent_labels(cid):
            return {
                label
                for pid in graph.concepts[cid].parent_ids
                for label in graph.concepts[pid].labels
            }

        def other_labels(cid):
            from ontosearch.ontology import get_siblings, get_uncles

            pool = get_siblings(graph, cid) | get_uncles(graph, cid)
            return {label for oid in pool for label in graph.concepts[oid].labels}

        for entry in generate_triplets(graph, seed=123):
            cid = owner[entry.anchor]
            same_concept = owner.get(entry.positive) == cid
            rule12 = same_concept and (
                entry.negative in parent_labels(cid)
                or entry.negative in other_labels(cid)
            )
            rule3 = (
                entry.positive in parent_labels(cid)
                and entry.negative in other_labels(cid)
            )
            assert rule12 or rule3, entry


class TestSplit:
    def make_dataset(self, n):
        return TripletDataset(
            [TripletExample(f"a{i}", f"p{i}", f"n{i}") for i in range(n)], seed=0
        )

    def test_default_ratios_on_100(self):
        train, dev, test = split_dataset(self.make_dataset(100), SplitRatios(), seed=1)
        assert (len(train), len(dev), len(test)) == (90, 5, 5)

    def test_empty_dataset(self):
        train, dev, test = split_dataset(self.make_dataset(0), SplitRatios(), seed=1)
        assert (len(train), len(dev), len(test)) == (0, 0, 0)

    def test_partition_is_exact(self):
        ds = self.make_dataset(103)
        train, dev, test = split_dataset(ds, SplitRatios(), seed=3)
        assert len(dev) == len(test) == 5  # floor(103 * 0.05)
        assert len(train) == 93
        combined = sorted(
            (e.anchor for e in train.entries + dev.entries + test.entries)
        )
        assert combined == sorted(e.anchor for e in ds)

    def test_deterministic(self):
        ds = self.make_dataset(40)
        first = split_dataset(ds, SplitRatios(), seed=11)
        second = split_dataset(ds, SplitRatios(), seed=11)
        for a, b in zip(first, second):
            assert a.entries == b.entries

    def test_bad_ratios_rejected(self):
        with pytest.raises(ValueError):
            SplitRatios(0.5, 0.2, 0.2)
        with pytest.raises(ValueError):
            SplitRatios(1.2, -0.1, -0.1)


class TestIO:
    def test_round_trip(self, asthenia_graph, tmp_path):
        ds = generate_triplets(asthenia_graph, seed=4)
        write_triplets(tmp_path / "t.tsv", ds)
        back = read_triplets(tmp_path / "t.tsv")
        assert back.entries == ds.entries

    def test_write_split_manifest(self, asthenia_graph, tmp_path):
        ds = generate_triplets(asthenia_graph, seed=4)
        ratios = SplitRatios()
        parts = split_dataset(ds, ratios, seed=4)
        write_split(tmp_path, *parts, seed=4, ratios=ratios)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seed"] == 4
        assert manifest["counts"]["total"] == len(ds)
        assert manifest["ratios"] == {"train": 0.9, "dev": 0.05, "test": 0.05}
        for name in ("train.tsv", "dev.tsv", "test.tsv"):
            assert (tmp_path / name).exists()


class TestEntriesView:
    def test_reads_like_a_list(self, asthenia_graph):
        ds = generate_triplets(asthenia_graph, seed=2)
        view, listed = ds.entries, list(ds.entries)
        assert ds.rows.dtype == np.int32 and ds.rows.shape == (12, 3)
        assert len(view) == len(listed) == 12
        assert view == listed and listed == view and view == ds.entries
        assert view != listed[:-1] and view != listed[::-1] and view != tuple(listed)
        assert view[0] == listed[0] and view[-1] == listed[-1]
        assert view[2:5] == listed[2:5] and view[::-3] == listed[::-3]
        assert view + listed == listed + view == view + view == listed * 2
        assert listed[3] in view and view.index(listed[3]) == 3
        with pytest.raises(IndexError):
            view[12]
        with pytest.raises(TypeError):
            view[0] = listed[1]

    def test_constructor_round_trip(self, asthenia_graph):
        ds = generate_triplets(asthenia_graph, seed=2)
        again = TripletDataset(ds.entries, seed=5)
        assert again.entries == ds.entries and again.seed == 5
        assert again.labels == sorted({t for e in ds for t in (e.anchor, e.positive, e.negative)})
        prefix = TripletDataset(ds.entries[:4], ds.seed)
        assert prefix.entries == ds.entries[:4]
        empty = TripletDataset([], seed=0)
        assert len(empty) == 0 and empty.entries == [] and empty.rows.shape == (0, 3)

    def test_a_slice_builds_only_what_it_reads(self, monkeypatch):
        ds = generate_triplets(synthetic_ontology(4, 10, 4), seed=1)
        assert len(ds) > 1000
        built = []
        monkeypatch.setattr(triplets, "TripletExample",
                            lambda *fields: built.append(fields) or TripletExample(*fields))
        prefix = TripletDataset(split_dataset(ds, seed=1)[0].entries[:512], seed=1)
        assert len(built) == len(prefix) == 512


# --- the scalar reference ----------------------------------------------------
# ``generate_triplets`` and ``split_dataset`` as they were written before the
# draws moved to numpy: one generator call a draw and one entry object an
# entry.  The rows must equal these entries for every graph and seed.

def _reference_pool(graph, concept_ids):
    pool = {label for cid in concept_ids for label in graph.concepts[cid].labels}
    return sorted(pool)


def reference_triplets(graph, seed, single_label_fallback=False, dedup=False):
    rng = SplitMix64(seed)
    entries = []
    for cid in sorted(graph.concepts):
        concept = graph.concepts[cid]
        parent_pool = _reference_pool(graph, sorted(concept.parent_ids))
        others = get_siblings(graph, cid) | get_uncles(graph, cid)
        other_pool = _reference_pool(graph, sorted(others))

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
        seen = set()
        unique = []
        for entry in entries:
            if entry not in seen:
                seen.add(entry)
                unique.append(entry)
        entries = unique
    return entries


def reference_split(entries, ratios, seed):
    shuffled = list(entries)
    rng = SplitMix64(seed)
    for i in range(len(shuffled) - 1, 0, -1):
        j = rng.randrange(i + 1)
        shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
    n = len(shuffled)
    n_dev = math.floor(n * ratios.dev)
    n_test = math.floor(n * ratios.test)
    n_train = n - n_dev - n_test
    return shuffled[:n_train], shuffled[n_train:n_train + n_dev], shuffled[n_train + n_dev:]


@st.composite
def labelled_dags(draw):
    """``random_dags`` with one to four labels a concept, drawn from a small
    shared vocabulary, so that labels and whole entries repeat across
    concepts."""
    graph = draw(random_dags())
    words = st.sampled_from(["a", "b", "c", "d", "e", "f", "g"])
    return OntologyGraph(
        Concept(id=c.id, labels=tuple(draw(st.lists(words, min_size=1, max_size=4, unique=True))),
                parent_ids=c.parent_ids)
        for c in graph.concepts.values()
    )


@given(
    graph=labelled_dags(),
    seed=st.integers(min_value=-(2**63), max_value=2**64 - 1),
    single_label_fallback=st.booleans(),
    dedup=st.booleans(),
    ratios=st.sampled_from([SplitRatios(), SplitRatios(0.5, 0.25, 0.25), SplitRatios(0, 0, 1)]),
)
@settings(max_examples=200, deadline=None)
def test_rows_equal_the_scalar_reference(graph, seed, single_label_fallback, dedup, ratios):
    expected = reference_triplets(graph, seed, single_label_fallback, dedup)
    ds = generate_triplets(graph, seed, single_label_fallback=single_label_fallback,
                           dedup=dedup)
    assert ds.entries == expected
    parts = split_dataset(ds, ratios, seed)
    for got, want in zip(parts, reference_split(expected, ratios, seed), strict=True):
        assert got.entries == want
