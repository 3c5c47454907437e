"""On-disk layout of a built index directory and the query dispatch both
the CLI and the HTTP service run through (which is what keeps their
outputs byte-identical).

A directory written by ``save_bundle`` holds:

    meta.json        {"version": 2}; marks the directory as a bundle
    concepts.tsv / labels.tsv / relations.tsv    the ontology, round-tripped
    vector.npz       one unit row per (concept, label), plus the encoder
                     fingerprint; when a vector ranker was built
    encoder.npz      the encoder that embeds queries for ``vector.npz``
    bm25.json        per-concept term frequencies, k1/b, stop-words and the
                     df/avgdl corruption check; when a BM25 ranker was built

The ontology TSVs alone record which index rows exist and in what order:
both index files hold rows only and are read against the loaded graph,
and array shapes alone record widths.  ``load_bundle`` checks the rows'
width and fingerprint against ``encoder.npz``.  A file that cannot be
decoded, or rows that disagree with the encoder, is reported as
``io.MalformedLine`` naming it.

``save_bundle`` writes a whole bundle in this order, into a new or an
existing directory: it first removes ``meta.json`` and every index file,
then writes the ontology TSVs and the index files this build has, and
``meta.json`` last.  So a directory holds no index file of an earlier
build, and one whose write stopped part-way has no ``meta.json`` and is
refused by ``load_bundle``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .embedder import Encoder, load_encoder, save_encoder
from .errors import MalformedLine, UsageError
from .npzio import writing
from .ontology import OntologyGraph, load_ontology, save_ontology
from .ranker import (
    Bm25Index,
    RankedHit,
    VectorIndex,
    bm25_search,
    bm25_search_concept,
    load_bm25_index,
    load_vector_index,
    save_bm25_index,
    save_vector_index,
    search_concept,
    search_text,
)

_META_VERSION = 2


@dataclass
class IndexBundle:
    graph: OntologyGraph
    vector: VectorIndex | None = None
    encoder: Encoder | None = None
    bm25: Bm25Index | None = None

    @property
    def rankers(self) -> list[str]:
        names = []
        if self.vector is not None:
            names.append("vector")
        if self.bm25 is not None:
            names.append("bm25")
        return names


def save_bundle(
    out_dir: str | Path,
    graph: OntologyGraph,
    vector: VectorIndex | None = None,
    encoder: Encoder | None = None,
    bm25: Bm25Index | None = None,
) -> None:
    if vector is not None and encoder is None:
        raise UsageError("a vector index needs its encoder saved alongside")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in ("meta.json", "vector.npz", "encoder.npz", "bm25.json"):
        (out / name).unlink(missing_ok=True)
    save_ontology(
        graph, out / "concepts.tsv", out / "labels.tsv", out / "relations.tsv"
    )
    if vector is not None:
        save_vector_index(vector, out / "vector.npz")
        save_encoder(encoder, out / "encoder.npz")
    if bm25 is not None:
        save_bm25_index(bm25, out / "bm25.json")
    with writing(out / "meta.json") as fh:
        fh.write(json.dumps({"version": _META_VERSION}, indent=2) + "\n")


def load_bundle(index_dir: str | Path) -> IndexBundle:
    root = Path(index_dir)
    if not (root / "meta.json").exists():
        raise UsageError(f"{root} is not an index directory (no meta.json)")
    graph = load_ontology(
        root / "concepts.tsv", root / "labels.tsv", root / "relations.tsv"
    )
    vector = encoder = bm25 = None
    path = root / "vector.npz"
    if path.exists():
        vector = load_vector_index(path, graph)
        encoder = load_encoder(root / "encoder.npz")
        if vector.dim != encoder.dim:
            raise MalformedLine(f"{path}: rows {vector.dim} wide, but encoder.npz "
                                f"embeds in {encoder.dim} dimensions")
        if vector.encoder_fingerprint != encoder.fingerprint():
            raise MalformedLine(f"{path}: built with an encoder other than encoder.npz "
                                "(fingerprint mismatch)")
    if (root / "bm25.json").exists():
        bm25 = load_bm25_index(root / "bm25.json", graph)
    return IndexBundle(graph=graph, vector=vector, encoder=encoder, bm25=bm25)


def query_hits(
    bundle: IndexBundle, text: str, k: int, ranker: str = "vector"
) -> list[RankedHit]:
    """Text-to-concept search through the named ranker."""
    return _searches(bundle, ranker)[0](text, k)


def match_hits(
    bundle: IndexBundle, labels: list[str], k: int, ranker: str = "vector"
) -> list[RankedHit]:
    """Concept-to-concept search (max over the query concept's labels)."""
    return _searches(bundle, ranker)[1](labels, k)


def _searches(bundle: IndexBundle, ranker: str) -> tuple:
    """The named ranker's (text search, concept search) over ``bundle``."""
    if ranker == "vector":
        if bundle.vector is None or bundle.encoder is None:
            raise UsageError("index has no vector ranker")
        return (partial(search_text, bundle.vector, encoder=bundle.encoder),
                partial(search_concept, bundle.vector, encoder=bundle.encoder))
    if ranker == "bm25":
        if bundle.bm25 is None:
            raise UsageError("index has no bm25 ranker")
        return partial(bm25_search, bundle.bm25), partial(bm25_search_concept, bundle.bm25)
    raise UsageError(f"unknown ranker {ranker!r} (expected vector or bm25)")
