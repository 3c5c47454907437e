"""Write one seed's inputs, and optionally a prebuilt index bundle, to a
directory.  Runs in its own process so the measuring process neither pays
for nor holds the memory of input generation.

    python3 perfbench/prep.py --seed 1 --out DIR [--concepts N] [--bundle]

DIR/inputs gets the ontology TSVs and query sets; with ``--bundle``,
DIR/bundle gets a vector + BM25 index over an untrained seeded encoder.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import common
import gen


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--concepts", type=int, default=gen.N_CONCEPTS)
    parser.add_argument("--bundle", action="store_true")
    args = parser.parse_args()

    inputs = args.out / "inputs"
    gen.write_inputs(args.seed, inputs, args.concepts)
    if not args.bundle:
        return
    common.require_program()
    from ontosearch import embedder, ontology, ranker, store

    graph = ontology.load_ontology(
        inputs / "concepts.tsv", inputs / "labels.tsv", inputs / "relations.tsv"
    )
    encoder = embedder.SubwordEmbedder(seed=args.seed)
    store.save_bundle(
        args.out / "bundle",
        graph,
        vector=ranker.build_vector_index(graph, encoder),
        encoder=encoder,
        bm25=ranker.build_bm25_index(graph),
    )


if __name__ == "__main__":
    main()
