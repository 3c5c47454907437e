"""Command-line driver for the full pipeline:

    ingest -> triplets -> train -> index -> query / match / eval / serve

Every command is reproducible: identical flags and seeds write identical
artifacts.  Errors leave on stderr as one JSON line carrying a stable
machine-readable code.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import evaluation, store
from .config import PipelineConfig
from .embedder import (
    SubwordEmbedder,
    load_encoder,
    load_precomputed,
    load_word_vectors,
    save_encoder,
)
from .errors import FileNotFound, IoError, MalformedLine, OntoSearchError, OutOfMemory, UsageError
from .npzio import writing
from .ontology import load_ontology
from .ranker import (
    BM25_B,
    BM25_K1,
    build_bm25_index,
    build_vector_index,
    check_bm25_params,
    hit_json_line,
    hits_json_array,
    load_stopwords,
)
from .train import TrainConfig, train
from .triplets import (
    SplitRatios,
    generate_triplets,
    read_triplets,
    split_dataset,
    write_split,
)


class _Parser(argparse.ArgumentParser):
    # raise instead of exiting so main() can emit the one-line error form
    def error(self, message):
        raise UsageError(message)


def _ontology_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--concepts", required=True, help="concepts.tsv path")
    p.add_argument("--labels", required=True, help="labels.tsv path")
    p.add_argument("--relations", required=True, help="relations.tsv path")


def build_parser() -> argparse.ArgumentParser:
    # no abbreviations, so a flag is spelled as _extract_config and main look for it
    parser = _Parser(prog="ontosearch", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.add_argument("--config", help="flat key = value config file")
        return p

    p = command("ingest", "validate an ontology and print stats")
    _ontology_args(p)

    p = command("triplets", "generate and split training triplets")
    _ontology_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--ratios", default="0.9,0.05,0.05", help="train,dev,test fractions")
    p.add_argument("--single-label-fallback", action="store_true")
    p.add_argument("--dedup", action="store_true")

    p = command("train", "train the subword encoder")
    p.add_argument("--triplets", required=True, help="train.tsv path")
    p.add_argument("--dev", help="dev.tsv path")
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--buckets", type=int, default=32768,
                   help="hash table rows of the subword encoder")
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--lr", type=float, default=2e-5)
    p.add_argument("--margin", type=float, default=0.1)
    p.add_argument("--warmup", type=float, default=0.10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="model file (.npz)")

    p = command("index", "build a searchable index directory")
    _ontology_args(p)
    enc = p.add_mutually_exclusive_group()
    enc.add_argument("--model", help="trained subword encoder (.npz)")
    enc.add_argument("--word-vectors", help="word-vector text file")
    enc.add_argument("--precomputed", help="precomputed embedding TSV")
    p.add_argument("--bm25", action="store_true", help="also build a BM25 index")
    p.add_argument("--stopwords", help="stop-word file (default: built-in list)")
    p.add_argument("--k1", type=float, default=BM25_K1)
    p.add_argument("--b", type=float, default=BM25_B)
    p.add_argument("--out", required=True, help="index directory")

    p = command("query", "one-shot text search")
    p.add_argument("--index", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--ranker", choices=("vector", "bm25"), default="vector")

    p = command("match", "concept-to-concept search over a source ontology")
    p.add_argument("--index", required=True)
    p.add_argument("--source-concepts", required=True)
    p.add_argument("--source-labels", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--ranker", choices=("vector", "bm25"), default="vector")

    p = command("eval", "evaluate a query set and write a report")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--mode", choices=("text", "concept"), default="text")
    p.add_argument("--k", default="1,5,10", help="comma-separated K values")
    p.add_argument("--ranker", choices=("vector", "bm25"), default="vector")
    p.add_argument("--stopwords", help="stop-word file for overlap degrees")
    p.add_argument("--baseline-run", action="append", dest="baseline_runs",
                   help="baseline report.json for a paired t-test (repeatable)")
    p.add_argument("--stat", choices=("hits", "rr"), default="hits")
    p.add_argument("--out", help="report path (default: stdout)")

    p = command("serve", "serve the index over HTTP")
    p.add_argument("--index", required=True)
    p.add_argument("--bind", default="127.0.0.1:8080", help="host:port")

    return parser


def _extract_config(argv: list[str]) -> PipelineConfig | None:
    paths = []
    for i, token in enumerate(argv):
        if token == "--config":
            if i + 1 >= len(argv):
                raise UsageError("--config needs a file path")
            paths.append(argv[i + 1])
        elif token.startswith("--config="):
            paths.append(token.split("=", 1)[1])
    if len(paths) > 1:
        raise UsageError("--config given more than once")
    return PipelineConfig.load(paths[0]) if paths else None


def _cmd_ingest(args) -> int:
    graph = load_ontology(args.concepts, args.labels, args.relations)
    n_labels = sum(len(c.labels) for c in graph.concepts.values())
    n_edges = sum(len(c.parent_ids) for c in graph.concepts.values())
    roots = sum(1 for c in graph.concepts.values() if not c.parent_ids)
    leaves = sum(1 for cid in graph.concepts if not graph.children[cid])
    print(json.dumps({
        "concepts": len(graph),
        "labels": n_labels,
        "relations": n_edges,
        "roots": roots,
        "leaves": leaves,
    }))
    return 0


def _cmd_triplets(args) -> int:
    graph = load_ontology(args.concepts, args.labels, args.relations)
    try:
        fractions = [float(x) for x in args.ratios.split(",")]
        ratios = SplitRatios(*fractions)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad --ratios value {args.ratios!r}: {exc}") from None
    dataset = generate_triplets(
        graph, args.seed,
        single_label_fallback=args.single_label_fallback,
        dedup=args.dedup,
    )
    train_set, dev_set, test_set = split_dataset(dataset, ratios, args.seed)
    write_split(
        args.out, train_set, dev_set, test_set, args.seed, ratios,
        single_label_fallback=args.single_label_fallback, dedup=args.dedup,
    )
    print(json.dumps({
        "total": len(dataset),
        "train": len(train_set),
        "dev": len(dev_set),
        "test": len(test_set),
        "out": str(args.out),
    }))
    return 0


def _cmd_train(args) -> int:
    if not -(1 << 63) <= args.seed < 1 << 64:  # the model file stores it as a 64-bit integer
        raise UsageError(f"--seed must lie in [-2**63, 2**64), got {args.seed}")
    train_set = read_triplets(args.triplets)
    dev_set = read_triplets(args.dev) if args.dev else None
    cfg = TrainConfig(
        margin=args.margin,
        epochs=args.epochs,
        batch_size=args.batch,
        learning_rate=args.lr,
        warmup_fraction=args.warmup,
        seed=args.seed,
    )
    model = SubwordEmbedder(bucket_count=args.buckets, dim=args.dim, seed=args.seed)
    model, history = train(model, train_set, dev_set, cfg)
    save_encoder(model, args.out)
    summary = {
        "epochs": [
            {"epoch": e.epoch, "train_loss": e.train_loss, "dev_loss": e.dev_loss}
            for e in history.epochs
        ],
        "model": str(args.out),
    }
    print(json.dumps(summary))
    return 0


def _cmd_index(args) -> int:
    check_bm25_params(args.k1, args.b)  # with or without --bm25, as is --stopwords
    stopwords = load_stopwords(args.stopwords)
    graph = load_ontology(args.concepts, args.labels, args.relations)
    source = args.model or args.word_vectors or args.precomputed
    if not source and not args.bm25:
        raise UsageError(
            "nothing to build: give --model/--word-vectors/--precomputed "
            "and/or --bm25"
        )
    vector = encoder = None
    if source:
        load = (load_encoder if args.model else
                load_word_vectors if args.word_vectors else load_precomputed)
        encoder = load(source)
        try:
            vector = build_vector_index(graph, encoder)
        except MalformedLine as exc:  # a label whose embedding overflows
            raise MalformedLine(f"{source}: {exc.message}") from None
    bm25 = build_bm25_index(graph, stopwords, k1=args.k1, b=args.b) if args.bm25 else None
    store.save_bundle(args.out, graph, vector=vector, encoder=encoder, bm25=bm25)
    print(json.dumps({
        "out": str(args.out),
        "vector_rows": len(vector) if vector else 0,
        "bm25_docs": bm25.n_docs if bm25 else 0,
    }))
    return 0


def _cmd_query(args) -> int:
    bundle = store.load_bundle(args.index)
    for hit in store.query_hits(bundle, args.q, args.k, args.ranker):
        print(hit_json_line(hit))
    return 0


def _cmd_match(args) -> int:
    bundle = store.load_bundle(args.index)
    source = load_ontology(args.source_concepts, args.source_labels, None)
    for cid, concept in source.concepts.items():
        hits = store.match_hits(bundle, list(concept.labels), args.k, args.ranker)
        print(f'{{"source_id":{json.dumps(cid, ensure_ascii=False)},'
              f'"hits":{hits_json_array(hits)}}}')
    return 0


def _cmd_eval(args) -> int:
    try:
        k_list = sorted({int(x) for x in args.k.split(",")})
    except ValueError:
        raise UsageError(f"bad --k value {args.k!r}") from None
    bundle = store.load_bundle(args.index)
    queries = evaluation.read_queries(args.queries, mode=args.mode)

    # overlap degrees skip --stopwords, else the BM25 index's list, else the built-in one
    stopwords = (load_stopwords(args.stopwords or None) if args.stopwords or bundle.bm25 is None
                 else bundle.bm25.stopwords)

    def handle(query: evaluation.EvalQuery, k: int):
        if query.query_text is not None:
            return store.query_hits(bundle, query.query_text, k, args.ranker)
        return store.match_hits(bundle, list(query.query_labels), k, args.ranker)

    report = evaluation.evaluate_run(
        queries, handle, bundle.graph, k_list=k_list, stopwords=stopwords
    )
    for baseline_path in args.baseline_runs or ():
        with open(baseline_path, encoding="utf-8") as fh:
            try:
                significance = evaluation.significance_against(
                    report, json.load(fh), Path(baseline_path).name,
                    stat=args.stat, k=report.bucket_hits_k,
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise UsageError(f"bad --baseline-run {baseline_path!r}: "
                                 f"not an eval report ({type(exc).__name__}: {exc})") from None
        report.significance.append(significance)
    payload = report.to_json()
    if args.out:
        with writing(args.out) as fh:
            fh.write(payload)
        print(json.dumps({"out": str(args.out), "queries": len(queries)}))
    else:
        print(payload, end="")
    return 0


def _cmd_serve(args) -> int:
    from .service import serve

    host, _, port = args.bind.rpartition(":")
    if not host or not (port.isascii() and port.isdigit()) or int(port) > 65535:
        raise UsageError(f"--bind must be host:port with a port of 0-65535, got {args.bind!r}")
    serve(args.index, host, int(port))
    return 0


_COMMANDS = {
    "ingest": _cmd_ingest,
    "triplets": _cmd_triplets,
    "train": _cmd_train,
    "index": _cmd_index,
    "query": _cmd_query,
    "match": _cmd_match,
    "eval": _cmd_eval,
    "serve": _cmd_serve,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        config = _extract_config(argv)
        if config is not None:  # its values act as the flags the command line does not give
            given = {token.partition("=")[0] for token in argv}
            argv[1:1] = [f"--{k}={v}" for k, v in config.defaults_for(argv[0]).items()
                         if f"--{k}" not in given]
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (OntoSearchError, OSError, MemoryError) as exc:
        if isinstance(exc, OSError):
            exc = (FileNotFound if isinstance(exc, FileNotFoundError) else IoError)(str(exc))
        elif isinstance(exc, MemoryError):
            exc = OutOfMemory(str(exc) or "out of memory")
        print(exc.json_line(), file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
