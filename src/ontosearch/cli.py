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
from .errors import FileNotFound, IoError, OntoSearchError, UsageError
from .ontology import load_ontology
from .ranker import (
    BM25_B,
    BM25_K1,
    DEFAULT_STOPWORDS,
    build_bm25_index,
    build_vector_index,
    hit_json_line,
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


class _Args:
    """Adds arguments to one subparser, letting config values stand in for
    required flags (explicit flags still override them)."""

    def __init__(self, parser: argparse.ArgumentParser, defaults: dict):
        self.parser = parser
        self.defaults = defaults

    def add(self, name: str, required: bool = False, **kwargs):
        dest = name.lstrip("-").replace("-", "_")
        if dest in self.defaults:
            kwargs["default"] = self.defaults[dest]
            required = False
        if kwargs.get("action") in ("store_true", "store_false"):
            self.parser.add_argument(name, **kwargs)
        else:
            self.parser.add_argument(name, required=required, **kwargs)


def _ontology_args(args: _Args) -> None:
    args.add("--concepts", required=True, help="concepts.tsv path")
    args.add("--labels", required=True, help="labels.tsv path")
    args.add("--relations", required=True, help="relations.tsv path")


def build_parser(config: PipelineConfig | None = None) -> argparse.ArgumentParser:
    parser = _Parser(prog="ontosearch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="flat key = value config file")
        return _Args(p, config.defaults_for(name) if config else {})

    a = command("ingest", "validate an ontology and print stats")
    _ontology_args(a)

    a = command("triplets", "generate and split training triplets")
    _ontology_args(a)
    a.add("--seed", type=int, default=0)
    a.add("--out", required=True, help="output directory")
    a.add("--ratios", default="0.9,0.05,0.05", help="train,dev,test fractions")
    a.add("--single-label-fallback", action="store_true")
    a.add("--dedup", action="store_true")

    a = command("train", "train the subword encoder")
    a.add("--triplets", required=True, help="train.tsv path")
    a.add("--dev", help="dev.tsv path")
    a.add("--dim", type=int, default=64)
    a.add("--buckets", type=int, default=32768,
          help="hash table rows of the subword encoder")
    a.add("--epochs", type=int, default=5)
    a.add("--batch", type=int, default=32)
    a.add("--lr", type=float, default=2e-5)
    a.add("--margin", type=float, default=0.1)
    a.add("--warmup", type=float, default=0.10)
    a.add("--seed", type=int, default=0)
    a.add("--out", required=True, help="model file (.npz)")

    a = command("index", "build a searchable index directory")
    _ontology_args(a)
    enc = a.parser.add_mutually_exclusive_group()
    enc.add_argument("--model", help="trained subword encoder (.npz)")
    enc.add_argument("--word-vectors", help="word-vector text file")
    enc.add_argument("--precomputed", help="precomputed embedding TSV")
    a.add("--bm25", action="store_true", help="also build a BM25 index")
    a.add("--stopwords", help="stop-word file (default: built-in list)")
    a.add("--k1", type=float, default=BM25_K1)
    a.add("--b", type=float, default=BM25_B)
    a.add("--out", required=True, help="index directory")

    a = command("query", "one-shot text search")
    a.add("--index", required=True)
    a.add("--q", required=True)
    a.add("--k", type=int, default=10)
    a.add("--ranker", choices=("vector", "bm25"), default="vector")

    a = command("match", "concept-to-concept search over a source ontology")
    a.add("--index", required=True)
    a.add("--source-concepts", required=True)
    a.add("--source-labels", required=True)
    a.add("--k", type=int, default=10)
    a.add("--ranker", choices=("vector", "bm25"), default="vector")

    a = command("eval", "evaluate a query set and write a report")
    a.add("--index", required=True)
    a.add("--queries", required=True)
    a.add("--mode", choices=("text", "concept"), default="text")
    a.add("--k", default="1,5,10", help="comma-separated K values")
    a.add("--ranker", choices=("vector", "bm25"), default="vector")
    a.add("--stopwords", help="stop-word file for overlap degrees")
    a.add("--baseline-run", action="append", dest="baseline_runs",
          help="baseline report.json for a paired t-test (repeatable)")
    a.add("--stat", choices=("hits", "rr"), default="hits")
    a.add("--out", help="report path (default: stdout)")

    a = command("serve", "serve the index over HTTP")
    a.add("--index", required=True)
    a.add("--bind", default="127.0.0.1:8080", help="host:port")

    return parser


def _extract_config(argv: list[str]) -> PipelineConfig | None:
    for i, token in enumerate(argv):
        if token == "--config":
            if i + 1 >= len(argv):
                raise UsageError("--config needs a file path")
            return PipelineConfig.load(argv[i + 1])
        if token.startswith("--config="):
            return PipelineConfig.load(token.split("=", 1)[1])
    return None


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
    train_set = read_triplets(args.triplets)
    dev_set = read_triplets(args.dev) if args.dev else None
    try:
        cfg = TrainConfig(
            margin=args.margin,
            epochs=args.epochs,
            batch_size=args.batch,
            learning_rate=args.lr,
            warmup_fraction=args.warmup,
            seed=args.seed,
        )
        model = SubwordEmbedder(bucket_count=args.buckets, dim=args.dim, seed=args.seed)
    except ValueError as exc:
        raise UsageError(f"bad train flag: {exc}") from None
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
    graph = load_ontology(args.concepts, args.labels, args.relations)
    encoder = None
    if args.model:
        encoder = load_encoder(args.model)
    elif args.word_vectors:
        encoder = load_word_vectors(args.word_vectors)
    elif args.precomputed:
        encoder = load_precomputed(args.precomputed)
    if encoder is None and not args.bm25:
        raise UsageError(
            "nothing to build: give --model/--word-vectors/--precomputed "
            "and/or --bm25"
        )
    vector = build_vector_index(graph, encoder) if encoder is not None else None
    bm25 = (
        build_bm25_index(graph, args.stopwords, k1=args.k1, b=args.b)
        if args.bm25
        else None
    )
    store.save_bundle(args.out, graph, vector=vector, encoder=encoder, bm25=bm25)
    print(json.dumps({
        "out": str(args.out),
        "vector_rows": len(vector) if vector else 0,
        "bm25_docs": bm25.n_docs if bm25 else 0,
    }))
    return 0


def _cmd_query(args) -> int:
    if args.k < 1:
        raise UsageError("--k must be >= 1")
    bundle = store.load_bundle(args.index)
    for hit in store.query_hits(bundle, args.q, args.k, args.ranker):
        print(hit_json_line(hit))
    return 0


def _cmd_match(args) -> int:
    if args.k < 1:
        raise UsageError("--k must be >= 1")
    bundle = store.load_bundle(args.index)
    source = load_ontology(args.source_concepts, args.source_labels, None)
    for cid in source.sorted_ids():
        hits = store.match_hits(
            bundle, list(source.concepts[cid].labels), args.k, args.ranker
        )
        line = {
            "source_id": cid,
            "hits": [hit.to_dict() for hit in hits],
        }
        print(json.dumps(line, ensure_ascii=False, separators=(",", ":")))
    return 0


def _cmd_eval(args) -> int:
    try:
        k_list = sorted({int(x) for x in args.k.split(",")})
    except ValueError:
        raise UsageError(f"bad --k value {args.k!r}") from None
    if k_list[0] < 1:
        raise UsageError(f"bad --k value {args.k!r}: every K must be >= 1")
    bundle = store.load_bundle(args.index)
    queries = evaluation.read_queries(args.queries, mode=args.mode)

    if args.stopwords:
        stopwords = load_stopwords(args.stopwords)
    elif bundle.bm25 is not None:
        stopwords = bundle.bm25.stopwords
    else:
        stopwords = DEFAULT_STOPWORDS

    def handle(query: evaluation.EvalQuery, k: int):
        if query.query_text is not None:
            return store.query_hits(bundle, query.query_text, k, args.ranker)
        return store.match_hits(bundle, list(query.query_labels), k, args.ranker)

    report = evaluation.evaluate_run(
        queries, handle, bundle.graph, k_list=k_list, stopwords=stopwords
    )
    stat_k = 10 if 10 in k_list else max(k_list)
    for baseline_path in args.baseline_runs or ():
        with open(baseline_path, encoding="utf-8") as fh:
            try:
                significance = evaluation.significance_against(
                    report, json.load(fh), Path(baseline_path).name,
                    stat=args.stat, k=stat_k,
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise UsageError(f"bad --baseline-run {baseline_path!r}: "
                                 f"not an eval report ({type(exc).__name__}: {exc})") from None
        report.significance.append(significance)
    payload = report.to_json()
    if args.out:
        Path(args.out).write_text(payload, encoding="utf-8")
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
        parser = build_parser(config)
        args = parser.parse_args(argv)
        if config is not None:
            config.check_paths(args.command)
        return _COMMANDS[args.command](args)
    except (OntoSearchError, OSError) as exc:
        if isinstance(exc, OSError):
            exc = (FileNotFound if isinstance(exc, FileNotFoundError) else IoError)(str(exc))
        print(json.dumps({"error": exc.code, "message": exc.message}), file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
