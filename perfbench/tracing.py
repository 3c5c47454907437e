"""In-memory spans around the program's entry points, and the per-layer
metrics derived from them.

The benchmark never edits the program: ``install`` replaces each entry
point with a recording wrapper *at the module or class where callers look
it up* (``store.search_text`` is what ``query_hits`` calls, so that is the
name wrapped), and ``Tracer.uninstall`` puts the originals back.  A name
the program no longer has is skipped, and the metrics derived from it read
0, so the benchmark outlives the refactorings it measures.  A span
records its name, start and end, the span that was open on the same
thread when it started, and a request id shared by every span of one
request or query.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from common import median, percentile

_MISSING = object()


class Tracer:
    def __init__(self):
        # (span_id, parent_id, request_id, name, start_ns, end_ns, attrs)
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple] = []
        self.enabled = True

    @contextmanager
    def paused(self):
        """Calls made inside record nothing (the benchmark's own checks)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def request(self, request_id):
        """Spans opened inside share ``request_id``."""
        previous = getattr(self._local, "request", None)
        self._local.request = request_id
        try:
            yield
        finally:
            self._local.request = previous

    def call(self, name, fn, args, kwargs, attrs=None):
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        request = getattr(self._local, "request", None)
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(
                (span_id, parent, request, name, start, end, {"error": type(exc).__name__})
            )
            raise
        end = time.perf_counter_ns()
        stack.pop()
        self.spans.append(
            (span_id, parent, request, name, start, end,
             attrs(args, kwargs, result) if attrs else None)
        )
        return result

    def wrap(self, owner, attr: str, name, attrs=None, request_id=None) -> bool:
        """Replace ``owner.attr`` by a recording wrapper; return whether
        ``owner`` has ``attr`` to wrap.  ``name`` is a string or
        ``f(args, kwargs) -> str``; ``attrs(args, kwargs, result)`` returns
        counts to store on the span, computed after it ends;
        ``request_id(args)`` starts a new request."""
        original = getattr(owner, attr, _MISSING)
        if original is _MISSING:
            return False
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            if request_id is None:
                return tracer.call(label, original, args, kwargs, attrs)
            with tracer.request(request_id(args)):
                return tracer.call(label, original, args, kwargs, attrs)

        setattr(owner, attr, wrapper)
        return True

    def wrap_function(self, fn, name: str, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs)
        return wrapper

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    def records(self) -> list[dict]:
        keys = ("id", "parent", "request", "name", "start_ns", "end_ns", "attrs")
        return [dict(zip(keys, span)) for span in self.spans]


# --- the program's entry points --------------------------------------------------

def _modules() -> dict:
    names = ("ontology", "embedder", "ranker", "store", "triplets", "train",
             "evaluation", "service")
    return {n: importlib.import_module(f"ontosearch.{n}") for n in names}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


def watch_encoder(tracer: Tracer, encoder) -> None:
    """Wrap one encoder instance's ``embed``; a text counts as hot when
    this encoder embedded it before, i.e. its feature bag is cached."""
    seen: set[str] = set()

    def attrs(args, kwargs, result):
        text = args[0]
        hot = text in seen
        seen.add(text)
        return {"hot": hot, "features": len(encoder.features(text)),
                "distinct": len(seen)}

    tracer.wrap(encoder, "embed", "embedder.embed", attrs=attrs)


def install(tracer: Tracer) -> None:
    """Wrap every entry point the workloads reach."""
    m = _modules()
    w = tracer.wrap
    ontology, embedder, ranker, store = m["ontology"], m["embedder"], m["ranker"], m["store"]

    def after_load(args, kwargs, bundle):
        if bundle.encoder is not None and hasattr(bundle.encoder, "features"):
            watch_encoder(tracer, bundle.encoder)
        return {"bytes": _dir_bytes(args[0])}

    def table_span(args, kwargs):
        table = kwargs.get("table", args[6] if len(args) > 6 else None)
        return "rng.table_init" if table is None else "embedder.table_load"

    w(ontology, "load_ontology", "ontology.load_ontology")
    w(store, "load_ontology", "ontology.load_ontology")
    w(store, "load_bundle", "store.load_bundle", attrs=after_load)
    w(store, "save_bundle", "store.save_bundle")
    w(ranker, "save_arrays", "npzio.save_arrays", attrs=_file_bytes)
    w(embedder, "save_arrays", "npzio.save_arrays", attrs=_file_bytes)
    w(embedder.SubwordEmbedder, "__init__", table_span)

    w(store, "query_hits", "store.query_hits")
    w(store, "match_hits", "store.match_hits")
    w(store, "search_text", "ranker.search_text",
      attrs=lambda a, k, r: {"rows": len(a[0])})
    w(store, "search_concept", "ranker.search_concept",
      attrs=lambda a, k, r: {"labels": len(a[1]), "rows": len(a[0]) * len(a[1])})
    w(store, "bm25_search", "ranker.bm25_search")
    w(store, "bm25_search_concept", "ranker.bm25_search_concept",
      attrs=lambda a, k, r: {"labels": len(a[1])})
    w(ranker, "bm25_all_scores", "ranker.bm25_all_scores",
      attrs=lambda a, k, r: {"nonzero": len(r)})
    w(ranker.Bm25Index, "fingerprint", "ranker.bm25_fingerprint")

    w(m["triplets"], "generate_triplets", "triplets.generate_triplets",
      attrs=lambda a, k, r: {"count": len(r)})
    w(m["triplets"], "split_dataset", "triplets.split_dataset")

    def train_attrs(args, kwargs, result):
        dataset = args[1]
        cfg = kwargs.get("cfg", args[3] if len(args) > 3 else None)
        batches = -(-len(dataset) // cfg.batch_size)
        return {"steps": cfg.epochs * batches, "triplets": cfg.epochs * len(dataset)}

    w(m["train"], "train", "train.train", attrs=train_attrs)
    w(ranker, "build_vector_index", "ranker.build_vector_index")
    w(ranker, "build_bm25_index", "ranker.build_bm25_index")
    w(m["evaluation"], "evaluate_run", "evaluation.evaluate_run",
      attrs=lambda a, k, r: {"queries": len(a[0])})

    service = m["service"]
    w(service.SearchService, "hits_array", "service.hits_array")
    w(service.SearchService, "health", "service.health")
    w(service.SearchService, "concept_record", "service.concept_record")
    # the HTTP entry point; the client names each request in a header
    w(service._Handler, "do_GET", "service.request",
      request_id=lambda a: a[0].headers.get("X-Request-Id"))


# --- per-layer metrics -----------------------------------------------------------

def _ms(ns) -> float:
    return ns / 1e6


def self_ns(span: dict, children: list[dict]) -> int:
    """Duration minus the part of it that child spans cover."""
    covered, cursor = 0, span["start_ns"]
    for child in sorted(children, key=lambda c: c["start_ns"]):
        lo, hi = max(child["start_ns"], cursor), min(child["end_ns"], span["end_ns"])
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span["end_ns"] - span["start_ns"] - covered


class SpanIndex:
    """Spans by name and by parent."""

    def __init__(self, spans: list[dict]):
        self.by_name: dict[str, list[dict]] = defaultdict(list)
        self.children: dict[int, list[dict]] = defaultdict(list)
        for span in spans:
            self.by_name[span["name"]].append(span)
            if span["parent"] is not None:
                self.children[span["parent"]].append(span)

    def durations_ns(self, name: str) -> list[int]:
        return [s["end_ns"] - s["start_ns"] for s in self.by_name[name]]

    def median_s(self, name: str) -> float:
        return median(self.durations_ns(name)) / 1e9

    def median_ms(self, name: str) -> float:
        return median(self.durations_ns(name)) / 1e6

    def self_times_ns(self, name: str) -> list[int]:
        return [self_ns(s, self.children[s["id"]]) for s in self.by_name[name]]

    def attr(self, name: str, key: str) -> list:
        return [s["attrs"][key] for s in self.by_name[name]
                if s["attrs"] and key in s["attrs"]]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Every span-derived per-layer metric; 0 where a layer did not run."""
    ix = SpanIndex(spans)
    out: dict[str, float] = {}
    out["ontology.load_s"] = ix.median_s("ontology.load_ontology")
    out["store.load_s"] = ix.median_s("store.load_bundle")
    out["store.bundle_bytes"] = median(ix.attr("store.load_bundle", "bytes"))
    out["rng.table_init_s"] = ix.median_s("rng.table_init")
    out["triplets.generate_s"] = ix.median_s("triplets.generate_triplets")
    out["triplets.split_s"] = ix.median_s("triplets.split_dataset")
    out["triplets.count"] = median(ix.attr("triplets.generate_triplets", "count"))

    steps = ix.attr("train.train", "steps")
    out["train.steps"] = sum(steps)
    out["train.ms_per_step"] = median(
        _ms(d) / n for d, n in zip(ix.durations_ns("train.train"), steps) if n
    )

    embeds = ix.by_name["embedder.embed"]
    out["embedder.embed_hot_ms"] = median(
        _ms(s["end_ns"] - s["start_ns"]) for s in embeds if s["attrs"]["hot"])
    out["embedder.embed_fresh_ms"] = median(
        _ms(s["end_ns"] - s["start_ns"]) for s in embeds if not s["attrs"]["hot"])
    features = ix.attr("embedder.embed", "features")
    out["embedder.features_per_text"] = sum(features) / len(features) if features else 0.0
    out["embedder.distinct_texts"] = max(ix.attr("embedder.embed", "distinct"), default=0)

    out["ranker.vector_build_s"] = ix.median_s("ranker.build_vector_index")
    out["ranker.bm25_build_s"] = ix.median_s("ranker.build_bm25_index")
    out["ranker.search_text_ms"] = ix.median_ms("ranker.search_text")
    out["ranker.score_ms"] = median(ix.self_times_ns("ranker.search_text")) / 1e6
    out["ranker.rows_scanned"] = median(
        ix.attr("ranker.search_text", "rows") + ix.attr("ranker.search_concept", "rows"))
    out["ranker.bm25_search_ms"] = ix.median_ms("ranker.bm25_search")
    out["ranker.bm25_nonzero_docs"] = median(ix.attr("ranker.bm25_all_scores", "nonzero"))
    out["ranker.bm25_fingerprint_ms"] = ix.median_ms("ranker.bm25_fingerprint")
    out["ranker.search_concept_ms"] = ix.median_ms("ranker.search_concept")
    labels = ix.attr("ranker.search_concept", "labels")
    out["ranker.labels_per_match"] = sum(labels) / len(labels) if labels else 0.0

    saves = max(len(ix.by_name["store.save_bundle"]), 1)
    out["npzio.save_s"] = sum(ix.durations_ns("npzio.save_arrays")) / 1e9 / saves
    out["npzio.bytes_written"] = sum(ix.attr("npzio.save_arrays", "bytes")) / saves
    out["store.save_s"] = ix.median_s("store.save_bundle")

    out["service.hits_array_ms"] = ix.median_ms("service.hits_array")
    out["service.health_ms"] = ix.median_ms("service.health")
    out["service.requests"] = len(ix.by_name["service.request"])

    out["evaluation.self_s"] = median(ix.self_times_ns("evaluation.evaluate_run")) / 1e9
    out["evaluation.queries"] = sum(ix.attr("evaluation.evaluate_run", "queries"))
    return out


def transport_ms(spans: list[dict], client: list[tuple[str, float]]) -> float:
    """Median of client latency minus the service method's span, matched
    by request id; ``client`` holds (request_id, latency_s)."""
    service = {}
    for span in spans:
        if span["name"].startswith("service.") and span["name"] != "service.request":
            service[span["request"]] = span["end_ns"] - span["start_ns"]
    gaps = [lat * 1e3 - _ms(service[rid]) for rid, lat in client if rid in service]
    return median(gaps)


def tail(values_s: list[float], q: float) -> float:
    return percentile(values_s, q) * 1e3 if values_s else 0.0
