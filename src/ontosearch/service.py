"""Read-only JSON-over-HTTP query service on top of a built index directory.

Endpoints:

    GET  /search?q=<text>&k=<n>&ranker=<vector|bm25>   array of ranked hits
    POST /match   {"labels": [...], "k": n}            aggregated hit array
    GET  /concept/<id>                                 concept record
    GET  /healthz                                      status + fingerprints

Hit arrays are built from the exact JSON lines the CLI ``query`` command
prints, so the two surfaces answer byte-identically.  All state is loaded
once and never mutated, apart from the encoder's bounded per-token memo,
whose entries never change once written; concurrent requests are safe.
A ``/match`` body longer than ``MAX_BODY_BYTES`` is refused with 413
without being read; one that stalls for ``READ_TIMEOUT_S`` seconds gets
408, so no handler thread waits on a client for ever.
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote, urlsplit

from . import store
from .errors import OntoSearchError
from .ranker import hit_json_line

logger = logging.getLogger(__name__)

MAX_BODY_BYTES = 1 << 20
READ_TIMEOUT_S = 10.0


class SearchService:
    """Request logic, independent of the HTTP plumbing for testability."""

    def __init__(self, bundle: store.IndexBundle | None = None):
        self.bundle = bundle

    @property
    def ready(self) -> bool:
        return self.bundle is not None

    def hits_array(self, text: str, k: int, ranker: str) -> str:
        lines = [
            hit_json_line(hit)
            for hit in store.query_hits(self.bundle, text, k, ranker)
        ]
        return "[" + ",".join(lines) + "]"

    def match_array(self, labels: list[str], k: int, ranker: str) -> str:
        lines = [
            hit_json_line(hit)
            for hit in store.match_hits(self.bundle, labels, k, ranker)
        ]
        return "[" + ",".join(lines) + "]"

    def concept_record(self, concept_id: str) -> dict | None:
        if concept_id not in self.bundle.graph:
            return None
        concept = self.bundle.graph.concepts[concept_id]
        return {
            "concept_id": concept.id,
            "labels": list(concept.labels),
            "parent_ids": sorted(concept.parent_ids),
            "child_ids": sorted(self.bundle.graph.children[concept_id]),
        }

    def health(self) -> dict:
        if not self.ready:
            return {"status": "loading"}
        vector = self.bundle.vector
        bm25 = self.bundle.bm25
        return {
            "status": "ok",
            "rankers": self.bundle.rankers,
            "vector_fingerprint": vector.encoder_fingerprint if vector else None,
            "bm25_fingerprint": bm25.fingerprint() if bm25 else None,
        }


class _Handler(BaseHTTPRequestHandler):
    service: SearchService  # set by make_server

    def _send(self, status: int, body: str) -> None:
        raw = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def _send_error(self, status: int, code: str, message: str) -> None:
        self._send(status, json.dumps({"error": code, "message": message}))

    def _send_hits(self, hits_array) -> None:
        """200 with the hit array, or 400 with the code of the error raised."""
        try:
            self._send(200, hits_array())
        except OntoSearchError as exc:
            self._send_error(400, exc.code, exc.message)

    def _guard_ready(self) -> bool:
        if not self.service.ready:
            self._send_error(503, "app.Loading", "indexes are still loading")
            return False
        return True

    def _parse_k(self, params: dict) -> int | None:
        raw = params.get("k", ["10"])[0]
        try:
            k = int(raw)
        except ValueError:
            self._send_error(400, "app.UsageError", f"k must be an integer, got {raw!r}")
            return None
        if k < 1:
            self._send_error(400, "app.UsageError", "k must be >= 1")
            return None
        return k

    def _body_length(self) -> int | None:
        """The declared body length, or None after answering 400 or 413.

        Either refusal leaves the body unread.  The server speaks HTTP/1.0,
        so the connection closes after every response and takes an unread
        body with it."""
        raw = self.headers.get("Content-Length", "0").strip()
        if not (raw.isascii() and raw.isdigit()):
            self._send_error(400, "app.UsageError",
                             f"Content-Length must be a non-negative integer, got {raw!r}")
            return None
        length = int(raw)
        if length > MAX_BODY_BYTES:
            self._send_error(413, "app.PayloadTooLarge",
                             f"body of {length} bytes exceeds {MAX_BODY_BYTES}")
            return None
        return length

    def do_GET(self):  # noqa: N802  (http.server naming)
        url = urlsplit(self.path)
        if url.path == "/healthz":
            payload = self.service.health()
            self._send(200 if self.service.ready else 503, json.dumps(payload))
            return
        if not self._guard_ready():
            return
        if url.path == "/search":
            params = parse_qs(url.query, keep_blank_values=True)
            if "q" not in params:
                self._send_error(400, "app.UsageError", "missing query parameter q")
                return
            k = self._parse_k(params)
            if k is None:
                return
            ranker = params.get("ranker", ["vector"])[0]
            self._send_hits(lambda: self.service.hits_array(params["q"][0], k, ranker))
            return
        if url.path.startswith("/concept/"):
            concept_id = unquote(url.path[len("/concept/"):])
            record = self.service.concept_record(concept_id)
            if record is None:
                self._send_error(404, "ontology.UnknownConceptId",
                                 f"unknown concept id {concept_id!r}")
                return
            self._send(200, json.dumps(record, ensure_ascii=False))
            return
        self._send_error(404, "app.NotFound", f"no route for {url.path}")

    def do_POST(self):  # noqa: N802
        url = urlsplit(self.path)
        if url.path != "/match":
            self._send_error(404, "app.NotFound", f"no route for {url.path}")
            return
        if not self._guard_ready():
            return
        length = self._body_length()
        if length is None:
            return
        try:
            raw = self.rfile.read(length)
        except TimeoutError:
            self._send_error(408, "app.RequestTimeout",
                             f"body of {length} bytes not received within {self.timeout} s")
            return
        try:
            body = json.loads(raw.decode("utf-8") or "{}")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            self._send_error(400, "app.UsageError", f"bad JSON body: {exc}")
            return
        if not isinstance(body, dict):
            self._send_error(400, "app.UsageError", "body must be a JSON object")
            return
        labels = body.get("labels")
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            self._send_error(400, "app.UsageError", "body must carry labels: [str, ...]")
            return
        k = body.get("k", 10)
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            self._send_error(400, "app.UsageError", "k must be an integer >= 1")
            return
        ranker = body.get("ranker", "vector")
        self._send_hits(lambda: self.service.match_array(labels, k, ranker))

    def log_message(self, format, *args):  # quiet by default
        logger.debug("%s - %s", self.address_string(), format % args)


def make_server(
    service: SearchService, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """Bind a threading HTTP server around ``service`` (port 0 = ephemeral);
    its sockets time out after ``READ_TIMEOUT_S`` seconds."""
    handler = type("BoundHandler", (_Handler,), {"service": service, "timeout": READ_TIMEOUT_S})
    return ThreadingHTTPServer((host, port), handler)


def start_in_thread(server: ThreadingHTTPServer) -> threading.Thread:
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


def serve(index_dir: str, host: str, port: int) -> None:
    """Load the index directory and serve until interrupted."""
    service = SearchService()
    server = make_server(service, host, port)
    service.bundle = store.load_bundle(index_dir)
    bound = server.socket.getsockname()
    print(f"serving {index_dir} on http://{bound[0]}:{bound[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
