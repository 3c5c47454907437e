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
without being read; headers or a body that stall for ``READ_TIMEOUT_S``
seconds get 408, and a request line that stalls closes the connection, so
no handler thread waits on a client for ever.
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote, urlsplit

from . import store
from .errors import (
    NotFound,
    OntoSearchError,
    PayloadTooLarge,
    RequestTimeout,
    UnknownConceptId,
    UsageError,
)
from .ranker import hits_json_array

logger = logging.getLogger(__name__)

MAX_BODY_BYTES = 1 << 20
READ_TIMEOUT_S = 10.0


class SearchService:
    """Request logic, independent of the HTTP plumbing for testability."""

    def __init__(self, bundle: store.IndexBundle):
        self.bundle = bundle

    def hits_array(self, text: str, k: int, ranker: str) -> str:
        return hits_json_array(store.query_hits(self.bundle, text, k, ranker))

    def match_array(self, labels: list[str], k: int, ranker: str) -> str:
        return hits_json_array(store.match_hits(self.bundle, labels, k, ranker))

    def concept_record(self, concept_id: str) -> dict | None:
        graph = self.bundle.graph
        i = graph.position.get(concept_id)
        if i is None:
            return None
        return {
            "concept_id": concept_id,
            "labels": graph.labels_at(i),
            "parent_ids": [graph.ids[p] for p in graph.parents_at(i)],
            "child_ids": [graph.ids[c] for c in graph.children_at(i)],
        }

    def health(self) -> dict:
        vector = self.bundle.vector
        bm25 = self.bundle.bm25
        return {
            "status": "ok",
            "rankers": self.bundle.rankers,
            "vector_fingerprint": vector.encoder_fingerprint if vector else None,
            "bm25_fingerprint": bm25.fingerprint() if bm25 else None,
        }


# The HTTP status of each error; any other OntoSearchError is a bad request.
_STATUS = {NotFound: 404, UnknownConceptId: 404, RequestTimeout: 408,
           PayloadTooLarge: 413}


def _query_k(params: dict) -> int:
    raw = params.get("k", ["10"])[0]
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"k must be an integer, got {raw!r}") from None


def _body_length(headers) -> int:
    """The declared body length; one that is not a non-negative integer,
    or is above ``MAX_BODY_BYTES``, is refused with the body unread.  The
    server speaks HTTP/1.0, so the connection closes after every response
    and takes an unread body with it."""
    raw = headers.get("Content-Length", "0").strip()
    if not (raw.isascii() and raw.isdigit()):
        raise UsageError(f"Content-Length must be a non-negative integer, got {raw!r}")
    digits = raw.lstrip("0") or "0"  # so int() never meets its 4,300-digit limit
    if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits) > MAX_BODY_BYTES:
        raise PayloadTooLarge(f"body of {digits} bytes exceeds {MAX_BODY_BYTES}")
    return int(digits)


class _Handler(BaseHTTPRequestHandler):
    service: SearchService  # set by make_server

    def _send(self, status: int, body: str) -> None:
        raw = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(raw)

    def _send_error(self, status: int, exc: OntoSearchError) -> None:
        """The one way an error answer is written: its JSON line."""
        self._send(status, exc.json_line())

    def send_error(self, code, message=None, explain=None):
        """http.server's own refusals (a bad request line, an over-long URI,
        an unsupported method) as the same JSON line."""
        self._send_error(code, UsageError(message or self.responses[code][0]))

    def parse_request(self):
        """Headers that stop arriving for ``READ_TIMEOUT_S`` get 408; the
        base class would close the connection without an answer."""
        try:
            return super().parse_request()
        except TimeoutError:
            self.close_connection = True
            self._send_error(408, RequestTimeout(
                f"headers not received within {self.timeout} s"))
            return False

    def _answer(self, route) -> None:
        """Send the (status, body) ``route`` returns for the request URL,
        or the JSON line of the error it raises, with that error's status."""
        try:
            status, body = route(urlsplit(self.path))
        except OntoSearchError as exc:
            self._send_error(_STATUS.get(type(exc), 400), exc)
            return
        self._send(status, body)

    def _get(self, url) -> tuple[int, str]:
        if url.path == "/healthz":
            return 200, json.dumps(self.service.health())
        if url.path == "/search":
            params = parse_qs(url.query, keep_blank_values=True)
            if "q" not in params:
                raise UsageError("missing query parameter q")
            k = _query_k(params)
            ranker = params.get("ranker", ["vector"])[0]
            return 200, self.service.hits_array(params["q"][0], k, ranker)
        if url.path.startswith("/concept/"):
            concept_id = unquote(url.path[len("/concept/"):])
            record = self.service.concept_record(concept_id)
            if record is None:
                raise UnknownConceptId(f"unknown concept id {concept_id!r}")
            return 200, json.dumps(record, ensure_ascii=False)
        raise NotFound(f"no route for {url.path}")

    def _post(self, url) -> tuple[int, str]:
        if url.path != "/match":
            raise NotFound(f"no route for {url.path}")
        length = _body_length(self.headers)
        try:
            raw = self.rfile.read(length)
        except TimeoutError:
            raise RequestTimeout(
                f"body of {length} bytes not received within {self.timeout} s") from None
        try:
            body = json.loads(raw.decode("utf-8") or "{}")
        except ValueError as exc:  # bad JSON or UTF-8, or an integer past Python's digit limit
            raise UsageError(f"bad JSON body: {exc}") from None
        if not isinstance(body, dict):
            raise UsageError("body must be a JSON object")
        labels = body.get("labels")
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise UsageError("body must carry labels: [str, ...]")
        k = body.get("k", 10)
        if isinstance(k, bool) or not isinstance(k, int):
            raise UsageError(f"k must be an integer, got {k!r}")
        ranker = body.get("ranker", "vector")
        return 200, self.service.match_array(labels, k, ranker)

    def do_GET(self):  # noqa: N802  (http.server naming)
        self._answer(self._get)

    def do_POST(self):  # noqa: N802
        self._answer(self._post)

    def log_message(self, format, *args):  # quiet by default
        if logger.isEnabledFor(logging.DEBUG):
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
    """Load the index directory, then bind and serve until interrupted:
    until the load ends, connections are refused."""
    server = make_server(SearchService(store.load_bundle(index_dir)), host, port)
    bound = server.socket.getsockname()
    print(f"serving {index_dir} on http://{bound[0]}:{bound[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
