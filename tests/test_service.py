import http.client
import json
import re
import socket
import string
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from urllib.parse import quote, urlencode

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ontosearch import service, store
from ontosearch.cli import main
from ontosearch.ranker import hit_json_line
from ontosearch.service import (
    MAX_BODY_BYTES,
    SearchService,
    make_server,
    start_in_thread,
)

FIG = Path(__file__).parent / "data" / "asthenia"


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("svc")
    trip_dir = tmp_path / "triplets"
    model = tmp_path / "model.npz"
    index_dir = tmp_path / "index"
    args = [
        "--concepts", str(FIG / "concepts.tsv"),
        "--labels", str(FIG / "labels.tsv"),
        "--relations", str(FIG / "relations.tsv"),
    ]
    assert main(["triplets", *args, "--seed", "7", "--out", str(trip_dir)]) == 0
    assert main(["train", "--triplets", str(trip_dir / "train.tsv"),
                 "--dim", "16", "--buckets", "512", "--epochs", "2",
                 "--lr", "0.001", "--seed", "7", "--out", str(model)]) == 0
    assert main(["index", *args, "--model", str(model), "--bm25",
                 "--out", str(index_dir)]) == 0
    bundle = store.load_bundle(index_dir)
    service = SearchService(bundle)
    server = make_server(service)
    start_in_thread(server)
    host, port = server.socket.getsockname()
    yield f"http://{host}:{port}", bundle
    server.shutdown()
    server.server_close()


def get(url):
    try:
        with urllib.request.urlopen(url) as resp:
            return resp.status, resp.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8")


def post(url, payload):
    req = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status, resp.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8")


class TestHealth:
    def test_ok_with_fingerprints(self, served):
        base, bundle = served
        status, body = get(f"{base}/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["rankers"] == ["vector", "bm25"]
        assert payload["vector_fingerprint"] == bundle.vector.encoder_fingerprint
        assert payload["bm25_fingerprint"] == bundle.bm25.fingerprint()


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_serve_refuses_connections_until_the_bundle_has_loaded(served, monkeypatch):
    _, bundle = served
    entered, release = threading.Event(), threading.Event()

    def held_load(index_dir):
        entered.set()
        release.wait(10)
        return bundle

    servers = []

    def recording_make_server(*args):
        servers.append(make_server(*args))
        return servers[-1]

    monkeypatch.setattr(store, "load_bundle", held_load)
    monkeypatch.setattr(service, "make_server", recording_make_server)
    port = free_port()
    thread = threading.Thread(target=service.serve, args=("bundle", "127.0.0.1", port),
                              daemon=True)
    thread.start()
    try:
        assert entered.wait(10)
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", port), timeout=1).close()
        release.set()
        deadline = time.monotonic() + 10
        while True:  # until the server has bound its port
            try:
                status, _, body = exchange(("127.0.0.1", port), b"GET /healthz HTTP/1.0\r\n\r\n")
                break
            except ConnectionRefusedError:
                assert time.monotonic() < deadline
                time.sleep(0.01)
        assert status == 200
        assert json.loads(body)["status"] == "ok"
    finally:
        release.set()
        for server in servers:
            server.shutdown()
        thread.join(10)
    assert not thread.is_alive()


class TestSearch:
    def test_byte_identical_to_cli_hit_lines(self, served):
        base, bundle = served
        for query in ("Lassitude", "Weariness", "feeling tired", "energy"):
            status, body = get(f"{base}/search?q={urllib.parse.quote(query)}&k=5")
            assert status == 200
            lines = [
                hit_json_line(h)
                for h in store.query_hits(bundle, query, 5, "vector")
            ]
            assert body == "[" + ",".join(lines) + "]"

    def test_bm25_ranker_param(self, served):
        base, bundle = served
        status, body = get(f"{base}/search?q=energy+stamina&k=3&ranker=bm25")
        assert status == 200
        lines = [
            hit_json_line(h)
            for h in store.query_hits(bundle, "energy stamina", 3, "bm25")
        ]
        assert body == "[" + ",".join(lines) + "]"

    def test_k_zero_is_400(self, served):
        base, _ = served
        status, body = get(f"{base}/search?q=x&k=0")
        assert status == 400
        assert json.loads(body)["error"] == "app.UsageError"

    def test_k_not_integer_is_400(self, served):
        base, _ = served
        status, _ = get(f"{base}/search?q=x&k=five")
        assert status == 400

    def test_missing_q_is_400(self, served):
        base, _ = served
        status, _ = get(f"{base}/search?k=3")
        assert status == 400

    def test_unknown_ranker_is_400(self, served):
        base, _ = served
        status, body = get(f"{base}/search?q=x&k=3&ranker=hybrid")
        assert status == 400
        assert json.loads(body)["error"] == "app.UsageError"


class TestConcept:
    def test_known_concept_record(self, served):
        base, _ = served
        status, body = get(f"{base}/concept/asthenia")
        assert status == 200
        record = json.loads(body)
        assert record == {
            "concept_id": "asthenia",
            "labels": ["Asthenia", "Lassitude"],
            "parent_ids": ["fatigue"],
            "child_ids": [],
        }

    def test_unknown_concept_404(self, served):
        base, _ = served
        status, body = get(f"{base}/concept/nope")
        assert status == 404
        assert json.loads(body)["error"] == "ontology.UnknownConceptId"


def test_parents_listed_out_of_order_come_back_ascending(tmp_path):
    """The graph holds each concept's parents in ascending id order, so
    ``/concept`` and the saved ``relations.tsv`` list them so, whatever
    order (and repeats) the relation rows came in."""
    src = tmp_path / "src"
    src.mkdir()
    (src / "c.tsv").write_text("q\tQueue\nz\tZed\nm\tEm\nb\tBee\n", encoding="utf-8")
    (src / "l.tsv").write_text("", encoding="utf-8")
    (src / "r.tsv").write_text("q\tz\nq\tb\nm\tz\nq\tm\nq\tb\n", encoding="utf-8")
    ontology = ["--concepts", str(src / "c.tsv"), "--labels", str(src / "l.tsv"),
                "--relations", str(src / "r.tsv")]
    assert main(["index", *ontology, "--bm25", "--out", str(tmp_path / "index")]) == 0
    assert (tmp_path / "index" / "relations.tsv").read_bytes() == b"m\tz\nq\tb\nq\tm\nq\tz\n"
    service = SearchService(store.load_bundle(tmp_path / "index"))
    assert service.concept_record("q") == {
        "concept_id": "q", "labels": ["Queue"], "parent_ids": ["b", "m", "z"], "child_ids": []}
    assert service.concept_record("z")["child_ids"] == ["m", "q"]


class TestMatch:
    def test_parity_with_store(self, served):
        base, bundle = served
        labels = ["Asthenia", "Lassitude"]
        status, body = post(f"{base}/match", {"labels": labels, "k": 3})
        assert status == 200
        lines = [
            hit_json_line(h) for h in store.match_hits(bundle, labels, 3, "vector")
        ]
        assert body == "[" + ",".join(lines) + "]"

    def test_empty_labels_400(self, served):
        base, _ = served
        status, body = post(f"{base}/match", {"labels": [], "k": 3})
        assert status == 400

    def test_malformed_body_400(self, served):
        base, _ = served
        req = urllib.request.Request(
            f"{base}/match", data=b"{not json", method="POST"
        )
        try:
            with urllib.request.urlopen(req) as resp:
                status = resp.status
        except urllib.error.HTTPError as exc:
            status = exc.code
        assert status == 400

    def test_bad_k_400(self, served):
        base, _ = served
        status, _ = post(f"{base}/match", {"labels": ["x"], "k": 0})
        assert status == 400

    @pytest.mark.parametrize("body", [[1], "labels", 3, None])
    def test_body_not_an_object_400(self, served, body):
        base, _ = served
        status, answer = post(f"{base}/match", body)
        assert status == 400
        assert json.loads(answer)["error"] == "app.UsageError"

    @pytest.mark.parametrize("k", [True, False, 1.5, "3"])
    def test_k_must_be_an_integer_not_a_bool(self, served, k):
        base, _ = served
        status, answer = post(f"{base}/match", {"labels": ["Asthenia"], "k": k})
        assert status == 400
        assert json.loads(answer)["error"] == "app.UsageError"

    def test_unknown_ranker_400(self, served):
        base, _ = served
        status, answer = post(f"{base}/match", {"labels": ["Asthenia"], "ranker": "hybrid"})
        assert status == 400
        assert json.loads(answer)["error"] == "app.UsageError"


@pytest.fixture(scope="module")
def overflow_served(tmp_path_factory):
    """A word-vector index whose ``zzz`` token overflows a query's norm."""
    tmp_path = tmp_path_factory.mktemp("overflow")
    vectors = tmp_path / "v.txt"
    vectors.write_text("zzz 1e308 1e308\nasthenia 1 0\nfatigue 0 1\n", encoding="utf-8")
    assert main(["index", "--concepts", str(FIG / "concepts.tsv"),
                 "--labels", str(FIG / "labels.tsv"), "--relations", str(FIG / "relations.tsv"),
                 "--word-vectors", str(vectors), "--out", str(tmp_path / "index")]) == 0
    server = make_server(SearchService(store.load_bundle(tmp_path / "index")))
    start_in_thread(server)
    host, port = server.socket.getsockname()
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()


@pytest.mark.parametrize("text", ["zzz", "zzz zzz"])
def test_query_whose_embedding_overflows_is_400(overflow_served, text):
    """/search and /match answer 400 naming the query, never a NaN score."""
    for status, answer in (get(f"{overflow_served}/search?{urlencode({'q': text})}"),
                           post(f"{overflow_served}/match", {"labels": ["Asthenia", text]})):
        assert status == 400, answer
        error = json.loads(answer)
        assert error["error"] == "app.UsageError"
        assert repr(text) in error["message"]


def post_raw(base, content_length: str, body: bytes = b""):
    """POST /match with a hand-written Content-Length header."""
    host, port = base.removeprefix("http://").split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=10)
    try:
        conn.putrequest("POST", "/match", skip_accept_encoding=True)
        conn.putheader("Content-Length", content_length)
        conn.endheaders(body or None)
        resp = conn.getresponse()
        return resp.status, resp.will_close, json.loads(resp.read())
    finally:
        conn.close()


class TestContentLength:
    @pytest.mark.parametrize("value", ["abc", "-5", "1.5", "", "0x10", "1_0", "\xb2"])
    def test_not_a_non_negative_integer_is_400(self, served, value):
        base, _ = served
        status, closes, answer = post_raw(base, value)
        assert status == 400
        assert closes
        assert answer["error"] == "app.UsageError"

    @pytest.mark.parametrize("value", [MAX_BODY_BYTES + 1, 10**30])
    def test_above_the_cap_is_413_unread(self, served, value):
        base, _ = served
        # no body follows: the server answers from the header alone
        status, closes, answer = post_raw(base, str(value))
        assert status == 413
        assert closes
        assert answer["error"] == "app.PayloadTooLarge"

    def test_valid_length_still_served(self, served):
        base, _ = served
        body = json.dumps({"labels": ["Asthenia"], "k": 2}).encode("utf-8")
        status, _, answer = post_raw(base, f" {len(body)} ", body)
        assert status == 200
        assert [hit["rank"] for hit in answer] == [1, 2]

    def test_server_survives_bad_lengths(self, served):
        base, _ = served
        for value in ("abc", "-1", str(MAX_BODY_BYTES + 1)):
            post_raw(base, value)
        status, _ = get(f"{base}/healthz")
        assert status == 200


def test_unknown_route_404(served):
    base, _ = served
    status, _ = get(f"{base}/nothing/here")
    assert status == 404


def exchange(address, request: bytes) -> tuple[int, dict, bytes]:
    """Send one raw request and read until the server closes the
    connection: (status, headers, body); status 0 when nothing came back."""
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    if not head:
        return 0, {}, b""
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines)
    return int(status_line.split()[1]), headers, body


@pytest.fixture(scope="module")
def address(served):
    """The address of a service whose reads time out after 0.1 s."""
    _, bundle = served
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(service, "READ_TIMEOUT_S", 0.1)
        server = make_server(SearchService(bundle))
    start_in_thread(server)
    yield server.socket.getsockname()
    server.shutdown()
    server.server_close()


def test_stalled_body_is_408(address):
    # 100 bytes declared, 12 sent, and the connection left open
    status, _, body = exchange(address, b"POST /match HTTP/1.0\r\nContent-Length: 100\r\n\r\n"
                                        b'{"labels": [')
    assert status == 408
    assert json.loads(body)["error"] == "app.RequestTimeout"


def test_stalled_headers_are_408(address):
    # a header line sent, and the blank line that ends the headers never
    status, _, body = exchange(address, b"GET /healthz HTTP/1.0\r\nX-A: 1\r\n")
    assert status == 408
    assert json.loads(body)["error"] == "app.RequestTimeout"


# --- every request is answered -------------------------------------------------------

def readme_statuses() -> set[int]:
    """The statuses in the README's HTTP service table."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## HTTP service\n", 1)[1].split("\n## ", 1)[0]
    return {int(status) for status in re.findall(r"^\| (\d{3}) \|", section, re.MULTILINE)}


# One real request per status the service answers.
STATUS_REQUESTS = {
    200: b"GET /healthz HTTP/1.0\r\n\r\n",
    400: b"GET /search?q=x&k=0 HTTP/1.0\r\n\r\n",
    404: b"GET /nothing/here HTTP/1.0\r\n\r\n",
    408: b"POST /match HTTP/1.0\r\nContent-Length: 100\r\n\r\n{",
    413: f"POST /match HTTP/1.0\r\nContent-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode(),
    414: b"GET /" + b"a" * (1 << 16) + b" HTTP/1.0\r\n\r\n",
    501: b"PUT /match HTTP/1.0\r\n\r\n",
}
DOCUMENTED = set(STATUS_REQUESTS)


@pytest.mark.parametrize("status", sorted(readme_statuses() | DOCUMENTED))
def test_readme_status_table_is_what_the_service_answers(address, status):
    assert status in readme_statuses(), "answered, but missing from the README table"
    assert status in STATUS_REQUESTS, "in the README table, but no request gets it"
    got, headers, body = exchange(address, STATUS_REQUESTS[status])
    assert got == status
    assert headers["Content-Type"] == "application/json; charset=utf-8"
    json.loads(body)


values = st.one_of(st.sampled_from(["1", "3", "0", "-1", "vector", "bm25", "hybrid", "Fatigue"]),
                   st.text(max_size=8))
# mostly the routes served, by the method they serve; also an unknown
# concept, an unknown path, served paths by the other method, and methods
# the service does not implement
routes = st.sampled_from([("POST", "/match")] * 4 + [("GET", "/search")] * 3 + [
    ("GET", "/healthz"), ("GET", "/concept/asthenia"), ("GET", "/concept/" + quote("no such/é")),
    ("POST", "/search"), ("GET", "/match"), ("GET", "/"), ("POST", "/healthz"),
    ("PUT", "/match"), ("DELETE", "/concept/asthenia"), ("PATCH", "/search")])
queries = st.fixed_dictionaries({}, optional={"q": values, "k": values, "ranker": values})
match_bodies = st.fixed_dictionaries({}, optional={
    "labels": st.one_of(st.lists(st.sampled_from(["Fatigue", "Asthenia"]) | st.text(max_size=10),
                                 max_size=3), st.integers()),
    "k": st.one_of(st.integers(-1, 20), st.booleans(), st.text(max_size=3)),
    "ranker": st.sampled_from(["vector", "bm25", "hybrid"]),
}).map(lambda body: json.dumps(body).encode("utf-8"))
lengths = st.one_of(
    st.none(), st.just("exact"), st.integers(0, 64).map(str),
    st.sampled_from([str(MAX_BODY_BYTES), str(MAX_BODY_BYTES + 1), str(10**30)]),
    st.text(alphabet=string.ascii_letters + string.digits + string.punctuation + " ", max_size=6),
)


@settings(max_examples=200, deadline=None)
@example(route=("POST", "/match"), query={}, body=b"{}", length=str(10**30))
@example(route=("POST", "/match"), query={}, body=b"{}", length="64")
# integers past Python's 4,300-digit limit for integer strings
@example(route=("POST", "/match"), query={},
         body=b'{"labels": ["fatigue"], "k": ' + b"9" * 5000 + b"}", length="exact")
@example(route=("POST", "/match"), query={}, body=b"{}", length="9" * 5000)
@example(route=("POST", "/match"), query={}, body=b"{}", length="0" * 5000 + "2")
@example(route=("GET", "/a b c"), query={}, body=b"", length=None)  # 400
@example(route=("GET", "/" + "a" * (1 << 16)), query={}, body=b"", length=None)  # 414
@given(route=routes, query=queries,
       body=st.one_of(match_bodies, st.binary(max_size=48)), length=lengths)
def test_every_request_gets_a_documented_json_answer(address, route, query, body, length):
    method, path = route
    target = f"{path}?{urlencode(query)}" if query else path
    header = "" if length is None else (
        f"Content-Length: {len(body) if length == 'exact' else length}\r\n")
    request = f"{method} {target} HTTP/1.0\r\n{header}\r\n".encode("ascii") + body
    status, headers, answer = exchange(address, request)
    assert status in DOCUMENTED, (status, answer)
    assert headers["Content-Type"] == "application/json; charset=utf-8"
    assert int(headers["Content-Length"]) == len(answer)
    payload = json.loads(answer)
    if status >= 400:
        assert set(payload) == {"error", "message"}


def test_head_gets_headers_only(address):
    status, headers, body = exchange(address, b"HEAD /healthz HTTP/1.0\r\n\r\n")
    assert status == 501
    assert headers["Content-Type"] == "application/json; charset=utf-8"
    assert int(headers["Content-Length"]) > 0 and body == b""
