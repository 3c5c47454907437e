"""serve-mixed: a closed loop of HTTP clients against a server process.

Two clients (no more than the machine's CPUs) run in lock step: in each
round both send one request of the same kind at once, and the next round
starts when both answers have arrived.  The kinds follow a seeded sequence
of 60% vector search, 25% BM25 search, 10% concept lookup and 5% health
checks; each client has its own texts, half of them repeated from a hot
set.  The server is a child process, so
the clients never hold its interpreter lock.  Latency is client-observed,
per request, connect to last byte.

Between rounds, with no request in flight, the host probe runs
(``common.HostProbe``); a round's latencies and wall time are scaled by
the probes on either side of it.  A free-running loop leaves no such gap,
and its raw timings spread by a fifth between runs.  Set-up is scaled by
the run's median probe (``HostProbe.run_factor``).

Every answer must be 200, a seeded sample of answers must equal the same
requests answered in process, and the bundle's table and rows and the
in-process answers to the first requests of the streams must equal the
pinned ones (``reference``).
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import common
import gen
import reference
import tracing
from common import HostProbe, Result, median, min_samples

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
CHECK_SAMPLE = 40  # responses per client compared with in-process answers
PINNED_STREAMS = 2  # streams whose first PINNED_REQUESTS answers are pinned
PINNED_REQUESTS = 40


@dataclass
class Server:
    proc: subprocess.Popen
    port: int
    result_path: Path
    started_s: float = 0.0

    def stop(self) -> dict:
        self.proc.stdin.close()  # the server interrupts itself at EOF
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        return json.loads(self.result_path.read_text(encoding="utf-8"))


def get(port: int, path: str, request_id: str | None = None) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("GET", path, headers={"X-Request-Id": request_id} if request_id else {})
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def start_server(work: Path, name: str, trace: bool) -> Server:
    """Start a server and wait for its first 200 from /healthz."""
    result_path = work / f"{name}.json"
    cmd = [sys.executable, str(HERE / "server.py"), "--index", str(work / "bundle"),
           "--result", str(result_path)] + (["--trace"] if trace else [])
    with open(work / f"{name}.log", "w", encoding="utf-8") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=log, env=common.child_env(), text=True)
    server = Server(proc, 0, result_path)
    line = proc.stdout.readline()
    if not line.startswith("serving "):
        server.stop()
        raise RuntimeError(f"server did not start: {line!r}; see {name}.log")
    server.port = int(line.rsplit(":", 1)[1])
    while True:
        try:
            status, _ = get(server.port, "/healthz")
        except OSError:
            status = 0
        if status == 200:
            break
        if proc.poll() is not None or time.perf_counter() - t0 > 120:
            server.stop()
            raise RuntimeError("server never became healthy")
        time.sleep(0.002)
    server.started_s = time.perf_counter() - t0
    return server


@dataclass
class Phase:
    """Client records of one closed loop."""

    # per client: (rid, kind, path, latency_s, status, body, scaled latency_s)
    records: list[list] = field(default_factory=list)
    wall_s: float = 0.0
    scaled_wall_s: float = 0.0

    def all(self):
        return [r for client in self.records for r in client]

    def latencies(self, prefix: str, scaled: bool = True) -> list[float]:
        return [r[6] if scaled else r[3] for r in self.all()
                if r[1].startswith(prefix) and r[4] == 200]

    def ok_count(self) -> int:
        return sum(1 for r in self.all() if r[4] == 200)


def round_trip(port: int, streams: list, ids) -> tuple[list[tuple], float]:
    """One round: every client sends its next request at once.  Returns
    one record per client and the wall time until the last answer."""
    records: list = [None] * len(streams)

    def client(i: int) -> None:
        kind, path = streams[i].next()
        rid = str(next(ids))
        sent = time.perf_counter()
        try:
            status, body = get(port, path, rid)
        except OSError as exc:
            status, body = 0, repr(exc).encode()
        records[i] = (rid, kind, path, time.perf_counter() - sent, status, body)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(len(streams))]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return records, time.perf_counter() - t0


def closed_loop(port: int, streams: list, seconds: float, need: dict[str, int],
                probe: HostProbe) -> Phase:
    """Run rounds for ``seconds``, then on until every kind prefix in
    ``need`` has that many answered requests."""
    phase = Phase(records=[[] for _ in streams])
    ids = itertools.count(1)
    counts = dict.fromkeys(need, 0)
    deadline = time.perf_counter() + seconds
    before = probe.now()
    while time.perf_counter() < deadline or any(counts[p] < n for p, n in need.items()):
        records, wall = round_trip(port, streams, ids)
        after = probe.now()
        factor = probe.factor(before, after)
        before = after
        for mine, r in zip(phase.records, records):
            mine.append(r + (r[3] * factor,))
            for prefix in counts:
                counts[prefix] += r[1].startswith(prefix) and r[4] == 200
        phase.wall_s += wall
        phase.scaled_wall_s += wall * factor
    return phase


def in_process(work: Path):
    from ontosearch import service, store

    return service.SearchService(store.load_bundle(work / "bundle"))


def expected_body(svc, path: str) -> bytes:
    """The body the server must send for ``path``, answered in process."""
    from urllib.parse import parse_qs, unquote, urlsplit

    url = urlsplit(path)
    if url.path == "/healthz":
        body = json.dumps(svc.health())
    elif url.path.startswith("/concept/"):
        body = json.dumps(svc.concept_record(unquote(url.path[len("/concept/"):])),
                          ensure_ascii=False)
    else:
        q = parse_qs(url.query, keep_blank_values=True)
        body = svc.hits_array(q["q"][0], int(q["k"][0]), q["ranker"][0])
    return body.encode("utf-8")


def check_responses(svc, phase: Phase, seed: int, result: Result) -> int:
    """Compare a seeded sample of answers byte for byte with the same
    request answered in process; returns the number compared."""
    rng = gen.Rng(seed, 7)
    checked = 0
    for records in phase.records:
        picks = sorted({rng.below(len(records)) for _ in range(CHECK_SAMPLE)}) if records else []
        for i in picks:
            rid, kind, path, _, status, body, _ = records[i]
            if status != 200:
                continue  # already counted as failed
            checked += 1
            if expected_body(svc, path) != body:
                result.fail(why=f"response {rid} {path} differs from in-process answer")
    return checked


def content_digests(svc, seed: int, onto, hot) -> dict[str, str]:
    """What a faster program must keep bit for bit: the bundle's table and
    rows and the answers to the first requests of the streams."""
    streams = [gen.RequestStream(seed, i, onto, hot) for i in range(PINNED_STREAMS)]
    answers = [expected_body(svc, stream.next()[1])
               for stream in streams for _ in range(PINNED_REQUESTS)]
    return {**reference.bundle_digests(svc.bundle),
            "answers": hashlib.sha256(b"\0".join(answers)).hexdigest()}


def reference_digests(work: Path, seed: int, n_concepts: int) -> dict[str, str]:
    """``content_digests`` computed untimed from scratch."""
    common.prep(work, seed, n_concepts, bundle=True)
    onto = gen.generate_ontology(seed, n_concepts)
    hot = json.loads((work / "inputs" / "hot.json").read_text(encoding="utf-8"))
    return content_digests(in_process(work), seed, onto, hot)


def clients() -> int:
    return max(1, min(2, os.cpu_count() or 1))


def serve_phase(work: Path, onto, hot, seed: int, seconds: float, trace: bool,
                need: dict[str, int], name: str, probe: HostProbe) -> tuple[Phase, dict, Server]:
    server = start_server(work, name, trace)
    try:
        streams = [gen.RequestStream(seed, i, onto, hot) for i in range(clients())]
        phase = closed_loop(server.port, streams, seconds, need, probe)
    finally:
        info = server.stop()
    return phase, info, server


def run(work: Path, seed: int, seconds: float, trace: bool, n_concepts: int) -> Result:
    common.prep(work, seed, n_concepts, bundle=True)
    result = Result()
    onto = gen.generate_ontology(seed, n_concepts)
    hot = json.loads((work / "inputs" / "hot.json").read_text(encoding="utf-8"))
    with HostProbe() as probe:
        phase = measure(work, onto, hot, seed, seconds, trace, probe, result)
        result.extra["probe_s"] = median(probe.probes)
    svc = in_process(work)
    check_responses(svc, phase, seed, result)
    digests = result.extra["digests"] = content_digests(svc, seed, onto, hot)
    reference.check("serve-mixed", seed, n_concepts, digests, result, reference_digests)
    return result


def measure(work: Path, onto, hot, seed: int, seconds: float, trace: bool,
            probe: HostProbe, result: Result) -> Phase:
    """Fill ``result``; return the phase whose answers are to be checked."""
    p50_need = {"vector": min_samples(0.5)}
    if not trace:
        setups = []
        for i in range(SETUP_REPEATS - 1):
            server = start_server(work, f"setup{i}", False)
            setups.append(server)
            server.stop()
        phase, info, server = serve_phase(
            work, onto, hot, seed, seconds, False, p50_need, "serve", probe)
        setups.append(server)
        tally(phase, result)
        result.metrics["setup_s"] = median(s.started_s for s in setups) * probe.run_factor()
        result.metrics["latency_ms"] = median(phase.latencies("vector")) * 1e3
        result.metrics["throughput_per_s"] = phase.ok_count() / phase.scaled_wall_s
        result.metrics["rss_mb"] = info["rss_mb"]
        result.extra["raw"] = {
            "setup_s": median(s.started_s for s in setups),
            "latency_ms": median(phase.latencies("vector", scaled=False)) * 1e3,
            "throughput_per_s": phase.ok_count() / phase.wall_s,
        }
        result.extra["samples"] = {"setup": len(setups), "vector": len(phase.latencies("vector")),
                                   "requests": len(phase.all())}
        return phase

    # traced run: an untraced phase, then a traced one on a fresh server
    tail_need = {"vector": min_samples(0.95), "bm25": min_samples(0.95),
                 "healthz": min_samples(0.5), "concept": min_samples(0.5)}
    plain, _, _ = serve_phase(work, onto, hot, seed, seconds, False, tail_need, "plain", probe)
    traced, info, _ = serve_phase(work, onto, hot, seed, seconds, True, p50_need, "traced", probe)
    for phase in (plain, traced):
        tally(phase, result)
    spans = info["spans"]
    metrics = tracing.layer_metrics(spans)
    metrics["service.transport_ms"] = tracing.transport_ms(
        spans, [(r[0], r[3]) for r in traced.all() if r[4] == 200])
    metrics["service.concept_p50_ms"] = median(traced.latencies("concept", scaled=False)) * 1e3
    metrics["service.failed"] = sum(1 for r in traced.all() if r[4] != 200)
    metrics["trace.overhead_pct"] = 100.0 * (
        median(traced.latencies("vector")) / median(plain.latencies("vector")) - 1.0)
    metrics["search_p50_ms"] = median(plain.latencies("vector")) * 1e3
    metrics["search_p95_ms"] = tracing.tail(plain.latencies("vector"), 0.95)
    metrics["bm25_p50_ms"] = median(plain.latencies("bm25")) * 1e3
    metrics["bm25_p95_ms"] = tracing.tail(plain.latencies("bm25"), 0.95)
    metrics["healthz_p50_ms"] = median(plain.latencies("healthz")) * 1e3
    metrics["throughput_rps"] = plain.ok_count() / plain.scaled_wall_s
    result.extra["layers"] = metrics
    result.extra["spans"] = spans
    return traced


def tally(phase: Phase, result: Result) -> None:
    records = phase.all()
    result.attempted += len(records)
    bad = [r for r in records if r[4] != 200]
    if bad:
        result.fail(len(bad), why=f"{len(bad)} requests answered non-200, e.g. {bad[0][2]} -> {bad[0][4]}")
