"""OpenBLAS settings against the vector scores: the thread timeout that
importing ontosearch sets stops idle BLAS workers from spinning and moves
no score bit, and the thread count moves none either.

Each case runs in a child process, since OpenBLAS reads the variables
once, when numpy loads it; this process has loaded it long ago.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from test_cli import package_env

# A seeded 31,114 x 64 unit-row index (the size of the benchmark's), large
# enough for OpenBLAS to split the matrix-vector product over its threads.
INDEX = """
import ontosearch
import numpy as np
from ontosearch.ontology import Concept, OntologyGraph
from ontosearch.ranker import VectorIndex
rng = np.random.default_rng(0)
rows = rng.standard_normal((31114, 64))
rows /= np.linalg.norm(rows, axis=1, keepdims=True)
ids = [f"c{i:05d}" for i in range(len(rows))]
index = VectorIndex(OntologyGraph(Concept(id=i, labels=(i,)) for i in ids), rows)
queries = rng.standard_normal((5, 64))
"""

DIGEST = INDEX + """
import hashlib
print(hashlib.sha256(b"".join(index.score(q).tobytes() for q in queries)).hexdigest())
"""

# index.score and one plain ``rows @ q`` over indexes whose row counts leave
# 0, 1 and 31 rows past a multiple of 32, and one under 32 rows
THREADS = """
import hashlib
import ontosearch
import numpy as np
from ontosearch.ontology import Concept, OntologyGraph
from ontosearch.ranker import VectorIndex
rng = np.random.default_rng(1)
base = rng.standard_normal((31105, 64))
base /= np.linalg.norm(base, axis=1, keepdims=True)
queries = rng.standard_normal((5, 64))
ours, plain = hashlib.sha256(), hashlib.sha256()
for n in (31104, 31105, 31103, 20):
    rows = base[:n]
    graph = OntologyGraph(Concept(id=f"c{i:05d}", labels=("x",)) for i in range(n))
    index = VectorIndex(graph, rows)
    for q in queries:
        ours.update(index.score(q).tobytes())
        plain.update(np.clip(rows @ (q / np.linalg.norm(q)), -1.0, 1.0).tobytes())
print(ours.hexdigest(), plain.hexdigest())
"""

IDLE = INDEX + """
import resource, time
index.score(queries[0])
def cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime
cpu, wall = cpu_s(), time.perf_counter()
for _ in range(40):
    index.score(queries[0])
    time.sleep(0.005)
print((cpu_s() - cpu) / (time.perf_counter() - wall))
"""


def run_child(script: str, **env: str) -> str:
    """stdout of ``script`` in a child process whose environment holds
    ``env`` and no OPENBLAS_THREAD_TIMEOUT apart from one given there
    (this process's import of ontosearch has set one)."""
    child_env = package_env()
    child_env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            check=True, env={**child_env, **env})
    return result.stdout.strip()


def blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy < 1.26 has no mode
        return "unknown"


@pytest.mark.parametrize("env, expected", [({}, "4"), ({"OPENBLAS_THREAD_TIMEOUT": "28"}, "28")])
def test_import_sets_the_default_and_keeps_an_explicit_value(env, expected):
    script = "import ontosearch, os; print(os.environ['OPENBLAS_THREAD_TIMEOUT'])"
    assert run_child(script, **env) == expected


def test_default_moves_no_score_bit():
    """Two threads score every row to the same bits whether an idle worker
    sleeps at once (the default) or polls for 2**28 cycles (OpenBLAS's)."""
    ours = run_child(DIGEST, OPENBLAS_NUM_THREADS="2")
    theirs = run_child(DIGEST, OPENBLAS_NUM_THREADS="2", OPENBLAS_THREAD_TIMEOUT="28")
    assert ours == theirs


def test_scores_equal_a_one_thread_product_at_any_thread_count():
    """One and two threads give every row the bits of one plain product
    on one thread, with 0, 1 or 31 rows past the last multiple of 32 and
    under 32 rows; a plain product on two threads rounds some rows
    otherwise, where a thread's share ends off a 4-row kernel block."""
    one = run_child(THREADS, OPENBLAS_NUM_THREADS="1").split()
    two = run_child(THREADS, OPENBLAS_NUM_THREADS="2").split()
    assert one[0] == one[1] == two[0]


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS runs one thread")
@pytest.mark.skipif("openblas" not in blas_name().lower(), reason="numpy's BLAS is not OpenBLAS")
def test_idle_process_does_not_spin():
    """Scores 5 ms apart, about 10% of the time in the product: with
    OpenBLAS's own timeout an idle worker polls through the gaps and the
    process uses over one CPU-second per second."""
    assert float(run_child(IDLE)) < 0.6
