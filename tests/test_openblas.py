"""The OpenBLAS thread timeout that importing ontosearch sets: it stops
idle BLAS workers from spinning and moves no score bit.

Each case runs in a child process, since OpenBLAS reads the variable
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


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS runs one thread")
@pytest.mark.skipif("openblas" not in blas_name().lower(), reason="numpy's BLAS is not OpenBLAS")
def test_idle_process_does_not_spin():
    """Scores 5 ms apart, about 10% of the time in the product: with
    OpenBLAS's own timeout an idle worker polls through the gaps and the
    process uses over one CPU-second per second."""
    assert float(run_child(IDLE)) < 0.6
