"""Digests of the program's output pinned in the repository, and the
check of a run against them.

``reference.json`` holds, per workload and per key ``<seed>-<concepts>``,
sha256 digests of content that a faster program must keep bit for bit:
the trained embedding table and vector rows (build-pipeline), the
prebuilt bundle's table and rows with the eval report aggregates and
per-query rows (match-eval), or with the in-process answers to the first
requests of the request streams (serve-mixed).  File bytes are not
pinned, so a change of storage format alone does not fail a run.

A run whose key is pinned compares the digests it computed while it
measured.  A run whose key is not pinned computes the digests of the
``CANARY`` key from scratch, off the timed path, and compares those, so
every run checks the program against output pinned from the code the
benchmark was defined on.  A change that moves these bytes on purpose
re-pins, and says why:

    python3 perfbench/reference.py --seeds 0-49 --concepts 10000 \
        --workload serve-mixed --workload match-eval
    python3 perfbench/reference.py --seeds 0-49 --concepts 2500 --workload build-pipeline
    python3 perfbench/reference.py --seeds 0,3 --concepts 300
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

import common

REFERENCE = Path(__file__).with_name("reference.json")
CANARY = (0, 300)  # (seed, concepts): small enough to rebuild in seconds


def array_digest(array) -> str:
    """Digest of an array's dtype, shape and values."""
    import numpy as np

    array = np.ascontiguousarray(array)
    h = hashlib.sha256(f"{array.dtype.str}{array.shape}".encode())
    h.update(memoryview(array).cast("B"))  # no copy of the array
    return h.hexdigest()


def text_digest(value) -> str:
    return common.sha256_text(value if isinstance(value, str) else repr(value))


def bundle_digests(bundle) -> dict[str, str]:
    """The prebuilt bundle's embedding table and vector rows."""
    return {"encoder.table": array_digest(bundle.encoder.table),
            "vector.rows": array_digest(bundle.vector.rows)}


def key(seed: int, n_concepts: int) -> str:
    return f"{seed}-{n_concepts}"


def pinned() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def check(workload: str, seed: int, n_concepts: int, digests: dict, result,
          compute) -> None:
    """Count a failure for each digest that differs from the pinned one.

    ``compute(work, seed, n_concepts)`` returns the workload's digests from
    scratch; it runs for the canary when ``seed``/``n_concepts`` is not
    pinned."""
    table = pinned().get(workload, {})
    used = key(seed, n_concepts)
    if used not in table:
        used = key(*CANARY)
        work = common.WORK / "work" / f"canary-{workload}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        try:
            digests = compute(work, *CANARY)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    result.extra["reference"] = used
    expected = table.get(used)
    if expected is None:
        result.fail(why=f"no pinned digests for {workload} {used}")
        return
    differing = sorted(k for k in expected.keys() | digests.keys()
                       if expected.get(k) != digests.get(k))
    if differing:
        result.fail(len(differing), why=f"{workload} {used}: digests differ from "
                                        f"the pinned ones: {', '.join(differing)}")


def _seeds(spec: str) -> list[int]:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description="Pin the digests of seeds.")
    parser.add_argument("--seeds", type=_seeds, required=True, help="e.g. 0-49 or 0,3")
    parser.add_argument("--concepts", type=int, required=True)
    parser.add_argument("--workload", action="append",
                        help="pin only this workload (repeatable)")
    args = parser.parse_args()
    common.require_program()
    import run

    table = pinned() if REFERENCE.exists() else {}
    for name in args.workload or run.WORKLOADS:
        compute = run.workload_module(name).reference_digests
        for seed in args.seeds:
            work = common.WORK / "work" / f"pin-{name}-{seed}-{os.getpid()}"
            shutil.rmtree(work, ignore_errors=True)
            try:
                digests = compute(work, seed, args.concepts)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            table.setdefault(name, {})[key(seed, args.concepts)] = digests
            print(name, key(seed, args.concepts), file=sys.stderr, flush=True)
            # written after every seed, so an interrupted pin keeps its work
            REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")


if __name__ == "__main__":
    main()
