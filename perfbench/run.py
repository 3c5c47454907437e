"""Benchmark of ontosearch: one workload per run, from a seed.

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; it imports the program from ``src``.
Inputs come from ``gen.py`` and depend on the seed alone.  The last stdout
line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the latter holding every end-to-end metric of BENCHMARK.json
with ``--trace 0`` and every per-layer metric with ``--trace 1``.  The
line before it, and ``.perfbench/results/``, hold the environment, the
digests checked against ``reference.json``, raw (unscaled) figures and the
sample counts; a traced run also writes its spans to
``.perfbench/results/``.  METRICS.md defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

import common

WORKLOADS = ("serve-mixed", "match-eval", "build-pipeline")


def workload_module(name: str):
    import build_pipeline
    import match_eval
    import serve_mixed

    return {"serve-mixed": serve_mixed, "match-eval": match_eval,
            "build-pipeline": build_pipeline}[name]


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--concepts", type=int, default=None,
                        help="ontology size (default: the workload's own, "
                             "10,000 or build-pipeline's 2,500)")
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    # on SIGTERM unwind through the ``finally`` blocks that stop servers
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        common.require_program()
    except common.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import gen

    work = common.WORK / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    module = workload_module(args.workload)
    n_concepts = args.concepts or getattr(module, "N_CONCEPTS", gen.N_CONCEPTS)
    try:
        # a traced run measures an untraced and a traced phase, half the run each
        seconds = args.seconds / 2 if trace else args.seconds
        result = module.run(work, args.seed, seconds, trace, n_concepts)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = result.extra.pop("layers") if trace else result.metrics
    metrics = {}
    for spec in declared_metrics(trace):
        # a layer the workload never enters did no work
        value = values.get(spec["name"], 0.0) if trace else values[spec["name"]]
        metrics[spec["name"]] = {"value": float(value), "unit": spec["unit"]}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = common.WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    spans = result.extra.pop("spans", None)
    if spans is not None:
        with open(results / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "environment": common.environment(args.seed),
        **result.extra,
        "metrics": metrics,
    }
    (results / f"{stem}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(json.dumps({k: v for k, v in report.items() if k != "metrics"}))
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
