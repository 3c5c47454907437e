"""Serve a bundle through ``ontosearch.service.serve`` in its own process,
optionally with spans recorded, until interrupted with SIGINT or until
its stdin closes (so it never outlives the benchmark that started it).

    python3 perfbench/server.py --index DIR --result FILE [--trace]

``serve`` prints the bound address on its first stdout line.  On exit
FILE receives {"rss_mb": peak resident memory, "spans": [...]}.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
from pathlib import Path

import common


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--index", required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    common.require_program()
    from ontosearch import service

    # a shell that starts the benchmark in the background ignores SIGINT,
    # and Python keeps an inherited "ignore"
    signal.signal(signal.SIGINT, signal.default_int_handler)

    def interrupt_on_eof():
        sys.stdin.read()
        os.kill(os.getpid(), signal.SIGINT)

    threading.Thread(target=interrupt_on_eof, daemon=True).start()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    try:
        service.serve(args.index, "127.0.0.1", 0)
    finally:
        args.result.write_text(json.dumps({
            "rss_mb": common.peak_rss_mb(),
            "spans": tracer.records() if tracer else [],
        }), encoding="utf-8")


if __name__ == "__main__":
    main()
