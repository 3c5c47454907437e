"""Host-speed probe: times a fixed memory-bound task on request.

Other tenants of a shared host slow memory-heavy code for stretches of
seconds to minutes.  The task here -- dictionary lookups in shuffled order
over 40,000 keys, then a sum over 16 MB of floats -- slows in step with
the program's own memory-heavy work, so timings taken between probes can
be scaled to a reference host speed (``common.HostProbe``).  It runs in
its own process so its memory never counts against the program.

Protocol: each line read from stdin is answered with one line holding the
time the task took, in seconds.
"""

import random
import sys
import time

import numpy as np


def main() -> None:
    keys = [f"key{i}" for i in range(40_000)]
    table = {key: i for i, key in enumerate(keys)}
    order = keys[:]
    random.Random(0).shuffle(order)
    floats = np.arange(2_000_000, dtype=np.float64)

    def task() -> float:
        t0 = time.perf_counter()
        total = 0
        for key in order:
            total += table[key]
        floats.sum()
        return time.perf_counter() - t0

    for _ in sys.stdin:
        print(task(), flush=True)


if __name__ == "__main__":
    main()
