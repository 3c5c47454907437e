"""Helpers shared by the benchmark workloads: locating the program,
percentiles, digests, peak memory, environment and the result line."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"


class MissingProgram(RuntimeError):
    pass


def require_program() -> None:
    """Put ``src`` on the import path, or fail when the checkout has none."""
    if not (SRC / "ontosearch" / "__init__.py").is_file():
        raise MissingProgram(f"no ontosearch package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def prep(work: Path, seed: int, n_concepts: int, bundle: bool) -> None:
    """Write one seed's inputs (and a prebuilt bundle) under ``work`` in a
    child process, so this process neither pays for nor holds them."""
    subprocess.run([sys.executable, str(Path(__file__).with_name("prep.py")),
                    "--seed", str(seed), "--out", str(work), "--concepts", str(n_concepts)]
                   + (["--bundle"] if bundle else []),
                   check=True, env=child_env())


# --- statistics --------------------------------------------------------------

class InsufficientSamples(ValueError):
    pass


def min_samples(q: float, beyond: int = 10) -> int:
    """Smallest sample count whose nearest-rank ``q`` percentile has at
    least ``beyond`` samples above it."""
    n = 1
    while n - math.ceil(q * n) < beyond:
        n += 1
    return n


def percentile(values, q: float, beyond: int = 10) -> float:
    """Nearest-rank percentile; refuses a tail percentile with fewer than
    ``beyond`` samples above it (the median is exempt)."""
    ordered = sorted(values)
    if not ordered:
        raise InsufficientSamples("no samples")
    if q == 0.5:
        return statistics.median(ordered)
    rank = math.ceil(q * len(ordered))
    if len(ordered) - rank < beyond:
        raise InsufficientSamples(
            f"p{q * 100:g} of {len(ordered)} samples has "
            f"{len(ordered) - rank} beyond it, need {beyond}"
        )
    return ordered[rank - 1]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


class HostProbe:
    """Scales timings to a reference host speed.

    ``probe.py`` runs in a helper process; ``now()`` asks it for one probe
    time.  A timing taken between two probes is multiplied by
    ``REFERENCE_S`` over their mean, which removes the slow-down other
    tenants of the host impose on memory-heavy code at that moment.  The
    slow-down changes within a second, so a workload probes between
    operations, never inside a program call.
    """

    REFERENCE_S = 0.015  # the probe on a quiet 2-vCPU Xeon host

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("probe.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.probes: list[float] = []

    def now(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        value = float(self.proc.stdout.readline())
        self.probes.append(value)
        return value

    def factor(self, before: float, after: float) -> float:
        return self.REFERENCE_S / ((before + after) / 2)

    def run_factor(self) -> float:
        """The factor for the whole run so far, from its median probe.
        Set-up times are scaled by it: a single probe pair is too noisy for
        an operation of well under a second."""
        return self.REFERENCE_S / median(self.probes)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


# --- digests, memory, environment --------------------------------------------

def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def dir_digests(path: Path) -> dict[str, str]:
    return {p.name: sha256_file(p) for p in sorted(path.iterdir()) if p.is_file()}


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def source_digest() -> str:
    """Identity of the program under test, recorded with each result."""
    h = hashlib.sha256()
    for path in sorted((SRC / "ontosearch").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "seed": seed,
        "source": source_digest(),
    }


# --- result ------------------------------------------------------------------

@dataclass
class Result:
    """What one run measured: end-to-end ``metrics`` by name (units are in
    BENCHMARK.json), operation counts, and ``extra`` for the results file."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def fail(self, count: int = 1, why: str | None = None) -> None:
        self.failed += count
        if why:
            self.extra.setdefault("failures", []).append(why)
