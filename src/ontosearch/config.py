"""Pipeline configuration file: flat ``section.key = value`` lines.

A config file supplies defaults for CLI flags; explicit flags always win.
The format is deliberately trivial (one assignment per line, ``#``
comments, UTF-8) and round-trips through load/save.

Recognised keys and the flags they feed:

    paths.concepts / paths.labels / paths.relations   --concepts/--labels/--relations
    paths.stopwords                                   --stopwords
    paths.out                                         --out
    train.dim train.buckets train.epochs train.batch  train flags
    train.lr train.margin train.warmup                train flags
    ranker.k                                          query/match --k
    ranker.k1 ranker.b                                index --k1/--b
    serve.bind                                        serve --bind
    seeds.triplets seeds.train                        --seed of those commands
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import UsageError
from .npzio import read_lines

_KNOWN_KEYS = {
    "paths.concepts": str,
    "paths.labels": str,
    "paths.relations": str,
    "paths.stopwords": str,
    "paths.out": str,
    "train.dim": int,
    "train.buckets": int,
    "train.epochs": int,
    "train.batch": int,
    "train.lr": float,
    "train.margin": float,
    "train.warmup": float,
    "ranker.k": int,
    "ranker.k1": float,
    "ranker.b": float,
    "serve.bind": str,
    "seeds.triplets": int,
    "seeds.train": int,
}

# flag destination <- config key, per subcommand
_COMMAND_KEYS = {
    "ingest": {
        "concepts": "paths.concepts",
        "labels": "paths.labels",
        "relations": "paths.relations",
    },
    "triplets": {
        "concepts": "paths.concepts",
        "labels": "paths.labels",
        "relations": "paths.relations",
        "out": "paths.out",
        "seed": "seeds.triplets",
    },
    "train": {
        "dim": "train.dim",
        "buckets": "train.buckets",
        "epochs": "train.epochs",
        "batch": "train.batch",
        "lr": "train.lr",
        "margin": "train.margin",
        "warmup": "train.warmup",
        "seed": "seeds.train",
        "out": "paths.out",
    },
    "index": {
        "concepts": "paths.concepts",
        "labels": "paths.labels",
        "relations": "paths.relations",
        "stopwords": "paths.stopwords",
        "k1": "ranker.k1",
        "b": "ranker.b",
        "out": "paths.out",
    },
    "query": {"k": "ranker.k"},
    "match": {"k": "ranker.k"},
    "eval": {"stopwords": "paths.stopwords"},
    "serve": {"bind": "serve.bind"},
}

_PATH_KEYS = {
    "paths.concepts",
    "paths.labels",
    "paths.relations",
    "paths.stopwords",
}


@dataclass
class PipelineConfig:
    """Typed view over a flat config file."""

    values: dict[str, object] = field(default_factory=dict)

    @classmethod
    def load(cls, path: str | Path) -> "PipelineConfig":
        values: dict[str, object] = {}
        path = Path(path)
        for lineno, line in read_lines(path):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(
                    f"{path}:{lineno}: expected 'section.key = value'"
                )
            key, _, raw = line.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key not in _KNOWN_KEYS:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = _KNOWN_KEYS[key](raw)
            except ValueError:
                raise UsageError(
                    f"{path}:{lineno}: bad value {raw!r} for {key!r}"
                ) from None
        return cls(values)

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for key in sorted(self.values):
                fh.write(f"{key} = {self.values[key]}\n")

    def defaults_for(self, command: str) -> dict[str, object]:
        """Flag defaults this config contributes to one subcommand."""
        out = {}
        for dest, key in _COMMAND_KEYS.get(command, {}).items():
            if key in self.values:
                out[dest] = self.values[key]
        return out

    def check_paths(self, command: str) -> None:
        """Referenced input paths must exist when the command starts."""
        for dest, key in _COMMAND_KEYS.get(command, {}).items():
            if key in _PATH_KEYS and key in self.values:
                if not Path(str(self.values[key])).exists():
                    raise UsageError(
                        f"config path {key} = {self.values[key]} does not exist"
                    )
