"""Pipeline configuration file: flat ``section.key = value`` lines.

A config file's values act as CLI flags ahead of the command line's own,
so explicit flags always win, and a value is checked only by the command
that uses it, as its flag would be.  The format is deliberately trivial
(one assignment per line, ``#`` comments, UTF-8).

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

# key -> (value type, the subcommands whose flag it feeds).  The flag is
# the key's name after its section, except that seeds.* keys feed --seed.
_KEYS = {
    "paths.concepts": (str, ("ingest", "triplets", "index")),
    "paths.labels": (str, ("ingest", "triplets", "index")),
    "paths.relations": (str, ("ingest", "triplets", "index")),
    "paths.stopwords": (str, ("index", "eval")),
    "paths.out": (str, ("triplets", "train", "index")),
    "train.dim": (int, ("train",)),
    "train.buckets": (int, ("train",)),
    "train.epochs": (int, ("train",)),
    "train.batch": (int, ("train",)),
    "train.lr": (float, ("train",)),
    "train.margin": (float, ("train",)),
    "train.warmup": (float, ("train",)),
    "ranker.k": (int, ("query", "match")),
    "ranker.k1": (float, ("index",)),
    "ranker.b": (float, ("index",)),
    "serve.bind": (str, ("serve",)),
    "seeds.triplets": (int, ("triplets",)),
    "seeds.train": (int, ("train",)),
}


def _flag(key: str) -> str:
    section, _, name = key.partition(".")
    return "seed" if section == "seeds" else name


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
            if key not in _KEYS:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = _KEYS[key][0](raw)
            except ValueError:
                raise UsageError(
                    f"{path}:{lineno}: bad value {raw!r} for {key!r}"
                ) from None
        return cls(values)

    def defaults_for(self, command: str) -> dict[str, object]:
        """Flag defaults this config contributes to one subcommand."""
        return {_flag(key): self.values[key] for key, (_, commands) in _KEYS.items()
                if command in commands and key in self.values}
