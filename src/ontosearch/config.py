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

# key -> the subcommands whose flag it feeds.  The flag is the key's name
# after its section, except that seeds.* keys feed --seed.
_KEYS = {
    "paths.concepts": ("ingest", "triplets", "index"),
    "paths.labels": ("ingest", "triplets", "index"),
    "paths.relations": ("ingest", "triplets", "index"),
    "paths.stopwords": ("index", "eval"),
    "paths.out": ("triplets", "train", "index"),
    "train.dim": ("train",),
    "train.buckets": ("train",),
    "train.epochs": ("train",),
    "train.batch": ("train",),
    "train.lr": ("train",),
    "train.margin": ("train",),
    "train.warmup": ("train",),
    "ranker.k": ("query", "match"),
    "ranker.k1": ("index",),
    "ranker.b": ("index",),
    "serve.bind": ("serve",),
    "seeds.triplets": ("triplets",),
    "seeds.train": ("train",),
}


def _flag(key: str) -> str:
    section, _, name = key.partition(".")
    return "seed" if section == "seeds" else name


@dataclass
class PipelineConfig:
    """A flat config file's values, as written; argparse types them."""

    values: dict[str, str] = field(default_factory=dict)

    @classmethod
    def load(cls, path: str | Path) -> "PipelineConfig":
        values: dict[str, str] = {}
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
            if key not in _KEYS:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = raw.strip()
        return cls(values)

    def defaults_for(self, command: str) -> dict[str, str]:
        """Flag defaults this config contributes to one subcommand."""
        return {_flag(key): self.values[key] for key, commands in _KEYS.items()
                if command in commands and key in self.values}
