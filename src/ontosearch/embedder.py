"""Text encoders: every encoder maps a string to a fixed-dimension vector
by mean pooling, and the resulting vectors are ranked by cosine similarity.

Three implementations share the contract:

* ``SubwordEmbedder`` -- a trainable bag of hashed subword features
  (whole tokens plus character 3..5-grams, padded with ``<`` ``>``), the
  desk-scale trainable model of this package;
* ``StaticWordVectors`` -- mean of pre-trained per-token vectors, the
  word-vector-averaging baseline;
* ``PrecomputedEncoder`` -- exact full-string lookup, the adapter through
  which externally computed sentence vectors enter the system.

The two keyed encoders store one form: ``index`` maps a token or text to its
row of ``table``, one 2-D matrix of the rows in the order and dtype given.
Precomputed ``embed`` returns a copy of the row, its exact bits.
"""

from __future__ import annotations

import hashlib
import logging
import re
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatch,
    InconsistentDimension,
    MalformedLine,
    MissingEmbedding,
    OutOfMemory,
    UsageError,
)
from .npzio import decoding, read_lines, save_arrays
from .rng import fnv1a64, uniform_array

logger = logging.getLogger(__name__)

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
_ZERO_NORM_EPS = 1e-12
# Distinct tokens whose bucket ids a SubwordEmbedder keeps; past this, new
# tokens are hashed on every use, so a long-running service stays bounded.
TOKEN_MEMO_CAP = 1 << 16


def all_finite(array: np.ndarray) -> bool:
    """No NaN or infinity in ``array``: its min and max carry any, with no
    temporary the size of the array."""
    return bool(np.isfinite([array.min(initial=0.0), array.max(initial=0.0)]).all())


def pool(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Mean of the rows ``ids`` of ``table``; the zero vector when there are
    none.  The rows are added one after another and the sum divided by their
    count, as ``table[ids].mean(axis=0)`` does, so the bits are the same."""
    if ids.size == 0:
        return np.zeros(table.shape[1], dtype=np.float64)
    return np.add.reduce(table.take(ids, axis=0), axis=0) / ids.size


def tokenize(text: str) -> list[str]:
    """Lowercase and split on any non-alphanumeric character.

    No stop-word removal happens here; callers that need it filter the
    returned tokens.
    """
    return _TOKEN_RE.findall(text.lower())


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    """u.v / (|u||v|), defined as 0.0 when either norm is below 1e-12."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise DimensionMismatch(f"vector shapes differ: {u.shape} vs {v.shape}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu < _ZERO_NORM_EPS or nv < _ZERO_NORM_EPS:
        return 0.0
    return float(min(1.0, max(-1.0, float(np.dot(u, v)) / (nu * nv))))


class SubwordEmbedder:
    """Hashed-subword bag encoder with a trainable embedding table.

    Features of a token are the padded whole token ``<token>`` plus every
    character n-gram of the padded form for n in [ngram_min, ngram_max],
    kept as a bag (duplicates count).  Each feature indexes the table via
    64-bit FNV-1a over its UTF-8 bytes, modulo ``bucket_count``.  A text
    embeds to the mean of its feature rows; no features gives the zero
    vector.  The table initialises uniformly in [-0.5/dim, 0.5/dim] from
    ``seed``, drawn row-major from one SplitMix64 stream.
    """

    kind = "subword"

    def __init__(
        self,
        bucket_count: int = 32768,
        dim: int = 64,
        ngram_min: int = 3,
        ngram_max: int = 5,
        seed: int = 0,
        table: np.ndarray | None = None,
    ):
        if bucket_count < 1:
            raise UsageError("bucket_count must be >= 1")
        if dim < 1:
            raise UsageError("dim must be >= 1")
        if ngram_min < 1 or ngram_max < ngram_min:
            raise UsageError("require 1 <= ngram_min <= ngram_max")
        self.bucket_count = bucket_count
        self.dim = dim
        self.ngram_min = ngram_min
        self.ngram_max = ngram_max
        self.seed = seed
        if table is None:
            if bucket_count * dim > np.iinfo(np.intp).max // 8:  # 8 bytes a float
                raise OutOfMemory(f"a {bucket_count} x {dim} table is past numpy's size limit")
            scale = 0.5 / dim
            table = uniform_array(seed, bucket_count * dim, -scale, scale)
            table = table.reshape(bucket_count, dim)
        else:
            table = np.asarray(table, dtype=np.float64)
            if table.shape != (bucket_count, dim):
                raise UsageError(f"table shape {table.shape} != ({bucket_count}, {dim})")
            if not all_finite(table):
                raise UsageError("embedding table has non-finite entries")
        self.table = table
        # token -> its bucket ids; entries never change once written, so
        # concurrent readers need no lock
        self._token_memo: dict[str, np.ndarray] = {}

    def _token_ids(self, token: str) -> np.ndarray:
        ids = self._token_memo.get(token)
        if ids is not None:
            return ids
        padded = f"<{token}>"
        grams = [padded]
        for n in range(self.ngram_min, self.ngram_max + 1):
            grams.extend(padded[i:i + n] for i in range(len(padded) - n + 1))
        ids = np.array(
            [fnv1a64(gram.encode("utf-8")) % self.bucket_count for gram in grams],
            dtype=np.int64,
        )
        ids.flags.writeable = False
        if len(self._token_memo) < TOKEN_MEMO_CAP:
            self._token_memo[token] = ids
        return ids

    def features(self, text: str) -> np.ndarray:
        """Bucket ids of the feature bag of ``text``: the concatenation of
        the bucket ids of its tokens, which are memoised per token."""
        parts = [self._token_ids(token) for token in tokenize(text)]
        if not parts:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(parts)

    def embed(self, text: str) -> np.ndarray:
        return pool(self.table, self.features(text))

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(
            f"subword:{self.bucket_count}:{self.dim}:"
            f"{self.ngram_min}:{self.ngram_max}:{self.seed}:".encode()
        )
        h.update(np.ascontiguousarray(self.table))  # hashed in place: no copy of the table
        return h.hexdigest()


class _KeyedEncoder:
    """One vector per key: ``index`` maps a key to its row of ``table``.  A
    subclass names its ``kind`` and ``keys_name``, its keys' container array.
    A key may not end in NUL, which ``save_encoder`` could not store."""

    def __init__(self, vectors: dict[str, np.ndarray], dim: int):
        if dim < 1:
            raise UsageError("dim must be >= 1")
        self.dim = dim
        nul = next((key for key in vectors if key.endswith("\0")), None)
        if nul is not None:  # the encoder file's string array would drop it
            raise UsageError(f"key {nul!r} ends in NUL")
        self.index = {key: row for row, key in enumerate(vectors)}
        self.table = np.array(list(vectors.values())) if vectors else np.zeros((0, dim))
        if self.table.shape[1:] != (dim,):
            raise UsageError(f"vectors of shape {self.table.shape[1:]}, expected ({dim},)")

    def fingerprint(self) -> str:
        """sha256 over the kind, the shape and every (key, vector) in key order."""
        h = hashlib.sha256()
        h.update(f"{self.kind}:{self.dim}:{len(self.index)}:".encode())
        for key in sorted(self.index):
            h.update(key.encode("utf-8") + b"\x00")
            h.update(self.table[self.index[key]])  # a row of a C-order matrix: contiguous
        return h.hexdigest()


class StaticWordVectors(_KeyedEncoder):
    """Mean of known token vectors; unknown tokens are skipped and a text
    with no known tokens embeds to the zero vector."""

    kind = "wordvec"
    keys_name = "tokens"

    def embed(self, text: str) -> np.ndarray:
        ids = [self.index[t] for t in tokenize(text) if t in self.index]
        return pool(self.table, np.array(ids, dtype=np.int64))


class PrecomputedEncoder(_KeyedEncoder):
    """Exact-string lookup over externally computed vectors."""

    kind = "precomputed"
    keys_name = "texts"

    def embed(self, text: str) -> np.ndarray:
        try:
            return self.table[self.index[text]].copy()
        except KeyError:
            raise MissingEmbedding(f"no precomputed embedding for {text!r}") from None


Encoder = SubwordEmbedder | StaticWordVectors | PrecomputedEncoder


# --- loading the two file-backed encoders -------------------------------------

def _read_vectors(path: Path, rows: Iterable[tuple[int, str, list[str]]]
                  ) -> tuple[dict[str, np.ndarray], int]:
    """``({key: vector}, dim)`` from ``(lineno, key, fields)`` rows, each
    format's line syntax already applied.  Components must be finite
    numbers, every row as wide as the first, and a repeated key keeps its
    last vector, with a logged warning.  A key may not end in NUL: the
    encoder file's string array drops trailing NULs."""
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    for lineno, key, fields in rows:
        if key.endswith("\0"):
            raise MalformedLine(f"{path}:{lineno}: key ends in NUL")
        try:
            vec = np.asarray([float(x) for x in fields], dtype=np.float64)
        except ValueError:
            raise MalformedLine(f"{path}:{lineno}: non-numeric vector component") from None
        if not vec.size:
            raise MalformedLine(f"{path}:{lineno}: no vector components")
        if not np.isfinite(vec).all():
            raise MalformedLine(f"{path}:{lineno}: non-finite vector component")
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            raise InconsistentDimension(f"{path}:{lineno}: dimension {vec.size} != {dim}")
        if key in vectors:
            logger.warning("duplicate vector for %r at %s:%d, last wins", key, path, lineno)
        vectors[key] = vec
    if dim is None:
        raise MalformedLine(f"{path}: no vector rows")
    return vectors, dim


def load_word_vectors(path: str | Path) -> StaticWordVectors:
    """Read the word-vector text format: an optional ``N d`` header line,
    then ``token v1 .. vd`` space-separated rows."""
    path = Path(path)

    def rows():
        for lineno, line in read_lines(path):
            fields = line.split()
            if not fields:
                continue
            if lineno == 1 and len(fields) == 2:
                try:
                    int(fields[0]), int(fields[1])
                    continue  # header line
                except ValueError:
                    pass
            if len(fields) < 2:
                raise MalformedLine(f"{path}:{lineno}: expected 'token v1 .. vd'")
            yield lineno, fields[0], fields[1:]

    return StaticWordVectors(*_read_vectors(path, rows()))


def load_precomputed(path: str | Path) -> PrecomputedEncoder:
    """Read the precomputed-embedding TSV: ``text <TAB> v1 v2 .. vd``."""
    path = Path(path)

    def rows():
        for lineno, line in read_lines(path):
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise MalformedLine(f"{path}:{lineno}: expected 'text<TAB>v1 v2 .. vd'")
            yield lineno, parts[0], parts[1].split()

    return PrecomputedEncoder(*_read_vectors(path, rows()))


# --- encoder container (versioned, bitwise round trip) ------------------------

_CONTAINER_VERSION = 1


def save_encoder(encoder: Encoder, path: str | Path) -> None:
    """Persist any encoder to a single ``.npz`` container; no dim is stored."""
    meta = dict(version=_CONTAINER_VERSION, kind=encoder.kind)
    if isinstance(encoder, SubwordEmbedder):
        if not -(1 << 63) <= encoder.seed < 1 << 64:  # stored as a 64-bit integer
            raise UsageError(f"seed {encoder.seed} cannot be saved: "
                             "an encoder file stores a seed in [-2**63, 2**64)")
        save_arrays(
            path,
            **meta,
            ngram_min=encoder.ngram_min,
            ngram_max=encoder.ngram_max,
            seed=encoder.seed,
            table=encoder.table,
        )
    else:
        keys = np.asarray(list(encoder.index), dtype=np.str_)
        save_arrays(path, **meta, **{encoder.keys_name: keys}, matrix=encoder.table)


def _two_d(data, name: str) -> np.ndarray:
    """Array ``name``, refused unless 2-D: its shape alone records the encoder's dim."""
    array = data[name]
    if array.ndim != 2:
        raise MalformedLine(f"{name} of shape {array.shape}, expected 2-D")
    return array


_KEYED = {cls.kind: cls for cls in (StaticWordVectors, PrecomputedEncoder)}


def load_encoder(path: str | Path) -> Encoder:
    with decoding(path, "encoder file"), open(path, "rb") as fh, \
            np.load(fh, allow_pickle=False) as data:
        version = int(data["version"])
        if version != _CONTAINER_VERSION:
            raise MalformedLine(f"unsupported container version {version}")
        kind = str(data["kind"])
        if kind == "subword":  # the constructor refuses a table that is not finite
            table = _two_d(data, "table")
            return SubwordEmbedder(
                *table.shape,  # bucket_count, dim
                ngram_min=int(data["ngram_min"]),
                ngram_max=int(data["ngram_max"]),
                seed=int(data["seed"]),
                table=table,
            )
        if kind not in _KEYED:
            raise MalformedLine(f"unknown encoder kind {kind!r}")
        cls = _KEYED[kind]
        matrix, keys = _two_d(data, "matrix"), data[cls.keys_name]
        if keys.shape != matrix.shape[:1]:
            raise MalformedLine(f"{keys.shape} keys for a matrix of shape {matrix.shape}")
        if not all_finite(matrix):
            raise MalformedLine("matrix holds NaN or infinite values")
        # the loaded matrix itself becomes the table, copied only when it is
        # not C-ordered, so the rows are held once
        encoder = cls({}, matrix.shape[1])
        encoder.index = {key: row for row, key in enumerate(keys.astype(str).tolist())}
        if len(encoder.index) != len(keys):
            raise MalformedLine(f"{cls.keys_name} repeat a key")
        encoder.table = np.ascontiguousarray(matrix)
        return encoder
