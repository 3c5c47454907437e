"""Triplet margin loss, its analytic gradients, and the mini-batch Adam
training loop for the subword encoder.

The loss over one (anchor, positive, negative) triplet of pooled vectors is

    loss = max(|Va - Vp| - |Va - Vn| + margin, 0)

with Euclidean norms.  Training minimises the batch mean; ranking later
uses cosine similarity, which is a deliberate asymmetry, not a bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .embedder import SubwordEmbedder
from .errors import DimensionMismatch, EmptyDataset, UsageError
from .rng import SplitMix64
from .triplets import TripletDataset

# Below this distance the direction (Va-Vx)/|Va-Vx| is numerically
# meaningless; the subgradient contribution is defined as zero.
_DISTANCE_EPS = 1e-12
# Rows per block of the Adam update: the operands of one block (gradient,
# both moments, table rows, two scratch buffers; 128 KiB each at dim 64)
# stay in cache across the update's dozen elementwise passes.
_ADAM_BLOCK_ROWS = 256
# Adam's moment decay rates and denominator guard, the textbook defaults.
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    """Hyperparameters of the triplet training loop.

    The 2e-5 learning rate is the transformer-scale default; toy-scale
    experiments on the subword encoder want something like 1e-3.
    """

    margin: float = 0.1
    epochs: int = 5
    batch_size: int = 32
    learning_rate: float = 2e-5
    warmup_fraction: float = 0.10
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.margin < math.inf:
            raise UsageError("margin must be positive and finite")
        if not 0.0 <= self.learning_rate < math.inf:
            raise UsageError("learning_rate must be finite and >= 0")
        if not 0.0 <= self.warmup_fraction <= 1.0:
            raise UsageError("warmup_fraction must lie in [0, 1]")
        if self.epochs < 0:
            raise UsageError("epochs must be non-negative")
        if self.batch_size < 1:
            raise UsageError("batch_size must be >= 1")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    dev_loss: float | None


@dataclass
class TrainHistory:
    epochs: list[EpochStats] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.epochs)


def _check_dims(*vectors: np.ndarray) -> None:
    shapes = {v.shape for v in vectors}
    if len(shapes) != 1:
        raise DimensionMismatch(f"triplet vectors differ in shape: {shapes}")


def triplet_loss(
    va: np.ndarray, vp: np.ndarray, vn: np.ndarray, margin: float = 0.1
) -> float:
    va, vp, vn = (np.asarray(v, dtype=np.float64) for v in (va, vp, vn))
    _check_dims(va, vp, vn)
    d_pos = float(np.linalg.norm(va - vp))
    d_neg = float(np.linalg.norm(va - vn))
    return max(d_pos - d_neg + margin, 0.0)


def triplet_loss_gradients(
    va: np.ndarray, vp: np.ndarray, vn: np.ndarray, margin: float = 0.1
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of the loss w.r.t. the three pooled vectors.

    In the flat region (loss == 0) all three are zero; a distance below
    1e-12 contributes zero (the subgradient at the non-differentiable
    point).
    """
    va, vp, vn = (np.asarray(v, dtype=np.float64) for v in (va, vp, vn))
    _check_dims(va, vp, vn)
    diff_p = va - vp
    diff_n = va - vn
    d_pos = float(np.linalg.norm(diff_p))
    d_neg = float(np.linalg.norm(diff_n))
    zero = np.zeros_like(va)
    if d_pos - d_neg + margin <= 0.0:
        return zero, zero.copy(), zero.copy()
    d_vp = -diff_p / d_pos if d_pos >= _DISTANCE_EPS else zero.copy()
    d_vn = diff_n / d_neg if d_neg >= _DISTANCE_EPS else zero.copy()
    d_va = -d_vp - d_vn
    return d_va, d_vp, d_vn


def _dataset_loss(model: SubwordEmbedder, dataset: TripletDataset, margin: float) -> float:
    total = 0.0
    for entry in dataset.entries:
        total += triplet_loss(
            model.embed(entry.anchor),
            model.embed(entry.positive),
            model.embed(entry.negative),
            margin,
        )
    return total / len(dataset.entries)


class _Adam:
    """Dense Adam over the whole table, run one block of rows at a time
    into scratch buffers allocated once.

    Per element it performs the operations of the textbook update in the
    same order -- ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g``, then
    ``table -= (lr * m_hat) / (sqrt(v_hat) + eps)`` -- so the result is bit
    for bit that of the whole-array expressions.
    """

    def __init__(self, shape: tuple[int, int]):
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        rows = min(shape[0], _ADAM_BLOCK_ROWS)
        self._a = np.empty((rows, shape[1]))
        self._b = np.empty((rows, shape[1]))

    def step(self, table: np.ndarray, grad: np.ndarray, batch: int,
             step: int, lr: float) -> None:
        """Apply the mean gradient ``grad / batch``, then zero ``grad`` for
        the next batch."""
        b1, b2 = _ADAM_BETA1, _ADAM_BETA2
        c1, c2 = 1.0 - b1 ** step, 1.0 - b2 ** step
        for lo in range(0, table.shape[0], _ADAM_BLOCK_ROWS):
            rows = slice(lo, lo + _ADAM_BLOCK_ROWS)
            g, m, v = grad[rows], self.m[rows], self.v[rows]
            a, b = self._a[:len(g)], self._b[:len(g)]
            g /= batch
            m *= b1
            np.multiply(g, 1.0 - b1, out=a)
            m += a
            v *= b2
            np.square(g, out=a)
            a *= 1.0 - b2
            v += a
            np.divide(m, c1, out=a)
            a *= lr
            np.divide(v, c2, out=b)
            np.sqrt(b, out=b)
            b += _ADAM_EPS
            a /= b
            table[rows] -= a
            g.fill(0.0)


def train(
    model: SubwordEmbedder,
    train_set: TripletDataset,
    dev_set: TripletDataset | None = None,
    cfg: TrainConfig = TrainConfig(),
) -> tuple[SubwordEmbedder, TrainHistory]:
    """Run mini-batch Adam over the embedding table, in place.

    Pooled-vector gradients route back to each touched table row as
    (pooled gradient / feature count of that text); the batch gradient is
    the mean over its examples.  The learning rate ramps linearly from 0
    over the first ``warmup_fraction`` of all steps, then stays constant.
    Per-epoch mean train loss and dev loss land in the returned history.
    Everything is deterministic given ``cfg.seed``.
    """
    if not train_set.entries:
        raise EmptyDataset("training set is empty")
    history = TrainHistory()
    if cfg.epochs == 0:
        return model, history

    rng = SplitMix64(cfg.seed)
    n = len(train_set.entries)
    n_batches = math.ceil(n / cfg.batch_size)
    total_steps = cfg.epochs * n_batches
    warmup_steps = math.floor(cfg.warmup_fraction * total_steps)

    adam = _Adam(model.table.shape)
    grad = np.zeros_like(model.table)
    step = 0

    # Feature bags never change during training; compute each text's once.
    bags: dict[str, np.ndarray] = {}
    for entry in train_set.entries:
        for text in (entry.anchor, entry.positive, entry.negative):
            if text not in bags:
                bags[text] = model.features(text)

    for epoch in range(1, cfg.epochs + 1):
        order = list(range(n))
        rng.shuffle(order)
        epoch_loss = 0.0
        for b in range(n_batches):
            batch = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
            for idx in batch:
                entry = train_set.entries[idx]
                fa = bags[entry.anchor]
                fp = bags[entry.positive]
                fn = bags[entry.negative]
                va = model.table[fa].mean(axis=0) if fa.size else np.zeros(model.dim)
                vp = model.table[fp].mean(axis=0) if fp.size else np.zeros(model.dim)
                vn = model.table[fn].mean(axis=0) if fn.size else np.zeros(model.dim)
                epoch_loss += triplet_loss(va, vp, vn, cfg.margin)
                d_va, d_vp, d_vn = triplet_loss_gradients(va, vp, vn, cfg.margin)
                for ids, dv in ((fa, d_va), (fp, d_vp), (fn, d_vn)):
                    if ids.size:
                        np.add.at(grad, ids, dv / ids.size)

            step += 1
            lr = cfg.learning_rate
            if warmup_steps > 0 and step <= warmup_steps:
                lr *= step / warmup_steps
            adam.step(model.table, grad, len(batch), step, lr)

        dev_loss = None
        if dev_set is not None and dev_set.entries:
            dev_loss = _dataset_loss(model, dev_set, cfg.margin)
        history.epochs.append(
            EpochStats(epoch=epoch, train_loss=epoch_loss / n, dev_loss=dev_loss)
        )
    return model, history
