"""Triplet margin loss, its analytic gradients, and the mini-batch Adam
training loop for the subword encoder.

The loss over one (anchor, positive, negative) triplet of pooled vectors is

    loss = max(|Va - Vp| - |Va - Vn| + margin, 0)

with Euclidean norms.  Training minimises the batch mean; ranking later
uses cosine similarity, which is a deliberate asymmetry, not a bug.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .embedder import SubwordEmbedder, all_finite, pool
from .errors import DimensionMismatch, Diverged, EmptyDataset, UsageError
from .ontology import sorted_unique
from .rng import SplitMix64
from .triplets import TripletDataset

# Below this distance the direction (Va-Vx)/|Va-Vx| is numerically
# meaningless; the subgradient contribution is defined as zero.
_DISTANCE_EPS = 1e-12
# Rows per block of the Adam update: the operands of one block (table rows,
# gradient, both moments, two scratch buffers; 128 KiB each at dim 64) stay
# in cache across the update's dozen elementwise passes.
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


def triplet_loss(va: np.ndarray, vp: np.ndarray, vn: np.ndarray, margin: float = 0.1) -> float:
    va, vp, vn = (np.asarray(v, dtype=np.float64) for v in (va, vp, vn))
    _check_dims(va, vp, vn)
    d_pos = float(np.linalg.norm(va - vp))
    d_neg = float(np.linalg.norm(va - vn))
    return max(d_pos - d_neg + margin, 0.0)


def triplet_loss_gradients(va: np.ndarray, vp: np.ndarray, vn: np.ndarray,
                           margin: float = 0.1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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


def _feature_bags(model: SubwordEmbedder, dataset: TripletDataset) -> dict[int, np.ndarray]:
    """The feature bag of each label ``dataset``'s rows use, by label index."""
    return {i: model.features(dataset.labels[i]) for i in sorted_unique(dataset.rows.ravel()).tolist()}


def _dataset_loss(model: SubwordEmbedder, dataset: TripletDataset,
                  bags: dict[int, np.ndarray], margin: float) -> float:
    total = 0.0
    for row in dataset.rows.tolist():
        va, vp, vn = (pool(model.table, bags[i]) for i in row)
        total += triplet_loss(va, vp, vn, margin)
    return total / len(dataset)


def _block_plans(bags: dict[int, np.ndarray]) -> tuple[np.ndarray, dict]:
    """The rows ``bags`` reach, ascending, and by label its bag as positions
    in them plus its layers: the k-th holds, ascending, each position the
    bag names more than k times, so adding a vector to every layer in turn
    adds it to each row as often, and in the order, that ``np.add.at`` would."""
    sizes = [ids.size for ids in bags.values()]
    reach, at = np.unique(np.concatenate([np.zeros(0, dtype=np.int64), *bags.values()]),
                          return_inverse=True)
    width = max(reach.size, 1)
    # each (bag, position) once, in bag then position order, and its count
    pairs, counts = np.unique(np.repeat(np.arange(len(sizes)), sizes) * width + at,
                              return_counts=True)
    pieces = [(at, sizes)]
    for k in range(counts.max(initial=0)):
        layer = pairs[counts > k]
        pieces.append((layer % width, np.bincount(layer // width, minlength=len(sizes)).tolist()))
    cut = [[values[end - size:end] for size, end in zip(lengths, np.cumsum(lengths).tolist())]
           for values, lengths in pieces]
    return reach, {i: (at, [layer for layer in layers if layer.size])
                   for i, at, *layers in zip(bags, *cut)}


class _Adam:
    """Adam over every row of a table block, ``_ADAM_BLOCK_ROWS`` rows at a
    time, by the textbook update's operations in its order (``m = b1*m +
    (1-b1)*g``, ``v = b2*v + (1-b2)*g*g``, ``table -= (lr * m_hat) /
    (sqrt(v_hat) + eps)``), so bit for bit as the whole-array expressions.
    New rows are computed in scratch and copied in once their arithmetic
    has succeeded, so a step that overflows leaves the table finite."""

    def __init__(self, shape: tuple[int, int]):
        self.m, self.v = np.zeros(shape), np.zeros(shape)
        self._a, self._b = np.empty((2, min(shape[0], _ADAM_BLOCK_ROWS), shape[1]))

    def step(self, table: np.ndarray, grad: np.ndarray, batch: int, step: int, lr: float) -> None:
        """Apply the mean gradient ``grad / batch``, then zero ``grad`` for
        the next batch."""
        c1, c2 = 1.0 - _ADAM_BETA1 ** step, 1.0 - _ADAM_BETA2 ** step
        for lo in range(0, len(table), _ADAM_BLOCK_ROWS):
            rows = slice(lo, lo + _ADAM_BLOCK_ROWS)
            t, g, m, v = table[rows], grad[rows], self.m[rows], self.v[rows]
            a, b = self._a[:len(t)], self._b[:len(t)]
            g /= batch
            m *= _ADAM_BETA1
            m += np.multiply(g, 1.0 - _ADAM_BETA1, out=a)
            v *= _ADAM_BETA2
            v += np.multiply(np.square(g, out=a), 1.0 - _ADAM_BETA2, out=a)
            np.multiply(np.divide(m, c1, out=a), lr, out=a)
            np.sqrt(np.divide(v, c2, out=b), out=b)
            b += _ADAM_EPS
            a /= b
            t[...] = np.subtract(t, a, out=a)
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

    Training runs on a copy of the table rows the training set's bags
    reach, written back after each epoch and on every exit; the gradient
    and Adam's moments have its size.  A non-finite loss, or a step whose
    arithmetic overflows or yields NaN, raises ``train.Diverged`` naming
    the epoch and step; training writes no non-finite value to the table.
    """
    if not len(train_set):
        raise EmptyDataset("training set is empty")
    history = TrainHistory()
    if cfg.epochs == 0:
        return model, history

    rng = SplitMix64(cfg.seed)
    n = len(train_set)
    total_steps = cfg.epochs * math.ceil(n / cfg.batch_size)
    warmup_steps = math.floor(cfg.warmup_fraction * total_steps)

    # Feature bags never change during training; plan each label's once.
    bags = _feature_bags(model, train_set)
    dev_bags = _feature_bags(model, dev_set) if dev_set is not None and len(dev_set) else None
    reach, plans = _block_plans(bags)
    block = model.table[reach]
    adam = _Adam(block.shape)
    grad = np.zeros_like(block)
    step = 0

    def finite(loss: float) -> float:
        if not math.isfinite(loss):
            raise FloatingPointError(f"loss is {loss}")
        return loss

    try:
        # an overflow or NaN anywhere in a step stops training, not just warns
        with np.errstate(over="raise", invalid="raise"):
            for epoch in range(1, cfg.epochs + 1):
                order = array("q", range(n))
                rng.shuffle(order)
                epoch_loss = 0.0
                for lo in range(0, n, cfg.batch_size):
                    step += 1
                    batch = train_set.rows[order[lo:lo + cfg.batch_size]].tolist()
                    for row in batch:
                        triple = [plans[i] for i in row]
                        va, vp, vn = (pool(block, at) for at, _ in triple)
                        epoch_loss += finite(triplet_loss(va, vp, vn, cfg.margin))
                        grads = triplet_loss_gradients(va, vp, vn, cfg.margin)
                        for (at, layers), dv in zip(triple, grads):
                            if layers:
                                w = dv / at.size
                                for layer in layers:
                                    grad[layer] += w

                    lr = cfg.learning_rate
                    if warmup_steps > 0 and step <= warmup_steps:
                        lr *= step / warmup_steps
                    adam.step(block, grad, len(batch), step, lr)

                model.table[reach] = block
                dev_loss = (finite(_dataset_loss(model, dev_set, dev_bags, cfg.margin))
                            if dev_bags is not None else None)
                history.epochs.append(EpochStats(
                    epoch=epoch, train_loss=finite(epoch_loss / n), dev_loss=dev_loss))
        if not all_finite(model.table):
            raise FloatingPointError("the table has non-finite entries")
    except FloatingPointError as exc:
        raise Diverged(f"training diverged at epoch {epoch}, step {step}: {exc}") from None
    finally:
        model.table[reach] = block
    return model, history
