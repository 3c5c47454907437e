"""``train`` against a reference trainer: the earlier loop, which pooled from
the whole table, added each bag's gradient with ``np.add.at`` and ran Adam
over the live rows of table-sized gradient and moments, gathering them into
scratch and scattering them back.  Training must reproduce its table and
its history byte for byte."""

import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ontosearch.embedder import SubwordEmbedder
from ontosearch.errors import Diverged
from ontosearch.rng import SplitMix64
from ontosearch.train import TrainConfig, train, triplet_loss, triplet_loss_gradients
from ontosearch.triplets import TripletDataset, TripletExample


def reference_pool(table, ids):
    if ids.size == 0:
        return np.zeros(table.shape[1], dtype=np.float64)
    return table[ids].mean(axis=0)


def reference_bags(model, dataset):
    return {i: model.features(dataset.labels[i]) for i in np.unique(dataset.rows).tolist()}


def reference_dataset_loss(model, dataset, bags, margin):
    total = 0.0
    for row in dataset.rows.tolist():
        va, vp, vn = (reference_pool(model.table, bags[i]) for i in row)
        total += triplet_loss(va, vp, vn, margin)
    return total / len(dataset)


class ReferenceAdam:
    """Adam over the live rows, 256 rows at a time, gathered and scattered."""

    def __init__(self, shape):
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        rows = min(shape[0], 256)
        self._a, self._b, self._g, self._m, self._v, self._t = (
            np.empty((rows, shape[1])) for _ in range(6))

    def step(self, table, grad, live, batch, step, lr):
        c1, c2 = 1.0 - 0.9 ** step, 1.0 - 0.999 ** step
        ids = np.flatnonzero(live)
        for lo in range(0, ids.size, 256):
            rows = ids[lo:lo + 256]
            n = rows.size
            a, b = self._a[:n], self._b[:n]
            t, g, m, v = self._t[:n], self._g[:n], self._m[:n], self._v[:n]
            for full, part in ((table, t), (grad, g), (self.m, m), (self.v, v)):
                np.take(full, rows, axis=0, out=part)
            g /= batch
            m *= 0.9
            np.multiply(g, 1.0 - 0.9, out=a)
            m += a
            v *= 0.999
            np.square(g, out=a)
            a *= 1.0 - 0.999
            v += a
            np.divide(m, c1, out=a)
            a *= lr
            np.divide(v, c2, out=b)
            np.sqrt(b, out=b)
            b += 1e-8
            a /= b
            t -= a
            table[rows], self.m[rows], self.v[rows] = t, m, v
            grad[rows] = 0.0


def reference_train(model, train_set, dev_set, cfg):
    history = []
    if cfg.epochs == 0:
        return history
    rng = SplitMix64(cfg.seed)
    rows = train_set.rows.tolist()
    n = len(rows)
    n_batches = math.ceil(n / cfg.batch_size)
    total_steps = cfg.epochs * n_batches
    warmup_steps = math.floor(cfg.warmup_fraction * total_steps)
    adam = ReferenceAdam(model.table.shape)
    grad = np.zeros_like(model.table)
    live = np.zeros(model.table.shape[0], dtype=bool)
    step = 0
    bags = reference_bags(model, train_set)
    dev_bags = reference_bags(model, dev_set) if dev_set is not None and len(dev_set) else None

    def finite(loss):
        if not math.isfinite(loss):
            raise FloatingPointError(f"loss is {loss}")
        return loss

    try:
        with np.errstate(over="raise", invalid="raise"):
            for epoch in range(1, cfg.epochs + 1):
                order = list(range(n))
                rng.shuffle(order)
                epoch_loss = 0.0
                for b in range(n_batches):
                    step += 1
                    batch = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
                    for idx in batch:
                        fa, fp, fn = (bags[i] for i in rows[idx])
                        va, vp, vn = (reference_pool(model.table, f) for f in (fa, fp, fn))
                        epoch_loss += finite(triplet_loss(va, vp, vn, cfg.margin))
                        d_va, d_vp, d_vn = triplet_loss_gradients(va, vp, vn, cfg.margin)
                        for ids, dv in ((fa, d_va), (fp, d_vp), (fn, d_vn)):
                            if ids.size:
                                np.add.at(grad, ids, dv / ids.size)
                                live[ids] = True
                    lr = cfg.learning_rate
                    if warmup_steps > 0 and step <= warmup_steps:
                        lr *= step / warmup_steps
                    adam.step(model.table, grad, live, len(batch), step, lr)
                dev_loss = (finite(reference_dataset_loss(model, dev_set, dev_bags, cfg.margin))
                            if dev_bags is not None else None)
                history.append((epoch, finite(epoch_loss / n), dev_loss))
    except FloatingPointError as exc:
        raise Diverged(f"training diverged at epoch {epoch}, step {step}: {exc}") from None
    return history


def float_bits(value):
    return None if value is None else struct.pack("<d", value)


# Repeated tokens give bags that name a row more than once, punctuation
# gives empty bags, and short words share grams.
LABELS = ["pain", "pain pain", "chest pain", "head", "headache", "a", "a a a",
          "ab", "--", "!!", "aches and pains", "x"]
triples = st.lists(
    st.builds(TripletExample, *(st.sampled_from(LABELS) for _ in range(3))),
    min_size=1, max_size=40)


@given(
    entries=triples,
    dev_entries=st.one_of(st.none(), triples),
    bucket_count=st.sampled_from([7, 64, 1000]),
    dim=st.integers(1, 6),
    table_seed=st.integers(0, 2**32 - 1),
    epochs=st.integers(1, 3),
    batch_size=st.integers(1, 8),
    learning_rate=st.sampled_from([1e-3, 0.05, 0.5]),
    warmup_fraction=st.sampled_from([0.0, 0.3, 1.0]),
    margin=st.sampled_from([0.1, 1.0]),
    seed=st.integers(-(2**63), 2**64 - 1),
)
@settings(max_examples=120, deadline=None)
def test_train_equals_the_reference_trainer(entries, dev_entries, bucket_count, dim, table_seed,
                                            epochs, batch_size, learning_rate, warmup_fraction,
                                            margin, seed):
    rng = np.random.default_rng(table_seed)
    table = rng.normal(scale=0.3, size=(bucket_count, dim))
    pick = rng.random(table.shape)
    table[pick < 0.15] = 0.0
    table[pick > 0.85] = -0.0
    train_set = TripletDataset(entries, seed=0)
    dev_set = None if dev_entries is None else TripletDataset(dev_entries, seed=0)
    cfg = TrainConfig(margin=margin, epochs=epochs, batch_size=batch_size,
                      learning_rate=learning_rate, warmup_fraction=warmup_fraction, seed=seed)

    outcomes = []
    for run in (train, reference_train):
        model = SubwordEmbedder(bucket_count=bucket_count, dim=dim, table=table.copy())
        try:
            result = run(model, train_set, dev_set, cfg)
        except Diverged as exc:
            result = str(exc)
        if run is train and not isinstance(result, str):
            result = [(e.epoch, e.train_loss, e.dev_loss) for e in result[1].epochs]
        if not isinstance(result, str):
            result = [(epoch, float_bits(loss), float_bits(dev)) for epoch, loss, dev in result]
        outcomes.append((model.table.tobytes(), result))
    assert outcomes[0] == outcomes[1]
