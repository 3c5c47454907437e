import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from synthdata import synthetic_ontology

from ontosearch.embedder import SubwordEmbedder
from ontosearch.errors import DimensionMismatch, Diverged, EmptyDataset
from ontosearch.train import (
    TrainConfig,
    _Adam,
    train,
    triplet_loss,
    triplet_loss_gradients,
)
from ontosearch.rng import SplitMix64
from ontosearch.triplets import TripletDataset, TripletExample, generate_triplets, split_dataset


class TestTripletLoss:
    def test_satisfied_margin_is_zero(self):
        va = np.array([0.0, 0.0])
        vn = np.array([1.0, 0.0])  # |va - vn| = 1
        assert triplet_loss(va, va.copy(), vn, 0.1) == 0.0

    def test_direct_formula(self):
        va = np.array([0.0, 0.0])
        vp = np.array([1.0, 0.0])
        vn = np.array([0.5, 0.0])
        assert triplet_loss(va, vp, vn, 0.1) == pytest.approx(0.6, abs=1e-12)

    def test_anchor_equals_negative(self):
        va = np.array([0.0, 0.0])
        vp = np.array([0.3, 0.0])
        assert triplet_loss(va, vp, va.copy(), 0.1) == pytest.approx(0.4, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            triplet_loss(np.zeros(2), np.zeros(3), np.zeros(2), 0.1)

    @given(
        st.lists(st.floats(-5, 5), min_size=3, max_size=3),
        st.lists(st.floats(-5, 5), min_size=3, max_size=3),
        st.lists(st.floats(-5, 5), min_size=3, max_size=3),
        st.lists(st.floats(-50, 50), min_size=3, max_size=3),
    )
    @settings(max_examples=80)
    def test_nonnegative_and_translation_invariant(self, a, p, n, shift):
        va, vp, vn = np.array(a), np.array(p), np.array(n)
        c = np.array(shift)
        loss = triplet_loss(va, vp, vn, 0.1)
        assert loss >= 0.0
        shifted = triplet_loss(va + c, vp + c, vn + c, 0.1)
        assert shifted == pytest.approx(loss, rel=1e-9, abs=1e-9)

    def test_zero_iff_margin_met(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            va, vp, vn = rng.normal(size=(3, 4))
            loss = triplet_loss(va, vp, vn, 0.1)
            gap = np.linalg.norm(va - vn) - np.linalg.norm(va - vp)
            assert (loss == 0.0) == (gap >= 0.1 - 1e-15)


class TestGradients:
    def test_flat_region_all_zero(self):
        va = np.array([0.0, 0.0])
        vn = np.array([5.0, 0.0])
        grads = triplet_loss_gradients(va, va.copy(), vn, 0.1)
        for g in grads:
            np.testing.assert_array_equal(g, np.zeros(2))

    def test_coincident_anchor_positive_uses_subgradient(self):
        va = np.array([1.0, 2.0])
        vn = np.array([1.05, 2.0])  # close enough that loss > 0
        d_va, d_vp, d_vn = triplet_loss_gradients(va, va.copy(), vn, 0.1)
        np.testing.assert_array_equal(d_vp, np.zeros(2))
        expected_dn = (va - vn) / np.linalg.norm(va - vn)
        np.testing.assert_allclose(d_vn, expected_dn)
        np.testing.assert_allclose(d_va, -d_vn)

    def test_gradient_sum_is_zero_in_active_region(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            va, vp, vn = rng.normal(size=(3, 6))
            d_va, d_vp, d_vn = triplet_loss_gradients(va, vp, vn, 2.0)
            np.testing.assert_allclose(d_va + d_vp + d_vn, np.zeros(6), atol=1e-12)

    def test_matches_central_finite_differences(self):
        # independent oracle: numerically differentiate the loss itself
        rng = np.random.default_rng(42)
        h = 1e-4
        margin = 0.1
        checked = 0
        while checked < 100:
            va, vp, vn = rng.normal(size=(3, 8))
            loss = triplet_loss(va, vp, vn, margin)
            d_pos = np.linalg.norm(va - vp)
            d_neg = np.linalg.norm(va - vn)
            if loss <= 1e-3 or d_pos <= 1e-3 or d_neg <= 1e-3:
                continue
            analytic = triplet_loss_gradients(va, vp, vn, margin)
            vectors = [va.copy(), vp.copy(), vn.copy()]
            for which in range(3):
                numeric = np.zeros(8)
                for i in range(8):
                    bumped = [v.copy() for v in vectors]
                    bumped[which][i] += h
                    up = triplet_loss(*bumped, margin)
                    bumped[which][i] -= 2 * h
                    down = triplet_loss(*bumped, margin)
                    numeric[i] = (up - down) / (2 * h)
                scale = max(np.abs(analytic[which]).max(), 1e-8)
                rel = np.abs(analytic[which] - numeric).max() / scale
                assert rel < 1e-4
            checked += 1


def training_inputs(seed=0):
    graph = synthetic_ontology(5, 10, 2)
    dataset = generate_triplets(graph, seed=seed)
    return split_dataset(dataset, seed=seed)


class TestTrainingLoop:
    def test_loss_decreases_on_synthetic_ontology(self):
        train_set, dev_set, _ = training_inputs()
        cfg = TrainConfig(learning_rate=1e-3, seed=0)
        model = SubwordEmbedder(bucket_count=2048, dim=32, seed=0)
        _, history = train(model, train_set, dev_set, cfg)
        assert len(history) == 5
        assert history.epochs[-1].train_loss < history.epochs[0].train_loss
        assert history.epochs[-1].dev_loss is not None

    def test_zero_epochs_is_noop(self):
        train_set, _, _ = training_inputs()
        model = SubwordEmbedder(bucket_count=256, dim=8, seed=1)
        before = model.table.copy()
        _, history = train(model, train_set, None, TrainConfig(epochs=0))
        np.testing.assert_array_equal(model.table, before)
        assert len(history) == 0

    def test_same_seed_bitwise_identical(self):
        train_set, dev_set, _ = training_inputs()
        cfg = TrainConfig(learning_rate=1e-3, epochs=2, seed=7)
        tables = []
        for _ in range(2):
            model = SubwordEmbedder(bucket_count=512, dim=16, seed=7)
            train(model, train_set, dev_set, cfg)
            tables.append(model.table.copy())
        assert np.array_equal(tables[0], tables[1])

    def test_empty_train_set_rejected(self):
        with pytest.raises(EmptyDataset):
            train(
                SubwordEmbedder(bucket_count=64, dim=4),
                TripletDataset([], seed=0),
                None,
                TrainConfig(),
            )

    def test_zero_learning_rate_changes_nothing(self):
        train_set, _, _ = training_inputs()
        model = SubwordEmbedder(bucket_count=256, dim=8, seed=2)
        before = model.table.copy()
        train(model, train_set, None, TrainConfig(learning_rate=0.0, epochs=1))
        np.testing.assert_array_equal(model.table, before)

    def test_warmup_fraction_changes_trajectory(self):
        train_set, _, _ = training_inputs()
        tables = {}
        for warmup in (0.0, 0.5):
            model = SubwordEmbedder(bucket_count=256, dim=8, seed=3)
            train(
                model, train_set, None,
                TrainConfig(learning_rate=1e-3, epochs=1, warmup_fraction=warmup,
                            seed=3),
            )
            tables[warmup] = model.table.copy()
        assert not np.array_equal(tables[0.0], tables[0.5])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(margin=0.0)
        with pytest.raises(ValueError):
            TrainConfig(warmup_fraction=1.5)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)

    def test_overflowing_step_is_one_coded_error(self):
        train_set, _, _ = training_inputs()
        model = SubwordEmbedder(bucket_count=256, dim=8, seed=4)
        with pytest.raises(Diverged, match=r"epoch 1, step \d+: "):
            train(model, train_set, None,
                  TrainConfig(learning_rate=1e308, epochs=1, warmup_fraction=0.0))


def signed_zeros(rng, values):
    """``values`` with about a fifth of its entries set to +0.0 and a fifth
    to -0.0."""
    pick = rng.random(values.shape)
    values[pick < 0.2] = 0.0
    values[pick > 0.8] = -0.0
    return values


def dense_adam_run(table, grads, batch, lr):
    """The textbook Adam over every row of the table, as whole-array
    expressions; the bytes of the table, m and v."""
    table = table.copy()
    m, v = np.zeros_like(table), np.zeros_like(table)
    for number, grad in enumerate(grads, start=1):
        g = grad / batch
        m = m * 0.9 + g * (1.0 - 0.9)
        v = v * 0.999 + np.square(g) * (1.0 - 0.999)
        m_hat, v_hat = m / (1.0 - 0.9 ** number), v / (1.0 - 0.999 ** number)
        table -= (m_hat * lr) / (np.sqrt(v_hat) + 1e-8)
    return table.tobytes(), m.tobytes(), v.tobytes()


def adam_run(table, grads, batch, lr):
    """Run ``_Adam.step`` over ``grads``; the bytes of the table, m and v."""
    table = table.copy()
    adam = _Adam(table.shape)
    for number, grad in enumerate(grads, start=1):
        grad = grad.copy()
        adam.step(table, grad, batch, number, lr)
        assert not grad.any()
    return table.tobytes(), adam.m.tobytes(), adam.v.tobytes()


class TestAdamBlock:
    @given(
        rows=st.integers(0, 700),
        dim=st.integers(1, 9),
        # the share of rows each step's gradient reaches, from none to all
        shares=st.lists(st.sampled_from([0.0, 0.05, 0.3, 0.6, 1.0]),
                        min_size=1, max_size=30),
        batch=st.integers(1, 40),
        lr=st.sampled_from([0.0, 1e-3, 0.5, 7.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_step_equals_dense_step(self, rows, dim, shares, batch, lr, seed):
        """Stepping the block, ``_ADAM_BLOCK_ROWS`` rows at a time, leaves
        the table, m and v with the bytes of the whole-array textbook
        update; rows no gradient has reached yet are stepped too."""
        rng = np.random.default_rng(seed)
        table = signed_zeros(rng, rng.normal(size=(rows, dim)))
        grads = []
        for share in shares:
            grad = np.zeros((rows, dim))
            reached = rng.random(rows) < share
            grad[reached] = signed_zeros(rng, rng.normal(size=(reached.sum(), dim)))
            grads.append(grad)
        assert adam_run(table, grads, batch, lr) == dense_adam_run(table, grads, batch, lr)

    def test_never_touched_row_keeps_its_bits(self):
        """A row no feature bag of the training set reaches keeps its bits,
        and Adam's state covers the reached rows only."""
        train_set, dev_set, _ = training_inputs()
        model = SubwordEmbedder(bucket_count=4096, dim=4, seed=8)
        texts = {train_set.labels[i] for i in np.unique(train_set.rows).tolist()}
        reach = np.unique(np.concatenate([model.features(t) for t in texts]))
        untouched = np.setdiff1d(np.arange(4096), reach)[:3]
        assert untouched.size == 3
        model.table[untouched] = [[-0.0] * 4, [5e-324, -5e-324, 0.0, -0.0], [1e300] * 4]
        before = model.table[untouched].tobytes()
        adams = []
        init = _Adam.__init__

        def recording_init(self, shape):
            adams.append(self)
            init(self, shape)

        with mock.patch.object(_Adam, "__init__", recording_init):
            train(model, train_set, dev_set,
                  TrainConfig(learning_rate=1e-2, epochs=2, batch_size=4, seed=8))
        assert model.table[untouched].tobytes() == before
        (adam,) = adams
        assert adam.m.shape == adam.v.shape == (reach.size, 4)

    def test_no_state_the_size_of_the_table(self):
        """The gradient and both moments have the size of the reached rows,
        not of the table: training a 4 MB table on a small set allocates a
        small fraction of that."""
        train_set, dev_set, _ = training_inputs()
        model = SubwordEmbedder(bucket_count=1 << 16, dim=8, seed=9)
        cfg = TrainConfig(learning_rate=1e-2, epochs=2, batch_size=4, seed=9)
        tracemalloc.start()
        try:
            train(model, train_set, dev_set, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < model.table.nbytes / 8

    def test_overflowing_step_leaves_the_block_as_it_was(self):
        """An overflow in the last operation of a step raises before any
        row of its block is written."""
        table = np.array([[1.7e308, 0.5], [-1.0, 2.0]])
        before = table.tobytes()
        grad = np.array([[-1.0, 1.0], [1.0, 1.0]])  # a step of about +1e308 for row 0
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            _Adam(table.shape).step(table, grad, 1, 1, 1e308)
        assert table.tobytes() == before


def divergence_model(labels):
    """A one-column table whose rows for ``labels`` hold the given values;
    each one-letter label's feature bag is one row named twice."""
    model = SubwordEmbedder(bucket_count=4096, dim=1, seed=0)
    rows = {label: model.features(label) for label in labels}
    assert all(ids.size == 2 and ids[0] == ids[1] for ids in rows.values())
    assert len({int(ids[0]) for ids in rows.values()}) == len(labels)
    for label, value in labels.items():
        model.table[rows[label][0]] = value
    return model


def test_overflow_inside_a_step_keeps_the_completed_steps():
    """Warm-up doubles the learning rate, to the largest float, from the
    first step to the second, and the second overflows inside Adam
    (``lr * m_hat`` at the anchor row, whose gradient is 2).  ``Diverged``
    names that step, and the table holds the first step's update and
    nothing of the second, every entry finite."""
    values = {"a": 0.0, "b": -0.1, "c": 0.15, "d": 0.0, "e": 0.1, "f": 0.15}
    first, second = TripletExample("d", "e", "f"), TripletExample("a", "b", "c")
    lr = np.finfo(np.float64).max
    cfg = TrainConfig(learning_rate=lr, epochs=1, batch_size=1, warmup_fraction=1.0, seed=3)
    order = [0, 1]
    SplitMix64(cfg.seed).shuffle(order)
    entries = [first, second] if order == [0, 1] else [second, first]
    expected = divergence_model(values)
    train(expected, TripletDataset([first], seed=0), None,
          TrainConfig(learning_rate=lr / 2, epochs=1, batch_size=1, warmup_fraction=0.0))
    assert np.isfinite(expected.table).all()
    assert expected.table.tobytes() != divergence_model(values).table.tobytes()

    model = divergence_model(values)
    with pytest.raises(Diverged, match=r"epoch 1, step 2: overflow"):
        train(model, TripletDataset(entries, seed=0), None, cfg)
    assert np.isfinite(model.table).all()
    assert model.table.tobytes() == expected.table.tobytes()
