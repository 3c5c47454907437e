"""Pinned bits of the write path: the seeded table init and training.

The digests were taken from the scalar reference code (a SplitMix64 draw
per table element, one FNV-1a hash per subword gram, one whole-table Adam
update per step).  Any faster path must reproduce them bit for bit.
"""

import hashlib

import numpy as np
import pytest
from synthdata import synthetic_ontology

from ontosearch.embedder import SubwordEmbedder
from ontosearch.rng import SplitMix64
from ontosearch.train import TrainConfig, train
from ontosearch.triplets import generate_triplets, split_dataset


def array_digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


SEEDS = (0, -3, 2**64 - 5, 2**70 + 1)
SHAPES = ((1, 1), (1024, 16), (32768, 64))

# sha256 of SubwordEmbedder(bucket_count=rows, dim=dim, seed=seed).table
TABLE_DIGESTS = {
    (0, (1, 1)): "bad4978e9fa9383c239d7cebe951b8e195288873f677dda55a5a522cd219b961",
    (0, (1024, 16)): "057070aee69087452692dc9a4af80d65b6ed8c3b8f6c30e6b9c8513e2faf58f8",
    (0, (32768, 64)): "2a12d4bfe1fe6ebafc61149c66f63728436a165f81ad5e0ecb5cbae0a29174fb",
    (-3, (1, 1)): "e1b332f8782866d3c90cd85b4775c27cf579a912b7e4ae42540c15d85954e9d1",
    (-3, (1024, 16)): "4ab955251584b5c394e46c80ee8ebdc8495d41e1493b7a60ba4db8312e14ef07",
    (-3, (32768, 64)): "040873748c84f47c3bb09fea5d147c9507e596cd104a2d714b88f8f8fd7ff2e2",
    (2**64 - 5, (1, 1)): "01ea0ac1091cdea79b20836221bf30fd490d6754ec22f28bd7c39deddf265962",
    (2**64 - 5, (1024, 16)): "0204b4594c0c8f7f2d4f7d8d39f7c2e1b90c7b6dd16d488e4c6faf218bae8a8c",
    (2**64 - 5, (32768, 64)): "f630bf6c21924e9e9f1307d71cc754dd13e0478556c7079cf02cf798e3bbe82e",
    (2**70 + 1, (1, 1)): "e99c64c837f67cdb8529eb15ff4b674a1c1e3ba06beb34c13f50a55dba6b198c",
    (2**70 + 1, (1024, 16)): "278bf8d5252bc11ea61c84cc8e173c3ffeb369aea56f376160a955d85baeaa97",
    (2**70 + 1, (32768, 64)): "1f7c6c7062386dcaaf13dc0ae187dfd6387922ce874289f03df20f9ced1a5ab3",
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_table_init_digest(seed, shape):
    table = SubwordEmbedder(bucket_count=shape[0], dim=shape[1], seed=seed).table
    assert table.shape == shape and table.dtype == np.float64
    assert array_digest(table) == TABLE_DIGESTS[(seed, shape)]


@pytest.mark.parametrize("seed", (*SEEDS, 1, 2**63))
def test_table_init_matches_scalar_stream(seed):
    rows, dim = 37, 5
    scale = 0.5 / dim
    rng = SplitMix64(seed)
    expected = [rng.uniform(-scale, scale) for _ in range(rows * dim)]
    table = SubwordEmbedder(bucket_count=rows, dim=dim, seed=seed).table
    assert table.ravel().tolist() == expected


# name -> (SubwordEmbedder kwargs, TrainConfig kwargs, train with the dev set)
TRAIN_CASES = {
    # 64 rows for a few hundred distinct grams: most rows are shared
    "collisions": (dict(bucket_count=64, dim=8, seed=5),
                   dict(epochs=2, batch_size=8, learning_rate=1e-2, seed=5), False),
    "batch1": (dict(bucket_count=512, dim=8, seed=6),
               dict(epochs=1, batch_size=1, learning_rate=1e-3, seed=6), False),
    # 1000 rows: not a multiple of any power-of-two block of rows
    "warmup-dev": (dict(bucket_count=1000, dim=12, seed=7),
                   dict(epochs=3, batch_size=16, learning_rate=3e-3,
                        warmup_fraction=0.5, seed=7), True),
}

# name -> (sha256 of the trained table, per-epoch (train_loss, dev_loss) as hex)
TRAIN_DIGESTS = {
    "batch1": (
        "e84e16fb085a888ce849b860704702f2ec4e1def56de693fa85dc21be6dd082f",
        [("0x1.68b63f17206d8p-4", None)],
    ),
    "collisions": (
        "2de65cba421a58733ccd24276f95f602832c9e2dd8aae3cdcfa7edb91b57ab38",
        [("0x1.51792a095ae72p-4", None), ("0x1.27bca326b30c8p-5", None)],
    ),
    "warmup-dev": (
        "5b59788fd8571852f992f9c05caf945f33c9a4c63cb24e78f93b834bf6aa8869",
        [("0x1.8665622175d09p-4", "0x1.727b790102714p-4"),
         ("0x1.525a4230dec10p-4", "0x1.181063cddd6bbp-4"),
         ("0x1.0f5428b0e7ccfp-4", "0x1.a1e138b87ded1p-5")],
    ),
}


def train_case(name: str):
    model_kwargs, cfg_kwargs, with_dev = TRAIN_CASES[name]
    graph = synthetic_ontology(3, 4, 2)
    train_set, dev_set, _ = split_dataset(generate_triplets(graph, seed=1), seed=1)
    model = SubwordEmbedder(**model_kwargs)
    _, history = train(model, train_set, dev_set if with_dev else None,
                       TrainConfig(**cfg_kwargs))
    losses = [
        (e.train_loss.hex(), None if e.dev_loss is None else e.dev_loss.hex())
        for e in history.epochs
    ]
    return array_digest(model.table), losses


@pytest.mark.parametrize("name", sorted(TRAIN_CASES))
def test_training_digest(name):
    table_digest, losses = train_case(name)
    expected_table, expected_losses = TRAIN_DIGESTS[name]
    assert losses == expected_losses
    assert table_digest == expected_table
