"""Determinism guard for the two keyed encoders, word vectors and
precomputed sentence vectors.

Indexes the asthenia fixture through ``--word-vectors`` and
``--precomputed`` and pins the sha256 of each encoder's fingerprint, its
saved container, the bundle's ``vector.npz`` and the stdout of ``query``,
``match`` and ``eval``.  The vectors hold ``-0.0`` components, one token
is given twice (the last row wins) and a query repeats a token; ``Fatigue``
is a one-token label.  A float32 encoder built in the library pins that its
rows keep their dtype.  ``tests/test_pipeline_pins.py`` does the same for
the subword encoder.
"""

import hashlib
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ontosearch.cli import main
from ontosearch.embedder import (
    PrecomputedEncoder,
    StaticWordVectors,
    load_encoder,
    load_precomputed,
    load_word_vectors,
    save_encoder,
    tokenize,
)

FIG = Path(__file__).parent / "data" / "asthenia"

WORD_VECTORS = (
    "11 3\n"
    "asthenia 0.1 -0.0 0.7\n"
    "energy -0.0 -0.0 0.25\n"
    "and 0.3 0.2 -0.1\n"
    "stamina 0.05 0.6 0.333\n"
    "finding 0.9 -0.4 0.0\n"
    "exhaustion -0.0 0.8 0.15\n"
    "fatigue 0.2 -0.0 -0.6\n"
    "feeling 0.45 0.45 -0.0\n"
    "tired 0.1 0.2 0.3\n"
    "lassitude 0.7 0.1 -0.0\n"
    "weariness 0.3 0.3 0.3\n"
    "tired 0.15 -0.0 0.35\n"
)

PRECOMPUTED = (
    "Asthenia\t0.1 -0.0 0.7\n"
    "Energy and stamina finding\t0.35 0.2 0.1\n"
    "Exhaustion\t-0.0 0.8 0.15\n"
    "Fatigue\t-0.0 0.5 -0.25\n"
    "Feeling tired\t0.275 0.325 0.15\n"
    "Lassitude\t0.7 0.1 -0.0\n"
    "Weariness\t0.3 0.3 0.3\n"
    "tired weariness\t0.2 0.25 -0.0\n"
    "Fatigue\t-0.0 0.45 -0.3\n"
)

QUERIES = (
    "q1\tLassitude\tasthenia\n"
    "q2\ttired weariness\tfeeling-tired\n"
    "q3\tFatigue\tfatigue\n"
)

PINNED = {
    "precomputed:encoder.npz": "6a357f5af74ee67963b264aff3ef5e54f05b4498b89139f17816aac6fe947034",
    "precomputed:fingerprint": "14dd3a98372d860237506732865d7d5e7aeb21f84ad3371b9ef485b598554a00",
    "precomputed:index/encoder.npz": "6a357f5af74ee67963b264aff3ef5e54f05b4498b89139f17816aac6fe947034",
    "precomputed:index/vector.npz": "c6935395816b495f5f3bf1e5020864fc06a65682727df8686074f071ca87bca3",
    "precomputed:stdout:eval": "09841bcac6e9ac7cff85877095aa9c82a03132a3f31a1ee92618bd2c0f8e010d",
    "precomputed:stdout:index": "4c5c37a996ecde1a4514982a65b5d39e6d8001a9e850881413ab648795c83127",
    "precomputed:stdout:match": "1bd2ecc5dfcec5e41e206d8c796fef568ef56bef70bec1f78b6cd3f38e7b7bae",
    "precomputed:stdout:query": "53c16897781b1bc7a0dc33c1d9a40ca5e07a6392eb9a7fd9d93b0e5bfd829555",
    "wordvec:encoder.npz": "6e6a4393e0cb4904ef7114ad75853902e61712aff8e3734f79dd5487e458f9f9",
    "wordvec:fingerprint": "b2669673ce1f0286a597a2a1280a92f1eef6a14a89f05673bb1341f8b809397a",
    "wordvec:index/encoder.npz": "6e6a4393e0cb4904ef7114ad75853902e61712aff8e3734f79dd5487e458f9f9",
    "wordvec:index/vector.npz": "f983f2154fff2301b163c4d82fe3d0afb518b125d0182433071ba1419790656e",
    "wordvec:stdout:eval": "1974b74795237d83333d13421ec5f755a77f2e3a42d7412f108af7025ad1c7e6",
    "wordvec:stdout:index": "99c2f9fe733dedf1ab1cde4f711af05c9c8dbf48417fe9f8edf90345d78b31d5",
    "wordvec:stdout:match": "33b48551d72ff1162d7b3f58b22f3fa1c0d7fc29bc8b42ac512a7e7312661133",
    "wordvec:stdout:query": "44e2ad4de381cb64c0bdc4627489873361b4eb1dbb6dec16d7dd8be55ccea8d7",
    "wordvec:stdout:query-repeat": "7f7f58f62b439cf4dc15014d180940f4df6609c013aa077afbda79c9107a2551",
}

PINNED_FLOAT32 = {
    "wordvec": ("e0761d0d0c41135fd8d2c2ab8adf7aa9c9d46fb35b10b658f221c1f1d6c6ffdd",
                "c06b303c08307b04cdaa73f395781150ebb72ea0718e9b1e6ec2a5d51e168417"),
    "precomputed": ("24f1ca7615549a5873845422aeb52466238ee8f3d1a85f4cb9a60617aba5d563",
                    "a5c57cbea764c70afb41359ed85c5b6d1cfee37b22b3b8bfc6e5590ac8d4ef7a"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def keyed_digests(work: Path, capsys) -> dict[str, str]:
    """Index the fixture through each keyed encoder; sha256 of every
    fingerprint, container and stdout that follows."""
    onto = ["--concepts", str(FIG / "concepts.tsv"), "--labels", str(FIG / "labels.tsv"),
            "--relations", str(FIG / "relations.tsv")]
    (work / "queries.tsv").write_text(QUERIES, encoding="utf-8")
    (work / "wv.txt").write_text(WORD_VECTORS, encoding="utf-8")
    (work / "pre.tsv").write_text(PRECOMPUTED, encoding="utf-8")
    sources = {"wordvec": ("--word-vectors", load_word_vectors, work / "wv.txt"),
               "precomputed": ("--precomputed", load_precomputed, work / "pre.tsv")}
    digests = {}
    for kind, (flag, load, source) in sources.items():
        encoder = load(source)
        save_encoder(encoder, work / f"{kind}.npz")
        back = load_encoder(work / f"{kind}.npz")
        assert back.fingerprint() == encoder.fingerprint()
        digests[f"{kind}:fingerprint"] = _sha(encoder.fingerprint().encode())
        digests[f"{kind}:encoder.npz"] = _sha((work / f"{kind}.npz").read_bytes())
        index = work / f"index-{kind}"
        steps = {
            "index": ["index", *onto, flag, str(source), "--out", str(index)],
            "query": ["query", "--index", str(index), "--q", "tired weariness", "--k", "5"],
            "match": ["match", "--index", str(index), "--source-concepts",
                      str(FIG / "concepts.tsv"), "--source-labels", str(FIG / "labels.tsv"),
                      "--k", "3"],
            "eval": ["eval", "--index", str(index), "--queries", str(work / "queries.tsv"),
                     "--k", "1,3"],
        }
        if kind == "wordvec":
            steps["query-repeat"] = ["query", "--index", str(index), "--q",
                                     "tired Tired fatigue", "--k", "5"]
        for name, argv in steps.items():
            assert main(argv) == 0, (kind, name)
            out = capsys.readouterr().out.replace(str(work), "<work>")
            digests[f"{kind}:stdout:{name}"] = _sha(out.encode("utf-8"))
        for name in ("encoder.npz", "vector.npz"):
            digests[f"{kind}:index/{name}"] = _sha((index / name).read_bytes())
    return digests


def test_keyed_encoder_artifacts_are_pinned(tmp_path, capsys):
    assert keyed_digests(tmp_path, capsys) == PINNED


def test_float32_library_encoders_are_pinned(tmp_path):
    rows = {"Fatigue": np.array([-0.0, 0.5, -0.25], dtype=np.float32),
            "tired": np.array([0.1, 0.2, 0.3], dtype=np.float32),
            "weariness": np.array([1e-3, -0.0, 3.5], dtype=np.float32)}
    digests = {}
    for encoder in (StaticWordVectors(dict(rows), 3), PrecomputedEncoder(dict(rows), 3)):
        save_encoder(encoder, tmp_path / "enc.npz")
        digests[encoder.kind] = (encoder.fingerprint(),
                                 _sha((tmp_path / "enc.npz").read_bytes()))
        assert load_encoder(tmp_path / "enc.npz").fingerprint() == encoder.fingerprint()
    assert digests == PINNED_FLOAT32


def reference_mean(vectors: dict[str, np.ndarray], dim: int, text: str) -> np.ndarray:
    """Word-vector pooling as a list of per-token rows and ``np.mean``: the
    form the stored one-matrix pooling must match bit for bit."""
    rows = [vectors[t] for t in tokenize(text) if t in vectors]
    if not rows:
        return np.zeros(dim, dtype=np.float64)
    return np.mean(rows, axis=0)


_COMPONENT = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300]),
                       st.floats(-1e6, 1e6, allow_nan=False, width=64))


@settings(max_examples=200, deadline=None)
@given(
    dim=st.integers(1, 4),
    float32=st.booleans(),
    data=st.data(),
)
def test_word_vector_pooling_matches_np_mean_bitwise(dim, float32, data):
    dtype = np.float32 if float32 else np.float64
    vocab = data.draw(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6, unique=True))
    vectors = {t: np.array(data.draw(st.lists(_COMPONENT, min_size=dim, max_size=dim)),
                           dtype=dtype) for t in vocab}
    bag = data.draw(st.lists(st.sampled_from("abcdefxyz"), max_size=8))
    text = " ".join(bag)
    got = StaticWordVectors(dict(vectors), dim).embed(text)
    want = reference_mean(vectors, dim, text)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
