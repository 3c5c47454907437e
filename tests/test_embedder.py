import logging
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ontosearch import embedder
from ontosearch.embedder import (
    PrecomputedEncoder,
    StaticWordVectors,
    SubwordEmbedder,
    cosine_similarity,
    load_encoder,
    load_precomputed,
    load_word_vectors,
    save_encoder,
    tokenize,
)
from ontosearch.errors import (
    DimensionMismatch,
    InconsistentDimension,
    MalformedLine,
    MissingEmbedding,
    UsageError,
)
from ontosearch.npzio import save_arrays
from ontosearch.rng import fnv1a64


class TestTokenize:
    @pytest.mark.parametrize(
        "text,tokens",
        [
            ("Weakness - general", ["weakness", "general"]),
            ("", []),
            ("WY-090217", ["wy", "090217"]),
            ("Retinal arteries attenuated (finding)", ["retinal", "arteries", "attenuated", "finding"]),
            ("under_score", ["under", "score"]),
            ("  \t  ", []),
        ],
    )
    def test_examples(self, text, tokens):
        assert tokenize(text) == tokens

    @given(st.text(max_size=40))
    def test_tokens_are_lowercase_alnum(self, text):
        for token in tokenize(text):
            assert token
            assert token == token.lower()
            assert all(ch.isalnum() for ch in token)


class TestCosine:
    def test_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_scale_invariant_exactly_one(self):
        assert cosine_similarity(np.array([2.0, 0.0]), np.array([1.0, 0.0])) == 1.0

    def test_zero_vector_rule(self):
        assert cosine_similarity(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine_similarity(np.zeros(2), np.zeros(3))

    # |v| above the zero-norm cut, |alpha * v| below it
    @example(u=[0.0, 0.0, 1.0, 0.0], v=[0.0, 0.0, 3.079378561545979e-11, 0.0], alpha=0.01)
    @given(
        u=st.lists(st.floats(-10, 10), min_size=4, max_size=4),
        v=st.lists(st.floats(-10, 10), min_size=4, max_size=4),
        alpha=st.floats(min_value=0.01, max_value=100.0),
    )
    def test_positive_scaling_invariance(self, u, v, alpha):
        """Invariant while both norms are above the zero-norm cut; a side
        with a norm below it is exactly 0.0."""
        u, v = np.array(u), np.array(v)
        above = []
        for w in (v, alpha * v):
            value = cosine_similarity(u, w)
            assert -1.0 <= value <= 1.0
            if min(np.linalg.norm(u), np.linalg.norm(w)) < embedder._ZERO_NORM_EPS:
                assert value == 0.0
            else:
                above.append(value)
        if len(above) == 2:
            assert above[1] == pytest.approx(above[0], abs=1e-9)


class TestSubwordEmbedder:
    def test_deterministic_embeddings(self):
        enc = SubwordEmbedder(bucket_count=512, dim=16, seed=3)
        a = enc.embed("renal failure")
        b = enc.embed("renal failure")
        np.testing.assert_array_equal(a, b)

    def test_same_seed_same_table(self):
        a = SubwordEmbedder(bucket_count=128, dim=8, seed=5)
        b = SubwordEmbedder(bucket_count=128, dim=8, seed=5)
        np.testing.assert_array_equal(a.table, b.table)

    def test_init_scale(self):
        enc = SubwordEmbedder(bucket_count=256, dim=32, seed=1)
        bound = 0.5 / 32
        assert np.all(enc.table >= -bound) and np.all(enc.table <= bound)

    def test_feature_bag_shape(self):
        enc = SubwordEmbedder(bucket_count=64, dim=4, seed=0)
        # "<cat>" has length 5: 3 trigrams, 2 four-grams, 1 five-gram,
        # plus the padded whole token = 7 features
        assert enc.features("cat").size == 7

    def test_empty_text_embeds_to_zero(self):
        enc = SubwordEmbedder(bucket_count=64, dim=4, seed=0)
        np.testing.assert_array_equal(enc.embed("!!"), np.zeros(4))

    def test_mean_of_feature_rows(self):
        enc = SubwordEmbedder(bucket_count=64, dim=4, seed=2)
        ids = enc.features("cat")
        np.testing.assert_allclose(enc.embed("cat"), enc.table[ids].mean(axis=0))

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            SubwordEmbedder(bucket_count=0)
        with pytest.raises(ValueError):
            SubwordEmbedder(ngram_min=4, ngram_max=3)


def per_gram_features(text, bucket_count, ngram_min, ngram_max):
    """The reference definition: one FNV-1a hash per gram, in bag order."""
    ids = []
    for token in tokenize(text):
        padded = f"<{token}>"
        ids.append(fnv1a64(padded.encode("utf-8")) % bucket_count)
        for n in range(ngram_min, ngram_max + 1):
            for i in range(len(padded) - n + 1):
                ids.append(fnv1a64(padded[i:i + n].encode("utf-8")) % bucket_count)
    return ids


class TestFeatures:
    @given(
        st.text(max_size=60),
        st.integers(min_value=1, max_value=1 << 16),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=3),
    )
    def test_equal_to_per_gram_loop(self, text, bucket_count, ngram_min, extra):
        ngram_max = ngram_min + extra
        enc = SubwordEmbedder(bucket_count=bucket_count, dim=1,
                              ngram_min=ngram_min, ngram_max=ngram_max)
        expected = per_gram_features(text, bucket_count, ngram_min, ngram_max)
        for _ in range(2):  # the second call reads the token memo
            ids = enc.features(text)
            assert ids.dtype == np.int64 and ids.shape == (len(expected),)
            assert ids.tolist() == expected

    @given(st.lists(st.text(max_size=30), max_size=6))
    def test_equal_past_the_memo_cap(self, texts):
        with mock.patch.object(embedder, "TOKEN_MEMO_CAP", 3):
            enc = SubwordEmbedder(bucket_count=97, dim=1)
            enc.features("alpha beta gamma delta epsilon")
            for text in texts:
                assert enc.features(text).tolist() == per_gram_features(text, 97, 3, 5)
            assert len(enc._token_memo) == 3

    def test_returned_bag_is_a_private_copy(self):
        enc = SubwordEmbedder(bucket_count=64, dim=4, seed=0)
        ids = enc.features("cat")
        ids[:] = 0
        assert enc.features("cat").tolist() == per_gram_features("cat", 64, 3, 5)


class TestStaticWordVectors:
    def enc(self):
        return StaticWordVectors(
            {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])}, dim=2
        )

    def test_two_token_mean(self):
        np.testing.assert_allclose(self.enc().embed("a b"), [0.5, 0.5])

    def test_unknown_tokens_skipped(self):
        np.testing.assert_allclose(self.enc().embed("a mystery"), [1.0, 0.0])

    def test_all_unknown_gives_zero(self):
        np.testing.assert_array_equal(self.enc().embed("total mystery"), [0.0, 0.0])


class TestPrecomputed:
    def test_exact_lookup(self):
        enc = PrecomputedEncoder({"Asthenia": np.array([1.0, 2.0])}, dim=2)
        np.testing.assert_array_equal(enc.embed("Asthenia"), [1.0, 2.0])

    def test_missing_raises(self):
        enc = PrecomputedEncoder({}, dim=2)
        with pytest.raises(MissingEmbedding):
            enc.embed("absent")


class TestWordVectorFile:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "wv.txt"
        path.write_text("alpha 1 0 0\nbeta 0 1 0\n", encoding="utf-8")
        enc = load_word_vectors(path)
        assert enc.dim == 3
        assert set(enc.index) == {"alpha", "beta"}

    def test_header_line_accepted(self, tmp_path):
        path = tmp_path / "wv.txt"
        path.write_text("2 3\nalpha 1 0 0\nbeta 0 1 0\n", encoding="utf-8")
        enc = load_word_vectors(path)
        assert set(enc.index) == {"alpha", "beta"}

    def test_inconsistent_dimension(self, tmp_path):
        path = tmp_path / "wv.txt"
        path.write_text("alpha 1 0 0\nbeta 0 1\n", encoding="utf-8")
        with pytest.raises(InconsistentDimension):
            load_word_vectors(path)

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "wv.txt"
        path.write_text("alpha one zero\n", encoding="utf-8")
        with pytest.raises(MalformedLine):
            load_word_vectors(path)

    def test_duplicate_token_last_wins(self, tmp_path):
        path = tmp_path / "wv.txt"
        path.write_text("alpha 1 0\nalpha 0 1\n", encoding="utf-8")
        enc = load_word_vectors(path)
        np.testing.assert_array_equal(enc.embed("alpha"), [0.0, 1.0])

    def test_non_finite_component_rejected(self, tmp_path):
        path = tmp_path / "wv.txt"
        path.write_text("alpha nan 0\n", encoding="utf-8")
        with pytest.raises(MalformedLine):
            load_word_vectors(path)


class TestPrecomputedFile:
    def test_three_rows(self, tmp_path):
        path = tmp_path / "pre.tsv"
        path.write_text(
            "Asthenia\t1 0\nFatigue\t0 1\nWeakness - general\t0.5 0.5\n",
            encoding="utf-8",
        )
        enc = load_precomputed(path)
        assert len(enc.table) == 3
        np.testing.assert_array_equal(enc.embed("Weakness - general"), [0.5, 0.5])

    def test_absent_lookup(self, tmp_path):
        path = tmp_path / "pre.tsv"
        path.write_text("x\t1 0\n", encoding="utf-8")
        with pytest.raises(MissingEmbedding):
            load_precomputed(path).embed("y")

    def test_inconsistent_dimension(self, tmp_path):
        path = tmp_path / "pre.tsv"
        path.write_text("x\t1 0\ny\t1 0 0\n", encoding="utf-8")
        with pytest.raises(InconsistentDimension):
            load_precomputed(path)


@pytest.mark.parametrize("load, content", [
    (load_word_vectors, "alpha 1 0\nalpha 0 1\n"),
    (load_precomputed, "alpha\t1 0\nalpha\t0 1\n"),
], ids=["wordvec", "precomputed"])
def test_duplicate_key_last_wins_and_is_logged(tmp_path, caplog, load, content):
    path = tmp_path / "vectors.txt"
    path.write_text(content, encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="ontosearch.embedder"):
        enc = load(path)
    np.testing.assert_array_equal(enc.embed("alpha"), [0.0, 1.0])
    assert [r.getMessage() for r in caplog.records] == [
        f"duplicate vector for 'alpha' at {path}:2, last wins"]


@pytest.mark.parametrize("load", [load_word_vectors, load_precomputed],
                         ids=["wordvec", "precomputed"])
def test_file_without_rows(tmp_path, load):
    path = tmp_path / "vectors.txt"
    path.write_text("\n\n", encoding="utf-8")
    with pytest.raises(MalformedLine, match=f"^{re.escape(str(path))}: no vector rows$"):
        load(path)


class TestEncoderContainer:
    def test_subword_round_trip_bitwise(self, tmp_path):
        enc = SubwordEmbedder(bucket_count=128, dim=8, seed=9)
        save_encoder(enc, tmp_path / "enc.npz")
        back = load_encoder(tmp_path / "enc.npz")
        assert isinstance(back, SubwordEmbedder)
        assert (back.bucket_count, back.dim, back.seed) == (128, 8, 9)
        np.testing.assert_array_equal(back.table, enc.table)
        assert back.fingerprint() == enc.fingerprint()

    def test_wordvec_round_trip(self, tmp_path):
        enc = StaticWordVectors(
            {"alpha": np.array([0.1, 0.2]), "beta": np.array([-1.0, 2.0])}, dim=2
        )
        save_encoder(enc, tmp_path / "enc.npz")
        back = load_encoder(tmp_path / "enc.npz")
        assert isinstance(back, StaticWordVectors)
        np.testing.assert_array_equal(back.embed("alpha beta"), enc.embed("alpha beta"))
        assert back.fingerprint() == enc.fingerprint()

    def test_precomputed_round_trip(self, tmp_path):
        enc = PrecomputedEncoder({"a b": np.array([3.0, -4.0])}, dim=2)
        save_encoder(enc, tmp_path / "enc.npz")
        back = load_encoder(tmp_path / "enc.npz")
        assert isinstance(back, PrecomputedEncoder)
        np.testing.assert_array_equal(back.embed("a b"), [3.0, -4.0])
        assert back.fingerprint() == enc.fingerprint()


@given(
    rows=st.integers(1, 50),
    dim=st.integers(1, 9),
    size=st.integers(1, 120),
    seed=st.integers(0, 2**32 - 1),
)
def test_pool_has_the_bits_of_the_mean(rows, dim, size, seed):
    """``pool`` adds the rows one after another and divides by their count,
    as ``mean`` does, so the two agree bit for bit, repeated rows and
    signed zeros included."""
    rng = np.random.default_rng(seed)
    table = rng.normal(scale=rng.choice([1e-300, 1.0, 1e300]), size=(rows, dim))
    table[rng.random(table.shape) < 0.2] = -0.0
    ids = rng.integers(0, rows, size)
    assert embedder.pool(table, ids).tobytes() == table[ids].mean(axis=0).tobytes()


def test_pool_of_no_rows_is_the_zero_vector():
    pooled = embedder.pool(np.ones((3, 4)), np.zeros(0, dtype=np.int64))
    assert pooled.tobytes() == np.zeros(4).tobytes()


def test_precomputed_row_without_components_is_refused(tmp_path):
    path = tmp_path / "pre.tsv"
    path.write_text("Asthenia\t\nFatigue\t \n", encoding="utf-8")
    with pytest.raises(MalformedLine, match=f"^{re.escape(str(path))}:1: "):
        load_precomputed(path)


@pytest.mark.parametrize("kind, keys", [("wordvec", "tokens"), ("precomputed", "texts")])
def test_container_without_columns_is_refused(tmp_path, kind, keys):
    path = tmp_path / "enc.npz"
    save_arrays(path, version=1, kind=kind, matrix=np.zeros((2, 0)),
                **{keys: np.array(["Asthenia", "Fatigue"])})
    with pytest.raises(MalformedLine, match="dim must be >= 1"):
        load_encoder(path)


@pytest.mark.parametrize("kind, keys", [("wordvec", "tokens"), ("precomputed", "texts")])
def test_keyed_container_holds_its_matrix_once(tmp_path, kind, keys):
    """The loaded matrix becomes the table: the load peaks under 1.5x its bytes."""
    matrix = np.random.default_rng(0).normal(size=(20_000, 64))
    path = tmp_path / "enc.npz"
    save_arrays(path, version=1, kind=kind, matrix=matrix,
                **{keys: np.array([f"k{i}" for i in range(len(matrix))])})
    tracemalloc.start()
    try:
        enc = load_encoder(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * matrix.nbytes, peak / matrix.nbytes
    np.testing.assert_array_equal(enc.table, matrix)
    assert enc.index["k19999"] == 19_999


def test_fortran_order_container_loads_c_ordered(tmp_path):
    enc = PrecomputedEncoder({"a": np.array([1.0, 2.0]), "b": np.array([3.0, -0.0])}, dim=2)
    path = tmp_path / "enc.npz"
    save_arrays(path, version=1, kind="precomputed", texts=np.array(["a", "b"]),
                matrix=np.asfortranarray(enc.table))
    back = load_encoder(path)
    assert back.table.flags.c_contiguous
    assert back.fingerprint() == enc.fingerprint()


@pytest.mark.parametrize("kind, keys", [("wordvec", "tokens"), ("precomputed", "texts")])
def test_container_with_a_repeated_key_is_refused(tmp_path, kind, keys):
    path = tmp_path / "enc.npz"
    save_arrays(path, version=1, kind=kind, matrix=np.eye(3),
                **{keys: np.array(["Asthenia", "Fatigue", "Asthenia"])})
    with pytest.raises(MalformedLine, match=f"^{re.escape(str(path))}: {keys} repeat a key$"):
        load_encoder(path)


@pytest.mark.parametrize("load, content", [
    (load_word_vectors, "fatigue 1 0\nfatigue\0 0 1\n"),
    (load_precomputed, "Lassitude\t1 0\nLassitude\0\t0 1\n"),
], ids=["wordvec", "precomputed"])
def test_key_ending_in_nul_is_refused(tmp_path, load, content):
    """The encoder file's string array would drop the NUL."""
    path = tmp_path / "vectors.txt"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(MalformedLine, match=f"^{re.escape(str(path))}:2: key ends in NUL$"):
        load(path)


@pytest.mark.parametrize("make", [StaticWordVectors, PrecomputedEncoder])
def test_key_ending_in_nul_given_in_code_is_refused(make, tmp_path):
    """``save_encoder`` would drop the NUL, and so change the fingerprint;
    a NUL inside a key is kept."""
    with pytest.raises(UsageError, match=r"^key 'fatigue\\x00' ends in NUL$"):
        make({"fatigue": np.array([1.0, 2.0]), "fatigue\0": np.array([2.0, 1.0])}, 2)
    encoder = make({"fa\0tigue": np.array([1.0, 2.0])}, 2)
    save_encoder(encoder, tmp_path / "enc.npz")
    loaded = load_encoder(tmp_path / "enc.npz")
    assert list(loaded.index) == ["fa\0tigue"]
    assert loaded.fingerprint() == encoder.fingerprint()


@pytest.mark.parametrize("make", [StaticWordVectors, PrecomputedEncoder])
@pytest.mark.parametrize("vectors, dim, message", [
    ({}, 0, "dim must be >= 1"),
    ({"a": np.ones(3)}, 2, r"vectors of shape \(3,\), expected \(2,\)"),
], ids=["zero-dim", "rows-wider-than-dim"])
def test_keyed_encoder_refuses_a_bad_dim(make, vectors, dim, message):
    with pytest.raises(UsageError, match=message):
        make(vectors, dim)


def test_precomputed_embed_returns_a_copy():
    enc = PrecomputedEncoder({"a": np.array([1.0, 2.0])}, dim=2)
    enc.embed("a")[0] = 99.0
    assert enc.embed("a").tolist() == [1.0, 2.0]


def test_precomputed_embed_keeps_the_row_bits():
    enc = PrecomputedEncoder({"a": np.array([-0.0, 1.0], dtype=np.float32)}, dim=2)
    vec = enc.embed("a")
    assert vec.dtype == np.float32
    assert vec.tobytes() == np.array([-0.0, 1.0], dtype=np.float32).tobytes()
