import numpy as np
import pytest

from ontosearch import store
from ontosearch.embedder import SubwordEmbedder, save_encoder
from ontosearch.errors import MalformedLine, UsageError
from ontosearch.ranker import build_bm25_index, build_vector_index


@pytest.fixture
def bundle_dir(asthenia_graph, tmp_path):
    encoder = SubwordEmbedder(bucket_count=256, dim=8, seed=1)
    vector = build_vector_index(asthenia_graph, encoder)
    bm25 = build_bm25_index(asthenia_graph, None)
    out = tmp_path / "idx"
    store.save_bundle(out, asthenia_graph, vector=vector, encoder=encoder, bm25=bm25)
    return out


class TestBundle:
    def test_round_trip(self, bundle_dir, asthenia_graph):
        bundle = store.load_bundle(bundle_dir)
        assert bundle.graph == asthenia_graph
        assert bundle.rankers == ["vector", "bm25"]
        hits = store.query_hits(bundle, "Lassitude", 2, "vector")
        assert hits[0].concept_id == "asthenia"

    def test_encoder_fingerprint_mismatch_rejected(self, bundle_dir):
        # swap in a different encoder than the index was built with
        rogue = SubwordEmbedder(bucket_count=256, dim=8, seed=99)
        save_encoder(rogue, bundle_dir / "encoder.npz")
        with pytest.raises(MalformedLine, match="vector.npz: .*fingerprint"):
            store.load_bundle(bundle_dir)

    def test_not_an_index_dir(self, tmp_path):
        with pytest.raises(UsageError, match="meta.json"):
            store.load_bundle(tmp_path)

    def test_unknown_ranker_name(self, bundle_dir):
        bundle = store.load_bundle(bundle_dir)
        with pytest.raises(UsageError):
            store.query_hits(bundle, "x", 1, "hybrid")

    def test_vector_index_requires_encoder_on_save(self, asthenia_graph, tmp_path):
        encoder = SubwordEmbedder(bucket_count=64, dim=4, seed=0)
        vector = build_vector_index(asthenia_graph, encoder)
        with pytest.raises(UsageError):
            store.save_bundle(tmp_path / "x", asthenia_graph, vector=vector)

    def test_match_hits_aggregates(self, bundle_dir):
        bundle = store.load_bundle(bundle_dir)
        merged = store.match_hits(bundle, ["Asthenia", "Lassitude"], 3, "vector")
        singles = [
            store.query_hits(bundle, lb, 5, "vector")
            for lb in ("Asthenia", "Lassitude")
        ]
        for hit in merged:
            best = max(
                h.score for hits in singles for h in hits
                if h.concept_id == hit.concept_id
            )
            assert hit.score == pytest.approx(best, abs=1e-12)

    def test_saved_rows_bitwise_equal(self, bundle_dir, asthenia_graph):
        bundle = store.load_bundle(bundle_dir)
        encoder = SubwordEmbedder(bucket_count=256, dim=8, seed=1)
        rebuilt = build_vector_index(asthenia_graph, encoder)
        np.testing.assert_array_equal(bundle.vector.rows, rebuilt.rows)
