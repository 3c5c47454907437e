"""Semantic search for large hierarchical ontologies.

Builds a label-embedding model from triplets generated out of an ontology
hierarchy, ranks concepts by cosine similarity, and evaluates against a
BM25 keyword baseline with Hits@K, relation-gain nDCG, MRR, overlap-degree
buckets and paired t-tests.
"""

import os

# numpy's OpenBLAS keeps an idle worker thread polling for about 2**28
# cycles (~0.1 s) after every threaded call, so a process that queries
# every few ms keeps a CPU busy doing nothing.  At 4 an idle worker sleeps
# at once and is woken for the next call; the thread count and the row
# split, and so every score bit, stay as they are.  This must run before
# numpy loads OpenBLAS, so it takes effect only where this package is
# imported first; a value already in the environment wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .config import PipelineConfig
from .embedder import (
    PrecomputedEncoder,
    StaticWordVectors,
    SubwordEmbedder,
    cosine_similarity,
    load_precomputed,
    load_word_vectors,
    tokenize,
)
from .evaluation import (
    EvalQuery,
    EvalReport,
    evaluate_run,
    hits_at_k,
    mrr,
    ndcg_at_k,
    overlap_degree,
    paired_t_test,
)
from .ontology import (
    Concept,
    OntologyGraph,
    RelationKind,
    gain_of_relation,
    get_siblings,
    load_ontology,
    relation_between,
)
from .ranker import (
    Bm25Index,
    RankedHit,
    VectorIndex,
    bm25_score,
    bm25_search,
    build_bm25_index,
    build_vector_index,
    search_concept,
    search_text,
)
from .train import TrainConfig, train, triplet_loss, triplet_loss_gradients
from .triplets import SplitRatios, TripletDataset, TripletExample, generate_triplets, split_dataset

__version__ = "0.1.0"

__all__ = [
    "Bm25Index",
    "Concept",
    "EvalQuery",
    "EvalReport",
    "OntologyGraph",
    "PipelineConfig",
    "PrecomputedEncoder",
    "RankedHit",
    "RelationKind",
    "SplitRatios",
    "StaticWordVectors",
    "SubwordEmbedder",
    "TrainConfig",
    "TripletDataset",
    "TripletExample",
    "VectorIndex",
    "bm25_score",
    "bm25_search",
    "build_bm25_index",
    "build_vector_index",
    "cosine_similarity",
    "evaluate_run",
    "gain_of_relation",
    "generate_triplets",
    "get_siblings",
    "hits_at_k",
    "load_ontology",
    "load_precomputed",
    "load_word_vectors",
    "mrr",
    "ndcg_at_k",
    "overlap_degree",
    "paired_t_test",
    "relation_between",
    "search_concept",
    "search_text",
    "split_dataset",
    "tokenize",
    "train",
    "triplet_loss",
    "triplet_loss_gradients",
]
