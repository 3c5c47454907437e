"""Reference rankers the benchmark checks the program's answers against.

They restate the documented ranking rules directly and slowly, sharing no
ranking code with the program: cosine of the encoded query against every
label row with each concept's best label kept (earliest row wins a tie),
MAX over the labels of a concept query, and Okapi BM25 over each
concept's stop-word-filtered label tokens.  Results order by score
descending, then concept id ascending.
"""

from __future__ import annotations

import math
import re
from collections import Counter

import numpy as np

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def _top(best: dict[str, tuple[float, str]], k: int) -> list[tuple[str, str, float]]:
    ordered = sorted(best.items(), key=lambda item: (-item[1][0], item[0]))
    return [(cid, label, score) for cid, (score, label) in ordered[:k]]


class Reference:
    def __init__(self, bundle):
        self.bundle = bundle
        graph = bundle.graph
        bm25 = bundle.bm25
        self.stopwords = bm25.stopwords
        self.k1, self.b = bm25.k1, bm25.b
        self.docs = {
            cid: Counter(t for label in graph.concepts[cid].labels
                         for t in tokenize(label) if t not in self.stopwords)
            for cid in sorted(graph.concepts)
        }
        # the vector index holds one row per (concept, label), concepts in
        # id order and labels in sequence
        self.rows = [(cid, label) for cid in sorted(graph.concepts)
                     for label in graph.concepts[cid].labels]
        self.avgdl = sum(sum(tf.values()) for tf in self.docs.values()) / len(self.docs)
        self.df = Counter(t for tf in self.docs.values() for t in tf)

    def rank(self, query, k: int, ranker: str) -> list[tuple[str, str, float]]:
        texts = [query.query_text] if query.query_text is not None else list(query.query_labels)
        best: dict[str, tuple[float, str]] = {}
        for text in texts:
            scored = self._cosine(text) if ranker == "vector" else self._bm25(text)
            for cid, (score, label) in scored.items():
                if cid not in best or score > best[cid][0]:
                    best[cid] = (score, label)
        return _top(best, k)

    def _cosine(self, text: str) -> dict[str, tuple[float, str]]:
        rows = self.bundle.vector.rows
        q = np.asarray(self.bundle.encoder.embed(text), dtype=np.float64)
        norm = float(np.linalg.norm(q))
        scores = np.zeros(len(self.rows))
        if norm >= 1e-12:
            scores = np.clip(rows @ (q / norm), -1.0, 1.0)
        best: dict[str, tuple[float, str]] = {}
        for (cid, label), score in zip(self.rows, scores.tolist()):
            if cid not in best or score > best[cid][0]:
                best[cid] = (score, label)
        return best

    def _bm25(self, text: str) -> dict[str, tuple[float, str]]:
        terms = [t for t in tokenize(text) if t not in self.stopwords]
        n = len(self.docs)
        out: dict[str, tuple[float, str]] = {}
        for cid, tf in self.docs.items():
            dl = sum(tf.values())
            norm = self.k1 * (1.0 - self.b + self.b * dl / self.avgdl)
            score = 0.0
            for term in terms:
                f = tf.get(term, 0)
                if f:
                    df = self.df[term]
                    idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
                    score += idf * f * (self.k1 + 1.0) / (f + norm)
            if score > 0.0:
                out[cid] = (score, self.bundle.graph.concepts[cid].labels[0])
        return out


def same_ranking(got, expected, rel: float = 1e-9) -> bool:
    """Same concepts and labels in the same order, scores equal to ``rel``."""
    return len(got) == len(expected) and all(
        g[0] == e[0] and g[1] == e[1] and math.isclose(g[2], e[2], rel_tol=rel, abs_tol=1e-12)
        for g, e in zip(got, expected)
    )
