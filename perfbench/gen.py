"""Seeded workload inputs for the ontosearch benchmark.

Everything here is a pure function of the seed and uses only
``random.Random.random()`` (Mersenne Twister, stable across Python
versions), so the same seed yields the same bytes everywhere and no change
to the program under test can move the inputs.

The ontology is a multi-parent DAG, five levels deep with branches ending
at depth three to five.  Labels are drawn from one shared vocabulary with
Zipf-distributed word frequencies, and a concept reuses words of its
primary parent, so BM25 terms have long postings lists and labels of
related concepts share subwords -- unlike ``tests/synthdata``, whose
globally unique tokens give every term exactly one posting.  ``prep.py``
writes one seed's inputs to a directory.
"""

from __future__ import annotations

import bisect
import json
import random
from dataclasses import dataclass
from pathlib import Path

N_CONCEPTS = 10_000
VOCAB_SIZE = 4_000
ZIPF_EXPONENT = 1.07
# share of concepts on each level; the level-2 and level-3 concepts left
# without children end their branch at depth three or four
LEVEL_SHARES = (0.002, 0.018, 0.10, 0.35, 0.53)
SECOND_PARENT_P = 0.20
LABEL_COUNT_WEIGHTS = (0.12, 0.24, 0.28, 0.20, 0.10, 0.06)  # 1..6 labels, mean 3.1
STOP_WORDS = ("of", "the", "with", "and", "in", "by", "for")
HOT_SET_SIZE = 300
# one block of the serve-mixed request mix: 60% vector search, 25% BM25
# search, 10% concept lookup, 5% health check
MIX_BLOCK = ("vector",) * 12 + ("bm25",) * 5 + ("concept",) * 2 + ("healthz",)
SEARCH_K = 10
# match-eval query set per pass
N_CONCEPT_QUERIES = 40
N_TEXT_QUERIES = 40

_SYLLABLES = (
    "ka ri to mu ne sa lo vi de pa ti ro me na su go le bi fa cu "
    "dor lin mar tes vel cor pan ris tal mon gen sul fer bal nic hep "
    "ost card neur derm gast pul ren lip ang my ac ex in on ul ar"
).split()


class Rng:
    """Draws built on ``random.Random.random()`` only."""

    def __init__(self, seed: int, stream: int = 0):
        self._r = random.Random(f"{seed}:{stream}")

    def random(self) -> float:
        return self._r.random()

    def below(self, n: int) -> int:
        return min(int(self._r.random() * n), n - 1)

    def choice(self, seq):
        return seq[self.below(len(seq))]

    def weighted(self, cumulative: list[float]) -> int:
        return bisect.bisect_right(cumulative, self._r.random() * cumulative[-1])

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def _cumulative(weights) -> list[float]:
    out, total = [], 0.0
    for w in weights:
        total += w
        out.append(total)
    return out


@dataclass
class Ontology:
    ids: list[str]
    labels: dict[str, list[str]]
    parents: dict[str, list[str]]

    def write(self, out: Path) -> None:
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "concepts.tsv", "w", encoding="utf-8") as fh:
            for cid in self.ids:
                fh.write(f"{cid}\t{self.labels[cid][0]}\n")
        with open(out / "labels.tsv", "w", encoding="utf-8") as fh:
            for cid in self.ids:
                for label in self.labels[cid][1:]:
                    fh.write(f"{cid}\t{label}\n")
        with open(out / "relations.tsv", "w", encoding="utf-8") as fh:
            for cid in self.ids:
                for pid in self.parents[cid]:
                    fh.write(f"{cid}\t{pid}\n")


def vocabulary(rng: Rng, size: int = VOCAB_SIZE) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        word = "".join(rng.choice(_SYLLABLES) for _ in range(2 + rng.below(3)))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def generate_ontology(seed: int, n_concepts: int = N_CONCEPTS) -> Ontology:
    rng = Rng(seed, 0)
    vocab = vocabulary(rng)
    zipf = _cumulative(1.0 / (r + 1) ** ZIPF_EXPONENT for r in range(len(vocab)))

    def word() -> str:
        return vocab[rng.weighted(zipf)]

    sizes = [max(1, round(share * n_concepts)) for share in LEVEL_SHARES]
    sizes[-1] = max(1, n_concepts - sum(sizes[:-1]))
    levels: list[list[str]] = []
    ids: list[str] = []
    parents: dict[str, list[str]] = {}
    core: dict[str, list[str]] = {}
    for depth, size in enumerate(sizes):
        level = [f"C{depth}{len(ids) + i:06d}" for i in range(size)]
        for cid in level:
            if depth == 0:
                parents[cid] = []
                core[cid] = [word(), word()]
            else:
                above = levels[depth - 1]
                primary = rng.choice(above)
                chosen = [primary]
                if rng.random() < SECOND_PARENT_P and len(above) > 1:
                    other = rng.choice(above)
                    if other != primary:
                        chosen.append(other)
                parents[cid] = sorted(chosen)
                own = [word() for _ in range(1 + rng.below(2))]
                inherited = [rng.choice(core[primary])] if rng.random() < 0.7 else []
                core[cid] = inherited + own
        levels.append(level)
        ids.extend(level)

    count_cum = _cumulative(LABEL_COUNT_WEIGHTS)
    labels: dict[str, list[str]] = {}
    for cid in ids:
        wanted = 1 + rng.weighted(count_cum)
        out: list[str] = []
        attempts = 0
        while len(out) < wanted:
            attempts += 1
            tokens = list(core[cid])
            rng.shuffle(tokens)
            tokens = tokens[: 1 + rng.below(len(tokens))]
            tokens += [word() for _ in range(rng.below(3))]
            if attempts > 20:
                tokens.append(word())
            if rng.random() < 0.3 and len(tokens) > 1:
                tokens.insert(1 + rng.below(len(tokens) - 1), rng.choice(STOP_WORDS))
            label = " ".join(tokens)
            if rng.random() < 0.2:
                label = label[0].upper() + label[1:]
            if label not in out:
                out.append(label)
        labels[cid] = out
    return Ontology(ids=ids, labels=labels, parents=parents)


# --- query perturbations -------------------------------------------------------

def _typo(rng: Rng, token: str) -> str:
    if len(token) < 3:
        return token + rng.choice("aeiou")
    i = 1 + rng.below(len(token) - 2)
    kind = rng.below(4)
    if kind == 0:  # substitute
        return token[:i] + rng.choice("abcdefghijklmnopqrstuvwxyz") + token[i + 1:]
    if kind == 1:  # delete
        return token[:i] + token[i + 1:]
    if kind == 2:  # insert
        return token[:i] + rng.choice("aeiou") + token[i:]
    return token[:i] + token[i + 1] + token[i] + token[i + 2:]  # transpose


def perturb(rng: Rng, onto: Ontology, label: str) -> str:
    """One fresh variant of ``label``: a token dropped or swapped, a
    one-character typo, stop-word padding, or words of a second concept."""
    tokens = label.split()
    kind = rng.below(5)
    if kind == 0 and len(tokens) > 1:
        del tokens[rng.below(len(tokens))]
    elif kind == 1 and len(tokens) > 1:
        i = rng.below(len(tokens) - 1)
        tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
    elif kind == 2 or len(tokens) == 1 and kind < 2:
        i = rng.below(len(tokens))
        tokens[i] = _typo(rng, tokens[i])
    elif kind == 3:
        tokens = [rng.choice(STOP_WORDS)] + tokens + [rng.choice(STOP_WORDS)]
    else:
        other = rng.choice(onto.labels[rng.choice(onto.ids)]).split()
        tokens = tokens + other[: 1 + rng.below(len(other))]
    return " ".join(tokens)


def hot_set(seed: int, onto: Ontology, size: int = HOT_SET_SIZE) -> list[str]:
    rng = Rng(seed, 1)
    return [
        perturb(rng, onto, rng.choice(onto.labels[rng.choice(onto.ids)]))
        for _ in range(size)
    ]


class RequestStream:
    """Endless seeded serve-mixed request stream for one client.

    Request kinds come in shuffled blocks of ``MIX_BLOCK`` so every prefix
    of twenty requests holds the exact mix.  The kind sequence is the same
    for every client, so the requests of one lock-step round are of one
    kind and a search always overlaps a search of its own ranker; texts and
    ids differ per client.  Half of the search texts repeat from the hot
    set, half are fresh perturbations.
    """

    def __init__(self, seed: int, client: int, onto: Ontology, hot: list[str]):
        self._kinds = Rng(seed, 100)
        self._rng = Rng(seed, 101 + client)
        self._onto = onto
        self._hot = hot
        self._block: list[str] = []

    def next(self) -> tuple[str, str]:
        """(kind, path) where kind is vector, bm25, concept or healthz."""
        from urllib.parse import quote

        rng = self._rng
        if not self._block:
            self._block = list(MIX_BLOCK)
            self._kinds.shuffle(self._block)
        kind = self._block.pop()
        if kind == "healthz":
            return kind, "/healthz"
        if kind == "concept":
            return kind, "/concept/" + quote(rng.choice(self._onto.ids))
        if rng.random() < 0.5:
            text, temp = rng.choice(self._hot), "hot"
        else:
            label = rng.choice(self._onto.labels[rng.choice(self._onto.ids)])
            text, temp = perturb(rng, self._onto, label), "fresh"
        return f"{kind}:{temp}", (
            f"/search?q={quote(text)}&k={SEARCH_K}&ranker={kind}"
        )


@dataclass(frozen=True)
class EvalSet:
    """match-eval query set: concept-mode and text-mode rows, one true
    target each; concept queries carry 1..5 labels in a fixed rotation so
    every seed asks for the same number of label searches."""

    concept: list[tuple[str, list[str], str]]
    text: list[tuple[str, str, str]]

    def write(self, out: Path) -> None:
        with open(out / "concept_queries.tsv", "w", encoding="utf-8") as fh:
            for qid, labels, target in self.concept:
                fh.write(f"{qid}\t{'|'.join(labels)}\t{target}\n")
        with open(out / "text_queries.tsv", "w", encoding="utf-8") as fh:
            for qid, text, target in self.text:
                fh.write(f"{qid}\t{text}\t{target}\n")


def eval_set(seed: int, onto: Ontology, n_concept: int, n_text: int) -> EvalSet:
    rng = Rng(seed, 2)
    concept = []
    for i in range(n_concept):
        target = rng.choice(onto.ids)
        own = onto.labels[target]
        labels: list[str] = []
        while len(labels) < 1 + i % 5:
            variant = perturb(rng, onto, own[len(labels) % len(own)])
            if variant not in labels:
                labels.append(variant)
        concept.append((f"c{i:04d}", labels, target))
    text = []
    for i in range(n_text):
        target = rng.choice(onto.ids)
        text.append((f"t{i:04d}", perturb(rng, onto, rng.choice(onto.labels[target])), target))
    return EvalSet(concept=concept, text=text)


def write_inputs(seed: int, out: Path, n_concepts: int = N_CONCEPTS) -> Ontology:
    """Write the ontology TSVs, the hot set and the match-eval query set."""
    onto = generate_ontology(seed, n_concepts)
    onto.write(out)
    (out / "hot.json").write_text(
        json.dumps(hot_set(seed, onto), ensure_ascii=False), encoding="utf-8"
    )
    eval_set(seed, onto, N_CONCEPT_QUERIES, N_TEXT_QUERIES).write(out)
    return onto
