"""Seeded input generator for the pipeline benchmark.

Writes, for one workload and one seed, everything the ``negir`` CLI reads:

    collection.jsonl   documents (doc_id, body)
    topics.jsonl       topics (topic_id, description)
    qrels.txt          TREC qrels
    sampling.json      pool strata for inferred AP (``judge`` only)
    truth.json         what the generator planted, for the benchmark's checks

The same workload and seed always give byte-identical files. Words are
synthetic consonant-vowel strings that are neither English stopwords nor
lexicon cue words, drawn uniformly from the workload's vocabulary, so the
cost of a run varies little from seed to seed. Negation cues are real
phrases of the shipped lexicon.

    python3 bench/gen.py --workload rank --seed 7 --out .bench_work/rank7
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass
from pathlib import Path

PRE_CUES = (
    "no", "not", "denies", "denied", "without", "no evidence of", "no sign of",
    "no history of", "negative for", "free of", "absence of", "never had",
)
POST_CUES = ("was ruled out", "were ruled out", "has been ruled out")
# Function words mixed into sentences; stopword removal drops them.
FUNCTION_WORDS = ("the", "of", "and", "with", "in", "a", "to", "on")

_CONSONANTS = "bdfgklmprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class Shape:
    docs: int
    vocab: int
    topics: int
    topic_sentences: int  # sentences per topic description
    topic_words: int      # content words per topic sentence
    sampled: bool         # write a sampling sidecar (inferred AP)


# Sizes are small enough for a 60-second benchmark run to make 9-15 timed
# passes of the CLI sequence (see bench/README.md, Workloads).
SHAPES = {
    # Long topics (about 40 terms, so the adaptive
    # beta is positive): per-document scoring dominates.
    "rank": Shape(docs=1500, vocab=3000, topics=6, topic_sentences=4,
                  topic_words=10, sampled=False),
    # Small vocabulary, so most documents match a topic and runs go about
    # 700 deep; short topics (beta negative) and sampled judgments:
    # evaluation dominates.
    "judge": Shape(docs=1000, vocab=400, topics=6, topic_sentences=1,
                   topic_words=8, sampled=True),
}
WORKLOADS = tuple(SHAPES)

# Pool strata for the judge workload: (pool slice end, sampling rate,
# chance a sampled document is relevant), ordered by term overlap.
STRATA = ((50, 1.0, 0.9), (150, 1.0, 0.85), (300, 1.0, 0.8),
          (600, 0.9, 0.75), (1000, 0.9, 0.7))
# Unsampled qrels: the top RELEVANT documents by overlap are relevant (the
# first GRADE2 of them with grade 2), the next NONRELEVANT are judged 0.
RELEVANT, GRADE2, NONRELEVANT = 30, 10, 70


def vocabulary(size: int) -> list[str]:
    """Distinct three-syllable words such as ``bakedo``."""
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    words = []
    for i in range(size):
        a, rest = divmod(i, len(syllables) ** 2)
        b, c = divmod(rest, len(syllables))
        words.append(syllables[c] + syllables[b] + syllables[(a + 3 * b + 7 * c) % len(syllables)])
    return words


def _sentence(rng: random.Random, vocab: list[str], length: int, cue: bool) -> tuple[str, list[str]]:
    """One sentence of ``length`` words; returns (text, content words)."""
    words = [rng.choice(vocab) for _ in range(length)]
    tokens = list(words)
    for _ in range(length // 5):
        tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(FUNCTION_WORDS))
    if cue:
        if rng.random() < 0.8:
            tokens.insert(rng.randrange(len(tokens) - 1), rng.choice(PRE_CUES))
        else:
            tokens.append(rng.choice(POST_CUES))
    return " ".join(tokens) + ".", words


def _documents(rng: random.Random, shape: Shape, vocab: list[str]):
    docs = []
    for i in range(shape.docs):
        sentences, words = [], set()
        for _ in range(rng.randint(3, 10)):
            text, content = _sentence(rng, vocab, rng.randint(5, 15), rng.random() < 0.3)
            sentences.append(text)
            words.update(content)
        docs.append((f"d{i:06d}", " ".join(sentences), words))
    return docs


def _topic(rng: random.Random, shape: Shape, vocab: list[str], negated: bool):
    """A description of fixed shape; negation-bearing topics put one pre-cue
    in the last sentence, scoping over the sentence's last (up to) three
    words."""
    sentences, positive, negative = [], [], []
    for s in range(shape.topic_sentences):
        words = rng.sample(vocab, shape.topic_words)
        if negated and s == shape.topic_sentences - 1:
            split = shape.topic_words - min(3, shape.topic_words // 2)
            cue = rng.choice(("denies", "without", "no history of", "negative for"))
            sentences.append(" ".join(words[:split] + [cue] + words[split:]) + ".")
            positive += words[:split]
            negative += words[split:]
        else:
            sentences.append(" ".join(words) + ".")
            positive += words
    return " ".join(sentences), positive, negative


def _overlap_order(docs, postings, terms) -> list[int]:
    """Document indexes by descending count of distinct terms matched."""
    counts: dict[int, int] = {}
    for term in set(terms):
        for d in postings.get(term, ()):
            counts[d] = counts.get(d, 0) + 1
    return sorted(counts, key=lambda d: (-counts[d], d))


def generate(workload: str, seed: int, out: Path) -> None:
    """Write the workload's input files for ``seed`` into ``out``."""
    shape = SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}")
    vocab = vocabulary(shape.vocab)
    docs = _documents(rng, shape, vocab)
    postings: dict[str, list[int]] = {}
    for d, (_, _, words) in enumerate(docs):
        for word in words:
            postings.setdefault(word, []).append(d)

    topics, qrels_lines, sampling = [], [], {}
    truth = {"workload": workload, "seed": seed, "d_plus": [], "d_minus": [], "query_terms": {}}
    for t in range(shape.topics):
        topic_id = str(t + 1)
        negated = t % 2 == 1
        description, positive, negative = _topic(rng, shape, vocab, negated)
        topics.append({"topic_id": topic_id, "description": description})
        truth["d_minus" if negated else "d_plus"].append(topic_id)
        truth["query_terms"][topic_id] = positive + negative
        order = _overlap_order(docs, postings, positive)
        if shape.sampled:
            strata, start = [], 0
            for end, rate, p_rel in STRATA:
                pool = order[start:end]
                start = end
                if not pool:
                    continue
                sample = sorted(rng.sample(pool, max(1, round(rate * len(pool)))))
                for d in sample:
                    grade = 1 if rng.random() < p_rel else 0
                    qrels_lines.append(f"{topic_id} 0 {docs[d][0]} {grade}")
                strata.append([docs[d][0] for d in pool])
            sampling[topic_id] = strata
        else:
            for rank, d in enumerate(order[: RELEVANT + NONRELEVANT]):
                grade = 2 if rank < GRADE2 else 1 if rank < RELEVANT else 0
                qrels_lines.append(f"{topic_id} 0 {docs[d][0]} {grade}")

    out.mkdir(parents=True, exist_ok=True)
    with open(out / "collection.jsonl", "w", encoding="utf-8", newline="\n") as handle:
        for doc_id, body, _ in docs:
            handle.write(json.dumps({"doc_id": doc_id, "body": body}) + "\n")
    with open(out / "topics.jsonl", "w", encoding="utf-8", newline="\n") as handle:
        for topic in topics:
            handle.write(json.dumps(topic) + "\n")
    (out / "qrels.txt").write_text("\n".join(qrels_lines) + "\n", encoding="utf-8")
    if shape.sampled:
        (out / "sampling.json").write_text(json.dumps(sampling, sort_keys=True), encoding="utf-8")
    (out / "truth.json").write_text(json.dumps(truth, sort_keys=True), encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
