"""Output checks for the pipeline benchmark.

Each check returns a list of failure messages (empty when it passes):

* ``oracle_top10``: brute-force BM25 over the generated text (its own
  tokenizer and the shipped stopword file, never negir's index) must
  reproduce the baseline run's top 10 for a sample of topics;
* ``negation_free_identical``: on topics without negation the four
  strategies must write identical run lines, tag column aside;
* ``planted_ordering``: on the planted-relevance corpus of the acceptance
  suite (criterion 8) the strategy ordering on negation-bearing topics
  must hold and negation-free P@10 must not move.
"""

from __future__ import annotations

import importlib.util
import json
import math
import re
from collections import Counter
from pathlib import Path

TOKEN_RE = re.compile(r"[a-z0-9]+")
K1, B = 1.2, 0.75


def read_run_lines(path: Path) -> dict[str, list[list[str]]]:
    """Run file lines per topic, split into fields."""
    per_topic: dict[str, list[list[str]]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            parts = line.split()
            if parts:
                per_topic.setdefault(parts[0], []).append(parts)
    return per_topic


def read_stopwords(path: Path) -> frozenset[str]:
    words = set()
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            words.add(line.lower())
    return frozenset(words)


def oracle_top10(collection: Path, stopwords: Path, query_terms: dict[str, list[str]],
                 baseline_run: Path, topic_ids: list[str]) -> list[str]:
    stop = read_stopwords(stopwords)
    docs: dict[str, Counter] = {}
    lengths: dict[str, int] = {}
    with open(collection, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            tokens = [t for t in TOKEN_RE.findall(record["body"].lower()) if t not in stop]
            docs[record["doc_id"]] = Counter(tokens)
            lengths[record["doc_id"]] = len(tokens)
    n = len(docs)
    avgdl = sum(lengths.values()) / n
    run = read_run_lines(baseline_run)
    failures = []
    for topic_id in topic_ids:
        weights: dict[str, float] = {}
        for term in query_terms[topic_id]:
            weights[term] = weights.get(term, 0.0) + 1.0
        df = {t: sum(1 for counts in docs.values() if t in counts) for t in weights}
        scores = {}
        for doc_id, counts in docs.items():
            score = 0.0
            for term, weight in weights.items():
                tf = counts.get(term, 0)
                if tf == 0:
                    continue
                norm = K1 * (1.0 - B + B * lengths[doc_id] / avgdl)
                idf = math.log(1.0 + (n - df[term] + 0.5) / (df[term] + 0.5))
                score += weight * idf * (tf * (K1 + 1.0)) / (tf + norm)
            if score > 0.0:
                scores[doc_id] = score
        expected = sorted(scores.items(), key=lambda item: (-item[1], item[0]))[:10]
        got = [(parts[2], float(parts[4])) for parts in run.get(topic_id, [])[:10]]
        if len(got) != len(expected):
            failures.append(f"oracle: topic {topic_id} has {len(got)} of {len(expected)} top docs")
            continue
        for (doc_id, score), (_, oracle_score) in zip(got, expected):
            # A tie may order either way; each listed document must carry the
            # oracle's score and each rank the oracle's score at that rank.
            if not (math.isclose(score, oracle_score, rel_tol=1e-9)
                    and math.isclose(scores.get(doc_id, 0.0), score, rel_tol=1e-9)):
                failures.append(f"oracle: topic {topic_id} doc {doc_id} scored {score!r}, "
                                f"oracle {scores.get(doc_id, 0.0)!r}")
                break
    return failures


def negation_free_identical(run_files: dict[str, Path], topic_ids: list[str]) -> list[str]:
    runs = {name: read_run_lines(path) for name, path in run_files.items()}
    reference_name = next(iter(runs))
    failures = []
    for topic_id in topic_ids:
        reference = [parts[:5] for parts in runs[reference_name].get(topic_id, [])]
        if not reference:
            failures.append(f"identical: topic {topic_id} missing from {reference_name}")
        for name, run in runs.items():
            if [parts[:5] for parts in run.get(topic_id, [])] != reference:
                failures.append(f"identical: topic {topic_id} differs in {name}")
    return failures


def load_planted_corpus(acceptance: Path):
    """``build_planted_corpus`` from the acceptance suite, imported read-only."""
    spec = importlib.util.spec_from_file_location("negir_acceptance", acceptance)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build_planted_corpus()


def write_planted_inputs(acceptance: Path, out: Path) -> None:
    docs, topics, qrels = load_planted_corpus(acceptance)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "collection.jsonl", "w", encoding="utf-8") as handle:
        for doc_id, text in docs:
            handle.write(json.dumps({"doc_id": doc_id, "body": text}) + "\n")
    with open(out / "topics.jsonl", "w", encoding="utf-8") as handle:
        for topic in topics:
            handle.write(json.dumps({"topic_id": topic.topic_id,
                                     "description": topic.description}) + "\n")
    with open(out / "qrels.txt", "w", encoding="utf-8") as handle:
        for topic_id, grades in qrels.judgments.items():
            for doc_id, grade in grades.items():
                handle.write(f"{topic_id} 0 {doc_id} {grade}\n")


def planted_ordering(report: dict) -> tuple[dict[str, float], list[str]]:
    """D- P@10 per strategy from ``compare-groups --json``, and failures."""
    groups = report["groups"]
    p10 = {name: groups[name]["d_minus"]["aggregate"]["p_at_10"] for name in groups}
    failures = []
    sc, tag = p10["score_combination"], p10["negation_tagging"]
    filt, base = p10["filtering"], p10["baseline"]
    if not (sc >= filt >= base and tag >= filt >= base and sc > base and tag > base):
        failures.append(f"planted: strategy ordering broken: {p10}")
    base_plus = groups["baseline"]["d_plus"]["aggregate"]["p_at_10"]
    for name, by_group in groups.items():
        if "d_plus" in by_group and by_group["d_plus"]["aggregate"]["p_at_10"] != base_plus:
            failures.append(f"planted: {name} changed negation-free P@10")
    return p10, failures
