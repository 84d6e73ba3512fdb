"""TREC-style evaluation: qrels/run I/O, metrics, and group analysis.

Metrics follow trec_eval conventions: unjudged retrieved documents count
as non-relevant, short rankings leave missing ranks non-relevant, and
aggregates are unweighted arithmetic means over the topics present in
the qrels (topics absent from a run contribute zero).

Inferred average precision is the sampled-judgment estimator of Yilmaz
and Aslam. Without sampling metadata, judgments are treated as complete
and the value is exact average precision; with a sampling sidecar (per
topic, the pooled document ids grouped into strata, of which the judged
documents are a uniform sample per stratum) the estimator extrapolates
from the sample, weighting each sampled relevant document by the inverse
of its stratum's sampling rate. Strata are disjoint, so one scan of the
ranking with running per-stratum counts gives every expected precision.
Group analysis evaluates each run once and splits topics by group.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .corpus import atomic_write, read_lines, read_text
from .errors import ParseError
from .querygen import QueryBundle

INFAP_EPSILON = 1e-5

METRIC_NAMES = ("p_at_10", "ndcg", "inf_ap", "r_prec")


class Qrels:
    """Relevance judgments: one integer grade per (topic, doc) pair."""

    def __init__(self, judgments: Mapping[str, Mapping[str, int]] | None = None):
        self.judgments: dict[str, dict[str, int]] = {}
        if judgments:
            for topic_id, docs in judgments.items():
                for doc_id, grade in docs.items():
                    self.add(topic_id, doc_id, grade)

    def add(self, topic_id: str, doc_id: str, grade: int) -> None:
        if grade < 0:
            raise ValueError(f"negative relevance grade for {topic_id}/{doc_id}")
        topic = self.judgments.setdefault(topic_id, {})
        if doc_id in topic:
            raise ValueError(f"duplicate judgment for {topic_id}/{doc_id}")
        topic[doc_id] = grade

    def grade(self, topic_id: str, doc_id: str) -> int:
        return self.judgments.get(topic_id, {}).get(doc_id, 0)

    def relevant_docs(self, topic_id: str) -> set[str]:
        return {d for d, g in self.judgments.get(topic_id, {}).items() if g >= 1}

    def topic_ids(self) -> list[str]:
        return list(self.judgments.keys())


@dataclass
class RunResult:
    """Ranked lists per topic, TREC run conventions.

    Per topic, entries are (doc_id, score) in rank order: ranks are dense
    from 1, scores non-increasing, no document repeated.
    """

    run_tag: str
    topics: dict[str, list[tuple[str, float]]] = field(default_factory=dict)

    def add_topic(self, topic_id: str, ranked: Sequence[tuple[str, float]]) -> None:
        if topic_id in self.topics:
            raise ValueError(f"duplicate topic in run: {topic_id}")
        seen = set()
        previous = math.inf
        for doc_id, score in ranked:
            if doc_id in seen:
                raise ValueError(f"duplicate document {doc_id!r} in topic {topic_id}")
            if score > previous:
                raise ValueError(f"scores increase with rank in topic {topic_id}")
            seen.add(doc_id)
            previous = score
        self.topics[topic_id] = list(ranked)

    def ranking(self, topic_id: str) -> list[str]:
        return [doc_id for doc_id, _ in self.topics.get(topic_id, [])]


# ---------------------------------------------------------------------------
# Individual metrics. ``ranking`` is a list of doc_ids in rank order.
# ---------------------------------------------------------------------------


def p_at_k(ranking: Sequence[str], qrels: Qrels, topic_id: str, k: int = 10) -> float:
    """Fraction of the top k that is relevant; missing ranks count as not."""
    if k < 1:
        raise ValueError("k must be >= 1")
    hits = sum(1 for doc_id in ranking[:k] if qrels.grade(topic_id, doc_id) >= 1)
    return hits / k


def ndcg(ranking: Sequence[str], qrels: Qrels, topic_id: str, cutoff: int = 1000) -> float:
    """Normalized DCG with graded gains and a 1/log2(rank+1) discount.

    Topics without any relevant document yield 0.0 (callers flag them).
    """
    grades = qrels.judgments.get(topic_id, {})
    ideal = sorted((g for g in grades.values() if g > 0), reverse=True)[:cutoff]
    if not ideal:
        return 0.0
    dcg = 0.0
    for rank, doc_id in enumerate(ranking[:cutoff], start=1):
        grade = grades.get(doc_id, 0)
        if grade > 0:
            dcg += grade / math.log2(rank + 1)
    idcg = sum(g / math.log2(r + 1) for r, g in enumerate(ideal, start=1))
    return dcg / idcg


def average_precision(ranking: Sequence[str], qrels: Qrels, topic_id: str) -> float:
    relevant = qrels.relevant_docs(topic_id)
    if not relevant:
        return 0.0
    hits = 0
    total = 0.0
    for rank, doc_id in enumerate(ranking, start=1):
        if doc_id in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)


@dataclass(frozen=True)
class SamplingInfo:
    """Pool strata for one topic; judged docs are the per-stratum sample.

    Strata are non-empty and disjoint.
    """

    strata: tuple[frozenset[str], ...]

    def __post_init__(self) -> None:
        pooled: set[str] = set()
        for number, stratum in enumerate(self.strata, start=1):
            if not stratum:
                raise ValueError(f"stratum {number} is empty")
            shared = pooled & stratum
            if shared:
                raise ValueError(f"document {min(shared)!r} is listed in two strata")
            pooled |= stratum


def inf_ap(
    ranking: Sequence[str],
    qrels: Qrels,
    topic_id: str,
    sampling: SamplingInfo | None = None,
) -> float:
    """Inferred average precision.

    With ``sampling`` absent the judgments are complete and this is exact
    average precision. Otherwise, for each sampled relevant document at
    rank k the expected precision is estimated as

        E[P@k] = 1/k + (k-1)/k * sum over strata s of
                 (|pool_s above k| / (k-1)) *
                 (rel_s + eps) / (rel_s + nonrel_s + 2 eps)

    where eps is ``INFAP_EPSILON``, rel_s/nonrel_s count judged documents
    of stratum s above rank k, and documents outside every stratum are
    assumed non-relevant. The estimate averages E[P@k] over sampled
    relevant documents (zero when not retrieved), each weighted by the
    inverse of its stratum's sampling rate.

    One scan of the ranking keeps the per-stratum counts above rank k,
    so a topic costs O(k + R * S); the average is summed in qrels order.
    """
    if sampling is None:
        return average_precision(ranking, qrels, topic_id)
    grades = qrels.judgments.get(topic_id, {})
    judged = set(grades)
    rates = []
    for number, stratum in enumerate(sampling.strata, start=1):
        sampled = len(stratum & judged)
        if sampled == 0:
            raise ValueError(f"topic {topic_id}: stratum {number} has no judged documents")
        rates.append(sampled / len(stratum))

    stratum_by_doc = {doc_id: i for i, stratum in enumerate(sampling.strata) for doc_id in stratum}
    pooled = [0] * len(rates)
    relevant = [0] * len(rates)
    nonrelevant = [0] * len(rates)
    expected_at: dict[str, float] = {}  # E[P@k] of each retrieved relevant document
    for rank, doc_id in enumerate(ranking, start=1):
        grade = grades.get(doc_id, -1)
        if grade >= 1:
            expected = 1.0 / rank
            for above, rel, nonrel in zip(pooled, relevant, nonrelevant):
                if above:
                    expected += (
                        ((rank - 1) / rank)
                        * (above / (rank - 1))
                        * ((rel + INFAP_EPSILON) / (rel + nonrel + 2 * INFAP_EPSILON))
                    )
            expected_at[doc_id] = expected
        stratum_index = stratum_by_doc.get(doc_id)
        if stratum_index is not None:
            pooled[stratum_index] += 1
            if grade >= 1:
                relevant[stratum_index] += 1
            elif grade == 0:
                nonrelevant[stratum_index] += 1

    numerator = 0.0
    denominator = 0.0
    for doc_id, grade in grades.items():
        if grade < 1:
            continue
        stratum_index = stratum_by_doc.get(doc_id)
        if stratum_index is None:
            raise ValueError(
                f"topic {topic_id}: judged document {doc_id!r} missing from all strata"
            )
        weight = 1.0 / rates[stratum_index]
        denominator += weight
        if doc_id in expected_at:
            numerator += weight * expected_at[doc_id]
    if denominator == 0.0:
        return 0.0
    return numerator / denominator


def r_prec(ranking: Sequence[str], qrels: Qrels, topic_id: str) -> float:
    """Precision at rank R, where R is the topic's relevant-doc count."""
    relevant = qrels.relevant_docs(topic_id)
    if not relevant:
        return 0.0
    r = len(relevant)
    hits = sum(1 for doc_id in ranking[:r] if doc_id in relevant)
    return hits / r


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TopicMetrics:
    p_at_10: float
    ndcg: float
    inf_ap: float
    r_prec: float
    no_relevant: bool = False

    def values(self) -> tuple[float, float, float, float]:
        return (self.p_at_10, self.ndcg, self.inf_ap, self.r_prec)


@dataclass
class MetricsReport:
    run_tag: str
    per_topic: dict[str, TopicMetrics]

    @property
    def num_topics(self) -> int:
        return len(self.per_topic)

    def aggregate(self) -> TopicMetrics:
        if not self.per_topic:
            return TopicMetrics(0.0, 0.0, 0.0, 0.0)
        columns = list(zip(*(m.values() for m in self.per_topic.values())))
        means = [sum(column) / len(column) for column in columns]
        return TopicMetrics(*means)


def evaluate(
    run: RunResult,
    qrels: Qrels,
    ndcg_cutoff: int = 1000,
    sampling: Mapping[str, SamplingInfo] | None = None,
) -> MetricsReport:
    """Score a run against qrels, topic by topic.

    Every topic present in the qrels is scored; topics missing from the
    run receive zeros. ``sampling``, when given, must cover exactly the
    qrels topics, so that every topic gets inferred AP.
    """
    topic_ids = qrels.topic_ids()
    if sampling is not None and sampling.keys() != set(topic_ids):
        topic_id = min(sampling.keys() ^ set(topic_ids))
        where = "the sampling sidecar" if topic_id in topic_ids else "the qrels"
        raise ValueError(f"topic {topic_id}: missing from {where}")
    per_topic: dict[str, TopicMetrics] = {}
    for topic_id in topic_ids:
        ranking = run.ranking(topic_id)
        info = sampling[topic_id] if sampling is not None else None
        per_topic[topic_id] = TopicMetrics(
            p_at_10=p_at_k(ranking, qrels, topic_id, 10),
            ndcg=ndcg(ranking, qrels, topic_id, ndcg_cutoff),
            inf_ap=inf_ap(ranking, qrels, topic_id, info),
            r_prec=r_prec(ranking, qrels, topic_id),
            no_relevant=not qrels.relevant_docs(topic_id),
        )
    return MetricsReport(run_tag=run.run_tag, per_topic=per_topic)


# ---------------------------------------------------------------------------
# Group analysis
# ---------------------------------------------------------------------------


BASELINE = "baseline"  # the run name that group gaps are measured against


@dataclass
class GroupReport:
    """Metrics split by negation-bearing vs negation-free topics."""

    d_plus_topics: set[str]
    d_minus_topics: set[str]
    reports: dict[str, dict[str, MetricsReport]]  # strategy -> group -> report
    gap_reduction_p10: dict[str, float | None]
    d_minus_improvement_p10: dict[str, float | None]


def gap_reduction(base_d_plus: float, base_d_minus: float, strategy_d_minus: float) -> float | None:
    """Fraction of the baseline group gap recovered by a strategy.

    Returns None when the baseline gap is zero (undefined).
    """
    gap = base_d_plus - base_d_minus
    if gap == 0.0:
        return None
    return (strategy_d_minus - base_d_minus) / gap


def relative_improvement(strategy_value: float, baseline_value: float) -> float | None:
    if baseline_value == 0.0:
        return None
    return strategy_value / baseline_value - 1.0


def split_topics(bundles: Iterable[QueryBundle]) -> tuple[set[str], set[str]]:
    """Partition topic ids into (negation-free, negation-bearing) sets."""
    d_plus: set[str] = set()
    d_minus: set[str] = set()
    for bundle in bundles:
        (d_minus if bundle.n_neg > 0 else d_plus).add(bundle.topic_id)
    return d_plus, d_minus


def group_analysis(
    bundles: Iterable[QueryBundle],
    runs_by_strategy: Mapping[str, RunResult],
    qrels: Qrels,
    ndcg_cutoff: int = 1000,
) -> GroupReport:
    """Compare strategies on the negation-bearing group against the
    negation-free run named ``BASELINE``, reporting the early-precision
    gap recovered.
    """
    if BASELINE not in runs_by_strategy:
        raise ValueError(f"baseline run {BASELINE!r} not among runs")
    d_plus, d_minus = split_topics(bundles)

    # A topic's metrics depend on its own judgments only; per_topic keeps qrels order.
    reports: dict[str, dict[str, MetricsReport]] = {}
    for name, run in runs_by_strategy.items():
        per_topic = evaluate(run, qrels, ndcg_cutoff).per_topic
        reports[name] = {
            group: MetricsReport(
                run.run_tag, {t: m for t, m in per_topic.items() if t in topics}
            )
            for group, topics in (("d_plus", d_plus), ("d_minus", d_minus))
        }

    base_plus = reports[BASELINE]["d_plus"].aggregate().p_at_10
    base_minus = reports[BASELINE]["d_minus"].aggregate().p_at_10
    reductions: dict[str, float | None] = {}
    improvements: dict[str, float | None] = {}
    for name in runs_by_strategy:
        if name == BASELINE:
            continue
        strategy_minus = reports[name]["d_minus"].aggregate().p_at_10
        reductions[name] = gap_reduction(base_plus, base_minus, strategy_minus)
        improvements[name] = relative_improvement(strategy_minus, base_minus)
    return GroupReport(
        d_plus_topics=d_plus,
        d_minus_topics=d_minus,
        reports=reports,
        gap_reduction_p10=reductions,
        d_minus_improvement_p10=improvements,
    )


# ---------------------------------------------------------------------------
# TREC file formats
# ---------------------------------------------------------------------------


def _fields(path: str | Path, count: int, kind: str) -> Iterator[tuple[int, list[str]]]:
    """``(line number, fields)`` for each non-blank line of a
    whitespace-separated file whose lines all hold ``count`` fields."""
    for lineno, line in read_lines(path):
        fields = line.split()
        if len(fields) != count:
            raise ParseError(
                f"expected {count} fields in {kind} line, got {len(fields)}", str(path), lineno
            )
        yield lineno, fields


def read_qrels(path: str | Path) -> Qrels:
    """Read whitespace-separated qrels: topic 0 docid grade."""
    qrels = Qrels()
    for lineno, (topic_id, _, doc_id, grade_text) in _fields(path, 4, "qrels"):
        try:
            grade = int(grade_text)
        except ValueError:
            raise ParseError(f"bad relevance grade {grade_text!r}", str(path), lineno) from None
        try:
            qrels.add(topic_id, doc_id, grade)
        except ValueError as exc:
            raise ParseError(str(exc), str(path), lineno) from None
    return qrels


def read_run(path: str | Path) -> RunResult:
    """Read a TREC run file: topic Q0 docid rank score tag.

    A ParseError names the line that breaks a rule: ranks dense from 1
    per topic, finite scores that do not rise with rank, and no document
    twice in a topic.
    """
    topics: dict[str, list[tuple[str, float]]] = {}
    seen: dict[str, set[str]] = {}  # each topic's documents so far
    run_tag = ""
    for lineno, (topic_id, _, doc_id, rank_text, score_text, tag) in _fields(path, 6, "run"):
        try:
            rank = int(rank_text)
            score = float(score_text)
        except ValueError:
            raise ParseError("bad rank or score field", str(path), lineno) from None
        ranked = topics.get(topic_id)
        if ranked is None:
            ranked = topics[topic_id] = []
            docs = seen[topic_id] = set()
        else:
            docs = seen[topic_id]
        if rank != len(ranked) + 1:
            problem = f"rank {rank} out of order for topic {topic_id} (expected {len(ranked) + 1})"
        elif not math.isfinite(score):
            problem = f"score {score_text!r} is not a finite number"
        elif ranked and score > ranked[-1][1]:
            problem = f"scores increase with rank in topic {topic_id}"
        elif doc_id in docs:
            problem = f"duplicate document {doc_id!r} in topic {topic_id}"
        else:
            docs.add(doc_id)
            ranked.append((doc_id, score))
            run_tag = run_tag or tag
            continue
        raise ParseError(problem, str(path), lineno)
    return RunResult(run_tag, topics)


def write_run(run: RunResult, path: str | Path) -> None:
    """Write a run in TREC format; round-trips through read_run exactly.
    ``path`` is replaced only once the whole run is written."""
    with atomic_write(path, "w", encoding="utf-8") as out:
        for topic_id in sorted(run.topics, key=_topic_sort_key):
            for rank, (doc_id, score) in enumerate(run.topics[topic_id], start=1):
                out.write(f"{topic_id} Q0 {doc_id} {rank} {score!r} {run.run_tag}\n")


def _topic_sort_key(topic_id: str) -> tuple:
    return (0, int(topic_id)) if topic_id.isdigit() else (1, topic_id)


# ---------------------------------------------------------------------------
# Sampling sidecar and report rendering
# ---------------------------------------------------------------------------


def read_sampling_sidecar(path: str | Path) -> dict[str, SamplingInfo]:
    """JSON sidecar: {topic_id: [[pooled doc ids of stratum 1], ...]}.

    Strata must be non-empty and disjoint, and list each document once;
    a ParseError names the file and the topic otherwise.
    """
    path = Path(path)
    try:
        data = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON ({exc.msg})", str(path), exc.lineno) from exc
    if not isinstance(data, dict):
        raise ParseError("expected a JSON object of topic ids to strata", str(path))
    sampling: dict[str, SamplingInfo] = {}
    for topic_id, strata in data.items():
        if not isinstance(strata, list) or not all(isinstance(s, list) for s in strata):
            raise ParseError(f"topic {topic_id}: strata must be lists of doc ids", str(path))
        strata = [[str(d) for d in stratum] for stratum in strata]
        for number, stratum in enumerate(strata, start=1):
            if len(set(stratum)) < len(stratum):
                doc_id = min(d for d, count in Counter(stratum).items() if count > 1)
                raise ParseError(
                    f"topic {topic_id}: document {doc_id!r} is listed twice in stratum {number}",
                    str(path),
                )
        try:
            sampling[topic_id] = SamplingInfo(strata=tuple(map(frozenset, strata)))
        except ValueError as exc:
            raise ParseError(f"topic {topic_id}: {exc}", str(path)) from exc
    return sampling


def report_to_dict(report: MetricsReport) -> dict:
    aggregate = report.aggregate()
    return {
        "run_tag": report.run_tag,
        "num_topics": report.num_topics,
        "aggregate": dict(zip(METRIC_NAMES, aggregate.values())),
        "per_topic": {
            topic_id: dict(zip(METRIC_NAMES, metrics.values()))
            | ({"no_relevant": True} if metrics.no_relevant else {})
            for topic_id, metrics in sorted(report.per_topic.items())
        },
    }


def format_table(rows: Sequence[tuple[str, TopicMetrics]]) -> str:
    """Aligned-column text table: one row per run, four metric columns."""
    name_width = max([len(name) for name, _ in rows] + [8])
    lines = [f"{'':<{name_width}}  {'P@10':>8}  {'NDCG':>8}  {'infAP':>8}  {'RPrec':>8}"]
    for name, metrics in rows:
        values = "  ".join(f"{v:>8.4f}" for v in metrics.values())
        lines.append(f"{name:<{name_width}}  {values}")
    return "\n".join(lines)
