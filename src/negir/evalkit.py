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
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .corpus import atomic_write, read_lines, read_text
from .errors import DuplicateIdError, ParseError
from .querygen import QueryBundle

INFAP_EPSILON = 1e-5

METRIC_NAMES = ("p_at_10", "ndcg", "inf_ap", "r_prec")


# A topic's pooled doc ids in disjoint non-empty strata; the judged
# documents are a uniform sample of each stratum.
Strata = tuple[frozenset[str], ...]


class RunResult:
    """Ranked lists per topic, TREC run conventions.

    Per topic, entries are (doc_id, score) in rank order: ranks are dense
    from 1, scores finite and non-increasing, no document repeated.
    """

    def __init__(self, run_tag: str, topics: dict[str, list[tuple[str, float]]] | None = None):
        self.run_tag = run_tag
        self.topics = {} if topics is None else topics

    def add_topic(self, topic_id: str, ranked: Sequence[tuple[str, float]]) -> None:
        if topic_id in self.topics:
            raise ValueError(f"duplicate topic in run: {topic_id}")
        seen = set()
        previous = math.inf
        for doc_id, score in ranked:
            if not math.isfinite(score):
                raise ValueError(f"score {score!r} in topic {topic_id} is not a finite number")
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
# Individual metrics of one topic. ``ranking`` is a list of doc_ids in
# rank order, ``grades`` the topic's judgments (unjudged counts as 0).
# ---------------------------------------------------------------------------


def p_at_k(ranking: Sequence[str], grades: Mapping[str, int], k: int = 10) -> float:
    """Fraction of the top k that is relevant; missing ranks count as not."""
    if k < 1:
        raise ValueError("k must be >= 1")
    hits = sum(1 for doc_id in ranking[:k] if grades.get(doc_id, 0) >= 1)
    return hits / k


def ndcg(ranking: Sequence[str], grades: Mapping[str, int], cutoff: int = 1000) -> float:
    """Normalized DCG with graded gains and a 1/log2(rank+1) discount.

    Topics without any relevant document yield 0.0 (callers flag them).
    """
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


def average_precision(ranking: Sequence[str], grades: Mapping[str, int]) -> float:
    relevant = sum(1 for grade in grades.values() if grade >= 1)
    if not relevant:
        return 0.0
    hits = 0
    total = 0.0
    for rank, doc_id in enumerate(ranking, start=1):
        if grades.get(doc_id, 0) >= 1:
            hits += 1
            total += hits / rank
    return total / relevant


def inf_ap(
    ranking: Sequence[str], grades: Mapping[str, int], strata: Strata | None = None
) -> float:
    """Inferred average precision.

    With ``strata`` absent the judgments are complete and this is exact
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
    ``read_sampling_sidecar`` checks that the strata fit the grades: each
    stratum holds a judged document, and each relevant one is pooled.
    """
    if strata is None:
        return average_precision(ranking, grades)
    rates = [len(stratum & grades.keys()) / len(stratum) for stratum in strata]
    stratum_by_doc = {doc_id: i for i, stratum in enumerate(strata) for doc_id in stratum}
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
        weight = 1.0 / rates[stratum_by_doc[doc_id]]
        denominator += weight
        if doc_id in expected_at:
            numerator += weight * expected_at[doc_id]
    if denominator == 0.0:
        return 0.0
    return numerator / denominator


def r_prec(ranking: Sequence[str], grades: Mapping[str, int]) -> float:
    """Precision at rank R, where R is the topic's relevant-doc count."""
    r = sum(1 for grade in grades.values() if grade >= 1)
    if not r:
        return 0.0
    return p_at_k(ranking, grades, r)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


class TopicMetrics(NamedTuple):
    p_at_10: float
    ndcg: float
    inf_ap: float
    r_prec: float
    no_relevant: bool = False

    def values(self) -> tuple[float, float, float, float]:
        return (self.p_at_10, self.ndcg, self.inf_ap, self.r_prec)


class MetricsReport(NamedTuple):
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
    qrels: Mapping[str, Mapping[str, int]],
    ndcg_cutoff: int = 1000,
    sampling: Mapping[str, Strata] | None = None,
) -> MetricsReport:
    """Score a run against qrels, topic by topic.

    Every topic present in the qrels is scored; topics missing from the
    run receive zeros. ``sampling``, from ``read_sampling_sidecar``, gives
    every qrels topic its strata for inferred AP.
    """
    per_topic: dict[str, TopicMetrics] = {}
    for topic_id, grades in qrels.items():
        ranking = run.ranking(topic_id)
        per_topic[topic_id] = TopicMetrics(
            p_at_10=p_at_k(ranking, grades, 10),
            ndcg=ndcg(ranking, grades, ndcg_cutoff),
            inf_ap=inf_ap(ranking, grades, None if sampling is None else sampling[topic_id]),
            r_prec=r_prec(ranking, grades),
            no_relevant=not any(grade >= 1 for grade in grades.values()),
        )
    return MetricsReport(run_tag=run.run_tag, per_topic=per_topic)


# ---------------------------------------------------------------------------
# Group analysis
# ---------------------------------------------------------------------------


BASELINE = "baseline"  # the run name that group gaps are measured against


class GroupReport(NamedTuple):
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
    qrels: Mapping[str, Mapping[str, int]],
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


def read_qrels(path: str | Path) -> dict[str, dict[str, int]]:
    """Read whitespace-separated qrels, topic 0 docid grade, into
    ``{topic_id: {doc_id: grade}}`` in file order.

    A ParseError names the line of a grade that is not an integer >= 0
    or of a second judgment of one document for one topic.
    """
    qrels: dict[str, dict[str, int]] = {}
    for lineno, (topic_id, _, doc_id, grade_text) in _fields(path, 4, "qrels"):
        try:
            grade = int(grade_text)
        except ValueError:
            raise ParseError(f"bad relevance grade {grade_text!r}", str(path), lineno) from None
        grades = qrels.setdefault(topic_id, {})
        if grade < 0:
            problem = f"negative relevance grade for {topic_id}/{doc_id}"
        elif doc_id in grades:
            problem = f"duplicate judgment for {topic_id}/{doc_id}"
        else:
            grades[doc_id] = grade
            continue
        raise ParseError(problem, str(path), lineno)
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


def read_sampling_sidecar(
    path: str | Path, qrels: Mapping[str, Mapping[str, int]]
) -> dict[str, Strata]:
    """JSON sidecar: {topic_id: [[pooled doc ids of stratum 1], ...]}.

    The sidecar must list exactly the topics of ``qrels``, each once.
    Per topic, the strata must be non-empty and disjoint and list each
    document once; each stratum must hold a judged document, and each
    relevant judged document must sit in a stratum. A ParseError names
    the file and the topic otherwise.
    """
    path = str(path)
    text = read_text(path)
    try:
        data = json.loads(text, object_pairs_hook=lambda pairs: _unique_keys(pairs, path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON ({exc.msg})", path, exc.lineno) from exc
    if not isinstance(data, dict):
        raise ParseError("expected a JSON object of topic ids to strata", path)
    sampling: dict[str, Strata] = {}
    for topic_id, strata in data.items():
        try:
            sampling[topic_id] = _checked_strata(strata, qrels.get(topic_id))
        except ValueError as exc:
            raise ParseError(f"topic {topic_id}: {exc}", path) from None
    for topic_id in qrels:
        if topic_id not in sampling:
            raise ParseError(f"topic {topic_id}: missing from the sampling sidecar", path)
    return sampling


def _unique_keys(pairs: list[tuple[str, object]], path: str) -> dict[str, object]:
    """A JSON object's pairs as a dict; a key listed twice is a ParseError."""
    table: dict[str, object] = {}
    for key, value in pairs:
        if key in table:
            raise DuplicateIdError("topic_id", key, path)
        table[key] = value
    return table


def _checked_strata(strata: object, grades: Mapping[str, int] | None) -> Strata:
    """One topic's sidecar strata, checked against its grades; a
    ValueError names the first fault."""
    if grades is None:
        raise ValueError("missing from the qrels")
    if not isinstance(strata, list) or not all(isinstance(s, list) for s in strata):
        raise ValueError("strata must be lists of doc ids")
    checked: list[frozenset[str]] = []
    pooled: set[str] = set()
    for number, listed in enumerate(strata, start=1):
        doc_ids = [str(doc_id) for doc_id in listed]
        stratum = frozenset(doc_ids)
        if len(stratum) < len(doc_ids):
            doc_id = min(d for d, count in Counter(doc_ids).items() if count > 1)
            raise ValueError(f"document {doc_id!r} is listed twice in stratum {number}")
        if not stratum:
            raise ValueError(f"stratum {number} is empty")
        if not pooled.isdisjoint(stratum):
            raise ValueError(f"document {min(pooled & stratum)!r} is listed in two strata")
        if stratum.isdisjoint(grades):
            raise ValueError(f"stratum {number} has no judged documents")
        pooled |= stratum
        checked.append(stratum)
    for doc_id, grade in grades.items():
        if grade >= 1 and doc_id not in pooled:
            raise ValueError(f"judged document {doc_id!r} missing from all strata")
    return tuple(checked)


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
