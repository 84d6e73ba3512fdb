"""TREC-style evaluation: qrels/run I/O, metrics, and group analysis.

Metrics follow trec_eval conventions: unjudged retrieved documents count
as non-relevant, short rankings leave missing ranks non-relevant, and
aggregates are unweighted arithmetic means over the topics present in
the qrels (topics absent from a run contribute zero). Ranks are scored in
run-file order. negir writes tied scores by ascending doc id, while
trec_eval re-sorts each topic by score and breaks ties by doc id in
reverse order, so a run with ties can score otherwise there (Lin and
Yang, "The Impact of Score Ties on Repeatability in Document Ranking",
SIGIR 2019).

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

import math
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .corpus import _check_id, atomic_write, decode_json, id_fault, read_lines, read_text
from .errors import NegirError, ParseError

if TYPE_CHECKING:  # for annotations only: ``eval`` needs neither querygen nor negation
    from .querygen import QueryBundle

INFAP_EPSILON = 1e-5

DEFAULT_NDCG_CUTOFF = 1000


# A topic's pooled doc ids in disjoint non-empty strata; the judged
# documents are a uniform sample of each stratum.
Strata = tuple[frozenset[str], ...]


class RunResult(NamedTuple):
    """A run: its tag, and per topic the (doc_id, score) entries in rank
    order. ``write_run`` checks them against the rules of a run line."""

    run_tag: str
    topics: dict[str, list[tuple[str, float]]]


# ---------------------------------------------------------------------------
# Individual metrics of one topic. ``ranking`` is a list of doc_ids in
# rank order, ``grades`` the topic's judgments (unjudged counts as 0).
# ---------------------------------------------------------------------------


def p_at_k(ranking: Sequence[str], grades: Mapping[str, int], k: int = 10) -> float:
    """Fraction of the top k that is relevant; missing ranks count as not."""
    hits = sum(1 for doc_id in ranking[:k] if grades.get(doc_id, 0) >= 1)
    return hits / k


def ndcg(
    ranking: Sequence[str], grades: Mapping[str, int], cutoff: int = DEFAULT_NDCG_CUTOFF
) -> float:
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
    return dcg / _add(g / math.log2(r + 1) for r, g in enumerate(ideal, start=1))


def _add(values: Iterable[float]) -> float:
    """``values`` added left to right from 0.0. Python 3.12 and later
    compensate a float ``sum``, so it would print other digits there."""
    total = 0.0
    for value in values:
        total += value
    return total


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

    def aggregate(self) -> TopicMetrics:
        if not self.per_topic:
            return TopicMetrics(0.0, 0.0, 0.0, 0.0)
        columns = list(zip(*(m.values() for m in self.per_topic.values())))
        means = [_add(column) / len(column) for column in columns]
        return TopicMetrics(*means)


def evaluate(
    run: RunResult,
    qrels: Mapping[str, Mapping[str, int]],
    ndcg_cutoff: int = DEFAULT_NDCG_CUTOFF,
    sampling: Mapping[str, Strata] | None = None,
) -> MetricsReport:
    """Score a run against qrels, topic by topic.

    Every topic present in the qrels is scored; topics missing from the
    run receive zeros. ``sampling``, from ``read_sampling_sidecar``, gives
    every qrels topic its strata for inferred AP.
    """
    per_topic: dict[str, TopicMetrics] = {}
    for topic_id, grades in qrels.items():
        ranking = [doc_id for doc_id, _ in run.topics.get(topic_id, [])]
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
    ndcg_cutoff: int = DEFAULT_NDCG_CUTOFF,
) -> GroupReport:
    """Compare strategies on the negation-bearing group against the
    negation-free run named ``BASELINE``, which ``runs_by_strategy`` must
    hold, reporting the early-precision gap recovered.
    """
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

    base = reports[BASELINE]
    base_plus = base["d_plus"].aggregate().p_at_10
    base_minus = base["d_minus"].aggregate().p_at_10
    # An empty group aggregates to 0.0, not to a P@10: it leaves no gap to measure.
    both_groups = base["d_plus"].per_topic and base["d_minus"].per_topic
    reductions: dict[str, float | None] = {}
    improvements: dict[str, float | None] = {}
    for name in runs_by_strategy:
        if name == BASELINE:
            continue
        strategy_minus = reports[name]["d_minus"].aggregate().p_at_10
        reductions[name] = (
            gap_reduction(base_plus, base_minus, strategy_minus) if both_groups else None
        )
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


def _ranking_fault(
    topic_id: str, doc_id: str, score: float, previous: float, docs: set[str]
) -> str | None:
    """The ranking rule that ``doc_id`` at ``score`` breaks as the next
    entry of topic ``topic_id``, below the documents ``docs`` and the
    score ``previous`` (inf at rank 1); or None, and ``doc_id`` joins ``docs``."""
    if not math.isfinite(score):
        return f"score {score!r} in topic {topic_id} is not a finite number"
    if doc_id in docs:
        return f"duplicate document {doc_id!r} in topic {topic_id}"
    if score > previous:
        return f"scores increase with rank in topic {topic_id}"
    docs.add(doc_id)
    return None


def read_run(path: str | Path) -> RunResult:
    """Read a TREC run file, topic Q0 docid rank score tag. A ParseError names
    a line whose rank is not its topic's next from 1, or that ``_ranking_fault`` refuses."""
    topics: dict[str, list[tuple[str, float]]] = {}
    seen: dict[str, set[str]] = {}  # each topic's documents so far
    run_tag = ""
    for lineno, (topic_id, _, doc_id, rank_text, score_text, tag) in _fields(path, 6, "run"):
        try:
            rank = int(rank_text)
            score = float(score_text)
        except ValueError:
            raise ParseError("bad rank or score field", str(path), lineno) from None
        if topic_id not in topics:
            topics[topic_id], seen[topic_id] = [], set()
        ranked = topics[topic_id]
        if rank != len(ranked) + 1:
            problem = f"rank {rank} out of order for topic {topic_id} (expected {len(ranked) + 1})"
        else:
            previous = ranked[-1][1] if ranked else math.inf
            problem = _ranking_fault(topic_id, doc_id, score, previous, seen[topic_id])
        if problem:
            raise ParseError(problem, str(path), lineno)
        ranked.append((doc_id, score))
        run_tag = run_tag or tag
    return RunResult(run_tag, topics)


def write_run(run: RunResult, path: str | Path) -> None:
    """Write a run in TREC format, for ``read_run`` to read back equal but
    for topics without entries, which write no line. Before ``path`` is
    opened, a NegirError names the first fault, topics in run order: a
    tag, topic id or doc id that ``id_fault`` refuses, or a rule of
    ``_ranking_fault`` broken. ``path`` is replaced once all is written."""
    fault = id_fault(run.run_tag)
    if fault:
        raise NegirError(f"run tag {run.run_tag!r} {fault}")
    for topic_id, ranked in run.topics.items():
        fault = id_fault(topic_id)
        if fault:
            raise NegirError(f"topic_id {topic_id!r} {fault}")
        docs: set[str] = set()
        previous = math.inf
        for doc_id, score in ranked:
            fault = id_fault(doc_id)
            if fault:
                raise NegirError(f"doc_id {doc_id!r} in topic {topic_id} {fault}")
            problem = _ranking_fault(topic_id, doc_id, score, previous, docs)
            if problem:
                raise NegirError(problem)
            previous = score
    with atomic_write(path, "w", encoding="utf-8") as out:
        for topic_id in sorted(run.topics, key=_topic_sort_key):
            for rank, (doc_id, score) in enumerate(run.topics[topic_id], start=1):
                out.write(f"{topic_id} Q0 {doc_id} {rank} {score!r} {run.run_tag}\n")


def _topic_sort_key(topic_id: str) -> tuple:
    """Ids of ASCII digits first, in the order of their values; then the
    others as strings. No id is converted: a 5,000-digit one is too long
    for ``int``, and "²" is a digit that ``int`` refuses."""
    if topic_id.isascii() and topic_id.isdigit():
        stripped = topic_id.lstrip("0")
        return (0, len(stripped), stripped)
    return (1, topic_id)


# ---------------------------------------------------------------------------
# Sampling sidecar and report rendering
# ---------------------------------------------------------------------------


def read_sampling_sidecar(
    path: str | Path, qrels: Mapping[str, Mapping[str, int]]
) -> dict[str, Strata]:
    """JSON sidecar: {topic_id: [[pooled doc ids of stratum 1], ...]}.

    The sidecar must list exactly the topics of ``qrels``, each once.
    Per topic, the strata must be non-empty, and each doc id must pass
    the id rule of every input (``corpus._check_id``) and be listed once
    in all the topic's strata; each stratum must hold a judged document,
    and each relevant judged document must sit in a stratum. A ParseError
    names the file and the topic otherwise.
    """
    path = str(path)
    data = decode_json(read_text(path), path)
    if not isinstance(data, dict):
        raise ParseError("expected a JSON object of topic ids to strata", path)
    topic_ids: set[str] = set()
    sampling = {
        _check_id("topic_id", topic_id, topic_ids, path):
            _checked_strata(strata, qrels.get(topic_id), f"{path}: topic {topic_id}")
        for topic_id, strata in data.items()
    }
    for topic_id in qrels:
        if topic_id not in sampling:
            raise ParseError(f"topic {topic_id}: missing from the sampling sidecar", path)
    return sampling


def _checked_strata(strata: object, grades: Mapping[str, int] | None, where: str) -> Strata:
    """One topic's sidecar strata, checked against its grades; a
    ParseError names ``where``, the file and the topic, and the first fault."""
    if grades is None:
        raise ParseError("missing from the qrels", where)
    if not isinstance(strata, list) or not all(isinstance(s, list) for s in strata):
        raise ParseError("strata must be lists of doc ids", where)
    checked: list[frozenset[str]] = []
    pooled: set[str] = set()
    for number, listed in enumerate(strata, start=1):
        stratum = frozenset([_check_id("doc_id", doc_id, pooled, where) for doc_id in listed])
        if not stratum:
            raise ParseError(f"stratum {number} is empty", where)
        if stratum.isdisjoint(grades):
            raise ParseError(f"stratum {number} has no judged documents", where)
        checked.append(stratum)
    for doc_id, grade in grades.items():
        if grade >= 1 and doc_id not in pooled:
            raise ParseError(f"judged document {doc_id!r} missing from all strata", where)
    return tuple(checked)


def report_to_dict(report: MetricsReport) -> dict:
    aggregate = report.aggregate()
    return {
        "run_tag": report.run_tag,
        "num_topics": len(report.per_topic),
        "aggregate": dict(zip(TopicMetrics._fields, aggregate.values())),
        "per_topic": {
            topic_id: dict(zip(TopicMetrics._fields, metrics.values()))
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
