"""Metrics, TREC file I/O, and the negation-group gap analysis."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from negir.errors import NegirError, ParseError
from negir.evalkit import (
    MetricsReport,
    RunResult,
    TopicMetrics,
    _topic_sort_key,
    average_precision,
    evaluate,
    format_table,
    gap_reduction,
    group_analysis,
    inf_ap,
    ndcg,
    p_at_k,
    r_prec,
    read_qrels,
    read_run,
    read_sampling_sidecar,
    relative_improvement,
    split_topics,
    write_run,
)


# ---------------------------------------------------------------------------
# p_at_k
# ---------------------------------------------------------------------------


def test_p_at_10_single_relevant():
    grades = dict(d3=1)
    ranking = [f"d{i}" for i in range(10)]
    assert p_at_k(ranking, grades, 10) == pytest.approx(0.1)


def test_p_at_10_all_relevant():
    grades = {f"d{i}": 1 for i in range(10)}
    assert p_at_k([f"d{i}" for i in range(10)], grades, 10) == 1.0


def test_p_at_10_empty_ranking():
    assert p_at_k([], dict(d0=1), 10) == 0.0


def test_p_at_k_short_ranking_counts_missing_as_nonrelevant():
    grades = dict(d0=1, d1=1)
    assert p_at_k(["d0", "d1"], grades, 10) == pytest.approx(0.2)


def test_p_at_k_values_are_tenths():
    rng = random.Random(3)
    for _ in range(50):
        grades = {f"d{i}": rng.randint(0, 1) for i in range(15)}
        ranking = [f"d{i}" for i in range(rng.randint(0, 15))]
        value = p_at_k(ranking, grades, 10)
        assert (value * 10) == int(value * 10 + 0.5)


# ---------------------------------------------------------------------------
# ndcg
# ---------------------------------------------------------------------------


def test_ndcg_ideal_is_one():
    grades = dict(a=2, b=1)
    assert ndcg(["a", "b"], grades) == 1.0


def test_ndcg_single_relevant_at_rank_two():
    grades = dict(a=0, b=1)
    expected = 1 / math.log2(3)  # DCG at rank 2, IDCG = 1
    assert ndcg(["a", "b"], grades) == pytest.approx(expected, abs=1e-4)
    assert ndcg(["a", "b"], grades) == pytest.approx(0.6309, abs=1e-4)


def test_ndcg_nothing_relevant_retrieved():
    grades = dict(a=1)
    assert ndcg(["b", "c"], grades) == 0.0


def test_ndcg_topic_without_relevant_docs():
    grades = dict(a=0)
    assert ndcg(["a"], grades) == 0.0


def test_ndcg_respects_cutoff():
    grades = dict(a=1, b=1)
    ranking = ["x", "a", "b"]
    # At cutoff 1 nothing relevant is inside the window.
    assert ndcg(ranking, grades, cutoff=1) == 0.0
    assert ndcg(ranking, grades, cutoff=3) > 0.0


def test_ndcg_graded_gains():
    grades = dict(a=3, b=1)
    got = ndcg(["b", "a"], grades)
    expected = (1 / math.log2(2) + 3 / math.log2(3)) / (3 / math.log2(2) + 1 / math.log2(3))
    assert got == pytest.approx(expected, rel=1e-12)


def test_ndcg_invariant_to_swaps_within_equal_grades():
    grades = dict(a=1, b=1, c=0, d=0)
    assert ndcg(["a", "c", "b", "d"], grades) == ndcg(["b", "c", "a", "d"], grades)
    assert ndcg(["a", "c", "b", "d"], grades) == ndcg(["a", "d", "b", "c"], grades)


# ---------------------------------------------------------------------------
# average precision / inferred AP
# ---------------------------------------------------------------------------


def test_ap_two_relevant_at_ranks_one_and_three():
    grades = dict(a=1, c=1)
    got = average_precision(["a", "b", "c"], grades)
    assert got == pytest.approx((1 + 2 / 3) / 2, rel=1e-12)
    assert got == pytest.approx(0.8333, abs=1e-4)


def test_ap_no_relevant_retrieved():
    grades = dict(a=1)
    assert average_precision(["b"], grades) == 0.0


def test_ap_perfect_ranking_is_one():
    grades = dict(a=1, b=1, c=1)
    assert average_precision(["a", "b", "c", "d"], grades) == 1.0


def test_infap_without_sampling_is_exact_ap():
    grades = dict(a=1, b=0, c=1, d=0)
    ranking = ["a", "b", "c", "d"]
    assert inf_ap(ranking, grades) == average_precision(ranking, grades)


def test_infap_single_stratum_hand_computed():
    # Pool of four, half sampled: d1 relevant at rank 1, d3 at rank 3.
    grades = dict(d1=1, d3=1)
    strata = (frozenset({"d1", "d2", "d3", "d4"}),)
    got = inf_ap(["d1", "d2", "d3", "d4"], grades, strata)
    assert got == pytest.approx(0.9999966667, abs=1e-6)


def test_infap_with_nonrelevant_above():
    grades = dict(d2=0, d3=1)
    strata = (frozenset({"d1", "d2", "d3", "d4"}),)
    got = inf_ap(["d1", "d2", "d3", "d4"], grades, strata)
    assert got == pytest.approx(0.33334, abs=1e-5)


def test_infap_two_strata_hand_computed():
    grades = dict(a=1, b=0, d=1)
    strata = (frozenset({"a", "b", "c"}), frozenset({"d", "e"}))
    got = inf_ap(["a", "b", "c", "d", "e"], grades, strata)
    # E[P@1] = 1 and E[P@4] = 0.625, weighted 1.5 : 2.0.
    assert got == pytest.approx(0.7857142857, abs=1e-9)


def test_infap_fully_sampled_close_to_ap():
    rng = random.Random(17)
    for _ in range(25):
        docs = [f"d{i}" for i in range(12)]
        grades = {d: rng.randint(0, 1) for d in docs}
        if not any(grades.values()):
            grades["d0"] = 1
        ranking = docs[:]
        rng.shuffle(ranking)
        strata = (frozenset(docs),)
        full = inf_ap(ranking, grades, strata)
        exact = average_precision(ranking, grades)
        assert full == pytest.approx(exact, abs=1e-3)


def test_infap_estimator_roughly_unbiased():
    # Deterministic subsampling check: averaging the estimate over many
    # uniform half-samples should land near the true AP.
    rng = random.Random(23)
    docs = [f"d{i:02d}" for i in range(40)]
    grades = {d: (1 if rng.random() < 0.3 else 0) for d in docs}
    ranking = docs[:]
    rng.shuffle(ranking)
    truth = average_precision(ranking, grades)
    estimates = []
    for _ in range(300):
        sample = rng.sample(docs, 20)
        if not any(grades[d] for d in sample):
            continue
        sampled = {d: grades[d] for d in sample}
        estimates.append(inf_ap(ranking, sampled, (frozenset(docs),)))
    mean = sum(estimates) / len(estimates)
    assert mean == pytest.approx(truth, abs=0.05)


@st.composite
def sampled_topics(draw):
    """(ranking, grades, strata) of one topic: a pool cut into disjoint
    strata, a non-empty judged sample per stratum with grades 0-2, and a
    ranking of any length over pooled and unpooled documents."""
    pool = [f"p{i}" for i in range(draw(st.integers(1, 12)))]
    labels = draw(st.lists(st.integers(0, 3), min_size=len(pool), max_size=len(pool)))
    strata = [
        [doc for doc, label in zip(pool, labels) if label == stratum]
        for stratum in sorted(set(labels))
    ]
    grade = st.integers(0, 2)
    grades = {}
    for stratum in strata:
        judged = draw(st.lists(st.sampled_from(stratum), min_size=1, unique=True))
        for doc in judged:
            grades[doc] = draw(grade)
    candidates = pool + [f"u{i}" for i in range(draw(st.integers(0, 5)))]
    ranking = draw(st.permutations(candidates))[: draw(st.integers(0, len(candidates)))]
    return ranking, grades, tuple(frozenset(stratum) for stratum in strata)


@settings(max_examples=300, deadline=None)
@given(sampled_topics())
def test_infap_matches_prefix_rescanning_reference(case):
    ranking, grades, strata = case
    assert inf_ap(ranking, grades, strata) == oracle.ref_inf_ap(ranking, grades, strata)


# ---------------------------------------------------------------------------
# r_prec
# ---------------------------------------------------------------------------


def test_rprec_both_in_top_two():
    grades = dict(a=1, b=1)
    assert r_prec(["a", "b", "c"], grades) == 1.0


def test_rprec_no_relevant_docs_is_zero_flagged():
    grades = dict(a=0)
    assert r_prec(["a"], grades) == 0.0
    report = evaluate(_run_from({"t": ["a"]}), {"t": grades})
    assert report.per_topic["t"].no_relevant


def test_rprec_half():
    grades = dict(a=1, b=1, c=1, d=1)
    assert r_prec(["a", "x", "b", "y"], grades) == 0.5


# ---------------------------------------------------------------------------
# shared metric properties
# ---------------------------------------------------------------------------


def test_permuting_below_relevant_does_not_change_p_at_k():
    grades = dict(a=1, b=1)
    head = ["a", "b"]
    tail = ["c", "d", "e", "f"]
    rng = random.Random(5)
    baseline = p_at_k(head + tail, grades, 2)
    for _ in range(10):
        shuffled = tail[:]
        rng.shuffle(shuffled)
        assert p_at_k(head + shuffled, grades, 2) == baseline


def test_all_metrics_bounded():
    rng = random.Random(6)
    for _ in range(100):
        docs = [f"d{i}" for i in range(rng.randint(1, 12))]
        grades = {d: rng.randint(0, 2) for d in docs}
        ranking = rng.sample(docs, rng.randint(0, len(docs)))
        for value in (
            p_at_k(ranking, grades, 10),
            ndcg(ranking, grades),
            inf_ap(ranking, grades),
            r_prec(ranking, grades),
        ):
            assert 0.0 <= value <= 1.0


# ---------------------------------------------------------------------------
# evaluate / aggregation
# ---------------------------------------------------------------------------


def _run_from(rankings, tag="test"):
    return RunResult(tag, {
        topic_id: [(d, float(len(docs) - i)) for i, d in enumerate(docs)]
        for topic_id, docs in rankings.items()
    })


def test_evaluate_scores_topics_missing_from_run_as_zero():
    qrels = {"t1": {"a": 1}, "t2": {"b": 1}}
    report = evaluate(_run_from({"t1": ["a"]}), qrels)
    assert report.per_topic["t2"] == TopicMetrics(0.0, 0.0, 0.0, 0.0)
    assert report.per_topic["t1"].p_at_10 == pytest.approx(0.1)


def test_aggregate_is_mean_over_qrels_topics():
    qrels = {"t1": {"a": 1}, "t2": {"b": 1}}
    report = evaluate(_run_from({"t1": ["a"], "t2": ["x"]}), qrels)
    assert report.aggregate().p_at_10 == pytest.approx(0.05)
    assert len(report.per_topic) == 2


# Python 3.12 and later compensate a float ``sum``; metrics add left to
# right from 0.0, so they print the same digits on every Python.


def test_aggregate_adds_left_to_right():
    qrels = {str(topic): {"a": 1} for topic in range(10)}
    report = evaluate(_run_from({topic: ["a"] for topic in qrels}), qrels)
    assert [m.p_at_10 for m in report.per_topic.values()] == [0.1] * 10
    assert report.aggregate().p_at_10 == 0.09999999999999999  # sum() gives 0.1 on 3.12+


def test_ideal_dcg_adds_left_to_right():
    # DCG and the ideal DCG of an ideal ranking are the same additions.
    grades = {"a": 3, "b": 3, "c": 3, "d": 2, "e": 2}
    assert ndcg(["a", "b", "c", "d", "e"], grades) == 1.0  # not with sum() on 3.12+


@st.composite
def evaluated_runs(draw):
    """(run, qrels, sampling) of one to three topics of ``sampled_topics``,
    each ranked with tied scores in its drawn order, or left out of the run."""
    run, qrels, sampling = {}, {}, {}
    for number, (ranking, grades, strata) in enumerate(
        draw(st.lists(sampled_topics(), min_size=1, max_size=3))
    ):
        topic_id = str(number)
        qrels[topic_id], sampling[topic_id] = grades, strata
        if draw(st.booleans()):
            scores = draw(st.lists(st.integers(0, 2), min_size=len(ranking), max_size=len(ranking)))
            run[topic_id] = [(doc, float(score)) for doc, score in
                             zip(ranking, sorted(scores, reverse=True))]
    return RunResult("r", run), qrels, sampling


@settings(max_examples=200, deadline=None, derandomize=True)
@given(evaluated_runs(), st.booleans(), st.sampled_from([3, 10, 1000]))
def test_evaluate_equals_the_references_in_file_order(case, sampled, cutoff):
    run, qrels, sampling = case
    report = evaluate(run, qrels, ndcg_cutoff=cutoff, sampling=sampling if sampled else None)
    assert list(report.per_topic) == list(qrels)
    for topic_id, grades in qrels.items():
        ranking = [doc for doc, _ in run.topics.get(topic_id, [])]
        relevant = {doc for doc, grade in grades.items() if grade >= 1}
        if sampled:
            ap = oracle.ref_inf_ap(ranking, grades, sampling[topic_id])
        else:
            ap = oracle.ref_average_precision(ranking, relevant)
        assert report.per_topic[topic_id] == TopicMetrics(
            oracle.ref_p_at_k(ranking, relevant, 10),
            oracle.ref_ndcg(ranking, grades, cutoff),
            ap,
            oracle.ref_r_prec(ranking, relevant),
            not relevant,
        )


def test_tied_scores_are_scored_in_run_file_order(tmp_path):
    # negir writes ties by ascending doc id. trec_eval re-sorts them by doc
    # id in reverse order, which would put the relevant "b" first.
    path = tmp_path / "tied.run"
    write_run(RunResult("r", {"1": [("a", 2.5), ("b", 2.5)]}), path)
    grades = {"a": 0, "b": 1}
    metrics = evaluate(read_run(path), {"1": grades}).per_topic["1"]
    assert (metrics.r_prec, metrics.inf_ap) == (0.0, 0.5)
    by_score_then_doc_id = sorted(read_run(path).topics["1"], key=lambda e: (e[1], e[0]))
    trec_eval_order = [doc_id for doc_id, _ in reversed(by_score_then_doc_id)]
    assert trec_eval_order == ["b", "a"]
    assert (r_prec(trec_eval_order, grades), inf_ap(trec_eval_order, grades)) == (1.0, 1.0)


def test_aggregate_invariant_to_topic_order():
    qrels_fwd = {"t1": {"a": 1}, "t2": {"b": 1, "c": 1}}
    qrels_rev = {"t2": {"b": 1, "c": 1}, "t1": {"a": 1}}
    run = _run_from({"t1": ["a", "b"], "t2": ["c", "a", "b"]})
    assert evaluate(run, qrels_fwd).aggregate() == evaluate(run, qrels_rev).aggregate()


def test_run_result_validation(tmp_path):
    # write_run refuses, before it opens the file, a run it could not read back.
    path = tmp_path / "run.txt"

    def refused(pattern, topics, tag="x"):
        with pytest.raises(NegirError, match=pattern):
            write_run(RunResult(tag, topics), path)
        assert list(tmp_path.iterdir()) == []

    refused("duplicate document 'a' in topic t", {"t": [("a", 2.0), ("a", 1.0)]})
    refused("scores increase with rank in topic t", {"t": [("a", 1.0), ("b", 2.0)]})
    for score in (math.inf, -math.inf, math.nan):
        refused(r"score .+ in topic t is not a finite number", {"t": [("a", 2.0), ("b", score)]})
    for word in ("", "a b", " a", "a\tb", "a\u2028"):  # a run line could not hold it
        refused(r"doc_id .+ in topic t is empty or contains", {"t": [("a", 2.0), (word, 1.0)]})
        refused(r"topic_id .+ is empty or contains white", {word: [("a", 1.0)]})
        refused(r"run tag .+ is empty or contains white", {"t": [("a", 1.0)]}, tag=word)
    for word in ("\udc80", "a\ud800b"):  # a lone surrogate: UTF-8 could not encode it
        refused(r"doc_id .+ in topic t cannot be encoded as UTF-8", {"t": [(word, 1.0)]})
        refused(r"topic_id .+ cannot be encoded as UTF-8", {word: [("a", 1.0)]})
        refused(r"run tag .+ cannot be encoded as UTF-8", {"t": [("a", 1.0)]}, tag=word)
    # Topics are checked in their order in the run, not in the order they are written.
    refused("score nan in topic 2 ", {"2": [("a", math.nan)], "1": [("a", math.inf)]})
    # Within an entry: the doc id, then the score, then a repeat, then a rise.
    refused("doc_id 'a b'", {"t": [("a", 1.0), ("a b", math.nan)]})
    refused("score nan", {"t": [("a", 1.0), ("a", math.nan)]})
    refused("duplicate document", {"t": [("a", 1.0), ("a", 2.0)]})
    write_run(RunResult("x", {"t": [("a", 2.0), ("b", 1.0)]}), path)
    assert read_run(path).topics == {"t": [("a", 2.0), ("b", 1.0)]}


# ---------------------------------------------------------------------------
# group analysis
# ---------------------------------------------------------------------------


class FakeBundle:
    def __init__(self, topic_id, n_neg):
        self.topic_id = topic_id
        self.n_neg = n_neg


def test_split_topics_by_negation_count():
    bundles = [FakeBundle("1", 0), FakeBundle("2", 3), FakeBundle("3", 0)]
    d_plus, d_minus = split_topics(bundles)
    assert d_plus == {"1", "3"}
    assert d_minus == {"2"}


def test_gap_reduction_reference_arithmetic():
    # Frozen reference: baseline groups at 0.3429 / 0.3094 with the
    # strategy reaching 0.3313 recover 65.4% of the gap, a 7.1% lift.
    reduction = gap_reduction(0.3429, 0.3094, 0.3313)
    assert reduction == pytest.approx(0.654, abs=0.001)
    improvement = relative_improvement(0.3313, 0.3094)
    assert improvement == pytest.approx(0.071, abs=0.001)


def test_gap_reduction_zero_when_no_change():
    assert gap_reduction(0.4, 0.3, 0.3) == 0.0


def test_gap_reduction_undefined_without_gap():
    assert gap_reduction(0.3, 0.3, 0.35) is None


def test_gap_reduction_of_a_negative_baseline_gap_is_signed():
    # The baseline scores its D- topics above its D+ ones: the gap is
    # -0.2, defined, and a strategy that lowers D- to 0.4 recovers half.
    assert gap_reduction(0.3, 0.5, 0.4) == pytest.approx(0.5)
    assert gap_reduction(0.3, 0.5, 0.6) == pytest.approx(-0.5)


def _single_doc_topic_run(scores_by_topic, tag):
    topics = {}
    for topic_id, relevant_hits in scores_by_topic.items():
        ranked = [(f"rel{i}", float(20 - i)) for i in range(relevant_hits)]
        ranked += [(f"junk{i}", float(5 - i) / 10) for i in range(10 - relevant_hits)]
        topics[topic_id] = ranked
    return RunResult(tag, topics)


def test_group_analysis_end_to_end():
    # Two negation-free topics (P@10 1.0, 0.6 under baseline) and two
    # negation topics (baseline 0.2, 0.4; strategy 0.5, 0.7).
    bundles = [
        FakeBundle("p1", 0),
        FakeBundle("p2", 0),
        FakeBundle("m1", 2),
        FakeBundle("m2", 1),
    ]
    qrels = {topic: {f"rel{i}": 1 for i in range(10)} for topic in ("p1", "p2", "m1", "m2")}
    baseline = _single_doc_topic_run({"p1": 10, "p2": 6, "m1": 2, "m2": 4}, "base")
    strategy = _single_doc_topic_run({"p1": 10, "p2": 6, "m1": 5, "m2": 7}, "strat")
    report = group_analysis(bundles, {"baseline": baseline, "tagging": strategy}, qrels)
    assert report.d_plus_topics == {"p1", "p2"}
    assert report.d_minus_topics == {"m1", "m2"}
    base_plus = report.reports["baseline"]["d_plus"].aggregate().p_at_10
    base_minus = report.reports["baseline"]["d_minus"].aggregate().p_at_10
    strat_minus = report.reports["tagging"]["d_minus"].aggregate().p_at_10
    assert base_plus == pytest.approx(0.8)
    assert base_minus == pytest.approx(0.3)
    assert strat_minus == pytest.approx(0.6)
    # Gap 0.5, recovered 0.3 -> 60%.
    assert report.gap_reduction_p10["tagging"] == pytest.approx(0.6)
    assert report.d_minus_improvement_p10["tagging"] == pytest.approx(1.0)


def test_group_analysis_identical_strategy_zero_reduction():
    bundles = [FakeBundle("p", 0), FakeBundle("m", 1)]
    qrels = {"p": {f"rel{i}": 1 for i in range(10)}, "m": {f"rel{i}": 1 for i in range(10)}}
    baseline = _single_doc_topic_run({"p": 8, "m": 3}, "base")
    clone = _single_doc_topic_run({"p": 8, "m": 3}, "dup")
    report = group_analysis(bundles, {"baseline": baseline, "same": clone}, qrels)
    assert report.gap_reduction_p10["same"] == 0.0


def test_group_analysis_reduction_undefined_without_gap():
    bundles = [FakeBundle("p", 0), FakeBundle("m", 1)]
    qrels = {"p": {"rel0": 1}, "m": {"rel0": 1}}
    run = _single_doc_topic_run({"p": 1, "m": 1}, "base")
    better = _single_doc_topic_run({"p": 1, "m": 1}, "dup")
    report = group_analysis(bundles, {"baseline": run, "same": better}, qrels)
    assert report.gap_reduction_p10["same"] is None  # no baseline gap here


# ---------------------------------------------------------------------------
# TREC file formats
# ---------------------------------------------------------------------------


def test_read_qrels_line(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("1 0 doc-42 1\n1 0 doc-43 0\n2 0 doc-42 2\n", encoding="utf-8")
    assert read_qrels(path) == {"1": {"doc-42": 1, "doc-43": 0}, "2": {"doc-42": 2}}


def test_read_qrels_malformed_line_number(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("1 0 doc-42 1\n1 0 doc-43\n", encoding="utf-8")
    with pytest.raises(ParseError, match="2"):
        read_qrels(path)


def test_run_round_trip(tmp_path):
    run = RunResult("negir", {
        "1": [("doc-42", 12.5), ("doc-7", 3.25)],
        "10": [("doc-1", 0.1)],
        "2": [("doc-9", 7.125)],
    })
    path = tmp_path / "run.txt"
    write_run(run, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "1 Q0 doc-42 1 12.5 negir"
    # Numeric topic ids are ordered numerically: 1, 2, 10.
    assert [line.split()[0] for line in lines] == ["1", "1", "2", "10"]
    loaded = read_run(path)
    assert loaded.run_tag == "negir"
    assert loaded.topics == run.topics
    # A second write is byte-identical.
    path2 = tmp_path / "run2.txt"
    write_run(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


# Text with whitespace of several kinds, including what ends a line.
run_words = st.one_of(
    st.sampled_from(["1", "2", "10", "d-1", "é"]),
    st.text(st.sampled_from("ab1 \t\n\r\x0b\x1c\x85\u2003\u2028"), max_size=3),
    st.text(max_size=3),
)
rankings = st.lists(
    st.tuples(run_words, st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 1.0]))), max_size=4
)


def _readable(run):
    """Whether ``run`` obeys every rule of a run line, checked directly."""
    words = [run.run_tag, *run.topics]
    words += [doc_id for ranked in run.topics.values() for doc_id, _ in ranked]
    if any(word.split() != [word] for word in words):
        return False
    for ranked in run.topics.values():
        scores = [score for _, score in ranked]
        if not all(map(math.isfinite, scores)) or scores != sorted(scores, reverse=True):
            return False
        if len({doc_id for doc_id, _ in ranked}) < len(ranked):
            return False
    return True


@settings(max_examples=300, deadline=None, derandomize=True)
@given(run_words, st.dictionaries(run_words, st.one_of(
    rankings, rankings.map(lambda ranked: sorted(ranked, key=lambda e: e[1], reverse=True))
), max_size=3))
def test_write_run_refuses_or_reads_back(tmp_path_factory, tag, topics):
    # Any run either is refused, leaving the old file as it was, or is
    # written so that read_run returns it: each topic with a line, and the tag.
    path = tmp_path_factory.mktemp("run") / "r.run"
    path.write_text("old contents\n", encoding="utf-8")
    run = RunResult(tag, topics)
    try:
        write_run(run, path)
    except NegirError:
        assert not _readable(run)
        assert path.read_text(encoding="utf-8") == "old contents\n"
        assert list(path.parent.iterdir()) == [path]
        return
    assert _readable(run)
    loaded = read_run(path)
    written = {topic_id: ranked for topic_id, ranked in topics.items() if ranked}
    assert loaded.topics == written
    assert loaded.run_tag == (tag if written else "")


digit_ids = st.one_of(
    st.text("0123456789", min_size=1, max_size=20),
    st.builds(lambda zeros, n: "0" * zeros + str(n), st.integers(0, 3), st.integers(0, 12)),
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.lists(digit_ids, max_size=10))
def test_ascii_digit_topic_ids_sort_as_int(ids):
    # Both sorts are stable, so ids of one value ("007", "7") keep their order.
    assert sorted(ids, key=_topic_sort_key) == sorted(ids, key=int)


def test_write_run_replaces_existing_file_only_when_complete(tmp_path):
    path = tmp_path / "run.txt"
    path.write_text("old contents\n", encoding="utf-8")

    class Unprintable(float):  # passes every check, fails once written
        def __repr__(self):
            raise TypeError("cannot print this score")

    broken = RunResult("negir", {"1": [("a", 1.0)], "2": [("b", Unprintable(0.5))]})
    with pytest.raises(TypeError):  # after topic 1 is written
        write_run(broken, path)
    assert path.read_text(encoding="utf-8") == "old contents\n"
    assert list(tmp_path.iterdir()) == [path]  # no temp file left behind
    run = RunResult("negir", {"1": [("a", 1.0)]})
    write_run(run, path)
    assert path.read_text(encoding="utf-8") == "1 Q0 a 1 1.0 negir\n"
    assert list(tmp_path.iterdir()) == [path]


def test_read_run_checks_rank_order(tmp_path):
    path = tmp_path / "run.txt"
    path.write_text("1 Q0 a 1 2.0 x\n1 Q0 b 3 1.0 x\n", encoding="utf-8")
    with pytest.raises(ParseError, match="2"):
        read_run(path)


def test_read_run_malformed_field_count(tmp_path):
    path = tmp_path / "run.txt"
    path.write_text("1 Q0 a 1 2.0\n", encoding="utf-8")
    with pytest.raises(ParseError, match="1"):
        read_run(path)


def test_sampling_sidecar_round_trip(tmp_path):
    path = tmp_path / "sampling.json"
    path.write_text('{"1": [["a", "b"], ["c"]]}', encoding="utf-8")
    sampling = read_sampling_sidecar(path, {"1": {"a": 1, "c": 0}})
    assert sampling == {"1": (frozenset({"a", "b"}), frozenset({"c"}))}


def test_format_table_alignment():
    table = format_table([("baseline", TopicMetrics(0.325, 0.3072, 0.0978, 0.1597))])
    lines = table.splitlines()
    assert "P@10" in lines[0]
    assert "0.3250" in lines[1]
