"""Acceptance suite: one test per release criterion.

Each criterion prints a PASS/FAIL line with its runtime (visible with
``pytest tests/test_acceptance.py -v -s``) and enforces its runtime
budget. Reference values are either hand-derived from the pinned
formulas or checked against independent brute-force implementations:
the metric references and the BM25 reference scorer in
``tests/oracle.py``. That module is imported inside the criteria that
use it, so this file also loads on its own by path (the benchmark reuses
``build_planted_corpus``).
"""

import random
import time
from contextlib import contextmanager

import pytest

from negir.corpus import Topic, default_stopwords, split_sentences
from negir.evalkit import (
    RunResult,
    gap_reduction,
    group_analysis,
    relative_improvement,
)
from negir.index import PLAIN, build_index, score_query
from negir.negation import analyze_text, default_lexicon
from negir.querygen import QueryBundle, build_bundle
from negir.ranking import Strategy, beta_adaptive, run_strategy

STOPWORDS = default_stopwords()
LEXICON = default_lexicon()

EXAMPLE_SENTENCE = (
    "She denies smoking, diabetes, hypercholesterolemia, "
    "or a family history of heart disease."
)


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS  criterion {number} ({elapsed:.2f}s / budget {budget_seconds}s): {description}")
    assert elapsed < budget_seconds


def analyzed_corpus(docs):
    """Push raw texts through the full analysis pipeline into an index."""
    return build_index(
        (doc_id, analyze_text(text, STOPWORDS, LEXICON).tagged_terms) for doc_id, text in docs
    )


def tagged_tokens(docs):
    """Each document's tagged-field tokens, for the reference scorer."""
    return {
        doc_id: analyze_text(text, STOPWORDS, LEXICON).tagged_terms
        for doc_id, text in docs
    }


# ---------------------------------------------------------------------------
# Criterion 1: group-gap arithmetic reproduces the frozen reference values.
# ---------------------------------------------------------------------------


def test_criterion_1_metric_arithmetic_fixture():
    with criterion(1, "group P@10 arithmetic fixture", budget_seconds=1.0):
        reduction = gap_reduction(0.3429, 0.3094, 0.3313)
        assert reduction == pytest.approx(0.654, abs=0.001)
        improvement = relative_improvement(0.3313, 0.3094)
        assert improvement == pytest.approx(0.071, abs=0.001)


# ---------------------------------------------------------------------------
# Criterion 2: the adaptive beta polynomial and affinity in beta.
# ---------------------------------------------------------------------------


def test_criterion_2_beta_polynomial():
    with criterion(2, "adaptive beta polynomial and affinity", budget_seconds=1.0):
        assert beta_adaptive(57) == pytest.approx(0.90048, abs=1e-5)
        assert beta_adaptive(0) == -1.207

        docs = [
            ("da", "chest pain dyspnea"),
            ("db", "smoking diabetes history"),
            ("dc", "chest pain smoking"),
            ("dd", "rash fever"),
            ("de", "pain diabetes fever dyspnea"),
        ]
        index = analyzed_corpus(docs)
        bundle = build_bundle(
            Topic("t", "chest pain dyspnea. denies smoking diabetes."),
            LEXICON,
            STOPWORDS,
        )
        by_beta = {
            beta: dict(
                run_strategy(
                    Strategy("score_combination", beta_override=beta), bundle, index, k=10
                )
            )
            for beta in (-1.0, 0.0, 1.0)
        }
        for doc_id, _ in docs:
            values = {beta: scores.get(doc_id, 0.0) for beta, scores in by_beta.items()}
            midpoint = (values[-1.0] + values[1.0]) / 2
            assert values[0.0] == pytest.approx(midpoint, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# Criterion 3: negation-free equivalence of all four strategies.
# ---------------------------------------------------------------------------


def test_criterion_3_equivalence_suite():
    with criterion(3, "strategy equivalence on negation-free topics", budget_seconds=10.0):
        rng = random.Random(42)
        vocab = [f"term{i:02d}" for i in range(40)]
        docs = [
            (f"d{i:03d}", " ".join(rng.choice(vocab) for _ in range(rng.randint(4, 25))))
            for i in range(200)
        ]
        index = analyzed_corpus(docs)
        strategies = [
            Strategy("baseline"),
            Strategy("filtering"),
            Strategy("score_combination"),
            Strategy("negation_tagging"),
        ]
        for t in range(100):
            description = " ".join(rng.choice(vocab) for _ in range(rng.randint(3, 18)))
            bundle = build_bundle(Topic(f"t{t}", description), LEXICON, STOPWORDS)
            assert bundle.n_neg == 0
            rankings = [run_strategy(s, bundle, index, k=200) for s in strategies]
            for other in rankings[1:]:
                assert other == rankings[0]  # identical docs AND identical scores


# ---------------------------------------------------------------------------
# Criterion 4: BM25 search equals exhaustive brute-force scoring.
# ---------------------------------------------------------------------------


def token_index(doc_tokens):
    """An index whose documents hold ``doc_tokens``, untagged."""
    return build_index(doc_tokens.items())


def baseline_bundle(terms):
    """A negation-free bundle whose full query is ``terms``."""
    return QueryBundle("t", len(terms), 0, terms, terms, [], terms)


def test_criterion_4_bm25_oracle():
    import oracle

    with criterion(4, "BM25 search vs exhaustive oracle, 100 seeds", budget_seconds=30.0):
        single = token_index({"d": ["fever"]})
        value = score_query(single, PLAIN, ["fever"], 1.0)[0]
        assert value == pytest.approx(0.287682, abs=1e-6)

        for seed in range(100):
            rng = random.Random(seed)
            vocab = [f"w{i}" for i in range(rng.randint(5, 50))]
            doc_tokens = {
                f"d{i:03d}": [rng.choice(vocab) for _ in range(rng.randint(1, 30))]
                for i in range(rng.randint(2, 200))
            }
            index = token_index(doc_tokens)
            n_terms = rng.randint(1, min(8, len(vocab)))
            terms = rng.sample(vocab, n_terms)
            results = run_strategy(
                Strategy("baseline"), baseline_bundle(terms), index, k=len(doc_tokens)
            )
            # Same documents, same order, bit-identical scores.
            assert results == oracle.search(doc_tokens, terms)


# ---------------------------------------------------------------------------
# Criterion 5: negation detection and tagging round-trip.
# ---------------------------------------------------------------------------

FUZZ_VOCAB = (
    ["fever", "cough", "pain", "nausea", "rash", "edema", "chest", "acute", "mild"]
    + ["no", "not", "denies", "denied", "without", "negative", "for", "free", "of"]
    + ["was", "were", "ruled", "out", "increase", "certain", "if", "gram"]
    + ["but", "however", "although", "except", "and", "or", "the", "a", "patient"]
)


def test_criterion_5_negation_detection():
    import oracle

    with criterion(5, "scope detection and tag round-trip", budget_seconds=10.0):
        analysis = analyze_text(EXAMPLE_SENTENCE, STOPWORDS, LEXICON)
        assert len(analysis.scopes) == 1
        scope = analysis.scopes[0]
        assert scope.trigger == "denies"
        (sentence,) = split_sentences(EXAMPLE_SENTENCE)
        assert scope.scope_span[1] == sentence.start + len(sentence.tokens)  # runs to sentence end

        rng = random.Random(2025)
        for _ in range(1000):
            words = []
            for _ in range(rng.randint(1, 60)):
                words.append(rng.choice(FUZZ_VOCAB))
                if rng.random() < 0.1:
                    words.append(rng.choice([".", ";", "!", "?", ","]))
            text = " ".join(words)
            doc = analyze_text(text, STOPWORDS, LEXICON)
            untagged = oracle.untag(doc.tagged_terms, doc.positions)
            assert untagged == oracle.kept_tokens(text, STOPWORDS)  # round-trip identity
            assert [surface for surface, _ in untagged] == doc.terms
            # Scopes in different sentences cannot overlap, so the check
            # runs over the whole text.
            spans = sorted(scope.scope_span for scope in doc.scopes)
            for (_, end1), (start2, _) in zip(spans, spans[1:]):
                assert end1 <= start2  # scopes never overlap


# ---------------------------------------------------------------------------
# Criterion 6: tagging strategy semantics on one-document corpora.
# ---------------------------------------------------------------------------


def test_criterion_6_tagging_semantics():
    import oracle

    with criterion(6, "tagging credit paths on 1-doc corpora", budget_seconds=1.0):
        bundle = build_bundle(Topic("t", "denies smoking"), LEXICON, STOPWORDS)

        negated_doc = analyzed_corpus([("d", "no smoking")])
        tagged_hit = oracle.bm25(tagged_tokens([("d", "no smoking")]), ["[nx]smoking"], "d")
        assert tagged_hit > 0
        strategy = Strategy("negation_tagging")
        ranked = run_strategy(strategy, bundle, negated_doc, k=10)
        assert [doc_id for doc_id, _ in ranked] == ["d"]
        assert ranked[0][1] == pytest.approx(tagged_hit, rel=1e-9)

        plain_doc = analyzed_corpus([("d", "smoking")])
        reference = oracle.bm25(tagged_tokens([("d", "smoking")]), ["smoking"], "d")
        ranked = run_strategy(strategy, bundle, plain_doc, k=10)
        assert [doc_id for doc_id, _ in ranked] == ["d"]
        assert ranked[0][1] == pytest.approx(0.3 * reference, rel=1e-9)


# ---------------------------------------------------------------------------
# Criterion 7: metric implementations vs brute-force references.
# ---------------------------------------------------------------------------


def test_criterion_7_metric_oracles():
    import oracle
    from negir.evalkit import average_precision, inf_ap, ndcg, p_at_k, r_prec

    with criterion(7, "metrics vs brute force, 500 instances", budget_seconds=10.0):
        rng = random.Random(7)
        for _ in range(500):
            n_docs = rng.randint(1, 12)
            docs = [f"d{i}" for i in range(n_docs)]
            grades = {d: rng.choice([0, 0, 1, 1, 2]) for d in docs}
            ranking = rng.sample(docs, rng.randint(0, n_docs))
            relevant = {d for d, g in grades.items() if g >= 1}
            cutoff = rng.choice([3, 10, 1000])

            assert p_at_k(ranking, grades, 10) == pytest.approx(
                oracle.ref_p_at_k(ranking, relevant, 10), abs=1e-12
            )
            assert ndcg(ranking, grades, cutoff) == pytest.approx(
                oracle.ref_ndcg(ranking, grades, cutoff), abs=1e-12
            )
            ap = average_precision(ranking, grades)
            assert ap == pytest.approx(
                oracle.ref_average_precision(ranking, relevant), abs=1e-12
            )
            assert inf_ap(ranking, grades) == ap  # complete judgments
            assert r_prec(ranking, grades) == pytest.approx(
                oracle.ref_r_prec(ranking, relevant), abs=1e-12
            )

        # Ideal ordering scores exactly 1.0.
        assert ndcg(["a", "b", "c", "d"], {"a": 3, "b": 2, "c": 1, "d": 0}) == 1.0


# ---------------------------------------------------------------------------
# Criterion 8: directional desk-scale experiment.
# ---------------------------------------------------------------------------


class PlantedQrels(dict):
    """The planted judgments, ``{topic_id: {doc_id: grade}}``. The
    benchmark's planted check reads them as ``.judgments``."""

    @property
    def judgments(self):
        return self


def build_planted_corpus():
    """500 documents where asserting negated query content marks a
    document irrelevant and negating it marks it relevant."""
    rng = random.Random(99)
    fillers = [f"filler{i:02d}" for i in range(50)]
    docs = []
    topics = []
    qrels = PlantedQrels()

    def pads(count):
        return " ".join(rng.choice(fillers) for _ in range(count))

    for t in range(12):  # negation-bearing topics
        c = [f"cond{t:02d}{s}" for s in "abc"]
        g = [f"ngt{t:02d}{s}" for s in "ab"]
        topic_id = f"neg{t:02d}"
        topics.append(
            Topic(topic_id, f"{c[0]} {c[1]} {c[2]}. denies {g[0]} {g[1]}.")
        )
        for i in range(10):  # relevant: conditions present, findings negated
            doc_id = f"{topic_id}-r{i}"
            text = f"{' '.join(c)} but no {g[0]} {g[1]} {pads(3)}"
            docs.append((doc_id, text))
            qrels.setdefault(topic_id, {})[doc_id] = 1
        for i in range(5):  # flood: same conditions, negated terms asserted
            doc_id = f"{topic_id}-f{i}"
            text = f"{' '.join(c)} {g[0]} {g[0]} {g[1]} {g[1]} {pads(1)}"
            docs.append((doc_id, text))
            qrels.setdefault(topic_id, {})[doc_id] = 0
        for i in range(10):  # hard distractors: heavy assertion of findings
            doc_id = f"{topic_id}-h{i}"
            text = f"{' '.join(c)} {' '.join([g[0]] * 4)} {' '.join([g[1]] * 4)} {pads(1)}"
            docs.append((doc_id, text))
            qrels.setdefault(topic_id, {})[doc_id] = 0

    for t in range(8):  # negation-free topics
        c = [f"pos{t:02d}{s}" for s in "abc"]
        topic_id = f"pos{t:02d}"
        topics.append(Topic(topic_id, f"{c[0]} {c[1]} {c[2]} evaluation"))
        for i in range(5):
            doc_id = f"{topic_id}-r{i}"
            docs.append((doc_id, f"{' '.join(c)} evaluation {pads(4)}"))
            qrels.setdefault(topic_id, {})[doc_id] = 1

    while len(docs) < 500:
        docs.append((f"bg{len(docs):03d}", pads(10)))
    return docs, topics, qrels


def test_criterion_8_directional_experiment():
    with criterion(8, "planted-relevance strategy ordering", budget_seconds=60.0):
        docs, topics, qrels = build_planted_corpus()
        assert len(docs) == 500
        index = analyzed_corpus(docs)
        bundles = [build_bundle(t, LEXICON, STOPWORDS) for t in topics]

        strategies = {
            "baseline": Strategy("baseline"),
            "filtering": Strategy("filtering"),
            "score_combination": Strategy("score_combination", beta_override=1.5),
            "negation_tagging": Strategy("negation_tagging"),
        }
        runs = {}
        for name, strategy in strategies.items():
            runs[name] = RunResult(name, {
                bundle.topic_id: run_strategy(strategy, bundle, index, k=100)
                for bundle in bundles
            })

        report = group_analysis(bundles, runs, qrels)
        assert report.d_minus_topics == {f"neg{t:02d}" for t in range(12)}
        p10 = {
            name: report.reports[name]["d_minus"].aggregate().p_at_10
            for name in strategies
        }
        assert p10["score_combination"] >= p10["filtering"] >= p10["baseline"]
        assert p10["negation_tagging"] >= p10["filtering"] >= p10["baseline"]
        # The planted anti-correlation must actually separate strategies.
        assert p10["score_combination"] > p10["baseline"]
        assert p10["negation_tagging"] > p10["baseline"]
        # Negation handling must not hurt the negation-free group.
        for name in ("filtering", "score_combination", "negation_tagging"):
            assert (
                report.reports[name]["d_plus"].aggregate().p_at_10
                == report.reports["baseline"]["d_plus"].aggregate().p_at_10
            )
