"""Strategy scoring: adaptive beta, the four strategies, and run_strategy."""

import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import oracle
import negir.cli
from negir.corpus import Topic
from negir.evalkit import read_run
from negir.index import build_index, load_index
from negir.negation import analyze_text
from negir.querygen import QueryBundle, build_bundle
from negir.ranking import (
    STRATEGY_KINDS, Strategy, beta_adaptive, run_strategy, strategy_components
)


def corpus_index(docs, stopwords, lexicon, **kwargs):
    """Index raw texts through the real analysis pipeline."""
    return analyzed_corpus(docs, stopwords, lexicon, **kwargs)[0]


def analyzed_corpus(docs, stopwords, lexicon, **kwargs):
    """The index plus each field's token lists, for the reference scorer."""
    triples = []
    for doc_id, text in docs:
        analysis = analyze_text(text, stopwords, lexicon)
        triples.append((doc_id, analysis.terms, analysis.tagged_terms))
    plain = {doc_id: terms for doc_id, terms, _ in triples}
    tagged = {doc_id: tagged_terms for doc_id, _, tagged_terms in triples}
    return build_index(tagged.items(), **kwargs), plain, tagged


def bundle_for(description, stopwords, lexicon, topic_id="t"):
    return build_bundle(Topic(topic_id, description), lexicon, stopwords)


def scores(strategy, bundle, index):
    """Every document the strategy ranks, as doc_id -> score."""
    return dict(run_strategy(strategy, bundle, index, k=1000))


def combination(beta):
    return Strategy("score_combination", beta_override=beta)


# ---------------------------------------------------------------------------
# beta_adaptive
# ---------------------------------------------------------------------------


def test_beta_at_57():
    assert beta_adaptive(57) == pytest.approx(0.90048, abs=1e-5)


def test_beta_at_zero_is_constant_term():
    assert beta_adaptive(0) == -1.207


def test_beta_at_10_is_negative():
    assert beta_adaptive(10) == pytest.approx(-0.76028, abs=1e-5)


def test_beta_not_clamped():
    assert beta_adaptive(5) < 0
    assert beta_adaptive(100) > 0
    assert beta_adaptive(400) < 0  # beyond the upper root


def test_beta_matches_polynomial_everywhere():
    for n in range(0, 1001):
        expected = -0.0001638 * n * n + 0.04631 * n - 1.207
        assert beta_adaptive(n) == pytest.approx(expected, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# strategy scores
# ---------------------------------------------------------------------------

DOCS = [
    ("d-pos", "persistent chest pain with dyspnea"),
    ("d-neg", "smoking diabetes obesity noted"),
    ("d-mix", "chest pain but also smoking habit"),
]

QUERY = "persistent chest pain. denies smoking diabetes."


def test_baseline_is_full_query_bm25(stopwords, lexicon):
    index, plain, _ = analyzed_corpus(DOCS, stopwords, lexicon)
    bundle = bundle_for(QUERY, stopwords, lexicon)
    got = scores(Strategy("baseline"), bundle, index)
    assert got == {d: oracle.bm25(plain, bundle.q_full, d) for d in got}
    assert set(got) == oracle.matches(plain, bundle.q_full)


def test_filtering_is_positive_query_bm25(stopwords, lexicon):
    index, plain, _ = analyzed_corpus(DOCS, stopwords, lexicon)
    bundle = bundle_for(QUERY, stopwords, lexicon)
    got = scores(Strategy("filtering"), bundle, index)
    assert got == {d: oracle.bm25(plain, bundle.q_pos, d) for d in got}
    assert set(got) == oracle.matches(plain, bundle.q_pos)


def test_filtering_zero_for_doc_with_only_negated_terms(stopwords, lexicon):
    index = corpus_index(DOCS, stopwords, lexicon)
    bundle = bundle_for(QUERY, stopwords, lexicon)
    assert "d-neg" not in scores(Strategy("filtering"), bundle, index)
    assert scores(Strategy("baseline"), bundle, index)["d-neg"] > 0.0


def test_fully_negated_query_filtering_scores_nothing(stopwords, lexicon):
    index = corpus_index(DOCS, stopwords, lexicon)
    bundle = bundle_for("denies smoking diabetes", stopwords, lexicon)
    assert scores(Strategy("filtering"), bundle, index) == {}
    # Same holds for a description that is one whole negated sub-sentence.
    fully = bundle_for(
        "She denies smoking, diabetes, hypercholesterolemia, "
        "or a family history of heart disease.",
        stopwords,
        lexicon,
    )
    assert fully.q_pos == []
    assert scores(Strategy("filtering"), fully, index) == {}


def test_negation_free_bundle_all_strategies_equal(stopwords, lexicon):
    index, plain, _ = analyzed_corpus(DOCS, stopwords, lexicon)
    bundle = bundle_for("persistent chest pain dyspnea", stopwords, lexicon)
    base = scores(Strategy("baseline"), bundle, index)
    assert base == {d: oracle.bm25(plain, bundle.q_full, d) for d in base}
    assert scores(Strategy("filtering"), bundle, index) == base
    assert scores(Strategy("score_combination"), bundle, index) == base
    assert scores(Strategy("negation_tagging"), bundle, index) == base


def test_combination_beta_zero_equals_baseline(stopwords, lexicon):
    index = corpus_index(DOCS, stopwords, lexicon)
    bundle = bundle_for(QUERY, stopwords, lexicon)
    assert scores(combination(0.0), bundle, index) == scores(
        Strategy("baseline"), bundle, index
    )


def test_combination_negated_only_doc_boundary(stopwords, lexicon):
    # A doc matching only negated terms scores (1 - beta) * S(q_neg):
    # q_full contains the negated terms too, so beta = 1 cancels exactly
    # and only beta > 1 drives the score negative.
    index, plain, _ = analyzed_corpus(DOCS, stopwords, lexicon)
    bundle = bundle_for(QUERY, stopwords, lexicon)
    neg_part = oracle.bm25(plain, bundle.q_neg, "d-neg")
    assert neg_part > 0
    assert scores(combination(1.0), bundle, index)["d-neg"] == pytest.approx(0.0, abs=1e-12)
    for beta in (1.5, 2.0):
        assert scores(combination(beta), bundle, index)["d-neg"] == (
            pytest.approx((1 - beta) * neg_part, rel=1e-9)
        )
    assert scores(combination(1.5), bundle, index)["d-neg"] < 0
    assert scores(combination(-2.0), bundle, index)["d-neg"] > 0


def test_combination_sign_property(stopwords, lexicon):
    # score < 0 exactly when beta * S(q_neg, D) exceeds S(q_full, D).
    index, plain, _ = analyzed_corpus(DOCS, stopwords, lexicon)
    bundle = bundle_for(QUERY, stopwords, lexicon)
    for beta in (-2.0, -0.5, 0.0, 0.5, 1.0, 1.5, 3.0):
        got = scores(combination(beta), bundle, index)
        assert set(got) == {d for d, _ in DOCS}
        for doc_id, score in got.items():
            full = oracle.bm25(plain, bundle.q_full, doc_id)
            neg = oracle.bm25(plain, bundle.q_neg, doc_id)
            assert (score < 0) == (beta * neg > full)


def test_combination_affine_in_beta(stopwords, lexicon):
    index = corpus_index(DOCS, stopwords, lexicon)
    bundle = bundle_for(QUERY, stopwords, lexicon)
    at = {beta: scores(combination(beta), bundle, index) for beta in (-1.0, 0.0, 1.0)}
    for doc_id, _ in DOCS:
        # Three-point collinearity: midpoint value is the mean of endpoints.
        assert at[0.0][doc_id] == pytest.approx(
            (at[-1.0][doc_id] + at[1.0][doc_id]) / 2, rel=1e-9, abs=1e-12
        )


def test_combination_sign_flips_with_beta(stopwords, lexicon):
    index = corpus_index(DOCS, stopwords, lexicon)
    bundle = bundle_for(QUERY, stopwords, lexicon)
    assert scores(combination(2.0), bundle, index)["d-neg"] < 0
    assert scores(combination(-2.0), bundle, index)["d-neg"] > 0


def test_tagging_credits_negated_match(stopwords, lexicon):
    # The document's only "smoking" is inside a negation scope.
    index, _, tagged = analyzed_corpus([("d", "no smoking")], stopwords, lexicon)
    bundle = bundle_for("denies smoking", stopwords, lexicon)
    expected = oracle.bm25(tagged, ["[nx]smoking"], "d")
    assert expected > 0
    assert scores(Strategy("negation_tagging"), bundle, index) == {"d": expected}


def test_tagging_expansion_credits_plain_match(stopwords, lexicon):
    # The document asserts "smoking"; credit flows only through the
    # 0.3-weighted untagged expansion.
    index, _, tagged = analyzed_corpus([("d", "smoking")], stopwords, lexicon)
    bundle = bundle_for("denies smoking", stopwords, lexicon)
    reference = oracle.bm25(tagged, ["smoking"], "d")
    assert reference > 0
    got = scores(Strategy("negation_tagging"), bundle, index)
    assert got["d"] == pytest.approx(0.3 * reference, rel=1e-9)


def test_tagging_expansion_weight_zero(stopwords, lexicon):
    index = corpus_index([("d", "smoking")], stopwords, lexicon)
    bundle = bundle_for("denies smoking", stopwords, lexicon)
    strategy = Strategy("negation_tagging", expansion_weight=0.0)
    assert scores(strategy, bundle, index) == {}


# ---------------------------------------------------------------------------
# run_strategy
# ---------------------------------------------------------------------------


def all_strategies():
    return [
        Strategy("baseline"),
        Strategy("filtering"),
        Strategy("score_combination"),
        Strategy("negation_tagging"),
    ]


def test_negation_free_topic_identical_rankings_and_scores(stopwords, lexicon):
    index = corpus_index(DOCS, stopwords, lexicon)
    bundle = bundle_for("persistent chest pain dyspnea smoking", stopwords, lexicon)
    rankings = [run_strategy(s, bundle, index, 10) for s in all_strategies()]
    for other in rankings[1:]:
        assert other == rankings[0]


def test_run_strategy_k1_returns_argmax(stopwords, lexicon):
    index = corpus_index(DOCS, stopwords, lexicon)
    bundle = bundle_for(QUERY, stopwords, lexicon)
    top = run_strategy(Strategy("baseline"), bundle, index, 1)
    full = run_strategy(Strategy("baseline"), bundle, index, 10)
    assert top == full[:1]


def test_combination_ranks_negated_only_doc_last(stopwords, lexicon):
    index = corpus_index(DOCS, stopwords, lexicon)
    bundle = bundle_for(QUERY, stopwords, lexicon)
    ranked = run_strategy(
        Strategy("score_combination", beta_override=1.5), bundle, index, 10
    )
    ids = [doc_id for doc_id, _ in ranked]
    assert "d-neg" in ids  # candidate set includes q_neg-only matches
    assert ids[-1] == "d-neg"
    last_score = ranked[-1][1]
    assert last_score < 0
    assert all(score > last_score for _, score in ranked[:-1])


def test_strategy_validation(stopwords, lexicon):
    # A Strategy is a plain record; ranking with it checks its kind, also
    # for a topic without negations, which every kind would score as the
    # baseline. The command line checks the settings.
    index = corpus_index([("d", "chest pain")], stopwords, lexicon)
    bundle = bundle_for("chest pain", stopwords, lexicon)
    with pytest.raises(ValueError, match="unknown strategy: 'bogus'"):
        run_strategy(Strategy("bogus"), bundle, index, 10)


def test_run_strategy_matches_exhaustive_scoring(stopwords, lexicon):
    rng = random.Random(11)
    vocab = ["fever", "cough", "rash", "pain", "edema", "chest", "nausea", "chills"]
    docs = []
    for i in range(60):
        words = [rng.choice(vocab) for _ in range(rng.randint(2, 12))]
        if rng.random() < 0.3:
            words.insert(rng.randrange(len(words)), "no")
        docs.append((f"d{i:02d}", " ".join(words)))
    index, plain, tagged = analyzed_corpus(docs, stopwords, lexicon)
    bundle = bundle_for("chest pain edema. denies fever cough.", stopwords, lexicon)
    strategies = [
        Strategy("baseline"),
        Strategy("filtering"),
        combination(0.7),
        Strategy("negation_tagging"),
    ]
    for strategy in strategies:
        got = run_strategy(strategy, bundle, index, k=100)
        expected = oracle.strategy_scores(
            plain, tagged, bundle, strategy.kind, strategy.beta_override
        )
        # Exact scores and order; documents outside the candidate set
        # match nothing the strategy scores.
        assert got == oracle.ranked(expected, 100)


# ---------------------------------------------------------------------------
# Exactness against the reference scorer on random corpora
# ---------------------------------------------------------------------------

VOCAB = ["fever", "cough", "rash", "pain", "edema", "chest"]

documents = st.lists(
    st.lists(st.tuples(st.sampled_from(VOCAB), st.booleans()), max_size=12),
    min_size=1,
    max_size=12,
)
query_terms = st.lists(
    st.tuples(st.sampled_from(VOCAB + ["absent"]), st.booleans()), max_size=10
)


def random_bundle(terms, n_full):
    """A bundle over (term, negated) pairs; q_pos and q_neg partition
    q_full, and q_tagged carries the "[nx]" prefixes."""
    neg = [t for t, negated in terms if negated]
    return QueryBundle(
        topic_id="t",
        n_full=n_full,
        n_neg=len(neg),
        q_full=[t for t, _ in terms],
        q_pos=[t for t, negated in terms if not negated],
        q_neg=neg,
        q_tagged=["[nx]" + t if negated else t for t, negated in terms],
    )


@pytest.mark.parametrize(
    "strategy",
    [
        Strategy("baseline"),
        Strategy("filtering"),
        combination(None),  # adaptive: negative below n = 29, positive above
        combination(-1.3),
        combination(0.0),
        combination(0.8),
        combination(2.5),
        Strategy("negation_tagging"),
        Strategy("negation_tagging", expansion_weight=0.1),
        Strategy("negation_tagging", expansion_weight=0.0),
    ],
    ids=lambda s: f"{s.kind}-beta{s.beta_override}-w{s.expansion_weight}",
)
@settings(max_examples=60, deadline=None)
@given(docs=documents, terms=query_terms, n_full=st.integers(0, 300), k=st.integers(1, 14))
# A term negated ten times: its expansion weight is summed once per
# occurrence, and ten 0.1s (or 0.3s) do not round like 10 * 0.1 (or 10 * 0.3).
@example(docs=[[("fever", False), ("cough", False)], [("fever", False)]],
         terms=[("fever", True)] * 10, n_full=10, k=2)
def test_run_strategy_equals_oracle_exactly(strategy, docs, terms, n_full, k):
    plain, tagged = {}, {}
    for i, words in enumerate(docs):
        doc_id = f"d{i:02d}"
        plain[doc_id] = [w for w, _ in words]
        tagged[doc_id] = ["[nx]" + w if negated else w for w, negated in words]
    index = build_index(tagged.items())
    bundle = random_bundle(terms, n_full)
    expected = oracle.strategy_scores(
        plain, tagged, bundle, strategy.kind, strategy.beta_override, strategy.expansion_weight
    )
    got = run_strategy(strategy, bundle, index, k)
    assert got == oracle.ranked(expected, k)


# Topic sets by the negations their topics carry: tagging scores the
# tagged field for topics with negations and the plain one for the others.
TOPIC_SETS = {
    "none": ["persistent chest pain", "smoking habit"],
    "all": ["denies smoking diabetes", "no chest pain"],
    "mixed": ["persistent chest pain", QUERY],
}


@pytest.mark.parametrize("kind", STRATEGY_KINDS)
def test_run_loads_every_field_its_strategy_scores(
    tmp_path, monkeypatch, stopwords, lexicon, kind
):
    # ``negir run`` asks for the terms that the strategy's components name
    # for its topics, whatever field they score, and ranks them as the
    # fully loaded index does.
    collection, snapshot = tmp_path / "docs.jsonl", tmp_path / "index.ngir"
    collection.write_text(
        "".join(json.dumps({"doc_id": d, "body": text}) + "\n" for d, text in DOCS),
        encoding="utf-8",
    )
    assert negir.cli.main(["index", "--collection", str(collection), "--out", str(snapshot)]) == 0
    index = corpus_index(DOCS, stopwords, lexicon)
    loaded = []

    def recording_load(path, terms):
        loaded.append(set(terms))
        return load_index(path, terms)

    monkeypatch.setattr(negir.cli, "load_index", recording_load)
    for name, descriptions in TOPIC_SETS.items():
        topics, run_file = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.run"
        topics.write_text(
            "".join(
                json.dumps({"topic_id": str(i), "description": text}) + "\n"
                for i, text in enumerate(descriptions, 1)
            ),
            encoding="utf-8",
        )
        argv = ["run", "--index", snapshot, "--topics", topics, "--strategy", kind,
                "--out", run_file]
        assert negir.cli.main([str(arg) for arg in argv]) == 0
        bundles = [bundle_for(text, stopwords, lexicon) for text in descriptions]
        expected = set()
        for bundle in bundles:
            for _, _, part_terms, _ in strategy_components(Strategy(kind), bundle):
                expected.update(part_terms)
        assert loaded.pop() == expected
        ranked = {
            str(i): run_strategy(Strategy(kind), bundle, index, 1000)
            for i, bundle in enumerate(bundles, 1)
        }
        assert read_run(run_file).topics == {topic: docs for topic, docs in ranked.items() if docs}
