"""Query bundle construction: the four variants and their term counts."""

import random

from negir.corpus import Topic
from negir.index import PLAIN, TAGGED
from negir.querygen import build_bundle, bundle_summary

EXAMPLE = Topic(
    "1",
    "She denies smoking, diabetes, hypercholesterolemia, "
    "or a family history of heart disease.",
)

NEGATED_TERMS = [
    "smoking",
    "diabetes",
    "hypercholesterolemia",
    "family",
    "history",
    "heart",
    "disease",
]


def terms(query):
    return [t for t, _ in query.terms]


def test_example_bundle(lexicon, stopwords):
    bundle = build_bundle(EXAMPLE, lexicon, stopwords)
    assert terms(bundle.q_neg) == NEGATED_TERMS
    assert terms(bundle.q_pos) == []
    assert terms(bundle.q_full) == NEGATED_TERMS
    assert terms(bundle.q_tagged) == ["[nx]" + t for t in NEGATED_TERMS]
    assert bundle.n_full == 7
    assert bundle.n_neg == 7


def test_fields_assigned(lexicon, stopwords):
    bundle = build_bundle(EXAMPLE, lexicon, stopwords)
    assert bundle.q_full.field == PLAIN
    assert bundle.q_pos.field == PLAIN
    assert bundle.q_neg.field == PLAIN
    assert bundle.q_tagged.field == TAGGED


def test_negation_free_bundle(lexicon, stopwords):
    topic = Topic("t", "Persistent chest pain radiating toward the left arm.")
    bundle = build_bundle(topic, lexicon, stopwords)
    assert terms(bundle.q_neg) == []
    assert bundle.n_neg == 0
    assert bundle.q_pos.terms == bundle.q_full.terms
    assert terms(bundle.q_tagged) == terms(bundle.q_full)


def test_build_deterministic(lexicon, stopwords):
    first = build_bundle(EXAMPLE, lexicon, stopwords)
    second = build_bundle(EXAMPLE, lexicon, stopwords)
    assert first == second


def test_all_weights_are_one(lexicon, stopwords):
    bundle = build_bundle(EXAMPLE, lexicon, stopwords)
    for query in (bundle.q_full, bundle.q_pos, bundle.q_neg, bundle.q_tagged):
        assert all(w == 1.0 for _, w in query.terms)


def test_duplicates_kept_not_deduplicated(lexicon, stopwords):
    topic = Topic("t", "fever fever chills no fever")
    bundle = build_bundle(topic, lexicon, stopwords)
    assert terms(bundle.q_full) == ["fever", "fever", "chills", "fever"]
    assert terms(bundle.q_pos) == ["fever", "fever", "chills"]
    assert terms(bundle.q_neg) == ["fever"]
    assert bundle.n_full == 4


MIXED_VOCAB = [
    "fever", "cough", "pain", "nausea", "rash", "edema", "chest", "acute",
    "no", "not", "denies", "without", "negative", "for", "but", "however",
    "and", "the", "was", "ruled", "out",
]


def test_multiset_identity_fuzz(lexicon, stopwords):
    rng = random.Random(2024)
    for _ in range(100):
        description = " ".join(
            rng.choice(MIXED_VOCAB) + ("." if rng.random() < 0.1 else "")
            for _ in range(rng.randint(3, 50))
        )
        topic = Topic("t", description)
        bundle = build_bundle(topic, lexicon, stopwords)
        assert sorted(terms(bundle.q_pos) + terms(bundle.q_neg)) == sorted(
            terms(bundle.q_full)
        )
        assert len(bundle.q_tagged.terms) == bundle.n_full
        assert bundle.n_neg <= bundle.n_full
        assert (bundle.n_neg == 0) == (terms(bundle.q_tagged) == terms(bundle.q_full))


def test_57_term_description_counts_57(lexicon, stopwords):
    # 57 content tokens that survive stopword removal and contain no cues.
    content = [f"finding{i}" for i in range(57)]
    topic = Topic("t", "The patient shows " + " ".join(content) + ".")
    bundle = build_bundle(topic, lexicon, stopwords)
    assert bundle.n_full == 57 + 2  # "patient", "shows" survive as well
    trimmed = Topic("t", " ".join(content))
    assert build_bundle(trimmed, lexicon, stopwords).n_full == 57


def test_bundle_summary_shape(lexicon, stopwords):
    summary = bundle_summary(build_bundle(EXAMPLE, lexicon, stopwords))
    assert summary["topic_id"] == "1"
    assert summary["n_neg"] == 7
    assert summary["q_neg"] == NEGATED_TERMS
    assert summary["q_tagged"][0].startswith("[nx]")
