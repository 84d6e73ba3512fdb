"""Query bundle construction: the four variants and their term counts."""

import dataclasses
import random

from negir.corpus import Topic
from negir.index import PLAIN, TAGGED
from negir.querygen import build_bundle
from negir.ranking import STRATEGY_KINDS, Strategy, strategy_components

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


def test_example_bundle(lexicon, stopwords):
    bundle = build_bundle(EXAMPLE, lexicon, stopwords)
    assert bundle.q_neg == NEGATED_TERMS
    assert bundle.q_pos == []
    assert bundle.q_full == NEGATED_TERMS
    assert bundle.q_tagged == ["[nx]" + t for t in NEGATED_TERMS]
    assert bundle.n_full == 7
    assert bundle.n_neg == 7


def test_fields_assigned(lexicon, stopwords):
    # The strategies choose each variant's field and weight: q_tagged and
    # the 0.3-weighted q_neg expansion go to the tagged field, the rest to plain.
    bundle = build_bundle(EXAMPLE, lexicon, stopwords)
    components = {
        kind: [(field, terms, weight) for _, field, terms, weight in
               strategy_components(Strategy(kind), bundle)]
        for kind in STRATEGY_KINDS
    }
    assert components == {
        "baseline": [(PLAIN, bundle.q_full, 1.0)],
        "filtering": [(PLAIN, bundle.q_pos, 1.0)],
        "score_combination": [(PLAIN, bundle.q_full, 1.0), (PLAIN, bundle.q_neg, 1.0)],
        "negation_tagging": [(TAGGED, bundle.q_tagged, 1.0), (TAGGED, bundle.q_neg, 0.3)],
    }


def test_negation_free_bundle(lexicon, stopwords):
    topic = Topic("t", "Persistent chest pain radiating toward the left arm.")
    bundle = build_bundle(topic, lexicon, stopwords)
    assert bundle.q_neg == []
    assert bundle.n_neg == 0
    assert bundle.q_pos == bundle.q_full
    assert bundle.q_tagged == bundle.q_full


def test_build_deterministic(lexicon, stopwords):
    first = build_bundle(EXAMPLE, lexicon, stopwords)
    second = build_bundle(EXAMPLE, lexicon, stopwords)
    assert first == second


def test_duplicates_kept_not_deduplicated(lexicon, stopwords):
    topic = Topic("t", "fever fever chills no fever")
    bundle = build_bundle(topic, lexicon, stopwords)
    assert bundle.q_full == ["fever", "fever", "chills", "fever"]
    assert bundle.q_pos == ["fever", "fever", "chills"]
    assert bundle.q_neg == ["fever"]
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
        assert sorted(bundle.q_pos + bundle.q_neg) == sorted(bundle.q_full)
        assert len(bundle.q_tagged) == bundle.n_full
        assert bundle.n_neg <= bundle.n_full
        assert (bundle.n_neg == 0) == (bundle.q_tagged == bundle.q_full)


def test_57_term_description_counts_57(lexicon, stopwords):
    # 57 content tokens that survive stopword removal and contain no cues.
    content = [f"finding{i}" for i in range(57)]
    topic = Topic("t", "The patient shows " + " ".join(content) + ".")
    bundle = build_bundle(topic, lexicon, stopwords)
    assert bundle.n_full == 57 + 2  # "patient", "shows" survive as well
    trimmed = Topic("t", " ".join(content))
    assert build_bundle(trimmed, lexicon, stopwords).n_full == 57


def test_bundle_summary_shape(lexicon, stopwords):
    # The record ``negir bundle`` prints, key order included.
    summary = dataclasses.asdict(build_bundle(EXAMPLE, lexicon, stopwords))
    assert list(summary) == ["topic_id", "n_full", "n_neg", "q_full", "q_pos", "q_neg", "q_tagged"]
    assert summary["topic_id"] == "1"
    assert summary["n_neg"] == 7
    assert summary["q_neg"] == NEGATED_TERMS
    assert summary["q_tagged"][0].startswith("[nx]")
