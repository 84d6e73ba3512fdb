"""Builds the four query representations of a topic description.

From one description we derive:

  * ``q_full``   - every content term, negated or not
  * ``q_pos``    - content terms outside any negation scope
  * ``q_neg``    - content terms inside negation scopes, plain surfaces
  * ``q_tagged`` - the full term sequence with "[nx]" prefixes, for the
                   tagged index field

Cue tokens that survive stopword removal (e.g. "denies") are dropped
from all four variants, so q_pos and q_neg always partition q_full.
Every term carries base weight 1.0; repeated terms stay repeated and
accumulate at scoring time. ``n_full`` and ``n_neg`` count term tokens
(duplicates included) and drive the adaptive combination weight.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import Topic
from .index import PLAIN, TAGGED, WeightedQuery
from .negation import TriggerLexicon, analyze_text


@dataclass(frozen=True)
class QueryBundle:
    topic_id: str
    q_full: WeightedQuery
    q_pos: WeightedQuery
    q_neg: WeightedQuery
    q_tagged: WeightedQuery
    n_full: int
    n_neg: int


def build_bundle(topic: Topic, lexicon: TriggerLexicon, stopwords: frozenset[str]) -> QueryBundle:
    """Run the full query pipeline for one topic.

    n_full and n_neg count the terms that actually appear in q_full and
    q_neg.
    """
    analysis = analyze_text(topic.description, stopwords, lexicon)
    trigger_positions: set[int] = set()
    for scope in analysis.scopes:
        trigger_positions.update(range(*scope.trigger_span))

    # One pass in description order; every tagged token knows whether it
    # is negated, and cue tokens go into no variant.
    full: list[str] = []
    tagged: list[str] = []
    positive: list[str] = []
    negated: list[str] = []
    for term, token in zip(analysis.terms, analysis.tagged.tokens):
        if token.position in trigger_positions:
            continue
        full.append(term)
        tagged.append(token.surface)
        (negated if token.negated else positive).append(term)

    return QueryBundle(
        topic_id=topic.topic_id,
        q_full=_query(full, PLAIN),
        q_pos=_query(positive, PLAIN),
        q_neg=_query(negated, PLAIN),
        q_tagged=_query(tagged, TAGGED),
        n_full=len(full),
        n_neg=len(negated),
    )


def _query(terms: list[str], field: str) -> WeightedQuery:
    return WeightedQuery(terms=[(term, 1.0) for term in terms], field=field)


def bundle_summary(bundle: QueryBundle) -> dict:
    """JSON-friendly view of a bundle for inspection tooling."""
    return {
        "topic_id": bundle.topic_id,
        "n_full": bundle.n_full,
        "n_neg": bundle.n_neg,
        "q_full": [t for t, _ in bundle.q_full.terms],
        "q_pos": [t for t, _ in bundle.q_pos.terms],
        "q_neg": [t for t, _ in bundle.q_neg.terms],
        "q_tagged": [t for t, _ in bundle.q_tagged.terms],
    }
