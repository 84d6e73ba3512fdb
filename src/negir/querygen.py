"""Builds the four query representations of a topic description.

From one description we derive:

  * ``q_full``   - every content term, negated or not
  * ``q_pos``    - content terms outside any negation scope
  * ``q_neg``    - content terms inside negation scopes, plain surfaces
  * ``q_tagged`` - the full term sequence with "[nx]" prefixes, for the
                   tagged index field

Cue tokens that survive stopword removal (e.g. "denies") are dropped
from all four variants, so q_pos and q_neg always partition q_full.
Each variant is a plain list of terms in description order; repeated
terms stay repeated and accumulate at scoring time. Which index field a
variant is scored on, and with what weight, is the ranking strategy's
choice (``ranking.strategy_components``). ``n_full`` and ``n_neg`` count
term tokens (duplicates included) and drive the adaptive combination
weight.
"""

from __future__ import annotations

from typing import NamedTuple

from .corpus import Topic
from .negation import TriggerLexicon, analyze_text


class QueryBundle(NamedTuple):
    """One topic's query variants; ``negir bundle`` prints its fields in this order."""

    topic_id: str
    n_full: int
    n_neg: int
    q_full: list[str]
    q_pos: list[str]
    q_neg: list[str]
    q_tagged: list[str]


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
        n_full=len(full),
        n_neg=len(negated),
        q_full=full,
        q_pos=positive,
        q_neg=negated,
        q_tagged=tagged,
    )
