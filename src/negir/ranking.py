"""The four ranking strategies over a query bundle and an index.

baseline            score = S(q_full, D)                     on the plain field
filtering           score = S(q_pos, D)                      on the plain field
score_combination   score = S(q_full, D) - beta * S(q_neg, D)
negation_tagging    score = S(q_tagged, D) + S(q_neg @ w, D) on the tagged field,
                    falling back to the baseline when the query has no
                    negations (exact score equality, not just ranking)

For score_combination, beta defaults to a quadratic in the query length:

    beta(n) = -0.0001638 * n^2 + 0.04631 * n - 1.207

The value is applied verbatim and deliberately not clamped: negative
beta boosts negated content, which helps some queries. The polynomial is
negative below n ~= 29.1, positive up to n ~= 253.7, and negative again
beyond that; ``Strategy.beta_override`` (``--beta``) replaces it.

The tagging expansion scores q_neg, the untagged negated terms, on the
tagged field at weight w = 0.3 per term (by weight linearity, 0.3 times
its score at weight 1), so a document mentioning a negated query term
in positive form still earns partial credit.
"""

from __future__ import annotations

from typing import NamedTuple

from .index import PLAIN, TAGGED, Index, score_query
from .querygen import QueryBundle

BASELINE = "baseline"
FILTERING = "filtering"
SCORE_COMBINATION = "score_combination"
NEGATION_TAGGING = "negation_tagging"
STRATEGY_KINDS = (BASELINE, FILTERING, SCORE_COMBINATION, NEGATION_TAGGING)

DEFAULT_EXPANSION_WEIGHT = 0.3


BETA_A = -0.0001638  # coefficients of beta(n) = a * n^2 + b * n + c
BETA_B = 0.04631
BETA_C = -1.207


def beta_adaptive(n_full: int) -> float:
    """Query-length-adaptive combination weight; may be negative."""
    if n_full < 0:
        raise ValueError("n_full must be >= 0")
    return BETA_A * n_full * n_full + BETA_B * n_full + BETA_C


class Strategy(NamedTuple):
    kind: str
    beta_override: float | None = None
    expansion_weight: float = DEFAULT_EXPANSION_WEIGHT


def strategy_components(
    strategy: Strategy, bundle: QueryBundle
) -> list[tuple[float, str, list[str], float]]:
    """The strategy's score as ``sum(coef * S(terms @ weight, D))`` over
    ``(coef, field, terms, weight)`` components.

    The expansion weight is the component's per-term weight, not its
    coefficient: a coefficient of 0.3 on the whole component would round
    differently. An unknown kind or a negative expansion weight is a
    ValueError.
    """
    kind = strategy.kind
    if kind not in STRATEGY_KINDS:
        raise ValueError(f"unknown strategy: {kind!r}")
    if strategy.expansion_weight < 0:
        raise ValueError("expansion_weight must be >= 0")
    if kind == FILTERING:
        return [(1.0, PLAIN, bundle.q_pos, 1.0)]
    if kind == SCORE_COMBINATION:
        beta = strategy.beta_override
        if beta is None:
            beta = beta_adaptive(bundle.n_full)
        return [(1.0, PLAIN, bundle.q_full, 1.0), (-beta, PLAIN, bundle.q_neg, 1.0)]
    if kind == NEGATION_TAGGING and bundle.q_neg:
        components = [(1.0, TAGGED, bundle.q_tagged, 1.0)]
        if strategy.expansion_weight > 0:
            components.append((1.0, TAGGED, bundle.q_neg, strategy.expansion_weight))
        return components
    return [(1.0, PLAIN, bundle.q_full, 1.0)]  # baseline, and tagging without negations


def run_strategy(
    strategy: Strategy, bundle: QueryBundle, index: Index, k: int
) -> list[tuple[str, float]]:
    """Rank the documents matching any component query of the strategy.

    For score_combination that is the union of q_full and q_neg matches,
    because a document touching only negated content must be rankable
    (with a negative score when beta > 0). Component scores are summed
    per document in component order from 0.0; ``x + (-beta) * y`` rounds
    exactly like ``x - beta * y``, so every score equals the per-document
    formula in the module docstring bit for bit. The top k are returned
    as ``(doc_id, score)`` pairs, by descending score with ascending
    doc_id (the string, not the doc number) breaking ties.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    scores: dict[int, float] = {}
    for coef, field, terms, weight in strategy_components(strategy, bundle):
        for doc, value in score_query(index, field, terms, weight).items():
            scores[doc] = scores.get(doc, 0.0) + coef * value
    doc_ids = index.doc_ids
    ranked = sorted(scores.items(), key=lambda item: (-item[1], doc_ids[item[0]]))
    return [(doc_ids[doc], score) for doc, score in ranked[:k]]
