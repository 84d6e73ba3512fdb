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

The tagging expansion adds the untagged form of each negated term with
per-term weight 0.3 (equivalent, by weight linearity, to adding 0.3
times the plain expansion score), so a document mentioning a negated
query term in positive form still earns partial credit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .index import TAGGED, Index, WeightedQuery, score_query
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


@dataclass(frozen=True)
class Strategy:
    kind: str
    beta_override: float | None = None
    expansion_weight: float = DEFAULT_EXPANSION_WEIGHT

    def __post_init__(self) -> None:
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy: {self.kind!r}")
        if self.expansion_weight < 0:
            raise ValueError("expansion_weight must be >= 0")


def _expansion_query(bundle: QueryBundle, weight: float) -> WeightedQuery:
    return WeightedQuery(
        terms=[(term, base * weight) for term, base in bundle.q_neg.terms],
        field=TAGGED,
    )


def strategy_components(
    strategy: Strategy, bundle: QueryBundle
) -> list[tuple[float, WeightedQuery]]:
    """The strategy's score as ``sum(coef * S(query, D))`` over components.

    The expansion weight stays inside the expansion's term weights: a
    coefficient of 0.3 on the whole component would round differently.
    """
    kind = strategy.kind
    if kind == FILTERING:
        return [(1.0, bundle.q_pos)]
    if kind == SCORE_COMBINATION:
        beta = strategy.beta_override
        if beta is None:
            beta = beta_adaptive(bundle.n_full)
        return [(1.0, bundle.q_full), (-beta, bundle.q_neg)]
    if kind == NEGATION_TAGGING and bundle.q_neg.terms:
        components = [(1.0, bundle.q_tagged)]
        if strategy.expansion_weight > 0:
            components.append((1.0, _expansion_query(bundle, strategy.expansion_weight)))
        return components
    return [(1.0, bundle.q_full)]  # baseline, and tagging without negations


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
    for coef, query in strategy_components(strategy, bundle):
        for doc, value in score_query(index, query).items():
            scores[doc] = scores.get(doc, 0.0) + coef * value
    doc_ids = index.doc_ids
    ranked = sorted(scores.items(), key=lambda item: (-item[1], doc_ids[item[0]]))
    return [(doc_ids[doc], score) for doc, score in ranked[:k]]
