"""Reference scorers for the tests: BM25 and sampled inferred AP, done the direct way.

It scores one document at a time straight from its token list, or from
a ``Counter`` of it and a given length for postings decoded from a
snapshot: no inverted index, no precomputed statistics. The arithmetic
follows the pinned formula in the order the engine documents (a query
is a term list plus one weight; a repeated term's weight is summed per
occurrence and terms are taken in first-seen order, contributions added
from 0.0), so its scores are the exact values the engine must produce,
and tests compare them with ``==``.

Strategy scores are built from whole-query scores with the expressions
of the ranking module's docstring, one document at a time.

``postings`` builds a field's postings with a ``Counter`` per document,
the reference for the plain postings the index derives from the tagged
ones.

``untag`` undoes negation tagging, and ``kept_tokens`` lists the
(surface, position) pairs it must give back, for the round-trip checks.

``ref_detect_negations`` and ``ref_analyze`` are the reference for text
analysis: they try every phrase of the lexicon at every token, keep the
longest that matches, and tag term by term, where the engine only tries
the tokens that can start a phrase, in the table's longest-first order,
and tags a text in one pass.

``ref_p_at_k``, ``ref_average_precision``, ``ref_ndcg`` and
``ref_r_prec`` are the references for the other metrics of a topic,
written from their definitions over the set of relevant documents.
``ref_ndcg`` adds DCG and the ideal DCG rank by rank with ``+=`` from
0.0, as the engine does: Python 3.12 and later compensate a float
``sum``, so ``sum`` would give other floats there than on 3.10 and 3.11.

``ref_inf_ap`` is the reference for sampled inferred AP: the estimator
in its direct form, which rescans the ranking prefix for every relevant
document. The engine's one-pass ``inf_ap`` must return the same floats,
and ``evaluate`` those of all five references, ranks taken in run-file
order.

``ref_trec_text`` is the reference for reading a well-formed trec-text
collection, written from the format: per <DOC> block, the block's lines
joined with spaces, and each field taken from that string by one
pattern, where the engine reads line by line and tag by tag.
"""

import math
import re
from array import array
from collections import Counter

from negir.corpus import split_sentences
from negir.negation import POST, PRE, NegationScope

K1 = 1.2
B = 0.75


def merged(terms, weight):
    """Each distinct term with ``weight`` added once per occurrence, from
    0.0, in first-seen order."""
    weights = {}
    for term in terms:
        weights[term] = weights.get(term, 0.0) + weight
    return list(weights.items())


def bm25(doc_tokens, terms, doc_id, weight=1.0, k1=K1, b=B, lengths=None):
    """BM25 of one document for the query ``terms`` at ``weight`` per
    term; ``doc_tokens`` maps every doc_id to its tokens, or to a
    ``Counter`` of them, and ``lengths`` maps it to its length, by
    default the number of its tokens."""
    if lengths is None:
        lengths = {other: len(tokens) for other, tokens in doc_tokens.items()}
    n = len(doc_tokens)
    avgdl = sum(lengths.values()) / n
    tokens = doc_tokens[doc_id]
    score = 0.0
    for term, term_weight in merged(terms, weight):
        tf = tokens[term] if isinstance(tokens, Counter) else tokens.count(term)
        if tf == 0:
            continue
        df = sum(1 for other in doc_tokens.values() if term in other)
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        norm = k1 * (1.0 - b + b * lengths[doc_id] / avgdl)
        score += term_weight * idf * (tf * (k1 + 1.0)) / (tf + norm)
    return score


def postings(docs):
    """term -> (doc numbers, tfs), two u32 arrays, from the term lists
    ``docs`` in doc number order."""
    result = {}
    for number, terms in enumerate(docs):
        for term, tf in Counter(terms).items():
            numbers, tfs = result.setdefault(term, (array("I"), array("I")))
            numbers.append(number)
            tfs.append(tf)
    return result


def matches(doc_tokens, terms):
    """Documents containing at least one query term."""
    return {doc_id for doc_id, tokens in doc_tokens.items() if set(terms) & set(tokens)}


def search(doc_tokens, terms):
    """Every matching document as (doc_id, score), best first, id tiebreak."""
    scored = [(doc_id, bm25(doc_tokens, terms, doc_id)) for doc_id in matches(doc_tokens, terms)]
    return sorted(scored, key=lambda item: (-item[1], item[0]))


def strategy_scores(plain, tagged, bundle, kind, beta=None, expansion_weight=0.3, lengths=None):
    """Per-document strategy scores over the documents it can rank.

    ``plain`` and ``tagged`` map doc_id to the tokens of the two fields,
    as ``bm25`` takes them with ``lengths``; ``bundle`` is a
    ``QueryBundle``; ``beta`` None means the adaptive polynomial.
    """
    q_full, q_pos, q_neg, q_tagged = bundle.q_full, bundle.q_pos, bundle.q_neg, bundle.q_tagged

    def bm25_at(doc_tokens, terms, doc_id, weight=1.0):
        return bm25(doc_tokens, terms, doc_id, weight, lengths=lengths)

    if kind == "baseline" or (kind == "negation_tagging" and not q_neg):
        return {d: bm25_at(plain, q_full, d) for d in matches(plain, q_full)}
    if kind == "filtering":
        return {d: bm25_at(plain, q_pos, d) for d in matches(plain, q_pos)}
    if kind == "score_combination":
        if beta is None:
            n = bundle.n_full
            beta = -0.0001638 * n * n + 0.04631 * n - 1.207
        candidates = matches(plain, q_full) | matches(plain, q_neg)
        return {
            d: bm25_at(plain, q_full, d) - beta * bm25_at(plain, q_neg, d) for d in candidates
        }
    candidates = matches(tagged, q_tagged)
    if expansion_weight > 0:
        candidates |= matches(tagged, q_neg)
    scores = {}
    for d in candidates:
        score = bm25_at(tagged, q_tagged, d)
        if expansion_weight > 0:
            score += bm25_at(tagged, q_neg, d, expansion_weight)
        scores[d] = score
    return scores


def ranked(scores, k):
    """Top k of a doc_id -> score map: descending score, ascending doc_id."""
    return sorted(scores.items(), key=lambda item: (-item[1], item[0]))[:k]


NX_PREFIX = "[nx]"


def untag(tagged_terms, positions):
    """The tagged terms with the "[nx]" prefix removed from the negated
    ones, paired with their positions."""
    return tuple(
        (term.removeprefix(NX_PREFIX), position)
        for term, position in zip(tagged_terms, positions)
    )


RAW_TOKEN_RE = re.compile(r"[a-z0-9]+")  # the tokenizer's pattern, over lowercased text


def kept_tokens(text, stopwords):
    """(surface, position) of every non-stopword token of ``text``, where
    the position is the token's index among all the text's raw tokens."""
    return tuple(
        (surface, position)
        for position, surface in enumerate(RAW_TOKEN_RE.findall(text.lower()))
        if surface not in stopwords
    )


def ref_detect_negations(sentence, lexicon, scope_window=None):
    """A sentence's negation scopes: at every token in turn, each phrase of
    ``lexicon`` (whatever its key or place in the table) is tried, and the
    longest that matches is taken."""
    surfaces = tuple(sentence.tokens)
    n = len(surfaces)
    base = sentence.start
    phrases = [entry for entries in lexicon.values() for entry in entries]

    events = []  # (kind, start, end, phrase)
    i = 0
    while i < n:
        found = [(p, kind) for p, kind in phrases if surfaces[i : i + len(p)] == p]
        if not found:
            i += 1
            continue
        phrase, kind = max(found, key=lambda entry: len(entry[0]))
        events.append((kind, i, i + len(phrase), " ".join(phrase)))
        i += len(phrase)

    scopes = []
    claimed_end = 0  # rightmost local index claimed by any event span or scope
    for idx, (kind, start, end, phrase) in enumerate(events):
        if kind == PRE:
            scope_start = end
            scope_end = events[idx + 1][1] if idx + 1 < len(events) else n
            if scope_window is not None:
                scope_end = min(scope_end, end + scope_window)
            if scope_start < scope_end:
                scopes.append(NegationScope(
                    phrase, (base + start, base + end),
                    (base + scope_start, base + scope_end), PRE,
                ))
                claimed_end = max(claimed_end, scope_end)
        elif kind == POST:
            scope_start = claimed_end
            if scope_window is not None:
                scope_start = max(scope_start, start - scope_window)
            if scope_start < start:
                scopes.append(NegationScope(
                    phrase, (base + start, base + end),
                    (base + scope_start, base + start), POST,
                ))
        claimed_end = max(claimed_end, end)
    return scopes


def ref_analyze(text, stopwords, lexicon):
    """``(scopes, terms, positions, tagged_terms)`` of a text, each kept
    token filtered and tagged on its own."""
    sentences = split_sentences(text)
    scopes = [scope for sentence in sentences for scope in ref_detect_negations(sentence, lexicon)]
    negated = set()
    for scope in scopes:
        negated.update(range(*scope.scope_span))
    terms, positions, tagged_terms = [], [], []
    for sentence in sentences:
        for position, surface in enumerate(sentence.tokens, sentence.start):
            if surface in stopwords:
                continue
            terms.append(surface)
            positions.append(position)
            tagged_terms.append(NX_PREFIX + surface if position in negated else surface)
    return scopes, terms, positions, tagged_terms


def ref_p_at_k(ranking, relevant, k):
    return sum(1 for d in ranking[:k] if d in relevant) / k


def ref_average_precision(ranking, relevant):
    if not relevant:
        return 0.0
    total, hits = 0.0, 0
    for i, doc in enumerate(ranking):
        if doc in relevant:
            hits += 1
            total += hits / (i + 1)
    return total / len(relevant)


def ref_ndcg(ranking, grades, cutoff):
    gains = sorted((g for g in grades.values() if g > 0), reverse=True)
    if not gains:
        return 0.0
    dcg = 0.0  # rank by rank, a non-relevant rank adding an exact 0.0
    for i, doc in enumerate(ranking[:cutoff]):
        dcg += grades.get(doc, 0) / math.log2(i + 2)
    idcg = 0.0
    for i, gain in enumerate(gains[:cutoff]):
        idcg += gain / math.log2(i + 2)
    return dcg / idcg


def ref_r_prec(ranking, relevant):
    if not relevant:
        return 0.0
    return sum(1 for d in ranking[: len(relevant)] if d in relevant) / len(relevant)


INFAP_EPSILON = 1e-5


def ref_inf_ap(ranking, grades, strata):
    """Sampled inferred AP, rescanning the ranking prefix per relevant document.

    The estimator of ``negir.evalkit.inf_ap`` written the direct way: for
    each sampled relevant document, ``_ref_expected_precision`` counts
    every stratum's pooled, relevant and non-relevant documents above it
    from scratch. The weighted sum runs in qrels order.
    """
    judged = set(grades)
    rates = []
    for stratum in strata:
        if not stratum:
            raise ValueError("empty stratum in sampling metadata")
        sampled = len(stratum & judged)
        if sampled == 0:
            raise ValueError("stratum with no judged documents")
        rates.append(sampled / len(stratum))

    rank_of = {doc_id: rank for rank, doc_id in enumerate(ranking, start=1)}
    numerator = 0.0
    denominator = 0.0
    for doc_id, grade in grades.items():
        if grade < 1:
            continue
        stratum_index = next(
            (i for i, stratum in enumerate(strata) if doc_id in stratum), None
        )
        if stratum_index is None:
            raise ValueError(f"judged document {doc_id!r} missing from all strata")
        weight = 1.0 / rates[stratum_index]
        denominator += weight
        rank = rank_of.get(doc_id)
        if rank is None:
            continue
        numerator += weight * _ref_expected_precision(ranking, grades, strata, rank)
    if denominator == 0.0:
        return 0.0
    return numerator / denominator


def _ref_expected_precision(ranking, grades, strata, rank):
    if rank == 1:
        return 1.0
    above = ranking[: rank - 1]
    expected = 1.0 / rank
    for stratum in strata:
        in_stratum = [doc_id for doc_id in above if doc_id in stratum]
        if not in_stratum:
            continue
        rel = sum(1 for d in in_stratum if grades.get(d, -1) >= 1)
        nonrel = sum(1 for d in in_stratum if grades.get(d, -1) == 0)
        expected += (
            ((rank - 1) / rank)
            * (len(in_stratum) / (rank - 1))
            * ((rel + INFAP_EPSILON) / (rel + nonrel + 2 * INFAP_EPSILON))
        )
    return expected


def ref_trec_text(text):
    """``(doc_id, text)`` of each <DOC> block of a well-formed trec-text
    file whose lines end in '\\n': the block's non-blank lines, stripped
    and joined with spaces, give each <DOCNO>, <TITLE> and <TEXT> field
    (tags in any case) its stripped value, and a title precedes the text."""
    documents = []
    blocks = re.findall(r"^\s*<DOC>\s*$(.*?)^\s*</DOC>\s*$", text, re.IGNORECASE | re.M | re.S)
    for block in blocks:
        joined = " ".join(line.strip() for line in block.split("\n") if line.strip())
        pairs = re.findall(r"<(DOCNO|TITLE|TEXT)>(.*?)</\1>", joined, re.IGNORECASE)
        fields = {tag.upper(): value.strip() for tag, value in pairs}
        title, body = fields.get("TITLE"), fields.get("TEXT", "")
        documents.append((fields["DOCNO"], f"{title} {body}" if title else body))
    return documents
