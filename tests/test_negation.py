"""Negation scope detection, tagging, and query-term splitting."""

import random

import pytest
from hypothesis import given, strategies as st

import oracle
from negir.corpus import (
    TOKEN_RE,
    Sentence,
    Topic,
    default_stopwords,
    packaged_data_path,
    split_sentences,
)
from negir.errors import ParseError
from negir.index import fingerprints
from negir.negation import (
    NX_PREFIX,
    analyze_text,
    default_lexicon,
    detect_all,
    detect_negations,
    load_lexicon,
    scope_text,
    tag_tokens,
)
from negir.querygen import build_bundle

EXAMPLE = (
    "She denies smoking, diabetes, hypercholesterolemia, "
    "or a family history of heart disease."
)


def detect_in(text, lexicon):
    sentences = split_sentences(text)
    return sentences, detect_all(sentences, lexicon)


# ---------------------------------------------------------------------------
# detect_negations
# ---------------------------------------------------------------------------


def test_example_sentence_single_scope_to_end(lexicon):
    sentences, scopes = detect_in(EXAMPLE, lexicon)
    assert len(scopes) == 1
    scope = scopes[0]
    assert scope.trigger == "denies"
    assert scope.kind == "pre"
    assert scope_text(sentences[0], scope) == (
        "smoking diabetes hypercholesterolemia or a family history of heart disease"
    )
    # Scope runs to the sentence end.
    assert scope.scope_span[1] == sentences[0].start + len(sentences[0].tokens)


def test_no_trigger_no_scope(lexicon):
    _, scopes = detect_in("The patient has a fever.", lexicon)
    assert scopes == []


def test_terminator_ends_scope(lexicon):
    sentences, scopes = detect_in("no fever but productive cough", lexicon)
    assert len(scopes) == 1
    assert scopes[0].trigger == "no"
    assert scope_text(sentences[0], scopes[0]) == "fever"


def test_next_trigger_ends_scope(lexicon):
    sentences, scopes = detect_in("no fever not hypertensive", lexicon)
    assert [s.trigger for s in scopes] == ["no", "not"]
    assert scope_text(sentences[0], scopes[0]) == "fever"
    assert scope_text(sentences[0], scopes[1]) == "hypertensive"


def test_pseudo_trigger_produces_no_scope(lexicon):
    _, scopes = detect_in("no increase in appetite", lexicon)
    assert scopes == []


def test_pseudo_preferred_over_shorter_trigger(lexicon):
    # "not certain if" must win over plain "not".
    _, scopes = detect_in("not certain if pneumonia developed", lexicon)
    assert scopes == []


def test_multiword_pre_trigger(lexicon):
    sentences, scopes = detect_in("tests negative for influenza", lexicon)
    assert len(scopes) == 1
    assert scopes[0].trigger == "negative for"
    assert scope_text(sentences[0], scopes[0]) == "influenza"


def test_post_trigger_scope_runs_backward(lexicon):
    sentences, scopes = detect_in("pneumonia was ruled out", lexicon)
    assert len(scopes) == 1
    assert scopes[0].kind == "post"
    assert scopes[0].trigger == "was ruled out"
    assert scope_text(sentences[0], scopes[0]) == "pneumonia"


def test_post_trigger_stops_at_terminator(lexicon):
    sentences, scopes = detect_in("fever persists but pneumonia was ruled out", lexicon)
    assert len(scopes) == 1
    assert scope_text(sentences[0], scopes[0]) == "pneumonia"


def test_trigger_at_sentence_end_yields_nothing(lexicon):
    _, scopes = detect_in("symptoms she denies", lexicon)
    assert scopes == []


def test_scopes_are_per_sentence(lexicon):
    sentences, scopes = detect_in("No fever. No cough.", lexicon)
    assert len(scopes) == 2
    for sentence, scope in zip(sentences, scopes):
        assert scope.scope_span == (sentence.start + 1, sentence.start + 2)
        assert scope_text(sentence, scope) == sentence.tokens[1]


def test_scope_window_caps_extent(lexicon):
    text = "denies alpha beta gamma delta epsilon zeta eta"
    sentences = split_sentences(text)
    scopes = detect_negations(sentences[0], lexicon, scope_window=5)
    assert scope_text(sentences[0], scopes[0]) == "alpha beta gamma delta epsilon"
    _, unbounded = detect_in(text, lexicon)
    assert unbounded[0].scope_span[1] - unbounded[0].scope_span[0] == 7


def test_detection_deterministic(lexicon):
    text = "no fever, no cough, but denies chest pain; dyspnea was ruled out"
    assert detect_in(text, lexicon)[1] == detect_in(text, lexicon)[1]


VOCAB = (
    ["fever", "cough", "pain", "nausea", "rash", "edema", "chest", "acute"]
    + ["no", "not", "denies", "without", "negative", "for", "ruled", "out", "was"]
    + ["but", "however", "although", "and", "or", "the", "increase"]
)


def random_text(rng, n_tokens=40):
    parts = []
    for _ in range(n_tokens):
        parts.append(rng.choice(VOCAB))
        if rng.random() < 0.12:
            parts.append(rng.choice([".", ";", "?", "!", ","]))
    return " ".join(parts)


def test_fuzz_scopes_never_overlap_and_exclude_triggers(lexicon):
    rng = random.Random(1234)
    for _ in range(300):
        sentences = split_sentences(random_text(rng))
        for sentence in sentences:
            scopes = detect_negations(sentence, lexicon)
            spans = sorted(s.scope_span for s in scopes)
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                assert e1 <= s2, f"overlap in {sentence.text!r}"
            for scope in scopes:
                assert scope.scope_span[0] < scope.scope_span[1]
                ts, te = scope.trigger_span
                ss, se = scope.scope_span
                assert te <= ss or se <= ts  # trigger outside its scope


def test_list_tokens_find_the_same_scopes(lexicon):
    # A phrase matches whether the tokens come as a tuple or a list.
    for text in ("no fever", "tests negative for influenza", "pneumonia was ruled out"):
        tokens = tuple(TOKEN_RE.findall(text))
        as_tuple = detect_negations(Sentence(text, tokens, 0), lexicon)
        as_list = detect_negations(Sentence(text, list(tokens), 0), lexicon)
        assert as_list == as_tuple != []


# Multi-word pre, post and pseudo cues, a cue's first words alone,
# terminators, stopwords ("no", "not", "for" are also cues), content
# words, and punctuation that ends a sentence or does not.
PIECES = (
    ["no", "not", "denies", "without", "no evidence of", "negative for", "absence of"]
    + ["no history of", "was ruled out", "has been ruled out", "are ruled out"]
    + ["no increase", "not certain if", "cannot be ruled out", "gram negative"]
    + ["no evidence", "ruled", "been", "cannot be"]
    + ["but", "however", "apart from", "other than"]
    + ["the", "of", "a", "and", "it", "was"]
    + ["fever", "cough", "chest pain", "edema", "Rash"]
    + [".", ";", "?", "!", ","]
)

REFERENCE_LEXICON = default_lexicon()
REFERENCE_STOPWORDS = default_stopwords()


@given(
    st.lists(st.sampled_from(PIECES), max_size=40),
    st.sampled_from([None, 1, 2, 5]),
)
def test_analysis_matches_token_by_token_reference(pieces, scope_window):
    text = " ".join(pieces)
    for sentence in split_sentences(text):
        expected = oracle.ref_detect_negations(sentence, REFERENCE_LEXICON, scope_window)
        assert detect_negations(sentence, REFERENCE_LEXICON, scope_window) == expected
        as_list = sentence._replace(tokens=list(sentence.tokens))
        assert detect_negations(as_list, REFERENCE_LEXICON, scope_window) == expected
    analysis = analyze_text(text, REFERENCE_STOPWORDS, REFERENCE_LEXICON)
    scopes, terms, positions, tagged_terms = oracle.ref_analyze(
        text, REFERENCE_STOPWORDS, REFERENCE_LEXICON
    )
    assert analysis.scopes == scopes
    assert analysis.terms == terms
    assert analysis.positions == positions
    assert analysis.tagged_terms == tagged_terms
    assert [tuple(token) for token in analysis.tagged.tokens] == [
        (surface, position, surface.startswith(NX_PREFIX))
        for surface, position in zip(tagged_terms, positions)
    ]


# ---------------------------------------------------------------------------
# tag_tokens / the q_pos, q_neg split of build_bundle
# ---------------------------------------------------------------------------


def test_tag_tokens_prefixes_in_scope(stopwords, lexicon):
    analysis = analyze_text("She denies smoking daily.", stopwords, lexicon)
    assert analysis.tagged_terms == ["denies", "[nx]smoking", "[nx]daily"]
    negated = [t.negated for t in analysis.tagged.tokens]
    assert negated == [False, True, True]


def kept(text, stopwords, lexicon):
    """A text's kept terms and their raw positions."""
    analysis = analyze_text(text, stopwords, lexicon)
    return analysis.terms, analysis.positions


def test_tag_tokens_empty_scopes_is_identity(stopwords, lexicon):
    text = "persistent chest pain"
    terms, positions = kept(text, stopwords, lexicon)
    tagged = tag_tokens(terms, positions, [])
    assert oracle.untag(tagged, positions) == oracle.kept_tokens(text, stopwords)
    assert tagged == terms and tagged is not terms


def test_tag_strip_round_trip(stopwords, lexicon):
    analysis = analyze_text(EXAMPLE, stopwords, lexicon)
    untagged = oracle.untag(analysis.tagged_terms, analysis.positions)
    assert untagged == oracle.kept_tokens(EXAMPLE, stopwords)
    assert [surface for surface, _ in untagged] == analysis.terms


def test_tag_tokens_tolerates_scope_past_stream_tail(stopwords, lexicon):
    # "it" is a stopword, so the scope extends past the last kept token.
    analysis = analyze_text("denies it", stopwords, lexicon)
    assert analysis.tagged_terms == ["denies"]


def split_terms(text, stopwords, lexicon):
    bundle = build_bundle(Topic("t", text), lexicon, stopwords)
    return bundle.q_pos, bundle.q_neg


def test_split_query_terms_example(stopwords, lexicon):
    positive, negated = split_terms(EXAMPLE, stopwords, lexicon)
    assert positive == []
    assert negated == [
        "smoking",
        "diabetes",
        "hypercholesterolemia",
        "family",
        "history",
        "heart",
        "disease",
    ]


def test_split_negation_free_keeps_everything(stopwords, lexicon):
    text = "Persistent chest pain radiating left."
    positive, negated = split_terms(text, stopwords, lexicon)
    assert negated == []
    assert positive == analyze_text(text, stopwords, lexicon).terms


def test_split_fully_negated_text(stopwords, lexicon):
    positive, negated = split_terms("without fever cough rash", stopwords, lexicon)
    assert positive == []
    assert negated == ["fever", "cough", "rash"]


def test_split_partition_preserves_tokens(stopwords, lexicon):
    rng = random.Random(99)
    for _ in range(100):
        text = random_text(rng)
        analysis = analyze_text(text, stopwords, lexicon)
        bundle = build_bundle(Topic("t", text), lexicon, stopwords)
        full, positive, negated = bundle.q_full, bundle.q_pos, bundle.q_neg
        # q_pos and q_neg partition q_full as multisets...
        assert sorted(positive + negated) == sorted(full)
        # ...and q_full is the kept tokens with the cue tokens taken out, in order.
        trigger_positions = set()
        for scope in analysis.scopes:
            trigger_positions.update(range(*scope.trigger_span))
        assert full == [
            surface
            for surface, position in oracle.kept_tokens(text, stopwords)
            if position not in trigger_positions
        ]


@given(st.lists(st.sampled_from(VOCAB), min_size=0, max_size=60))
def test_round_trip_on_generated_token_text(tokens):
    text = " ".join(tokens)
    analysis = analyze_text(text, default_stopwords(), default_lexicon())
    untagged = oracle.untag(analysis.tagged_terms, analysis.positions)
    assert untagged == oracle.kept_tokens(text, default_stopwords())
    assert [surface for surface, _ in untagged] == analysis.terms
    for token in analysis.tagged.tokens:
        assert token.surface.startswith(NX_PREFIX) == token.negated


# ---------------------------------------------------------------------------
# lexicon files
# ---------------------------------------------------------------------------


def _lexicon_file(tmp_path, text):
    path = tmp_path / "lex.txt"
    path.write_text(text, encoding="utf-8")
    return path


def test_load_lexicon_sections(tmp_path):
    path = _lexicon_file(
        tmp_path,
        "# comment\n[pre]\nno\nAbsence  of\n[post]\nwas ruled out\n"
        "[pseudo]\nno increase\n[term]\nbut\n",
    )
    # Keyed by first token, longest phrase first; the comment is no phrase.
    assert load_lexicon(path) == {
        "no": [(("no", "increase"), "pseudo"), (("no",), "pre")],
        "absence": [(("absence", "of"), "pre")],
        "was": [(("was", "ruled", "out"), "post")],
        "but": [(("but",), "term")],
    }


def test_load_lexicon_requires_section_header(tmp_path):
    path = _lexicon_file(tmp_path, "no\n[pre]\nnot\n")
    with pytest.raises(ParseError, match="section"):
        load_lexicon(path)


def test_lexicon_rejects_phrase_in_two_lists(tmp_path):
    for text, line, first in (
        ("[pre]\nno\nabsence of\n[pseudo]\nNo\n[term]\nbut\n", 5, "pre"),
        ("[pre]\nno\n[term]\nbut\n# again\nbut\n", 6, "term"),
    ):
        message = rf"lex\.txt:{line}: phrase .* already listed in \[{first}\]"
        with pytest.raises(ParseError, match=message):
            load_lexicon(_lexicon_file(tmp_path, text))


def test_lexicon_requires_pre_and_terminators(tmp_path):
    for present, missing in (("[term]\nbut\n", "pre"), ("[pre]\nno\n", "term")):
        path = _lexicon_file(tmp_path, f"{present}[post]\nwas ruled out\n[{missing}]\n")
        with pytest.raises(ParseError, match=rf"lex\.txt: lexicon has no \[{missing}\] phrases"):
            load_lexicon(path)


def test_shipped_lexicon_phrases_disjoint(lexicon):
    # Each phrase line of the shipped file is in the table as the kind of
    # its own section, which one of them could not be if a phrase were in
    # two sections.
    kind = None
    lines = packaged_data_path("lexicon.txt").read_text(encoding="utf-8").splitlines()
    for line in (line.strip().lower() for line in lines):
        if line.startswith("["):
            kind = line.strip("[]")
        elif line and not line.startswith("#"):
            phrase = tuple(TOKEN_RE.findall(line))
            assert (phrase, kind) in lexicon[phrase[0]]
    assert kind == "term"


def test_phrase_order_in_the_file_does_not_decide_a_match(tmp_path, stopwords, lexicon):
    # The shipped lexicon with its sections, and the phrase lines of each,
    # in reverse order: the same fingerprint, and detection finds the same
    # scopes, because the longest phrase wins wherever it is listed. The
    # stopwords in reverse order have the same fingerprint too.
    sections, current = [], None
    lines = packaged_data_path("lexicon.txt").read_text(encoding="utf-8").splitlines()
    for line in (line.strip() for line in lines):
        if line.startswith("["):
            current = []
            sections.append((line, current))
        elif line and not line.startswith("#"):
            current.append(line)
    reversed_text = "".join(
        f"{header}\n" + "".join(f"{phrase}\n" for phrase in reversed(phrases))
        for header, phrases in reversed(sections)
    )
    reordered = load_lexicon(_lexicon_file(tmp_path, reversed_text))
    assert fingerprints((), reordered) == fingerprints((), lexicon)
    reversed_stopwords = sorted(stopwords, reverse=True)
    assert fingerprints(reversed_stopwords, lexicon) == fingerprints(stopwords, lexicon)
    rng = random.Random(7)
    texts = [" ".join(rng.choice(PIECES) for _ in range(40)) for _ in range(200)]
    for text in texts + [EXAMPLE, "not certain if pneumonia was ruled out"]:
        for window in (None, 1, 2):
            for sentence in split_sentences(text):
                assert detect_negations(sentence, reordered, window) == detect_negations(
                    sentence, lexicon, window
                )
