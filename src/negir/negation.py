"""Rule-based negation cue and scope detection, and token tagging.

Detection runs on raw (pre-stopword) sentence tokens because most cues
("no", "not", "without") would otherwise be removed before they can be
seen. A left-to-right scan matches cue phrases greedily (longest first):

  * a pre-cue opens a scope covering the tokens after it, up to the next
    cue/terminator phrase or the sentence end;
  * a post-cue covers tokens backwards to the previous terminator or the
    sentence start;
  * pseudo-cues ("no increase", "gram negative") consume their tokens and
    produce no scope.

Cue and terminator phrase spans are barriers: a scope never contains one,
so scopes within a sentence are pairwise disjoint and never contain their
own trigger. Kept (non-stopword) tokens inside a scope are marked by
prepending "[nx]" to the surface, which survives indexing untouched
because the tokenizer would never produce a bracket.

``analyze_text`` makes no object per token. It returns flat lists: the
kept surfaces as ``terms``, their raw ``positions``, and ``tagged_terms``
(the same surfaces, negated ones prefixed); the index takes ``terms``
and ``tagged_terms`` as its two fields. A per-token ``TaggedToken`` view
is built from those lists only when asked for.
"""

from __future__ import annotations

from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .corpus import TOKEN_RE, Sentence, packaged_data_path, read_lines, split_sentences
from .errors import ParseError

NX_PREFIX = "[nx]"

PRE, POST, PSEUDO, TERMINATOR = "pre", "post", "pseudo", "term"
_SECTIONS = {"[pre]": PRE, "[post]": POST, "[pseudo]": PSEUDO, "[term]": TERMINATOR}


class NegationScope(NamedTuple):
    """A detected cue with the token span it negates.

    Spans are half-open (start, end) document-wide token positions on the
    raw token sequence; both lie within a single sentence.
    """

    sentence_index: int
    trigger: str
    trigger_span: tuple[int, int]
    scope_span: tuple[int, int]
    kind: str  # PRE or POST


class TaggedToken(NamedTuple):
    surface: str  # "[nx]"-prefixed when negated
    position: int  # on the raw token sequence
    negated: bool


class TaggedTokenStream(NamedTuple):
    """The kept tokens of a text, in order, in-scope ones tagged."""

    tokens: tuple[TaggedToken, ...]


class TriggerLexicon:
    """Cue and terminator phrases, each a tuple of tokens mapped to its
    kind (PRE, POST, PSEUDO or TERMINATOR)."""

    def __init__(self, phrases: Mapping[tuple[str, ...], str]):
        # first token -> [(phrase, kind)], longest phrase first
        self._by_first: dict[str, list[tuple[tuple[str, ...], str]]] = {}
        for phrase, kind in phrases.items():
            self._by_first.setdefault(phrase[0], []).append((phrase, kind))
        for candidates in self._by_first.values():
            candidates.sort(key=lambda item: len(item[0]), reverse=True)

    def match_at(self, surfaces: Sequence[str], i: int) -> tuple[tuple[str, ...], str] | None:
        """Longest cue/terminator phrase starting at token i, if any;
        ``surfaces`` may be a tuple, a list or any other sequence."""
        for phrase, kind in self._by_first.get(surfaces[i], ()):
            if tuple(surfaces[i : i + len(phrase)]) == phrase:
                return phrase, kind
        return None


def load_lexicon(path: str | Path) -> TriggerLexicon:
    """Parse a sectioned lexicon file ([pre]/[post]/[pseudo]/[term]).

    Each phrase is tokenized with the standard pattern and may appear
    once in the whole file; [pre] and [term] must each hold a phrase.
    """
    phrases: dict[tuple[str, ...], str] = {}
    current: str | None = None
    for lineno, line in read_lines(path, comments=True):
        line = line.lower()
        if line in _SECTIONS:
            current = _SECTIONS[line]
            continue
        if current is None:
            raise ParseError("phrase before any section header", str(path), lineno)
        phrase = tuple(TOKEN_RE.findall(line))
        if phrase in phrases:
            raise ParseError(
                f"phrase {line!r} already listed in [{phrases[phrase]}]", str(path), lineno
            )
        if phrase:
            phrases[phrase] = current
    for kind in (PRE, TERMINATOR):
        if kind not in phrases.values():
            raise ParseError(f"lexicon has no [{kind}] phrases", str(path))
    return TriggerLexicon(phrases)


def default_lexicon() -> TriggerLexicon:
    """The trigger lexicon shipped with the package."""
    return load_lexicon(packaged_data_path("lexicon.txt"))


# ---------------------------------------------------------------------------
# Detection
# ---------------------------------------------------------------------------


def check_scope_window(scope_window: int | None) -> None:
    """Reject a fixed scope window narrower than one token."""
    if scope_window is not None and scope_window < 1:
        raise ValueError(f"scope window must be at least 1, got {scope_window}")


def detect_negations(
    sentence: Sentence,
    lexicon: TriggerLexicon,
    scope_window: int | None = None,
) -> list[NegationScope]:
    """Scan one sentence for negation scopes.

    ``scope_window`` optionally caps the scope at that many tokens (at
    least 1) from the cue (a fixed-window mode for comparison runs); by
    default scopes extend to the sub-sentence boundary.

    A phrase is tried only where a token can start one; a sentence with
    no such token, as most are, returns at once.
    """
    check_scope_window(scope_window)
    surfaces = sentence.tokens
    by_first = lexicon._by_first
    if by_first.keys().isdisjoint(surfaces):
        return []
    candidates = [i for i, surface in enumerate(surfaces) if surface in by_first]
    n = len(surfaces)
    base = sentence.start

    events: list[tuple[str, int, int, str]] = []  # (kind, start, end, phrase)
    resume = 0  # the first token after the last matched phrase
    for i in candidates:
        if i < resume:
            continue
        match = lexicon.match_at(surfaces, i)
        if match is None:
            continue
        phrase, kind = match
        resume = i + len(phrase)
        events.append((kind, i, resume, " ".join(phrase)))

    scopes: list[NegationScope] = []
    claimed_end = 0  # rightmost local index claimed by any event span or scope
    for idx, (kind, start, end, phrase) in enumerate(events):
        if kind == PRE:
            scope_start = end
            scope_end = events[idx + 1][1] if idx + 1 < len(events) else n
            if scope_window is not None:
                scope_end = min(scope_end, end + scope_window)
            if scope_start < scope_end:
                scopes.append(
                    NegationScope(
                        sentence_index=sentence.sentence_index,
                        trigger=phrase,
                        trigger_span=(base + start, base + end),
                        scope_span=(base + scope_start, base + scope_end),
                        kind=PRE,
                    )
                )
                claimed_end = max(claimed_end, scope_end)
        elif kind == POST:
            # Run backwards to whatever was last claimed: the previous
            # terminator, cue phrase, or scope, else the sentence start.
            scope_start = claimed_end
            if scope_window is not None:
                scope_start = max(scope_start, start - scope_window)
            if scope_start < start:
                scopes.append(
                    NegationScope(
                        sentence_index=sentence.sentence_index,
                        trigger=phrase,
                        trigger_span=(base + start, base + end),
                        scope_span=(base + scope_start, base + start),
                        kind=POST,
                    )
                )
        claimed_end = max(claimed_end, end)
    return scopes


def detect_all(sentences: Iterable[Sentence], lexicon: TriggerLexicon) -> list[NegationScope]:
    scopes: list[NegationScope] = []
    for sentence in sentences:
        scopes.extend(detect_negations(sentence, lexicon))
    return scopes


# ---------------------------------------------------------------------------
# Tagging
# ---------------------------------------------------------------------------


def tag_tokens(
    terms: Sequence[str], positions: Sequence[int], scopes: Sequence[NegationScope]
) -> list[str]:
    """The kept terms, each prefixed with "[nx]" if its raw position (the
    entry of ``positions`` at the same index) falls inside a scope.

    Cue tokens themselves are never inside a scope span and stay plain.
    Spans may extend past the last kept token (stopword removal can strip
    the tail of a scope); negative or inverted spans are rejected.
    """
    if not scopes:
        return list(terms)
    negated: set[int] = set()
    for scope in scopes:
        start, end = scope.scope_span
        if start < 0 or end <= start:
            raise ValueError(f"scope span out of range: {scope.scope_span}")
        negated.update(range(start, end))
    return [
        NX_PREFIX + term if position in negated else term
        for term, position in zip(terms, positions)
    ]


# ---------------------------------------------------------------------------
# Whole-text analysis
# ---------------------------------------------------------------------------


class TextAnalysis:
    """Everything the indexer and query builder need for one text.

    ``terms[i]`` is the kept surface at raw position ``positions[i]``, and
    ``tagged_terms[i]`` the same surface, "[nx]"-prefixed when negated.
    """

    def __init__(
        self,
        scopes: list[NegationScope],
        terms: list[str],
        positions: list[int],
        tagged_terms: list[str],
    ):
        self.scopes = scopes
        self.terms = terms
        self.positions = positions
        self.tagged_terms = tagged_terms

    @cached_property
    def tagged(self) -> TaggedTokenStream:
        """The kept tokens as ``TaggedToken`` records, built on first
        access and kept for later ones."""
        return TaggedTokenStream(
            tuple(
                TaggedToken(surface, position, surface != term)
                for term, position, surface in zip(
                    self.terms, self.positions, self.tagged_terms
                )
            )
        )


def analyze_text(text: str, stopwords: frozenset[str], lexicon: TriggerLexicon) -> TextAnalysis:
    """Sentence-split, detect scopes, remove stopwords, and tag."""
    sentences = split_sentences(text)
    scopes = detect_all(sentences, lexicon)
    # Sentences number their tokens on from each other, so a token's raw
    # position is its index in the whole text's token list.
    raw = [surface for sentence in sentences for surface in sentence.tokens]
    positions = [position for position, surface in enumerate(raw) if surface not in stopwords]
    terms = [raw[position] for position in positions]
    return TextAnalysis(scopes, terms, positions, tag_tokens(terms, positions, scopes))


def scope_text(sentence: Sentence, scope: NegationScope) -> str:
    """The raw surfaces covered by a scope of this sentence, joined with spaces."""
    start, end = scope.scope_span
    return " ".join(sentence.tokens[start - sentence.start : end - sentence.start])
