"""Immutable inverted index with Okapi BM25 scoring over two fields.

Every document has postings in two fields: ``plain``, built from the
stopword-filtered token stream, and ``tagged``, built from the same
stream with "[nx]" prefixes on negated tokens. Tagging only adds
prefixes, so a document has the same length in both fields, and the
index keeps one document table (lengths, avgdl, BM25 length norms) that
both fields share. Every ranking strategy therefore scores against
identical collection statistics.

The scoring formula is pinned exactly:

    score(Q, D) = sum over query terms t of
        w_t * idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len/avgdl))
    idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5))

with defaults k1 = 1.2 and b = 0.75. idf is the Lucene variant (see
Kamphuis et al., "Which BM25 do you mean?", ECIR 2020); it is strictly
positive for any df <= N, so matching documents always score above zero
for positive weights.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import BinaryIO, Iterable, Sequence

from .corpus import RawDocument, TokenStream
from .errors import DuplicateIdError, NegirError, ParseError
from .negation import TaggedTokenStream

PLAIN = "plain"
TAGGED = "tagged"
FIELDS = (PLAIN, TAGGED)

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75

SNAPSHOT_MAGIC = b"NGIR1"
SNAPSHOT_VERSION = 2
MAX_SNAPSHOT_STR_BYTES = 0xFFFF  # strings carry a u16 length prefix


@dataclass(frozen=True)
class ScoredDoc:
    doc_id: str
    score: float


@dataclass
class WeightedQuery:
    """Bag of weighted terms targeting one index field.

    Duplicate terms are allowed and accumulate their weights at scoring
    time. Weights must be positive; signed combinations are expressed by
    combining whole query scores, not by negative term weights.
    """

    terms: list[tuple[str, float]]
    field: str = PLAIN

    def __post_init__(self) -> None:
        if self.field not in FIELDS:
            raise ValueError(f"unknown field: {self.field!r}")
        for term, weight in self.terms:
            if weight <= 0:
                raise ValueError(f"non-positive weight for term {term!r}")

    def __len__(self) -> int:
        return len(self.terms)


@dataclass
class FieldIndex:
    """Postings of a single field: term -> doc_id -> tf."""

    postings: dict[str, dict[str, int]] = dataclass_field(default_factory=dict)


class Index:
    """Immutable two-field inverted index. Do not mutate after build.

    ``doc_lengths`` maps doc_id to its token count, in collection order,
    for both fields. ``avg_doc_length`` and the per-document BM25 length
    norms ``k1 * (1 - b + b * len / avgdl)`` are fixed here, once.
    """

    def __init__(
        self,
        fields: dict[str, FieldIndex],
        doc_lengths: dict[str, int],
        k1: float = DEFAULT_K1,
        b: float = DEFAULT_B,
    ):
        self.fields = fields
        self.doc_lengths = doc_lengths
        self.k1 = k1
        self.b = b
        self.avg_doc_length = 0.0
        self.norms: dict[str, float] = {}
        total = sum(doc_lengths.values())
        if total:  # otherwise no documents, or only empty ones: no term can match
            avgdl = self.avg_doc_length = total / len(doc_lengths)
            self.norms = {
                doc_id: k1 * (1.0 - b + b * length / avgdl)
                for doc_id, length in doc_lengths.items()
            }

    @property
    def doc_count(self) -> int:
        return len(self.doc_lengths)

    def field(self, name: str) -> FieldIndex:
        if name not in self.fields:
            raise ValueError(f"unknown field: {name!r}")
        return self.fields[name]


def build_index(
    docs: Iterable[tuple[RawDocument, TokenStream, TaggedTokenStream]],
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
) -> Index:
    """Build both fields from analyzed documents. Duplicate doc_ids error."""
    doc_lengths: dict[str, int] = {}
    plain = FieldIndex()
    tagged = FieldIndex()
    for doc, stream, tagged_stream in docs:
        if doc.doc_id in doc_lengths:
            raise DuplicateIdError("doc_id", doc.doc_id)
        doc_lengths[doc.doc_id] = len(stream)
        _add_postings(plain, doc.doc_id, stream.surfaces())
        _add_postings(tagged, doc.doc_id, tagged_stream.surfaces())
    return Index({PLAIN: plain, TAGGED: tagged}, doc_lengths, k1=k1, b=b)


def _add_postings(field_index: FieldIndex, doc_id: str, surfaces: Sequence[str]) -> None:
    counts: dict[str, int] = {}
    for surface in surfaces:
        counts[surface] = counts.get(surface, 0) + 1
    for term, tf in counts.items():
        field_index.postings.setdefault(term, {})[doc_id] = tf


def merge_terms(terms: Iterable[tuple[str, float]]) -> list[tuple[str, float]]:
    """Accumulate duplicate term weights, keeping first-seen order."""
    merged: dict[str, float] = {}
    for term, weight in terms:
        merged[term] = merged.get(term, 0.0) + weight
    return list(merged.items())


def idf(doc_count: int, doc_frequency: int) -> float:
    return math.log(1.0 + (doc_count - doc_frequency + 0.5) / (doc_frequency + 0.5))


def score_query(index: Index, query: WeightedQuery) -> dict[str, float]:
    """BM25 scores of every document matching the query in its field.

    Term at a time: each merged term's ``weight * idf`` is computed once,
    then its postings add into one accumulator. A document's terms are
    added in first-seen query order, starting from 0.0, so a score is
    bit-identical to summing the formula term by term for that document.
    Documents matching no term are absent, not scored 0.0.
    """
    postings_by_term = index.field(query.field).postings
    norms = index.norms
    n = index.doc_count
    tf_scale = index.k1 + 1.0
    scores: dict[str, float] = {}
    for term, weight in merge_terms(query.terms):
        postings = postings_by_term.get(term)
        if not postings:
            continue
        w = weight * idf(n, len(postings))
        for doc_id, tf in postings.items():
            scores[doc_id] = scores.get(doc_id, 0.0) + w * (tf * tf_scale) / (tf + norms[doc_id])
    return scores


# ---------------------------------------------------------------------------
# Binary snapshot
#
# Layout (little-endian), version 2:
#   magic "NGIR1" | version u8 | k1 f64 | b f64
#   doc_count u32, then per doc: doc_id (u16 length + utf-8), length u32
#   field_count u8, then per field:
#     name (u16 + utf-8)
#     term_count u32, then per term:
#       term (u16 + utf-8), df u32,
#       df x (doc index delta u32, tf u32)  -- doc indexes ascending
#   end of file: nothing may follow the last field
# ---------------------------------------------------------------------------


def _write_str(out: BinaryIO, value: str) -> None:
    data = value.encode("utf-8")
    out.write(struct.pack("<H", len(data)))
    out.write(data)


def _read_str(handle: BinaryIO) -> str:
    (length,) = struct.unpack("<H", handle.read(2))
    return handle.read(length).decode("utf-8")


def _check_snapshot_strings(index: Index, path: str | Path) -> None:
    """Refuse, before anything is written, strings too long for a u16 prefix."""
    checks = [("doc_id", index.doc_lengths)]
    for name, field_index in index.fields.items():
        checks += [("field name", (name,)), ("term", field_index.postings)]
    for kind, values in checks:
        for value in values:
            size = len(value.encode("utf-8"))
            if size > MAX_SNAPSHOT_STR_BYTES:
                raise NegirError(
                    f"{path}: cannot write {kind} {value[:32]!r}...: {size} UTF-8 "
                    f"bytes, over the snapshot limit of {MAX_SNAPSHOT_STR_BYTES}"
                )


def save_index(index: Index, path: str | Path) -> None:
    _check_snapshot_strings(index, path)
    doc_pos = {doc_id: i for i, doc_id in enumerate(index.doc_lengths)}
    with open(path, "wb") as out:
        out.write(SNAPSHOT_MAGIC)
        out.write(struct.pack("<B", SNAPSHOT_VERSION))
        out.write(struct.pack("<dd", index.k1, index.b))
        out.write(struct.pack("<I", len(index.doc_lengths)))
        for doc_id, length in index.doc_lengths.items():
            _write_str(out, doc_id)
            out.write(struct.pack("<I", length))
        out.write(struct.pack("<B", len(index.fields)))
        for name, field_index in index.fields.items():
            _write_str(out, name)
            out.write(struct.pack("<I", len(field_index.postings)))
            for term, postings in field_index.postings.items():
                _write_str(out, term)
                out.write(struct.pack("<I", len(postings)))
                previous = 0
                for doc_id in sorted(postings, key=doc_pos.__getitem__):
                    pos = doc_pos[doc_id]
                    out.write(struct.pack("<II", pos - previous, postings[doc_id]))
                    previous = pos


def load_index(path: str | Path) -> Index:
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            if handle.read(len(SNAPSHOT_MAGIC)) != SNAPSHOT_MAGIC:
                raise ParseError("not an index snapshot (bad magic bytes)", str(path))
            (version,) = struct.unpack("<B", handle.read(1))
            if version != SNAPSHOT_VERSION:
                raise ParseError(
                    f"unsupported snapshot version {version}; rebuild the index", str(path)
                )
            k1, b = struct.unpack("<dd", handle.read(16))
            if not (0.0 <= k1 < math.inf and 0.0 <= b <= 1.0):
                raise ParseError(
                    f"corrupt snapshot: k1 {k1!r} or b {b!r} out of range", str(path)
                )
            (doc_count,) = struct.unpack("<I", handle.read(4))
            doc_ids: list[str] = []
            doc_lengths: dict[str, int] = {}
            for _ in range(doc_count):
                doc_id = _read_str(handle)
                (length,) = struct.unpack("<I", handle.read(4))
                doc_ids.append(doc_id)
                doc_lengths[doc_id] = length
            (field_count,) = struct.unpack("<B", handle.read(1))
            fields: dict[str, FieldIndex] = {}
            for _ in range(field_count):
                name = _read_str(handle)
                (term_count,) = struct.unpack("<I", handle.read(4))
                postings: dict[str, dict[str, int]] = {}
                for _ in range(term_count):
                    term = _read_str(handle)
                    (df,) = struct.unpack("<I", handle.read(4))
                    entry: dict[str, int] = {}
                    position = 0
                    for _ in range(df):
                        delta, tf = struct.unpack("<II", handle.read(8))
                        position += delta
                        entry[doc_ids[position]] = tf
                    postings[term] = entry
                fields[name] = FieldIndex(postings)
            if handle.read(1):
                raise ParseError("trailing bytes after the last field", str(path))
    except (struct.error, IndexError, UnicodeDecodeError) as exc:
        raise ParseError(f"corrupt or truncated index snapshot ({exc})", str(path)) from exc
    for field_name in FIELDS:
        if field_name not in fields:
            raise ParseError(f"snapshot missing field {field_name!r}", str(path))
    return Index(fields, doc_lengths, k1=k1, b=b)
