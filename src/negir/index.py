"""Immutable inverted index with Okapi BM25 scoring over two fields.

Every document is indexed twice: a ``plain`` field built from the
stopword-filtered token stream, and a ``tagged`` field built from the
same stream with "[nx]" prefixes on negated tokens. Both fields live in
one index build, so every ranking strategy scores against identical
collection statistics.

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
SNAPSHOT_VERSION = 1
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
    """Postings and statistics for a single field.

    ``avg_doc_length`` and the per-document BM25 length norms
    ``k1 * (1 - b + b * len / avgdl)`` are fixed once, by ``Index``, when
    the field is complete.
    """

    postings: dict[str, dict[str, int]] = dataclass_field(default_factory=dict)
    doc_lengths: dict[str, int] = dataclass_field(default_factory=dict)
    avg_doc_length: float = dataclass_field(default=0.0, init=False)
    norms: dict[str, float] = dataclass_field(default_factory=dict, init=False)

    @property
    def doc_count(self) -> int:
        return len(self.doc_lengths)

    def compute_norms(self, k1: float, b: float) -> None:
        total = sum(self.doc_lengths.values())
        if not total:  # no documents, or only empty ones: no term can match
            return
        avgdl = self.avg_doc_length = total / len(self.doc_lengths)
        self.norms = {
            doc_id: k1 * (1.0 - b + b * length / avgdl)
            for doc_id, length in self.doc_lengths.items()
        }


class Index:
    """Immutable two-field inverted index. Do not mutate after build."""

    def __init__(self, fields: dict[str, FieldIndex], k1: float = DEFAULT_K1, b: float = DEFAULT_B):
        self.fields = fields
        self.k1 = k1
        self.b = b
        for field_index in fields.values():
            field_index.compute_norms(k1, b)

    @property
    def doc_count(self) -> int:
        return self.fields[PLAIN].doc_count

    def doc_ids(self) -> list[str]:
        return list(self.fields[PLAIN].doc_lengths.keys())

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
    plain = FieldIndex()
    tagged = FieldIndex()
    for doc, stream, tagged_stream in docs:
        if doc.doc_id in plain.doc_lengths:
            raise DuplicateIdError("doc_id", doc.doc_id)
        _add_document(plain, doc.doc_id, stream.surfaces())
        _add_document(tagged, doc.doc_id, tagged_stream.surfaces())
    return Index({PLAIN: plain, TAGGED: tagged}, k1=k1, b=b)


def _add_document(field_index: FieldIndex, doc_id: str, surfaces: Sequence[str]) -> None:
    field_index.doc_lengths[doc_id] = len(surfaces)
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
    field_index = index.field(query.field)
    postings_by_term = field_index.postings
    norms = field_index.norms
    n = field_index.doc_count
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
# Layout (little-endian):
#   magic "NGIR1" | version u8 | k1 f64 | b f64 | field_count u8
#   per field:
#     name (u16 length + utf-8)
#     doc_count u32, then per doc: doc_id (u16 + utf-8), length u32
#     term_count u32, then per term:
#       term (u16 + utf-8), df u32,
#       df x (doc index delta u32, tf u32)  -- doc indexes ascending
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
    for name, field_index in index.fields.items():
        for kind, values in (
            ("field name", (name,)),
            ("doc_id", field_index.doc_lengths),
            ("term", field_index.postings),
        ):
            for value in values:
                size = len(value.encode("utf-8"))
                if size > MAX_SNAPSHOT_STR_BYTES:
                    raise NegirError(
                        f"{path}: cannot write {kind} {value[:32]!r}...: {size} UTF-8 "
                        f"bytes, over the snapshot limit of {MAX_SNAPSHOT_STR_BYTES}"
                    )


def save_index(index: Index, path: str | Path) -> None:
    _check_snapshot_strings(index, path)
    with open(path, "wb") as out:
        out.write(SNAPSHOT_MAGIC)
        out.write(struct.pack("<B", SNAPSHOT_VERSION))
        out.write(struct.pack("<dd", index.k1, index.b))
        out.write(struct.pack("<B", len(index.fields)))
        for name, field_index in index.fields.items():
            _write_str(out, name)
            doc_ids = list(field_index.doc_lengths.keys())
            doc_pos = {doc_id: i for i, doc_id in enumerate(doc_ids)}
            out.write(struct.pack("<I", len(doc_ids)))
            for doc_id in doc_ids:
                _write_str(out, doc_id)
                out.write(struct.pack("<I", field_index.doc_lengths[doc_id]))
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
                raise ParseError(f"unsupported snapshot version {version}", str(path))
            k1, b = struct.unpack("<dd", handle.read(16))
            (field_count,) = struct.unpack("<B", handle.read(1))
            fields: dict[str, FieldIndex] = {}
            for _ in range(field_count):
                name = _read_str(handle)
                (doc_count,) = struct.unpack("<I", handle.read(4))
                doc_ids: list[str] = []
                doc_lengths: dict[str, int] = {}
                for _ in range(doc_count):
                    doc_id = _read_str(handle)
                    (length,) = struct.unpack("<I", handle.read(4))
                    doc_ids.append(doc_id)
                    doc_lengths[doc_id] = length
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
                fields[name] = FieldIndex(postings=postings, doc_lengths=doc_lengths)
    except (struct.error, IndexError, UnicodeDecodeError) as exc:
        raise ParseError(f"corrupt or truncated index snapshot ({exc})", str(path)) from exc
    for field_name in FIELDS:
        if field_name not in fields:
            raise ParseError(f"snapshot missing field {field_name!r}", str(path))
    return Index(fields, k1=k1, b=b)
