"""Immutable inverted index with Okapi BM25 scoring over two fields.

Every document has postings in two fields: ``plain``, built from its
stopword-filtered terms, and ``tagged``, built from the same terms with
"[nx]" prefixes on negated ones. ``build_index`` takes each document as
``(doc_id, terms, tagged_terms)``, two plain lists of surfaces. Tagging
only adds prefixes, so a document has the same length in both fields,
and the index keeps one document table (ids, lengths, BM25 length norms)
that both fields share. Every ranking strategy therefore scores against
identical collection statistics.

Documents are numbered 0..N-1 in collection order, and that number is
the only document key from the build to the snapshot and back: a term's
postings are an ascending array of doc numbers and a parallel array of
term frequencies. String ids appear only in ``Index.doc_ids``, in the
snapshot's id list and in the ranked lists of ``ranking.run_strategy``.

A query is a plain list of terms plus one weight for all of them, and
the scoring formula is pinned exactly:

    score(Q, D) = sum over distinct query terms t of
        w_t * idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len/avgdl))
    idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5))

where w_t is the weight added up once per occurrence of t, with
defaults k1 = 1.2 and b = 0.75. idf is the Lucene variant (see Kamphuis
et al., "Which BM25 do you mean?", ECIR 2020); it is strictly positive
for any df <= N, so matching documents always score above zero for
positive weights.
"""

from __future__ import annotations

import math
import struct
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import BinaryIO, Iterable, Sequence

from .corpus import atomic_write
from .errors import DuplicateIdError, NegirError, ParseError

PLAIN = "plain"
TAGGED = "tagged"
FIELDS = (PLAIN, TAGGED)

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75

SNAPSHOT_MAGIC = b"NGIR1"
SNAPSHOT_VERSION = 3
MAX_SNAPSHOT_STR_BYTES = 0xFFFF  # strings carry a u16 length prefix

U32 = "I"  # array typecode of the u32 doc numbers, lengths and tfs (4 bytes)


@dataclass
class FieldIndex:
    """Postings of a single field: term -> (doc numbers, tfs), two u32
    arrays of equal length with the doc numbers ascending."""

    postings: dict[str, tuple[array, array]] = dataclass_field(default_factory=dict)


class Index:
    """Immutable two-field inverted index. Do not mutate after build.

    ``doc_ids``, ``doc_lengths`` and ``norms`` are indexed by doc number
    and shared by both fields. ``avg_doc_length`` and the per-document
    BM25 length norms ``k1 * (1 - b + b * len / avgdl)`` are fixed here,
    once.
    """

    def __init__(
        self,
        fields: dict[str, FieldIndex],
        doc_ids: list[str],
        doc_lengths: array,
        k1: float = DEFAULT_K1,
        b: float = DEFAULT_B,
    ):
        self.fields = fields
        self.doc_ids = doc_ids
        self.doc_lengths = doc_lengths
        self.k1 = k1
        self.b = b
        self.avg_doc_length = 0.0
        self.norms: list[float] = []
        total = sum(doc_lengths)
        if total:  # otherwise no documents, or only empty ones: no term can match
            avgdl = self.avg_doc_length = total / len(doc_lengths)
            self.norms = [k1 * (1.0 - b + b * length / avgdl) for length in doc_lengths]

    @property
    def doc_count(self) -> int:
        return len(self.doc_ids)

    def field(self, name: str) -> FieldIndex:
        if name not in self.fields:
            raise ValueError(f"unknown field: {name!r}")
        return self.fields[name]


def build_index(
    docs: Iterable[tuple[str, Sequence[str], Sequence[str]]],
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
) -> Index:
    """Build both fields from ``(doc_id, terms, tagged_terms)`` triples,
    numbered in input order. A document's length is ``len(terms)``.
    Duplicate doc_ids error."""
    doc_ids: list[str] = []
    seen: set[str] = set()
    doc_lengths = array(U32)
    plain = FieldIndex()
    tagged = FieldIndex()
    for doc_id, terms, tagged_terms in docs:
        if doc_id in seen:
            raise DuplicateIdError("doc_id", doc_id)
        seen.add(doc_id)
        number = len(doc_ids)
        doc_ids.append(doc_id)
        doc_lengths.append(len(terms))
        _add_postings(plain, number, terms)
        _add_postings(tagged, number, tagged_terms)
    return Index({PLAIN: plain, TAGGED: tagged}, doc_ids, doc_lengths, k1=k1, b=b)


def _add_postings(field_index: FieldIndex, doc: int, terms: Sequence[str]) -> None:
    postings = field_index.postings
    for term, tf in Counter(terms).items():  # first-seen order, as the snapshot keeps it
        entry = postings.get(term)
        if entry is None:
            entry = postings[term] = (array(U32), array(U32))
        entry[0].append(doc)
        entry[1].append(tf)


def idf(doc_count: int, doc_frequency: int) -> float:
    return math.log(1.0 + (doc_count - doc_frequency + 0.5) / (doc_frequency + 0.5))


def score_query(index: Index, field: str, terms: Sequence[str], weight: float) -> dict[int, float]:
    """BM25 scores, by doc number, of every document matching ``terms``
    in ``field``, each term occurrence weighing ``weight``.

    Term at a time: a repeated term's weight is summed once per
    occurrence, from 0.0 and in first-seen order, and its ``weight * idf``
    is computed once; then its postings add into one accumulator. A
    document's terms are added in that order, starting from 0.0, so a
    score is bit-identical to summing the formula term by term for that
    document. Documents matching no term are absent, not scored 0.0.
    """
    postings_by_term = index.field(field).postings
    norms = index.norms
    n = index.doc_count
    tf_scale = index.k1 + 1.0
    weights: dict[str, float] = {}
    for term in terms:  # ten 0.1s sum to 0.9999999999999999, not 10 * 0.1
        weights[term] = weights.get(term, 0.0) + weight
    scores: dict[int, float] = {}
    for term, term_weight in weights.items():
        entry = postings_by_term.get(term)
        if entry is None:
            continue
        docs, tfs = entry
        w = term_weight * idf(n, len(docs))
        for doc, tf in zip(docs, tfs):
            scores[doc] = scores.get(doc, 0.0) + w * (tf * tf_scale) / (tf + norms[doc])
    return scores


# ---------------------------------------------------------------------------
# Binary snapshot
#
# Layout (little-endian), version 3:
#   magic "NGIR1" | version u8 | k1 f64 | b f64
#   doc_count u32, then doc_count x doc_id (u16 length + utf-8)
#   doc_count x length u32, one block, in doc number order
#   field_count u8, then per field:
#     name (u16 + utf-8)
#     term_count u32, then per term:
#       term (u16 + utf-8), df u32,
#       df x doc number u32 (ascending), then df x tf u32
#   end of file: nothing may follow the last field
# ---------------------------------------------------------------------------


_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")


def _encode_str(value: str, dest: str | Path) -> bytes:
    """``value`` as a u16 length and its UTF-8 bytes."""
    data = value.encode("utf-8")
    if len(data) > MAX_SNAPSHOT_STR_BYTES:
        raise NegirError(
            f"{dest}: cannot write {value[:32]!r}...: {len(data)} UTF-8 bytes, "
            f"over the snapshot limit of {MAX_SNAPSHOT_STR_BYTES}"
        )
    return _U16.pack(len(data)) + data


def _u32_bytes(values: array) -> bytes:
    if sys.byteorder == "big":
        values = array(U32, values)
        values.byteswap()
    return values.tobytes()


def _u32s(data: bytes) -> array:
    values = array(U32)
    values.frombytes(data)
    if sys.byteorder == "big":
        values.byteswap()
    return values


def _read(handle: BinaryIO, size: int) -> bytes:
    data = handle.read(size)
    if len(data) != size:
        raise EOFError(f"needed {size} bytes, found {len(data)}")
    return data


def _read_str(handle: BinaryIO) -> str:
    (length,) = _U16.unpack(_read(handle, 2))
    return _read(handle, length).decode("utf-8")


def save_index(index: Index, path: str | Path) -> None:
    """Write the snapshot to a temp file that replaces ``path`` on success.

    Each term's record (string, df and both u32 blocks) goes out in one
    ``write``.
    """
    with atomic_write(path, "wb") as out:
        out.write(SNAPSHOT_MAGIC)
        out.write(struct.pack("<Bdd", SNAPSHOT_VERSION, index.k1, index.b))
        out.write(_U32.pack(index.doc_count))
        for doc_id in index.doc_ids:
            out.write(_encode_str(doc_id, path))
        out.write(_u32_bytes(index.doc_lengths))
        out.write(struct.pack("<B", len(index.fields)))
        for name, field_index in index.fields.items():
            out.write(_encode_str(name, path))
            out.write(_U32.pack(len(field_index.postings)))
            for term, (docs, tfs) in field_index.postings.items():
                head = _encode_str(term, path) + _U32.pack(len(docs))
                out.write(b"".join((head, _u32_bytes(docs), _u32_bytes(tfs))))


def load_index(path: str | Path) -> Index:
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            if handle.read(len(SNAPSHOT_MAGIC)) != SNAPSHOT_MAGIC:
                raise ParseError("not an index snapshot (bad magic bytes)", str(path))
            (version,) = struct.unpack("<B", _read(handle, 1))
            if version != SNAPSHOT_VERSION:
                raise ParseError(
                    f"unsupported snapshot version {version}; rebuild the index", str(path)
                )
            k1, b = struct.unpack("<dd", _read(handle, 16))
            if not (0.0 <= k1 < math.inf and 0.0 <= b <= 1.0):
                raise ParseError(
                    f"corrupt snapshot: k1 {k1!r} or b {b!r} out of range", str(path)
                )
            (doc_count,) = _U32.unpack(_read(handle, 4))
            doc_ids = [_read_str(handle) for _ in range(doc_count)]
            if len(set(doc_ids)) != doc_count:
                raise ParseError("corrupt snapshot: a doc_id is listed twice", str(path))
            doc_lengths = _u32s(_read(handle, 4 * doc_count))
            (field_count,) = struct.unpack("<B", _read(handle, 1))
            fields: dict[str, FieldIndex] = {}
            for _ in range(field_count):
                name = _read_str(handle)
                (term_count,) = _U32.unpack(_read(handle, 4))
                postings: dict[str, tuple[array, array]] = {}
                for _ in range(term_count):
                    # One read for the term and its df, one for both blocks.
                    (length,) = _U16.unpack(_read(handle, 2))
                    record = _read(handle, length + 4)
                    term = record[:length].decode("utf-8")
                    (df,) = _U32.unpack_from(record, length)
                    if df > doc_count:  # before the read, which allocates 8 * df bytes
                        raise ParseError(
                            f"corrupt snapshot: term {term!r} has df {df} of {doc_count}",
                            str(path),
                        )
                    blocks = _read(handle, 8 * df)
                    docs = _u32s(blocks[: 4 * df])
                    if docs and max(docs) >= doc_count:
                        raise ParseError(
                            f"corrupt snapshot: term {term!r} lists doc number {max(docs)} "
                            f"of {doc_count}",
                            str(path),
                        )
                    postings[term] = (docs, _u32s(blocks[4 * df :]))
                fields[name] = FieldIndex(postings)
            if handle.read(1):
                raise ParseError("trailing bytes after the last field", str(path))
    except (EOFError, UnicodeDecodeError) as exc:
        raise ParseError(f"corrupt or truncated index snapshot ({exc})", str(path)) from exc
    for field_name in FIELDS:
        if field_name not in fields:
            raise ParseError(f"snapshot missing field {field_name!r}", str(path))
    return Index(fields, doc_ids, doc_lengths, k1=k1, b=b)
