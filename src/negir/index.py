"""Inverted index with Okapi BM25 scoring over two fields.

Every document has postings in two fields: ``tagged``, its
stopword-filtered terms with "[nx]" prefixes on negated ones, and
``plain``, the same terms unprefixed. ``build_index`` takes each document
as ``(doc_id, tagged_terms)`` and stores only ``tagged``: a term's plain
postings are the merge of the tagged postings of the term and of its
"[nx]" form, with tfs added. A document has one length in both fields,
``len(tagged_terms)``, and one document table (ids, lengths, BM25 length
norms) serves both, so every strategy scores against the same statistics.

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
import operator
import os
import stat
import struct
import sys
import zlib
from array import array
from bisect import bisect_left
from collections import Counter
from itertools import accumulate, chain, repeat
from pathlib import Path
from typing import Collection, Iterable, NamedTuple, Sequence

from .corpus import atomic_write, utf8_encodable
from .errors import DuplicateIdError, NegirError, ParseError
from .negation import NX_PREFIX, TriggerLexicon

PLAIN = "plain"
TAGGED = "tagged"

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75

SNAPSHOT_MAGIC = b"NGIR1"
SNAPSHOT_VERSION = 10

U32 = "I"  # array typecode of the doc numbers, lengths and tfs a build makes (4 bytes)
Postings = dict[str, tuple[array, array]]  # term -> (ascending doc numbers, tfs)


class FieldIndex(NamedTuple):
    """Postings of a single field, two arrays of equal length per term:
    u32 after a build; after a load, the doc numbers as wide as the
    snapshot's column of lasts and the tfs as its tf column."""

    postings: Postings


class Index:
    """Inverted index. Do not mutate after build.

    ``postings`` are the tagged field's; ``field`` derives the plain ones
    from them on first use and keeps them, for a built or a loaded index.
    ``doc_ids``, ``doc_lengths`` and ``norms`` are indexed by doc number.
    The per-document BM25 length norms ``k1 * (1 - b + b * len / avgdl)``,
    avgdl the mean of ``doc_lengths``, are fixed here, once.
    ``fingerprints`` are those of the stopword list and the lexicon the
    index was built with (see ``fingerprints``), 0 for one not given.
    """

    def __init__(
        self,
        postings: Postings,
        doc_ids: list[str],
        doc_lengths: array,
        k1: float,
        b: float,
        fingerprints: tuple[int, int],
    ):
        self.postings = postings
        self._plain: Postings | None = None
        self.doc_ids = doc_ids
        self.doc_lengths = doc_lengths
        self.k1 = k1
        self.b = b
        self.fingerprints = fingerprints
        self.norms: list[float] = []
        total = sum(doc_lengths)
        if total:  # otherwise no documents, or only empty ones: no term can match
            avgdl = total / len(doc_lengths)
            self.norms = [k1 * (1.0 - b + b * length / avgdl) for length in doc_lengths]

    def field(self, name: str) -> FieldIndex:
        if name not in (PLAIN, TAGGED):
            raise ValueError(f"field {name!r} is unknown")
        if name == PLAIN and self._plain is None:
            self._plain = plain_postings(self.postings)
        return FieldIndex(self._plain if name == PLAIN else self.postings)


def plain_postings(tagged: Postings) -> Postings:
    """The plain postings of every tagged term with "[nx]" removed: the
    tagged postings of the term, unless it starts with "[nx]", merged with
    those of its "[nx]" form. A merged tf adds two u32 tfs, so it is kept
    in an ``array("Q")``."""
    merged = {}
    for term in dict.fromkeys(term.removeprefix(NX_PREFIX) for term in tagged):
        own = None if term.startswith(NX_PREFIX) else tagged.get(term)
        negated = tagged.get(NX_PREFIX + term)
        if own and negated:  # each negated posting goes into a copy of the own ones
            docs, tfs = array(U32, own[0]), array("Q", own[1])
            for doc, tf in zip(*negated):
                i = bisect_left(docs, doc)
                if i == len(docs) or docs[i] != doc:
                    docs.insert(i, doc)
                    tfs.insert(i, 0)
                tfs[i] += tf
            merged[term] = (docs, tfs)
        elif own or negated:  # each a pair of arrays, or None
            merged[term] = own or negated
    return merged


def build_index(
    docs: Iterable[tuple[str, Sequence[str]]],
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
    fingerprints: tuple[int, int] = (0, 0),
) -> Index:
    """Build the index from ``(doc_id, tagged_terms)`` pairs, numbered in
    input order. A document's length is ``len(tagged_terms)``. Duplicate
    doc_ids error. ``fingerprints`` are those of the stopword list and
    lexicon the terms were analysed with, kept for the snapshot."""
    doc_ids: list[str] = []
    seen: set[str] = set()
    doc_lengths = array(U32)
    postings: Postings = {}
    for doc_id, terms in docs:
        if doc_id in seen:
            raise DuplicateIdError("doc_id", doc_id)
        seen.add(doc_id)
        number = len(doc_ids)
        doc_ids.append(doc_id)
        doc_lengths.append(len(terms))
        for term, tf in Counter(terms).items():  # first-seen order, as the snapshot keeps it
            entry = postings.get(term)
            if entry is None:
                entry = postings[term] = (array(U32), array(U32))
            entry[0].append(number)
            entry[1].append(tf)
    return Index(postings, doc_ids, doc_lengths, k1=k1, b=b, fingerprints=fingerprints)


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
    n = len(index.doc_ids)
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
# Layout (little-endian), version 10. The file has three parts, and each
# ends with a u32 zlib.crc32 of all its bytes before that. The header is
# stored as it is; the document table and the postings are each stored
# deflated, and what is stored ends with a CRC of its own:
#   file:       header | deflated documents | deflated postings
#   deflated:   stored u32 | inflated u32 | a raw DEFLATE stream (RFC 1951)
#               of stored bytes, which inflates to the part's inflated bytes | crc
#   header:     magic "NGIR1" | version u8 | k1 f64 | b f64
#               | stopwords fingerprint u32 | lexicon fingerprint u32 | crc
#   documents:  doc_count u32 | id_bytes u32
#               | the doc_ids in doc number order (a string list of id_bytes)
#               | doc_count x length (a column) | crc
#   postings:   term_count u32 | text_count u32 | text_bytes u32 | posting_count u32
#               | the term texts (a string list of text_bytes)
#               | term_count x df (a column)
#               | term_count x kind u8: a gap width, 1, 2 or 4, plus 0x40
#                 for an "[nx]" form and 0x80 for a second form
#               | one back-reference per second form (a column)
#               | term_count x last (a column): each term's largest doc number
#               | each term's df - 1 gaps, in term order, at that term's width
#               | posting_count x tf (a column), in doc number order per term | crc
#   end of file: the end of the deflated postings
#
# The writer makes each part whole in memory, then deflates it with zlib
# at Z_DEFAULT_COMPRESSION: one zlib build always writes the same bytes
# for an index, and another may write other bytes that inflate the same.
#
# A term's text is the term with one leading "[nx]" removed, and its form
# says whether that prefix was there. At most two terms share a text, one
# of each form. The first of them in term order is a first form: it takes
# the next string of the text list, which lists each text once, in order
# of first use. The other is a second form: its back-reference is the
# number of that earlier term, and it shares its text. Term order is kept,
# so the loaded postings are as they were saved.
#
# A term's doc numbers ascend, and its gaps are the differences between
# each and the one before: its first doc number is its last minus the sum
# of its gaps. The writer gives each term the narrowest width that holds
# its largest gap, 1 when it has none.
#
# A column is a width u8, 1, 2 or 4, then its values as unsigned
# integers of that many bytes each. The writer picks the narrowest width
# that holds the column's largest value, 1 for an empty column.
#
# A string list is its strings in UTF-8 with "\n" between two, so a
# string may be empty or of any length but holds no line break. The
# fingerprints are those of the stopword list and the lexicon
# (``fingerprints``); 0 means not given.
#
# ``load_index`` reads the magic and the version byte first, and no more
# of a file in which either is wrong. It then reads the rest of the file
# whole, so a snapshot must be a regular file, whose size bounds that
# read, and each part is read from the file's bytes or from those its
# deflated stream inflates to.
#
# It checks each deflated part before it allocates anything
# for it: its stream fits in the file, and its inflated length is at most
# 1032 times the stream's, DEFLATE's largest expansion. The CRC of the
# lengths and the stream must match, which covers every stored bit, the
# unused ones after a stream's final block too. The stream must then be
# valid DEFLATE, end within its stored bytes and inflate to exactly the
# length stated, so no part takes more memory than 1032 times the file's
# size.
#
# It checks each part whole: it fits in the file or in its inflated
# bytes, it uses all of the latter, and its CRC matches; a width is 1, 2 or
# 4; a string list holds as many strings as its head says, none twice, in
# UTF-8; posting_count is at most the sum of the lengths, the dfs are at
# least 1 and add up to it, and the largest last is below doc_count,
# which bounds every doc number, since gaps are unsigned. A kind byte has
# no other bit set; text_count is the number of first forms; each
# back-reference names an earlier first form of the other form, which no
# other term names; no plain term's text starts with "[nx]". So every
# term is distinct and saves back to its own text and form. Each block it
# keeps must then hold no gap of 0, a first doc number of at least 0 and
# tfs of at least 1, even under a recomputed CRC. Only kept terms are
# decoded.
# ---------------------------------------------------------------------------


_HEADER = struct.Struct("<ddII")  # after the magic and the version byte
_DOCUMENTS = struct.Struct("<II")
_POSTINGS = struct.Struct("<IIII")
_DEFLATED = struct.Struct("<II")  # a deflated part's stored and inflated lengths
_MOST_INFLATED = 1032  # no DEFLATE stream inflates to more than this many times its size
_U32 = struct.Struct("<I")
_SWAP = sys.byteorder == "big"  # blocks are little-endian on disk
_WIDTHS = {1: "B", 2: "H", 4: U32}  # a column's width byte -> its array typecode
# A kind byte's bits for a term that is its text's "[nx]" form and for a
# second form. The second is the top bit, so a first form's kind is below it.
_NX, _SECOND = 0x40, 0x80
_KINDS = bytes(width | form for width in _WIDTHS for form in (0, _NX, _SECOND, _NX | _SECOND))
_GAP_WIDTH = bytes(kind & ~(_NX | _SECOND) for kind in range(256))  # translates a kind to its width
_NX_BYTES = NX_PREFIX.encode("utf-8")
_FIELD = f"field {TAGGED!r}"  # the stored field, as errors name it


def fingerprints(stopwords: Iterable[str], lexicon: TriggerLexicon) -> tuple[int, int]:
    """The crc32 of the sorted stopwords and that of the lexicon's sorted
    "kind: words" phrases, each joined by "\\n": the order and comments of
    their files do not count."""
    phrases = (f"{kind}: {' '.join(words)}" for words, kind in chain(*lexicon.values()))
    joined = ["\n".join(sorted(entries)).encode("utf-8") for entries in (stopwords, phrases)]
    return zlib.crc32(joined[0]), zlib.crc32(joined[1])


def _encode_strings(values: Collection[str], dest: str | Path) -> bytes:
    """``values`` in UTF-8 with "\\n" between two; a value with a line
    break, or one that UTF-8 cannot encode, is refused. No bytes object is
    made per value: on ``rank`` those raised the peak memory of ``negir index``."""
    try:
        data = "\n".join(values).encode("utf-8")
    except UnicodeEncodeError:
        bad = next(value for value in values if not utf8_encodable(value))
        raise NegirError(f"{dest}: cannot write {bad[:32]!r}: UTF-8 cannot encode it") from None
    if data.count(b"\n") != max(len(values) - 1, 0):
        bad = next(value for value in values if "\n" in value)
        raise NegirError(f"{dest}: cannot write {bad[:32]!r}: it holds a line break")
    return data


def _strings_fault(values: Collection, count: int, item: str) -> str | None:
    """What a string list of ``values`` breaks if its head lists ``count``
    strings, each a distinct ``item``, or None."""
    if len(values) != count:
        return f"{len(values)} strings where {count} are listed, one per {item}"
    if len(set(values)) != count:
        return f"a {item} is listed twice"
    return None


def _le(values: array) -> array:
    """``values``, swapped in place to the little-endian order of the file."""
    if _SWAP:
        values.byteswap()
    return values


def _width(largest: int) -> int:
    """The narrowest of 1, 2 and 4 bytes that holds ``largest``."""
    return 1 if largest <= 0xFF else 2 if largest <= 0xFFFF else 4


def _column(blocks: Sequence[array], column: str, path: str | Path) -> tuple[bytes, array]:
    """The width byte and the values of the ``column`` that ``blocks``,
    arrays of any unsigned typecode, hold in turn: the narrowest width
    that holds the largest value, 1 for an empty column, and each value
    at that width. A value over u32 is refused."""
    largest = max(map(max, filter(None, blocks)), default=0)
    if largest > 0xFFFFFFFF:
        fault = f"{largest} is out of the u32 range"
        raise NegirError(f"{path}: cannot write the {column} column: {fault}")
    width = _width(largest)
    return bytes((width,)), _le(array(_WIDTHS[width], chain.from_iterable(blocks)))


def _sealed(pieces: list) -> list:
    """``pieces``, then the crc32 of them all."""
    crc = 0
    for piece in pieces:
        crc = zlib.crc32(piece, crc)
    return [*pieces, _U32.pack(crc)]


def _deflated(pieces: list, path: str | Path, part: str) -> list:
    """The ``part`` of the snapshot at ``path`` that ``pieces`` hold, as
    it is stored: its stored and inflated lengths, the raw DEFLATE stream
    of ``pieces`` and their crc32, then the crc32 of the lengths and the
    stream."""
    pieces = _sealed(pieces)
    deflater = zlib.compressobj(zlib.Z_DEFAULT_COMPRESSION, zlib.DEFLATED, -zlib.MAX_WBITS)
    stream = [*map(deflater.compress, pieces), deflater.flush()]
    inflated = sum(memoryview(piece).nbytes for piece in pieces)
    try:
        lengths = _DEFLATED.pack(sum(map(len, stream)), inflated)
    except struct.error:
        fault = f"its {inflated} bytes are more than its length can state"
        raise NegirError(f"{path}: cannot write the {part}: {fault}") from None
    return _sealed([lengths, *stream])


def header_fault(k1: float, b: float, fingerprints: Sequence[int] = ()) -> str | None:
    """What a header of these values breaks, or None, in the CLI's
    wording: k1 finite and >= 0, b in [0, 1], each fingerprint a u32."""
    if not 0.0 <= k1 < math.inf:
        return f"k1 must be a finite number >= 0, got {k1!r}"
    if not 0.0 <= b <= 1.0:
        return f"b must be a number in [0, 1], got {b!r}"
    bad = [value for value in fingerprints if not 0 <= value <= 0xFFFFFFFF]
    return f"fingerprint {bad[0]!r} out of the u32 range" if bad else None


def save_index(index: Index, path: str | Path) -> None:
    """Write the snapshot to a temp file that replaces ``path`` on success.
    A NegirError naming ``path`` refuses, before it is opened, an index
    that ``load_index`` would not read back: a bad header or string, a
    repeated doc id, a term with no posting, with doc numbers that do not
    strictly ascend or with more or fewer tfs than doc numbers, a column
    value over u32, more postings than the lengths add up to, or a part
    of 4 GiB or more, whose length no u32 holds. A term's postings are
    not checked for tfs of 0 or doc numbers past the count. Arrays of
    any unsigned typecode are narrowed by value, and both parts are
    deflated whole in memory before the path is opened.
    """
    if fault := header_fault(index.k1, index.b, index.fingerprints):
        raise NegirError(f"{path}: cannot write the header: {fault}")
    ids = _encode_strings(index.doc_ids, path)
    if fault := _strings_fault(index.doc_ids, len(index.doc_ids), "doc_id"):
        raise NegirError(f"{path}: cannot write the document table: {fault}")
    documents = [
        _DOCUMENTS.pack(len(index.doc_ids), len(ids)), ids,
        *_column((index.doc_lengths,), "document length", path),
    ]
    postings = _postings_part(index.postings, sum(index.doc_lengths), path)
    header = _HEADER.pack(index.k1, index.b, *index.fingerprints)
    parts = (
        _sealed([SNAPSHOT_MAGIC, bytes((SNAPSHOT_VERSION,)), header])
        + _deflated(documents, path, "document table")
        + _deflated(postings, path, _FIELD)
    )
    with atomic_write(path, "wb") as out:
        out.writelines(parts)


def _postings_part(postings: Postings, total: int, path: str | Path) -> list:
    """The pieces of the postings part, made in one pass over the terms.
    A term with no posting, with more or fewer tfs than doc numbers or
    with doc numbers that do not strictly ascend is refused, since no gap
    it could store is 0 or below; then more postings than ``total``, the
    sum of the lengths."""
    texts: dict[str, int] = {}  # each text, in order of first use -> its first term's number
    kinds, gaps = bytearray(), bytearray()
    refs, dfs, lasts = array(U32), array("Q"), array("Q")
    tf_blocks = []
    for number, (term, (docs, tfs)) in enumerate(postings.items()):
        block = list(map(operator.sub, docs[1:], docs))
        if not docs:
            fault = "it has no posting"
        elif len(tfs) != len(docs):
            fault = f"it has {len(tfs)} tfs for {len(docs)} doc numbers"
        elif block and min(block) < 1:
            fault = "its doc numbers do not strictly ascend"
        else:
            fault = None
        if fault:
            raise NegirError(f"{path}: cannot write term {term[:32]!r}: {fault}")
        width = _width(max(block, default=0))
        if docs[-1] <= 0xFFFFFFFF:  # else the column of lasts refuses the term
            gaps += _le(array(_WIDTHS[width], block))
        text = term.removeprefix(NX_PREFIX)
        kind = width | (_NX if len(text) < len(term) else 0)
        earlier = texts.setdefault(text, number)
        if earlier != number:  # a second form: only the other form can come before
            kind |= _SECOND
            refs.append(earlier)
        kinds.append(kind)
        dfs.append(len(docs))
        lasts.append(docs[-1])  # the block ascends, so its last is its largest
        tf_blocks.append(tfs)
    posting_count = sum(dfs)
    if posting_count > total:
        raise NegirError(
            f"{path}: cannot write {posting_count} postings in documents of {total} terms in all"
        )
    text_bytes = _encode_strings(texts, path)
    return [
        _POSTINGS.pack(len(kinds), len(texts), len(text_bytes), posting_count), text_bytes,
        *_column((dfs,), "df", path), kinds, *_column((refs,), "back-reference", path),
        *_column((lasts,), "doc number", path), gaps, *_column(tf_blocks, "tf", path),
    ]


class _Reader:
    """A cursor over one bytes object: the file's after its magic and
    version byte, or those that one deflated part inflates to, which its
    ``end_part`` must use up. A read is a view of those bytes, and one
    past their end fails before anything is allocated for it."""

    def __init__(self, data: bytes, path: str):
        self.data = memoryview(data)
        self.path = path
        self.at = 0  # where the next read starts

    def read(self, size: int) -> memoryview:
        end = self.at + size
        if end > len(self.data):
            raise EOFError(f"needed {size} bytes, found {len(self.data) - self.at}")
        view = self.data[self.at:end]
        self.at = end
        return view

    def check_crc(self, part: str, *chunks) -> None:
        """Read a CRC, which must be the crc32 of ``chunks`` in turn."""
        (stored,) = _U32.unpack(self.read(4))
        crc = 0
        for chunk in chunks:
            crc = zlib.crc32(chunk, crc)
        if stored != crc:
            raise self.fail(f"the {part} fails its CRC check")

    def inflate(self, part: str) -> _Reader:
        """Read the next deflated part and check its CRC: a reader of the
        bytes it inflates to."""
        lengths = self.read(_DEFLATED.size)
        stored, inflated = _DEFLATED.unpack(lengths)
        if inflated > _MOST_INFLATED * stored:
            raise self.fail(
                f"the {part} is stated to inflate {stored} bytes to {inflated}, "
                f"over DEFLATE's {_MOST_INFLATED}:1"
            )
        stream = self.read(stored)
        self.check_crc(f"deflated {part}", lengths, stream)
        inflater = zlib.decompressobj(-zlib.MAX_WBITS)
        try:  # one byte more than stated shows a stream that inflates to more
            data = inflater.decompress(stream, inflated + 1)
        except zlib.error as exc:
            raise self.fail(f"the {part} is not a valid DEFLATE stream ({exc})") from None
        if len(data) > inflated:
            raise self.fail(f"the {part} inflates to more than the {inflated} bytes stated")
        if not inflater.eof:
            raise self.fail(f"the DEFLATE stream of the {part} ends early")
        if inflater.unused_data:
            raise self.fail(
                f"{len(inflater.unused_data)} bytes follow the DEFLATE stream of the {part}"
            )
        if len(data) < inflated:
            raise self.fail(f"the {part} inflates to {len(data)} bytes, not the {inflated} stated")
        return _Reader(data, self.path)

    def read_column(self, count: int) -> array:
        """A column of ``count`` values, read into an array of its width."""
        (width,) = self.read(1)
        if width not in _WIDTHS:
            raise self.fail(f"a column of width {width}, not 1, 2 or 4")
        values = array(_WIDTHS[width])
        values.frombytes(self.read(width * count))
        if _SWAP:
            values.byteswap()
        return values

    def check_strings(self, values: list, count: int, item: str) -> None:
        """Check a split string list before its strings name anything."""
        fault = _strings_fault(values, count, item)
        if fault:
            raise self.fail(fault)

    def end_part(self, part: str) -> None:
        """Check the CRC of the inflated part, which must end with it."""
        self.check_crc(part, self.data[:self.at])
        if left := len(self.data) - self.at:
            raise self.fail(f"{left} trailing bytes after the {part}")

    def fail(self, message: str) -> ParseError:
        return ParseError(f"corrupt snapshot: {message}", self.path)


def load_index(path: str | Path, terms: Iterable[str] | None = None) -> Index:
    """Read the regular file ``path``: the postings of every term, or of
    ``terms`` and their "[nx]" forms, all that a lookup of them in either
    field reads; so a picked load ranks its terms as the full index does,
    and other terms may score otherwise. Picking checks no less, and the
    document table is always whole."""
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            if not stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
                raise ParseError("not a regular file, so its size is unknown", str(path))
            head = handle.read(len(SNAPSHOT_MAGIC) + 1)  # all that a wrong file has read of it
            if head[:len(SNAPSHOT_MAGIC)] != SNAPSHOT_MAGIC:
                raise ParseError("not an index snapshot (bad magic bytes)", str(path))
            if len(head) == len(SNAPSHOT_MAGIC):
                raise EOFError("needed 1 bytes, found 0")
            if head[-1] != SNAPSHOT_VERSION:
                raise ParseError(
                    f"unsupported snapshot version {head[-1]}; rebuild the index", str(path)
                )
            reader = _Reader(handle.read(), str(path))
        header = reader.read(_HEADER.size)
        k1, b, stopwords_fp, lexicon_fp = _HEADER.unpack(header)
        fault = header_fault(k1, b, (stopwords_fp, lexicon_fp))
        if fault:
            raise reader.fail(fault)
        reader.check_crc("header", head, header)

        documents = reader.inflate("document table")
        doc_count, id_bytes = _DOCUMENTS.unpack(documents.read(_DOCUMENTS.size))
        ids = documents.read(id_bytes)
        doc_lengths = documents.read_column(doc_count)
        documents.end_part("document table")
        doc_ids = str(ids, "utf-8").split("\n") if doc_count or ids else []
        documents.check_strings(doc_ids, doc_count, "doc_id")

        postings = _read_postings(reader.inflate(_FIELD), doc_lengths, terms)
        if left := len(reader.data) - reader.at:
            raise ParseError(f"{left} trailing bytes after the postings", str(path))
    except (EOFError, UnicodeDecodeError) as exc:
        raise ParseError(f"corrupt or truncated index snapshot ({exc})", str(path)) from exc
    return Index(postings, doc_ids, doc_lengths, k1, b, (stopwords_fp, lexicon_fp))


def _term_texts(reader: _Reader, texts: list[bytes], kinds: bytes, refs: array) -> list[bytes]:
    """Each term's text: a first form's is the next of ``texts``, a second
    form's that of the term its back-reference names, which must be an
    earlier first form of the other form that no other term names. A
    plain term's text may not start with "[nx]", as that term's own would."""
    term_texts: list[bytes] = []
    firsts, seconds, named = iter(texts), iter(refs), set()
    for number, kind in enumerate(kinds):
        if kind < _SECOND:
            text = next(firsts)
        elif (ref := next(seconds)) >= number:
            raise reader.fail(f"the back-reference of term {number} is {ref}, not an earlier term")
        elif kinds[ref] & _SECOND:
            raise reader.fail(f"term {number} refers to term {ref}, a second form")
        elif not (kinds[ref] ^ kind) & _NX:
            raise reader.fail(f"term {number} refers to term {ref}, of its own form")
        elif ref in named:
            raise reader.fail(f"term {ref} is referred to twice")
        else:
            named.add(ref)
            text = term_texts[ref]
        if not kind & _NX and text.startswith(_NX_BYTES):
            raise reader.fail(f"plain term {number} has a text that starts with {NX_PREFIX!r}")
        term_texts.append(text)
    return term_texts


def _read_postings(reader: _Reader, doc_lengths: array, terms: Iterable[str] | None) -> Postings:
    """The postings of every term, or of ``terms`` and their "[nx]" forms,
    from the bytes the postings part inflates to. The text list, the
    kinds and the back-references are checked whole before they name the
    terms; the picks match the texts of ``terms``. Only the picked terms
    are decoded, each block from its last doc number and the gaps sliced
    from the part, and checked."""
    term_count, text_count, text_bytes, posting_count = _POSTINGS.unpack(
        reader.read(_POSTINGS.size)
    )
    if posting_count > (total := sum(doc_lengths)):  # a posting counts a term of its document
        raise reader.fail(f"{posting_count} postings in documents of {total} terms in all")
    blob = bytes(reader.read(text_bytes))
    dfs = reader.read_column(term_count)
    # u64 sums in an array: a list would hold an int object per term
    offsets = array("Q", accumulate(dfs, initial=0))
    if offsets[-1] != posting_count:
        raise reader.fail(f"the dfs of {_FIELD} add up to {offsets[-1]}, not {posting_count}")
    if 0 in dfs:  # a term needs a last doc number, and then has df - 1 gaps
        raise reader.fail(f"a term of {_FIELD} has no posting")
    kinds = bytes(reader.read(term_count))
    if bad := kinds.translate(None, _KINDS):
        raise reader.fail(f"a gap width of {_GAP_WIDTH[bad[0]]}, not 1, 2 or 4")
    seconds = len(kinds.translate(None, bytes(range(_SECOND))))
    if text_count != term_count - seconds:
        raise reader.fail(f"{text_count} term texts for {term_count - seconds} first forms")
    refs = reader.read_column(seconds)
    widths = kinds.translate(_GAP_WIDTH)
    lasts = reader.read_column(term_count)
    # Gaps are unsigned, so a term's last bounds all its doc numbers.
    doc_count = len(doc_lengths)
    if lasts and max(lasts) >= doc_count:
        raise reader.fail(f"{_FIELD} lists doc number {max(lasts)} of {doc_count}")
    texts = blob.split(b"\n") if text_count or blob else []
    reader.check_strings(texts, text_count, f"term text of {_FIELD}")
    term_texts = _term_texts(reader, texts, kinds, refs)
    if terms is None:
        picks: Iterable[int] = range(term_count)
    else:  # each pick t and "[nx]" + t: an "[nx]" term's text may also be a pick less "[nx]"
        # A lone surrogate passes into bytes that are not UTF-8, so match no text.
        plain = {term.encode("utf-8", "surrogatepass") for term in terms}
        negated = plain | {text[len(_NX_BYTES):] for text in plain if text.startswith(_NX_BYTES)}
        picks = [
            i for i, (text, kind) in enumerate(zip(term_texts, kinds))
            if text in (negated if kind & _NX else plain)
        ]
    # Where each term's width x (df - 1) bytes of gaps start.
    gap_offsets = array("Q", accumulate(
        map(operator.mul, widths, map(operator.sub, dfs, repeat(1))), initial=0
    ))
    gaps = reader.read(gap_offsets[-1])
    tfs = reader.read_column(posting_count)
    reader.end_part(_FIELD)
    blob.decode("utf-8")  # every text is UTF-8, kept or not
    postings = {}
    for i in picks:
        term = term_texts[i].decode("utf-8")
        if kinds[i] & _NX:
            term = NX_PREFIX + term
        block = array(_WIDTHS[widths[i]])
        block.frombytes(gaps[gap_offsets[i]:gap_offsets[i + 1]])
        if _SWAP:
            block.byteswap()
        if 0 in block:
            raise reader.fail(f"the doc numbers of term {term!r} do not strictly ascend")
        first = lasts[i] - sum(block)
        if first < 0:
            raise reader.fail(f"the doc numbers of term {term!r} start below 0")
        tf_block = tfs[offsets[i]:offsets[i + 1]]
        if 0 in tf_block:
            raise reader.fail(f"term {term!r} has a tf of 0")
        postings[term] = (array(lasts.typecode, accumulate(block, initial=first)), tf_block)
    return postings
