"""Index construction, BM25 scoring, search, and snapshot round-trip."""

import math
import operator
import random
import re
import struct
import tracemalloc
import zlib
from array import array
from collections import Counter
from itertools import accumulate, product

import pytest
from hypothesis import example, given, settings, strategies as st

import oracle
from snapshot_parts import (
    HEADER_BYTES, deflate, deflate_part, deflated, inflated, parts, postings_start,
)

import negir.index as index_module
from negir.errors import DuplicateIdError, NegirError, ParseError
from negir.evalkit import RunResult, read_run, write_run
from negir.index import (
    PLAIN,
    TAGGED,
    Index,
    build_index,
    idf,
    load_index,
    save_index,
    score_query,
)
from negir.querygen import QueryBundle
from negir.ranking import STRATEGY_KINDS, Strategy, run_strategy, strategy_components


def search(index, terms, k):
    """Rank one plain-field query: the baseline strategy over a bare bundle."""
    bundle = QueryBundle("t", len(terms), 0, terms, terms, [], terms)
    return run_strategy(Strategy("baseline"), bundle, index, k)


# ---------------------------------------------------------------------------
# build_index
# ---------------------------------------------------------------------------


def test_empty_index():
    index = build_index([])
    assert index.doc_lengths == array("I")
    assert index.doc_ids == []
    assert index.norms == []
    assert index.field(PLAIN).postings == {}


def test_single_doc_statistics():
    index = build_index([("d", ["fever", "fever"])])
    assert index.field(PLAIN).postings["fever"] == (array("I", [0]), array("I", [2]))
    assert index.doc_ids == ["d"]
    assert index.doc_lengths == array("I", [2])
    assert index.norms == [1.2]  # a document of average length: k1 * (1 - b + b)


def test_build_deterministic():
    docs = [("a", ["x", "y"]), ("b", ["y", "z", "z"])]
    first, second = build_index(docs), build_index(docs)
    assert first.field(PLAIN).postings == second.field(PLAIN).postings
    assert first.field(TAGGED).postings == second.field(TAGGED).postings
    assert first.doc_ids == second.doc_ids == ["a", "b"]
    assert first.doc_lengths == second.doc_lengths


def test_duplicate_doc_id_rejected():
    with pytest.raises(DuplicateIdError, match="dup"):
        build_index([("dup", ["a"]), ("dup", ["b"])])


def test_tagged_field_is_separate_vocabulary():
    index = build_index([("d", ["[nx]smoking"])])
    assert score_query(index, PLAIN, ["smoking"], 1.0)[0] > 0
    assert score_query(index, TAGGED, ["smoking"], 1.0) == {}
    assert score_query(index, TAGGED, ["[nx]smoking"], 1.0)[0] > 0


# ---------------------------------------------------------------------------
# score_query
# ---------------------------------------------------------------------------


def test_hand_computed_single_doc_score():
    index = build_index([("d", ["fever"])], k1=1.2, b=0.75)
    score = score_query(index, PLAIN, ["fever"], 1.0)[0]
    assert score == oracle.bm25({"d": ["fever"]}, ["fever"], "d")
    # idf = ln(1 + (1 - 1 + 0.5) / (1 + 0.5)) = ln(4/3); tf part is exactly 1.
    assert score == pytest.approx(0.287682, abs=1e-6)
    assert score == pytest.approx(math.log(4 / 3), rel=1e-12)


def test_query_without_matches_scores_zero():
    index = build_index([("d", ["fever"])])
    assert score_query(index, PLAIN, ["cough"], 1.0) == {}
    assert score_query(index, PLAIN, [], 1.0) == {}
    assert oracle.bm25({"d": ["fever"]}, ["cough"], "d") == 0.0


def test_score_linear_in_weights():
    index = build_index([("d1", ["a", "b", "a"]), ("d2", ["b", "c"])])
    single_scores = score_query(index, PLAIN, ["a", "b"], 1.0)
    double_scores = score_query(index, PLAIN, ["a", "b"], 2.0)
    assert single_scores.keys() == double_scores.keys() == {0, 1}
    for doc in (0, 1):
        assert double_scores[doc] == pytest.approx(2 * single_scores[doc], rel=1e-12)


def test_duplicate_terms_accumulate():
    index = build_index([("d", ["a", "b"])])
    assert score_query(index, PLAIN, ["a", "a"], 1.0) == score_query(index, PLAIN, ["a"], 2.0)


def test_unknown_doc_rejected():
    # Only indexed documents get a score; there is none to look up for others.
    index = build_index([("d", ["a"])])
    scores = score_query(index, PLAIN, ["a"], 1.0)
    assert set(scores) == {0}
    with pytest.raises(KeyError):
        scores[1]


def test_idf_positive_for_all_df():
    for n in (1, 2, 10, 500):
        for df in range(1, n + 1):
            assert idf(n, df) > 0


def test_tf_part_monotonic_in_tf():
    k1, b = 1.2, 0.75
    length, avgdl = 10, 10
    norm = k1 * (1 - b + b * length / avgdl)
    parts = [tf * (k1 + 1) / (tf + norm) for tf in range(1, 50)]
    assert all(later > earlier for earlier, later in zip(parts, parts[1:]))


def test_weight_validation():
    # A query has one weight for all its terms; the field it names is checked.
    with pytest.raises(ValueError, match="bogus"):
        score_query(build_index([("d", ["a"])]), "bogus", ["a"], 1.0)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def test_search_orders_by_score_then_doc_id():
    index = build_index([("b", ["x"]), ("a", ["x"]), ("c", ["x", "x", "y"])])
    results = search(index, ["x"], k=10)
    # Equal scores: the string id breaks the tie, not the doc number (b is 0).
    assert [doc_id for doc_id, _ in results][:2] == ["a", "b"]
    assert results[0][1] == results[1][1]


def test_search_k_truncates_and_short_results():
    index = build_index([(f"d{i}", ["x"]) for i in range(5)])
    query = ["x"]
    assert len(search(index, query, k=3)) == 3
    assert len(search(index, query, k=50)) == 5  # no padding


def test_search_excludes_non_matching():
    index = build_index([("d1", ["x"]), ("d2", ["y"])])
    results = search(index, ["x"], k=10)
    assert [doc_id for doc_id, _ in results] == ["d1"]


def test_search_matches_exhaustive_oracle():
    rng = random.Random(7)
    vocab = [f"w{i}" for i in range(30)]
    for _ in range(20):
        doc_tokens = {
            f"d{i:03d}": [rng.choice(vocab) for _ in range(rng.randint(1, 40))]
            for i in range(rng.randint(2, 60))
        }
        index = build_index(list(doc_tokens.items()))
        terms = rng.sample(vocab, rng.randint(1, 6))
        got = search(index, terms, k=len(doc_tokens))
        assert got == oracle.search(doc_tokens, terms)


# ---------------------------------------------------------------------------
# snapshot
# ---------------------------------------------------------------------------


def test_snapshot_round_trip(tmp_path):
    docs = [("doc-a", ["fever", "[nx]cough", "fever"]), ("doc-b", ["rash"]), ("doc-c", [])]
    index = build_index(docs, k1=0.9, b=0.4, fingerprints=(7, 0xFFFFFFFF))
    path = tmp_path / "snap.ngir"
    save_index(index, path)
    loaded = load_index(path)
    assert loaded.k1 == 0.9 and loaded.b == 0.4
    assert loaded.fingerprints == (7, 0xFFFFFFFF)
    for field in (PLAIN, TAGGED):
        assert loaded.field(field).postings == index.field(field).postings
    assert loaded.doc_ids == index.doc_ids == ["doc-a", "doc-b", "doc-c"]
    assert loaded.doc_lengths == index.doc_lengths
    assert loaded.norms == index.norms
    for field, terms in ((PLAIN, ["fever", "rash", "rash"]), (TAGGED, ["fever", "[nx]cough"])):
        assert score_query(loaded, field, terms, 0.3) == score_query(index, field, terms, 0.3)


def test_snapshot_rejects_garbage(tmp_path):
    # A file shorter than the magic bytes too, even one that starts them.
    path = tmp_path / "bogus.ngir"
    for content in (b"NOPE!" + b"\x00" * 20, b"", b"NGI"):
        path.write_bytes(content)
        message = r"not an index snapshot \(bad magic bytes\)"
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: {message}$"):
            load_index(path)


def test_snapshot_magic_bytes(tmp_path):
    index = build_index([("d", ["x"])])
    path = tmp_path / "snap.ngir"
    save_index(index, path)
    assert path.read_bytes()[:5] == b"NGIR1"


def test_index_statistics_invariants():
    rng = random.Random(31)
    vocab = [f"v{i}" for i in range(12)]
    docs = [
        (f"d{i}", [rng.choice(vocab) for _ in range(rng.randint(0, 15))])
        for i in range(40)
    ]
    index = build_index(
        (doc_id, [("[nx]" + t if i % 3 else t) for i, t in enumerate(tokens)])
        for doc_id, tokens in docs
    )
    lengths = index.doc_lengths
    assert index.doc_ids == [doc_id for doc_id, _ in docs]
    assert list(lengths) == [len(tokens) for _, tokens in docs]
    avgdl = sum(lengths) / len(lengths)
    for doc, length in enumerate(lengths):
        expected = 1.2 * (1 - 0.75 + 0.75 * length / avgdl)
        assert index.norms[doc] == pytest.approx(expected, rel=1e-12)
    # Tagging only adds prefixes, so both fields' postings, the plain ones
    # derived, add up per document to the one shared length.
    for field in (PLAIN, TAGGED):
        tf_sums = [0] * len(lengths)
        for term, (doc_numbers, tfs) in index.field(field).postings.items():
            assert len(doc_numbers) == len(tfs) >= 1
            assert list(doc_numbers) == sorted(set(doc_numbers))  # ascending, no repeats
            for doc, tf in zip(doc_numbers, tfs):
                assert tf >= 1
                tf_sums[doc] += tf
        assert tf_sums == list(lengths)


def test_snapshot_truncation_is_a_parse_error(tmp_path):
    path = tmp_path / "snap.ngir"
    save_index(build_index([("doc-a", ["fever", "[nx]cough"]), ("doc-b", ["rash"])]), path)
    data = path.read_bytes()
    # Every proper prefix, and the whole snapshot with bytes appended.
    corrupted = [data[:size] for size in range(len(data))] + [data + b"garbage"]
    for i, content in enumerate(corrupted):
        cut = tmp_path / f"cut{i}.ngir"
        cut.write_bytes(content)
        with pytest.raises(ParseError, match=cut.name):
            load_index(cut)
    for terms in (None, ("rash",)):  # the 7 bytes of "garbage", counted
        with pytest.raises(
            ParseError, match=f"^{re.escape(str(cut))}: 7 trailing bytes after the postings$"
        ):
            load_index(cut, terms)


def test_snapshot_of_older_version_asks_for_rebuild(tmp_path):
    path = tmp_path / "snap.ngir"
    save_index(build_index([("d", ["x"])]), path)
    data = bytearray(path.read_bytes())
    assert data[5] == 10  # the version byte follows the 5 magic bytes
    for older in (5, 6, 7, 8, 9):
        data[5] = older
        path.write_bytes(bytes(data))
        with pytest.raises(
            ParseError, match=f"unsupported snapshot version {older}; rebuild the index"
        ):
            load_index(path)


def test_a_v9_file_asks_for_rebuild(tmp_path):
    # A v10 snapshot's parts inflate to the bytes of v9's, so its image
    # under version byte 9 is the v9 file of the same index.
    path = tmp_path / "snap.ngir"
    save_index(build_index([("d", ["x", "[nx]x"])]), path)
    image = inflated(path.read_bytes())
    path.write_bytes(resealed(image[:5] + b"\x09" + image[6:], 0, HEADER_BYTES - 4))
    for terms in (None, ("x",)):
        with pytest.raises(
            ParseError, match=f"^{path}: unsupported snapshot version 9; rebuild the index$"
        ):
            load_index(path, terms)


def _framings(part):
    """Each way to store the inflated ``part`` that the load refuses, as
    the bytes stored and what the refusal says of the part, named
    ``{part}``: too much inflation stated, too little or too much, a
    corrupt stream, one that ends early or has bytes after its end, a
    stored length past the end of the file, stored bytes that fail their
    CRC, and bytes after the part's CRC."""
    stream = deflate(part)
    good = deflate_part(part)
    return {
        "over 1032:1": (
            deflate_part(part, inflated=1032 * len(stream) + 1),
            f"the {{part}} is stated to inflate {len(stream)} bytes to "
            f"{1032 * len(stream) + 1}, over DEFLATE's 1032:1",
        ),
        "over 1032:1 of nothing": (
            deflate_part(part, stream=b"", inflated=1),
            "the {part} is stated to inflate 0 bytes to 1, over DEFLATE's 1032:1",
        ),
        "fewer bytes": (
            deflate_part(part, inflated=len(part) + 1),
            f"the {{part}} inflates to {len(part)} bytes, not the {len(part) + 1} stated",
        ),
        "more bytes": (
            deflate_part(part, inflated=len(part) - 1),
            f"the {{part}} inflates to more than the {len(part) - 1} bytes stated",
        ),
        "corrupt": (
            deflate_part(part, stream=b"\xff" + stream[1:]),
            r"the {part} is not a valid DEFLATE stream \(Error -3 while decompressing data: "
            r"invalid block type\)",
        ),
        "ends early": (
            deflate_part(part, stream=stream[:-2]),
            "the DEFLATE stream of the {part} ends early",
        ),
        "bytes after the stream": (
            deflate_part(part, stream=stream + b"\x00\x00"),
            "2 bytes follow the DEFLATE stream of the {part}",
        ),
        "a CRC that fails": (
            good[:-1] + bytes((good[-1] ^ 1,)),
            "the deflated {part} fails its CRC check",
        ),
        "bytes after the CRC": (
            deflate_part(part + b"\x00"),
            "1 trailing bytes after the {part}",
        ),
        "past the end of the file": (
            deflate_part(part, stored=0xFFFFFFFF, inflated=len(part)),
            None,
        ),
    }


@pytest.mark.parametrize("case", list(_framings(b"part")))
@pytest.mark.parametrize("part", ["document table", "field 'tagged'"])
def test_a_bad_deflated_part_is_a_parse_error(tmp_path, part, case):
    # Each is refused by a full load and by picked ones as a ParseError
    # naming the file, never as a zlib.error.
    path = tmp_path / "snap.ngir"
    save_index(build_index([("d", ["x", "[nx]x"])]), path)
    header, documents, postings = parts(path.read_bytes())
    if part == "document table":
        stored, message = _framings(documents)[case]
        data = header + stored + deflate_part(postings)
    else:
        stored, message = _framings(postings)[case]
        data = header + deflate_part(documents) + stored
    path.write_bytes(data)
    if message is None:
        left = len(data) - data.index(stored) - 8
        message = re.escape(
            f"corrupt or truncated index snapshot (needed 4294967295 bytes, found {left})"
        )
    else:
        message = "corrupt snapshot: " + message.format(part=re.escape(part))
    for terms in (None, ("x",), ()):
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: {message}$"):
            load_index(path, terms)


@pytest.mark.parametrize("stored", [None, 0xFFFFFFFF], ids=["in the file", "past its end"])
def test_a_deflated_part_is_refused_before_anything_is_allocated_for_it(tmp_path, stored):
    # A part stated to inflate to 4 GiB, in a file of some hundred bytes.
    path = tmp_path / "snap.ngir"
    save_index(build_index([("d", ["x"])]), path)
    header, documents, postings = parts(path.read_bytes())
    stated = deflate_part(documents, stored=stored, inflated=0xFFFFFFFF)
    path.write_bytes(header + stated + deflate_part(postings))
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=f"^{path}: "):
            load_index(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def resealed(data, start, end):
    """``data`` with the CRC at ``end`` recomputed over ``data[start:end]``,
    as a writer would have made it: the load checks behind the CRC."""
    return data[:end] + struct.pack("<I", zlib.crc32(data[start:end])) + data[end + 4:]


def test_snapshot_out_of_range_doc_number_is_a_parse_error(tmp_path):
    path = tmp_path / "snap.ngir"
    save_index(build_index([("d", ["x"])]), path)
    data = inflated(path.read_bytes())
    # The postings end with their df column, x's kind (gap width 1), the
    # empty column of back-references, the column of lasts and the tf
    # column, each other column one u8 entry after its width byte (x has
    # no gaps), then the part's CRC.
    assert data[-12:-4] == bytes((1, 1, 1, 1, 1, 0, 1, 1))
    tagged = postings_start(data)
    for start, column, message in (
        (-8, b"\x01\x07", "field 'tagged' lists doc number 7 of 1"),
        (-12, b"\x04" + struct.pack("<I", 0xFFFFFFFF),
         "the dfs of field 'tagged' add up to 4294967295, not 1"),
    ):
        patched = data[:start] + column + data[start + 2:]
        path.write_bytes(deflated(resealed(patched, tagged, len(patched) - 4)))
        for terms in (None, ("x",), ()):  # the bound covers the column, not the picked terms
            with pytest.raises(ParseError, match=f"snap.ngir: corrupt snapshot: {message}"):
                load_index(path, terms=terms)


def test_snapshot_duplicate_doc_id_is_a_parse_error(tmp_path):
    path = tmp_path / "snap.ngir"
    save_index(build_index([("ab", ["x"]), ("cd", ["y"])]), path)
    data = inflated(path.read_bytes())
    table_end = HEADER_BYTES + 8 + 5 + 1 + 2  # head, ids, width and u8 doc lengths
    for ids, message in (
        (b"ab\nab", "a doc_id is listed twice"),
        (b"ab-cd", "1 strings where 2 are listed, one per doc_id"),
    ):
        patched = data.replace(b"ab\ncd", ids, 1)
        path.write_bytes(deflated(resealed(patched, HEADER_BYTES, table_end)))
        with pytest.raises(ParseError, match=f"snap.ngir: corrupt snapshot: {message}"):
            load_index(path)


def test_snapshot_repeated_term_is_a_parse_error(tmp_path):
    # Term texts are read by the same string-list check as the doc_ids: a
    # text listed twice would load two terms of one text and form.
    path = tmp_path / "snap.ngir"
    save_index(build_index([("d", ["xy", "zw"])]), path)
    data = inflated(path.read_bytes())
    for terms, message in (
        (b"xy\nxy", "a term text of field 'tagged' is listed twice"),
        (b"xy-zw", "1 strings where 2 are listed, one per term text of field 'tagged'"),
    ):
        patched = data.replace(b"xy\nzw", terms, 1)
        path.write_bytes(deflated(resealed(patched, postings_start(data), len(data) - 4)))
        for picked in (None, ("zw",), ()):  # the whole list is checked, not the picked terms
            with pytest.raises(ParseError, match=f"snap.ngir: corrupt snapshot: {message}"):
                load_index(path, terms=picked)


def test_snapshot_repeated_doc_number_fails_the_crc(tmp_path):
    # A repeated doc number would add the term twice for that document;
    # the CRC catches one made by accident.
    path = tmp_path / "snap.ngir"
    save_index(build_index([("a", ["x"]), ("b", ["x"])]), path)
    data = inflated(path.read_bytes())
    # The postings end with x's u8 df 2, its kind (gap width 1), the empty
    # column of back-references, its u8 last 1, its one u8 gap 1, the u8
    # tfs [1, 1], then the CRC.
    assert data[-14:-4] == bytes((1, 2, 1, 1, 1, 1, 1, 1, 1, 1))
    path.write_bytes(deflated(data[:-8] + bytes((0,)) + data[-7:]))
    with pytest.raises(ParseError, match="snap.ngir: corrupt snapshot: the field 'tagged' fails"):
        load_index(path)


def _snapshot_part(*chunks):
    body = b"".join(chunks)
    return body + struct.pack("<I", zlib.crc32(body))


COLUMN_FORMATS = {1: "B", 2: "H", 4: "I"}  # width -> struct format of a value


def _column(values, least=1, order="<"):
    """A column of ``values``: the width byte, then the values, in the
    narrowest of 1, 2 and 4 bytes that holds them and is ``least`` or
    wider, in the byte ``order`` of ``struct``."""
    width = next(w for w in (1, 2, 4) if w >= least and max(values, default=0) < 1 << 8 * w)
    return bytes((width,)) + struct.pack(f"{order}{len(values)}{COLUMN_FORMATS[width]}", *values)


NX, SECOND = 0x40, 0x80  # the form bits of a term's kind byte


def _vocabulary(terms):
    """``(text_count, texts, forms, refs)`` as the writer stores ``terms``:
    each distinct text, the term less one leading "[nx]", in order of
    first use; each term's form bits; each second form's back-reference."""
    texts, forms, refs, first = [], [], [], {}
    for number, term in enumerate(terms):
        text = term.removeprefix("[nx]")
        earlier = first.setdefault(text, number)
        forms.append((NX if text != term else 0) | (SECOND if earlier != number else 0))
        if earlier == number:
            texts.append(text)
        else:
            refs.append(earlier)
    return len(texts), texts, forms, refs


def _snapshot(
    doc_ids, lengths, terms, blocks, tfs, widths=(1, 1, 1, 1, 1), gap_widths=(), vocabulary=None,
    fingerprints=(0, 0), order="<",
):
    """The inflated snapshot (``deflated`` writes it as a file) of a
    document table, the terms with their dfs, each term's block of doc
    numbers and the tf column, with default k1 and b. A block is stored as its last doc number and the gaps before
    it, so it may start below 0 but not descend; an empty one as a last
    of 0. ``widths`` are the least widths of the length, df,
    back-reference, last and tf columns, ``gap_widths`` the least gap
    width of each term (1 if not given). ``vocabulary``, if given,
    replaces what ``_vocabulary`` makes of the terms, whose names are
    then not stored. ``order`` is the byte order of the columns and gaps,
    little-endian as the format has it unless given."""
    ids = "\n".join(doc_ids).encode("utf-8")
    text_count, texts, forms, refs = vocabulary or _vocabulary([term for term, _ in terms])
    text_bytes = "\n".join(texts).encode("utf-8")
    dfs = [df for _, df in terms]
    lasts = [block[-1] if block else 0 for block in blocks]
    gap_widths = list(gap_widths) + [1] * (len(blocks) - len(gap_widths))
    gaps = [
        _column([b - a for a, b in zip(block, block[1:])], least, order)
        for block, least in zip(blocks, gap_widths)
    ]
    kinds = bytes(column[0] | form for column, form in zip(gaps, forms))
    return (
        _snapshot_part(b"NGIR1", struct.pack("<BddII", 10, 1.2, 0.75, *fingerprints))
        + _snapshot_part(
            struct.pack("<II", len(doc_ids), len(ids)), ids, _column(lengths, widths[0], order),
        )
        + _snapshot_part(
            struct.pack("<IIII", len(terms), text_count, len(text_bytes), len(tfs)), text_bytes,
            _column(dfs, widths[1], order), kinds, _column(refs, widths[2], order),
            _column(lasts, widths[3], order), *(column[1:] for column in gaps),
            _column(tfs, widths[4], order),
        )
    )


def test_snapshot_bytes_are_pinned(tmp_path):
    index = build_index(
        [("a", ["x", "[nx]y", "x"]), ("b-\u00e9", ["y"]), ("c", ["x"])],
        fingerprints=(0x01020304, 0xA0B0C0D0),
    )
    path = tmp_path / "snap.ngir"
    save_index(index, path)
    expected = _snapshot(
        ["a", "b-\u00e9", "c"], [3, 1, 1], [("x", 2), ("[nx]y", 1), ("y", 1)],
        [[0, 2], [0], [1]], [2, 1, 1, 1], fingerprints=(0x01020304, 0xA0B0C0D0),
    )
    # The parts as they inflate: the deflated bytes depend on the zlib
    # build, which may not be the stock one.
    data = path.read_bytes()
    assert inflated(data) == expected
    # The header is stored as it is, and each other part as its stored
    # and inflated lengths, then its raw DEFLATE stream, then the CRC of
    # those, the file's end.
    header, documents, postings = parts(data)
    assert data[:HEADER_BYTES] == header
    stored = struct.unpack_from("<I", data, HEADER_BYTES)[0]
    assert struct.unpack_from("<II", data, HEADER_BYTES) == (stored, len(documents))
    start = HEADER_BYTES + 8 + stored + 4
    assert struct.unpack_from("<I", data, start - 4) == (zlib.crc32(data[HEADER_BYTES:start - 4]),)
    assert struct.unpack_from("<II", data, start) == (len(data) - start - 12, len(postings))
    assert struct.unpack_from("<I", data, len(data) - 4) == (zlib.crc32(data[start:-4]),)
    # Three terms, two texts ("x\ny", 3 bytes) and four postings.
    assert struct.unpack_from("<IIII", expected, postings_start(expected)) == (3, 2, 3, 4)
    # Every column is u8: its width byte, then one byte per value. The
    # postings end with the dfs; a kind per term, gap width 1 plus the
    # form bits: "[nx]y" is the "[nx]" form of y, and y a second form
    # whose back-reference is term 1; the lasts, x's one gap (2, from doc
    # 0 to doc 2) and the tfs, then the CRC.
    assert expected[-23:-4] == bytes(
        (1, 2, 1, 1, 0x01, 0x41, 0x81, 1, 1, 1, 2, 0, 1, 2, 1, 2, 1, 1, 1)
    )
    assert HEADER_BYTES == len(_snapshot_part(b"NGIR1", struct.pack("<BddII", 10, 0, 0, 0, 0)))


def small_snapshot(tmp_path):
    """A small snapshot and its bytes."""
    path = tmp_path / "snap.ngir"
    save_index(build_index([("doc-a", ["fever", "[nx]cough"]), ("doc-b", ["rash", "fever"])]), path)
    return path, path.read_bytes()


def flips(data, positions):
    for i in positions:
        for mask in (0x01, 0x80, 0xFF):
            yield i, data[:i] + bytes((data[i] ^ mask,)) + data[i + 1:]


def test_snapshot_every_byte_flip_is_a_parse_error(tmp_path):
    # The unused bits after a stream's final block too: the CRC of the
    # stored bytes covers them.
    path, data = small_snapshot(tmp_path)
    for i, content in flips(data, range(len(data))):
        path.write_bytes(content)
        with pytest.raises(ParseError, match=f"^{path}: "):
            load_index(path)
            pytest.fail(f"a flip at byte {i} loaded")


def test_snapshot_every_inflated_byte_flip_is_a_parse_error(tmp_path):
    # Each part's CRC covers its inflated bytes: a flip there, deflated
    # again into a valid stream, fails the CRC or a check before it.
    path, data = small_snapshot(tmp_path)
    image = inflated(data)
    for i, content in flips(image, range(len(image))):
        path.write_bytes(deflated(content, postings_start(image)))
        for terms in (None, ("fever",)):
            with pytest.raises(ParseError, match=f"^{path}: "):
                load_index(path, terms)
                pytest.fail(f"a flip at inflated byte {i} loaded with terms {terms}")


def test_snapshot_picked_load_checks_what_it_reads(tmp_path):
    path, data = small_snapshot(tmp_path)
    # Picking terms checks no less: the postings are still checked whole.
    for terms in (("fever",), ("cough", "absent"), ("cough", "[nx]cough"), ()):
        # Every proper prefix.
        for size in range(len(data)):
            path.write_bytes(data[:size])
            with pytest.raises(ParseError, match="snap.ngir"):
                load_index(path, terms)
        for i, content in flips(data, range(len(data))):
            path.write_bytes(content)
            with pytest.raises(ParseError, match="snap.ngir"):
                load_index(path, terms)
                pytest.fail(f"a flip at byte {i} loaded with terms {terms}")


def test_snapshot_repeated_doc_number_with_its_crc_recomputed_is_a_parse_error(tmp_path):
    # A doc number repeated within a term would add the term twice for
    # that document: x's block [0, 1] patched to [0, 0] would score
    # {0: 0.4222} in place of {0: 0.2111, 1: 0.1604}. Each block the load
    # keeps is checked, whatever the CRC says.
    index = build_index([("a", ["x"]), ("b", ["x", "y"])])
    scores = score_query(index, TAGGED, ["x"], 1.0)
    assert scores == {0: pytest.approx(0.2111, abs=1e-4), 1: pytest.approx(0.1604, abs=1e-4)}
    path = tmp_path / "snap.ngir"
    save_index(index, path)
    data = inflated(path.read_bytes())
    start = postings_start(data)
    # After the head, the texts, the u8 dfs, the kinds and the empty
    # column of back-references: the u8 lasts, x's 1 and y's 1, then x's
    # one gap, 1, which becomes 0.
    lasts = start + 16 + len(b"x\ny") + 3 + 2 + 1
    assert data[lasts:lasts + 4] == bytes((1, 1, 1, 1))
    patched = data[:lasts + 3] + bytes((0,)) + data[lasts + 4:]
    path.write_bytes(deflated(resealed(patched, start, len(data) - 4)))
    for terms in (None, ("x",), ("x", "[nx]x")):
        with pytest.raises(
            ParseError, match="corrupt snapshot: the doc numbers of term 'x' do not strictly ascend"
        ):
            load_index(path, terms)
    # A block no term of the load reads is not checked.
    assert load_index(path, ("y",)).postings == {"y": index.postings["y"]}


@pytest.mark.parametrize("terms, docs, tfs, message", [
    ([("x", 2)], [[1, 1]], [1, 1],
     "corrupt snapshot: the doc numbers of term 'x' do not strictly ascend"),
    ([("x", 1), ("y", 1)], [[0], [1]], [0, 1], "corrupt snapshot: term 'x' has a tf of 0"),
    ([("x", 2)], [[-1, 1]], [1, 1],
     "corrupt snapshot: the doc numbers of term 'x' start below 0"),
    ([("x", 2), ("y", 1)], [[0, 1], [0]], [1, 1, 1],
     "corrupt snapshot: 3 postings in documents of 2 terms in all"),
    ([("x", 0), ("y", 1)], [[], [0]], [1],
     "corrupt snapshot: a term of field 'tagged' has no posting"),
])
def test_snapshot_crafted_block_is_a_parse_error(tmp_path, terms, docs, tfs, message):
    # Crafted postings with valid CRCs, in two documents of one term each:
    # each is refused by a full load and by one that picks the term. A
    # block is stored as its last doc number and its gaps, so a gap of 0
    # repeats a doc number and gaps that add up to more than the last
    # start it below 0. The last holds more postings than its documents
    # hold terms, which would leave a document with no length norm to
    # score it by when all the lengths are 0.
    path = tmp_path / "snap.ngir"
    path.write_bytes(deflated(_snapshot(["a", "b"], [1, 1], terms, docs, tfs)))
    for picked in (None, ("x", "[nx]x")):
        with pytest.raises(ParseError, match=f"snap.ngir: {message}"):
            load_index(path, picked)


def test_a_last_doc_number_equal_to_the_count_is_a_parse_error(tmp_path):
    # Doc numbers run from 0 to the count - 1: the bound is strict, and it
    # covers the column of lasts, not only the picked terms.
    path = tmp_path / "snap.ngir"
    path.write_bytes(deflated(
        _snapshot(["a", "b"], [1, 1], [("x", 1), ("y", 1)], [[0], [2]], [1, 1])
    ))
    for terms in (None, ("x",), ()):
        with pytest.raises(
            ParseError, match="snap.ngir: corrupt snapshot: field 'tagged' lists doc number 2 of 2"
        ):
            load_index(path, terms=terms)


@pytest.mark.parametrize("vocabulary, message", [
    # A second form's back-reference must name an earlier term ...
    ((1, ["x"], [NX | SECOND, 0], [1]), "the back-reference of term 0 is 1, not an earlier term"),
    ((1, ["x"], [0, NX | SECOND], [1]), "the back-reference of term 1 is 1, not an earlier term"),
    # ... of the other form, which is a first form ...
    ((1, ["x"], [0, SECOND], [0]), "term 1 refers to term 0, of its own form"),
    ((1, ["x"], [0, NX | SECOND, SECOND], [0, 1]), "term 2 refers to term 1, a second form"),
    # ... and that no other term names.
    ((1, ["x"], [0, NX | SECOND, NX | SECOND], [0, 0]), "term 0 is referred to twice"),
    # The text count is the number of first forms.
    ((1, ["x"], [0, 0], []), "1 term texts for 2 first forms"),
    ((2, ["x", "y"], [0, NX | SECOND], [0]), "2 term texts for 1 first forms"),
    # A text is listed once, so no (text, form) pair repeats.
    ((2, ["x", "x"], [0, 0], []), "a term text of field 'tagged' is listed twice"),
    ((2, ["x", "x"], [0, NX], []), "a term text of field 'tagged' is listed twice"),
    # "[nx]x" is the "[nx]" form of x, so no plain term has that text.
    ((2, ["[nx]x", "x"], [0, NX], []), "plain term 0 has a text that starts with '\\[nx\\]'"),
    ((1, ["[nx]x"], [NX, SECOND], [0]), "plain term 1 has a text that starts with '\\[nx\\]'"),
], ids=["later", "itself", "own form", "second form", "twice", "too few texts", "too many texts",
        "text twice", "text twice in two forms", "plain nx text", "plain nx text by reference"])
def test_snapshot_crafted_vocabulary_is_a_parse_error(tmp_path, vocabulary, message):
    # Crafted term names with valid CRCs, one posting per term: each is
    # refused by a full load and by picked ones, whatever they pick.
    path = tmp_path / "snap.ngir"
    count = len(vocabulary[2])
    doc_ids, terms = [f"d{i}" for i in range(count)], [("unused", 1)] * count
    blocks = [[i] for i in range(count)]
    path.write_bytes(deflated(_snapshot(doc_ids, [1] * count, terms, blocks, [1] * count,
                                        vocabulary=vocabulary)))
    for picked in (None, ("x",), ("[nx]x",), ()):
        with pytest.raises(ParseError, match=f"^{path}: corrupt snapshot: {message}$"):
            load_index(path, picked)


SNAPSHOT_VOCAB = ["fever", "cough", "r\u00e4sh", "x"]


@st.composite
def snapshot_corpora(draw):
    """Analyzed ``(doc_id, tagged_terms)`` documents: empty ones, non-ASCII
    ids, an empty id, sometimes over 256 of them."""
    count = draw(st.one_of(st.integers(0, 12), st.integers(257, 300)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    prefix = draw(st.one_of(
        st.sampled_from(["", "r\u00e4sh-", "\u75c5\u4f8b", "\U0001F321"]),
        st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"), max_size=3),
    ))
    ids = [f"{prefix}{i}" for i in range(count)]
    if ids and draw(st.booleans()):
        ids[rng.randrange(count)] = ""
    docs = []
    for doc_id in ids:
        plain = [rng.choice(SNAPSHOT_VOCAB) for _ in range(rng.choice([0, 1, 3, 8]))]
        docs.append((doc_id, ["[nx]" + t if rng.random() < 0.3 else t for t in plain]))
    return docs


def all_strategy_runs(index):
    q_tagged = SNAPSHOT_VOCAB[:2] + ["[nx]" + t for t in SNAPSHOT_VOCAB[2:]]
    bundle = QueryBundle(
        "t", 4, 2, SNAPSHOT_VOCAB, SNAPSHOT_VOCAB[:2], SNAPSHOT_VOCAB[2:], q_tagged
    )
    return [run_strategy(Strategy(kind), bundle, index, 1000) for kind in STRATEGY_KINDS]


@settings(max_examples=40, deadline=None)
@given(snapshot_corpora(), st.sampled_from([(1.2, 0.75), (0.0, 0.0), (2.5, 1.0)]))
def test_snapshot_round_trip_property(tmp_path_factory, docs, params):
    index = build_index(docs, k1=params[0], b=params[1])
    path = tmp_path_factory.mktemp("snap") / "snap.ngir"
    save_index(index, path)
    loaded = load_index(path)
    assert loaded.doc_ids == index.doc_ids
    assert loaded.doc_lengths == index.doc_lengths
    assert loaded.norms == index.norms
    for field in (PLAIN, TAGGED):
        assert loaded.field(field).postings == index.field(field).postings
    assert all_strategy_runs(loaded) == all_strategy_runs(index)
    # A loaded index keeps the file's widths in its arrays, and saves as it loaded.
    resaved = path.with_name("resaved.ngir")
    save_index(loaded, resaved)
    assert resaved.read_bytes() == path.read_bytes()


def bundle_terms(bundle):
    """The terms ``negir run`` picks for a bundle under every strategy."""
    return {
        term
        for kind in STRATEGY_KINDS
        for _, _, part, _ in strategy_components(Strategy(kind), bundle)
        for term in part
    }


@st.composite
def term_bundles(draw):
    """A bundle over the snapshot vocabulary and terms absent from it."""
    q_full = draw(st.lists(st.sampled_from(SNAPSHOT_VOCAB + ["absent", ""]), max_size=6))
    negated = [draw(st.booleans()) for _ in q_full]
    q_pos = [term for term, neg in zip(q_full, negated) if not neg]
    q_neg = [term for term, neg in zip(q_full, negated) if neg]
    q_tagged = ["[nx]" + term if neg else term for term, neg in zip(q_full, negated)]
    return QueryBundle("t", len(q_full), len(q_neg), q_full, q_pos, q_neg, q_tagged)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(snapshot_corpora(), term_bundles())
def test_selective_load_keeps_the_postings_of_its_terms(tmp_path_factory, docs, bundle):
    # The tagged postings of each picked term and of its "[nx]" form, so
    # the plain postings of each picked term too.
    terms = bundle_terms(bundle)
    stored = terms | {"[nx]" + term for term in terms}
    index = build_index(docs)
    path = tmp_path_factory.mktemp("snap") / "snap.ngir"
    save_index(index, path)
    picked = load_index(path, terms)
    assert picked.doc_ids == index.doc_ids and picked.norms == index.norms
    assert picked.postings == {t: p for t, p in index.postings.items() if t in stored}
    plain = picked.field(PLAIN).postings
    assert {t: p for t, p in plain.items() if t in terms} == {
        t: p for t, p in index.field(PLAIN).postings.items() if t in terms
    }
    for kind in STRATEGY_KINDS:
        strategy = Strategy(kind)
        assert run_strategy(strategy, bundle, picked, 1000) == run_strategy(
            strategy, bundle, index, 1000
        )


U32_MAX = 0xFFFFFFFF


@st.composite
def crafted_snapshots(draw):
    """``(doc_ids, lengths, terms with dfs, blocks, tfs, widths,
    gap_widths, vocabulary)`` of a small built index, each mutated or
    not, for ``_snapshot`` to write with every CRC recomputed. A block is
    mutated through what the file stores of it: its last doc number or
    one of its gaps; a term's name through the vocabulary: a text, a form
    bit, a back-reference or the text count. Each column and each term's
    gaps are as wide as their values need, or wider where ``widths`` and
    ``gap_widths`` ask for more."""
    vocab = SNAPSHOT_VOCAB + ["[nx]" + term for term in SNAPSHOT_VOCAB]
    docs = draw(st.lists(st.lists(st.sampled_from(vocab), max_size=5), min_size=1, max_size=4))
    index = build_index((f"d{i}", terms) for i, terms in enumerate(docs))
    ids, lengths = list(index.doc_ids), list(index.doc_lengths)
    terms = [(term, len(numbers)) for term, (numbers, _) in index.postings.items()]
    blocks = [list(numbers) for numbers, _ in index.postings.values()]
    tfs = [tf for _, block in index.postings.values() for tf in block]
    text_count, texts, forms, refs = _vocabulary(index.postings)
    count = st.one_of(st.integers(0, 4), st.just(U32_MAX))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(
            ["length", "lengths", "id", "df", "last", "gap", "tf", "text", "form", "ref", "texts"]
        ))
        gapped = [block for block in blocks if len(block) > 1]
        if kind == "length":
            lengths[draw(st.integers(0, len(lengths) - 1))] = draw(count)
        elif kind == "lengths":
            lengths = [0] * len(lengths)
        elif kind == "id":
            ids[draw(st.integers(0, len(ids) - 1))] = draw(
                st.sampled_from(["", "a b", " d0", "d0", "x\ty", "r\u00e4sh", "\u2028"])
            )
        elif kind == "df" and terms:
            i = draw(st.integers(0, len(terms) - 1))
            terms[i] = (terms[i][0], draw(count))
        elif kind == "last" and blocks:  # moves the whole block
            block = blocks[draw(st.integers(0, len(blocks) - 1))]
            shift = draw(count) - block[-1]
            block[:] = [number + shift for number in block]
        elif kind == "gap" and gapped:  # moves the doc numbers before it
            block = draw(st.sampled_from(gapped))
            i = draw(st.integers(1, len(block) - 1))
            shift = block[i] - block[i - 1] - draw(count)
            block[:i] = [number + shift for number in block[:i]]
        elif kind == "tf" and tfs:
            tfs[draw(st.integers(0, len(tfs) - 1))] = draw(count)
        elif kind == "text" and texts:
            texts[draw(st.integers(0, len(texts) - 1))] = draw(st.sampled_from(vocab + [""]))
        elif kind == "form" and forms:
            forms[draw(st.integers(0, len(forms) - 1))] ^= NX
        elif kind == "ref" and refs:
            refs[draw(st.integers(0, len(refs) - 1))] = draw(count)
        elif kind == "texts":
            text_count = draw(count)
    widths = draw(st.tuples(*[st.sampled_from([1, 2, 4])] * 5))
    gap_widths = draw(st.lists(st.sampled_from([1, 2, 4]), min_size=len(blocks),
                               max_size=len(blocks)))
    return ids, lengths, terms, blocks, tfs, widths, gap_widths, (text_count, texts, forms, refs)


def _read_column(data, start, count):
    """The ``count`` values of the column at ``start`` of the snapshot
    ``data``, and where the column ends."""
    end = start + 1 + data[start] * count
    return struct.unpack(f"<{count}{COLUMN_FORMATS[data[start]]}", data[start + 1:end]), end


def decoded_fields(data):
    """The tagged and plain ``Counter`` of each doc_id, and each doc_id's
    length, read from the snapshot bytes ``data`` without the engine:
    each term's name from its kind and its text or back-reference, and
    its doc numbers rebuilt backwards from its last."""
    doc_count, id_bytes = struct.unpack_from("<II", data, HEADER_BYTES)
    ids_start = HEADER_BYTES + 8
    ids = data[ids_start:ids_start + id_bytes].decode("utf-8").split("\n")
    lengths, _ = _read_column(data, ids_start + id_bytes, doc_count)
    start = postings_start(data)
    term_count, _, text_bytes, posting_count = struct.unpack_from("<IIII", data, start)
    texts = iter(data[start + 16:start + 16 + text_bytes].decode("utf-8").split("\n"))
    dfs, end = _read_column(data, start + 16 + text_bytes, term_count)
    kinds, end = data[end:end + term_count], end + term_count
    refs, end = _read_column(data, end, sum(kind >= SECOND for kind in kinds))
    refs = iter(refs)
    lasts, end = _read_column(data, end, term_count)
    terms = []
    for kind in kinds:
        text = next(texts) if kind < SECOND else terms[next(refs)].removeprefix("[nx]")
        terms.append("[nx]" + text if kind & NX else text)
    blocks = []
    for df, kind, last in zip(dfs, kinds, lasts):
        gaps = struct.unpack_from(f"<{df - 1}{COLUMN_FORMATS[kind % NX]}", data, end)
        end += kind % NX * (df - 1)
        blocks.append(list(accumulate(reversed(gaps), operator.sub, initial=last))[::-1])
    tfs = iter(_read_column(data, end, posting_count)[0])
    tagged = {doc_id: Counter() for doc_id in ids}
    for term, block in zip(terms, blocks):
        for number, tf in zip(block, tfs):
            if number >= 0:  # else in a block that a picked load neither keeps nor checks
                tagged[ids[number]][term] = tf
    plain = {doc_id: Counter() for doc_id in ids}
    for doc_id, counts in tagged.items():
        for term, tf in counts.items():
            plain[doc_id][term.removeprefix("[nx]")] += tf
    return plain, tagged, dict(zip(ids, lengths))


X_BUNDLE = QueryBundle("t", 1, 0, ["x"], ["x"], [], ["x"])
CRAFTED_STRATEGIES = [Strategy(kind) for kind in STRATEGY_KINDS] + [
    Strategy("negation_tagging", expansion_weight=0.0)
]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    crafted_snapshots(),
    term_bundles(),
    st.one_of(st.none(), st.sets(st.sampled_from(SNAPSHOT_VOCAB + ["[nx]x", "absent"]))),
)
# Documents shorter than their postings, doc_ids a run line cannot hold,
# and a plain tf that no u32 holds, merged from x and "[nx]x" in doc a.
@example((["a", "b"], [0, 0], [("x", 2)], [[0, 1]], [1, 1]), X_BUNDLE, None)
@example((["a b", ""], [1, 1], [("x", 2)], [[0, 1]], [1, 1]), X_BUNDLE, None)
@example((["a", "b"], [1, 1], [("x", 1), ("[nx]x", 1)], [[0], [0]], [U32_MAX, 1]), X_BUNDLE, set())
# Columns and gaps wider than their values need.
@example((["a", "b"], [1, 2], [("x", 2), ("[nx]x", 1)], [[0, 1], [1]], [1, 1, 1], (4, 2, 4, 4, 2),
          (4, 2)), X_BUNDLE, None)
def test_crafted_snapshot_is_refused_or_ranks_as_the_oracle(
    tmp_path_factory, crafted, bundle, extra
):
    # Whatever a crafted file with valid CRCs holds, a load either refuses
    # it, naming the file, or ranks every strategy as the oracle does on
    # the postings the file spells out, into a run file that reads back.
    path = tmp_path_factory.mktemp("snap") / "snap.ngir"
    path.write_bytes(deflated(_snapshot(*crafted)))
    picked = None if extra is None else bundle_terms(bundle) | extra
    try:
        index = load_index(path, picked)
    except ParseError as exc:
        assert str(exc).startswith(f"{path}: ")
        return
    plain, tagged, lengths = decoded_fields(inflated(path.read_bytes()))
    run = RunResult("crafted", {})
    for number, strategy in enumerate(CRAFTED_STRATEGIES):
        ranked = run_strategy(strategy, bundle, index, 1000)
        expected = oracle.strategy_scores(
            plain, tagged, bundle, strategy.kind,
            expansion_weight=strategy.expansion_weight, lengths=lengths,
        )
        assert ranked == oracle.ranked(expected, 1000)
        run.topics[str(number)] = ranked
    out = path.with_name("crafted.run")
    try:
        write_run(run, out)
    except NegirError:  # refused only for a doc_id that is not one word
        doc_ids = [doc_id for ranked in run.topics.values() for doc_id, _ in ranked]
        assert any(doc_id.split() != [doc_id] for doc_id in doc_ids)
        assert not out.exists()
        return
    assert read_run(out).topics == {topic: docs for topic, docs in run.topics.items() if docs}


DERIVED_VOCAB = ["fever", "cough", "rash", ""]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.lists(st.tuples(st.sampled_from(DERIVED_VOCAB), st.booleans()), max_size=8),
                max_size=12))
# fever only negated, cough only plain, rash both ways in one document.
@example([[("fever", True), ("cough", False)], [("rash", True), ("rash", False), ("fever", True)]])
def test_derived_plain_postings_equal_a_direct_build(tmp_path_factory, docs):
    untagged = [[word for word, _ in doc] for doc in docs]
    tagged = [["[nx]" + word if negated else word for word, negated in doc] for doc in docs]
    expected = oracle.postings(untagged)
    index = build_index((str(i), terms) for i, terms in enumerate(tagged))
    assert index.field(PLAIN).postings == expected
    path = tmp_path_factory.mktemp("snap") / "snap.ngir"
    save_index(index, path)
    assert load_index(path).field(PLAIN).postings == expected
    for words in (DERIVED_VOCAB, ["fever", "rash"], ["cough", "absent"], []):
        picked = load_index(path, words)
        assert picked.field(PLAIN).postings == {t: p for t, p in expected.items() if t in words}


@pytest.mark.parametrize("long_doc_id", [True, False])
def test_long_strings_survive_a_round_trip(tmp_path, long_doc_id):
    # A string list has no per-string length field, so no length limit.
    huge = "x" * 70_000
    if long_doc_id:
        docs = [(huge, ["a"]), ("d", ["b"])]
    else:
        docs = [("d", ["a", "[nx]" + huge]), ("e", [huge])]
    index = build_index(docs)
    path = tmp_path / "snap.ngir"
    save_index(index, path)
    loaded = load_index(path)
    assert loaded.doc_ids == [doc[0] for doc in docs]
    for field in (PLAIN, TAGGED):
        assert loaded.field(field).postings == index.field(field).postings


def test_save_refuses_a_term_with_a_line_break(tmp_path):
    # Strings are separated by line breaks in the snapshot; the readers
    # make none, but ``build_index`` takes any string, as a term or as a
    # doc_id. The refusal comes before anything is written: an existing
    # file keeps its bytes, and no temp file is left.
    path = tmp_path / "snap.ngir"
    message = r"snap.ngir: cannot write 'b\\nc': it holds a line break"
    for docs in ([("d", ["a", "b\nc"])], [("a", ["x"]), ("b\nc", ["y"])]):
        with pytest.raises(NegirError, match=message):
            save_index(build_index(docs), path)
        assert not path.exists()
        path.write_bytes(b"previous snapshot")
        with pytest.raises(NegirError, match="line break"):
            save_index(build_index(docs), path)
        assert path.read_bytes() == b"previous snapshot"
        assert [p.name for p in tmp_path.iterdir()] == ["snap.ngir"]
        path.unlink()


@pytest.mark.parametrize("head, message", [
    (b"", r"not an index snapshot \(bad magic bytes\)"),
    (b"NGIR1\x09", "unsupported snapshot version 9; rebuild the index"),
], ids=["magic", "version"])
def test_a_wrong_file_is_refused_after_its_first_6_bytes(tmp_path, head, message):
    # 64 MiB of zeros after the head: the load reads the rest of a file
    # whole, but only once its magic and version are right.
    path = tmp_path / "big.ngir"
    with open(path, "wb") as out:
        out.write(head)
        out.truncate(64 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: {message}$"):
            load_index(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_load_refuses_a_file_that_is_not_regular():
    # A device has no size to bound the reads by.
    message = r"^/dev/null: not a regular file, so its size is unknown$"
    with pytest.raises(ParseError, match=message):
        load_index("/dev/null")


def test_save_refuses_a_string_that_utf8_cannot_encode(tmp_path):
    # A lone surrogate, as a doc_id or a term, is refused before anything
    # is written, as a line break is.
    path = tmp_path / "snap.ngir"
    for docs, bad in (
        ([("a", ["x"]), ("d\udc80", ["y"])], r"'d\\udc80'"),
        ([("d", ["a", "b\ud800"])], r"'b\\ud800'"),
    ):
        message = rf"snap.ngir: cannot write {bad}: UTF-8 cannot encode it"
        with pytest.raises(NegirError, match=message):
            save_index(build_index(docs), path)
        assert not path.exists()
        path.write_bytes(b"previous snapshot")
        with pytest.raises(NegirError, match="UTF-8 cannot encode it"):
            save_index(build_index(docs), path)
        assert path.read_bytes() == b"previous snapshot"
        assert [p.name for p in tmp_path.iterdir()] == ["snap.ngir"]
        path.unlink()


@pytest.mark.parametrize("settings, fault", [
    ({"k1": math.nan}, "k1 must be a finite number >= 0, got nan"),
    ({"k1": -1.0}, "k1 must be a finite number >= 0, got -1.0"),
    ({"k1": math.inf}, "k1 must be a finite number >= 0, got inf"),
    ({"b": 2.0}, "b must be a number in [0, 1], got 2.0"),
    ({"b": -0.5}, "b must be a number in [0, 1], got -0.5"),
    ({"fingerprints": (-1, 0)}, "fingerprint -1 out of the u32 range"),
    ({"fingerprints": (0, 2**32)}, "fingerprint 4294967296 out of the u32 range"),
], ids=["k1 nan", "k1 negative", "k1 inf", "b over 1", "b negative", "fingerprint negative",
        "fingerprint over u32"])
def test_save_refuses_a_header_that_load_refuses(tmp_path, settings, fault):
    # Library indexes take any k1, b and fingerprints; a snapshot holds
    # only those that load_index reads back.
    path = tmp_path / "snap.ngir"
    index = build_index([("d", ["a"])], **settings)
    with pytest.raises(NegirError) as refused:
        save_index(index, path)
    assert str(refused.value) == f"{path}: cannot write the header: {fault}"
    assert list(tmp_path.iterdir()) == []


OVER_U32 = 2**32 + 5


@pytest.mark.parametrize("postings, lengths, fault", [
    ({"x": (array("I", [0]), array("I", [1]))}, array("Q", [OVER_U32]),
     f"cannot write the document length column: {OVER_U32} is out of the u32 range"),
    ({"x": (array("I", [0]), array("Q", [OVER_U32]))}, array("I", [1]),
     f"cannot write the tf column: {OVER_U32} is out of the u32 range"),
    ({"x": (array("I", [0]), array("I", [1])), "y": (array("I", [0]), array("I", [1]))},
     array("I", [1]), "cannot write 2 postings in documents of 1 terms in all"),
    # A block is stored as its last doc number and its gaps, all above 0.
    ({"x": (array("I", [0]), array("I", [1])), "y": (array("I"), array("I"))}, array("I", [2]),
     "cannot write term 'y': it has no posting"),
    ({"x": (array("I", [1, 0]), array("I", [1, 1]))}, array("I", [2]),
     "cannot write term 'x': its doc numbers do not strictly ascend"),
    ({"x": (array("Q", [0, 2**33, 0]), array("I", [1, 1, 1]))}, array("I", [3]),
     "cannot write term 'x': its doc numbers do not strictly ascend"),
    ({"x": (array("B", [0, 0]), array("I", [1, 1]))}, array("I", [2]),
     "cannot write term 'x': its doc numbers do not strictly ascend"),
], ids=["length over u32", "tf over u32", "more postings than terms", "term with no posting",
        "doc numbers descend", "doc numbers over u32 descend", "doc number repeated"])
def test_save_refuses_a_column_that_load_would_misread_or_refuse(
    tmp_path, postings, lengths, fault
):
    # A u32 column would keep only the low 32 bits of a wider value. The
    # refusal comes before the path is opened: a symlink, which is
    # written in place, keeps its target's bytes.
    target, path = tmp_path / "target", tmp_path / "snap.ngir"
    target.write_bytes(b"previous snapshot")
    path.symlink_to(target)
    index = Index(postings, ["a"], lengths, 1.2, 0.75, (0, 0))
    with pytest.raises(NegirError) as refused:
        save_index(index, path)
    assert str(refused.value) == f"{path}: {fault}"
    assert target.read_bytes() == b"previous snapshot"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["snap.ngir", "target"]


@pytest.mark.parametrize("tfs, fault", [
    (array("I", [1]), "cannot write term 'x': it has 1 tfs for 2 doc numbers"),
    (array("I", [1, 1, 1]), "cannot write term 'x': it has 3 tfs for 2 doc numbers"),
], ids=["fewer tfs", "more tfs"])
def test_save_refuses_a_term_whose_tfs_are_not_as_many_as_its_doc_numbers(tmp_path, tfs, fault):
    # The tf column has one tf per doc number, which load_index reads by
    # the dfs: a save of fewer tfs used to make a file that it refused
    # ("needed 4 bytes, found 3"). The refusal comes before the path is
    # opened: a symlink keeps its target's bytes.
    target, path = tmp_path / "target", tmp_path / "snap.ngir"
    target.write_bytes(b"previous snapshot")
    path.symlink_to(target)
    index = Index({"x": (array("I", [0, 1]), tfs)}, ["a", "b"], array("I", [1, 1]), 1.2, 0.75,
                  (0, 0))
    with pytest.raises(NegirError) as refused:
        save_index(index, path)
    assert str(refused.value) == f"{path}: {fault}"
    assert target.read_bytes() == b"previous snapshot"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["snap.ngir", "target"]


def test_save_refuses_a_doc_id_listed_twice(tmp_path):
    # build_index refuses the repeat; a hand-made Index is refused by the
    # save, before the path is opened, not by the load that follows.
    path = tmp_path / "snap.ngir"
    index = Index({"x": (array("I", [1]), array("I", [1]))}, ["a", "a"], array("I", [0, 1]),
                  1.2, 0.75, (0, 0))
    with pytest.raises(NegirError) as refused:
        save_index(index, path)
    fault = "cannot write the document table: a doc_id is listed twice"
    assert str(refused.value) == f"{path}: {fault}"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("lengths, docs, part", [
    ("<BB", [(f"d{i}", ["x"]) for i in range(100)], "document table"),
    ("<HH", [("a", [f"t{j}" for j in range(20_000)]), ("b", ["x"])], "field 'tagged'"),
], ids=["document table", "postings"])
def test_save_refuses_a_part_too_long_for_its_lengths(tmp_path, monkeypatch, lengths, docs, part):
    # A part of 4 GiB or more, inflated, has a length that no u32 holds;
    # lengths of one and two bytes stand in for it here. The refusal
    # names the part, and the file written before keeps its bytes. Both
    # parts are deflated before the path is opened, so a path in a
    # missing directory is refused the same, not with FileNotFoundError.
    monkeypatch.setattr("negir.index._DEFLATED", struct.Struct(lengths))
    path = tmp_path / "snap.ngir"
    path.write_bytes(b"previous snapshot")
    index = build_index(docs)
    fault = r"cannot write the {}: its \d+ bytes are more than its length can state"
    for target in (path, tmp_path / "no such directory" / "snap.ngir"):
        with pytest.raises(NegirError) as refused:
            save_index(index, target)
        message = f"{re.escape(str(target))}: {fault.format(re.escape(part))}"
        assert re.fullmatch(message, str(refused.value))
    assert path.read_bytes() == b"previous snapshot"
    assert [p.name for p in tmp_path.iterdir()] == ["snap.ngir"]


def test_save_holds_no_object_per_value(tmp_path):
    # 2,000 documents of 10 distinct terms each: 20,000 postings. The
    # deflater's own state, about 256 KiB at zlib's default level, is most
    # of the peak, 5.7 times the inflated snapshot on CPython 3.11; a save
    # that held a list of each column's values while it deflates read 9.0.
    rng = random.Random(1)
    vocabulary = [f"w{i}" for i in range(600)] + [f"[nx]w{i}" for i in range(0, 600, 3)]
    index = build_index((f"d{i}", rng.sample(vocabulary, 10)) for i in range(2_000))
    assert sum(len(docs) for docs, _ in index.postings.values()) == 20_000
    path = tmp_path / "snap.ngir"
    save_index(index, path)
    size = len(inflated(path.read_bytes()))
    tracemalloc.start()
    try:
        save_index(index, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * size


# Terms from a small alphabet, with no "[nx]", with one or with two, so
# that a text may have both forms in either order, "" and "[nx]" among them.
HAND_MADE_TERMS = st.builds(
    operator.add, st.sampled_from(["", "[nx]", "[nx][nx]"]), st.text("ab", max_size=2)
)


@st.composite
def hand_made_indexes(draw):
    """An ``Index`` made without ``build_index``: ids and terms from a
    small alphabet, so some ids repeat, and each column of one typecode,
    Q included, with values up to 2**33, often at a width's edge. Each
    term's doc numbers ascend below the document count, and its tfs are
    at least 1."""
    ids = draw(st.lists(st.text("ab", max_size=2), max_size=5))
    typecodes = [draw(st.sampled_from("BHILQ")) for _ in range(3)]

    def column(typecode, size, low=0):
        high = min(2**33, 2 ** (8 * array(typecode).itemsize) - 1)
        edges = [v for v in (255, 256, 2**16 - 1, 2**16, 2**32 - 1, 2**32, 2**33) if v <= high]
        values = st.one_of(st.integers(low, high), st.sampled_from(edges))
        return array(typecode, draw(st.lists(values, min_size=size, max_size=size)))

    lengths = column(typecodes[0], len(ids))
    postings = {}
    terms = draw(st.lists(HAND_MADE_TERMS, unique=True, max_size=4)) if ids else []
    for term in terms:
        docs = sorted(draw(st.sets(st.integers(0, len(ids) - 1), min_size=1)))
        postings[term] = (array(typecodes[1], docs), column(typecodes[2], len(docs), low=1))
    return Index(postings, ids, lengths, 1.2, 0.75, (0, 0))


def one_posting_each(terms):
    """An ``Index`` of two documents in which each of ``terms`` has one
    posting, in the first."""
    postings = {term: (array("I", [0]), array("I", [1])) for term in terms}
    return Index(postings, ["a", "b"], array("I", [len(terms), 0]), 1.2, 0.75, (0, 0))


# "" and "[nx]" share the text "", and "[nx]a" comes before "a".
TWO_FORMS = one_posting_each(["[nx]a", "", "[nx]", "a", "[nx][nx]a", "[nx][nx]"])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(hand_made_indexes())
@example(TWO_FORMS)
@example(one_posting_each(["[nx]", "[nx][nx]", ""]))
def test_save_refuses_or_load_reads_back(tmp_path_factory, index):
    # Whatever save_index writes, load_index reads back as it was given,
    # in its term order, and saves again to the same bytes.
    path = tmp_path_factory.mktemp("snap") / "snap.ngir"
    try:
        save_index(index, path)
    except NegirError:
        assert list(path.parent.iterdir()) == []
        return
    loaded = load_index(path)
    assert loaded.doc_ids == index.doc_ids
    assert list(loaded.doc_lengths) == list(index.doc_lengths)
    as_lists = [(term, list(docs), list(tfs)) for term, (docs, tfs) in index.postings.items()]
    assert [(term, list(d), list(t)) for term, (d, t) in loaded.postings.items()] == as_lists
    resaved = path.with_name("resaved.ngir")
    save_index(loaded, resaved)
    assert resaved.read_bytes() == path.read_bytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(hand_made_indexes(), st.sets(st.one_of(HAND_MADE_TERMS, st.just("absent"))))
@example(TWO_FORMS, {"a"})
@example(TWO_FORMS, {"[nx]a"})
@example(TWO_FORMS, {""})
@example(TWO_FORMS, {"[nx]", "absent"})
@example(TWO_FORMS, {"[nx][nx]a"})
@example(TWO_FORMS, {"\ud800", "[nx]\udc80"})  # no stored term holds a lone surrogate
def test_picked_load_keeps_each_pick_and_its_nx_form(tmp_path_factory, index, picks):
    # A picked load keeps exactly the terms of the full load that are a
    # pick t or "[nx]" + t, in the full load's order: "[nx]a" keeps
    # "[nx]a" and "[nx][nx]a" but not "a".
    path = tmp_path_factory.mktemp("snap") / "snap.ngir"
    try:
        save_index(index, path)
    except NegirError:
        return
    full = load_index(path)
    kept = [
        (term, p) for term, p in full.postings.items()
        if any(term in (pick, "[nx]" + pick) for pick in picks)
    ]
    assert list(load_index(path, picks).postings.items()) == kept


def test_empty_term_survives_a_round_trip(tmp_path):
    path = tmp_path / "snap.ngir"
    for terms in ([""], ["", "a"], ["a", ""]):
        index = build_index([("d", terms)])
        save_index(index, path)
        assert load_index(path).field(PLAIN).postings == index.field(PLAIN).postings


def test_save_of_a_loaded_index_gives_its_bytes(tmp_path):
    # u8, u16 and u32 columns, each kept in an array of its width by the
    # load, are written back as they were read.
    # The last document holds 70,000 distinct terms, so its length needs a u32.
    docs = [(f"d{i}", ["x"] * (i % 3 + 1)) for i in range(300)]
    docs.append(("long", [f"t{j}" for j in range(70_000)]))
    path, resaved = tmp_path / "snap.ngir", tmp_path / "resaved.ngir"
    save_index(build_index(docs), path)
    loaded = load_index(path)
    assert [a.itemsize for a in (loaded.doc_lengths, *loaded.postings["x"])] == [4, 2, 1]
    save_index(loaded, resaved)
    assert resaved.read_bytes() == path.read_bytes()


def test_save_narrows_a_column_wider_than_its_values_need(tmp_path):
    crafted = (["a", "b"], [1, 2], [("x", 2), ("[nx]x", 1)], [[0, 1], [1]], [1, 1, 1])
    path, resaved = tmp_path / "wide.ngir", tmp_path / "resaved.ngir"
    path.write_bytes(deflated(_snapshot(*crafted, widths=(4, 2, 4, 4, 4), gap_widths=(4, 2))))
    save_index(load_index(path), resaved)
    assert inflated(resaved.read_bytes()) == _snapshot(*crafted)


def test_save_takes_blocks_of_any_unsigned_typecode(tmp_path):
    # Each column is as wide as its largest value, whatever arrays hold it.
    postings = {
        "x": (array("B", [0]), array("B", [1])),
        "y": (array("I", [0, 1]), array("Q", [2, 300])),
        "z": (array("H", [1]), array("L", [1])),
    }
    index = Index(postings, ["a", "b"], array("H", [3, 302]), 1.2, 0.75, (0, 0))
    path = tmp_path / "snap.ngir"
    save_index(index, path)
    assert inflated(path.read_bytes()) == _snapshot(
        ["a", "b"], [3, 302], [("x", 1), ("y", 2), ("z", 1)], [[0], [0, 1], [1]], [1, 2, 300, 1]
    )
    assert load_index(path).postings == postings


def test_a_tf_of_u32_max_makes_the_tf_column_u32(tmp_path):
    crafted = (["a", "b"], [1, 1], [("x", 2)], [[0, 1]], [U32_MAX, 1])
    path, resaved = tmp_path / "snap.ngir", tmp_path / "resaved.ngir"
    path.write_bytes(deflated(_snapshot(*crafted)))
    data = path.read_bytes()
    assert inflated(data)[-4 - 9] == 4  # the tf column's width, before two u32 tfs and the CRC
    loaded = load_index(path)
    assert loaded.postings["x"] == (array("I", [0, 1]), array("I", [U32_MAX, 1]))
    save_index(loaded, resaved)
    assert resaved.read_bytes() == data


@pytest.mark.parametrize("doc_count, width", [(256, 1), (257, 2), (65_536, 2), (65_537, 4)])
def test_the_doc_number_column_is_as_wide_as_the_last_doc_number(tmp_path, doc_count, width):
    # Doc numbers run from 0 to doc_count - 1, and "x" is in every
    # document: its last is doc_count - 1, and its gaps are u8 1s.
    path = tmp_path / "snap.ngir"
    index = build_index((f"d{i}", ["x"]) for i in range(doc_count))
    save_index(index, path)
    data = inflated(path.read_bytes())
    gaps = len(data) - 4 - 1 - doc_count - (doc_count - 1)  # before the u8 tfs and the CRC
    assert data[gaps:gaps + doc_count - 1] == b"\x01" * (doc_count - 1)
    lasts = gaps - 1 - width  # x's last, after the column's width byte
    assert data[lasts - 1:lasts + 1] == bytes((1, width))  # x's gap width, the column's width
    assert int.from_bytes(data[lasts + 1:gaps], "little") == doc_count - 1
    loaded = load_index(path)
    assert loaded.postings == index.postings
    assert loaded.postings["x"][0].itemsize == width


def test_a_big_endian_host_swaps_what_it_loads(tmp_path, monkeypatch):
    # A big-endian host reads each little-endian column and gap block into
    # an array of swapped values, then byteswaps it. On a little-endian
    # host told that it is big-endian, a snapshot whose columns and gaps
    # are big-endian takes the same path, with u8, u16 and u32 columns
    # and gaps, and must load to the postings of its little-endian twin.
    crafted = (
        ["a", "b", "c"], [1, 300, 600], [("x", 3), ("[nx]x", 2), ("y", 2)],
        [[0, 1, 2], [1, 2], [0, 2]], [1, 2, 70_000, 3, 300, 1, 5],
    )
    shapes = {"widths": (4, 2, 1, 2, 1), "gap_widths": (1, 2, 4)}

    def as_lists(index, terms):
        return [index.doc_lengths.typecode, list(index.doc_lengths)] + [
            (term, docs.typecode, list(docs), tfs.typecode, list(tfs))
            for term, (docs, tfs) in index.postings.items()
            if terms is None or term.removeprefix("[nx]") in terms
        ]

    little, big = tmp_path / "little.ngir", tmp_path / "big.ngir"
    little.write_bytes(deflated(_snapshot(*crafted, **shapes)))
    big.write_bytes(deflated(_snapshot(*crafted, **shapes, order=">")))
    expected = load_index(little)
    assert as_lists(expected, None) == [
        "I", [1, 300, 600], ("x", "H", [0, 1, 2], "I", [1, 2, 70_000]),
        ("[nx]x", "H", [1, 2], "I", [3, 300]), ("y", "H", [0, 2], "I", [1, 5]),
    ]
    # Saved as it is, the index narrows its columns to u16 lengths, u32
    # tfs and u8 for the rest.
    resaved, swapped = tmp_path / "resaved.ngir", tmp_path / "swapped.ngir"
    save_index(expected, resaved)
    assert inflated(resaved.read_bytes()) == _snapshot(*crafted)
    reloaded = {terms: as_lists(load_index(resaved, terms), terms) for terms in (None, ("x",))}
    monkeypatch.setattr(index_module, "_SWAP", True)
    for terms in (None, ("x",)):
        assert as_lists(load_index(big, terms), None) == as_lists(expected, terms)
    # A big-endian host narrows each value, then swaps it: the same
    # index, saved, is the big-endian snapshot at the same widths, and
    # it loads back as the little-endian save does, typecodes included.
    save_index(expected, swapped)
    assert inflated(swapped.read_bytes()) == _snapshot(*crafted, order=">")
    for terms in (None, ("x",)):
        assert as_lists(load_index(swapped, terms), None) == reloaded[terms]


def column_starts(data):
    """Where each of the five columns of the inflated snapshot ``data`` starts:
    the lengths, the dfs, the back-references, the lasts and the tfs;
    and the kinds."""
    doc_count, id_bytes = struct.unpack_from("<II", data, HEADER_BYTES)
    lengths = HEADER_BYTES + 8 + id_bytes
    postings = postings_start(data)
    term_count, _, text_bytes, _ = struct.unpack_from("<IIII", data, postings)
    dfs = postings + 16 + text_bytes
    df_values, kinds = _read_column(data, dfs, term_count)
    refs = kinds + term_count
    lasts = _read_column(data, refs, sum(kind >= SECOND for kind in data[kinds:refs]))[1]
    gaps = _read_column(data, lasts, term_count)[1]
    tfs = gaps + sum(kind % NX * (df - 1) for kind, df in zip(data[kinds:refs], df_values))
    return (lengths, dfs, refs, lasts, tfs), kinds


@pytest.mark.parametrize("width", [0, 3, 8])
def test_a_column_width_other_than_1_2_or_4_is_a_parse_error(tmp_path, width):
    # Under a recomputed CRC, so the width itself is what the load refuses.
    path, _ = small_snapshot(tmp_path)
    data = inflated(path.read_bytes())
    postings = postings_start(data)
    columns, kinds = column_starts(data)
    for column in columns:
        start, end = (HEADER_BYTES, postings - 4) if column < postings else (postings, len(data) - 4)
        patched = data[:column] + bytes((width,)) + data[column + 1:]
        path.write_bytes(deflated(resealed(patched, start, end), postings))
        for terms in (None, ("fever",)):
            with pytest.raises(
                ParseError,
                match=f"^{path}: corrupt snapshot: a column of width {width}, not 1, 2 or 4$",
            ):
                load_index(path, terms)
    # The gap width of each term, the picked one or another, with its form
    # bits or without them: cough is stored as "[nx]" form alone.
    for term, form in product(range(3), (0, NX, SECOND, NX | SECOND)):
        patched = data[:kinds + term] + bytes((width | form,)) + data[kinds + term + 1:]
        path.write_bytes(deflated(resealed(patched, postings, len(data) - 4)))
        for terms in (None, ("fever",), ("rash",)):
            with pytest.raises(
                ParseError,
                match=f"^{path}: corrupt snapshot: a gap width of {width}, not 1, 2 or 4$",
            ):
                load_index(path, terms)
