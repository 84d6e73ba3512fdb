"""Index construction, BM25 scoring, search, and snapshot round-trip."""

import math
import random
import struct

import pytest

import oracle

from negir.corpus import RawDocument, Token, TokenStream
from negir.errors import DuplicateIdError, NegirError, ParseError
from negir.index import (
    PLAIN,
    TAGGED,
    WeightedQuery,
    build_index,
    idf,
    load_index,
    save_index,
    score_query,
)
from negir.negation import TaggedToken, TaggedTokenStream
from negir.querygen import QueryBundle
from negir.ranking import Strategy, run_strategy


def make_doc(doc_id, plain_tokens, tagged_tokens=None):
    """Build the (RawDocument, TokenStream, TaggedTokenStream) triple."""
    tagged_tokens = plain_tokens if tagged_tokens is None else tagged_tokens
    stream = TokenStream(tuple(Token(t, 0, i) for i, t in enumerate(plain_tokens)))
    tagged = TaggedTokenStream(
        tuple(
            TaggedToken(t, 0, i, t.startswith("[nx]"))
            for i, t in enumerate(tagged_tokens)
        )
    )
    return RawDocument(doc_id, body=" ".join(plain_tokens)), stream, tagged


def build(docs, **kwargs):
    return build_index([make_doc(d, toks) for d, toks in docs], **kwargs)


def search(index, query, k):
    """Rank one plain-field query: the baseline strategy over a bare bundle."""
    empty = WeightedQuery([])
    bundle = QueryBundle("t", query, query, empty, WeightedQuery([], TAGGED), len(query), 0)
    return run_strategy(Strategy("baseline"), bundle, index, k)


# ---------------------------------------------------------------------------
# build_index
# ---------------------------------------------------------------------------


def test_empty_index():
    index = build([])
    assert index.doc_count == 0
    assert index.avg_doc_length == 0.0
    assert index.norms == {}
    assert index.field(PLAIN).postings == {}


def test_single_doc_statistics():
    index = build([("d", ["fever", "fever"])])
    assert index.field(PLAIN).postings["fever"] == {"d": 2}
    assert index.doc_lengths == {"d": 2}
    assert index.avg_doc_length == 2.0


def test_build_deterministic():
    docs = [("a", ["x", "y"]), ("b", ["y", "z", "z"])]
    first, second = build(docs), build(docs)
    assert first.field(PLAIN).postings == second.field(PLAIN).postings
    assert first.field(TAGGED).postings == second.field(TAGGED).postings
    assert list(first.doc_lengths.items()) == list(second.doc_lengths.items())


def test_duplicate_doc_id_rejected():
    with pytest.raises(DuplicateIdError, match="dup"):
        build([("dup", ["a"]), ("dup", ["b"])])


def test_tagged_field_is_separate_vocabulary():
    index = build_index([make_doc("d", ["smoking"], ["[nx]smoking"])])
    query = WeightedQuery([("smoking", 1.0)], field=PLAIN)
    assert score_query(index, query)["d"] > 0
    tagged_query = WeightedQuery([("smoking", 1.0)], field=TAGGED)
    assert score_query(index, tagged_query) == {}
    nx_query = WeightedQuery([("[nx]smoking", 1.0)], field=TAGGED)
    assert score_query(index, nx_query)["d"] > 0


# ---------------------------------------------------------------------------
# score_query
# ---------------------------------------------------------------------------


def test_hand_computed_single_doc_score():
    index = build([("d", ["fever"])], k1=1.2, b=0.75)
    score = score_query(index, WeightedQuery([("fever", 1.0)]))["d"]
    assert score == oracle.bm25({"d": ["fever"]}, [("fever", 1.0)], "d")
    # idf = ln(1 + (1 - 1 + 0.5) / (1 + 0.5)) = ln(4/3); tf part is exactly 1.
    assert score == pytest.approx(0.287682, abs=1e-6)
    assert score == pytest.approx(math.log(4 / 3), rel=1e-12)


def test_query_without_matches_scores_zero():
    index = build([("d", ["fever"])])
    assert score_query(index, WeightedQuery([("cough", 1.0)])) == {}
    assert score_query(index, WeightedQuery([])) == {}
    assert oracle.bm25({"d": ["fever"]}, [("cough", 1.0)], "d") == 0.0


def test_score_linear_in_weights():
    index = build([("d1", ["a", "b", "a"]), ("d2", ["b", "c"])])
    single = WeightedQuery([("a", 1.0), ("b", 1.0)])
    double = WeightedQuery([("a", 2.0), ("b", 2.0)])
    single_scores = score_query(index, single)
    double_scores = score_query(index, double)
    assert single_scores.keys() == double_scores.keys() == {"d1", "d2"}
    for doc in ("d1", "d2"):
        assert double_scores[doc] == pytest.approx(2 * single_scores[doc], rel=1e-12)


def test_duplicate_terms_accumulate():
    index = build([("d", ["a", "b"])])
    repeated = WeightedQuery([("a", 1.0), ("a", 1.0)])
    doubled = WeightedQuery([("a", 2.0)])
    assert score_query(index, repeated) == score_query(index, doubled)


def test_unknown_doc_rejected():
    # Only indexed documents get a score; there is none to look up for others.
    index = build([("d", ["a"])])
    scores = score_query(index, WeightedQuery([("a", 1.0)]))
    assert set(scores) == {"d"}
    with pytest.raises(KeyError, match="ghost"):
        scores["ghost"]


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
    with pytest.raises(ValueError):
        WeightedQuery([("a", 0.0)])
    with pytest.raises(ValueError):
        WeightedQuery([("a", -1.0)])
    with pytest.raises(ValueError):
        WeightedQuery([("a", 1.0)], field="bogus")


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def test_search_orders_by_score_then_doc_id():
    index = build([("b", ["x"]), ("a", ["x"]), ("c", ["x", "x", "y"])])
    results = search(index, WeightedQuery([("x", 1.0)]), k=10)
    assert [r.doc_id for r in results][:2] == ["a", "b"]  # equal scores, id tiebreak
    assert results[0].score == results[1].score


def test_search_k_truncates_and_short_results():
    index = build([(f"d{i}", ["x"]) for i in range(5)])
    query = WeightedQuery([("x", 1.0)])
    assert len(search(index, query, k=3)) == 3
    assert len(search(index, query, k=50)) == 5  # no padding


def test_search_excludes_non_matching():
    index = build([("d1", ["x"]), ("d2", ["y"])])
    results = search(index, WeightedQuery([("x", 1.0)]), k=10)
    assert [r.doc_id for r in results] == ["d1"]


def test_search_requires_positive_k():
    index = build([("d", ["x"])])
    with pytest.raises(ValueError):
        search(index, WeightedQuery([("x", 1.0)]), k=0)


def test_search_matches_exhaustive_oracle():
    rng = random.Random(7)
    vocab = [f"w{i}" for i in range(30)]
    for _ in range(20):
        doc_tokens = {
            f"d{i:03d}": [rng.choice(vocab) for _ in range(rng.randint(1, 40))]
            for i in range(rng.randint(2, 60))
        }
        index = build(list(doc_tokens.items()))
        terms = [(t, 1.0) for t in rng.sample(vocab, rng.randint(1, 6))]
        got = search(index, WeightedQuery(terms), k=len(doc_tokens))
        assert [(r.doc_id, r.score) for r in got] == oracle.search(doc_tokens, terms)


# ---------------------------------------------------------------------------
# snapshot
# ---------------------------------------------------------------------------


def test_snapshot_round_trip(tmp_path):
    docs = [
        make_doc("doc-a", ["fever", "cough", "fever"], ["fever", "[nx]cough", "fever"]),
        make_doc("doc-b", ["rash"], ["rash"]),
        make_doc("doc-c", [], []),
    ]
    index = build_index(docs, k1=0.9, b=0.4)
    path = tmp_path / "snap.ngir"
    save_index(index, path)
    loaded = load_index(path)
    assert loaded.k1 == 0.9 and loaded.b == 0.4
    for field in (PLAIN, TAGGED):
        assert loaded.field(field).postings == index.field(field).postings
    assert list(loaded.doc_lengths.items()) == list(index.doc_lengths.items())
    assert loaded.avg_doc_length == index.avg_doc_length
    assert loaded.norms == index.norms
    query = WeightedQuery([("fever", 1.0), ("rash", 2.0)])
    assert score_query(loaded, query) == score_query(index, query)


def test_snapshot_rejects_garbage(tmp_path):
    path = tmp_path / "bogus.ngir"
    path.write_bytes(b"NOPE!" + b"\x00" * 20)
    with pytest.raises(ParseError, match="magic"):
        load_index(path)


def test_snapshot_magic_bytes(tmp_path):
    index = build([("d", ["x"])])
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
        make_doc(doc_id, tokens, [("[nx]" + t if i % 3 else t) for i, t in enumerate(tokens)])
        for doc_id, tokens in docs
    )
    lengths = index.doc_lengths
    assert list(lengths) == [doc_id for doc_id, _ in docs]
    assert index.avg_doc_length == pytest.approx(sum(lengths.values()) / len(lengths))
    for doc_id, length in lengths.items():
        expected = 1.2 * (1 - 0.75 + 0.75 * length / index.avg_doc_length)
        assert index.norms[doc_id] == pytest.approx(expected, rel=1e-12)
    # Tagging only adds prefixes, so both fields' postings add up, per
    # document, to the one shared length.
    for field in (PLAIN, TAGGED):
        tf_sums = dict.fromkeys(lengths, 0)
        for term, postings in index.field(field).postings.items():
            for doc_id, tf in postings.items():
                assert doc_id in lengths
                assert tf >= 1
                tf_sums[doc_id] += tf
        assert tf_sums == lengths


def test_snapshot_truncation_is_a_parse_error(tmp_path):
    docs = [
        make_doc("doc-a", ["fever", "cough"], ["fever", "[nx]cough"]),
        make_doc("doc-b", ["rash"], ["rash"]),
    ]
    path = tmp_path / "snap.ngir"
    save_index(build_index(docs), path)
    data = path.read_bytes()
    # Every proper prefix, and the whole snapshot with bytes appended.
    corrupted = [data[:size] for size in range(len(data))] + [data + b"garbage"]
    for i, content in enumerate(corrupted):
        cut = tmp_path / f"cut{i}.ngir"
        cut.write_bytes(content)
        with pytest.raises(ParseError, match=cut.name):
            load_index(cut)


def test_snapshot_of_older_version_asks_for_rebuild(tmp_path):
    path = tmp_path / "snap.ngir"
    save_index(build([("d", ["x"])]), path)
    data = bytearray(path.read_bytes())
    assert data[5] == 2  # the version byte follows the 5 magic bytes
    data[5] = 1
    path.write_bytes(bytes(data))
    with pytest.raises(ParseError, match="unsupported snapshot version 1; rebuild the index"):
        load_index(path)


def test_snapshot_out_of_range_doc_delta_is_a_parse_error(tmp_path):
    path = tmp_path / "snap.ngir"
    save_index(build([("d", ["x"])]), path)
    data = bytearray(path.read_bytes())
    # The file ends with the last term's last (doc delta, tf) pair.
    data[-8:-4] = struct.pack("<I", 7)
    path.write_bytes(bytes(data))
    with pytest.raises(ParseError, match="corrupt or truncated"):
        load_index(path)


@pytest.mark.parametrize("long_doc_id", [True, False])
def test_save_refuses_oversized_strings_before_writing(tmp_path, long_doc_id):
    huge = "x" * 70_000
    docs = [(huge, ["a"])] if long_doc_id else [("d", [huge])]
    path = tmp_path / "snap.ngir"
    with pytest.raises(NegirError, match="65535"):
        save_index(build(docs), path)
    assert not path.exists()
