"""Tokenization, sentence splitting, and collection/topic ingestion."""

import json
import os
import re
import stat
import threading

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from negir.corpus import (
    TOKEN_RE,
    Topic,
    atomic_write,
    data_file_version,
    load_collection,
    load_stopwords,
    load_topics,
    read_lines,
    read_text,
    split_sentences,
)
from negir.errors import DuplicateIdError, ParseError
from negir.negation import analyze_text, default_lexicon

words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=8)
texts = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz ABCDEFG0123.?!;,-/'\n\t", max_size=200
)


# ---------------------------------------------------------------------------
# tokenize: the stopword-filtered terms of analyze_text
# ---------------------------------------------------------------------------

LEXICON = default_lexicon()


def tokenize(text, stopwords):
    return analyze_text(text, stopwords, LEXICON).terms


def test_tokenize_empty(stopwords):
    assert tokenize("", stopwords) == []


def test_tokenize_lowercases_and_drops_stopwords(stopwords):
    assert tokenize("She denies SMOKING.", stopwords) == [
        "denies",
        "smoking",
    ]


def test_tokenize_deterministic(stopwords):
    text = "Patient REPORTS severe chest pain; but no fever was observed."
    first = analyze_text(text, stopwords, LEXICON)
    second = analyze_text(text, stopwords, LEXICON)
    # == on the named tuple compares its fields; the tagged view is not one.
    assert first == second
    assert first.tagged == second.tagged


def test_tokenize_splits_hyphens_and_slashes(stopwords):
    assert tokenize("family-history w/o complications", stopwords) == [
        "family",
        "history",
        "w",
        "o",
        "complications",
    ]


@given(texts)
def test_positions_strictly_increasing(text):
    # Each kept token's position is its index among the text's raw tokens
    # (so positions strictly increase), and the terms are the raw tokens
    # without the stopwords.
    stopwords = frozenset({"the", "a", "of", "she", "no"})
    analysis = analyze_text(text, stopwords, LEXICON)
    raw = TOKEN_RE.findall(text.lower())
    assert analysis.positions == [
        i for i, surface in enumerate(raw) if surface not in stopwords
    ]
    assert analysis.terms == [surface for surface in raw if surface not in stopwords]


@given(texts)
def test_tokenize_idempotent_on_surfaces(text):
    stopwords = frozenset({"the", "a", "of", "she"})
    once = tokenize(text, stopwords)
    again = tokenize(" ".join(once), stopwords)
    assert once == again


@given(texts)
def test_no_stopword_survives(text):
    stopwords = frozenset({"a", "b", "ab", "the"})
    assert not set(tokenize(text, stopwords)) & stopwords


# ---------------------------------------------------------------------------
# split_sentences
# ---------------------------------------------------------------------------


def test_split_two_sentences():
    sentences = split_sentences("No fever. No cough.")
    assert len(sentences) == 2
    assert [s.text for s in sentences] == ["No fever.", "No cough."]
    assert [s.start for s in sentences] == [0, 2]


def test_split_empty():
    assert split_sentences("") == []
    assert split_sentences("   \n\t ") == []


def test_split_no_terminator_is_one_sentence():
    sentences = split_sentences("chest pain without radiation")
    assert len(sentences) == 1


@pytest.mark.parametrize("delimiter", [".", "?", "!", ";"])
def test_split_boundary_characters(delimiter):
    sentences = split_sentences(f"no fever{delimiter} no cough")
    assert len(sentences) == 2


def test_split_partition_covers_text():
    text = "First bit. Second bit? Third bit!  Fourth; fifth"
    sentences = split_sentences(text)
    rebuilt = "".join(s.text for s in sentences)
    # Dropping the inter-sentence whitespace must recover everything else.
    assert rebuilt.replace(" ", "") == text.replace(" ", "")


def test_sentence_tokens_are_contiguous_slices():
    sentences = split_sentences("No fever today. She denies cough.")
    assert [s.tokens for s in sentences] == [("no", "fever", "today"), ("she", "denies", "cough")]
    assert sentences[0].start == 0
    for previous, sentence in zip(sentences, sentences[1:]):
        assert sentence.start == previous.start + len(previous.tokens)


# ---------------------------------------------------------------------------
# collections
# ---------------------------------------------------------------------------


def _write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")


def test_load_jsonl_collection(tmp_path):
    path = tmp_path / "docs.jsonl"
    _write_jsonl(
        path,
        [
            {"doc_id": "d1", "title": "One", "body": "first body"},
            {"doc_id": "d2", "title": "", "body": "second body"},
        ],
    )
    docs = list(load_collection(path, "jsonl"))
    assert docs == [("d1", "One first body"), ("d2", "second body")]


def test_load_jsonl_duplicate_id(tmp_path):
    path = tmp_path / "docs.jsonl"
    _write_jsonl(path, [{"doc_id": "d1", "body": "x"}, {"doc_id": "d1", "body": "y"}])
    with pytest.raises(DuplicateIdError, match=r"docs\.jsonl:2: duplicate doc_id: 'd1'"):
        list(load_collection(path, "jsonl"))


@pytest.mark.parametrize("line, key", [
    ('{"doc_id": "a", "doc_id": "b", "body": "chest pain"}', "doc_id"),
    ('{"doc_id": "a", "title": {"k": 1, "k": 2}}', "k"),
    ('{"doc_id": "a", "body": "x", "extra": [[{"": 1, "": 1}]]}', ""),
])
def test_load_jsonl_refuses_a_key_set_twice(tmp_path, line, key):
    # JSON leaves open which value of a repeated key counts, so no object
    # may set one twice, at any depth: the last used to win.
    path = tmp_path / "c.jsonl"
    path.write_text('{"doc_id": "d0", "body": "fever"}\n' + line + "\n", encoding="utf-8")
    with pytest.raises(DuplicateIdError) as refused:
        list(load_collection(path, "jsonl"))
    assert str(refused.value) == f"{path}:2: duplicate key: {key!r}"


def test_load_jsonl_missing_doc_id_names_line(tmp_path):
    path = tmp_path / "docs.jsonl"
    _write_jsonl(path, [{"doc_id": "d1", "body": "x"}, {"body": "y"}])
    with pytest.raises(ParseError, match="2"):
        list(load_collection(path, "jsonl"))


def test_load_jsonl_invalid_json_names_line(tmp_path):
    path = tmp_path / "docs.jsonl"
    path.write_text('{"doc_id": "d1"}\n{broken\n', encoding="utf-8")
    with pytest.raises(ParseError, match="2"):
        list(load_collection(path, "jsonl"))


def test_load_trec_text(tmp_path):
    path = tmp_path / "docs.trec"
    path.write_text(
        "<DOC>\n<DOCNO>doc-1</DOCNO>\n<TITLE>Case one</TITLE>\n"
        "<TEXT>\nShe denies smoking.\n</TEXT>\n</DOC>\n"
        "<DOC>\n<DOCNO>doc-2</DOCNO>\n<TEXT>No fever.</TEXT>\n</DOC>\n",
        encoding="utf-8",
    )
    assert list(load_collection(path, "trec-text")) == [
        ("doc-1", "Case one She denies smoking."),
        ("doc-2", "No fever."),
    ]


def test_load_trec_text_missing_docno(tmp_path):
    path = tmp_path / "docs.trec"
    path.write_text("<DOC>\n<TEXT>orphan</TEXT>\n</DOC>\n", encoding="utf-8")
    with pytest.raises(ParseError, match="DOCNO"):
        list(load_collection(path, "trec-text"))


@pytest.mark.parametrize("block, message", [
    ("<TITLE>Case one\n<TEXT>No fever.</TEXT>\n</DOC>", "4: <TEXT> inside <TITLE>"),
    ("<TEXT>Cough and fever.\n</DOC>", "4: <TEXT> not closed before </DOC>"),
    ("<TEXT>Cough.\n<DOC>\n<DOCNO>d2</DOCNO>\n</DOC>", "4: <DOC> inside a document block"),
    ("<TEXT>Cough.</TEXT> <doc>\n</DOC>", "3: <DOC> inside a document block"),
])
def test_trec_text_refuses_a_field_or_block_left_open(tmp_path, block, message):
    # Each would lose text: the open field's, or the whole first block's.
    path = tmp_path / "docs.trec"
    path.write_text(f"<DOC>\n<DOCNO>d1</DOCNO>\n{block}\n", encoding="utf-8")
    with pytest.raises(ParseError, match=re.escape(f"docs.trec:{message}")):
        list(load_collection(path, "trec-text"))


# Pieces of a well-formed trec-text file: words (no '<' or '>'), markup
# that the reader keeps inside a field and drops outside one, and what
# goes between two pieces: nothing, spaces, a line end or a blank line.
trec_words = st.text(alphabet="abcXYZ019.,-;", min_size=1, max_size=6)
trec_markup = st.sampled_from(["<P>", "</P>", "<p>", "<br/>", "<DOCS>", "<TEXT >"])
trec_pieces = st.lists(st.one_of(trec_words, trec_markup), max_size=5)
trec_gaps = st.sampled_from(["", " ", "  ", "\n", " \n ", "\n\n"])


def _tag_case(tag):
    return st.sampled_from([tag, tag.lower(), tag.title()])


@st.composite
def trec_collections(draw):
    lines = []
    for number in range(draw(st.integers(1, 4))):
        fields = [("DOCNO", [f"d{number}"])]
        for tag in ("TITLE", "TEXT"):
            if draw(st.booleans()):
                fields.append((tag, draw(trec_pieces)))
        flat = draw(trec_pieces)
        for tag, content in draw(st.permutations(fields)):
            flat += [f"<{draw(_tag_case(tag))}>", *content, f"</{draw(_tag_case(tag))}>"]
            flat += draw(trec_pieces)
        block = flat[0] + "".join(draw(trec_gaps) + piece for piece in flat[1:])
        blank = [""] if draw(st.booleans()) else []
        lines += [f"<{draw(_tag_case('DOC'))}>", block, *blank, f"</{draw(_tag_case('DOC'))}>"]
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(trec_collections())
def test_trec_text_reads_as_the_reference(tmp_path_factory, text):
    # Fields on one line or several, sharing lines with their tags and with
    # other fields, in any order and tag case, with markup and stray text.
    path = tmp_path_factory.mktemp("trec") / "docs.trec"
    path.write_text(text, encoding="utf-8")
    assert list(load_collection(path, "trec-text")) == oracle.ref_trec_text(text)


def test_load_plain_dir(tmp_path):
    (tmp_path / "b.txt").write_text("second doc", encoding="utf-8")
    (tmp_path / "a.txt").write_text("first doc", encoding="utf-8")
    docs = list(load_collection(tmp_path, "plain-dir"))
    assert docs == [("a", "first doc"), ("b", "second doc")]


def test_plain_dir_collection_must_be_a_directory(tmp_path):
    path = tmp_path / "docs.txt"
    path.write_text("a file, not a directory", encoding="utf-8")
    with pytest.raises(ParseError, match=r"docs\.txt: not a directory$"):
        list(load_collection(path, "plain-dir"))


def test_data_file_version_without_a_comment_is_unversioned(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("the\n# v2\n", encoding="utf-8")
    assert data_file_version(path) == "unversioned"
    path.write_text("#  negir-stopwords v2 \nthe\n", encoding="utf-8")
    assert data_file_version(path) == "negir-stopwords v2"


def test_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="format"):
        list(load_collection(tmp_path, "parquet"))


def test_collection_order_stable(tmp_path):
    path = tmp_path / "docs.jsonl"
    records = [{"doc_id": f"d{i}", "body": f"text {i}"} for i in range(20)]
    _write_jsonl(path, records)
    ids = [doc_id for doc_id, _ in load_collection(path, "jsonl")]
    assert ids == [f"d{i}" for i in range(20)]


# ---------------------------------------------------------------------------
# topics
# ---------------------------------------------------------------------------


def test_load_topics_jsonl(tmp_path):
    path = tmp_path / "topics.jsonl"
    _write_jsonl(
        path,
        [
            {"topic_id": "1", "description": "chest pain"},
            {"topic_id": "2", "description": "no fever"},
        ],
    )
    topics = load_topics(path)
    assert [(t.topic_id, t.description) for t in topics] == [
        ("1", "chest pain"),
        ("2", "no fever"),
    ]


def test_load_topics_xml(tmp_path):
    path = tmp_path / "topics.xml"
    path.write_text(
        '<topics task="2014">\n'
        '  <topic number="1" type="diagnosis">\n'
        "    <description>A 58-year-old woman with chest pain.</description>\n"
        "    <summary>ignored</summary>\n"
        "  </topic>\n"
        '  <topic number="2" type="test"><description>No cough.</description></topic>\n'
        "</topics>\n",
        encoding="utf-8",
    )
    topics = load_topics(path)
    assert [t.topic_id for t in topics] == ["1", "2"]
    assert topics[0].description == "A 58-year-old woman with chest pain."


def test_load_topics_duplicate_id(tmp_path):
    path = tmp_path / "topics.jsonl"
    _write_jsonl(path, [{"topic_id": "1", "description": "x"}, {"topic_id": "1", "description": "y"}])
    with pytest.raises(DuplicateIdError, match=r"topics\.jsonl:2: duplicate topic_id: '1'"):
        load_topics(path)


def test_load_topics_rejects_empty_description(tmp_path):
    # JSONL topics name the line; XML topics only the file.
    path = tmp_path / "topics.txt"
    for content, where in (
        ('{"topic_id": "1", "description": "x"}\n{"topic_id": "2", "description": " "}\n', ":2:"),
        ('{"topic_id": "1"}\n', ":1:"),
        ('<topics><topic number="1"><description> </description></topic></topics>', ":"),
    ):
        path.write_text(content, encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape(f"topics.txt{where} topic '") + ".*empty"):
            load_topics(path)


def test_raw_line_separators_inside_json_strings_stay_on_their_line(tmp_path):
    # Only a line feed, a carriage return or both end a line. str.splitlines()
    # also splits at U+0085, U+2028 and U+2029, which JSON strings may hold raw.
    text = "No fever\u2028or\u0085cough\u2029reported."
    topics, docs = tmp_path / "topics.jsonl", tmp_path / "docs.jsonl"
    topics.write_bytes(json.dumps({"topic_id": "1", "description": text}, ensure_ascii=False)
                       .encode() + b"\r\n")
    docs.write_bytes(json.dumps({"doc_id": "d", "body": text}, ensure_ascii=False).encode() + b"\r")
    assert load_topics(topics) == [Topic("1", text)]
    assert list(load_collection(docs, "jsonl")) == [("d", text)]


@pytest.mark.parametrize(
    "data, line",
    [
        (b"\xff", 1),
        (b"ok\n\xc3", 2),
        (b"a\r\nb\rc\n\nd\xe2\x82", 5),
        (b"x" * 20000 + b"\n\x80", 2),  # past the decoder's first chunk
        (b"ok\n" * 5000 + b"\xff", 5001),
    ],
)
def test_invalid_utf8_names_file_and_line(tmp_path, data, line):
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    with pytest.raises(ParseError, match=rf"input\.txt:{line}: not valid UTF-8"):
        list(read_lines(path))
    with pytest.raises(ParseError, match=rf"input\.txt:{line}: not valid UTF-8"):
        read_text(path)


def test_read_text_ends_lines_like_text_mode(tmp_path):
    path = tmp_path / "input.txt"
    path.write_bytes("a\r\nb\rc\n\r\r\n\u2028d\r".encode())
    with open(path, encoding="utf-8") as handle:
        assert read_text(path) == handle.read() == "a\nb\nc\n\n\n\u2028d\n"


@pytest.mark.parametrize("bad_id", ["a b", "a\tb", "", " ", "a\u00a0b"])
def test_whitespace_or_empty_ids_rejected_with_file_and_line(tmp_path, bad_id):
    # Run files are whitespace-separated, so such an id could not be read back.
    docs = tmp_path / "docs.jsonl"
    _write_jsonl(docs, [{"doc_id": "ok", "body": "x"}, {"doc_id": bad_id, "body": "y"}])
    with pytest.raises(ParseError, match=r"docs\.jsonl:2:.*whitespace"):
        list(load_collection(docs, "jsonl"))

    trec = tmp_path / "docs.trec"
    trec.write_text(
        "<DOC>\n<DOCNO>ok</DOCNO>\n<TEXT>x</TEXT>\n</DOC>\n"
        f"<DOC>\n<DOCNO>{bad_id}</DOCNO>\n<TEXT>y</TEXT>\n</DOC>\n",
        encoding="utf-8",
    )
    with pytest.raises(ParseError, match=r"docs\.trec:6:.*whitespace"):
        list(load_collection(trec, "trec-text"))

    topics = tmp_path / "topics.jsonl"
    _write_jsonl(topics, [{"topic_id": "1", "description": "x"}, {"topic_id": bad_id, "description": "y"}])
    with pytest.raises(ParseError, match=r"topics\.jsonl:2:.*whitespace"):
        load_topics(topics)


def test_whitespace_ids_rejected_in_plain_dir_and_xml_topics(tmp_path):
    collection = tmp_path / "docs"
    collection.mkdir()
    (collection / "ok.txt").write_text("x", encoding="utf-8")
    (collection / "two words.txt").write_text("y", encoding="utf-8")
    with pytest.raises(ParseError, match=r"two words\.txt.*whitespace"):
        list(load_collection(collection, "plain-dir"))

    topics = tmp_path / "topics.xml"
    topics.write_text(
        '<topics><topic number="1 a"><description>x</description></topic></topics>\n',
        encoding="utf-8",
    )
    with pytest.raises(ParseError, match=r"topics\.xml.*whitespace"):
        load_topics(topics)


# ---------------------------------------------------------------------------
# stopword files
# ---------------------------------------------------------------------------


def test_load_stopwords_with_comments(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("# a comment\nthe\n\nShe\n  of  \n", encoding="utf-8")
    assert load_stopwords(path) == frozenset({"the", "she", "of"})


def test_default_stopwords_has_sane_contents(stopwords):
    assert {"she", "the", "of", "or", "a", "no", "not", "without"} <= stopwords
    assert "denies" not in stopwords
    assert len(stopwords) > 200
    assert all(w == w.lower() for w in stopwords)


# ---------------------------------------------------------------------------
# atomic_write
# ---------------------------------------------------------------------------


def test_atomic_write_writes_through_a_symlink(tmp_path):
    target = tmp_path / "real.run"
    target.write_text("old\n", encoding="utf-8")
    link = tmp_path / "link.run"
    link.symlink_to(target)
    with atomic_write(link, "w", encoding="utf-8") as out:
        out.write("new\n")
    assert link.is_symlink()
    assert target.read_text(encoding="utf-8") == "new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.run", "real.run"]


def test_atomic_write_writes_a_pipe_in_place(tmp_path):
    # Like --out /dev/stdout: renaming a temp file over it would replace
    # the link to the output instead of writing to it.
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    with atomic_write(fifo, "wb") as out:
        out.write(b"1 Q0 d 1 1.0 negir\n")
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == [b"1 Q0 d 1 1.0 negir\n"]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["fifo"]
