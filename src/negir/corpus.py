"""Collection and topic ingestion, sentence splitting, and tokenization.

Text is normalized in two stages. Sentence splitting and raw tokenization
keep every word (negation cues such as "no" or "denies" must survive long
enough for scope detection); stopword removal happens afterwards, in
``negation.analyze_text``, and yields the terms that are actually indexed.
A sentence holds its raw token surfaces and the document-wide position of
the first one, so token ``i`` of a sentence sits at ``start + i``. Those
positions survive stopword removal, so detected scope spans stay valid
against the filtered terms. Every text input is read through
``read_lines`` or ``read_text``, and standard input through ``decode_text``.
"""

from __future__ import annotations

import json
import os
import re
import sys
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import IO, Iterator, NamedTuple

from .errors import DuplicateIdError, ParseError

# Maximal runs of letters/digits; hyphens and slashes split tokens.
TOKEN_RE = re.compile(r"[a-z0-9]+")

# Sentence boundary: terminator punctuation followed by whitespace.
_BOUNDARY_RE = re.compile(r"(?<=[.?!;])\s+")

COLLECTION_FORMATS = ("jsonl", "trec-text", "plain-dir")


class Topic(NamedTuple):
    topic_id: str
    description: str


class Sentence(NamedTuple):
    """A sentence with its raw (pre-stopword) token surfaces; ``tokens[i]``
    is at document-wide position ``start + i``.

    A named tuple: one is built per sentence of every indexed document,
    and it builds in about a third of a frozen dataclass's time.
    """

    text: str
    tokens: tuple[str, ...]
    start: int


def split_sentences(text: str) -> list[Sentence]:
    """Split text into sentences and tokenize each without stopword removal.

    Boundaries fall after '.', '?', '!' or ';' followed by whitespace.
    Pieces that are pure whitespace are dropped; everything else becomes a
    sentence, so the sentences partition the non-whitespace input.
    """
    sentences: list[Sentence] = []
    position = 0
    for piece in _BOUNDARY_RE.split(text):
        if not piece.strip():
            continue
        tokens = tuple(TOKEN_RE.findall(piece.lower()))
        sentences.append(Sentence(piece, tokens, position))
        position += len(tokens)
    return sentences


# ---------------------------------------------------------------------------
# Reading text inputs
# ---------------------------------------------------------------------------


def read_lines(path: str | Path, comments: bool = False) -> Iterator[tuple[int, str]]:
    """Stream ``(line number, stripped line)`` for each non-blank line of
    a UTF-8 file, and with ``comments`` each that does not start with '#'.

    Lines end at '\\n', '\\r\\n' or '\\r' only: a raw U+2028 inside a
    JSON string stays on its line. A decode error names the file and line.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            for lineno, raw in enumerate(handle, 1):
                line = raw.strip()
                if line and not (comments and line[0] == "#"):
                    yield lineno, line
        except UnicodeDecodeError:
            # The decoder raises per 8 KB chunk; decoding the whole file
            # again finds the first bad byte's line.
            decode_text(Path(path).read_bytes(), str(path))
            raise ParseError("not valid UTF-8", str(path)) from None  # the file changed under us


def read_text(path: str | Path) -> str:
    """A whole UTF-8 file, line ends as in ``read_lines`` turned to '\\n'."""
    return decode_text(Path(path).read_bytes(), str(path))


def decode_text(data: bytes, name: str) -> str:
    """UTF-8 ``data`` with line ends as in ``read_lines`` turned to '\\n';
    a decode error is a ``ParseError`` naming ``name`` and the line of the
    first bad byte."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ParseError(f"not valid UTF-8 ({exc.reason})", name, line) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


# ---------------------------------------------------------------------------
# Stopwords
# ---------------------------------------------------------------------------


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a stopword file: one word per line, '#' comments."""
    return frozenset(line.lower() for _, line in read_lines(path, comments=True))


def default_stopwords() -> frozenset[str]:
    """The stopword list shipped with the package."""
    return load_stopwords(packaged_data_path("stopwords.txt"))


def data_file_version(path: str | Path) -> str:
    """Version marker from a data file's first comment line, if any."""
    with open(path, encoding="utf-8") as handle:
        first = handle.readline().strip()
    if first.startswith("#"):
        return first.lstrip("#").strip()
    return "unversioned"


def packaged_data_path(name: str) -> Path:
    return Path(__file__).parent / "data" / name


def is_stdout(path: str | Path) -> bool:
    """Whether ``path`` is the file that standard output is open on."""
    try:
        target, stdout = os.stat(path), os.fstat(1)
    except OSError:
        return False
    return (target.st_dev, target.st_ino) == (stdout.st_dev, stdout.st_ino)


@contextmanager
def atomic_write(path: str | Path, mode: str, encoding: str | None = None) -> Iterator[IO]:
    """Write to a temp file next to ``path`` that replaces ``path`` on
    success; on any exception the temp file is removed and ``path`` is
    left as it was. An OSError while writing is raised against ``path``,
    the file the caller named, not the temp file nor file descriptor 1,
    whichever is written.

    Only a new path or a regular file is replaced. A symlink, a device
    or a pipe (``/dev/stdout`` is all three in turn) is written in place,
    as ``open`` would: replacing it would cut the link to its target.
    The file standard output is open on is written through file
    descriptor 1: opening it again would write from offset 0, over what
    is already there (or truncate a file opened for appending).
    """
    path = Path(path)
    temp = None
    try:
        if is_stdout(path):
            sys.stdout.flush()
            with open(1, mode, encoding=encoding, closefd=False) as out:
                yield out
        elif path.is_symlink() or (path.exists() and not path.is_file()):
            with open(path, mode, encoding=encoding) as out:
                yield out
        else:
            temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            with open(temp, mode, encoding=encoding) as out:
                yield out
            os.replace(temp, path)
    except BaseException as exc:
        if temp:
            with suppress(FileNotFoundError, NotADirectoryError):  # no temp file was made
                temp.unlink()
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise


# ---------------------------------------------------------------------------
# Collections
# ---------------------------------------------------------------------------


def load_collection(path: str | Path, format: str = "jsonl") -> Iterator[tuple[str, str]]:
    """Stream ``(doc_id, text)`` pairs from disk in file order; a title,
    where there is one, precedes the body in ``text``.

    Supported formats: ``jsonl`` (one object per line with ``doc_id``,
    ``title``, ``body``), ``trec-text`` (<DOC>/<DOCNO>/<TEXT> blocks, with
    an optional <TITLE>), and ``plain-dir`` (a directory of text files,
    one document per file, doc_id taken from the file stem).

    Raises ParseError, naming the file and line, for malformed records and
    for a doc_id that repeats (DuplicateIdError).
    """
    if format not in COLLECTION_FORMATS:
        raise ValueError(f"unknown collection format: {format!r}")
    path = Path(path)
    if format == "jsonl":
        for lineno, doc_id, record in _jsonl_records(path, "doc_id"):
            title = _text_field(record, "title", path, lineno)
            yield doc_id, _document_text(title, _text_field(record, "body", path, lineno))
    elif format == "trec-text":
        yield from _load_trec_text(path)
    else:
        yield from _load_plain_dir(path)


def _document_text(title: str | None, body: str | None) -> str:
    body = body or ""
    return f"{title} {body}" if title else body


def _text_field(record: dict, key: str, path: Path, line: int) -> str | None:
    """``record[key]``, which must be a string or null when present."""
    value = record.get(key)
    if value is not None and not isinstance(value, str):
        raise ParseError(f"{key} must be a string or null", str(path), line)
    return value


def utf8_encodable(text: str) -> bool:
    """Whether UTF-8 can encode ``text``: only a lone surrogate fails, which
    a JSON escape ("\\ud800") or a file name or argument that is not
    UTF-8 carries."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def id_fault(value: str) -> str | None:
    """Why ``value`` cannot be an id or a run tag, worded to follow it in a
    message (``f"{kind} {value!r} {fault}"``); None if it can be one.

    Run and qrels lines are whitespace-separated UTF-8 text, so each id
    and tag that such a line holds must be one field of it: non-empty,
    with no whitespace, and encodable as UTF-8.
    """
    if value.split() != [value]:
        return "is empty or contains whitespace"
    if not (value.isascii() or utf8_encodable(value)):  # most ids are ASCII
        return "cannot be encoded as UTF-8"
    return None


def _check_id(
    kind: str, value: object, seen: set[str], path: str | Path, line: int | None = None
) -> str:
    """``value``, a string or a JSON integer (not a bool), as an id that
    ``id_fault`` accepts and ``seen`` does not hold yet; it joins ``seen``.
    The one id rule of every input: a ParseError names ``path`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ParseError(f"{kind} must be a string or an integer", str(path), line)
    value = str(value)
    fault = id_fault(value)
    if fault:
        raise ParseError(f"{kind} {value!r} {fault}", str(path), line)
    if value in seen:
        raise DuplicateIdError(kind, value, str(path), line)
    seen.add(value)
    return value


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """A JSON object's pairs as a dict; a ``KeyError`` names a key set twice."""
    record = dict(pairs)
    if len(record) < len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise KeyError(key)
            seen.add(key)
    return record


# One decoder for every call: ``json.loads`` given a hook builds a new one each time.
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def decode_json(text: str, path: str | Path, line: int | None = None):
    """``text`` decoded as JSON. A ParseError names ``path`` and ``line``
    (for a whole file, the line of a syntax error) for bad syntax, an
    integer over Python's digit limit, or nesting too deep to decode; a
    DuplicateIdError for an object, at any depth, that sets a key twice,
    since JSON leaves open which value counts (RFC 8259, section 4)."""
    try:
        return _DECODER.decode(text)
    except KeyError as exc:
        raise DuplicateIdError("key", exc.args[0], str(path), line) from None
    except json.JSONDecodeError as exc:
        detail, line = exc.msg, line or exc.lineno
    except ValueError as exc:  # an integer of more digits than int() converts
        detail = str(exc)
    except RecursionError:
        detail = "nested too deeply"
    raise ParseError(f"invalid JSON ({detail})", str(path), line)


def _jsonl_records(path: Path, id_field: str) -> Iterator[tuple[int, str, dict]]:
    """``(line number, id, record)`` for each JSON object line of ``path``."""
    seen: set[str] = set()
    for lineno, line in read_lines(path):
        record = decode_json(line, path, lineno)
        if not isinstance(record, dict) or id_field not in record:
            raise ParseError(f"record missing {id_field} field", str(path), lineno)
        yield lineno, _check_id(id_field, record[id_field], seen, path, lineno), record


_TAG_RE = re.compile(r"<(/?)(DOC|DOCNO|TITLE|TEXT)>", re.IGNORECASE)


def _load_trec_text(path: Path) -> Iterator[tuple[str, str]]:
    """``(doc_id, text)`` per <DOC> block. ``fields``, the block's record, is
    made by ``<DOC>`` on line ``opened`` and consumed by ``</DOC>`` (None
    outside a block); ``open_tag`` names the field being read and
    ``buffer`` holds its text."""
    seen: set[str] = set()
    fields: dict[str, str] | None = None
    opened = 0
    open_tag: str | None = None
    buffer: list[str] = []
    for lineno, line in read_lines(path):
        if line.upper() == "<DOC>" and fields is None:
            fields, opened = {}, lineno
            continue
        if line.upper() == "</DOC>":
            if fields is None or "DOCNO" not in fields:
                raise ParseError("document block missing DOCNO", str(path), lineno)
            if open_tag:
                raise ParseError(f"<{open_tag}> not closed before </DOC>", str(path), lineno)
            yield fields["DOCNO"], _document_text(fields.get("TITLE"), fields.get("TEXT"))
            fields = None
            continue
        if fields is None:
            raise ParseError("content outside <DOC> block", str(path), lineno)
        # A field may share a line with its tags or span lines, and ends
        # before another tag opens; text outside a field is dropped.
        start = 0
        for match in _TAG_RE.finditer(line):
            if open_tag and match.start() > start:
                buffer.append(line[start : match.start()])
            start = match.end()
            closing, tag = match.group(1), match.group(2).upper()
            if not closing:
                if tag == "DOC":
                    raise ParseError("<DOC> inside a document block", str(path), lineno)
                if open_tag:
                    raise ParseError(f"<{tag}> inside <{open_tag}>", str(path), lineno)
                open_tag, buffer = tag, []
            elif tag != open_tag:
                raise ParseError(f"unexpected </{tag}>", str(path), lineno)
            elif tag == "DOCNO" and "DOCNO" in fields:
                raise ParseError("second DOCNO in one document block", str(path), lineno)
            else:
                fields[tag], open_tag = " ".join(buffer).strip(), None
                if tag == "DOCNO":
                    _check_id("doc_id", fields[tag], seen, path, lineno)
        if open_tag and line[start:]:
            buffer.append(line[start:])
    if fields is not None:
        raise ParseError("unterminated <DOC> block", str(path), opened)


def _load_plain_dir(path: Path) -> Iterator[tuple[str, str]]:
    if not path.is_dir():
        raise ParseError("not a directory", str(path))
    seen: set[str] = set()
    for entry in sorted(p for p in path.iterdir() if p.is_file()):
        yield _check_id("doc_id", entry.stem, seen, entry), read_text(entry)


# ---------------------------------------------------------------------------
# Topics
# ---------------------------------------------------------------------------


def load_topics(path: str | Path) -> list[Topic]:
    """Load topics from JSONL (topic_id/description) or TREC-style XML.

    The format is sniffed: files whose first non-blank character is '<'
    are parsed as XML with <topic number=...><description> elements.
    Topic ids must be unique and descriptions non-blank; a ParseError
    names the file, and the line for JSONL.
    """
    path = Path(path)
    content = read_text(path)
    if content.lstrip()[:1] == "<":
        return _parse_xml_topics(content, path)
    # JSONL is read again, line by line; topic files are small.
    return [
        _topic(topic_id, _text_field(record, "description", path, lineno), path, lineno)
        for lineno, topic_id, record in _jsonl_records(path, "topic_id")
    ]


def _topic(topic_id: str, description: str | None, path: Path, line: int | None = None) -> Topic:
    description = description or ""
    if not description.strip():
        raise ParseError(f"topic {topic_id!r} has an empty description", str(path), line)
    return Topic(topic_id, description)


def _parse_xml_topics(content: str, path: Path) -> list[Topic]:
    from xml.etree import ElementTree  # only XML topic files need it

    try:
        root = ElementTree.fromstring(content)
    except ElementTree.ParseError as exc:
        raise ParseError(f"invalid XML ({exc})", str(path)) from exc
    elements = root.iter("topic") if root.tag != "topic" else [root]
    topics: list[Topic] = []
    seen: set[str] = set()
    for element in elements:
        topic_id = element.get("number") or element.get("id")
        if not topic_id:
            raise ParseError("topic element missing number attribute", str(path))
        _check_id("topic_id", topic_id, seen, path)
        topics.append(_topic(topic_id, (element.findtext("description") or "").strip(), path))
    return topics
