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
from contextlib import contextmanager
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

    sentence_index: int
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
        sentences.append(Sentence(len(sentences), piece, tokens, position))
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
    left as it was.

    Only a new path or a regular file is replaced. A symlink, a device
    or a pipe (``/dev/stdout`` is all three in turn) is written in place,
    as ``open`` would: replacing it would cut the link to its target.
    The file standard output is open on is written through file
    descriptor 1: opening it again would write from offset 0, over what
    is already there (or truncate a file opened for appending).
    """
    path = Path(path)
    if is_stdout(path):
        sys.stdout.flush()
        with open(1, mode, encoding=encoding, closefd=False) as out:
            yield out
        return
    if path.is_symlink() or (path.exists() and not path.is_file()):
        with open(path, mode, encoding=encoding) as out:
            yield out
        return
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, mode, encoding=encoding) as out:
            yield out
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
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
        for _, doc_id, record in _jsonl_records(path, "doc_id"):
            yield doc_id, _document_text(record.get("title"), record.get("body"))
    elif format == "trec-text":
        yield from _load_trec_text(path)
    else:
        yield from _load_plain_dir(path)


def _document_text(title: object, body: object) -> str:
    title, body = str(title or ""), str(body or "")
    return f"{title} {body}" if title else body


def _check_id(
    kind: str, value: str, seen: set[str], path: str | Path, line: int | None = None
) -> None:
    """Reject ids that are empty, contain whitespace, or are in ``seen``;
    add the others to ``seen``.

    Run and qrels lines are whitespace-separated, so an id with
    whitespace would make negir write a run file that it cannot read back.
    """
    if value.split() != [value]:
        raise ParseError(f"{kind} {value!r} is empty or contains whitespace", str(path), line)
    if value in seen:
        raise DuplicateIdError(kind, value, str(path), line)
    seen.add(value)


def _jsonl_records(path: Path, id_field: str) -> Iterator[tuple[int, str, dict]]:
    """``(line number, id, record)`` for each JSON object line of ``path``."""
    seen: set[str] = set()
    for lineno, line in read_lines(path):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON ({exc.msg})", str(path), lineno) from exc
        if not isinstance(record, dict) or id_field not in record:
            raise ParseError(f"record missing {id_field} field", str(path), lineno)
        record_id = str(record[id_field])
        _check_id(id_field, record_id, seen, path, lineno)
        yield lineno, record_id, record


_TAG_RE = re.compile(r"<(/?)(DOC|DOCNO|TITLE|TEXT)>", re.IGNORECASE)


def _load_trec_text(path: Path) -> Iterator[tuple[str, str]]:
    seen: set[str] = set()
    doc_id = title = text = None
    open_tag: str | None = None
    buffer: list[str] = []
    in_doc = False
    for lineno, line in read_lines(path):
        if line.upper() == "<DOC>":
            in_doc, doc_id, title, text = True, None, None, None
            continue
        if line.upper() == "</DOC>":
            if not in_doc or doc_id is None:
                raise ParseError("document block missing DOCNO", str(path), lineno)
            yield doc_id, _document_text(title, text)
            in_doc = False
            continue
        if not in_doc:
            raise ParseError("content outside <DOC> block", str(path), lineno)
        # Field content may share a line with its tags or span lines.
        remaining = line
        while remaining:
            match = _TAG_RE.search(remaining)
            if match is None:
                if open_tag:
                    buffer.append(remaining)
                break
            before = remaining[: match.start()]
            if open_tag and before:
                buffer.append(before)
            tag = match.group(2).upper()
            closing = match.group(1) == "/"
            if closing:
                if tag != open_tag:
                    raise ParseError(f"unexpected </{tag}>", str(path), lineno)
                value = " ".join(buffer).strip()
                if tag == "DOCNO":
                    if doc_id is not None:
                        raise ParseError("second DOCNO in one document block", str(path), lineno)
                    _check_id("doc_id", value, seen, path, lineno)
                    doc_id = value
                elif tag == "TITLE":
                    title = value
                elif tag == "TEXT":
                    text = value
                open_tag, buffer = None, []
            else:
                open_tag, buffer = tag, []
            remaining = remaining[match.end() :]
    if in_doc:
        raise ParseError("unterminated <DOC> block", str(path))


def _load_plain_dir(path: Path) -> Iterator[tuple[str, str]]:
    if not path.is_dir():
        raise ParseError("not a directory", str(path))
    seen: set[str] = set()
    for entry in sorted(p for p in path.iterdir() if p.is_file()):
        _check_id("doc_id", entry.stem, seen, entry)
        yield entry.stem, read_text(entry)


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
        _topic(topic_id, record.get("description"), path, lineno)
        for lineno, topic_id, record in _jsonl_records(path, "topic_id")
    ]


def _topic(topic_id: str, description: object, path: Path, line: int | None = None) -> Topic:
    description = str(description or "")
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
