"""Collection and topic ingestion, sentence splitting, and tokenization.

Text is normalized in two stages. Sentence splitting and raw tokenization
keep every word (negation cues such as "no" or "denies" must survive long
enough for scope detection); stopword removal happens afterwards, in
``negation.analyze_text``, and yields the terms that are actually indexed.
A sentence holds its raw token surfaces and the document-wide position of
the first one, so token ``i`` of a sentence sits at ``start + i``. Those
positions survive stopword removal, so detected scope spans stay valid
against the filtered terms.
"""

from __future__ import annotations

import json
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator

from .errors import DuplicateIdError, ParseError

# Maximal runs of letters/digits; hyphens and slashes split tokens.
TOKEN_RE = re.compile(r"[a-z0-9]+")

# Sentence boundary: terminator punctuation followed by whitespace.
_BOUNDARY_RE = re.compile(r"(?<=[.?!;])\s+")

COLLECTION_FORMATS = ("jsonl", "trec-text", "plain-dir")


@dataclass(frozen=True)
class RawDocument:
    """One document as ingested: identifier, optional title, body text."""

    doc_id: str
    title: str = ""
    body: str = ""

    def text(self) -> str:
        """Full indexable text: title and body joined."""
        return f"{self.title} {self.body}" if self.title else self.body


@dataclass(frozen=True)
class Topic:
    topic_id: str
    description: str


@dataclass(frozen=True)
class Sentence:
    """A sentence with its raw (pre-stopword) token surfaces; ``tokens[i]``
    is at document-wide position ``start + i``."""

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
# Stopwords
# ---------------------------------------------------------------------------


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a stopword file: one lowercase word per line, '#' comments."""
    words = set()
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        words.add(line.lower())
    return frozenset(words)


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


def load_collection(path: str | Path, format: str = "jsonl") -> Iterator[RawDocument]:
    """Stream documents from disk in file order.

    Supported formats: ``jsonl`` (one object per line with ``doc_id``,
    ``title``, ``body``), ``trec-text`` (<DOC>/<DOCNO>/<TEXT> blocks, with
    an optional <TITLE>), and ``plain-dir`` (a directory of text files,
    one document per file, doc_id taken from the file stem).

    Raises ParseError for malformed records (naming file and line) and
    DuplicateIdError when a doc_id repeats.
    """
    if format not in COLLECTION_FORMATS:
        raise ValueError(f"unknown collection format: {format!r}")
    path = Path(path)
    if format == "jsonl":
        yield from _load_jsonl_collection(path)
    elif format == "trec-text":
        yield from _load_trec_text(path)
    else:
        yield from _load_plain_dir(path)


def _check_id(kind: str, value: str, path: str | Path, line: int | None = None) -> None:
    """Reject ids that are empty or contain whitespace.

    Run and qrels lines are whitespace-separated, so such an id would
    make negir write a run file that it cannot read back.
    """
    if value.split() != [value]:
        raise ParseError(f"{kind} {value!r} is empty or contains whitespace", str(path), line)


def _check_new_id(seen: set[str], doc_id: str) -> None:
    if doc_id in seen:
        raise DuplicateIdError("doc_id", doc_id)
    seen.add(doc_id)


def _load_jsonl_collection(path: Path) -> Iterator[RawDocument]:
    seen: set[str] = set()
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON ({exc.msg})", str(path), lineno) from exc
            if not isinstance(record, dict) or "doc_id" not in record:
                raise ParseError("record missing doc_id field", str(path), lineno)
            doc_id = str(record["doc_id"])
            _check_id("doc_id", doc_id, path, lineno)
            _check_new_id(seen, doc_id)
            yield RawDocument(
                doc_id=doc_id,
                title=str(record.get("title", "") or ""),
                body=str(record.get("body", "") or ""),
            )


_TAG_RE = re.compile(r"<(/?)(DOC|DOCNO|TITLE|TEXT)>", re.IGNORECASE)


def _load_trec_text(path: Path) -> Iterator[RawDocument]:
    seen: set[str] = set()
    doc_id = title = text = None
    open_tag: str | None = None
    buffer: list[str] = []
    in_doc = False
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if stripped.upper() == "<DOC>":
                in_doc, doc_id, title, text = True, None, None, None
                continue
            if stripped.upper() == "</DOC>":
                if not in_doc or doc_id is None:
                    raise ParseError("document block missing DOCNO", str(path), lineno)
                _check_new_id(seen, doc_id)
                yield RawDocument(doc_id=doc_id, title=title or "", body=text or "")
                in_doc = False
                continue
            if not in_doc:
                if stripped:
                    raise ParseError("content outside <DOC> block", str(path), lineno)
                continue
            # Field content may share a line with its tags or span lines.
            remaining = stripped
            while remaining:
                match = _TAG_RE.search(remaining)
                if match is None:
                    if open_tag:
                        buffer.append(remaining)
                    remaining = ""
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
                        _check_id("doc_id", value, path, lineno)
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


def _load_plain_dir(path: Path) -> Iterator[RawDocument]:
    if not path.is_dir():
        raise ParseError("not a directory", str(path))
    seen: set[str] = set()
    for entry in sorted(p for p in path.iterdir() if p.is_file()):
        _check_id("doc_id", entry.stem, entry)
        _check_new_id(seen, entry.stem)
        yield RawDocument(doc_id=entry.stem, body=entry.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Topics
# ---------------------------------------------------------------------------


def load_topics(path: str | Path) -> list[Topic]:
    """Load topics from JSONL (topic_id/description) or TREC-style XML.

    The format is sniffed: files whose first non-blank character is '<'
    are parsed as XML with <topic number=...><description> elements.
    """
    path = Path(path)
    content = path.read_text(encoding="utf-8")
    if content.lstrip()[:1] == "<":
        return _parse_xml_topics(content, str(path))
    return _parse_jsonl_topics(content, str(path))


def _parse_jsonl_topics(content: str, name: str) -> list[Topic]:
    topics: list[Topic] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(content.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON ({exc.msg})", name, lineno) from exc
        if not isinstance(record, dict) or "topic_id" not in record:
            raise ParseError("record missing topic_id field", name, lineno)
        topic_id = str(record["topic_id"])
        _check_id("topic_id", topic_id, name, lineno)
        if topic_id in seen:
            raise DuplicateIdError("topic_id", topic_id)
        seen.add(topic_id)
        topics.append(Topic(topic_id, str(record.get("description", "") or "")))
    return topics


def _parse_xml_topics(content: str, name: str) -> list[Topic]:
    from xml.etree import ElementTree  # only XML topic files need it

    try:
        root = ElementTree.fromstring(content)
    except ElementTree.ParseError as exc:
        raise ParseError(f"invalid XML ({exc})", name) from exc
    elements = root.iter("topic") if root.tag != "topic" else [root]
    topics: list[Topic] = []
    seen: set[str] = set()
    for element in elements:
        topic_id = element.get("number") or element.get("id")
        if not topic_id:
            raise ParseError("topic element missing number attribute", name)
        _check_id("topic_id", topic_id, name)
        if topic_id in seen:
            raise DuplicateIdError("topic_id", topic_id)
        seen.add(topic_id)
        description = (element.findtext("description") or "").strip()
        topics.append(Topic(topic_id, description))
    return topics
