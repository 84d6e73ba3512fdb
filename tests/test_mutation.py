"""Every reader under random mutation of a valid file.

A mutant either loads or raises a ParseError whose message starts with
its path; ``main`` given one mutant per reader and mutation kind exits 0
or 1, and on exit 1 leaves ``--out`` absent. Mutations are 1-3 byte
flips, truncations, insertions (half of the bytes drawn from those that
structure JSON, XML, TREC text and config lines) and deletions of 1-3
bytes. A run that loads survives ``write_run`` and ``read_run``, a
collection that loads survives ``build_index``, ``save_index`` and
``load_index`` with equal postings, and a sidecar that loads holds only
ids that ``id_fault`` accepts, each in one stratum of its topic.
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from negir.cli import load_config, main
from negir.corpus import default_stopwords, id_fault, load_collection, load_stopwords, load_topics
from negir.errors import ParseError
from negir.evalkit import read_qrels, read_run, read_sampling_sidecar, write_run
from negir.index import build_index, load_index, save_index
from negir.negation import analyze_text, default_lexicon, load_lexicon

STRUCTURE = b'{}[]":,<>/=#0123456789'
MUTATIONS = ("flip", "truncate", "insert", "delete")

DOCS = [
    {"doc_id": "d-chest", "title": "chest", "body": "chest pain with dyspnea"},
    {"doc_id": "d-fever", "body": "acute fever; no rash"},
    {"doc_id": "7", "title": "", "body": "denies smoking or diabetes"},
]
QRELS = {"1": {"d-chest": 1, "d-fever": 0}, "2": {"d-fever": 1, "7": 1}}

# reader -> (file name, a file the reader loads)
SEEDS = {
    "run": (
        "r.run",
        b"1 Q0 d-chest 1 2.5 x\n1 Q0 d-fever 2 1.25 x\n2 Q0 7 1 3.0 x\n10 Q0 d-fever 1 -0.5 x\n",
    ),
    "qrels": ("qrels.txt", b"1 0 d-chest 1\n1 0 d-fever 0\n2 0 d-fever 1\n2 0 7 1\n"),
    "topics-jsonl": (
        "topics.jsonl",
        b'{"topic_id": "1", "description": "chest pain"}\n'
        b'{"topic_id": 2, "description": "fever. denies smoking."}\n',
    ),
    "topics-xml": (
        "topics.xml",
        b'<?xml version="1.0" encoding="UTF-8"?>\n<topics>\n'
        b'<topic number="1"><description>chest pain</description></topic>\n'
        b'<topic id="2"><description>fever. denies smoking.</description></topic>\n</topics>\n',
    ),
    "collection-jsonl": ("docs.jsonl", "".join(json.dumps(d) + "\n" for d in DOCS).encode()),
    "collection-trec-text": (
        "docs.trec",
        b"<DOC>\n<DOCNO>d-chest</DOCNO>\n<TITLE>chest</TITLE>\n"
        b"<TEXT>\nchest pain\n</TEXT>\n</DOC>\n"
        b"<DOC>\n<DOCNO> d-fever </DOCNO>\n<TEXT>no fever</TEXT>\n</DOC>\n",
    ),
    "sidecar": ("s.json", b'{"1": [["d-chest"], ["d-fever", "d-x"]],\n "2": [["d-fever", "7"]]}\n'),
    "lexicon": (
        "lex.txt", b"# lexicon v0\n[pre]\nno\ndenies\n[post]\nruled out\n[pseudo]\nno increase\n"
        b"[term]\nbut\n",
    ),
    "stopwords": ("stop.txt", b"# stopwords v0\nthe\nand\nwith\n"),
    "config": ("negir.conf", b"# settings\nk1 = 1.2\nb = 0.75\nk = 10\n"),
}

READERS = {
    "run": read_run,
    "qrels": read_qrels,
    "topics-jsonl": load_topics,
    "topics-xml": load_topics,
    "collection-jsonl": lambda path: list(load_collection(path, "jsonl")),
    "collection-trec-text": lambda path: list(load_collection(path, "trec-text")),
    "sidecar": lambda path: read_sampling_sidecar(path, QRELS),
    "lexicon": load_lexicon,
    "stopwords": load_stopwords,
    "config": load_config,
}


def mutate(data: bytes, kind: str, randint) -> bytes:
    """``data`` changed by one mutation of ``kind``; ``randint(a, b)``
    picks each position and byte, ``a`` and ``b`` included."""
    data = bytearray(data)
    if kind == "flip":
        for _ in range(randint(1, 3)):
            data[randint(0, len(data) - 1)] ^= randint(1, 255)
    elif kind == "truncate":
        del data[randint(0, len(data) - 1) :]
    elif kind == "insert":
        at = randint(0, len(data))
        data[at:at] = bytes(
            STRUCTURE[randint(0, len(STRUCTURE) - 1)] if randint(0, 1) else randint(0, 255)
            for _ in range(randint(1, 3))
        )
    else:
        at = randint(0, len(data) - 1)
        del data[at : at + randint(1, 3)]
    return bytes(data)


@pytest.fixture(scope="module")
def mutant_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutants")


@pytest.mark.parametrize("reader", READERS)
def test_seed_loads(mutant_dir, reader):
    name, seed = SEEDS[reader]
    path = mutant_dir / name
    path.write_bytes(seed)
    assert READERS[reader](path)


@pytest.mark.parametrize("reader", READERS)
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_mutant_loads_or_names_its_file(mutant_dir, reader, data):
    name, seed = SEEDS[reader]
    path = mutant_dir / name
    kind = data.draw(st.sampled_from(MUTATIONS))
    path.write_bytes(mutate(seed, kind, lambda low, high: data.draw(st.integers(low, high))))
    try:
        loaded = READERS[reader](path)
    except ParseError as exc:
        assert str(exc).startswith(f"{path}:"), str(exc)
        return
    if reader == "sidecar":
        for strata in loaded.values():
            pooled = [doc_id for stratum in strata for doc_id in stratum]
            assert len(pooled) == len(set(pooled))
            assert all(id_fault(doc_id) is None for doc_id in pooled), pooled
    elif reader == "run":
        copy = mutant_dir / "copy.run"
        write_run(loaded, copy)
        again = read_run(copy)
        assert (again.run_tag, again.topics) == (loaded.run_tag, loaded.topics)
    elif reader.startswith("collection"):
        stopwords, lexicon = default_stopwords(), default_lexicon()
        analyses = [(doc_id, analyze_text(text, stopwords, lexicon)) for doc_id, text in loaded]
        index = build_index((d, a.tagged_terms) for d, a in analyses)
        snapshot = mutant_dir / "mutant.ngir"
        save_index(index, snapshot)
        again = load_index(snapshot)
        assert again.doc_ids == index.doc_ids
        for field in ("plain", "tagged"):
            assert again.field(field).postings == index.field(field).postings


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Valid files for the arguments ``main`` needs besides the mutant."""
    root = tmp_path_factory.mktemp("inputs")
    for reader in ("collection-jsonl", "qrels", "run"):
        name, seed = SEEDS[reader]
        (root / name).write_bytes(seed)
    index = ["index", "--collection", root / "docs.jsonl", "--out", root / "index.ngir"]
    assert main([str(arg) for arg in index]) == 0
    return root


@pytest.mark.parametrize("kind", MUTATIONS)
@pytest.mark.parametrize("reader", READERS)
def test_main_on_a_mutant_exits_zero_or_one(tmp_path, inputs, capsys, reader, kind):
    name, seed = SEEDS[reader]
    mutant = tmp_path / name
    rng = random.Random(f"{reader} {kind}")
    mutant.write_bytes(mutate(seed, kind, rng.randint))
    out = tmp_path / "out"
    docs, qrels, run = inputs / "docs.jsonl", inputs / "qrels.txt", inputs / "r.run"
    index = ["index", "--collection", docs, "--out", out]
    argv = {
        "run": ["eval", "--run", mutant, "--qrels", qrels],
        "qrels": ["eval", "--run", run, "--qrels", mutant],
        "topics-jsonl": ["run", "--index", inputs / "index.ngir", "--topics", mutant,
                         "--strategy", "negation_tagging", "--out", out],
        "collection-jsonl": ["index", "--collection", mutant, "--out", out],
        "collection-trec-text": ["index", "--collection", mutant, "--format", "trec-text",
                                 "--out", out],
        "sidecar": ["eval", "--run", run, "--qrels", qrels, "--sampling", mutant],
        "lexicon": index + ["--lexicon", mutant],
        "stopwords": index + ["--stopwords", mutant],
        "config": index + ["--config", mutant],
    }
    argv["topics-xml"] = argv["topics-jsonl"]
    code = main([str(arg) for arg in argv[reader]])
    err = capsys.readouterr().err
    assert code in (0, 1), err
    if code == 1:
        assert err.startswith("negir: ") and "Traceback" not in err, err
        assert not out.exists()
