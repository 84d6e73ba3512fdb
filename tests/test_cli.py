"""End-to-end CLI coverage: every subcommand through main()."""

import io
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import negir
from negir.cli import Config, _config_header, main

TOPICS = [
    {"topic_id": "1", "description": "persistent chest pain with dyspnea"},
    {
        "topic_id": "2",
        "description": "acute fever and rash. denies smoking diabetes.",
    },
]

DOCS = [
    {"doc_id": "d-chest", "title": "", "body": "chest pain dyspnea evaluation"},
    {"doc_id": "d-fever", "title": "", "body": "acute fever rash management"},
    {"doc_id": "d-smoke", "title": "", "body": "smoking diabetes cessation advice"},
    {"doc_id": "d-clean", "title": "", "body": "fever rash workup no smoking history"},
]

QRELS = "1 0 d-chest 1\n2 0 d-fever 1\n2 0 d-clean 1\n2 0 d-smoke 0\n"


@pytest.fixture()
def workspace(tmp_path):
    (tmp_path / "docs.jsonl").write_text(
        "\n".join(json.dumps(d) for d in DOCS) + "\n", encoding="utf-8"
    )
    (tmp_path / "topics.jsonl").write_text(
        "\n".join(json.dumps(t) for t in TOPICS) + "\n", encoding="utf-8"
    )
    (tmp_path / "qrels.txt").write_text(QRELS, encoding="utf-8")
    return tmp_path


def run_cli(*argv):
    return main([str(a) for a in argv])


def build_snapshot(workspace):
    snapshot = workspace / "index.ngir"
    code = run_cli(
        "index",
        "--collection", workspace / "docs.jsonl",
        "--format", "jsonl",
        "--out", snapshot,
    )
    assert code == 0
    return snapshot


def test_index_and_run_and_eval(workspace, capsys):
    snapshot = build_snapshot(workspace)
    assert snapshot.exists()
    run_file = workspace / "baseline.run"
    code = run_cli(
        "run",
        "--index", snapshot,
        "--topics", workspace / "topics.jsonl",
        "--strategy", "baseline",
        "--k", "10",
        "--out", run_file,
        "--tag", "base",
    )
    assert code == 0
    lines = run_file.read_text().splitlines()
    assert all(line.split()[1] == "Q0" and line.split()[-1] == "base" for line in lines)

    capsys.readouterr()
    code = run_cli("eval", "--run", run_file, "--qrels", workspace / "qrels.txt", "--json")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["run_tag"] == "base"
    assert payload["num_topics"] == 2
    assert set(payload["aggregate"]) == {"p_at_10", "ndcg", "inf_ap", "r_prec"}
    assert "config" in payload


SAMPLING = {"1": [["d-chest", "d-smoke"]], "2": [["d-fever", "d-clean"], ["d-smoke", "d-chest"]]}


def test_eval_with_sampling_matches_library(workspace, capsys):
    from negir.evalkit import evaluate, read_qrels, read_run, read_sampling_sidecar

    snapshot = build_snapshot(workspace)
    run_file = workspace / "baseline.run"
    sidecar = workspace / "sampling.json"
    sidecar.write_text(json.dumps(SAMPLING), encoding="utf-8")
    assert run_cli(
        "run",
        "--index", snapshot,
        "--topics", workspace / "topics.jsonl",
        "--strategy", "baseline",
        "--out", run_file,
    ) == 0
    capsys.readouterr()
    code = run_cli(
        "eval", "--run", run_file, "--qrels", workspace / "qrels.txt",
        "--sampling", sidecar, "--json",
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    qrels = read_qrels(workspace / "qrels.txt")
    expected = evaluate(
        read_run(run_file), qrels, sampling=read_sampling_sidecar(sidecar, qrels)
    )
    assert payload["aggregate"]["inf_ap"] == expected.aggregate().inf_ap


@pytest.mark.parametrize(
    "content, message",
    [
        ("[]", "expected a JSON object"),
        ('{"2": [["d-fever"], "d-clean"]}', "topic 2: strata must be lists"),
        ('{"2": [["d-fever", "d-clean"], []]}', "topic 2: stratum 2 is empty"),
        (
            '{"2": [["d-fever", "d-clean"], ["d-clean", "d-smoke"]]}',
            "topic 2: document 'd-clean' is listed in two strata",
        ),
        ('{"2": [["d-fever", "d-clean", "d-smoke"]]}', "topic 1: missing from the sampling sidecar"),
        (
            '{"1": [["d-chest"]], "2": [["d-fever", "d-clean", "d-smoke"]], "3": [["d-chest"]]}',
            "topic 3: missing from the qrels",
        ),
        (
            '{"1": [["d-chest"]], "2": [["d-fever", "d-clean", "d-fever"]]}',
            "topic 2: document 'd-fever' is listed twice in stratum 1",
        ),
        (
            '{"1": [["d-chest"]], "2": [["d-fever", "d-clean", "d-smoke"], ["d-other"]]}',
            "topic 2: stratum 2 has no judged documents",
        ),
        (
            '{"1": [["d-chest"]], "2": [["d-fever", "d-smoke"]]}',
            "topic 2: judged document 'd-clean' missing from all strata",
        ),
        (
            '{"1": [["d-chest"]], "2": [["d-fever", "d-clean", "zz"]], '
            '"2": [["d-fever", "d-clean", "d-smoke"]]}',
            "duplicate topic_id: '2'",
        ),
    ],
)
def test_eval_bad_sampling_sidecar_exits_one(workspace, capsys, content, message):
    run_file = workspace / "r.run"
    run_file.write_text("2 Q0 d-fever 1 1.0 x\n", encoding="utf-8")
    sidecar = workspace / "bad_sampling.json"
    sidecar.write_text(content, encoding="utf-8")
    code = run_cli(
        "eval", "--run", run_file, "--qrels", workspace / "qrels.txt", "--sampling", sidecar
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"negir: {sidecar}: {message}"), err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "index_argv, run_argv, score",
    [
        ([], ["--strategy", "score_combination", "--beta", "1e308"], "-inf"),
        (["--k1", "1e308"], ["--strategy", "baseline"], "inf"),
    ],
    ids=["beta", "k1"],
)
def test_run_refuses_non_finite_scores(workspace, capsys, index_argv, run_argv, score):
    # A huge setting overflows a score; eval would refuse the run file.
    docs = workspace / "docs.jsonl"
    with open(docs, "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"doc_id": "d-twice", "body": "fever fever rash"}) + "\n")
    snapshot = workspace / "index.ngir"
    assert run_cli("index", "--collection", docs, "--out", snapshot, *index_argv) == 0
    out = workspace / "r.run"
    out.write_text("old contents\n", encoding="utf-8")
    capsys.readouterr()
    code = run_cli(
        "run", "--index", snapshot, "--topics", workspace / "topics.jsonl", *run_argv,
        "--out", out,
    )
    assert code == 1
    assert capsys.readouterr().err == f"negir: score {score} in topic 2 is not a finite number\n"
    assert out.read_text(encoding="utf-8") == "old contents\n"


def test_run_twice_writes_identical_bytes(workspace):
    snapshot = build_snapshot(workspace)
    outputs = []
    for name in ("a.run", "b.run"):
        out = workspace / name
        code = run_cli(
            "run",
            "--index", snapshot,
            "--topics", workspace / "topics.jsonl",
            "--strategy", "score_combination",
            "--beta", "0.5",
            "--k", "10",
            "--out", out,
            "--tag", "comb",
        )
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def to_dev_stdout(workspace, argv, stdout):
    """``negir ARGV --out /dev/stdout`` in a child process whose standard
    output is ``stdout``; returns the completed process and the bytes the
    same command writes to a file."""
    assert run_cli(*argv, "--out", workspace / "expected") == 0
    src = str(Path(negir.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    child = subprocess.run(
        [sys.executable, "-m", "negir.cli", *map(str, argv), "--out", "/dev/stdout"],
        stdout=stdout, stderr=subprocess.PIPE, env=env, check=True,
    )
    return child, (workspace / "expected").read_bytes()


def run_to_dev_stdout(workspace, stdout):
    snapshot = build_snapshot(workspace)
    argv = ["run", "--index", snapshot, "--topics", workspace / "topics.jsonl",
            "--strategy", "baseline", "--k", "10"]
    return to_dev_stdout(workspace, argv, stdout)


needs_dev_stdout = pytest.mark.skipif(
    not os.path.exists("/dev/stdout"), reason="the platform has no /dev/stdout"
)


@needs_dev_stdout
@pytest.mark.parametrize("mode", ["w", "a"], ids=["truncate", "append"])
def test_run_out_dev_stdout_redirected_to_a_file(workspace, mode):
    # `> file` must hold exactly the run, `>> file` the earlier content and
    # then the run; the summary goes to stderr, out of the run's way.
    captured = workspace / "captured.txt"
    captured.write_bytes(b"earlier line\n")
    with open(captured, mode + "b") as handle:
        child, expected = run_to_dev_stdout(workspace, handle)
    earlier = b"earlier line\n" if mode == "a" else b""
    assert expected.count(b"\n") > 1
    assert captured.read_bytes() == earlier + expected
    assert child.stderr == b"wrote 2 topics -> /dev/stdout\n"


@needs_dev_stdout
def test_run_out_dev_stdout_to_a_pipe(workspace):
    child, expected = run_to_dev_stdout(workspace, subprocess.PIPE)
    assert child.stdout == expected
    assert child.stderr == b"wrote 2 topics -> /dev/stdout\n"


@needs_dev_stdout
def test_index_out_dev_stdout_to_a_pipe(workspace):
    argv = ["index", "--collection", workspace / "docs.jsonl"]
    child, expected = to_dev_stdout(workspace, argv, subprocess.PIPE)
    assert child.stdout == expected  # the snapshot alone, loadable as written
    assert child.stderr == b"indexed 4 documents -> /dev/stdout\n"


def test_negation_free_topics_identical_runs_apart_from_tag(workspace):
    # Restrict to the negation-free topic: every strategy must emit the
    # same ranking bytes once the tag is normalized.
    topics = workspace / "only_t1.jsonl"
    topics.write_text(json.dumps(TOPICS[0]) + "\n", encoding="utf-8")
    snapshot = build_snapshot(workspace)
    contents = {}
    for strategy in ("baseline", "negation_tagging", "filtering", "score_combination"):
        out = workspace / f"{strategy}.run"
        assert run_cli(
            "run",
            "--index", snapshot,
            "--topics", topics,
            "--strategy", strategy,
            "--k", "10",
            "--out", out,
            "--tag", "same",
        ) == 0
        contents[strategy] = out.read_bytes()
    assert len(set(contents.values())) == 1


def test_detect_subcommand_reports_scope(capsys):
    code = run_cli(
        "detect",
        "--text",
        "She denies smoking, diabetes, hypercholesterolemia, "
        "or a family history of heart disease.",
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 1
    scopes = payload[0]["scopes"]
    assert len(scopes) == 1
    assert scopes[0]["trigger"] == "denies"
    assert scopes[0]["kind"] == "pre"
    assert scopes[0]["scope_text"].startswith("smoking diabetes")


def test_bundle_subcommand(workspace, capsys):
    code = run_cli("bundle", "--topics", workspace / "topics.jsonl")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert [b["topic_id"] for b in payload] == ["1", "2"]
    assert payload[1]["q_neg"] == ["smoking", "diabetes"]
    assert payload[0]["q_neg"] == []


def test_compare_groups_subcommand(workspace, capsys):
    snapshot = build_snapshot(workspace)
    runs = {}
    for strategy in ("baseline", "negation_tagging"):
        out = workspace / f"{strategy}.run"
        assert run_cli(
            "run",
            "--index", snapshot,
            "--topics", workspace / "topics.jsonl",
            "--strategy", strategy,
            "--k", "10",
            "--out", out,
            "--tag", strategy,
        ) == 0
        runs[strategy] = out
    capsys.readouterr()
    code = run_cli(
        "compare-groups",
        "--topics", workspace / "topics.jsonl",
        "--qrels", workspace / "qrels.txt",
        "--baseline", runs["baseline"],
        "--run", f"tagging={runs['negation_tagging']}",
        "--json",
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["d_plus_topics"] == ["1"]
    assert payload["d_minus_topics"] == ["2"]
    assert "tagging" in payload["gap_reduction_p10"]
    assert "config" in payload


@pytest.mark.parametrize(
    "names, taken",
    [
        (["baseline"], "'baseline' is already taken by --baseline"),
        (["x", "x"], "'x' is already taken by an earlier --run"),
        (["x", " x "], "'x' is already taken by an earlier --run"),
        ([""], "--run expects name=path"),
    ],
    ids=["baseline", "repeated", "repeated-with-spaces", "empty"],
)
def test_compare_groups_rejects_a_taken_or_empty_run_name(workspace, capsys, names, taken):
    # A run under a taken name would silently replace the earlier run.
    snapshot = build_snapshot(workspace)
    run = workspace / "baseline.run"
    assert run_cli("run", "--index", snapshot, "--topics", workspace / "topics.jsonl",
                   "--strategy", "baseline", "--out", run) == 0
    capsys.readouterr()
    argv = ["compare-groups", "--topics", workspace / "topics.jsonl",
            "--qrels", workspace / "qrels.txt", "--baseline", run]
    for name in names:
        argv += ["--run", f"{name}={run}"]
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("negir: ") and taken in captured.err


def detect_stdin(monkeypatch, data):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    return run_cli("detect")


def test_detect_stdin_rejects_invalid_utf8(monkeypatch, capsys):
    assert detect_stdin(monkeypatch, b"no fever\n\xff\n") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "negir: <stdin>:2: not valid UTF-8 (invalid start byte)\n"


def test_detect_stdin_reads_like_input_file(workspace, monkeypatch, capsys):
    data = "Denies fever.\r\nNo rash\rcough \u00e9\n".encode("utf-8")
    (workspace / "text.txt").write_bytes(data)
    assert run_cli("detect", "--input", workspace / "text.txt") == 0
    from_file = capsys.readouterr().out
    assert detect_stdin(monkeypatch, data) == 0
    assert capsys.readouterr().out == from_file
    assert len(json.loads(from_file)) == 2


def test_config_file_with_flag_override(workspace, capsys):
    config = workspace / "negir.conf"
    config.write_text("k1 = 0.9\nk = 5\n", encoding="utf-8")
    snapshot = build_snapshot(workspace)
    run_file = workspace / "out.run"
    capsys.readouterr()
    code = run_cli(
        "run",
        "--index", snapshot,
        "--topics", workspace / "topics.jsonl",
        "--strategy", "baseline",
        "--config", config,
        "--k", "3",  # flag wins over config file
        "--out", run_file,
        "--tag", "cfg",
        "--json",
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["k"] == 3
    assert payload["config"]["k1"] == 0.9


def test_config_output_is_pinned(workspace, capsys):
    # The echoed settings keep their names, values and order.
    assert _config_header(Config()) == (
        "# config: k1=1.2 b=0.75 expansion_weight=0.3 beta=None k=1000 ndcg_cutoff=1000"
    )
    config = workspace / "negir.conf"
    config.write_text("beta = 1.5\nk = 7\n", encoding="utf-8")
    snapshot = build_snapshot(workspace)
    capsys.readouterr()
    code = run_cli(
        "run",
        "--index", snapshot,
        "--topics", workspace / "topics.jsonl",
        "--strategy", "score_combination",
        "--config", config,
        "--out", workspace / "out.run",
        "--json",
    )
    assert code == 0
    assert (
        '"config": {"b": 0.75, "beta": 1.5, "expansion_weight": 0.3, "k": 7, "k1": 1.2, '
        '"ndcg_cutoff": 1000}'
    ) in capsys.readouterr().out


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # Every command is a new process, and ``dataclasses`` with the
    # ``inspect`` it imports would add about 11 ms to each start. pytest
    # imports both itself, so a child process checks; -S keeps a site
    # .pth file from importing them first.
    src = str(Path(negir.__file__).parent.parent)
    code = "import sys, negir.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    child = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    assert child.stdout == "[]\n"


def test_missing_file_exits_one(workspace, capsys):
    code = run_cli("eval", "--run", workspace / "absent.run", "--qrels", workspace / "qrels.txt")
    assert code == 1
    assert capsys.readouterr().err.strip()


def test_malformed_collection_exits_one(workspace, capsys):
    bad = workspace / "bad.jsonl"
    bad.write_text('{"body": "no id"}\n', encoding="utf-8")
    code = run_cli("index", "--collection", bad, "--out", workspace / "x.ngir")
    assert code == 1
    err = capsys.readouterr().err
    assert "doc_id" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["index", "--k1", "-1", "--b", "0"], "k1 must be a finite number >= 0, got -1.0"),
        (["index", "--k1", "nan"], "k1 must be a finite number >= 0, got nan"),
        (["index", "--b", "1.5"], "b must be a number in [0, 1], got 1.5"),
        (["run", "--expansion-weight", "-0.3"], "expansion_weight must be a finite number >= 0"),
        (["run", "--beta", "inf"], "beta must be a finite number, got inf"),
        (["run", "--k", "0"], "k must be an integer >= 1, got 0"),
        (["eval", "--ndcg-cutoff", "-5"], "ndcg_cutoff must be an integer >= 1, got -5"),
        (["compare-groups", "--config", "CONFIG"], "k1 must be a finite number >= 0, got inf"),
        (["detect", "--scope-window", "-2", "--text", "denies fever or cough"],
         "scope window must be at least 1, got -2"),
        (["detect", "--scope-window", "0", "--text", ""], "scope window must be at least 1, got 0"),
        (["detect", "--scope-window", "0", "--text", " \n\t "],
         "scope window must be at least 1, got 0"),
        (["detect", "--scope-window", "-1", "--input", "EMPTY"],
         "scope window must be at least 1, got -1"),
    ],
)
def test_out_of_range_setting_exits_one(workspace, capsys, argv, message):
    config = workspace / "negir.conf"
    config.write_text("k1 = inf\n", encoding="utf-8")
    empty = workspace / "empty.txt"
    empty.write_bytes(b"")
    out = workspace / "out"
    required = {
        "index": ["--collection", workspace / "docs.jsonl", "--out", out],
        "run": [
            "--index", workspace / "absent.ngir", "--topics", workspace / "topics.jsonl",
            "--strategy", "baseline", "--out", out,
        ],
        "eval": ["--run", workspace / "absent.run", "--qrels", workspace / "qrels.txt"],
        "compare-groups": [
            "--topics", workspace / "topics.jsonl", "--qrels", workspace / "qrels.txt",
            "--baseline", workspace / "absent.run",
        ],
        "detect": [],
    }
    argv = [{"CONFIG": config, "EMPTY": empty}.get(a, a) for a in argv]
    assert run_cli(*argv, *required[argv[0]]) == 1
    assert f"negir: {message}" in capsys.readouterr().err
    assert not out.exists()


def _jsonl(*records):
    return "".join(json.dumps(r) + "\n" for r in records).encode()


RUN = b"2 Q0 d-fever 1 1.0 x\n"

TOPIC = {"topic_id": "1", "description": "x"}

# case: (input kind, file name, content, line named in the error or None)
BAD_INPUTS = {
    "jsonl doc_id repeated": (
        "collection", "docs.jsonl", _jsonl({"doc_id": "d1"}, {"doc_id": "d1"}), 2),
    "trec-text doc_id repeated": (
        "trec-text", "docs.trec",
        b"<DOC>\n<DOCNO>d1</DOCNO>\n<TEXT>x</TEXT>\n</DOC>\n<DOC>\n<DOCNO>d1</DOCNO>\n</DOC>\n", 6),
    "trec-text second DOCNO in a block": (
        "trec-text", "docs.trec", b"<DOC>\n<DOCNO>d1</DOCNO>\n<DOCNO>d2</DOCNO>\n</DOC>\n", 3),
    "plain-dir doc_id repeated": ("plain-dir", "a.txt", b"text", None),
    "jsonl topic_id repeated": ("topics", "topics.jsonl", _jsonl(TOPIC, TOPIC), 2),
    "xml topic_id repeated": (
        "topics", "topics.xml",
        b'<topics><topic number="1"><description>x</description></topic>\n'
        b'<topic number="1"><description>y</description></topic></topics>\n', None),
    "empty description": (
        "topics", "topics.jsonl", _jsonl(TOPIC, {"topic_id": "2", "description": " "}), 2),
    "collection not UTF-8": (
        "collection", "docs.jsonl", b'{"doc_id": "d1"}\n{"doc_id": "\xff"}\n', 2),
    "plain-dir file not UTF-8": ("plain-dir", "b.txt", b"fine\n\xff\n", 2),
    "topics not UTF-8": (
        "topics", "topics.jsonl", b'\n{"topic_id": "1", "description": "\xe9"}\n', 2),
    "xml topics not UTF-8": ("topics", "topics.xml", b"<topics>\n\xff</topics>\n", 2),
    "stopwords not UTF-8": ("stopwords", "stop.txt", b"the\n\xff\n", 2),
    "lexicon not UTF-8": ("lexicon", "lex.txt", b"[pre]\nno\n\xc3\n[term]\nbut\n", 3),
    "config not UTF-8": ("config", "negir.conf", b"k1 = 1.2\n# \xff\n", 2),
    "qrels not UTF-8": ("qrels", "qrels.txt", b"1 0 d-chest 1\n2 0 d-\xff 1\n", 2),
    "qrels grade negative": ("qrels", "qrels.txt", b"1 0 d-chest 1\n2 0 d-fever -1\n", 2),
    "qrels judgment repeated": ("qrels", "qrels.txt", b"1 0 d-chest 1\n1 0 d-chest 0\n", 2),
    "run not UTF-8": ("run", "r.run", RUN + b"2 Q0 \xff 2 0.5 x\n", 2),
    "sidecar not UTF-8": ("sidecar", "s.json", b'{"1": [["d-chest"]],\n"2": [["\xff"]]}', 2),
    "sidecar not JSON": ("sidecar", "s.json", b'{"1": [["d-chest"]],\n"2": [["d-fever"],]}', 2),
    "lexicon conflict": ("lexicon", "lex.txt", b"[pre]\nno\n[pseudo]\nno\n[term]\nbut\n", 4),
    "lexicon without [pre]": ("lexicon", "lex.txt", b"[post]\nruled out\n[term]\nbut\n", None),
    "run document repeated": ("run", "r.run", RUN + b"2 Q0 d-fever 2 0.5 x\n", 2),
    "run score rises": ("run", "r.run", RUN + b"2 Q0 d-clean 2 1.5 x\n", 2),
    "run score nan": ("run", "r.run", RUN + b"2 Q0 d-clean 2 nan x\n", 2),
    "run score inf": ("run", "r.run", b"2 Q0 d-fever 1 inf x\n", 1),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_exits_one_naming_file_and_line(workspace, capsys, case):
    kind, name, content, line = BAD_INPUTS[case]
    if kind == "plain-dir":
        (workspace / "plain").mkdir()
        (workspace / "plain" / "a.md").write_text("first", encoding="utf-8")
        name = f"plain/{name}"
    bad = workspace / name
    bad.write_bytes(content)
    run_file = workspace / "good.run"
    run_file.write_bytes(RUN)
    out = workspace / "out"
    docs, qrels = workspace / "docs.jsonl", workspace / "qrels.txt"
    snapshot = build_snapshot(workspace) if kind == "topics" else None
    index = ["index", "--collection", docs, "--out", out]
    argv = {
        "collection": ["index", "--collection", bad, "--out", out],
        "trec-text": ["index", "--collection", bad, "--format", "trec-text", "--out", out],
        "plain-dir": ["index", "--collection", bad.parent, "--format", "plain-dir", "--out", out],
        "topics": ["run", "--index", snapshot, "--topics", bad, "--strategy", "baseline",
                   "--out", out],
        "stopwords": index + ["--stopwords", bad],
        "lexicon": index + ["--lexicon", bad],
        "config": index + ["--config", bad],
        "qrels": ["eval", "--run", run_file, "--qrels", bad],
        "run": ["eval", "--run", bad, "--qrels", qrels],
        "sidecar": ["eval", "--run", run_file, "--qrels", qrels, "--sampling", bad],
    }[kind]
    capsys.readouterr()
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    location = f"{bad}:" if line is None else f"{bad}:{line}:"
    assert err.startswith(f"negir: {location} "), err
    assert "Traceback" not in err
    assert not out.exists()


def test_bundle_of_raw_line_separators_equals_escaped(workspace, capsys):
    # JSON strings may hold U+2028 and U+0085 unescaped; str.splitlines()
    # would end the line there.
    description = "acute fever\u2028and rash.\u0085denies smoking\u2029diabetes."
    outputs = []
    for ensure_ascii in (True, False):
        topics = workspace / "raw.jsonl"
        record = {"topic_id": "1", "description": description}
        topics.write_text(json.dumps(record, ensure_ascii=ensure_ascii) + "\n", encoding="utf-8")
        assert run_cli("bundle", "--topics", topics) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[1])[0]["q_neg"] == ["smoking", "diabetes"]


def test_threads_config_key_rejected(workspace, capsys):
    config = workspace / "negir.conf"
    config.write_text("threads = 4\n", encoding="utf-8")
    snapshot = build_snapshot(workspace)
    code = run_cli(
        "run",
        "--index", snapshot,
        "--topics", workspace / "topics.jsonl",
        "--strategy", "baseline",
        "--config", config,
        "--out", workspace / "r.run",
    )
    assert code == 1
    assert "unknown config key 'threads'" in capsys.readouterr().err


def test_whitespace_doc_id_rejected_at_index(workspace, capsys):
    # Indexing it would give a run file that eval cannot read back.
    docs = workspace / "spaced.jsonl"
    docs.write_text(
        json.dumps({"doc_id": "ok", "body": "fever"}) + "\n"
        + json.dumps({"doc_id": "a b", "body": "chest pain"}) + "\n",
        encoding="utf-8",
    )
    out = workspace / "x.ngir"
    assert run_cli("index", "--collection", docs, "--out", out) == 1
    err = capsys.readouterr().err
    assert "spaced.jsonl:2:" in err and "'a b'" in err
    assert not out.exists()


def test_truncated_snapshot_exits_one(workspace, capsys):
    snapshot = build_snapshot(workspace)
    data = snapshot.read_bytes()
    # k1 is the first float after the 5-byte magic and the version byte.
    nan_k1 = data[:6] + struct.pack("<d", math.nan) + data[14:]
    for content, message in (
        (data[:-3], "truncated"),
        (data + b"garbage", "trailing bytes"),
        (nan_k1, "k1 nan or b 0.75 out of range"),
        (data[:5] + b"\x02" + data[6:], "unsupported snapshot version 2; rebuild the index"),
    ):
        snapshot.write_bytes(content)
        capsys.readouterr()
        code = run_cli(
            "run",
            "--index", snapshot,
            "--topics", workspace / "topics.jsonl",
            "--strategy", "baseline",
            "--out", workspace / "r.run",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("negir: ") and "index.ngir" in err and message in err


def test_oversized_doc_id_exits_one_without_writing(workspace, capsys):
    docs = workspace / "long.jsonl"
    docs.write_text(json.dumps({"doc_id": "x" * 70_000, "body": "fever"}) + "\n", encoding="utf-8")
    out = workspace / "x.ngir"
    assert run_cli("index", "--collection", docs, "--out", out) == 1
    assert "65535" in capsys.readouterr().err
    assert not out.exists()
    # An existing snapshot at --out keeps its bytes, and no temp file remains.
    out.write_bytes(b"previous snapshot")
    assert run_cli("index", "--collection", docs, "--out", out) == 1
    assert "x.ngir" in capsys.readouterr().err
    assert out.read_bytes() == b"previous snapshot"
    assert sorted(p.name for p in workspace.iterdir()) == [
        "docs.jsonl", "long.jsonl", "qrels.txt", "topics.jsonl", "x.ngir"
    ]


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli("frobnicate")
    assert excinfo.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli("--version")
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "negir 0.1.0" in out
    assert "negir-stopwords v1" in out
    assert "negir-lexicon v1" in out


def test_eval_text_output_has_config_header(workspace, capsys):
    snapshot = build_snapshot(workspace)
    run_file = workspace / "r.run"
    run_cli(
        "run",
        "--index", snapshot,
        "--topics", workspace / "topics.jsonl",
        "--strategy", "baseline",
        "--out", run_file,
        "--tag", "t",
    )
    capsys.readouterr()
    code = run_cli("eval", "--run", run_file, "--qrels", workspace / "qrels.txt")
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("# config:")
    assert "P@10" in out
