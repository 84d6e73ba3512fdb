"""End-to-end CLI coverage: every subcommand through main()."""

import errno
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

import negir
from negir.cli import Config, _config_header, main
from snapshot_parts import HEADER_BYTES, deflate_part, deflated, inflated

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
            "topic 2: duplicate doc_id: 'd-clean'",
        ),
        ('{"2": [["d-fever", "d-clean", "d-smoke"]]}', "topic 1: missing from the sampling sidecar"),
        (
            '{"1": [["d-chest"]], "2": [["d-fever", "d-clean", "d-smoke"]], "3": [["d-chest"]]}',
            "topic 3: missing from the qrels",
        ),
        (
            '{"1": [["d-chest"]], "2": [["d-fever", "d-clean", "d-fever"]]}',
            "topic 2: duplicate doc_id: 'd-fever'",
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
            "duplicate key: '2'",
        ),
        (
            '{"1": [["d-chest"]], "2 x": [["d-fever"]]}',
            "topic_id '2 x' is empty or contains whitespace",
        ),
        # A stratum's doc ids follow the id rule of every input.
        *(
            (
                f'{{"1": [["d-chest", {doc_id}]], "2": [["d-fever", "d-clean", "d-smoke"]]}}',
                f"topic 1: {message}",
            )
            for doc_id, message in [
                ("null", "doc_id must be a string or an integer"),
                ("1.5", "doc_id must be a string or an integer"),
                ("true", "doc_id must be a string or an integer"),
                ('["x"]', "doc_id must be a string or an integer"),
                ('""', "doc_id '' is empty or contains whitespace"),
                ('"d 2"', "doc_id 'd 2' is empty or contains whitespace"),
                # Only the top-level keys are topic ids.
                ('{"": 1}', "doc_id must be a string or an integer"),
            ]
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


def one_document_workspace(tmp_path):
    """A collection of one document on fever, and the one topic "no fever"
    that judges it relevant: the topic carries a negation, so the
    negation-free group is empty."""
    (tmp_path / "docs.jsonl").write_text('{"doc_id": "d1", "body": "fever"}\n', encoding="utf-8")
    (tmp_path / "topics.jsonl").write_text(
        '{"topic_id": "1", "description": "no fever"}\n', encoding="utf-8"
    )
    (tmp_path / "qrels.txt").write_text("1 0 d1 1\n", encoding="utf-8")
    return build_snapshot(tmp_path)


def test_compare_groups_gap_reduction_is_undefined_with_an_empty_group(tmp_path, capsys):
    # The empty group aggregates to P@10 0.0; a gap against it would read
    # 100.0% for a filtering run that retrieves nothing.
    snapshot = one_document_workspace(tmp_path)
    runs = {}
    for strategy in ("baseline", "filtering"):
        runs[strategy] = tmp_path / f"{strategy}.run"
        assert run_cli("run", "--index", snapshot, "--topics", tmp_path / "topics.jsonl",
                       "--strategy", strategy, "--out", runs[strategy]) == 0
    argv = ["compare-groups", "--topics", tmp_path / "topics.jsonl",
            "--qrels", tmp_path / "qrels.txt", "--baseline", runs["baseline"],
            "--run", f"filtering={runs['filtering']}"]
    capsys.readouterr()
    assert run_cli(*argv, "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["d_plus_topics"], payload["d_minus_topics"]) == ([], ["1"])
    assert payload["gap_reduction_p10"] == {"filtering": None}
    assert run_cli(*argv) == 0
    out = capsys.readouterr().out
    assert out.endswith(
        "gap reduction P@10 [filtering]: undefined (no baseline gap) (D- P@10 -100.0%)\n"
    )


def test_compare_groups_gap_reduction_with_a_negative_baseline_gap(tmp_path, capsys):
    # The baseline finds the relevant d1 for the negated topic 2 ("rash,
    # no fever" matches it on fever) and nothing relevant for topic 1: its
    # D- P@10 0.1 is above its D+ 0.0. The gap is -0.1, not undefined, and
    # filtering, which scores only "rash", closes all of it.
    lines = [{"doc_id": "d1", "body": "fever"}, {"doc_id": "d2", "body": "rash"},
             {"doc_id": "d3", "body": "cough"}]
    (tmp_path / "docs.jsonl").write_bytes(_jsonl(*lines))
    (tmp_path / "topics.jsonl").write_bytes(_jsonl(
        {"topic_id": "1", "description": "cough"},
        {"topic_id": "2", "description": "rash, no fever"},
    ))
    (tmp_path / "qrels.txt").write_text("1 0 d1 1\n2 0 d1 1\n", encoding="utf-8")
    snapshot = build_snapshot(tmp_path)
    runs = {}
    for strategy in ("baseline", "filtering"):
        runs[strategy] = tmp_path / f"{strategy}.run"
        assert run_cli("run", "--index", snapshot, "--topics", tmp_path / "topics.jsonl",
                       "--strategy", strategy, "--out", runs[strategy]) == 0
    capsys.readouterr()
    assert run_cli("compare-groups", "--topics", tmp_path / "topics.jsonl",
                   "--qrels", tmp_path / "qrels.txt", "--baseline", runs["baseline"],
                   "--run", f"filtering={runs['filtering']}", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["d_plus_topics"], payload["d_minus_topics"]) == (["1"], ["2"])
    assert payload["gap_reduction_p10"] == {"filtering": pytest.approx(1.0)}


def test_run_counts_only_topics_that_write_a_line(tmp_path, capsys):
    # Filtering scores "no fever" with no term, so the topic retrieves no
    # document and its run file is empty.
    snapshot = one_document_workspace(tmp_path)
    out = tmp_path / "filtering.run"
    argv = ["run", "--index", snapshot, "--topics", tmp_path / "topics.jsonl",
            "--strategy", "filtering", "--out", out]
    capsys.readouterr()
    assert run_cli(*argv) == 0
    assert capsys.readouterr().out == f"wrote 0 topics -> {out}\n"
    assert out.read_bytes() == b""
    assert run_cli(*argv, "--json") == 0
    assert json.loads(capsys.readouterr().out)["topics"] == 0
    # With the baseline, the same topic retrieves its one document.
    assert run_cli(*argv[:-3], "baseline", "--out", out, "--json") == 0
    assert json.loads(capsys.readouterr().out)["topics"] == 1
    assert len(out.read_text().splitlines()) == 1


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
    config.write_text("k1 = 1.2\nk = 5\n", encoding="utf-8")
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
    # The snapshot was built with the default k1, and that k1 scored the run.
    assert payload["config"]["k1"] == 1.2


def test_run_echoes_the_snapshots_k1_and_b(workspace, capsys):
    snapshot = workspace / "index.ngir"
    assert run_cli("index", "--collection", workspace / "docs.jsonl", "--out", snapshot,
                   "--k1", "2.0", "--b", "0.1") == 0
    config = workspace / "negir.conf"
    for settings in ("k = 5\n", "k1 = 2.0\nb = 0.1\n"):  # they omit or repeat the snapshot's
        config.write_text(settings, encoding="utf-8")
        capsys.readouterr()
        assert run_cli("run", "--index", snapshot, "--topics", workspace / "topics.jsonl",
                       "--strategy", "baseline", "--config", config,
                       "--out", workspace / "out.run", "--json") == 0
        echoed = json.loads(capsys.readouterr().out)["config"]
        assert (echoed["k1"], echoed["b"]) == (2.0, 0.1)


@pytest.mark.parametrize("settings, differ", [
    ("k1 = 2.0\nb = 0.1\n", "k1 2.0 (the index has 1.2) and b 0.1 (the index has 0.75)"),
    ("b = 0.1\nk = 5\n", "b 0.1 (the index has 0.75)"),
    ("k1 = 0.9\nb = 0.75\n", "k1 0.9 (the index has 1.2)"),
])
def test_run_refuses_a_config_k1_or_b_its_snapshot_was_not_built_with(
    workspace, capsys, settings, differ
):
    # The snapshot's k1 and b would score the run, not the config's.
    snapshot = build_snapshot(workspace)
    config = workspace / "negir.conf"
    config.write_text(settings, encoding="utf-8")
    out = workspace / "out.run"
    capsys.readouterr()
    assert run_cli("run", "--index", snapshot, "--topics", workspace / "topics.jsonl",
                   "--strategy", "baseline", "--config", config, "--out", out) == 1
    assert capsys.readouterr().err == (
        f"negir: {config}: {differ}; the index's k1 and b score a run, "
        "so rebuild the index with these or drop them from the config\n"
    )
    assert not out.exists()


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


def test_evalkit_import_leaves_out_querygen_and_negation():
    # ``eval`` reads runs and qrels only; querygen and negation are for
    # the annotations of ``group_analysis`` alone. -S as above.
    src = str(Path(negir.__file__).parent.parent)
    code = (
        "import sys, negir.evalkit; "
        "print(sorted({'negir.querygen', 'negir.negation'} & set(sys.modules)))"
    )
    child = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    assert child.stdout == "[]\n"


def test_run_refuses_an_index_built_with_another_lexicon_or_stopwords(workspace, capsys):
    lexicon = workspace / "lex.txt"
    lexicon.write_text("[pre]\nno\ndenies\n[term]\nbut\n", encoding="utf-8")
    snapshot = workspace / "index.ngir"
    index = ("index", "--collection", workspace / "docs.jsonl", "--out", snapshot)
    assert run_cli(*index, "--lexicon", lexicon) == 0
    out = workspace / "r.run"
    run = ("run", "--index", snapshot, "--topics", workspace / "topics.jsonl",
           "--strategy", "baseline", "--out", out)
    capsys.readouterr()
    assert run_cli(*run) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"negir: {snapshot}: the index was built with another lexicon ")
    assert "than the shipped lexicon" in err
    assert not out.exists()
    # The same phrases, in another order and with comments, are the same lexicon.
    same = workspace / "same.txt"
    same.write_text("# a copy\n[term]\nbut\n[pre]\ndenies\nno\n", encoding="utf-8")
    assert run_cli(*run, "--lexicon", same) == 0
    stopwords = workspace / "stop.txt"
    stopwords.write_text("the\nand\n", encoding="utf-8")
    assert run_cli(*run, "--lexicon", lexicon, "--stopwords", stopwords) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"negir: {snapshot}: the index was built with another stopword list ")
    assert f"than {stopwords};" in err


def test_run_does_not_import_hashlib(workspace):
    # The snapshot's fingerprints are CRCs: importing hashlib would add
    # about 4 ms to each of the four runs of a pass.
    snapshot = build_snapshot(workspace)
    argv = ["run", "--index", str(snapshot), "--topics", str(workspace / "topics.jsonl"),
            "--strategy", "negation_tagging", "--out", str(workspace / "r.run")]
    code = f"import sys; from negir.cli import main; print(main({argv!r}), 'hashlib' in sys.modules)"
    src = str(Path(negir.__file__).parent.parent)
    child = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    assert child.stdout.splitlines()[-1] == "0 False"


def test_missing_file_exits_one(workspace, capsys):
    code = run_cli("eval", "--run", workspace / "absent.run", "--qrels", workspace / "qrels.txt")
    assert code == 1
    assert capsys.readouterr().err.strip()


@pytest.mark.parametrize("parent, error", [("missing", errno.ENOENT), ("a-file", errno.ENOTDIR)])
@pytest.mark.parametrize("command", ["index", "run"])
def test_a_failed_write_names_out(workspace, capsys, command, parent, error):
    # Not the temp file next to --out, whose name holds the process id.
    snapshot = build_snapshot(workspace)
    (workspace / "a-file").write_text("", encoding="utf-8")
    out = workspace / parent / "x.out"
    argv = {
        "index": ["index", "--collection", workspace / "docs.jsonl"],
        "run": ["run", "--index", snapshot, "--topics", workspace / "topics.jsonl",
                "--strategy", "baseline"],
    }[command]
    capsys.readouterr()
    assert run_cli(*argv, "--out", out) == 1
    assert capsys.readouterr().err == f"negir: {out}: {os.strerror(error)}\n"
    assert not [p for p in workspace.rglob("*") if p.name.endswith(".tmp")]


needs_dev_full = pytest.mark.skipif(
    not os.path.exists("/dev/full"), reason="the platform has no /dev/full"
)


@needs_dev_full
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("target", ["device", "symlink", "stdout", "summary"])
@pytest.mark.parametrize("command", ["index", "run"])
def test_a_failed_write_in_place_names_out(workspace, command, target, unbuffered):
    # A device, a symlink and standard output are written in place, not
    # through a temp file; a write there that fails names the file as
    # given, and standard output as "-" where the summary printed to it
    # fails. Each in a child process whose standard output is /dev/full
    # where the target is standard output.
    argv = command_argv(workspace, command)
    (workspace / "full").symlink_to("/dev/full")
    out = {"device": "/dev/full", "symlink": workspace / "full", "stdout": "/dev/stdout",
           "summary": workspace / "x.out"}[target]
    with open("/dev/full", "wb") as full:
        child = negir_child(
            [*argv, "--out", out], workspace, unbuffered,
            stdout=full if target in ("stdout", "summary") else subprocess.PIPE,
        )
    shown = "-" if target == "summary" else out
    assert child.stderr.decode() == f"negir: {shown}: {os.strerror(errno.ENOSPC)}\n"
    assert child.returncode == 1
    assert not [p for p in workspace.rglob("*") if p.name.endswith(".tmp")]


@needs_dev_full
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["--version"], ["--help"], ["bundle", "--help"], ["detect", "--text", "no fever"],
], ids=" ".join)
def test_a_failed_write_of_help_or_version_names_stdout(workspace, argv, unbuffered):
    # argparse drops a failed write of its help and version text; these
    # fail as the output of any command does, standard output named "-".
    with open("/dev/full", "wb") as full:
        child = negir_child(argv, workspace, unbuffered, stdout=full)
    assert child.stderr.decode() == f"negir: -: {os.strerror(errno.ENOSPC)}\n"
    assert child.returncode == 1


def command_argv(workspace, command):
    """The arguments of ``index`` or ``run`` on the workspace's inputs,
    all but ``--out``; ``run`` reads a snapshot built for it."""
    if command == "index":
        return ["index", "--collection", workspace / "docs.jsonl"]
    return ["run", "--index", build_snapshot(workspace), "--topics", workspace / "topics.jsonl",
            "--strategy", "baseline"]


def negir_child(argv, cwd, unbuffered=False, **kwargs):
    """Run negir with ``argv`` in a child process from this tree's
    source, standard output buffered unless ``unbuffered``; stderr is
    captured, and ``kwargs`` go to ``subprocess.run``."""
    src = str(Path(negir.__file__).parent.parent)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "negir.cli", *map(str, argv)],
        stderr=subprocess.PIPE, env=env, cwd=cwd, **kwargs,
    )


@pytest.mark.parametrize("command", ["index", "run"])
def test_a_closed_stdout_prints_nothing_and_succeeds(workspace, command):
    # With standard output closed when negir starts, sys.stdout is None:
    # the summary goes nowhere, and the command writes --out and exits 0.
    out = workspace / "x.out"
    child = negir_child(
        [*command_argv(workspace, command), "--out", out], workspace,
        preexec_fn=lambda: os.close(1),
    )
    assert child.stderr.decode() == ""
    assert child.returncode == 0
    assert out.stat().st_size > 0


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
        (["run", "--tag", "my tag"], "run tag 'my tag' is empty or contains whitespace"),
        (["run", "--tag", ""], "run tag '' is empty or contains whitespace"),
        (["run", "--tag", "\u2003"], r"run tag '\u2003' is empty or contains whitespace"),
        # The byte 0xff of a non-UTF-8 argument comes in as the lone surrogate "\udcff".
        (["run", "--tag", "\udcff"], r"run tag '\udcff' cannot be encoded as UTF-8"),
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

DEEP = b"[" * 100_000 + b"]" * 100_000  # nested deeper than the JSON decoder can go

SNAPSHOT_HEAD = b"NGIR1" + struct.pack("<BddII", 10, 1.2, 0.75, 0, 0)
SNAPSHOT_HEADER = SNAPSHOT_HEAD + struct.pack("<I", zlib.crc32(SNAPSHOT_HEAD))

# case: (input kind, file name, content, line named in the error or None)
BAD_INPUTS = {
    "jsonl doc_id repeated": (
        "collection", "docs.jsonl", _jsonl({"doc_id": "d1"}, {"doc_id": "d1"}), 2),
    "trec-text doc_id repeated": (
        "trec-text", "docs.trec",
        b"<DOC>\n<DOCNO>d1</DOCNO>\n<TEXT>x</TEXT>\n</DOC>\n<DOC>\n<DOCNO>d1</DOCNO>\n</DOC>\n", 6),
    "trec-text second DOCNO in a block": (
        "trec-text", "docs.trec", b"<DOC>\n<DOCNO>d1</DOCNO>\n<DOCNO>d2</DOCNO>\n</DOC>\n", 3),
    # A field left open must not lose its text to the next tag or block.
    "trec-text tag opened inside a field": (
        "trec-text", "docs.trec",
        b"<DOC>\n<DOCNO>d1</DOCNO>\n<TITLE>Case one\n<TEXT>No fever. Chest pain.</TEXT>\n</DOC>\n",
        4),
    "trec-text field open at </DOC>": (
        "trec-text", "docs.trec", b"<DOC>\n<DOCNO>d1</DOCNO>\n<TEXT>Cough and fever.\n</DOC>\n", 4),
    "trec-text <DOC> inside a block": (
        "trec-text", "docs.trec",
        b"<DOC>\n<DOCNO>d1</DOCNO>\n<TEXT>Cough.\n<DOC>\n<DOCNO>d2</DOCNO>\n</DOC>\n", 4),
    # The line named is that of the <DOC> left open.
    "trec-text last block unterminated": (
        "trec-text", "docs.trec",
        b"<DOC>\n<DOCNO>d1</DOCNO>\n</DOC>\n<DOC>\n<DOCNO>d2</DOCNO>\n<TEXT>Cough.</TEXT>\n", 4),
    "plain-dir doc_id repeated": ("plain-dir", "a.txt", b"text", None),
    "jsonl topic_id repeated": ("topics", "topics.jsonl", _jsonl(TOPIC, TOPIC), 2),
    # An object that sets a key twice, at any depth, in any JSON input.
    "jsonl doc_id set twice": (
        "collection", "docs.jsonl", b'{"doc_id": "a", "doc_id": "b", "body": "chest pain"}\n', 1),
    "topic description set twice": (
        "topics", "topics.jsonl",
        _jsonl(TOPIC) + b'{"topic_id": "2", "description": "no fever", "description": "fever"}\n',
        2),
    "sidecar object in a stratum": (
        "sidecar", "s.json", b'{"1": [["d1", "d3", {"": 1}], ["d2"]]}', None),
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
    "config key repeated": ("config", "negir.conf", b"k = 5\n# again\nk = 7\n", 3),
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
    "collection nested too deeply": (
        "collection", "docs.jsonl", b'{"doc_id": "a", "body": ' + DEEP + b"}\n", 1),
    "sidecar nested too deeply": ("sidecar", "s.json", b'{"1": ' + DEEP + b"}", None),
    "doc_id of 5,000 digits": (
        "collection", "docs.jsonl", b'{"doc_id": ' + b"9" * 5000 + b"}\n", 1),
    "topic_id of 5,000 digits": (
        "topics", "topics.jsonl", b'{"topic_id": ' + b"9" * 5000 + b', "description": "x"}\n', 1),
    "doc_id null": (
        "collection", "docs.jsonl", _jsonl({"doc_id": "d1"}, {"doc_id": None, "body": "rash"}), 2),
    "doc_id a list": (
        "collection", "docs.jsonl", _jsonl({"doc_id": ["a"], "title": {"k": 1}, "body": "rash"}), 1),
    "doc_id true": ("collection", "docs.jsonl", _jsonl({"doc_id": True, "body": 5}), 1),
    "title an object": (
        "collection", "docs.jsonl", _jsonl({"doc_id": "a", "title": {"k": 1}, "body": "rash"}), 1),
    "body a number": ("collection", "docs.jsonl", _jsonl({"doc_id": 7, "body": 5}), 1),
    "description a list": (
        "topics", "topics.jsonl", _jsonl(TOPIC, {"topic_id": "2", "description": ["no", "fever"]}),
        2),
    # A lone surrogate, from a JSON escape or a file name that is not
    # UTF-8, is an id that no snapshot or run file could hold.
    "doc_id a lone surrogate": (
        "collection", "docs.jsonl", _jsonl({"doc_id": "d1"}, {"doc_id": "d\udc80"}), 2),
    "topic_id a lone surrogate": (
        "topics", "topics.jsonl", _jsonl(TOPIC, {"topic_id": "\ud800", "description": "x"}), 2),
    "plain-dir file name not UTF-8": ("plain-dir", "d\udcff.txt", b"text", None),
    # A snapshot's deflated document table: more inflation stated than
    # DEFLATE can give, a corrupt stream, fewer bytes than stated.
    "snapshot inflated over 1032:1": (
        "snapshot", "x.ngir", SNAPSHOT_HEADER + deflate_part(b"", stream=b"\x03\x00", inflated=2065),
        None),
    "snapshot stream corrupt": (
        "snapshot", "x.ngir", SNAPSHOT_HEADER + deflate_part(b"x", stream=b"\xff"), None),
    "snapshot inflates short": (
        "snapshot", "x.ngir", SNAPSHOT_HEADER + deflate_part(b"x", inflated=2), None),
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
        "snapshot": ["run", "--index", bad, "--topics", workspace / "topics.jsonl",
                     "--strategy", "baseline", "--out", out],
    }[kind]
    # The captured stderr is strict UTF-8, unlike the interpreter's own:
    # main must escape a file name that is not UTF-8 itself.
    capsys.readouterr()
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    shown = str(bad).encode("utf-8", "backslashreplace").decode("utf-8")
    location = f"{shown}:" if line is None else f"{shown}:{line}:"
    assert err.startswith(f"negir: {location} "), err
    assert "Traceback" not in err
    assert not out.exists()


NOT_UTF8 = os.fsdecode(b"\xff")  # a file name byte that UTF-8 cannot decode

needs_utf8_file_names = pytest.mark.skipif(
    sys.getfilesystemencoding() != "utf-8" or os.name == "nt",
    reason="file names are not bytes decoded as UTF-8 here",
)


def escaped(text):
    """``text`` as a strict UTF-8 stream shows it: lone surrogates escaped."""
    return text.encode("utf-8", "backslashreplace")


@needs_utf8_file_names
@pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
@pytest.mark.parametrize("command", ["index", "run", "compare-groups"])
def test_a_name_that_is_not_utf8_prints_as_stdout_can(workspace, command, errors):
    # stdout is strict UTF-8 under any UTF-8 locale but C and POSIX, which
    # write the name's own bytes back, as they always did.
    snapshot = build_snapshot(workspace)
    base = workspace / "base.run"
    assert run_cli("run", "--index", snapshot, "--topics", workspace / "topics.jsonl",
                   "--strategy", "baseline", "--out", base) == 0
    out = workspace / f"out{NOT_UTF8}"
    argv = {
        "index": ["index", "--collection", workspace / "docs.jsonl", "--out", out],
        "run": ["run", "--index", snapshot, "--topics", workspace / "topics.jsonl",
                "--strategy", "baseline", "--out", out],
        "compare-groups": ["compare-groups", "--topics", workspace / "topics.jsonl",
                           "--qrels", workspace / "qrels.txt", "--baseline", base,
                           "--run", f"x{NOT_UTF8}={base}"],
    }[command]
    src = str(Path(negir.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": f"utf-8:{errors}"}
    child = subprocess.run(
        [sys.executable, "-m", "negir.cli", *map(str, argv)], capture_output=True, env=env
    )
    assert (child.returncode, child.stderr) == (0, b"")
    shown = escaped if errors == "strict" else os.fsencode
    if command == "compare-groups":
        assert shown(f"gap reduction P@10 [x{NOT_UTF8}]: ") in child.stdout
    else:
        summary = "indexed 4 documents" if command == "index" else "wrote 2 topics"
        assert child.stdout == shown(f"{summary} -> {out}\n")
        assert out.exists()


def test_digit_topic_ids_that_int_refuses_run_and_eval(workspace, capsys):
    # "²" is a digit to str.isdigit() but not to int(), and 5,000 digits
    # are over int()'s limit: ids of ASCII digits come first, in numeric
    # order, and the others follow as strings.
    long_id = "9" * 5000
    topics = workspace / "digits.jsonl"
    topics.write_bytes(_jsonl(
        {"topic_id": "²", "description": "fever rash"},
        {"topic_id": long_id, "description": "chest pain"},
        {"topic_id": "10", "description": "smoking"},
    ))
    qrels = workspace / "digits.qrels"
    qrels.write_text(f"² 0 d-fever 1\n{long_id} 0 d-chest 1\n10 0 d-smoke 1\n", encoding="utf-8")
    run_file = workspace / "digits.run"
    snapshot = build_snapshot(workspace)
    assert run_cli(
        "run", "--index", snapshot, "--topics", topics, "--strategy", "baseline",
        "--out", run_file,
    ) == 0
    lines = run_file.read_text(encoding="utf-8").splitlines()
    assert list(dict.fromkeys(line.split()[0] for line in lines)) == ["10", long_id, "²"]
    capsys.readouterr()
    assert run_cli("eval", "--run", run_file, "--qrels", qrels, "--json") == 0
    per_topic = json.loads(capsys.readouterr().out)["per_topic"]
    assert {topic_id: m["p_at_10"] for topic_id, m in per_topic.items()} == {
        "10": 0.1, long_id: 0.1, "²": 0.1
    }


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


def test_config_key_set_twice_rejected(workspace, capsys):
    # Otherwise the second value would win unseen.
    config = workspace / "negir.conf"
    config.write_text("k = 5\nk = 7\n", encoding="utf-8")
    argv = ["eval", "--run", workspace / "r.run", "--qrels", workspace / "qrels.txt"]
    assert run_cli(*argv, "--config", config) == 1
    assert capsys.readouterr().err == f"negir: {config}:2: duplicate config key: 'k'\n"


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
        (nan_k1, "k1 must be a finite number >= 0, got nan"),
        (data[:5] + b"\x02" + data[6:], "unsupported snapshot version 2; rebuild the index"),
        (data[:5] + b"\x06" + data[6:], "unsupported snapshot version 6; rebuild the index"),
        (data[:5] + b"\x07" + data[6:], "unsupported snapshot version 7; rebuild the index"),
        (data[:5] + b"\x08" + data[6:], "unsupported snapshot version 8; rebuild the index"),
        (data[:5] + b"\x09" + data[6:], "unsupported snapshot version 9; rebuild the index"),
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


def test_long_doc_id_runs_through_index_run_and_eval(workspace, capsys):
    # A snapshot string has no length limit: a 70,000-byte doc_id comes
    # back from the snapshot into the run file, and eval reads it.
    long_id = "x" * 70_000
    docs = workspace / "long.jsonl"
    docs.write_text(json.dumps({"doc_id": long_id, "body": "fever rash"}) + "\n", encoding="utf-8")
    snapshot, run_file = workspace / "x.ngir", workspace / "long.run"
    qrels = workspace / "long.qrels"
    qrels.write_text(f"2 0 {long_id} 1\n", encoding="utf-8")
    assert run_cli("index", "--collection", docs, "--out", snapshot) == 0
    assert run_cli(
        "run", "--index", snapshot, "--topics", workspace / "topics.jsonl",
        "--strategy", "negation_tagging", "--out", run_file,
    ) == 0
    assert run_file.read_text(encoding="utf-8").split()[:3] == ["2", "Q0", long_id]
    capsys.readouterr()
    assert run_cli("eval", "--run", run_file, "--qrels", qrels, "--json") == 0
    assert json.loads(capsys.readouterr().out)["per_topic"]["2"]["p_at_10"] == 0.1


def test_run_refuses_a_damaged_postings_part_for_every_strategy(workspace, capsys):
    # Every strategy reads the one stored field, so a damaged byte in its
    # postings stops each of them, even where topics pick none of its terms.
    snapshot = build_snapshot(workspace)
    data = inflated(snapshot.read_bytes())
    flip = len(data) - 5  # the last tf, before the part's CRC
    snapshot.write_bytes(deflated(data[:flip] + bytes((data[flip] ^ 0xFF,)) + data[flip + 1:]))
    for strategy in ("baseline", "filtering", "score_combination", "negation_tagging"):
        out = workspace / f"{strategy}.run"
        capsys.readouterr()
        assert run_cli("run", "--index", snapshot, "--topics", workspace / "topics.jsonl",
                       "--strategy", strategy, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"negir: {snapshot}: corrupt snapshot: the field 'tagged' fails"), err
        assert not out.exists()


def with_document_table(data, edit):
    """The snapshot ``data`` with its document table's ids and lengths,
    as bytes, replaced by ``edit(ids, lengths)``, and the table's CRC
    recomputed, as a crafted file would have it. The lengths are those
    after the length column's width byte, which is kept."""
    data = inflated(data)
    start = HEADER_BYTES
    doc_count, id_bytes = struct.unpack_from("<II", data, start)
    ids_end = start + 8 + id_bytes
    width = data[ids_end]
    end = ids_end + 1 + width * doc_count
    ids, lengths = edit(data[start + 8:ids_end], data[ids_end + 1:end])
    table = struct.pack("<II", doc_count, len(ids)) + ids + bytes((width,)) + lengths
    return deflated(data[:start] + table + struct.pack("<I", zlib.crc32(table)) + data[end + 4:])


@pytest.mark.parametrize("edit, message", [
    # Documents shorter than their postings would have no length norm.
    (lambda ids, lengths: (ids, bytes(len(lengths))),
     r"^negir: {path}: corrupt snapshot: \d+ postings in documents of 0 terms in all\n$"),
    # A doc_id that a run line cannot hold would give a file eval refuses.
    (lambda ids, lengths: (ids.replace(b"d-clean", b"d clean"), lengths),
     r"^negir: {path}: doc_id 'd clean' is empty or contains whitespace\n$"),
    (lambda ids, lengths: (ids.replace(b"d-clean", b""), lengths),
     r"^negir: {path}: doc_id '' is empty or contains whitespace\n$"),
    (lambda ids, lengths: (ids.replace(b"d-smoke", "d\u2003smoke".encode()), lengths),
     r"^negir: {path}: doc_id 'd\\u2003smoke' is empty or contains whitespace\n$"),
])
def test_run_refuses_a_crafted_document_table(workspace, capsys, monkeypatch, edit, message):
    # Each fault is refused right after the load, naming the snapshot,
    # before any strategy scores a topic.
    snapshot = build_snapshot(workspace)
    snapshot.write_bytes(with_document_table(snapshot.read_bytes(), edit))

    def scored(*args):
        raise AssertionError("a refused snapshot was scored")

    monkeypatch.setattr("negir.cli.run_strategy", scored)
    out = workspace / "crafted.run"
    out.write_text("old contents\n", encoding="utf-8")
    for strategy in ("baseline", "filtering", "score_combination", "negation_tagging"):
        capsys.readouterr()
        assert run_cli("run", "--index", snapshot, "--topics", workspace / "topics.jsonl",
                       "--strategy", strategy, "--out", out) == 1
        err = capsys.readouterr().err
        assert re.match(message.format(path=re.escape(str(snapshot))), err), err
        assert out.read_text(encoding="utf-8") == "old contents\n"


def test_index_json_counts_each_field_terms(workspace, capsys):
    # d-clean's "no smoking history" tags both words, and "history" occurs
    # nowhere else: 14 plain terms, and 15 tagged ones, "[nx]smoking" and
    # "[nx]history" in place of "history".
    assert run_cli("index", "--collection", workspace / "docs.jsonl",
                   "--out", workspace / "index.ngir", "--json") == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["plain_terms"], summary["tagged_terms"]) == (14, 15)


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli("frobnicate")
    assert excinfo.value.code == 2


@pytest.mark.parametrize("argv", [
    ["detect", "--text", "no fever", "--config", "negir.conf"],
    ["detect", "--text", "no fever", "--json"],
    ["detect", "--text", "no fever", "--stopwords", "stop.txt"],
    ["bundle", "--topics", "topics.jsonl", "--config", "negir.conf"],
    ["bundle", "--topics", "topics.jsonl", "--json"],
])
def test_commands_take_no_option_they_would_ignore(capsys, argv):
    # detect and bundle always print JSON and read no settings; detect
    # removes no stopwords.
    with pytest.raises(SystemExit) as excinfo:
        run_cli(*argv)
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {argv[3]}" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli("--version")
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "negir 0.1.0" in out
    assert "negir-stopwords v1" in out
    assert "negir-lexicon v1" in out


def test_eval_per_topic_text_lines(tmp_path, capsys):
    # Topic 1 retrieves one of its two relevant documents, at rank 2;
    # topic 2 has judgments but no relevant document, and is flagged.
    qrels = tmp_path / "q.txt"
    qrels.write_text("1 0 d-a 1\n1 0 d-d 1\n2 0 d-b 0\n", encoding="utf-8")
    run_file = tmp_path / "r.run"
    run_file.write_text("1 Q0 d-c 1 2.0 t\n1 Q0 d-a 2 1.0 t\n2 Q0 d-b 1 1.0 t\n", encoding="utf-8")
    assert run_cli("eval", "--run", run_file, "--qrels", qrels, "--per-topic") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3:] == [
        "t           0.0500    0.1934    0.1250    0.2500",
        # P@10 1/10; NDCG (1/log2 3) / (1 + 1/log2 3); AP (1/2) / 2; R-prec 1/2.
        "       1  0.1000  0.3869  0.2500  0.5000",
        "       2  0.0000  0.0000  0.0000  0.0000  (no relevant docs)",
    ]


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
