"""End-to-end and per-layer benchmark of the negir CLI pipeline.

    python3 bench/run.py --workload rank --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout (it needs ``src/negir`` and
``tests/test_acceptance.py``); scratch files go to ``.bench_work/``. Each
workload's inputs come from ``bench/gen.py`` with the given seed. One
closed-loop client drives the shipped-default CLI sequence, one process
per command, each started after the previous one exits:

    index; run x 4 strategies; eval x 4 run files; compare-groups

With ``--trace 0`` the sequence repeats for ``--seconds``, and each
command's end-to-end time is its mean over the passes after the first.
With ``--trace 1`` the sequence runs in-process through
``negir.cli.main`` three times: an untimed warm-up, untraced, and traced
(see ``bench/spans.py``); the per-layer metrics come from the traced
pass. The outputs are checked
either way; the last line of standard output is one JSON object with the
results.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean, median

import checks
import gen
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
STOPWORDS = SRC / "negir" / "data" / "stopwords.txt"
WORK = ROOT / ".bench_work"

STRATEGIES = ("baseline", "filtering", "score_combination", "negation_tagging")
RUN_DEPTH = 1000       # --k of every negir run
ENTRY = "import sys; from negir.cli import main; sys.exit(main())"
SETUPS = 7             # set-up repetitions; setup_s is their median
ORACLE_TOPICS = 3      # topics checked against the brute-force oracle
DEADLINE_S = 170.0     # the whole run, set-up and checks included
PLANTED_BETA = "1.5"   # criterion 8 of the acceptance suite fixes beta
RSS_COMMANDS = ("index", "run")  # commands whose peak RSS is reported


class Ledger:
    """Operations attempted and failed, with the failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, failures: list[str]) -> bool:
        self.attempted += 1
        self.failed += bool(failures)
        self.failures.extend(failures)
        return not failures


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Inputs and the command sequence
# ---------------------------------------------------------------------------


def pipeline(inputs: Path, out: Path) -> list[tuple[str, str, list[str]]]:
    """The CLI sequence as (command, label, argv) triples."""
    snapshot = out / "index.ngir"
    runs = {s: out / f"{s}.run" for s in STRATEGIES}
    sampling = inputs / "sampling.json"
    steps = [("index", "index", ["index", "--collection", str(inputs / "collection.jsonl"),
                                  "--out", str(snapshot), "--json"])]
    for s in STRATEGIES:
        steps.append(("run", s, ["run", "--index", str(snapshot),
                                 "--topics", str(inputs / "topics.jsonl"), "--strategy", s,
                                 "--k", str(RUN_DEPTH), "--out", str(runs[s]),
                                 "--tag", s]))
    for s in STRATEGIES:
        argv = ["eval", "--run", str(runs[s]), "--qrels", str(inputs / "qrels.txt"), "--json"]
        if sampling.exists():
            argv += ["--sampling", str(sampling)]
        steps.append(("eval", s, argv))
    argv = ["compare-groups", "--topics", str(inputs / "topics.jsonl"),
            "--qrels", str(inputs / "qrels.txt"), "--baseline", str(runs["baseline"]), "--json"]
    for s in STRATEGIES[1:]:
        argv += ["--run", f"{s}={runs[s]}"]
    steps.append(("compare-groups", "compare-groups", argv))
    return steps


def check_output(command: str, label: str, code: int, stdout: str, truth: dict,
                 out: Path, qrels_topics: int) -> list[str]:
    """What a successful command must have printed or written."""
    if code != 0:
        return [f"{label}: exit code {code}"]
    try:
        if command == "index":
            report = json.loads(stdout)
            if report["documents"] != truth["documents"]:
                return [f"index: {report['documents']} documents, expected {truth['documents']}"]
        elif command == "run":
            if not (out / f"{label}.run").is_file():
                return [f"run {label}: no run file"]
        elif command == "eval":
            report = json.loads(stdout)
            if report["num_topics"] != qrels_topics:
                return [f"eval {label}: {report['num_topics']} topics, expected {qrels_topics}"]
        else:
            report = json.loads(stdout)
            if (sorted(report["d_plus_topics"]) != sorted(truth["d_plus"])
                    or sorted(report["d_minus_topics"]) != sorted(truth["d_minus"])):
                return ["compare-groups: D+/D- split differs from the generated topics"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{label}: unreadable output ({exc!r})"]
    return []


def set_up(workload: str, seed: int, inputs: Path, ledger: Ledger, launcher: Launcher) -> list[float]:
    """Generate the inputs SETUPS times (checking they are byte-identical)
    and warm the interpreter; returns each set-up's wall time."""
    times, digests = [], set()
    for _ in range(SETUPS):
        start = time.perf_counter()
        generated, _, _ = launcher.run(
            [sys.executable, str(BENCH / "gen.py"), "--workload", workload,
             "--seed", str(seed), "--out", str(inputs)], WORK / "gen.out")
        code, _, _ = launcher.negir(["--version"], WORK / "version.out")
        times.append(time.perf_counter() - start)
        ledger.check([] if generated == 0 else [f"generator: exit code {generated}"])
        ledger.check([] if code == 0 else [f"negir --version: exit code {code}"])
        digests.add(tuple(sha256(p) for p in sorted(inputs.iterdir())))
    ledger.check([] if len(digests) == 1 else ["generator: same seed gave different files"])
    return times


# ---------------------------------------------------------------------------
# Untraced run: one child process per command
# ---------------------------------------------------------------------------


class Launcher:
    """Starts commands through ``bench/launcher.py``, one at a time, and
    reads back each one's (exit code, wall s, peak RSS MiB).

    Peak RSS comes from ``os.wait4`` on that command alone
    (RUSAGE_CHILDREN would be a running maximum over every child so far).
    Started from this process, a command's reading could not go below this
    process's own peak (see the launcher's docstring); ``floor_mb`` is the
    reading of an empty Python program, the floor under every reading,
    which ``untraced_rep`` checks each negir reading against. A command
    still running at ``deadline`` is killed."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.proc = subprocess.Popen([sys.executable, "-S", str(BENCH / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=env, cwd=ROOT)
        try:
            self.floor_mb = self.run([sys.executable, "-S", "-c", ""], WORK / "floor.out")[2]
        except BaseException:
            self.close()
            raise

    def run(self, argv: list[str], stdout_path: Path) -> tuple[int, float, float]:
        timeout = max(1.0, self.deadline - time.monotonic())
        self.proc.stdin.write("\t".join([repr(timeout), str(stdout_path), *argv]) + "\n")
        self.proc.stdin.flush()
        code, wall, peak = self.proc.stdout.readline().split("\t")
        return int(code), float(wall), int(peak) / 1024.0

    def negir(self, argv: list[str], stdout_path: Path) -> tuple[int, float, float]:
        return self.run([sys.executable, "-c", ENTRY, *argv], stdout_path)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def untraced_rep(inputs, out, truth, qrels_topics, ledger, launcher) -> dict:
    """One pass of the CLI sequence; returns {(command, label): (wall s,
    peak RSS MiB)} for each of its commands."""
    steps = {}
    for command, label, argv in pipeline(inputs, out):
        stdout_path = out / f"{label}.{command}.out"
        code, wall, peak = launcher.negir(argv, stdout_path)
        stdout = stdout_path.read_text(encoding="utf-8", errors="replace")
        failures = check_output(command, label, code, stdout, truth, out, qrels_topics)
        if command in RSS_COMMANDS and peak <= launcher.floor_mb:
            failures.append(f"{label}: peak RSS {peak:.2f} MiB is not above the launcher's "
                            f"floor of {launcher.floor_mb:.2f} MiB, so it is not the command's")
        ledger.check(failures)
        steps[(command, label)] = (wall, peak)
    return steps


def end_to_end(reps: list[dict], setup_times: list[float], out: Path) -> tuple[dict, dict]:
    """End-to-end metrics as {name: (value, unit)}, and each command's mean
    wall time as {"command:label": s}.

    A command's time is its mean over the passes, and a group's time (the
    four runs, the four evals) the sum of its commands' times. The host
    this was tuned on changes speed by up to 2x within seconds, so the
    median of a run jumps between a fast and a slow cluster while the mean
    follows the share of time spent in each; the fastest pass depends on
    how fast the single best moment of the run was. Both spread more from
    run to run than the mean (see bench/README.md, Steadiness). Peak RSS
    does not depend on host speed and is the median over passes of the
    group's highest reading."""
    mean_s = {step: fmean(rep[step][0] for rep in reps) for step in reps[0]}

    def group_s(command):
        return sum(wall for (c, _), wall in mean_s.items() if c == command)

    def median_rss(command):
        return median(max(peak for (c, _), (_, peak) in rep.items() if c == command)
                      for rep in reps)

    times = {name: group_s(command) for name, command in (
        ("index_s", "index"), ("run_s", "run"), ("eval_s", "eval"),
        ("compare_groups_s", "compare-groups"))}
    snapshot = out / "index.ngir"
    metrics = {
        "setup_s": (median(setup_times), "s"),
        "index_s": (times["index_s"], "s"),
        "index_peak_rss_mb": (median_rss("index"), "MiB"),
        "snapshot_bytes": (float(snapshot.stat().st_size) if snapshot.exists() else 0.0, "bytes"),
        "run_s": (times["run_s"], "s"),
        "run_peak_rss_mb": (median_rss("run"), "MiB"),
        "eval_s": (times["eval_s"], "s"),
        "compare_groups_s": (times["compare_groups_s"], "s"),
        "pipeline_s": (sum(times.values()), "s"),
    }
    return metrics, {f"{c}:{label}": wall for (c, label), wall in mean_s.items()}


# ---------------------------------------------------------------------------
# In-process run (traced run and planted check)
# ---------------------------------------------------------------------------


def import_negir():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import negir.cli
    return negir.cli


def call_main(argv: list[str]) -> tuple[int, str]:
    """``negir.cli.main(argv)`` with its output captured."""
    cli = import_negir()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, stdout.getvalue()


def inprocess_rep(inputs, out, truth, qrels_topics, ledger, tracer=None) -> float:
    """One in-process pass of the CLI sequence; returns its wall time."""
    total = 0.0
    for command, label, argv in pipeline(inputs, out):
        start = time.perf_counter()
        if tracer is None:
            code, stdout = call_main(argv)
        else:
            with tracer.span(f"cli.{command}"):
                code, stdout = call_main(argv)
        total += time.perf_counter() - start
        ledger.check(check_output(command, label, code, stdout, truth, out, qrels_topics))
    return total


# ---------------------------------------------------------------------------
# Checks on the written outputs
# ---------------------------------------------------------------------------


def run_hashes(out: Path) -> dict[str, str]:
    return {s: sha256(out / f"{s}.run") for s in STRATEGIES if (out / f"{s}.run").exists()}


def output_checks(inputs: Path, out: Path, truth: dict, ledger: Ledger) -> None:
    runs = {s: out / f"{s}.run" for s in STRATEGIES}
    if not all(path.exists() for path in runs.values()):
        ledger.check(["run files missing; output checks skipped"])
        return
    ledger.check(checks.negation_free_identical(runs, truth["d_plus"]))
    topic_ids = sorted(truth["query_terms"], key=int)[:ORACLE_TOPICS]
    ledger.check(checks.oracle_top10(inputs / "collection.jsonl", STOPWORDS,
                                     truth["query_terms"], runs["baseline"], topic_ids))


def planted_check(ledger: Ledger) -> dict[str, float]:
    """Criterion 8's planted corpus through the CLI; returns D- P@10."""
    planted = WORK / "planted"
    import_negir()  # the acceptance module imports negir
    try:
        checks.write_planted_inputs(ACCEPTANCE, planted)
    except (ImportError, AttributeError, OSError) as exc:
        ledger.check([f"planted: cannot build the corpus ({exc!r})"])
        return {}
    snapshot = planted / "index.ngir"
    steps = [["index", "--collection", str(planted / "collection.jsonl"), "--out", str(snapshot)]]
    for s in STRATEGIES:
        argv = ["run", "--index", str(snapshot), "--topics", str(planted / "topics.jsonl"),
                "--strategy", s, "--k", "100", "--out", str(planted / f"{s}.run"), "--tag", s]
        steps.append(argv + (["--beta", PLANTED_BETA] if s == "score_combination" else []))
    argv = ["compare-groups", "--topics", str(planted / "topics.jsonl"),
            "--qrels", str(planted / "qrels.txt"),
            "--baseline", str(planted / "baseline.run"), "--json"]
    for s in STRATEGIES[1:]:
        argv += ["--run", f"{s}={planted / f'{s}.run'}"]
    steps.append(argv)
    stdout = ""
    for argv in steps:
        code, stdout = call_main(argv)
        if not ledger.check([] if code == 0 else [f"planted {argv[0]}: exit code {code}"]):
            return {}
    try:
        p10, failures = checks.planted_ordering(json.loads(stdout))
    except (ValueError, KeyError) as exc:
        p10, failures = {}, [f"planted: unreadable compare-groups output ({exc!r})"]
    ledger.check(failures)
    return p10


# ---------------------------------------------------------------------------
# Per-layer metrics from a traced pass
# ---------------------------------------------------------------------------


def _count(name, value_of):
    def hook(state, result, args, scored):
        state.counters[name] += value_of(result, args)
    return hook


def _sentences(state, result, args, scored):
    state.counters["corpus.sentences"] += len(result)
    state.counters["corpus.raw_tokens"] += sum(len(s.tokens) for s in result)


def _analysis(state, result, args, scored):
    for scope in result.scopes:
        state.counters[f"negation.scopes.{scope.kind}"] += 1
    state.counters["negation.tokens"] += len(result.tagged.tokens)
    state.counters["negation.negated_tokens"] += sum(1 for t in result.tagged.tokens if t.negated)


def _built(state, result, args, scored):
    state.counters["index.plain_terms"] = len(result.field("plain").postings)
    state.counters["index.tagged_terms"] = len(result.field("tagged").postings)


def _bundle(state, result, args, scored):
    state.counters["querygen.bundles"] += 1
    state.counters["querygen.n_full"] += result.n_full
    state.counters["querygen.n_neg"] += result.n_neg
    if result.n_neg > 0:
        state.sets["querygen.d_minus_topics"].add(result.topic_id)


def _ranked(state, result, args, scored):
    state.counters["ranking.returned"] += len(result)
    state.counters["ranking.scored"] += len(scored)


def _strategy_name(args):
    return f"ranking.run_strategy.{args[0].kind}"


# (module, attribute looked up by the caller, span name, kind, hook)
TARGETS = (
    ("negir.cli", "load_collection", "corpus.load_collection", "iter",
     _count("corpus.docs", lambda result, args: 1)),
    ("negir.negation", "split_sentences", "corpus.split_sentences", "span", _sentences),
    ("negir.cli", "analyze_text", "negation.analyze_text", "span", _analysis),
    ("negir.querygen", "analyze_text", "negation.analyze_text", "span", _analysis),
    ("negir.negation", "detect_all", "negation.detect_all", "span", None),
    ("negir.negation", "tag_tokens", "negation.tag_tokens", "span", None),
    ("negir.cli", "build_index", "index.build_index", "span", _built),
    ("negir.cli", "save_index", "index.save_index", "span", None),
    ("negir.cli", "load_index", "index.load_index", "span",
     _count("index.load_index.bytes", lambda result, args: os.path.getsize(args[0]))),
    ("negir.ranking", "bm25_score", "index.bm25_score", "leaf", 3),
    ("negir.ranking", "matching_doc_ids", "index.matching_doc_ids", "leaf", None),
    ("negir.cli", "build_bundle", "querygen.build_bundle", "span", _bundle),
    ("negir.cli", "run_strategy", _strategy_name, "strategy", _ranked),
    ("negir.cli", "write_run", "evalkit.write_run", "span", None),
    ("negir.cli", "read_run", "evalkit.read_run", "span",
     _count("evalkit.read_run.lines", lambda result, args: sum(map(len, result.topics.values())))),
    ("negir.cli", "read_qrels", "evalkit.read_qrels", "span", None),
    ("negir.cli", "evaluate", "evalkit.evaluate", "span", None),
    ("negir.evalkit", "evaluate", "evalkit.evaluate", "span", None),
    ("negir.evalkit", "inf_ap", "evalkit.inf_ap", "span", None),
    ("negir.cli", "group_analysis", "evalkit.group_analysis", "span", None),
)

# The layers are negir's modules; each span name starts with its module.
LAYER_NAMES = ("cli", "corpus", "negation", "querygen", "index", "ranking", "evalkit")
COMMANDS = ("index", "run", "eval", "compare-groups")


def tail(durations: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and its
    value; with ten samples or fewer, the maximum (reported as 100)."""
    ordered = sorted(durations)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1] if ordered else 0.0
    return 100.0 * (n - 10) / n, ordered[n - 11]


def layer_metrics(tracer: Tracer, untraced_s: float, traced_s: float, startup_s: float) -> dict:
    """Per-layer metrics as {name: (value, unit)}."""
    durations: dict[str, list[float]] = {}
    cpu_by: dict[str, float] = {}
    for record in tracer.spans:
        durations.setdefault(record[0], []).append(record[3] - record[2])
        if record[5] is not None:
            cpu_by[record[0]] = cpu_by.get(record[0], 0.0) + record[5]
    self_by = tracer.attributed()
    leaves = tracer.leaves()
    counters = tracer.counters()
    m: dict[str, tuple[float, str]] = {}

    def s(name):
        return self_by.get(name, 0.0)

    def t(name):
        """Inclusive time: summed span durations, or a leaf's attributed time."""
        return sum(durations[name]) if name in durations else self_by.get(name, 0.0)

    m["corpus.load_collection.self_s"] = (s("corpus.load_collection"), "s")
    m["corpus.split_sentences.self_s"] = (s("corpus.split_sentences"), "s")
    for name in ("corpus.docs", "corpus.sentences", "corpus.raw_tokens"):
        m[name] = (counters.get(name, 0.0), "count")

    m["negation.analyze_text.self_s"] = (s("negation.analyze_text"), "s")
    m["negation.detect_all.self_s"] = (s("negation.detect_all"), "s")
    m["negation.tag_tokens.self_s"] = (s("negation.tag_tokens"), "s")
    m["negation.scopes.pre"] = (counters.get("negation.scopes.pre", 0.0), "count")
    m["negation.scopes.post"] = (counters.get("negation.scopes.post", 0.0), "count")
    tokens = counters.get("negation.tokens", 0.0)
    m["negation.negated_token_frac"] = (
        counters.get("negation.negated_tokens", 0.0) / tokens if tokens else 0.0, "ratio")

    m["index.build_index.self_s"] = (s("index.build_index"), "s")
    m["index.save_index.total_s"] = (t("index.save_index"), "s")
    m["index.plain_terms"] = (counters.get("index.plain_terms", 0.0), "count")
    m["index.tagged_terms"] = (counters.get("index.tagged_terms", 0.0), "count")
    load_s = t("index.load_index")
    m["index.load_index.total_s"] = (load_s, "s")
    m["index.load_index.calls"] = (float(len(durations.get("index.load_index", []))), "count")
    m["index.load_index.mb_per_s"] = (
        counters.get("index.load_index.bytes", 0.0) / 2**20 / load_s if load_s else 0.0, "MiB/s")
    m["index.bm25_score.calls"] = (
        float(leaves["index.bm25_score"][0]) if "index.bm25_score" in leaves else 0.0, "count")
    m["index.bm25_score.total_s"] = (t("index.bm25_score"), "s")
    m["index.matching_doc_ids.total_s"] = (t("index.matching_doc_ids"), "s")

    bundles = counters.get("querygen.bundles", 0.0)
    m["querygen.build_bundle.self_s"] = (s("querygen.build_bundle"), "s")
    m["querygen.n_full.mean"] = (counters.get("querygen.n_full", 0.0) / bundles if bundles else 0.0, "count")
    m["querygen.n_neg.mean"] = (counters.get("querygen.n_neg", 0.0) / bundles if bundles else 0.0, "count")
    m["querygen.d_minus_topics"] = (counters.get("querygen.d_minus_topics", 0.0), "count")

    for strategy in STRATEGIES:
        name = f"ranking.run_strategy.{strategy}"
        samples = durations.get(name, [])
        pct, value = tail(samples)
        m[f"{name}.self_s"] = (s(name), "s")
        m[f"{name}.p50_ms"] = (1000.0 * median(samples) if samples else 0.0, "ms")
        m[f"{name}.tail_ms"] = (1000.0 * value, "ms")
        m[f"{name}.tail_pct"] = (pct, "%")
        m[f"{name}.samples"] = (float(len(samples)), "count")
        m[f"{name}.busy_s"] = (cpu_by.get(name, 0.0), "s")
        m[f"{name}.wait_s"] = (t(name) - cpu_by.get(name, 0.0), "s")
    scored = counters.get("ranking.scored", 0.0)
    m["ranking.returned_per_scored"] = (
        counters.get("ranking.returned", 0.0) / scored if scored else 0.0, "ratio")

    m["evalkit.write_run.total_s"] = (t("evalkit.write_run"), "s")
    m["evalkit.read_run.total_s"] = (t("evalkit.read_run"), "s")
    m["evalkit.read_run.lines"] = (counters.get("evalkit.read_run.lines", 0.0), "count")
    m["evalkit.read_qrels.total_s"] = (t("evalkit.read_qrels"), "s")
    m["evalkit.evaluate.self_s"] = (s("evalkit.evaluate"), "s")
    m["evalkit.inf_ap.total_s"] = (t("evalkit.inf_ap"), "s")
    m["evalkit.group_analysis.self_s"] = (s("evalkit.group_analysis"), "s")

    m["cli.startup_s"] = (startup_s, "s")
    for command in COMMANDS:
        m[f"cli.{command}.self_s"] = (s(f"cli.{command}"), "s")
    m["trace.pipeline_s"] = (traced_s, "s")
    m["trace.untraced_pipeline_s"] = (untraced_s, "s")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")

    m["trace.bookkeeping_s"] = (s("trace.bookkeeping"), "s")
    by_layer = dict.fromkeys(LAYER_NAMES, 0.0)
    for name, value in self_by.items():
        if name != "trace.bookkeeping":
            by_layer[name.split(".")[0]] += value
    for layer, value in by_layer.items():
        m[f"layer.{layer}.self_s"] = (value, "s")
        m[f"layer.{layer}.share"] = (value / traced_s if traced_s else 0.0, "ratio")
    return m


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="negir CLI pipeline benchmark")
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    if not (SRC / "negir" / "cli.py").is_file() or not ACCEPTANCE.is_file():
        print(f"bench: {ROOT} is not a negir source checkout "
              "(src/negir and tests/test_acceptance.py are needed)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    inputs = WORK / args.workload / "inputs"
    out = WORK / args.workload / "out"
    out.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()

    # Every child process is started by the launcher, which this closes
    # (and waits for) on the way out.
    launcher = Launcher(deadline)
    try:
        setup_times = set_up(args.workload, args.seed, inputs, ledger, launcher)
        truth = json.loads((inputs / "truth.json").read_text(encoding="utf-8"))
        truth["documents"] = gen.SHAPES[args.workload].docs
        qrels_topics = len({line.split()[0] for line in
                            (inputs / "qrels.txt").read_text(encoding="utf-8").splitlines() if line})
        budget = min(args.seconds, deadline - time.monotonic() - 60.0)

        hashes: list[dict[str, str]] = []
        pass_walls: list[float] = []
        if args.trace == 0:
            reps: list[dict] = []
            start = time.perf_counter()
            # An untimed first pass: it finds colder caches than the later
            # ones and took 8-16% longer than their mean.
            untraced_rep(inputs, out, truth, qrels_topics, ledger, launcher)
            hashes.append(run_hashes(out))
            while True:
                rep_start = time.perf_counter()
                reps.append(untraced_rep(inputs, out, truth, qrels_topics,
                                         ledger, launcher))
                hashes.append(run_hashes(out))
                now = time.perf_counter()
                pass_walls.append(now - rep_start)
                # Start another pass only if it should end within the budget.
                if now - start + (now - rep_start) > budget:
                    break
            metrics, mean_s = end_to_end(reps, setup_times, out)
            samples = {f"{c}:{label}": [rep[(c, label)][0] for rep in reps] for c, label in reps[0]}
        else:
            startup_s = median(launcher.negir(["--version"], WORK / "version.out")[1]
                               for _ in range(SETUPS))
            # An untimed pass first pays for imports and first-use data loading,
            # which would otherwise fall on the untraced pass alone and make
            # trace.overhead_s read low.
            inprocess_rep(inputs, out, truth, qrels_topics, ledger)
            untraced_s = inprocess_rep(inputs, out, truth, qrels_topics, ledger)
            hashes.append(run_hashes(out))
            tracer = Tracer()
            tracer.install(TARGETS)
            try:
                traced_s = inprocess_rep(inputs, out, truth, qrels_topics,
                                         ledger, tracer)
            finally:
                tracer.uninstall()
            hashes.append(run_hashes(out))
            tracer.write(WORK / args.workload / "spans.jsonl")
            metrics = layer_metrics(tracer, untraced_s, traced_s, startup_s)
            mean_s, samples = {}, {}
            pass_walls.append(traced_s)
            if tracer.absent:
                print(f"bench: wrap targets absent at this commit: {', '.join(tracer.absent)}")
            hook_errors = tracer.hook_errors()
            if hook_errors:
                # The result of a wrapped function changed shape: the counts its
                # hook feeds read low or 0.
                print("bench: hooks failed at this commit, their counts are incomplete: "
                      + ", ".join(f"{name} ({error} x {n})"
                                  for (name, error), n in sorted(hook_errors.items())))
    finally:
        launcher.close()

    ledger.check([] if all(h == hashes[0] for h in hashes) else
                 ["run files differ between repetitions"])
    output_checks(inputs, out, truth, ledger)
    planted_p10 = planted_check(ledger)

    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>16.6f} {unit}")
    failed = ledger.failed
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "pass_wall_s": pass_walls,
        "samples_s": samples,
        "mean_s": mean_s,
        "run_sha256": hashes[0],
        "snapshot_sha256": sha256(out / "index.ngir") if (out / "index.ngir").exists() else None,
        "planted_d_minus_p10": planted_p10,
        "ops_failed_frac": failed / ledger.attempted,
        "failures": ledger.failures,
    }, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
