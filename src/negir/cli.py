"""Command-line entry point.

Subcommands cover the whole experiment pipeline: ``index`` a collection,
``detect`` negation scopes in text, ``bundle`` the query variants of a
topic file, ``run`` a ranking strategy into a TREC run file, ``eval`` a
run against qrels, and ``compare-groups`` to split topics by negation
content and report the early-precision gap.

A config file of ``key = value`` lines may set any numeric option; flags
win over the file, the merged settings are range-checked once, and the
effective configuration is echoed in every report header. All outputs
are deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .corpus import (
    COLLECTION_FORMATS,
    data_file_version,
    decode_text,
    default_stopwords,
    is_stdout,
    load_collection,
    load_stopwords,
    load_topics,
    packaged_data_path,
    read_lines,
    read_text,
    split_sentences,
)
from .errors import NegirError, ParseError
from .evalkit import (
    BASELINE,
    evaluate,
    format_table,
    group_analysis,
    read_qrels,
    read_run,
    read_sampling_sidecar,
    report_to_dict,
    write_run,
    RunResult,
)
from .index import DEFAULT_B, DEFAULT_K1, build_index, load_index, save_index
from .negation import (
    analyze_text,
    check_scope_window,
    default_lexicon,
    detect_negations,
    load_lexicon,
    scope_text,
)
from .querygen import build_bundle
from .ranking import (
    DEFAULT_EXPANSION_WEIGHT,
    STRATEGY_KINDS,
    Strategy,
    run_strategy,
)


class Config(NamedTuple):
    k1: float = DEFAULT_K1
    b: float = DEFAULT_B
    expansion_weight: float = DEFAULT_EXPANSION_WEIGHT
    beta: float | None = None
    k: int = 1000
    ndcg_cutoff: int = 1000


def load_config(path: str | Path) -> dict:
    """Parse a key = value config file; '#' starts a comment line."""
    values: dict[str, object] = {}
    for lineno, line in read_lines(path, comments=True):
        if "=" not in line:
            raise ParseError("expected key = value", str(path), lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in Config._fields:
            raise ParseError(f"unknown config key {key!r}", str(path), lineno)
        try:
            values[key] = int(value) if key in ("k", "ndcg_cutoff") else float(value)
        except ValueError:
            raise ParseError(f"bad value for {key!r}", str(path), lineno) from None
    return values


def resolve_config(args: argparse.Namespace) -> Config:
    config = Config()
    if getattr(args, "config", None):
        config = config._replace(**load_config(args.config))
    flags = {name: getattr(args, name, None) for name in Config._fields}
    config = config._replace(**{name: value for name, value in flags.items() if value is not None})
    for name, valid, accepted in (
        ("k1", 0.0 <= config.k1 < math.inf, "a finite number >= 0"),
        ("b", 0.0 <= config.b <= 1.0, "a number in [0, 1]"),
        ("expansion_weight", 0.0 <= config.expansion_weight < math.inf,
         "a finite number >= 0"),
        ("beta", config.beta is None or math.isfinite(config.beta), "a finite number"),
        ("k", config.k >= 1, "an integer >= 1"),
        ("ndcg_cutoff", config.ndcg_cutoff >= 1, "an integer >= 1"),
    ):
        if not valid:
            raise NegirError(f"{name} must be {accepted}, got {getattr(config, name)!r}")
    return config


def _stopwords(args: argparse.Namespace) -> frozenset[str]:
    return load_stopwords(args.stopwords) if args.stopwords else default_stopwords()


def _lexicon(args: argparse.Namespace):
    return load_lexicon(args.lexicon) if args.lexicon else default_lexicon()


def _summary_stream(out: str):
    """Where a command reports on writing ``out``: stderr when ``out`` is
    standard output, so that stdout carries the output file alone."""
    return sys.stderr if is_stdout(out) else sys.stdout


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def cmd_index(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    stopwords = _stopwords(args)
    lexicon = _lexicon(args)

    def analyzed():
        for doc_id, text in load_collection(args.collection, args.format):
            analysis = analyze_text(text, stopwords, lexicon)
            yield doc_id, analysis.terms, analysis.tagged_terms

    index = build_index(analyzed(), k1=config.k1, b=config.b)
    summary_out = _summary_stream(args.out)
    save_index(index, args.out)
    summary = {
        "documents": index.doc_count,
        "plain_terms": len(index.field("plain").postings),
        "tagged_terms": len(index.field("tagged").postings),
        "k1": index.k1,
        "b": index.b,
        "snapshot": str(args.out),
    }
    if args.json:
        print(json.dumps(summary, sort_keys=True), file=summary_out)
    else:
        print(f"indexed {summary['documents']} documents -> {args.out}", file=summary_out)
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    check_scope_window(args.scope_window)  # also when the text has no sentence
    if args.text is not None:
        text = args.text
    elif args.input:
        text = read_text(args.input)
    else:
        text = decode_text(sys.stdin.buffer.read(), "<stdin>")
    lexicon = _lexicon(args)
    output = []
    for sentence in split_sentences(text):
        scopes = []
        for scope in detect_negations(sentence, lexicon, args.scope_window):
            scopes.append(
                {
                    "trigger": scope.trigger,
                    "kind": scope.kind,
                    "scope_text": scope_text(sentence, scope),
                }
            )
        output.append(
            {
                "sentence_index": sentence.sentence_index,
                "text": sentence.text.strip(),
                "scopes": scopes,
            }
        )
    print(json.dumps(output, indent=2))
    return 0


def cmd_bundle(args: argparse.Namespace) -> int:
    print(json.dumps([bundle._asdict() for bundle in _build_bundles(args)], indent=2))
    return 0


def _build_bundles(args: argparse.Namespace):
    stopwords = _stopwords(args)
    lexicon = _lexicon(args)
    return [
        build_bundle(topic, lexicon, stopwords) for topic in load_topics(args.topics)
    ]


def cmd_run(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    index = load_index(args.index)
    bundles = _build_bundles(args)
    strategy = Strategy(
        kind=args.strategy,
        beta_override=config.beta,
        expansion_weight=config.expansion_weight,
    )

    run = RunResult(run_tag=args.tag)
    for bundle in bundles:
        run.add_topic(bundle.topic_id, run_strategy(strategy, bundle, index, config.k))
    summary_out = _summary_stream(args.out)
    write_run(run, args.out)
    if args.json:
        print(
            json.dumps(
                {
                    "strategy": args.strategy,
                    "topics": len(run.topics),
                    "out": str(args.out),
                    "config": config._asdict(),
                },
                sort_keys=True,
            ),
            file=summary_out,
        )
    else:
        print(f"wrote {len(run.topics)} topics -> {args.out}", file=summary_out)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    run = read_run(args.run)
    qrels = read_qrels(args.qrels)
    sampling = read_sampling_sidecar(args.sampling, qrels) if args.sampling else None
    report = evaluate(run, qrels, ndcg_cutoff=config.ndcg_cutoff, sampling=sampling)
    if args.json:
        payload = report_to_dict(report)
        payload["config"] = config._asdict()
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(_config_header(config))
        print(format_table([(report.run_tag, report.aggregate())]))
        if args.per_topic:
            for topic_id, metrics in sorted(report.per_topic.items()):
                flag = "  (no relevant docs)" if metrics.no_relevant else ""
                values = "  ".join(f"{v:.4f}" for v in metrics.values())
                print(f"{topic_id:>8}  {values}{flag}")
    return 0


def cmd_compare_groups(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    bundles = _build_bundles(args)
    paths = {BASELINE: args.baseline}
    for entry in args.run or []:
        name, sep, path = (part.strip() for part in entry.partition("="))
        if not sep or not name:
            raise NegirError(f"--run expects name=path, got {entry!r}")
        if name in paths:
            taken = "--baseline" if name == BASELINE else "an earlier --run"
            raise NegirError(f"--run name {name!r} is already taken by {taken}")
        paths[name] = path
    runs = {name: read_run(path) for name, path in paths.items()}
    qrels = read_qrels(args.qrels)
    report = group_analysis(bundles, runs, qrels, ndcg_cutoff=config.ndcg_cutoff)

    if args.json:
        payload = {
            "config": config._asdict(),
            "d_plus_topics": sorted(report.d_plus_topics),
            "d_minus_topics": sorted(report.d_minus_topics),
            "groups": {
                name: {
                    group: report_to_dict(group_report)
                    for group, group_report in by_group.items()
                }
                for name, by_group in report.reports.items()
            },
            "gap_reduction_p10": report.gap_reduction_p10,
            "d_minus_improvement_p10": report.d_minus_improvement_p10,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    print(_config_header(config))
    print(
        f"groups: {len(report.d_plus_topics)} without negations, "
        f"{len(report.d_minus_topics)} with negations"
    )
    rows = []
    for name, by_group in report.reports.items():
        if name == BASELINE:
            rows.append((f"{name} D+", by_group["d_plus"].aggregate()))
        rows.append((f"{name} D-", by_group["d_minus"].aggregate()))
    print(format_table(rows))
    for name, value in report.gap_reduction_p10.items():
        shown = "undefined (no baseline gap)" if value is None else f"{value * 100:.1f}%"
        improvement = report.d_minus_improvement_p10[name]
        extra = "" if improvement is None else f" (D- P@10 {improvement * 100:+.1f}%)"
        print(f"gap reduction P@10 [{name}]: {shown}{extra}")
    return 0


def _config_header(config: Config) -> str:
    pairs = " ".join(f"{key}={value}" for key, value in config._asdict().items())
    return f"# config: {pairs}"


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _version_string() -> str:
    stopword_version = data_file_version(packaged_data_path("stopwords.txt"))
    lexicon_version = data_file_version(packaged_data_path("lexicon.txt"))
    return f"negir {__version__} ({stopword_version}; {lexicon_version})"


def _add_common(parser: argparse.ArgumentParser, *, data_files: bool = False) -> None:
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    if data_files:
        parser.add_argument("--stopwords", help="stopword file (default: shipped list)")
        parser.add_argument("--lexicon", help="trigger lexicon file (default: shipped list)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="negir", description="Negation-aware BM25 retrieval and evaluation."
    )
    parser.add_argument("--version", action="version", version=_version_string())
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="build an index snapshot from a collection")
    p_index.add_argument("--collection", required=True)
    p_index.add_argument("--format", choices=COLLECTION_FORMATS, default="jsonl")
    p_index.add_argument("--out", required=True)
    p_index.add_argument("--k1", type=float)
    p_index.add_argument("--b", type=float)
    _add_common(p_index, data_files=True)
    p_index.set_defaults(handler=cmd_index)

    p_detect = sub.add_parser("detect", help="show negation scopes in text")
    p_detect.add_argument("--text", help="text to analyze (default: stdin)")
    p_detect.add_argument("--input", help="file to analyze")
    p_detect.add_argument("--scope-window", type=int, dest="scope_window")
    _add_common(p_detect, data_files=True)
    p_detect.set_defaults(handler=cmd_detect)

    p_bundle = sub.add_parser("bundle", help="print the four query variants per topic")
    p_bundle.add_argument("--topics", required=True)
    _add_common(p_bundle, data_files=True)
    p_bundle.set_defaults(handler=cmd_bundle)

    p_run = sub.add_parser("run", help="rank topics with one strategy")
    p_run.add_argument("--index", required=True)
    p_run.add_argument("--topics", required=True)
    p_run.add_argument("--strategy", choices=STRATEGY_KINDS, required=True)
    p_run.add_argument("--beta", type=float, help="override the adaptive combination weight")
    p_run.add_argument("--expansion-weight", type=float, dest="expansion_weight")
    p_run.add_argument("--k", type=int)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--tag", default="negir")
    _add_common(p_run, data_files=True)
    p_run.set_defaults(handler=cmd_run)

    p_eval = sub.add_parser("eval", help="score a run file against qrels")
    p_eval.add_argument("--run", required=True)
    p_eval.add_argument("--qrels", required=True)
    p_eval.add_argument("--sampling", help="sampling sidecar JSON for inferred AP")
    p_eval.add_argument("--ndcg-cutoff", type=int, dest="ndcg_cutoff")
    p_eval.add_argument("--per-topic", action="store_true", dest="per_topic")
    _add_common(p_eval)
    p_eval.set_defaults(handler=cmd_eval)

    p_groups = sub.add_parser(
        "compare-groups", help="split topics by negation content and compare runs"
    )
    p_groups.add_argument("--topics", required=True)
    p_groups.add_argument("--qrels", required=True)
    p_groups.add_argument("--baseline", required=True, help="baseline run file")
    p_groups.add_argument(
        "--run",
        action="append",
        metavar="NAME=PATH",
        help="strategy run file; repeatable",
    )
    p_groups.add_argument("--ndcg-cutoff", type=int, dest="ndcg_cutoff")
    _add_common(p_groups, data_files=True)
    p_groups.set_defaults(handler=cmd_compare_groups)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (NegirError, OSError, ValueError, KeyError) as exc:
        print(f"negir: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
