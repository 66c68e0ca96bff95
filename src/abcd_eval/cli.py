"""Command-line interface for the evaluation pipeline.

Subcommands mirror the stages of :mod:`abcd_eval.pipeline`. ``evaluate``
runs every stage for a question file; ``decompose``, ``answer``, ``verify``,
``score`` and ``baseline`` (the whole-question control question, asked of
stored evaluations) share one handler that runs the command's stages on
outcomes filled from the previous stages' output files, so a question
fails, and is logged, the same way in both; ``report`` renders stored
evaluations; ``annotate`` collects manual correctness labels;
``build-obscureqa`` constructs the obscure-question dataset from a raw
quizbowl dump.

Each stage record file, the option that reads it and its record's
converters are declared once, in :data:`_STAGE_FILES`.

An input error travels unchanged to :func:`main`, the one place that
reports it: a bad option value or a file that does not decode or parse
is a ``ValueError`` naming it, a missing file an ``OSError``, a missing
API key a ``ProviderError``. Each ends as one ``error: <message>`` line
with exit code 1.

Each option is declared once in :data:`OPTIONS`, and :data:`COMMANDS` lists
the options of each subcommand. An option that sets a
:class:`~abcd_eval.pipeline.RunConfig` field has that field as its dest and
no default, so a default lives only in ``RunConfig``: :func:`config_from_args`
copies the given fields by name, and the config checks them for every command.

Exit codes: 0 success, 1 usage or input error, 2 some questions failed, 3
all failed, 130 interrupted (requests in flight finish and the replies
received stay in ``--cache-dir``; no record file is written).

Record and report files are timestamp-free so that scripted and replay runs
are byte-for-byte reproducible; wall-clock times go only to the manifest.
"""

from __future__ import annotations

import argparse
import logging
import sys
from contextlib import closing
from dataclasses import fields
from datetime import datetime, timezone
from fractions import Fraction
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Callable, Optional, Sequence

from . import records
from .datasets import (
    QuestionFormat,
    SplitSpec,
    build_obscureqa,
    load_questions,
    parse_quizbowl_record,
    sample_questions,
)
from .decompose import default_pack_path, load_prompt_pack
from .model import AggregateReport, Question, QuestionEvaluation
from .pipeline import (
    EVALUATE_STAGES,
    PROVIDER_STAGES,
    QuestionOutcome,
    Run,
    RunConfig,
    build_upstream,
    run_stages,
)
from .providers import API_KEY_ENV_VAR, ProviderError
from .scoring import aggregate
from .verify import MatchMode

# Not called here, but perfbench/tests/test_bench.py checks that the tracer
# rebinds every alias of verify_all, this one included.
from .verify import verify_all  # noqa: F401

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PARTIAL = 2
EXIT_TOTAL = 3
EXIT_INTERRUPTED = 130


# --------------------------------------------------------------------------
# report rendering


# The columns of report.txt's two tables: (AggregateReport attribute, heading,
# width). The first column is left-aligned, the others right-aligned.
_SUMMARY_COLUMNS = (
    ("dataset", "dataset", 16), ("n_total", "n", 5), ("n_correct", "corr", 5),
    ("n_incorrect", "inc", 5), ("n_unlabeled", "unlab", 6),
    ("mean_correct", "C", 8), ("mean_incorrect", "I", 8), ("diff", "Diff", 8),
    ("t_stat", "t", 9), ("degrees_freedom", "df", 8), ("p_value", "p-val", 10),
    ("p_correct", "P(C)", 7), ("p_incorrect", "P(I)", 7),
)
_GOLD_COLUMNS = (
    ("dataset", "dataset", 16), ("gt_comparison.gt_greater", "gt>pred", 8),
    ("gt_comparison.gt_equal", "gt=pred", 8), ("gt_comparison.gt_less", "gt<pred", 8),
)


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, Fraction):
        return f"{float(value):.4f}"
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def _table(columns, reports) -> list[str]:
    """The heading line, then one line per report."""
    rows = [[heading for _, heading, _ in columns]]
    rows += [[_cell(attrgetter(name)(r)) for name, _, _ in columns] for r in reports]
    return [
        " ".join(cell.rjust(width) if i else cell.ljust(width)
                 for i, (cell, (_, _, width)) in enumerate(zip(row, columns)))
        for row in rows
    ]


def render_report_text(reports: Sequence[AggregateReport]) -> str:
    """Human-readable summary table for one or more aggregate reports."""
    lines = ["== score summary ==", *_table(_SUMMARY_COLUMNS, reports)]
    with_gt = [report for report in reports if report.gt_comparison is not None]
    if with_gt:
        lines += ["", "== gold-answer score vs predicted (labeled incorrect) ==",
                  *_table(_GOLD_COLUMNS, with_gt)]
    return "\n".join(lines) + "\n"


def build_reports(evaluations: Sequence[QuestionEvaluation]) -> list[AggregateReport]:
    """One aggregate report per dataset present, sorted by dataset name."""
    by_dataset: dict[str, list[QuestionEvaluation]] = {}
    for evaluation in evaluations:
        by_dataset.setdefault(evaluation.question.dataset.value, []).append(evaluation)
    return [
        aggregate(group, dataset) for dataset, group in sorted(by_dataset.items())
    ]


# --------------------------------------------------------------------------
# options


# Every option of the commands, declared once: flag -> add_argument keywords.
# An option that sets a RunConfig field has that field as its dest.
OPTIONS = {
    "--questions": dict(type=Path, required=True, help="JSONL question file"),
    "--format": dict(
        choices=[fmt.value for fmt in QuestionFormat],
        default=QuestionFormat.GENERIC.value,
        help="question file format (default: generic)",
    ),
    "--limit": dict(type=int, help="take only the first N questions"),
    "--sample": dict(type=int, help="take a seeded random sample of N questions"),
    "--seed": dict(type=int, help=f"seed for --sample (default: {RunConfig.seed})"),
    "--pack": dict(type=Path, help="prompt pack directory (default: bundled pack)"),
    "--labels": dict(type=Path, help="JSONL manual labels to join"),
    "--claims": dict(type=Path, required=True),
    "--assignments": dict(type=Path, required=True),
    "--verifications": dict(type=Path, required=True),
    "--gt-verifications": dict(type=Path),
    "--records": dict(type=Path, required=True),
    "--dump": dict(type=Path, required=True, help="raw quizbowl JSONL dump"),
    "--out": dict(type=Path, required=True),
    "--out-dir": dict(type=Path, required=True),
    "--gt-out": dict(type=Path),
    "--out-json": dict(type=Path),
    "--out-text": dict(type=Path),
    "--ground-truth": dict(
        action="store_true", help="also verify claims under the gold answer"
    ),
    "--lenient": dict(
        action="store_true",
        help="record non-response instead of failing a question when the "
             "provider errors",
    ),
    "--decompose-max-tokens": dict(type=int),
    "--answer-max-tokens": dict(type=int),
    "--verify-max-tokens": dict(type=int),
    "--provider": dict(
        dest="provider_mode",
        choices=["scripted", "live", "replay"],
        help=f"completion backend (default: {RunConfig.provider_mode})",
    ),
    "--script": dict(
        dest="script_path", type=Path, help="JSONL rule file for the scripted provider"
    ),
    "--cache-dir": dict(type=Path, help="response cache (required for replay)"),
    "--base-url": dict(help=f"live API root; key comes from ${API_KEY_ENV_VAR}"),
    "--decompose-model": dict(),
    "--answer-model": dict(),
    "--verify-model": dict(),
    "--concurrency": dict(
        type=int, metavar="N", help="N workers, so at most N requests and connections "
        "in flight; a lone request goes from its own worker, and a queued claim batch "
        f"wakes idle workers; a replay has one worker (default: {RunConfig.concurrency})",
    ),
    "--match-mode": dict(
        choices=[mode.value for mode in MatchMode],
        help="how 'true'/'false' are found in replies "
             f"(default: {RunConfig.match_mode.value})",
    ),
    "--no-restatement-override": dict(
        dest="restatement_override",
        action="store_false",
        help="disable the claim-restatement special case",
    ),
}

_QUESTIONS = ("--questions", "--format", "--limit", "--sample", "--seed")
_PROVIDER = (
    "--provider", "--script", "--cache-dir", "--base-url",
    "--decompose-model", "--answer-model", "--verify-model", "--concurrency",
)
_PARSING = ("--match-mode", "--no-restatement-override")

_CONFIG_FIELDS = frozenset(field.name for field in fields(RunConfig))


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The command's RunConfig: each parsed option whose dest is a field."""
    return RunConfig(
        **{name: value for name, value in vars(args).items() if name in _CONFIG_FIELDS}
    )


def _load_questions_for_cli(args: argparse.Namespace, config: RunConfig) -> list[Question]:
    report = load_questions(args.questions, QuestionFormat(args.format))
    for lineno, message in report.line_errors:
        logger.warning("%s:%d: %s", args.questions, lineno, message)
    if report.skipped:
        logger.info("%s: skipped %d filtered records", args.questions, report.skipped)
    questions = report.questions
    if config.sample is not None:
        questions = sample_questions(questions, config.sample, config.seed)
    elif config.limit is not None:
        questions = questions[: config.limit]
    if not questions:
        raise ValueError(f"{args.questions}: no questions selected")
    return questions


def _load_labels_for_cli(path: Optional[Path]) -> dict:
    """Later lines for a question win, so ``annotate`` corrects by appending."""
    if path is None:
        return {}
    return dict(records.read_jsonl(path, lambda row, _: records.label_from_record(row)))


def _read_evaluation(record: dict) -> tuple[str, QuestionEvaluation]:
    evaluation = records.evaluation_from_record(record)
    return evaluation.question.id, evaluation


# Outcome field -> (its file in evaluate's --out-dir, the option (its dest)
# that reads that file, the record of an outcome's result, the reader of one
# record into (question id, result)), in the order evaluate writes them.
# baseline's record goes only to its command's --out.
_STAGE_FILES = {
    "claim_set": ("claim_sets.jsonl", "claims",
                  lambda o: records.claim_set_to_record(o.claim_set),
                  lambda r: (r["question_id"], records.claim_set_from_record(r))),
    "assignment": ("assignments.jsonl", "assignments",
                   lambda o: records.assignment_to_record(o.question.id, o.assignment),
                   records.assignment_from_record),
    "results": ("verifications.jsonl", "verifications",
                lambda o: records.verifications_to_record(o.question.id, o.results),
                records.verifications_from_record),
    "gt_results": ("gt_verifications.jsonl", "gt_verifications",
                   lambda o: records.verifications_to_record(o.question.id, o.gt_results),
                   records.verifications_from_record),
    "evaluation": ("evaluations.jsonl", "records",
                   lambda o: records.evaluation_to_record(o.evaluation),
                   _read_evaluation),
    "baseline": (None, None,
                 lambda o: records.baseline_to_record(o.evaluation, o.baseline), None),
}


def _read_stage_file(path: Path, field: str) -> dict:
    """Question id -> result of each record in a file of *field* records.

    Text that is not UTF-8, a line that is not a JSON object or does not
    convert, and a repeated question id is a ``ValueError`` naming the file
    and line.
    """
    read = _STAGE_FILES[field][3]
    return dict(records.read_jsonl(path, lambda row, _: read(row), itemgetter(0)))


def _evaluations(by_id: dict, path: Path) -> list[QuestionEvaluation]:
    """The evaluations read from the ``--records`` file *path*, one at least."""
    if not by_id:
        raise ValueError(f"{path}: no evaluations")
    return list(by_id.values())


def _prepare(
    args: argparse.Namespace, stages: Sequence[str]
) -> tuple[Run, list[QuestionOutcome]]:
    """The run for *stages* and one outcome per selected question, carrying
    what the command's stage input files hold for it.

    Loads config, questions, stage inputs, labels, then the prompt pack
    (only for ``decompose``) and the providers (only for a stage that
    calls a model), so each bad input fails at the same point.
    """
    options = vars(args)
    config = config_from_args(args)
    questions = _load_questions_for_cli(args, config) if "questions" in options else None
    inputs = {
        field: _read_stage_file(options[option], field)
        for field, (_, option, _, _) in _STAGE_FILES.items()
        if options.get(option) is not None
    }
    if questions is None:  # baseline's: those its --records evaluates
        questions = [e.question for e in _evaluations(inputs["evaluation"], args.records)]
    labels = _load_labels_for_cli(options.get("labels"))
    pack = None
    if "decompose" in stages:
        pack = load_prompt_pack(args.pack or default_pack_path())
    upstream = None if set(stages).isdisjoint(PROVIDER_STAGES) else build_upstream(config)
    run = Run(config, upstream, pack=pack, labels=labels)
    return run, [
        QuestionOutcome(q, **{field: by_id.get(q.id) for field, by_id in inputs.items()})
        for q in questions
    ]


def _write_stage_records(path: Path, outcomes, field: str) -> int:
    """Write the *field* record of every successful outcome; return how many."""
    ok = [outcome for outcome in outcomes if outcome.ok]
    to_record = _STAGE_FILES[field][2]
    records.write_jsonl_atomic(path, (to_record(o) for o in ok))
    return len(ok)


def _write_reports(
    evaluations: list, out_json: Optional[Path], out_text: Optional[Path]
) -> str:
    """Aggregate *evaluations*, write the JSON and text reports where a path
    is given, and return the text."""
    reports = build_reports(evaluations)
    if out_json is not None:
        records.write_json_atomic(
            out_json, [records.to_record(r) for r in reports]
        )
    text = render_report_text(reports)
    if out_text is not None:
        records.write_text_atomic(out_text, text)
    return text


def _manifest_entry(outcome: QuestionOutcome) -> dict:
    """A question's status, plus its failed stage and reason and its
    truncated stages where it has them."""
    entry = {"status": "ok" if outcome.ok else "failed", "stage": outcome.failed_stage,
             "reason": outcome.failure_reason, "truncated": outcome.truncated}
    return {key: value for key, value in entry.items() if value}


def _exit_code(n_ok: int, n_failed: int) -> int:
    if n_failed == 0:
        return EXIT_OK
    return EXIT_PARTIAL if n_ok > 0 else EXIT_TOTAL


# --------------------------------------------------------------------------
# subcommands


def cmd_evaluate(args: argparse.Namespace) -> int:
    run, outcomes = _prepare(args, EVALUATE_STAGES)
    config = run.config
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    started_at = datetime.now(timezone.utc).isoformat()
    with closing(run):
        outcomes = run_stages(run, outcomes, EVALUATE_STAGES)
    finished_at = datetime.now(timezone.utc).isoformat()

    # The manifest, written last, marks a complete set of one run's files;
    # a temp file there is a crashed write's.
    for stale in (out_dir / "manifest.json", *out_dir.glob(".tmp-*.part")):
        records.remove_file(stale)
    for field, (name, _, _, _) in _STAGE_FILES.items():
        if field == "gt_results" and not config.ground_truth:
            # so no earlier run's gold results sit beside this run's files
            records.remove_file(out_dir / name)
        elif name is not None:
            n_ok = _write_stage_records(out_dir / name, outcomes, field)

    report_text = _write_reports(
        [outcome.evaluation for outcome in outcomes if outcome.ok],
        out_dir / "report.json",
        out_dir / "report.txt",
    )

    n_failed = len(outcomes) - n_ok
    manifest = {
        "config": records.to_record(config),
        "started_at": started_at,
        "finished_at": finished_at,
        "n_questions": len(outcomes),
        "n_ok": n_ok,
        "n_failed": n_failed,
        "questions": {outcome.question.id: _manifest_entry(outcome)
                      for outcome in outcomes},
        "provider_calls": {stage: run.upstream.calls.get(stage, 0)
                           for stage in PROVIDER_STAGES},
    }
    records.write_json_atomic(out_dir / "manifest.json", manifest)

    print(report_text, end="")
    if n_failed:
        print(f"{n_failed} of {len(outcomes)} questions failed; see manifest.json",
              file=sys.stderr)
    return _exit_code(n_ok, n_failed)


# Stage command -> (its stages, the outcome field it writes to --out, the
# verb of its summary line).
_STAGE_COMMANDS = {
    "decompose": (("decompose",), "claim_set", "decomposed"),
    "answer": (("answer",), "assignment", "answered"),
    "verify": (("verify", "verify_gt"), "results", "verified"),
    "score": (("score",), "evaluation", "scored"),
    "baseline": (("baseline",), "baseline", "baseline checked"),
}


def cmd_stage(args: argparse.Namespace) -> int:
    """Run one stage command over the files earlier stages wrote."""
    stages, field, verb = _STAGE_COMMANDS[args.command]
    run, outcomes = _prepare(args, stages)
    with closing(run):
        outcomes = run_stages(run, outcomes, stages)
    n_ok = _write_stage_records(args.out, outcomes, field)
    if run.config.ground_truth:
        _write_stage_records(args.gt_out, outcomes, "gt_results")
    print(f"{verb} {n_ok}/{len(outcomes)} questions -> {args.out}")
    return _exit_code(n_ok, len(outcomes) - n_ok)


def cmd_report(args: argparse.Namespace) -> int:
    evaluations = _evaluations(_read_stage_file(args.records, "evaluation"), args.records)
    text = _write_reports(evaluations, args.out_json, args.out_text)
    print(text, end="")
    return EXIT_OK


def cmd_annotate(
    args: argparse.Namespace,
    input_fn: Callable[[str], str] = input,
    print_fn: Callable[[str], None] = print,
) -> int:
    labels_path = Path(args.labels)
    if labels_path.is_dir():
        raise ValueError(f"--labels is a directory: {labels_path}")
    evaluations = list(_read_stage_file(args.records, "evaluation").values())
    existing = _load_labels_for_cli(labels_path) if labels_path.is_file() else {}

    pending = [e for e in evaluations if e.question.id not in existing]

    def count(items, noun: str) -> str:
        return f"{len(items)} {noun}{'' if len(items) == 1 else 's'}"

    print_fn(f"{len(pending)} unlabeled of {count(evaluations, 'record')} "
             f"({count(existing, 'label')} already in {labels_path})")
    for position, evaluation in enumerate(pending, start=1):
        question = evaluation.question
        print_fn("")
        print_fn(f"[{position}/{len(pending)}] {question.id} ({question.dataset.value})")
        print_fn(f"  question:  {question.text}")
        print_fn(f"  gold:      {question.gold_answer}")
        print_fn(f"  generated: {evaluation.assignment.answer}")
        score = evaluation.score_true
        print_fn(f"  score:     {score if score is not None else 'n/a'}")
        while True:
            try:
                choice = input_fn("  [c]orrect / [i]ncorrect / [s]kip / [q]uit: ")
            except EOFError:
                choice = "q"
            choice = choice.strip().lower()
            if choice in ("c", "i", "s", "q"):
                break
            print_fn("  please answer c, i, s or q")
        if choice == "q":
            break
        if choice == "s":
            continue
        error_category = None
        if choice == "i":
            try:
                error_category = input_fn("  error category (optional): ").strip() or None
            except EOFError:
                error_category = None
        records.append_label(
            labels_path, question.id, correct=(choice == "c"),
            error_category=error_category,
        )
    final = _load_labels_for_cli(labels_path) if labels_path.is_file() else {}
    print_fn(f"\n{count(final, 'label')} now in {labels_path}")
    return EXIT_OK


def cmd_build_obscureqa(args: argparse.Namespace) -> int:
    split = SplitSpec(train=args.train, valid=args.valid, test=args.test, seed=args.seed)
    raw_records, line_errors = records.scan_jsonl(
        args.dump, lambda row, _: parse_quizbowl_record(row)
    )
    for lineno, message in line_errors:
        logger.warning("%s:%d: %s", args.dump, lineno, message)
    if not raw_records:
        raise ValueError(f"{args.dump}: no usable records")

    build = build_obscureqa(raw_records, split)
    if build.total_kept == 0:
        raise ValueError(f"{args.dump}: every record was dropped during cleaning")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, questions in (
        ("train", build.train), ("valid", build.valid), ("test", build.test)
    ):
        records.write_jsonl_atomic(
            out_dir / f"obscureqa_{name}.jsonl",
            (records.to_record(q) for q in questions),
        )
    stats = {
        "input_records": len(raw_records),
        "line_errors": len(line_errors),
        "dropped_moderator_notes": build.dropped_moderator_notes,
        "dropped_empty": build.dropped_empty,
        "kept": build.total_kept,
        "train": len(build.train),
        "valid": len(build.valid),
        "test": len(build.test),
        "seed": split.seed,
        "fractions": {"train": split.train, "valid": split.valid, "test": split.test},
    }
    records.write_json_atomic(out_dir / "build_stats.json", stats)
    print(
        f"kept {build.total_kept} of {len(raw_records)} records "
        f"(train {len(build.train)}, valid {len(build.valid)}, "
        f"test {len(build.test)}) -> {out_dir}"
    )
    return EXIT_OK


# --------------------------------------------------------------------------
# parser wiring


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit EXIT_CONFIG; subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


# Subcommand -> (handler, help, its options from OPTIONS).
COMMANDS = {
    "evaluate": (cmd_evaluate, "run the full pipeline for a question file", (
        *_QUESTIONS, "--pack", "--labels", "--out-dir", "--ground-truth",
        "--lenient", "--decompose-max-tokens", "--answer-max-tokens",
        "--verify-max-tokens", *_PROVIDER, *_PARSING,
    )),
    "decompose": (cmd_stage, "turn questions into claim templates", (
        *_QUESTIONS, "--pack", "--out", "--decompose-max-tokens", *_PROVIDER,
    )),
    "answer": (cmd_stage, "fill claim-set tags with generated answers", (
        *_QUESTIONS, "--claims", "--out", "--answer-max-tokens", *_PROVIDER,
    )),
    "verify": (cmd_stage, "verify instantiated claims true or false", (
        *_QUESTIONS, "--claims", "--assignments", "--out", "--ground-truth",
        "--gt-out", "--lenient", "--verify-max-tokens", *_PROVIDER, *_PARSING,
    )),
    "score": (cmd_stage, "combine stage outputs into scored evaluations", (
        *_QUESTIONS, "--claims", "--assignments", "--verifications",
        "--gt-verifications", "--labels", "--out",
    )),
    "report": (cmd_report, "aggregate stored evaluations", (
        "--records", "--out-json", "--out-text",
    )),
    "annotate": (cmd_annotate, "interactively label evaluations correct/incorrect", (
        "--records",
    )),
    "baseline": (cmd_stage, "whole-question correctness check for comparison", (
        "--records", "--out", "--verify-max-tokens", *_PROVIDER,
    )),
    "build-obscureqa": (cmd_build_obscureqa, "construct the obscure-question dataset", (
        "--dump", "--out-dir",
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="abcd-eval",
        description=(
            "Answer-based claim decomposition: decompose questions into "
            "tagged claims, answer them, verify each claim and score the "
            "true-claim proportion."
        ),
    )
    parser.add_argument("--verbose", action="store_true",
                        help="also log retries and filtered input records")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, options) in COMMANDS.items():
        command = commands.add_parser(name, help=help_text)
        for flag in options:
            action = command.add_argument(flag, **OPTIONS[flag])
            if action.dest in _CONFIG_FIELDS:  # RunConfig's default applies
                action.default = argparse.SUPPRESS
        command.set_defaults(handler=handler)

    # Options that differ from the OPTIONS entry of the same name.
    commands.choices["annotate"].add_argument("--labels", type=Path, required=True)
    build_cmd = commands.choices["build-obscureqa"]
    for spec in fields(SplitSpec):  # SplitSpec declares each default
        build_cmd.add_argument(f"--{spec.name}", type=type(spec.default), default=spec.default)
    return parser


def _check_outputs(options: dict) -> None:
    """Refuse output options that cannot be written, before any input is read:
    an existing path must be a directory for ``--out-dir`` and not for the rest,
    and no two output files may be one file."""
    if "gt_out" in options and bool(options.get("ground_truth")) != (options["gt_out"] is not None):
        raise ValueError("--ground-truth needs --gt-out" if options["gt_out"] is None
                         else "--gt-out needs --ground-truth")
    for flag, is_dir in {"--out": False, "--gt-out": False, "--out-json": False,
                         "--out-text": False, "--out-dir": True}.items():
        path = options.get(flag[2:].replace("-", "_"))
        if path is not None and path.exists() and path.is_dir() != is_dir:
            raise ValueError(f"{flag} {'is not' if is_dir else 'is'} a directory: {path}")
    seen: dict = {}
    for flag in ("--out", "--gt-out", "--out-json", "--out-text"):
        path = options.get(flag[2:].replace("-", "_"))
        if path is not None and seen.setdefault(path.resolve(), flag) != flag:
            raise ValueError(f"{seen[path.resolve()]} and {flag} name one file: {path}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        _check_outputs(vars(args))
        return args.handler(args)
    except (ValueError, OSError, ProviderError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
