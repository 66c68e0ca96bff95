"""Command-line interface for the evaluation pipeline.

Subcommands mirror the stages of :mod:`abcd_eval.pipeline`. ``evaluate``
runs every stage for a question file; ``decompose``, ``answer``, ``verify``
and ``score`` each run one stage on outcomes filled from the previous
stages' output files, so a question fails, and is logged, the same way in
both; ``report`` renders stored evaluations; ``annotate`` collects manual
correctness labels; ``baseline`` asks the whole-question control question;
``build-obscureqa`` constructs the obscure-question dataset from a raw
quizbowl dump. An input file that does not parse is a configuration error
naming its path and line.

Exit codes: 0 success, 1 configuration or environment problem, 2 partial
failure (some questions processed), 3 total failure (none processed).

Record and report files are timestamp-free so that scripted and replay runs
are byte-for-byte reproducible; wall-clock times go only to the manifest.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Optional, Sequence

from . import records
from .datasets import (
    DatasetLoadError,
    QuestionFormat,
    SampleTooLargeError,
    SplitSpec,
    build_obscureqa,
    load_questions,
    parse_quizbowl_record,
    sample_questions,
)
from .decompose import PromptPackError, default_pack_path, load_prompt_pack
from .model import AggregateReport, Question, QuestionEvaluation
from .pipeline import (
    EVALUATE_STAGES,
    ConfigError,
    QuestionOutcome,
    Run,
    RunConfig,
    build_provider_bundle,
    run_stages,
)
from .providers import API_KEY_ENV_VAR
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


# --------------------------------------------------------------------------
# report rendering


def _rational_cell(value, width: int) -> str:
    text = "-" if value is None else f"{float(value):.4f}"
    return f"{text:>{width}}"


def _float_cell(value, width: int) -> str:
    text = "-" if value is None else f"{value:.4g}"
    return f"{text:>{width}}"


def render_report_text(reports: Sequence[AggregateReport]) -> str:
    """Human-readable summary table for one or more aggregate reports."""
    lines = ["== score summary =="]
    lines.append(
        f"{'dataset':<16} {'n':>5} {'corr':>5} {'inc':>5} {'unlab':>6} "
        f"{'C':>8} {'I':>8} {'Diff':>8} {'t':>9} {'df':>8} {'p-val':>10} "
        f"{'P(C)':>7} {'P(I)':>7}"
    )
    for report in reports:
        lines.append(
            f"{report.dataset:<16} {report.n_total:>5} {report.n_correct:>5} "
            f"{report.n_incorrect:>5} {report.n_unlabeled:>6} "
            f"{_rational_cell(report.mean_correct, 8)} "
            f"{_rational_cell(report.mean_incorrect, 8)} "
            f"{_rational_cell(report.diff, 8)} "
            f"{_float_cell(report.t_stat, 9)} "
            f"{_float_cell(report.degrees_freedom, 8)} "
            f"{_float_cell(report.p_value, 10)} "
            f"{_rational_cell(report.p_correct, 7)} "
            f"{_rational_cell(report.p_incorrect, 7)}"
        )
    with_gt = [report for report in reports if report.gt_comparison is not None]
    if with_gt:
        lines.append("")
        lines.append("== gold-answer score vs predicted (labeled incorrect) ==")
        lines.append(
            f"{'dataset':<16} {'gt>pred':>8} {'gt=pred':>8} {'gt<pred':>8}"
        )
        for report in with_gt:
            comparison = report.gt_comparison
            lines.append(
                f"{report.dataset:<16} {comparison.gt_greater:>8} "
                f"{comparison.gt_equal:>8} {comparison.gt_less:>8}"
            )
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
# shared option plumbing


def _add_provider_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("provider")
    group.add_argument(
        "--provider",
        choices=["scripted", "live", "replay"],
        default="scripted",
        help="completion backend (default: scripted)",
    )
    group.add_argument(
        "--script", type=Path, default=None,
        help="JSONL rule file for the scripted provider",
    )
    group.add_argument(
        "--cache-dir", type=Path, default=None,
        help="response cache directory (required for replay)",
    )
    group.add_argument(
        "--base-url", default=None,
        help=f"live API root; key comes from ${API_KEY_ENV_VAR}",
    )
    group.add_argument("--decompose-model", default="default")
    group.add_argument("--answer-model", default="default")
    group.add_argument("--verify-model", default="default")
    group.add_argument(
        "--concurrency", type=int, default=1,
        help="questions processed in parallel (default: 1)",
    )


def _add_parse_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("verdict parsing")
    group.add_argument(
        "--match-mode",
        choices=[mode.value for mode in MatchMode],
        default=MatchMode.SUBSTRING.value,
        help="how 'true'/'false' are found in replies (default: substring)",
    )
    group.add_argument(
        "--no-restatement-override",
        action="store_true",
        help="disable the claim-restatement special case",
    )


def _add_question_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--questions", type=Path, required=True,
                        help="JSONL question file")
    parser.add_argument(
        "--format",
        choices=[fmt.value for fmt in QuestionFormat],
        default=QuestionFormat.GENERIC.value,
        help="question file format (default: generic)",
    )
    parser.add_argument("--limit", type=int, default=None,
                        help="take only the first N questions")
    parser.add_argument("--sample", type=int, default=None,
                        help="take a seeded random sample of N questions")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for --sample (default: 0)")


def config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(
        provider_mode=args.provider,
        script_path=args.script,
        cache_dir=args.cache_dir,
        base_url=args.base_url,
        decompose_model=args.decompose_model,
        answer_model=args.answer_model,
        verify_model=args.verify_model,
        concurrency=args.concurrency,
        limit=getattr(args, "limit", None),
        sample=getattr(args, "sample", None),
        seed=getattr(args, "seed", 0),
    )
    if hasattr(args, "match_mode"):
        config.match_mode = MatchMode(args.match_mode)
        config.restatement_override = not args.no_restatement_override
    if hasattr(args, "ground_truth"):
        config.ground_truth = args.ground_truth
    if hasattr(args, "lenient"):
        config.lenient = args.lenient
    for name in ("decompose_max_tokens", "answer_max_tokens", "verify_max_tokens"):
        if getattr(args, name, None) is not None:
            setattr(config, name, getattr(args, name))
    return config


def _load_questions_for_cli(args: argparse.Namespace, config: RunConfig) -> list[Question]:
    if not Path(args.questions).is_file():
        raise ConfigError(f"question file not found: {args.questions}")
    try:
        report = load_questions(args.questions, QuestionFormat(args.format))
    except DatasetLoadError as exc:
        raise ConfigError(str(exc)) from exc
    for lineno, message in report.line_errors:
        logger.warning("%s:%d: %s", args.questions, lineno, message)
    if report.skipped:
        logger.info("%s: skipped %d filtered records", args.questions, report.skipped)

    questions = report.questions
    if config.sample is not None:
        try:
            questions = sample_questions(questions, config.sample, config.seed)
        except SampleTooLargeError as exc:
            raise ConfigError(str(exc)) from exc
    elif config.limit is not None:
        questions = questions[: config.limit]
    if not questions:
        raise ConfigError("no questions selected")
    return questions


def _load_records(path: Path, from_record: Callable[[dict], object]) -> list:
    """Read a JSONL file through a ``records.*_from_record`` function.

    A missing file, malformed JSON or a record that does not convert is a
    :class:`ConfigError` naming ``path:line``.
    """
    if not Path(path).is_file():
        raise ConfigError(f"file not found: {path}")
    try:
        rows = records.read_jsonl(path)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    converted = []
    for lineno, record in rows:
        try:
            converted.append(from_record(record))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ConfigError(
                f"{path}:{lineno}: bad record: {type(exc).__name__}: {exc}"
            ) from exc
    return converted


def _load_labels_for_cli(path: Optional[Path]) -> dict:
    if path is None:
        return {}
    return dict(_load_records(path, records.label_from_record))


def _load_evaluations(path: Path) -> list[QuestionEvaluation]:
    evaluations = _load_records(path, records.evaluation_from_record)
    if not evaluations:
        raise ConfigError(f"{path}: no evaluations")
    return evaluations


def _claim_sets_by_id(path: Path) -> dict:
    return {
        claim_set.question_id: claim_set
        for claim_set in _load_records(path, records.claim_set_from_record)
    }


def _assignments_by_id(path: Path) -> dict:
    return dict(_load_records(path, records.assignment_from_record))


def _verifications_by_id(path: Path) -> dict:
    return dict(_load_records(path, records.verifications_from_record))


def _load_pack_for_cli(path: Optional[Path]):
    try:
        return load_prompt_pack(path if path is not None else default_pack_path())
    except PromptPackError as exc:
        raise ConfigError(str(exc)) from exc


def _prefilled(questions: list[Question], **inputs: dict) -> list[QuestionOutcome]:
    """One outcome per question, carrying what earlier stages wrote: each
    keyword names an outcome field and maps question ids to its values."""
    return [
        QuestionOutcome(
            question, **{name: by_id.get(question.id) for name, by_id in inputs.items()}
        )
        for question in questions
    ]


# The record written for each stage result, by outcome field.
_STAGE_RECORDS = {
    "claim_set": lambda o: records.claim_set_to_record(o.claim_set),
    "assignment": lambda o: records.assignment_to_record(o.question.id, o.assignment),
    "results": lambda o: records.verifications_to_record(o.question.id, o.results),
    "gt_results": lambda o: records.verifications_to_record(
        o.question.id, o.gt_results
    ),
    "evaluation": lambda o: records.evaluation_to_record(o.evaluation),
    "baseline": lambda o: {
        "question_id": o.question.id,
        "answer": o.evaluation.assignment.answer,
        "verdict": o.baseline.verdict.value,
        "raw_response": o.baseline.raw_response,
        "score_true": records.fraction_to_str(o.evaluation.score_true),
    },
}


def _write_stage_records(path: Path, outcomes, field: str) -> int:
    """Write the *field* record of every successful outcome; return how many."""
    ok = [outcome for outcome in outcomes if outcome.ok]
    records.write_jsonl_atomic(path, (_STAGE_RECORDS[field](o) for o in ok))
    return len(ok)


def _stage_summary(verb: str, n_ok: int, outcomes: list, out: Path) -> int:
    print(f"{verb} {n_ok}/{len(outcomes)} questions -> {out}")
    return _exit_code(n_ok, len(outcomes) - n_ok)


def _exit_code(n_ok: int, n_failed: int) -> int:
    if n_failed == 0:
        return EXIT_OK
    return EXIT_PARTIAL if n_ok > 0 else EXIT_TOTAL


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


# --------------------------------------------------------------------------
# subcommands


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = config_from_args(args)
    questions = _load_questions_for_cli(args, config)
    labels = _load_labels_for_cli(args.labels)
    pack = _load_pack_for_cli(args.pack)
    run = Run(config, build_provider_bundle(config), pack=pack, labels=labels)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    started_at = _utc_now()
    outcomes = run_stages(run, _prefilled(questions), EVALUATE_STAGES)
    finished_at = _utc_now()

    _write_stage_records(out_dir / "claim_sets.jsonl", outcomes, "claim_set")
    _write_stage_records(out_dir / "assignments.jsonl", outcomes, "assignment")
    _write_stage_records(out_dir / "verifications.jsonl", outcomes, "results")
    if config.ground_truth:
        _write_stage_records(out_dir / "gt_verifications.jsonl", outcomes, "gt_results")
    n_ok = _write_stage_records(out_dir / "evaluations.jsonl", outcomes, "evaluation")

    reports = build_reports([outcome.evaluation for outcome in outcomes if outcome.ok])
    records.write_json_atomic(
        out_dir / "report.json", [records.report_to_record(r) for r in reports]
    )
    report_text = render_report_text(reports)
    records.write_text_atomic(out_dir / "report.txt", report_text)

    n_failed = len(outcomes) - n_ok
    manifest = {
        "config": config.to_record(),
        "started_at": started_at,
        "finished_at": finished_at,
        "n_questions": len(outcomes),
        "n_ok": n_ok,
        "n_failed": n_failed,
        "questions": {
            outcome.question.id: (
                {"status": "ok"}
                if outcome.ok
                else {
                    "status": "failed",
                    "stage": outcome.failed_stage,
                    "reason": outcome.failure_reason,
                }
            )
            for outcome in outcomes
        },
        "provider_calls": run.bundle.call_counts(),
    }
    records.write_json_atomic(out_dir / "manifest.json", manifest)

    print(report_text, end="")
    if n_failed:
        print(f"{n_failed} of {len(outcomes)} questions failed; see manifest.json",
              file=sys.stderr)
    return _exit_code(n_ok, n_failed)


def cmd_decompose(args: argparse.Namespace) -> int:
    config = config_from_args(args)
    questions = _load_questions_for_cli(args, config)
    pack = _load_pack_for_cli(args.pack)
    run = Run(config, build_provider_bundle(config), pack=pack)
    outcomes = run_stages(run, _prefilled(questions), ("decompose",))
    n_ok = _write_stage_records(args.out, outcomes, "claim_set")
    return _stage_summary("decomposed", n_ok, outcomes, args.out)


def cmd_answer(args: argparse.Namespace) -> int:
    config = config_from_args(args)
    questions = _load_questions_for_cli(args, config)
    claim_sets = _claim_sets_by_id(args.claims)
    run = Run(config, build_provider_bundle(config))
    outcomes = run_stages(run, _prefilled(questions, claim_set=claim_sets), ("answer",))
    n_ok = _write_stage_records(args.out, outcomes, "assignment")
    return _stage_summary("answered", n_ok, outcomes, args.out)


def cmd_verify(args: argparse.Namespace) -> int:
    if args.ground_truth and args.gt_out is None:
        raise ConfigError("--ground-truth needs --gt-out")
    config = config_from_args(args)
    questions = _load_questions_for_cli(args, config)
    claim_sets = _claim_sets_by_id(args.claims)
    assignments = _assignments_by_id(args.assignments)
    run = Run(config, build_provider_bundle(config))
    outcomes = run_stages(
        run,
        _prefilled(questions, claim_set=claim_sets, assignment=assignments),
        ("verify", "verify_gt"),
    )
    n_ok = _write_stage_records(args.out, outcomes, "results")
    if config.ground_truth:
        _write_stage_records(args.gt_out, outcomes, "gt_results")
    return _stage_summary("verified", n_ok, outcomes, args.out)


def cmd_score(args: argparse.Namespace) -> int:
    # Scoring combines stage files; there is no provider to configure.
    config = RunConfig(limit=args.limit, sample=args.sample, seed=args.seed)
    questions = _load_questions_for_cli(args, config)
    outcomes = _prefilled(
        questions,
        claim_set=_claim_sets_by_id(args.claims),
        assignment=_assignments_by_id(args.assignments),
        results=_verifications_by_id(args.verifications),
        gt_results=(
            _verifications_by_id(args.gt_verifications)
            if args.gt_verifications is not None
            else {}
        ),
    )
    run = Run(config, labels=_load_labels_for_cli(args.labels))
    outcomes = run_stages(run, outcomes, ("score",))
    n_ok = _write_stage_records(args.out, outcomes, "evaluation")
    return _stage_summary("scored", n_ok, outcomes, args.out)


def cmd_report(args: argparse.Namespace) -> int:
    reports = build_reports(_load_evaluations(args.records))
    if args.out_json is not None:
        records.write_json_atomic(
            args.out_json, [records.report_to_record(r) for r in reports]
        )
    text = render_report_text(reports)
    if args.out_text is not None:
        records.write_text_atomic(args.out_text, text)
    print(text, end="")
    return EXIT_OK


def cmd_annotate(
    args: argparse.Namespace,
    input_fn: Callable[[str], str] = input,
    print_fn: Callable[[str], None] = print,
) -> int:
    evaluations = _load_records(args.records, records.evaluation_from_record)
    labels_path = Path(args.labels)
    existing = _load_labels_for_cli(labels_path) if labels_path.is_file() else {}

    pending = [e for e in evaluations if e.question.id not in existing]
    print_fn(
        f"{len(pending)} unlabeled of {len(evaluations)} records "
        f"({len(existing)} labels already in {labels_path})"
    )
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
    print_fn(f"\n{len(final)} labels now in {labels_path}")
    return EXIT_OK


def cmd_baseline(args: argparse.Namespace) -> int:
    config = config_from_args(args)
    evaluations = _load_evaluations(args.records)
    run = Run(config, build_provider_bundle(config))
    outcomes = run_stages(
        run,
        [QuestionOutcome(e.question, evaluation=e) for e in evaluations],
        ("baseline",),
    )
    n_ok = _write_stage_records(args.out, outcomes, "baseline")
    return _stage_summary("baseline checked", n_ok, outcomes, args.out)


def cmd_build_obscureqa(args: argparse.Namespace) -> int:
    if not Path(args.dump).is_file():
        raise ConfigError(f"dump file not found: {args.dump}")
    try:
        split = SplitSpec(
            train=args.train, valid=args.valid, test=args.test, seed=args.seed
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    raw_records = []
    line_errors = []
    with open(args.dump, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                raw_records.append(parse_quizbowl_record(json.loads(line)))
            except (ValueError, KeyError, TypeError) as exc:
                line_errors.append((lineno, str(exc)))
    for lineno, message in line_errors:
        logger.warning("%s:%d: %s", args.dump, lineno, message)
    if not raw_records:
        raise ConfigError(f"{args.dump}: no usable records")

    build = build_obscureqa(raw_records, split)
    if build.total_kept == 0:
        raise ConfigError(f"{args.dump}: every record was dropped during cleaning")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, questions in (
        ("train", build.train), ("valid", build.valid), ("test", build.test)
    ):
        records.write_jsonl_atomic(
            out_dir / f"obscureqa_{name}.jsonl",
            (records.question_to_record(q) for q in questions),
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abcd-eval",
        description=(
            "Answer-based claim decomposition: decompose questions into "
            "tagged claims, answer them, verify each claim and score the "
            "true-claim proportion."
        ),
    )
    parser.add_argument("--verbose", action="store_true",
                        help="log per-question progress to stderr")
    commands = parser.add_subparsers(dest="command", required=True)

    evaluate = commands.add_parser(
        "evaluate", help="run the full pipeline for a question file"
    )
    _add_question_options(evaluate)
    evaluate.add_argument("--pack", type=Path, default=None,
                          help="prompt pack directory (default: bundled pack)")
    evaluate.add_argument("--labels", type=Path, default=None,
                          help="JSONL manual labels to join")
    evaluate.add_argument("--out-dir", type=Path, required=True)
    evaluate.add_argument("--ground-truth", action="store_true",
                          help="also verify claims under the gold answer")
    evaluate.add_argument("--lenient", action="store_true",
                          help="record non-response instead of failing a "
                               "question when the provider errors")
    evaluate.add_argument("--decompose-max-tokens", type=int, default=None)
    evaluate.add_argument("--answer-max-tokens", type=int, default=None)
    evaluate.add_argument("--verify-max-tokens", type=int, default=None)
    _add_provider_options(evaluate)
    _add_parse_options(evaluate)
    evaluate.set_defaults(handler=cmd_evaluate)

    decompose_cmd = commands.add_parser(
        "decompose", help="turn questions into claim templates"
    )
    _add_question_options(decompose_cmd)
    decompose_cmd.add_argument("--pack", type=Path, default=None)
    decompose_cmd.add_argument("--out", type=Path, required=True)
    decompose_cmd.add_argument("--decompose-max-tokens", type=int, default=None)
    _add_provider_options(decompose_cmd)
    decompose_cmd.set_defaults(handler=cmd_decompose)

    answer = commands.add_parser(
        "answer", help="fill claim-set tags with generated answers"
    )
    _add_question_options(answer)
    answer.add_argument("--claims", type=Path, required=True)
    answer.add_argument("--out", type=Path, required=True)
    answer.add_argument("--answer-max-tokens", type=int, default=None)
    _add_provider_options(answer)
    answer.set_defaults(handler=cmd_answer)

    verify_cmd = commands.add_parser(
        "verify", help="verify instantiated claims true or false"
    )
    _add_question_options(verify_cmd)
    verify_cmd.add_argument("--claims", type=Path, required=True)
    verify_cmd.add_argument("--assignments", type=Path, required=True)
    verify_cmd.add_argument("--out", type=Path, required=True)
    verify_cmd.add_argument("--ground-truth", action="store_true")
    verify_cmd.add_argument("--gt-out", type=Path, default=None)
    verify_cmd.add_argument("--lenient", action="store_true")
    verify_cmd.add_argument("--verify-max-tokens", type=int, default=None)
    _add_provider_options(verify_cmd)
    _add_parse_options(verify_cmd)
    verify_cmd.set_defaults(handler=cmd_verify)

    score = commands.add_parser(
        "score", help="combine stage outputs into scored evaluations"
    )
    _add_question_options(score)
    score.add_argument("--claims", type=Path, required=True)
    score.add_argument("--assignments", type=Path, required=True)
    score.add_argument("--verifications", type=Path, required=True)
    score.add_argument("--gt-verifications", type=Path, default=None)
    score.add_argument("--labels", type=Path, default=None)
    score.add_argument("--out", type=Path, required=True)
    score.set_defaults(handler=cmd_score)

    report = commands.add_parser("report", help="aggregate stored evaluations")
    report.add_argument("--records", type=Path, required=True)
    report.add_argument("--out-json", type=Path, default=None)
    report.add_argument("--out-text", type=Path, default=None)
    report.set_defaults(handler=cmd_report)

    annotate = commands.add_parser(
        "annotate", help="interactively label evaluations correct/incorrect"
    )
    annotate.add_argument("--records", type=Path, required=True)
    annotate.add_argument("--labels", type=Path, required=True)
    annotate.set_defaults(handler=cmd_annotate)

    baseline = commands.add_parser(
        "baseline", help="whole-question correctness check for comparison"
    )
    baseline.add_argument("--records", type=Path, required=True)
    baseline.add_argument("--out", type=Path, required=True)
    baseline.add_argument("--verify-max-tokens", type=int, default=None)
    _add_provider_options(baseline)
    baseline.set_defaults(handler=cmd_baseline)

    build_cmd = commands.add_parser(
        "build-obscureqa", help="construct the obscure-question dataset"
    )
    build_cmd.add_argument("--dump", type=Path, required=True,
                           help="raw quizbowl JSONL dump")
    build_cmd.add_argument("--out-dir", type=Path, required=True)
    build_cmd.add_argument("--train", type=float, default=0.7)
    build_cmd.add_argument("--valid", type=float, default=0.1)
    build_cmd.add_argument("--test", type=float, default=0.2)
    build_cmd.add_argument("--seed", type=int, default=0)
    build_cmd.set_defaults(handler=cmd_build_obscureqa)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
