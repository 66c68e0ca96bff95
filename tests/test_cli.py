"""End-to-end CLI tests driven by the scripted 12-question fixture."""

import json
import logging
from fractions import Fraction

import pytest

from abcd_eval import records
from abcd_eval.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_TOTAL,
    build_parser,
    cmd_annotate,
    main,
)
from abcd_eval.datasets import SplitSpec, split_sizes
from abcd_eval.model import Verdict
from abcd_eval.providers import ScriptedProvider
from e2e_fixture import (
    EXPECTED_CACHE_ENTRIES,
    EXPECTED_CALLS_NO_CACHE,
    EXPECTED_CALLS_WITH_CACHE,
    EXPECTED_DF,
    EXPECTED_GT_SCORES,
    EXPECTED_REPORT,
    EXPECTED_SCORES,
    EXPECTED_T_STAT,
    QUESTIONS,
    write_fixture,
)
from helpers import build_evaluation


@pytest.fixture
def fixture_paths(tmp_path):
    return write_fixture(tmp_path / "fixture")


def evaluate_args(paths, out_dir, *extra):
    return [
        "evaluate",
        "--questions", str(paths["questions"]),
        "--labels", str(paths["labels"]),
        "--script", str(paths["rules"]),
        "--out-dir", str(out_dir),
        "--ground-truth",
        *extra,
    ]


def read_evaluations(out_dir):
    return {
        record["question"]["id"]: records.evaluation_from_record(record)
        for _, record in records.read_jsonl(out_dir / "evaluations.jsonl")
    }


class TestEvaluateEndToEnd:
    def test_full_run(self, fixture_paths, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code = main(evaluate_args(fixture_paths, out_dir))
        assert code == EXIT_OK

        evaluations = read_evaluations(out_dir)
        assert sorted(evaluations) == sorted(EXPECTED_SCORES)
        for qid, expected in EXPECTED_SCORES.items():
            assert evaluations[qid].score_true == expected, qid
        for qid, fq in ((fq.qid, fq) for fq in QUESTIONS):
            evaluation = evaluations[qid]
            assert evaluation.correct is fq.correct
            assert evaluation.error_category == fq.error_category
            assert evaluation.assignment.answer == fq.pred
            assert len(evaluation.results) == len(fq.claims)
        for qid, expected in EXPECTED_GT_SCORES.items():
            assert evaluations[qid].gt_score_true == expected, qid
        # Questions answered correctly re-verify to the same score.
        for fq in QUESTIONS:
            if fq.pred == fq.gold:
                assert evaluations[fq.qid].gt_score_true == EXPECTED_SCORES[fq.qid]

        assert "== score summary ==" in capsys.readouterr().out

    def test_report_values(self, fixture_paths, tmp_path):
        out_dir = tmp_path / "run"
        assert main(evaluate_args(fixture_paths, out_dir)) == EXIT_OK
        reports = json.loads((out_dir / "report.json").read_text("utf-8"))
        assert len(reports) == 1
        report = records.report_from_record(reports[0])

        assert report.dataset == EXPECTED_REPORT["dataset"]
        assert report.n_total == EXPECTED_REPORT["n_total"]
        assert report.n_correct == EXPECTED_REPORT["n_correct"]
        assert report.n_incorrect == EXPECTED_REPORT["n_incorrect"]
        assert report.n_unlabeled == EXPECTED_REPORT["n_unlabeled"]
        assert report.mean_correct == EXPECTED_REPORT["mean_correct"]
        assert report.mean_incorrect == EXPECTED_REPORT["mean_incorrect"]
        assert report.diff == EXPECTED_REPORT["diff"]
        assert report.p_correct == EXPECTED_REPORT["p_correct"]
        assert report.p_incorrect == EXPECTED_REPORT["p_incorrect"]
        comparison = report.gt_comparison
        assert (comparison.gt_greater, comparison.gt_equal, comparison.gt_less) \
            == EXPECTED_REPORT["gt_comparison"]
        assert report.t_stat == pytest.approx(EXPECTED_T_STAT, abs=1e-12)
        assert report.degrees_freedom == pytest.approx(EXPECTED_DF, abs=1e-12)
        assert 0.0 < report.p_value < 0.01

    def test_manifest(self, fixture_paths, tmp_path):
        out_dir = tmp_path / "run"
        assert main(evaluate_args(fixture_paths, out_dir)) == EXIT_OK
        manifest = json.loads((out_dir / "manifest.json").read_text("utf-8"))
        assert manifest["n_questions"] == 12
        assert manifest["n_ok"] == 12
        assert manifest["n_failed"] == 0
        assert all(
            entry == {"status": "ok"} for entry in manifest["questions"].values()
        )
        assert manifest["provider_calls"] == EXPECTED_CALLS_NO_CACHE
        assert manifest["config"]["provider_mode"] == "scripted"
        assert manifest["config"]["ground_truth"] is True
        assert manifest["started_at"] <= manifest["finished_at"]

    def test_record_files_are_timestamp_free(self, fixture_paths, tmp_path):
        out_dir = tmp_path / "run"
        assert main(evaluate_args(fixture_paths, out_dir)) == EXIT_OK
        for name in (
            "claim_sets.jsonl", "assignments.jsonl", "verifications.jsonl",
            "gt_verifications.jsonl", "evaluations.jsonl", "report.json",
            "report.txt",
        ):
            content = (out_dir / name).read_text("utf-8")
            assert "timestamp" not in content, name
            assert "started_at" not in content, name

    def test_stage_files_cover_every_question(self, fixture_paths, tmp_path):
        out_dir = tmp_path / "run"
        assert main(evaluate_args(fixture_paths, out_dir)) == EXIT_OK
        claim_rows = records.read_jsonl(out_dir / "claim_sets.jsonl")
        assert len(claim_rows) == 12
        gt_rows = records.read_jsonl(out_dir / "gt_verifications.jsonl")
        assert len(gt_rows) == 12
        for _, row in gt_rows:
            assert {r["verdict"] for r in row["results"]} <= {
                "true", "false", "non_response",
            }


class TestDeterminismAndReplay:
    def test_two_runs_are_byte_identical(self, fixture_paths, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(evaluate_args(fixture_paths, out_a)) == EXIT_OK
        assert main(evaluate_args(fixture_paths, out_b)) == EXIT_OK
        for name in ("evaluations.jsonl", "report.json", "report.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_concurrency_preserves_output_bytes(self, fixture_paths, tmp_path):
        out_serial, out_parallel = tmp_path / "serial", tmp_path / "parallel"
        assert main(evaluate_args(fixture_paths, out_serial)) == EXIT_OK
        assert main(
            evaluate_args(fixture_paths, out_parallel, "--concurrency", "4")
        ) == EXIT_OK
        assert (out_serial / "evaluations.jsonl").read_bytes() == \
            (out_parallel / "evaluations.jsonl").read_bytes()

    def test_cache_then_replay(self, fixture_paths, tmp_path):
        cache_dir = tmp_path / "cache"
        out_live = tmp_path / "live"
        code = main(
            evaluate_args(fixture_paths, out_live, "--cache-dir", str(cache_dir))
        )
        assert code == EXIT_OK
        manifest = json.loads((out_live / "manifest.json").read_text("utf-8"))
        assert manifest["provider_calls"] == EXPECTED_CALLS_WITH_CACHE
        entries = list(cache_dir.glob("*.json"))
        assert len(entries) == EXPECTED_CACHE_ENTRIES

        # Replay needs no script file at all: everything is served from disk.
        out_replay = tmp_path / "replay"
        code = main(
            [
                "evaluate",
                "--questions", str(fixture_paths["questions"]),
                "--labels", str(fixture_paths["labels"]),
                "--provider", "replay",
                "--cache-dir", str(cache_dir),
                "--out-dir", str(out_replay),
                "--ground-truth",
            ]
        )
        assert code == EXIT_OK
        assert (out_live / "evaluations.jsonl").read_bytes() == \
            (out_replay / "evaluations.jsonl").read_bytes()
        assert (out_live / "report.json").read_bytes() == \
            (out_replay / "report.json").read_bytes()

    def test_replay_with_cold_cache_fails_loudly(self, fixture_paths, tmp_path):
        cache_dir = tmp_path / "empty-cache"
        cache_dir.mkdir()
        out_dir = tmp_path / "replay"
        code = main(
            [
                "evaluate",
                "--questions", str(fixture_paths["questions"]),
                "--provider", "replay",
                "--cache-dir", str(cache_dir),
                "--out-dir", str(out_dir),
            ]
        )
        assert code == EXIT_TOTAL
        manifest = json.loads((out_dir / "manifest.json").read_text("utf-8"))
        assert manifest["n_ok"] == 0
        assert all(
            "replay_miss" in entry["reason"]
            for entry in manifest["questions"].values()
        )


class TestSelectionFlags:
    def test_limit(self, fixture_paths, tmp_path):
        out_dir = tmp_path / "run"
        code = main(evaluate_args(fixture_paths, out_dir, "--limit", "3"))
        assert code == EXIT_OK
        assert sorted(read_evaluations(out_dir)) == ["q01", "q02", "q03"]

    def test_sample_is_seeded(self, fixture_paths, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["--sample", "4", "--seed", "9"]
        assert main(evaluate_args(fixture_paths, out_a, *args)) == EXIT_OK
        assert main(evaluate_args(fixture_paths, out_b, *args)) == EXIT_OK
        ids_a = sorted(read_evaluations(out_a))
        assert len(ids_a) == 4
        assert ids_a == sorted(read_evaluations(out_b))

    def test_limit_and_sample_conflict(self, fixture_paths, tmp_path, capsys):
        code = main(
            evaluate_args(
                fixture_paths, tmp_path / "run",
                "--limit", "3", "--sample", "3",
            )
        )
        assert code == EXIT_CONFIG
        assert "mutually exclusive" in capsys.readouterr().err

    def test_oversized_sample_is_config_error(self, fixture_paths, tmp_path):
        code = main(
            evaluate_args(fixture_paths, tmp_path / "run", "--sample", "100")
        )
        assert code == EXIT_CONFIG


class TestFailureHandling:
    def test_missing_script_is_config_error(self, fixture_paths, tmp_path, capsys):
        code = main(
            [
                "evaluate",
                "--questions", str(fixture_paths["questions"]),
                "--out-dir", str(tmp_path / "run"),
            ]
        )
        assert code == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_missing_question_file_is_config_error(self, fixture_paths, tmp_path):
        code = main(
            [
                "evaluate",
                "--questions", str(tmp_path / "nope.jsonl"),
                "--script", str(fixture_paths["rules"]),
                "--out-dir", str(tmp_path / "run"),
            ]
        )
        assert code == EXIT_CONFIG

    def test_one_question_failing_is_partial(self, fixture_paths, tmp_path):
        # Remove q01's decomposition rule so only that question fails.
        rules = [
            record
            for _, record in records.read_jsonl(fixture_paths["rules"])
            if record["match"] != f"Question: {QUESTIONS[0].text}\nStep 1:"
        ]
        broken = fixture_paths["rules"].parent / "broken_rules.jsonl"
        records.write_jsonl_atomic(broken, rules)

        out_dir = tmp_path / "run"
        code = main(
            [
                "evaluate",
                "--questions", str(fixture_paths["questions"]),
                "--script", str(broken),
                "--out-dir", str(out_dir),
            ]
        )
        assert code == EXIT_PARTIAL
        manifest = json.loads((out_dir / "manifest.json").read_text("utf-8"))
        assert manifest["n_ok"] == 11
        entry = manifest["questions"]["q01"]
        assert entry["status"] == "failed"
        assert entry["stage"] == "decompose"
        assert sorted(read_evaluations(out_dir)) == [
            fq.qid for fq in QUESTIONS[1:]
        ]

    def test_every_question_failing_is_total(self, fixture_paths, tmp_path):
        empty_rules = fixture_paths["rules"].parent / "empty_rules.jsonl"
        empty_rules.write_text("", encoding="utf-8")
        code = main(
            [
                "evaluate",
                "--questions", str(fixture_paths["questions"]),
                "--script", str(empty_rules),
                "--out-dir", str(tmp_path / "run"),
            ]
        )
        assert code == EXIT_TOTAL

    def test_lenient_turns_verify_gaps_into_non_responses(
        self, fixture_paths, tmp_path
    ):
        dropped_prompt = "True or False: carbon dioxide is absorbed by plants " \
            "during photosynthesis"
        rules = [
            record
            for _, record in records.read_jsonl(fixture_paths["rules"])
            if record["match"] != dropped_prompt
        ]
        broken = fixture_paths["rules"].parent / "gap_rules.jsonl"
        records.write_jsonl_atomic(broken, rules)

        strict_code = main(
            [
                "evaluate",
                "--questions", str(fixture_paths["questions"]),
                "--script", str(broken),
                "--out-dir", str(tmp_path / "strict"),
            ]
        )
        assert strict_code == EXIT_PARTIAL

        out_dir = tmp_path / "lenient"
        code = main(
            [
                "evaluate",
                "--questions", str(fixture_paths["questions"]),
                "--script", str(broken),
                "--out-dir", str(out_dir),
                "--lenient",
            ]
        )
        assert code == EXIT_OK
        evaluation = read_evaluations(out_dir)["q12"]
        assert evaluation.results[1].verdict is Verdict.NON_RESPONSE
        assert evaluation.score_true == Fraction(0)


class TestStageCommands:
    def test_chain_matches_evaluate(self, fixture_paths, tmp_path):
        questions = str(fixture_paths["questions"])
        script = str(fixture_paths["rules"])
        out_dir = tmp_path / "stages"
        out_dir.mkdir()

        reference = tmp_path / "reference"
        assert main(evaluate_args(fixture_paths, reference)) == EXIT_OK

        code = main(
            [
                "decompose", "--questions", questions, "--script", script,
                "--out", str(out_dir / "claims.jsonl"),
            ]
        )
        assert code == EXIT_OK
        code = main(
            [
                "answer", "--questions", questions, "--script", script,
                "--claims", str(out_dir / "claims.jsonl"),
                "--out", str(out_dir / "assignments.jsonl"),
            ]
        )
        assert code == EXIT_OK
        code = main(
            [
                "verify", "--questions", questions, "--script", script,
                "--claims", str(out_dir / "claims.jsonl"),
                "--assignments", str(out_dir / "assignments.jsonl"),
                "--ground-truth",
                "--out", str(out_dir / "verifications.jsonl"),
                "--gt-out", str(out_dir / "gt_verifications.jsonl"),
            ]
        )
        assert code == EXIT_OK
        code = main(
            [
                "score", "--questions", questions,
                "--claims", str(out_dir / "claims.jsonl"),
                "--assignments", str(out_dir / "assignments.jsonl"),
                "--verifications", str(out_dir / "verifications.jsonl"),
                "--gt-verifications", str(out_dir / "gt_verifications.jsonl"),
                "--labels", str(fixture_paths["labels"]),
                "--out", str(out_dir / "evaluations.jsonl"),
            ]
        )
        assert code == EXIT_OK

        assert (out_dir / "evaluations.jsonl").read_bytes() == \
            (reference / "evaluations.jsonl").read_bytes()

    @pytest.mark.parametrize(
        "command, inputs",
        [("answer", ("--claims",)), ("verify", ("--claims", "--assignments"))],
    )
    def test_missing_input_fails_like_evaluate(
        self, fixture_paths, tmp_path, caplog, command, inputs
    ):
        reference = tmp_path / "reference"
        assert main(evaluate_args(fixture_paths, reference)) == EXIT_OK
        files = {
            "--claims": reference / "claim_sets.jsonl",
            "--assignments": reference / "assignments.jsonl",
        }
        # The last input loses q01's record.
        lacking = files[inputs[-1]]
        rows = [
            row for _, row in records.read_jsonl(lacking)
            if row["question_id"] != "q01"
        ]
        records.write_jsonl_atomic(lacking, rows)
        out = tmp_path / "out.jsonl"
        argv = [
            command,
            "--questions", str(fixture_paths["questions"]),
            "--script", str(fixture_paths["rules"]),
            "--out", str(out),
        ]
        for flag in inputs:
            argv += [flag, str(files[flag])]

        with caplog.at_level(logging.ERROR):
            assert main(argv) == EXIT_PARTIAL
        failures = [
            r.getMessage() for r in caplog.records if r.levelno == logging.ERROR
        ]
        assert len(failures) == 1
        assert failures[0].startswith(f"question q01 failed at {command}: ")
        assert [row["question_id"] for _, row in records.read_jsonl(out)] == [
            fq.qid for fq in QUESTIONS[1:]
        ]

    def test_verify_ground_truth_without_gt_out_calls_nothing(
        self, fixture_paths, tmp_path, monkeypatch, capsys
    ):
        reference = tmp_path / "reference"
        assert main(evaluate_args(fixture_paths, reference)) == EXIT_OK
        calls = []

        def refuse(self, request):
            calls.append(request)
            raise AssertionError("provider called")

        monkeypatch.setattr(ScriptedProvider, "complete", refuse)
        out = tmp_path / "verifications.jsonl"
        code = main(
            [
                "verify",
                "--questions", str(fixture_paths["questions"]),
                "--script", str(fixture_paths["rules"]),
                "--claims", str(reference / "claim_sets.jsonl"),
                "--assignments", str(reference / "assignments.jsonl"),
                "--ground-truth",
                "--out", str(out),
            ]
        )
        assert code == EXIT_CONFIG
        assert "--gt-out" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_report_command(self, fixture_paths, tmp_path, capsys):
        reference = tmp_path / "reference"
        assert main(evaluate_args(fixture_paths, reference)) == EXIT_OK
        capsys.readouterr()

        out_json = tmp_path / "report.json"
        out_text = tmp_path / "report.txt"
        code = main(
            [
                "report",
                "--records", str(reference / "evaluations.jsonl"),
                "--out-json", str(out_json),
                "--out-text", str(out_text),
            ]
        )
        assert code == EXIT_OK
        assert out_json.read_bytes() == (reference / "report.json").read_bytes()
        assert out_text.read_bytes() == (reference / "report.txt").read_bytes()
        stdout = capsys.readouterr().out
        assert "== score summary ==" in stdout
        assert "custom" in stdout
        assert "gt>pred" in stdout

    def test_report_on_missing_file_is_config_error(self, tmp_path):
        assert main(["report", "--records", str(tmp_path / "nope.jsonl")]) \
            == EXIT_CONFIG


# Input flags of each command that reads files; the bad-file test swaps one
# of them for a malformed copy.
INPUT_FLAGS = {
    "evaluate": ("--questions", "--script", "--labels"),
    "answer": ("--questions", "--script", "--claims"),
    "verify": ("--questions", "--script", "--claims", "--assignments"),
    "score": ("--questions", "--claims", "--assignments", "--verifications",
              "--gt-verifications", "--labels"),
    "report": ("--records",),
    "annotate": ("--records", "--labels"),
    "baseline": ("--records", "--script"),
}
OUTPUT_FLAGS = {
    "evaluate": "--out-dir", "answer": "--out", "verify": "--out",
    "score": "--out", "baseline": "--out",
}


@pytest.mark.parametrize("content", ["{not json\n", '{"question_id": "q01"}\n'])
@pytest.mark.parametrize(
    "command, bad_flag",
    [
        (command, flag)
        for command, flags in INPUT_FLAGS.items()
        for flag in flags
        if flag not in ("--questions", "--script")
    ],
)
def test_bad_input_file_is_config_error(
    fixture_paths, tmp_path, capsys, command, bad_flag, content
):
    reference = tmp_path / "reference"
    assert main(evaluate_args(fixture_paths, reference)) == EXIT_OK
    capsys.readouterr()
    bad = tmp_path / "bad.jsonl"
    bad.write_text(content, encoding="utf-8")
    files = {
        "--questions": fixture_paths["questions"],
        "--script": fixture_paths["rules"],
        "--labels": fixture_paths["labels"],
        "--claims": reference / "claim_sets.jsonl",
        "--assignments": reference / "assignments.jsonl",
        "--verifications": reference / "verifications.jsonl",
        "--gt-verifications": reference / "gt_verifications.jsonl",
        "--records": reference / "evaluations.jsonl",
        bad_flag: bad,
    }
    argv = [command]
    for flag in INPUT_FLAGS[command]:
        argv += [flag, str(files[flag])]
    if command in OUTPUT_FLAGS:
        argv += [OUTPUT_FLAGS[command], str(tmp_path / "out")]

    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:1: ")
    assert "Traceback" not in err


class ScriptedInput:
    def __init__(self, answers):
        self.answers = list(answers)

    def __call__(self, prompt):
        if not self.answers:
            raise EOFError
        return self.answers.pop(0)


class TestAnnotate:
    def write_records(self, tmp_path):
        evaluations = [
            build_evaluation("q1", "TTT"),
            build_evaluation("q2", "TFF"),
            build_evaluation("q3", "TT"),
        ]
        path = tmp_path / "evaluations.jsonl"
        records.write_jsonl_atomic(
            path, (records.evaluation_to_record(e) for e in evaluations)
        )
        return path

    def run(self, tmp_path, answers, labels_name="labels.jsonl"):
        records_path = self.write_records(tmp_path)
        labels_path = tmp_path / labels_name
        args = build_parser().parse_args(
            ["annotate", "--records", str(records_path),
             "--labels", str(labels_path)]
        )
        printed = []
        code = cmd_annotate(args, input_fn=ScriptedInput(answers),
                            print_fn=printed.append)
        return code, labels_path, "\n".join(printed)

    def test_label_session(self, tmp_path):
        code, labels_path, output = self.run(
            tmp_path,
            ["x", "c", "i", "confused the entity", "s"],
        )
        assert code == EXIT_OK
        assert "please answer" in output  # the bad "x" was re-prompted
        labels = records.load_labels(labels_path)
        assert labels == {
            "q1": (True, None),
            "q2": (False, "confused the entity"),
        }

    def test_quit_stops_early(self, tmp_path):
        code, labels_path, _ = self.run(tmp_path, ["c", "q"])
        assert code == EXIT_OK
        assert records.load_labels(labels_path) == {"q1": (True, None)}

    def test_eof_quits_gracefully(self, tmp_path):
        code, labels_path, _ = self.run(tmp_path, [])
        assert code == EXIT_OK
        assert not labels_path.exists()

    def test_existing_labels_skip_questions(self, tmp_path):
        records_path = self.write_records(tmp_path)
        labels_path = tmp_path / "labels.jsonl"
        records.append_label(labels_path, "q1", True)
        records.append_label(labels_path, "q2", False)
        args = build_parser().parse_args(
            ["annotate", "--records", str(records_path),
             "--labels", str(labels_path)]
        )
        printed = []
        code = cmd_annotate(args, input_fn=ScriptedInput(["c"]),
                            print_fn=printed.append)
        assert code == EXIT_OK
        output = "\n".join(printed)
        assert "1 unlabeled of 3" in output
        assert records.load_labels(labels_path)["q3"] == (True, None)


class TestBaseline:
    def test_baseline_over_evaluations(self, fixture_paths, tmp_path):
        reference = tmp_path / "reference"
        assert main(evaluate_args(fixture_paths, reference)) == EXIT_OK

        baseline_rules = tmp_path / "baseline_rules.jsonl"
        rows = [
            {
                "match": f"Here is the question: {fq.text} "
                         f"Is the answer {fq.pred} correct?",
                "mode": "exact",
                "response": "True." if fq.pred == fq.gold else "False.",
            }
            for fq in QUESTIONS
        ]
        records.write_jsonl_atomic(baseline_rules, rows)

        out = tmp_path / "baseline.jsonl"
        code = main(
            [
                "baseline",
                "--records", str(reference / "evaluations.jsonl"),
                "--script", str(baseline_rules),
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        rows = {r["question_id"]: r for _, r in records.read_jsonl(out)}
        assert len(rows) == 12
        for fq in QUESTIONS:
            row = rows[fq.qid]
            assert row["answer"] == fq.pred
            expected = "true" if fq.pred == fq.gold else "false"
            assert row["verdict"] == expected
            assert Fraction(row["score_true"]) == EXPECTED_SCORES[fq.qid]

    def test_baseline_needs_records(self, tmp_path, fixture_paths):
        code = main(
            [
                "baseline",
                "--records", str(tmp_path / "nope.jsonl"),
                "--script", str(fixture_paths["rules"]),
                "--out", str(tmp_path / "baseline.jsonl"),
            ]
        )
        assert code == EXIT_CONFIG


class TestBuildObscureQA:
    def write_dump(self, tmp_path):
        rows = [
            {
                "clues": [f"This person number {i} painted a mural (in fresco)",
                          "easier second clue"],
                "answer": f"Painter {i}",
                "category": "Fine Arts",
            }
            for i in range(8)
        ]
        rows.append({"clues": ["Note to moderator: read slowly"], "answer": "x"})
        rows.append({"clues": ["(nothing but parens)"], "answer": "y"})
        rows.append({"clues": [], "answer": "invalid"})
        rows.append("not even an object")
        path = tmp_path / "dump.jsonl"
        path.write_text(
            "".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8"
        )
        return path

    def test_build(self, tmp_path, capsys):
        dump = self.write_dump(tmp_path)
        out_dir = tmp_path / "dataset"
        code = main(
            ["build-obscureqa", "--dump", str(dump), "--out-dir", str(out_dir)]
        )
        assert code == EXIT_OK

        stats = json.loads((out_dir / "build_stats.json").read_text("utf-8"))
        assert stats["input_records"] == 10
        assert stats["line_errors"] == 2
        assert stats["dropped_moderator_notes"] == 1
        assert stats["dropped_empty"] == 1
        assert stats["kept"] == 8
        expected_sizes = split_sizes(8, SplitSpec())
        assert (stats["train"], stats["valid"], stats["test"]) == expected_sizes

        train = [r for _, r in records.read_jsonl(out_dir / "obscureqa_train.jsonl")]
        assert all(r["dataset"] == "obscureqa" for r in train)
        assert all(r["text"].startswith("What person number") for r in train)
        assert "kept 8 of 10" in capsys.readouterr().out

    def test_same_seed_same_files(self, tmp_path):
        dump = self.write_dump(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out_dir in (out_a, out_b):
            assert main(
                ["build-obscureqa", "--dump", str(dump),
                 "--out-dir", str(out_dir), "--seed", "3"]
            ) == EXIT_OK
        for name in ("obscureqa_train.jsonl", "obscureqa_valid.jsonl",
                     "obscureqa_test.jsonl"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_bad_fractions_are_config_errors(self, tmp_path, capsys):
        dump = self.write_dump(tmp_path)
        code = main(
            ["build-obscureqa", "--dump", str(dump),
             "--out-dir", str(tmp_path / "out"),
             "--train", "0.5", "--valid", "0.1", "--test", "0.2"]
        )
        assert code == EXIT_CONFIG
        assert "sum to 1" in capsys.readouterr().err

    def test_missing_dump_is_config_error(self, tmp_path):
        code = main(
            ["build-obscureqa", "--dump", str(tmp_path / "nope.jsonl"),
             "--out-dir", str(tmp_path / "out")]
        )
        assert code == EXIT_CONFIG
