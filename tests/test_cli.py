"""End-to-end CLI tests driven by the scripted 12-question fixture."""

import argparse
import dataclasses
import io
import json
import logging
import os
import shutil
import stat
import tempfile
import threading
from contextlib import redirect_stderr
from fractions import Fraction
from pathlib import Path

import pytest

from abcd_eval import records
from abcd_eval.cli import (
    COMMANDS,
    EXIT_CONFIG,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_TOTAL,
    build_parser,
    cmd_annotate,
    config_from_args,
    main,
    render_report_text,
)
from abcd_eval.datasets import (
    QuestionFormat,
    SplitSpec,
    build_obscureqa,
    load_questions,
    parse_quizbowl_record,
    split_sizes,
)
from abcd_eval.decompose import default_pack_path
from abcd_eval.model import AggregateReport
from abcd_eval.pipeline import PROVIDER_STAGES, QuestionProvider, RunConfig
from abcd_eval.providers import (
    API_KEY_ENV_VAR,
    LiveProvider,
    ScriptedProvider,
)
from abcd_eval.verify import VERIFY_PROMPT_PREFIX
from e2e_fixture import (
    EXPECTED_CACHE_ENTRIES,
    EXPECTED_CALLS,
    EXPECTED_DF,
    EXPECTED_GT_SCORES,
    EXPECTED_REPORT,
    EXPECTED_SCORES,
    EXPECTED_T_STAT,
    GT_ONLY_CLAIMS,
    QUESTIONS,
    TOTAL_CLAIMS,
    write_fixture,
)
from helpers import RECORD_FILES, build_evaluation


@pytest.fixture
def fixture_paths(tmp_path):
    return write_fixture(tmp_path / "fixture")


def evaluate_args(paths, out_dir, *extra, source=None):
    """``evaluate --ground-truth`` of the fixture, answered by its script
    unless *source* names other provider options."""
    return [
        "evaluate",
        "--questions", str(paths["questions"]),
        "--labels", str(paths["labels"]),
        *(source or ("--script", str(paths["rules"]))),
        "--out-dir", str(out_dir),
        "--ground-truth",
        *extra,
    ]


def replay_args(paths, cache_dir, out_dir, *extra):
    """evaluate_args for a strict replay of *cache_dir*: no script at all."""
    return evaluate_args(paths, out_dir, *extra, source=(
        "--provider", "replay", "--cache-dir", str(cache_dir)))


def read_labels(path):
    return dict(
        records.label_from_record(record) for record in records.read_jsonl(path)
    )


def read_evaluations(out_dir):
    return {
        record["question"]["id"]: records.evaluation_from_record(record)
        for record in records.read_jsonl(out_dir / "evaluations.jsonl")
    }


def read_manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text("utf-8"))


def count_prompts(monkeypatch) -> list:
    """The prompts the scripted provider is asked for from now on."""
    sent = []
    complete = ScriptedProvider.complete

    def counting(self, request):
        sent.append(request.prompt)
        return complete(self, request)

    monkeypatch.setattr(ScriptedProvider, "complete", counting)
    return sent


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

    def test_report_values(self, reference_run):
        _, out_dir = reference_run
        reports = json.loads((out_dir / "report.json").read_text("utf-8"))
        assert len(reports) == 1
        report = reports[0]

        assert report["dataset"] == EXPECTED_REPORT["dataset"]
        assert report["n_total"] == EXPECTED_REPORT["n_total"]
        assert report["n_correct"] == EXPECTED_REPORT["n_correct"]
        assert report["n_incorrect"] == EXPECTED_REPORT["n_incorrect"]
        assert report["n_unlabeled"] == EXPECTED_REPORT["n_unlabeled"]
        for name in ("mean_correct", "mean_incorrect", "diff", "p_correct",
                     "p_incorrect"):
            assert report[name] == str(EXPECTED_REPORT[name]), name
        comparison = report["gt_comparison"]
        assert (comparison["gt_greater"], comparison["gt_equal"],
                comparison["gt_less"]) == EXPECTED_REPORT["gt_comparison"]
        assert report["t_stat"] == pytest.approx(EXPECTED_T_STAT, abs=1e-12)
        assert report["degrees_freedom"] == pytest.approx(EXPECTED_DF, abs=1e-12)
        assert 0.0 < report["p_value"] < 0.01

    def test_manifest(self, reference_run):
        paths, out_dir = reference_run
        manifest = json.loads((out_dir / "manifest.json").read_text("utf-8"))
        assert manifest["n_questions"] == 12
        assert manifest["n_ok"] == 12
        assert manifest["n_failed"] == 0
        assert all(
            entry == {"status": "ok"} for entry in manifest["questions"].values()
        )
        assert manifest["provider_calls"] == EXPECTED_CALLS
        config = manifest["config"]
        assert list(config) == [field.name for field in dataclasses.fields(RunConfig)]
        assert config["provider_mode"] == "scripted"
        assert config["script_path"] == str(paths["rules"])
        assert config["match_mode"] == "substring"
        assert config["ground_truth"] is True
        assert manifest["started_at"] <= manifest["finished_at"]

    def test_record_files_are_timestamp_free(self, reference_run):
        _, out_dir = reference_run
        for name in RECORD_FILES:
            content = (out_dir / name).read_text("utf-8")
            assert "timestamp" not in content, name
            assert "started_at" not in content, name

    def test_stage_files_cover_every_question(self, reference_run):
        _, out_dir = reference_run
        claim_rows = records.read_jsonl(out_dir / "claim_sets.jsonl")
        assert len(claim_rows) == 12
        gt_rows = records.read_jsonl(out_dir / "gt_verifications.jsonl")
        assert len(gt_rows) == 12
        for row in gt_rows:
            assert {r["verdict"] for r in row["results"]} <= {
                "true", "false", "non_response",
            }


class TestDeterminismAndReplay:
    @pytest.mark.parametrize(
        "mode, concurrency",
        [(mode, n) for mode in ("plain", "cache", "replay") for n in (1, 2, 8, 32)],
        # The plain runs keep the ids they had before the other modes came in.
        ids=[str(n) for n in (1, 2, 8, 32)]
        + [f"{mode}-{n}" for mode in ("cache", "replay") for n in (1, 2, 8, 32)],
    )
    def test_concurrency_preserves_output_bytes(
        self, reference_run, mode_references, tmp_path, mode, concurrency
    ):
        paths, _ = reference_run
        recorded, references = mode_references
        reference = references[mode]
        out_dir, cache_dir = tmp_path / "run", tmp_path / "cache"
        extra = ("--concurrency", str(concurrency))
        argv = {
            "plain": evaluate_args(paths, out_dir, *extra),
            "cache": evaluate_args(paths, out_dir, "--cache-dir", str(cache_dir), *extra),
            "replay": replay_args(paths, recorded, out_dir, *extra),
        }[mode]
        assert main(argv) == EXIT_OK
        for name in RECORD_FILES:
            assert (out_dir / name).read_bytes() == \
                (reference / name).read_bytes(), name
        manifest = read_manifest(out_dir)
        assert manifest["provider_calls"] == read_manifest(reference)["provider_calls"]
        assert manifest["config"]["concurrency"] == concurrency
        if mode == "cache":
            assert sorted(p.name for p in cache_dir.iterdir()) == \
                sorted(p.name for p in recorded.iterdir())

    def test_manifest_lists_every_provider_stage_in_order(
        self, reference_run, mode_references, tmp_path
    ):
        """A stage that sent nothing is listed with 0: every one on a warm
        cache, where all calls hit, and baseline in a replay."""
        paths, _ = reference_run
        recorded, references = mode_references
        shutil.copytree(recorded, tmp_path / "cache")
        out_warm = tmp_path / "warm"
        assert main(evaluate_args(
            paths, out_warm, "--cache-dir", str(tmp_path / "cache")
        )) == EXIT_OK
        assert list(read_manifest(out_warm)["provider_calls"].items()) == \
            [(stage, 0) for stage in PROVIDER_STAGES]
        replayed = read_manifest(references["replay"])["provider_calls"]
        assert list(replayed.items()) == \
            [(stage, EXPECTED_CALLS[stage]) for stage in PROVIDER_STAGES]
        assert replayed["baseline"] == 0

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


def test_written_files_follow_the_umask(fixture_paths, tmp_path):
    """Record files, reports, the manifest, cache entries and dataset
    splits are made 0666 less the umask, and no temp file is left."""
    dump = tmp_path / "dump.jsonl"
    dump.write_text("".join(
        json.dumps({"clues": [f"This painter number {i} made a mural"],
                    "answer": f"Painter {i}"}) + "\n"
        for i in range(4)
    ), encoding="utf-8")
    out_dir, cache_dir, dataset = tmp_path / "run", tmp_path / "cache", tmp_path / "data"
    umask = os.umask(0o022)
    try:
        assert main(evaluate_args(
            fixture_paths, out_dir, "--cache-dir", str(cache_dir)
        )) == EXIT_OK
        assert main(["build-obscureqa", "--dump", str(dump),
                     "--out-dir", str(dataset)]) == EXIT_OK
    finally:
        os.umask(umask)
    written = [*out_dir.iterdir(), *cache_dir.iterdir(), *dataset.iterdir()]
    assert {path.name for path in out_dir.iterdir()} >= {*RECORD_FILES, "manifest.json"}
    assert "obscureqa_train.jsonl" in {path.name for path in written}
    assert [path.name for path in written if path.name.endswith(".part")] == []
    assert {path.name: stat.S_IMODE(path.stat().st_mode) for path in written} == \
        {path.name: 0o644 for path in written}


@pytest.mark.parametrize("concurrency, helping", [
    pytest.param(1, False, id="1"),
    pytest.param(2, False, id="2"),
    pytest.param(2, True, id="helping-2"),
    pytest.param(8, True, id="helping-8"),
])
def test_interrupt_is_exit_130_without_a_traceback(
    fixture_paths, tmp_path, monkeypatch, capsys, concurrency, helping
):
    """A KeyboardInterrupt in the tenth model call, or in a verification
    request that a worker sends for another worker's question, ends the
    run with one ``interrupted`` line, writes no record file and leaves no
    worker running."""
    calls = []
    lock = threading.Lock()
    complete, complete_all = ScriptedProvider.complete, QuestionProvider.complete_all
    # With *helping*: the prompts of the batch each thread last queued, the
    # thread whose first batch of three waits until another thread sends
    # one of its requests, and whether one did.
    batches, waiter, helped = {}, [], threading.Event()

    def batching(self, requests):
        with lock:
            batches[threading.get_ident()] = {request.prompt for request in requests}
            if helping and len(requests) >= 3 and not waiter:
                waiter.append(threading.get_ident())
        return complete_all(self, requests)

    def interrupting(self, request):
        thread = threading.get_ident()
        with lock:
            calls.append(request.prompt)
            if not helping and len(calls) == 10:
                raise KeyboardInterrupt
            if (helping and not helped.is_set()
                    and request.prompt.startswith(VERIFY_PROMPT_PREFIX)
                    and request.prompt not in batches.get(thread, ())):
                helped.set()
                raise KeyboardInterrupt
        if thread in waiter:
            helped.wait(timeout=10)
        return complete(self, request)

    monkeypatch.setattr(ScriptedProvider, "complete", interrupting)
    monkeypatch.setattr(QuestionProvider, "complete_all", batching)
    threads = set(threading.enumerate())
    out_dir = tmp_path / "run"
    try:
        code = main(evaluate_args(fixture_paths, out_dir, "--concurrency", str(concurrency)))
    except KeyboardInterrupt:
        pytest.fail("the interrupt escaped cli.main")
    assert code == 130
    assert helped.is_set() == helping
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1] == "interrupted"
    assert list(out_dir.iterdir()) == []
    assert set(threading.enumerate()) <= threads


class TestSelectionFlags:
    def test_limit(self, fixture_paths, tmp_path):
        out_dir = tmp_path / "run"
        code = main(evaluate_args(fixture_paths, out_dir, "--limit", "3"))
        assert code == EXIT_OK
        assert sorted(read_evaluations(out_dir)) == ["q01", "q02", "q03"]

    def test_a_rerun_without_ground_truth_removes_the_gold_file(self, fixture_paths, tmp_path):
        out_dir = tmp_path / "run"
        assert main(evaluate_args(fixture_paths, out_dir)) == EXIT_OK
        rerun = evaluate_args(fixture_paths, out_dir, "--limit", "6")
        rerun.remove("--ground-truth")
        assert main(rerun) == EXIT_OK
        assert sorted(path.name for path in out_dir.iterdir()) == sorted(
            {*RECORD_FILES, "manifest.json"} - {"gt_verifications.jsonl"})

    # A manifest marks a complete set of one run's files: a rerun that stops
    # in its write phase leaves two runs' files and no manifest.
    def test_a_rerun_stopped_after_two_record_files_leaves_no_manifest(
        self, fixture_paths, tmp_path, monkeypatch
    ):
        out_dir = tmp_path / "run"
        assert main(evaluate_args(fixture_paths, out_dir)) == EXIT_OK
        write, written = records.atomic_write, []

        def stopped_after_two(path, data):
            if len(written) == 2:
                raise KeyboardInterrupt
            write(path, data)
            written.append(Path(path).name)

        monkeypatch.setattr(records, "atomic_write", stopped_after_two)
        with redirect_stderr(io.StringIO()):
            assert main(evaluate_args(fixture_paths, out_dir, "--limit", "6")) == \
                EXIT_INTERRUPTED
        assert written == ["claim_sets.jsonl", "assignments.jsonl"]
        assert len(records.read_jsonl(out_dir / "claim_sets.jsonl")) == 6
        assert len(read_evaluations(out_dir)) == 12
        assert not (out_dir / "manifest.json").exists()

    def test_a_rerun_failing_to_write_leaves_no_manifest(self, fixture_paths, tmp_path):
        out_dir = tmp_path / "run"
        assert main(evaluate_args(fixture_paths, out_dir)) == EXIT_OK
        (out_dir / "evaluations.jsonl").unlink()
        (out_dir / "evaluations.jsonl").mkdir()
        with redirect_stderr(io.StringIO()) as err:
            assert main(evaluate_args(fixture_paths, out_dir, "--limit", "6")) == EXIT_CONFIG
        assert err.getvalue().startswith("error: [Errno 21] Is a directory: ")
        assert len(records.read_jsonl(out_dir / "verifications.jsonl")) == 6
        assert json.loads((out_dir / "report.json").read_text("utf-8"))[0]["n_total"] == 12
        assert not (out_dir / "manifest.json").exists()

    def test_a_run_removes_temp_files_in_its_out_dir_but_not_the_cache(
        self, fixture_paths, tmp_path
    ):
        out_dir, cache_dir = tmp_path / "run", tmp_path / "cache"
        part = ".tmp-" + "0" * 24 + ".part"
        for directory in (out_dir, cache_dir):
            directory.mkdir()
            (directory / part).write_bytes(b'{"request"')
        assert main(evaluate_args(fixture_paths, out_dir, "--cache-dir", str(cache_dir))) \
            == EXIT_OK
        assert not (out_dir / part).exists()
        assert (cache_dir / part).exists()

    def test_sample_is_seeded(self, fixture_paths, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["--sample", "4", "--seed", "9"]
        assert main(evaluate_args(fixture_paths, out_a, *args)) == EXIT_OK
        assert main(evaluate_args(fixture_paths, out_b, *args)) == EXIT_OK
        ids_a = sorted(read_evaluations(out_a))
        assert len(ids_a) == 4
        assert ids_a == sorted(read_evaluations(out_b))


class TestFailureHandling:
    def test_one_question_failing_is_partial(self, fixture_paths, tmp_path):
        # Remove q01's decomposition rule so only that question fails.
        rules = [
            record
            for record in records.read_jsonl(fixture_paths["rules"])
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

    def test_a_cache_entry_that_cannot_be_written_fails_its_question(
        self, fixture_paths, tmp_path, monkeypatch, capsys, caplog
    ):
        """The cache entries of a question are written when it ends, after
        its last stage: a write that fails fails the question at ``score``.
        Only the cache's writes are broken; the record files and the
        manifest are still written."""

        def disk_full(path, data):
            raise OSError("disk full")

        monkeypatch.setattr("abcd_eval.providers.atomic_write", disk_full)
        out_dir, cache_dir = tmp_path / "run", tmp_path / "cache"
        code = main(evaluate_args(fixture_paths, out_dir, "--cache-dir", str(cache_dir)))
        assert code == EXIT_TOTAL
        assert read_manifest(out_dir)["questions"] == {
            fq.qid: {"status": "failed", "stage": "score", "reason": "OSError: disk full"}
            for fq in QUESTIONS
        }
        assert "Traceback" not in capsys.readouterr().err + caplog.text
        assert list(cache_dir.iterdir()) == []
        assert [path.name for path in out_dir.iterdir() if path.name.endswith(".part")] == []


class TestStageCommands:
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
            row for row in records.read_jsonl(lacking)
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
        assert [row["question_id"] for row in records.read_jsonl(out)] == [
            fq.qid for fq in QUESTIONS[1:]
        ]

    def test_verify_ground_truth_sends_what_evaluate_sends(
        self, reference_run, tmp_path, monkeypatch
    ):
        paths, reference = reference_run
        calls = read_manifest(reference)["provider_calls"]
        sent = count_prompts(monkeypatch)
        code = main(
            [
                "verify",
                "--questions", str(paths["questions"]),
                "--script", str(paths["rules"]),
                "--claims", str(reference / "claim_sets.jsonl"),
                "--assignments", str(reference / "assignments.jsonl"),
                "--ground-truth",
                "--out", str(tmp_path / "verifications.jsonl"),
                "--gt-out", str(tmp_path / "gt_verifications.jsonl"),
            ]
        )
        assert code == EXIT_OK
        assert len(sent) == calls["verify"] + calls["verify_gt"] == \
            TOTAL_CLAIMS + GT_ONLY_CLAIMS

    def test_report_command(self, reference_run, tmp_path, capsys):
        _, reference = reference_run
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


# --------------------------------------------------------------------------
# Configuration errors: each row of CONFIG_ERRORS runs one command with one
# bad input file, option value or environment variable, and
# test_config_error checks every row for the whole contract.

# Each command's input options, given the fixture's inputs and the reference
# run's records unless a row swaps one for a bad copy; its output option.
INPUT_FLAGS = {
    "evaluate": ("--questions", "--script", "--labels"),
    "decompose": ("--questions", "--script"),
    "answer": ("--questions", "--script", "--claims"),
    "verify": ("--questions", "--script", "--claims", "--assignments"),
    "score": ("--questions", "--claims", "--assignments", "--verifications",
              "--gt-verifications", "--labels"),
    "report": ("--records",),
    "annotate": ("--records", "--labels"),
    "baseline": ("--records", "--script"),
    "build-obscureqa": (),
}
OUTPUT_FLAGS = {
    "evaluate": "--out-dir", "decompose": "--out", "answer": "--out",
    "verify": "--out", "score": "--out", "baseline": "--out",
    "build-obscureqa": "--out-dir",
}


def input_files(reference_run):
    """Each input flag's file: the fixture's inputs and the reference run's
    records."""
    paths, reference = reference_run
    return {
        "--questions": paths["questions"],
        "--script": paths["rules"],
        "--labels": paths["labels"],
        "--claims": reference / "claim_sets.jsonl",
        "--assignments": reference / "assignments.jsonl",
        "--verifications": reference / "verifications.jsonl",
        "--gt-verifications": reference / "gt_verifications.jsonl",
        "--records": reference / "evaluations.jsonl",
    }


DELETE = object()


def edited(changes):
    """Bad content: the input file with *changes*, ``{dotted path: value}``,
    made to its first record; a DELETE value removes the key."""
    def content(path):
        rows = records.read_jsonl(path)
        for dotted, value in changes.items():
            *parents, last = [int(key) if key.isdigit() else key
                              for key in dotted.split(".")]
            node = rows[0]
            for key in parents:
                node = node[key]
            if value is DELETE:
                del node[last]
            else:
                node[last] = value
        return "".join(json.dumps(row) + "\n" for row in rows)
    return content


def doubled(path):
    """Bad content: the input file read twice over."""
    return path.read_text("utf-8") * 2


def bad_pack(_):
    """Bad content: the bundled prompt pack, with instructions that are not
    UTF-8."""
    return {
        "examples.txt": (default_pack_path() / "examples.txt").read_bytes(),
        "instructions.txt": b"Decompose \xff\n",
    }


def write_bad(bad, content, original):
    """Write *content* at *bad*: text, bytes, a directory's ``{name: bytes}``,
    or a function of the *original* input file that returns one of those;
    None and DELETE write nothing."""
    if callable(content):
        content = content(original)
    if content is None or content is DELETE:
        return
    if isinstance(content, dict):
        bad.mkdir()
        for name, data in content.items():
            (bad / name).write_bytes(data)
    elif isinstance(content, str):
        bad.write_text(content, encoding="utf-8")
    else:
        bad.write_bytes(content)


def row(name, command, expected, swap=None, args=(), env=None):
    """A configuration-error row: *command* with the ``(flag, bad content)``
    of *swap* in place of that input (None: a file that is not there;
    DELETE: the flag left out), *args* added and *env* set (None unsets)
    prints *expected*, the whole ``error:`` line or a tuple of its start and
    fragments it contains. ``{bad}`` there is the bad input's path."""
    return pytest.param(command, swap, args, env or {}, expected, id=name)


BAD_RECORD = "error: {bad}:1: bad record: "
BAD_VALUE = BAD_RECORD + "ValueError: "
NOT_UTF8 = b'{"id": "q01", "question": "caf\xe9?", "answer": "x"}\n'
# The first record of the file with its question id made a list.
LIST_ID = "list question id"
# The stage inputs and --records files, read by each command that takes one.
STAGE_INPUTS = [
    (command, flag)
    for command, flags in INPUT_FLAGS.items()
    for flag in flags
    if flag not in ("--questions", "--script")
]
# Each bad option value and the message it is reported with.
BAD_VALUES = [
    (("--limit", "0"), "--limit must be at least 1, got 0"),
    (("--limit", "-1"), "--limit must be at least 1, got -1"),
    (("--sample", "-1"), "--sample must be at least 1, got -1"),
    (("--limit", "3", "--sample", "2"), "--limit and --sample are mutually exclusive"),
    (("--concurrency", "0"), "--concurrency must be at least 1, got 0"),
    (("--decompose-max-tokens", "0"), "--decompose-max-tokens must be at least 1, got 0"),
    (("--answer-max-tokens", "0"), "--answer-max-tokens must be at least 1, got 0"),
    (("--verify-max-tokens", "0"), "--verify-max-tokens must be at least 1, got 0"),
    (("--decompose-model", ""), "--decompose-model must be non-empty"),
    (("--answer-model", ""), "--answer-model must be non-empty"),
    (("--verify-model", ""), "--verify-model must be non-empty"),
    (("--provider", "live", "--base-url", "localhost:8000/v1"),
     "not an http(s) URL: 'localhost:8000/v1/chat/completions'"),
    (("--provider", "live", "--base-url", "http://127.0.0.1:port/v1"),
     "not an http(s) URL: 'http://127.0.0.1:port/v1/chat/completions'"),
    (("--provider", "live", "--base-url", "http://127.0.0.1:99999/v1"),
     "not an http(s) URL: 'http://127.0.0.1:99999/v1/chat/completions'"),
    (("--provider", "live", "--base-url", "http://127.0.0.1:0/v1"),
     "not an http(s) URL: 'http://127.0.0.1:0/v1/chat/completions'"),
    (("--provider", "live", "--base-url", "http://127.0.0.1:8000/v 1"),
     "not an http(s) URL: 'http://127.0.0.1:8000/v 1/chat/completions'"),
    (("--provider", "live", "--base-url", "http://127.0.0.1:8000/v\u20ac"),
     "not an http(s) URL: 'http://127.0.0.1:8000/v\u20ac/chat/completions'"),
    (("--provider", "live"), "live mode needs --base-url"),
    (("--provider", "replay"), "replay mode needs --cache-dir"),
    (("--provider", "replay", "--cache-dir", "no-such-cache-dir"),
     "cache directory not found: no-such-cache-dir"),
]
BAD_KEY = "auth: the API key must be Latin-1 text without line breaks"

# The swept stage records: the first record of each input, read by one
# command. Every value in it gets a row giving it a JSON type it does not
# take, and every key a row deleting it, but for the keys listed below.
SWEPT = {
    "--claims": "answer", "--assignments": "verify", "--verifications": "score",
    "--gt-verifications": "score", "--labels": "score", "--records": "report",
    "--script": "evaluate",
}
# Derived keys, which readers ignore: no row at all.
DERIVED = {"--claims": ("tags",), "--records": ("tags",)}
# Keys a reader takes as missing: no deletion row.
OPTIONAL = {
    "--claims": ("entity_reasoning",),
    "--records": ("entity_reasoning", "correct", "error_category", "gt_score_true",
                  "category", "subcategory"),
}
# A JSON value of another type, by the type of the value it replaces.
MISTYPED = {str: 5, int: "1", bool: "true", list: {}, dict: [], type(None): 5}


def run_fixture(root):
    """The fixture written under *root* and evaluated into ``root / "run"``;
    a run that fails raises what it printed."""
    paths = write_fixture(root / "fixture")
    with redirect_stderr(io.StringIO()) as err:
        code = main(evaluate_args(paths, root / "run"))
    assert code == EXIT_OK, err.getvalue()
    return paths, root / "run"


def first_records():
    """The first record of each swept file, from an evaluate run of the
    fixture like the reference run's, in a directory removed again."""
    with tempfile.TemporaryDirectory() as root:
        files = input_files(run_fixture(Path(root)))
        return {flag: records.read_jsonl(files[flag])[0] for flag in SWEPT}


def walk(document, skip, path=()):
    """``(path, value)`` of every value inside a JSON *document* but those
    under a key in *skip*; a path is a tuple of keys and list indices."""
    if isinstance(document, dict):
        children = document.items()
    else:
        children = enumerate(document) if isinstance(document, list) else ()
    for key, child in children:
        if key not in skip:
            yield (*path, key), child
            yield from walk(child, skip, (*path, key))


def swept_rows():
    """The sweep's rows; each key listed in DERIVED or OPTIONAL must be in
    its record, so the lists cannot go stale. A fixture run that fails is one
    failing row, so it does not hide the table's rows in a collection error."""
    try:
        first = first_records()
    except Exception as exc:
        yield row("sweep-fixture-run", "evaluate", exc)
        return
    for flag, record in first.items():
        derived, optional = DERIVED.get(flag, ()), OPTIONAL.get(flag, ())
        keys = {path[-1] for path, _ in walk(record, ())}
        assert {*derived, *optional} <= keys, flag
        for path, value in walk(record, derived):
            dotted = ".".join(map(str, path))
            changes = {"mistyped": MISTYPED[type(value)]}
            if isinstance(path[-1], str) and path[-1] not in optional:
                changes["missing"] = DELETE
            for kind, new in changes.items():
                yield row(f"sweep-{SWEPT[flag]}-{flag}-{dotted}-{kind}", SWEPT[flag],
                          (BAD_RECORD,), (flag, edited({dotted: new})))


CONFIG_ERRORS = [
    *(row(f"bad_input_file-{command}-{flag}-{content}", command, ("error: {bad}:1: ",),
          (flag, content if content != LIST_ID else edited(
              {"question.id" if flag == "--records" else "question_id": ["q01"]})))
      for content in ("{not json\n", '{"question_id": "q01"}\n', LIST_ID)
      for command, flag in STAGE_INPUTS),
    *(row(f"duplicate_question_id-{command}-{flag}", command,
          "error: {bad}:13: duplicate question id 'q01'", (flag, doubled))
      for command, flag in STAGE_INPUTS if flag != "--labels"),
    *(row(f"unreadable_input_file-{command}-{flag}-{NOT_UTF8.decode('latin-1')}",
          command, ("error: ", "{bad}"), (flag, NOT_UTF8))
      for command, flag in [("evaluate", "--questions"), ("evaluate", "--script"),
                            ("evaluate", "--labels"), ("answer", "--claims"),
                            ("build-obscureqa", "--dump")]),
    *(row(f"unreadable_input_file-evaluate---script-{content}", "evaluate",
          ("error: ", "{bad}"), ("--script", content))
      for content in ('{"match": 1}\n', '{"match": 1, "response": "True"}\n')),
    row("unreadable_input_file-evaluate---pack-None", "evaluate",
        ("error: ", "{bad}/instructions.txt"), ("--pack", bad_pack)),
    *(row(f"out_of_range_option-{command} {' '.join(args)}", command,
          f"error: {message}", args=args)
      for command, (_, _, options) in COMMANDS.items()
      for args, message in BAD_VALUES
      if all(flag in options for flag in args[::2])),
    *(row(f"api_key_http_cannot_carry-{name}-{command}", command, f"error: {message}",
          args=("--provider", "live", "--base-url", "http://127.0.0.1:9/v1"),
          env={API_KEY_ENV_VAR: key})
      for name, key, message in [
          ("not-latin-1", "\u043a\u043b\u044e\u0447", BAD_KEY),
          ("line-break", "sk-a\r\nX: 1", BAD_KEY),
          ("missing", None, f"auth: no API key: set {API_KEY_ENV_VAR} or pass api_key"),
      ]
      for command, (_, _, options) in COMMANDS.items() if "--provider" in options),
    *(row(f"mistyped_label-{command}-{flag}-{field}-{value}", command,
          (BAD_VALUE, f"got {value!r}"), (flag, edited({field: value})))
      for command, flag, field, value in [
          *((command, "--labels", "correct", value)
            for command in ("evaluate", "score") for value in ("false", 0, None)),
          *((command, "--labels", "error_category", 5) for command in ("evaluate", "score")),
          ("report", "--records", "correct", "no"),
      ]),
    *(row(f"record_inconsistent_with_itself-{command}-foreign-claim-set", command,
          (BAD_VALUE,), ("--records", edited({"claim_set.question_id": "q999"})))
      for command in ("report", "baseline", "annotate")),
    row("record_inconsistent_with_itself-score-swapped-claim-index", "score", (BAD_VALUE,),
        ("--verifications", edited({"results.0.claim_index": 2,
                                    "results.1.claim_index": 1}))),
    row("record_inconsistent_with_itself-answer-empty-claims", "answer", (BAD_VALUE,),
        ("--claims", edited({"claims": []}))),
    *(row(f"non_string_text-{name}", command, (BAD_VALUE, "must be a string"),
          (flag, edited({path: value})))
      for name, command, flag, path, value in [
          ("answer-claim-text", "answer", "--claims", "claims.0.text", 5),
          ("score-instantiated-text", "score", "--verifications",
           "results.0.instantiated_text", 5),
          ("score-gt-raw-response", "score", "--gt-verifications",
           "results.0.raw_response", None),
          ("report-claim-text", "report", "--records", "claim_set.claims.0.text",
           ["a claim"]),
          ("report-raw-response", "report", "--records", "results.0.raw_response", 5),
      ]),
    *(row(f"bad_score_in_evaluations-{field}-{value}", "report", (BAD_RECORD,),
          ("--records", edited({field: value})))
      for field, value in [
          ("score_true", 0.1), ("score_true", True), ("score_true", "3/2"),
          ("score_true", "1/0"), ("score_true", "0"), ("score_true", "1.0"),
          ("gt_score_true", "3/2"), ("gt_score_true", "1e-1000000"),
      ]),
    *(row(f"not_an_array-{command}-{flag}-{key}-{value!r}", command,
          BAD_VALUE + f"record {key} must be an array, got {value!r}",
          (flag, edited({key: value})))
      for command, flag, key, bad_values in [
          ("score", "--verifications", "results", ({}, "")),
          ("score", "--gt-verifications", "results", ({}, "")),
          ("answer", "--claims", "claims", ({},)),
      ]
      for value in bad_values),
    row("limit_and_sample_conflict", "evaluate",
        "error: --limit and --sample are mutually exclusive",
        args=("--limit", "3", "--sample", "3")),
    row("oversized_sample", "evaluate", "error: cannot sample 100 questions from 12",
        args=("--sample", "100")),
    row("missing_script", "evaluate", "error: scripted mode needs --script",
        ("--script", DELETE)),
    *(row(name, command, "error: [Errno 2] No such file or directory: '{bad}'",
          (flag, None))
      for name, command, flag in [
          ("missing_question_file", "evaluate", "--questions"),
          ("report_on_missing_file", "report", "--records"),
          ("baseline_needs_records", "baseline", "--records"),
          ("missing_dump", "build-obscureqa", "--dump"),
      ]),
    *(row(f"no_evaluations-{command}", command, "error: {bad}: no evaluations",
          ("--records", "")) for command in ("report", "baseline")),
    row("verify_ground_truth_without_gt_out", "verify",
        "error: --ground-truth needs --gt-out", args=("--ground-truth",)),
    row("bad_fractions", "build-obscureqa", "error: split fractions must sum to 1",
        ("--dump", '{"clues": ["This painter made a mural"], "answer": "Painter"}\n'),
        args=("--train", "0.5", "--valid", "0.1", "--test", "0.2")),
    row("blank_dump", "build-obscureqa", "error: {bad}: no usable records",
        ("--dump", "\n\n\n")),
    row("every_record_dropped", "build-obscureqa",
        "error: {bad}: every record was dropped during cleaning",
        ("--dump", '{"clues": ["Note to moderator: read slowly"], "answer": "x"}\n')),
]


def pytest_generate_tests(metafunc):
    """Give test_config_error the table's rows and the sweep's, whose run of
    the fixture is made while collecting, not on import."""
    if metafunc.function is test_config_error:
        metafunc.parametrize("command, swap, args, env, expected",
                             [*CONFIG_ERRORS, *swept_rows()])


def test_config_error(
    reference_run, tmp_path, monkeypatch, capsys, command, swap, args, env, expected
):
    """Each row stops its command with exit 1 and its one ``error:`` line:
    no traceback, no model call, and no file but the row's bad input."""
    if isinstance(expected, Exception):
        raise expected
    calls = []
    for provider in (ScriptedProvider, LiveProvider):
        monkeypatch.setattr(
            provider, "complete", lambda self, request: calls.append(request)
        )
    # A usable key unless the row says otherwise, so a live URL is checked.
    for name, value in {API_KEY_ENV_VAR: "sk-test", **env}.items():
        if value is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, value)
    monkeypatch.chdir(tmp_path)  # so a relative path is the row's own
    files, flags = input_files(reference_run), list(INPUT_FLAGS[command])
    bad = tmp_path / "bad"
    if swap:
        flag, content = swap
        write_bad(bad, content, files.get(flag))
        files[flag] = bad
        flags = [given for given in flags if given != flag]
        flags += [] if content is DELETE else [flag]
    argv = [command, *args]
    for flag in flags:
        argv += [flag, str(files[flag])]
    if command in OUTPUT_FLAGS:
        argv += [OUTPUT_FLAGS[command], str(tmp_path / "out")]
    inputs = sorted(tmp_path.rglob("*"))
    capsys.readouterr()

    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.endswith("\n") and err.count("\n") == 1
    if isinstance(expected, str):
        assert err == expected.replace("{bad}", str(bad)) + "\n"
    else:
        start, *fragments = (part.replace("{bad}", str(bad)) for part in expected)
        assert err.startswith(start)
        assert [fragment for fragment in fragments if fragment not in err] == []
    assert calls == []
    assert sorted(tmp_path.rglob("*")) == inputs


def test_later_lines_win(fixture_paths, tmp_path):
    # A labels file is appended to, so a later line for a question
    # overrides an earlier one.
    first = next(fq for fq in QUESTIONS if fq.correct is not None)
    records.append_label(fixture_paths["labels"], first.qid, not first.correct,
                         error_category="second thoughts")
    out_dir = tmp_path / "run"
    assert main(evaluate_args(fixture_paths, out_dir)) == EXIT_OK
    evaluation = read_evaluations(out_dir)[first.qid]
    assert evaluation.correct is (not first.correct)
    assert evaluation.error_category == "second thoughts"


# build-obscureqa's --seed seeds its dataset split; that command builds no
# RunConfig.
OWN_DEFAULTS = {("build-obscureqa", "seed")}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_run_defaults_are_declared_only_in_run_config(command):
    """An option that sets a RunConfig field is parsed only when given, so a
    command given only its required options runs with ``RunConfig()``."""
    parser = build_parser()
    (commands,) = [action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)]
    actions = commands.choices[command]._actions
    config_fields = {field.name for field in dataclasses.fields(RunConfig)}
    defaults = {action.dest: action.default for action in actions
                if action.dest in config_fields
                and (command, action.dest) not in OWN_DEFAULTS}
    assert defaults == dict.fromkeys(defaults, argparse.SUPPRESS)
    argv = [command]
    for action in actions:
        if action.required:
            argv += [action.option_strings[0], "x"]
    assert config_from_args(parser.parse_args(argv)) == RunConfig()


def test_usage_errors_exit_config(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["evaluate", "--out-dir", "x"])
    assert exc_info.value.code == EXIT_CONFIG
    assert "--questions" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc_info:
        main(["evaluate", "--questions", "q", "--out-dir", "x", "--format", "nope"])
    assert exc_info.value.code == EXIT_CONFIG
    assert "usage:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc_info:
        main(["evaluate", "--help"])
    assert exc_info.value.code == EXIT_OK


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    """The fixture's paths and the stage files of one evaluate run."""
    return run_fixture(tmp_path_factory.mktemp("reference"))


@pytest.fixture(scope="module")
def mode_references(reference_run, tmp_path_factory):
    """The cache a concurrency-1 ``--cache-dir`` run recorded, and each
    mode's concurrency-1 run; the replay run reads that cache. Every mode
    writes the plain run's record files."""
    paths, plain = reference_run
    root = tmp_path_factory.mktemp("modes")
    recorded = root / "cache"
    assert main(
        evaluate_args(paths, root / "cache-run", "--cache-dir", str(recorded))
    ) == EXIT_OK
    assert read_manifest(root / "cache-run")["provider_calls"] == EXPECTED_CALLS
    assert len(list(recorded.glob("*.json"))) == EXPECTED_CACHE_ENTRIES
    assert main(replay_args(paths, recorded, root / "replay-run")) == EXIT_OK
    for run in ("cache-run", "replay-run"):
        for name in RECORD_FILES:
            assert (root / run / name).read_bytes() == \
                (plain / name).read_bytes(), (run, name)
    return recorded, {
        "plain": plain, "cache": root / "cache-run", "replay": root / "replay-run",
    }


# The fixture's report files, byte for byte.
FIXTURE_REPORT_TEXT = """\
== score summary ==
dataset              n  corr   inc  unlab        C        I     Diff         t       df      p-val    P(C)    P(I)
custom              12     6     4      2   0.8333   0.2500   0.5833     4.427    6.579   0.003551  0.6000  0.4000

== gold-answer score vs predicted (labeled incorrect) ==
dataset           gt>pred  gt=pred  gt<pred
custom                  1        2        1
"""
FIXTURE_REPORT_JSON = """\
[
  {
    "dataset": "custom",
    "n_total": 12,
    "n_correct": 6,
    "n_incorrect": 4,
    "n_unlabeled": 2,
    "mean_correct": "5/6",
    "mean_incorrect": "1/4",
    "diff": "7/12",
    "t_stat": 4.427188724235731,
    "degrees_freedom": 6.578947368421053,
    "p_value": 0.003551480878910903,
    "p_correct": "3/5",
    "p_incorrect": "2/5",
    "gt_comparison": {
      "gt_greater": 1,
      "gt_equal": 2,
      "gt_less": 1
    }
  }
]
"""


@pytest.mark.parametrize("mode", ["plain", "cache", "replay"])
def test_fixture_reports_are_pinned(mode_references, mode):
    _, runs = mode_references
    assert (runs[mode] / "report.txt").read_text("utf-8") == FIXTURE_REPORT_TEXT
    assert (runs[mode] / "report.json").read_text("utf-8") == FIXTURE_REPORT_JSON


def test_reports_without_gold_answers_render_every_cell_kind():
    """Two datasets, one named past its 16-character column and one with
    every statistic None, and no gold-answer section."""
    reports = [
        AggregateReport(
            "a_dataset_name_longer_than_16", 3, 2, 1, 0, Fraction(2, 3),
            Fraction(1), Fraction(-1, 3), 123456.7, 1.0, 0.00001,
            Fraction(2, 3), Fraction(1, 3),
        ),
        AggregateReport("empty", 1, 0, 0, 1, *[None] * 8),
    ]
    assert render_report_text(reports) == (
        "== score summary ==\n"
        "dataset              n  corr   inc  unlab        C        I     Diff"
        "         t       df      p-val    P(C)    P(I)\n"
        "a_dataset_name_longer_than_16     3     2     1      0   0.6667   1.0000"
        "  -0.3333 1.235e+05        1      1e-05  0.6667  0.3333\n"
        "empty                1     0     0      1        -        -        -"
        "         -        -          -       -       -\n"
    )
    assert [records.to_record(report) for report in reports] == [
        {"dataset": "a_dataset_name_longer_than_16", "n_total": 3, "n_correct": 2,
         "n_incorrect": 1, "n_unlabeled": 0, "mean_correct": "2/3",
         "mean_incorrect": "1", "diff": "-1/3", "t_stat": 123456.7,
         "degrees_freedom": 1.0, "p_value": 1e-05, "p_correct": "2/3",
         "p_incorrect": "1/3", "gt_comparison": None},
        {"dataset": "empty", "n_total": 1, "n_correct": 0, "n_incorrect": 0,
         "n_unlabeled": 1, **dict.fromkeys(
             ("mean_correct", "mean_incorrect", "diff", "t_stat", "degrees_freedom",
              "p_value", "p_correct", "p_incorrect", "gt_comparison"))},
    ]


def test_utf8_bom_input_files_read_as_without_it(reference_run, tmp_path):
    """A byte-order mark before the first line of ``--questions`` or
    ``--labels`` is not part of the file's first record."""
    paths, reference = reference_run
    with_bom = dict(paths)
    for name in ("questions", "labels"):
        with_bom[name] = tmp_path / f"{name}.jsonl"
        with_bom[name].write_bytes(b"\xef\xbb\xbf" + paths[name].read_bytes())
    out_dir = tmp_path / "run"
    assert main(evaluate_args(with_bom, out_dir)) == EXIT_OK
    for name in RECORD_FILES:
        assert (out_dir / name).read_bytes() == (reference / name).read_bytes(), name


@pytest.mark.parametrize(
    "flag, what",
    [("--verifications", "results"), ("--gt-verifications", "gold-answer results")],
    ids=["verifications", "gt-verifications"],
)
def test_short_verification_record_fails_its_question_at_score(
    reference_run, tmp_path, caplog, flag, what
):
    paths, reference = reference_run
    files = {
        "--claims": reference / "claim_sets.jsonl",
        "--assignments": reference / "assignments.jsonl",
        "--verifications": reference / "verifications.jsonl",
        "--gt-verifications": reference / "gt_verifications.jsonl",
    }
    rows = records.read_jsonl(files[flag])
    assert rows[0]["question_id"] == "q01" and len(rows[0]["results"]) == 3
    rows[0]["results"] = rows[0]["results"][:1]
    files[flag] = tmp_path / "short.jsonl"
    records.write_jsonl_atomic(files[flag], rows)
    out = tmp_path / "evaluations.jsonl"
    argv = ["score", "--questions", str(paths["questions"]), "--out", str(out)]
    for option, path in files.items():
        argv += [option, str(path)]

    with caplog.at_level(logging.ERROR):
        assert main(argv) == EXIT_PARTIAL
    failures = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert failures == [
        f"question q01 failed at score: question q01: 1 {what} for 3 claims"
    ]
    assert sorted(read_evaluations(tmp_path)) == [fq.qid for fq in QUESTIONS[1:]]


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
        labels = read_labels(labels_path)
        assert labels == {
            "q1": (True, None),
            "q2": (False, "confused the entity"),
        }

    def test_quit_stops_early(self, tmp_path):
        code, labels_path, _ = self.run(tmp_path, ["c", "q"])
        assert code == EXIT_OK
        assert read_labels(labels_path) == {"q1": (True, None)}

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
        assert read_labels(labels_path)["q3"] == (True, None)

    def test_appends_after_a_last_line_without_newline(self, tmp_path):
        records_path = self.write_records(tmp_path)
        labels_path = tmp_path / "labels.jsonl"
        labels_path.write_text('{"question_id": "q1", "correct": true}', "utf-8")
        args = build_parser().parse_args(
            ["annotate", "--records", str(records_path),
             "--labels", str(labels_path)]
        )
        assert cmd_annotate(args, input_fn=ScriptedInput(["c"]),
                            print_fn=lambda text: None) == EXIT_OK
        assert read_labels(labels_path) == {"q1": (True, None), "q2": (True, None)}


class TestBaseline:
    def test_baseline_over_evaluations(self, reference_run, tmp_path):
        _, reference = reference_run
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
        rows = {r["question_id"]: r for r in records.read_jsonl(out)}
        assert len(rows) == 12
        for fq in QUESTIONS:
            row = rows[fq.qid]
            assert row["answer"] == fq.pred
            expected = "true" if fq.pred == fq.gold else "false"
            assert row["verdict"] == expected
            assert Fraction(row["score_true"]) == EXPECTED_SCORES[fq.qid]


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
        rows.append({"clues": ["This clue has no answer"], "answer": None})
        rows.append({"clues": [5], "answer": "z"})
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
        assert stats["line_errors"] == 4
        assert stats["dropped_moderator_notes"] == 1
        assert stats["dropped_empty"] == 1
        assert stats["kept"] == 8
        expected_sizes = split_sizes(8, SplitSpec())
        assert (stats["train"], stats["valid"], stats["test"]) == expected_sizes

        train = records.read_jsonl(out_dir / "obscureqa_train.jsonl")
        assert all(r["dataset"] == "obscureqa" for r in train)
        assert all(r["text"].startswith("What person number") for r in train)
        assert "kept 8 of 10" in capsys.readouterr().out

    def test_built_splits_load_as_obscureqa(self, tmp_path):
        dump = self.write_dump(tmp_path)
        out_dir = tmp_path / "dataset"
        assert main(
            ["build-obscureqa", "--dump", str(dump), "--out-dir", str(out_dir)]
        ) == EXIT_OK

        raw, _ = records.scan_jsonl(dump, lambda row, _: parse_quizbowl_record(row))
        build = build_obscureqa(raw, SplitSpec())
        for name, built in (
            ("train", build.train), ("valid", build.valid), ("test", build.test)
        ):
            report = load_questions(
                out_dir / f"obscureqa_{name}.jsonl", QuestionFormat.OBSCUREQA
            )
            assert report.line_errors == []
            assert report.questions == list(built), name

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
