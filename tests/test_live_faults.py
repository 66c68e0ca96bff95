"""A live ``evaluate`` through the loopback server, meeting a seeded fault
schedule: 429s with and without ``Retry-After``, a 503, a reset in
mid-body, an idle close and a ``length`` finish.

Faults that a later attempt gets past leave the record files byte-identical
to the scripted run at every ``--concurrency``; the ``length`` finish is
named only in its question's manifest entry. A prompt that fails every
attempt fails its own question and no other, with a reason that names the
fault's kind. ``time.sleep`` is patched out, so the backoff costs nothing.
"""

import json
import random
import time
from collections import Counter

import pytest

from abcd_eval.cli import EXIT_OK, EXIT_PARTIAL, main
from abcd_eval.pipeline import QuestionProvider
from abcd_eval.providers import (
    API_KEY_ENV_VAR,
    DEFAULT_MAX_ATTEMPTS,
    ScriptedProvider,
    load_script_rules,
)
from e2e_fixture import write_fixture
from loopback import LENGTH, PROXY_ENV_VARS, RETRYABLE_FAULTS, ScriptServer, fault_schedule

SEED = 17
JSONL_FILES = (
    "claim_sets.jsonl", "assignments.jsonl", "verifications.jsonl",
    "gt_verifications.jsonl", "evaluations.jsonl",
)
RECORD_FILES = (*JSONL_FILES, "report.json", "report.txt")


def common_args(paths):
    return ["evaluate", "--questions", str(paths["questions"]),
            "--labels", str(paths["labels"]), "--ground-truth"]


@pytest.fixture(scope="module")
def scripted(tmp_path_factory):
    """The fixture's files, the out-dir of its scripted ``evaluate``, the
    prompts that run sent exactly once, so each belongs to one question,
    and the stages that used each prompt's reply, in pipeline order."""
    root = tmp_path_factory.mktemp("faults")
    paths = write_fixture(root / "fixture")
    sent, stages = Counter(), {}
    complete, use = ScriptedProvider.complete, QuestionProvider.complete

    def counting(self, request):
        sent[request.prompt] += 1
        return complete(self, request)

    def using(self, request):
        stages.setdefault(request.prompt, {})[self.stage] = None
        return use(self, request)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ScriptedProvider, "complete", counting)
        patch.setattr(QuestionProvider, "complete", using)
        assert main([*common_args(paths), "--script", str(paths["rules"]),
                     "--out-dir", str(root / "scripted")]) == EXIT_OK
    once = sorted(p for p, n in sent.items() if n == 1)
    return paths, root / "scripted", once, {p: list(s) for p, s in stages.items()}


def live_evaluate(paths, faults, out_dir, concurrency, monkeypatch):
    """Run a live ``evaluate`` against a server with *faults*; return its
    exit code, the server and the sleeps the run asked for."""
    for name in PROXY_ENV_VARS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv(API_KEY_ENV_VAR, "k")
    sleeps = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    server = ScriptServer(load_script_rules(paths["rules"]), faults)
    try:
        code = main([*common_args(paths), "--provider", "live",
                     "--base-url", f"http://127.0.0.1:{server.port}/v1",
                     "--concurrency", str(concurrency), "--out-dir", str(out_dir)])
    finally:
        server.close()
    return code, server, sleeps


def provider_calls(out_dir):
    return json.loads((out_dir / "manifest.json").read_text("utf-8"))["provider_calls"]


@pytest.mark.parametrize("concurrency", [1, 2, 8])
def test_retried_faults_leave_the_records_unchanged(
    scripted, tmp_path, monkeypatch, capsys, caplog, concurrency
):
    paths, reference, once, stages = scripted
    schedule = fault_schedule(once, SEED)
    code, server, sleeps = live_evaluate(
        paths, schedule, tmp_path, concurrency, monkeypatch
    )
    assert code == EXIT_OK
    for name in RECORD_FILES:
        assert (tmp_path / name).read_bytes() == (reference / name).read_bytes(), name
    assert provider_calls(tmp_path) == provider_calls(reference)
    assert server.faults_served == Counter([*RETRYABLE_FAULTS, LENGTH])
    # One backoff per retried fault; the 429's Retry-After sets its wait.
    assert len(sleeps) == len(RETRYABLE_FAULTS) and 7.0 in sleeps
    assert "Traceback" not in capsys.readouterr().err
    # Only the length reply's question names the stages that used it, in
    # its manifest entry and in one warning each.
    (cut,) = [prompt for prompt, kinds in schedule.items() if LENGTH in kinds]
    manifest = json.loads((tmp_path / "manifest.json").read_text("utf-8"))
    flagged = {qid: entry.pop("truncated") for qid, entry in
               manifest["questions"].items() if "truncated" in entry}
    ((qid, truncated),) = flagged.items()
    assert truncated == stages[cut]
    assert all(entry == {"status": "ok"} for entry in manifest["questions"].values())
    assert [r.getMessage() for r in caplog.records if "truncated" in r.getMessage()] \
        == [f"question {qid}: a {stage} reply was truncated (finish_reason length)"
            for stage in truncated]


@pytest.mark.parametrize("concurrency", [1, 2, 8])
def test_a_prompt_that_fails_every_attempt_fails_its_question_alone(
    scripted, tmp_path, monkeypatch, capsys, caplog, concurrency
):
    paths, reference, once, _ = scripted
    prompt = random.Random(SEED).choice(once)
    code, server, sleeps = live_evaluate(
        paths, {prompt: ("503",) * DEFAULT_MAX_ATTEMPTS}, tmp_path, concurrency,
        monkeypatch,
    )
    assert code == EXIT_PARTIAL
    assert server.attempts[prompt] == DEFAULT_MAX_ATTEMPTS
    assert len(sleeps) == DEFAULT_MAX_ATTEMPTS - 1
    manifest = json.loads((tmp_path / "manifest.json").read_text("utf-8"))
    failed = {qid: entry for qid, entry in manifest["questions"].items()
              if entry["status"] != "ok"}
    assert len(failed) == 1 and manifest["n_failed"] == 1
    ((qid, entry),) = failed.items()
    assert "network: HTTP 503" in entry["reason"]
    # Every other question's records are the scripted run's.
    for name in JSONL_FILES:
        lines = (tmp_path / name).read_text("utf-8").splitlines()
        expected = (reference / name).read_text("utf-8").splitlines()
        (dropped,) = [line for line in expected if line not in lines]
        assert f'"{qid}"' in dropped, name
        assert lines == [line for line in expected if line != dropped], name
    assert "Traceback" not in capsys.readouterr().err + caplog.text
