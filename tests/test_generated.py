"""The exactness contract on generated workloads.

``perfbench/workload.py`` questions, answered through exact script rules
built from ``endpoint.build_table``, must score the generator's exact
``Fraction``s and write the same record bytes at ``--concurrency`` 1 and 4,
with ``--cache-dir``, in a replay of that cache and as the stage commands.
On the failure paths, :class:`Oracle` works out each run's outcome from the
seeded fault plan that a ``LoopbackServer``'s ``Script`` serves. At the
crash points, a run killed at any of its writes must leave a state that a
rerun completes.
"""

import errno
import itertools
import json
import logging
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import redirect_stderr
from dataclasses import replace
from fractions import Fraction
from io import StringIO
from logging.handlers import BufferingHandler
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import Phase, given, settings, strategies as st

import endpoint
import workload
from abcd_eval.cli import EXIT_OK, EXIT_PARTIAL, EXIT_TOTAL, main
from abcd_eval.pipeline import EVALUATE_STAGES, PROVIDER_STAGES
from abcd_eval.providers import (API_KEY_ENV_VAR, DEFAULT_MAX_ATTEMPTS, ResponseCache,
                                 load_script_rules)
from abcd_eval.verify import VERIFY_PROMPT_PREFIX
from helpers import RECORD_FILES
from loopback import (BAD_REQUEST, BAD_REQUEST_BODY, LENGTH, PROXY_ENV_VARS, RETRYABLE_FAULTS,
                      LoopbackServer, Script)


def run(*argv) -> None:
    assert main([str(arg) for arg in argv]) == EXIT_OK, argv


def write_rules(seed: int, questions, path: Path) -> Path:
    path.write_text("".join(
        json.dumps({"match": prompt, "response": reply, "mode": "exact"}) + "\n"
        for prompt, (_, reply, *_) in endpoint.build_table(seed, questions).items()
    ), "utf-8")
    return path


def check_scores(out_dir: Path, questions) -> None:
    rows = map(json.loads, (out_dir / "evaluations.jsonl").read_text("utf-8").splitlines())
    assert [(row["question"]["id"], Fraction(row["score_true"]),
             Fraction(row["gt_score_true"])) for row in rows] == \
        [(q.qid, q.score, q.gt_score) for q in questions]
    (report,) = json.loads((out_dir / "report.json").read_text("utf-8"))
    want = workload.expected_report(questions)
    got = {field: report[field] for field in want}
    for field in ("mean_correct", "mean_incorrect", "diff"):
        got[field] = None if got[field] is None else Fraction(got[field])
    if comparison := got["gt_comparison"]:
        got["gt_comparison"] = tuple(
            comparison[key] for key in ("gt_greater", "gt_equal", "gt_less"))
    assert got == want


@settings(max_examples=15)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6))
def test_every_way_of_running_writes_the_generated_scores(seed, n):
    questions = workload.generate(seed, n)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        paths = workload.write_inputs(questions, root / "inputs")
        rules = write_rules(seed, questions, root / "rules.jsonl")
        script, cache = ("--script", rules), ("--cache-dir", root / "cache")
        runs = {
            "concurrency-1": (*script, "--concurrency", 1),
            "concurrency-4": (*script, "--concurrency", 4),
            "cache": (*script, *cache),
            "replay": ("--provider", "replay", *cache),
        }
        for name, extra in runs.items():
            run("evaluate", "--questions", paths["questions"], "--labels",
                paths["labels"], "--ground-truth", "--out-dir", root / name, *extra)

        chain = root / "chain"
        chain.mkdir()
        claims, assignments, verifications, gt_verifications = (
            chain / f"{name}.jsonl" for name in
            ("claim_sets", "assignments", "verifications", "gt_verifications"))
        inputs = ("--questions", paths["questions"], *script)
        run("decompose", *inputs, "--out", claims)
        run("answer", *inputs, "--claims", claims, "--out", assignments)
        run("verify", *inputs, "--claims", claims, "--assignments", assignments,
            "--ground-truth", "--out", verifications, "--gt-out", gt_verifications)
        run("score", "--questions", paths["questions"], "--claims", claims,
            "--assignments", assignments, "--verifications", verifications,
            "--gt-verifications", gt_verifications, "--labels", paths["labels"],
            "--out", chain / "evaluations.jsonl")

        reference = root / "concurrency-1"
        check_scores(reference, questions)
        for name in (*runs, "chain"):
            for file in RECORD_FILES:
                if name != "chain" or file.endswith(".jsonl"):
                    assert (root / name / file).read_bytes() == \
                        (reference / file).read_bytes(), (name, file)


# --------------------------------------------------------------------------
# the failure paths

EVERY_ATTEMPT = "every-attempt"
FAULT_KINDS = (*RETRYABLE_FAULTS, LENGTH, BAD_REQUEST, EVERY_ATTEMPT)
SENDING_STAGES = EVALUATE_STAGES[:4]
DAMAGE = ("corrupt", "copied", "deleted")
# What the ProviderError of a call a fault ends says.
FAILS = {"429-retry-after-7": "rate_limited: HTTP 429", "429": "rate_limited: HTTP 429",
         "503-retry-after-7": "network: HTTP 503", "503": "network: HTTP 503",
         "reset-mid-body": f"network: [Errno {errno.ECONNRESET}] {os.strerror(errno.ECONNRESET)}",
         "idle-close": "network: connection closed before the response ended",
         BAD_REQUEST: f"other: HTTP 400: {BAD_REQUEST_BODY.decode()}"}
# A claim that failed under --lenient: a non-response with an empty reply.
LENIENT = "-"


def question_prompts(q, table) -> dict:
    """Each sending stage's prompts for *q*, in claim order."""
    decompose, answer = [prompt for prompt, (qid, *_) in table.items() if qid == q.qid][:2]
    return {"decompose": [decompose], "answer": [answer],
            "verify": [VERIFY_PROMPT_PREFIX + text for text in q.instantiated(q.pred)],
            "verify_gt": [VERIFY_PROMPT_PREFIX + text for text in q.instantiated(q.gold)]}


def fault_plan(rng: random.Random, prompts: dict) -> dict:
    """Each prompt's schedule: the faults of the calls that send it. Half of
    a question's prompts get a call answered after retried faults or by a
    ``length`` reply; one or two first sent at a dealt stage and at
    ``verify_gt`` get a failing call, maybe followed by the gold pass's."""
    def call(end):
        """The faults of one call that *end* finishes: an answer (None), a
        ``length`` reply, a 400, or a fault on every attempt."""
        if end == EVERY_ATTEMPT:
            return rng.choices(RETRYABLE_FAULTS, k=DEFAULT_MAX_ATTEMPTS)
        faults = rng.choices(RETRYABLE_FAULTS, k=rng.randint(1 if end is None else 0, 2))
        if end is not None:
            faults.append(end)
        return faults

    plan, deal = {}, []
    for stages in prompts.values():
        first = {prompt: stage for stage in reversed(SENDING_STAGES) for prompt in stages[stage]}
        plan.update((prompt, call(rng.choice((None, LENGTH)))) for prompt in first
                    if rng.random() < 0.5)
        deal = deal or rng.sample((*SENDING_STAGES, None), 5)
        for stage in dict.fromkeys((deal.pop(), "verify_gt")):
            failing = [prompt for prompt, sent_at in first.items() if sent_at == stage]
            for prompt in rng.sample(failing, min(len(failing), rng.randint(1, 2))):
                plan[prompt] = call(rng.choice((BAD_REQUEST, EVERY_ATTEMPT)))
                if rng.random() < 0.5:
                    plan[prompt] += call(rng.choice((None, LENGTH, BAD_REQUEST, EVERY_ATTEMPT)))
    return plan


class Failed(Exception):
    """A question's failure; the message is its manifest reason."""


class Oracle:
    """One run as the plan implies it: the server serves *plan* when the run
    *sends*, and *cache* (kept up to date) maps each prompt with an entry to
    its finish reason or ``"damaged"``. :meth:`outcome` fills the counts."""

    def __init__(self, plan, digests, cache=None, sends=True):
        self.plan, self.digests, self.cache, self.sends = plan, digests, cache, sends
        self.attempts, self.calls, self.refetched, self.events = Counter(), Counter(), [], set()
        self.sleeps, self.retry_afters = 0, []

    def call(self, prompt: str, stage: str):
        """(True, finish reason) or (False, what the ProviderError says)."""
        entry = None if self.cache is None else self.cache.get(prompt)
        if entry in ("stop", LENGTH):
            self.calls[stage] += not self.sends
            return True, entry
        if not self.sends:
            self.events.add(("replay_miss", stage))
            what = "unreadable cache entry" if entry else "no cached response"
            return False, f"replay_miss: {what} for request digest {self.digests[prompt]}"
        if entry:
            self.refetched.append(self.digests[prompt])
        if self.attempts[prompt]:
            self.events.add(("sent again", stage))
        for attempt in range(1, DEFAULT_MAX_ATTEMPTS + 1):
            fault = (self.plan.get(prompt, ())[self.attempts[prompt]:] or [None])[0]
            self.attempts[prompt] += 1
            self.events.add((fault, stage))
            if fault in (None, LENGTH):
                self.calls[stage] += 1
                if self.cache is not None:
                    self.cache[prompt] = fault or "stop"
                return True, fault or "stop"
            if fault == BAD_REQUEST or attempt == DEFAULT_MAX_ATTEMPTS:
                self.events.add((BAD_REQUEST if fault == BAD_REQUEST else EVERY_ATTEMPT, stage))
                return False, FAILS[fault]
            self.sleeps += 1
            if fault.endswith("-retry-after-7"):
                self.retry_afters.append(attempt)

    def outcome(self, q, prompts: dict, lenient: bool):
        """*q*'s manifest entry, and *q* with the verdicts the run records."""
        replies, truncated, verdicts = {}, set(), {}
        try:
            for stage in SENDING_STAGES:
                failed = {}
                for prompt in dict.fromkeys(p for p in prompts[stage] if p not in replies):
                    ok, result = self.call(prompt, stage)
                    (replies if ok else failed)[prompt] = result
                symbols = q.pred_verdicts if stage == "verify" else q.gt_verdicts
                verdicts[stage] = ""
                for number, (prompt, symbol) in enumerate(zip(prompts[stage], symbols), start=1):
                    if prompt in failed:
                        if not stage.startswith("verify"):
                            raise Failed(f"ProviderError: {failed[prompt]}")
                        if not lenient:
                            raise Failed(f"VerificationError: claim {number}: {failed[prompt]}")
                        symbol = LENIENT
                    elif replies[prompt] == LENGTH:
                        truncated.add(stage)
                    verdicts[stage] += symbol
            entry = {"status": "ok"}
        except Failed as exc:
            entry = {"status": "failed", "stage": stage, "reason": str(exc)}
        if truncated:
            entry["truncated"] = [stage for stage in SENDING_STAGES if stage in truncated]
        return entry, replace(q, pred_verdicts=verdicts.get("verify"),
                              gt_verdicts=verdicts.get("verify_gt"))


def check_evaluate(case, name: str, oracle: Oracle, *extra, lenient: bool, faults=None):
    """Run ``evaluate --ground-truth`` over *case*, live against a
    ``LoopbackServer`` whose ``Script`` serves *faults* when given, with
    ``time.sleep`` patched out. Check that it did what *oracle* predicts,
    that every record line without a --lenient non-response is the
    fault-free reference run's, and that neither stderr nor a log record
    holds a traceback."""
    out_dir, questions = case.root / name, case.questions
    server = None if faults is None else LoopbackServer(
        Script(load_script_rules(case.rules), faults))
    log, sleeps = BufferingHandler(10**6), []
    source = () if server is None else (
        "--provider", "live", "--base-url", f"http://127.0.0.1:{server.port}/v1")
    with pytest.MonkeyPatch.context() as patch, redirect_stderr(StringIO()) as err:
        for variable in PROXY_ENV_VARS:
            patch.delenv(variable, raising=False)
        patch.setenv(API_KEY_ENV_VAR, "k")
        patch.setattr(time, "sleep", sleeps.append)
        logging.getLogger("abcd_eval").addHandler(log)
        try:
            code = main([str(arg) for arg in (
                "evaluate", "--questions", case.paths["questions"], "--labels",
                case.paths["labels"], "--ground-truth", "--out-dir", out_dir, *source, *extra)])
        finally:
            logging.getLogger("abcd_eval").removeHandler(log)
            if server is not None:
                server.close()
    assert "Traceback" not in err.getvalue() + "".join(map(log.format, log.buffer))
    warnings = [record.getMessage() for record in log.buffer]

    expected = [(q, *oracle.outcome(q, case.prompts[q.qid], lenient)) for q in questions]
    manifest = json.loads((out_dir / "manifest.json").read_text("utf-8"))
    for q, entry, _ in expected:
        got = manifest["questions"][q.qid]
        assert got.pop("reason", "").startswith(entry.pop("reason", "")), (q.qid, got)
        assert got == entry, q.qid
    ran = [ran for _, entry, ran in expected if entry["status"] == "ok"]
    clean = [q for q in ran if LENIENT not in q.pred_verdicts + q.gt_verdicts]
    assert (manifest["n_ok"], manifest["n_failed"]) == (len(ran), len(questions) - len(ran))
    assert code == (EXIT_OK if len(ran) == len(questions) else EXIT_PARTIAL if ran else EXIT_TOTAL)
    assert manifest["provider_calls"] == {stage: oracle.calls[stage] for stage in PROVIDER_STAGES}
    for file in RECORD_FILES[:5]:
        want = (case.reference / file).read_text("utf-8").splitlines()
        want = dict(zip([q.qid for q in questions], want))
        lines = (out_dir / file).read_text("utf-8").splitlines()
        rows = [json.loads(want[q.qid]) for q in ran]
        for row, q in zip(rows, ran):
            symbols = q.gt_verdicts if file.startswith("gt") else q.pred_verdicts
            for result, symbol in zip(row.get("results", ()), symbols):
                if symbol == LENIENT:
                    result.update(verdict="non_response", raw_response="")
            if "score_true" in row:
                row.update(score_true=str(q.score), gt_score_true=str(q.gt_score))
        assert [json.loads(line) for line in lines] == rows, file
        assert [line for q, line in zip(ran, lines) if q in clean] == \
            [want[q.qid] for q in clean], file
    if ran:
        check_scores(out_dir, ran)
    else:
        assert json.loads((out_dir / "report.json").read_text("utf-8")) == []
    if len(clean) == len(questions):
        for file in RECORD_FILES[5:]:
            assert (out_dir / file).read_bytes() == (case.reference / file).read_bytes(), file
    assert (server.respond.attempts if server else Counter()) == oracle.attempts
    # A Retry-After wait is 7 s, or the backoff's jitter (up to 2 ** (attempt - 1) s) if longer.
    longest = 2 ** (DEFAULT_MAX_ATTEMPTS - 2)
    assert len(sleeps) == oracle.sleeps and max(sleeps, default=0) <= longest
    assert sleeps.count(7) >= sum(2 ** (attempt - 1) < 7 for attempt in oracle.retry_afters)
    assert sum(7 <= s <= longest for s in sleeps) >= len(oracle.retry_afters)
    assert sorted(w for w in warnings if "truncated" in w) == sorted(
        f"question {q.qid}: a {stage} reply was truncated (finish_reason length)"
        for q, entry, _ in expected for stage in entry.get("truncated", ()))
    assert sorted(re.search("digest ([0-9a-f]+)", w)[1] for w in warnings
                  if w.endswith("fetching it again")) == sorted(oracle.refetched)
    case.seen.update(oracle.events)


MODES = list(itertools.product((1, 2, 8), (False, True)))
MODE_IDS = [f"concurrency-{concurrency}{'-lenient' * lenient}" for concurrency, lenient in MODES]


@pytest.mark.parametrize("caching", (False, True), ids=("live", "cache"))
@pytest.mark.parametrize("concurrency, lenient", MODES, ids=MODE_IDS)
def test_every_fault_ends_in_the_outcome_the_plan_implies(tmp_path_factory, concurrency,
                                                          lenient, caching):
    """A live run at each --concurrency, with and without --lenient, meets a fault plan;
    a caching one records a cache to damage, replay, refetch and replay again."""
    seen, flags = set(), ["--lenient"] * lenient
    # Explaining a failure traces every line of its runs, which takes minutes.
    @settings(max_examples=4 if caching else 12, phases=set(Phase) - {Phase.explain})
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8))
    def check(seed, n):
        questions, rng = workload.generate(seed, n), random.Random(seed)
        table = endpoint.build_table(seed, questions)
        prompts = {q.qid: question_prompts(q, table) for q in questions}
        # Each example's inputs, rules and fault-free run, shared by the run modes.
        shared = tmp_path_factory.getbasetemp() / "references" / f"{seed}-{n}"
        paths, rules = workload.write_inputs(questions, shared / "inputs"), shared / "rules.jsonl"
        if not (shared / "scripted" / "manifest.json").exists():
            run("evaluate", "--questions", paths["questions"], "--labels", paths["labels"],
                "--ground-truth", "--out-dir", shared / "scripted", "--script",
                write_rules(seed, questions, rules), "--cache-dir", shared / "every-entry")
        digests = {json.loads(path.read_bytes())["request"]["prompt"]: path.stem
                   for path in (shared / "every-entry").iterdir()}
        plan, cache = fault_plan(rng, prompts), {} if caching else None
        with tempfile.TemporaryDirectory() as tmp:
            case = SimpleNamespace(root=Path(tmp), paths=paths, rules=rules, questions=questions,
                                   prompts=prompts, reference=shared / "scripted", seen=seen)
            cached = ("--cache-dir", case.root / "cache") * caching
            check_evaluate(case, "live", Oracle(plan, digests, cache), "--concurrency",
                           concurrency, *flags, *cached, lenient=lenient, faults=plan)
            if not caching:
                return
            stored = {json.loads(path.read_bytes())["request"]["prompt"]: path
                      for path in (case.root / "cache").iterdir()}
            assert stored.keys() == cache.keys()
            originals = {prompt: path.read_bytes() for prompt, path in stored.items()}
            for how, prompt in zip(DAMAGE, rng.sample(sorted(stored), min(3, len(stored)))):
                if how == "deleted":
                    stored[prompt].unlink()
                    del cache[prompt]
                else:
                    stored[prompt].write_bytes(originals[prompt][:-9] if how == "corrupt"
                                               else originals[min(set(stored) - {prompt})])
                    cache[prompt] = "damaged"
                seen.add(how)
            for name, sends in (("replay", False), ("refetch", True), ("replay-again", False)):
                check_evaluate(case, name, Oracle({}, digests, cache, sends), *cached, *flags,
                               *["--provider", "replay"] * (not sends),
                               lenient=lenient, faults={} if sends else None)
            assert set(cache.values()) <= {"stop", LENGTH}

    check()
    assert ({*DAMAGE, ("replay_miss", "verify")} if caching else {
        *itertools.product(FAULT_KINDS, SENDING_STAGES), *[("sent again", "verify_gt")] * lenient
    }) <= seen


# --------------------------------------------------------------------------
# the crash points

# Runs two ``evaluate`` argument lists under an audit hook that counts the
# write-side file operations under each run's root: an ``open`` for writing,
# an ``os.rename`` (which ``os.replace`` raises) and an ``os.mkdir``. It
# prints the first run's count, reads K from stdin, and ends the second run
# at its K-th operation with ``os._exit(9)``, as a crash would.
CRASH_CHILD = """
import io, json, os, sys
from contextlib import redirect_stdout
from abcd_eval.cli import main
WRITING = os.O_WRONLY | os.O_RDWR | os.O_CREAT
runs = json.loads(sys.argv[1])
seen = {"root": runs[0]["root"], "count": 0, "crash_at": 0}

def hook(event, args):
    if event in ("os.rename", "os.mkdir") or event == "open" and isinstance(
            args[2], int) and args[2] & WRITING:
        if str(args[0]).startswith(seen["root"]):
            seen["count"] += 1
            if seen["count"] == seen["crash_at"]:
                os._exit(9)

sys.addaudithook(hook)
with redirect_stdout(io.StringIO()):
    assert main(runs[0]["argv"]) == 0
print(seen["count"], flush=True)
seen.update(root=runs[1]["root"], count=0, crash_at=int(sys.stdin.readline()))
with redirect_stdout(io.StringIO()):
    main(runs[1]["argv"])
"""


def record_set(out_dir: Path) -> dict:
    """The record files in *out_dir*, by name."""
    return {name: (out_dir / name).read_bytes() for name in RECORD_FILES
            if (out_dir / name).exists()}


def crash_and_rerun(root: Path, seed: int, n: int, cache: bool, earlier, crash_at) -> int:
    """Run ``evaluate --ground-truth`` on the first *n* of five generated
    questions in a child: clean under ``root / "clean"``, then under
    ``root / "crashed"`` until the write operation K that ``crash_at`` picks
    from the clean run's count. Each starts over the ``--out-dir`` of an
    *earlier* run of that many questions, if given. Check what the crash
    left and a rerun over it; return K."""
    questions = workload.generate(seed, 5)
    paths = workload.write_inputs(questions, root / "inputs")
    rules = write_rules(seed, questions, root / "rules.jsonl")

    def argv(run_root: Path, limit: int, cached: bool) -> list[str]:
        return [str(arg) for arg in (
            "evaluate", "--questions", paths["questions"], "--labels", paths["labels"],
            "--ground-truth", "--script", rules, "--limit", limit,
            "--out-dir", run_root / "out", *("--cache-dir", run_root / "cache") * cached)]

    references = []
    if earlier:
        run(*argv(root / "earlier", earlier, False))
        references.append(record_set(root / "earlier" / "out"))
        for name in ("clean", "crashed"):
            shutil.copytree(root / "earlier" / "out", root / name / "out")
    runs = [{"root": str(root / name), "argv": argv(root / name, n, cache)}
            for name in ("clean", "crashed")]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    with subprocess.Popen([sys.executable, "-S", "-B", "-c", CRASH_CHILD, json.dumps(runs)],
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=env) as child:
        count = child.stdout.readline()
        assert count, child.communicate(timeout=60)[1]
        k = crash_at(int(count))
        _, err = child.communicate(f"{k}\n", timeout=60)
    assert child.returncode == 9, err
    references.append(record_set(root / "clean" / "out"))

    crashed = root / "crashed"
    if cache and (crashed / "cache").exists():
        entries = ResponseCache(crashed / "cache")
        for path in (crashed / "cache").glob("*.json"):
            assert entries.get(path.stem) is not None, path
    if (crashed / "out" / "manifest.json").exists():
        assert record_set(crashed / "out") in references
    run(*runs[1]["argv"])
    assert not list((crashed / "out").glob(".tmp-*.part"))
    assert record_set(crashed / "out") == references[-1]
    return k


@pytest.mark.parametrize("earlier", (False, True), ids=("fresh", "over-an-earlier-run"))
@pytest.mark.parametrize("cache", (False, True), ids=("no-cache", "cache"))
def test_every_crash_point_leaves_a_set_a_rerun_completes(cache, earlier):
    """A crash at any write of a run, with or without a cache and an earlier
    run of another size in its --out-dir, leaves cache entries that read and
    a directory whose manifest marks one run's whole set; a rerun over what
    it left removes its temp files and writes the clean run's records."""
    @settings(max_examples=5, phases=set(Phase) - {Phase.explain})
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4), data=st.data())
    def check(seed, n, data):
        size = data.draw(st.sampled_from([m for m in range(1, 6) if m != n]),
                         label="earlier") if earlier else None
        with tempfile.TemporaryDirectory() as tmp:
            crash_and_rerun(Path(tmp), seed, n, cache, size,
                            lambda count: data.draw(st.integers(1, count), label="K"))

    check()
