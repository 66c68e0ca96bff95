"""Tests of the benchmark's own parts: generator, endpoint, gate, tracer."""

from __future__ import annotations

import http.client
import json
import socket
import sys
import threading
from fractions import Fraction

import pytest
import requests

import endpoint
import run
import tracer
import workload
from abcd_eval import cli
from abcd_eval.answers import generate_answers
from abcd_eval.decompose import decompose, default_pack_path, load_prompt_pack
from abcd_eval.model import Dataset, Question, Verdict
from abcd_eval.providers import (
    CompletionRequest,
    CompletionResponse,
    LiveProvider,
    ProviderError,
    ProviderErrorKind,
)
from abcd_eval.scoring import score_true
from abcd_eval.verify import verify_all


def _question(q: workload.GeneratedQuestion) -> Question:
    return Question(id=q.qid, text=q.text, gold_answer=q.gold, dataset=Dataset.CUSTOM)


class TableProvider:
    """Answers from the endpoint's prompt table, without HTTP."""

    def __init__(self, table: dict):
        self.table = table
        self.prompts: list[str] = []

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        self.prompts.append(request.prompt)
        entry = self.table.get(request.prompt)
        if entry is None:
            raise AssertionError(f"no reply for prompt {request.prompt[:80]!r}")
        return CompletionResponse(text=entry[1])


# --------------------------------------------------------------------------
# generator


def test_generator_is_deterministic_for_a_seed():
    assert workload.generate(5, 40) == workload.generate(5, 40)
    assert workload.generate(5, 40) != workload.generate(6, 40)
    assert workload.generate(5, 40, "r") != workload.generate(5, 40, "q")


def test_generated_inputs_are_byte_stable(tmp_path):
    first = workload.write_inputs(workload.generate(3, 30), tmp_path / "a")
    second = workload.write_inputs(workload.generate(3, 30), tmp_path / "b")
    for name in ("questions", "labels"):
        assert first[name].read_bytes() == second[name].read_bytes()


def test_generator_covers_every_verdict_kind_and_extra_tags():
    questions = workload.generate(2, 300)
    symbols = "".join(q.pred_verdicts + q.gt_verdicts for q in questions)
    assert set(symbols) == set("TFNR")
    props = workload.properties(questions)
    assert 0.2 < props["extra_tag_share"] < 0.6
    assert 3.5 < props["mean_claims_per_question"] < 4.5
    assert any(q.correct is None for q in questions)


# --------------------------------------------------------------------------
# endpoint


def test_endpoint_answers_every_prompt_the_real_builders_produce():
    questions = workload.generate(9, 60)
    table = endpoint.build_table(9, questions)
    provider = TableProvider(table)
    pack = load_prompt_pack(default_pack_path())
    for q in questions:
        question = _question(q)
        claim_set = decompose(question, pack, provider).claim_set
        assignment = generate_answers(question, claim_set, provider)
        results = verify_all(claim_set, assignment, provider)
        gt_results = verify_all(claim_set, assignment, provider,
                                override_answer=q.gold)
        assert score_true([r.verdict for r in results]) == q.score
        assert score_true([r.verdict for r in gt_results]) == q.gt_score
    assert set(provider.prompts) == set(table)


def test_latency_is_deterministic_with_a_10ms_median():
    draws = sorted(endpoint.draw_latency(4, f"prompt {i}") for i in range(2001))
    assert draws == sorted(endpoint.draw_latency(4, f"prompt {i}") for i in range(2001))
    assert 0.009 < draws[1000] < 0.011
    assert draws[1900] > 1.5 * draws[1000]
    assert draws[-1] <= endpoint.LATENCY_CAP_S


@pytest.fixture
def served():
    questions = workload.generate(1, 3)
    table = endpoint.build_table(1, questions)
    server = endpoint.Endpoint(table, max_conns=2)
    server.latency_scale = 0.0
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    thread = threading.Thread(target=server.serve_forever, args=(listener,), daemon=True)
    thread.start()
    try:
        yield table, listener.getsockname()[1]
    finally:
        listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept()
        listener.close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def test_endpoint_serves_chat_completions_over_http(served):
    table, port = served
    prompt = next(iter(table))
    session = requests.Session()
    try:
        provider = LiveProvider(f"http://127.0.0.1:{port}/v1", api_key="k",
                                session=session, max_attempts=1)
        response = provider.complete(
            CompletionRequest(model="default", prompt=prompt, max_tokens=64))
        assert response.text == table[prompt][1]
        with pytest.raises(ProviderError) as caught:
            provider.complete(
                CompletionRequest(model="default", prompt="unknown", max_tokens=64))
        assert caught.value.kind is ProviderErrorKind.OTHER
        body = session.post(
            f"http://127.0.0.1:{port}/v1/chat/completions",
            json={"model": "m", "messages": [{"role": "user", "content": prompt}]},
        ).json()
        assert body["choices"][0]["finish_reason"] == "stop"
        assert body["usage"]["total_tokens"] > 0
    finally:
        session.close()

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    conn.request("GET", "/_bench/log")
    log = json.loads(conn.getresponse().read())["log"]
    conn.close()
    figures = run.endpoint_figures(log)
    assert figures["requests"] == 3
    assert figures["unknown"] == 1
    assert figures["repeat_share"] == pytest.approx(1 / 3)


# --------------------------------------------------------------------------
# correctness gate


def test_gate_accepts_a_real_run_and_rejects_a_changed_score(tmp_path):
    questions = workload.generate(4, 25)
    paths = workload.write_inputs(questions, tmp_path / "inputs")
    rules = tmp_path / "rules.jsonl"
    table = endpoint.build_table(4, questions)
    with open(rules, "w", encoding="utf-8") as handle:
        for prompt, (_, reply, _, _) in table.items():
            handle.write(json.dumps(
                {"match": prompt, "mode": "exact", "response": reply}) + "\n")
    out = tmp_path / "out"
    code = cli.main(["evaluate", "--questions", str(paths["questions"]),
                     "--labels", str(paths["labels"]), "--out-dir", str(out),
                     "--ground-truth", "--script", str(rules)])
    assert code == 0
    assert run.count_missing(out, questions, code) == 0
    run.check_outputs(out, questions)

    path = out / "evaluations.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    rows[3]["score_true"] = str(Fraction(rows[3]["score_true"]) + 1)
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    with pytest.raises(run.GateFailure):
        run.check_outputs(out, questions)
    assert run.count_missing(out, questions, 2) == len(questions)


def test_record_digests_must_match():
    digests = {name: "a" for name in run.RECORD_FILES}
    run.same_records(digests, dict(digests), "here")
    with pytest.raises(run.GateFailure):
        run.same_records(digests, dict(digests, **{"report.json": "b"}), "here")


# --------------------------------------------------------------------------
# measurement helpers


def test_percentile_needs_ten_samples_beyond():
    values = list(range(1, 201))
    assert run.percentile(values, 95) == 190
    assert run.percentile(values, 50) == 100
    assert run.percentile(values[:199], 95) is None
    assert run.percentile(range(20), 50) == 9
    assert run.percentile(range(19), 50) is None


def test_child_environment_is_fixed_and_proxy_free(tmp_path):
    env = run.fixed_env(tmp_path)
    assert not any("proxy" in name.lower() for name in env)
    assert env == run.fixed_env(tmp_path)
    assert set(env) == {"PATH", "HOME", "LANG", "LC_ALL", "PYTHONPATH",
                        "PYTHONHASHSEED", "PYTHONUNBUFFERED", "ABCD_API_KEY"}


# --------------------------------------------------------------------------
# tracer


def _abcd_modules():
    return [module for name, module in sys.modules.items()
            if module is not None and name.split(".")[0] == "abcd_eval"]


def _snapshot():
    return {(id(module), name): value
            for module in _abcd_modules() for name, value in vars(module).items()}


def test_alias_rebinding_wraps_and_restores_every_reference():
    import abcd_eval.providers as providers

    before = _snapshot()
    t = tracer.Tracer()
    originals = [t._resolve(name)[2] for name in tracer.TRACED]
    aliases = [(module, name, value)
               for module in _abcd_modules()
               for name, value in vars(module).items()
               if any(value is original for original in originals)]
    assert len(aliases) > len(tracer.TRACED) - 5  # methods live on classes
    complete = vars(providers.LiveProvider)["complete"]
    t.install(tracer.TRACED)
    try:
        assert t.absent == []
        for module, name, value in aliases:
            assert vars(module)[name].__wrapped__ is value, f"{module.__name__}.{name}"
        assert cli.verify_all is not before[(id(cli), "verify_all")]
        assert providers.LiveProvider.complete.__wrapped__ is complete
    finally:
        t.restore()
    assert _snapshot() == before
    assert vars(providers.LiveProvider)["complete"] is complete


def test_absent_functions_are_reported_not_fatal():
    before = _snapshot()
    t = tracer.Tracer()
    t.install(["cli.no_such_function", "providers.NoSuchClass.complete",
               "no_such_module.f", "scoring.score_true"])
    try:
        assert t.absent == ["cli.no_such_function", "providers.NoSuchClass.complete",
                            "no_such_module.f"]
    finally:
        t.restore()
    assert _snapshot() == before


def test_spans_nest_per_thread_and_carry_the_question_id():
    questions = workload.generate(8, 4)
    provider = TableProvider(endpoint.build_table(8, questions))
    pack = load_prompt_pack(default_pack_path())
    q = questions[0]
    question = _question(q)
    claim_set = decompose(question, pack, provider).claim_set
    assignment = generate_answers(question, claim_set, provider)

    names = ["verify.verify_all", "verify.verify_claim", "verify.parse_verdict"]
    t = tracer.Tracer()
    t.install(names)
    try:
        import abcd_eval.verify as verify
        results = verify.verify_all(claim_set, assignment, provider)
    finally:
        t.restore()

    assert [r.verdict is Verdict.TRUE for r in results] == [
        s in "TR" for s in q.pred_verdicts]
    by_id = {span[0]: span for span in t.spans}
    top = [span for span in t.spans if span[3] == -1]
    assert [span[1] for span in top] == ["verify.verify_all"]
    assert top[0][6] == q.qid
    for span in t.spans:
        if span[1] == "verify.parse_verdict":
            assert by_id[span[3]][1] == "verify.verify_claim"
    layers = tracer.summarize(t.spans, names)
    k = len(q.claims)
    assert layers["verify.verify_claim"]["calls"] == k
    assert layers["verify.parse_verdict"]["calls"] == k
    total = (top[0][5] - top[0][4]) * 1e3
    assert sum(entry["self_ms"] for entry in layers.values()) == pytest.approx(total)
