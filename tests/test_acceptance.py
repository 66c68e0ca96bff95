"""Acceptance suite: one test per gating property, one printed line each.

Each test announces itself on the real stdout (bypassing capture) as

    acceptance N PASS <what was checked> (T.TTs)

so a plain ``pytest -v tests/test_acceptance.py`` run shows the eight
verdict lines regardless of capture settings. Every criterion carries a
runtime budget; blowing the budget is a failure even if the checks pass.
The last criterion needs a live completion endpoint and labeled questions,
so it skips (without failing the suite) unless the environment provides
them.
"""

import itertools
import json
import os
import random
import socket
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from abcd_eval import records
from abcd_eval.cli import EXIT_OK, EXIT_PARTIAL, main
from abcd_eval.datasets import (
    SplitSpec,
    build_obscureqa,
    clean_text,
    convert_clue_to_question,
    RawQuizbowlRecord,
)
from abcd_eval.model import AnswerAssignment, ClaimTemplate, Verdict, extract_tags
from abcd_eval.scoring import score_true
from abcd_eval.stats import welch_t_test
from abcd_eval.template import instantiate
from abcd_eval.verify import MatchMode, VerdictParseConfig, parse_verdict
from e2e_fixture import (
    EXPECTED_REPORT,
    EXPECTED_SCORES,
    write_fixture,
)
from oracle_stats import reference_welch, two_sided_p


@pytest.fixture
def announce(capsys):
    """Context manager factory: times a criterion and prints its verdict."""

    @contextmanager
    def criterion(number: int, description: str, budget_seconds: float):
        start = time.perf_counter()
        try:
            yield
            elapsed = time.perf_counter() - start
            if elapsed >= budget_seconds:
                raise AssertionError(
                    f"criterion {number} took {elapsed:.2f}s, "
                    f"budget {budget_seconds}s"
                )
        except BaseException:
            elapsed = time.perf_counter() - start
            with capsys.disabled():
                print(f"acceptance {number} FAIL {description} ({elapsed:.2f}s)")
            raise
        with capsys.disabled():
            print(f"acceptance {number} PASS {description} ({elapsed:.2f}s)")

    return criterion


@pytest.fixture
def no_network(monkeypatch):
    """Make any socket connection attempt an immediate failure."""

    def refuse(*args, **kwargs):
        raise RuntimeError("network access attempted during an offline test")

    monkeypatch.setattr(socket.socket, "connect", refuse)
    monkeypatch.setattr(socket, "create_connection", refuse)


def test_acceptance_1_verdict_parser_golden_suite(announce):
    with announce(1, "verdict parser golden suite with substring hazards", 1.0):
        substring = VerdictParseConfig(match_mode=MatchMode.SUBSTRING)
        word = VerdictParseConfig(match_mode=MatchMode.WORD_BOUNDARY)
        claim = "the frigate Rose sailed in 1780"

        assert parse_verdict("True", claim, substring) is Verdict.TRUE
        assert parse_verdict(
            "As an AI language model, I cannot verify that.", claim, substring
        ) is Verdict.NON_RESPONSE
        # A reply that answers "False." yet restates the claim verbatim is
        # treated as an affirmation.
        assert parse_verdict(
            f"False. {claim}.", claim, substring
        ) is Verdict.TRUE
        assert parse_verdict(
            "False. The frigate Rose never left port.", claim, substring
        ) is Verdict.FALSE
        # Substring hazard: "construed" embeds "true".
        hazard = "The statement could be construed as accurate."
        assert parse_verdict(hazard, claim, substring) is Verdict.TRUE
        assert parse_verdict(hazard, claim, word) is Verdict.NON_RESPONSE


def test_acceptance_2_score_exactness_brute_force(announce):
    with announce(2, "score equals exact true-fraction for all n <= 6", 1.0):
        symbols = (Verdict.TRUE, Verdict.FALSE, Verdict.NON_RESPONSE)
        assert score_true([Verdict.TRUE]) is None
        assert score_true([Verdict.FALSE]) is None
        checked = 0
        for n in range(2, 7):
            for verdicts in itertools.product(symbols, repeat=n):
                expected = Fraction(
                    sum(1 for v in verdicts[1:] if v is Verdict.TRUE), n - 1
                )
                assert score_true(list(verdicts)) == expected
                checked += 1
        assert checked == 9 + 27 + 81 + 243 + 729


def test_acceptance_3_statistics_match_independent_oracle(announce):
    with announce(3, "t-test matches numeric-integration oracle", 5.0):
        rng = random.Random(20240817)
        for _ in range(20):
            xs = [rng.gauss(rng.uniform(-2, 2), rng.uniform(0.5, 3.0))
                  for _ in range(rng.randint(3, 40))]
            ys = [rng.gauss(rng.uniform(-2, 2), rng.uniform(0.5, 3.0))
                  for _ in range(rng.randint(3, 40))]
            result = welch_t_test(xs, ys)
            expected_t, expected_df, expected_p = reference_welch(xs, ys)
            assert result.t_stat == pytest.approx(expected_t, abs=1e-9)
            assert result.degrees_freedom == pytest.approx(expected_df, abs=1e-9)
            assert result.p_value == pytest.approx(expected_p, abs=1e-9)

        # Hand-checkable fixture: equal variances, shifted by one.
        hand = welch_t_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
        assert hand.t_stat == pytest.approx(-1.0, abs=1e-12)
        assert hand.degrees_freedom == pytest.approx(8.0, abs=1e-12)
        assert hand.p_value == pytest.approx(0.3466, abs=1e-4)
        assert hand.p_value == pytest.approx(
            two_sided_p(hand.t_stat, hand.degrees_freedom), abs=1e-9
        )

        # Identical groups: t is zero and p is one.
        same = welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert same.t_stat == 0.0
        assert same.p_value == pytest.approx(1.0, abs=1e-12)

        # Swapping the groups negates t and keeps p.
        forward = welch_t_test([1.0, 5.0, 2.5], [0.5, 3.0, 1.0, 2.0])
        backward = welch_t_test([0.5, 3.0, 1.0, 2.0], [1.0, 5.0, 2.5])
        assert forward.t_stat == pytest.approx(-backward.t_stat, abs=1e-12)
        assert forward.p_value == pytest.approx(backward.p_value, abs=1e-12)


def test_acceptance_4_end_to_end_deterministic(announce, no_network, tmp_path):
    with announce(4, "offline pipeline reproduces hand-traced report", 10.0):
        paths = write_fixture(tmp_path / "fixture")
        args = [
            "evaluate",
            "--questions", str(paths["questions"]),
            "--labels", str(paths["labels"]),
            "--script", str(paths["rules"]),
            "--ground-truth",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out-dir", str(out_a)]) == EXIT_OK
        assert main(args + ["--out-dir", str(out_b)]) == EXIT_OK

        # Two consecutive runs: identical artifacts.
        for name in ("evaluations.jsonl", "report.json", "report.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

        # Per-question scores are exact rationals.
        for record in records.read_jsonl(out_a / "evaluations.jsonl"):
            evaluation = records.evaluation_from_record(record)
            assert evaluation.score_true == \
                EXPECTED_SCORES[evaluation.question.id]

        report = json.loads((out_a / "report.json").read_text("utf-8"))[0]
        assert report["n_total"] == EXPECTED_REPORT["n_total"]
        assert report["n_correct"] == EXPECTED_REPORT["n_correct"]
        assert report["n_incorrect"] == EXPECTED_REPORT["n_incorrect"]
        for name in ("mean_correct", "mean_incorrect", "diff", "p_correct",
                     "p_incorrect"):
            assert report[name] == str(EXPECTED_REPORT[name]), name
        comparison = report["gt_comparison"]
        assert (comparison["gt_greater"], comparison["gt_equal"],
                comparison["gt_less"]) == EXPECTED_REPORT["gt_comparison"]
        # The p-value agrees with the independent oracle at the report's
        # own t and df.
        assert report["p_value"] == pytest.approx(
            two_sided_p(report["t_stat"], report["degrees_freedom"]), abs=1e-9
        )


def test_acceptance_5_replay_closure(announce, no_network, tmp_path):
    with announce(5, "record/replay closure, loud miss on deleted entry", 10.0):
        paths = write_fixture(tmp_path / "fixture")
        cache_dir = tmp_path / "cache"
        out_record = tmp_path / "record"
        assert main(
            [
                "evaluate",
                "--questions", str(paths["questions"]),
                "--labels", str(paths["labels"]),
                "--script", str(paths["rules"]),
                "--cache-dir", str(cache_dir),
                "--ground-truth",
                "--out-dir", str(out_record),
            ]
        ) == EXIT_OK

        # Strict replay from the recorded cache: no script, no network,
        # identical outputs.
        replay_args = [
            "evaluate",
            "--questions", str(paths["questions"]),
            "--labels", str(paths["labels"]),
            "--provider", "replay",
            "--cache-dir", str(cache_dir),
            "--ground-truth",
        ]
        out_replay = tmp_path / "replay"
        assert main(replay_args + ["--out-dir", str(out_replay)]) == EXIT_OK
        for name in ("evaluations.jsonl", "report.json"):
            assert (out_record / name).read_bytes() == \
                (out_replay / name).read_bytes()

        # Delete one known entry; the re-run must fail for exactly that
        # question and name the missing digest.
        target_digest = None
        for entry_path in cache_dir.glob("*.json"):
            entry = json.loads(entry_path.read_text("utf-8"))
            if entry["request"]["prompt"] == "True or False: Mars is a planet":
                target_digest = entry_path.stem
                entry_path.unlink()
                break
        assert target_digest is not None

        out_missing = tmp_path / "missing"
        assert main(replay_args + ["--out-dir", str(out_missing)]) \
            == EXIT_PARTIAL
        manifest = json.loads((out_missing / "manifest.json").read_text("utf-8"))
        failed = manifest["questions"]["q01"]
        assert failed["status"] == "failed"
        assert "replay_miss" in failed["reason"]
        assert target_digest in failed["reason"]
        assert manifest["n_ok"] == 11


def test_acceptance_6_dataset_pipeline_regressions(announce, tmp_path):
    with announce(6, "text cleaning goldens and seeded 7/1/2 split", 1.0):
        assert clean_text("He said [sic] hello") == "He said hello"
        assert clean_text("café (a drink)") == "cafe"
        assert clean_text("Dvořák wrote <i>Rusalka</i> (an opera)") == (
            "Dvorak wrote Rusalka"
        )
        assert convert_clue_to_question("Name this author of Hamlet") == (
            "Name what author of Hamlet?"
        )
        assert convert_clue_to_question("This author wrote Hamlet") == (
            "What author wrote Hamlet?"
        )
        assert convert_clue_to_question("Note to moderator: read slowly") is None

        records_10 = [
            RawQuizbowlRecord(
                clues=(f"This writer number {i} published a novel",),
                answer=f"Writer {i}",
            )
            for i in range(10)
        ]
        build_a = build_obscureqa(records_10, SplitSpec(seed=4))
        build_b = build_obscureqa(records_10, SplitSpec(seed=4))
        assert (len(build_a.train), len(build_a.valid), len(build_a.test)) \
            == (7, 1, 2)
        assert build_a == build_b


_NAME_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789_-"
_PROSE_CHARS = "abcdefghijklmnopqrstuvwxyz ,.'()[]{}!?;:0123456789"
_VALUE_CHARS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ 0123456789.,'-"


def _random_tag_name(rng: random.Random) -> str:
    words = [
        "".join(rng.choice(_NAME_CHARS) for _ in range(rng.randint(1, 8)))
        for _ in range(rng.randint(1, 2))
    ]
    return " ".join(words)


def _random_case(rng: random.Random, name: str) -> str:
    return "".join(
        char.upper() if rng.random() < 0.3 else char for char in name
    )


def test_acceptance_7_template_round_trip_properties(announce):
    with announce(7, "1000 randomized tag extraction/instantiation cases", 5.0):
        rng = random.Random(1729)
        for _ in range(1000):
            names = ["answer"]
            target = rng.randint(1, 4)
            while len(names) < target:
                candidate = _random_tag_name(rng)
                if candidate not in names:
                    names.append(candidate)

            occurrences = names + [rng.choice(names)
                                   for _ in range(rng.randint(0, 3))]
            rng.shuffle(occurrences)

            values = {}
            for name in names:
                value = ""
                while not value.strip():
                    value = "".join(
                        rng.choice(_VALUE_CHARS)
                        for _ in range(rng.randint(1, 12))
                    )
                values[name] = value.strip()

            parts = []
            expected_parts = []
            first_seen = []
            for name in occurrences:
                prose = "".join(
                    rng.choice(_PROSE_CHARS) for _ in range(rng.randint(0, 10))
                )
                parts.append(prose)
                expected_parts.append(prose)
                parts.append(f"<{_random_case(rng, name)}>")
                expected_parts.append(values[name])
                if name not in first_seen:
                    first_seen.append(name)
            template_text = "".join(parts)

            # Completeness: extraction finds every planted tag, lowercased,
            # in first-occurrence order, deduplicated.
            extracted = extract_tags(template_text)
            assert [tag.name for tag in extracted] == first_seen

            # Instantiation: exact substitution, nothing tag-like survives.
            claim = ClaimTemplate(template_text)
            assignment = AnswerAssignment.from_dict(values)
            result = instantiate(claim, assignment)
            assert result == "".join(expected_parts)
            assert extract_tags(result) == []


LIVE_ENV_VARS = (
    "ABCD_API_KEY",
    "ABCD_SMOKE_BASE_URL",
    "ABCD_SMOKE_QUESTIONS",
    "ABCD_SMOKE_LABELS",
)


def test_acceptance_8_live_smoke_diff_positive(announce, capsys, tmp_path):
    """Non-gating: with a real endpoint and >= 30 labeled questions, the
    labeled-correct mean should beat the labeled-incorrect mean."""
    missing = [name for name in LIVE_ENV_VARS if not os.environ.get(name)]
    if missing:
        with capsys.disabled():
            print(
                "acceptance 8 SKIP live-endpoint smoke run "
                f"(set {', '.join(missing)} to enable)"
            )
        pytest.skip("live smoke needs " + ", ".join(missing))
    with announce(8, "live-endpoint smoke run has positive score diff", 1800.0):
        labels = {
            record["question_id"]
            for record in records.read_jsonl(os.environ["ABCD_SMOKE_LABELS"])
        }
        assert len(labels) >= 30, "smoke run needs at least 30 labeled questions"
        out_dir = tmp_path / "live"
        code = main(
            [
                "evaluate",
                "--questions", os.environ["ABCD_SMOKE_QUESTIONS"],
                "--labels", os.environ["ABCD_SMOKE_LABELS"],
                "--provider", "live",
                "--base-url", os.environ["ABCD_SMOKE_BASE_URL"],
                "--cache-dir", str(tmp_path / "cache"),
                "--out-dir", str(out_dir),
            ]
        )
        assert code == EXIT_OK
        reports = json.loads((out_dir / "report.json").read_text("utf-8"))
        diffs = [
            Fraction(report["diff"]) for report in reports
            if report["diff"] is not None
        ]
        assert diffs, "no dataset produced a labeled diff"
        assert all(diff > 0 for diff in diffs)
