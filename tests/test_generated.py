"""The exactness contract on generated workloads.

``perfbench/workload.py`` questions, answered through exact script rules
built from ``endpoint.build_table``, must score the generator's exact
``Fraction``s and write the same record bytes at ``--concurrency`` 1 and 4,
with ``--cache-dir``, in a replay of that cache and as the stage commands.
"""

import json
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

import endpoint
import workload
from abcd_eval.cli import EXIT_OK, main
from helpers import RECORD_FILES


def run(*argv) -> None:
    assert main([str(arg) for arg in argv]) == EXIT_OK, argv


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
        rules = root / "rules.jsonl"
        rules.write_text("".join(
            json.dumps({"match": prompt, "response": reply, "mode": "exact"}) + "\n"
            for prompt, (_, reply, *_) in endpoint.build_table(seed, questions).items()
        ), "utf-8")
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
