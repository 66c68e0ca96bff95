"""Traced run of the CLI: spans around the public functions of each layer.

Run as its own process::

    python3 perfbench/tracer.py --out DIR -- evaluate --questions ...

It imports ``abcd_eval``, wraps every function in :data:`TRACED` where it
is defined, rebinds each alias of it in the ``abcd_eval.*`` modules (for a
method, the class attribute), calls ``cli.main(argv)`` and puts every
original back. Spans stay in memory, nested per thread, and are written to
``DIR/spans.jsonl`` at the end together with ``DIR/summary.json``. A listed
function that no longer exists is reported as absent.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from pathlib import Path

from endpoint import prompt_key

PACKAGE = "abcd_eval"

TRACED = (
    "cli.main",
    "cli.build_reports",
    "cli.render_report_text",
    "datasets.load_questions",
    "decompose.load_prompt_pack",
    "decompose.build_decomposition_prompt",
    "decompose.parse_decomposition",
    "decompose.decompose",
    "answers.build_answer_prompt",
    "answers.parse_answers",
    "answers.generate_answers",
    "template.instantiate",
    "template.instantiate_with_override",
    "verify.verify_all",
    "verify.verify_claim",
    "verify.parse_verdict",
    "providers.cache_key",
    "providers.LiveProvider.complete",
    "providers.CachingProvider.complete",
    "providers.ReplayProvider.complete",
    "providers.ResponseCache.get",
    "providers.ResponseCache.put",
    "scoring.score_true",
    "scoring.aggregate",
    "stats.welch_t_test",
    "records.write_jsonl_atomic",
    "records.write_json_atomic",
    "records.write_text_atomic",
)

_MISSING = object()


def _tags(args) -> tuple:
    """(question id, prompt key) named by a call's first arguments."""
    qid = key = None
    for arg in args[:3]:
        if qid is None:
            if hasattr(arg, "gold_answer"):
                qid = arg.id
            else:
                qid = getattr(arg, "question_id", None)
        prompt = getattr(arg, "prompt", None)
        if isinstance(prompt, str):
            key = prompt_key(prompt)
    return qid, key


class Tracer:
    """Installs span-recording wrappers and takes them out again.

    A span is ``[id, name, thread, parent id, start, end, question id,
    prompt key, returned a value]``; the parent is the innermost traced
    call still open on the same thread, or -1.
    """

    def __init__(self, package: str = PACKAGE):
        self.package = package
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple] = []

    def install(self, names) -> None:
        for name in names:
            owner, attr, original = self._resolve(name)
            if original is _MISSING or not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module_name, module in list(sys.modules.items()):
                if module is None or not (
                    module_name == self.package
                    or module_name.startswith(self.package + ".")
                ):
                    continue
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, alias, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, previous = self._patches.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    def _resolve(self, name: str) -> tuple:
        module_name, _, path = name.partition(".")
        try:
            owner = importlib.import_module(f"{self.package}.{module_name}")
        except ImportError:
            return None, None, _MISSING
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None, _MISSING
        if isinstance(owner, type):
            # getattr also finds a method the class inherits.
            original = getattr(owner, parts[-1], _MISSING)
        else:
            original = vars(owner).get(parts[-1], _MISSING)
        return owner, parts[-1], original

    def _patch(self, owner, attr: str, value) -> None:
        previous = vars(owner).get(attr, _MISSING)
        self._patches.append((owner, attr, previous))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            qid, key = _tags(args)
            span = [next(ids), name, threading.get_ident(),
                    stack[-1][0] if stack else -1, time.perf_counter(), 0.0,
                    qid, key, False]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                span[8] = result is not None
                return result
            finally:
                span[5] = time.perf_counter()
                stack.pop()

        return traced


def summarize(spans: list[list], names) -> dict:
    """Calls and self time per traced name; self time is a span's length
    minus the length of its direct children."""
    child_time: dict[int, float] = {}
    for span in spans:
        if span[3] != -1:
            child_time[span[3]] = child_time.get(span[3], 0.0) + span[5] - span[4]
    layers = {name: {"calls": 0, "self_ms": 0.0} for name in names}
    for span in spans:
        entry = layers[span[1]]
        entry["calls"] += 1
        entry["self_ms"] += (span[5] - span[4] - child_time.get(span[0], 0.0)) * 1e3
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    importlib.import_module(PACKAGE)
    tracer = Tracer()
    tracer.install(TRACED)
    main_fn = getattr(importlib.import_module(f"{PACKAGE}.cli"), "main")
    started = time.perf_counter()
    try:
        code = main_fn(cli_args)
    finally:
        wall = time.perf_counter() - started
        tracer.restore()

    args.out.mkdir(parents=True, exist_ok=True)
    with open(args.out / "spans.jsonl", "w", encoding="utf-8") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span) + "\n")
    live = [
        [span[7], span[5] - span[4]]
        for span in tracer.spans
        if span[1] == "providers.LiveProvider.complete"
    ]
    gets = [span for span in tracer.spans if span[1] == "providers.ResponseCache.get"]
    summary = {
        "exit": code,
        "wall_s": wall,
        "absent": tracer.absent,
        "layers": summarize(tracer.spans, TRACED),
        "live_calls": live,
        "cache_get_hits": sum(1 for span in gets if span[8]),
    }
    (args.out / "summary.json").write_text(json.dumps(summary), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
