"""End-to-end benchmark of ``abcd-eval evaluate``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload live-gt --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

The program is a black box: every run spawns ``python -m abcd_eval.cli
evaluate`` from the checkout's ``src`` with an environment the benchmark
builds itself. The model is ``endpoint.py``, a fake chat-completions server
on loopback in its own process, which sees every upstream request. Each
run checks its outputs against the exact scores the generator implies.

Workloads (closed loop, ``--concurrency`` workers each waiting for a reply):

* ``live-gt``: ``--ground-truth --provider live``, no cache;
* ``record``: the same plus a fresh ``--cache-dir`` per run;
* ``replay``: ``--provider replay`` over a larger question set whose cache
  the program's own record mode fills once per invocation; replay sends
  nothing upstream, so its endpoint figures are those of that fill.

With ``--trace 0`` the last stdout line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (``tracer.py``). The
lines before it print each metric with its unit and a ``detail`` object
with the workload's properties. The exit code is 1 when a correctness
check fails, 2 when the checkout holds no program.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import workload as gen
from tracer import TRACED

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_run"

NPROC = os.cpu_count() or 1
CONCURRENCY = min(2, NPROC)
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 150

RECORD_FILES = (
    "claim_sets.jsonl",
    "assignments.jsonl",
    "verifications.jsonl",
    "gt_verifications.jsonl",
    "evaluations.jsonl",
    "report.json",
    "report.txt",
)


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "live", "record" or "replay"
    prefix: str
    questions: int


# Why each workload exists is recorded in BENCHMARK.json. live-gt and
# record share their questions, so their records must be identical.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("live-gt", "live", "q", 200),
        Workload("record", "record", "q", 200),
        Workload("replay", "replay", "r", 400),
    )
}

END_TO_END = (
    ("questions_per_s", "questions/s"),
    ("question_latency_p50_ms", "ms"),
    ("question_latency_p95_ms", "ms"),
    ("upstream_calls_per_question", "req/question"),
    ("cpu_ms_per_question", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)

DERIVED = (
    ("providers.ResponseCache.get.hit_ratio", "ratio"),
    ("providers.ResponseCache.bytes_per_question", "bytes/question"),
    ("providers.LiveProvider.complete.p50_ms", "ms"),
    ("providers.LiveProvider.complete.mean_in_flight", "requests"),
    ("providers.LiveProvider.complete.overhead_ms", "ms"),
    ("providers.retries_per_request", "ratio"),
    ("endpoint.requests", "count"),
    ("trace.overhead", "ratio"),
)

PER_LAYER = tuple(
    item
    for name in TRACED
    for item in ((f"{name}.calls", "count"), (f"{name}.self_ms", "ms"))
) + DERIVED


class GateFailure(Exception):
    """An output of the program differs from what the inputs imply."""


# --------------------------------------------------------------------------
# small helpers


def percentile(values, q: float):
    """Nearest-rank percentile, or None when fewer than ten samples lie
    beyond it (so a p95 needs at least 200 samples)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if len(ordered) - rank < 10:
        return None
    return ordered[rank - 1]


def fixed_env(home: Path) -> dict:
    """The whole environment of every child: no proxy variables, no
    caller settings. ``requests`` reads the environment on every call."""
    return {
        "PATH": "/usr/local/bin:/usr/bin:/bin",
        "HOME": str(home),
        "LANG": "C.UTF-8",
        "LC_ALL": "C.UTF-8",
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "PYTHONUNBUFFERED": "1",
        "ABCD_API_KEY": "perfbench",
    }


@dataclass
class ChildRun:
    exit: int
    wall_s: float
    user_s: float
    sys_s: float
    maxrss_mb: float

    @property
    def cpu_s(self) -> float:
        return self.user_s + self.sys_s


def run_child(argv: list, env: dict, log_path: Path) -> ChildRun:
    """Spawn, wait and take the child's own rusage."""
    with open(log_path, "wb") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=log_path.parent,
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        exit=proc.returncode,
        wall_s=wall,
        user_s=usage.ru_utime,
        sys_s=usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
    )


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(SRC.rglob("*.txt")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text().strip()
        return "unknown"
    return ref


def cpu_ticks() -> tuple:
    """(steal, total) jiffies of the machine, to show how much CPU time the
    host took away while the benchmark ran."""
    fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return fields[7], sum(fields)


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# --------------------------------------------------------------------------
# the fake endpoint


class EndpointProcess:
    def __init__(self, seed: int, sets: list, env: dict, log_path: Path):
        argv = [sys.executable, str(BENCH / "endpoint.py"), "--seed", str(seed),
                "--max-conns", str(NPROC)]
        for prefix, n in sets:
            argv += ["--set", f"{prefix}:{n}"]
        self._log = open(log_path, "wb")
        env = dict(env, PYTHONPATH=f"{SRC}{os.pathsep}{BENCH}")
        # The endpoint exits when its stdin closes, so it cannot outlive us.
        self.proc = subprocess.Popen(argv, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self._log)
        line = self.proc.stdout.readline().decode().split()
        if len(line) != 2 or line[0] != "PORT":
            self.stop()
            raise RuntimeError(f"endpoint did not start; see {log_path}")
        self.port = int(line[1])
        self.base_url = f"http://127.0.0.1:{self.port}/v1"

    def _call(self, method: str, path: str, body=None) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request(method, path, body=json.dumps(body) if body else None)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def take_log(self) -> dict:
        return self._call("GET", "/_bench/log")

    def set_latency_scale(self, scale: float) -> None:
        self._call("POST", "/_bench/config", {"latency_scale": scale})

    def stop(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def endpoint_figures(log: list) -> dict:
    """Per-question latency, request count and repeat share from the
    endpoint's request log of one run."""
    first: dict = {}
    last: dict = {}
    seen: set = set()
    repeats = unknown = 0
    for key, qid, received, sent in log:
        if key is None:
            unknown += 1
            continue
        if key in seen:
            repeats += 1
        seen.add(key)
        first[qid] = min(first.get(qid, received), received)
        last[qid] = max(last.get(qid, sent), sent)
    return {
        "requests": len(log),
        "unknown": unknown,
        "repeat_share": repeats / len(log) if log else 0.0,
        "latencies_ms": [(last[q] - first[q]) * 1e3 for q in first],
    }


# --------------------------------------------------------------------------
# the correctness gate


def count_missing(out_dir: Path, questions: list, exit_code: int) -> int:
    """Questions with no evaluation; all of them when the run failed."""
    path = out_dir / "evaluations.jsonl"
    if exit_code != 0 or not path.is_file():
        return len(questions)
    wanted = {q.qid for q in questions}
    for line in path.read_text(encoding="utf-8").splitlines():
        wanted.discard(json.loads(line)["question"]["id"])
    return len(wanted)


def check_outputs(out_dir: Path, questions: list) -> None:
    """Raise GateFailure unless every score and report field is exact."""
    rows = (out_dir / "evaluations.jsonl").read_text(encoding="utf-8").splitlines()
    by_id = {row["question"]["id"]: row for row in map(json.loads, rows)}
    for q in questions:
        row = by_id[q.qid]
        for field, want in (("score_true", q.score), ("gt_score_true", q.gt_score)):
            got = row.get(field)
            if got is None or Fraction(got) != want:
                raise GateFailure(f"{out_dir}: {q.qid} {field} is {got}, "
                                  f"expected {want}")
    reports = json.loads((out_dir / "report.json").read_text())
    if len(reports) != 1:
        raise GateFailure(f"{out_dir}: {len(reports)} reports, expected 1")
    report = reports[0]
    want = gen.expected_report(questions)
    for field in ("n_total", "n_correct", "n_incorrect", "n_unlabeled"):
        if report[field] != want[field]:
            raise GateFailure(f"{out_dir}: report {field} is {report[field]}, "
                              f"expected {want[field]}")
    for field in ("mean_correct", "mean_incorrect", "diff"):
        got = report[field]
        if (None if got is None else Fraction(got)) != want[field]:
            raise GateFailure(f"{out_dir}: report {field} is {got}, "
                              f"expected {want[field]}")
    comparison = report["gt_comparison"]
    got = comparison and tuple(
        comparison[k] for k in ("gt_greater", "gt_equal", "gt_less"))
    if got != want["gt_comparison"]:
        raise GateFailure(f"{out_dir}: gold comparison {got}, "
                          f"expected {want['gt_comparison']}")


def record_digests(out_dir: Path) -> dict:
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in RECORD_FILES
    }


def same_records(reference: dict, digests: dict, what: str) -> None:
    differing = [name for name in RECORD_FILES if reference[name] != digests[name]]
    if differing:
        raise GateFailure(f"record files differ {what}: {', '.join(differing)}")


def same_as_earlier(w: Workload, seed: int, digests: dict, source: str) -> None:
    """Compare with the records an earlier invocation wrote for the same
    program, seed and question set, whichever workload it ran."""
    inputs = hashlib.sha256()
    for name in ("workload.py", "endpoint.py"):
        inputs.update((BENCH / name).read_bytes())
    key = f"{w.prefix}{w.questions}-{seed}-{source}-{inputs.hexdigest()[:16]}"
    path = RUNS / "records" / f"{key}.json"
    if path.is_file():
        earlier = json.loads(path.read_text())
        same_records(earlier["digests"], digests,
                     f"between {earlier['workload']} and {w.name} at seed {seed}")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"workload": w.name, "digests": digests}))


# --------------------------------------------------------------------------
# one invocation


class Bench:
    """State of one benchmark invocation for one workload."""

    def __init__(self, w: Workload, seed: int, workdir: Path):
        self.w = w
        self.seed = seed
        self.workdir = workdir
        self.questions = gen.generate(seed, w.questions, w.prefix)
        self.inputs = gen.write_inputs(self.questions, workdir / "inputs")
        home = workdir / "home"
        home.mkdir()
        self.env = fixed_env(home)
        self.endpoint = EndpointProcess(seed, [(w.prefix, w.questions)],
                                        self.env, workdir / "endpoint.log")
        self.replay_cache = None
        self.fill_digests = None
        self.fill_figures = None
        self.attempted = 0
        self.failed = 0
        self._n = 0

    def close(self) -> None:
        self.endpoint.stop()

    def _argv(self, out_dir: Path, mode: str, cache_dir, limit) -> list:
        argv = ["evaluate", "--questions", str(self.inputs["questions"]),
                "--labels", str(self.inputs["labels"]), "--out-dir", str(out_dir),
                "--ground-truth", "--concurrency", str(CONCURRENCY)]
        if mode == "replay":
            argv += ["--provider", "replay", "--cache-dir", str(cache_dir)]
        else:
            argv += ["--provider", "live", "--base-url", self.endpoint.base_url]
            if cache_dir is not None:
                argv += ["--cache-dir", str(cache_dir)]
        if limit is not None:
            argv += ["--limit", str(limit)]
        return argv

    def run(self, limit=None, traced=False, mode=None) -> dict:
        """One ``evaluate`` of the workload, checked; returns its figures."""
        mode = mode or self.w.mode
        self._n += 1
        run_dir = self.workdir / f"run{self._n:03d}"
        out_dir = run_dir / "out"
        run_dir.mkdir()
        cache_dir = None
        if mode == "record":
            cache_dir = run_dir / "cache"
        elif mode == "replay":
            cache_dir = self.replay_cache
        argv = self._argv(out_dir, mode, cache_dir, limit)
        if traced:
            cmd = [sys.executable, str(BENCH / "tracer.py"), "--out",
                   str(run_dir / "trace"), "--"] + argv
            env = dict(self.env, PYTHONPATH=f"{SRC}{os.pathsep}{BENCH}")
        else:
            cmd = [sys.executable, "-m", "abcd_eval.cli"] + argv
            env = self.env
        child = run_child(cmd, env, run_dir / "child.log")
        log = self.endpoint.take_log()["log"]
        questions = self.questions[:limit] if limit else self.questions
        missing = count_missing(out_dir, questions, child.exit)
        self.attempted += len(questions)
        self.failed += missing
        if missing:
            raise GateFailure(f"{run_dir.name}: exit code {child.exit}, {missing} "
                              f"of {len(questions)} questions failed; see "
                              f"{run_dir / 'child.log'}")
        figures = {
            "child": child,
            "run_dir": run_dir,
            "endpoint": endpoint_figures(log),
            "endpoint_log": log,
        }
        try:
            check_outputs(out_dir, questions)
            figures["digests"] = record_digests(out_dir)
            if traced:
                figures["trace"] = json.loads(
                    (run_dir / "trace" / "summary.json").read_text())
        except (OSError, ValueError, LookupError, TypeError) as exc:
            raise GateFailure(f"{run_dir.name}: unreadable output: {exc!r}") from exc
        if mode == "record":
            figures["cache_bytes"] = dir_bytes(cache_dir)
        return figures

    def prepare(self) -> None:
        """Warm the bytecode caches; for replay, fill the cache once with
        the program's own record mode."""
        if self.w.mode == "replay":
            fill = self.run(mode="record")
            self.replay_cache = fill["run_dir"] / "cache"
            # Write the fill to disk now rather than during the timed runs.
            for path in self.replay_cache.iterdir():
                fd = os.open(path, os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
            self.fill_digests = fill["digests"]
            self.fill_figures = fill
        self.run(limit=1)

    def setup_walls(self, repeats: int) -> list:
        """Wall times of the workload's command limited to its first
        question, with the endpoint answering at once: start-up, imports,
        reading the inputs and building the provider stack."""
        self.endpoint.set_latency_scale(0.0)
        walls = [self.run(limit=1)["child"].wall_s for _ in range(repeats)]
        self.endpoint.set_latency_scale(1.0)
        return walls

    def timed_runs(self, seconds: float) -> list:
        runs = []
        started = time.perf_counter()
        while True:
            runs.append(self.run())
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / len(runs) > seconds:
                return runs


def end_to_end(bench: Bench, runs: list, setup: float) -> tuple[dict, dict]:
    """Metrics from untraced runs, plus the details behind them."""
    n = bench.w.questions
    # Replay sends nothing upstream: its endpoint figures describe the
    # record-mode run that filled its cache.
    endpoint_runs = [bench.fill_figures] if bench.w.mode == "replay" else runs
    latencies = [ms for r in endpoint_runs for ms in r["endpoint"]["latencies_ms"]]
    p50, p95 = percentile(latencies, 50), percentile(latencies, 95)
    if p95 is None:
        raise RuntimeError(f"{len(latencies)} latency samples are too few for p95")
    requests = [r["endpoint"]["requests"] for r in endpoint_runs]
    metrics = {
        "questions_per_s": statistics.median(n / r["child"].wall_s for r in runs),
        "question_latency_p50_ms": p50,
        "question_latency_p95_ms": p95,
        "upstream_calls_per_question": statistics.median(requests) / n,
        "cpu_ms_per_question": statistics.median(
            r["child"].cpu_s * 1e3 / n for r in runs),
        "peak_rss_mb": statistics.median(r["child"].maxrss_mb for r in runs),
        "setup_s": setup,
    }
    detail = {
        "latency_samples": len(latencies),
        "runs": len(runs),
        "repeat_share": statistics.median(
            r["endpoint"]["repeat_share"] for r in endpoint_runs),
        "wall_s": [round(r["child"].wall_s, 4) for r in runs],
        "user_s": [round(r["child"].user_s, 4) for r in runs],
        "sys_s": [round(r["child"].sys_s, 4) for r in runs],
    }
    cache_bytes = [r["cache_bytes"] for r in runs if "cache_bytes" in r]
    if bench.w.mode == "replay":
        cache_bytes = [bench.fill_figures["cache_bytes"]]
    if cache_bytes:
        detail["cache_bytes_per_question"] = statistics.median(cache_bytes) / n
    return metrics, detail


def per_layer(bench: Bench, untraced: dict, traced: dict) -> tuple[dict, dict]:
    summary = traced["trace"]
    metrics = {}
    for name, entry in summary["layers"].items():
        metrics[f"{name}.calls"] = entry["calls"]
        metrics[f"{name}.self_ms"] = entry["self_ms"]

    live = summary["live_calls"]
    calls = len(live)
    requests = traced["endpoint"]["requests"]
    gets = summary["layers"]["providers.ResponseCache.get"]["calls"]
    service: dict = {}
    for key, _, received, sent in traced["endpoint_log"]:
        service.setdefault(key, []).append(sent - received)
    overheads = [
        (duration - statistics.median(service[key])) * 1e3
        for key, duration in live if key in service
    ]
    if bench.w.mode == "replay":
        cache_bytes = dir_bytes(bench.replay_cache)
    else:
        cache_bytes = traced.get("cache_bytes", 0)
    metrics.update({
        "providers.ResponseCache.get.hit_ratio":
            summary["cache_get_hits"] / gets if gets else 0.0,
        "providers.ResponseCache.bytes_per_question": cache_bytes / bench.w.questions,
        "providers.LiveProvider.complete.p50_ms":
            statistics.median(d for _, d in live) * 1e3 if live else 0.0,
        "providers.LiveProvider.complete.mean_in_flight":
            sum(d for _, d in live) / summary["wall_s"],
        "providers.LiveProvider.complete.overhead_ms":
            statistics.median(overheads) if overheads else 0.0,
        "providers.retries_per_request": requests / calls - 1 if calls else 0.0,
        "endpoint.requests": requests,
        "trace.overhead": traced["child"].wall_s / untraced["child"].wall_s,
    })
    if bench.w.mode != "replay" and "providers.LiveProvider.complete" not in \
            summary["absent"] and calls != requests:
        raise GateFailure(f"LiveProvider.complete ran {calls} times but the "
                          f"endpoint counted {requests} requests")
    spans = traced["run_dir"] / "trace" / "spans.jsonl"
    return metrics, {"absent": summary["absent"], "spans": str(spans)}


# --------------------------------------------------------------------------
# entry point


def measure(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    # Run files are kept, never deleted: after thousands of unlinks, ext4
    # skips the freed inodes for minutes, which added up to 0.7 s of sys
    # time to each following record run.
    workdir = RUNS / f"{w.name}-{seed}-{time.strftime('%Y%m%d%H%M%S')}-{os.getpid()}"
    workdir.mkdir(parents=True)
    bench = Bench(w, seed, workdir)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    detail = {
        "workload": w.name,
        "seed": seed,
        **gen.properties(bench.questions),
        "concurrency": CONCURRENCY,
        "nproc": NPROC,
        "python": platform.python_version(),
        "commit": commit(),
        "source_sha256": source_digest(),
        "child_env": sorted(bench.env),
        "child_env_count": len(bench.env),
    }
    steal_before = cpu_ticks()
    try:
        bench.prepare()
        if trace:
            untraced = bench.run()
            traced = bench.run(traced=True)
            runs = [untraced, traced]
            metrics, extra = per_layer(bench, untraced, traced)
            units = dict(PER_LAYER)
        else:
            # Half the set-up runs before the timed runs and half after,
            # so a passing disturbance moves the median less.
            walls = bench.setup_walls(SETUP_REPEATS // 2)
            runs = bench.timed_runs(seconds)
            walls += bench.setup_walls(SETUP_REPEATS - SETUP_REPEATS // 2)
            metrics, extra = end_to_end(bench, runs, statistics.median(walls))
            units = dict(END_TO_END)
        references = [bench.fill_digests] if bench.fill_digests else []
        references += [r["digests"] for r in runs]
        for digests in references[1:]:
            same_records(references[0], digests, f"between runs of {w.name}")
        same_as_earlier(w, seed, references[0], detail["source_sha256"])
        detail.update(extra)
        detail["peak_endpoint_conns"] = bench.endpoint.take_log()["peak_conns"]
        result["metrics"] = {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        }
        detail["record_sha256"] = references[0]
        steal, total = (b - a for a, b in zip(steal_before, cpu_ticks()))
        detail["cpu_steal_share"] = steal / total if total else 0.0
    except GateFailure as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        result["correct"] = False
        detail["gate_failure"] = str(exc)
    finally:
        bench.close()
    result["attempted"] = max(1, bench.attempted)
    result["failed"] = bench.failed
    result["detail"] = detail
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into an exit that runs the cleanup code.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "abcd_eval" / "cli.py").is_file():
        print(f"error: no program under {SRC}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        detail = result.pop("detail")
        for metric, entry in result["metrics"].items():
            print(f"{name}  {metric} = {entry['value']:.6g} {entry['unit']}")
        print("detail " + json.dumps(detail, sort_keys=True))
        results[name] = (result, detail)

    final = {
        "correct": all(r["correct"] for r, _ in results.values()),
        "attempted": sum(r["attempted"] for r, _ in results.values()),
        "failed": sum(r["failed"] for r, _ in results.values()),
        "metrics": (results[names[0]][0]["metrics"] if len(names) == 1 else {
            f"{name}.{metric}": entry
            for name, (r, _) in results.items() for metric, entry in r["metrics"].items()
        }),
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
