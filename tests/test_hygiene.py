"""Source hygiene: no module imports a name it never uses, the package
needs nothing beyond the standard library, only the transport imports
``socket`` or ``ssl``, only the model decides whether a value is a string,
only ``records`` reads JSONL lines, no handler re-raises an error as another
type with the same text, only ``records`` writes files, a handler of
``BaseException`` re-raises and only ``cli.main`` catches
``KeyboardInterrupt``, the request queue synchronizes only as its schedule
explorer models, every HTTP framing error has a pinned example, no test
passes ``LiveProvider`` a ``session=``, no test module but
``tests/test_pipeline.py`` builds an ``Upstream``, no test module but
``tests/test_texts.py``, the refusals and the acceptance tests calls a
prompt builder or a reply parser, no test starts a server
but ``tests/loopback.py``'s, and each command, a live run at one
and two threads too, loads only what it runs (never ``requests``,
``http.client``, ``email``, ``ssl`` or ``urllib.request``) and leaves no
socket unclosed.

A stdlib AST scan stands in for a linter. Package ``__init__.py`` files are
skipped by the unused-import scan (their imports are re-exports), and so is
an import on a line marked ``# noqa``.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from abcd_eval.cli import main
from abcd_eval.providers import API_KEY_ENV_VAR, load_script_rules
from e2e_fixture import write_fixture
from loopback import LoopbackServer, Script
from test_http_reader import PINNED
from test_queue_schedules import Schedule

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "abcd_eval").rglob("*.py"))
SOURCES = sorted(
    path
    for directory in ("src", "tests", "demos")
    for path in (ROOT / directory).rglob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(path: Path) -> list[str]:
    """``line: name`` for each imported name the module never mentions."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{lineno}: {name}"
        for name, lineno in sorted(imported.items(), key=lambda item: item[1])
        if name not in used
    ]


@pytest.mark.parametrize(
    "path", SOURCES, ids=[str(path.relative_to(ROOT)) for path in SOURCES]
)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def absolute_imports(path: Path) -> list[tuple[int, str]]:
    """(line, top-level module) for each absolute import."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [(node.lineno, module.split(".")[0]) for module in modules]
    return found


@pytest.mark.parametrize(
    "path", PACKAGE, ids=[str(path.relative_to(ROOT)) for path in PACKAGE]
)
def test_package_imports_only_the_standard_library(path):
    allowed = sys.stdlib_module_names | {"abcd_eval"}
    assert [f"{line}: {module}" for line, module in absolute_imports(path)
            if module not in allowed] == []


def test_only_the_transport_imports_socket_or_ssl():
    """``LiveProvider`` imports ``abcd_eval.transport`` only when it builds
    its own session, so no other command loads a socket module."""
    found = {
        str(path.relative_to(ROOT)): lines
        for path in PACKAGE
        if path.name != "transport.py"
        and (lines := [line for line, module in absolute_imports(path)
                       if module in ("socket", "ssl")])
    }
    assert found == {}


def string_checks(source: str) -> list[int]:
    """Lines of each ``isinstance(x, str)`` or ``isinstance(x, (..., str))``."""
    found = []
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            kinds = node.args[1]
            names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            if any(isinstance(name, ast.Name) and name.id == "str" for name in names):
                found.append(node.lineno)
    return found


def test_string_checks_live_only_in_the_model():
    """Field types are checked by ``model.check_type``, so every reader
    inherits the same checks; no other module tests for ``str`` itself."""
    assert string_checks("isinstance(a, str)\nisinstance(b, (int, str))") == [1, 2]
    found = {
        str(path.relative_to(ROOT)): lines
        for path in PACKAGE
        if path.name != "model.py"
        and (lines := string_checks(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def json_loads_calls(source: str) -> list[int]:
    """Lines of each ``json.loads(...)`` call."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "loads" and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "json"
    ]


def test_json_is_parsed_only_by_records_and_providers():
    """Every JSONL input goes through ``records.scan_jsonl``; ``providers``
    parses its cache entries and live response bodies, which are single
    JSON documents."""
    assert json_loads_calls("json.loads(a)\nx = 1\nf(json.loads(b))") == [1, 3]
    found = {
        str(path.relative_to(ROOT)): lines
        for path in PACKAGE
        if path.name not in ("records.py", "providers.py")
        and (lines := json_loads_calls(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def rewraps(source: str) -> list[int]:
    """Lines of each ``raise X(str(exc))`` in an ``except ... as exc``
    handler: a re-raise that changes only the error's type."""
    found = []
    for handler in ast.walk(ast.parse(source)):
        if not isinstance(handler, ast.ExceptHandler) or handler.name is None:
            continue
        text = ast.dump(ast.parse(f"str({handler.name})", mode="eval").body)
        found += [
            node.lineno
            for node in ast.walk(handler)
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and not node.exc.keywords
            and [ast.dump(arg) for arg in node.exc.args] == [text]
        ]
    return found


def test_input_errors_reach_the_cli_unwrapped():
    """``cli.main`` reports every ``ValueError``, ``OSError`` and
    ``ProviderError``, so no handler re-raises one as another type with the
    same text; a wrap that adds a kind, ``ProviderError(kind, str(exc))``,
    is not a re-raise of the text alone."""
    assert rewraps(
        "try:\n    f()\nexcept ValueError as exc:\n    raise E(str(exc)) from exc\n"
        "try:\n    f()\nexcept OSError as exc:\n    raise P(KIND, str(exc))\n"
    ) == [4]
    found = {
        str(path.relative_to(ROOT)): lines
        for path in PACKAGE
        if (lines := rewraps(path.read_text(encoding="utf-8")))
    }
    assert found == {}
    defined = [
        str(path.relative_to(ROOT))
        for path in PACKAGE
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef) and node.name == "ConfigError"
    ]
    assert defined == []


def file_writes(source: str) -> list[int]:
    """Lines that write a file or import ``tempfile``: ``open`` with a
    ``w``/``a``/``x``/``+`` mode (or one not spelled out), ``os.open``,
    ``os.write``, ``os.replace``, ``os.rename``, ``.write_text`` and
    ``.write_bytes``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [alias.name for alias in node.names] \
                if isinstance(node, ast.Import) else [node.module or ""]
            if "tempfile" in (module.split(".")[0] for module in modules):
                found.append(node.lineno)
            continue
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
                and func.value.id == "os":
            if func.attr in ("open", "write", "replace", "rename"):
                found.append(node.lineno)
        elif isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
            found.append(node.lineno)
        elif (isinstance(func, ast.Name) and func.id == "open") or (
                isinstance(func, ast.Attribute) and func.attr == "open"):
            # open(file, mode) or Path.open(mode)
            at = 1 if isinstance(func, ast.Name) else 0
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
            mode = node.args[at] if len(node.args) > at else (modes or [None])[0]
            if mode is not None and not (isinstance(mode, ast.Constant)
                                         and isinstance(mode.value, str)
                                         and not set(mode.value) & set("wax+")):
                found.append(node.lineno)
    return sorted(found)


def test_only_records_writes_files():
    """``records`` makes every file the program writes, so each follows
    the umask; no other module opens a file for writing."""
    assert file_writes(
        "open(p, 'w')\nopen(p)\nopen(p, 'rb')\nopen(p, mode='ab+')\n"
        "os.replace(a, b)\nPath(p).write_text(t)\nPath(p).open('x')\n"
        "import tempfile\nfrom tempfile import mkstemp\nopen(p, m)\nos.path.join(a)\n"
    ) == [1, 4, 5, 6, 7, 8, 9, 10]
    found = {
        str(path.relative_to(ROOT)): lines
        for path in PACKAGE
        if path.name != "records.py"
        and (lines := file_writes(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def handlers(source: str) -> list[tuple[int, str, set, bool]]:
    """(line, enclosing function, names caught, ends in a bare ``raise``)
    for each ``except`` clause; a bare ``except`` catches ``BaseException``."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        owner = parents[node]
        while not isinstance(owner, (ast.FunctionDef, ast.Module)):
            owner = parents[owner]
        kinds = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        caught = {"BaseException" if kind is None else ast.unparse(kind)
                  for kind in kinds}
        last = node.body[-1]
        reraises = isinstance(last, ast.Raise) and last.exc is None
        found.append((node.lineno, getattr(owner, "name", None), caught, reraises))
    return sorted(found, key=lambda handler: handler[0])


def test_only_cli_main_outlives_an_interrupt():
    """A handler of ``BaseException`` (or a bare ``except``) ends in a bare
    ``raise``, and only ``cli.main`` catches ``KeyboardInterrupt``, so a
    Ctrl-C always reaches the one place that exits 130."""
    assert handlers(
        "def f():\n    try:\n        g()\n    except BaseException:\n        raise\n"
        "    try:\n        g()\n    except:\n        pass\n"
        "try:\n    g()\nexcept (ValueError, KeyboardInterrupt):\n    pass\n"
    ) == [(4, "f", {"BaseException"}, True), (8, "f", {"BaseException"}, False),
          (12, None, {"ValueError", "KeyboardInterrupt"}, False)]
    swallowed, interrupts = {}, {}
    for path in PACKAGE:
        name = str(path.relative_to(ROOT))
        for line, owner, caught, reraises in handlers(path.read_text(encoding="utf-8")):
            if "BaseException" in caught and not reraises:
                swallowed.setdefault(name, []).append(line)
            if "KeyboardInterrupt" in caught:
                interrupts.setdefault(name, []).append(owner)
    assert swallowed == {}
    assert interrupts == {"src/abcd_eval/cli.py": ["main"]}


def test_the_request_queue_synchronizes_only_as_its_explorer_models():
    """``tests/test_queue_schedules.py`` runs ``RequestQueue`` with its
    ``_cond`` swapped for a ``Schedule``, so the queue may lock, wait or
    wake through nothing else, such as a ``threading.Event`` or a sleep, and
    may call on ``self._cond`` only what a ``Schedule`` implements, with no
    arguments: no ``wait(timeout)``, ``wait_for`` or ``notify``."""
    source = (ROOT / "src" / "abcd_eval" / "pipeline.py").read_text(encoding="utf-8")
    queue = next(node for node in ast.parse(source).body
                 if getattr(node, "name", None) == "RequestQueue")
    found = {ast.unparse(node) for node in ast.walk(queue) if isinstance(node, ast.ImportFrom)
             or isinstance(node, ast.Call)
             and ast.unparse(node.func).startswith(("threading.", "time.", "self._cond."))}
    assert found - {f"self._cond.{name}()" for name in vars(Schedule)} == {
        "threading.Condition()", "from concurrent.futures import ThreadPoolExecutor"}


def test_every_framing_error_has_a_pinned_example():
    """Every message ``transport.py`` gives a ``_FramingError`` is expected by
    an example in ``PINNED`` (``tests/test_http_reader.py``), so a new framing
    check cannot land without a case there."""
    source = (ROOT / "src" / "abcd_eval" / "transport.py").read_text(encoding="utf-8")
    messages = [node.args[0] for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Call) and ast.unparse(node.func) == "_FramingError"]
    # An f-string's fields match any text.
    patterns = ["".join(re.escape(part.value) if isinstance(part, ast.Constant) else ".+"
                        for part in getattr(message, "values", [message])) for message in messages]
    pinned = [draw.defect for draw in PINNED.values() if draw.defect]
    assert messages
    assert [pattern for pattern in patterns
            if not any(re.fullmatch(pattern, defect) for defect in pinned)] == []


def session_keywords(source: str) -> list[int]:
    """Lines of each call that passes a ``session=`` keyword."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and any(keyword.arg == "session" for keyword in node.keywords)]


def test_no_test_passes_a_session():
    """``LiveProvider``'s ``session=`` stays only for the benchmark's own
    ``requests.Session`` test: these tests reach the reply mapping through
    ``providers._reply`` and the transport over a loopback socket."""
    assert session_keywords("f(session=s)\nf(s)\nf(x, session=None)") == [1, 3]
    found = {
        str(path.relative_to(ROOT)): lines
        for path in sorted((ROOT / "tests").rglob("*.py"))
        if (lines := session_keywords(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def calls_of(names, source: str) -> list[int]:
    """Lines of each call of a function or class named in *names*."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) in names]


def modules_calling(names, allowed) -> dict:
    """Each test module but those *allowed* that calls one of *names*, with
    the lines of its calls."""
    return {str(path.relative_to(ROOT)): lines for path in sorted((ROOT / "tests").rglob("*.py"))
            if path.name not in allowed
            and (lines := calls_of(names, path.read_text(encoding="utf-8")))}


UPSTREAMS = ("Upstream", "CachingProvider", "ReplayProvider")
TEXT_STEPS = ("build_decomposition_prompt", "build_answer_prompt", "build_baseline_prompt",
              "parse_decomposition", "parse_answers", "parse_verdict", "clean_answer")


def test_only_the_run_table_builds_an_upstream():
    """A cache, reuse, count or truncation case of a run's requests is a row
    of ``RUNS`` in ``tests/test_pipeline.py``: no other test module
    constructs an ``Upstream`` or one of its subclasses."""
    assert calls_of(UPSTREAMS, "Upstream(b)\nproviders.ReplayProvider(c)\nUpstream\n"
                               "CachingProvider(b, c)\nbuild_upstream(config)") == [1, 2, 4]
    assert modules_calling(UPSTREAMS, {"test_pipeline.py"}) == {}


def test_only_the_text_table_builds_prompts_and_parses_replies():
    """A new prompt, or a new case of a reply parser, is a row of ``TEXTS``
    in ``tests/test_texts.py``: no other test module but the refusals and
    the acceptance tests calls a prompt builder or a reply parser."""
    assert calls_of(TEXT_STEPS, "parse_verdict(r, c)\nanswers.clean_answer(v)\nparse_answers\n"
                                "build_baseline_prompt(q, a)\ndecompose(q, p, s)") == [1, 2, 4]
    assert modules_calling(
        TEXT_STEPS, {"test_texts.py", "test_refusals.py", "test_acceptance.py"}) == {}


def server_code(source: str) -> tuple[list[int], list[int]]:
    """Lines of each import of ``http.server`` or ``socketserver``, and of
    each ``create_server(...)`` or ``listen(...)`` call."""
    imports, calls = [], []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "attr", getattr(func, "id", None)) in ("create_server", "listen"):
                calls.append(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            prefix = f"{node.module}." if isinstance(node, ast.ImportFrom) else ""
            if any(f"{prefix}{alias.name}.".startswith(("http.server.", "socketserver."))
                   for alias in node.names):
                imports.append(node.lineno)
    return imports, calls


def test_loopback_server_is_the_only_server_the_tests_start():
    """A fake chat-completions server lives only in ``tests/loopback.py``: no
    test module imports ``http.server`` or ``socketserver``, and no other
    calls ``create_server`` or ``listen``."""
    assert server_code("import socketserver\nfrom http import server\nfrom http import client"
                       "\ns.listen(1)\ncreate_server(a)\nlisten") == ([1, 2], [4, 5])
    found = {}
    for path in sorted((ROOT / "tests").rglob("*.py")):
        imports, calls = server_code(path.read_text(encoding="utf-8"))
        if lines := imports + (calls if path.name != "loopback.py" else []):
            found[str(path.relative_to(ROOT))] = lines
    assert found == {}


def child_env() -> dict:
    """This environment without proxy variables, with the checkout's source
    on the path."""
    env = {k: v for k, v in os.environ.items() if not k.lower().endswith("_proxy")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    return env


# Imports a module and runs the CLI on the remaining arguments, if any, then
# names the modules loaded that only a live or a concurrent run needs, and
# those that no run needs.
LOADED_BY = """
import importlib, sys
importlib.import_module(sys.argv[1])
if sys.argv[2:]:
    assert sys.modules["abcd_eval.cli"].main(sys.argv[2:]) == 0
print(*sorted({"socket", "abcd_eval.transport", "concurrent.futures", "_hashlib", "requests",
               "http.client", "email", "ssl", "urllib.request"} & set(sys.modules)))
"""


@pytest.fixture(scope="module")
def recorded_run(tmp_path_factory):
    """The fixture's files, and the output and cache of a scripted
    ``evaluate --ground-truth`` over them."""
    root = tmp_path_factory.mktemp("recorded")
    paths = write_fixture(root / "fixture")
    assert main(
        ["evaluate", "--questions", str(paths["questions"]),
         "--labels", str(paths["labels"]), "--ground-truth", "--script", str(paths["rules"]),
         "--cache-dir", str(root / "cache"), "--out-dir", str(root / "run")]
    ) == 0
    return paths, root


LIVE = ["abcd_eval.cli", "evaluate", "--questions", "{questions}", "--labels", "{labels}",
        "--ground-truth", "--provider", "live", "--base-url", "{url}", "--out-dir", "{out}"]


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["abcd_eval"], []),
        (["abcd_eval.cli"], []),
        (["abcd_eval.cli", "report", "--records", "{run}/evaluations.jsonl",
          "--out-json", "{out}/report.json"], []),
        (["abcd_eval.cli", "score", "--questions", "{questions}",
          "--claims", "{run}/claim_sets.jsonl",
          "--assignments", "{run}/assignments.jsonl",
          "--verifications", "{run}/verifications.jsonl",
          "--out", "{out}/scored.jsonl"], []),
        (["abcd_eval.cli", "annotate", "--records", "{run}/evaluations.jsonl",
          "--labels", "{out}/labels.jsonl"], []),
        (["abcd_eval.cli", "evaluate", "--questions", "{questions}",
          "--provider", "replay", "--cache-dir", "{cache}", "--out-dir", "{out}"],
         ["_hashlib"]),
        (["abcd_eval.cli", "evaluate", "--questions", "{questions}",
          "--provider", "replay", "--cache-dir", "{cache}", "--out-dir", "{out}",
          "--concurrency", "8"], ["_hashlib"]),
        (LIVE, ["abcd_eval.transport", "socket"]),
        ([*LIVE, "--concurrency", "2"], ["abcd_eval.transport", "concurrent.futures", "socket"]),
        (["abcd_eval.cli", "verify", "--questions", "{questions}",
          "--claims", "{run}/claim_sets.jsonl",
          "--assignments", "{run}/assignments.jsonl",
          "--provider", "replay", "--cache-dir", "{cache}", "--concurrency", "8",
          "--out", "{out}/verifications.jsonl"], ["_hashlib"]),
    ],
    ids=["import-abcd_eval", "import-cli", "report", "score", "annotate", "evaluate-replay",
         "evaluate-replay-8", "evaluate-live", "evaluate-live-2", "verify-replay-8"],
)
def test_each_command_loads_only_what_it_runs(recorded_run, tmp_path, argv, loaded):
    """Each command, with every unclosed socket made an error, warns of none
    and loads only the watched modules it needs; a live run also writes what
    the scripted run wrote."""
    paths, root = recorded_run
    server = LoopbackServer(Script(load_script_rules(paths["rules"]))) if "{url}" in argv else None
    values = {
        "questions": paths["questions"], "labels": paths["labels"], "run": root / "run",
        "cache": root / "cache", "out": tmp_path,
        "url": server and f"http://127.0.0.1:{server.port}/v1",
    }
    try:
        completed = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", LOADED_BY,
             *(arg.format(**values) for arg in argv)],
            capture_output=True, text=True, timeout=60, stdin=subprocess.DEVNULL,
            env={**child_env(), API_KEY_ENV_VAR: "k"},
        )
    finally:
        if server:
            server.close()
    assert completed.returncode == 0, completed.stderr
    assert "ResourceWarning" not in completed.stderr
    assert completed.stdout.splitlines()[-1].split() == loaded
    if server:
        for name in ("evaluations.jsonl", "gt_verifications.jsonl"):
            assert (tmp_path / name).read_bytes() == (root / "run" / name).read_bytes(), name
