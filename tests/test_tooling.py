"""The runtime imports nothing outside the standard library, every module
imports on its own, the README's library and CLI quick starts run, the
README's caps table matches the code, every CLI subcommand declares only
the options it reads and no handler builds the field or reads option text,
every layer boundary the benchmark traces exists in the library, every
certified function has a precision-contract row, every comparison of a
fast path with its oracle is a row of tests/test_oracles.py whose oracle is
defined under tests/, and the benchmark's workloads compute the pinned
outputs."""

import argparse
import ast
import fnmatch
import functools
import importlib
import importlib.util
import inspect
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

import carlitz.cli
from carlitz.cli import build_parser, main

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "carlitz"


def test_runtime_is_standard_library_only():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "carlitz" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno} {name}")
    assert outside == []


def test_no_unused_imports():
    # a name a module imports is used in its code or listed in __all__; the
    # package __init__ imports to re-export
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                used |= set(ast.literal_eval(node.value))
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_each_module_imports_alone():
    # a fresh interpreter per module, so an import cycle shows whichever
    # module is imported first
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    for path in sorted(SRC.glob("*.py")):
        name = "carlitz" if path.stem == "__init__" else f"carlitz.{path.stem}"
        proc = subprocess.run([sys.executable, "-c", f"import {name}"], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, f"{name}: {proc.stderr}"


def test_readme_cli_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Quick start \(CLI\)\n\n```sh\n(.*?)```", readme, re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("carlitz ")]
    assert commands
    for argv in commands:
        code = main(argv[1:])
        assert code == 0, f"{shlex.join(argv)}: {capsys.readouterr().err}"


def test_readme_caps_table_matches_the_code():
    # each row's value is its constant's, and every MAX_ constant of the
    # package has a row, so a cap that changes without its row fails
    readme = (ROOT / "README.md").read_text()
    section = re.search(r"## Quick start \(CLI\)\n(.*?)\n## ", readme, re.S).group(1)
    rows = re.findall(r"^\| `(\w+)\.(MAX_\w+)` \| ([^|]+?) \| [^|]+ \| ([^|]+) \|$", section, re.M)
    for module, name, value, refusal in rows:
        factor, base, exponent = re.fullmatch(r"(?:(\d+)·)?(\d+)\^(\d+)", value).groups()
        actual = getattr(importlib.import_module(f"carlitz.{module}"), name)
        assert int(factor or 1) * int(base) ** int(exponent) == actual, f"{module}.{name}"
        assert refusal == ("usage error, exit 2" if module == "cli" else "`DomainError`, exit 1")
    caps = {
        f"{path.stem}.{target.id}"
        for path in SRC.glob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.startswith("MAX_")
    }
    assert len(caps) == 14 and {f"{module}.{name}" for module, name, _, _ in rows} == caps


def _args_read(name, functions, seen):
    """The attributes of args that the cli function name reads, itself or
    through the cli functions it passes args to (build_gf reads q and
    modulus, emit and _emit_error read output)."""
    if name in seen or name not in functions:
        return set()
    seen.add(name)
    read = set()
    for node in ast.walk(functions[name]):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args":
            read.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if any(isinstance(a, ast.Name) and a.id == "args" for a in node.args):
                read |= _args_read(node.func.id, functions, seen)
    return read


def _command_parsers(parser, path=()):
    """(path, parser, its subcommands' action or None) for every parser below
    the top one."""
    sub = next((a for a in parser._actions if isinstance(a, argparse._SubParsersAction)), None)
    if path:
        yield path, parser, sub
    for name, child in (sub.choices.items() if sub else ()):
        yield from _command_parsers(child, path + (name,))


def test_every_cli_option_is_read():
    # a leaf declares only options its handler (or main, which reports its
    # errors) reads, and a parent of nested subcommands declares none: an
    # option it accepted was dropped before its leaf ran
    tree = ast.parse(inspect.getsource(carlitz.cli))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    unread = []
    for path, parser, sub in _command_parsers(build_parser()):
        declared = {a.dest for a in parser._actions if a.option_strings and a.dest != "help"}
        if sub:
            unread += [f"{' '.join(path)}: {dest}" for dest in sorted(declared)]
            continue
        handler = parser.get_default("fn").__name__
        read = _args_read(handler, functions, set()) | _args_read("main", functions, set())
        unread += [f"{' '.join(path)}: {dest}" for dest in sorted(declared - read)]
    assert len(list(_command_parsers(build_parser()))) == 35
    assert unread == []


# what builds the field or reads option text: only main and the readers
# call these
FIELD_AND_TEXT_READERS = {"build_gf", "parse_poly", "parse_series", "parse_fraction", "_parse_vertex"}


def test_no_handler_builds_the_field_or_reads_option_text():
    # main builds the field and reads each text option by its reader, so a
    # handler takes values and names none of these
    tree = ast.parse(inspect.getsource(carlitz.cli))
    handlers = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    named = [
        f"{handler.name}: {getattr(node, 'id', None) or node.attr}"
        for handler in handlers
        for node in ast.walk(handler)
        if getattr(node, "id", None) in FIELD_AND_TEXT_READERS or getattr(node, "attr", None) in FIELD_AND_TEXT_READERS
    ]
    leaves = [parser for _, parser, sub in _command_parsers(build_parser()) if not sub]
    assert len(handlers) == len(leaves) == 32
    assert named == []


def test_readme_library_quick_start_runs(capsys):
    # the block runs as written, and its comments state what it gives
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Quick start \(library\)\n\n```python\n(.*?)```", readme, re.S).group(1)
    namespace = {}
    exec(block, namespace)
    printed = capsys.readouterr().out.splitlines()
    expr, value = re.search(r"^(carlitz_operator\(M\))\s+# (.*)$", block, re.M).groups()
    assert str(eval(expr, namespace)) == value == "x^9 + (T^3+T)*x^3 + T^2*x"
    count = int(re.search(r"# all (\d+) roots", block).group(1))
    assert len(printed) == len(set(printed)) == count == 9
    assert re.search(r"# e\.g\. (.*)$", block, re.M).group(1) in printed


# a parameter that makes a function certify digits: a precision, a term or
# degree budget, or a truncated element of a completion
CERTIFIED_PARAMS = {"prec", "budget", "N"}
CERTIFIED_TYPES = {"VqElem", "InfLaurent", "PadicElem"}


def test_every_certified_function_has_a_row():
    # each public function of carlitz that takes one has a row in
    # tests/test_precision.py or a one-line reason in its exemptions, and
    # so does each that takes a budget for the budget property
    import carlitz
    from test_precision import BUDGET_EXEMPT, BUDGET_ROWS, EXEMPT, ROWS

    certified, budgeted = set(), set()
    for name, fn in vars(carlitz).items():
        if name.startswith("_") or not inspect.isfunction(fn):
            continue
        params = inspect.signature(fn).parameters
        if any(p.name in CERTIFIED_PARAMS or p.annotation in CERTIFIED_TYPES for p in params.values()):
            certified.add(name)
        if "budget" in params:
            budgeted.add(name)
    assert len(certified) >= 13 and budgeted
    for found, rows, exempt in [(certified, ROWS, EXEMPT), (budgeted, BUDGET_ROWS, BUDGET_EXEMPT)]:
        covered = {row.split("/")[0] for row in rows}
        assert sorted(found - covered - set(exempt)) == []
        # an exemption names a function the walk finds and no row covers
        assert set(exempt) <= found - covered and all(exempt.values())


# the files that keep comparisons of their own: an optional dependency with
# its own skip, the acceptance criteria, the CLI, and this one
OWN_COMPARISONS = {"test_oracles.py", "test_sympy.py", "test_acceptance.py", "test_cli.py", "test_tooling.py"}


def sources(f):
    """The files that define f and the functions it wraps: a partial's
    function and arguments, and the functions in a closure's cells."""
    if isinstance(f, functools.partial):
        return {path for g in (f.func, *f.args) if callable(g) for path in sources(g)}
    assert inspect.isfunction(f), f
    cells = [c.cell_contents for c in f.__closure__ or ()]
    inner = [c for c in cells if inspect.isfunction(c) or isinstance(c, functools.partial)]
    return {pathlib.Path(inspect.getsourcefile(f))}.union(*map(sources, inner))


def test_fast_path_comparisons_are_registry_rows():
    # a test that compares a fast path with its oracle is a row of
    # tests/test_oracles.py; each oracle is defined under tests/, apart from
    # the code it checks; and a row kept under an earlier id is bound there
    from test_oracles import ROWS

    tests = ROOT / "tests"
    named = [
        f"{path.name}::{node.name}"
        for path in sorted(tests.glob("test_*.py")) if path.name not in OWN_COMPARISONS
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.FunctionDef) and fnmatch.fnmatch(node.name, "test_*_match*")
    ]
    assert named == []
    outside = {name: sorted(str(p) for p in sources(row.oracle) if p.parent != tests) for name, row in ROWS.items()}
    assert {name: paths for name, paths in outside.items() if paths} == {}
    for name in ROWS:
        if "::" in name:
            module, test = name.split("/")[0].split("::")
            assert getattr(importlib.import_module(module), test, None) is not None, name


def test_every_benchmark_boundary_exists():
    # a boundary the library no longer defines reads 0 in every per-layer
    # row; the tracer is loaded from its file and only read
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.BOUNDARIES
    missing = []
    for name, (module, attr) in sorted(tracer.BOUNDARIES.items()):
        importlib.import_module(module)
        if tracer._resolve(module, attr)[1] is None:
            missing.append(name)
    assert missing == []


# The digest of every task output of one pass per (workload, seed): seed 1
# for every workload, and two more seeds for `infinity`, whose Eisenstein
# and Dirichlet tasks have closed forms that the seed-1 draws may not reach
# in every branch.  A speed-up must leave them as they are; a change that
# means to move one updates it here and says why.
BENCH_DIGESTS = {
    ("quotient", 1): "64c7a623bc0df2538de1bb34cceaa43b142919b4fd98b6fe0f2ac4a053763d43",
    ("infinity", 1): "7bf907afd627bc7a50d33a0b885f758e5c10b4b6267b73a5b43590e823a04f00",
    ("infinity", 7): "3ec46d03271508defa9c0238df13ad18cd1a05a554d1ba265b42a2a7ef45b159",
    ("infinity", 101): "eb4e447314d215bded22c297aee69e1fda614c2c094472aa96affac30a23ca29",
    ("symbols", 1): "158a1f488b56a1361f8dce1ef3318bcac0dcff19fb4c5d82dd98e4a24665b7d4",
    ("geometry", 1): "2e06b0bea5cabae9cbe18d0a46939f9e4ef5854f44f54d84feab6d180214ac15",
}


@pytest.mark.parametrize(
    "workload, seed",
    [pytest.param(w, s, id=w if s == 1 else f"{w}-{s}") for w, s in sorted(BENCH_DIGESTS)],
)
def test_benchmark_outputs_are_pinned(workload, seed):
    worker = ROOT / "bench" / "worker.py"
    argv = [sys.executable, str(worker), "timing", workload, str(seed)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    digest = json.loads(proc.stdout.splitlines()[-1])["digest"]
    assert digest == BENCH_DIGESTS[workload, seed]
