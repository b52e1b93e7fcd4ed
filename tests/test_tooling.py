"""The runtime imports nothing outside the standard library, every module
imports on its own, the README's library and CLI quick starts run, and every
layer boundary the benchmark traces exists in the library."""

import ast
import importlib
import importlib.util
import os
import pathlib
import re
import shlex
import subprocess
import sys

from carlitz.cli import main

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
