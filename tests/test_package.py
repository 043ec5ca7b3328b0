"""Whole-package checks: source hygiene and the worked-example artifacts."""

import ast
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# SHA-256 of every artifact of scripts/run_worked_examples.py, recorded before
# the linear-algebra kernel was rewritten; the outputs must stay byte-identical.
WORKED_EXAMPLE_DIGESTS = {
    "z5.json": "7721015c90d87351fdca3582f2365feb415d380f4ab1e32eb3d6d2bf8961a4ca",
    "z5.svg": "ecd500772cd9bacdc5e309106b240f91615fd402ab63898837847d75d34e7352",
    "z5_report.json": "37405709005f4622a61b1951dd00db0975727d190d03d53f2ba94d274585dc8a",
    "z6.json": "115c039e4ecffe0bcc9680952f6cad4c8c02291e09a65bc418e983dc2192f322",
    "z6.svg": "bb812ba34995f699b5c4b1b5501886d675a1d6bb980eef41136ee9cc78cfecbc",
    "z6_alt.json": "fad84e9aff1418752252de45f67a9ff65b435e6ce0ab63f23b37b42df47c74f5",
    "z6_alt.svg": "f2db049e9955141100b95a4b408a4b11a06f460e6ae4e7046265d264e86be342",
    "z6_alt_report.json": "d8b4254fb3aacfb3e3d94cd0ad087eab4b2ba5f86116ebeb7b9ab91ca766f971",
    "z6_nonstar.json": "3dfd0a5d4cf85b4a5c845c711729792c90a0008d16f0cabe8b3c8cd1a2a84da9",
    "z6_nonstar.svg": "5f1cdbbc6a980118334ecd3565904c9121a86ccb5a1385bc884110b2b0ba92d9",
    "z6_nonstar_report.json": "066477b87d71eec15e39c5b76bb8bbc4141c4807221fe06031cae690591736b1",
    "z6_report.json": "b2fe4fcfc184a86cad361cb2a3d6438196cbf3a71ee71c855a2659d2769cbac8",
    "z7_hilbert.json": "656764e350d1ef11ce736303ee49083f885c338307e139054cb3a98a9fc70f02",
    "z7_hilbert_report.json": "b2d83a60886e089503f07070376685e3b8be1c50fb368c1377698cdddf116446",
}


def test_no_assert_statements_in_package():
    # python -O strips asserts, so correctness checks must raise explicitly
    found = []
    for path in sorted((SRC / "torcrep").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_public_names_are_used_by_the_package_or_scripts():
    # a name only tests use belongs in tests/oracles.py, not in the API:
    # every name in __all__ and every public module-level function or class
    # of the package must be read in src/ or scripts/, and every public
    # method must be read there outside its own class's body
    import torcrep

    package = {p: ast.parse(p.read_text(), filename=str(p))
               for p in sorted((SRC / "torcrep").glob("*.py"))}
    readers = [tree for p, tree in package.items() if p.name != "__init__.py"]
    readers += [ast.parse(p.read_text(), filename=str(p))
                for p in sorted((ROOT / "scripts").glob("*.py"))]

    def names_read(outside=None):
        used = set()
        stack = list(readers)
        while stack:
            node = stack.pop()
            if node is outside:
                continue
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
            stack.extend(ast.iter_child_nodes(node))
        return used

    used = names_read()
    unused = [name for name in torcrep.__all__ if name not in used]
    defs = (ast.FunctionDef, ast.ClassDef)
    for tree in package.values():
        for node in tree.body:
            if not isinstance(node, defs) or node.name.startswith("_"):
                continue
            if node.name not in used:
                unused.append(node.name)
            if isinstance(node, ast.ClassDef):
                outside = names_read(outside=node)
                unused += [f"{node.name}.{m.name}" for m in node.body
                           if isinstance(m, defs) and not m.name.startswith("_")
                           and m.name not in outside]
    assert unused == []


def test_benchmark_per_layer_metrics_name_traced_functions():
    # perfbench's tracer wraps each public, non-generator, module-level
    # function of a layer module, and IntMatrix.det; a per-layer metric that
    # names anything else reads 0 on every run.  These five are known dead
    # and stay listed until the benchmark changes; no new one may join them
    import importlib
    import inspect
    import json

    from torcrep.intlinalg import IntMatrix

    def traced(name):
        if name == "intlinalg.det":
            return inspect.isfunction(IntMatrix.__dict__.get("det"))
        layer, attr = name.split(".")
        mod = importlib.import_module(f"torcrep.{layer}")
        fn = vars(mod).get(attr)
        return (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                and not attr.startswith("_") and not inspect.isgeneratorfunction(fn))

    names = set()
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        name = metric["name"]
        if (name.split(".")[0] in ("cli", "trace") or name.endswith(".self_s")
                or name == "resolve.accept_ratio"):
            continue
        function, _, kind = name.rpartition(".")
        assert kind in ("calls", "s"), name
        names.add(function)
    assert "intlinalg.det" in names and "lattice.quotient_by_ray" in names
    assert sorted(name for name in names if not traced(name)) == [
        "fans.refines", "fans.star_subdivision", "hilbert.is_irreducible",
        "intlinalg.smith_normal_form", "intlinalg.solve_rational"]


def _attributes_read() -> set[str]:
    """Every attribute name that src/ (bar __init__.py) or scripts/ reads."""
    read = set()
    files = [p for p in (SRC / "torcrep").glob("*.py") if p.name != "__init__.py"]
    for path in files + sorted((ROOT / "scripts").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def _record_fields() -> list[str]:
    """``Class.field`` for the annotations of each ``Record`` and each class's ``__slots__``."""
    fields = []
    for path in sorted((SRC / "torcrep").glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, ast.ClassDef):
                continue
            if any(ast.unparse(b) == "Record" for b in node.bases):
                fields += [f"{node.name}.{f.target.id}" for f in node.body
                           if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
            for f in node.body:
                if isinstance(f, ast.Assign) and ast.unparse(f.targets[0]) == "__slots__":
                    fields += [f"{node.name}.{name}" for name in ast.literal_eval(f.value)
                               if not name.startswith("__")]
    return fields


def test_record_fields_are_read_by_the_package_or_scripts():
    # a field that only tests read is state the API carries for no caller
    read = _attributes_read()
    fields = _record_fields()
    # the walk sees the hand-written slots and the annotated fields of a Record
    assert {"LatticePoint.coords", "Cone.rays", "StarFan.lifts"} <= set(fields)
    assert [name for name in fields if name.split(".")[-1] not in read] == []


def test_cli_import_skips_dataclasses_fractions_copy_and_pathlib():
    # dataclasses pulls in inspect, ast and dis, fractions pulls in decimal,
    # pathlib pulls in urllib.parse and fnmatch, and every command pays for
    # the imports of its process; -S leaves out site
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    probe = ("import sys, torcrep.cli; print(sorted(m for m in ('dataclasses', "
             "'inspect', 'fractions', 'decimal', 'copy', 'pathlib') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", probe], check=True,
                         capture_output=True, text=True, env=env, timeout=60)
    assert out.stdout.strip() == "[]"


def test_exception_attributes_are_read_by_the_package_or_scripts():
    # an attribute an error stores but no caller reads belongs in its message
    read = _attributes_read()
    stored = []
    path = SRC / "torcrep" / "errors.py"
    for cls in ast.parse(path.read_text(), filename=str(path)).body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for init in cls.body:
            if isinstance(init, ast.FunctionDef) and init.name == "__init__":
                stored += [f"{cls.name}.{t.attr}" for t in ast.walk(init)
                           if isinstance(t, ast.Attribute) and isinstance(t.ctx, ast.Store)]
    assert "ResolutionNotFound.exhausted" in stored  # the walk sees stores
    assert [name for name in stored if name.split(".")[-1] not in read] == []


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_worked_example_artifacts_are_byte_identical(tmp_path, flags):
    # python -O drops asserts and __debug__ blocks, and must change no byte
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    subprocess.run(
        [sys.executable, *flags, str(ROOT / "scripts" / "run_worked_examples.py"),
         "--out", str(tmp_path)],
        check=True, capture_output=True, env=env, timeout=300,
    )
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.iterdir())
    }
    assert digests == WORKED_EXAMPLE_DIGESTS
