"""Invariants of the package as a whole, read from its source."""

import ast
import os
import re
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

import shortcut_gd

SRC = Path(shortcut_gd.__file__).parent
MODULES = sorted(SRC.glob("*.py"))
ROOT = SRC.parent.parent


@cache
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _package_module(node: ast.ImportFrom) -> str | None:
    """The package module a from-import reads ("" for the package itself), else None."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == "shortcut_gd":
        return node.module.partition(".")[2]
    return None


def _private_reads(path: Path) -> set[tuple[str, str, str]]:
    """(this module, owning module, name) for each private name this module imports
    from, or reads as an attribute of, another module of the package."""
    tree = _tree(path)
    modules = {}  # local name -> the package module bound to it
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (owner := _package_module(node)) is not None:
            for alias in node.names:
                if not owner:  # from . import module
                    modules[alias.asname or alias.name] = alias.name
                elif _is_private(alias.name):
                    reads.add((path.stem, owner, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("shortcut_gd.") and alias.asname:
                    modules[alias.asname] = alias.name.partition(".")[2]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _is_private(node.attr)):
            reads.add((path.stem, modules[node.value.id], node.attr))
    return {read for read in reads if read[1] != path.stem}


def test_no_module_reads_another_modules_private_name():
    reads = set().union(*map(_private_reads, MODULES))
    assert sorted(reads) == []


def test_the_package_root_imports_nothing():
    """__init__ holds its docstring and __version__: each name is imported from the module
    that defines it, so the root restates none."""
    assert [node.lineno for node in ast.walk(_tree(SRC / "__init__.py"))
            if isinstance(node, (ast.Import, ast.ImportFrom))] == []


def test_what_is_imported_from_the_package_root_is_a_module():
    """`from shortcut_gd import name` (`from . import name` in src) names a module, in src,
    tests, bench, scripts and README alike."""
    paths = [*MODULES, *(path for folder in ("tests", "bench", "scripts")
                         for path in sorted((ROOT / folder).glob("*.py")))]
    imported = {(path.name, alias.name) for path in paths for node in ast.walk(_tree(path))
                if isinstance(node, ast.ImportFrom) and _package_module(node) == ""
                for alias in node.names}
    imported |= {("README.md", name.strip())
                 for names in re.findall(r"from shortcut_gd import ([\w, ]+)",
                                         (ROOT / "README.md").read_text())
                 for name in names.split(",")}
    modules = {path.stem for path in MODULES}
    assert imported  # the tests import modules this way
    assert sorted(read for read in imported if read[1] not in modules) == []


@pytest.mark.parametrize("argv", [
    *(["-c", f"import shortcut_gd.{path.stem}"] for path in MODULES if path.stem != "__init__"),
    ["-m", "shortcut_gd.cli", "show-teacher", "--k", "16"],
], ids=' '.join)
def test_each_module_imports_alone_in_a_fresh_interpreter(argv):
    """No import order hides a cycle: each module imports first in its own interpreter, and
    the CLI runs as a module."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr


def _names_read(path: Path) -> set[str]:
    """Every name this module loads and every attribute name it reads."""
    tree = _tree(path)
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def _bench_text() -> str:
    return " ".join(path.read_text() for path in sorted((ROOT / "bench").glob("*.py")))


def _read_in_src_or_bench() -> set[str]:
    """Every name a package module reads, and every word of bench/*.py."""
    return set().union(*map(_names_read, MODULES)) | set(re.findall(r"\w+", _bench_text()))


def _public(nodes: list[ast.stmt], kinds: tuple[type, ...]) -> list:
    return [node for node in nodes if isinstance(node, kinds) and not node.name.startswith("_")]


def test_every_public_function_and_class_has_a_caller():
    """Each public function and class a package module defines is read in a package module
    or named in the benchmark; one that only the tests read belongs in the tests."""
    read = _read_in_src_or_bench()
    defined = [(path.stem, node.name) for path in MODULES
               for node in _public(_tree(path).body, (ast.FunctionDef, ast.ClassDef))]
    assert len(defined) > 70
    assert [definition for definition in defined if definition[1] not in read] == []


def test_every_public_method_of_a_public_class_has_a_caller():
    """Each public method, property, classmethod and staticmethod that a public class of a
    package module defines is read in a package module or named in the benchmark, as public
    functions are."""
    read = _read_in_src_or_bench()
    methods = [(klass.name, node.name) for path in MODULES
               for klass in _public(_tree(path).body, (ast.ClassDef,))
               for node in _public(klass.body, (ast.FunctionDef,))]
    assert methods
    assert [method for method in methods if method[1] not in read] == []


def test_the_oracle_estimator_reads_nothing_of_the_closed_forms():
    """oracle._accumulate, _frame and _finalize read no name that oracle.py takes from
    landscape, so the Monte-Carlo certificate shares no code with the closed forms; only
    fd_grad_check, which checks them by finite differences, reads them."""
    tree = _tree(SRC / "oracle.py")
    closed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (owner := _package_module(node)) is not None:
            for alias in node.names:
                if "landscape" in (owner, alias.name):
                    closed.add(alias.asname or alias.name)
    assert closed  # fd_grad_check's closed forms
    bodies = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("_accumulate", "_frame", "_finalize"):
        read = {node.id for node in ast.walk(bodies[name]) if isinstance(node, ast.Name)}
        assert not read & closed, (name, sorted(read & closed))


def _module_constants(path: Path) -> set[str]:
    """The public, non-dunder names this module assigns at its top level."""
    targets = [target for node in _tree(path).body if isinstance(node, (ast.Assign, ast.AnnAssign))
               for target in (node.targets if isinstance(node, ast.Assign) else [node.target])]
    names = {node.id for target in targets for node in ast.walk(target)
             if isinstance(node, ast.Name)}
    return {name for name in names if not name.startswith("_")}


def test_every_public_module_constant_has_a_caller():
    """Each public constant, table or alias a package module assigns at its top level is
    read in a package module, or read by bench/*.py as an attribute of a package module
    (bench keeps tables of its own under the package's names, such as REFERENCE_RATES);
    data that only the tests read belongs in the tests."""
    qualified = rf"\b(?:{'|'.join(path.stem for path in MODULES)})\.(\w+)"
    read = set().union(*map(_names_read, MODULES)) | set(re.findall(qualified, _bench_text()))
    assert sorted((path.stem, name) for path in MODULES
                  for name in _module_constants(path) if name not in read) == []
