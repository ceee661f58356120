"""Invariants of the package as a whole, read from its source."""

import ast
import inspect
import re
from pathlib import Path

import shortcut_gd


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
    tree = ast.parse(path.read_text(), filename=str(path))
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


def test_no_private_reads_across_modules_and_every_export_resolves():
    src = Path(shortcut_gd.__file__).parent
    reads = set().union(*(_private_reads(path) for path in sorted(src.glob("*.py"))))
    assert sorted(reads) == []
    exported = shortcut_gd.__all__
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(shortcut_gd, name)] == []


def _names_read(path: Path) -> set[str]:
    """Every name this module loads and every attribute name it reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def _read_in_src_or_bench() -> set[str]:
    """Every name a package module other than __init__ reads, and every word of bench/*.py."""
    src = Path(shortcut_gd.__file__).parent
    read = set().union(*(_names_read(path) for path in sorted(src.glob("*.py"))
                         if path.name != "__init__.py"))
    bench = Path(__file__).resolve().parent.parent / "bench"
    return read | set(re.findall(r"\w+", " ".join(path.read_text() for path in bench.glob("*.py"))))


def test_every_exported_function_has_a_caller():
    """Each function of __all__ is read in a package module other than __init__ or named
    in the benchmark; one that only the tests call belongs in the tests."""
    read = _read_in_src_or_bench()
    functions = [name for name in shortcut_gd.__all__
                 if inspect.isfunction(getattr(shortcut_gd, name))]
    assert [name for name in functions if name not in read] == []


def test_every_public_method_of_an_exported_class_has_a_caller():
    """Each public method, property and classmethod that a package class of an exported
    class's MRO defines is read in a package module or named in the benchmark, as
    exported functions are."""
    read = _read_in_src_or_bench()
    methods = {
        (klass.__name__, attr)
        for name in shortcut_gd.__all__ if inspect.isclass(exported := getattr(shortcut_gd, name))
        for klass in exported.__mro__ if klass.__module__.startswith("shortcut_gd.")
        for attr, value in vars(klass).items()
        if not attr.startswith("_")
        and (inspect.isfunction(value) or isinstance(value, (classmethod, staticmethod, property)))
    }
    assert sorted((klass, attr) for klass, attr in methods if attr not in read) == []


def test_the_oracle_estimator_reads_nothing_of_the_closed_forms():
    """oracle._accumulate, _frame and _finalize read no name that oracle.py takes from
    landscape, so the Monte-Carlo certificate shares no code with the closed forms; only
    fd_grad_check, which checks them by finite differences, reads them."""
    path = Path(shortcut_gd.__file__).parent / "oracle.py"
    tree = ast.parse(path.read_text(), filename=str(path))
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
    tree = ast.parse(path.read_text(), filename=str(path))
    targets = [target for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
               for target in (node.targets if isinstance(node, ast.Assign) else [node.target])]
    names = {node.id for target in targets for node in ast.walk(target)
             if isinstance(node, ast.Name)}
    return {name for name in names if not name.startswith("_")}


def test_every_public_module_constant_has_a_caller():
    """Each public constant, table or alias a package module other than __init__ assigns at
    its top level is read in a package module, or read by bench/*.py as an attribute of a
    package module (bench keeps tables of its own under the package's names, such as
    REFERENCE_RATES); data that only the tests read belongs in the tests."""
    src = Path(shortcut_gd.__file__).parent
    modules = [path for path in sorted(src.glob("*.py")) if path.name != "__init__.py"]
    bench = Path(__file__).resolve().parent.parent / "bench"
    qualified = rf"\b(?:{'|'.join(path.stem for path in modules)})\.(\w+)"
    read = set().union(*map(_names_read, modules)) | set(
        re.findall(qualified, " ".join(path.read_text() for path in bench.glob("*.py"))))
    assert sorted((path.stem, name) for path in modules
                  for name in _module_constants(path) if name not in read) == []
