"""Names that point into the code from outside it, each of which must exist:
the benchmark's per-layer tracer finds the functions it wraps by module
attribute name (perfbench/spans.py), so a renamed package function would
drop out of its metrics without an error; and the README and the package
docstring name modules and documents that a deletion can leave behind."""
from __future__ import annotations

import ast
import importlib
import inspect
import re
from pathlib import Path

import bimodfusion
from bimodfusion import engine as E
from bimodfusion import mtc

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_traced_targets_are_package_functions(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    targets = layers.LayerStats(E).targets()
    assert targets
    for module, name, _ in targets:
        mod = importlib.import_module(f"{layers.PACKAGE}.{module}")
        fn = getattr(mod, name, None)
        assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, f"{module}.{name}"


def test_readme_layout_lists_the_package_modules():
    """The Layout block names each module of src/bimodfusion/ (not the
    dunder files) and no other."""
    block = README.split("## Layout", 1)[1].split("```")[1]
    listed = set(re.findall(r"\b\w+\.py\b", block))
    modules = {p.name for p in (ROOT / "src" / "bimodfusion").glob("*.py")
               if not p.name.startswith("_")}
    assert listed == modules


def test_readme_doc_links_exist():
    links = re.findall(r"\]\((docs/[^)#\s]+\.md)", README)
    assert links
    for link in links:
        assert (ROOT / link).is_file(), link


def test_package_docstring_modules_import():
    names = re.findall(r":mod:`([\w.]+)`", bimodfusion.__doc__)
    assert names
    for name in names:
        importlib.import_module(name)


def test_every_threshold_has_a_reader():
    """Each constant of mtc.Thresholds is read somewhere in the package, on
    a ``thresholds`` attribute, a local ``th`` or a fresh ``Thresholds(…)``
    (``Thresholds.__init__`` writes them on ``self``): a constant that has
    lost its last reader fails here."""
    source = "\n".join(p.read_text(encoding="utf-8")
                       for p in (ROOT / "src" / "bimodfusion").glob("*.py"))
    for name in vars(mtc.Thresholds(1e-9)):
        assert re.search(rf"(?:\bthresholds|\bth|\))\.{name}\b", source), name


def _reads(tree) -> set:
    """Names a syntax tree reads: Name and Attribute nodes and import
    aliases.  The string entries of an ``__all__`` list are not reads, so
    listing a definition there does not stand in for a reader."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
    return out


def test_all_list_is_no_reader():
    assert "f" not in _reads(ast.parse('__all__ = ["f"]'))


def test_every_public_definition_has_a_reader(monkeypatch):
    """Each public top-level function and class of the package is read by
    the package or the benchmark (perfbench/*.py, not its tests) outside
    its own definition, or is a benchmark target: code that only tests
    call belongs in tests/oracles.py."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    read = {name for _, name, _ in layers.LayerStats(E).targets()}
    defined = []
    for path in sorted((ROOT / "src" / "bimodfusion").glob("*.py")) + sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        package = path.parent.name == "bimodfusion"
        for stmt in tree.body:
            if (package and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                defined.append((path.stem, stmt.name))
                read.update(_reads(stmt) - {stmt.name})
            else:
                read |= _reads(stmt)
    unread = [f"{module}.{name}" for module, name in defined if name not in read]
    assert not unread
