"""Guard: every public name in src/hbrca has a caller outside the tests.

A public top-level function or class, or a public method, must be
exported in `hbrca.__all__` or referenced by name from src/, scripts/ or
perfbench/. References are name-based: a bare name, an attribute of
anything but an outside module (`np.exp` does not keep `exp` alive), or
a word in a string constant other than a docstring (perfbench wraps
functions by name).
"""

import ast
import re
from pathlib import Path

import hbrca

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hbrca"
CALLERS = [ROOT / "src", ROOT / "scripts", ROOT / "perfbench"]


def _outside_modules(tree: ast.AST) -> set:
    """Local names bound to imported modules outside hbrca (np, math, ...)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names
                         if not a.name.startswith("hbrca"))
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and not (node.module or "").startswith("hbrca"):
            names.update(a.asname or a.name for a in node.names)
    return names


def _references(tree: ast.AST) -> set:
    outside = _outside_modules(tree)
    docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            if not (isinstance(node.value, ast.Name) and node.value.id in outside):
                refs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in docstrings:
            refs.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return refs


def _public_definitions(tree: ast.Module):
    kinds = (ast.FunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds) and not node.name.startswith("_"):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, kinds) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name


def test_no_public_name_only_tests_call():
    refs = set()
    for folder in CALLERS:
        for path in folder.rglob("*.py"):
            refs |= _references(ast.parse(path.read_text(encoding="utf-8")))
    exported = set(hbrca.__all__)
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qual, name in _public_definitions(tree):
            if name not in exported and name not in refs:
                unused.append(f"{path.stem}.{qual}")
    assert unused == [], f"public names with no caller outside tests/: {unused}"
