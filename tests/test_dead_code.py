"""A dead-code check with the standard library's ``ast`` only.

Each module of the package (``__init__`` aside) may import at module level
only names it uses, and each module-level private ``_name`` it defines
must be referenced somewhere in the package, the tests or the benchmark,
apart from its own definition.  A reference is a name, an attribute, an
imported name, or a string that is the name or ends in ``.name``, as a
``monkeypatch`` target or a traced span is.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ictl"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = [
    *sorted(PACKAGE.glob("*.py")),
    *sorted((ROOT / "tests").glob("*.py")),
    *sorted((ROOT / "perfbench").rglob("*.py")),
]


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def top_level(tree):
    """The module's statements, with those under a top-level ``if`` (such
    as ``if TYPE_CHECKING:``)."""
    for node in tree.body:
        yield node
        if isinstance(node, ast.If):
            yield from node.body + node.orelse


def imported_names(tree):
    """``{bound name: line}`` of the module-level imports."""
    out = {}
    for node in top_level(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree):
    """The names the module reads, with those its ``__all__`` exports."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in top_level(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return used


def private_definitions(tree):
    """``{name: definition node}`` of the module-level private names."""
    out = {}
    for node in top_level(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                out[name] = node
    return out


def references(tree):
    """``(name, node)`` for every place a name may be referred to."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value.rpartition(".")[2], node


def within(node, definition):
    return definition.lineno <= node.lineno <= definition.end_lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    tree = parse(path)
    used = used_names(tree)
    imported = imported_names(tree).items()
    unused = [f"{name} (line {line})" for name, line in imported if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_every_private_module_name_is_referenced():
    definitions = {
        (path, name): node
        for path in MODULES
        for name, node in private_definitions(parse(path)).items()
    }
    wanted = {name for _, name in definitions}
    found = set()
    for path in SOURCES:
        for name, node in references(parse(path)):
            if name not in wanted:
                continue
            own = definitions.get((path, name))
            if own is None or not within(node, own):
                found.add(name)
    dead = sorted(
        f"{path.name}:{node.lineno} {name}"
        for (path, name), node in definitions.items()
        if name not in found
    )
    assert not dead, f"private names referenced nowhere: {', '.join(dead)}"
