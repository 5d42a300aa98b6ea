"""Design rules of the package that its code, not its behaviour, must keep."""

from __future__ import annotations

import ast
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hdr2l"
MODULES = sorted(PACKAGE.glob("*.py"))
# The package re-exports names in __init__.py; an export alone is no use.
USERS = [p for p in MODULES if p.name != "__init__.py"] + sorted(
    p for directory in ("tools", "perfbench") for p in (ROOT / directory).rglob("*.py")
)


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@functools.cache
def _referenced_names() -> frozenset[str]:
    """Every name the code of the package's users looks up: bare names,
    attributes and imported names.  Strings and docstrings are not code."""
    names = set()
    for path in USERS:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return frozenset(names)


def _definitions(path: Path) -> list[str]:
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        node.name
        for node in ast.walk(_tree(path))
        if isinstance(node, kinds) and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def test_the_scan_sees_the_package_and_its_users():
    assert {"container.py", "imagio.py", "rescodec.py"} <= {p.name for p in MODULES}
    assert any(p.parent.name == "perfbench" for p in USERS)
    assert any(p.parent.name == "tools" for p in USERS)


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_every_function_and_class_is_used(module):
    used = _referenced_names()
    dead = [name for name in _definitions(module) if name not in used]
    assert dead == [], f"{module.name} defines {dead}, which no code in the package, tools/ or perfbench/ uses"


def test_the_refinement_depths_are_stated_in_container_alone():
    """``container.ARMS`` is the one statement of the refinement depths R: no
    other module binds a name to them, and ``tmo`` imports nothing from
    ``basejpeg``."""
    from hdr2l.container import ARMS

    depths = {r for _, r in ARMS.values()}
    bound = []
    for path in MODULES:
        if path.name == "container.py":
            continue
        for node in ast.walk(_tree(path)):
            value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
            if isinstance(value, (ast.Tuple, ast.List, ast.Set)) and all(
                isinstance(e, ast.Constant) for e in value.elts
            ) and {e.value for e in value.elts} == depths:
                bound.append(f"{path.name}:{node.lineno}")
    assert bound == [], f"the refinement depths {sorted(depths)} are bound outside container at {bound}"
    imported = set()  # modules and names, so `from . import basejpeg` counts too
    for node in ast.walk(_tree(PACKAGE / "tmo.py")):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {getattr(node, "module", None) or ""} | {a.name for a in node.names}
    assert "basejpeg" not in {name.rpartition(".")[2] for name in imported}, "tmo imports from basejpeg"
