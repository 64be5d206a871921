"""Every public module-level name of the package, and every public method
and property of its public classes, has a caller outside the tests: a name
only tests reach is code kept for the tests alone."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bdi_pentest"


def _defined(tree):
    """Public names as (shown name, name a caller loads)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield from ((f"{node.name}.{m.name}", m.name) for m in node.body
                        if isinstance(m, ast.FunctionDef))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, t.id) for t in targets if isinstance(t, ast.Name))


def test_every_public_name_is_loaded_outside_the_tests():
    loaded = set()
    for top in ("src", "scripts", "benchmarks"):
        for path in (ROOT / top).rglob("*.py"):
            if "tests" in path.relative_to(ROOT).parts:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    loaded.add(node.id)
                elif isinstance(node, ast.Attribute):
                    loaded.add(node.attr)
    unused = [f"{path.stem}.{shown}" for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py"
              for shown, name in _defined(ast.parse(path.read_text()))
              if not name.startswith("_") and name not in loaded]
    assert unused == []
