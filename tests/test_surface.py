"""Every public module-level name of the package, and every public method
and property of its public classes, has a caller outside the tests: a name
only tests reach is code kept for the tests alone."""

import ast
import os
import subprocess
import sys
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



def _is_type_checking(test):
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def _names_targets(node):
    """Whether an import statement of the package takes anything from
    `bdi_pentest.targets`."""
    if isinstance(node, ast.Import):
        modules = [a.name for a in node.names]
    elif isinstance(node, ast.ImportFrom):
        base = ".".join(filter(None, ["bdi_pentest" if node.level == 1 else "", node.module]))
        modules = [base] + [f"{base}.{a.name}" for a in node.names]
    else:
        return False
    return any(m == "bdi_pentest.targets" or m.startswith("bdi_pentest.targets.")
               for m in modules)


def test_the_catalog_imports_nothing_from_the_scenario_at_run_time():
    """`actions` sits below `targets`: the scenario is compiled against the
    catalog, and the catalog names scenario types only for type checking."""
    tree = ast.parse((PACKAGE / "actions.py").read_text())
    typing_only = {id(n) for node in ast.walk(tree)
                   if isinstance(node, ast.If) and _is_type_checking(node.test)
                   for stmt in node.body for n in ast.walk(stmt)}
    assert [ast.unparse(node) for node in ast.walk(tree)
            if _names_targets(node) and id(node) not in typing_only] == []


def test_the_cli_imports_no_dataclasses_or_inspect():
    """The CLI's cold start pays for no record boilerplate: `dataclasses`
    and the `inspect` it pulls in stay unimported."""
    code = ("import sys, bdi_pentest.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out == "[]\n"
