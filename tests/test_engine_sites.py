"""The verifiers share one engine per proof system: the package builds a
``ModelEngine`` in exactly one place, ``proofengine.engine_for``, and builds
no ``DerivabilityEngine``, which the tests and the benchmark keep as the
reference."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "abslog"


def _callee(call: ast.Call) -> str | None:
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def test_engines_are_built_only_by_engine_for():
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        parent = {child: node for node in ast.walk(tree)
                  for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            callee = _callee(node) if isinstance(node, ast.Call) else None
            if callee in ("ModelEngine", "DerivabilityEngine"):
                scope = node
                while scope in parent and not isinstance(
                        scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    scope = parent[scope]
                where = getattr(scope, "name", "<module>")
                sites.append(f"{path.name}:{where}:{callee}")
    assert sites == ["proofengine.py:engine_for:ModelEngine"], sites
