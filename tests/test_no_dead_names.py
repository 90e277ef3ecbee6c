"""Every module-level function and class in the package, and every method
of a package class that is not a dunder, private ones included, has a use.

A name counts as used when it appears as a word in some Python file under
``src/``, ``tests/`` or ``perfbench/`` outside the lines that define it.
The check is textual: a name used only inside its own body (a recursive
function, or a class named only by its own annotations or by a type
union beside it) still counts as used, and so does a method whose name is
used for another definition (two classes' ``_derive``, say), so such dead
code gets past it.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "abslog"
SEARCHED = ("src", "tests", "perfbench")
WORD = re.compile(r"\w+")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree: ast.Module):
    """The module-level definitions, and the methods of its classes that
    are not dunders."""
    for node in tree.body:
        if isinstance(node, DEFS):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body
                        if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (m.name.startswith("__") and m.name.endswith("__")))


def test_every_module_level_name_has_a_use():
    words = Counter()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            words.update(WORD.findall(path.read_text(encoding="utf-8")))
    found = []  # (where, name, the name's count on its defining line)
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for node in _definitions(ast.parse(text, filename=str(path))):
            own = WORD.findall(lines[node.lineno - 1]).count(node.name)
            found.append((f"{path.name}:{node.lineno} {node.name}", node.name, own))
    defined = Counter()
    for _, name, own in found:
        defined[name] += own
    dead = [where for where, name, _ in found if words[name] == defined[name]]
    assert not dead, f"defined but never used: {dead}"
