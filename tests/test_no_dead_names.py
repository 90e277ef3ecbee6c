"""Every module-level function and class in the package has a use.

A name counts as used when it appears as a word in some Python file under
``src/``, ``tests/`` or ``perfbench/`` outside the line that defines it.
The check is textual: a name used only inside its own body (a recursive
function, or a class named only by its own annotations or by a type
union beside it) still counts as used, so such dead code gets past it.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "abslog"
SEARCHED = ("src", "tests", "perfbench")
WORD = re.compile(r"\w+")


def test_every_module_level_name_has_a_use():
    words = Counter()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            words.update(WORD.findall(path.read_text()))
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.parse(text, filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = WORD.findall(lines[node.lineno - 1]).count(node.name)
                if words[node.name] == own:
                    dead.append(f"{path.name}:{node.lineno} {node.name}")
    assert not dead, f"defined but never used: {dead}"
