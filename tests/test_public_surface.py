"""Every name that ``abslog`` exports has a caller or a reason.

An export counts as used when code under ``src/abslog/`` names it outside
its own ``def`` or ``class`` line and outside ``__init__.py``, or when code
under ``perfbench/`` names it.  Only NAME tokens count: a name mentioned in
a docstring or a comment is not a use.  Any other export is an entry point
kept for the user of the package, listed in ``ENTRY_POINTS`` with the
reason it stays.
"""

import ast
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "abslog"

ENTRY_POINTS = {
    "normalize": "the predicate a formula denotes, read through the "
                 "signature's operation tables",
    "compute_left_adjoint": "alpha, the best abstraction of a concrete set, "
                            "where gamma has a left adjoint",
    "heyting_implication": "a -> b between two named elements",
    "co_implication": "a <- b between two named elements",
    "parse_formula": "a formula from text, to pass to normalize",
}


def exports() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def name_tokens(path: Path, skip_definitions: bool) -> list[str]:
    """The NAME tokens of a file; with ``skip_definitions``, not the name
    that follows ``def`` or ``class``."""
    names, previous = [], None
    with path.open(encoding="utf-8") as f:
        for tok in tokenize.generate_tokens(f.readline):
            if tok.type == tokenize.NAME and not (
                    skip_definitions and previous in ("def", "class")):
                names.append(tok.string)
            if tok.type not in (tokenize.COMMENT, tokenize.NL):
                previous = tok.string
    return names


def test_every_export_has_a_caller_or_a_reason():
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used.update(name_tokens(path, skip_definitions=True))
    for path in (ROOT / "perfbench").rglob("*.py"):
        used.update(name_tokens(path, skip_definitions=False))
    uncalled = [name for name in exports() if name not in used]
    assert sorted(uncalled) == sorted(ENTRY_POINTS), (
        "exports with no caller under src/abslog or perfbench must be listed "
        f"in ENTRY_POINTS, and only those: {sorted(uncalled)}")
