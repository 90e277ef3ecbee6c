"""Every name that ``abslog`` exports, and every public method, has a
caller or a reason.

An export counts as used when code under ``src/abslog/`` names it outside
its own ``def`` or ``class`` line and outside ``__init__.py``, or when code
under ``perfbench/`` names it.  Only NAME tokens count: a name mentioned in
a docstring or a comment is not a use.  Any other export is an entry point
kept for the user of the package, listed in ``ENTRY_POINTS`` with the
reason it stays.  A public method or property of a package class counts as
used the same way, and any other is listed in ``ENTRY_METHODS``.  Method
names are matched bare, across classes: a method that shares its name with
another class's method (``ConcreteUniverse.mask`` and ``PointMasks.mask``)
counts as called when either is, so the check misses an uncalled method
whose name collides.  ``ConcreteUniverse.empty`` was missed that way while
the registry's concrete operations called an ``empty()`` of ``PointMasks``,
and ``Rectangle.meet``, which no package code calls since the Cartesian
checks state the meet on keys, counts as called only through the bare name
of ``FiniteLattice.meet``.
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

# "Class.method": the reason it stays
ENTRY_METHODS: dict[str, str] = {
    "ConcreteUniverse.empty": "the empty set of a universe, a public "
                              "constructor that callers and tests use",
    "Rectangle.componentwise_leq": "the rectangle order, public API that "
                                   "test_rectangle_masks pins",
}


def exports() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
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


def public_methods() -> list[tuple[str, str]]:
    """(class, name) of every method and property of a package class whose
    name does not start with an underscore."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                found += [(node.name, f.name) for f in node.body
                          if isinstance(f, ast.FunctionDef)
                          and not f.name.startswith("_")]
    return found


def used_names() -> set[str]:
    """The names code under src/abslog, outside ``__init__.py``, and under
    perfbench uses."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used.update(name_tokens(path, skip_definitions=True))
    for path in (ROOT / "perfbench").rglob("*.py"):
        used.update(name_tokens(path, skip_definitions=False))
    return used


def test_every_export_has_a_caller_or_a_reason():
    used = used_names()
    uncalled = [name for name in exports() if name not in used]
    assert sorted(uncalled) == sorted(ENTRY_POINTS), (
        "exports with no caller under src/abslog or perfbench must be listed "
        f"in ENTRY_POINTS, and only those: {sorted(uncalled)}")


def test_every_public_method_has_a_caller_or_a_reason():
    used = used_names()
    uncalled = [f"{cls}.{name}" for cls, name in public_methods() if name not in used]
    assert sorted(uncalled) == sorted(ENTRY_METHODS), (
        "public methods with no caller under src/abslog or perfbench must be "
        f"listed in ENTRY_METHODS, and only those: {sorted(uncalled)}")
