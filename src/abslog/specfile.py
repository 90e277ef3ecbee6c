"""Abstraction spec files: a line-oriented textual format.

Sections are ``ELEMENTS / ORDER / OPS / UNIVERSE / GAMMA / AXIOMS`` with
``#`` comments; an element name must be a predicate name of the formula
grammar (``syntax.NAME_RE``); ``ORDER`` lines are Hasse (covering) edges;
``GAMMA`` entries use the shorthands ``{}``, ``all``, ``evens``, ``odds``,
``range(lo,hi)``, ``union(...)`` or explicit point lists in braces.  The
optional ``AXIOMS`` section holds extra axiom sequents, one per line
(the octagon export stores its pairwise infeasibility axioms there).
Errors are positioned by line.

``emit`` writes each point in one spelling, :func:`_spellings`, and ``load``
reads a point list made only of such spellings by one lookup per token;
a list holding any other spelling of a point (``( 0, 1 )``, ``+1``, ``01``)
still loads, through the tokenizer, with the same points and errors.
"""

from __future__ import annotations

import re
from pathlib import Path

from .concrete import Abstraction, ConcreteUniverse, ConcretizationMap
from .errors import AbslogError, CarrierTooLarge, InvalidConcretization, ParseError, SpecError
from .lattice import UnaryOpTable, build_lattice, hasse_edges
from .syntax import NAME_RE, formula_predicates, parse_sequent, render_sequent

SECTIONS = ("ELEMENTS", "ORDER", "OPS", "UNIVERSE", "GAMMA", "AXIOMS")


def load_path(path: str | Path) -> Abstraction:
    path = Path(path)
    return load(path.read_text(encoding="utf-8"), name=path.stem)


def load(text: str, name: str = "spec") -> Abstraction:
    elements: list[str] = []
    known: set[str] = set()  # the names of ``elements``, for the name checks
    order: list[tuple[str, str]] = []
    unary: dict[str, dict[str, str]] = {}
    universe_line: tuple[int, str] | None = None
    gamma_lines: list[tuple[int, str, str]] = []
    axiom_lines: list[tuple[int, str]] = []
    section = None
    current_op: str | None = None

    for ln_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line in SECTIONS:
            section = line
            current_op = None
            continue
        if section is None:
            raise ParseError(f"content before any section: {line!r}", ln_no)
        if section == "ELEMENTS":
            for e in line.split():
                if e in known:
                    raise SpecError(f"duplicate element {e!r}", ln_no)
                if not NAME_RE.fullmatch(e):
                    raise SpecError(f"element name {e!r} is not a predicate name "
                                    "of the formula grammar", ln_no)
                elements.append(e)
                known.add(e)
        elif section == "ORDER":
            if " < " not in line:
                raise ParseError(f"expected 'a < b', got {line!r}", ln_no)
            a, _, b = line.partition(" < ")
            a, b = a.strip(), b.strip()
            if a not in known:
                raise SpecError(f"unknown element {a!r} in ORDER", ln_no)
            if b not in known:
                raise SpecError(f"unknown element {b!r} in ORDER", ln_no)
            order.append((a, b))
        elif section == "OPS":
            words = line.split()
            if words[0] == "unary":
                if len(words) != 2:
                    raise ParseError("expected 'unary NAME'", ln_no)
                current_op = words[1]
                if current_op in unary:
                    raise SpecError(f"duplicate OPS operation {current_op!r}", ln_no)
                unary[current_op] = {}
            elif current_op is None:
                raise ParseError("operation entry before 'unary NAME'", ln_no)
            elif " = " in line:
                lhs, _, rhs = line.partition(" = ")
                args = lhs.split()
                rhs = rhs.strip()
                for sym in args + [rhs]:
                    if sym not in known:
                        raise SpecError(f"unknown element {sym!r} in OPS", ln_no)
                if len(args) != 1:
                    raise ParseError("unary entry needs one argument", ln_no)
                if args[0] in unary[current_op]:
                    raise SpecError(f"duplicate OPS entry for {args[0]!r}", ln_no)
                unary[current_op][args[0]] = rhs
            else:
                raise ParseError(f"malformed OPS line {line!r}", ln_no)
        elif section == "UNIVERSE":
            if universe_line is not None:
                raise ParseError("duplicate UNIVERSE declaration", ln_no)
            universe_line = (ln_no, line)
        elif section == "GAMMA":
            if " = " not in line:
                raise ParseError(f"expected 'element = expr', got {line!r}", ln_no)
            elt, _, expr = line.partition(" = ")
            elt = elt.strip()
            if elt not in known:
                raise SpecError(f"unknown element {elt!r} in GAMMA", ln_no)
            gamma_lines.append((ln_no, elt, expr.strip()))
        elif section == "AXIOMS":
            axiom_lines.append((ln_no, line))

    if not elements:
        raise SpecError("no ELEMENTS declared")
    if universe_line is None:
        raise SpecError("no UNIVERSE declared")

    lattice = build_lattice(
        elements, order, unary_ops={n: UnaryOpTable(n, t) for n, t in unary.items()})

    uni = _parse_universe(*universe_line)

    lists = _PointLists(uni)
    masks: dict[str, int] = {}
    for ln_no, elt, expr in gamma_lines:
        if elt in masks:
            raise SpecError(f"duplicate GAMMA entry for {elt!r}", ln_no)
        try:
            masks[elt] = _eval_set_expr(expr, uni, lists)
        except AbslogError as e:
            raise SpecError(f"bad GAMMA entry for {elt!r}: {e}", ln_no) from e
    missing = [e for e in elements if e not in masks]
    if missing:
        raise SpecError(f"GAMMA missing entries for {missing}")
    gamma = ConcretizationMap(lattice, uni, masks)

    axioms = []
    for i, (ln_no, line) in enumerate(axiom_lines):
        seq = parse_sequent(line, line=ln_no, expected_args=uni.var_names)
        for f in seq.ante + seq.succ:
            for p in formula_predicates(f):
                if p not in lattice.index:
                    raise SpecError(f"axiom uses unknown predicate {p!r}", ln_no)
        axioms.append((f"axiom.{i:03d}", seq))

    return Abstraction(name, lattice, gamma, extra_axioms=tuple(axioms))


def _parse_universe(ln_no: int, line: str) -> ConcreteUniverse:
    words = line.split()
    if words[0] == "atoms":
        if len(words) < 2:
            raise SpecError("atoms universe needs at least one point", ln_no)
        if len(set(words[1:])) != len(words[1:]):
            raise SpecError("duplicate atoms", ln_no)
        return ConcreteUniverse.atoms(words[1:])
    if words[0] == "window":
        try:
            if len(words) == 3:
                return ConcreteUniverse.window(int(words[1]), int(words[2]))
            if len(words) == 5 and words[3] == "dim":
                return ConcreteUniverse.window(int(words[1]), int(words[2]),
                                               dim=int(words[4]))
        except ValueError:
            pass
        except (InvalidConcretization, CarrierTooLarge) as e:
            raise SpecError(str(e), ln_no) from e
        raise ParseError("expected 'window LO HI' or 'window LO HI dim N'", ln_no)
    raise ParseError(f"unknown universe kind {words[0]!r}", ln_no)


# a point token: an int tuple, which may hold spaces, or a run of non-space
# characters
_TUPLE_RE = re.compile(r"\(\s*-?\d+\s*(?:,\s*-?\d+\s*)+\)|\S+")
# an int tuple opened and not closed, which ``_TUPLE_RE`` reads on into the
# spaces and tokens after it
_OPEN_TUPLE = re.compile(r"\((?:-?\d+(?:,-?\d+)*,?)?")


def _spellings(points) -> list[str]:
    """The one spelling of each point that ``emit`` writes and ``load`` reads
    by lookup: an atom's name, an int's digits, an int tuple with no space
    after its commas."""
    return [str(p).replace(", ", ",") for p in points]


def _one_token(text: str) -> bool:
    """Whether a point list reads ``text`` as one token whatever tokens stand
    beside it: ``#`` starts a comment, whitespace splits, a leading int tuple
    is a token of its own, and an opened tuple reads on into the next token."""
    return ("#" not in text and _TUPLE_RE.findall(text) == [text]
            and not _OPEN_TUPLE.fullmatch(text))


def _parse_point(tok: str, uni: ConcreteUniverse):
    """A point token read by the universe's shape: an atom name, an int on a
    1-D window, an int tuple on a window of higher dimension."""
    if uni.bounds is None:
        return tok
    try:
        if uni.dim == 1:
            return int(tok)
        if tok.startswith("("):
            return tuple(int(x) for x in tok[1:-1].split(","))
    except ValueError:
        pass
    raise SpecError(f"point {tok} is outside the universe")


def _eval_set_expr(expr: str, uni: ConcreteUniverse, lists: _PointLists) -> int:
    """A GAMMA set expression's point mask; ``lists`` reads its point lists."""
    expr = expr.strip()
    if expr == "{}":
        return 0
    if expr == "all":
        return uni.span(0, len(uni))
    if expr in ("evens", "odds"):
        if uni.bounds is None or uni.dim != 1:
            raise SpecError(f"{expr!r} needs a one-dimensional integer window")
        parity = 0 if expr == "evens" else 1
        return uni.mask(p for p in uni.points if p % 2 == parity)
    m = re.fullmatch(r"range\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)", expr)
    if m:
        if uni.bounds is None or uni.dim != 1:
            raise SpecError("'range' needs a one-dimensional integer window")
        lo, hi = int(m.group(1)), int(m.group(2))
        return uni.mask(p for p in uni.points if lo <= p <= hi)
    if expr.startswith("union(") and expr.endswith(")"):
        inner = expr[len("union("):-1]
        out = 0
        for part in _split_top_level(inner):
            out |= _eval_set_expr(part, uni, lists)
        return out
    if expr.startswith("{") and expr.endswith("}"):
        return lists.read(expr[1:-1])
    raise SpecError(f"cannot parse set expression {expr!r}")


class _PointLists:
    """Reads the braced point lists of one spec over its universe ``uni``.

    A list of the spellings ``emit`` writes takes one lookup per token in
    ``spelled`` (spelling -> position), built at the first list: each such
    spelling reads as one token, so splitting on whitespace tokenizes the
    list as ``_TUPLE_RE`` does.  Any other list is tokenized by
    ``_TUPLE_RE``; ``points`` maps each token so read to its point, which
    is in the universe, and a new token is parsed and checked once and
    then added."""

    def __init__(self, uni: ConcreteUniverse):
        self.uni = uni
        self.spelled: dict[str, int] | None = None
        self.points: dict[str, object] = {}

    def read(self, body: str) -> int:
        """The point mask of a list's text between its braces."""
        uni = self.uni
        if self.spelled is None:
            # a window's spellings all read as one token, an atom's only
            # where ``_one_token`` says so
            self.spelled = {s: j for j, s in enumerate(_spellings(uni.points))
                            if uni.bounds is not None or _one_token(s)}
        try:
            positions = list(map(self.spelled.__getitem__, body.split()))
        except KeyError:
            pass
        else:
            return uni.mask_at(positions)
        toks = _TUPLE_RE.findall(body)
        # every new token is parsed before any is checked, so the first
        # unparsable token wins over an earlier point outside the universe
        new = {}
        for t in toks:
            if t not in self.points and t not in new:
                new[t] = _parse_point(t, uni)
        for p in new.values():
            if p not in uni.point_set:
                raise SpecError(f"point {p!r} is outside the universe")
        self.points.update(new)
        return uni.mask(map(self.points.__getitem__, toks))


def _split_top_level(s: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def emit(abs_: Abstraction) -> str:
    """Serialize an abstraction deterministically (explicit point lists).

    Raises :class:`SpecError` for an atom, element or operation name that
    ``load`` cannot read back, and for an abstraction name that spans lines,
    which ``load`` would read as more lines.
    """
    if abs_.name.splitlines() not in ([], [abs_.name]):
        raise SpecError(f"abstraction name {abs_.name!r} cannot be written to a spec file")
    lat = abs_.lattice
    # ``load`` reads an element name only as a predicate name of the formula
    # grammar, drops what follows ``#``, reads an OPS line that starts with
    # ``unary`` as a new operation, named by the one word after it, and a
    # lone element's ELEMENTS line can be a section name
    keywords = ("unary",) if lat.unary_ops else ()
    if len(lat) == 1:
        keywords += SECTIONS
    for e in lat.elements:
        if "#" in e or not NAME_RE.fullmatch(e) or e in keywords:
            raise SpecError(f"element name {e!r} cannot be written to a spec file")
    for opname in lat.unary_ops:
        if "#" in opname or opname.split() != [opname]:
            raise SpecError(f"operation name {opname!r} cannot be written to a spec file")
    if abs_.universe.bounds is None:
        for atom in abs_.universe.points:
            if not _one_token(atom):
                raise SpecError(f"atom name {atom!r} cannot be written to a spec file")
    lines = [f"# abstraction: {abs_.name}", "ELEMENTS"]
    lines += [" ".join(lat.elements)]
    lines.append("ORDER")
    for a, b in sorted(hasse_edges(lat)):
        lines.append(f"{a} < {b}")
    if lat.unary_ops:
        lines.append("OPS")
        for opname in sorted(lat.unary_ops):
            lines.append(f"unary {opname}")
            for e in lat.elements:
                lines.append(f"{e} = {lat.unary_ops[opname].table[e]}")
    lines.append("UNIVERSE")
    lines.append(abs_.universe.describe())
    lines.append("GAMMA")
    # each point written in its one spelling.  Universe order is point order
    # (``atoms`` sorts, a window ascends), so each image lists its points as
    # its mask decodes them.
    uni, masks = abs_.universe, abs_.gamma.masks
    text = dict(zip(uni.points, _spellings(uni.points)))
    for e in lat.elements:
        body = " ".join(map(text.__getitem__, uni.points_of(masks[e])))
        lines.append(f"{e} = {{{body}}}")
    if abs_.extra_axioms:
        lines.append("AXIOMS")
        var = ",".join(abs_.universe.var_names)
        lines += [render_sequent(s, var) for _, s in abs_.extra_axioms]
    return "\n".join(lines) + "\n"
