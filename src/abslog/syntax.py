"""Formula and sequent syntax, text parsing and rendering.

Grammar (see README for the full EBNF): predicates are written applied to
the object variable(s), as in ``Even(x)`` or ``p:+x+y>=1(x,y)``; the
connectives' symbols and precedences come from :mod:`abslog.connectives`,
and the arrows (precedence 0) associate to the right.  Sequents read
``Gamma |- Delta`` with comma-separated, meta-conjunctive antecedents and
meta-disjunctive (nonempty) succedents.

A formula is a :class:`Pred` or a :class:`Compound`: a registry connective
applied to as many formulas as its arity, and refused when built otherwise
(an unknown connective, another argument count, or an argument that is not
a formula).

``sequent_reader`` reads many sequents and parses each distinct side text
once.  It splits a sequent at its first ``|-``, which valid text holds only
as the turnstile (its docstring gives the argument), and reparses the whole
text with ``parse_sequent`` when a side does not parse, so errors are
unchanged.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .connectives import ATOM_PREC, CONNECTIVES, connective
from .errors import ParseError, UnknownSymbol

_OPERATORS = {c.symbol: c for c in CONNECTIVES.values() if c.arity}
_CONSTANTS = {c.symbol: c.name for c in CONNECTIVES.values() if not c.arity}


@dataclass(frozen=True)
class Pred:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Compound:
    """A registry connective applied to as many formulas as its arity."""

    op: str
    args: tuple["Formula", ...] = ()

    def __post_init__(self):
        arity = connective(self.op).arity
        if len(self.args) != arity:
            raise UnknownSymbol(f"connective {self.op!r} takes {arity} "
                                f"arguments, not {len(self.args)}")
        for arg in self.args:
            if not isinstance(arg, (Pred, Compound)):
                raise UnknownSymbol(f"connective {self.op!r} takes formulas, "
                                    f"not {arg!r}")


Const = Compound  # a constant is a compound without arguments: ``Const("ff")``

Formula = Pred | Compound


def render_formula(f: Formula, var: str = "x", latex: bool = False) -> str:
    """Deterministic text with minimal parentheses (round-trips via parse);
    ``latex`` writes each connective's LaTeX symbol in place of its text one."""
    if f.__class__ is Pred:
        return f"{f.name}({var})"
    if f.__class__ is not Compound:
        raise UnknownSymbol(f"cannot render {f!r}")
    c = CONNECTIVES[f.op]
    symbol = c.latex if latex else c.symbol
    if not f.args:
        return symbol
    p = c.prec
    if len(f.args) == 1:
        (arg,) = f.args
        inner = render_formula(arg, var, latex)
        q = CONNECTIVES[arg.op].prec if arg.__class__ is Compound else ATOM_PREC
        return f"{symbol}({inner})" if q < p else f"{symbol}{inner}"
    # the arrows (precedence 0) parse right-associatively, the others left;
    # a child at the same precedence needs parentheses on the other side
    lhs, rhs = f.args
    left = render_formula(lhs, var, latex)
    q = CONNECTIVES[lhs.op].prec if lhs.__class__ is Compound else ATOM_PREC
    if q < p or (p == 0 and q == 0):
        left = f"({left})"
    right = render_formula(rhs, var, latex)
    q = CONNECTIVES[rhs.op].prec if rhs.__class__ is Compound else ATOM_PREC
    if q < p or (p > 0 and q == p):
        right = f"({right})"
    return f"{left} {symbol} {right}"


@dataclass(frozen=True)
class Sequent:
    """Antecedents read meta-conjunctively, succedents meta-disjunctively."""

    ante: tuple[Formula, ...]
    succ: tuple[Formula, ...]

    def __post_init__(self):
        if not self.succ:
            raise ParseError("a sequent needs at least one succedent")


def render_sequent(s: Sequent, var: str = "x", latex: bool = False) -> str:
    left = ", ".join([render_formula(f, var, latex) for f in s.ante])
    right = ", ".join([render_formula(f, var, latex) for f in s.succ])
    turnstile = r"\vdash " if latex else "|-"
    return f"{left} {turnstile} {right}" if left else f"{turnstile} {right}"


# --- tokenizer -------------------------------------------------------------

# a predicate name (the README grammar's ``name``) stops at whitespace,
# parentheses, commas and the one-character connective symbols
NAME_RE = re.compile(r"[A-Za-z_\[][^\s(),%s]*"
                     % re.escape("".join(s for s in _OPERATORS if len(s) == 1)))

# longest first, so that "|-" is not read as "|" and then "-"
_FIXED = sorted(("|-", "(", ")", ",", *_OPERATORS), key=len, reverse=True)

# one match per token, its alternatives tried in order: a predicate with its
# argument list, a constant not followed by a name character, a fixed symbol,
# the end of input, and last any other character, which is an error
_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<pred>(?P<name>{NAME_RE.pattern})\((?P<args>[A-Za-z0-9_,\s]*)\))"
    rf"|(?P<const>{'|'.join(map(re.escape, _CONSTANTS))})(?![A-Za-z0-9_])"
    rf"|(?P<fixed>{'|'.join(map(re.escape, _FIXED))})|(?P<end>\Z)|(?P<bad>.))")


def _tokenize(text: str, line: int | None = None) -> list[tuple]:
    """``(kind, value, offset)`` triples, closed by the end-of-input token
    ``(None, None, len(text))``."""
    tokens = []
    pos = 0
    while True:
        m = _TOKEN_RE.match(text, pos)
        kind = m.lastgroup
        start = m.start(kind)
        if kind == "pred":
            args = m["args"]
            args = tuple(a.strip() for a in args.split(",")) if args.strip() else ()
            tokens.append(("pred", (m["name"], args), start))
        elif kind == "const":
            tokens.append(("const", _CONSTANTS[m["const"]], start))
        elif kind == "fixed":
            tokens.append((m["fixed"], m["fixed"], start))
        elif kind == "end":
            tokens.append((None, None, start))
            return tokens
        else:
            raise ParseError(f"unexpected character {m['bad']!r}", line, start + 1)
        pos = m.end()


class _Parser:
    def __init__(self, text: str, line: int | None = None):
        self.line = line
        self.tokens = _tokenize(text, line)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}", self.line, tok[2] + 1)
        return tok

    def done(self, what: str) -> None:
        kind, _, pos = self.peek()
        if kind is not None:
            raise ParseError(f"trailing input after {what}", self.line, pos + 1)

    def formula(self, prec: int = 0) -> Formula:
        """A formula whose binary connectives bind at least as tightly as
        ``prec``; the arrows (precedence 0) associate to the right, the
        others to the left."""
        lhs = self.unary()
        while True:
            c = _OPERATORS.get(self.peek()[0])
            if c is None or c.arity != 2 or c.prec < prec:
                return lhs
            self.i += 1
            rhs = self.formula(c.prec if c.prec == 0 else c.prec + 1)
            lhs = Compound(c.name, (lhs, rhs))

    def formulas(self) -> tuple[Formula, ...]:
        """A nonempty comma-separated list of formulas."""
        out = [self.formula()]
        while self.peek()[0] == ",":
            self.i += 1
            out.append(self.formula())
        return tuple(out)

    def unary(self) -> Formula:
        kind, value, pos = self.next()
        if kind == "pred":
            return Pred(value[0])
        if kind == "const":
            return Compound(value)
        if kind == "(":
            f = self.formula()
            self.expect(")")
            return f
        if kind in _OPERATORS and _OPERATORS[kind].arity == 1:
            return Compound(_OPERATORS[kind].name, (self.unary(),))
        raise ParseError("expected a formula", self.line, pos + 1)


def _check_args(p: _Parser, expected_args) -> None:
    # argument lists are validated on the token stream before parsing so the
    # AST can stay variable-free (one fixed object variable per signature)
    if expected_args is None:
        return
    for kind, value, pos in p.tokens:
        if kind == "pred" and value[1] != tuple(expected_args):
            raise ParseError(
                f"predicate {value[0]!r} applied to ({','.join(value[1])}); "
                f"expected ({','.join(expected_args)})", p.line, pos + 1)


def parse_formula(text: str, line: int | None = None,
                  expected_args: tuple[str, ...] | None = None) -> Formula:
    """Parse a single formula; raises :class:`ParseError` on bad syntax."""
    p = _Parser(text, line)
    _check_args(p, expected_args)
    f = p.formula()
    p.done("formula")
    return f


def parse_sequent(text: str, line: int | None = None,
                  expected_args: tuple[str, ...] | None = None) -> Sequent:
    """Parse ``Gamma |- Delta``; the antecedent may be empty."""
    p = _Parser(text, line)
    _check_args(p, expected_args)
    ante = p.formulas() if p.peek()[0] != "|-" else ()
    p.expect("|-")
    succ = p.formulas()
    p.done("sequent")
    return Sequent(ante, succ)


def sequent_reader():
    """A ``parse_sequent`` without line or argument checks that parses each
    distinct side text once, for reading many sequents that repeat their
    sides (as an operation axiom's ``.l`` and ``.r`` sequents do).

    ``read(text)`` splits the text at the first ``|-``, strips each side and
    parses it with ``_Parser.formulas()``, keeping one entry per distinct
    side text for the reader's life; an empty antecedent is ``()``.  If
    there is no ``|-``, or a side or the sequent does not parse, it parses
    the whole text with ``parse_sequent``, so every error keeps its message
    and column.

    The split agrees with ``parse_sequent`` on text whose sides both parse.
    Only the tokens ``|`` and ``|-`` hold a ``|``: a name excludes it, an
    argument list admits only ``[A-Za-z0-9_,\\s]`` and a constant is
    ``tt`` or ``ff``.  So each ``|-`` in the text starts a token, and since
    fixed tokens are tried longest first and none is longer than two
    characters, that token is the turnstile.  No token reaches across it; a
    match reads no text before its start, and the one lookahead (no name
    character after a constant) reads a space or ``|`` where the side alone
    ends.  Stripping removes only what the scanner skips.  So the whole text
    scans to the left side's tokens, the turnstile, then the right side's
    tokens, and the parser stops a formula list at ``|-`` exactly as at the
    end of input: it reads both sides as they read alone.
    """
    sides: dict[str, tuple[Formula, ...]] = {"": ()}

    def side(text: str) -> tuple[Formula, ...]:
        formulas = sides.get(text)
        if formulas is None:
            p = _Parser(text)
            formulas = p.formulas()
            p.done("sequent")
            sides[text] = formulas
        return formulas

    def read(text: str) -> Sequent:
        left, turnstile, right = text.partition("|-")
        if turnstile:
            try:
                # an empty succedent is refused by ``Sequent``, then reparsed
                return Sequent(side(left.strip()), side(right.strip()))
            except ParseError:
                pass
        return parse_sequent(text)

    return read


def formula_predicates(f: Formula):
    """Yield the predicate names a formula uses, left to right."""
    if isinstance(f, Pred):
        yield f.name
    else:
        for arg in f.args:
            yield from formula_predicates(arg)
