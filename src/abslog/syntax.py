"""Formula and sequent syntax, text parsing and rendering.

Grammar (see README for the full EBNF): predicates are written applied to
the object variable(s), as in ``Even(x)`` or ``p:+x+y>=1(x,y)``; the
connectives' symbols and precedences come from :mod:`abslog.connectives`,
and the arrows (precedence 0) associate to the right.  Sequents read
``Gamma |- Delta`` with comma-separated, meta-conjunctive antecedents and
meta-disjunctive (nonempty) succedents.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import ClassVar

from .connectives import ATOM_PREC, CONNECTIVES, connective
from .errors import ParseError, UnknownSymbol

_OPERATORS = {c.symbol: c for c in CONNECTIVES.values() if c.arity}
_CONSTANTS = tuple(c for c in CONNECTIVES.values() if not c.arity)
_TOP_BINARY_PREC = max(c.prec for c in _OPERATORS.values() if c.arity == 2)


@dataclass(frozen=True)
class Pred:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Const:
    op: str  # a constant connective's name

    def __str__(self):
        return self.op


@dataclass(frozen=True)
class Not:
    arg: "Formula"
    op: ClassVar[str] = "not"


@dataclass(frozen=True)
class Bin:
    op: str  # a binary connective's name
    lhs: "Formula"
    rhs: "Formula"


Formula = Pred | Const | Not | Bin


def compound(op: str, *args: Formula) -> Formula:
    """The formula applying connective ``op`` to ``args``."""
    if not args:
        return Const(op)
    if len(args) == 1:
        return Not(*args)
    return Bin(op, *args)


def _prec(f: Formula) -> int:
    # called on children already rendered, so their connectives are known
    if isinstance(f, (Bin, Not, Const)):
        return CONNECTIVES[f.op].prec
    return ATOM_PREC


def render_formula(f: Formula, var: str = "x") -> str:
    """Deterministic text with minimal parentheses (round-trips via parse)."""
    if isinstance(f, Pred):
        return f"{f.name}({var})"
    if isinstance(f, Const):
        return connective(f.op).symbol
    if isinstance(f, Not):
        c = connective(f.op)
        inner = render_formula(f.arg, var)
        if _prec(f.arg) < c.prec:
            inner = f"({inner})"
        return f"{c.symbol}{inner}"
    if not isinstance(f, Bin):
        raise UnknownSymbol(f"cannot render {f!r}")
    c = connective(f.op)
    p = c.prec
    # the arrows (precedence 0) parse right-associatively, the others left;
    # a child at the same precedence needs parentheses on the other side
    lhs = render_formula(f.lhs, var)
    if _prec(f.lhs) < p or (p == 0 and _prec(f.lhs) == 0):
        lhs = f"({lhs})"
    rhs = render_formula(f.rhs, var)
    if _prec(f.rhs) < p or (p > 0 and _prec(f.rhs) == p):
        rhs = f"({rhs})"
    return f"{lhs} {c.symbol} {rhs}"


@dataclass(frozen=True)
class Sequent:
    """Antecedents read meta-conjunctively, succedents meta-disjunctively."""

    ante: tuple[Formula, ...]
    succ: tuple[Formula, ...]

    def __post_init__(self):
        if not self.succ:
            raise ParseError("a sequent needs at least one succedent")


def render_sequent(s: Sequent, var: str = "x") -> str:
    left = ", ".join(render_formula(f, var) for f in s.ante)
    right = ", ".join(render_formula(f, var) for f in s.succ)
    return f"{left} |- {right}" if left else f"|- {right}"


# --- tokenizer -------------------------------------------------------------

# a predicate name stops at whitespace, parentheses, commas and the
# one-character connective symbols
_NAME_STOP = re.escape("".join(s for s in _OPERATORS if len(s) == 1))
_PRED_RE = re.compile(rf"([A-Za-z_\[][^\s(),{_NAME_STOP}]*)\(([A-Za-z0-9_,\s]*)\)")
_WS_RE = re.compile(r"\s*")

# longest first, so that "|-" is not read as "|" and then "-"
_FIXED = sorted(("|-", "(", ")", ",", *_OPERATORS), key=len, reverse=True)


def _tokenize(text: str, line: int | None = None):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        pos = _WS_RE.match(text, pos).end()
        if pos >= n:
            break
        m = _PRED_RE.match(text, pos)
        if m:
            args = tuple(a.strip() for a in m.group(2).split(",")) if m.group(2).strip() else ()
            tokens.append(("pred", (m.group(1), args), pos))
            pos = m.end()
            continue
        const = next((c for c in _CONSTANTS if text.startswith(c.symbol, pos)
                      and not _is_name_char(text, pos + len(c.symbol))), None)
        if const is not None:
            tokens.append(("const", const.name, pos))
            pos += len(const.symbol)
            continue
        for sym in _FIXED:
            if text.startswith(sym, pos):
                tokens.append((sym, sym, pos))
                pos += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos + 1)
    return tokens


def _is_name_char(text: str, pos: int) -> bool:
    return pos < len(text) and re.match(r"[A-Za-z0-9_]", text[pos]) is not None


class _Parser:
    def __init__(self, text: str, line: int | None = None):
        self.text = text
        self.line = line
        self.tokens = _tokenize(text, line)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}", self.line, tok[2] + 1)
        return tok

    def formula(self) -> Formula:
        return self._binary(0)

    def _binary(self, prec: int) -> Formula:
        """Binary connectives binding at least as tightly as ``prec``; the
        arrows (precedence 0) associate to the right, the others left."""
        if prec > _TOP_BINARY_PREC:
            return self._unary()
        lhs = self._binary(prec + 1)
        while True:
            c = _OPERATORS.get(self.peek()[0])
            if c is None or c.arity != 2 or c.prec != prec:
                return lhs
            self.next()
            if prec == 0:
                return Bin(c.name, lhs, self._binary(0))
            lhs = Bin(c.name, lhs, self._binary(prec + 1))

    def _unary(self) -> Formula:
        kind, value, pos = self.peek()
        if kind in _OPERATORS and _OPERATORS[kind].arity == 1:
            self.next()
            return Not(self._unary())
        if kind == "pred":
            self.next()
            name, _args = value
            return Pred(name)
        if kind == "const":
            self.next()
            return Const(value)
        if kind == "(":
            self.next()
            f = self.formula()
            self.expect(")")
            return f
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
    if p.i != len(p.tokens):
        raise ParseError("trailing input after formula", line, p.peek()[2] + 1)
    return f


def parse_sequent(text: str, line: int | None = None,
                  expected_args: tuple[str, ...] | None = None) -> Sequent:
    """Parse ``Gamma |- Delta``; the antecedent may be empty."""
    p = _Parser(text, line)
    _check_args(p, expected_args)
    ante: list[Formula] = []
    if p.peek()[0] != "|-":
        ante.append(p.formula())
        while p.peek()[0] == ",":
            p.next()
            ante.append(p.formula())
    p.expect("|-")
    succ = [p.formula()]
    while p.peek()[0] == ",":
        p.next()
        succ.append(p.formula())
    if p.i != len(p.tokens):
        raise ParseError("trailing input after sequent", line, p.peek()[2] + 1)
    return Sequent(tuple(ante), tuple(succ))


def formula_predicates(f: Formula):
    """Yield the predicate names a formula uses, left to right."""
    if isinstance(f, Pred):
        yield f.name
    elif isinstance(f, Not):
        yield from formula_predicates(f.arg)
    elif isinstance(f, Bin):
        yield from formula_predicates(f.lhs)
        yield from formula_predicates(f.rhs)
