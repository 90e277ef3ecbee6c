"""The connective registry: every fact about a connective, defined once.

One record per candidate connective, in the order the reports and
signatures list them.  A record holds the text syntax (symbol, LaTeX and
precedence), the concrete operation on sets, the abstract operation as a
builder of a lattice index table, and the introduction rules the
generated calculus adds when gamma preserves the connective.  Every
module that needs one of these facts loops over ``CONNECTIVES`` or looks
a record up by name; none spells them out again.

The concrete operations compute on int point masks (bit j stands for the
j-th point), the one representation of a concrete set that anything
computes with.  An operation takes the universe's full mask and its
arguments' masks, ``(full, *point masks)``, and returns a mask written
with ``&``, ``|`` and ``~`` relative to ``full``: ``tt`` is ``full`` and
``not x`` is ``full & ~x``.  The preservation report and the soundness
check of a system's axioms call them; a
:class:`~abslog.concrete.ConcreteSet` is only a decoded view.

Abstract tables are nested index tuples of depth ``arity``: an int for a
constant, one row for a unary connective, a matrix for a binary one.
:meth:`FiniteLattice.table` builds a table on first use and caches it.
The Heyting and co-Heyting tables are read off the lattice's order
bitmasks and join-irreducibles by :meth:`FiniteLattice.residual_table`;
the formula is in the :mod:`abslog.lattice` docstring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .errors import UnknownSymbol

# rule schemas: rule name -> (premise displays, conclusion display); `G`/`D`
# are context metavariables, `?phi`/`?psi` formula metavariables
Schemas = dict[str, tuple[tuple[str, ...], str]]

ATOM_PREC = 4  # predicates and constants bind tightest


@dataclass(frozen=True)
class Connective:
    name: str
    arity: int
    symbol: str
    latex: str
    prec: int                 # binding strength in text; higher binds tighter
    concrete_name: str
    concrete: Callable        # (full mask, *point masks) -> point mask
    abstract: Callable        # lattice -> index table
    intro: Schemas
    # rules that replace ``intro`` when every connective in ``via`` is
    # preserved too: negation is then read as implication to absurdity
    via: frozenset[str] = frozenset()
    intro_via: Schemas = field(default_factory=dict)


def lookup(table, args):
    """The entry of a nested index table at the argument indices."""
    for i in args:
        table = table[i]
    return table


def _negation(lat):
    neg = lat.unary_ops.get("negation")
    if neg is None:
        raise UnknownSymbol("no negation operation declared")
    return tuple(lat.index[neg.table[e]] for e in lat.elements)


_CONNECTIVES = (
    Connective(
        "tt", 0, "tt", "tt", ATOM_PREC, "full",
        lambda full: full, lambda lat: lat.index[lat.top],
        {"intro.tt.r": ((), "G |- D, tt")}),
    Connective(
        "ff", 0, "ff", "ff", ATOM_PREC, "empty",
        lambda full: 0, lambda lat: lat.index[lat.bottom],
        {"intro.ff.l": ((), "G, ff |- D")}),
    Connective(
        "and", 2, "&", r"\wedge ", 2, "intersection",
        lambda full, x, y: x & y, lambda lat: lat._meet,
        {"intro.and.l": (("G, ?phi, ?psi |- D",), "G, ?phi & ?psi |- D"),
         "intro.and.r": (("G |- D, ?phi", "G' |- D', ?psi"),
                         "G, G' |- D, D', ?phi & ?psi")}),
    Connective(
        "or", 2, "|", r"\vee ", 1, "union",
        lambda full, x, y: x | y, lambda lat: lat._join,
        {"intro.or.l": (("G, ?phi |- D", "G', ?psi |- D'"),
                        "G, G', ?phi | ?psi |- D, D'"),
         "intro.or.r": (("G |- D, ?phi, ?psi",), "G |- D, ?phi | ?psi")}),
    Connective(
        "not", 1, "~", r"\neg ", 3, "complement",
        lambda full, x: full & ~x, _negation,
        # a bare involutive, order-reversing negation carries nothing more
        {"intro.not.involution.l": ((), "~~?phi |- ?phi"),
         "intro.not.involution.r": ((), "?phi |- ~~?phi"),
         "intro.not.contraposition": (("?phi |- ?psi",), "~?psi |- ~?phi")},
        via=frozenset({"impl", "ff"}),
        intro_via={"intro.not.def.l": ((), "~?phi |- ?phi -> ff"),
                   "intro.not.def.r": ((), "?phi -> ff |- ~?phi")}),
    Connective(
        "impl", 2, "->", r"\rightarrow ", 0, "implication",
        lambda full, x, y: (full & ~x) | y, lambda lat: lat.residual_table(co=False),
        {"intro.impl.l": (("G |- D, ?phi", "G', ?psi |- D'"),
                          "G, G', ?phi -> ?psi |- D, D'"),
         "intro.impl.r": (("G, ?phi |- ?psi",), "G |- D, ?phi -> ?psi")}),
    Connective(
        "coimpl", 2, "<-", r"\leftarrow ", 0, "coimplication",
        lambda full, x, y: x & ~y, lambda lat: lat.residual_table(co=True),
        {"intro.coimpl.l": (("?phi |- D, ?psi",), "?phi <- ?psi |- D"),
         "intro.coimpl.r": (("G |- D, ?phi", "G', ?psi |- D'"),
                            "G, G' |- D, D', ?phi <- ?psi")}),
)

CONNECTIVES: dict[str, Connective] = {c.name: c for c in _CONNECTIVES}

INTRO_SCHEMAS: Schemas = {name: schema for c in _CONNECTIVES
                          for name, schema in (*c.intro.items(), *c.intro_via.items())}


def connective(name: str) -> Connective:
    """The record of a connective named in a formula or a table request."""
    try:
        return CONNECTIVES[name]
    except KeyError:
        raise UnknownSymbol(f"unknown connective {name!r}") from None
