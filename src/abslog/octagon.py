"""Symbolic octagon predicates  +/-x +/-y >= c  over a truncated constant window.

Constants live in the window [-C+1, C], which is closed under the
complement map c -> -c+1, so negation is a total involution on the
carrier.  The concrete side is a finite grid [-N, N]^2 with the guard
N >= 4C: every inclusion and incomparability that holds over the full
integer plane is then witnessed on the grid.

Two predicates are disjoint exactly when their slopes are opposite and
their constants sum above zero.  With t = sx*x + sy*y such a pair reads
t >= c1 and t <= -c2, and t takes every integer value in [-2N, 2N] on
the grid, a range that holds the whole window.  Equal slopes give nested
half-planes.  Two slopes that are neither equal nor opposite share one
sign, and the grid point with that coordinate at +/-N and the other at 0
satisfies both, since N >= C.  So the rule holds over the integer plane
and over the grid alike.

In each grid column an element holds on one run of consecutive points.
:func:`_grid_mask` encodes those runs as a point mask with
:meth:`~abslog.concrete.ConcreteUniverse.span`: the export hands these
masks to gamma as its table, and the conjunction witness compares them and
decodes a separating point with
:meth:`~abslog.concrete.ConcreteUniverse.points_of`, so neither builds a
set of grid points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .concrete import Abstraction, ConcreteUniverse, ConcretizationMap
from .errors import GridGuardViolated, InvalidNegation, UnknownElement, WindowOverflow
from .lattice import (
    FiniteLattice,
    UnaryOpTable,
    build_lattice,
    find_order_reversing_involutions,
    is_join_irreducible,
    is_meet_irreducible,
)
from .syntax import Compound, Pred, Sequent

# slope order fixed for deterministic carriers and names
SLOPES: tuple[tuple[int, int], ...] = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _sgn(v: int) -> str:
    return "+" if v > 0 else "-"


@dataclass(frozen=True, order=True)
class OctPredicate:
    """The constraint  sx*x + sy*y >= c  with sx, sy in {+1, -1};
    :func:`_runs` evaluates it on the grid."""

    sx: int
    sy: int
    c: int

    @property
    def name(self) -> str:
        return f"p:{_sgn(self.sx)}x{_sgn(self.sy)}y>={self.c}"


def window_constants(window_c: int) -> range:
    """The constant window [-C+1, C]."""
    return range(-window_c + 1, window_c + 1)


def oct_complement(p: OctPredicate, window_c: int) -> OctPredicate:
    """Pointwise set complement: flip both signs, send c to -c+1."""
    nc = -p.c + 1
    if nc not in window_constants(window_c):
        raise WindowOverflow(f"complement constant {nc} leaves the window")
    return OctPredicate(-p.sx, -p.sy, nc)


@dataclass
class OctLattice:
    """Top, bottom and four disjoint chains of half-plane predicates.

    The carrier and the name index are built once, with the lattice; the
    :class:`FiniteLattice` is built on first use (:func:`to_finite_lattice`)."""

    window_c: int
    predicates: tuple[OctPredicate, ...]
    carrier: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _by_name: dict[str, OctPredicate] = field(init=False, repr=False, compare=False)
    _finite: FiniteLattice | None = field(default=None, init=False, repr=False,
                                          compare=False)

    def __post_init__(self):
        names = tuple(p.name for p in self.predicates)
        self.carrier = ("bot", "top") + names
        self._by_name = dict(zip(names, self.predicates))

    @classmethod
    def build(cls, window_c: int) -> "OctLattice":
        if window_c < 1:
            raise WindowOverflow("the window parameter must be at least 1")
        preds = tuple(OctPredicate(sx, sy, c)
                      for (sx, sy) in SLOPES for c in window_constants(window_c))
        return cls(window_c, preds)

    def by_name(self, name: str) -> OctPredicate:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownElement(f"unknown octagon element {name!r}") from None


def oct_leq(lat: OctLattice, a: str, b: str) -> bool:
    """bot below everything, top above; same slope compares by constant
    (a larger threshold cuts a smaller half-plane); distinct slopes are
    incomparable."""
    if a == "bot" or b == "top":
        return True
    if a == "top":
        return b == "top"
    if b == "bot":
        return a == "bot"
    pa, pb = lat.by_name(a), lat.by_name(b)
    return (pa.sx, pa.sy) == (pb.sx, pb.sy) and pa.c >= pb.c


def disjoint(p: OctPredicate, q: OctPredicate) -> bool:
    """True iff no integer point satisfies both: opposite slopes whose
    constants sum above zero (see the module docstring)."""
    return (p.sx, p.sy) == (-q.sx, -q.sy) and p.c + q.c > 0


def grid_universe(grid_n: int) -> ConcreteUniverse:
    return ConcreteUniverse.window(-grid_n, grid_n, dim=2)


def _runs(lat: OctLattice, element: OctPredicate | str,
          grid: ConcreteUniverse) -> list[tuple[int, int]]:
    """The ``(start, stop)`` index runs into ``grid.points`` where an element
    holds, one per column at most: a predicate holds where
    sx*x + sy*y >= c, which in each column x is one y-range."""
    if element == "top":
        return [(0, len(grid))]
    if element == "bot":
        return []
    p = lat.by_name(element) if isinstance(element, str) else element
    sx, sy, c = p.sx, p.sy, p.c
    lo, hi = grid.bounds
    width = hi - lo + 1  # column by column: (x, y) is at (x - lo) * width + y - lo
    runs = []
    for x in range(lo, hi + 1):
        t = c - sx * x  # the column's points with sy*y >= t
        y0, y1 = (max(t, lo), hi) if sy > 0 else (lo, min(-t, hi))
        if y0 <= y1:
            start = (x - lo) * width - lo
            runs.append((start + y0, start + y1 + 1))
    return runs


def _grid_mask(lat: OctLattice, element: OctPredicate | str,
               grid: ConcreteUniverse) -> int:
    """The point mask of the grid points where an element holds, built run
    by run."""
    mask = 0
    for start, stop in _runs(lat, element, grid):
        mask |= grid.span(start, stop)
    return mask


def infeasible_pairs(lat: OctLattice) -> list[tuple[OctPredicate, OctPredicate]]:
    """All unordered predicate pairs with empty planar intersection."""
    return [(p, q) for p, q in combinations(lat.predicates, 2) if disjoint(p, q)]


def hemisphere_negation(lat: OctLattice) -> UnaryOpTable:
    """Swap top/bottom and send each predicate to its set complement.

    Checked here to be an involution and order-reversing; grid agreement
    with the pointwise complement is exercised by the verification suite.
    """
    table = {"top": "bot", "bot": "top"}
    for p in lat.predicates:
        table[p.name] = oct_complement(p, lat.window_c).name
    for name, image in table.items():
        if image not in table:
            raise UnknownElement(
                f"the complement {image!r} of {name!r} is not in the carrier")
        if table[image] != name:
            raise InvalidNegation(f"negation is not an involution on {name!r}")
    for a in lat.carrier:
        for b in lat.carrier:
            if oct_leq(lat, a, b) and not oct_leq(lat, table[b], table[a]):
                raise InvalidNegation(
                    f"negation is not order-reversing on ({a!r}, {b!r})")
    return UnaryOpTable("negation", table)


def to_finite_lattice(lat: OctLattice) -> FiniteLattice:
    """The lattice with its negation table, built on first use and then kept
    on ``lat``, which the export and the irreducibility check share."""
    if lat._finite is None:
        pairs = [(a, b) for a in lat.carrier for b in lat.carrier
                 if a != b and oct_leq(lat, a, b)]
        lat._finite = build_lattice(lat.carrier, pairs,
                                    unary_ops={"negation": hemisphere_negation(lat)})
    return lat._finite


def export_abstraction(lat: OctLattice, grid_n: int) -> Abstraction:
    """Realize the octagon lattice over the finite grid for the generic
    pipeline, including one infeasibility axiom per infeasible pair."""
    if grid_n < 4 * lat.window_c:
        raise GridGuardViolated(
            f"grid N = {grid_n} violates the guard N >= 4C = {4 * lat.window_c}")
    finite = to_finite_lattice(lat)
    uni = grid_universe(grid_n)
    masks = {name: _grid_mask(lat, name, uni) for name in lat.carrier}
    gamma = ConcretizationMap(finite, uni, masks)
    ff = (Compound("ff"),)
    axioms = tuple((f"axiom.{i:03d}", Sequent((Pred(p.name), Pred(q.name)), ff))
                   for i, (p, q) in enumerate(infeasible_pairs(lat)))
    return Abstraction(f"octagon-c{lat.window_c}", finite, gamma, extra_axioms=axioms)


def verify_irreducibility(lat: OctLattice) -> bool:
    """Every element that is neither top nor bottom is both meet- and
    join-irreducible."""
    finite = to_finite_lattice(lat)
    return all(
        is_meet_irreducible(finite, p.name) and is_join_irreducible(finite, p.name)
        for p in lat.predicates)


@dataclass
class ConjunctionWitness:
    p: OctPredicate
    q: OctPredicate
    grid_n: int
    # candidate name -> a grid point separating gamma(candidate) from
    # gamma(p) & gamma(q)
    separations: dict[str, tuple[int, int]]

    @property
    def complete(self) -> bool:
        return bool(self.separations)


def conjunction_nonpreservation_witness(window_c: int) -> ConjunctionWitness:
    """No carrier element concretizes to gamma(p) & gamma(q) for the
    quarter-plane pair p: x+y >= 0, q: x-y >= 0; for every candidate
    element a distinguishing grid point (N = 4C) is produced.
    """
    lat = OctLattice.build(window_c)
    p, q = OctPredicate(1, 1, 0), OctPredicate(1, -1, 0)
    grid_n = 4 * window_c
    grid = grid_universe(grid_n)
    target = _grid_mask(lat, p, grid) & _grid_mask(lat, q, grid)
    separations: dict[str, tuple[int, int]] = {}
    for name in lat.carrier:
        diff = _grid_mask(lat, name, grid) ^ target
        if not diff:
            return ConjunctionWitness(p, q, grid_n, {})
        # a window's points are in lexicographic order, so the first is least
        separations[name] = next(grid.points_of(diff))
    return ConjunctionWitness(p, q, grid_n, separations)


@dataclass
class DegenerateModelReport:
    involution_ok: bool
    order_reversing_ok: bool
    distinct_from_octagons: bool
    swapped_model_found: bool

    @property
    def ok(self) -> bool:
        return (self.involution_ok and self.order_reversing_ok
                and self.distinct_from_octagons and self.swapped_model_found)


def degenerate_model_check() -> DegenerateModelReport:
    """The four-element lattice with self-negating middles satisfies the
    involution and order-reversal axioms, so negation-only logic admits it
    as a model; it is not the shape of any truncated octagon lattice."""
    dia = build_lattice(
        ["bot", "A", "B", "top"],
        [("bot", "A"), ("bot", "B"), ("A", "top"), ("B", "top")])
    neg = {"top": "bot", "bot": "top", "A": "A", "B": "B"}
    involution_ok = all(neg[neg[a]] == a for a in dia.elements)
    order_reversing_ok = all(
        dia.leq(neg[b], neg[a])
        for a in dia.elements for b in dia.elements if dia.leq(a, b))
    # carrier sizes 2 + 8C never equal 4 for C >= 1
    distinct = all(4 != 2 + 8 * c for c in range(1, 65))
    involutions = find_order_reversing_involutions(dia)
    tables = [t.table for t in involutions]
    swapped = {"top": "bot", "bot": "top", "A": "B", "B": "A"}
    return DegenerateModelReport(
        involution_ok, order_reversing_ok, distinct,
        neg in tables and swapped in tables)
