"""Finite concrete powerset domains and concretization maps.

A universe is a finite ordered set of points: opaque atoms or integer
points drawn from a bounded window.  It names its shape by ``bounds``, a
window's ``(lo, hi)`` or ``None`` for atoms, and ``dim``, the coordinates
per point, 1 for atoms.  A 1-D window has int points; only windows with
dim >= 2 have integer-tuple points.  A concrete set is an int
*point mask*, bit j for the j-th point, a format this module alone knows:
:meth:`ConcreteUniverse.mask` encodes points and :meth:`ConcreteUniverse.span`
a run of consecutive points, :meth:`ConcreteUniverse.points_of` is the one
decoder, a concretization map is its table ``masks``, and
:class:`PointMasks` applies the registry's concrete operations, which
take the full mask and their arguments' masks, ``(full, *point masks)``.
Every computation on concrete sets runs on masks.  A :class:`ConcreteSet`,
a frozenset of a universe's points, is the decoded view: it is built only
on request and has no set operations.

Every exhaustive pair verdict, here, in ``cartesian`` and in
``proofengine``, states its pair once and runs it through one scan,
:func:`_scan`: the first failing pair is the witness, and ``checked``
counts the pairs tried up to and including it.  The order embedding and
the product embedding criterion share one reflection statement,
:func:`_reflection`.  The left adjoint exists exactly when gamma preserves
``tt`` and ``and``, and :func:`compute_left_adjoint` reads those two
verdicts of the preservation report.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import compress
from itertools import product as iproduct
from operator import or_

from .connectives import CONNECTIVES, Connective, connective, lookup
from .errors import (
    CarrierTooLarge,
    InvalidConcretization,
    NotDistributive,
    UnknownElement,
    UnknownSymbol,
)
from .lattice import FiniteLattice, hasse_edges
from .syntax import Formula, Pred, Sequent

# largest window built, in points and in coordinates per point; the
# products of ``cartesian`` have their own, smaller MAX_PRODUCT_POINTS
MAX_WINDOW_POINTS = 100_000

# a universe below this many points keeps each point's bit as a machine-word
# int; the bit table of a larger one would grow as the square of its size
_TABLE_POINTS = 64
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")  # False/True bytes to binary digits
_FLAGS = bytes.maketrans(b"01", b"\x00\x01")   # and back


class ConcreteUniverse:
    """Finite ordered point set (atoms, or an integer window of some dimension)."""

    def __init__(self, points, bounds: tuple[int, int] | None, dim: int):
        self.points: tuple = tuple(points)
        self.point_set: frozenset = frozenset(self.points)
        self.bounds = bounds      # a window's (lo, hi); None for atoms
        self.dim = dim            # coordinates per point; 1 for atoms
        self._full: ConcreteSet | None = None
        self._axis: ConcreteUniverse | None = None
        self._bits: dict | None = None
        self._digit: dict | None = None
        if not self.points:
            raise InvalidConcretization("empty universe")
        if len(self.point_set) != len(self.points):
            raise InvalidConcretization("duplicate points in universe")

    @classmethod
    def atoms(cls, names) -> "ConcreteUniverse":
        names = tuple(sorted(names))
        return cls(names, None, 1)

    @classmethod
    def window(cls, lo: int, hi: int, dim: int = 1) -> "ConcreteUniverse":
        if lo > hi:
            raise InvalidConcretization(f"empty window [{lo}, {hi}]")
        if dim < 1:
            raise InvalidConcretization(f"window dimension {dim} is below 1")
        # counted before any point is made; the dimension is bounded first so
        # that the power stays small
        if dim > MAX_WINDOW_POINTS or (hi - lo + 1) ** dim > MAX_WINDOW_POINTS:
            raise CarrierTooLarge(f"window [{lo}, {hi}] of dimension {dim} "
                                  f"exceeds {MAX_WINDOW_POINTS} points")
        axis = range(lo, hi + 1)
        if dim == 1:
            pts = tuple(axis)
        else:
            pts = tuple(iproduct(axis, repeat=dim))
        return cls(pts, (lo, hi), dim)

    def describe(self) -> str:
        if self.bounds is None:
            return "atoms " + " ".join(self.points)
        base = "window {} {}".format(*self.bounds)
        return base if self.dim == 1 else f"{base} dim {self.dim}"

    @property
    def var_names(self) -> tuple[str, ...]:
        """The object variables that predicates over this universe take:
        ``x`` on atoms and 1-D windows, ``x,y`` in 2-D, ``x1..xN`` above."""
        if self.dim > 2:
            return tuple(f"x{i + 1}" for i in range(self.dim))
        return ("x", "y")[:self.dim]

    def __len__(self) -> int:
        return len(self.points)

    def __eq__(self, other) -> bool:
        # rectangles, iota and the left adjoint compare universes that are
        # nearly always one object
        return self is other or (isinstance(other, ConcreteUniverse)
                                 and self.points == other.points)

    def __hash__(self) -> int:
        return hash(self.points)

    def full(self) -> "ConcreteSet":
        """The set of all points, built on first use and then kept."""
        if self._full is None:
            self._full = ConcreteSet(self, self.point_set)
        return self._full

    def axis(self) -> "ConcreteUniverse":
        """A window's 1-D window of one coordinate, built on first use and
        then kept, so the sets on it share one universe object; a 1-D
        window is its own axis."""
        if self.bounds is None:
            raise InvalidConcretization("only a window universe has an axis")
        if self.dim == 1:
            return self
        if self._axis is None:
            self._axis = ConcreteUniverse.window(*self.bounds)
        return self._axis

    def empty(self) -> "ConcreteSet":
        return ConcreteSet(self, frozenset())

    def mask(self, points) -> int:
        """The point mask of some points of the universe, bit j for the j-th
        point; a point given twice counts once.  Below ``_TABLE_POINTS``
        points it ORs each point's bit; a larger universe sets one flag byte
        per point and reads the flags as binary digits, highest point first,
        in time and memory linear in the points.  Either map from point to
        bit is built on first use and then kept."""
        try:
            if len(self.points) < _TABLE_POINTS:
                if self._bits is None:
                    self._bits = {p: 1 << j for j, p in enumerate(self.points)}
                return reduce(or_, map(self._bits.__getitem__, points), 0)
            if self._digit is None:  # point -> its digit's place, highest first
                self._digit = {p: j for j, p in enumerate(reversed(self.points))}
            flags = bytearray(len(self.points))
            for j in map(self._digit.__getitem__, points):
                flags[j] = 1
        except KeyError as e:
            raise InvalidConcretization(
                f"point {e.args[0]!r} is not in the universe") from None
        return int(flags.translate(_DIGITS), 2)

    def span(self, start: int, stop: int) -> int:
        """The point mask of ``points[start:stop]``."""
        return ((1 << (stop - start)) - 1) << start

    def points_of(self, mask: int):
        """The points of a mask, in universe order, selected by its binary
        digits written lowest bit first."""
        digits = format(mask, f"0{len(self.points)}b")[::-1]
        return compress(self.points, digits.encode().translate(_FLAGS))

    def subset(self, members) -> "ConcreteSet":
        return ConcreteSet(self, frozenset(members))


@dataclass(frozen=True)
class ConcreteSet:
    """Subset of a universe's points, checked to lie in it: the decoded
    view of a point mask."""

    universe: ConcreteUniverse
    members: frozenset

    def __post_init__(self):
        if not self.members <= self.universe.point_set:
            bad = sorted(self.members - self.universe.point_set, key=repr)[0]
            raise InvalidConcretization(f"point {bad!r} is not in the universe")

    def __len__(self) -> int:
        return len(self.members)


class PointMasks:
    """Formulas as int masks over a universe's points: bit j stands for the
    j-th point, a predicate's mask is its entry in ``pred_masks``, and a
    compound formula's is the registry's concrete operation on the full
    mask and its arguments' masks."""

    def __init__(self, n_points: int, pred_masks: dict[str, int]):
        self._full = (1 << n_points) - 1
        self._preds = pred_masks

    def mask(self, f: Formula) -> int:
        if isinstance(f, Pred):
            return self._preds[f.name]
        return connective(f.op).concrete(self._full, *map(self.mask, f.args))

    def holds(self, s: Sequent) -> bool:
        """No point is in every antecedent and in no succedent; the tests
        check it against ``holds_concrete`` in ``tests/concrete_oracle.py``."""
        inter = self._full
        for f in s.ante:
            inter &= self.mask(f)
        union = 0
        for f in s.succ:
            union |= self.mask(f)
        return not inter & ~union


class ConcretizationMap:
    """Total monotone map from lattice elements to concrete sets, kept as
    its table ``masks``: element name to its image's point mask."""

    def __init__(self, source: FiniteLattice, target: ConcreteUniverse,
                 masks: dict[str, int]):
        self.source = source
        self.target = target
        self.masks = dict(masks)
        full = (1 << len(target)) - 1
        for e in source.elements:
            if e not in self.masks:
                raise InvalidConcretization(f"gamma missing entry for {e!r}")
            m = self.masks[e]
            if not isinstance(m, int) or not 0 <= m <= full:
                raise InvalidConcretization(
                    f"gamma({e!r}) is not a point mask of the universe")
        for e in self.masks:
            if e not in source.index:
                raise UnknownElement(f"gamma defined on unknown element {e!r}")
        # inclusion is transitive, so monotone on the covers is monotone
        for a, b in hasse_edges(source):
            if self.masks[a] & ~self.masks[b]:
                raise InvalidConcretization(f"gamma is not monotone on ({a!r}, {b!r})")

    def __call__(self, element: str) -> ConcreteSet:
        """The element's image, decoded from its mask."""
        try:
            m = self.masks[element]
        except KeyError:
            raise UnknownElement(f"unknown element {element!r}") from None
        return self.target.subset(self.target.points_of(m))


@dataclass
class Abstraction:
    """A finite lattice packaged with its concretization map.

    ``extra_axioms`` carries additional named axiom sequents that the
    proof-system generator appends as they are; the octagon export uses it
    for pairwise infeasibility axioms.
    """

    name: str
    lattice: FiniteLattice
    gamma: ConcretizationMap
    extra_axioms: tuple[tuple[str, Sequent], ...] = ()

    def __post_init__(self):
        if self.gamma.source is not self.lattice:
            raise InvalidConcretization("gamma.source is not the packaged lattice")

    @property
    def universe(self) -> ConcreteUniverse:
        return self.gamma.target


PRESERVED = "preserved"
NOT_PRESERVED = "not_preserved"
NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True)
class PreservationStatus:
    connective: str
    state: str
    witness: tuple[str, ...] | None = None
    detail: str = ""


@dataclass
class PreservationReport:
    """Per-connective preservation verdicts for one abstraction."""

    statuses: dict[str, PreservationStatus]

    def preserved(self) -> frozenset[str]:
        return frozenset(c for c, s in self.statuses.items() if s.state == PRESERVED)

    def lines(self) -> list[str]:
        out = []
        for c in CONNECTIVES:
            s = self.statuses[c]
            if s.state == PRESERVED:
                out.append(f"{c}: preserved")
            elif s.state == NOT_PRESERVED:
                out.append(f"{c}: NOT preserved ({s.detail})")
            else:
                out.append(f"{c}: not applicable ({s.detail})")
        return out


def _status(abs_: Abstraction, c: Connective) -> PreservationStatus:
    """Compare gamma of the abstract operation with the concrete operation
    on gamma of the arguments, on point masks, for every argument tuple."""
    conn = c.name
    lat, gamma, uni = abs_.lattice, abs_.gamma.masks, abs_.universe
    full = (1 << len(uni)) - 1
    try:
        table = lat.table(conn)
    except (NotDistributive, UnknownSymbol) as e:
        return PreservationStatus(conn, NOT_APPLICABLE, None, str(e))
    for args in iproduct(lat.elements, repeat=c.arity):
        image = lat.elements[lookup(table, map(lat.index.__getitem__, args))]
        lhs = gamma[image]
        rhs = c.concrete(full, *map(gamma.__getitem__, args))
        if lhs == rhs:
            continue
        if not args:  # a constant: the element it denotes is the witness
            what = "nonempty" if not rhs else "not the whole universe"
            return PreservationStatus(conn, NOT_PRESERVED, (image,),
                                      f"gamma({image}) is {what}")
        pt = min(uni.points_of(lhs ^ rhs), key=repr)
        named = " ".join(f"{v}={e}" for v, e in zip("ab", args))
        return PreservationStatus(conn, NOT_PRESERVED, args,
                                  f"witness {named}, first differing point {pt!r}")
    return PreservationStatus(conn, PRESERVED)


def preservation_report(abs_: Abstraction) -> PreservationReport:
    """Exhaustively decide which candidate connectives gamma preserves."""
    return PreservationReport({c.name: _status(abs_, c) for c in CONNECTIVES.values()})


@dataclass
class CheckResult:
    ok: bool
    checked: int
    witness: object = None
    note: str = ""


def _scan(rows, fails) -> CheckResult:
    """Run a pair statement ``fails(u, v)`` over rows ``(u, vs, passed)``,
    the one driver of every exhaustive or sampled pair verdict: a row that
    has passed counts its ``len(vs)`` pairs, any other is tried pair by
    pair, and the first failing pair is the witness, with ``checked``
    counting the pairs tried up to and including it."""
    checked = 0
    for u, vs, passed in rows:
        if passed:
            checked += len(vs)
            continue
        for v in vs:
            checked += 1
            if fails(u, v):
                return CheckResult(False, checked, (u, v))
    return CheckResult(True, checked)


def _reflection(abs_: Abstraction, elements) -> CheckResult:
    """gamma reflects the order on ``elements``: the first pair with
    gamma(a) included in gamma(b) but a not below b fails.  Monotonicity is
    a construction invariant of the map, so this is all that can fail."""
    leq, gamma = abs_.lattice.leq, abs_.gamma.masks
    return _scan(((a, elements, False) for a in elements),
                 lambda a, b: not gamma[a] & ~gamma[b] and not leq(a, b))


@dataclass(frozen=True)
class EmbeddingResult:
    is_embedding: bool
    witness: tuple[str, str] | None = None


def check_order_embedding(abs_: Abstraction) -> EmbeddingResult:
    """a <= b iff gamma(a) included in gamma(b), over every pair."""
    res = _reflection(abs_, abs_.lattice.elements)
    return EmbeddingResult(res.ok, res.witness)


@dataclass
class AdjointResult:
    total: bool
    alpha: object = None                 # callable ConcreteSet -> element name
    witness: ConcreteSet | None = None
    reason: str = ""


def compute_left_adjoint(abs_: Abstraction) -> AdjointResult:
    """Decide existence of the abstraction map and return it as a query function.

    Between finite lattices a monotone map is a right adjoint exactly when
    it preserves all meets: the empty meet (``tt``, top maps to the whole
    universe) and binary meets (``and``), the verdicts of
    :func:`preservation_report`.  When either fails, a concrete set with
    no least over-approximation is returned as witness.
    """
    lat, gamma, uni = abs_.lattice, abs_.gamma.masks, abs_.universe
    if _status(abs_, CONNECTIVES["tt"]).state != PRESERVED:
        return AdjointResult(
            False, witness=uni.full(),
            reason=f"gamma({lat.top}) is not the whole universe, so the full "
                   "set has no over-approximation")
    meet = _status(abs_, CONNECTIVES["and"])
    if meet.state != PRESERVED:
        a, b = meet.witness
        return AdjointResult(
            False, witness=uni.subset(uni.points_of(gamma[a] & gamma[b])),
            reason=f"gamma does not preserve meet({a}, {b}); that "
                   "intersection has no least over-approximation")

    def alpha(s: ConcreteSet) -> str:
        if s.universe != uni:
            raise InvalidConcretization("alpha queried outside the universe")
        m = uni.mask(s.members)
        best = lat.top
        for e in lat.elements:
            if not m & ~gamma[e]:
                best = lat.meet(best, e)
        return best

    return AdjointResult(True, alpha=alpha)
