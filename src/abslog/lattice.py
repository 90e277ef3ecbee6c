"""Finite lattices with fully materialized meet/join tables.

Carriers are small (desk scale), so the order, meet and join tables are
computed eagerly at construction and validated: the order must be a
partial order, every pair of elements must have a unique glb and lub, and
a top and bottom must exist.  The other connectives' tables are built on
first use from the registry in :mod:`abslog.connectives` and cached.
Every operation is pure and the caches only ever gain the same values.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .connectives import connective
from .errors import (
    CarrierTooLarge,
    NotALattice,
    NotAPartialOrder,
    UnknownElement,
)

INVOLUTION_LIMIT = 12  # largest carrier whose involutions are enumerated


@dataclass(frozen=True)
class UnaryOpTable:
    """A named total unary operation on a lattice carrier."""

    name: str
    table: dict[str, str]


class FiniteLattice:
    """A finite bounded lattice over named elements.

    The carrier keeps declaration order (used for deterministic iteration
    and rendering).  ``unary_ops`` holds user-declared operation tables;
    a table named ``negation`` is the one the logic pipeline treats as the
    abstract negation candidate.
    """

    def __init__(self, elements, leq, meet_idx, join_idx, top, bottom,
                 unary_ops=None):
        self.elements: tuple[str, ...] = tuple(elements)
        self.index: dict[str, int] = {e: i for i, e in enumerate(self.elements)}
        self._leq: tuple[tuple[bool, ...], ...] = tuple(tuple(row) for row in leq)
        self._meet: tuple[tuple[int, ...], ...] = tuple(tuple(row) for row in meet_idx)
        self._join: tuple[tuple[int, ...], ...] = tuple(tuple(row) for row in join_idx)
        self.top: str = top
        self.bottom: str = bottom
        self.unary_ops: dict[str, UnaryOpTable] = dict(unary_ops or {})
        self._distributive: bool | None = None
        self._tables: dict[str, object] = {}
        for op in self.unary_ops.values():
            self._check_unary_total(op)

    def _check_unary_total(self, op: UnaryOpTable) -> None:
        for e in self.elements:
            if e not in op.table:
                raise UnknownElement(f"operation {op.name!r} missing entry for {e!r}")
            if op.table[e] not in self.index:
                raise UnknownElement(
                    f"operation {op.name!r} maps {e!r} outside the carrier")

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, name: str) -> bool:
        return name in self.index

    def _i(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise UnknownElement(f"unknown element {name!r}") from None

    def leq(self, a: str, b: str) -> bool:
        return self._leq[self._i(a)][self._i(b)]

    def meet(self, a: str, b: str) -> str:
        return self.elements[self._meet[self._i(a)][self._i(b)]]

    def join(self, a: str, b: str) -> str:
        return self.elements[self._join[self._i(a)][self._i(b)]]

    def is_distributive(self) -> bool:
        """Exhaustive check of a /\\ (b \\/ c) = (a /\\ b) \\/ (a /\\ c)."""
        if self._distributive is None:
            meet, join = self._meet, self._join
            self._distributive = all(
                meet[a][join[b][c]] == join[meet[a][b]][meet[a][c]]
                for a, b, c in iproduct(range(len(self)), repeat=3))
        return self._distributive

    def table(self, name: str):
        """Index table of a connective's abstract operation, built on first
        use (see :mod:`abslog.connectives`); raises :class:`NotDistributive`
        or :class:`UnknownSymbol` where the operation does not exist."""
        t = self._tables.get(name)
        if t is None:
            t = self._tables[name] = connective(name).abstract(self)
        return t

    def order_pairs(self) -> list[tuple[str, str]]:
        """All pairs (a, b) with a <= b, in declaration order."""
        out = []
        for i, a in enumerate(self.elements):
            for j, b in enumerate(self.elements):
                if self._leq[i][j]:
                    out.append((a, b))
        return out


def build_lattice(elements, order_pairs, unary_ops=None) -> FiniteLattice:
    """Build and validate a :class:`FiniteLattice`.

    The order is always the reflexive-transitive closure of
    ``order_pairs``: covering edges suffice, and a relation that is
    already a full order closes to itself.
    """
    elements = tuple(elements)
    if not elements:
        raise NotALattice("empty carrier")
    if len(set(elements)) != len(elements):
        dup = next(e for e in elements if elements.count(e) > 1)
        raise NotALattice(f"duplicate element name {dup!r}")
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    leq = [[False] * n for _ in range(n)]
    for i in range(n):
        leq[i][i] = True
    for a, b in order_pairs:
        if a not in index:
            raise UnknownElement(f"unknown element {a!r} in order pair")
        if b not in index:
            raise UnknownElement(f"unknown element {b!r} in order pair")
        leq[index[a]][index[b]] = True

    # Warshall closure over the declared pairs.
    for k in range(n):
        lk = leq[k]
        for i in range(n):
            if leq[i][k]:
                li = leq[i]
                for j in range(n):
                    if lk[j]:
                        li[j] = True

    for i in range(n):
        for j in range(i + 1, n):
            if leq[i][j] and leq[j][i]:
                raise NotAPartialOrder(
                    f"antisymmetry violated on ({elements[i]!r}, {elements[j]!r})")

    # down[k] is the bitmask of the elements below k, up[k] of those above.
    # The glb of i and j is the element whose down-set is down[i] & down[j]
    # (antisymmetry makes down-sets distinct); the lub is the dual.
    down = [sum(1 << m for m in range(n) if leq[m][k]) for k in range(n)]
    up = [sum(1 << m for m in range(n) if leq[k][m]) for k in range(n)]
    by_down = {d: k for k, d in enumerate(down)}
    by_up = {u: k for k, u in enumerate(up)}
    meet_idx = [[0] * n for _ in range(n)]
    join_idx = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            glb = by_down.get(down[i] & down[j])
            if glb is None:
                raise NotALattice(
                    f"({elements[i]!r}, {elements[j]!r}) has no unique "
                    f"greatest lower bound")
            lub = by_up.get(up[i] & up[j])
            if lub is None:
                raise NotALattice(
                    f"({elements[i]!r}, {elements[j]!r}) has no unique "
                    f"least upper bound")
            meet_idx[i][j] = meet_idx[j][i] = glb
            join_idx[i][j] = join_idx[j][i] = lub

    bot = 0
    top = 0
    for i in range(1, n):
        bot = meet_idx[bot][i]
        top = join_idx[top][i]

    return FiniteLattice(elements, leq, meet_idx, join_idx,
                         elements[top], elements[bot],
                         unary_ops=unary_ops)


def heyting_implication(lattice: FiniteLattice, a: str, b: str) -> str:
    """Relative pseudo-complement: the greatest c with a /\\ c <= b."""
    return lattice.elements[lattice.table("impl")[lattice._i(a)][lattice._i(b)]]


def co_implication(lattice: FiniteLattice, a: str, b: str) -> str:
    """Dual relative pseudo-complement: the least c with a <= b \\/ c."""
    return lattice.elements[lattice.table("coimpl")[lattice._i(a)][lattice._i(b)]]


def is_meet_irreducible(lattice: FiniteLattice, a: str) -> bool:
    """True iff a != top and no pair strictly above a meets to a."""
    ai = lattice._i(a)
    if a == lattice.top:
        return False
    n = len(lattice)
    above = [b for b in range(n) if lattice._leq[ai][b] and b != ai]
    for x in above:
        for y in above:
            if x < y and lattice._meet[x][y] == ai:
                return False
    return True


def is_join_irreducible(lattice: FiniteLattice, a: str) -> bool:
    """True iff a != bottom and no pair strictly below a joins to a."""
    ai = lattice._i(a)
    if a == lattice.bottom:
        return False
    n = len(lattice)
    below = [b for b in range(n) if lattice._leq[b][ai] and b != ai]
    for x in below:
        for y in below:
            if x < y and lattice._join[x][y] == ai:
                return False
    return True


def hasse_edges(lattice: FiniteLattice) -> list[tuple[str, str]]:
    """Covering pairs (transitive reduction of the strict order)."""
    n = len(lattice)
    out = []
    for i in range(n):
        for j in range(n):
            if i == j or not lattice._leq[i][j]:
                continue
            if any(lattice._leq[i][k] and lattice._leq[k][j]
                   for k in range(n) if k not in (i, j)):
                continue
            out.append((lattice.elements[i], lattice.elements[j]))
    return out


def find_order_reversing_involutions(lattice: FiniteLattice) -> list[UnaryOpTable]:
    """Enumerate all order-reversing involutions of the carrier.

    Such a map is automatically an order anti-automorphism, which prunes
    the backtracking hard enough for desk-scale carriers.  Raises
    :class:`CarrierTooLarge` above ``INVOLUTION_LIMIT`` elements.
    """
    n = len(lattice)
    if n > INVOLUTION_LIMIT:
        raise CarrierTooLarge(
            f"involution enumeration capped at {INVOLUTION_LIMIT} elements, got {n}")
    lq = lattice._leq
    found: list[tuple[int, ...]] = []
    assign: list[int | None] = [None] * n

    def consistent(i: int) -> bool:
        # anti-automorphism: i <= j iff n(j) <= n(i), for every assigned j
        x = assign[i]
        for j in range(n):
            y = assign[j]
            if y is None or j == i:
                continue
            if lq[i][j] != lq[y][x] or lq[j][i] != lq[x][y]:
                return False
        return True

    def extend(i: int) -> None:
        if i == n:
            found.append(tuple(assign))  # type: ignore[arg-type]
            return
        if assign[i] is not None:
            extend(i + 1)
            return
        for x in range(n):
            if x == i:
                assign[i] = i
                if consistent(i):
                    extend(i + 1)
                assign[i] = None
            elif assign[x] is None:
                # involution pairs i and x
                assign[i], assign[x] = x, i
                if consistent(i) and consistent(x):
                    extend(i + 1)
                assign[i] = assign[x] = None

    extend(0)
    tables = []
    for images in sorted(set(found)):
        tables.append(UnaryOpTable(
            name="involution",
            table={lattice.elements[i]: lattice.elements[images[i]]
                   for i in range(n)}))
    return tables
