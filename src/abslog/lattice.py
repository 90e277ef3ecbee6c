"""Finite lattices, with the order kept as down-set and up-set bitmasks.

Carriers are small (desk scale).  The order is stored once, as two int
masks per element: bit m of ``_down[k]`` is set iff m <= k, and bit m of
``_up[k]`` iff k <= m, so the down-set rows are the bit-matrix transpose
of the up-set rows (:func:`_transpose`).  The meet and join tables are
computed eagerly at construction and validated: the order must be a
partial order, every pair of elements must have a unique glb and lub, and
a top and bottom must exist.  The other connectives' tables are built on
first use from the registry in :mod:`abslog.connectives` and cached.
Every operation is pure and the caches only ever gain the same values.

Every other fact is read off the masks and the join-irreducibles J,
computed once (Davey & Priestley, *Introduction to Lattices and Order*,
ch. 8 and 10).  a != bottom is join-irreducible iff its strict down-set
``_down[a] & ~(1 << a)`` is some element's down-set; meet-irreducibility
is the dual.  Write jd[a] = ``_down[a]`` & J, which determines a.  The
lattice is distributive iff every j in J is join-prime, that is
jd[a \\/ b] == jd[a] | jd[b] for all a, b; then, with S = jd[a] & ~jd[b],

    J(a -> b) = J minus the up-closure of S in J,
    J(a <- b) = the down-closure of S in J,

each of which is jd of exactly one element (Birkhoff).
"""

from __future__ import annotations

from dataclasses import dataclass

from .connectives import connective
from .errors import (
    CarrierTooLarge,
    NotALattice,
    NotAPartialOrder,
    NotDistributive,
    UnknownElement,
)

INVOLUTION_LIMIT = 12  # largest carrier whose involutions are enumerated


def bits(mask: int):
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _transpose(rows, width: int) -> list[int]:
    """The ``width`` bit columns of a nonempty bit matrix given by its rows,
    each below ``1 << width``: bit j of column i is bit i of ``rows[j]``.
    The rows are written once, last row first, as one string of ``width``
    binary digits each, so column i is every ``width``-th digit, highest row
    first: one slice and one ``int`` parse per column, where setting bits one
    at a time would copy the growing column once per bit."""
    spec = f"0{width}b"
    digits = "".join([format(r, spec) for r in reversed(rows)])
    return [int(digits[width - 1 - i::width], 2) for i in range(width)]


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
    abstract negation candidate.  Built by :func:`build_lattice`.
    """

    def __init__(self, elements, down, up, meet_idx, join_idx, unary_ops=None):
        self.elements: tuple[str, ...] = tuple(elements)
        self.index: dict[str, int] = {e: i for i, e in enumerate(self.elements)}
        self._down: tuple[int, ...] = tuple(down)
        self._up: tuple[int, ...] = tuple(up)
        self._meet: tuple[tuple[int, ...], ...] = tuple(tuple(row) for row in meet_idx)
        self._join: tuple[tuple[int, ...], ...] = tuple(tuple(row) for row in join_idx)
        full = (1 << len(self.elements)) - 1
        self.top: str = self.elements[self._down.index(full)]
        self.bottom: str = self.elements[self._up.index(full)]
        downs, ups = set(self._down), set(self._up)
        self._ji = sum(1 << a for a, d in enumerate(self._down) if d & ~(1 << a) in downs)
        self._mi = sum(1 << a for a, u in enumerate(self._up) if u & ~(1 << a) in ups)
        self._jd = tuple(d & self._ji for d in self._down)
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
        return bool(self._up[self._i(a)] >> self._i(b) & 1)

    def meet(self, a: str, b: str) -> str:
        return self.elements[self._meet[self._i(a)][self._i(b)]]

    def join(self, a: str, b: str) -> str:
        return self.elements[self._join[self._i(a)][self._i(b)]]

    def is_distributive(self) -> bool:
        """Every join-irreducible is join-prime: jd[a \\/ b] == jd[a] | jd[b]."""
        if self._distributive is None:
            jd = self._jd
            self._distributive = all(jd[j] == ja | jb for ja, row in zip(jd, self._join)
                                     for jb, j in zip(jd, row))
        return self._distributive

    def residual_table(self, co: bool):
        """The Heyting table (a -> b, the greatest c with a /\\ c <= b) or,
        with ``co``, the co-Heyting table (a <- b, the least c with
        a <= b \\/ c), read off J as in the module docstring.  Raises
        :class:`NotDistributive` where neither exists."""
        if not self.is_distributive():
            raise NotDistributive("lattice not distributive")
        ji, jd = self._ji, self._jd
        by_jd = {d: k for k, d in enumerate(jd)}
        closure = jd if co else [u & ji for u in self._up]
        # the closure of a set S of join-irreducibles, memoised on S: that of
        # S without its lowest bit, OR that bit's closure (O(1) on a chain)
        closed = {0: 0}

        def close(s: int) -> int:
            stack = []
            while s not in closed:
                stack.append(s)
                s &= s - 1
            c = closed[s]
            for t in reversed(stack):
                c = closed[t] = c | closure[(t & -t).bit_length() - 1]
            return c

        rows = []
        for da in jd:
            row = []
            for db in jd:
                s = close(da & ~db)
                row.append(by_jd[s if co else ji ^ s])
            rows.append(tuple(row))
        return tuple(rows)

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
        e = self.elements
        return [(e[i], e[j]) for i, u in enumerate(self._up) for j in bits(u)]


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
    up = [1 << i for i in range(n)]
    for a, b in order_pairs:
        if a not in index:
            raise UnknownElement(f"unknown element {a!r} in order pair")
        if b not in index:
            raise UnknownElement(f"unknown element {b!r} in order pair")
        up[index[a]] |= 1 << index[b]

    # Warshall closure on the up-set rows: what is above k is above
    # everything below k.
    for k in range(n):
        uk = up[k]
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= uk
    # column j of the up-set rows is the set of elements below j
    down = _transpose(up, n)

    # a cycle through i and some j < i was already reported on row j, so
    # the lowest bit names i's lowest partner
    for i in range(n):
        cycle = up[i] & down[i] & ~(1 << i)
        if cycle:
            j = next(bits(cycle))
            raise NotAPartialOrder(
                f"antisymmetry violated on ({elements[i]!r}, {elements[j]!r})")

    # The glb of i and j is the element whose down-set is down[i] & down[j]
    # (antisymmetry makes down-sets distinct); the lub is the dual.
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

    return FiniteLattice(elements, down, up, meet_idx, join_idx, unary_ops=unary_ops)


def heyting_implication(lattice: FiniteLattice, a: str, b: str) -> str:
    """Relative pseudo-complement: the greatest c with a /\\ c <= b."""
    return lattice.elements[lattice.table("impl")[lattice._i(a)][lattice._i(b)]]


def co_implication(lattice: FiniteLattice, a: str, b: str) -> str:
    """Dual relative pseudo-complement: the least c with a <= b \\/ c."""
    return lattice.elements[lattice.table("coimpl")[lattice._i(a)][lattice._i(b)]]


def is_meet_irreducible(lattice: FiniteLattice, a: str) -> bool:
    """True iff a != top and a is the meet of no two elements strictly above it."""
    return bool(lattice._mi >> lattice._i(a) & 1)


def is_join_irreducible(lattice: FiniteLattice, a: str) -> bool:
    """True iff a != bottom and a is the join of no two elements strictly below it."""
    return bool(lattice._ji >> lattice._i(a) & 1)


def hasse_edges(lattice: FiniteLattice) -> list[tuple[str, str]]:
    """Covering pairs (transitive reduction of the strict order): i is
    covered by j iff i and j are all of the interval [i, j]."""
    e, down = lattice.elements, lattice._down
    return [(e[i], e[j]) for i, u in enumerate(lattice._up) for j in bits(u)
            if (u & down[j]).bit_count() == 2]


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
    up = lattice._up
    found: list[tuple[int, ...]] = []
    assign: list[int | None] = [None] * n

    def consistent(i: int) -> bool:
        # anti-automorphism: i <= j iff n(j) <= n(i), for every assigned j
        x = assign[i]
        for j in range(n):
            y = assign[j]
            if y is None or j == i:
                continue
            if (up[i] >> j & 1 != up[y] >> x & 1
                    or up[j] >> i & 1 != up[x] >> y & 1):
                return False
        return True

    def extend(i: int) -> None:
        while i < n and assign[i] is not None:
            i += 1
        if i == n:
            found.append(tuple(assign))  # type: ignore[arg-type]
            return
        # every element below i is assigned, so i pairs with itself (a
        # fixed point) or with a free x above it
        for x in range(i, n):
            if assign[x] is None:
                assign[i], assign[x] = x, i
                if consistent(i) and consistent(x):
                    extend(i + 1)
                assign[i] = assign[x] = None

    # two tables first differ at a position the search branched on (one
    # filled as a partner holds that earlier partner, where they agree), and
    # each branch tries its images in ascending order: the tables come out
    # sorted, each once
    extend(0)
    e = lattice.elements
    return [UnaryOpTable("involution", {e[i]: e[x] for i, x in enumerate(images)})
            for images in found]
