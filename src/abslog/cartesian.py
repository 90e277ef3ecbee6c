"""Products of abstractions and the tuple-of-sets to set-of-tuples embedding.

``iota`` sends a :class:`Rectangle`, an axis-wise tuple of sets, to its
Cartesian product; ``rectangle_closure`` (axis-wise projections) is its
left adjoint, so ``iota`` preserves all meets.  Next to the product
construction, three checks state what it rests on, on small windows:

- ``check_galois``: rectangle_closure(R) <= X iff R is included in iota(X);
- ``check_iota_preserves_meets``: iota(X meet Y) = iota(X) & iota(Y);
- ``check_iota_injective_on_nonempty``: iota is injective off empty axes.

Images are point masks, built from a rectangle's int key by ``_iota_mask``,
the one iota, once per key.  On the rectangles of one window and number of
axes the meet is the keys' ``&`` and the order is key inclusion, so the
meet and Galois checks state their theorems on keys, once each, as
``fails(u, v)``, which ``concrete._scan`` runs over rows of pairs.  A
sampled row is one pair.  An exhaustive row, one X or one region against
every rectangle, is first compared whole, in one list comparison, which is
what keeps the exhaustive checks fast.  A region's closure, the one
rectangle a check does not build itself, must have the check's shape.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from itertools import compress
from itertools import product as iproduct
from math import prod

from .concrete import (Abstraction, CheckResult, ConcreteSet, ConcreteUniverse,
                       ConcretizationMap, _reflection, _scan)
from .errors import AbslogError, CarrierTooLarge, InvalidConcretization
from .lattice import build_lattice, hasse_edges

ELEMENT_SEP = "*"
MAX_PRODUCT_CARRIER = 4096   # largest product lattice built
MAX_PRODUCT_POINTS = 10_000  # largest tuple universe built
MAX_MEET_AXIS_POINTS = 10    # exhaustive meet check: points of both axes together
MAX_GALOIS_PAIRS = 1 << 20   # exhaustive Galois check: region-rectangle pairs
MAX_INJECTIVE_AXIS_POINTS = 16  # injectivity check: points of both axes together


@dataclass(frozen=True, slots=True)
class Rectangle:
    """One concrete set per axis, kept as the axis universe they share, the
    number of axes ``dim`` and one int ``key`` packing the axes' point masks
    (:meth:`ConcreteUniverse.mask`): for n axis points, axis k's mask is
    bits (dim-1-k)*n to (dim-1-k)*n + n-1, the first axis in the high bits."""

    axis: ConcreteUniverse
    dim: int
    key: int

    def __init__(self, axes):
        axes = tuple(axes)
        if not axes:
            raise InvalidConcretization("a rectangle needs at least one axis")
        axis = axes[0].universe
        if any(a.universe != axis for a in axes):
            raise InvalidConcretization("rectangle axes live in different universes")
        _set_axis(self, axis)
        _set_dim(self, len(axes))
        _set_key(self, _rectangle(axis, [axis.mask(a.members) for a in axes]).key)

    @property
    def masks(self) -> tuple[int, ...]:
        """The axis point masks, first axis first, decoded on each request;
        the first axis takes every bit above the others, so the masks
        :func:`_rectangle` packs are given back as they were."""
        n, key, last = len(self.axis.points), self.key, self.dim - 1
        low = (1 << n) - 1
        return (key >> last * n, *[key >> k * n & low for k in reversed(range(last))])

    @property
    def axes(self) -> tuple[ConcreteSet, ...]:
        """The axes as sets of the axis universe, decoded on each request."""
        axis = self.axis
        return tuple([axis.subset(axis.points_of(m)) for m in self.masks])

    def _check(self, other: "Rectangle") -> None:
        if self.axis != other.axis:
            raise InvalidConcretization("rectangles live on different axes")
        if self.dim != other.dim:
            raise InvalidConcretization("rectangles have different numbers of axes")

    def componentwise_leq(self, other: "Rectangle") -> bool:
        self._check(other)
        return not self.key & ~other.key

    def meet(self, other: "Rectangle") -> "Rectangle":
        self._check(other)
        return _keyed(self.axis, self.dim, self.key & other.key)

    def __repr__(self) -> str:
        sets = ["{" + ", ".join(map(repr, self.axis.points_of(m))) + "}"
                for m in self.masks]
        return f"Rectangle({' x '.join(sets)})"


# the frozen slots, written without the raising __setattr__
_set_axis, _set_dim, _set_key = (
    Rectangle.axis.__set__, Rectangle.dim.__set__, Rectangle.key.__set__)


def _keyed(axis: ConcreteUniverse, dim: int, key: int) -> Rectangle:
    """A rectangle from its key, which is not checked again."""
    out = object.__new__(Rectangle)
    _set_axis(out, axis)
    _set_dim(out, dim)
    _set_key(out, key)
    return out


def _rectangle(axis: ConcreteUniverse, masks) -> Rectangle:
    """A rectangle from masks of one axis universe, which are not checked
    again, packed into its key with the first axis in the high bits."""
    n, key = len(axis.points), 0
    for m in masks:
        key = key << n | m
    return _keyed(axis, len(masks), key)


def tuple_universe(axis_universes) -> ConcreteUniverse:
    """The product universe; all axes must share one integer window.

    A one-axis product uses the axis window itself, with int points; two or
    more axes give a window of that dimension, with tuple points."""
    axis_universes = list(axis_universes)
    lo, hi = _shared_window(axis_universes)
    return ConcreteUniverse.window(lo, hi, dim=len(axis_universes))


def _shared_window(axis_universes: list[ConcreteUniverse]) -> tuple[int, int]:
    """The one integer window every axis lives on."""
    if not axis_universes:
        raise InvalidConcretization("a tuple universe needs at least one axis")
    windows = set()
    for u in axis_universes:
        if u.bounds is None or u.dim != 1:
            raise InvalidConcretization(
                "product axes must be one-dimensional integer windows")
        windows.add(u.bounds)
    if len(windows) != 1:
        raise InvalidConcretization(f"axis windows differ: {sorted(windows)}")
    return windows.pop()


def _iota_mask(rect: Rectangle, target: ConcreteUniverse) -> int:
    """The point mask of iota(rect) on ``target``, a window with the
    rectangle's axis window and one coordinate per axis.  The key is read n
    bits at a time, from the last axis on: the image so far, ``width``
    points wide, is copied shifted by i * width for each point i of the
    axis and the copies are ored, in the window's own point order."""
    axis = target.axis()
    if rect.axis != axis or rect.dim != target.dim:
        raise InvalidConcretization(
            f"{rect!r} is not in the universe {target.describe()}")
    n = len(axis.points)
    image, width, key = 1, 1, rect.key
    for _ in range(rect.dim):
        # the copies do not overlap, so their sum is their or
        image = sum([image << i * width for i in range(n) if key >> i & 1])
        width *= n
        key >>= n
    return image


def iota(rect: Rectangle, target: ConcreteUniverse) -> ConcreteSet:
    """Cartesian product of the axes, as a set of ``target``'s points."""
    return target.subset(target.points_of(_iota_mask(rect, target)))


def rectangle_closure(r: ConcreteSet) -> Rectangle:
    """Axis-wise projections: the smallest rectangle containing r.

    The projections live on the universe's kept axis window
    (:meth:`ConcreteUniverse.axis`), the axes of the checks below.  On a
    1-D window the only projection is the set itself."""
    uni = r.universe
    if uni.bounds is None:
        raise InvalidConcretization("rectangle closure needs a window universe")
    dim, axis = uni.dim, uni.axis()
    if dim == 1:
        return _keyed(axis, 1, axis.mask(r.members))
    # a coordinate of a point of r is a point of the axis window; the mask
    # of a column counts a repeated coordinate once
    columns = list(zip(*r.members)) or [()] * dim  # an empty region: empty axes
    return _rectangle(axis, list(map(axis.mask, columns)))


@dataclass
class ProductAbstraction:
    components: tuple[Abstraction, ...]
    abstraction: Abstraction  # composite, over the tuple universe


def product(components) -> ProductAbstraction:
    """Componentwise product lattice with composite gamma = iota after gamma'."""
    components = tuple(components)
    if not components:
        raise InvalidConcretization("a product needs at least one component")
    for c in components:  # joined names, which the product criterion splits
        for e in c.lattice.elements:
            if ELEMENT_SEP in e:
                raise InvalidConcretization(f"element {e!r} of {c.name} holds the "
                                            f"product separator {ELEMENT_SEP!r}")
    size = prod(len(c.lattice.elements) for c in components)
    if size > MAX_PRODUCT_CARRIER:
        raise CarrierTooLarge(f"product carrier {size} exceeds {MAX_PRODUCT_CARRIER}")
    # counted from the axes before any point is built
    lo, hi = _shared_window([c.universe for c in components])
    points = (hi - lo + 1) ** len(components)
    if points > MAX_PRODUCT_POINTS:
        raise CarrierTooLarge(f"tuple universe {points} exceeds {MAX_PRODUCT_POINTS}")
    uni = ConcreteUniverse.window(lo, hi, dim=len(components))

    # the componentwise order is generated by its covers: one component
    # steps up one cover while the others stay put
    lattices = [c.lattice for c in components]
    tuples = list(iproduct(*(l.elements for l in lattices)))
    covers = [(ELEMENT_SEP.join(t), ELEMENT_SEP.join((*t[:k], b, *t[k + 1:])))
              for k, l in enumerate(lattices) for a, b in hasse_edges(l)
              for t in tuples if t[k] == a]
    names = [ELEMENT_SEP.join(t) for t in tuples]
    lattice = build_lattice(names, covers)

    # each composite image is iota of the component masks: every component
    # lives on a window equal to the tuple window's axis
    axis, parts = uni.axis(), [c.gamma.masks for c in components]
    masks = {}
    for t, nm in zip(tuples, names):
        rect = _rectangle(axis, [p[e] for p, e in zip(parts, t)])
        masks[nm] = _iota_mask(rect, uni)
    gamma = ConcretizationMap(lattice, uni, masks)
    abs_ = Abstraction(ELEMENT_SEP.join(c.name for c in components), lattice, gamma)
    return ProductAbstraction(components, abs_)


# --- exhaustive / sampled checks ---------------------------------------------


def _all_rectangles(axis: ConcreteUniverse, dim: int):
    """Every rectangle of ``dim`` axes on an axis window, in key order."""
    for key in range(1 << len(axis.points) * dim):
        yield _keyed(axis, dim, key)


def _imager(target: ConcreteUniverse):
    """iota as a map from a key of the target's shape to its point mask,
    computed by ``_iota_mask`` on a key's first request and then kept."""
    axis, dim = target.axis(), target.dim
    return cache(lambda key: _iota_mask(_keyed(axis, dim, key), target))


def _sampler(target: ConcreteUniverse, sample: int, rng_seed: int):
    """The random draw of a sampled check, and its rectangle draw: each axis
    point is in with probability 1/2, point by point and axis by axis, and
    draw j of axis k sets bit (dim-1-k)*n + j of the key."""
    if sample < 1:
        raise AbslogError(f"a sampled check needs at least 1 sample, got {sample}")
    random_ = random.Random(rng_seed).random
    axis = target.axis()
    n, dim = len(axis), target.dim
    bits = [1 << k * n + j for k in reversed(range(dim)) for j in range(n)]

    def draw() -> Rectangle:
        return _keyed(axis, dim, sum(compress(bits, [random_() < 0.5 for _ in bits])))

    return random_, draw


def check_galois(axis_windows=((0, 2), (0, 2)), sample: int | None = None,
                 rng_seed: int = 20240811) -> CheckResult:
    """rectangle_closure(R) <= X iff R is included in iota(X), for every
    region R and rectangle X of a small window or ``sample`` (>= 1) random
    pairs.  The exhaustive check refuses more than MAX_GALOIS_PAIRS pairs
    before it enumerates any; its row precheck orders each distinct closure
    key against every rectangle once."""
    target = tuple_universe(ConcreteUniverse.window(lo, hi) for lo, hi in axis_windows)
    image = _imager(target)
    axis, dim = target.axis(), target.dim
    shape = _keyed(axis, dim, 0)

    def closed(r: ConcreteSet) -> int:
        """The key of r's closure, refused unless of the check's shape."""
        c = rectangle_closure(r)
        shape._check(c)
        return c.key

    def fails(r: ConcreteSet, x: Rectangle) -> bool:
        rm = target.mask(r.members)
        return (not closed(r) & ~x.key) != (rm & image(x.key) == rm)

    if sample is not None:
        random_, draw = _sampler(target, sample, rng_seed)
        pts = target.points
        return _scan(((target.subset(compress(pts, [random_() < 0.4 for _ in pts])),
                       (draw(),), False) for _ in range(sample)), fails)
    if 1 << len(target) + len(axis) * dim > MAX_GALOIS_PAIRS:  # regions x rectangles
        raise CarrierTooLarge(
            f"exhaustive Galois check needs at most {MAX_GALOIS_PAIRS} pairs, got "
            f"2^{len(target)} regions x 2^{len(axis) * dim} rectangles; pass sample=")
    rects = list(_all_rectangles(axis, dim))
    ims = [image(x.key) for x in rects]
    orders: dict[int, list[bool]] = {}  # closure key -> its order row

    def rows():
        for rm in range(1 << len(target)):  # every region, by its mask
            r = target.subset(target.points_of(rm))
            c = closed(r)
            row = orders.get(c)
            if row is None:
                row = orders[c] = [not c & ~x.key for x in rects]
            yield r, rects, row == [rm & ix == rm for ix in ims]

    return _scan(rows(), fails)


def check_iota_preserves_meets(axis_windows=((0, 4), (0, 4)),
                               sample: int | None = None,
                               rng_seed: int = 20240811) -> CheckResult:
    """iota(X meet Y) = iota(X) & iota(Y), for every pair of rectangles on
    two small axes or ``sample`` (>= 1) random pairs.  The exhaustive check
    refuses more than MAX_MEET_AXIS_POINTS points before it enumerates any
    rectangle; its row precheck reads the meets' images from the list of
    images, which the rectangles' key order indexes by key."""
    target = tuple_universe(ConcreteUniverse.window(lo, hi) for lo, hi in axis_windows)
    image = _imager(target)

    def fails(x: Rectangle, y: Rectangle) -> bool:
        return image(x.key & y.key) != image(x.key) & image(y.key)

    if sample is not None:
        _, draw = _sampler(target, sample, rng_seed)
        return _scan(((draw(), (draw(),), False) for _ in range(sample)), fails)
    axis, dim = target.axis(), len(axis_windows)
    points = len(axis) * dim
    if points > MAX_MEET_AXIS_POINTS or dim != 2:
        raise CarrierTooLarge(
            f"exhaustive meet check needs two axes with at most {MAX_MEET_AXIS_POINTS}"
            f" points in all, got {dim} axes with {points} points; pass sample=")
    rects = list(_all_rectangles(axis, dim))
    ims = [image(x.key) for x in rects]
    keys = range(len(rects))

    def rows():
        for x, ix in zip(rects, ims):
            k = x.key
            yield x, rects, [ims[k & y] for y in keys] == [ix & iy for iy in ims]

    return _scan(rows(), fails)


def check_iota_injective_on_nonempty(axis_window=(0, 3)) -> CheckResult:
    """iota is injective on tuples of nonempty axes; every collision
    involves an empty axis (everything collapses to the empty set).  All
    2^(2n) rectangles of n-point axes are enumerated, so more than
    MAX_INJECTIVE_AXIS_POINTS points on the two axes are refused first."""
    lo, hi = axis_window
    n = hi - lo + 1
    if 2 * n > MAX_INJECTIVE_AXIS_POINTS:
        raise CarrierTooLarge(
            f"injectivity check needs two axes with at most "
            f"{MAX_INJECTIVE_AXIS_POINTS} points in all, got {2 * n} points")
    target = ConcreteUniverse.window(lo, hi, dim=2)
    low = (1 << n) - 1
    seen: dict[int, Rectangle] = {}  # image mask -> the first rectangle
    collisions = 0
    for checked, rect in enumerate(_all_rectangles(target.axis(), 2), 1):
        image = _iota_mask(rect, target)
        if image in seen:
            other = seen[image]
            # no axis of either is empty: both halves of both keys are nonzero
            if all(k & low and k >> n for k in (rect.key, other.key)):
                return CheckResult(False, checked, (rect, other))
            collisions += 1
        else:
            seen[image] = rect
    return CheckResult(True, checked, note=f"{collisions} empty-axis collisions")


def product_embedding_criterion(pa: ProductAbstraction) -> CheckResult:
    """Composite gamma reflects the componentwise order on the guarded
    sublattice (all component images nonempty): the order embedding's
    reflection statement, run on the guarded elements only.  An empty
    component image collapses the whole tuple to the empty set; the note
    counts such elements rather than reporting an embedding failure."""
    elements = pa.abstraction.lattice.elements
    parts = [c.gamma.masks for c in pa.components]
    guarded = [name for name in elements
               if all(m[p] for m, p in zip(parts, name.split(ELEMENT_SEP)))]
    res = _reflection(pa.abstraction, guarded)
    if len(guarded) < len(elements):
        res.note = (f"{len(elements) - len(guarded)} elements collapse through "
                    "an empty axis")
    return res
