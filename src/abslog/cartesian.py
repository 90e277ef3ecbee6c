"""Products of abstractions and the tuple-of-sets to set-of-tuples embedding.

``iota`` sends an axis-wise tuple of sets to its Cartesian product;
``rectangle_closure`` (axis-wise projections) is its left adjoint, so
``iota`` preserves all meets.  Exhaustive small-window checks of the
adjunction, meet preservation and injectivity-off-empty-axes live here
alongside the product construction itself.

A :class:`Rectangle` is a slotted frozen value: its axis window, its
number of axes ``dim`` and one int ``key`` that packs one point mask per
axis (:meth:`ConcreteUniverse.mask`).  For n axis points, axis k's mask is
bits (dim-1-k)*n to (dim-1-k)*n + n-1 of the key, so the first axis holds
the high bits and the keys 0 to 2^(n*dim) - 1, in order, are every
rectangle with the first axis slowest.  Its meet is one ``&`` of the keys
and its order one mask test, ``not x & ~y``; both refuse a rectangle on
another axis window or with another number of axes.  ``masks`` and
``axes`` decode the key on request, and ``rectangle_closure`` packs the
projections' masks.  iota is defined once, on keys, by ``_iota_mask``: it
reads the key n bits at a time and builds the image's point mask on the
tuple window by shifted ors, decoding no point.  ``iota`` decodes that mask
into a set.  The meet, Galois and injectivity checks, exhaustive and
sampled alike, compute it once per distinct rectangle, by key, so comparing
two images, or a region with an image, is one int operation per pair.  A
table or cache of images or order rows is keyed by the key alone, so it is
read only for a rectangle of its own axis window and number of axes: one of
another shape, whose key may alias, is mapped or ordered afresh.
``product`` builds each composite image with it from the component masks,
and the embedding criterion reads the composite and component masks.  What
the checks check is still called per pair or per region: ``Rectangle.meet``
for every pair, in order, ``rectangle_closure`` for every region, and
``Rectangle.componentwise_leq`` for every sampled pair.  The exhaustive
meet and Galois checks compare a row of pairs at a time and scan a row pair
by pair only when it differs: on a failure the rest of that row's meets may
already have been taken, which is harmless as ``meet`` is pure, and
``checked`` and the witness are still those of the first failing pair in
pair order.  The exhaustive checks refuse a window whose rectangles would
be too many to enumerate, before enumerating any.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import compress
from itertools import product as iproduct

from .concrete import Abstraction, ConcreteSet, ConcreteUniverse, ConcretizationMap
from .errors import AbslogError, CarrierTooLarge, InvalidConcretization
from .lattice import build_lattice, hasse_edges

ELEMENT_SEP = "*"
MAX_PRODUCT_CARRIER = 4096   # largest product lattice built
MAX_PRODUCT_POINTS = 10_000  # largest tuple universe built
MAX_MEET_AXIS_POINTS = 10    # exhaustive meet check: points of both axes together
MAX_INJECTIVE_AXIS_POINTS = 16  # injectivity check: points of both axes together


@dataclass(frozen=True, slots=True)
class Rectangle:
    """One concrete set per axis, kept as the axis universe they share, the
    number of axes ``dim`` and one int ``key`` that packs the axes' point
    masks (:meth:`ConcreteUniverse.mask`): for n axis points, axis k's mask
    is bits (dim-1-k)*n to (dim-1-k)*n + n-1, so the first axis holds the
    high bits.  Meet is the keys' and, order is one mask test; ``masks``
    and ``axes`` decode the key."""

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
        _set_key(self, _pack(axis, [axis.mask(a.members) for a in axes]))

    @property
    def masks(self) -> tuple[int, ...]:
        """The axis point masks, first axis first, decoded on each request;
        the first axis takes every bit above the others, so the masks
        :func:`_pack` packs are given back as they were."""
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
        if self.axis is not other.axis or self.dim != other.dim:
            self._check(other)
        return not self.key & ~other.key

    def meet(self, other: "Rectangle") -> "Rectangle":
        if self.axis is not other.axis or self.dim != other.dim:
            self._check(other)
        # _keyed, inlined: the exhaustive meet check takes one meet per pair
        out = _new(Rectangle)
        _set_axis(out, self.axis)
        _set_dim(out, self.dim)
        _set_key(out, self.key & other.key)
        return out

    def __repr__(self) -> str:
        sets = ["{" + ", ".join(map(repr, self.axis.points_of(m))) + "}"
                for m in self.masks]
        return f"Rectangle({' x '.join(sets)})"


# the frozen slots, written without the raising __setattr__
_new = object.__new__
_set_axis, _set_dim, _set_key = (
    Rectangle.axis.__set__, Rectangle.dim.__set__, Rectangle.key.__set__)


def _keyed(axis: ConcreteUniverse, dim: int, key: int) -> Rectangle:
    """A rectangle from its key, which is not checked again."""
    out = _new(Rectangle)
    _set_axis(out, axis)
    _set_dim(out, dim)
    _set_key(out, key)
    return out


def _pack(axis: ConcreteUniverse, masks) -> int:
    """The key of some axis masks, the first axis in the high bits."""
    n, key = len(axis.points), 0
    for m in masks:
        key = key << n | m
    return key


def _rectangle(axis: ConcreteUniverse, masks) -> Rectangle:
    """A rectangle from masks of one axis universe, which are not checked
    again."""
    return _keyed(axis, len(masks), _pack(axis, masks))


def tuple_universe(axis_universes) -> ConcreteUniverse:
    """The product universe; all axes must share one integer window.

    A one-axis product uses the axis window itself, with int points; two or
    more axes give a window of that dimension, with tuple points."""
    axis_universes = list(axis_universes)
    lo, hi = _shared_window(axis_universes)
    return ConcreteUniverse.window(lo, hi, dim=len(axis_universes))


def _shared_window(axis_universes: list[ConcreteUniverse]) -> tuple[int, int]:
    """The one integer window every axis lives on."""
    windows = set()
    for u in axis_universes:
        if u.kind != "window" or u.params[2] != 1:
            raise InvalidConcretization(
                "product axes must be one-dimensional integer windows")
        windows.add(u.params[:2])
    if len(windows) != 1:
        raise InvalidConcretization(f"axis windows differ: {sorted(windows)}")
    return windows.pop()


def _iota_mask(rect: Rectangle, target: ConcreteUniverse) -> int:
    """The point mask of iota(rect) on ``target``, a window with the
    rectangle's axis window and one coordinate per axis.

    The key is read n bits at a time, from the last axis on.  The image so
    far spans ``width`` points; it is copied once per point of the axis,
    shifted by i * width for the i-th point, and the copies are ored.  That
    is the window's own point order, the first coordinate slowest, and no
    point is decoded."""
    axis = target.axis()
    if (rect.axis is not axis and rect.axis != axis
            or rect.dim != target.params[2]):
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
    if uni.kind != "window":
        raise InvalidConcretization("rectangle closure needs a window universe")
    dim, axis = uni.params[2], uni.axis()
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
    size = 1
    for c in components:
        size *= len(c.lattice.elements)
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


def _subsets(u: ConcreteUniverse) -> list[ConcreteSet]:
    """Every subset of a universe, in the order of its point masks."""
    return [u.subset(u.points_of(mask)) for mask in range(1 << len(u))]


def _all_rectangles(axis: ConcreteUniverse, dim: int):
    """Every rectangle of ``dim`` axes on an axis window, in the order of
    its key, which is the order of its axis masks, the first axis slowest."""
    for key in range(1 << len(axis.points) * dim):
        yield _keyed(axis, dim, key)


def _imager(target: ConcreteUniverse):
    """The map from a rectangle to the mask of its iota image.  It is
    computed once per distinct rectangle of the target's axis window and
    dimension, by key, and the map keeps one int per rectangle it has seen,
    for as long as it lives.  A rectangle of another shape, whose key may
    alias one of the target's, is mapped every time."""
    images: dict[int, int] = {}
    axis, dim = target.axis(), target.params[2]

    def image(rect: Rectangle) -> int:
        if rect.axis is not axis or rect.dim != dim:
            return _iota_mask(rect, target)
        m = images.get(rect.key)
        if m is None:
            m = images[rect.key] = _iota_mask(rect, target)
        return m

    return image


def _sampler(target: ConcreteUniverse, sample: int, rng_seed: int):
    """The random draw of a sampled check, and its rectangle draw: each axis
    point is in with probability 1/2, drawn point by point and axis by axis.
    The draws of a rectangle sum straight into its key: for n axis points,
    draw j of axis k weighs bit (dim-1-k)*n + j.  The list of every axis
    subset, which grows as 2^n, is not built."""
    if sample < 1:
        raise AbslogError(f"a sampled check needs at least 1 sample, got {sample}")
    random_ = random.Random(rng_seed).random
    axis = target.axis()
    n, dim = len(axis), target.params[2]
    bits = [1 << k * n + j for k in reversed(range(dim)) for j in range(n)]

    def draw() -> Rectangle:
        return _keyed(axis, dim, sum(compress(bits, [random_() < 0.5 for _ in bits])))

    return random_, draw


@dataclass
class CheckResult:
    ok: bool
    checked: int
    witness: object = None
    note: str = ""


def check_galois(axis_windows=((0, 2), (0, 2)), sample: int | None = None,
                 rng_seed: int = 20240811) -> CheckResult:
    """rectangle_closure(R) <= X iff R included in iota(X), exhaustively on
    small axes or sampled for larger spaces.

    Both branches keep iota(X) as a point mask, computed once per distinct
    rectangle X, and call rectangle_closure(R) once per region R.  The
    exhaustive branch reads componentwise_leq once per distinct closure key
    and rectangle (a closure of another shape is ordered afresh), then
    compares R's order row with the row of R's mask
    included in each iota(X)'s, in one list comparison; only a row that
    differs is scanned pair by pair, so ``checked`` and the witness are
    those of the first failing pair.  The sampled branch calls
    componentwise_leq once per sample; until it returns it holds one mask
    per distinct rectangle drawn.  ``sample`` must be at least 1."""
    target = tuple_universe(ConcreteUniverse.window(lo, hi) for lo, hi in axis_windows)
    checked = 0
    if sample is None:
        if len(target) > 12:
            raise CarrierTooLarge("exhaustive Galois check needs <= 12 points; "
                                  "pass sample=")
        axis, dim = target.axis(), len(axis_windows)
        rects = list(_all_rectangles(axis, dim))
        images = [_iota_mask(x, target) for x in rects]
        rows: dict[int, list[bool]] = {}  # closure key -> order row
        for rm, r in enumerate(_subsets(target)):  # a region's mask is its index
            closure = rectangle_closure(r)
            # a closure of another shape may alias a key: its row is not kept
            row = (rows.get(closure.key)
                   if closure.axis is axis and closure.dim == dim else None)
            if row is None:
                row = rows[closure.key] = [closure.componentwise_leq(x)
                                           for x in rects]
            if row == [rm & ix == rm for ix in images]:
                checked += len(row)
                continue
            for leq, x, ix in zip(row, rects, images):
                checked += 1
                if leq != (rm & ix == rm):
                    return CheckResult(False, checked, (r, x))
        return CheckResult(True, checked)
    random_, draw = _sampler(target, sample, rng_seed)
    image = _imager(target)
    pts = target.points
    bits = [1 << j for j in range(len(pts))]
    for _ in range(sample):
        drawn = [random_() < 0.4 for _ in pts]
        r = target.subset(compress(pts, drawn))
        rm = sum(compress(bits, drawn))  # the region's mask, from its draws
        x = draw()
        checked += 1
        if rectangle_closure(r).componentwise_leq(x) != (rm & image(x) == rm):
            return CheckResult(False, checked, (r, x))
    return CheckResult(True, checked)


def check_iota_preserves_meets(axis_windows=((0, 4), (0, 4)),
                               sample: int | None = None,
                               rng_seed: int = 20240811) -> CheckResult:
    """iota(X meet Y) = iota(X) & iota(Y); exhaustive for two small axes,
    sampled otherwise.

    Both branches compute iota's mask once per distinct rectangle, by key.
    Each pair still takes its meet, whose image is looked up and compared
    with the images' and.  The exhaustive branch does this a row at a time:
    it takes the meets of X with every rectangle, looks up their images by
    key and compares the row with the ands in one list comparison.  A meet
    of another axis window or number of axes is left out of the lookup, so
    its row differs.  Only a row that differs is scanned pair by pair; a
    meet that is none of the rectangles is mapped then, and the first
    failing pair, in pair order,
    gives ``checked`` and the witness.  The meets after it in that row have
    already been taken, which changes nothing as meet is pure.  Until it
    returns, the sampled branch holds one mask per distinct rectangle drawn
    or met.  ``sample`` must be at least 1."""
    target = tuple_universe(ConcreteUniverse.window(lo, hi) for lo, hi in axis_windows)
    checked = 0
    if sample is None:
        axis, dim = target.axis(), len(axis_windows)
        points = len(axis) * dim
        if points > MAX_MEET_AXIS_POINTS or dim != 2:
            raise CarrierTooLarge(
                f"exhaustive meet check needs two axes with at most "
                f"{MAX_MEET_AXIS_POINTS} points in all, got {dim} axes "
                f"with {points} points; pass sample=")
        rects = list(_all_rectangles(axis, dim))
        row = [_iota_mask(y, target) for y in rects]
        get = dict(enumerate(row)).get  # a rectangle's key is its index
        for x, ix in zip(rects, row):
            meets = list(map(x.meet, rects))
            # a meet of another shape may alias a key: it is left out of the
            # row, which then differs
            got = [get(m.key) for m in meets if m.axis is axis and m.dim == dim]
            if got == [ix & iy for iy in row]:
                checked += len(row)
                continue
            for y, iy, m in zip(rects, row, meets):
                checked += 1
                lhs = get(m.key) if m.axis is axis and m.dim == dim else None
                if lhs is None:  # a meet that is none of the rectangles
                    lhs = _iota_mask(m, target)
                if lhs != ix & iy:
                    return CheckResult(False, checked, (x, y))
        return CheckResult(True, checked)
    _, draw = _sampler(target, sample, rng_seed)
    image = _imager(target)
    for _ in range(sample):
        x = draw()
        y = draw()
        checked += 1
        if image(x.meet(y)) != image(x) & image(y):
            return CheckResult(False, checked, (x, y))
    return CheckResult(True, checked)


def check_iota_injective_on_nonempty(axis_window=(0, 3)) -> CheckResult:
    """iota is injective on tuples of nonempty axes; every collision
    involves an empty axis (everything collapses to the empty set).

    Every rectangle on the window squared is enumerated, 2^(2n) of them for
    n axis points, so a window of more than MAX_INJECTIVE_AXIS_POINTS points
    on its two axes together is refused before the first."""
    lo, hi = axis_window
    n = hi - lo + 1
    if 2 * n > MAX_INJECTIVE_AXIS_POINTS:
        raise CarrierTooLarge(
            f"injectivity check needs two axes with at most "
            f"{MAX_INJECTIVE_AXIS_POINTS} points in all, got {2 * n} points")
    target = ConcreteUniverse.window(lo, hi, dim=2)
    low = (1 << n) - 1
    seen: dict[int, Rectangle] = {}  # image mask -> the first rectangle
    checked = 0
    collisions = 0
    for rect in _all_rectangles(target.axis(), 2):
        checked += 1
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
    sublattice (all component images nonempty); an empty component image
    collapses the whole tuple to the empty set, which is surfaced as a
    witness rather than an embedding failure."""
    abs_ = pa.abstraction
    lat = abs_.lattice
    gamma = abs_.gamma.masks
    parts = [c.gamma.masks for c in pa.components]
    guarded = [all(m[p] != 0 for m, p in zip(parts, name.split(ELEMENT_SEP)))
               for name in lat.elements]
    checked = 0
    for i, a in enumerate(lat.elements):
        for j, b in enumerate(lat.elements):
            if not (guarded[i] and guarded[j]):
                continue
            checked += 1
            if (not gamma[a] & ~gamma[b]) != lat.leq(a, b):
                return CheckResult(False, checked, (a, b))
    collapsed = [lat.elements[i] for i in range(len(lat.elements))
                 if not guarded[i]]
    return CheckResult(True, checked,
                       note=f"{len(collapsed)} elements collapse through an "
                            f"empty axis" if collapsed else "")
