"""A rectangle kept as axis point masks agrees with the naive frozenset
computation on its decoded member sets: meet, order, closure, equality and
the sets that ``_all_rectangles`` hands out.  Every rectangle on (0, 2)^2
and every region of that window are checked."""

from itertools import product as iproduct

import pytest

from abslog import cartesian
from abslog.cartesian import Rectangle, iota, rectangle_closure
from abslog.concrete import ConcreteUniverse
from abslog.errors import InvalidConcretization

AXIS = ConcreteUniverse.window(0, 2)
TARGET = ConcreteUniverse.window(0, 2, dim=2)


def subsets(points):
    """Every subset of some points, as frozensets."""
    return [frozenset(p for i, p in enumerate(points) if m >> i & 1)
            for m in range(1 << len(points))]


# the 64 rectangles of (0, 2)^2, built from their axis member sets
MEMBERS = list(iproduct(subsets(AXIS.points), repeat=2))
RECTS = [Rectangle(tuple(AXIS.subset(a) for a in axes)) for axes in MEMBERS]


def test_members_and_axes_decode_the_given_sets():
    for r, axes in zip(RECTS, MEMBERS):
        assert r.members == axes
        assert [a.members for a in r.axes] == list(axes)
        assert all(a.universe is AXIS for a in r.axes)


def test_meet_and_order_equal_the_frozenset_computation():
    for (x, xs), (y, ys) in iproduct(zip(RECTS, MEMBERS), repeat=2):
        assert x.meet(y).members == tuple(a & b for a, b in zip(xs, ys))
        assert x.componentwise_leq(y) == all(a <= b for a, b in zip(xs, ys))


def test_closure_of_every_region_is_its_projections():
    regions = subsets(TARGET.points)
    assert len(regions) == 512
    for region in regions:
        closure = rectangle_closure(TARGET.subset(region))
        assert closure.members == tuple(frozenset(p[k] for p in region)
                                        for k in range(2))
        assert closure.axis == AXIS


def test_rebuilt_from_its_axes_is_equal():
    for r in RECTS:
        again = Rectangle(r.axes)
        assert again == r and hash(again) == hash(r)
    assert RECTS[1] != RECTS[2]


def test_enumerated_rectangles_keep_their_own_sets():
    # _all_rectangles hands each rectangle decoded sets; they must be the
    # sets its masks decode to, in the order the constructor gives
    enumerated = list(cartesian._all_rectangles(AXIS, 2))
    assert enumerated == RECTS
    assert [r.members for r in enumerated] == MEMBERS
    for r in enumerated:
        assert iota(r, TARGET).members == frozenset(iproduct(*r.members))


def test_a_rectangle_needs_one_axis_universe():
    with pytest.raises(InvalidConcretization, match="at least one axis"):
        Rectangle(())
    other = ConcreteUniverse.window(0, 3)
    with pytest.raises(InvalidConcretization, match="different universes"):
        Rectangle((AXIS.full(), other.full()))
    wide = Rectangle((other.full(), other.full()))
    for op in (RECTS[0].meet, RECTS[0].componentwise_leq):
        with pytest.raises(InvalidConcretization, match="different axes"):
            op(wide)


def test_repr_shows_the_axis_sets():
    r = Rectangle((AXIS.subset([2, 0]), AXIS.empty()))
    assert repr(r) == "Rectangle({0, 2} x {})"
