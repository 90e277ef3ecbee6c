"""A rectangle kept as axis point masks agrees with the naive frozenset
computation on its decoded axis sets: meet, order, closure, equality, the
rectangles ``_all_rectangles`` enumerates and iota, which is computed on
the masks.  Every rectangle on (0, 2)^2 and every region of that window
are checked, and iota also on every rectangle of (0, 1)^3, (0, 4) and
(-2, 1)^2.  On those four windows every rectangle's masks pack into its
key, the first axis highest, and decode back, and the enumeration is the
key order; meet and order also agree with the frozenset computation on
(0, 1)^3 and (0, 4), and those comparisons catch the planted faults of
meet and order that the Cartesian checks, which state both on keys, no
longer call.  A rectangle is a frozen value with no ``__dict__``,
and meet and order refuse rectangles with different numbers of axes, also
when their keys are equal."""

import copy
import dataclasses
from itertools import product as iproduct

import pytest

from abslog import cartesian
from abslog.cartesian import Rectangle, iota, rectangle_closure
from abslog.concrete import ConcreteUniverse
from abslog.errors import InvalidConcretization
from test_cartesian_checks import leq_flips, meet_narrows

AXIS = ConcreteUniverse.window(0, 2)
TARGET = ConcreteUniverse.window(0, 2, dim=2)


def subsets(points):
    """Every subset of some points, as frozensets."""
    return [frozenset(p for i, p in enumerate(points) if m >> i & 1)
            for m in range(1 << len(points))]


# the 64 rectangles of (0, 2)^2, built from their axis member sets
MEMBERS = list(iproduct(subsets(AXIS.points), repeat=2))
RECTS = [Rectangle(tuple(AXIS.subset(a) for a in axes)) for axes in MEMBERS]


def sets(rect):
    """A rectangle's decoded axis sets."""
    return tuple(a.members for a in rect.axes)


def test_members_and_axes_decode_the_given_sets():
    for r, axes in zip(RECTS, MEMBERS):
        assert sets(r) == axes
        assert all(a.universe is AXIS for a in r.axes)


def assert_meet_and_order_agree(rects, members):
    """Meet and order of every pair of rectangles equal the frozenset
    computation on their axis member sets."""
    for (x, xs), (y, ys) in iproduct(zip(rects, members), repeat=2):
        assert sets(x.meet(y)) == tuple(a & b for a, b in zip(xs, ys))
        assert x.componentwise_leq(y) == all(a <= b for a, b in zip(xs, ys))


def test_meet_and_order_equal_the_frozenset_computation():
    assert_meet_and_order_agree(RECTS, MEMBERS)


def test_closure_of_every_region_is_its_projections():
    regions = subsets(TARGET.points)
    assert len(regions) == 512
    for region in regions:
        closure = rectangle_closure(TARGET.subset(region))
        assert sets(closure) == tuple(frozenset(p[k] for p in region)
                                      for k in range(2))
        assert closure.axis == AXIS


def test_rebuilt_from_its_axes_is_equal():
    for r in RECTS:
        again = Rectangle(r.axes)
        assert again == r and hash(again) == hash(r)
    assert RECTS[1] != RECTS[2]


def test_enumerated_rectangles_keep_their_own_sets():
    # _all_rectangles enumerates in the order the constructor gives, and
    # iota, computed on the masks, is the product of the decoded axis sets
    enumerated = list(cartesian._all_rectangles(AXIS, 2))
    assert enumerated == RECTS
    assert [sets(r) for r in enumerated] == MEMBERS
    for lo, hi, dim in ((0, 2, 2), (0, 1, 3), (0, 4, 1), (-2, 1, 2)):
        target = ConcreteUniverse.window(lo, hi, dim)
        rects = list(cartesian._all_rectangles(target.axis(), dim))
        assert len(rects) == 2 ** ((hi - lo + 1) * dim)
        for r in rects:
            axes = sets(r)
            # a 1-D window's points are its axis points, not 1-tuples
            expected = axes[0] if dim == 1 else frozenset(iproduct(*axes))
            assert iota(r, target).members == expected, (target.describe(), r)


@pytest.mark.parametrize("rect", [
    Rectangle((AXIS.full(),) * 3),
    Rectangle((AXIS.full(),)),
    Rectangle((ConcreteUniverse.window(0, 1).full(),) * 2),
    Rectangle((ConcreteUniverse.window(0, 3).full(),) * 2),
], ids=["three-axes", "one-axis", "sub-window", "wider-window"])
def test_iota_refuses_a_rectangle_off_the_window(rect):
    with pytest.raises(InvalidConcretization, match="not in the universe"):
        iota(rect, TARGET)


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


def test_meet_and_order_refuse_a_different_number_of_axes():
    # on one axis window, map over the masks would cut the longer rectangle
    two = Rectangle((AXIS.full(),) * 2)
    three = Rectangle((AXIS.subset([0]), AXIS.subset([1]), AXIS.subset([2])))
    for a, b in ((two, three), (three, two)):
        for op in (a.meet, a.componentwise_leq):
            with pytest.raises(InvalidConcretization,
                               match="different numbers of axes"):
                op(b)


def test_a_rectangle_is_a_frozen_value_without_a_dict():
    r = RECTS[45]
    assert not hasattr(r, "__dict__")
    before = (r.axis, r.masks)
    for field in ("axis", "dim", "key"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(r, field, getattr(RECTS[1], field))
    assert (r.axis, r.masks) == before
    for twin in (copy.copy(r), cartesian._rectangle(r.axis, tuple(r.masks)),
                 Rectangle(r.axes)):
        assert twin == r and hash(twin) == hash(r)
    assert len({*RECTS, *map(copy.copy, RECTS)}) == len(RECTS)


def test_repr_shows_the_axis_sets():
    r = Rectangle((AXIS.subset([2, 0]), AXIS.empty()))
    assert repr(r) == "Rectangle({0, 2} x {})"


# (lo, hi, dim) of the windows whose every rectangle is packed and decoded
PACKED = [(0, 2, 2), (0, 1, 3), (0, 4, 1), (-2, 1, 2)]


@pytest.mark.parametrize("lo, hi, dim", PACKED)
def test_a_key_packs_the_axis_masks_first_axis_highest(lo, hi, dim):
    axis = ConcreteUniverse.window(lo, hi)
    n = len(axis)
    every = list(iproduct(range(1 << n), repeat=dim))
    for masks in every:
        r = cartesian._rectangle(axis, masks)
        assert r.masks == masks and r.dim == dim
        assert r.key == sum(m << (dim - 1 - k) * n for k, m in enumerate(masks))
    # the enumeration is the key order, which is the first axis slowest
    enumerated = list(cartesian._all_rectangles(axis, dim))
    assert [r.masks for r in enumerated] == every
    assert [r.key for r in enumerated] == list(range(len(every)))


@pytest.mark.parametrize("lo, hi, dim", [(0, 1, 3), (0, 4, 1)])
def test_meet_and_order_equal_the_frozenset_computation_off_two_axes(lo, hi, dim):
    rects = list(cartesian._all_rectangles(ConcreteUniverse.window(lo, hi), dim))
    assert_meet_and_order_agree(rects, [sets(r) for r in rects])


# the faults act on a first axis {1, 2}, which (0, 1)^3 has not
@pytest.mark.parametrize("name, fault", [
    ("meet", meet_narrows), ("componentwise_leq", leq_flips)])
@pytest.mark.parametrize("rects", [RECTS, list(cartesian._all_rectangles(
    ConcreteUniverse.window(0, 4), 1))], ids=["(0, 2)^2", "(0, 4)"])
def test_the_frozenset_comparisons_catch_a_planted_fault(monkeypatch, name, fault, rects):
    monkeypatch.setattr(Rectangle, name, fault)
    with pytest.raises(AssertionError):
        assert_meet_and_order_agree(rects, [sets(r) for r in rects])


def test_equal_keys_with_different_numbers_of_axes_differ():
    # masks (3, 3) and (0, 3, 3) on a 2-point axis both pack to 15
    axis = ConcreteUniverse.window(0, 1)
    two = cartesian._rectangle(axis, (3, 3))
    three = cartesian._rectangle(axis, (0, 3, 3))
    assert two.key == three.key == 15
    assert two != three
    for a, b in ((two, three), (three, two)):
        for op in (a.meet, a.componentwise_leq):
            with pytest.raises(InvalidConcretization,
                               match="different numbers of axes"):
                op(b)
