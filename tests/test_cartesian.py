"""Products, the rectangle embedding iota and its adjunction."""

import random
from itertools import product as iproduct

import pytest

from abslog import cartesian, concrete
from abslog.cartesian import (
    MAX_PRODUCT_POINTS,
    Rectangle,
    check_galois,
    check_iota_injective_on_nonempty,
    check_iota_preserves_meets,
    iota,
    product,
    product_embedding_criterion,
    rectangle_closure,
    tuple_universe,
)
from abslog.concrete import (
    Abstraction,
    ConcreteUniverse,
    ConcretizationMap,
    check_order_embedding,
)
from abslog.errors import CarrierTooLarge, InvalidConcretization
from abslog.lattice import build_lattice
from abslog import specfile

from conftest import load_builtin


def small_parity(lo=-4, hi=4, name="parity4"):
    text = f"""
ELEMENTS
bot Even Odd top
ORDER
bot < Even
bot < Odd
Even < top
Odd < top
UNIVERSE
window {lo} {hi}
GAMMA
bot = {{}}
Even = evens
Odd = odds
top = all
"""
    return specfile.load(text, name)


def test_iota_examples():
    u = ConcreteUniverse.window(0, 1)
    target = tuple_universe([u, u])
    # the target keeps its own axis window, equal to u but another object
    assert target.axis() == u and target.axis() is not u
    r = Rectangle((u.subset([0, 1]), u.subset([0, 1])))
    assert iota(r, target).members == {(0, 0), (0, 1), (1, 0), (1, 1)}
    empty = Rectangle((u.empty(), u.subset([0, 1])))
    assert iota(empty, target).members == frozenset()
    assert iota(Rectangle((u.full(), u.full())), target).members == target.point_set


def test_rectangle_closure_projections():
    target = ConcreteUniverse.window(0, 1, dim=2)
    r = target.subset([(0, 0), (1, 1)])
    clo = rectangle_closure(r)
    assert clo.axes[0].members == {0, 1} and clo.axes[1].members == {0, 1}
    for dim in (2, 3):
        empty = ConcreteUniverse.window(0, 1, dim=dim).empty()
        assert [a.members for a in rectangle_closure(empty).axes] == [frozenset()] * dim


def test_closure_idempotent_on_rectangles():
    # brute force over all rectangles on a 3x3 universe
    u = ConcreteUniverse.window(0, 2)
    target = tuple_universe([u, u])
    pts = list(u.points)
    for ma in range(8):
        for mb in range(8):
            rect = Rectangle((u.subset(p for i, p in enumerate(pts) if ma >> i & 1),
                              u.subset(p for i, p in enumerate(pts) if mb >> i & 1)))
            back = rectangle_closure(iota(rect, target))
            if all(a.members for a in rect.axes) or \
                    all(not a.members for a in rect.axes):
                assert all(x.members == y.members
                           for x, y in zip(back.axes, rect.axes))
            else:
                # an empty axis collapses the product; closure is smaller
                assert back.componentwise_leq(rect)


def test_galois_exhaustive_small():
    res = check_galois(((0, 1), (0, 1)))
    assert res.ok and res.checked == 16 * 16


def test_galois_sampled_3d():
    res = check_galois(((0, 2), (0, 2), (0, 2)), sample=500)
    assert res.ok


def test_iota_meet_preservation_exhaustive():
    res = check_iota_preserves_meets(((0, 4), (0, 4)))
    assert res.ok
    assert res.checked == (2 ** 5 * 2 ** 5) ** 2


def test_iota_meet_preservation_sampled_3d():
    res = check_iota_preserves_meets(((0, 3), (0, 3), (0, 3)), sample=2000)
    assert res.ok


def test_iota_monotone_sampled():
    rng = random.Random(5)
    u = ConcreteUniverse.window(0, 4)
    target = tuple_universe([u, u])
    for _ in range(300):
        small = Rectangle(tuple(u.subset(p for p in u.points if rng.random() < 0.4)
                                for _ in range(2)))
        grow = Rectangle(tuple(
            u.subset(a.members.union(p for p in u.points if rng.random() < 0.3))
            for a in small.axes))
        assert iota(small, target).members <= iota(grow, target).members


def test_injectivity_on_nonempty():
    res = check_iota_injective_on_nonempty((0, 3))
    assert res.ok
    assert "empty-axis collisions" in res.note


def test_empty_axis_collision_example():
    u = ConcreteUniverse.window(0, 3)
    target = tuple_universe([u, u])
    a = iota(Rectangle((u.empty(), u.subset([0]))), target)
    b = iota(Rectangle((u.empty(), u.subset([1]))), target)
    assert a.members == b.members == frozenset()
    c = iota(Rectangle((u.subset([0]), u.subset([1]))), target)
    d = iota(Rectangle((u.subset([1]), u.subset([0]))), target)
    assert c.members != d.members


def test_product_parity_parity():
    for parity in (small_parity(), load_builtin("parity")):
        pa = product([parity, parity])
        lat, uni = pa.abstraction.lattice, pa.abstraction.universe
        assert len(lat.elements) == 16
        assert lat.top == "top*top" and lat.bottom == "bot*bot"
        assert uni.var_names == ("x", "y")
        # each composite mask is the mask of the product of the decoded
        # component images
        comp0, comp1 = pa.components
        for name in lat.elements:
            a0, a1 = name.split("*")
            expect = iproduct(comp0.gamma(a0).members, comp1.gamma(a1).members)
            assert pa.abstraction.gamma.masks[name] == uni.mask(expect), name


def test_product_order_componentwise():
    pa = product([small_parity(), small_parity()])
    lat = pa.abstraction.lattice
    c0 = pa.components[0].lattice
    for a in lat.elements:
        for b in lat.elements:
            a0, a1 = a.split("*")
            b0, b1 = b.split("*")
            assert lat.leq(a, b) == (c0.leq(a0, b0) and c0.leq(a1, b1))
            assert lat.meet(a, b) == "*".join(
                (c0.meet(a0, b0), c0.meet(a1, b1)))


def small_chain(lo=-4, hi=4):
    text = f"""
ELEMENTS
none some all
ORDER
none < some
some < all
UNIVERSE
window {lo} {hi}
GAMMA
none = {{}}
some = evens
all = all
"""
    return specfile.load(text, "chain3")


@pytest.mark.parametrize("components", [
    lambda: [small_parity(), small_parity()],
    lambda: [small_parity(), small_chain(), small_parity()],
], ids=["parity-x-parity", "parity-x-chain3-x-parity"])
def test_product_lattice_is_the_built_componentwise_order(components):
    # the product lattice is what build_lattice makes of every comparable
    # pair of the componentwise order
    pa = product(components())
    lat = pa.abstraction.lattice
    parts = [c.lattice for c in pa.components]
    tuples = list(iproduct(*(p.elements for p in parts)))
    pairs = [("*".join(s), "*".join(t)) for s in tuples for t in tuples
             if all(p.leq(a, b) for p, a, b in zip(parts, s, t))]
    built = build_lattice(["*".join(t) for t in tuples], pairs)
    assert lat.elements == built.elements
    assert (lat._down, lat._meet, lat._join) == (built._down, built._meet, built._join)
    assert (lat.top, lat.bottom) == (built.top, built.bottom)


def test_single_component_product():
    one = product([small_parity()])
    assert len(one.abstraction.lattice.elements) == 4
    res = product_embedding_criterion(one)
    assert res.ok


def test_single_component_product_lives_on_the_component_universe():
    comp = small_parity()
    one = product([comp])
    assert one.abstraction.universe == comp.universe
    for name in comp.lattice.elements:
        assert one.abstraction.gamma(name).members == comp.gamma(name).members


def test_single_component_product_spec_roundtrip():
    one = product([small_parity()])
    text = specfile.emit(one.abstraction)
    again = specfile.load(text, name=one.abstraction.name)
    assert again.universe == one.abstraction.universe
    assert again.lattice.elements == one.abstraction.lattice.elements
    for e in again.lattice.elements:
        assert again.gamma(e).members == one.abstraction.gamma(e).members


def test_one_axis_iota_and_closure():
    u = ConcreteUniverse.window(0, 3)
    target = tuple_universe([u])
    assert target == u
    for members in ([], [2], [0, 1, 3], [0, 1, 2, 3]):
        r = Rectangle((u.subset(members),))
        image = iota(r, target)
        assert image.members == frozenset(members)
        back = rectangle_closure(image)
        assert len(back.axes) == 1
        assert back.axes[0].universe == u
        assert back.axes[0].members == r.axes[0].members


def test_tuple_universe_accepts_a_generator():
    w = ConcreteUniverse.window(0, 2)
    target = tuple_universe(u for u in [w, w])
    assert target == ConcreteUniverse.window(0, 2, dim=2)
    assert target.describe() == "window 0 2 dim 2"


def test_galois_one_axis():
    res = check_galois(((0, 3),))
    assert res.ok and res.checked == 16 * 16


def test_rectangle_closure_rejects_atoms():
    u = ConcreteUniverse.atoms(["a", "b"])
    with pytest.raises(InvalidConcretization):
        rectangle_closure(u.full())


def test_product_embedding_guarded():
    pa = product([small_parity(), small_parity()])
    res = product_embedding_criterion(pa)
    assert res.ok
    assert "collapse" in res.note  # bot-involving tuples collapse
    assert check_order_embedding(pa.abstraction).is_embedding is False


def test_empty_component_image_surfaces_collapse():
    # a component whose non-bottom element concretizes to the empty set
    lat = build_lattice(["bot", "mid", "top"], [("bot", "mid"), ("mid", "top")])
    u = ConcreteUniverse.window(0, 2)
    gamma = ConcretizationMap(lat, u, {
        "bot": u.mask([]), "mid": u.mask([]), "top": u.mask(u.points)})
    weird = Abstraction("weird", lat, gamma)
    pa = product([weird, small_parity(0, 2, "p02")])
    res = product_embedding_criterion(pa)
    assert res.ok  # the guard excludes the collapsing tuples
    assert "collapse" in res.note
    # and the unguarded composite really is not an embedding
    assert not check_order_embedding(pa.abstraction).is_embedding


def test_product_rejects_mismatched_windows():
    with pytest.raises(InvalidConcretization):
        product([small_parity(-4, 4), small_parity(0, 4, "p04")])


def test_product_needs_a_component():
    with pytest.raises(InvalidConcretization, match="^a product needs at least one component$"):
        product([])


def _chain(name, elements):
    """A chain abstraction on the window (0, 1), bottom first."""
    lat = build_lattice(elements, list(zip(elements, elements[1:])))
    u = ConcreteUniverse.window(0, 1)
    masks = {e: (1 << i) - 1 for i, e in enumerate(elements)}
    return Abstraction(name, lat, ConcretizationMap(lat, u, masks))


@pytest.mark.parametrize("components, message", [
    # 'E*v' x 'bot' would be named 'E*v*bot', which does not split back into it
    (lambda: [_chain("a", ["bot", "E*v", "top"])] * 2, "element 'E*v' of a"),
    # 'p*q' x 'r' and 'p' x 'q*r' were both named 'p*q*r'
    (lambda: [_chain("l", ["p", "p*q"]), _chain("r", ["q*r", "r"])],
     "element 'p*q' of l"),
], ids=["criterion-split", "name-collision"])
def test_product_refuses_an_element_name_holding_the_separator(
        monkeypatch, components, message):
    def no_order(*args, **kwargs):
        raise AssertionError("the product order was built")

    monkeypatch.setattr(cartesian, "build_lattice", no_order)
    with pytest.raises(InvalidConcretization) as exc:
        product(components())
    assert str(exc.value) == f"{message} holds the product separator '*'"


def test_product_carrier_cap(monkeypatch):
    def no_order(*args, **kwargs):
        raise AssertionError("the product order was built")

    monkeypatch.setattr(cartesian, "hasse_edges", no_order)
    monkeypatch.setattr(cartesian, "build_lattice", no_order)
    with pytest.raises(CarrierTooLarge):
        product([small_parity()] * 7)  # 4^7 = 16384 > 4096


def test_product_point_bound_refuses_before_building(monkeypatch):
    parity = small_parity(-12, 12)  # 25 points per axis

    def no_points(*args, **kwargs):
        raise AssertionError("points were built")

    monkeypatch.setattr(concrete, "iproduct", no_points)
    assert 25 ** 3 > MAX_PRODUCT_POINTS
    with pytest.raises(CarrierTooLarge) as exc:
        product([parity] * 3)
    assert "15625" in str(exc.value)


def test_product_spec_roundtrip():
    pa = product([small_parity(), small_parity()])
    text = specfile.emit(pa.abstraction)
    again = specfile.load(text, name=pa.abstraction.name)
    assert again.lattice.elements == pa.abstraction.lattice.elements
    for e in again.lattice.elements:
        assert again.gamma(e).members == pa.abstraction.gamma(e).members


@pytest.mark.parametrize("build", [
    lambda: tuple_universe([]),
    lambda: check_galois(()),
    lambda: check_galois((), sample=5),
    lambda: check_iota_preserves_meets(()),
    lambda: check_iota_preserves_meets((), sample=5),
], ids=["tuple_universe", "galois", "galois-sampled", "meets", "meets-sampled"])
def test_zero_axes_are_refused_with_their_own_message(build):
    with pytest.raises(InvalidConcretization,
                       match="^a tuple universe needs at least one axis$"):
        build()
