"""Concrete universes, gamma maps, preservation analysis and the left adjoint."""

import math
import random
from itertools import product as iproduct

import pytest

from abslog import cartesian, concrete, specfile
from abslog.concrete import (
    MAX_WINDOW_POINTS,
    Abstraction,
    ConcreteSet,
    ConcreteUniverse,
    ConcretizationMap,
    check_order_embedding,
    compute_left_adjoint,
    preservation_report,
)
from abslog.connectives import CONNECTIVES
from abslog.errors import CarrierTooLarge, InvalidConcretization, SpecError, UnknownElement
from abslog.lattice import UnaryOpTable, build_lattice

from concrete_oracle import OPS


def window(lo, hi):
    return ConcreteUniverse.window(lo, hi)


def parity_abstraction(lo=-8, hi=8):
    lat = build_lattice(
        ["bot", "Even", "Odd", "top"],
        [("bot", "Even"), ("bot", "Odd"), ("Even", "top"), ("Odd", "top")],
        unary_ops={"negation": UnaryOpTable("negation", {
            "bot": "top", "Even": "Odd", "Odd": "Even", "top": "bot"})},
    )
    uni = window(lo, hi)
    evens = uni.mask(p for p in uni.points if p % 2 == 0)
    odds = uni.mask(p for p in uni.points if p % 2 != 0)
    gamma = ConcretizationMap(lat, uni, {
        "bot": uni.mask([]), "Even": evens, "Odd": odds, "top": uni.mask(uni.points)})
    return Abstraction("parity", lat, gamma)


def sign_abstraction():
    lat = build_lattice(
        ["bot", "Neg", "Zero", "Pos", "top"],
        [("bot", s) for s in ("Neg", "Zero", "Pos")]
        + [(s, "top") for s in ("Neg", "Zero", "Pos")])
    uni = window(-8, 8)
    gamma = ConcretizationMap(lat, uni, {
        "bot": uni.mask([]),
        "Neg": uni.mask(p for p in uni.points if p < 0),
        "Zero": uni.mask([0]),
        "Pos": uni.mask(p for p in uni.points if p > 0),
        "top": uni.mask(uni.points)})
    return Abstraction("sign", lat, gamma)


def test_universe_windows_and_atoms():
    u = window(-2, 2)
    assert u.points == (-2, -1, 0, 1, 2)
    a = ConcreteUniverse.atoms(["q", "p"])
    assert a.points == ("p", "q")
    t = ConcreteUniverse.window(0, 1, dim=2)
    assert t.points == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_universe_names_its_variables():
    # a universe's shape: bounds, dim, its spec text and its variables
    shapes = [
        (ConcreteUniverse.atoms(["q", "p"]), None, 1, "atoms p q", ("x",)),
        (ConcreteUniverse.window(0, 1), (0, 1), 1, "window 0 1", ("x",)),
        (ConcreteUniverse.window(-1, 2, dim=2), (-1, 2), 2, "window -1 2 dim 2",
         ("x", "y")),
        (ConcreteUniverse.window(0, 1, dim=3), (0, 1), 3, "window 0 1 dim 3",
         ("x1", "x2", "x3")),
    ]
    for uni, bounds, dim, text, names in shapes:
        assert (uni.bounds, uni.dim, uni.describe(), uni.var_names) == (
            bounds, dim, text, names)
    atoms, line, plane, cube = (uni for uni, *_ in shapes)
    with pytest.raises(InvalidConcretization) as exc:
        atoms.axis()
    assert str(exc.value) == "only a window universe has an axis"
    assert line.axis() is line
    for uni in (plane, cube):
        axis = uni.axis()
        assert axis is uni.axis()  # kept
        assert (axis.bounds, axis.dim) == (uni.bounds, 1)
        assert axis.points == tuple(range(uni.bounds[0], uni.bounds[1] + 1))


def test_shape_refusals_keep_their_messages():
    atoms = ConcreteUniverse.atoms(["p"])
    plane = ConcreteUniverse.window(0, 1, dim=2)
    for uni in (atoms, plane):
        with pytest.raises(InvalidConcretization) as exc:
            cartesian.tuple_universe([uni])
        assert str(exc.value) == "product axes must be one-dimensional integer windows"
    with pytest.raises(InvalidConcretization) as exc:
        cartesian.rectangle_closure(atoms.full())
    assert str(exc.value) == "rectangle closure needs a window universe"
    for universe in ("atoms p", "window 0 1 dim 2"):
        for expr, word in (("evens", "evens"), ("odds", "odds"), ("range(0,1)", "range")):
            with pytest.raises(SpecError) as exc:
                specfile.load(f"ELEMENTS\na\nUNIVERSE\n{universe}\nGAMMA\na = {expr}")
            assert str(exc.value.__cause__) == (
                f"{word!r} needs a one-dimensional integer window")


@pytest.mark.parametrize("build, error, message", [
    (lambda: ConcreteUniverse.atoms([]), InvalidConcretization, "empty universe"),
    (lambda: ConcreteUniverse.atoms(["p", "q", "p"]), InvalidConcretization,
     "duplicate points in universe"),
    (lambda: window(2, 1), InvalidConcretization, "empty window [2, 1]"),
    (lambda: ConcretizationMap(parity_abstraction().lattice, window(0, 1), {}),
     InvalidConcretization, "gamma missing entry for 'bot'"),
    (lambda: ConcretizationMap(parity_abstraction().lattice, window(0, 1),
                               dict.fromkeys(["bot", "Even", "Odd", "top", "zz"], 0)),
     UnknownElement, "gamma defined on unknown element 'zz'"),
    (lambda: parity_abstraction().gamma("zz"), UnknownElement, "unknown element 'zz'"),
    # an equal lattice, built again, is not the packaged one
    (lambda: Abstraction("parity", parity_abstraction().lattice,
                         parity_abstraction().gamma),
     InvalidConcretization, "gamma.source is not the packaged lattice"),
    (lambda: compute_left_adjoint(parity_abstraction()).alpha(window(0, 1).full()),
     InvalidConcretization, "alpha queried outside the universe"),
], ids=["empty", "duplicate", "empty-window", "gamma-missing", "gamma-unknown",
        "gamma-of-unknown", "other-lattice", "alpha-outside"])
def test_construction_and_query_refusals(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message


def test_oracle_states_every_connective():
    assert list(OPS) == list(CONNECTIVES)


def test_concrete_ops():
    # every registry operation on point masks, against the oracle's set
    # operation, for every argument tuple of subsets of each universe
    for uni in (ConcreteUniverse.atoms("abc"), window(-1, 2)):
        full = (1 << len(uni)) - 1
        points = uni.point_set
        subsets = [(m, frozenset(uni.points_of(m))) for m in range(1 << len(uni))]
        for name, c in CONNECTIVES.items():
            for args in iproduct(subsets, repeat=c.arity):
                got = c.concrete(full, *(m for m, _ in args))
                want = uni.mask(OPS[name](points, *(s for _, s in args)))
                assert got == want, (uni.describe(), name, args)


def test_set_operations_check_universes_once():
    u = window(0, 3)
    with pytest.raises(InvalidConcretization, match="not in the universe"):
        ConcreteSet(u, frozenset({4}))
    with pytest.raises(InvalidConcretization, match="not in the universe"):
        u.subset([7])
    assert u.full() is u.full()


def test_monotonicity_validated():
    lat = build_lattice(["bot", "top"], [("bot", "top")])
    u = window(0, 1)
    with pytest.raises(InvalidConcretization):
        ConcretizationMap(lat, u, {"bot": u.mask(u.points), "top": u.mask([])})


def test_order_embedding_parity():
    assert check_order_embedding(parity_abstraction()).is_embedding


def test_order_embedding_failure_witnessed():
    lat = build_lattice(
        ["bot", "a", "b", "top"],
        [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")])
    u = ConcreteUniverse.atoms(["p", "q"])
    s = u.mask(["p"])
    gamma = ConcretizationMap(lat, u, {
        "bot": u.mask([]), "a": s, "b": s, "top": u.mask(u.points)})
    res = check_order_embedding(Abstraction("dup", lat, gamma))
    assert not res.is_embedding
    a, b = res.witness
    assert a != b and gamma(a).members <= gamma(b).members and not lat.leq(a, b)


def test_order_embedding_singleton():
    lat = build_lattice(["only"], [])
    u = window(0, 0)
    gamma = ConcretizationMap(lat, u, {"only": u.mask(u.points)})
    assert check_order_embedding(Abstraction("one", lat, gamma)).is_embedding


def test_parity_preserves_everything():
    report = preservation_report(parity_abstraction())
    assert report.preserved() == {"tt", "ff", "and", "or", "not", "impl", "coimpl"}


def test_sign_join_not_preserved():
    report = preservation_report(sign_abstraction())
    assert "or" not in report.preserved()
    assert {"tt", "ff", "and"} <= report.preserved()
    status = report.statuses["or"]
    a, b = status.witness
    # the witness must actually violate the preservation equation
    abs_ = sign_abstraction()
    lhs = abs_.gamma(abs_.lattice.join(a, b))
    rhs = abs_.gamma(a).members | abs_.gamma(b).members
    assert lhs.members != rhs
    # impl/coimpl are out of scope: the sign lattice is not distributive
    assert report.statuses["impl"].state == "not_applicable"


def test_bottom_preservation_trivial():
    report = preservation_report(sign_abstraction())
    assert report.statuses["ff"].state == "preserved"


def test_left_adjoint_parity():
    abs_ = parity_abstraction()
    res = compute_left_adjoint(abs_)
    assert res.total
    assert res.alpha(abs_.universe.subset([2, 4])) == "Even"
    assert res.alpha(abs_.universe.empty()) == "bot"
    assert res.alpha(abs_.universe.subset([1, 2])) == "top"


def test_left_adjoint_adjunction_law():
    abs_ = parity_abstraction()
    alpha = compute_left_adjoint(abs_).alpha
    rng = random.Random(7)
    pts = abs_.universe.points
    for _ in range(200):
        s = abs_.universe.subset(rng.sample(pts, rng.randrange(len(pts) + 1)))
        a_s = alpha(s)
        for a in abs_.lattice.elements:
            assert abs_.lattice.leq(a_s, a) == (s.members <= abs_.gamma(a).members)


def test_left_adjoint_absent_with_witness():
    # gamma(top) misses a point, so the full set has no over-approximation
    lat = build_lattice(["bot", "top"], [("bot", "top")])
    u = window(0, 1)
    gamma = ConcretizationMap(lat, u, {"bot": u.mask([]), "top": u.mask([0])})
    res = compute_left_adjoint(Abstraction("gap", lat, gamma))
    assert not res.total
    s = res.witness
    over = [a for a in lat.elements if s.members <= gamma(a).members]
    assert not over or all(
        any(not lat.leq(m, a) for a in over) for m in over)  # no minimum


def test_left_adjoint_absent_on_meet_failure():
    # two incomparable over-approximations of their intersection, no least one
    lat = build_lattice(
        ["bot", "a", "b", "top"],
        [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")])
    u = window(0, 2)
    gamma = ConcretizationMap(lat, u, {
        "bot": u.mask([]), "a": u.mask([0, 1]), "b": u.mask([1, 2]),
        "top": u.mask(u.points)})
    res = compute_left_adjoint(Abstraction("nomeet", lat, gamma))
    assert not res.total
    assert res.witness.members == frozenset([1])


def test_window_point_bound_refuses_before_building(monkeypatch):
    def no_points(*args, **kwargs):
        raise AssertionError("points were built")

    monkeypatch.setattr(concrete, "iproduct", no_points)
    side = math.isqrt(MAX_WINDOW_POINTS) + 1  # side**2 is just over the bound
    with pytest.raises(CarrierTooLarge):
        ConcreteUniverse.window(1, side, dim=2)
    with pytest.raises(CarrierTooLarge):
        ConcreteUniverse.window(0, 29, dim=4)
    with pytest.raises(CarrierTooLarge):  # one point, but of 10^9 coordinates
        ConcreteUniverse.window(0, 0, dim=10**9)
    with pytest.raises(CarrierTooLarge):
        ConcreteUniverse.window(1, MAX_WINDOW_POINTS + 1)
    assert len(ConcreteUniverse.window(1, MAX_WINDOW_POINTS)) == MAX_WINDOW_POINTS
