"""Every exhaustive pair verdict of ``concrete``, ``cartesian`` and
``proofengine`` runs through one scan, and the left adjoint reads the
``tt`` and ``and`` preservation verdicts.

Each rewritten verdict is checked against the nested loop it replaced,
kept here as a naive oracle: the order embedding, the product embedding
criterion, completeness and the left adjoint's existence, on the same
witness and the same count of pairs tried.  The left adjoint is also
checked against a brute-force one that looks, for every subset S of a
small universe, for the least element whose image holds S.  An
``incomplete`` completeness verdict is pinned on octagon-c1 with two
order axioms dropped.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abslog import concrete, specfile
from abslog.cartesian import product, product_embedding_criterion
from abslog.concrete import (
    Abstraction,
    ConcreteUniverse,
    ConcretizationMap,
    check_order_embedding,
    compute_left_adjoint,
    preservation_report,
)
from abslog.lattice import build_lattice
from abslog.logicgen import generate_proof_system
from abslog.octagon import OctLattice, export_abstraction
from abslog.proofengine import engine_for, verify_completeness

from conftest import (
    BUILTIN_NAMES,
    DATA,
    drop_rules,
    family_abstraction,
    intersection_closed,
    load_builtin,
)
from perfbench.families import parity_text

MAX_BRUTE_POINTS = 12  # largest universe whose subsets are all enumerated


# --- the loops the scan replaced ---------------------------------------------


def naive_order_embedding(abs_):
    lat = abs_.lattice
    gamma = abs_.gamma.masks
    checked = 0
    for a in lat.elements:
        for b in lat.elements:
            checked += 1
            if not gamma[a] & ~gamma[b] and not lat.leq(a, b):
                return False, checked, (a, b)
    return True, checked, None


def naive_criterion(pa):
    abs_ = pa.abstraction
    lat = abs_.lattice
    gamma = abs_.gamma.masks
    parts = [c.gamma.masks for c in pa.components]
    guarded = [all(m[p] != 0 for m, p in zip(parts, name.split("*")))
               for name in lat.elements]
    checked = 0
    for i, a in enumerate(lat.elements):
        for j, b in enumerate(lat.elements):
            if not (guarded[i] and guarded[j]):
                continue
            checked += 1
            if (not gamma[a] & ~gamma[b]) != lat.leq(a, b):
                return False, checked, (a, b), ""
    collapsed = guarded.count(False)
    return True, checked, None, (
        f"{collapsed} elements collapse through an empty axis" if collapsed else "")


def naive_completeness(abs_, ps, max_predicates):
    ok, _, witness = naive_order_embedding(abs_)
    if not ok:
        return "precondition_unmet", witness, 0
    engine = engine_for(ps, max_predicates)
    leq = abs_.lattice.leq
    checked = 0
    for i, a in enumerate(engine.preds):
        for j, b in enumerate(engine.preds):
            checked += 1
            if leq(a, b) and not engine.derivable_masks(1 << i, 1 << j):
                return "incomplete", (a, b), checked
    return "complete", None, checked


def naive_adjoint_existence(abs_):
    """(total, the witness's points, the reason), as the own top test and
    meet loop decided them."""
    lat = abs_.lattice
    gamma = abs_.gamma.masks
    uni = abs_.universe
    if gamma[lat.top] != (1 << len(uni)) - 1:
        return (False, uni.points,
                f"gamma({lat.top}) is not the whole universe, so the full "
                "set has no over-approximation")
    for a in lat.elements:
        for b in lat.elements:
            if gamma[lat.meet(a, b)] != gamma[a] & gamma[b]:
                return (False, tuple(uni.points_of(gamma[a] & gamma[b])),
                        f"gamma does not preserve meet({a}, {b}); that "
                        "intersection has no least over-approximation")
    return True, None, ""


def brute_alpha(abs_) -> dict:
    """Every subset mask S of the universe to the least element a with S
    included in gamma(a), or to None where those elements have no least."""
    lat, gamma, uni = abs_.lattice, abs_.gamma.masks, abs_.universe
    assert len(uni) <= MAX_BRUTE_POINTS
    out = {}
    for s in range(1 << len(uni)):
        over = [a for a in lat.elements if not s & ~gamma[a]]
        least = [a for a in over if all(lat.leq(a, b) for b in over)]
        out[s] = least[0] if least else None
    return out


# --- inputs -------------------------------------------------------------------


def parity(lo, hi, name="parity"):
    return specfile.load(parity_text(lo, hi), name)


def collapsing_component():
    lat = build_lattice(["bot", "mid", "top"], [("bot", "mid"), ("mid", "top")])
    u = ConcreteUniverse.window(0, 2)
    gamma = ConcretizationMap(lat, u, {
        "bot": u.mask([]), "mid": u.mask([]), "top": u.mask(u.points)})
    return Abstraction("weird", lat, gamma)


def gap():
    # gamma(top) misses a point
    lat = build_lattice(["bot", "top"], [("bot", "top")])
    u = ConcreteUniverse.window(0, 1)
    return Abstraction("gap", lat, ConcretizationMap(
        lat, u, {"bot": u.mask([]), "top": u.mask([0])}))


def nomeet():
    # two incomparable over-approximations of their intersection
    lat = build_lattice(
        ["bot", "a", "b", "top"],
        [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")])
    u = ConcreteUniverse.window(0, 2)
    return Abstraction("nomeet", lat, ConcretizationMap(lat, u, {
        "bot": u.mask([]), "a": u.mask([0, 1]), "b": u.mask([1, 2]),
        "top": u.mask(u.points)}))


PRODUCTS = {
    "parity[-2,2]^2": lambda: product([parity(-2, 2)] * 2),
    "parity[-2,2]^3": lambda: product([parity(-2, 2)] * 3),
    "empty-component": lambda: product([collapsing_component(),
                                        parity(0, 2, "p02")]),
}

ABSTRACTIONS = {
    **{name: lambda name=name: load_builtin(name) for name in BUILTIN_NAMES},
    **{f"octagon-export-c{c}": lambda c=c: export_abstraction(OctLattice.build(c), 4 * c)
       for c in (1, 2, 3)},
    "nonembedding": lambda: specfile.load_path(DATA / "nonembedding.spec"),
    "gap": gap,
    "nomeet": nomeet,
    **{f"{name}-composite": lambda build=build: build().abstraction
       for name, build in PRODUCTS.items()},
}

WITH_SYSTEMS = [name for name in ABSTRACTIONS if "composite" not in name]


@st.composite
def redrawn(draw):
    """An ``intersection_closed`` family with a random monotone gamma: each
    element's image is the union of random masks drawn for the elements
    below it, so meets, top and the order embedding can each fail."""
    abs_ = family_abstraction(draw(intersection_closed()))
    lat, uni = abs_.lattice, abs_.universe
    full = (1 << len(uni)) - 1
    drawn = {e: draw(st.integers(0, full)) for e in lat.elements}
    masks = {e: 0 for e in lat.elements}
    for e in lat.elements:
        for below in lat.elements:
            if lat.leq(below, e):
                masks[e] |= drawn[below]
    return Abstraction("redrawn", lat, ConcretizationMap(lat, uni, masks))


def adjoint_existence(abs_):
    res = compute_left_adjoint(abs_)
    points = None if res.witness is None else tuple(
        abs_.universe.points_of(abs_.universe.mask(res.witness.members)))
    return res.total, points, res.reason


def assert_reflection_is_the_naive_loop(abs_):
    ok, checked, witness = naive_order_embedding(abs_)
    res = concrete._reflection(abs_, abs_.lattice.elements)
    assert (res.ok, res.checked, res.witness) == (ok, checked, witness)
    emb = check_order_embedding(abs_)
    assert (emb.is_embedding, emb.witness) == (ok, witness)


def assert_adjoint_is_the_brute_force(abs_):
    table = brute_alpha(abs_)
    res = compute_left_adjoint(abs_)
    assert res.total == (None not in table.values())
    uni = abs_.universe
    if not res.total:
        assert table[uni.mask(res.witness.members)] is None
        return
    for s, least in table.items():
        assert res.alpha(uni.subset(uni.points_of(s))) == least


# --- the scan against the loops it replaced -----------------------------------


@pytest.mark.parametrize("name", sorted(ABSTRACTIONS))
def test_order_embedding_is_the_naive_loop(name):
    assert_reflection_is_the_naive_loop(ABSTRACTIONS[name]())


@pytest.mark.parametrize("name", sorted(ABSTRACTIONS))
def test_left_adjoint_existence_is_the_naive_loop(name):
    abs_ = ABSTRACTIONS[name]()
    assert adjoint_existence(abs_) == naive_adjoint_existence(abs_)


@pytest.mark.parametrize("name", sorted(WITH_SYSTEMS))
def test_completeness_is_the_naive_loop(name):
    abs_ = ABSTRACTIONS[name]()
    ps = generate_proof_system(abs_, preservation_report(abs_))
    bound = max(14, len(abs_.lattice.elements))
    res = verify_completeness(abs_, ps, max_predicates=bound)
    assert (res.status, res.witness, res.pairs_checked) == naive_completeness(
        abs_, ps, bound)


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_product_criterion_is_the_naive_loop(name):
    pa = PRODUCTS[name]()
    res = product_embedding_criterion(pa)
    assert (res.ok, res.checked, res.witness, res.note) == naive_criterion(pa)


@settings(max_examples=100, deadline=None)
@given(st.one_of(intersection_closed().map(family_abstraction), redrawn()))
def test_verdicts_on_drawn_families_are_the_naive_loops(abs_):
    assert_reflection_is_the_naive_loop(abs_)
    assert adjoint_existence(abs_) == naive_adjoint_existence(abs_)


# --- the left adjoint against a brute-force one --------------------------------


@pytest.mark.parametrize("name", ["diamond", "interval", "m3", "threechain",
                                  "parity[-2,2]", "gap", "nomeet"])
def test_left_adjoint_is_the_brute_force_one(name):
    abs_ = parity(-2, 2) if name == "parity[-2,2]" else ABSTRACTIONS[name]()
    assert_adjoint_is_the_brute_force(abs_)


@settings(max_examples=100, deadline=None)
@given(st.one_of(intersection_closed().map(family_abstraction), redrawn()))
def test_left_adjoint_on_drawn_families_is_the_brute_force_one(abs_):
    assert_adjoint_is_the_brute_force(abs_)


# --- an incomplete verdict ----------------------------------------------------

DROPPED = "ord.p:+x+y>=1.p:+x+y>=0"
CONTRAPOSITIVE = "ord.p:-x-y>=1.p:-x-y>=0"


def test_dropped_order_axiom_and_its_contrapositive_give_incomplete():
    abs_ = load_builtin("octagon-c1")
    ps = drop_rules(generate_proof_system(abs_, preservation_report(abs_)),
                    [DROPPED, CONTRAPOSITIVE])
    res = verify_completeness(abs_, ps)
    assert (res.status, res.witness, res.pairs_checked) == (
        "incomplete", ("p:+x+y>=1", "p:+x+y>=0"), 33)
    assert (res.status, res.witness, res.pairs_checked) == naive_completeness(
        abs_, ps, 14)


def test_dropped_order_axiom_alone_is_derived_again_by_contraposition():
    abs_ = load_builtin("octagon-c1")
    ps = drop_rules(generate_proof_system(abs_, preservation_report(abs_)),
                    [DROPPED])
    res = verify_completeness(abs_, ps)
    assert (res.status, res.witness, res.pairs_checked) == ("complete", None, 100)
