"""Gamma is its table of point masks, one per element, and every check reads it.

``ConcretizationMap.masks`` must equal masks read off gamma point by point,
and encoding an image that gamma decodes gives its mask back; the map
refuses a value that is not a mask of its universe; ``specfile.load``, the
octagon export and the Cartesian product build no ``ConcreteSet``, and the
preservation report, the order-embedding check and the left adjoint build
none beyond a returned witness; ``verify_soundness`` still refuses a
predicate gamma does not know; and the map's monotonicity check, which
reads only the covers, refuses a table exactly when some ordered pair is not
included, naming one such pair.  ``ConcreteUniverse.mask`` itself equals the
naive encoder on universes either side of its table bound, counts a repeated
point once and refuses a point outside the universe, and one mask on a
40 000-point window takes memory linear in the points.  ``points_of``
decodes what ``mask`` encodes, in sorted order, and ``span`` is the mask of
a slice of the points.
"""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abslog import specfile
from abslog.cartesian import product
from abslog.concrete import (
    ConcreteSet,
    ConcreteUniverse,
    ConcretizationMap,
    check_order_embedding,
    compute_left_adjoint,
    preservation_report,
)
from abslog.errors import InvalidConcretization, UnknownElement
from abslog.lattice import build_lattice
from abslog.octagon import OctLattice, export_abstraction
from abslog.proofengine import verify_soundness

from conftest import (
    BUILTIN_NAMES,
    SPECS,
    family_abstraction,
    intersection_closed,
    load_builtin,
)
from test_model_engine import _abstraction, system
from test_replay_masks import SCALING, naive_masks


@pytest.mark.parametrize("name", BUILTIN_NAMES + SCALING)
def test_masks_equal_the_naive_masks(name):
    abs_ = _abstraction(name)
    gamma, uni = abs_.gamma, abs_.universe
    assert gamma.masks == naive_masks(abs_)
    assert gamma.masks is gamma.masks
    for e in abs_.lattice.elements:
        assert uni.mask(gamma(e).members) == gamma.masks[e], (name, e)


@pytest.mark.parametrize("value", [lambda u: 1 << len(u), lambda u: -1,
                                   lambda u: u.subset([0])],
                         ids=["past-universe", "negative", "set"])
def test_map_refuses_a_value_that_is_no_mask(value):
    lat = build_lattice(["bot", "top"], [("bot", "top")])
    uni = ConcreteUniverse.window(0, 2)
    with pytest.raises(InvalidConcretization, match=r"gamma\('bot'\)"):
        ConcretizationMap(lat, uni, {"bot": value(uni), "top": uni.mask(uni.points)})


def count_sets(monkeypatch) -> list:
    """Every ConcreteSet built from here on; each goes through
    ``__post_init__``."""
    built = []
    post_init = ConcreteSet.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(ConcreteSet, "__post_init__", counted)
    return built


def test_load_export_and_product_build_no_concrete_set(monkeypatch):
    texts = [(SPECS / f"{name}.spec").read_text() for name in BUILTIN_NAMES]
    built = count_sets(monkeypatch)
    loaded = [specfile.load(text, name) for text, name in zip(texts, BUILTIN_NAMES)]
    for c in (1, 2, 3, 4):
        export_abstraction(OctLattice.build(c), 4 * c)
    parity = loaded[BUILTIN_NAMES.index("parity")]
    product([parity, parity])
    assert built == []


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_exhaustive_checks_build_no_concrete_set(monkeypatch, name):
    abs_ = load_builtin(name)
    images = [abs_.gamma(e) for e in abs_.lattice.elements]
    built = count_sets(monkeypatch)
    preservation_report(abs_)
    check_order_embedding(abs_)
    assert built == []
    res = compute_left_adjoint(abs_)
    if res.total:
        for s in images:
            res.alpha(s)
        assert built == []
    else:  # octagon-c1: a meet is not preserved, and its witness is the one set
        assert built == [res.witness]


def test_soundness_refuses_a_predicate_gamma_lacks(parity, sign):
    with pytest.raises(UnknownElement, match="'Even'"):
        verify_soundness(sign, system(parity))


def failing_pairs(lat, uni, table) -> set:
    """Every ordered pair whose images, decoded to point sets, are not
    included."""
    image = {e: set(uni.points_of(m)) for e, m in table.items()}
    return {(a, b) for a in lat.elements for b in lat.elements
            if lat.leq(a, b) and not image[a] <= image[b]}


@settings(max_examples=100, deadline=None)
@given(intersection_closed(), st.data())
def test_gamma_refused_iff_some_pair_is_not_monotone(case, data):
    # each image is the element's own mask, which is monotone, or a random one
    abs_ = family_abstraction(case)
    lat, uni = abs_.lattice, abs_.universe
    table = {e: data.draw(st.sampled_from([abs_.gamma.masks[e]])
                          | st.integers(0, (1 << len(uni)) - 1))
             for e in lat.elements}
    failing = failing_pairs(lat, uni, table)
    if not failing:
        ConcretizationMap(lat, uni, table)
        return
    with pytest.raises(InvalidConcretization) as refused:
        ConcretizationMap(lat, uni, table)
    assert str(refused.value) in {f"gamma is not monotone on ({a!r}, {b!r})"
                                  for a, b in failing}


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 140), st.data())
def test_mask_equals_the_naive_mask(n, data):
    uni = ConcreteUniverse.atoms([f"p{i:03d}" for i in range(n)])
    members = data.draw(st.sets(st.sampled_from(uni.points)))
    naive = sum(1 << j for j, p in enumerate(uni.points) if p in members)
    assert uni.mask(members) == naive
    assert uni.mask([*members, *members]) == naive
    assert uni.mask(uni.points) == (1 << n) - 1 and uni.mask([]) == 0
    with pytest.raises(InvalidConcretization, match="'q' is not in the universe"):
        uni.mask([*members, "q"])


def test_mask_memory_is_linear_in_the_points():
    uni = ConcreteUniverse.window(-99, 100, dim=2)
    assert len(uni) == 40_000
    s = frozenset(p for p in uni.points if sum(p) % 3)
    tracemalloc.start()
    try:
        m = uni.mask(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a table of 1 << j for every point would hold about n^2 / 16 bytes, 100 MB
    assert peak < 5_000_000
    assert m.bit_count() == len(s)
    assert all((m >> j & 1) == (p in s) for j, p in enumerate(uni.points[:500]))


# atoms named p0, p1, ... in shuffled order, whose sorted order is not
# numeric (p10 < p2); 1-D windows; 2-D windows of up to 13^2 points.  Each
# family reaches either side of the mask table bound of 64 points.
universes = st.one_of(
    st.integers(1, 140).flatmap(lambda n: st.permutations(
        [f"p{i}" for i in range(n)])).map(ConcreteUniverse.atoms),
    st.builds(lambda lo, n: ConcreteUniverse.window(lo, lo + n - 1),
              st.integers(-50, 50), st.integers(1, 140)),
    st.builds(lambda lo, n: ConcreteUniverse.window(lo, lo + n - 1, dim=2),
              st.integers(-6, 6), st.integers(1, 13)),
)


@pytest.mark.parametrize("uni", [
    ConcreteUniverse.atoms(["b", "p10", "a", "p2", "B"]),
    ConcreteUniverse.window(-3, 4), ConcreteUniverse.window(-2, 2, dim=2),
    ConcreteUniverse.window(-1, 1, dim=3)], ids=str)
def test_universe_order_is_sorted_order(uni):
    # emit writes each GAMMA image's points in universe order, which must
    # stay the sorted order it wrote when it sorted them
    assert list(uni.points) == sorted(uni.points)


@settings(max_examples=100, deadline=None)
@given(universes, st.data())
def test_points_of_decodes_mask_in_sorted_order(uni, data):
    s = data.draw(st.sets(st.sampled_from(uni.points)))
    assert list(uni.points_of(uni.mask(s))) == sorted(s)
    assert list(uni.points_of(0)) == []
    assert list(uni.points_of(uni.mask(uni.points))) == list(uni.points)


@settings(max_examples=100, deadline=None)
@given(universes, st.data())
def test_span_is_the_mask_of_a_slice(uni, data):
    start = data.draw(st.integers(0, len(uni)))
    stop = data.draw(st.integers(start, len(uni)))
    assert uni.span(start, stop) == uni.mask(uni.points[start:stop])
