"""Octagon predicates: export, disjointness, the order, irreducibility,
the conjunction witness, the degenerate model and negation checks."""

from itertools import combinations_with_replacement

import pytest

from abslog import specfile
from abslog.errors import UnknownElement
from abslog.octagon import (
    OctLattice,
    OctPredicate,
    _grid_mask,
    conjunction_nonpreservation_witness,
    degenerate_model_check,
    disjoint,
    export_abstraction,
    grid_universe,
    hemisphere_negation,
    infeasible_pairs,
    oct_leq,
    to_finite_lattice,
    verify_irreducibility,
)

from conftest import SPECS


def holds(p: OctPredicate, x: int, y: int) -> bool:
    """The oracle's half-plane test: sx*x + sy*y >= c."""
    return p.sx * x + p.sy * y >= p.c


def test_export_c1_is_the_builtin_spec():
    exported = export_abstraction(OctLattice.build(1), 4)
    emitted = specfile.emit(exported)
    assert emitted == (SPECS / "octagon-c1.spec").read_text()
    # the axioms the export builds are the ones the spec file reads back
    assert specfile.load(emitted, exported.name).extra_axioms == exported.extra_axioms


@pytest.mark.parametrize("window_c, pairs", [(1, 36), (2, 136), (3, 300), (4, 528)])
def test_disjoint_agrees_with_grid(window_c, pairs):
    # independent oracle: brute-force emptiness on the grid [-4C, 4C]^2
    grid = range(-4 * window_c, 4 * window_c + 1)
    lat = OctLattice.build(window_c)
    checked = 0
    brute_pairs = []
    for p, q in combinations_with_replacement(lat.predicates, 2):
        brute = not any(holds(p, x, y) and holds(q, x, y) for x in grid for y in grid)
        assert disjoint(p, q) == brute, (p.name, q.name)
        if brute and p != q:
            brute_pairs.append((p, q))
        checked += 1
    assert checked == pairs
    assert infeasible_pairs(lat) == brute_pairs


@pytest.mark.parametrize("window_c", [1, 2, 3, 4])
def test_grid_gamma_is_the_inequality_filter(window_c):
    lat = OctLattice.build(window_c)
    n = 4 * window_c
    grid = grid_universe(n)
    points = [(x, y) for x in range(-n, n + 1) for y in range(-n, n + 1)]

    def image(element):
        return list(grid.points_of(_grid_mask(lat, element, grid)))

    assert image("top") == points
    assert image("bot") == []
    for p in lat.predicates:
        brute = [pt for pt in points if holds(p, *pt)]
        assert image(p.name) == brute, p.name
        assert image(p) == brute, p.name


@pytest.mark.parametrize("window_c", [1, 2, 3, 4])
def test_grid_mask_is_the_mask_of_grid_gamma(window_c):
    # the grid gamma of each carrier element is the brute-force filter;
    # the mask the export hands over is its encoding, compared as ints
    lat = OctLattice.build(window_c)
    n = 4 * window_c
    grid = grid_universe(n)
    points = [(x, y) for x in range(-n, n + 1) for y in range(-n, n + 1)]
    for name in lat.carrier:
        image = [pt for pt in points if brute_holds(lat, name, *pt)]
        assert _grid_mask(lat, name, grid) == grid.mask(image), name


@pytest.mark.parametrize("window_c", [1, 2, 3, 4])
def test_finite_lattice_order_is_oct_leq(window_c):
    # the order is built by closing oct_leq, so oct_leq must be transitive
    lat = OctLattice.build(window_c)
    finite = to_finite_lattice(lat)
    assert all(finite.leq(a, b) == oct_leq(lat, a, b)
               for a in lat.carrier for b in lat.carrier)
    # the emitted spec, read back through the covering-edge path, agrees
    loaded = specfile.load(specfile.emit(export_abstraction(lat, 4 * window_c))).lattice
    assert loaded.elements == finite.elements
    assert (loaded._down, loaded._up, loaded._meet, loaded._join) == (
        finite._down, finite._up, finite._meet, finite._join)


@pytest.mark.parametrize("window_c", [1, 2, 3])
def test_irreducibility(window_c):
    assert verify_irreducibility(OctLattice.build(window_c))


@pytest.mark.parametrize("window_c", [1, 2, 3])
def test_conjunction_witness_is_complete(window_c):
    witness = conjunction_nonpreservation_witness(window_c)
    assert witness.complete
    assert set(witness.separations) == set(OctLattice.build(window_c).carrier)


def brute_holds(lat: OctLattice, name: str, x: int, y: int) -> bool:
    """The oracle's membership test for any carrier element."""
    return name == "top" or (name != "bot" and holds(lat.by_name(name), x, y))


def in_target(x: int, y: int) -> bool:
    """The oracle's gamma(x+y >= 0) & gamma(x-y >= 0)."""
    return x + y >= 0 and x - y >= 0


@pytest.mark.parametrize("window_c", [1, 2, 3, 4])
def test_conjunction_witness_is_the_least_separating_point(window_c):
    witness = conjunction_nonpreservation_witness(window_c)
    assert (witness.p, witness.q) == (OctPredicate(1, 1, 0), OctPredicate(1, -1, 0))
    n = witness.grid_n
    assert n == 4 * window_c
    points = [(x, y) for x in range(-n, n + 1) for y in range(-n, n + 1)]
    lat = OctLattice.build(window_c)
    expected = {}
    for name in lat.carrier:
        diff = [pt for pt in points if brute_holds(lat, name, *pt) != in_target(*pt)]
        expected[name] = min(diff)
    assert witness.separations == expected


def test_conjunction_witness_c10_separates_every_element():
    witness = conjunction_nonpreservation_witness(10)
    lat = OctLattice.build(10)
    assert witness.complete and set(witness.separations) == set(lat.carrier)
    for name, (x, y) in witness.separations.items():
        assert max(abs(x), abs(y)) <= witness.grid_n
        assert brute_holds(lat, name, x, y) != in_target(x, y), name


def test_degenerate_model():
    assert degenerate_model_check().ok


def test_hemisphere_negation_is_an_involution():
    lat = OctLattice.build(2)
    table = hemisphere_negation(lat).table
    assert all(table[table[e]] == e for e in lat.carrier)


def test_missing_complement_is_a_typed_error():
    # the complement x+y <= 0 (name p:-x-y>=1) is not in this carrier
    with pytest.raises(UnknownElement):
        hemisphere_negation(OctLattice(1, (OctPredicate(1, 1, 0),)))
