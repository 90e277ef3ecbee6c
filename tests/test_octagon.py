"""Octagon predicates: export, disjointness, the order, irreducibility,
the conjunction witness, the degenerate model and negation checks."""

import random
from itertools import combinations, combinations_with_replacement

import pytest

from abslog import octagon, specfile
from abslog.errors import GridGuardViolated, UnknownElement, WindowOverflow
from abslog.octagon import (
    OctLattice,
    OctPredicate,
    _grid_mask,
    conjunction_nonpreservation_witness,
    degenerate_model_check,
    export_abstraction,
    grid_universe,
    hemisphere_negation,
    oct_complement,
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
    assert emitted == (SPECS / "octagon-c1.spec").read_text(encoding="utf-8")
    # the axioms the export builds are the ones the spec file reads back
    assert specfile.load(emitted, exported.name).extra_axioms == exported.extra_axioms


def disjoint(p: OctPredicate, q: OctPredicate) -> bool:
    """The module docstring's closed form: opposite slopes whose constants
    sum above zero."""
    return (p.sx, p.sy) == (-q.sx, -q.sy) and p.c + q.c > 0


def axiom_pairs(exported):
    """The predicate pairs of the export's ``p, q |- ff`` axioms, in order."""
    return [tuple(f.name for f in seq.ante) for _, seq in exported.extra_axioms]


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
            brute_pairs.append((p.name, q.name))
        checked += 1
    assert checked == pairs
    exported = export_abstraction(lat, 4 * window_c)
    assert axiom_pairs(exported) == brute_pairs
    assert [name for name, _ in exported.extra_axioms] == [
        f"axiom.{i:03d}" for i in range(len(brute_pairs))]


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


def grid_images(lat: OctLattice, grid_n: int) -> dict[str, frozenset]:
    """The oracle's gamma of every carrier element on [-N, N]^2, point by
    point."""
    points = [(x, y) for x in range(-grid_n, grid_n + 1)
              for y in range(-grid_n, grid_n + 1)]
    return {name: frozenset(pt for pt in points if brute_holds(lat, name, *pt))
            for name in lat.carrier}


def assert_order_is_gamma_inclusion(lat: OctLattice) -> dict[str, frozenset]:
    """Check the lattice's order against the oracle's images; return them."""
    images = grid_images(lat, 4 * lat.window_c)
    finite = to_finite_lattice(lat)
    assert finite.elements == lat.carrier
    assert all(finite.leq(a, b) == (images[a] <= images[b])
               for a in lat.carrier for b in lat.carrier)
    return images


@pytest.mark.parametrize("window_c", [1, 2, 3, 4])
def test_finite_lattice_order_is_oct_leq(window_c):
    # the order built from the slope chains is inclusion of the grid images,
    # which the N >= 4C guard makes inclusion over the integer plane
    lat = OctLattice.build(window_c)
    assert_order_is_gamma_inclusion(lat)
    finite = to_finite_lattice(lat)
    # the emitted spec, read back through the covering-edge path, agrees
    loaded = specfile.load(specfile.emit(export_abstraction(lat, 4 * window_c))).lattice
    assert loaded.elements == finite.elements
    assert (loaded._down, loaded._up, loaded._meet, loaded._join) == (
        finite._down, finite._up, finite._meet, finite._join)


@pytest.mark.parametrize("window_c, seed", [(1, 1), (2, 2), (3, 3)])
def test_hand_built_lattices_read_order_and_axioms_off_gamma(window_c, seed):
    # carriers of negation-closed predicate subsets, in shuffled order: the
    # chains sort by constant, so the order does not depend on the order the
    # predicates are given in, and the axioms follow that order
    rng = random.Random(seed)
    full = OctLattice.build(window_c).predicates
    pairs = sorted({tuple(sorted((p, oct_complement(p, window_c)))) for p in full})
    for _ in range(20):
        chosen = [p for pair in pairs if rng.random() < 0.5 for p in pair]
        rng.shuffle(chosen)
        lat = OctLattice(window_c, tuple(chosen))
        images = assert_order_is_gamma_inclusion(lat)
        brute = [(p.name, q.name) for p, q in combinations(chosen, 2)
                 if not images[p.name] & images[q.name]]
        assert axiom_pairs(export_abstraction(lat, 4 * window_c)) == brute


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
    # both hold by construction, so hemisphere_negation does not check them
    for window_c in range(1, 7):
        lat = OctLattice.build(window_c)
        table = hemisphere_negation(lat).table
        assert all(table[table[e]] == e for e in lat.carrier)
        finite = to_finite_lattice(lat)
        assert all(finite.leq(table[b], table[a]) for a, b in finite.order_pairs())


@pytest.mark.parametrize("build, error, message", [
    # the name writes only the signs, so (2, 1, 0) would be named p:+x+y>=0
    (lambda: OctPredicate(2, 1, 0), WindowOverflow, "slopes (2, 1) are not +/-1"),
    (lambda: OctPredicate(1, 0, 0), WindowOverflow, "slopes (1, 0) are not +/-1"),
    (lambda: oct_complement(OctPredicate(1, 1, -1), 1), WindowOverflow,
     "complement constant 2 leaves the window"),
    (lambda: OctLattice.build(0), WindowOverflow,
     "the window parameter must be at least 1"),
    (lambda: OctLattice.build(1).by_name("p:+x+y>=2"), UnknownElement,
     "unknown octagon element 'p:+x+y>=2'"),
    (lambda: export_abstraction(OctLattice.build(1), 3), GridGuardViolated,
     "grid N = 3 violates the guard N >= 4C = 4"),
], ids=["slope-2", "slope-0", "complement", "window-0", "unknown", "grid-guard"])
def test_octagon_refusals(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message


def test_conjunction_witness_is_incomplete_when_an_element_is_the_meet(monkeypatch):
    # plant top's gamma as the quarter-plane meet, which no element has
    grid_mask = octagon._grid_mask

    def planted(lat, element, grid):
        if element != "top":
            return grid_mask(lat, element, grid)
        return (grid_mask(lat, OctPredicate(1, 1, 0), grid)
                & grid_mask(lat, OctPredicate(1, -1, 0), grid))

    monkeypatch.setattr(octagon, "_grid_mask", planted)
    witness = conjunction_nonpreservation_witness(1)
    assert not witness.complete and witness.separations == {}


def test_missing_complement_is_a_typed_error():
    # the complement x+y <= 0 (name p:-x-y>=1) is not in this carrier
    with pytest.raises(UnknownElement):
        hemisphere_negation(OctLattice(1, (OctPredicate(1, 1, 0),)))
