"""Lattice construction, order algebra and (bi-)Heyting operations.

The lattice facts read off the order masks and the join-irreducibles are
checked against the cubic definitions below, which read only ``leq``,
``meet`` and ``join``.
"""

from functools import reduce
from itertools import permutations

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from abslog.cartesian import product
from abslog.errors import (
    CarrierTooLarge,
    NotALattice,
    NotAPartialOrder,
    NotDistributive,
    UnknownElement,
)
from abslog.lattice import (
    build_lattice,
    co_implication,
    find_order_reversing_involutions,
    hasse_edges,
    heyting_implication,
    is_join_irreducible,
    is_meet_irreducible,
)
from abslog.octagon import OctLattice, to_finite_lattice
from conftest import BUILTIN_NAMES, intersection_closed, load_builtin

DIAMOND_EDGES = [("bot", "Even"), ("bot", "Odd"), ("Even", "top"), ("Odd", "top")]


@pytest.fixture
def diamond():
    return build_lattice(["bot", "Even", "Odd", "top"], DIAMOND_EDGES)


@pytest.fixture
def chain3():
    return build_lattice(["bot", "mid", "top"], [("bot", "mid"), ("mid", "top")])


@pytest.fixture
def m3():
    edges = [("bot", x) for x in "pqr"] + [(x, "top") for x in "pqr"]
    return build_lattice(["bot", "p", "q", "r", "top"], edges)


def test_two_chain():
    two = build_lattice(["bot", "top"], [("bot", "top")])
    assert two.top == "top" and two.bottom == "bot"
    assert two.meet("bot", "top") == "bot"
    assert two.join("bot", "top") == "top"


def test_diamond_tables(diamond):
    assert diamond.meet("Even", "Odd") == "bot"
    assert diamond.join("Even", "Odd") == "top"
    assert diamond.meet("Even", "top") == "Even"
    assert diamond.top == "top" and diamond.bottom == "bot"


def test_missing_lub_is_rejected():
    with pytest.raises(NotALattice) as exc:
        build_lattice(["a", "b", "c"], [("a", "b"), ("a", "c")])
    assert "b" in str(exc.value) and "c" in str(exc.value)


def test_missing_glb_is_rejected():
    with pytest.raises(NotALattice, match="greatest lower bound") as exc:
        build_lattice(["a", "b", "c"], [("b", "a"), ("c", "a")])
    assert "('b', 'c')" in str(exc.value)


def _chain(n):
    names = [f"c{i}" for i in range(n)]
    return build_lattice(names, list(zip(names, names[1:])))


def _boolean(bits):
    names = [f"b{m}" for m in range(1 << bits)]
    edges = [(names[m], names[m | 1 << b]) for m in range(1 << bits)
             for b in range(bits) if not m >> b & 1]
    return build_lattice(names, edges)


def _parity_squared():
    parity = load_builtin("parity")
    lat = product([parity, parity]).abstraction.lattice
    return build_lattice(lat.elements, lat.order_pairs())


@pytest.mark.parametrize("make", [
    lambda: _chain(64),
    lambda: _boolean(5),
    lambda: to_finite_lattice(OctLattice.build(3)),
    _parity_squared,
], ids=["chain-64", "boolean-5", "octagon-c3", "parity-x-parity"])
def test_tables_equal_brute_force_bounds(make):
    lat = make()
    elements = lat.elements
    leq = [[lat.leq(a, b) for b in elements] for a in elements]
    n = len(elements)
    for i in range(n):
        for j in range(n):
            lows = [k for k in range(n) if leq[k][i] and leq[k][j]]
            ups = [k for k in range(n) if leq[i][k] and leq[j][k]]
            glb = next(k for k in lows if all(leq[m][k] for m in lows))
            lub = next(k for k in ups if all(leq[k][m] for m in ups))
            assert lat.meet(elements[i], elements[j]) == elements[glb]
            assert lat.join(elements[i], elements[j]) == elements[lub]


def test_antisymmetry_violation_named():
    with pytest.raises(NotAPartialOrder) as exc:
        build_lattice(["a", "b"], [("a", "b"), ("b", "a")])
    assert "antisymmetry" in str(exc.value)


def test_antisymmetry_violation_names_the_lowest_partner():
    # a < b < c < a is one cycle; the first element's lowest partner is named
    with pytest.raises(NotAPartialOrder) as exc:
        build_lattice(["a", "b", "c", "d"],
                      [("a", "b"), ("b", "c"), ("c", "a"), ("a", "d")])
    assert str(exc.value) == "antisymmetry violated on ('a', 'b')"


@pytest.mark.parametrize("elements, pairs, message", [
    ([], [], "empty carrier"),
    (["a", "b", "a"], [], "duplicate element name 'a'"),
    (["a", "b", "c"], [("b", "a"), ("c", "a")],
     "('b', 'c') has no unique greatest lower bound"),
    (["a", "b", "c"], [("a", "b"), ("a", "c")],
     "('b', 'c') has no unique least upper bound"),
    (["bot", "a", "b", "top"], [],
     "('bot', 'a') has no unique greatest lower bound"),
], ids=["empty", "duplicate", "no-glb", "no-lub", "antichain"])
def test_not_a_lattice_messages(elements, pairs, message):
    with pytest.raises(NotALattice) as exc:
        build_lattice(elements, pairs)
    assert str(exc.value) == message


def test_unknown_element_in_pairs():
    with pytest.raises(UnknownElement):
        build_lattice(["a"], [("a", "zz")])


def test_leq(diamond):
    assert diamond.leq("bot", "Even")
    assert not diamond.leq("Even", "Odd")
    for e in diamond.elements:
        assert diamond.leq(e, e)
    with pytest.raises(UnknownElement):
        diamond.leq("Even", "nope")


def test_lattice_laws_exhaustive(diamond, chain3, m3):
    for lat in (diamond, chain3, m3):
        for a in lat.elements:
            for b in lat.elements:
                assert lat.meet(a, b) == lat.meet(b, a)
                assert lat.join(a, b) == lat.join(b, a)
                assert lat.join(a, lat.meet(a, b)) == a  # absorption
                assert lat.leq(a, b) == (lat.meet(a, b) == a)
                assert lat.leq(a, b) == (lat.join(a, b) == b)


def test_distributivity(diamond, chain3, m3):
    assert diamond.is_distributive()
    assert chain3.is_distributive()
    assert not m3.is_distributive()
    # independent oracle: locate a violating triple in M3 by brute force
    triples = [(a, b, c)
               for a in m3.elements for b in m3.elements for c in m3.elements
               if m3.meet(a, m3.join(b, c)) != m3.join(m3.meet(a, b), m3.meet(a, c))]
    assert triples


def test_heyting_on_diamond(diamond):
    # oracle: exhaustive max of the candidate set
    cands = [c for c in diamond.elements if diamond.leq(diamond.meet("Even", c), "bot")]
    assert set(cands) == {"bot", "Odd"}
    assert heyting_implication(diamond, "Even", "bot") == "Odd"
    for a in diamond.elements:
        assert heyting_implication(diamond, a, "top") == "top"
        assert heyting_implication(diamond, "bot", a) == "top"


def test_heyting_residuation(diamond, chain3):
    for lat in (diamond, chain3):
        for a in lat.elements:
            for b in lat.elements:
                h = heyting_implication(lat, a, b)
                assert lat.leq(lat.meet(a, h), b)
                for c in lat.elements:
                    if lat.leq(lat.meet(a, c), b):
                        assert lat.leq(c, h)


def test_co_implication(diamond):
    assert co_implication(diamond, "top", "Even") == "Odd"
    for a in diamond.elements:
        assert co_implication(diamond, "bot", a) == "bot"
        assert co_implication(diamond, a, a) == "bot"


def test_co_implication_residuation(diamond, chain3):
    for lat in (diamond, chain3):
        for a in lat.elements:
            for b in lat.elements:
                c = co_implication(lat, a, b)
                assert lat.leq(a, lat.join(b, c))
                for d in lat.elements:
                    if lat.leq(a, lat.join(b, d)):
                        assert lat.leq(c, d)


def test_heyting_refuses_m3(m3):
    with pytest.raises(NotDistributive):
        heyting_implication(m3, "p", "q")
    with pytest.raises(NotDistributive):
        co_implication(m3, "p", "q")


def test_irreducibility(diamond, chain3):
    assert is_meet_irreducible(diamond, "Even")
    assert not is_meet_irreducible(diamond, "bot")  # Even /\ Odd = bot
    assert not is_meet_irreducible(diamond, "top")
    assert is_join_irreducible(chain3, "mid")
    assert not is_join_irreducible(chain3, "bot")


def test_hasse_edges(diamond, chain3):
    assert set(hasse_edges(chain3)) == {("bot", "mid"), ("mid", "top")}
    assert len(hasse_edges(diamond)) == 4
    two = build_lattice(["bot", "top"], [("bot", "top")])
    assert hasse_edges(two) == [("bot", "top")]


def test_hasse_closure_reproduces_order(diamond, m3):
    for lat in (diamond, m3):
        rebuilt = build_lattice(lat.elements, hasse_edges(lat))
        for a in lat.elements:
            for b in lat.elements:
                assert rebuilt.leq(a, b) == lat.leq(a, b)


def test_involutions_of_diamond(diamond):
    invs = find_order_reversing_involutions(diamond)
    tables = [tuple(sorted(t.table.items())) for t in invs]
    keep = {("Even", "Even"), ("Odd", "Odd"), ("bot", "top"), ("top", "bot")}
    swap = {("Even", "Odd"), ("Odd", "Even"), ("bot", "top"), ("top", "bot")}
    assert tuple(sorted(keep)) in tables
    assert tuple(sorted(swap)) in tables
    # oracle: brute-force over all 4^4 maps
    names = diamond.elements
    brute = []
    from itertools import product
    for images in product(names, repeat=4):
        f = dict(zip(names, images))
        if all(f[f[a]] == a for a in names) and all(
                not diamond.leq(a, b) or diamond.leq(f[b], f[a])
                for a in names for b in names):
            brute.append(tuple(sorted(f.items())))
    assert sorted(tables) == sorted(brute)


def test_involutions_two_chain():
    two = build_lattice(["bot", "top"], [("bot", "top")])
    invs = find_order_reversing_involutions(two)
    assert len(invs) == 1
    assert invs[0].table == {"bot": "top", "top": "bot"}


def test_involution_properties_recheck(m3):
    for t in find_order_reversing_involutions(m3):
        f = t.table
        for a in m3.elements:
            assert f[f[a]] == a
            for b in m3.elements:
                if m3.leq(a, b):
                    assert m3.leq(f[b], f[a])


def naive_involutions(lat):
    """Each permutation s of the carrier indices with s s = id and
    a <= b => s(b) <= s(a), as image tuples, in the order ``permutations``
    gives them, which is sorted."""
    e = lat.elements
    n = range(len(e))
    return [s for s in permutations(n)
            if all(s[s[i]] == i for i in n)
            and all(not lat.leq(e[a], e[b]) or lat.leq(e[s[b]], e[s[a]])
                    for a in n for b in n)]


def assert_involutions_equal_the_oracle(lat):
    found = [tuple(lat.index[t.table[a]] for a in lat.elements)
             for t in find_order_reversing_involutions(lat)]
    assert found == naive_involutions(lat)


@pytest.mark.parametrize("name", ["parity", "sign", "diamond", "threechain", "m3"])
def test_builtin_involutions_equal_the_naive_oracle(name):
    lat = load_builtin(name).lattice
    assert len(lat) <= 6
    assert_involutions_equal_the_oracle(lat)


@settings(max_examples=100, deadline=None)
@given(intersection_closed().filter(lambda case: len(case[1]) <= 6))
def test_family_involutions_equal_the_naive_oracle(case):
    assert_involutions_equal_the_oracle(_family_lattice(case))


def test_involution_carrier_cap():
    elems = [f"c{i}" for i in range(13)]
    chain = build_lattice(elems, list(zip(elems, elems[1:])))
    with pytest.raises(CarrierTooLarge):
        find_order_reversing_involutions(chain)


@given(st.integers(min_value=2, max_value=7))
def test_chains_are_distributive(k):
    elems = [f"c{i}" for i in range(k)]
    chain = build_lattice(elems, list(zip(elems, elems[1:])))
    assert chain.is_distributive()
    assert chain.bottom == "c0" and chain.top == f"c{k - 1}"


# --- the naive oracle --------------------------------------------------------


def naive_distributive(lat):
    e = lat.elements
    return all(lat.meet(a, lat.join(b, c)) == lat.join(lat.meet(a, b), lat.meet(a, c))
               for a in e for b in e for c in e)


def naive_heyting(lat, a, b):
    """The greatest c with a /\\ c <= b: the join of the candidates, which
    must itself be one."""
    cands = [c for c in lat.elements if lat.leq(lat.meet(a, c), b)]
    best = reduce(lat.join, cands)
    assert best in cands
    return best


def naive_co_heyting(lat, a, b):
    """The least c with a <= b \\/ c: the meet of the candidates, which
    must itself be one."""
    cands = [c for c in lat.elements if lat.leq(a, lat.join(b, c))]
    best = reduce(lat.meet, cands)
    assert best in cands
    return best


def naive_join_irreducible(lat, a):
    """a is not the bottom, and no two elements strictly below a join to a."""
    below = [x for x in lat.elements if lat.leq(x, a) and x != a]
    return bool(below) and all(lat.join(x, y) != a for x in below for y in below)


def naive_meet_irreducible(lat, a):
    above = [x for x in lat.elements if lat.leq(a, x) and x != a]
    return bool(above) and all(lat.meet(x, y) != a for x in above for y in above)


def naive_hasse(lat):
    e = lat.elements
    return [(a, b) for a in e for b in e if a != b and lat.leq(a, b)
            and not any(lat.leq(a, c) and lat.leq(c, b) for c in e if c not in (a, b))]


def assert_facts_equal_the_oracle(lat):
    e = lat.elements
    assert [is_join_irreducible(lat, a) for a in e] == \
        [naive_join_irreducible(lat, a) for a in e]
    assert [is_meet_irreducible(lat, a) for a in e] == \
        [naive_meet_irreducible(lat, a) for a in e]
    assert hasse_edges(lat) == naive_hasse(lat)
    assert lat.is_distributive() == naive_distributive(lat)
    if lat.is_distributive():
        for a in e:
            for b in e:
                assert heyting_implication(lat, a, b) == naive_heyting(lat, a, b)
                assert co_implication(lat, a, b) == naive_co_heyting(lat, a, b)
    else:
        for name in ("impl", "coimpl"):
            with pytest.raises(NotDistributive):
                lat.table(name)


def _family_lattice(case):
    """The intersection-closed family ordered by inclusion."""
    _, family = case
    return build_lattice([f"s{m}" for m in family],
                         [(f"s{a}", f"s{b}") for a in family for b in family
                          if a != b and a & b == a])


N5_EDGES = [("bot", "a"), ("a", "b"), ("b", "top"), ("bot", "c"), ("c", "top")]


@pytest.mark.parametrize("make", [
    *[lambda name=name: load_builtin(name).lattice for name in BUILTIN_NAMES],
    lambda: _chain(20),
    lambda: _boolean(3),
    *[lambda c=c: to_finite_lattice(OctLattice.build(c)) for c in (1, 2, 3, 4)],
    lambda: product([load_builtin("parity")] * 2).abstraction.lattice,
    lambda: build_lattice(["one"], []),
    lambda: _chain(2),
    lambda: build_lattice(["bot", "p", "q", "r", "top"],
                          [("bot", x) for x in "pqr"] + [(x, "top") for x in "pqr"]),
    lambda: build_lattice(["bot", "a", "b", "c", "top"], N5_EDGES),
], ids=[*BUILTIN_NAMES, "chain-20", "boolean-3", "octagon-c1", "octagon-c2",
        "octagon-c3", "octagon-c4", "parity-x-parity", "one", "two", "M3", "N5"])
def test_lattice_facts_equal_the_naive_oracle(make):
    assert_facts_equal_the_oracle(make())


@settings(max_examples=100, deadline=None)
@given(intersection_closed())
def test_family_lattice_facts_equal_the_naive_oracle(case):
    assert_facts_equal_the_oracle(_family_lattice(case))


@pytest.mark.parametrize("distributive", [True, False])
def test_families_reach_both_kinds_of_lattice(distributive):
    case = find(intersection_closed(),
               lambda case: naive_distributive(_family_lattice(case)) == distributive)
    assert _family_lattice(case).is_distributive() == distributive
