from collections import Counter
from operator import and_, or_
from pathlib import Path

import pytest
from hypothesis import strategies as st

from abslog import specfile
from abslog.concrete import Abstraction, ConcreteUniverse, ConcretizationMap
from abslog.lattice import build_lattice

REPO = Path(__file__).resolve().parent.parent
SPECS = REPO / "specs"
DATA = Path(__file__).resolve().parent / "data"

BUILTIN_NAMES = ("parity", "sign", "interval", "diamond", "threechain", "m3",
                 "octagon-c1")

ATOMS = 5  # largest set a family is drawn over


def load_builtin(name: str):
    return specfile.load_path(SPECS / f"{name}.spec")


def drop_rules(ps, names):
    """``ps`` without the rules called ``names``, derived as minimization
    derives its trials (``ProofSystem._derive``), so that the engine is
    inherited the same way.  Generated names can repeat (over elements
    ``refl`` and ``x``, the axioms ``refl |- x`` and ``x |- x`` are both
    ``ord.refl.x``), so a name that stands for two rules is refused."""
    count = Counter(r.name for r in ps.rules)
    twice = sorted(name for name in names if count[name] > 1)
    if twice:
        raise ValueError(f"names standing for more than one rule: {twice}")
    kept = tuple(r for r in ps.rules if r.name not in names)
    return ps._derive(kept, [r for r in ps.rules if r.name in names])


@pytest.fixture(scope="session")
def parity():
    return load_builtin("parity")


@pytest.fixture(scope="session")
def sign():
    return load_builtin("sign")


@pytest.fixture(scope="session")
def diamond():
    return load_builtin("diamond")


@pytest.fixture(scope="session")
def threechain():
    return load_builtin("threechain")


@pytest.fixture(scope="session")
def m3():
    return load_builtin("m3")


@pytest.fixture(scope="session")
def interval():
    return load_builtin("interval")


@pytest.fixture(scope="session")
def builtins():
    return {name: load_builtin(name) for name in BUILTIN_NAMES}


@st.composite
def _closed_family(draw, ops, fixed):
    """A family of subsets of at most ATOMS atoms, as masks: the members
    ``fixed(full)`` and up to ten drawn ones, closed under each of ``ops``."""
    k = draw(st.integers(1, ATOMS))
    full = (1 << k) - 1
    family = fixed(full) | draw(st.sets(st.integers(0, full), max_size=10))
    while True:
        closed = family | {op(a, b) for op in ops for a in family for b in family}
        if closed == family:
            return k, sorted(family)
        family = closed


def intersection_closed():
    """Families closed under intersection and holding the full set: a
    lattice whose gamma, the inclusion, preserves meets and is an order
    embedding.  Such families give distributive lattices and
    non-distributive ones (M3, N5)."""
    return _closed_family((and_,), lambda full: {full})


def union_closed():
    """Families closed under union and holding the empty set, whose
    gamma preserves joins: the dual of ``intersection_closed``."""
    return _closed_family((or_,), lambda full: {0})


def set_lattice():
    """Families closed under intersection and union and holding the empty
    and the full set: lattices of sets, which are distributive."""
    return _closed_family((and_, or_), lambda full: {0, full})


def family_abstraction(case):
    """The abstraction of a drawn family: the family ordered by inclusion,
    each member its own image over the atoms."""
    k, family = case
    name = {m: f"s{m:0{k}b}" for m in family}
    lat = build_lattice([name[m] for m in family],
                        [(name[a], name[b]) for a in family for b in family
                         if a != b and a & b == a])
    uni = ConcreteUniverse.atoms([f"a{i}" for i in range(k)])
    gamma = ConcretizationMap(lat, uni, {
        name[m]: uni.mask(f"a{i}" for i in range(k) if m >> i & 1) for m in family})
    return Abstraction("family", lat, gamma)
