"""Closed-form model sets: an oracle for the model engine that reads only
the order.

Lattice theory gives the models M* of a generated calculus without clauses
or normalization (Davey & Priestley, *Introduction to Lattices and Order*,
2nd ed., ch. 10):

- where both meet and join are preserved, M* holds the prime filters, one
  up-set of each join-irreducible element, and the full valuation;
- where meet is preserved without join, M* holds the principal filters,
  one up-set of each element.

A model is a predicate mask over the lattice elements in carrier order,
bit i for the i-th element, as ``ModelEngine.models`` holds it.  The oracle
reads nothing of the abstraction but ``lat.leq``: join-irreducibility is
computed naively from it, so the oracle shares no code with the engine's
clauses, its normalization or its masks.
"""

import sys

import pytest

from abslog import specfile
from abslog.concrete import preservation_report
from abslog.logicgen import generate_proof_system
from abslog.proofengine import engine_for

from conftest import REPO, load_builtin

if str(REPO) not in sys.path:
    sys.path.insert(0, str(REPO))
from perfbench import families as fam  # noqa: E402

MEET_AND_JOIN = ("parity", "diamond", "threechain", "chain-12", "boolean-3")
MEET_ONLY = ("sign", "interval", "m3")


def _abstraction(name):
    if name == "chain-12":
        return specfile.load(fam.chain_text(12), name)
    if name == "boolean-3":
        return specfile.load(fam.boolean_text(3), name)
    return load_builtin(name)


def up_set(lat, a) -> int:
    """The mask of the elements at or above ``a``."""
    return sum(1 << i for i, b in enumerate(lat.elements) if lat.leq(a, b))


def join_irreducibles(lat) -> list:
    """The elements whose strictly smaller elements have a greatest one:
    in a finite lattice, the join-irreducibles (bottom has none below)."""
    out = []
    for j in lat.elements:
        below = [x for x in lat.elements if x != j and lat.leq(x, j)]
        if any(all(lat.leq(y, x) for y in below) for x in below):
            out.append(j)
    return out


def closed_form_models(lat, join_preserved: bool) -> set[int]:
    if join_preserved:
        full = (1 << len(lat.elements)) - 1
        return {up_set(lat, j) for j in join_irreducibles(lat)} | {full}
    return {up_set(lat, a) for a in lat.elements}


@pytest.mark.parametrize("name", MEET_AND_JOIN + MEET_ONLY)
def test_model_set_is_the_closed_form(name):
    abs_ = _abstraction(name)
    lat = abs_.lattice
    ps = generate_proof_system(abs_, preservation_report(abs_))
    join_preserved = name in MEET_AND_JOIN
    connectives = ps.signature.connectives
    assert "and" in connectives and ("or" in connectives) == join_preserved
    engine = engine_for(ps, max_predicates=len(lat.elements))
    assert set(engine.models) == closed_form_models(lat, join_preserved)


def test_join_irreducibles_of_known_shapes():
    # the oracle's own definition, on shapes whose answer is known by hand
    assert join_irreducibles(_abstraction("chain-12").lattice) == \
        [f"c{i}" for i in range(1, 12)]
    boolean = _abstraction("boolean-3").lattice
    assert sorted(join_irreducibles(boolean)) == sorted(
        a for a in boolean.elements
        if sum(boolean.leq(b, a) for b in boolean.elements) == 2)
    assert len(join_irreducibles(boolean)) == 3
    assert sorted(join_irreducibles(_abstraction("m3").lattice)) == \
        sorted(set(_abstraction("m3").lattice.elements) - {"bot", "top"})
