"""The Lindenbaum-Tarski algebra against a naive pairwise construction.

``naive_lindenbaum`` is the reference: it fills the n x n matrix of
``a |- b`` answers, groups the predicates pair by pair and reads the class
order off one member per class, asserting that no other member would
change it and that the order is transitive.  ``build_lindenbaum`` reads the
classes and the order off the model columns instead; on every family here
its algebra must equal the reference's built from the model engine and the
one built from the saturation engine, which does not read M* (on drawn
families, the latter up to ``SATURATED`` elements).
"""

import sys
from itertools import product as iproduct

import pytest
from hypothesis import given, settings

from abslog import cartesian, octagon, specfile
from abslog.concrete import preservation_report
from abslog.connectives import CONNECTIVES, lookup
from abslog.errors import AbslogError
from abslog.logicgen import (
    KIND_INTRODUCTION,
    KIND_OPERATION,
    ProofSystem,
    Rule,
    generate_proof_system,
    minimize_proof_system,
)
from abslog.proofengine import (
    DerivabilityEngine,
    LindenbaumAlgebra,
    ModelEngine,
    build_lindenbaum,
    derivable,
    engine_for,
)
from abslog.syntax import Pred, Sequent, parse_sequent

from conftest import (
    BUILTIN_NAMES,
    DATA,
    REPO,
    family_abstraction,
    intersection_closed,
    load_builtin,
)

if str(REPO) not in sys.path:
    sys.path.insert(0, str(REPO))
from perfbench import families as fam  # noqa: E402

FAMILIES = ("nonembedding", "chain-12", "chain-20", "boolean-3", "octagon-c2",
            "parity-x-parity")
SATURATED = 8  # largest drawn family the saturation engine answers for


def naive_lindenbaum(ps, derives) -> LindenbaumAlgebra:
    """The algebra from pairwise derivability: ``derives(a, b)`` decides
    ``a |- b`` for predicate names."""
    preds = ps.signature.predicates
    n = len(preds)
    der = [[derives(a, b) for b in preds] for a in preds]
    cls_of_idx = [-1] * n
    classes = []
    for i in sorted(range(n), key=preds.__getitem__):
        if cls_of_idx[i] < 0:
            group = [j for j in range(n) if der[i][j] and der[j][i]]
            for j in group:
                cls_of_idx[j] = len(classes)
            classes.append(group)
    m = len(classes)
    leq = tuple(tuple(der[classes[i][0]][classes[j][0]] for j in range(m))
                for i in range(m))
    # derivability is class-independent, and the class order is transitive
    for i, j in iproduct(range(m), repeat=2):
        assert all(der[a][b] == leq[i][j] for a in classes[i] for b in classes[j])
    for i, j, k in iproduct(range(m), repeat=3):
        assert leq[i][k] or not (leq[i][j] and leq[j][k])

    lat = ps.abstraction.lattice

    def induce(c, table, chosen=()):
        if len(chosen) == c.arity:
            img = {cls_of_idx[lookup(table, args)]
                   for args in iproduct(*(classes[k] for k in chosen))}
            assert len(img) == 1, c.name
            return img.pop()
        return tuple(induce(c, table, chosen + (k,)) for k in range(m))

    ops = {c.name: induce(c, lat.table(c.name)) for c in CONNECTIVES.values()
           if c.name in ps.signature.connectives}
    return LindenbaumAlgebra(
        classes=tuple(frozenset(preds[j] for j in grp) for grp in classes),
        class_of={preds[j]: cls_of_idx[j] for j in range(n)}, leq=leq, ops=ops)


def from_models(ps):
    engine = engine_for(ps, len(ps.signature.predicates))
    bit = {p: 1 << i for i, p in enumerate(engine.preds)}
    return lambda a, b: engine.derivable_masks(bit[a], bit[b])


def from_saturation(ps):
    engine = DerivabilityEngine(ps, max_predicates=len(ps.signature.predicates))
    return lambda a, b: engine.derivable(Sequent((Pred(a),), (Pred(b),)))


def assert_as_the_reference(ps, saturate=True):
    got = build_lindenbaum(ps, max_predicates=len(ps.signature.predicates))
    assert got == naive_lindenbaum(ps, from_models(ps))
    if saturate:
        assert got == naive_lindenbaum(ps, from_saturation(ps))
    return got


def abstraction(name):
    if name == "nonembedding":
        return specfile.load_path(DATA / "nonembedding.spec")
    if name == "octagon-c2":
        return octagon.export_abstraction(octagon.OctLattice.build(2), 8)
    if name == "parity-x-parity":
        parity = load_builtin("parity")
        return cartesian.product([parity, parity]).abstraction
    kind, _, size = name.rpartition("-")
    if kind == "chain":
        return specfile.load(fam.chain_text(int(size)), name)
    if kind == "boolean":
        return specfile.load(fam.boolean_text(int(size)), name)
    return load_builtin(name)


def system(abs_):
    return generate_proof_system(abs_, preservation_report(abs_))


@pytest.mark.parametrize("name", BUILTIN_NAMES + FAMILIES)
def test_algebra_equals_the_reference(name):
    assert_as_the_reference(system(abstraction(name)))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_algebra_equals_the_reference_on_minimized_systems(name):
    assert_as_the_reference(minimize_proof_system(system(abstraction(name)), derivable))


def test_merged_classes_equal_the_reference():
    # nonembedding keeps its four classes; merging two of them by an axiom
    # must give the reference's three
    abs_ = abstraction("nonembedding")
    ps = system(abs_)
    merged = ProofSystem(ps.signature, ps.rules + (
        Rule(KIND_OPERATION, "merge", parse_sequent("a(x) |- b(x)")),
        Rule(KIND_OPERATION, "merge.back", parse_sequent("b(x) |- a(x)"))),
        ps.source, abs_)
    lind = assert_as_the_reference(merged)
    assert frozenset({"a", "b"}) in lind.classes and len(lind.classes) == 3


@settings(max_examples=25, deadline=None)
@given(intersection_closed())
def test_family_algebra_equals_the_reference(case):
    # a draw can hold up to 32 sets; saturation takes a quarter of a second
    # on Boolean 2^3 and does not finish on 2^4, so it answers up to 8
    abs_ = family_abstraction(case)
    assert_as_the_reference(system(abs_), saturate=len(abs_.lattice) <= SATURATED)


def test_classes_are_read_without_pairwise_queries(monkeypatch):
    def refuse(*args):
        raise AssertionError("build_lindenbaum asked a pairwise query")

    monkeypatch.setattr(ModelEngine, "derivable_masks", refuse)
    lind = build_lindenbaum(system(load_builtin("parity")))
    assert len(lind.classes) == 4


def test_an_operation_that_depends_on_the_member_is_refused():
    # with no introduction rules the calculus knows the tables only through
    # its axioms; top |- Even merges top with Even, and Even & Odd = bot
    # while top & Odd = Odd, which lie in different classes
    parity = load_builtin("parity")
    ps = system(parity)
    broken = ProofSystem(
        ps.signature,
        tuple(r for r in ps.rules if r.kind != KIND_INTRODUCTION)
        + (Rule(KIND_OPERATION, "merge", parse_sequent("top(x) |- Even(x)")),),
        ps.source, parity)
    with pytest.raises(AbslogError, match="and is not class-independent"):
        build_lindenbaum(broken)
