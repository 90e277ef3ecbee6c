"""A system's axioms are checked on point masks, through the registry.

The mask check must equal the naive ``holds_concrete`` on every axiom and on
each axiom with a random succedent, true and false verdicts both; every
registry operation on masks must compute the oracle's set operation;
``verify_soundness`` on a sound system builds no ``ConcreteSet``,
checks every axiom, the last one included, and catches a wrong concrete
operation at the first axiom that it breaks.
"""

import dataclasses
import random
from itertools import combinations, product

import pytest

from abslog import connectives
from abslog.concrete import ConcreteSet, ConcreteUniverse, PointMasks
from abslog.connectives import CONNECTIVES
from abslog.logicgen import KIND_OPERATION, ProofSystem, Rule
from abslog.proofengine import engine_for, verify_soundness
from abslog.syntax import Compound, Pred, Sequent, render_sequent

from concrete_oracle import OPS, holds_concrete
from conftest import BUILTIN_NAMES, load_builtin
from test_model_engine import _abstraction, system

SCALING = ("chain-20", "octagon-c2", "octagon-c3", "boolean-3", "parity-x-parity")


def axioms(ps):
    return [r.axiom for r in ps.rules if r.axiom is not None]


def naive_masks(abs_) -> dict[str, int]:
    """Each element's mask, read off gamma point by point."""
    points = abs_.universe.points
    images = {p: abs_.gamma(p).members for p in abs_.lattice.elements}
    return {p: sum(1 << j for j, x in enumerate(points) if x in image)
            for p, image in images.items()}


def point_masks(abs_) -> PointMasks:
    """A mask checker whose predicate masks are ``naive_masks``."""
    return PointMasks(len(abs_.universe), naive_masks(abs_))


@pytest.mark.parametrize("name", BUILTIN_NAMES + SCALING)
def test_mask_check_equals_holds_concrete(name):
    abs_ = _abstraction(name)
    ps = system(abs_)
    masks = point_masks(abs_)
    conns = ps.signature.connectives
    atoms = [Pred(p) for p in ps.signature.predicates]
    atoms += [Compound(c) for c in ("tt", "ff") if c in conns]
    rng = random.Random(f"axiom-masks-{name}")
    verdicts = set()
    for s in axioms(ps):
        # the axiom, then the same antecedent against one random atom
        for t in (s, Sequent(s.ante, (rng.choice(atoms),))):
            expected = holds_concrete(abs_, t)
            assert masks.holds(t) == expected, (name, render_sequent(t))
            verdicts.add(expected)
    assert verdicts == {True, False}, name


@pytest.mark.parametrize("uni", [ConcreteUniverse.atoms("abcd"),
                                 ConcreteUniverse.window(0, 2)],
                         ids=["atoms-4", "window-3"])
def test_registry_ops_agree_on_sets_and_masks(uni):
    # each mask is encoded here bit by bit in point order, not by uni.mask
    assert OPS.keys() == CONNECTIVES.keys()
    points = uni.points
    full = uni.point_set
    subsets = [frozenset(c) for k in range(len(points) + 1)
               for c in combinations(points, k)]
    full_mask = (1 << len(points)) - 1

    def mask_of(members):
        return sum(1 << j for j, x in enumerate(points) if x in members)

    for c in CONNECTIVES.values():
        for args in product(subsets, repeat=c.arity):
            expected = OPS[c.name](full, *args)
            on_masks = c.concrete(full_mask, *map(mask_of, args))
            assert on_masks == mask_of(expected), (c.name, args)


def test_soundness_builds_no_concrete_set(monkeypatch):
    abs_ = load_builtin("octagon-c1")
    ps = system(abs_)
    built = []
    post_init = ConcreteSet.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(ConcreteSet, "__post_init__", counting)
    res = verify_soundness(abs_, ps)
    assert res.ok and res.replays_checked == len(axioms(ps))
    assert built == []


def test_every_replay_is_checked(builtins):
    for name, abs_ in builtins.items():
        ps = system(abs_)
        res = verify_soundness(abs_, ps, rng_seed=3)
        assert res.ok and res.replays_checked == len(axioms(ps)), name


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_a_false_last_axiom_is_caught(name):
    # the corrupted system keeps the sound system's engine, so every point's
    # valuation passes and only the axiom pass, run to its end, sees the fault
    abs_ = load_builtin(name)
    ps = system(abs_)
    last = max(i for i, r in enumerate(ps.rules) if r.axiom is not None)
    lat = abs_.lattice
    false = Sequent((Pred(lat.top),), (Pred(lat.bottom),))  # top |- bottom
    rules = list(ps.rules)
    rules[last] = Rule(KIND_OPERATION, "false", false)
    corrupted = ProofSystem(ps.signature, tuple(rules), ps.source, abs_)
    corrupted._engine = engine_for(ps)
    res = verify_soundness(abs_, corrupted)
    assert (res.ok, res.counterexample) == (False, false), name
    assert res.cells_checked == len(abs_.universe), name
    assert res.replays_checked == len(axioms(ps)), name


def test_a_replay_catches_a_wrong_concrete_operation(monkeypatch):
    # the point check reads gamma alone, so with "and" read as union only an
    # axiom that holds a conjunction can show the fault
    abs_ = load_builtin("interval")
    ps = system(abs_)
    engine_for(ps)
    wrong = dataclasses.replace(CONNECTIVES["and"], concrete=lambda u, x, y: x | y)
    monkeypatch.setitem(connectives.CONNECTIVES, "and", wrong)
    res = verify_soundness(abs_, ps)
    assert (res.ok, res.cells_checked, res.replays_checked) == (False, 3, 3)
    assert render_sequent(res.counterexample) == "bot(x) & [-1..-1](x) |- bot(x)"
