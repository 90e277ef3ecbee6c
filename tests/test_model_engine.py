"""The model engine against the saturation engine it replaced.

The models of the saturated reference generators must be exactly the model
engine's set M*: on the builtins, on the benchmark families, on seeded
prunings and on minimized systems.  Both engines must give the same answer to
every ``a |- b`` pair and to seeded random sequents, empty sides included.
Generated intersection-closed families must come out sound, complete and
isomorphic; Boolean 2^4 and chain 32, out of saturation's reach, verify end
to end, as does the octagon C = 6 export read back from its spec text, with
the model count its construction gives; and the model count stops at a typed
error.
"""

import random
import sys

import pytest
from hypothesis import given, settings

from abslog import cartesian, octagon, specfile
from abslog.concrete import (
    Abstraction,
    ConcreteUniverse,
    ConcretizationMap,
    preservation_report,
)
from abslog.errors import TooManyModels
from abslog.lattice import build_lattice
from abslog.logicgen import (
    KIND_INTRODUCTION,
    KIND_ORDER,
    KIND_STRUCTURAL,
    generate_proof_system,
    minimize_proof_system,
)
from abslog.proofengine import (
    MAX_MODELS,
    DerivabilityEngine,
    ModelEngine,
    build_lindenbaum,
    derivable,
    engine_for,
    verify_completeness,
    verify_isomorphism,
    verify_soundness,
)
from abslog.syntax import Pred, Sequent, parse_sequent

from conftest import (
    BUILTIN_NAMES,
    REPO,
    drop_rules,
    family_abstraction,
    intersection_closed,
    load_builtin,
)

if str(REPO) not in sys.path:
    sys.path.insert(0, str(REPO))
from perfbench import families as fam  # noqa: E402

FAMILIES = ("chain-12", "chain-20", "boolean-3", "octagon-c2", "octagon-c3",
            "parity-x-parity")
RANDOM_SEQUENTS = 300
# seeded prunings per system: more on the small systems whose impl.r and
# coimpl.l conditions remove a model on a few prunings in a hundred
PRUNINGS = {"parity": 150, "diamond": 150, "boolean-3": 6}
AXIOM_PRUNINGS = 10


def _abstraction(name):
    kind, _, size = name.rpartition("-")
    if kind == "chain":
        return specfile.load(fam.chain_text(int(size)), name)
    if kind == "boolean":
        return specfile.load(fam.boolean_text(int(size)), name)
    if kind == "octagon" and name != "octagon-c1":  # octagon-c1 is a builtin
        c = int(size[1:])
        return octagon.export_abstraction(octagon.OctLattice.build(c), 4 * c)
    if name == "parity-x-parity":
        parity = load_builtin("parity")
        return cartesian.product([parity, parity]).abstraction
    return load_builtin(name)


def system(abs_):
    return generate_proof_system(abs_, preservation_report(abs_))


def models_of(sequents, n):
    """Every valuation that no sequent refutes, extended one predicate at a
    time and checked against each sequent once its last predicate is set."""
    last = [[] for _ in range(n)]
    for g, d in sequents:
        last[(g | d).bit_length() - 1].append((g, d))
    vals = [0]
    for k in range(n):
        vals = [w for v in vals for w in (v, v | 1 << k)
                if not any((w & g) == g and not w & d for g, d in last[k])]
    return set(vals)


def reference(ps):
    engine = DerivabilityEngine(ps, max_predicates=len(ps.signature.predicates))
    engine.saturate()
    return engine


def same_models(ps, model=None):
    n = len(ps.signature.predicates)
    model = model or ModelEngine(ps, max_predicates=n)
    assert len(set(model.models)) == len(model.models)
    assert models_of(reference(ps).gen_list, n) == set(model.models)


def _masks(n, rng):
    """Random sequents as mask pairs, up to three predicates a side and each
    side empty now and then; a ``Sequent`` cannot have an empty succedent,
    but an engine is still asked for one."""
    out = [(0, (1 << n) - 1), ((1 << n) - 1, 0)]
    for _ in range(RANDOM_SEQUENTS):
        g, d = (sum(1 << i for i in rng.sample(range(n), rng.randint(0, min(3, n))))
                for _ in "gd")
        out.append((g, d))
    return out


@pytest.mark.parametrize("name", BUILTIN_NAMES + FAMILIES)
def test_models_and_answers_equal_the_reference(name):
    abs_ = _abstraction(name)
    ps = system(abs_)
    names = abs_.lattice.elements
    n = len(names)
    ref = reference(ps)
    model = ModelEngine(ps, max_predicates=n)
    assert models_of(ref.gen_list, n) == set(model.models)
    for a in names:
        for b in names:
            s = Sequent((Pred(a),), (Pred(b),))
            assert model.derivable(s) == ref.derivable(s), (name, a, b)
    for g, d in _masks(n, random.Random(f"model-engine-{name}")):
        assert model.derivable_masks(g, d) == ref.derivable_masks(g, d), (name, g, d)
    # every point's valuation is a model: the system is sound
    assert verify_soundness(abs_, ps, max_predicates=n).ok


@pytest.fixture
def pruned_models(monkeypatch):
    """How many models each model engine built from here on removed from M0."""
    removed = []
    prune = ModelEngine._prune

    def counted(self, models):
        kept = prune(self, models)
        removed.append(len(models) - len(kept[0]))
        return kept

    monkeypatch.setattr(ModelEngine, "_prune", counted)
    return removed


@pytest.mark.parametrize("name", BUILTIN_NAMES + ("chain-12", "boolean-3"))
def test_models_equal_the_reference_on_pruned_systems(name):
    ps = system(_abstraction(name))
    rules = [r.name for r in ps.rules if r.kind != KIND_STRUCTURAL]
    rng = random.Random(f"prune-{name}")
    for _ in range(PRUNINGS.get(name, 10)):
        share = rng.random()
        same_models(drop_rules(ps, {r for r in rules if rng.random() < share}))
    # prunings of axioms only, once the system has its engine: every other
    # one draws from the table axioms and ``a |- a``, so that some trial
    # inherits the engine, whose models must still be the reference's
    n = len(ps.signature.predicates)
    base = engine_for(ps, n)
    axioms = [r.name for r in ps.rules if r.axiom is not None]
    tautologies = [r for r in axioms if r.startswith(("op.", "ord.refl."))]
    inherited = 0
    for k in range(AXIOM_PRUNINGS):
        share = rng.random()
        pool = (tautologies, axioms)[k % 2]
        pruned = drop_rules(ps, {r for r in pool if rng.random() < share})
        model = engine_for(pruned, n)
        inherited += model.models is base.models
        same_models(pruned, model)
    assert inherited


def test_contraposition_removes_models_from_m0(pruned_models):
    # octagon-c1 has primitive negation and neither residual: without these
    # order axioms, contraposition alone removes 6 of M0's 43 valuations
    ps = drop_rules(system(load_builtin("octagon-c1")),
                    {"ord.p:-x-y>=0.top", "ord.p:-x-y>=1.p:-x-y>=0", "ord.p:-x-y>=1.top"})
    model = ModelEngine(ps, max_predicates=len(ps.signature.predicates))
    assert (pruned_models, len(model.models)) == ([6], 37)
    same_models(ps, model)


def test_ff_l_seeds_bot_below_every_predicate():
    # intro.ff.l (G, ff |- D) gives ff |- Odd, and bot |- Odd by cut with
    # op.ff.r (bot |- ff): in parity without its order axioms and with only
    # that introduction rule, both come from the ff family alone
    ps = system(load_builtin("parity"))
    pruned = drop_rules(ps, {r.name for r in ps.rules if r.kind == KIND_ORDER
                             or r.kind == KIND_INTRODUCTION and r.name != "intro.ff.l"})
    engines = reference(pruned), ModelEngine(pruned)
    for text in ("ff |- Odd(x)", "bot(x) |- Odd(x)"):
        s = parse_sequent(text)
        assert all(engine.derivable(s) for engine in engines), text


def test_coimpl_l_weakens_a_context_in():
    # Even |- Even, weakened to Even |- Odd, Even, gives Even <- Even |- Odd,
    # and Even <- Even is bot: in parity without its order axioms and with
    # only the coimplication rules, bot |- Odd comes from coimpl.l alone
    ps = system(load_builtin("parity"))
    coimpl = {"intro.coimpl.l", "intro.coimpl.r"}
    pruned = drop_rules(ps, {r.name for r in ps.rules if r.kind == KIND_ORDER
                             or r.kind == KIND_INTRODUCTION and r.name not in coimpl})
    s = parse_sequent("bot(x) |- Odd(x)")
    assert reference(pruned).derivable(s)
    assert ModelEngine(pruned).derivable(s)


@pytest.mark.parametrize("name", BUILTIN_NAMES + ("chain-12",))
def test_models_equal_the_reference_on_minimized_systems(name):
    same_models(minimize_proof_system(system(_abstraction(name)), derivable))


@settings(max_examples=50, deadline=None)
@given(intersection_closed())
def test_intersection_closed_families_verify(case):
    abs_ = family_abstraction(case)
    ps = system(abs_)
    n = len(abs_.lattice.elements)
    assert verify_soundness(abs_, ps, max_predicates=n).ok
    assert verify_completeness(abs_, ps, max_predicates=n).status == "complete"
    assert verify_isomorphism(abs_, build_lindenbaum(ps, abs_, max_predicates=n)).ok


@pytest.mark.parametrize("name", ("boolean-4", "chain-32"))
def test_beyond_saturation_verifies_end_to_end(name):
    abs_ = _abstraction(name)
    ps = system(abs_)
    n = len(abs_.lattice.elements)
    assert verify_isomorphism(abs_, build_lindenbaum(ps, abs_, max_predicates=n)).ok
    sound = verify_soundness(abs_, ps, max_predicates=n)
    assert sound.ok
    assert sound.generators_checked == len(engine_for(ps, n).models)
    assert sound.cells_checked == len(abs_.universe)
    assert verify_completeness(abs_, ps, max_predicates=n).status == "complete"


def test_octagon_c6_verifies_through_its_spec_text():
    c = 6
    abs_ = specfile.load(specfile.emit(
        octagon.export_abstraction(octagon.OctLattice.build(c), 4 * c)), "octagon-c6")
    ps = system(abs_)
    n = len(abs_.lattice.elements)
    # bot's model, the full valuation, and the product of the two slope
    # pairs' (C+1)(2C+1) models each
    assert len(engine_for(ps, n).models) == (c + 1) ** 2 * (2 * c + 1) ** 2 + 1 == 8282
    assert verify_soundness(abs_, ps, max_predicates=n).ok
    assert verify_completeness(abs_, ps, max_predicates=n).status == "complete"
    assert verify_isomorphism(abs_, build_lindenbaum(ps, abs_, max_predicates=n)).ok


def antichain(k):
    """bot < a0 .. a(k-1) < top, where every atom's image holds one shared
    point: meets are not preserved, and every set of atoms is a model."""
    atoms = [f"a{i}" for i in range(k)]
    lat = build_lattice(["bot", *atoms, "top"],
                        [("bot", a) for a in atoms] + [(a, "top") for a in atoms])
    uni = ConcreteUniverse.atoms(["shared", *(f"p{i}" for i in range(k))])
    masks = {"bot": uni.mask([]), "top": uni.mask(uni.points)}
    masks.update({a: uni.mask(["shared", f"p{i}"]) for i, a in enumerate(atoms)})
    abs_ = Abstraction("antichain", lat, ConcretizationMap(lat, uni, masks))
    report = preservation_report(abs_)
    assert "and" not in report.preserved()
    return generate_proof_system(abs_, report)


def test_model_count_is_two_to_the_antichain():
    ps = antichain(8)
    # every set of atoms with top, and the full set
    assert len(engine_for(ps, 10).models) == 2 ** 8 + 1


def test_model_count_guard():
    ps = antichain(18)
    s = Sequent((Pred("a0"),), (Pred("a1"),))
    with pytest.raises(TooManyModels) as exc:
        derivable(ps, s, max_predicates=20)
    err = exc.value
    # bot, then 17 atoms: 2^17 + 1 partial models pass the bound
    assert (err.reached, err.predicates, err.count) == (18, 20, 2 ** 17 + 1)
    assert err.count > MAX_MODELS
    assert f"{err.count} partial models after predicate 18 of 20" in str(err)
    assert ps._engine is None
