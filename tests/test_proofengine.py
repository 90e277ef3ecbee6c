"""Normalization, evaluation, derivability, Lindenbaum algebra and the
three lemma verifications."""

import random
from dataclasses import replace

import pytest

from abslog.concrete import (
    Abstraction,
    ConcreteUniverse,
    ConcretizationMap,
    preservation_report,
)
from abslog.errors import AbslogError, CarrierTooLarge, UnknownSymbol
from abslog.lattice import UnaryOpTable, build_lattice
from abslog.logicgen import (
    KIND_OPERATION,
    ProofSystem,
    Rule,
    generate_proof_system,
    parse_machine,
    render,
)
from abslog.proofengine import (
    DerivabilityEngine,
    ModelEngine,
    build_lindenbaum,
    derivable,
    engine_for,
    normalize,
    verify_completeness,
    verify_isomorphism,
    verify_soundness,
)
from abslog.syntax import (
    Pred,
    Sequent,
    parse_formula,
    parse_sequent,
    render_sequent,
)

from abslog import specfile
from pathlib import Path

from concrete_oracle import eval_concrete, holds_concrete

DATA = Path(__file__).resolve().parent / "data"
SPECS = DATA.parent.parent / "specs"


def system(abs_):
    return generate_proof_system(abs_, preservation_report(abs_))


@pytest.fixture(scope="module")
def parity_ps(parity):
    return system(parity)


# --- normalization and evaluation -------------------------------------------


def test_normalize_examples(parity, parity_ps):
    assert normalize(parity_ps, parse_formula("Even(x) & Odd(x)")) == "bot"
    assert normalize(parity_ps, parse_formula("~~Even(x)")) == "Even"
    assert normalize(parity_ps, parse_formula("(Even(x) -> bot(x)) | Even(x)")) == "top"
    assert normalize(parity_ps, parse_formula("tt")) == "top"


def test_normalize_rejects_foreign_symbols(sign):
    ps = system(sign)  # sign preserves no negation (none declared)
    with pytest.raises(UnknownSymbol):
        normalize(ps, parse_formula("~Neg(x)"))
    with pytest.raises(UnknownSymbol):
        normalize(ps, parse_formula("zz(x)"))


def test_normalize_predicates_and_connectives(parity_ps):
    for a in parity_ps.signature.predicates:
        assert normalize(parity_ps, Pred(a)) == a
    assert normalize(parity_ps, parse_formula("Even(x) | Odd(x)")) == "top"
    assert normalize(parity_ps, parse_formula("Even(x) -> bot(x)")) == "Odd"


def test_eval_concrete_examples(parity):
    assert eval_concrete(parity, Pred("Even")).members == parity.gamma("Even").members
    odds = frozenset(p for p in parity.universe.points if p % 2 != 0)
    assert eval_concrete(parity, parse_formula("~Even(x)")).members == odds
    assert eval_concrete(parity, parse_formula("tt")).members == \
        parity.universe.point_set


# --- concrete validity -------------------------------------------------------


def test_holds_concrete_examples(parity):
    for text in ("Even(x) |- Even(x)", "tt |- Even(x), Odd(x)",
                 "Even(x), Odd(x) |- ff"):
        assert holds_concrete(parity, parse_sequent(text))
    assert not holds_concrete(parity, parse_sequent("Even(x) |- Odd(x)"))
    assert not holds_concrete(parity, parse_sequent("tt |- Even(x)"))


def test_holds_concrete_empty_antecedent_reads_full(parity):
    assert holds_concrete(parity, parse_sequent("|- tt"))
    assert not holds_concrete(parity, parse_sequent("|- Even(x)"))


# --- derivability ------------------------------------------------------------


def test_order_axioms_derivable(builtins):
    for abs_ in builtins.values():
        ps = system(abs_)
        eng = DerivabilityEngine(ps)
        lat = abs_.lattice
        for a in lat.elements:
            for b in lat.elements:
                got = eng.derivable(Sequent((Pred(a),), (Pred(b),)))
                assert got == lat.leq(a, b), (abs_.name, a, b)


def test_parity_examples(parity_ps):
    assert derivable(parity_ps, parse_sequent("~Odd(x) |- Even(x)"))
    assert derivable(parity_ps, parse_sequent("tt |- Even(x), Odd(x)"))
    assert not derivable(parity_ps, parse_sequent("Even(x) |- Odd(x)"))
    assert derivable(parity_ps, parse_sequent("Even(x), Odd(x) |- ff"))


def test_octagon_sequent_derivable(builtins):
    ps = system(builtins["octagon-c1"])
    s = parse_sequent("p:+x+y>=1(x,y), p:-x-y>=0(x,y) |- ff",
                      expected_args=("x", "y"))
    assert derivable(ps, s)
    assert holds_concrete(builtins["octagon-c1"], s)
    # the perpendicular pair is satisfiable, so no such refutation exists
    t = parse_sequent("p:+x+y>=0(x,y), p:+x-y>=0(x,y) |- ff",
                      expected_args=("x", "y"))
    assert not derivable(ps, t)


def test_weakening_monotonicity(parity, parity_ps):
    rng = random.Random(3)
    eng = DerivabilityEngine(parity_ps)
    eng.saturate()
    preds = [Pred(p) for p in parity_ps.signature.predicates]
    for g, d in list(eng.gen_list)[:20]:
        s = eng.mask_sequent(g, d)
        for _ in range(5):
            extra_a = tuple(rng.sample(preds, rng.randrange(3)))
            extra_s = tuple(rng.sample(preds, rng.randrange(3)))
            t = Sequent(s.ante + extra_a, s.succ + extra_s)
            assert eng.derivable(t), render_sequent(t)


def test_derivability_invariant_under_normalize(parity, parity_ps):
    cases = ["~Odd(x) |- Even(x)",
             "Even(x) & top(x) |- Even(x) | bot(x)",
             "(Even(x) -> bot(x)) |- Odd(x)",
             "Even(x) <- Odd(x) |- Even(x)"]
    for text in cases:
        s = parse_sequent(text)
        norm = Sequent(
            tuple(Pred(normalize(parity_ps, f)) for f in s.ante),
            tuple(Pred(normalize(parity_ps, f)) for f in s.succ))
        assert derivable(parity_ps, s) == derivable(parity_ps, norm)


def test_comma_gains_no_meet_power_without_and(builtins):
    # in the octagon signature there is no conjunction: two compatible
    # half-planes do not entail their set intersection's consequences
    ps = system(builtins["octagon-c1"])
    s = parse_sequent("p:+x+y>=0(x,y), p:+x+y>=1(x,y) |- p:+x+y>=1(x,y)",
                      expected_args=("x", "y"))
    assert derivable(ps, s)  # via weakening of an order axiom
    t = parse_sequent("p:+x+y>=0(x,y), p:+x-y>=0(x,y) |- p:+x+y>=1(x,y)",
                      expected_args=("x", "y"))
    assert not derivable(ps, t)


def test_carrier_too_large_guard():
    abs_ = specfile.load_path(DATA / "huge.spec")
    ps = system(abs_)
    with pytest.raises(CarrierTooLarge):
        derivable(ps, parse_sequent("c00(x) |- c01(x)"))
    # the bound is configurable
    assert derivable(ps, parse_sequent("c00(x) |- c01(x)"), max_predicates=20)


@pytest.mark.parametrize("engine", [ModelEngine, DerivabilityEngine])
@pytest.mark.parametrize("name, rules", [
    ("sign", ("intro.impl.l", "intro.impl.r")),
    # negation read as implication to absurdity, in a system with no implication
    ("octagon-c1", ("intro.not.def.l", "intro.not.def.r")),
])
def test_rules_of_a_connective_outside_the_signature(builtins, name, rules, engine):
    abs_ = builtins[name]
    text = render(system(abs_), "machine") + "".join(f"rule introduction {r}\n"
                                                     for r in rules)
    ps = parse_machine(text)
    ps.abstraction = abs_
    assert "impl" not in ps.signature.connectives
    with pytest.raises(AbslogError, match="'impl'"):
        engine(ps)


# --- Lindenbaum-Tarski -------------------------------------------------------


def test_parity_lindenbaum_classes(parity, parity_ps):
    lind = build_lindenbaum(parity_ps)
    assert len(lind.classes) == 4
    assert all(len(c) == 1 for c in lind.classes)


def test_single_element_lattice():
    lat = build_lattice(["only"], [])
    uni = ConcreteUniverse.window(0, 0)
    gamma = ConcretizationMap(lat, uni, {"only": uni.mask(uni.points)})
    abs_ = Abstraction("one", lat, gamma)
    ps = system(abs_)
    lind = build_lindenbaum(ps)
    assert len(lind.classes) == 1
    assert verify_isomorphism(abs_, lind).ok


def test_equal_images_still_separated():
    # incomparable elements with one shared image stay in distinct classes:
    # the axioms come from the abstract order, not from gamma
    abs_ = specfile.load_path(DATA / "nonembedding.spec")
    ps = system(abs_)
    assert ps.signature.connectives == {"tt", "ff"}
    lind = build_lindenbaum(ps)
    assert len(lind.classes) == 4
    report = verify_isomorphism(abs_, lind)
    assert report.ok and report.injective


def test_parity_isomorphism(parity, parity_ps):
    lind = build_lindenbaum(parity_ps)
    report = verify_isomorphism(parity, lind)
    assert report.ok, report.failures
    assert report.homomorphism == {c: True for c in
                                   ("and", "or", "impl", "coimpl", "not", "tt", "ff")}


def test_diamond_isomorphism(diamond):
    ps = system(diamond)
    assert verify_isomorphism(diamond, build_lindenbaum(ps)).ok


def noninjective_exhibit():
    """gamma preserves negation but the table is not involutive, so the
    involution axioms merge two incomparable elements."""
    lat = build_lattice(
        ["bot", "a", "b", "c", "top"],
        [("bot", x) for x in "abc"] + [(x, "top") for x in "abc"],
        unary_ops={"negation": UnaryOpTable("negation", {
            "bot": "top", "top": "bot", "a": "c", "b": "c", "c": "a"})})
    uni = ConcreteUniverse.atoms(["u1", "u2"])
    s = uni.mask(["u1"])
    gamma = ConcretizationMap(lat, uni, {
        "bot": uni.mask([]), "a": s, "b": s, "c": uni.mask(["u2"]),
        "top": uni.mask(uni.points)})
    return Abstraction("merge", lat, gamma)


def test_noninjective_lindenbaum_recorded():
    abs_ = noninjective_exhibit()
    report = preservation_report(abs_)
    assert "not" in report.preserved()
    ps = generate_proof_system(abs_, report)
    lind = build_lindenbaum(ps)
    assert len(lind.classes) == 4  # a and b merged
    iso = verify_isomorphism(abs_, lind)
    assert not iso.injective and not iso.ok
    # surjectivity and every homomorphism check still pass
    assert iso.surjective
    assert all(iso.homomorphism.values())


def test_isomorphism_failures_are_reported(parity, parity_ps):
    # parity's algebra with one fault planted in each copy
    lind = build_lindenbaum(parity_ps)
    m = len(lind.classes)
    report = verify_isomorphism(parity, replace(lind, classes=lind.classes + (frozenset(),)))
    assert not report.surjective and not report.ok
    assert report.failures[0] == "some class is the image of no element"

    discrete = tuple(tuple(i == j for j in range(m)) for i in range(m))
    report = verify_isomorphism(parity, replace(lind, leq=discrete))
    assert (report.order_preserving, report.order_reflecting, report.ok) == (
        False, True, False)
    assert report.failures[0] == "order not preserved on (bot, Even)"

    top = lind.class_of["top"]
    meet_is_top = tuple((top,) * m for _ in range(m))
    report = verify_isomorphism(parity, replace(lind, ops={**lind.ops, "and": meet_is_top}))
    assert not report.homomorphism["and"] and not report.ok
    assert [c for c, ok in report.homomorphism.items() if not ok] == ["and"]
    # the first argument pair that fails is the only one reported
    assert report.failures == ["and not a homomorphism on (bot, bot)"]


def test_a_system_without_its_abstraction_is_refused(parity_ps):
    detached = parse_machine(render(parity_ps, "machine"))
    with pytest.raises(AbslogError) as exc:
        normalize(detached, parse_formula("Even(x)"))
    assert str(exc.value) == "normalization needs the source abstraction"
    for engine in (ModelEngine, DerivabilityEngine):
        with pytest.raises(AbslogError) as exc:
            engine(detached)
        assert str(exc.value) == "the derivability engine needs the source abstraction"


def test_engines_and_lindenbaum_read_the_carrier_in_order(parity, sign, parity_ps):
    sig = parity_ps.signature
    shuffled = ProofSystem(replace(sig, predicates=sig.predicates[::-1]),
                           parity_ps.rules, parity_ps.source, parity)
    for engine in (ModelEngine, DerivabilityEngine):
        with pytest.raises(AbslogError) as exc:
            engine(shuffled)
        assert str(exc.value) == ("the signature predicates must be the lattice "
                                  "elements, in carrier order")
    with pytest.raises(AbslogError) as exc:
        build_lindenbaum(parity_ps, sign)
    assert str(exc.value) == "the abstraction's carrier is not the system's predicates"


@pytest.mark.parametrize("other", ["diamond", "sign"])
def test_isomorphism_over_another_carrier_is_refused(parity_ps, other, request):
    # refused before any verdict reads an element the algebra does not name
    lind = build_lindenbaum(parity_ps)
    with pytest.raises(AbslogError) as exc:
        verify_isomorphism(request.getfixturevalue(other), lind)
    assert str(exc.value) == "the abstraction's carrier is not the system's predicates"


# --- soundness ---------------------------------------------------------------


def test_soundness_builtins(builtins):
    for abs_ in builtins.values():
        ps = system(abs_)
        res = verify_soundness(abs_, ps)
        assert res.ok, (abs_.name, render_sequent(res.counterexample))
        # every model of the system, and every point's valuation, checked
        assert res.generators_checked == len(engine_for(ps).models)
        assert res.cells_checked == len(abs_.universe)
        assert res.replays_checked > 0


def test_reference_generators_hold_at_every_point(builtins):
    # the generator-level soundness check, on the saturation engine
    for abs_ in builtins.values():
        eng = DerivabilityEngine(system(abs_))
        eng.saturate()
        for g, d in eng.gen_list:
            s = eng.mask_sequent(g, d)
            assert holds_concrete(abs_, s), (abs_.name, render_sequent(s))


def test_corrupted_system_caught(parity, parity_ps):
    bad_axiom = Rule(KIND_OPERATION, "corrupt", parse_sequent("top(x) |- bot(x)"))
    corrupted = ProofSystem(parity_ps.signature, parity_ps.rules + (bad_axiom,),
                            parity_ps.source, parity_ps.abstraction)
    res = verify_soundness(parity, corrupted)
    assert not res.ok
    assert res.counterexample is not None
    assert not holds_concrete(parity, res.counterexample)


# --- completeness ------------------------------------------------------------


def test_completeness_builtins(builtins):
    for abs_ in builtins.values():
        ps = system(abs_)
        res = verify_completeness(abs_, ps)
        assert res.status == "complete", abs_.name
        n = len(abs_.lattice.elements)
        assert res.pairs_checked == n * n


def test_completeness_biconditional(parity, parity_ps):
    eng = DerivabilityEngine(parity_ps)
    for a in parity.lattice.elements:
        for b in parity.lattice.elements:
            inc = parity.gamma(a).members <= parity.gamma(b).members
            der = eng.derivable(Sequent((Pred(a),), (Pred(b),)))
            assert inc == der


def test_completeness_compares_concrete_sets_once(monkeypatch, parity, parity_ps):
    # once gamma is known to be an order embedding, gamma(a) <= gamma(b) is
    # a <= b; the embedding check compares gamma's point masks, so no
    # concrete set is decoded at all
    calls = []
    decode = ConcretizationMap.__call__

    def counted(self, element):
        calls.append(element)
        return decode(self, element)

    monkeypatch.setattr(ConcretizationMap, "__call__", counted)
    assert verify_completeness(parity, parity_ps).status == "complete"
    assert calls == []


def test_completeness_reads_gamma_by_name(interval):
    # the engine's bits follow the system's predicates; an abstraction that
    # lists the same carrier in reverse must still read complete
    ps = system(interval)
    text = (SPECS / "interval.spec").read_text(encoding="utf-8")
    elements = " ".join(interval.lattice.elements)
    reversed_ = specfile.load(
        text.replace(elements, " ".join(reversed(interval.lattice.elements))),
        "interval")
    assert reversed_.lattice.elements == interval.lattice.elements[::-1]
    res = verify_completeness(reversed_, ps)
    assert (res.status, res.witness, res.pairs_checked) == ("complete", None, 49)


def test_completeness_precondition_unmet():
    abs_ = specfile.load_path(DATA / "nonembedding.spec")
    res = verify_completeness(abs_, system(abs_))
    assert res.status == "precondition_unmet"
    assert res.witness is not None
