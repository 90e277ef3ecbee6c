"""One derivability engine per proof system.

``engine_for`` builds a system's model engine on first use and keeps it on
the system, so the verifiers that follow ``build_lindenbaum`` build no
further engine; the predicate bound is still checked on every call; a
derived system that drops only axioms adding no clause inherits the engine
as an object of its own, and any other derived system builds a new one, so
a minimization builds one engine per trial that changes M0; assigning a
field drops the engine and dropping the system frees it; and a cached engine
changes no output.
"""

import gc
import sys
import weakref
from pathlib import Path

import pytest

from abslog import specfile
from abslog.concrete import preservation_report
from abslog.errors import AbslogError, CarrierTooLarge
from abslog.logicgen import (
    KIND_OPERATION,
    Rule,
    generate_proof_system,
    minimize_proof_system,
    parse_machine,
    render,
)
from abslog.proofengine import (
    ModelEngine,
    build_lindenbaum,
    derivable,
    engine_for,
    verify_completeness,
    verify_soundness,
)
from abslog.syntax import parse_sequent

from conftest import BUILTIN_NAMES, REPO, drop_rules, load_builtin

if str(REPO) not in sys.path:
    sys.path.insert(0, str(REPO))
from perfbench import families as fam  # noqa: E402

DATA = Path(__file__).resolve().parent / "data"


def system(abs_):
    return generate_proof_system(abs_, preservation_report(abs_))


def count_builds(monkeypatch) -> list:
    """Count every model engine built from here on."""
    builds = []
    start = ModelEngine._start

    def counted(self, axioms, names):
        builds.append(len(axioms))
        return start(self, axioms, names)

    monkeypatch.setattr(ModelEngine, "_start", counted)
    return builds


@pytest.mark.parametrize("name", ("interval", "octagon-c1"))
def test_verifiers_after_lindenbaum_run_no_step(monkeypatch, name):
    abs_ = load_builtin(name)
    # order axioms cut down to the Hasse edges, so that completeness needs
    # more than the seeded axioms
    ps = minimize_proof_system(system(abs_), derivable)
    build_lindenbaum(ps, abs_)
    builds = count_builds(monkeypatch)
    assert verify_soundness(abs_, ps).ok
    assert verify_completeness(abs_, ps).status == "complete"
    assert builds == []
    # the counter does count: a freshly generated system has no engine yet
    assert verify_completeness(abs_, system(abs_)).status == "complete"
    assert builds


# engines a minimization builds: one for each trial that drops an axiom
# adding a clause (octagon-c1's six infeasibility axioms), else one for the
# first trial; every other trial drops a table axiom that normalizes to
# ``c |- c`` and inherits the engine of the system before it
MINIMIZATION_BUILDS = {**dict.fromkeys(BUILTIN_NAMES, 1), "octagon-c1": 6,
                       "chain-12": 1}


@pytest.mark.parametrize("name", tuple(MINIMIZATION_BUILDS))
def test_minimization_builds_an_engine_per_changed_m0(monkeypatch, name):
    if name == "chain-12":
        abs_ = specfile.load(fam.chain_text(12), name)
    else:
        abs_ = load_builtin(name)
    ps = system(abs_)
    builds = count_builds(monkeypatch)
    minimize_proof_system(ps, derivable)
    assert len(builds) == MINIMIZATION_BUILDS[name]


def test_a_derived_system_inherits_only_an_unchanged_m0(monkeypatch, parity):
    ps = system(parity)
    engine = engine_for(ps)
    builds = count_builds(monkeypatch)
    # ``a |- a`` adds no clause: the engine is inherited as a new object
    trial = drop_rules(ps, {"ord.refl.Even"})
    assert engine_for(trial) is not engine
    assert engine_for(trial).models is engine.models
    assert builds == []
    # a removed schema rule builds afresh, with the full validation
    with pytest.raises(AbslogError, match="structural rules missing"):
        derivable(drop_rules(ps, {"cut"}), parse_sequent("Even(x) |- top(x)"))
    # a Hasse order axiom adds a clause: its removal builds a fresh engine
    trial = drop_rules(ps, {"ord.Even.top"})
    assert engine_for(trial) is not engine
    assert builds == [sum(r.axiom is not None for r in trial.rules)]


def test_dropping_a_name_that_stands_for_two_rules_is_refused():
    # ``refl |- x`` and ``x |- x`` are both named ``ord.refl.x``
    abs_ = specfile.load("""
ELEMENTS
bot refl x y top
ORDER
bot < refl
refl < x
x < top
bot < y
y < top
UNIVERSE
atoms u v w
GAMMA
bot = {}
refl = {u}
x = {u v}
y = {w}
top = all
""", "refl")
    ps = system(abs_)
    assert sum(r.name == "ord.refl.x" for r in ps.rules) == 2
    with pytest.raises(ValueError, match="ord.refl.x"):
        drop_rules(ps, {"ord.refl.x"})


def test_smaller_bound_refused_after_larger():
    # the reverse order of test_carrier_too_large_guard
    ps = system(specfile.load_path(DATA / "huge.spec"))
    s = parse_sequent("c00(x) |- c01(x)")
    assert derivable(ps, s, max_predicates=20)
    with pytest.raises(CarrierTooLarge):
        derivable(ps, s)
    with pytest.raises(CarrierTooLarge):
        build_lindenbaum(ps)
    assert derivable(ps, s, max_predicates=20)


def test_one_engine_per_system(parity):
    ps = system(parity)
    engine = engine_for(ps)
    assert engine_for(ps) is engine
    trial = drop_rules(ps, {ps.rules[-1].name})
    assert engine_for(trial) is not engine
    assert engine_for(trial) is engine_for(trial)
    back = parse_machine(render(ps, "machine"))
    assert back == ps
    back.abstraction = parity  # the machine format does not carry it
    assert engine_for(back) is not engine


def test_assigning_a_field_drops_the_engine(parity):
    ps = system(parity)
    s = parse_sequent("top(x) |- bot(x)")
    assert not derivable(ps, s)
    engine = engine_for(ps)
    ps.rules += (Rule(KIND_OPERATION, "unsound", s),)
    assert derivable(ps, s)
    assert engine_for(ps) is not engine


def test_dropped_system_frees_its_engine(parity):
    # no reference cycle between a system and its engine, so the engine goes
    # with the system and not only at the next garbage collection
    ps = system(parity)
    engine = weakref.ref(engine_for(ps))
    gc.disable()
    try:
        del ps
        assert engine() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_cached_engine_changes_no_output(name):
    abs_ = load_builtin(name)
    ps = system(abs_)

    def outputs():
        return ([render(ps, f) for f in ("text", "latex", "machine")],
                specfile.emit(abs_), repr(ps))

    before = outputs()
    build_lindenbaum(ps, abs_)
    engine = ps._engine  # built and kept on the system
    assert engine is not None and engine_for(ps) is engine
    assert outputs() == before
    assert ps == system(abs_)
    assert system(abs_) == ps
