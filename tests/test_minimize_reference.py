"""Minimization asks its oracle what a naive reference asks.

``naive_minimize`` is the reference: each trial filters every rule of the
system before it by name.  ``minimize_proof_system`` must make the same
oracle calls in the same order, each on a system with the same rules, and
return an equal system whose rules keep the parent's order.
"""

import sys

import pytest

from abslog import specfile
from abslog.concrete import preservation_report
from abslog.errors import MinimizationFailed
from abslog.lattice import hasse_edges
from abslog.logicgen import (
    KIND_OPERATION,
    KIND_ORDER,
    ProofSystem,
    generate_proof_system,
    minimize_proof_system,
)
from abslog.proofengine import derivable
from abslog.syntax import Compound

from conftest import BUILTIN_NAMES, REPO, drop_rules, load_builtin

if str(REPO) not in sys.path:
    sys.path.insert(0, str(REPO))
from perfbench import families as fam  # noqa: E402


def naive_minimize(ps, oracle):
    """Order axioms down to the Hasse edges, then each operation axiom in
    name order, dropped when the system without it still derives it."""
    covers = set(hasse_edges(ps.abstraction.lattice))
    removed = {}
    for r in ps.rules:
        if r.kind == KIND_ORDER:
            (a,), (b,) = r.axiom.ante, r.axiom.succ
            if a == b or (a.name, b.name) not in covers:
                removed[r.name] = r.axiom
    current = drop_rules(ps, set(removed))
    for r in sorted((r for r in current.rules if r.kind == KIND_OPERATION),
                    key=lambda r: r.name):
        trial = drop_rules(current, {r.name})
        if oracle(trial, r.axiom):
            removed[r.name] = r.axiom
            current = trial
    for name, seq in sorted(removed.items()):
        if not oracle(current, seq):
            raise MinimizationFailed(name)
    return current


def recording(log, oracle=derivable):
    """``oracle``, logging each call's sorted rule names and sequent."""
    def recorded(system, seq):
        log.append((sorted(r.name for r in system.rules), seq))
        return oracle(system, seq)
    return recorded


def abstraction(name):
    if name == "chain-12":
        return specfile.load(fam.chain_text(12), name)
    return load_builtin(name)


def assert_as_the_reference(ps, oracle=derivable):
    expected_log, log = [], []
    expected = naive_minimize(ps, recording(expected_log, oracle))
    got = minimize_proof_system(ps, recording(log, oracle))
    assert log == expected_log
    assert got.rules == expected.rules
    assert got == expected


@pytest.mark.parametrize("name", (*BUILTIN_NAMES, "chain-12"))
def test_minimization_calls_its_oracle_as_the_reference(name):
    abs_ = abstraction(name)
    assert_as_the_reference(generate_proof_system(abs_, preservation_report(abs_)))


def test_minimization_keeps_the_parent_rule_order():
    # a derivable oracle drops every table axiom of the builtins; this one
    # keeps the disjunction's, and the rules come in reverse, so that kept
    # operation axioms stand between the other rules and out of name order
    abs_ = load_builtin("parity")
    ps = generate_proof_system(abs_, preservation_report(abs_))
    ps = ProofSystem(ps.signature, ps.rules[::-1], ps.source, abs_)

    def keeps_or(system, seq):
        f = seq.ante[0] if seq.ante else None
        return not (isinstance(f, Compound) and f.op == "or") and derivable(system, seq)

    assert_as_the_reference(ps, keeps_or)

