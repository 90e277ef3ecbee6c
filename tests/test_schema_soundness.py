"""Every stock rule schema is locally sound in the concrete powerset.

A derivation is sound when each of its rules is, so this test and the
per-axiom check of ``verify_soundness`` together cover every rule of a
generated calculus.  A schema is locally sound when every instance whose
premises hold has a conclusion that holds, where ``G |- D`` holds iff the
intersection of the antecedents is included in the union of the succedents.
A context ``G``/``G'`` is read as the intersection of its formulas and
``D``/``D'`` as their union; every subset is such an intersection or union,
so each context ranges over all subsets, as ``?phi`` and ``?psi`` do.  The
connectives are evaluated through the registry's concrete operations.  Those
act point by point, so an instance that fails anywhere fails at one point,
and a 2-point universe is more than enough.
"""

import dataclasses
import re
from itertools import product

import pytest

from abslog import connectives
from abslog.concrete import PointMasks
from abslog.connectives import CONNECTIVES
from abslog.logicgen import STOCK_SCHEMAS
from abslog.syntax import parse_sequent

POINTS = 2
SUBSETS = range(1 << POINTS)  # every subset, as a mask over the points

# each metavariable of a schema display becomes one predicate
METAVARS = {"?phi": "phi", "?psi": "psi", "G'": "G2", "D'": "D2", "G": "G", "D": "D"}
METAVAR_RE = re.compile(r"\?phi|\?psi|G'|D'|\bG\b|\bD\b")


def instantiable(display: str):
    """The display as a sequent over one predicate per metavariable."""
    text = METAVAR_RE.sub(lambda m: METAVARS[m.group()] + "(x)", display)
    assert "?" not in text, display
    return parse_sequent(text)


def counterexample(premises, conclusion):
    """An assignment of subsets to the metavariables under which every
    premise holds and the conclusion does not, or None."""
    sequents = [instantiable(d) for d in (*premises, conclusion)]
    names = sorted({METAVARS[m] for d in (*premises, conclusion)
                    for m in METAVAR_RE.findall(d)})
    for values in product(SUBSETS, repeat=len(names)):
        masks = PointMasks(POINTS, dict(zip(names, values)))
        *prems, concl = (masks.holds(s) for s in sequents)
        if all(prems) and not concl:
            return dict(zip(names, values))
    return None


@pytest.mark.parametrize("name", sorted(STOCK_SCHEMAS))
def test_stock_schema_is_locally_sound(name):
    premises, conclusion = STOCK_SCHEMAS[name]
    assert counterexample(premises, conclusion) is None, name


def test_a_planted_unsound_schema_is_refused():
    # a conjunction introduced from one conjunct alone
    assert counterexample(("G |- D, ?phi",), "G |- D, ?phi & ?psi") is not None


def test_the_check_reads_the_registry(monkeypatch):
    # with "and" read as union, conjunction on the left is no longer sound
    wrong = dataclasses.replace(CONNECTIVES["and"], concrete=lambda u, x, y: x | y)
    monkeypatch.setitem(connectives.CONNECTIVES, "and", wrong)
    premises, conclusion = STOCK_SCHEMAS["intro.and.l"]
    assert counterexample(premises, conclusion) is not None
