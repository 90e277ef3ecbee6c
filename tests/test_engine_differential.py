"""Early-exit queries against full saturation.

An unsaturated engine answers a query by saturating only until the query is
decided; a fully saturated engine answers by lookup alone.  On the builtin
specs and on two benchmark families (chain 12, Boolean 2^3) both must give
the same answer to every ``a |- b`` pair and to seeded random sequents of
one or two predicates per side.
"""

import random
import sys

import pytest

from abslog import specfile
from abslog.concrete import preservation_report
from abslog.logicgen import generate_proof_system
from abslog.proofengine import DerivabilityEngine
from abslog.syntax import Pred, Sequent

from conftest import BUILTIN_NAMES, REPO, load_builtin

if str(REPO) not in sys.path:
    sys.path.insert(0, str(REPO))
from perfbench import families as fam  # noqa: E402

RANDOM_SEQUENTS = 200


def _family(name):
    if name == "chain-12":
        return specfile.load(fam.chain_text(12), name)
    if name == "boolean-3":
        return specfile.load(fam.boolean_text(3), name)
    return load_builtin(name)


def _queries(names, rng):
    out = [Sequent((Pred(a),), (Pred(b),)) for a in names for b in names]
    for _ in range(RANDOM_SEQUENTS):
        ante = rng.choices(names, k=rng.randint(1, 2))
        succ = rng.choices(names, k=rng.randint(1, 2))
        out.append(Sequent(tuple(map(Pred, ante)), tuple(map(Pred, succ))))
    rng.shuffle(out)
    return out


@pytest.mark.parametrize("name", BUILTIN_NAMES + ("chain-12", "boolean-3"))
def test_early_exit_answers_equal_full_saturation(name):
    abs_ = _family(name)
    ps = generate_proof_system(abs_, preservation_report(abs_))
    names = list(abs_.lattice.elements)
    queries = _queries(names, random.Random(f"differential-{name}"))

    full = DerivabilityEngine(ps)
    full.saturate()
    assert not full.queue
    lazy = DerivabilityEngine(ps)  # one engine across the batch
    for s in queries:
        want = full.derivable(s)
        assert lazy.derivable(s) == want, (name, s)
        if want:
            # a fresh engine stops as soon as some generator subsumes the
            # query, before its queue runs dry; a non-derivable query runs
            # any engine to saturation, which the shared engine covers
            fresh = DerivabilityEngine(ps)
            assert fresh.derivable(s) and fresh.queue, (name, s)
    lazy.saturate()
    assert sorted(lazy.gen_list) == sorted(full.gen_list)
