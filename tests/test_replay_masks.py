"""The soundness replays are checked on point masks, through the registry.

The mask check must equal the naive ``holds_concrete`` on seeded replays,
true and false verdicts both; every registry operation must compute the
same set on ``ConcreteSet`` members and on masks; ``verify_soundness`` on a
sound system builds no ``ConcreteSet`` and catches a wrong concrete operation
in a replay; the replays' picker draws what ``random.Random.choice`` draws;
and the replay draw stream is pinned by digests, so neither the masks nor the
picker leave it changed.
"""

import dataclasses
import hashlib
import random
from itertools import combinations, product

import pytest

from abslog import connectives
from abslog.concrete import ConcreteSet, ConcreteUniverse, PointMasks
from abslog.connectives import CONNECTIVES
from abslog.proofengine import (
    engine_for,
    holds_concrete,
    replay_conclusions,
    verify_soundness,
)
from abslog.replay import picker
from abslog.syntax import Const, Pred, Sequent, render_sequent

from conftest import BUILTIN_NAMES, load_builtin
from test_model_engine import _abstraction, system

SCALING = ("chain-20", "octagon-c2", "octagon-c3", "boolean-3", "parity-x-parity")
REPLAYS = 2000


def point_masks(abs_) -> PointMasks:
    """A mask checker whose predicate masks are read off gamma point by point."""
    points = abs_.universe.points
    preds = {p: sum(1 << j for j, x in enumerate(points) if x in abs_.gamma(p).members)
             for p in abs_.lattice.elements}
    return PointMasks(len(points), preds)


@pytest.mark.parametrize("name", BUILTIN_NAMES + SCALING)
def test_mask_check_equals_holds_concrete(name):
    abs_ = _abstraction(name)
    ps = system(abs_)
    masks = point_masks(abs_)
    conns = ps.signature.connectives
    atoms = [Pred(p) for p in ps.signature.predicates]
    atoms += [Const(c) for c in ("tt", "ff") if c in conns]
    rng = random.Random(f"replay-masks-{name}")
    verdicts = set()
    for s in replay_conclusions(ps, REPLAYS, rng.randrange(1 << 31)):
        # the conclusion, then the same antecedent against one random atom
        for t in (s, Sequent(s.ante, (rng.choice(atoms),))):
            expected = holds_concrete(abs_, t)
            assert masks.holds(t) == expected, (name, render_sequent(t))
            verdicts.add(expected)
    assert verdicts == {True, False}, name


# the concrete operations spelled out on frozensets of points
FROZENSET_OPS = {
    "tt": lambda full: full,
    "ff": lambda full: frozenset(),
    "and": lambda full, x, y: x & y,
    "or": lambda full, x, y: x | y,
    "not": lambda full, x: full - x,
    "impl": lambda full, x, y: (full - x) | y,
    "coimpl": lambda full, x, y: x - y,
}


@pytest.mark.parametrize("uni", [ConcreteUniverse.atoms("abcd"),
                                 ConcreteUniverse.window(0, 2)],
                         ids=["atoms-4", "window-3"])
def test_registry_ops_agree_on_sets_and_masks(uni):
    assert FROZENSET_OPS.keys() == CONNECTIVES.keys()
    points = uni.points
    full = uni.point_set
    subsets = [frozenset(c) for k in range(len(points) + 1)
               for c in combinations(points, k)]
    masks = PointMasks(len(points), {})

    def mask_of(members):
        return sum(1 << j for j, x in enumerate(points) if x in members)

    for c in CONNECTIVES.values():
        for args in product(subsets, repeat=c.arity):
            expected = FROZENSET_OPS[c.name](full, *args)
            on_sets = c.concrete(uni, *(ConcreteSet(uni, a) for a in args))
            assert on_sets.members == expected, (c.name, args)
            on_masks = c.concrete(masks, *map(mask_of, args))
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
    assert res.ok and res.replays_checked == 500
    assert built == []


def test_every_replay_is_checked(builtins):
    for name, abs_ in builtins.items():
        res = verify_soundness(abs_, system(abs_), replays=137, rng_seed=3)
        assert res.ok and res.replays_checked == 137, name


# the replay conclusions on the builtins at the default seed, pinned so that a
# change to the check cannot change what is drawn
REPLAY_DIGEST = "31a82c55804f9a1d"


def test_replay_draw_stream_is_pinned(builtins):
    h = hashlib.sha256()
    for name in BUILTIN_NAMES:
        for s in replay_conclusions(system(builtins[name]), 500, 20240811):
            h.update(render_sequent(s).encode() + b"\n")
    assert h.hexdigest()[:16] == REPLAY_DIGEST


def test_a_replay_catches_a_wrong_concrete_operation(monkeypatch):
    # the point check reads gamma alone, so with "and" read as union only a
    # replay whose conclusion holds a conjunction can find the fault
    abs_ = load_builtin("interval")
    ps = system(abs_)
    engine_for(ps)
    wrong = dataclasses.replace(CONNECTIVES["and"], concrete=lambda u, x, y: x | y)
    monkeypatch.setitem(connectives.CONNECTIVES, "and", wrong)
    res = verify_soundness(abs_, ps, rng_seed=7)
    assert (res.ok, res.cells_checked, res.replays_checked) == (False, 3, 4)
    assert render_sequent(res.counterexample) == "[1..1](x) & [-1..0](x) |- bot(x)"


# the replay conclusions on the scaling families at two seeds, pinned as
# REPLAY_DIGEST is, over larger signatures and octagon axioms
SCALING_REPLAY_DIGEST = "e3667502bea7d3dd"


def test_replay_draw_stream_is_pinned_on_the_scaling_families():
    h = hashlib.sha256()
    for name in SCALING:
        ps = system(_abstraction(name))
        for seed in (1, 20240811):
            for s in replay_conclusions(ps, 500, seed):
                h.update(render_sequent(s).encode() + b"\n")
    assert h.hexdigest()[:16] == SCALING_REPLAY_DIGEST


@pytest.mark.parametrize("seed", [0, 1, 7, 20240811])
def test_picker_draws_what_choice_draws(seed):
    # lengths 1-70 take in the powers of two, where choice draws again most
    # often; random() calls in between must stay in step as well
    by_choice, by_picker = random.Random(seed), random.Random(seed)
    pick = picker(by_picker)
    for _ in range(3):
        for n in range(1, 71):
            seq = tuple(f"item{i}" for i in range(n))
            assert pick(seq) == by_choice.choice(seq), n
            if n % 3 == 0:
                assert by_picker.random() == by_choice.random(), n
    assert by_picker.getstate() == by_choice.getstate()
    with pytest.raises(IndexError):
        pick(())
    with pytest.raises(IndexError):
        by_choice.choice(())
