"""The random formula-level derivations that soundness replays.

:func:`replay_conclusions` draws each derivation from a system's axioms,
its atomic formulas and the connectives of its signature, and yields its
conclusion; :func:`~abslog.proofengine.verify_soundness` checks every
conclusion against the concrete semantics.  The draws are seeded, so the
conclusions are a fixed function of the system and the seed.  Every pick
goes through :func:`picker`, which draws exactly what ``Random.choice``
draws, and the shallow compounds of each replay's formula pool are built
once per call and shared across replays.
"""

from __future__ import annotations

import random

from .connectives import CONNECTIVES
from .logicgen import ProofSystem
from .syntax import Bin, Const, Formula, Not, Pred, Sequent

REPLAY_DEPTH = 4  # depth of the random derivations soundness replays


def replay_conclusions(ps: ProofSystem, replays: int, rng_seed: int):
    """The conclusions of ``replays`` random formula-level derivations of
    depth ``REPLAY_DEPTH``, drawn from the system's axioms, its atomic
    formulas and the binary connectives of its signature.

    Each replay first draws six shallow compounds over the atoms into its
    formula pool.  A compound is built once per call, keyed by its operator
    and atoms, and shared by every replay that draws it."""
    axioms = [r.axiom for r in ps.rules if r.axiom is not None]
    conns = ps.signature.connectives
    atoms = [Pred(p) for p in ps.signature.predicates]
    atoms += [Const(c.name) for c in CONNECTIVES.values()
              if c.arity == 0 and c.name in conns]
    ops = [c.name for c in CONNECTIVES.values() if c.arity == 2 and c.name in conns]
    rng = random.Random(rng_seed)
    pick, chance = picker(rng), rng.random
    indices = range(len(atoms))
    nots = [Not(f) for f in atoms] if "not" in conns else []
    bins: dict[tuple[str, int, int], Bin] = {}
    for _ in range(replays):
        pool: list[Formula] = list(atoms)
        for _ in range(6):
            i = pick(indices)  # an atom's index: the draw that picks the atom
            if nots and chance() < 0.4:
                pool.append(nots[i])
            if ops:
                key = (pick(ops), i, pick(indices))
                f = bins.get(key)
                if f is None:
                    f = bins[key] = Bin(key[0], atoms[i], atoms[key[2]])
                pool.append(f)
        yield _random_derivation(pick, chance, REPLAY_DEPTH, axioms, pool, conns)


def picker(rng: random.Random):
    """``rng.choice`` without its two method calls per pick: the same
    algorithm on ``rng.getrandbits`` (k = n.bit_length() bits, drawn again
    while r >= n), so it draws the same bits and picks the same items."""
    getrandbits = rng.getrandbits

    def pick(seq):
        n = len(seq)
        if not n:
            raise IndexError("Cannot choose from an empty sequence")
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return seq[r]

    return pick


def _random_derivation(pick, chance, depth, axioms, pool, conns) -> Sequent:
    """Replay one random derivation over ``pool`` and return its conclusion;
    ``pick`` draws an item of a sequence and ``chance`` a float in [0, 1)."""

    def leaf() -> Sequent:
        if axioms and chance() < 0.7:
            return pick(axioms)
        f = pick(pool)
        return Sequent((f,), (f,))

    def derive(k: int) -> Sequent:
        if k == 0 or chance() < 0.35:
            return leaf()
        s = derive(k - 1)
        step = pick(("weaken.l", "weaken.r", "cut", "and.r", "or.l",
                     "or.r", "and.l", "impl.r", "contraposition"))
        if step == "weaken.l":
            return Sequent(s.ante + (pick(pool),), s.succ)
        if step == "weaken.r":
            return Sequent(s.ante, s.succ + (pick(pool),))
        if step == "cut":
            t = derive(k - 1)
            phi = pick(s.succ)
            t = Sequent(t.ante + (phi,), t.succ)  # weakened into position
            rest = list(s.succ)
            rest.remove(phi)
            return Sequent(s.ante + t.ante, tuple(rest) + t.succ)
        if step == "and.r" and "and" in conns:
            t = derive(k - 1)
            phi, psi = pick(s.succ), pick(t.succ)
            rest_s = list(s.succ)
            rest_s.remove(phi)
            rest_t = list(t.succ)
            rest_t.remove(psi)
            return Sequent(s.ante + t.ante,
                           tuple(rest_s) + tuple(rest_t) + (Bin("and", phi, psi),))
        if step == "or.l" and "or" in conns and s.ante:
            t = derive(k - 1)
            if not t.ante:
                t = Sequent(t.ante + (pick(pool),), t.succ)
            phi, psi = pick(s.ante), pick(t.ante)
            rest_s = list(s.ante)
            rest_s.remove(phi)
            rest_t = list(t.ante)
            rest_t.remove(psi)
            return Sequent(tuple(rest_s) + tuple(rest_t) + (Bin("or", phi, psi),),
                           s.succ + t.succ)
        if step == "or.r" and "or" in conns:
            phi = pick(s.succ)
            psi = pick(pool)
            rest = list(s.succ)
            rest.remove(phi)
            # weaken psi in, then introduce the disjunction
            return Sequent(s.ante, tuple(rest) + (Bin("or", phi, psi),))
        if step == "and.l" and "and" in conns and s.ante:
            phi = pick(s.ante)
            psi = pick(pool)
            rest = list(s.ante)
            rest.remove(phi)
            return Sequent(tuple(rest) + (Bin("and", phi, psi),), s.succ)
        if step == "impl.r" and "impl" in conns and len(s.succ) == 1 and s.ante:
            phi = pick(s.ante)
            rest = list(s.ante)
            rest.remove(phi)
            return Sequent(tuple(rest), (Bin("impl", phi, s.succ[0]),))
        if step == "contraposition" and "not" in conns and "impl" not in conns \
                and len(s.ante) == 1 and len(s.succ) == 1:
            return Sequent((Not(s.succ[0]),), (Not(s.ante[0]),))
        return s

    return derive(depth)
