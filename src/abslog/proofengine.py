"""Derivability, normalization, Lindenbaum-Tarski construction and the
machine-checked soundness / isomorphism / completeness verifications.

Every formula is first normalized to a predicate through the abstract
operation tables (sound by the operation axioms plus cut), so derivability
is a relation |- between finite sets of predicates.  The generated rules
close it under identity, weakening and cut: it is an *entailment relation*
(Scott 1974; Cederquist and Coquand 2000).  A *model* is a set V of
predicates that no derivable sequent refutes: whenever G |- D and G is in V,
D meets V.  For a finite entailment relation, G |- D holds iff every model
that contains G meets D; and the relation that a finite set M of valuations
defines this way has exactly M as its models, Mod(|-_M) = M.  So the engine
computes the model set M* and reads every answer off it:

1. M0 is the set of valuations that satisfy the seed sequents (identity,
   the axioms, |- top, bot |- x for every predicate x, the negation seeds)
   and, for each connective whose rule family is on, its clauses:
   ``a, b |- a & b`` and ``a & b |- a``;
   ``a | b |- a, b`` and ``a |- a | b``; ``a, a -> b |- b``;
   ``a |- b, a <- b``.  The other rules of those families are cuts of
   these clauses.
2. Three rules read the whole relation, not one valuation, so they cannot
   be clauses.  A model that breaks one is removed:

   - impl.r (``G, a |- b`` gives ``G |- a -> b``): if ``a -> b`` is not in V,
     some model W that contains V and a lacks b (the Kripke condition);
   - coimpl.l (``a |- D, b`` gives ``a <- b |- D``, D not empty): if
     ``a <- b`` is in V and V is not the full set, some model W inside V
     holds a and lacks b (Rauszer's condition for co-implication);
   - contraposition, when negation is primitive: if ``a |- b``, no model
     holds ``~b`` without ``~a``.

   Each condition only gets harder to meet as models go, so removing every
   model that breaks one, and repeating until none does, reaches the
   greatest model set that meets all three: M*, the models of the least
   relation closed under the rules.
3. Each predicate gets one bit column over M*, read off the models by one
   bit-matrix transpose per pruning round, and ``G |- D`` holds iff
   ``AND(col[G]) & ~OR(col[D]) == 0``.  No derivable sequent has an empty
   succedent, so the full valuation is always a model and ``G |-`` never
   holds.  Two predicates are interderivable iff their columns are equal,
   so the Lindenbaum-Tarski classes are the distinct columns, ordered by
   column inclusion.

Soundness reads off the models as well.  A sequent fails at a concrete
point x exactly when x's valuation V_x = {a : x in gamma(a)} refutes it, so
every derivable sequent holds at x iff V_x is in M*.  When V_x is not a
model, ``V_x |- (every other predicate)`` is derivable and fails at x.

That checks the engine; the written calculus is checked rule by rule.  A
derivation is sound when each of its rules is sound: when premises that
hold in the powerset give a conclusion that holds there, with G read as
the intersection and D as the union of its concrete sets.  The stock
schemas, structural and introduction alike, are checked once for all
systems by the tests (``tests/test_schema_soundness.py``, over every subset
of a 2-point universe).  The axioms are particular to a system, so
:func:`verify_soundness` checks each of them on *point masks*: bit j of a
formula's mask stands for the j-th point of the universe.  Each
predicate's mask is read from ``ConcretizationMap.masks``, the one table
gamma keeps, and the valuations V_x are that table's transpose; the registry's
concrete operations compute a compound's mask from its arguments' masks,
and ``G |- D`` holds iff
``AND(ante masks) & ~OR(succ masks) == 0``.  Both checks are exact; nothing
is sampled.  The tests check the masks against a naive evaluator over
concrete sets, ``tests/concrete_oracle.py``.

Each proof system has one engine, a :class:`ModelEngine` built on first use
by :func:`engine_for` and kept on the system: :func:`derivable`,
:func:`build_lindenbaum`, :func:`verify_soundness` and
:func:`verify_completeness` all query it.  A system derived by dropping only
axioms that add no clause to M0 has the same M*, so it inherits the engine
(:meth:`ModelEngine.without`); any other derived system builds its own.
:class:`DerivabilityEngine` saturates a generating set of derivable sequents
instead; it stays as the reference that the tests and the benchmark check the
model engine against.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass
from itertools import product as iproduct

from .concrete import Abstraction, PointMasks, _scan, check_order_embedding
from .connectives import CONNECTIVES, lookup
from .errors import (AbslogError, CarrierTooLarge, TooManyModels, UnknownElement,
                     UnknownSymbol)
from .lattice import _transpose, bits
from .logicgen import ProofSystem, _STRUCTURAL_SCHEMAS
from .syntax import Formula, Pred, Sequent

DEFAULT_SATURATION_BOUND = 14
MAX_MODELS = 100_000  # largest model set enumerated, partial or final


# --- formula evaluation ------------------------------------------------------


def _denote(lat, f: Formula, conns) -> int:
    """Index of the element a formula denotes, through the abstract tables;
    ``conns`` is the signature the connectives must belong to."""
    if isinstance(f, Pred):
        try:
            return lat.index[f.name]
        except KeyError:
            raise UnknownSymbol(f"unknown predicate {f.name!r}") from None
    if f.op not in conns:
        raise UnknownSymbol(f"connective {f.op!r} is not in the signature")
    table = lat.table(f.op)  # ``lookup`` inlined: its index list doubled the time
    for arg in f.args:
        table = table[_denote(lat, arg, conns)]
    return table


def normalize(ps: ProofSystem, formula: Formula) -> str:
    """Rewrite a formula to the predicate it is interderivable with.

    Bottom-up replacement through the signature's operation tables; total
    because every signature connective has a total abstract table.
    """
    abs_ = ps.abstraction
    if abs_ is None:
        raise AbslogError("normalization needs the source abstraction")
    lat = abs_.lattice
    return lat.elements[_denote(lat, formula, ps.signature.connectives)]


# --- the engines ---------------------------------------------------------------


def _check_bound(n: int, max_predicates: int) -> None:
    if n > max_predicates:
        raise CarrierTooLarge(f"|A| = {n} exceeds the saturation bound {max_predicates}")


class _Engine:
    """What both engines read off a proof system: its predicates, which rule
    families are on, the operation tables, and the sequents it starts from.

    Sequents are ``(antecedent_mask, succedent_mask)`` pairs over the
    signature predicates.  A subclass starts in ``_start`` from the axiom
    sequents and the names of the schema rules, and answers
    ``derivable_masks``.  The engine keeps no reference to the system: the
    system holds the engine, and a cycle would outlive the system until the
    next garbage collection."""

    def __init__(self, ps: ProofSystem,
                 max_predicates: int = DEFAULT_SATURATION_BOUND):
        abs_ = ps.abstraction
        if abs_ is None:
            raise AbslogError("the derivability engine needs the source abstraction")
        # one pass over the rules: schemas are read by name, axioms by sequent
        names: set[str] = set()
        axioms: list[Sequent] = []
        for r in ps.rules:
            if r.axiom is None:
                names.add(r.name)
            else:
                axioms.append(r.axiom)
        missing = set(_STRUCTURAL_SCHEMAS) - names
        if missing:
            raise AbslogError(f"structural rules missing: {sorted(missing)}")
        lat = abs_.lattice
        preds = ps.signature.predicates
        if preds != lat.elements:
            raise AbslogError("the signature predicates must be the lattice "
                              "elements, in carrier order")
        self.n = len(preds)
        _check_bound(self.n, max_predicates)
        self.preds = preds
        self.lat = lat
        self.conns = ps.signature.connectives

        # a connective's rule family runs when the system holds all of its
        # introduction rules
        on = {c: r.intro.keys() <= names for c, r in CONNECTIVES.items()}
        self.f_and, self.f_or, self.f_impl, self.f_coimpl, self.f_tt, self.f_ff = (
            on[c] for c in ("and", "or", "impl", "coimpl", "tt", "ff"))
        self.f_not_prim = on["not"]
        not_ = CONNECTIVES["not"]
        self.f_not_def = not_.intro_via.keys() <= names
        # a family that is on reads its connective's table; negation read as
        # implication to absurdity reads those of ``via`` too
        for c in CONNECTIVES:
            if c not in self.conns and (on[c] or self.f_not_def
                                        and (c == "not" or c in not_.via)):
                raise AbslogError(f"the system holds the rules of connective {c!r}, "
                                  "which is not in its signature")

        tables = {c: lat.table(c) for c in self.conns if CONNECTIVES[c].arity}
        self.meet, self.join, self.neg, self.hey, self.coi = (
            tables.get(c) for c in ("and", "or", "not", "impl", "coimpl"))
        self.top_i = lat.index[lat.top]
        self.bot_i = lat.index[lat.bottom]
        self._start(axioms, names)

    def _table_seeds(self):
        """The seed sequents read off the operation tables."""
        if self.f_tt:
            yield 0, 1 << self.top_i
        if self.f_ff:
            for x in range(self.n):
                yield 1 << self.bot_i, 1 << x
        if self.f_not_def:
            for a in range(self.n):
                na, ha = self.neg[a], self.hey[a][self.bot_i]
                yield 1 << na, 1 << ha
                yield 1 << ha, 1 << na
        if self.f_not_prim:
            for a in range(self.n):
                nna = self.neg[self.neg[a]]
                yield 1 << nna, 1 << a
                yield 1 << a, 1 << nna

    def masks(self, s: Sequent) -> tuple[int, int]:
        lat, conns = self.lat, self.conns
        g = 0
        for f in s.ante:
            g |= 1 << _denote(lat, f, conns)
        d = 0
        for f in s.succ:
            d |= 1 << _denote(lat, f, conns)
        return g, d

    def derivable(self, s: Sequent) -> bool:
        return self.derivable_masks(*self.masks(s))

    def mask_sequent(self, g: int, d: int) -> Sequent:
        return Sequent(tuple(Pred(self.preds[i]) for i in bits(g)),
                       tuple(Pred(self.preds[i]) for i in bits(d)))


class DerivabilityEngine(_Engine):
    """Saturates the predicate-sequent derivability relation of one system.

    The reference engine: the tests and the benchmark build it directly to
    check the model engine against.  It keeps a subsumption-reduced
    generating set: a sequent is derivable iff some stored sequent is a
    componentwise subset.  Rule application only instantiates designated
    formulas that are present in stored premises; instances that weaken a
    designated formula in always yield subsumed conclusions.  coimpl.l keeps
    only the premise's context, so from a premise with none it weakens in
    each predicate in turn.
    """

    # seeding ---------------------------------------------------------------

    def _start(self, axioms, names) -> None:
        self.members: set[tuple[int, int]] = set()
        self.gen_list: list[tuple[int, int]] = []
        self.by_ante: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        self.by_succ: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        self.queue: deque[tuple[int, int]] = deque()
        if "identity" in names:
            for i in range(self.n):
                self._add(1 << i, 1 << i)
        for s in axioms:
            self._add(*self.masks(s))
        for g, d in self._table_seeds():
            self._add(g, d)

    # core set maintenance ----------------------------------------------------

    def _subsumed(self, g: int, d: int) -> bool:
        members = self.members
        total_bits = g.bit_count() + d.bit_count()
        if total_bits <= 16:
            gs = g
            while True:
                ds = d
                while True:
                    if ds and (gs, ds) in members:
                        return True
                    if ds == 0:
                        break
                    ds = (ds - 1) & d
                if gs == 0:
                    break
                gs = (gs - 1) & g
            return False
        ng, nd = ~g, ~d
        return any((g0 & ng) == 0 and (d0 & nd) == 0 for g0, d0 in self.gen_list)

    def _add(self, g: int, d: int) -> None:
        if d == 0:
            return
        key = (g, d)
        if key in self.members or self._subsumed(g, d):
            return
        self.members.add(key)
        self.gen_list.append(key)
        for b in bits(g):
            self.by_ante[b].append(key)
        for b in bits(d):
            self.by_succ[b].append(key)
        self.queue.append(key)

    # saturation ----------------------------------------------------------

    def saturate(self) -> None:
        while self.queue:
            self._step(self.queue.popleft())

    def _step(self, item: tuple[int, int]) -> None:
        g, d = item
        n = self.n
        add = self._add
        by_ante, by_succ = self.by_ante, self.by_succ

        # cut, with this sequent as either premise
        for b in bits(d):
            bb = 1 << b
            for g2, d2 in by_ante[b]:
                add(g | (g2 & ~bb), (d & ~bb) | d2)
        for b in bits(g):
            bb = 1 << b
            for g1, d1 in by_succ[b]:
                add(g1 | (g & ~bb), (d1 & ~bb) | d)

        if self.f_and:
            meet = self.meet
            for i in range(n):
                bi = 1 << i
                for j in range(i, n):
                    pair = bi | (1 << j)
                    if pair & g:
                        add((g & ~pair) | (1 << meet[i][j]), d)
            for a in bits(d):
                da = d & ~(1 << a)
                row = meet[a]
                for j in range(n):
                    bj = 1 << j
                    c = 1 << row[j]
                    for g2, d2 in by_succ[j]:
                        add(g | g2, da | (d2 & ~bj) | c)

        if self.f_or:
            join = self.join
            for i in range(n):
                bi = 1 << i
                for j in range(i, n):
                    pair = bi | (1 << j)
                    if pair & d:
                        add(g, (d & ~pair) | (1 << join[i][j]))
            for a in bits(g):
                ga = g & ~(1 << a)
                row = join[a]
                for j in range(n):
                    bj = 1 << j
                    c = 1 << row[j]
                    for g2, d2 in by_ante[j]:
                        add(ga | (g2 & ~bj) | c, d | d2)

        if self.f_impl:
            hey = self.hey
            for a in bits(d):
                da = d & ~(1 << a)
                row = hey[a]
                for b in range(n):
                    bb = 1 << b
                    h = 1 << row[b]
                    for g2, d2 in by_ante[b]:
                        add(g | (g2 & ~bb) | h, da | d2)
            for b in bits(g):
                gb = g & ~(1 << b)
                for a in range(n):
                    ba = 1 << a
                    h = 1 << hey[a][b]
                    for g1, d1 in by_succ[a]:
                        add(g1 | gb | h, (d1 & ~ba) | d)
            if d and d & (d - 1) == 0:  # exactly one succedent
                b = d.bit_length() - 1
                for a in bits(g):
                    add(g & ~(1 << a), 1 << hey[a][b])

        if self.f_coimpl:
            coi = self.coi
            for a in bits(d):
                da = d & ~(1 << a)
                row = coi[a]
                for b in range(n):
                    bb = 1 << b
                    c = 1 << row[b]
                    for g2, d2 in by_ante[b]:
                        add(g | (g2 & ~bb), da | d2 | c)
            for b in bits(g):
                gb = g & ~(1 << b)
                for a in range(n):
                    ba = 1 << a
                    c = 1 << coi[a][b]
                    for g1, d1 in by_succ[a]:
                        add(g1 | gb, (d1 & ~ba) | d | c)
            if g == 0 or g & (g - 1) == 0:  # at most one antecedent
                heads = (g.bit_length() - 1,) if g else range(n)
                for b in bits(d):
                    rest = d & ~(1 << b)
                    # with no context left, any one predicate is weakened in
                    for r in (rest,) if rest else (1 << x for x in range(n)):
                        for a in heads:
                            add(1 << coi[a][b], r)

        if self.f_not_prim:
            if d and d & (d - 1) == 0 and (g == 0 or g & (g - 1) == 0):
                b = d.bit_length() - 1
                nb = 1 << self.neg[b]
                if g:
                    a = g.bit_length() - 1
                    add(nb, 1 << self.neg[a])
                else:
                    for a in range(n):
                        add(nb, 1 << self.neg[a])

    # queries ---------------------------------------------------------------

    def derivable_masks(self, g: int, d: int) -> bool:
        """Saturate only until some generator subsumes the sequent.

        Only a step's new generators can newly subsume it, so each step
        checks just those: a wide sequent would cost ``_subsumed`` up to
        2^16 lookups per step."""
        if self._subsumed(g, d):
            return True
        ng, nd = ~g, ~d
        gens = self.gen_list
        while self.queue:
            start = len(gens)
            self._step(self.queue.popleft())
            if any((g0 & ng) == 0 and (d0 & nd) == 0 for g0, d0 in gens[start:]):
                return True
        return False


class ModelEngine(_Engine):
    """Decides derivability from the finite models of the derivability
    relation (see the module docstring).

    ``models`` is the model set M*, one predicate mask per model, and
    ``cols`` holds one bit column per predicate over the models."""

    def _start(self, axioms, names) -> None:
        clauses = {(g, d) for g, d in self._connective_clauses() if not g & d}
        clauses.update(self._axiom_clauses(axioms))
        self.models, self.cols = self._prune(self._enumerate(clauses))
        self.live = (1 << len(self.models)) - 1

    # the clauses of M0 -------------------------------------------------------

    def _connective_clauses(self):
        yield from self._table_seeds()
        pairs = [(a, b) for a in range(self.n) for b in range(self.n)]
        if self.f_and:
            for a, b in pairs:
                c = self.meet[a][b]
                yield 1 << a | 1 << b, 1 << c   # a, b |- a & b
                yield 1 << c, 1 << a            # a & b |- a
        if self.f_or:
            for a, b in pairs:
                c = self.join[a][b]
                yield 1 << c, 1 << a | 1 << b   # a | b |- a, b
                yield 1 << a, 1 << c            # a |- a | b
        if self.f_impl:
            for a, b in pairs:
                yield 1 << a | 1 << self.hey[a][b], 1 << b   # a, a -> b |- b
        if self.f_coimpl:
            for a, b in pairs:
                yield 1 << a, 1 << b | 1 << self.coi[a][b]   # a |- b, a <- b

    def _axiom_clauses(self, axioms):
        """The clauses the axioms add to M0: a tautology adds none."""
        for g, d in map(self.masks, axioms):
            if d and not g & d:  # no sequent has an empty succedent
                yield g, d

    def without(self, axioms) -> ModelEngine | None:
        """The engine of this system without ``axioms`` when none of them
        adds a clause: M0, and so M*, is unchanged, and the new engine shares
        this one's models.  None when some axiom adds a clause."""
        if next(self._axiom_clauses(axioms), None):
            return None
        return copy.copy(self)

    # M0, then M* --------------------------------------------------------------

    def _enumerate(self, clauses) -> list[int]:
        """M0: the valuations that satisfy every clause, extended one
        predicate at a time; a clause is checked once its last predicate is
        set.  Raises :class:`TooManyModels` past ``MAX_MODELS``."""
        n = self.n
        pull = [0] * n  # a |- k: any such a in the valuation puts k in
        need = [0] * n  # k |- b: k goes in only with every such b
        ins: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        outs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for g, d in clauses:
            k = (g | d).bit_length() - 1
            bit = 1 << k
            if d & bit:
                rest = d ^ bit
                if not rest and g and not g & (g - 1):
                    pull[k] |= g
                else:  # g |- rest, k: k must go in when g holds and rest fails
                    ins[k].append((g, rest))
            else:
                rest = g ^ bit
                if not rest and not d & (d - 1):
                    need[k] |= d
                else:  # rest, k |- d: k must stay out when rest holds and d fails
                    outs[k].append((rest, d))
        partial = [0]
        for k in range(n):
            bit, pull_k, need_k, ins_k, outs_k = 1 << k, pull[k], need[k], ins[k], outs[k]
            grown = []
            for v in partial:
                if not v & pull_k:
                    for g, d in ins_k:
                        if (v & g) == g and not v & d:
                            break
                    else:
                        grown.append(v)
                if (v & need_k) == need_k:
                    for g, d in outs_k:
                        if (v & g) == g and not v & d:
                            break
                    else:
                        grown.append(v | bit)
            if len(grown) > MAX_MODELS:
                raise TooManyModels(k + 1, n, len(grown), MAX_MODELS)
            partial = grown
        return partial

    def _prune(self, models: list[int]) -> tuple[tuple[int, ...], list[int]]:
        """Remove every model that breaks impl.r, coimpl.l or contraposition,
        and repeat until none does; return M* and its bit columns."""
        n = self.n
        while True:
            cols = _transpose(models, n)
            live = (1 << len(models)) - 1
            outs = [live & ~c for c in cols]  # the models without each predicate
            bad = 0
            if self.f_not_prim:
                neg = self.neg
                for a in range(n):
                    ca, above = cols[a], 0
                    for b in range(n):
                        if not ca & outs[b]:  # a |- b
                            above |= cols[neg[b]]
                    bad |= above & outs[neg[a]]  # ~b without ~a
            if self.f_impl or self.f_coimpl:
                for j, v in enumerate(models):
                    if not bad >> j & 1 and self._breaks_context_rule(v, cols, outs, live):
                        bad |= 1 << j
            if not bad:
                return tuple(models), cols
            models = [v for j, v in enumerate(models) if not bad >> j & 1]

    def _breaks_context_rule(self, v: int, cols, outs, live: int) -> bool:
        n = self.n
        if self.f_impl:
            above = live  # the models W that contain v
            for p in bits(v):
                above &= cols[p]
            for a, row in enumerate(self.hey):
                s = above & cols[a]
                for b in range(n):
                    # every model containing v and a holds b: v must hold a -> b
                    if not v >> row[b] & 1 and not s & outs[b]:
                        return True
        full = (1 << n) - 1
        if self.f_coimpl and v != full:
            below = live  # the models W contained in v
            for p in bits(full & ~v):
                below &= outs[p]
            for a, row in enumerate(self.coi):
                s = below & cols[a]
                for b in range(n):
                    # every model inside v that holds a holds b: v must not
                    # hold a <- b
                    if v >> row[b] & 1 and not s & outs[b]:
                        return True
        return False

    # queries ---------------------------------------------------------------

    def derivable_masks(self, g: int, d: int) -> bool:
        """No model holds all of ``g`` and none of ``d``."""
        s = self.live
        cols = self.cols
        for p in bits(g):
            s &= cols[p]
        for p in bits(d):
            s &= ~cols[p]
        return not s

    def refutation(self, v: int) -> Sequent:
        """A derivable sequent that the valuation ``v``, no model, refutes:
        ``v |- (every other predicate)``, shrunk greedily."""
        g, d = v, ((1 << self.n) - 1) & ~v
        for p in bits(v):
            if self.derivable_masks(g & ~(1 << p), d):
                g &= ~(1 << p)
        for p in bits(d):
            if self.derivable_masks(g, d & ~(1 << p)):
                d &= ~(1 << p)
        return self.mask_sequent(g, d)

def engine_for(ps: ProofSystem,
               max_predicates: int = DEFAULT_SATURATION_BOUND) -> ModelEngine:
    """The system's engine, built on first use and shared by every caller.

    The bound is checked on every call, so an engine built for a larger
    bound still refuses a caller with a smaller one."""
    engine = ps._engine
    if engine is None:
        engine = ps._engine = ModelEngine(ps, max_predicates=max_predicates)
    else:
        _check_bound(engine.n, max_predicates)
    return engine


def derivable(ps: ProofSystem, s: Sequent,
              max_predicates: int = DEFAULT_SATURATION_BOUND) -> bool:
    """Decide derivability of a sequent in a generated proof system."""
    return engine_for(ps, max_predicates).derivable(s)


# --- Lindenbaum-Tarski -----------------------------------------------------


@dataclass
class LindenbaumAlgebra:
    """Interderivability classes of predicate formulas with induced order
    and operations.  ``class_of`` maps each element name to its class;
    ``ops`` holds one table per connective, indexed by classes: a class for
    a constant, a row for negation, a square for a binary connective."""

    classes: tuple[frozenset[str], ...]
    class_of: dict[str, int]
    leq: tuple[tuple[bool, ...], ...]
    ops: dict[str, int | tuple]


def build_lindenbaum(ps: ProofSystem, abs_: Abstraction | None = None,
                     max_predicates: int = DEFAULT_SATURATION_BOUND) -> LindenbaumAlgebra:
    """Quotient the predicates by interderivability and induce the algebra.

    Every formula normalizes to a predicate, so predicate classes exhaust
    the Lindenbaum-Tarski algebra.  ``a |- b`` holds iff every model holding
    a holds b, that is iff ``col[a] & ~col[b] == 0``: the classes are the
    distinct model columns and their order is column inclusion.  Inclusion
    of columns is a partial order that no choice of class member changes,
    so the order needs no re-check; class-independence of each induced
    operation does, and is verified exhaustively.
    """
    abs_ = abs_ or ps.abstraction
    engine = engine_for(ps, max_predicates)
    preds, cols = engine.preds, engine.cols

    # canonical ordering: classes in the order of their least member name
    class_of_col: dict[int, int] = {}
    for i in sorted(range(engine.n), key=preds.__getitem__):
        class_of_col.setdefault(cols[i], len(class_of_col))
    cls_of_idx = [class_of_col[c] for c in cols]
    classes: list[list[int]] = [[] for _ in class_of_col]
    for i, k in enumerate(cls_of_idx):
        classes[k].append(i)
    class_of = dict(zip(preds, cls_of_idx))
    m = len(classes)
    leq = tuple(tuple(not a & ~b for b in class_of_col) for a in class_of_col)

    # each preserved connective induces an operation on the classes; it must
    # not depend on the chosen class members
    lat = abs_.lattice
    if lat.elements != engine.preds:
        raise AbslogError("the abstraction's carrier is not the system's predicates")
    def induce(c, table, chosen=()):
        if len(chosen) == c.arity:
            members = iproduct(*[classes[k] for k in chosen])
            img = cls_of_idx[lookup(table, next(members))]
            for args in members:
                if cls_of_idx[lookup(table, args)] != img:
                    raise AbslogError(f"{c.name} is not class-independent")
            return img
        return tuple(induce(c, table, chosen + (k,)) for k in range(m))

    ops = {c.name: induce(c, lat.table(c.name)) for c in CONNECTIVES.values()
           if c.name in ps.signature.connectives}
    return LindenbaumAlgebra(
        classes=tuple(frozenset(preds[j] for j in grp) for grp in classes),
        class_of=class_of, leq=leq, ops=ops)


@dataclass
class IsoReport:
    ok: bool
    surjective: bool
    injective: bool
    order_preserving: bool
    order_reflecting: bool
    homomorphism: dict[str, bool]
    failures: list[str]

    def lines(self) -> list[str]:
        hom = " ".join(f"{c}={'yes' if v else 'NO'}"
                       for c, v in sorted(self.homomorphism.items()))
        return [
            f"surjective: {'yes' if self.surjective else 'NO'}",
            f"injective: {'yes' if self.injective else 'NO'}",
            f"order-preserving: {'yes' if self.order_preserving else 'NO'}",
            f"order-reflecting: {'yes' if self.order_reflecting else 'NO'}",
            f"homomorphism: {hom}" if hom else "homomorphism: (no connectives)",
        ]


def verify_isomorphism(abs_: Abstraction, lind: LindenbaumAlgebra) -> IsoReport:
    """Check that e(a) = [a(x)] is an order isomorphism and homomorphism."""
    lat = abs_.lattice
    failures: list[str] = []

    surjective = ({lind.class_of[a] for a in lat.elements}
                  == set(range(len(lind.classes))))
    if not surjective:
        failures.append("some class is the image of no element")
    injective = len(lind.classes) == len(lat.elements)
    if not injective:
        merged = [sorted(c) for c in lind.classes if len(c) > 1]
        failures.append(f"merged classes: {merged}")

    order_preserving = True
    order_reflecting = True
    for a in lat.elements:
        for b in lat.elements:
            lhs = lat.leq(a, b)
            rhs = lind.leq[lind.class_of[a]][lind.class_of[b]]
            if lhs and not rhs:
                order_preserving = False
                failures.append(f"order not preserved on ({a}, {b})")
            if rhs and not lhs:
                order_reflecting = False
                failures.append(f"order not reflected on ({a}, {b})")

    hom: dict[str, bool] = {}
    for name, image in lind.ops.items():
        table = lat.table(name)
        hom[name] = True
        for args in iproduct(lat.elements, repeat=CONNECTIVES[name].arity):
            value = lat.elements[lookup(table, map(lat.index.__getitem__, args))]
            if lind.class_of[value] != lookup(image, map(lind.class_of.__getitem__, args)):
                hom[name] = False
                failures.append(f"{name} not a homomorphism on ({', '.join(args)})")
                break

    ok = (surjective and injective and order_preserving and order_reflecting
          and all(hom.values()))
    return IsoReport(ok, surjective, injective, order_preserving,
                     order_reflecting, hom, failures)


# --- soundness ---------------------------------------------------------------


@dataclass
class SoundnessResult:
    ok: bool
    counterexample: Sequent | None
    generators_checked: int = 0  # models of the derivability relation
    cells_checked: int = 0       # concrete points whose valuation was checked
    replays_checked: int = 0     # axioms checked on point masks


def verify_soundness(abs_: Abstraction, ps: ProofSystem,
                     max_predicates: int = DEFAULT_SATURATION_BOUND,
                     rng_seed: int | None = None) -> SoundnessResult:
    """Check the engine and the written calculus against the concrete
    semantics.

    The derivable sequents all hold at a point x iff its valuation
    {a : x in gamma(a)} is a model (see the module docstring), so checking
    each point's valuation is exact; a point whose valuation is no model gives
    a derivable sequent that fails there.  Then every axiom of the system is
    checked on point masks, in rule order; the first that fails is the
    counterexample, and ``replays_checked`` counts the axioms checked up to
    and including it.  With the stock schemas checked in the tests, this
    covers every rule of the calculus (see the module docstring).
    ``rng_seed`` is accepted and not used: nothing here is sampled.
    """
    engine = engine_for(ps, max_predicates)
    models = set(engine.models)
    gamma = abs_.gamma.masks
    for p in engine.preds:
        if p not in gamma:
            raise UnknownElement(f"unknown element {p!r}")
    valuation = _transpose([gamma[p] for p in engine.preds], len(abs_.universe))
    checked = 0
    for v in valuation:
        checked += 1
        if v not in models:
            return SoundnessResult(False, engine.refutation(v), len(models), checked)

    masks = PointMasks(len(valuation), gamma)
    axioms = 0
    for r in ps.rules:
        if r.axiom is not None:
            axioms += 1
            if not masks.holds(r.axiom):
                return SoundnessResult(False, r.axiom, len(models), checked, axioms)
    return SoundnessResult(True, None, len(models), checked, axioms)


# --- completeness ------------------------------------------------------------


@dataclass
class CompletenessResult:
    status: str  # "complete" | "incomplete" | "precondition_unmet"
    witness: tuple[str, str] | None = None
    pairs_checked: int = 0


def verify_completeness(abs_: Abstraction, ps: ProofSystem,
                        max_predicates: int = DEFAULT_SATURATION_BOUND) -> CompletenessResult:
    """gamma(a) included in gamma(b) implies a(x) |- b(x) derivable.

    Requires gamma to be an order embedding; otherwise reports the unmet
    precondition distinctly instead of failing.  The pairs run through
    ``concrete._scan`` in the engine's predicate order, and
    ``pairs_checked`` counts those tried up to and including the witness.
    """
    emb = check_order_embedding(abs_)
    if not emb.is_embedding:
        return CompletenessResult("precondition_unmet", emb.witness)
    engine = engine_for(ps, max_predicates)
    leq, preds = abs_.lattice.leq, engine.preds
    bit = {p: 1 << i for i, p in enumerate(preds)}  # engine bits, read by name
    # gamma is an order embedding here, so gamma(a) <= gamma(b) iff a <= b
    res = _scan(((a, preds, False) for a in preds),
                lambda a, b: leq(a, b) and not engine.derivable_masks(bit[a], bit[b]))
    return CompletenessResult("complete" if res.ok else "incomplete",
                              res.witness, res.checked)
