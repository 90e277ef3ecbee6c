"""The naive concrete semantics: formulas evaluated to frozensets of points
through gamma, one set per node, with the seven set operations stated
here on frozensets rather than taken from the connective registry.

It is the reference that the registry's operations on point masks, the
point-mask check (``PointMasks.holds``, used by ``verify_soundness``) and
the derivable sequents are tested against.
"""

from abslog.concrete import Abstraction, ConcreteSet
from abslog.syntax import Formula, Pred, Sequent

# connective name -> its operation on frozensets, given the universe's
# points ``u`` first
OPS = {
    "tt": lambda u: u,
    "ff": lambda u: frozenset(),
    "and": lambda u, x, y: x & y,
    "or": lambda u, x, y: x | y,
    "not": lambda u, x: u - x,
    "impl": lambda u, x, y: (u - x) | y,
    "coimpl": lambda u, x, y: x - y,
}


def _members(abs_: Abstraction, formula: Formula) -> frozenset:
    """The points where a formula holds."""
    gamma = abs_.gamma
    u = abs_.universe.point_set

    def walk(f: Formula) -> frozenset:
        if isinstance(f, Pred):
            return gamma(f.name).members
        return OPS[f.op](u, *map(walk, f.args))

    return walk(formula)


def eval_concrete(abs_: Abstraction, formula: Formula) -> ConcreteSet:
    """Evaluate in the concrete powerset (predicates through gamma)."""
    return abs_.universe.subset(_members(abs_, formula))


def holds_concrete(abs_: Abstraction, s: Sequent) -> bool:
    """Intersection of antecedents included in union of succedents."""
    inter = abs_.universe.point_set
    for f in s.ante:
        inter &= _members(abs_, f)
    union = frozenset()
    for f in s.succ:
        union |= _members(abs_, f)
    return inter <= union
