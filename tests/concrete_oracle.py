"""The naive concrete semantics: formulas evaluated to ``ConcreteSet``s
through gamma and the registry's concrete operations, one set per node.

It is the reference that the point-mask check (``PointMasks.holds``, used by
``verify_soundness``) and the derivable sequents are tested against.
"""

from abslog.concrete import Abstraction
from abslog.connectives import connective
from abslog.syntax import Formula, Pred, Sequent


def eval_concrete(abs_: Abstraction, formula: Formula):
    """Evaluate in the concrete powerset (predicates through gamma)."""
    gamma = abs_.gamma
    uni = abs_.universe

    def walk(f: Formula):
        if isinstance(f, Pred):
            return gamma(f.name)
        return connective(f.op).concrete(uni, *map(walk, f.args))

    return walk(formula)


def holds_concrete(abs_: Abstraction, s: Sequent) -> bool:
    """Intersection of antecedents included in union of succedents."""
    inter = abs_.universe.full()
    for f in s.ante:
        inter &= eval_concrete(abs_, f)
    union = abs_.universe.empty()
    for f in s.succ:
        union |= eval_concrete(abs_, f)
    return inter.members <= union.members
