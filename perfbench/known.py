"""Known answers for every benchmark job, derived from the mathematics of
each input and never from running the program.

Sources:

* the comment at the head of each builtin spec (which connectives gamma
  preserves) together with the shape of its lattice (M3 and N5 are not
  distributive, so the Heyting arrows are not applicable there);
* the construction of each generated family in ``families.py``;
* the generation procedure documented in ``abslog.logicgen``: 8 structural
  rules, the introduction rules of each preserved connective, two axioms per
  operation-table entry, one axiom per order pair (reflexive ones included)
  and the abstraction's extra axioms.

Every gamma below is an order embedding except the parity x parity product,
where every tuple with a ``bot`` component concretizes to the empty set, so
completeness reports its unmet precondition there.  The calculus is sound,
and on an embedding ``a |- b`` is derivable iff ``a <= b``, so the
Lindenbaum-Tarski algebra has one class per element and the isomorphism
check passes.  On the product, whose lattice is Boolean, the lattice itself
is a model of the calculus, so derivability is again exactly the order.
"""

from __future__ import annotations

from math import comb

from . import families as fam

ALL = frozenset({"tt", "ff", "and", "or", "not", "impl", "coimpl"})
MEET_ONLY = frozenset({"tt", "ff", "and"})
LATTICE_OPS = frozenset({"tt", "ff", "and", "or"})
NEGATION_ONLY = frozenset({"tt", "ff", "not"})


def intro_rules(conns: frozenset[str]) -> int:
    binary = sum(2 for c in ("and", "or", "impl", "coimpl") if c in conns)
    constants = ("tt" in conns) + ("ff" in conns)
    negation = 0
    if "not" in conns:
        # defined through impl and ff (2 rules), else involution + contraposition
        negation = 2 if {"impl", "ff"} <= conns else 3
    return binary + constants + negation


def rule_count(n: int, conns: frozenset[str], order_pairs: int,
               extra_axioms: int = 0) -> int:
    binary = sum(1 for c in ("and", "or", "impl", "coimpl") if c in conns)
    return (8 + intro_rules(conns) + 2 * n * n * binary
            + 2 * n * ("not" in conns) + 2 * ("tt" in conns) + 2 * ("ff" in conns)
            + order_pairs + extra_axioms)


def pipeline(n: int, conns: frozenset[str], order_pairs: int,
             extra_axioms: int = 0, completeness: str = "complete") -> dict:
    return {
        "elements": n,
        "preserved": conns,
        "rules": rule_count(n, conns, order_pairs, extra_axioms),
        "classes": n,
        "isomorphism": True,
        "sound": True,
        "completeness": completeness,
    }


def outputs(answer: dict, emit_is_source: bool) -> dict:
    """Adds the answers for render, parse_machine and emit on a builtin."""
    rules = answer["rules"]
    return {**answer,
            "text_lines": rules + 5,     # title, 3 signature lines, count line
            "latex_rules": rules,        # one \frac per rule
            "machine_roundtrip": True,   # parse_machine inverts the machine render
            "emit_gamma_lines": answer["elements"],
            "emit_is_source": emit_is_source}


def octagon_elements(c: int) -> int:
    return 2 + 8 * c


def octagon_order_pairs(c: int) -> int:
    """Reflexive pairs, bot below the rest, the predicates below top, and
    the pairs inside each of the four chains of 2C predicates."""
    n = octagon_elements(c)
    return n + (n - 1) + (n - 2) + 4 * comb(2 * c, 2)


def octagon_infeasible(c: int) -> int:
    """Pairs sx*x+sy*y >= c1, -sx*x-sy*y >= c2 are empty iff c1 + c2 >= 1;
    with both constants in [-C+1, C] that is C(2C+1) pairs per opposite
    slope class, and there are two classes.  Every other pair is feasible."""
    return 2 * c * (2 * c + 1)


def octagon_pipeline(c: int) -> dict:
    return pipeline(octagon_elements(c), NEGATION_ONLY, octagon_order_pairs(c),
                    octagon_infeasible(c))


def chain_pipeline(k: int) -> dict:
    # gamma(c_i) is a prefix: meets and joins are preserved, the arrows are
    # not (c1 -> c0 is c0, but the complement of {0} is not empty)
    return pipeline(k, LATTICE_OPS, k * (k + 1) // 2)


def boolean_pipeline(bits: int) -> dict:
    # gamma is an isomorphism onto the whole powerset: everything preserved
    return pipeline(1 << bits, ALL, 3 ** bits)


def product_pipeline() -> dict:
    # parity x parity: iota preserves meets; the union of two rectangles is
    # not a rectangle, the componentwise arrows miss the non-rectangular
    # complements, and the product declares no negation
    return pipeline(16, MEET_ONLY, 9 * 9, completeness="precondition_unmet")


BUILTINS = {
    "parity": outputs(pipeline(4, ALL, 9), False),
    "diamond": outputs(pipeline(4, ALL, 9), False),
    "sign": outputs(pipeline(5, MEET_ONLY, 12), False),
    "m3": outputs(pipeline(5, MEET_ONLY, 12), False),
    "interval": outputs(pipeline(7, MEET_ONLY, 22), False),
    "threechain": outputs(pipeline(3, LATTICE_OPS, 6), False),
    # the octagon-c1 spec is itself in emit's canonical form
    "octagon-c1": outputs(octagon_pipeline(1), True),
}

# Hasse edges kept by minimization; octagon-c1 also keeps the infeasibility
# frontier c1 + c2 = 1 (two pairs per opposite slope class), since pairs with
# c1 + c2 >= 2 follow from it by cut.
MINIMIZED = {
    "parity": {"order_axioms": 4, "infeasibility_axioms": 0},
    "interval": {"order_axioms": 9, "infeasibility_axioms": 0},
    "octagon-c1": {"order_axioms": 12, "infeasibility_axioms": 4},
    f"chain-{fam.CHAIN_QUERIES}": {"order_axioms": fam.CHAIN_QUERIES - 1,
                                   "infeasibility_axioms": 0},
}

POINT_BATCHES = (f"chain-{fam.CHAIN_QUERIES}", f"boolean-{fam.BOOLEAN_BITS}",
                 "octagon-c1")


def _cartesian_answers() -> dict:
    lo, hi = fam.GALOIS_AXIS
    galois_points = (hi - lo + 1) ** 2
    galois_rects = (1 << (hi - lo + 1)) ** 2
    lo, hi = fam.MEETS_AXIS
    meets_rects = (1 << (hi - lo + 1)) ** 2
    lo, hi = fam.INJECTIVE_AXIS
    axis_subsets = 1 << (hi - lo + 1)
    return {
        "casestudies/galois": {
            # every region of the grid against every rectangle
            "exhaustive_ok": True, "exhaustive_checked": (1 << galois_points) * galois_rects,
            "sampled_ok": True, "sampled_checked": fam.CARTESIAN_SAMPLE},
        "casestudies/meets": {
            "exhaustive_ok": True, "exhaustive_checked": meets_rects ** 2,
            "sampled_ok": True, "sampled_checked": fam.CARTESIAN_SAMPLE},
        "casestudies/injective-product": {
            # the 2*16-1 rectangles with an empty axis all map to the empty
            # set; the first is stored, the rest collide
            "injective_ok": True, "injective_checked": axis_subsets ** 2,
            "collisions": f"{2 * axis_subsets - 2} empty-axis collisions",
            "product_elements": 16,
            # 3*3 tuples without bot are guarded; the other 7 collapse
            "criterion_ok": True, "criterion_checked": 9 * 9,
            "collapsed": "7 elements collapse through an empty axis",
            "order_embedding": False},
    }


def _octagon_case(c: int) -> dict:
    return {"elements": octagon_elements(c),
            "extra_axioms": octagon_infeasible(c),
            "grid_points": (2 * 4 * c + 1) ** 2,   # grid [-4C, 4C]^2
            "irreducible": True,
            "witness_complete": True,
            # no element equals the quarter plane, so each gets a point
            "separations": octagon_elements(c)}


KNOWN: dict[str, dict] = {
    **{f"builtins/{name}": answer for name, answer in BUILTINS.items()},
    f"scaling/chain-{fam.CHAIN_SCALING}": chain_pipeline(fam.CHAIN_SCALING),
    **{f"scaling/octagon-c{c}": octagon_pipeline(c) for c in fam.OCTAGON_SCALING},
    f"scaling/boolean-{fam.BOOLEAN_BITS}": boolean_pipeline(fam.BOOLEAN_BITS),
    "scaling/parity-x-parity": product_pipeline(),
    **{f"queries/minimize-{name}": answer for name, answer in MINIMIZED.items()},
    **{f"queries/points-{name}": {"queries": fam.POINT_QUERIES, "mismatches": 0}
       for name in POINT_BATCHES},
    **{f"casestudies/octagon-c{c}": _octagon_case(c) for c in fam.OCTAGON_CASES},
    **_cartesian_answers(),
}


# --- answers to point queries ------------------------------------------------
# A predicate sequent  G |- D  is derivable iff it is valid, i.e. the meet of
# G lies below the join of D in the lattice: the calculus is sound, gamma is
# an embedding preserving the connectives used, and the order axioms, the
# operation axioms and cut derive every valid one.


def chain_derivable(ante: list[str], succ: list[str]) -> bool:
    return min(int(a[1:]) for a in ante) <= max(int(d[1:]) for d in succ)


def boolean_derivable(ante: list[str], succ: list[str]) -> bool:
    meet = -1
    for a in ante:
        meet &= int(a[1:], 2)
    join = 0
    for d in succ:
        join |= int(d[1:], 2)
    return meet & ~join == 0


def octagon_leq(a: str, b: str, preds: dict) -> bool:
    """bot is below everything and top above; a larger constant on the same
    slope cuts a smaller half-plane; distinct slopes are incomparable."""
    if a == "bot" or b == "top":
        return True
    if a == "top" or b == "bot":
        return False
    (sa, ta, ca), (sb, tb, cb) = preds[a], preds[b]
    return (sa, ta) == (sb, tb) and ca >= cb


def octagon_disjoint(a: str, b: str, preds: dict) -> bool:
    """p, q |- ff: some side is bot, or opposite slopes with c1 + c2 >= 1."""
    if "bot" in (a, b):
        return True
    if "top" in (a, b):
        return False
    (sa, ta, ca), (sb, tb, cb) = preds[a], preds[b]
    return (sa, ta) == (-sb, -tb) and ca + cb >= 1
