"""Input sizes and generated spec texts for the benchmark families.

Everything here is built by the benchmark itself, as plain spec text, so
the program receives only generated inputs.  The element names chosen here
are what ``known.py`` reads the expected answers from.
"""

from __future__ import annotations

CHAIN_SCALING = 20          # chain c0 < ... < c19
CHAIN_QUERIES = 12          # chain of the minimization and point-query jobs
BOOLEAN_BITS = 3            # Boolean lattice 2^3 with complement as negation
OCTAGON_SCALING = (2, 3)    # octagon windows C on the scaling workload
OCTAGON_CASES = (1, 2, 3, 4)
POINT_QUERIES = 300         # sequents per point-query batch
CARTESIAN_SAMPLE = 2000     # samples per sampled 3-D Cartesian check
GALOIS_AXIS = (0, 2)        # exhaustive Galois check on GALOIS_AXIS^2
MEETS_AXIS = (0, 3)         # exhaustive meet check on MEETS_AXIS^2
SAMPLED_AXIS = (0, 2)       # sampled checks on SAMPLED_AXIS^3
INJECTIVE_AXIS = (0, 3)
PRODUCT_WINDOW = (-4, 4)    # axis window of the parity components


def chain_names(k: int) -> list[str]:
    return [f"c{i}" for i in range(k)]


def chain_text(k: int) -> str:
    """Chain c0 < ... < c(k-1) over the window [0, k-2]; gamma(c_i) is the
    prefix {0, ..., i-1}, so gamma(c0) is empty and gamma(c(k-1)) is all."""
    names = chain_names(k)
    lines = ["ELEMENTS", " ".join(names), "ORDER"]
    lines += [f"{a} < {b}" for a, b in zip(names, names[1:])]
    lines += ["UNIVERSE", f"window 0 {k - 2}", "GAMMA", "c0 = {}"]
    lines += [f"c{i} = range(0,{i - 1})" for i in range(1, k)]
    return "\n".join(lines) + "\n"


def boolean_name(mask: int, bits: int) -> str:
    return f"b{mask:0{bits}b}"


def boolean_text(bits: int) -> str:
    """The powerset of {a0, ..., a(bits-1)} ordered by inclusion, with
    complement as negation; gamma sends each subset to itself."""
    size = 1 << bits
    names = [boolean_name(m, bits) for m in range(size)]
    lines = ["ELEMENTS", " ".join(names), "ORDER"]
    for m in range(size):
        for b in range(bits):
            if not m >> b & 1:
                lines.append(f"{names[m]} < {names[m | 1 << b]}")
    lines += ["OPS", "unary negation"]
    lines += [f"{names[m]} = {names[(size - 1) ^ m]}" for m in range(size)]
    lines += ["UNIVERSE", "atoms " + " ".join(f"a{i}" for i in range(bits)), "GAMMA"]
    for m in range(size):
        atoms = " ".join(f"a{i}" for i in range(bits) if m >> i & 1)
        lines.append(f"{names[m]} = {{{atoms}}}")
    return "\n".join(lines) + "\n"


def parity_text(lo: int, hi: int) -> str:
    """The four-element parity abstraction over the window [lo, hi]."""
    return "\n".join([
        "ELEMENTS", "bot Even Odd top",
        "ORDER", "bot < Even", "bot < Odd", "Even < top", "Odd < top",
        "UNIVERSE", f"window {lo} {hi}",
        "GAMMA", "bot = {}", "Even = evens", "Odd = odds", "top = all",
    ]) + "\n"


# octagon predicates  sx*x + sy*y >= c,  constants in [-C+1, C]
OCTAGON_SLOPES = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def octagon_name(sx: int, sy: int, c: int) -> str:
    sign = {1: "+", -1: "-"}
    return f"p:{sign[sx]}x{sign[sy]}y>={c}"


def octagon_predicates(window_c: int) -> dict[str, tuple[int, int, int]]:
    return {octagon_name(sx, sy, c): (sx, sy, c)
            for sx, sy in OCTAGON_SLOPES
            for c in range(-window_c + 1, window_c + 1)}
