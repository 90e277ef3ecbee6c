"""Proof-system generation from an abstraction and its preservation report.

The generated system contains, in order: the structural rules; the
introduction rules for every preserved connective; one axiom pair per
abstract operation-table entry; one axiom per order pair; plus any extra
axioms carried by the abstraction (pairwise infeasibility axioms for the
octagon export travel this way).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iproduct

from .concrete import Abstraction, PreservationReport
from .connectives import CONNECTIVES, INTRO_SCHEMAS, lookup
from .errors import AbslogError, MinimizationFailed, UnknownFormat, UnknownSymbol
from .lattice import hasse_edges
from .syntax import NAME_RE, Compound, Pred, Sequent, render_sequent, sequent_reader

KIND_STRUCTURAL = "structural"
KIND_INTRODUCTION = "introduction"
KIND_OPERATION = "operation_axiom"
KIND_ORDER = "order_axiom"


@dataclass(frozen=True)
class Signature:
    """Predicate symbols (one per lattice element) and preserved connectives."""

    predicates: tuple[str, ...]
    connectives: frozenset[str]
    var_names: tuple[str, ...] = ("x",)

    @property
    def var(self) -> str:
        return ",".join(self.var_names)


@dataclass(frozen=True)
class Rule:
    """A named rule: a stock schema (``axiom`` is None) or an axiom sequent."""

    kind: str
    name: str
    axiom: Sequent | None = None


# schema displays for the structural rules; `G`/`D` are context
# metavariables, `?phi`/`?psi` formula metavariables (the introduction rules
# live with their connectives in :mod:`abslog.connectives`)
_STRUCTURAL_SCHEMAS: dict[str, tuple[tuple[str, ...], str]] = {
    "identity": ((), "?phi |- ?phi"),
    "weaken.l": (("G |- D",), "G, ?phi |- D"),
    "weaken.r": (("G |- D",), "G |- D, ?phi"),
    "contract.l": (("G, ?phi, ?phi |- D",), "G, ?phi |- D"),
    "contract.r": (("G |- D, ?phi, ?phi",), "G |- D, ?phi"),
    "exchange.l": (("G, ?phi, ?psi, G' |- D",), "G, ?psi, ?phi, G' |- D"),
    "exchange.r": (("G |- D, ?phi, ?psi, D'",), "G |- D, ?psi, ?phi, D'"),
    "cut": (("G |- D, ?phi", "G', ?phi |- D'"), "G, G' |- D, D'"),
}

STOCK_SCHEMAS = {**_STRUCTURAL_SCHEMAS, **INTRO_SCHEMAS}

# Rule order in a generated system: the binary connectives come first, and a
# connective whose rules are stated through others comes after all of them.
_INTRO_ORDER = sorted(CONNECTIVES.values(), key=lambda c: (bool(c.via), -c.arity))
_AXIOM_ORDER = sorted(CONNECTIVES.values(), key=lambda c: -c.arity)


def _stock_rule(name: str) -> Rule:
    kind = KIND_STRUCTURAL if name in _STRUCTURAL_SCHEMAS else KIND_INTRODUCTION
    return Rule(kind, name)


@dataclass
class ProofSystem:
    signature: Signature
    rules: tuple[Rule, ...]
    source: str
    abstraction: Abstraction | None = field(default=None, repr=False, compare=False)
    # the system's one derivability engine, built on first use by
    # ``proofengine.engine_for``; a derived system that drops only axioms
    # adding no clause inherits it (see ``_derive``), any other starts
    # without one, and assigning a field drops it
    _engine: object = field(default=None, init=False, repr=False, compare=False)

    def __setattr__(self, name, value):
        if name != "_engine":
            object.__setattr__(self, "_engine", None)
        object.__setattr__(self, name, value)

    def sorted_rules(self) -> list[Rule]:
        return sorted(self.rules, key=lambda r: (r.kind, r.name))

    def _derive(self, rules: tuple[Rule, ...], dropped) -> "ProofSystem":
        """This system with ``rules``, which are its own rules less
        ``dropped``, in any order.  When only axioms go, the new system gets
        ``ModelEngine.without`` of them from this system's engine, if any."""
        trial = ProofSystem(self.signature, rules, self.source, self.abstraction)
        if self._engine is not None and all(r.axiom is not None for r in dropped):
            trial._engine = self._engine.without([r.axiom for r in dropped])
        return trial

    def __eq__(self, other):
        return (isinstance(other, ProofSystem)
                and self.signature == other.signature
                and self.sorted_rules() == other.sorted_rules()
                and self.source == other.source)


def generate_signature(abs_: Abstraction, report: PreservationReport) -> Signature:
    """Predicates are the element names; connectives exactly the preserved ones."""
    return Signature(
        predicates=abs_.lattice.elements,
        connectives=report.preserved(),
        var_names=abs_.universe.var_names,
    )


def _intro_rules(connectives: frozenset[str]) -> list[Rule]:
    rules = []
    for c in _INTRO_ORDER:
        if c.name in connectives:
            schemas = c.intro_via if c.via and c.via <= connectives else c.intro
            rules += [_stock_rule(name) for name in schemas]
    return rules


def generate_proof_system(abs_: Abstraction, report: PreservationReport) -> ProofSystem:
    """Run the full generation procedure for one abstraction."""
    sig = generate_signature(abs_, report)
    lat = abs_.lattice
    rules: list[Rule] = [_stock_rule(n) for n in _STRUCTURAL_SCHEMAS]
    rules += _intro_rules(sig.connectives)

    # one axiom pair per entry of each preserved connective's table
    for c in _AXIOM_ORDER:
        if c.name not in sig.connectives:
            continue
        table = lat.table(c.name)
        for args in iproduct(range(len(lat)), repeat=c.arity):
            names = [lat.elements[i] for i in args]
            op = Compound(c.name, tuple(map(Pred, names)))
            value = Pred(lat.elements[lookup(table, args)])
            tag = ".".join(["op", c.name, *names])
            rules.append(Rule(KIND_OPERATION, f"{tag}.l", Sequent((op,), (value,))))
            rules.append(Rule(KIND_OPERATION, f"{tag}.r", Sequent((value,), (op,))))

    for a, b in lat.order_pairs():
        name = f"ord.refl.{a}" if a == b else f"ord.{a}.{b}"
        rules.append(Rule(KIND_ORDER, name, Sequent((Pred(a),), (Pred(b),))))

    rules += [Rule(KIND_OPERATION, name, s) for name, s in abs_.extra_axioms]

    return ProofSystem(sig, tuple(rules), abs_.name, abs_)


def minimize_proof_system(ps: ProofSystem, oracle) -> ProofSystem:
    """Shrink the axiom set while keeping the derivable-sequent closure.

    ``oracle(system, sequent) -> bool`` decides derivability.  Order axioms
    drop to the Hasse covering edges directly; the remaining operation
    axioms are removed greedily in name order whenever they stay derivable
    without themselves.  Every removed axiom is re-checked against the
    final system, which re-establishes closure equality.  The result keeps
    the rules of ``ps`` that are left, in their order.
    """
    if ps.abstraction is None:
        raise AbslogError("minimization needs the source abstraction")
    lat = ps.abstraction.lattice
    covers = set(hasse_edges(lat))
    # the removed rules by identity, not by name or value: a generated name
    # can stand for two rules, and a rule read twice is two equal objects
    removed: dict[int, Rule] = {}
    for r in ps.rules:
        if r.kind != KIND_ORDER:
            continue
        match r.axiom:
            case Sequent((Pred(a),), (Pred(b),)):
                if a == b or (a, b) not in covers:
                    removed[id(r)] = r
            case _:
                raise AbslogError(f"order axiom {r.name!r} is not one "
                                  "predicate on each side")
    current = ps._derive(tuple(r for r in ps.rules if id(r) not in removed),
                         removed.values())

    # the candidates go last, in name order, so that each trial drops one
    # index of the rule tuple: a slice, not a pass over every rule
    order = [r for r in current.rules if r.kind != KIND_OPERATION]
    at = len(order)
    order += sorted((r for r in current.rules if r.kind == KIND_OPERATION),
                    key=lambda r: r.name)
    current = current._derive(tuple(order), ())
    while at < len(current.rules):
        rules = current.rules
        r = rules[at]
        trial = current._derive(rules[:at] + rules[at + 1:], (r,))
        if oracle(trial, r.axiom):
            removed[id(r)] = r
            current = trial
        else:
            at += 1
    current = current._derive(tuple(r for r in ps.rules if id(r) not in removed), ())

    for r in sorted(removed.values(), key=lambda r: r.name):
        if not oracle(current, r.axiom):
            raise MinimizationFailed(
                f"minimization broke the closure: {r.name} no longer derivable")
    return current


def render(ps: ProofSystem, format: str = "text") -> str:
    """Serialize a proof system deterministically.

    Raises :class:`UnknownFormat` for a LaTeX or machine render of a source
    name that spans lines: each writes the name into one line, and a line
    break would end that line (and a LaTeX comment) early.  Each also
    refuses the names it cannot write: LaTeX a predicate name holding a TeX
    special character, the machine format a predicate name outside the
    formula grammar and a rule name that is empty, holds whitespace or is
    ``|``."""
    if format in ("latex", "machine") and ps.source.splitlines() not in ([], [ps.source]):
        raise UnknownFormat(
            f"source name {ps.source!r} cannot be written to the {format} format")
    if format == "text":
        return _render_text(ps)
    if format == "latex":
        return _render_latex(ps)
    if format == "machine":
        return _render_machine(ps)
    raise UnknownFormat(f"unknown render format {format!r}")


def _sig_lines(ps: ProofSystem) -> list[str]:
    conns = [c for c in CONNECTIVES if c in ps.signature.connectives]
    return [
        "predicates " + " ".join(ps.signature.predicates),
        "connectives " + " ".join(conns),
        "var " + ps.signature.var,
    ]


def _rule_text(r: Rule, var: str, latex: bool = False) -> tuple[tuple[str, ...], str]:
    """A rule's premises and conclusion as text: a schema's from
    ``STOCK_SCHEMAS``, an axiom's rendered over the variables ``var``."""
    if r.axiom is None:
        return STOCK_SCHEMAS[r.name]
    return (), render_sequent(r.axiom, var, latex)


def _render_text(ps: ProofSystem) -> str:
    lines = [f"proof system for {ps.source}"]
    lines += ["signature " + l for l in _sig_lines(ps)]
    rules = ps.sorted_rules()
    lines.append(f"rules ({len(rules)}):")
    for r in rules:
        prem, concl = _rule_text(r, ps.signature.var)
        shown = " ;; ".join(prem) + " ==> " + concl if prem else concl
        lines.append(f"  [{r.kind}] {r.name}: {shown}")
    return "\n".join(lines) + "\n"


# TeX reads these as markup (``%`` starts a comment, so a display would not
# close); the other two, ``&`` and ``~``, are connective symbols no name holds
TEX_SPECIALS = frozenset("#$%\\^_{}")


def _one_line(s: str) -> bool:
    """Whether ``s`` holds no line break, as ``str.splitlines`` finds them."""
    return s.splitlines() in ([], [s])


def _render_latex(ps: ProofSystem) -> str:
    for p in ps.signature.predicates:
        if not TEX_SPECIALS.isdisjoint(p):
            raise UnknownFormat(
                f"predicate name {p!r} cannot be written to the latex format")
    # a rule name ends its comment line, which a line break would end early;
    # the names are scanned as one string, and searched only if one breaks
    if not _one_line("".join([r.name for r in ps.rules])):
        name = next(r.name for r in ps.rules if not _one_line(r.name))
        raise UnknownFormat(
            f"rule name {name!r} cannot be written to the latex format")
    # schemas name no predicates, so their symbols are replaced as text
    def tex(s: str) -> str:
        s = s.replace("|-", r"\vdash ")
        for c in CONNECTIVES.values():
            s = s.replace(c.symbol, c.latex)
        return s.replace("?phi", r"\varphi").replace("?psi", r"\psi")

    lines = [f"% proof system for {ps.source}"]
    for r in ps.sorted_rules():
        prem, concl = _rule_text(r, ps.signature.var, latex=True)
        if r.axiom is None:
            prem, concl = map(tex, prem), tex(concl)
        above = r" \quad ".join(prem)
        lines.append(f"% {r.kind}: {r.name}")
        lines.append(rf"\[ \frac{{{above}}}{{{concl}}} \]")
    return "\n".join(lines) + "\n"


MACHINE_HEADER = "abslog-rules v1"


def _render_machine(ps: ProofSystem) -> str:
    # the format writes only what ``parse_machine`` reads back: an axiom
    # names its predicates in formula text
    for p in ps.signature.predicates:
        if not NAME_RE.fullmatch(p):
            raise UnknownFormat(
                f"predicate name {p!r} cannot be written to the machine format")
    # a rule line splits at whitespace and at " | "
    for r in ps.rules:
        if r.name.split() != [r.name] or r.name == "|":
            raise UnknownFormat(
                f"rule name {r.name!r} cannot be written to the machine format")
    lines = [MACHINE_HEADER, f"source {ps.source}"]
    lines += _sig_lines(ps)
    for r in ps.sorted_rules():
        if r.axiom is not None:
            lines.append(f"rule {r.kind} {r.name} | "
                         f"{render_sequent(r.axiom, ps.signature.var)}")
        else:
            lines.append(f"rule {r.kind} {r.name}")
    return "\n".join(lines) + "\n"


def parse_machine(text: str) -> ProofSystem:
    """Inverse of the machine render (up to the in-memory abstraction link)."""
    lines = text.splitlines()
    if not lines or lines[0] != MACHINE_HEADER:
        raise UnknownFormat(f"expected header {MACHINE_HEADER!r}")
    source = ""
    predicates: tuple[str, ...] = ()
    connectives: frozenset[str] = frozenset()
    var_names: tuple[str, ...] = ("x",)
    rule_lines: list[tuple[str, str]] = []
    seen: set[str] = set()  # the header lines read so far
    for ln in lines[1:]:
        if not ln.strip():
            continue
        head, _, rest = ln.partition(" ")
        if head in seen:
            raise UnknownFormat(f"repeated machine-format line {ln!r}")
        if head != "rule":
            seen.add(head)
        if head == "source":
            source = rest
        elif head == "predicates":
            predicates = tuple(rest.split())
            if len(set(predicates)) != len(predicates):
                raise UnknownFormat(f"a predicate is named twice in line {ln!r}")
        elif head == "connectives":
            connectives = frozenset(rest.split())
            if not connectives <= CONNECTIVES.keys():
                raise UnknownFormat(f"unknown connective in line {ln!r}")
        elif head == "var":
            var_names = tuple(v.strip() for v in rest.split(","))
        elif head == "rule":
            rule_lines.append((ln, rest))
        else:
            raise UnknownFormat(f"unknown machine-format line {ln!r}")
    # the header may follow the rules; an axiom names only its predicates and variables
    read_sequent = sequent_reader(frozenset(predicates), var_names)
    rules: list[Rule] = []
    for ln, rest in rule_lines:
        body, _, seq_text = rest.partition(" | ")
        parts = body.split()
        if len(parts) != 2:
            raise UnknownFormat(f"malformed rule line {ln!r}")
        kind, name = parts
        if kind not in (KIND_STRUCTURAL, KIND_INTRODUCTION, KIND_OPERATION, KIND_ORDER):
            raise UnknownFormat(f"unknown rule kind in line {ln!r}")
        if seq_text:
            try:
                rules.append(Rule(kind, name, read_sequent(seq_text)))
            except UnknownSymbol as e:
                raise UnknownFormat(f"{e} in line {ln!r}") from None
        elif name not in STOCK_SCHEMAS:
            raise UnknownFormat(f"unknown rule schema {name!r}")
        elif (rule := _stock_rule(name)).kind != kind:
            raise UnknownFormat(f"rule schema of another kind in line {ln!r}")
        else:
            rules.append(rule)
    sig = Signature(predicates, connectives, var_names)
    return ProofSystem(sig, tuple(rules), source)
