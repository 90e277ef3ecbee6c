"""Signature/proof-system generation, axiom minimization, render formats."""

from dataclasses import replace

import pytest

from abslog import logicgen, specfile, syntax
from abslog.concrete import (
    Abstraction,
    ConcreteUniverse,
    ConcretizationMap,
    preservation_report,
)
from abslog.errors import AbslogError, MinimizationFailed, SpecError, UnknownFormat
from abslog.lattice import build_lattice, hasse_edges
from abslog.logicgen import (
    KIND_INTRODUCTION,
    KIND_OPERATION,
    KIND_ORDER,
    KIND_STRUCTURAL,
    ProofSystem,
    Rule,
    generate_proof_system,
    generate_signature,
    minimize_proof_system,
    parse_machine,
    render,
)
from abslog.octagon import OctLattice, export_abstraction
from abslog.proofengine import derivable, verify_completeness
from abslog.syntax import parse_sequent


def system(abs_):
    return generate_proof_system(abs_, preservation_report(abs_))


def test_parity_signature(parity):
    sig = generate_signature(parity, preservation_report(parity))
    assert sig.predicates == ("bot", "Even", "Odd", "top")
    assert sig.connectives == {"tt", "ff", "and", "or", "not", "impl", "coimpl"}


def test_signature_matches_preserved_exactly(builtins):
    for abs_ in builtins.values():
        report = preservation_report(abs_)
        sig = generate_signature(abs_, report)
        assert sig.connectives == report.preserved()


def test_structural_rules_present(threechain):
    ps = system(threechain)
    names = {r.name for r in ps.rules}
    for r in ("identity", "cut", "weaken.l", "weaken.r", "contract.l",
              "contract.r", "exchange.l", "exchange.r"):
        assert r in names


def test_parity_operation_axioms(parity):
    ps = system(parity)
    by_name = {r.name: r for r in ps.rules}
    # Even(x) & Odd(x) -||- bot(x), read off the meet table
    l = by_name["op.and.Even.Odd.l"]
    assert l.axiom == parse_sequent("Even(x) & Odd(x) |- bot(x)")
    r = by_name["op.and.Even.Odd.r"]
    assert r.axiom == parse_sequent("bot(x) |- Even(x) & Odd(x)")
    assert by_name["op.or.Even.Odd.l"].axiom == \
        parse_sequent("Even(x) | Odd(x) |- top(x)")
    assert by_name["ord.bot.Even"].axiom == parse_sequent("bot(x) |- Even(x)")


def test_order_axiom_count_equals_order(builtins):
    for abs_ in builtins.values():
        ps = system(abs_)
        order_rules = [r for r in ps.rules if r.kind == KIND_ORDER]
        assert len(order_rules) == len(abs_.lattice.order_pairs())


def test_operation_axioms_instantiate_tables(parity):
    ps = system(parity)
    lat = parity.lattice
    for r in ps.rules:
        if r.name.startswith("op.and.") and r.name.endswith(".l"):
            _, _, a, b, _ = r.name.split(".")
            assert r.axiom.succ[0].name == lat.meet(a, b)


def test_negation_via_implication_for_parity(parity):
    names = {r.name for r in system(parity).rules}
    assert "intro.not.def.l" in names and "intro.not.def.r" in names
    assert "intro.not.contraposition" not in names


def test_primitive_negation_without_impl(builtins):
    oct_ = builtins["octagon-c1"]
    names = {r.name for r in system(oct_).rules}
    assert "intro.not.contraposition" in names
    assert "intro.not.involution.l" in names
    assert "intro.not.def.l" not in names


def test_extra_axioms_become_rules(builtins):
    oct_ = builtins["octagon-c1"]
    ps = system(oct_)
    by_name = {r.name: r for r in ps.rules}
    assert "axiom.001" in by_name
    assert by_name["axiom.001"].kind == KIND_OPERATION
    assert by_name["axiom.001"].axiom == parse_sequent(
        "p:+x+y>=1(x,y), p:-x-y>=0(x,y) |- ff")


ORACLE = lambda ps, s: derivable(ps, s)


def test_minimize_chain_order_axioms(threechain):
    ps = system(threechain)
    mini = minimize_proof_system(ps, ORACLE)
    order_rules = {(r.axiom.ante[0].name, r.axiom.succ[0].name)
                   for r in mini.rules if r.kind == KIND_ORDER}
    assert order_rules == {("bot", "mid"), ("mid", "top")}


def test_minimize_removes_table_axioms(parity):
    ps = system(parity)
    mini = minimize_proof_system(ps, ORACLE)
    names = {r.name for r in mini.rules}
    assert "op.and.Even.top.l" not in names
    # the removed axiom stays derivable
    assert derivable(mini, parse_sequent("Even(x) & top(x) |- Even(x)"))
    assert derivable(mini, parse_sequent("Even(x) |- Even(x) & top(x)"))


def test_minimize_order_axioms_equal_hasse(builtins):
    for abs_ in builtins.values():
        mini = minimize_proof_system(system(abs_), ORACLE)
        order_rules = {(r.axiom.ante[0].name, r.axiom.succ[0].name)
                       for r in mini.rules if r.kind == KIND_ORDER}
        assert order_rules == set(hasse_edges(abs_.lattice))


def test_minimize_fixpoint(threechain):
    mini = minimize_proof_system(system(threechain), ORACLE)
    again = minimize_proof_system(mini, ORACLE)
    assert again == mini


def test_minimize_needs_the_abstraction(parity):
    detached = parse_machine(render(system(parity), "machine"))
    with pytest.raises(AbslogError):
        minimize_proof_system(detached, ORACLE)


def test_minimize_rejects_an_inconsistent_oracle(parity):
    # says yes to every candidate in the greedy pass, then no in the re-check
    ps = system(parity)
    greedy = sum(r.kind == KIND_OPERATION for r in ps.rules)
    calls = 0

    def lying(system_, sequent):
        nonlocal calls
        calls += 1
        return calls <= greedy

    with pytest.raises(MinimizationFailed):
        minimize_proof_system(ps, lying)
    assert calls == greedy + 1


@pytest.mark.parametrize("axiom", ("Even(x) & top(x) |- top(x)",
                                   "Even(x), Odd(x) |- top(x)"))
def test_minimize_refuses_a_malformed_order_axiom(parity, axiom):
    # an order axiom names one predicate on each side; a compound used to
    # crash minimization, and a second antecedent was silently dropped
    text = render(system(parity), "machine")
    ps = parse_machine(text + f"rule {KIND_ORDER} ord.bad | {axiom}\n")
    ps.abstraction = parity
    with pytest.raises(AbslogError, match="'ord.bad'"):
        minimize_proof_system(ps, ORACLE)


NAMESAKES = """ELEMENTS
bot refl x y top
ORDER
bot < refl
refl < x
refl < y
x < top
y < top
UNIVERSE
window 0 4
GAMMA
bot = {}
refl = {0}
x = {0 1 3}
y = {0 2 3}
top = all
"""


def test_minimize_keeps_a_rule_whose_name_a_dropped_rule_shares():
    # ord.refl.x names both the reflexive axiom x |- x and the order pair
    # refl |- x; dropping the first must keep the second
    abs_ = specfile.load(NAMESAKES, "namesakes")
    ps = system(abs_)
    names = [r.name for r in ps.rules]
    assert names.count("ord.refl.x") == 2
    mini = minimize_proof_system(ps, ORACLE)
    assert sorted(r.name for r in mini.rules if r.kind == KIND_ORDER) == [
        "ord.bot.refl", "ord.refl.x", "ord.refl.y", "ord.x.top", "ord.y.top"]
    assert verify_completeness(abs_, mini).status == "complete"


def test_minimize_keeps_infeasibility_frontier(builtins):
    oct_ = builtins["octagon-c1"]
    mini = minimize_proof_system(system(oct_), ORACLE)
    kept = sorted(r.name for r in mini.rules if r.name.startswith("axiom."))
    # pairs with c1 + c2 >= 2 follow from the c1 + c2 = 1 frontier by cut
    assert kept == ["axiom.000", "axiom.001", "axiom.003", "axiom.004"]
    for r in (r for r in system(oct_).rules if r.name.startswith("axiom.")):
        assert derivable(mini, r.axiom)


def test_minimize_keeps_one_copy_of_a_needed_axiom_held_twice(builtins):
    # as when a machine file holds its line twice: the first copy goes,
    # since the second still derives it; the second stays, and the first is
    # re-checked against it
    oct_ = builtins["octagon-c1"]
    ps = system(oct_)
    r = next(r for r in ps.rules if r.name == "axiom.000")
    twice = ProofSystem(ps.signature, ps.rules + (Rule(r.kind, r.name, r.axiom),),
                        ps.source, oct_)
    mini = minimize_proof_system(twice, ORACLE)
    assert [r.name for r in mini.rules].count("axiom.000") == 1
    assert mini == minimize_proof_system(ps, ORACLE)


def test_render_text_deterministic(parity):
    ps = system(parity)
    t1, t2 = render(ps, "text"), render(ps, "text")
    assert t1 == t2
    assert "op.and.Even.Odd.l: Even(x) & Odd(x) |- bot(x)" in t1


def test_render_latex_structure(parity):
    ps = system(parity)
    tex = render(ps, "latex")
    assert tex.count(r"\frac") == len(ps.rules)


@pytest.mark.parametrize("fmt", ["machine", "latex"])
@pytest.mark.parametrize("name", ["par\nELEMENTS\nzz", "a\rb", "a\n", "a\u2028b"])
def test_render_refuses_a_source_name_that_spans_lines(parity, fmt, name):
    # each format writes the source into one line: a line break would start
    # an unknown machine line, or end the LaTeX comment early
    ps = system(replace(parity, name=name))
    with pytest.raises(UnknownFormat) as exc:
        render(ps, fmt)
    assert repr(name) in str(exc.value)


def test_render_keeps_a_one_line_source_name(parity):
    ps = system(replace(parity, name="par # x"))
    assert parse_machine(render(ps, "machine")).source == "par # x"
    assert render(ps, "latex").startswith("% proof system for par # x\n")


def test_machine_roundtrip(builtins):
    for abs_ in builtins.values():
        ps = system(abs_)
        text = render(ps, "machine")
        assert text.startswith("abslog-rules v1\n")
        again = parse_machine(text)
        assert again == ps
        assert render(again, "machine") == text


def test_generation_and_parsing_render_no_sequent(builtins, monkeypatch):
    machines = {name: render(system(abs_), "machine") for name, abs_ in builtins.items()}

    def refuse(*args, **kwargs):
        raise AssertionError("a sequent was rendered")

    monkeypatch.setattr(logicgen, "render_sequent", refuse)
    for name, abs_ in builtins.items():
        system(abs_)
        parse_machine(machines[name])


def test_parse_machine_parses_each_distinct_side_once(parity, monkeypatch):
    # parity's 149 axioms have 298 sides, which hold 74 distinct texts
    ps = system(parity)
    text = render(ps, "machine")
    parsed = []

    class Counted(syntax._Parser):
        def __init__(self, text, line=None):
            parsed.append(text)
            super().__init__(text, line)

    monkeypatch.setattr(syntax, "_Parser", Counted)
    assert parse_machine(text) == ps
    assert sum(r.axiom is not None for r in ps.rules) == 149
    assert len(parsed) == len(set(parsed)) == 74


@pytest.mark.parametrize("source", ["octagon-c1", "export-c2"])
def test_generation_parses_no_axiom_text(builtins, monkeypatch, source):
    abs_ = (builtins["octagon-c1"] if source == "octagon-c1"
            else export_abstraction(OctLattice.build(2), 8))

    def refuse(*args, **kwargs):
        raise AssertionError("a sequent was parsed")

    monkeypatch.setattr(syntax, "_Parser", refuse)
    axioms = [r.axiom for r in system(abs_).rules if r.name.startswith("axiom.")]
    assert axioms == [s for _, s in abs_.extra_axioms] != []


def chain_through(element):
    """bot < element < top over one point, built in code, so that any name
    can be the middle element."""
    uni = ConcreteUniverse.atoms(["p"])
    lat = build_lattice(["bot", element, "top"], [("bot", element), (element, "top")])
    return Abstraction("odd", lat, ConcretizationMap(lat, uni, {
        "bot": uni.mask([]), element: uni.mask(uni.points), "top": uni.mask(uni.points)}))


@pytest.mark.parametrize("element", ["0", "a&b"])
def test_machine_format_refuses_a_name_the_grammar_cannot_read(element):
    # neither the spec format nor the formula grammar reads the name, so the
    # abstraction is built in code
    abs_ = chain_through(element)
    with pytest.raises(SpecError):
        specfile.emit(abs_)
    ps = system(abs_)
    render(ps, "text")
    with pytest.raises(UnknownFormat) as exc:
        render(ps, "machine")
    assert repr(element) in str(exc.value)


@pytest.mark.parametrize("element", ["a->b", "a<-b", "a?phi", "a?psi"])
def test_latex_writes_predicate_names_verbatim(element):
    # connective symbols and metavariables inside a name are the name's
    text = f"ELEMENTS\nbot {element} top\nORDER\nbot < {element}\n{element} < top\n" \
           f"UNIVERSE\natoms p\nGAMMA\nbot = {{}}\n{element} = {{p}}\ntop = all\n"
    ps = system(specfile.load(text, "names"))
    assert parse_machine(render(ps, "machine")) == ps
    tex = render(ps, "latex")
    assert rf"{element}(x) \wedge  top(x) \vdash  {element}(x)" in tex


@pytest.mark.parametrize("char", ["#", "$", "%", "\\", "^", "_", "{", "}"])
def test_latex_refuses_a_predicate_name_holding_a_tex_special(char):
    # TeX would read the character as markup: in a%b, % comments out the
    # rest of the display, which then never closes
    element = f"a{char}b"
    ps = system(chain_through(element))
    assert parse_machine(render(ps, "machine")) == ps
    with pytest.raises(UnknownFormat) as exc:
        render(ps, "latex")
    assert repr(element) in str(exc.value)


@pytest.mark.parametrize("name", ["my axiom", "", "a\tb", "a\nb", "|"])
def test_machine_format_refuses_a_rule_name_it_cannot_read_back(parity, name):
    # a rule line splits at whitespace and at " | ": "rule operation_axiom
    # my axiom | ..." has three words before the sequent
    axiom = parse_sequent("Even(x) |- top(x)")
    ps = system(replace(parity, extra_axioms=((name, axiom),)))
    render(ps, "text")
    with pytest.raises(UnknownFormat) as exc:
        render(ps, "machine")
    assert repr(name) in str(exc.value)
    kept = system(replace(parity, extra_axioms=(("my|axiom", axiom),)))
    assert parse_machine(render(kept, "machine")) == kept


@pytest.mark.parametrize("name", ["my\n\\bye", "a\rb", "a\n", "a\u2028b"])
def test_latex_refuses_a_rule_name_that_spans_lines(parity, name):
    # the name ends a "% kind: name" comment: past a line break, TeX would run
    # \bye, which ends the document
    axiom = parse_sequent("Even(x) |- top(x)")
    ps = system(replace(parity, extra_axioms=((name, axiom),)))
    render(ps, "text")
    with pytest.raises(UnknownFormat) as exc:
        render(ps, "latex")
    assert repr(name) in str(exc.value)
    kept = system(replace(parity, extra_axioms=(("my axiom", axiom),)))
    assert ": my axiom\n" in render(kept, "latex")


def test_var_line_after_the_rules(builtins):
    ps = system(builtins["octagon-c1"])
    lines = render(ps, "machine").splitlines()
    var = next(ln for ln in lines if ln.startswith("var "))
    lines.remove(var)
    moved = parse_machine("\n".join(lines + [var]) + "\n")
    assert moved == ps
    assert render(moved, "text") == render(ps, "text")


@pytest.mark.parametrize("line, named", [
    ("rule", "'rule'"),
    ("rule structural", "'rule structural'"),
    ("rule introduction intro.bogus", "'intro.bogus'"),
    # render writes the four rule kinds only, each stock schema under its own
    ("rule banana intro.and.l", "'rule banana intro.and.l'"),
    ("rule banana ord.bad | bot(x) |- top(x)", "'rule banana ord.bad"),
    ("rule introduction cut", "'rule introduction cut'"),
    ("rule structural intro.and.l", "'rule structural intro.and.l'"),
])
def test_malformed_rule_line(parity, line, named):
    text = render(system(parity), "machine") + line + "\n"
    with pytest.raises(UnknownFormat, match=named):
        parse_machine(text)


def test_machine_format_refuses_an_unknown_connective(parity):
    # render writes only registry connectives, so ``foo`` would read back
    # and then vanish from the next render
    text = render(system(parity), "machine")
    line = next(ln for ln in text.splitlines() if ln.startswith("connectives "))
    with pytest.raises(UnknownFormat) as exc:
        parse_machine(text.replace(line, "connectives and foo"))
    assert str(exc.value) == "unknown connective in line 'connectives and foo'"


@pytest.mark.parametrize("line", ["source other", "predicates Even Odd",
                                  "connectives and", "var y"])
def test_parse_machine_refuses_a_repeated_header_line(parity, line):
    # render writes each header line once, and a second one read silently
    # would replace the first: ``source other`` would rename the system
    text = render(system(parity), "machine").replace("\nrule ", f"\n{line}\nrule ", 1)
    with pytest.raises(UnknownFormat) as exc:
        parse_machine(text)
    assert str(exc.value) == f"repeated machine-format line {line!r}"


def test_parse_machine_refuses_a_predicate_named_twice(parity):
    text = render(system(parity), "machine")
    line = next(ln for ln in text.splitlines() if ln.startswith("predicates "))
    bad = "predicates bot bot Even Odd top"
    with pytest.raises(UnknownFormat) as exc:
        parse_machine(text.replace(line, bad))
    assert str(exc.value) == f"a predicate is named twice in line {bad!r}"


@pytest.mark.parametrize("text, message", [
    ("", "expected header 'abslog-rules v1'"),
    ("abslog-rules v2\nsource parity\n", "expected header 'abslog-rules v1'"),
    ("abslog-rules v1\nsources parity\n", "unknown machine-format line 'sources parity'"),
])
def test_parse_machine_refuses_a_header_or_line_render_never_writes(text, message):
    with pytest.raises(UnknownFormat) as exc:
        parse_machine(text)
    assert str(exc.value) == message


def test_parse_machine_skips_blank_lines(parity):
    ps = system(parity)
    assert parse_machine(render(ps, "machine").replace("\nvar ", "\n\n \t\nvar ")) == ps


# render writes an axiom over the predicates line's predicates, each applied
# to the var line's variables; the edit is made in the first rule line that
# holds ``old``
@pytest.mark.parametrize("old, new, message", [
    ("Even(x)", "Even(y)", "predicate 'Even' applied to (y); expected (x)"),
    ("Odd(x)", "Odd(x,z)", "predicate 'Odd' applied to (x,z); expected (x)"),
    ("Odd(x)", "Odd()", "predicate 'Odd' applied to (); expected (x)"),
    ("ord.Even.top | Even(x)", "ord.Foo.top | Foo(x)", "unknown predicate 'Foo'"),
])
def test_parse_machine_refuses_an_axiom_render_never_writes(parity, old, new, message):
    text = render(system(parity), "machine")
    line = next(ln for ln in text.splitlines() if ln.startswith("rule ") and old in ln)
    bad = line.replace(old, new, 1)
    with pytest.raises(UnknownFormat) as exc:
        parse_machine(text.replace(line, bad))
    assert str(exc.value) == f"{message} in line {bad!r}"


def test_parse_machine_checks_axioms_against_the_header_wherever_it_stands(parity):
    # the header lines may follow the rules, as in test_var_line_after_the_rules
    lines = render(system(parity), "machine").splitlines()
    preds = next(ln for ln in lines if ln.startswith("predicates "))
    lines.remove(preds)
    lines.append(preds.replace(" Odd", ""))
    with pytest.raises(UnknownFormat, match="^unknown predicate 'Odd' in line 'rule "):
        parse_machine("\n".join(lines) + "\n")


def test_unknown_format(parity):
    with pytest.raises(UnknownFormat):
        render(system(parity), "yaml")


def test_rule_kinds_partition(parity):
    ps = system(parity)
    kinds = {r.kind for r in ps.rules}
    assert kinds == {KIND_STRUCTURAL, KIND_INTRODUCTION, KIND_OPERATION, KIND_ORDER}
    for r in ps.rules:
        if r.kind in (KIND_OPERATION, KIND_ORDER):
            assert r.axiom is not None
