"""Spec file parsing, shorthand expressions and round-trip emission."""

from dataclasses import replace
from pathlib import Path

import pytest

from abslog import specfile
from abslog.concrete import Abstraction, ConcreteUniverse, ConcretizationMap
from abslog.errors import (
    CarrierTooLarge,
    InvalidConcretization,
    NotAPartialOrder,
    ParseError,
    SpecError,
)
from abslog.lattice import UnaryOpTable, build_lattice
from abslog.octagon import OctLattice, export_abstraction
from abslog.syntax import parse_sequent

DATA = Path(__file__).resolve().parent / "data"


def test_parity_loads(parity):
    lat = parity.lattice
    assert lat.elements == ("bot", "Even", "Odd", "top")
    assert lat.top == "top" and lat.bottom == "bot"
    assert len(parity.universe) == 17
    assert parity.gamma("Even").members == frozenset(
        p for p in parity.universe.points if p % 2 == 0)
    assert parity.gamma("top").members == parity.universe.point_set
    assert lat.unary_ops["negation"].table["Even"] == "Odd"


def test_sign_shorthands(sign):
    assert sign.gamma("Neg").members == frozenset(range(-8, 0))
    assert sign.gamma("Zero").members == frozenset([0])
    assert sign.gamma("Pos").members == frozenset(range(1, 9))


def test_atoms_universe(diamond):
    assert diamond.universe.points == ("p", "q")
    assert diamond.gamma("a").members == frozenset(["p"])


def test_union_and_explicit_lists():
    text = """
ELEMENTS
bot top
ORDER
bot < top
UNIVERSE
window 0 4
GAMMA
bot = union({0}, {2 4})
top = all
"""
    abs_ = specfile.load(text, "u")
    assert abs_.gamma("bot").members == frozenset([0, 2, 4])


def test_tuple_points():
    text = """
ELEMENTS
bot top
ORDER
bot < top
UNIVERSE
window 0 1 dim 2
GAMMA
bot = {(0,0) (1,1)}
top = all
"""
    abs_ = specfile.load(text, "t")
    assert abs_.gamma("bot").members == frozenset([(0, 0), (1, 1)])
    assert abs_.universe.var_names == ("x", "y")


def test_axioms_section():
    text = """
ELEMENTS
bot a b top
ORDER
bot < a
bot < b
a < top
b < top
UNIVERSE
atoms p q
GAMMA
bot = {}
a = {p}
b = {q}
top = all
AXIOMS
a(x), b(x) |- bot(x)
"""
    abs_ = specfile.load(text, "ax")
    assert abs_.extra_axioms == (("axiom.000", parse_sequent("a(x), b(x) |- bot(x)")),)


def test_axiom_unknown_predicate_rejected():
    text = """
ELEMENTS
bot top
ORDER
bot < top
UNIVERSE
atoms p
GAMMA
bot = {}
top = all
AXIOMS
zz(x) |- bot(x)
"""
    with pytest.raises(SpecError) as exc:
        specfile.load(text, "bad")
    assert "zz" in str(exc.value)


def test_positioned_errors():
    with pytest.raises(SpecError) as exc:
        specfile.load("ELEMENTS\na\nORDER\na < zz\nUNIVERSE\natoms p\nGAMMA\na = {}")
    assert "line 4" in str(exc.value)
    with pytest.raises(ParseError):
        specfile.load("junk before section")


def test_binary_operation_is_refused_at_its_line():
    text = "ELEMENTS\nbot top\nORDER\nbot < top\nOPS\nbinary meet\n" \
           "bot bot = bot\nUNIVERSE\natoms p\nGAMMA\nbot = {}\ntop = all\n"
    with pytest.raises(ParseError) as exc:
        specfile.load(text)
    assert exc.value.line == 6


def test_broken_order_fixture():
    with pytest.raises(NotAPartialOrder) as exc:
        specfile.load_path(DATA / "brokenorder.spec")
    assert "antisymmetry" in str(exc.value)


def test_gamma_point_outside_universe():
    text = "ELEMENTS\na\nUNIVERSE\nwindow 0 1\nGAMMA\na = {5}"
    with pytest.raises(SpecError) as exc:
        specfile.load(text)
    assert "5" in str(exc.value)
    # a token is read as a point of the universe's kind, or refused
    for universe, token in (("window 0 2", "(1,1)"), ("window 0 2 dim 2", "1"),
                            ("window 0 2", "x")):
        with pytest.raises(SpecError) as exc:
            specfile.load(f"ELEMENTS\na\nUNIVERSE\n{universe}\nGAMMA\na = {{{token}}}")
        assert f"point {token} is outside the universe" in str(exc.value)
        assert exc.value.line == 6


def test_emit_roundtrip(builtins):
    for name, abs_ in builtins.items():
        text = specfile.emit(abs_)
        again = specfile.load(text, name=abs_.name)
        lat, lat2 = abs_.lattice, again.lattice
        assert lat.elements == lat2.elements
        for a in lat.elements:
            for b in lat.elements:
                assert lat.leq(a, b) == lat2.leq(a, b)
            assert abs_.gamma(a).members == again.gamma(a).members
        assert {n: t.table for n, t in lat.unary_ops.items()} == \
               {n: t.table for n, t in lat2.unary_ops.items()}
        assert abs_.extra_axioms == again.extra_axioms
        # determinism: emitting the reloaded abstraction is byte-identical
        assert specfile.emit(again) == text


def test_integer_like_atoms_roundtrip():
    text = "ELEMENTS\nbot a top\nORDER\nbot < a\na < top\nUNIVERSE\natoms 1 2\n" \
           "GAMMA\nbot = {}\na = {1}\ntop = all\n"
    abs_ = specfile.load(text, "digits")
    assert abs_.universe.points == ("1", "2")
    assert abs_.gamma("a").members == frozenset(["1"])
    again = specfile.load(specfile.emit(abs_), "digits")
    assert again.gamma("a").members == frozenset(["1"])
    assert specfile.emit(again) == specfile.emit(abs_)


@pytest.mark.parametrize("dim", [0, -1])
def test_window_dimension_below_one_rejected(dim):
    with pytest.raises(InvalidConcretization):
        ConcreteUniverse.window(0, 2, dim=dim)
    text = f"ELEMENTS\na\nUNIVERSE\nwindow 0 2 dim {dim}\nGAMMA\na = all"
    with pytest.raises(SpecError) as exc:
        specfile.load(text)
    assert exc.value.line == 4
    assert "dimension" in str(exc.value)


def _atoms_abstraction(atom):
    uni = ConcreteUniverse.atoms([atom, "q"])
    lat = build_lattice(["bot", "a", "top"], [("bot", "a"), ("a", "top")])
    gamma = ConcretizationMap(lat, uni, {
        "bot": uni.mask([]), "a": uni.mask([atom]), "top": uni.mask(uni.points)})
    return Abstraction("atoms", lat, gamma)


@pytest.mark.parametrize("atom", ["p#1", "p 1", "p\t1", "#", "", "(1,2)x"])
def test_emit_refuses_an_atom_name_load_cannot_read(atom):
    with pytest.raises(SpecError) as exc:
        specfile.emit(_atoms_abstraction(atom))
    assert repr(atom) in str(exc.value)


@pytest.mark.parametrize("atom", ["p", "p1", "x_2", "a.b", "-3", "(1,2)",
                                  "{p", "p}", "p,q", "p,", "a}b", "x(1,2)"])
def test_emit_roundtrips_readable_atom_names(atom):
    abs_ = _atoms_abstraction(atom)
    again = specfile.load(specfile.emit(abs_), "atoms")
    assert again.universe.points == abs_.universe.points
    for e in abs_.lattice.elements:
        assert again.gamma(e).members == abs_.gamma(e).members


def _elements_abstraction(element, negation=False):
    uni = ConcreteUniverse.atoms(["p", "q"])
    ops = {"negation": UnaryOpTable("negation", {
        "bot": "top", element: element, "top": "bot"})} if negation else None
    lat = build_lattice(["bot", element, "top"],
                        [("bot", element), (element, "top")], unary_ops=ops)
    gamma = ConcretizationMap(lat, uni, {
        "bot": uni.mask([]), element: uni.mask(["p"]), "top": uni.mask(uni.points)})
    return Abstraction("elements", lat, gamma)


@pytest.mark.parametrize("element", ["a#1", "a b", "a\tb", "a\nb", "#", ""])
def test_emit_refuses_an_element_name_load_cannot_read(element):
    with pytest.raises(SpecError) as exc:
        specfile.emit(_elements_abstraction(element))
    assert repr(element) in str(exc.value)


@pytest.mark.parametrize("name", ["par\nELEMENTS\nzz", "a\rb", "a\r\nb", "a\n",
                                  "a\x0bb", "a\u2028b"])
def test_emit_refuses_an_abstraction_name_that_spans_lines(parity, name):
    # the name is written into the header comment, and ``load`` would read
    # what follows a line break as spec lines
    with pytest.raises(SpecError) as exc:
        specfile.emit(replace(parity, name=name))
    assert repr(name) in str(exc.value)


@pytest.mark.parametrize("name", ["", "par # x", "a b", "ELEMENTS"])
def test_emit_keeps_a_one_line_abstraction_name(parity, name):
    text = specfile.emit(replace(parity, name=name))
    assert text.splitlines()[0] == f"# abstraction: {name}"
    assert specfile.emit(specfile.load(text, name)) == text


@pytest.mark.parametrize("element", ["unary"])
def test_emit_refuses_an_operation_keyword_element_beside_operations(element):
    # an OPS line that starts with the keyword declares a new operation
    with pytest.raises(SpecError) as exc:
        specfile.emit(_elements_abstraction(element, negation=True))
    assert repr(element) in str(exc.value)
    abs_ = _elements_abstraction(element)  # without OPS the name reads back
    assert specfile.load(specfile.emit(abs_)).lattice.elements == abs_.lattice.elements


@pytest.mark.parametrize("section", specfile.SECTIONS)
def test_emit_refuses_a_lone_element_named_like_a_section(section):
    uni = ConcreteUniverse.atoms(["p"])
    lat = build_lattice([section], [])
    abs_ = Abstraction("lone", lat, ConcretizationMap(lat, uni, {section: uni.mask(uni.points)}))
    with pytest.raises(SpecError) as exc:
        specfile.emit(abs_)
    assert repr(section) in str(exc.value)


@pytest.mark.parametrize("element", ["0", "-3", "{a}", "a,b", "a&b", "=", "<",
                                     "x(1,2)"])
def test_load_refuses_an_element_name_the_formula_grammar_cannot_read(element):
    text = (f"ELEMENTS\nbot {element} top\nORDER\nbot < {element}\n{element} < top\n"
            "UNIVERSE\natoms p\nGAMMA\nbot = {}\ntop = all\n")
    with pytest.raises(SpecError) as exc:
        specfile.load(text)
    assert exc.value.line == 2
    assert repr(element) in str(exc.value)


# each of these is one ELEMENTS token, but the formula grammar cannot name
# it in an axiom or a machine-format rule line, so ``load`` refuses it
FORMULA_UNREADABLE = {"-3", "{a}", "a,b", "=", "<", "x(1,2)"}


# emit writes only what load reads back unchanged: a name the formula
# grammar can read round-trips, and emit refuses one it cannot, by name
@pytest.mark.parametrize("element", ["a", "a.b", "-3", "{a}", "a,b", "a=b", "=",
                                     "<", "ORDER", "x(1,2)", "binary"])
@pytest.mark.parametrize("negation", [False, True])
def test_emit_roundtrips_readable_element_names(element, negation):
    abs_ = _elements_abstraction(element, negation)
    if element in FORMULA_UNREADABLE:
        with pytest.raises(SpecError) as exc:
            specfile.emit(abs_)
        assert repr(element) in str(exc.value)
        return
    again = specfile.load(specfile.emit(abs_), "elements")
    assert again.lattice.elements == abs_.lattice.elements
    assert again.lattice.unary_ops == abs_.lattice.unary_ops
    for e in abs_.lattice.elements:
        assert again.gamma(e).members == abs_.gamma(e).members


def test_window_over_the_point_bound_is_positioned():
    text = "ELEMENTS\na\nUNIVERSE\nwindow 0 29 dim 4\nGAMMA\na = all"
    with pytest.raises(SpecError) as exc:
        specfile.load(text)
    assert exc.value.line == 4
    assert isinstance(exc.value.__cause__, CarrierTooLarge)


def _two_line_spec(first: str, second: str) -> str:
    return ("ELEMENTS\nbot top\nORDER\nbot < top\nUNIVERSE\nwindow 0 1 dim 2\n"
            f"GAMMA\nbot = {first}\ntop = {second}\n")


# one point list per case, as the second GAMMA line after a first that reads
# (0,0) and (1,1): the message the load raises at line 9.  An unparsable
# token anywhere in a list wins over a point outside the window before it.
LOAD_ERRORS = [
    ("{(0,0) (2,3) (1,1)}", "point (2, 3) is outside the universe"),
    ("{(0,0) (2,3) 7}", "point 7 is outside the universe"),
    ("{7 (2,3) (0,0)}", "point 7 is outside the universe"),
    ("{(0,0) (2,3) (0,x)}", "point (0,x) is outside the universe"),
    ("union({(0,0)}, {(1,1) (0,1)}, {(2,3)})", "point (2, 3) is outside the universe"),
    ("union({(0,0)}, {(2,3)}, {7})", "point (2, 3) is outside the universe"),
    ("union({(0,0) (1,1)}, {7 (2,3)})", "point 7 is outside the universe"),
]


@pytest.mark.parametrize("points, message", LOAD_ERRORS)
def test_point_list_errors_keep_their_precedence(points, message):
    with pytest.raises(SpecError) as exc:
        specfile.load(_two_line_spec("{(0,0) (1,1)}", points))
    assert exc.value.line == 9
    assert str(exc.value).startswith(f"bad GAMMA entry for 'top': {message}")


def test_spaced_and_tight_tuples_are_one_point():
    abs_ = specfile.load(_two_line_spec("{( 1 , 0 ) (1,0)}", "{(1,0) (0,0) (0, 0)}"))
    assert abs_.gamma("bot").members == frozenset([(1, 0)])
    assert abs_.gamma("top").members == frozenset([(1, 0), (0, 0)])


def test_load_parses_each_distinct_point_token_once(monkeypatch):
    text = specfile.emit(export_abstraction(OctLattice.build(3), 12))
    calls = []
    parse = specfile._parse_point
    monkeypatch.setattr(specfile, "_parse_point",
                        lambda tok, uni: calls.append(tok) or parse(tok, uni))
    abs_ = specfile.load(text, "octagon-c3")
    # 25 x 25 grid points, against 8125 point tokens in the GAMMA lines
    assert len(calls) == len(set(calls)) == len(abs_.universe) == 625
