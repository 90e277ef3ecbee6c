"""Formula/sequent parsing and deterministic rendering."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from abslog.connectives import CONNECTIVES, connective
from abslog.errors import ParseError, UnknownSymbol
from abslog.syntax import (
    Compound,
    Pred,
    Sequent,
    parse_formula,
    parse_sequent,
    render_formula,
    render_sequent,
    sequent_reader,
)


def test_parse_atoms():
    assert parse_formula("Even(x)") == Pred("Even")
    assert parse_formula("tt") == Compound("tt")
    assert parse_formula("~Odd(x)") == Compound("not", (Pred("Odd"),))


def test_render_rejects_a_non_formula():
    with pytest.raises(UnknownSymbol):
        render_formula("Even")


def test_octagon_style_names():
    f = parse_formula("p:+x+y>=1(x,y)")
    assert f == Pred("p:+x+y>=1")
    s = parse_sequent("p:+x+y>=1(x,y), p:-x-y>=0(x,y) |- ff")
    assert s.ante == (Pred("p:+x+y>=1"), Pred("p:-x-y>=0"))
    assert s.succ == (Compound("ff"),)


def test_precedence():
    f = parse_formula("a(x) & b(x) | c(x) -> d(x)")
    ab = Compound("and", (Pred("a"), Pred("b")))
    assert f == Compound("impl", (Compound("or", (ab, Pred("c"))), Pred("d")))
    g = parse_formula("~a(x) & b(x)")
    assert g == Compound("and", (Compound("not", (Pred("a"),)), Pred("b")))


def test_arrows_right_associative():
    f = parse_formula("a(x) -> b(x) -> c(x)")
    bc = Compound("impl", (Pred("b"), Pred("c")))
    assert f == Compound("impl", (Pred("a"), bc))
    g = parse_formula("a(x) <- b(x) -> c(x)")
    assert g == Compound("coimpl", (Pred("a"), bc))


def test_parens():
    f = parse_formula("(a(x) | b(x)) & c(x)")
    assert f == Compound("and", (Compound("or", (Pred("a"), Pred("b"))), Pred("c")))


def test_sequent_shapes():
    s = parse_sequent("|- tt")
    assert s.ante == () and s.succ == (Compound("tt"),)
    s = parse_sequent("a(x), b(x) |- c(x), d(x)")
    assert len(s.ante) == 2 and len(s.succ) == 2


def test_sequent_needs_succedent():
    with pytest.raises(ParseError):
        parse_sequent("a(x) |-")
    with pytest.raises(ParseError):
        Sequent((Pred("a"),), ())


def test_arg_validation():
    parse_sequent("a(x) |- b(x)", expected_args=("x",))
    with pytest.raises(ParseError):
        parse_sequent("a(y) |- b(y)", expected_args=("x",))
    with pytest.raises(ParseError):
        parse_formula("a(x) |- oops")


def test_parse_errors_position():
    with pytest.raises(ParseError) as exc:
        parse_formula("a(x) & $")
    assert "col" in str(exc.value)


# malformed input -> the exact message and its 1-based column; the
# arguments are checked before parsing, and the end of input is the column
# after the last character
MALFORMED = [
    (parse_formula, "a(x) & $", None, "unexpected character '$'", 8),
    (parse_formula, "a(x) b(x)", None, "trailing input after formula", 6),
    (parse_formula, "a(x) )", None, "trailing input after formula", 6),
    (parse_formula, "a(x) |- b(x)", None, "trailing input after formula", 6),
    (parse_formula, "(a(x)", None, "expected ')'", 6),
    (parse_formula, "& a(x)", None, "expected a formula", 1),
    (parse_formula, "", None, "expected a formula", 1),
    (parse_formula, "~", None, "expected a formula", 2),
    (parse_formula, "a(x) -> ", None, "expected a formula", 9),
    (parse_formula, "ttx", None, "unexpected character 't'", 1),
    (parse_sequent, "a(x) |-", None, "expected a formula", 8),
    (parse_sequent, "tt, |- ff", None, "expected a formula", 5),
    (parse_sequent, "a(x) b(x) |- c(x)", None, "expected '|-'", 6),
    (parse_sequent, "a(x) |- b(x) |- c(x)", None, "trailing input after sequent", 14),
    (parse_sequent, "0(x) |- a(x)", None, "unexpected character '0'", 1),
    (parse_sequent, "a(x, y) |- b(x,y) c", ("x", "y"), "unexpected character 'c'", 19),
    (parse_sequent, "top(x) |- a(y)", ("x",),
     "predicate 'a' applied to (y); expected (x)", 11),
    (parse_sequent, "a(x,y) |- b(x)", ("x", "y"),
     "predicate 'b' applied to (x); expected (x,y)", 11),
]


@pytest.mark.parametrize("parse,text,expected_args,message,col", MALFORMED)
def test_malformed_input_message_and_column(parse, text, expected_args, message, col):
    with pytest.raises(ParseError) as exc:
        parse(text, line=3, expected_args=expected_args)
    assert (exc.value.line, exc.value.col) == (3, col)
    assert str(exc.value) == f"{message} at line 3, col {col}"


names = st.sampled_from(["Even", "Odd", "bot", "top", "p:+x+y>=1", "[-1..0]"])


@st.composite
def formulas(draw, depth=3):
    """A predicate, or any registry connective applied to as many formulas
    as its arity."""
    if depth == 0 or draw(st.booleans()):
        return Pred(draw(names))
    op = draw(st.sampled_from(list(CONNECTIVES)))
    return Compound(op, tuple(draw(formulas(depth=depth - 1))
                              for _ in range(connective(op).arity)))


@given(formulas())
def test_formula_roundtrip(f):
    assert parse_formula(render_formula(f)) == f


@given(st.lists(formulas(), max_size=3), st.lists(formulas(), min_size=1, max_size=3))
def test_sequent_roundtrip(ante, succ):
    s = Sequent(tuple(ante), tuple(succ))
    assert parse_sequent(render_sequent(s)) == s


def parsed(parse, text):
    """The sequent ``parse`` reads from ``text``, or its error's message,
    line and column."""
    try:
        return parse(text)
    except ParseError as e:
        return str(e), e.line, e.col


SPACES = ["", " ", "  ", "\t", "\n", "\u00a0", "\x1c"]


@st.composite
def sequent_texts(draw):
    """A rendered sequent, or one corruption of it: a character deleted or
    inserted, a second ``|-``, the turnstile as ``||-`` or ``|->``, an empty
    side, or other whitespace."""
    ante = draw(st.lists(formulas(), max_size=3))
    succ = draw(st.lists(formulas(), min_size=1, max_size=3))
    text = render_sequent(Sequent(tuple(ante), tuple(succ)))
    left, _, right = text.partition("|-")
    at = draw(st.integers(0, len(text)))
    edit = draw(st.sampled_from(["none", "delete", "insert", "turnstile", "||-",
                                 "|->", "no left", "no right", "spaces"]))
    if edit == "delete":
        return text[:at] + text[at + 1:]
    if edit == "insert":
        return text[:at] + draw(st.sampled_from("|-()<>,&~tfx0 ")) + text[at:]
    if edit == "turnstile":
        return text[:at] + "|-" + text[at:]
    if edit in ("||-", "|->"):
        return left + edit + right
    if edit == "no left":
        return "|-" + right
    if edit == "no right":
        return left + "|-"
    if edit == "spaces":
        pad = st.sampled_from(SPACES)
        return draw(pad) + "".join(draw(pad) if c == " " else c for c in text) + draw(pad)
    return text


@given(st.lists(sequent_texts(), min_size=1, max_size=4))
def test_sequent_reader_reads_as_parse_sequent(texts):
    read = sequent_reader()
    # twice each: the second read of a text takes its sides from the reader
    for text in texts + texts:
        assert parsed(read, text) == parsed(parse_sequent, text)
