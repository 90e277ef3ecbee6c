"""Point lists read by ``specfile.load`` against the naive reader of
``point_list_oracle``: every GAMMA image has the same mask, and a list that
fails raises the same ``SpecError`` at the same line.

``load`` reads a list of the spellings ``emit`` writes by one lookup per
token and any other list through its tokenizer; the naive reader, swapped
in for both, tokenizes every list.
"""

from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abslog import specfile
from abslog.cartesian import product
from abslog.errors import SpecError
from abslog.octagon import OctLattice, export_abstraction
from conftest import BUILTIN_NAMES, SPECS, load_builtin
from point_list_oracle import read_point_list

# atom names that read as one token, and ones that do not: a leading tuple
# is a token of its own, an opened tuple reads on into the next token
ATOMS = ("p", "q", "1", "-2", "(1,2)", "(1,2)x", "(1,", "2)", "(", "(a", "x(1,2)", "p,q")
ATOM_TOKENS = ATOMS + ("r", "01", "(1, 2)", "( 1,2)", "(1,2,", "2")
SPELLINGS_1D = ("-0", "01", "+1", "00", "1_0", "x", "(0,1)", "1.5")
ODD_TUPLES = ("1", "x", "(0,x)", "()", "(0,0)(1,1)")
SPACES = st.sampled_from([" ", "  ", "\t"])


def _outcome(text: str):
    """The GAMMA masks ``load`` reads, or the error it raises."""
    try:
        return specfile.load(text, "drawn").gamma.masks
    except SpecError as e:
        return type(e), str(e), e.line


def _naive_outcome(text: str):
    with patch.object(specfile._PointLists, "read",
                      lambda lists, body: read_point_list(body, lists.uni)):
        return _outcome(text)


def _spec_text(universe: str, a: str, b: str) -> str:
    return ("ELEMENTS\nbot a b top\nORDER\nbot < a\nbot < b\na < top\nb < top\n"
            f"UNIVERSE\n{universe}\nGAMMA\nbot = {{}}\na = {a}\nb = {b}\ntop = all\n")


@st.composite
def _tuple_token(draw, coord, sizes):
    coords = draw(st.lists(coord, min_size=min(sizes), max_size=max(sizes)))
    sep = draw(st.sampled_from([",", ", ", " , ", " ,"]))
    pad = draw(st.sampled_from(["", " "]))
    return f"({pad}{sep.join(map(str, coords))}{pad})"


@st.composite
def _universe(draw):
    """A UNIVERSE line and two strategies for the point tokens written over
    it: points of the universe, in their written spelling or another, and
    tokens that are not one."""
    kind = draw(st.sampled_from(["atoms", 1, 2, 3]))
    if kind == "atoms":
        atoms = draw(st.lists(st.sampled_from(ATOMS), min_size=1, max_size=5, unique=True))
        return "atoms " + " ".join(atoms), st.sampled_from(atoms), st.sampled_from(ATOM_TOKENS)
    lo = draw(st.integers(-2, 1))
    hi = draw(st.integers(lo, lo + (4 if kind == 1 else 2)))
    inside, near = st.integers(lo, hi), st.integers(lo - 1, hi + 1)
    if kind == 1:
        return (f"window {lo} {hi}",
                st.one_of(inside.map(str), inside.map("{:+d}".format), inside.map("{:03d}".format)),
                st.one_of(near.map(str), st.sampled_from(SPELLINGS_1D)))
    return (f"window {lo} {hi} dim {kind}", _tuple_token(inside, [kind]),
            st.one_of(_tuple_token(near, [kind - 1, kind + 1]), st.sampled_from(ODD_TUPLES)))


@st.composite
def _point_list(draw, good, odd):
    """A braced list, half the time of points only, apart by whitespace."""
    clean = draw(st.booleans())
    tokens = good if clean else st.one_of(good, odd)
    gaps = SPACES if clean else st.one_of(SPACES, st.just(""))
    text = draw(st.sampled_from(["", " "]))
    for i, tok in enumerate(draw(st.lists(tokens, max_size=6))):
        text += (draw(gaps) if i else "") + tok
    return "{" + text + draw(st.sampled_from(["", " "])) + "}"


@st.composite
def _specs(draw):
    line, good, odd = draw(_universe())
    lists = st.one_of(_point_list(good, odd),
                      st.lists(_point_list(good, odd), min_size=1, max_size=3)
                      .map(lambda ls: f"union({', '.join(ls)})"))
    return _spec_text(line, draw(lists), draw(lists))


@settings(max_examples=300, deadline=None)
@given(_specs())
@example(_spec_text("atoms (1, 2)", "{(1, 2)}", "{ 2) (1,}"))
@example(_spec_text("window 0 2", "{-0 01 +1 1_0}", "union({1 2}, {})"))
@example(_spec_text("window 0 1 dim 2", "{(0,0)(1,1) (0, 1)}", "{(1,1) (1,1) (2,3)}"))
def test_drawn_point_lists_read_as_the_naive_reader_reads_them(text):
    assert _outcome(text) == _naive_outcome(text)


WRITTEN = BUILTIN_NAMES + tuple(f"octagon-c{c}-export" for c in range(1, 5)) + ("parity^2",)


def _written(name: str) -> str:
    """A spec text as written: a builtin's file, or ``emit`` of an octagon
    export or of parity^2."""
    if name in BUILTIN_NAMES:
        return (SPECS / f"{name}.spec").read_text(encoding="utf-8")
    if name == "parity^2":
        parity = load_builtin("parity")
        return specfile.emit(product([parity, parity]).abstraction)
    c = int(name[len("octagon-c")])
    return specfile.emit(export_abstraction(OctLattice.build(c), 4 * c))


@pytest.mark.parametrize("name", WRITTEN)
def test_written_specs_read_as_the_naive_reader_reads_them(name):
    text = _written(name)
    masks = _outcome(text)
    assert isinstance(masks, dict)
    assert masks == _naive_outcome(text)
