"""The connective registry: order, lazy cached tables, typed errors for
missing operations, and the README table."""

import pytest

from abslog.cartesian import product
from abslog.connectives import CONNECTIVES
from abslog.errors import NotDistributive, UnknownSymbol
from abslog.syntax import Compound, Pred

from conftest import REPO


def test_registry_lists_the_seven_candidates_in_report_order():
    assert list(CONNECTIVES) == ["tt", "ff", "and", "or", "not", "impl", "coimpl"]


def test_tables_are_built_on_first_use_and_cached(parity):
    lat = product([parity, parity]).abstraction.lattice
    assert lat._tables == {}  # a product carrier builds no table eagerly
    impl = lat.table("impl")
    assert lat.table("impl") is impl
    assert set(lat._tables) == {"impl"}


def test_missing_operations_raise_typed_errors(m3, sign):
    with pytest.raises(NotDistributive):
        m3.lattice.table("coimpl")
    with pytest.raises(UnknownSymbol):
        sign.lattice.table("not")


def test_unknown_connective_is_a_typed_error():
    # a hand-built node outside the registry; the parser never makes one
    with pytest.raises(UnknownSymbol):
        Compound("xor", (Pred("Even"), Pred("Odd")))


def test_a_compound_takes_its_connectives_arity():
    for c in CONNECTIVES.values():
        Compound(c.name, (Pred("Even"),) * c.arity)
        for n in {0, 1, 2} - {c.arity}:
            with pytest.raises(UnknownSymbol):
                Compound(c.name, (Pred("Even"),) * n)


@pytest.mark.parametrize("op, args", [
    ("not", ("Even",)),
    ("and", (Pred("Even"), "Odd")),
    ("or", (None, Pred("Odd"))),
    ("impl", (Pred("Even"), ("not", Pred("Odd")))),
])
def test_a_compound_takes_formulas(op, args):
    # a bare name would build and then fail in normalize with an
    # AttributeError on its missing .op
    with pytest.raises(UnknownSymbol, match="takes formulas"):
        Compound(op, args)


def registry_table() -> list[str]:
    rows = ["| connective | arity | symbol | precedence | concrete op | introduction rules |",
            "|---|---|---|---|---|---|"]
    for c in CONNECTIVES.values():
        intro = ", ".join(f"`{n}`" for n in c.intro)
        if c.via:
            via = " and ".join(f"`{v}`" for v in sorted(c.via))
            intro += f"; with {via} preserved: " + ", ".join(f"`{n}`" for n in c.intro_via)
        symbol = c.symbol.replace("|", "\\|")
        rows.append(f"| `{c.name}` | {c.arity} | `{symbol}` | {c.prec} | "
                    f"{c.concrete_name} | {intro} |")
    return rows


def test_readme_table_is_the_registry():
    readme = (REPO / "README.md").read_text(encoding="utf-8").splitlines()
    rows = registry_table()
    start = readme.index(rows[0])
    assert readme[start:start + len(rows)] == rows
