"""Exception types shared across the package."""

from __future__ import annotations


class AbslogError(Exception):
    """Base class for all package-specific errors."""


class NotAPartialOrder(AbslogError):
    """The declared relation violates antisymmetry or transitivity."""


class NotALattice(AbslogError):
    """Some pair of elements lacks a unique glb or lub."""


class UnknownElement(AbslogError):
    """An element name does not belong to the lattice carrier."""


class NotDistributive(AbslogError):
    """A (co-)Heyting operation was requested on a non-distributive lattice."""


class CarrierTooLarge(AbslogError):
    """The carrier exceeds a configured enumeration or saturation bound."""


class InvalidConcretization(AbslogError):
    """A concretization table is not total or not monotone."""


class UnknownFormat(AbslogError):
    """Unknown render format, or text that a format cannot read or write."""


class UnknownSymbol(AbslogError):
    """A formula uses a predicate or connective outside the signature."""


class MinimizationFailed(AbslogError):
    """Removing axioms changed the derivable closure (an inconsistent oracle)."""


class WindowOverflow(AbslogError):
    """An octagon predicate left the octagon fragment: its window or slopes."""


class GridGuardViolated(AbslogError):
    """The octagon grid is too small for the constant window (N < 4C)."""


class ParseError(AbslogError):
    """Positioned syntax error in sequent text or a spec file."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        parts = []
        if line is not None:
            parts.append(f"line {line}")
        if col is not None:
            parts.append(f"col {col}")
        where = " at " + ", ".join(parts) if parts else ""
        super().__init__(message + where)


class SpecError(AbslogError):
    """Semantic error in a spec file (valid syntax, invalid content)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f" at line {line}" if line is not None else ""
        super().__init__(message + where)


class TooManyModels(CarrierTooLarge):
    """The model enumeration passed its bound; carries how far it got."""

    def __init__(self, reached: int, predicates: int, count: int, bound: int):
        self.reached = reached
        self.predicates = predicates
        self.count = count
        super().__init__(f"{count} partial models after predicate {reached} of "
                         f"{predicates} exceed the model bound {bound}")
