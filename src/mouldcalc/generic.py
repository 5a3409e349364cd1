"""Opaque moulds: components as uninterpreted function symbols.

To check an operator expansion for *all* moulds rather than sampled ones,
the coefficient field is extended by fresh polynomial variables, one per
(mould, word) evaluation that occurs.  Both sides of an identity then
become rational functions in the slot variables and these symbols, and
equality of the canonical forms proves the identity generically.

Symbols are allocated from a registry; indices start high enough that they
never collide with slot variables.  The base costs nothing: an index above
the kernel's slot range takes the next free exponent field of the packed
monomials (see ``algebra``), so x_1001 is one field, not a thousand.
Values built from opaque moulds are
only ever combined by ring operations, never substituted into, so the
symbols behave exactly like constants.
"""

from __future__ import annotations

from .algebra import Polynomial, RationalFunction
from .moulds import Word

SYMBOL_BASE = 1000

__all__ = ["SymbolRegistry", "OpaqueMould", "SYMBOL_BASE"]


class SymbolRegistry:
    """Allocates one polynomial variable per (name, word) evaluation."""

    def __init__(self, base: int = SYMBOL_BASE):
        self._base = base
        self._vars: dict[tuple, int] = {}

    def symbol(self, name: str, word: Word) -> RationalFunction:
        key = (name, word)
        idx = self._vars.get(key)
        if idx is None:
            idx = self._base + len(self._vars) + 1
            self._vars[key] = idx
        return RationalFunction.make(1, Polynomial.variable(idx))


class OpaqueMould:
    """A mould whose nonempty-word values are fresh symbols.

    ``unit_value`` is the (constant) value on the empty word: 0 for
    Lie-algebra-side moulds, 1 for group-side ones.  ``support`` optionally
    restricts the nonzero depths, so depth-1-supported inputs can be
    modelled faithfully.
    """

    __slots__ = ("registry", "name", "depth", "_empty", "_support")

    def __init__(
        self,
        registry: SymbolRegistry,
        name: str,
        depth: int,
        unit_value: int = 0,
        support: tuple[int, ...] | None = None,
    ):
        self.registry = registry
        self.name = name
        self.depth = depth
        self._empty = (
            RationalFunction.one() if unit_value == 1 else RationalFunction.zero()
        )
        self._support = support

    def eval_word(self, w: Word) -> RationalFunction:
        if not w:
            return self._empty
        if self._support is not None and len(w) not in self._support:
            return RationalFunction.zero()
        return self.registry.symbol(self.name, tuple(w))
