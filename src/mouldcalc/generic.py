"""Opaque moulds: components as uninterpreted function symbols.

To check an operator expansion for *all* moulds rather than sampled ones,
the coefficient field is extended by fresh polynomial variables, one per
(mould, word) evaluation that occurs.  Both sides of an identity then
become rational functions in the slot variables and these symbols, and
equality of the canonical forms proves the identity generically.

Symbols are allocated from a registry; indices start high enough that they
never collide with slot variables.  The base costs nothing: an index above
the kernel's slot range takes the next free one-byte exponent field of the
packed monomials (see ``algebra``), so x_1001 costs one byte, not a
thousand fields.  A degree that grows past 255 with a symbol present
raises ``ExponentOverflowError``; the identities checked here stay below
it.  Each symbol's value is built once, the first time its (name, word)
is met, and every later call returns that same immutable value.
Values built from opaque moulds are
only ever combined by ring operations, never substituted into, so the
symbols behave exactly like constants.
"""

from __future__ import annotations

from .algebra import _K, Polynomial, RationalFunction
from .moulds import Word

SYMBOL_BASE = 1000

__all__ = ["SymbolRegistry", "OpaqueMould", "SYMBOL_BASE"]


class SymbolRegistry:
    """Allocates one polynomial variable per (name, word) evaluation.

    ``_vars`` maps each (name, word) met so far to its symbol's value, the
    variable x_i with i = base + count + 1 in order of first use.  The base
    is at least 16, the top of the slot range, or a symbol could be x_1.
    """

    def __init__(self, base: int = SYMBOL_BASE):
        if base < _K:
            raise ValueError(f"symbol base {base} is below the slot range's top {_K}")
        self._base = base
        self._vars: dict[tuple, RationalFunction] = {}

    def symbol(self, name: str, word: Word) -> RationalFunction:
        key = (name, word)
        value = self._vars.get(key)
        if value is None:
            idx = self._base + len(self._vars) + 1
            value = self._vars[key] = RationalFunction.make(
                1, Polynomial.variable(idx)
            )
        return value


class OpaqueMould:
    """A mould whose nonempty-word values are fresh symbols.

    ``unit_value`` is the (constant) value on the empty word: 0 for
    Lie-algebra-side moulds, 1 for group-side ones; any other value raises
    ValueError.  A mould supported in one depth r is ``lazy_leng(r, S)`` of
    an opaque S: it reads S only at words of length r, so no symbol is
    allocated for the depths it leaves out.
    """

    __slots__ = ("registry", "name", "depth", "_empty")

    def __init__(
        self, registry: SymbolRegistry, name: str, depth: int, unit_value: int = 0
    ):
        if unit_value not in (0, 1):
            raise ValueError(f"unit_value must be 0 or 1, got {unit_value!r}")
        self.registry = registry
        self.name = name
        self.depth = depth
        self._empty = (
            RationalFunction.one() if unit_value == 1 else RationalFunction.zero()
        )

    def eval_word(self, w: Word) -> RationalFunction:
        if not w:
            return self._empty
        return self.registry.symbol(self.name, tuple(w))
