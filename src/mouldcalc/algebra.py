"""Exact arithmetic kernel.

Provides arbitrary-precision rationals, sparse multivariate polynomials with
integer coefficients, integer linear forms in the variables x_1, x_2, ..., and
rational functions whose denominators are products of linear forms.  That last
class is closed under addition, multiplication and substitution of linear
forms for variables, which is all the mould operations ever need; keeping
denominators factored sidesteps multivariate gcd computations entirely.
Every term product runs in one loop, ``_mul_form``: products with a linear
form, products of polynomials (the smaller factor's terms as its rows), the
numerator pairs of ``rf_sum``, exact division and Horner substitution.
A substitution composes each denominator form in one pass, adding each
letter's coefficients into one list, and a form's packed linear terms
(``_linear_terms``) are built once per distinct form, in a bounded cache of
immutable tuples, however many words it is a letter of.

Canonical forms
---------------
* ``Monomial``: inside the kernel, one ``int`` with a fixed field of
  ``_BITS`` bits per exponent: the total degree in field 0 (the lowest bits)
  and one field per variable.  A term product is then one integer
  addition, and the constant monomial is 0.  x_1..x_K keep field i, where
  ``_K`` = 64 is a fixed constant that covers every slot variable.  A
  variable above x_K, such as an opaque symbol x_1001, gets the next free
  field the first time it is packed, from one append-only table that grows
  under a lock; so a monomial costs one field per variable that has been
  used, not one per index.  Every conversion between an index and a field
  goes through ``_field`` and ``_index``; the term-product kernels need
  none.  A packed value means something only under its own process's
  table, so a ``Polynomial`` refuses to be pickled: values cross processes
  as JSON.  At the public boundary
  (``Polynomial.from_dict``, ``Polynomial.terms``, ``rf_monomial`` and
  JSON) a monomial is the tuple of exponents of x_1..x_k with trailing
  zeros trimmed; plain and LaTeX text read only the fields of the variables
  that occur in the polynomial.  A field never wraps: every exponent is at most
  the total degree, so it is enough to check the degree field where a
  degree grows (a product, a product with a linear form, the lifting of a
  sum) and where a tuple is packed.  A degree above ``_MAX_EXP`` raises
  ``ExponentOverflowError``.
* ``Polynomial``: integer coefficients only; rational content lives in the
  enclosing ``RationalFunction`` scalar.
* ``LinearForm``: arbitrary integer coefficient vector; denominators store
  the primitive representative (gcd 1, first nonzero coefficient positive)
  with sign and content absorbed into the scalar.
* ``RationalFunction``: ``scalar * numerator / prod(form**mult)`` where the
  numerator has content 1 and positive leading coefficient under graded
  lexicographic order on indices (total degree first, then x_1 major), and
  no denominator form divides the numerator.  On packed monomials that is
  the degree field, then the field of the lowest-indexed variable that
  differs: the lowest field that differs, unless that field lies above x_K
  and the table has given fields out of index order (``_leading``).  So
  canonical forms, signs and every rendering do not depend on the order in
  which variables were first used.  Zero
  is uniquely ``(0, 1, ())``.  Structural equality is therefore semantic
  equality.  A product of canonical numerators, or the quotient of one by
  a primitive form, needs no content step (``_assemble``): its content is
  1 by Gauss's lemma, and its leading coefficient is the product or the
  quotient of the factors' ones (grlex is a monomial order), all positive:
  a primitive form's leading term is its lowest-indexed variable, whose
  coefficient is positive.

Where cancellation is attempted
-------------------------------
Canonicalizing means dividing the numerator by each denominator form while
the division is exact (``try_div_linear``).  Most such attempts fail, so
the ring operations attempt only those a cancellation is possible for;
every attempt skipped is one that provably fails.  The argument rests on
two facts: a linear form is irreducible, hence prime in the polynomial
ring, and a canonical numerator is divisible by none of its own
denominator forms.  ``RationalFunction.make`` called directly tries every
form; the operations below build through ``_build``, which takes the forms
still worth trying.

* ``substitute``: when the forms put in for x_1..x_n are linearly
  independent (at once when their last variables differ, as in shuffle
  words and the word of ``sharp``; otherwise by fraction-free elimination,
  cached per word), the
  substitution extends to a ring automorphism, which maps a numerator
  coprime to every denominator form to one coprime to every image form.
  No form is tried.  Renamings, shuffle permutations, ``neg`` and
  ``sharp`` are such maps; a dependent word tries every form.
* ``__mul__``: cross-cancellation, as in ``fractions.Fraction``.  A form of
  one denominator that is not in the other can divide the product only
  through the other numerator, so only that numerator is tried; a form of
  both denominators divides neither numerator, and is not tried.
  ``mul_linear`` is the product with the form's value.
* ``try_div_linear`` itself: setting x_i := 0 for every variable of the
  form is a ring map that sends the form to 0, so it sends every multiple
  of the form to 0.  It sends a numerator to the sum of its terms free of
  those variables, and distinct monomials do not cancel; so a numerator
  with such a term is not divisible, and the division returns at once.
* ``rf_sum``: lifted to the common denominator, a summand that holds a form
  at its top multiplicity keeps a term the form does not divide, while
  every other lifted term is divisible by it.  If exactly one summand holds
  the form at top multiplicity, the form cannot divide the sum, so only
  forms held at top multiplicity by two or more summands are tried.  A
  summand given as a pair ``(a, b)``, which stands for ``a * b``, is
  cross-cancelled as ``__mul__`` does (``_cross``), so it is reduced like
  every other summand and the argument holds for it unchanged; only its
  numerator product is left to the lifting, which multiplies the two
  numerators straight into the sum.
* ``div_linear``: only the form divided by can cancel, and it is tried
  only when the denominator lacks it.

All values are immutable; every operation returns a new value.
"""

from __future__ import annotations

import sys
import threading
from fractions import Fraction
from functools import lru_cache, reduce
from operator import or_
from math import gcd
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

Rational = Fraction

__all__ = [
    "Rational",
    "Monomial",
    "Polynomial",
    "LinearForm",
    "RationalFunction",
    "NotDivisibleError",
    "ZeroDenominatorError",
    "ExponentOverflowError",
    "x_var",
    "rf_monomial",
    "rf_sum",
    "one_over_forms",
    "rf_to_json",
    "rf_from_json",
]


class NotDivisibleError(ArithmeticError):
    """Exact division was requested but does not hold."""


class ZeroDenominatorError(ZeroDivisionError):
    """A denominator linear form became identically zero."""


class ExponentOverflowError(ArithmeticError):
    """A total degree outgrew the exponent field of a packed monomial."""


# ---------------------------------------------------------------------------
# monomials: one int, the total degree in field 0 and one field per variable
# ---------------------------------------------------------------------------

Monomial = tuple  # the public form: exponents of x_1..x_k, trailing zeros trimmed

_BITS = 16  # width of one exponent field
_MAX_EXP = (1 << _BITS) - 1  # the largest exponent, and the degree field's mask
_FIELD_TYPE = "H"  # memoryview format of one unsigned _BITS-bit field
_K = 64  # x_1.._K keep field i; this covers every slot variable

# The field of each variable above x_K, given the first time it is packed
# and never changed, so a packed value stays valid for the life of the
# process.  Both maps grow under the lock; _INDEX_OF is appended to before
# _FIELD_OF publishes the new field.
_FIELD_OF: dict[int, int] = {}  # index above _K -> its field
_INDEX_OF: list[int] = []  # the index of field _K + 1 + n, at position n
_FIELD_LOCK = threading.Lock()
_in_index_order = True  # whether field order above _K is still index order
_LOW_SIZE = (_K + 1) * (_BITS // 8)  # bytes of the degree field and x_1..x_K


def _trim(seq: Sequence[int]) -> tuple:
    n = len(seq)
    while n > 0 and seq[n - 1] == 0:
        n -= 1
    return tuple(seq[:n])


def _check_degree(degree: int) -> None:
    if degree > _MAX_EXP:
        raise ExponentOverflowError(
            f"total degree {degree} exceeds the largest supported exponent {_MAX_EXP}"
        )


def _field(i: int) -> int:
    """The field of x_i: i itself up to _K, else from the table."""
    global _in_index_order
    if i <= _K:
        return i
    f = _FIELD_OF.get(i)
    if f is None:
        with _FIELD_LOCK:
            f = _FIELD_OF.get(i)
            if f is None:
                if _INDEX_OF and i < _INDEX_OF[-1]:
                    _in_index_order = False
                _INDEX_OF.append(i)
                f = _FIELD_OF[i] = _K + len(_INDEX_OF)
    return f


def _index(f: int) -> int:
    """The variable index of field f."""
    return f if f <= _K else _INDEX_OF[f - _K - 1]


def _unit(i: int) -> int:
    """The packed monomial x_i: a one in x_i's field and in the degree field."""
    return (1 << _BITS * (i if i <= _K else _field(i))) | 1


def _pack(exps: Sequence[int]) -> int:
    """The packed monomial of an exponent tuple for x_1, x_2, ..."""
    if any(e < 0 for e in exps):
        raise ValueError(f"negative exponent in monomial {tuple(exps)}")
    degree = sum(exps)
    _check_degree(degree)
    m = 0
    for e in reversed(exps[:_K]):
        m = m << _BITS | e
    m = m << _BITS | degree
    for i in range(_K, len(exps)):
        if exps[i]:
            m |= exps[i] << _BITS * _field(i + 1)
    return m


def _unpack(m: int) -> Monomial:
    """The trimmed exponent tuple of a packed monomial."""
    size = -(-m.bit_length() // _BITS) * (_BITS // 8)
    # native byte order, so that each field reads as one native integer
    fields = tuple(memoryview(m.to_bytes(size, sys.byteorder)).cast(_FIELD_TYPE))
    if sys.byteorder != "little":
        fields = fields[::-1]  # fields[f] is field f
    if size <= _LOW_SIZE:
        return fields[1:]
    exps = list(fields[1 : _K + 1])
    for n, e in enumerate(fields[_K + 1 :]):
        if e:
            i = _INDEX_OF[n]
            if i > len(exps):
                exps.extend([0] * (i - len(exps)))
            exps[i - 1] = e
    return _trim(exps)


def _degree(terms) -> int:
    """The total degree of a packed term dict (0 when empty)."""
    return max(map(_MAX_EXP.__and__, terms), default=0)


def _leading(terms) -> int:
    """The grlex-largest of a nonempty collection of packed monomials: the
    highest degree, then the larger exponent of the lowest-indexed variable
    where two monomials differ (x_1 major).

    Up to x_K and while the table is in index order, the lowest field that
    differs is that variable; otherwise the differing fields are looked up.
    """
    # the monomials exist, so their fields were given before this read;
    # a lowest differing field above this shift is looked up
    mixed = sys.maxsize if _in_index_order else _K * _BITS
    it = iter(terms)
    best = next(it)
    top = best & _MAX_EXP
    for m in it:
        degree = m & _MAX_EXP
        if degree != top:
            if degree > top:
                best, top = m, degree
            continue
        diff = m ^ best  # its lowest set bit lies in the lowest field that differs
        shift = ((diff & -diff).bit_length() - 1) // _BITS * _BITS
        if shift > mixed:
            shift = min(_occupied(diff), key=_index) * _BITS
        if m >> shift & _MAX_EXP > best >> shift & _MAX_EXP:
            best = m
    return best


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


class Polynomial:
    """Sparse multivariate polynomial with integer coefficients.

    ``_terms`` maps packed monomials to nonzero integers; ``terms`` is the
    same map keyed by exponent tuples.  Instances are treated as immutable.
    The constructor takes packed keys and is internal: build from exponent
    tuples with ``from_dict``.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: dict):
        self._terms = terms
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_dict(d: Mapping[Monomial, int]) -> "Polynomial":
        """Build from exponent tuples; raises ExponentOverflowError for a
        monomial whose total degree exceeds the exponent field."""
        out: dict = {}
        for m, c in d.items():
            if not c:
                continue
            key = _pack(m)
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                del out[key]
        return Polynomial(out)

    @staticmethod
    def zero() -> "Polynomial":
        return _POLY_ZERO

    @staticmethod
    def one() -> "Polynomial":
        return _POLY_ONE

    @staticmethod
    def constant(c: int) -> "Polynomial":
        return Polynomial({0: c}) if c else _POLY_ZERO

    @staticmethod
    def variable(i: int) -> "Polynomial":
        if i < 1:
            raise ValueError("variable indices start at 1")
        return Polynomial({_unit(i): 1})

    # -- queries -----------------------------------------------------------

    @property
    def terms(self) -> Mapping[Monomial, int]:
        """The terms keyed by trimmed exponent tuples, as a read-only map."""
        return MappingProxyType({_unpack(m): c for m, c in self._terms.items()})

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not self._terms or self._terms.keys() == {0}

    def constant_value(self) -> int:
        return self._terms.get(0, 0)

    def degree(self) -> int:
        return _degree(self._terms)

    def max_var(self) -> int:
        # The largest int holds the highest field; up to x_K that is the index.
        top = (max(self._terms, default=0).bit_length() - 1) // _BITS
        if top <= _K:
            return max(0, top)
        return max(map(_index, _occupied(reduce(or_, self._terms))))

    def leading_monomial(self) -> Monomial:
        if not self._terms:
            raise ValueError("zero polynomial has no leading monomial")
        return _unpack(_leading(self._terms))

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __repr__(self):
        return f"Polynomial({dict(self.terms)!r})"

    def __reduce__(self):
        # a field above x_K means something only under this process's table
        raise TypeError("packed polynomials are not picklable; use rf_to_json")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        big, small = (self._terms, other._terms)
        if len(big) < len(small):
            big, small = small, big
        out = dict(big)
        for m, c in small.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return _POLY_ZERO
            if other == 1:
                return self
            return Polynomial({m: c * other for m, c in self._terms.items()})
        a, b = self._terms, other._terms
        if not a or not b:
            return _POLY_ZERO
        _check_degree(_degree(a) + _degree(b))
        return Polynomial(_add_product(None, a, b, 1))

    def __rmul__(self, other: int) -> "Polynomial":
        return self.__mul__(other)

    def content_sign_primitive(self) -> tuple[int, "Polynomial"]:
        """Split off signed integer content: ``self == c * P``.

        ``P`` has coprime coefficients and positive leading coefficient
        under graded lexicographic order.  The zero polynomial returns
        ``(0, 1)``.
        """
        terms = self._terms
        if not terms:
            return 0, _POLY_ONE
        g = 0
        for c in terms.values():
            g = gcd(g, c)
            if g == 1:
                break
        if terms[_leading(terms)] < 0:
            g = -g
        if g == 1:
            return 1, self
        return g, Polynomial({m: c // g for m, c in terms.items()})

    # -- structural operations ---------------------------------------------

    def shift(self, k: int) -> "Polynomial":
        """Rename every variable x_i to x_{i+k}."""
        if k == 0 or not self._terms:
            return self
        if self.max_var() + k > _K:  # some x_{i+k} has a field from the table
            fields = _occupied(reduce(or_, self._terms))
            lins = {f: [(_unit(_index(f) + k), 1)] for f in fields}
            return Polynomial(_rename(self._terms, lins))
        bits = _BITS * k
        out: dict = {}
        for m, c in self._terms.items():
            degree = m & _MAX_EXP
            out[(m - degree << bits) + degree] = c
        return Polynomial(out)

    def compose(self, forms: Sequence["LinearForm"]) -> "Polynomial":
        """Substitute ``forms[i-1]`` for x_i.  Result is exact.

        A renaming or scaling (every form ``c*x_j`` or zero) maps each
        monomial to one monomial.  Otherwise the substitution runs by Horner
        evaluation in the last variable, recursively (``_horner``).  Linear
        forms are homogeneous, so no degree grows.
        """
        width = self.max_var()
        if width > len(forms):
            raise ValueError(
                f"polynomial uses x_{width} but only {len(forms)} forms given"
            )
        if width <= _K:
            fields = range(1, width + 1)
        else:
            fields = _occupied(reduce(or_, self._terms))
        lins = {f: _linear_terms(forms[_index(f) - 1].coeffs) for f in fields}
        if all(len(lin) <= 1 for lin in lins.values()):
            return Polynomial(_rename(self._terms, lins))
        return Polynomial(_horner(self._terms, lins))

    def mul_linear(self, form: "LinearForm") -> "Polynomial":
        if self._terms:
            _check_degree(_degree(self._terms) + 1)
        return Polynomial(_mul_form(self._terms, _linear_terms(form.coeffs)))

    def try_div_linear(self, form: "LinearForm") -> "Polynomial | None":
        """Exact quotient ``self / form`` or None.

        Synthetic division in the form's leading variable x_j: writing
        p = sum_k p_k x_j^k and form = c x_j + r, exactness forces
        q_{k-1} = (p_k - r q_k) / c  downward from the top, with the final
        residue p_0 - r q_0 vanishing.  For a primitive linear divisor,
        exactness over the rationals implies integer quotients (Gauss), so
        any non-integer step already means "not divisible".  A term free of
        every variable of the form proves the same before any step (see
        "Where cancellation is attempted" in the module docstring).
        """
        if form.is_zero():
            raise ZeroDivisionError("division by the zero form")
        if not self._terms:
            return _POLY_ZERO
        j = form.leading_var()
        c = form.coeffs[j - 1]
        bits = _BITS * _field(j)
        unit = _unit(j)
        lin = _linear_terms(form.coeffs)
        fields = 0  # every bit of the fields of the form's variables
        for u, _ in lin:
            fields |= (u - 1) * _MAX_EXP
        for m in self._terms:
            if not m & fields:
                return None
        neg_rest = [(u, -fc) for u, fc in lin if u != unit]
        # bucket by x_j exponent, storing monomials with x_j removed
        levels: dict[int, dict] = {}
        deg = 0
        for m, coeff in self._terms.items():
            e = m >> bits & _MAX_EXP
            if e > deg:
                deg = e
            levels.setdefault(e, {})[m - e * unit] = coeff

        q_levels: dict[int, dict] = {}
        carry = levels.get(deg, {})
        for k in range(deg, 0, -1):
            if c == 1:  # a primitive form's leading coefficient is often 1
                qk = carry
            else:
                qk = {}
                for m, cf in carry.items():
                    if cf % c:
                        return None
                    qk[m] = cf // c
            q_levels[k - 1] = qk
            carry = _mul_form(qk, neg_rest, levels.get(k - 1, {}))
        if carry:
            return None
        out: dict = {}
        for e, level in q_levels.items():
            bump = e * unit
            for m, cf in level.items():
                out[m + bump] = cf
        return Polynomial(out)

    def div_linear(self, form: "LinearForm") -> "Polynomial":
        q = self.try_div_linear(form)
        if q is None:
            raise NotDivisibleError(f"{self} is not divisible by {form}")
        return q


_POLY_ZERO = Polynomial({})
_POLY_ONE = Polynomial({0: 1})


# ---------------------------------------------------------------------------
# kernels on raw packed term dicts: products with linear forms and substitution
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1 << 12)
def _linear_terms(coeffs: tuple) -> tuple:
    """The nonzero ``(x_i's packed monomial, c)`` of a form's coefficients,
    built once per distinct form: word letters and denominator forms recur."""
    return tuple((_unit(i), c) for i, c in enumerate(coeffs, start=1) if c)


def _add_product(out: dict | None, a: dict, b: dict, scale: int) -> dict:
    """``out + scale * a * b`` as a terms dict, for nonempty ``a`` and ``b``:
    ``_mul_form`` with the smaller factor's scaled terms as rows."""
    if len(a) > len(b):
        a, b = b, a
    return _mul_form(b, [(m, c * scale) for m, c in a.items()], out)


def _mul_form(terms: dict, lin: Iterable, out: dict | None = None) -> dict:
    """``terms * sum(c * u for u, c in lin)`` plus ``out``, as a terms dict.

    The kernel's one loop that multiplies terms.  Each row ``(u, c)`` of
    ``lin`` is a packed monomial and its coefficient: x_i's monomial for a
    linear form, any term of the other factor for a product of polynomials
    (``_add_product``).  A term product adds the two packed monomials.  The
    degree is not checked here: callers that raise a degree check it first.
    When ``out`` is None or empty, the first row fills a new dict, one hash
    per key, since its products are distinct monomials; otherwise the
    products are added into ``out``.  So the caller uses the return value,
    and gives up a nonempty ``out``.
    """
    rows = iter(lin)
    if not out:
        first = next(rows, None)
        if first is None:
            return {}
        u, c = first
        if c == 1:
            out = {m + u: cf for m, cf in terms.items()}
        else:
            out = {m + u: c * cf for m, cf in terms.items()}
    get = out.get
    for u, c in rows:
        if c == 1:
            for m, cf in terms.items():
                key = m + u
                s = get(key, 0) + cf
                if s:
                    out[key] = s
                else:
                    del out[key]
        else:
            for m, cf in terms.items():
                key = m + u
                s = get(key, 0) + c * cf
                if s:
                    out[key] = s
                else:
                    del out[key]
    return out


def _rename(terms: dict, lins: dict) -> dict:
    """Substitute ``c*x_j`` or 0 for each variable: one monomial per term.

    ``lins[f]`` is the linear terms put in for the variable of field f.
    """
    out: dict = {}
    for m, c in terms.items():
        key = m & _MAX_EXP  # a renaming keeps the degree
        rest = m >> _BITS  # fields 1, 2, ... in its low bits
        i = 1
        while rest:
            e = rest & _MAX_EXP
            if e:
                lin = lins[i]
                if not lin:
                    break  # x_i -> 0 kills the term
                u, a = lin[0]
                key += e * (u - 1)
                if a != 1:
                    c *= a**e
            rest >>= _BITS
            i += 1
        else:
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                del out[key]
    return out


def _horner(terms: dict, lins: dict) -> dict:
    """Substitute ``lins[f]`` for the variable of field f by Horner in the
    variable of the top field.

    With ``P = sum_k P_k x_n^k``, x_n that variable, and ``L = lins[n]``,
    ``P(lins) = (..(P_d(lins) L + P_{d-1}(lins)) L + ..) L + P_0(lins)``;
    each ``P_k`` is substituted the same way in one variable fewer.
    """
    n = (max(terms, default=0).bit_length() - 1) // _BITS  # the top field
    if n <= 0:
        return dict(terms)
    bits = _BITS * n
    unit = (1 << bits) | 1
    levels: dict[int, dict] = {}
    for m, c in terms.items():
        e = m >> bits
        levels.setdefault(e, {})[m - e * unit] = c
    lin = lins[n]
    if not lin:  # x_n -> 0 keeps only P_0
        return _horner(levels.get(0, {}), lins)
    top = max(levels)
    acc = _horner(levels[top], lins)
    for k in range(top - 1, -1, -1):
        acc = _mul_form(acc, lin, _horner(levels.get(k, {}), lins))
    return acc


# ---------------------------------------------------------------------------
# linear forms
# ---------------------------------------------------------------------------


class LinearForm:
    """Integer linear combination of the ambient variables x_1, x_2, ...

    Used both as word letters (arbitrary integer vectors) and, in primitive
    normalized guise, as denominator factors of rational functions.
    """

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs: Iterable[int]):
        self.coeffs = _trim(tuple(coeffs))
        self._hash = None

    @staticmethod
    def zero() -> "LinearForm":
        return _FORM_ZERO

    @staticmethod
    def variable(i: int) -> "LinearForm":
        if i < 1:
            raise ValueError("variable indices start at 1")
        return LinearForm((0,) * (i - 1) + (1,))

    def is_zero(self) -> bool:
        return not self.coeffs

    def max_var(self) -> int:
        return len(self.coeffs)

    def leading_var(self) -> int:
        for i, c in enumerate(self.coeffs):
            if c:
                return i + 1
        raise ValueError("zero form has no leading variable")

    def __add__(self, other: "LinearForm") -> "LinearForm":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return LinearForm(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    def __sub__(self, other: "LinearForm") -> "LinearForm":
        return self + (-other)

    def __neg__(self) -> "LinearForm":
        return LinearForm(tuple(-c for c in self.coeffs))

    def __mul__(self, k: int) -> "LinearForm":
        return LinearForm(tuple(c * k for c in self.coeffs))

    __rmul__ = __mul__

    def primitive(self) -> tuple[int, "LinearForm"]:
        """Return ``(k, f)`` with ``self == k * f`` and f primitive.

        f has gcd-1 coefficients with its first nonzero coefficient
        positive; the zero form returns ``(0, zero)``.
        """
        if not self.coeffs:
            return 0, _FORM_ZERO
        g = gcd(*self.coeffs)
        if self.coeffs[self.leading_var() - 1] < 0:
            g = -g
        if g == 1:
            return 1, self
        return g, LinearForm(tuple(c // g for c in self.coeffs))

    def as_polynomial(self) -> Polynomial:
        return Polynomial(dict(_linear_terms(self.coeffs)))

    def compose(self, forms: Sequence["LinearForm"]) -> "LinearForm":
        """Substitute ``forms[i-1]`` for x_i; linear in, linear out.  One
        pass adds each letter's scaled coefficients into one list."""
        if len(self.coeffs) > len(forms):
            raise ValueError(
                f"form uses x_{len(self.coeffs)} but only {len(forms)} forms given"
            )
        out: list = []
        for c, f in zip(self.coeffs, forms):
            if c:
                row = f.coeffs
                if len(row) > len(out):
                    out.extend([0] * (len(row) - len(out)))
                for j, a in enumerate(row):
                    if a:
                        out[j] += c * a
        return LinearForm(out)

    def shift(self, k: int) -> "LinearForm":
        if k == 0 or not self.coeffs:
            return self
        return LinearForm((0,) * k + self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, LinearForm) and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.coeffs)
        return self._hash

    def __repr__(self):
        return f"LinearForm({self.coeffs!r})"

    def __str__(self):
        return form_str(self)


_FORM_ZERO = LinearForm(())


def x_var(i: int) -> LinearForm:
    """Shorthand for the linear form x_i."""
    return LinearForm.variable(i)


# ---------------------------------------------------------------------------
# rational functions with linear-form denominators
# ---------------------------------------------------------------------------


class RationalFunction:
    """``scalar * numerator / prod(form ** mult)`` in canonical form.

    The denominator is a multiset of primitive linear forms.  Sums and
    products stay in this class, so the canonical form makes ``==`` decide
    semantic equality.
    """

    __slots__ = ("scalar", "numerator", "denominator", "_hash")

    def __init__(self, scalar, numerator, denominator):
        # Internal: arguments must already be canonical.  Use make().
        self.scalar = scalar
        self.numerator = numerator
        self.denominator = denominator
        self._hash = None

    # -- construction --------------------------------------------------------

    @staticmethod
    def make(
        scalar: Fraction | int,
        numerator: Polynomial,
        denominator: Iterable[tuple[LinearForm, int]] = (),
    ) -> "RationalFunction":
        """Canonicalize and build.  The only sanctioned constructor.

        Tries every denominator form against the numerator.
        """
        scalar = Fraction(scalar)
        if scalar == 0 or numerator.is_zero():
            return RF_ZERO
        den: dict[LinearForm, int] = {}
        for form, mult in denominator:
            if mult < 0:
                raise ValueError("negative multiplicity")
            if mult == 0:
                continue
            k, f = form.primitive()
            if k == 0:
                raise ZeroDenominatorError("zero linear form in denominator")
            if k != 1:
                scalar /= k**mult
            den[f] = den.get(f, 0) + mult
        return _build(scalar, numerator, den, list(den))

    @staticmethod
    def zero() -> "RationalFunction":
        return RF_ZERO

    @staticmethod
    def one() -> "RationalFunction":
        return RF_ONE

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.scalar == 0

    def is_polynomial(self) -> bool:
        return not self.denominator

    def is_constant(self) -> bool:
        return not self.denominator and self.numerator.is_constant()

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.scalar * self.numerator.constant_value()

    def max_var(self) -> int:
        n = self.numerator.max_var()
        for f, _ in self.denominator:
            n = max(n, f.max_var())
        return n

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalFunction)
            and self.scalar == other.scalar
            and self.denominator == other.denominator
            and self.numerator == other.numerator
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.scalar, self.numerator, self.denominator))
        return self._hash

    def __repr__(self):
        return f"RationalFunction({self})"

    def __str__(self):
        return rf_str(self)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return rf_sum((self, other))

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __neg__(self) -> "RationalFunction":
        if self.scalar == 0:
            return self
        return RationalFunction(-self.scalar, self.numerator, self.denominator)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0 or self.scalar == 0:
                return RF_ZERO
            return RationalFunction(
                self.scalar * other, self.numerator, self.denominator
            )
        if self.scalar == 0 or other.scalar == 0:
            return RF_ZERO
        scalar, p, q, den = _cross(self, other)
        return _assemble(scalar, p * q, den)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        raise TypeError("only scalar division is supported; use div_linear")

    def div_linear(self, form: LinearForm) -> "RationalFunction":
        """Divide by a nonzero linear form (always stays in the class)."""
        if form.is_zero():
            raise ZeroDivisionError("division by the zero form")
        if self.scalar == 0:
            return self
        k, f = form.primitive()
        den = dict(self.denominator)
        trial = () if f in den else (f,)
        den[f] = den.get(f, 0) + 1
        return _build(self.scalar / k, self.numerator, den, trial)

    def mul_linear(self, form: LinearForm) -> "RationalFunction":
        """The product with the form's value, ``k * f`` for f primitive."""
        k, f = form.primitive()
        if k == 0:
            return RF_ZERO
        return self * RationalFunction(Fraction(k), f.as_polynomial(), ())

    # -- structural operations -------------------------------------------------

    def substitute(self, forms: Sequence[LinearForm]) -> "RationalFunction":
        """Evaluate at the given linear forms (x_i := forms[i-1]).

        Raises ZeroDenominatorError if a denominator factor collapses to
        the zero form.
        """
        if self.scalar == 0:
            return self
        width = self.max_var()
        if width > len(forms):
            raise ValueError(
                f"value uses x_{width} but only {len(forms)} forms given"
            )
        scalar = self.scalar
        den: dict[LinearForm, int] = {}
        for f, m in self.denominator:
            k, g = f.compose(forms).primitive()
            if k == 0:
                raise ZeroDenominatorError(
                    f"denominator factor {f} vanishes under substitution"
                )
            if k != 1:
                scalar /= k**m
            den[g] = den.get(g, 0) + m
        num = self.numerator.compose(forms)
        if den and not _independent(tuple(forms[:width])):
            return _build(scalar, num, den, list(den))
        return _build(scalar, num, den, ())

    def shift(self, k: int) -> "RationalFunction":
        """Rename every variable x_i to x_{i+k}."""
        if k == 0 or self.scalar == 0:
            return self
        return RationalFunction(
            self.scalar,
            self.numerator.shift(k),
            tuple((f.shift(k), m) for f, m in self.denominator),
        )


RF_ZERO = RationalFunction(Fraction(0), _POLY_ONE, ())
RF_ONE = RationalFunction(Fraction(1), _POLY_ONE, ())


def _build(
    scalar: Fraction, numerator: Polynomial, den: dict, trial: Iterable[LinearForm]
) -> RationalFunction:
    """Canonical ``scalar * numerator / prod(f ** den[f])``.

    ``den`` maps primitive forms to positive multiplicities and is consumed.
    Only the forms in ``trial`` are divided out of the numerator; every other
    form must be one that provably does not divide it (see "Where
    cancellation is attempted" in the module docstring).
    """
    if not numerator._terms:
        return RF_ZERO
    for f in trial:
        numerator, mult = _cancel(numerator, f, den[f])
        if mult:
            den[f] = mult
        else:
            del den[f]
    c, prim = numerator.content_sign_primitive()
    return _assemble(scalar * c, prim, den)


def _assemble(scalar: Fraction, numerator: Polynomial, den: dict) -> RationalFunction:
    """``scalar * numerator / prod(f ** den[f])`` for a canonical numerator:
    nonzero, with content 1 and a positive leading coefficient, and divisible
    by no form of ``den``, which is consumed."""
    dens = tuple(sorted(den.items(), key=lambda kv: kv[0].coeffs))
    return RationalFunction(scalar, numerator, dens)


def _cross(a: RationalFunction, b: RationalFunction) -> tuple:
    """The product of two nonzero values, cross-cancelled but not multiplied
    out: ``(scalar, p, q, den)`` with ``a * b == scalar * p * q / den``.

    A form of one denominator that is not in the other is divided out of
    the other numerator while exact; a form of both divides neither
    numerator.  So ``p * q`` is a canonical numerator that no form of
    ``den`` divides.
    """
    p, q = a.numerator, b.numerator
    mine = dict(a.denominator)
    theirs = dict(b.denominator)
    den = dict(mine)
    for f, m in theirs.items():
        if f in mine:  # divides neither numerator
            den[f] += m
        else:
            p, den[f] = _cancel(p, f, m)
    for f, m in mine.items():
        if f not in theirs:
            q, den[f] = _cancel(q, f, m)
    den = {f: m for f, m in den.items() if m}
    return a.scalar * b.scalar, p, q, den


def _cancel(p: Polynomial, f: LinearForm, mult: int) -> tuple[Polynomial, int]:
    """Divide ``f`` out of ``p`` while exact, at most ``mult`` times.

    Returns the quotient and the multiplicity left over.
    """
    while mult:
        q = p.try_div_linear(f)
        if q is None:
            break
        p = q
        mult -= 1
    return p, mult


@lru_cache(maxsize=1 << 14)
def _independent(forms: tuple) -> bool:
    """Whether the linear forms are linearly independent over Q.

    Nonzero forms whose last variables differ are independent: ordered by
    that variable they are in echelon form.  A shuffle word (x_i in some
    order) and the word of ``sharp`` (x_1, x_1 + x_2, ...) are such words.
    Otherwise, fraction-free elimination: each row is reduced against the
    earlier pivot rows by cross-multiplication, so every entry stays an
    integer, and a row that reduces to zero is a combination of the rows
    before it.
    """
    lasts = {len(f.coeffs) for f in forms}  # coefficients are trimmed
    if len(lasts) == len(forms) and 0 not in lasts:
        return True
    width = max(lasts, default=0)
    if len(forms) > width:
        return False
    pivots: list[tuple[int, list]] = []
    for f in forms:
        row = list(f.coeffs) + [0] * (width - len(f.coeffs))
        for j, prow in pivots:
            c = row[j]
            if c:
                p = prow[j]
                row = [p * a - c * b for a, b in zip(row, prow)]
        lead = next((j for j, a in enumerate(row) if a), None)
        if lead is None:
            return False
        pivots.append((lead, row))
    return True


def rf_sum(items: Iterable) -> RationalFunction:
    """Sum many rational functions over one common denominator.

    An item is a ``RationalFunction`` or a pair ``(a, b)`` of them that
    stands for ``a * b``.  A pair is cross-cancelled as ``__mul__`` does
    (``_cross``), so every summand is reduced, but its two numerators are
    multiplied straight into the lifted sum: the product is never built.

    Canonicalizes once, which matters in the factorization sums where
    dozens of terms share most denominator factors.  The denominator is
    expanded into units ``(form, j)``, one per unit of multiplicity, and
    each summand is lifted by the units it misses.  The lifting shares its
    products between summands (``_lift_sum``): a unit that every summand of
    a group misses multiplies the group's sum once, and a group otherwise
    splits on one unit u as ``u * S(those missing u) + S(the rest)``.  Only
    forms that two or more summands hold at the top multiplicity are tried
    against the sum's numerator.
    """
    terms = []  # (scalar, denominator pairs, numerator, cofactor or None)
    for r in items:
        if type(r) is tuple:
            a, b = r
            if a.scalar != 0 and b.scalar != 0:
                scalar, p, q, den = _cross(a, b)
                terms.append((scalar, den.items(), p, q))
        elif r.scalar != 0:
            terms.append((r.scalar, r.denominator, r.numerator, None))
    if not terms:
        return RF_ZERO
    if len(terms) == 1:
        scalar, den, p, q = terms[0]
        if q is None:
            return RationalFunction(scalar, p, den)
        return _assemble(scalar, p * q, dict(den))
    common: dict[LinearForm, int] = {}
    have: dict[tuple, int] = {}  # unit (coeffs, j) -> summands with it
    for _, den, _, _ in terms:
        for f, m in den:
            if common.get(f, 0) < m:
                common[f] = m
            for j in range(1, m + 1):
                u = (f.coeffs, j)
                have[u] = have.get(u, 0) + 1
    lcm = 1
    for scalar, _, _, _ in terms:
        q = scalar.denominator
        lcm = lcm * q // gcd(lcm, q)
    # most missed first: a tie in _split_unit goes to the lowest bit
    units = sorted(
        (u for u, n in have.items() if n < len(terms)),
        key=lambda u: (have[u], u),
    )
    bits = {u: 1 << k for k, u in enumerate(units)}
    lins = [_linear_terms(coeffs) for coeffs, _ in units]
    everything = (1 << len(units)) - 1
    summands = []
    for scalar, den, p, q in terms:
        mask = everything
        for f, m in den:
            for j in range(1, m + 1):
                mask &= ~bits.get((f.coeffs, j), 0)
        # lifting multiplies by one linear form per unit the summand misses
        degree = _degree(p._terms) + mask.bit_count()
        if q is not None:
            q = q._terms
            degree += _degree(q)
        _check_degree(degree)
        scale = scalar.numerator * (lcm // scalar.denominator)
        summands.append((p._terms, q, scale, mask))
    total = _lift_sum(summands, everything, lins)
    shared = [f for f, m in common.items() if have[(f.coeffs, m)] > 1]
    return _build(Fraction(1, lcm), Polynomial(total), common, shared)


def _lift_sum(summands: list, todo: int, lins: list) -> dict:
    """``sum(scale * terms * cofactor * prod(unit k for k in mask & todo))``
    as a new terms dict.

    ``summands`` holds ``(terms, cofactor, scale, mask)``, where a cofactor
    of None stands for 1; bit k of ``mask`` says the summand misses unit k,
    whose linear terms are ``lins[k]``, and ``todo`` holds the units not
    yet multiplied into this group.  The units that every summand of the
    group misses multiply the group's sum once, after it is formed.  If
    some summand still misses a unit, the group splits on the unit
    ``_split_unit`` picks: the summands that miss it are lifted and summed,
    and that sum times the unit is added into the rest's lifted sum.
    """
    shared = todo
    union = 0
    for _, _, _, mask in summands:
        shared &= mask
        union |= mask
    todo &= ~shared
    union &= todo
    if union:
        bit = union
        if union & (union - 1):  # more than one unit to choose from
            bit = _split_unit(summands, todo, union)
        miss = [s for s in summands if s[3] & bit]
        rest = [s for s in summands if not s[3] & bit]
        lin = lins[bit.bit_length() - 1]
        out = _lift_sum(rest, todo, lins)
        out = _mul_form(_lift_sum(miss, todo & ~bit, lins), lin, out)
    else:
        # nothing left to lift but the shared units: add into a copy of the
        # largest summand without a cofactor, and multiply each product's
        # numerators straight into the sum
        big = max(summands, key=lambda s: len(s[0]) if s[1] is None else -1)
        terms, cof, scale, _ = big
        if cof is not None:
            out = _add_product({}, terms, cof, scale)
        elif scale == 1:
            out = dict(terms)
        else:
            out = {m: c * scale for m, c in terms.items()}
        for s in summands:
            if s is big:
                continue
            terms, cof, scale, _ = s
            if cof is not None:
                out = _add_product(out, terms, cof, scale)
                continue
            for m, c in terms.items():
                v = out.get(m, 0) + c * scale
                if v:
                    out[m] = v
                else:
                    del out[m]
    while shared:
        low = shared & -shared
        out = _mul_form(out, lins[low.bit_length() - 1])
        shared ^= low
    return out


def _split_unit(summands: list, todo: int, union: int) -> int:
    """The bit of the unit a group splits on, among the bits of ``union``.

    Splitting on a unit leaves two halves, each with the units that all of
    its summands miss (each multiplies that half's sum once).  The unit
    whose halves leave the most such units, counted once per summand of the
    half, wins; a tie goes to the lowest bit.
    """
    best, best_score = 0, -1
    while union:
        bit = union & -union
        union ^= bit
        in_miss = in_rest = todo & ~bit
        n_miss = 0
        for _, _, _, mask in summands:
            if mask & bit:
                in_miss &= mask
                n_miss += 1
            else:
                in_rest &= mask
        n_rest = len(summands) - n_miss
        score = n_miss * in_miss.bit_count() + n_rest * in_rest.bit_count()
        if score > best_score:
            best, best_score = bit, score
    return best


def rf_monomial(scalar, *var_exponents: tuple[int, int]) -> RationalFunction:
    """Build ``scalar * prod(x_i ** e)`` from (index, exponent) pairs."""
    mono: dict[int, int] = {}
    for i, e in var_exponents:
        mono[i] = mono.get(i, 0) + e
    width = max(mono, default=0)
    m = tuple(mono.get(i, 0) for i in range(1, width + 1))
    return RationalFunction.make(Fraction(scalar), Polynomial({_pack(m): 1}))


def one_over_forms(*forms: LinearForm) -> RationalFunction:
    """``1 / (f1 * f2 * ...)`` for nonzero linear forms."""
    return RationalFunction.make(1, _POLY_ONE, ((f, 1) for f in forms))


# ---------------------------------------------------------------------------
# rendering and JSON
# ---------------------------------------------------------------------------


def _occupied(m: int) -> list:
    """The nonzero variable fields of a packed monomial (or of the bitwise
    or of several), in increasing order; only the nonzero fields are
    visited, however many lie between them."""
    out = []
    m >>= _BITS
    i = 0
    while m:
        skip = ((m & -m).bit_length() - 1) // _BITS
        m >>= _BITS * (skip + 1)
        i += skip + 1
        out.append(i)
    return out


def _sorted_terms(p: Polynomial) -> tuple[list, list]:
    """The indices of the variables that occur in ``p``, and its terms as
    (degree, exponents of those variables, coefficient), grlex-largest
    first.

    Only the occupied fields are read: an opaque symbol x_1000 would cost a
    thousand entries in a full exponent tuple.  They are read in index
    order, so (degree, exponents) compares under grlex with x_1 major; the
    fields left out are 0 in every term.
    """
    fields = sorted(_occupied(reduce(or_, p._terms, 0)), key=_index)
    indices = [_index(f) for f in fields]
    shifts = [_BITS * f for f in fields]
    terms = [
        (m & _MAX_EXP, tuple([m >> s & _MAX_EXP for s in shifts]), c)
        for m, c in p._terms.items()
    ]
    terms.sort(reverse=True)
    return indices, terms


def monomial_str(names: Sequence[str], exps: Sequence[int]) -> str:
    """The product of ``names[k]^exps[k]``; "1" when every exponent is 0."""
    parts = []
    for name, e in zip(names, exps):
        if e == 1:
            parts.append(name)
        elif e:
            parts.append(f"{name}^{e}")
    return "*".join(parts) or "1"


def _signed_sum(pieces: Iterable[tuple[str, int]]) -> str:
    """Join (text of a term without its sign, coefficient) pairs into
    ``a + b - c``; "0" when there are none."""
    out = []
    for piece, c in pieces:
        if not out:
            out.append(piece if c > 0 else f"-{piece}")
        else:
            out.append(f"+ {piece}" if c > 0 else f"- {piece}")
    return " ".join(out) or "0"


def _term_str(c: int, mono: str, times: str, one: str) -> str:
    """A term's text without its sign; ``one`` is the text of monomial 1."""
    if mono == one:
        return str(abs(c))
    return mono if abs(c) == 1 else f"{abs(c)}{times}{mono}"


def poly_str(p: Polynomial) -> str:
    indices, terms = _sorted_terms(p)
    names = [f"x{i}" for i in indices]
    return _signed_sum(
        (_term_str(c, monomial_str(names, exps), "*", "1"), c) for _, exps, c in terms
    )


def form_str(f: LinearForm) -> str:
    """A linear form's text, read from its coefficients: its terms are in
    increasing index order, which is grlex order."""
    return _signed_sum(
        (_term_str(c, f"x{i}", "*", "1"), c)
        for i, c in enumerate(f.coeffs, start=1)
        if c
    )


def rf_str(r: RationalFunction) -> str:
    if r.scalar == 0:
        return "0"
    num = poly_str(r.numerator)
    parts = []
    if r.scalar != 1:
        parts.append(f"({r.scalar})")
    if num != "1" or not parts and not r.denominator:
        parts.append(f"({num})" if ("+" in num or "-" in num[1:]) else num)
    head = "*".join(parts) if parts else "1"
    if not r.denominator:
        return head
    den = "*".join(
        f"({form_str(f)})" + (f"^{m}" if m > 1 else "")
        for f, m in r.denominator
    )
    return f"{head}/[{den}]"


def monomial_latex(names: Sequence[str], exps: Sequence[int]) -> str:
    """The product of ``names[k]^{exps[k]}``; empty when every exponent is 0."""
    parts = []
    for name, e in zip(names, exps):
        if e == 1:
            parts.append(name)
        elif e:
            parts.append(f"{name}^{{{e}}}")
    return " ".join(parts)


def poly_latex(p: Polynomial) -> str:
    indices, terms = _sorted_terms(p)
    names = [f"x_{{{i}}}" for i in indices]
    return _signed_sum(
        (_term_str(c, monomial_latex(names, exps), " ", ""), c) for _, exps, c in terms
    )


def form_latex(f: LinearForm) -> str:
    """A linear form's LaTeX, read from its coefficients as in ``form_str``."""
    return _signed_sum(
        (_term_str(c, f"x_{{{i}}}", " ", ""), c)
        for i, c in enumerate(f.coeffs, start=1)
        if c
    )


def rf_latex(r: RationalFunction) -> str:
    if r.scalar == 0:
        return "0"
    sign = "-" if r.scalar < 0 else ""
    p, q = abs(r.scalar.numerator), r.scalar.denominator
    num = poly_latex(r.numerator)
    if p != 1:
        num = f"{p} \\left({num}\\right)" if num != "1" else str(p)
    if not r.denominator and q == 1:
        return sign + num
    den_parts = [] if q == 1 else [str(q)]
    for f, m in r.denominator:
        factor = form_latex(f)
        if len(f.coeffs) - f.coeffs.count(0) > 1 or m > 1:
            factor = f"\\left({factor}\\right)"
        if m > 1:
            factor = f"{factor}^{{{m}}}"
        den_parts.append(factor)
    return f"{sign}\\frac{{{num}}}{{{' '.join(den_parts)}}}"


def rf_to_json(r: RationalFunction) -> dict:
    # JSON writes every exponent of x_1..x_k, so it sorts the full tuples:
    # trimmed tuples compare correctly under (degree, lex with x_1 major)
    terms = sorted(
        ((m & _MAX_EXP, _unpack(m), c) for m, c in r.numerator._terms.items()),
        reverse=True,
    )
    return {
        "scalar": str(r.scalar),
        "numerator": [[list(exps), str(c)] for _, exps, c in terms],
        "denominator": [[list(f.coeffs), m] for f, m in r.denominator],
    }


def _json_int(value) -> int:
    """An integer field: a JSON integer or an integral float.  A fractional
    number is refused, not truncated, and a boolean or a string is refused,
    not converted."""
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def _json_rational(value) -> Fraction:
    """A rational field: a string, as ``rf_to_json`` writes it, or an
    integer field (``_json_int``).  A float is never read as the binary
    fraction it stores."""
    if type(value) is str:
        return Fraction(value)
    return Fraction(_json_int(value))


def rf_from_json(obj: Mapping) -> RationalFunction:
    scalar = _json_rational(obj["scalar"])
    raw = [
        (tuple(_json_int(e) for e in mono), _json_rational(coeff))
        for mono, coeff in obj["numerator"]
    ]
    lcm = 1
    for _, c in raw:
        lcm = lcm * c.denominator // gcd(lcm, c.denominator)
    num_terms: dict = {}
    for m, c in raw:
        num_terms[m] = num_terms.get(m, 0) + int(c * lcm)
    den = [
        (LinearForm(_json_int(c) for c in coeffs), _json_int(m))
        for coeffs, m in obj["denominator"]
    ]
    return RationalFunction.make(scalar / lcm, Polynomial.from_dict(num_terms), den)
