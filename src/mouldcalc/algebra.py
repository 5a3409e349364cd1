"""Exact arithmetic kernel.

Provides arbitrary-precision rationals, sparse multivariate polynomials with
integer coefficients, integer linear forms in the variables x_1, x_2, ..., and
rational functions whose denominators are products of linear forms.  That last
class is closed under addition, multiplication and substitution of linear
forms for variables, which is all the mould operations ever need; keeping
denominators factored sidesteps multivariate gcd computations entirely.
Every term product outside a large ``rf_sum`` runs in one loop,
``_mul_form``: products with a linear form, products of polynomials (the
smaller factor's terms as its rows), the numerator pairs of ``rf_sum``,
exact division, Horner substitution, and the sum of two polynomials and
the summands added at the leaves of ``rf_sum``'s lifting (products with
the monomial 1).  A large ``rf_sum`` runs the same loop on
rows, whose integer products make many term products each (see "Lifting
in rows" below).  Exact division and Horner substitution group the terms
by the exponent of one variable through one helper, ``_levels``.  A
denominator is normalized in one place, ``_normalize``, for ``make`` and
for ``substitute``: each form is split into its content and its primitive
form, the content goes into the scalar, and equal forms are merged.  A
substitution composes each denominator form in one pass, adding each
letter's coefficients into one list; a letter that is one variable moves
the coefficient to it without a scan, and only the letters of the
variables the value uses are read.  A word whose letters are x_j or -x_j
for distinct slot variables is a signed permutation (shuffle words,
``shift``, ``neg``).  One decoder says whether a word is one,
``_signed_permutation``, which returns the signed index +-j of each
letter, and every path reads its answer.  Such a word skips all of the
above: it maps a canonical value to a canonical value, so ``_renamed``
moves and signs each form's coefficients by the decoded indices, renames
the numerator in one ``_rename`` pass and fixes only leading signs (see
``substitute`` below).  A numerator is substituted by one of two loops:
``_rename`` when the letters of its variables decode, ``_horner`` for
every other word, a scaling c*x_j or a zero letter included.
A form's packed linear terms (``_linear_terms``) are built once per
distinct form, in a bounded cache of immutable tuples, however many words
it is a letter of.

Canonical forms
---------------
* ``Monomial``: inside the kernel, one ``int`` of bit fields: the total
  degree in field 0 (the lowest bits) and one field per variable.  A term
  product is then one integer addition, and the constant monomial is 0.
  x_1..x_K keep field i, ``_BITS`` = 16 bits wide, where ``_K`` = 16 is a
  fixed constant that covers every slot variable (the deepest word the
  CLI admits is dupal-alternal's, depth 16, which uses x_16).  A variable above x_K, such as an opaque
  symbol x_1001, gets the next free field the first time it is packed,
  from one append-only table that grows under a lock; a table field is
  ``_TABLE_BITS`` = 8 bits wide and the first starts at bit 16 * 17.  So a
  monomial costs one byte per table variable that has been used, not a
  field per index.  Every conversion between an index and a field goes
  through ``_field`` and ``_index``, and every field's position and width
  through ``_span`` and its inverse ``_field_at``; the term-product kernels
  need none.  A packed value means something only under its own process's
  table, so a ``Polynomial`` refuses to be pickled: values cross processes
  as JSON.  At the public boundary
  (``Polynomial.from_dict``, ``Polynomial.terms``, ``rf_monomial`` and
  JSON) a monomial is the tuple of exponents of x_1..x_k with trailing
  zeros trimmed; plain and LaTeX text read only the fields of the variables
  that occur in the polynomial.  A field never wraps: every exponent is at
  most the total degree, so it is enough to check the degree where a
  degree grows (a product, a product with a linear form, the lifting of a
  sum, and a substitution into x_{K+1} and above) and where a tuple is
  packed.  A degree above ``_MAX_EXP`` = 65535 raises
  ``ExponentOverflowError``, and so does a degree above ``_MAX_TABLE_EXP``
  = 255 when a table variable is present.  One guard, ``_check_degree``,
  states that rule for a packed tuple, a product, a product with a linear
  form, a substitution and the lifting of a sum.  It tests the degree
  first and scans the factors for a table variable only above 255, so a
  low degree pays one comparison for the test.
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
  which variables were first used.  The scalar is an ``int`` when it is
  integral and a ``Fraction`` with denominator above 1 otherwise: every
  scalar that is built passes through ``_scalar`` or ``_quotient``, so most
  scalar products multiply ints, and an int scalar is never divided with
  ``/``.  ``Fraction(3) == 3`` and the two hash alike, so equality, hashing
  and every rendering read the same as with Fraction scalars, and
  ``constant_value`` still returns a ``Fraction``.  Zero
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

* ``substitute``: when the forms put in for x_1..x_n, n the largest index
  the value uses, are nonzero and end in distinct variables, they are in
  echelon form (ordered by last variable), hence linearly independent, and
  the substitution extends to a ring automorphism, which maps a numerator
  coprime to every denominator form to one coprime to every image form.
  No form is tried.  Renamings, shuffle permutations, ``shift``, ``neg``
  and the word of ``sharp`` are such words.  Every other word tries every
  form, as ``make`` does: the test reads the letters' lengths, with no
  elimination and no cache.

  When the letters of x_1..x_n, n the largest index the value uses,
  decode to a signed permutation s (``_signed_permutation``: each is x_j
  or -x_j, the j distinct and at most _K, so the letters are echelon and
  the value has no table variable), the image of the canonical value is
  canonical once its signs are fixed, so nothing else is computed
  (``_renamed``): no ``compose``, no ``primitive``, no content gcd and no
  trial division.  Why it is the same value:

  - s is a ring automorphism (its inverse is a signed permutation too), so
    as above no image form divides the image numerator.
  - s sends distinct monomials to distinct monomials and each term to one
    term with the same coefficient up to sign, so the image numerator has
    the same multiset of coefficients up to sign, and its content stays 1.
    Only its grlex-leading coefficient may turn negative; then the
    numerator and the scalar are negated (``_leading``).
  - A form's image has the form's coefficients, moved and signed, so its
    content stays 1 too: it is primitive up to sign.  When its first
    nonzero coefficient is negative it is negated, and the scalar takes
    (-1)^mult.
  - s is injective on linear forms, so distinct primitive forms have
    distinct images, and no multiplicities merge.

  The numerator's terms go through ``_rename``, which reads each
  monomial's fields at once and writes them moved; no two images meet,
  so no coefficient is added.  The forms' images are read off the same
  decoded indices: a form x_i goes to the variable of the i-th index, and
  a wider form's coefficients are gathered into the places the indices
  name and signed by them.
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

Lifting in rows
---------------
A large ``rf_sum`` lifts its summands in rows, a Kronecker substitution in
one variable (``_lift_rows``; D. Harvey, *Faster polynomial multiplication
via multipoint Kronecker substitution*, J. Symbolic Comput. 44, 2009).  It
picks two variables x_a and x_b, those that the most units hold.  A term
``c * m``, where m holds x_a^e, goes into the row keyed by m with x_a's
field emptied and e added to x_b's field, as the digit ``c * 2**(w*e)`` of
that row's integer, w = 64.  So a row is R(2**w) for a polynomial
R(t) = sum_e c_e t**e, and digit e of the row keyed k is the term of the
monomial k with e moved from x_b's field to x_a's.  Keys are packed
monomials, and key arithmetic is monomial arithmetic:

* multiplying by x_j, j neither a nor b, adds x_j's monomial to the key;
* multiplying by x_b adds x_b's monomial to the key;
* multiplying by x_a adds x_b's monomial to the key and shifts the row one
  digit up, ``row << w``.

A unit's linear form is then a row form too, with its x_a and x_b terms in
one row ``c_a * 2**w + c_b`` at x_b's key, and the product of two row forms
is ``_mul_form`` on them: the keys add and the integers multiply, which
convolves the digit sequences.  So ``_lift_sum`` lifts rows unchanged, its
sharing tree and ``_split_unit`` included, and a pair ``(p, q)`` is the
product of its two row forms, as on packed terms: no value product is
built and no division is tried.  On cell (2, 3) of
``is_alternal(mu_log(paj(5)))`` the tree makes 57,227 entry products in
rows against 359,397 on packed terms, and the digit products run in C.

*Exactness.*  Every step of the lift is a ring operation in Z[t] on the
rows, and t -> 2**w is a ring map from Z[t] to Z; so each stored integer
is R(2**w) for the true row R of the lifted sum, and an entry whose
integer sums to zero may be dropped.  Let bound (``_bound``) be the sum
over the summands of ``|scale| * ||p||_1 * ||q||_1`` times ``||L||_1`` for
the form L of each unit the summand misses.  Since
``||f g||_1 <= ||f||_1 ||g||_1``, every coefficient of the lifted sum, and
so every digit c_e of every row, has |c_e| <= bound.  Rows are used only
when bound < 2**(w-2).  A polynomial whose coefficients all lie below
2**(w-1) in absolute value is fixed by its value v at 2**w: c_0 is v
modulo 2**w taken between -2**(w-1) and 2**(w-1), and the others are those
of (v - c_0) / 2**w.  So a row's integer is 0 exactly when its row is, and
``_from_rows`` reads the digits back in balanced base 2**w.  A zero sum,
every passing shuffle cell, decodes to no term and ``_build`` returns zero
at once; a nonzero sum decodes to its packed terms and is built as on the
packed path, so canonical forms and every output are the same.  This is a
proof, not a filter: nothing is sampled and no floating point is used.

*Which sums lift in rows.*  ``rf_sum`` measures a lift by the sum over its
summands of ``terms * (2**k - 1)``, where terms is the summand's numerator
terms (times its cofactor's) and k the units it misses: the terms its
lifting adds if each form had two terms and no two products met.  A lift
of ``_ROWS_FROM`` = 2**13 or more whose bound is below 2**62 runs in rows.
A row lift pays for picking x_a and x_b, the bound, turning the numerators
and forms into rows and decoding, and a smaller lift does not earn that
back; with no unit to lift by, only the pairs' products are left, and
packed terms are faster there.  Coefficients past the digit would need
wider digits, whose products with ``c_a * 2**w + c_b`` are no longer
small-by-large, and whose zero digits fill sparse high-degree rows: the
psi sums of ``psi-odd --n 80 --dmax 3`` took 1.4 to 2.3 times as long in
rows of 168-bit digits.  Measured per sum on a 2-vCPU host (Python
3.11.7), rows against packed terms: the shuffle cells of
``is_alternal(mu_log(paj(5)))``, ``is_symmetral(paj(7))`` and
``verify pal-symmetral --depth 7`` that take rows took 0.24 to 0.85 times
as long (cell (2, 3) of the first: 83 against 20 ms), and the sums of
``sang-expansion --depth 5`` 0.64 to 1.06; the psi sums that take rows
(``psi-odd --n 5`` to ``--n 20`` at ``--dmax 4``, nonzero, so decoded)
1.05 to 1.17.  Below the size, the psi sums of ``psi-odd --dmax 4`` (size
3,302 and 4,826) and of ``psi-minus1 --dmax 5`` (4,585) took 1.03 to 1.13
times as long in rows, and sums under a size of 2,000 1.1 to 1.4 times.

All values are immutable; every operation returns a new value.
"""

from __future__ import annotations

import struct
import threading
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import compress, count
from operator import itemgetter, mul, or_
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

__all__ = [
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

_BITS = 16  # width of the degree field and of each slot field
_MAX_EXP = (1 << _BITS) - 1  # the largest degree and slot exponent, and their mask
_K = 16  # x_1.._K keep field i; this covers every slot variable
_TABLE_BITS = 8  # width of a table field, one per variable above x_K
_MAX_TABLE_EXP = (1 << _TABLE_BITS) - 1  # the largest table exponent, and its mask
_TABLE_POS = _BITS * (_K + 1)  # the lowest bit of the first table field
_TABLE_UNIT = 1 << _TABLE_POS  # a packed monomial at least this holds a table variable
# little-endian readers of the lowest n fields, n up to _K + 2
_LOW_FIELDS = tuple(struct.Struct(f"<{n}H") for n in range(_K + 3))

# The field of each variable above x_K, given the first time it is packed
# and never changed, so a packed value stays valid for the life of the
# process.  Both maps grow under the lock; _INDEX_OF is appended to before
# _FIELD_OF publishes the new field.
_FIELD_OF: dict[int, int] = {}  # index above _K -> its field
_INDEX_OF: list[int] = []  # the index of field _K + 1 + n, at position n
_FIELD_LOCK = threading.Lock()
_in_index_order = True  # whether field order above _K is still index order


def _trim(seq: Sequence[int]) -> tuple:
    n = len(seq)
    while n > 0 and seq[n - 1] == 0:
        n -= 1
    return tuple(seq[:n])


def _check_degree(degree: int, *factors) -> None:
    """The one degree guard: raise ExponentOverflowError for a total degree
    that a field may not hold, in monomials built from those of ``factors``,
    each an iterable of packed monomials (a term dict is one).  Every
    exponent is at most the degree, so a degree up to _MAX_EXP fits the
    degree and slot fields, and up to _MAX_TABLE_EXP a table field too.
    The degree is tested first: only above _MAX_TABLE_EXP are the factors
    scanned for a table variable."""
    if degree > _MAX_TABLE_EXP:
        table = any(max(f, default=0) >= _TABLE_UNIT for f in factors)
        if table or degree > _MAX_EXP:
            where = f" with a variable above x_{_K}" if table else ""
            limit = _MAX_TABLE_EXP if table else _MAX_EXP
            raise ExponentOverflowError(
                f"total degree {degree}{where} exceeds the largest supported exponent {limit}"
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


def _span(f: int) -> tuple[int, int]:
    """The lowest bit of field f and its mask: _BITS wide up to x_K (and
    for the degree, field 0), _TABLE_BITS wide above."""
    if f <= _K:
        return _BITS * f, _MAX_EXP
    return _TABLE_POS + _TABLE_BITS * (f - _K - 1), _MAX_TABLE_EXP


def _field_at(bit: int) -> int:
    """The field that holds the given bit: the inverse of ``_span``."""
    if bit < _TABLE_POS:
        return bit // _BITS
    return _K + 1 + (bit - _TABLE_POS) // _TABLE_BITS


def _unit(i: int) -> int:
    """The packed monomial x_i: a one in x_i's field and in the degree field."""
    return 1 << _span(_field(i))[0] | 1


def _pack(exps: Sequence[int]) -> int:
    """The packed monomial of an exponent tuple for x_1, x_2, ..."""
    if any(e < 0 for e in exps):
        raise ValueError(f"negative exponent in monomial {tuple(exps)}")
    degree = sum(exps)
    # an exponent past x_K is a table variable's: the lowest table monomial
    # stands in for it, so no field is given before the check
    _check_degree(degree, (_TABLE_UNIT,) if any(exps[_K:]) else ())
    m = 0
    for e in reversed(exps[:_K]):
        m = m << _BITS | e
    m = m << _BITS | degree
    for i in range(_K, len(exps)):
        if exps[i]:
            m |= exps[i] << _span(_field(i + 1))[0]
    return m


def _unpack(m: int) -> Monomial:
    """The trimmed exponent tuple of a packed monomial."""
    size = -(-m.bit_length() // _BITS) * (_BITS // 8)
    data = m.to_bytes(size, "little")
    low = _TABLE_POS // 8  # bytes of the degree field and the slot fields
    fields = _LOW_FIELDS[min(size, low) // 2].unpack_from(data)
    if size <= low:
        return fields[1:]
    exps = list(fields[1:])
    for n, e in enumerate(data[low:]):  # one byte per table field
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
    # the monomials exist, so their fields were given before this read
    mixed = not _in_index_order
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
        low = (diff & -diff).bit_length() - 1
        if low < _TABLE_POS:
            shift = low // _BITS * _BITS
            mask = _MAX_EXP
        elif mixed:
            shift, mask = _span(min(_occupied(diff), key=_index))
        else:
            shift, mask = _span(_field_at(low))
        if m >> shift & mask > best >> shift & mask:
            best = m
    return best


def _variables(terms) -> tuple[int, Sequence[int]]:
    """The largest variable index of a packed term dict (0 for none), and
    the fields to read: those of x_1..x_n when no table field occurs, n
    that index, else the occupied ones."""
    top = max(terms, default=0)
    if top < _TABLE_UNIT:  # the largest int holds the highest field
        n = max(0, (top.bit_length() - 1) // _BITS)
        return n, range(1, n + 1)
    fields = _occupied(reduce(or_, terms))
    return max(map(_index, fields)), fields


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

    __slots__ = ("_terms",)

    def __init__(self, terms: dict):
        self._terms = terms

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_dict(d: Mapping[Monomial, int]) -> "Polynomial":
        """Build from exponent tuples; raises ExponentOverflowError for a
        monomial whose total degree exceeds the exponent field, and
        TypeError for a coefficient that is not an int."""
        out: dict = {}
        for m, c in d.items():
            if not isinstance(c, int):
                raise TypeError(f"a coefficient must be an int, got {c!r}")
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
        if not isinstance(c, int):
            raise TypeError(f"a coefficient must be an int, got {c!r}")
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
        return _variables(self._terms)[0]

    def leading_monomial(self) -> Monomial:
        if not self._terms:
            raise ValueError("zero polynomial has no leading monomial")
        return _unpack(_leading(self._terms))

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        return f"Polynomial({dict(self.terms)!r})"

    def __reduce__(self):
        # a field above x_K means something only under this process's table
        raise TypeError("packed polynomials are not picklable; use rf_to_json")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        small, big = sorted((self._terms, other._terms), key=len)
        # the smaller times the monomial 1, added into a copy of the larger
        return Polynomial(_mul_form(small, ((0, 1),), dict(big)))

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return _POLY_ZERO
            if other == 1:
                return self
            return Polynomial({m: c * other for m, c in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented  # integer scalars only: a float is refused
        a, b = self._terms, other._terms
        if not a or not b:
            return _POLY_ZERO
        _check_degree(_degree(a) + _degree(b), a, b)
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
        """Rename every variable x_i to x_{i+k}: ``compose`` at the word
        (x_{1+k}, ..., x_{n+k}), n the largest index used."""
        if k == 0 or not self._terms:
            return self
        n = self.max_var()
        return self.compose(tuple(map(LinearForm.variable, range(1 + k, n + 1 + k))))

    def compose(self, forms: Sequence["LinearForm"]) -> "Polynomial":
        """Substitute ``forms[i-1]`` for x_i.  Result is exact.

        When the forms of the variables used are a signed permutation
        (``_signed_permutation``), each monomial maps to one monomial
        (``_rename``).  Every other word, a scaling ``c*x_j`` or a zero
        form included, runs by Horner evaluation in the last variable,
        recursively (``_horner``).  Linear forms are homogeneous, so no
        degree grows.
        """
        width, fields = _variables(self._terms)
        if width > len(forms):
            raise ValueError(
                f"polynomial uses x_{width} but only {len(forms)} forms given"
            )
        return _compose(self._terms, forms[:width], fields)

    def mul_linear(self, form: "LinearForm") -> "Polynomial":
        terms = self._terms
        lin = _linear_terms(form.coeffs)
        if terms:
            _check_degree(_degree(terms) + 1, terms, dict(lin))
        return Polynomial(_mul_form(terms, lin))

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
        bits, mask = _span(_field(j))
        unit = (1 << bits) | 1
        lin = _linear_terms(form.coeffs)
        fields = 0  # every bit of the fields of the form's variables
        for u, _ in lin:  # u - 1 is the lowest bit of the variable's field
            fields |= (u - 1) * (_MAX_EXP if u < _TABLE_UNIT else _MAX_TABLE_EXP)
        for m in self._terms:
            if not m & fields:
                return None
        neg_rest = [(u, -fc) for u, fc in lin if u != unit]
        levels = _levels(self._terms, bits, mask)
        deg = max(levels)
        q_levels: dict[int, dict] = {}
        carry = levels[deg]
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
    (``_add_product``), and the constant monomial with a scale for a sum
    (``Polynomial.__add__`` and the leaves of ``_lift_sum``).  A term
    product adds the two packed monomials.  The degree is not checked
    here: callers that raise a degree check it first.
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


def _compose(terms: dict, letters: Sequence["LinearForm"], fields) -> Polynomial:
    """``Polynomial.compose`` on a terms dict whose variables' fields are
    ``fields`` (``_variables``), at ``letters``, the forms put in for
    x_1..x_n, n the largest index used: one renaming pass when the letters
    are a signed permutation (``_signed_permutation``), Horner otherwise."""
    perm = _signed_permutation(letters)
    if perm is not None:
        return Polynomial(_rename(terms, perm))
    lins = {f: _linear_terms(letters[_index(f) - 1].coeffs) for f in fields}
    # a substitution keeps the degree, which an image's table field must
    # hold; a form holds a table variable exactly when its last one is
    _check_degree(_degree(terms), (lin[-1][0] for lin in lins.values() if lin))
    return Polynomial(_horner(terms, lins))


def _levels(terms: dict, bits: int, mask: int) -> dict:
    """The terms grouped by the exponent e of the variable whose field starts
    at ``bits`` and has the width of ``mask``: e -> those terms with that
    variable removed, x^e divided out of each monomial."""
    unit = 1 << bits | 1  # the variable's monomial
    levels: dict[int, dict] = {}
    for m, c in terms.items():
        e = m >> bits & mask
        levels.setdefault(e, {})[m - e * unit] = c
    return levels


def _rename(terms: dict, perm: tuple) -> dict:
    """Substitute the signed permutation ``perm`` (``_signed_permutation``)
    into terms in x_1..x_n, n = len(perm): x_j for x_i when perm[i-1] is j,
    and -x_j when it is -j.

    Distinct monomials stay distinct: each monomial's fields are read at
    once, reordered by one ``itemgetter`` and packed again, and a term
    changes sign when the exponents of the negated variables have an odd
    sum, the parity of the lowest bits of their fields.  Constant terms
    (n = 0) are returned as they are.
    """
    n = len(perm)
    if not n:
        return dict(terms)
    order = [n + 1] * (_K + 1)  # the field each output field reads; n + 1 is 0
    order[0] = negated = 0
    for i, j in enumerate(perm, 1):
        if j < 0:
            j = -j
            negated |= 1 << _BITS * i
        order[j] = i
    top = max(map(abs, perm))
    size = 2 * (n + 2)  # fields 0..n + 1 of a monomial in x_1..x_n
    read, write = _LOW_FIELDS[n + 2].unpack, _LOW_FIELDS[top + 1].pack
    move = itemgetter(*order[: top + 1])
    to_int = int.from_bytes
    return {
        to_int(write(*move(read(m.to_bytes(size, "little")))), "little"): (
            -c if negated and (m & negated).bit_count() & 1 else c
        )
        for m, c in terms.items()
    }


def _horner(terms: dict, lins: dict) -> dict:
    """Substitute ``lins[f]`` for the variable of field f by Horner in the
    variable of the top field.

    With ``P = sum_k P_k x_n^k``, x_n that variable, and ``L = lins[n]``,
    ``P(lins) = (..(P_d(lins) L + P_{d-1}(lins)) L + ..) L + P_0(lins)``;
    each ``P_k`` is substituted the same way in one variable fewer.
    """
    top = max(terms, default=0).bit_length() - 1
    if top < _BITS:  # constant
        return dict(terms)
    n = _field_at(top)
    levels = _levels(terms, *_span(n))
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
        coeffs = tuple(coeffs)
        if not all(isinstance(c, int) for c in coeffs):
            raise TypeError(f"form coefficients must be ints, got {coeffs!r}")
        self.coeffs = _trim(coeffs)
        self._hash = None

    @staticmethod
    def zero() -> "LinearForm":
        return _FORM_ZERO

    @staticmethod
    @lru_cache(maxsize=1 << 10)
    def variable(i: int) -> "LinearForm":
        """The form x_i, built once per index: letters recur in every word."""
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
        if not isinstance(other, LinearForm):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return _form(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    def __sub__(self, other: "LinearForm") -> "LinearForm":
        if not isinstance(other, LinearForm):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "LinearForm":
        return _form(tuple(-c for c in self.coeffs))

    def __mul__(self, k: int) -> "LinearForm":
        if not isinstance(k, int):
            return NotImplemented  # integer multipliers only
        return _form(tuple(c * k for c in self.coeffs))

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
        return g, _form(tuple(c // g for c in self.coeffs))

    def as_polynomial(self) -> Polynomial:
        return Polynomial(dict(_linear_terms(self.coeffs)))

    def compose(self, forms: Sequence["LinearForm"]) -> "LinearForm":
        """Substitute ``forms[i-1]`` for x_i; linear in, linear out.  One
        pass adds each letter's scaled coefficients into one list; only the
        letters of the form's own variables are read, and a letter that is
        one variable moves its coefficient without a scan."""
        if len(self.coeffs) > len(forms):
            raise ValueError(
                f"form uses x_{len(self.coeffs)} but only {len(forms)} forms given"
            )
        out: list = []
        for i in compress(count(), self.coeffs):
            c = self.coeffs[i]
            row = forms[i].coeffs
            n = len(row)
            if n > len(out):
                out.extend([0] * (n - len(out)))
            if row.count(0) == n - 1:  # one variable, the last
                out[n - 1] += c * row[-1]
                continue
            for j, a in enumerate(row):
                if a:
                    out[j] += c * a
        return _form(out)

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


def _form(coeffs: Sequence[int]) -> LinearForm:
    """The form of integer coefficients that the kernel computed from a
    form's own: ``LinearForm`` without the type check."""
    f = object.__new__(LinearForm)
    f.coeffs = _trim(coeffs)
    f._hash = None
    return f


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

    __slots__ = ("scalar", "numerator", "denominator")

    def __init__(self, scalar, numerator, denominator):
        # Internal: arguments must already be canonical.  Use make().
        self.scalar = scalar
        self.numerator = numerator
        self.denominator = denominator

    # -- construction --------------------------------------------------------

    @staticmethod
    def make(
        scalar: Fraction | int,
        numerator: Polynomial,
        denominator: Iterable[tuple[LinearForm, int]] = (),
    ) -> "RationalFunction":
        """Canonicalize and build.  The only sanctioned constructor.

        Tries every denominator form against the numerator.  A scalar that
        is not an int or a Fraction, such as a float, raises TypeError.  The
        denominator goes through ``_normalize``: a zero multiplicity is
        skipped, a negative one raises ValueError, and a zero form raises
        ZeroDenominatorError.
        """
        if not isinstance(scalar, (int, Fraction)):
            raise TypeError(f"a scalar must be an int or a Fraction, got {scalar!r}")
        if scalar == 0 or numerator.is_zero():
            return RF_ZERO
        scalar, den = _normalize(scalar, denominator)
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
        return Fraction(self.scalar * self.numerator.constant_value())

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
        return hash((self.scalar, self.numerator, self.denominator))

    def __repr__(self):
        return f"RationalFunction({self})"

    def __str__(self):
        return rf_str(self)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return rf_sum((self, other))

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        if not isinstance(other, RationalFunction):
            return NotImplemented
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
                _scalar(self.scalar * other), self.numerator, self.denominator
            )
        if not isinstance(other, RationalFunction):
            return NotImplemented  # exact scalars only: a float is refused
        if self.scalar == 0 or other.scalar == 0:
            return RF_ZERO
        scalar, p, q, den = _cross(self, other)
        return _assemble(scalar, p * q, den)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * Fraction(1, other)
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
        return _build(_quotient(self.scalar, k), self.numerator, den, trial)

    def mul_linear(self, form: LinearForm) -> "RationalFunction":
        """The product with the form's value, ``k * f`` for f primitive."""
        k, f = form.primitive()
        if k == 0:
            return RF_ZERO
        return self * RationalFunction(k, f.as_polynomial(), ())

    # -- structural operations -------------------------------------------------

    def substitute(self, forms: Sequence[LinearForm]) -> "RationalFunction":
        """Evaluate at the given linear forms (x_i := forms[i-1]).

        With n the largest index the value uses: when the first n letters
        decode to a signed permutation (``_signed_permutation``: x_j or -x_j
        for distinct j <= _K, so n <= _K, and no variable lies in the
        table), the value is renamed in one pass (``_renamed``).  Every
        other word composes each form and the numerator (``_compose``) and
        canonicalizes the result, trying the forms only when the letters
        of the used variables are not in echelon form (see "Where
        cancellation is attempted" in the module docstring).

        Raises ValueError when fewer than n forms are given, and
        ZeroDenominatorError if a denominator factor collapses to the zero
        form.
        """
        if self.scalar == 0:
            return self
        n, fields = _variables(self.numerator._terms)
        width = max(n, max((len(f.coeffs) for f, _ in self.denominator), default=0))
        if width > len(forms):
            raise ValueError(
                f"value uses x_{width} but only {len(forms)} forms given"
            )
        perm = _signed_permutation(forms[:width])
        if perm is not None:
            return _renamed(self, perm, n)
        used = set(map(_index, fields))
        for f, _ in self.denominator:
            used.update(compress(count(1), f.coeffs))
        scalar, den = _normalize(self.scalar, self.denominator, forms)
        num = _compose(self.numerator._terms, forms[:n], fields)
        # letters in echelon form are independent: no form can cancel
        if _echelon([forms[i - 1] for i in used]):
            return _build(scalar, num, den, ())
        return _build(scalar, num, den, list(den))

    def shift(self, k: int) -> "RationalFunction":
        """Rename every variable x_i to x_{i+k}: ``substitute`` at the word
        (x_{1+k}, ..., x_{n+k}), n the largest index used."""
        if k == 0 or self.scalar == 0:
            return self
        n = self.max_var()
        return self.substitute(tuple(map(LinearForm.variable, range(1 + k, n + 1 + k))))


RF_ZERO = RationalFunction(0, _POLY_ONE, ())
RF_ONE = RationalFunction(1, _POLY_ONE, ())


def _echelon(forms: Sequence[LinearForm]) -> bool:
    """Every form is nonzero and the forms end in distinct variables
    (coefficients are trimmed): they are in echelon form, ordered by last
    variable, hence linearly independent."""
    lasts = {len(f.coeffs) for f in forms}
    return len(lasts) == len(forms) and 0 not in lasts


def _signed_permutation(letters: Sequence[LinearForm]) -> tuple | None:
    """The word as a signed permutation: j for each letter x_j and -j for
    each letter -x_j, when the j are distinct and at most _K; None for
    every other word.  The one test of a renaming word.  Such letters are
    nonzero and end in distinct variables, so they are echelon
    (``_echelon``)."""
    perm = []
    for f in letters:
        c = f.coeffs
        j = len(c)
        if not 0 < j <= _K or c[-1] not in (1, -1) or c.count(0) != j - 1:
            return None
        perm.append(j * c[-1])
    if len(set(map(abs, perm))) < len(perm):
        return None
    return tuple(perm)


def _renamed(r: RationalFunction, perm: tuple, n: int) -> RationalFunction:
    """``r.substitute(word)`` for a nonzero r free of table variables and a
    word that covers every variable r may use and decodes to the signed
    permutation ``perm`` (``_signed_permutation``), which maps a canonical
    value to a canonical value once the signs are normalized (see "Where
    cancellation is attempted" in the module docstring).  The numerator
    uses x_1..x_n (``_variables``)."""
    terms = _rename(r.numerator._terms, perm[:n])
    scalar = r.scalar
    if terms[_leading(terms)] < 0:
        terms = {m: -c for m, c in terms.items()}
        scalar = -scalar
    den = {}
    wide = []  # forms of two or more variables
    for f, mult in r.denominator:
        coeffs = f.coeffs
        if coeffs.count(0) < len(coeffs) - 1:
            wide.append((coeffs, mult))
            continue
        j = perm[len(coeffs) - 1]  # f is x_i: its image is x_|j|, negated when j < 0
        if j < 0:
            j = -j
            if mult & 1:
                scalar = -scalar
        den[LinearForm.variable(j)] = mult
    if wide:
        # place j - 1 of an image reads the coefficient of the variable
        # sent to +-x_j; place m of a form padded to m + 1 places is 0
        m = len(perm)
        source = [m] * (_K + 1)
        signs = [1] * _K
        for i, j in enumerate(perm):
            source[abs(j) - 1] = i
            signs[abs(j) - 1] = 1 if j > 0 else -1
        # place top reads the pad too, so the getter returns a tuple
        top = max(map(abs, perm))
        gather = itemgetter(*source[: top + 1])
        pad = (0,) * (m + 1)
        negated = min(perm) < 0
        for coeffs, mult in wide:
            out = gather(coeffs + pad[len(coeffs) :])
            if negated:
                out = tuple(map(mul, out, signs))
            if next(filter(None, out)) < 0:
                out = tuple(-c for c in out)
                if mult & 1:
                    scalar = -scalar
            den[_form(out)] = mult
    return _assemble(scalar, Polynomial(terms), den)


def _scalar(q: int | Fraction) -> int | Fraction:
    """The canonical scalar equal to q: an int when q is integral, else the
    Fraction, whose denominator is then above 1.  A float has no
    denominator, so one that leaks in raises here."""
    if type(q) is int:
        return q
    return q.numerator if q.denominator == 1 else q


def _quotient(scalar: int | Fraction, k: int) -> int | Fraction:
    """The canonical scalar ``scalar / k`` for a nonzero int k; an int
    scalar is never divided with ``/``, which would give a float."""
    if type(scalar) is int and scalar % k == 0:
        return scalar // k
    return _scalar(Fraction(scalar, k))


def _normalize(
    scalar: int | Fraction,
    denominator: Iterable[tuple[LinearForm, int]],
    word: Sequence[LinearForm] | None = None,
) -> tuple[int | Fraction, dict]:
    """The one denominator normalizer: ``scalar / prod(form ** mult)`` over
    ``denominator``, each form composed with ``word`` when one is given, as
    the new scalar and a dict of primitive forms to multiplicities.

    Each form is split as ``k * f`` (``LinearForm.primitive``), the scalar
    is divided by ``k ** mult`` and equal forms are merged.  A zero
    multiplicity is skipped, and a negative one raises ValueError; a form
    that is or becomes zero raises ZeroDenominatorError.
    """
    den: dict[LinearForm, int] = {}
    for form, mult in denominator:
        if mult < 0:
            raise ValueError("negative multiplicity")
        if not mult:
            continue
        k, f = (form if word is None else form.compose(word)).primitive()
        if k == 0:
            raise ZeroDenominatorError(
                "zero linear form in denominator"
                if word is None
                else f"denominator factor {form} vanishes under substitution"
            )
        if k != 1:
            scalar = _quotient(scalar, k**mult)
        den[f] = den.get(f, 0) + mult
    return scalar, den


def _build(
    scalar: int | Fraction,
    numerator: Polynomial,
    den: dict,
    trial: Iterable[LinearForm],
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
    return _assemble(_scalar(scalar * c), prim, den)


def _assemble(
    scalar: int | Fraction, numerator: Polynomial, den: dict
) -> RationalFunction:
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
    return _scalar(a.scalar * b.scalar), p, q, den


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
    splits on one unit u as ``u * S(those missing u) + S(the rest)``.  A
    lift of size ``_ROWS_FROM`` or more runs the same tree on rows
    (``_lift_rows``), which keep each term's exponent of one variable in the
    digits of an integer; a zero sum then returns zero without decoding (see
    "Lifting in rows" in the module docstring).  Only forms that two or more
    summands hold at the top multiplicity are tried against the sum's
    numerator.
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
    lcd = lcm(*(scalar.denominator for scalar, _, _, _ in terms))
    # most missed first: a tie in _split_unit goes to the lowest bit
    units = sorted(
        (u for u, n in have.items() if n < len(terms)),
        key=lambda u: (have[u], u),
    )
    bits = {u: 1 << k for k, u in enumerate(units)}
    lins = [_linear_terms(coeffs) for coeffs, _ in units]
    # a form holds a table variable exactly when its last variable is one
    tops = [lin[-1][0] for lin in lins]
    everything = (1 << len(units)) - 1
    summands = []
    lift = 0  # the size of the lift, which picks the kernel
    for scalar, den, p, q in terms:
        mask = everything
        for f, m in den:
            for j in range(1, m + 1):
                mask &= ~bits.get((f.coeffs, j), 0)
        # lifting multiplies by one linear form per unit the summand misses
        missed = mask.bit_count()
        degree = _degree(p._terms) + missed
        count = len(p._terms)
        if q is not None:
            q = q._terms
            degree += _degree(q)
            count *= len(q)
        _check_degree(degree, tops, p._terms, q or ())
        lift += count * ((1 << missed) - 1)
        scale = scalar.numerator * (lcd // scalar.denominator)
        summands.append((p._terms, q, scale, mask))
    if lift >= _ROWS_FROM and _bound(summands, lins) < _DIGIT_BOUND:
        total = _lift_rows(summands, everything, lins)
    else:
        total = _lift_sum(summands, everything, lins)
    shared = [f for f, m in common.items() if have[(f.coeffs, m)] > 1]
    return _build(_quotient(1, lcd), Polynomial(total), common, shared)


def _lift_sum(summands: list, todo: int, lins: list) -> dict:
    """``sum(scale * terms * cofactor * prod(unit k for k in mask & todo))``
    as a new terms dict: on packed terms, or on rows for ``_lift_rows``.

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
        # nothing left to lift but the shared units: the largest summand
        # without a cofactor, if any, goes first, so the first product
        # copies it, and each pair's numerators are multiplied straight
        # into the sum
        big = max(summands, key=lambda s: len(s[0]) if s[1] is None else -1)
        out = {}
        for terms, cof, scale, _ in (big, *(s for s in summands if s is not big)):
            if cof is None:
                out = _mul_form(terms, ((0, scale),), out)
            else:
                out = _add_product(out, terms, cof, scale)
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


# Lifting in rows (see the module docstring): the lift size from which
# rf_sum lifts in rows, the width of a digit (one unsigned 64-bit word when
# decoded), the bound that every coefficient must stay below, and the zero
# digit of a decoded row
_ROWS_FROM = 1 << 13
_W = 64
_DIGIT_BOUND = 1 << (_W - 2)
_HALF_DIGIT = 1 << (_W - 1)
_HALF_DIGIT_BYTES = _HALF_DIGIT.to_bytes(_W // 8, "little")


def _bound(summands: list, lins: list) -> int:
    """A bound on every coefficient of the lifted sum: the sum over the
    summands of ``|scale| * ||terms||_1 * ||cofactor||_1`` times
    ``||L||_1`` for the form L of each unit the summand misses."""
    norms = [sum(abs(c) for _, c in lin) for lin in lins]
    bound = 0
    for terms, cof, scale, mask in summands:
        b = abs(scale) * sum(map(abs, terms.values()))
        if cof is not None:
            b *= sum(map(abs, cof.values()))
        while mask:
            low = mask & -mask
            b *= norms[low.bit_length() - 1]
            mask ^= low
        bound += b
    return bound


def _lift_rows(summands: list, todo: int, lins: list) -> dict:
    """``_lift_sum``'s sum, lifted in rows and decoded to a packed terms dict.

    x_a and x_b are the two variables that the most units hold (x_1 and x_2
    make up the pair when the units hold fewer).  Each numerator is turned
    into rows, each unit's linear terms into a row form, and ``_lift_sum``
    lifts the rows through its own sharing tree and ``_mul_form``: the
    integer products and sums there are the row arithmetic.  A zero sum
    decodes to the empty dict.  See "Lifting in rows" in the module
    docstring for the rules, and for the proof that a digit holds every
    coefficient when ``_bound`` is below ``_DIGIT_BOUND``.
    """
    held: dict[int, int] = {}  # x_i's packed monomial -> the units that hold x_i
    for lin in lins:
        for u, _ in lin:
            held[u] = held.get(u, 0) + 1
    pick = sorted(held, key=held.__getitem__, reverse=True)[:2]
    for u in (_unit(1), _unit(2)):
        if len(pick) < 2 and u not in pick:
            pick.append(u)
    (sa, ma), (sb, _) = (_span(_field_at(u.bit_length() - 1)) for u in pick)
    ua, ub = 1 << sa, 1 << sb  # x_a's and x_b's fields, without the degree
    step = ub - ua  # moves one exponent from x_a's field to x_b's

    def rows(terms: dict) -> dict:
        out: dict = {}
        get = out.get
        for m, c in terms.items():
            e = m >> sa & ma
            key = m + e * step
            out[key] = get(key, 0) + (c << _W * e)
        return out

    row_lins = []
    for lin in lins:
        row: dict = {}
        for u, c in lin:
            if u - 1 == ua:  # x_a: x_b's key, shifted one digit
                u, c = ub + 1, c << _W
            row[u] = row.get(u, 0) + c
        row_lins.append(tuple(row.items()))
    total = _lift_sum(
        [
            (rows(terms), None if cof is None else rows(cof), scale, mask)
            for terms, cof, scale, mask in summands
        ],
        todo,
        row_lins,
    )
    return _from_rows(total, -step)


def _from_rows(rows: dict, step: int) -> dict:
    """The packed terms dict of ``rows``, each ``sum(c_e * 2**(_W*e))`` with
    every ``|c_e| < 2**(_W-1)``: digit e of the row keyed k is the term of
    ``k + e * step``, step being x_a's field unit minus x_b's.

    Adding 2**(_W-1) to every digit makes each one nonnegative, so the
    digits are the row's bytes read as unsigned words, with 2**(_W-1) the
    zero digit: one C-level conversion per row, however sparse it is.
    """
    out: dict = {}
    for key, row in rows.items():
        n = row.bit_length() // _W + 1  # enough digits: |c_e| < 2**(_W-1)
        shifted = row + int.from_bytes(_HALF_DIGIT_BYTES * n, "little")
        data = shifted.to_bytes(n * _W // 8, "little")
        for d in struct.unpack(f"<{n}Q", data):
            if d != _HALF_DIGIT:
                out[key] = d - _HALF_DIGIT
            key += step
    return out


def rf_monomial(scalar, *var_exponents: tuple[int, int]) -> RationalFunction:
    """Build ``scalar * prod(x_i ** e)`` from (index, exponent) pairs."""
    mono: dict[int, int] = {}
    for i, e in var_exponents:
        mono[i] = mono.get(i, 0) + e
    width = max(mono, default=0)
    m = tuple(mono.get(i, 0) for i in range(1, width + 1))
    return RationalFunction.make(scalar, Polynomial({_pack(m): 1}))


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
    pos = _BITS  # the bit that the lowest bit of m stands for
    while m:
        f = _field_at(pos + (m & -m).bit_length() - 1)
        out.append(f)
        start, mask = _span(f)
        end = start + mask.bit_length()
        m >>= end - pos
        pos = end
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
    spans = [_span(f) for f in fields]
    terms = [
        (m & _MAX_EXP, tuple([m >> s & k for s, k in spans]), c)
        for m, c in p._terms.items()
    ]
    terms.sort(reverse=True)
    return indices, terms


# A text style: the format of x_i's name from i, of name^e from the name and
# e, the product sign, and the text of monomial 1.
_PLAIN = ("x{}", "{}^{}", "*", "1")
_LATEX = ("x_{{{}}}", "{}^{{{}}}", " ", "")


def _monomial_text(names: Sequence[str], exps: Sequence[int], style: tuple) -> str:
    """The product of ``names[k]`` to the power ``exps[k]``, or the style's
    monomial 1 when every exponent is 0."""
    _, power, times, one = style
    parts = [n if e == 1 else power.format(n, e) for n, e in zip(names, exps) if e]
    return times.join(parts) or one


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


def _term_text(c: int, mono: str, style: tuple) -> str:
    """A term's text without its sign."""
    _, _, times, one = style
    if mono == one:
        return str(abs(c))
    return mono if abs(c) == 1 else f"{abs(c)}{times}{mono}"


def _poly_text(p: Polynomial, style: tuple) -> str:
    indices, terms = _sorted_terms(p)
    names = [style[0].format(i) for i in indices]
    return _signed_sum(
        (_term_text(c, _monomial_text(names, exps, style), style), c)
        for _, exps, c in terms
    )


def _form_text(f: LinearForm, style: tuple) -> str:
    """A linear form's text, read from its coefficients: its terms are in
    increasing index order, which is grlex order."""
    return _signed_sum(
        (_term_text(c, style[0].format(i), style), c)
        for i, c in enumerate(f.coeffs, start=1)
        if c
    )


def poly_str(p: Polynomial) -> str:
    return _poly_text(p, _PLAIN)


def poly_latex(p: Polynomial) -> str:
    return _poly_text(p, _LATEX)


def form_str(f: LinearForm) -> str:
    return _form_text(f, _PLAIN)


def form_latex(f: LinearForm) -> str:
    return _form_text(f, _LATEX)


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
    lcd = lcm(*(c.denominator for _, c in raw))
    num_terms: dict = {}
    for m, c in raw:
        num_terms[m] = num_terms.get(m, 0) + int(c * lcd)
    den = [
        (LinearForm(_json_int(c) for c in coeffs), _json_int(m))
        for coeffs, m in obj["denominator"]
    ]
    return RationalFunction.make(scalar / lcd, Polynomial.from_dict(num_terms), den)
