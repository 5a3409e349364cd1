"""Exact arithmetic kernel: canonical forms, ring axioms, oracles."""

from __future__ import annotations

import itertools
import json
import os
import pickle
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mouldcalc.algebra import (
    ExponentOverflowError,
    LinearForm,
    NotDivisibleError,
    Polynomial,
    RationalFunction,
    ZeroDenominatorError,
    one_over_forms,
    rf_from_json,
    rf_latex,
    rf_monomial,
    rf_str,
    rf_sum,
    rf_to_json,
    x_var,
)
from mouldcalc import algebra
from mouldcalc.algebra import _MAX_EXP, _MAX_TABLE_EXP, _unit

from mouldcalc.moulds import Mould, sharp, sum_form
from mouldcalc.symmetry import Dimould
from mouldcalc.solutions import psi_minus1_mould
from mouldcalc.special import sa

from helpers import (
    compose_via_powers,
    compose_via_tuples,
    count_div_attempts,
    cross_equal,
    form_eval,
    mul_linear_via_tuples,
    mul_via_full_make,
    monomial_latex_via_tuple,
    monomial_str_via_tuple,
    mul_via_tuples,
    outcome,
    poly_eval,
    random_rf,
    rf_sum_via_full_lift,
    rf_sum_via_tuples,
    sorted_terms_via_tuples,
    substitute_via_powers,
    try_div_linear_via_tuples,
    _mul_form_via_tuples,
)

x1, x2, x3 = x_var(1), x_var(2), x_var(3)
ONE = RationalFunction.one()
_ROOT = Path(__file__).resolve().parents[1]


def poly(d):
    return Polynomial.from_dict(d)


def rf(scalar, num, den=()):
    return RationalFunction.make(scalar, num, den)


# ---------------------------------------------------------------------------
# polynomials and linear forms
# ---------------------------------------------------------------------------


def test_polynomial_basics():
    p = poly({(1,): 1, (): 2})  # x1 + 2
    q = poly({(1,): -1})
    assert (p + q) == poly({(): 2})
    assert (p * q) == poly({(2,): -1, (1,): -2})
    assert p.degree() == 1 and p.max_var() == 1
    assert poly({}).is_zero()


def test_content_and_sign():
    p = poly({(1,): -6, (): -9})
    c, prim = p.content_sign_primitive()
    assert c == -3
    assert prim == poly({(1,): 2, (): 3})
    assert prim.content_sign_primitive() == (1, prim)


def test_divide_difference_of_squares():
    p = poly({(2,): 1, (0, 2): -1})  # x1^2 - x2^2
    q = p.div_linear(x1 - x2)
    assert q == poly({(1,): 1, (0, 1): 1})  # x1 + x2
    # independent oracle: multiplying back recovers p
    assert q.mul_linear(x1 - x2) == p


def test_divide_not_divisible():
    p = poly({(1,): 1, (0, 1): 1})  # x1 + x2
    assert p.try_div_linear(x1) is None
    with pytest.raises(NotDivisibleError):
        p.div_linear(x1)
    # certificate: p does not vanish on the zero set of x1
    assert poly_eval(p, [Fraction(0), Fraction(5)]) != 0


def test_divide_mixed_term():
    p = poly({(1, 1): 1, (0, 2): 1})  # x1 x2 + x2^2
    q = p.div_linear(x1 + x2)
    assert q == poly({(0, 1): 1})  # x2 (long-division oracle value)
    assert q.mul_linear(x1 + x2) == p


@settings(max_examples=60)
@given(st.data())
def test_division_roundtrip_random(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    coeffs = [rng.randint(-3, 3) for _ in range(3)]
    if not any(coeffs):
        coeffs[0] = 1
    form = LinearForm(coeffs)
    q = poly(
        {
            tuple(rng.randint(0, 2) for _ in range(3)): rng.randint(-5, 5)
            for _ in range(3)
        }
    )
    p = q.mul_linear(form)
    got = p.try_div_linear(form)
    assert got is not None
    assert got.mul_linear(form) == p


def test_linear_form_primitive():
    k, f = (4 * x1 - 4 * x2).primitive()
    assert k == 4 and f == x1 - x2
    k, f = (-2 * x1).primitive()
    assert k == -2 and f == x1
    assert LinearForm.zero().primitive() == (0, LinearForm.zero())


def test_linear_form_compose_is_linear():
    f = 2 * x1 - x2
    g = f.compose((x2 + x3, x3))
    assert g == 2 * x2 + x3
    # letters that cancel: the image is zero, with every trailing zero trimmed
    assert (x1 + x2).compose((x3 - x_var(4), x_var(4) - x3)) == LinearForm.zero()
    assert (x1 + x2).compose((x1 + x3, x2 - x3)).coeffs == (1, 1)
    # a letter that is one variable moves the form's coefficient to it
    big = x_var(5000)
    assert (3 * x1 - 2 * x3).compose((x_var(4), x2, big)) == 3 * x_var(4) - 2 * big
    # seeded random cases against the image computed coefficient by coefficient
    rng = random.Random("compose")
    for _ in range(300):
        nvars = rng.randint(0, 4)
        coeffs = [rng.choice([-3, -1, 0, 0, 1, 2]) for _ in range(nvars)]
        f = LinearForm(coeffs)
        letters = [
            LinearForm([rng.choice([-2, -1, 0, 0, 0, 1, 3]) for _ in range(rng.randint(0, 5))])
            for _ in range(nvars + rng.randint(0, 2))  # zero letters and spare ones
        ]
        if nvars >= 2 and rng.random() < 0.5:
            i, j = rng.sample(range(nvars), 2)
            if coeffs[j] and coeffs[i] % coeffs[j] == 0:
                # c_i L_i + c_j L_j cancels: L_j = -(c_i / c_j) L_i
                letters[j] = -(coeffs[i] // coeffs[j]) * letters[i]
        width = max((len(L.coeffs) for L in letters), default=0)
        want = [0] * width
        for c, L in zip(f.coeffs, letters):
            for k, a in enumerate(L.coeffs):
                want[k] += c * a
        while want and want[-1] == 0:
            want.pop()
        got = f.compose(letters)
        assert got.coeffs == tuple(want)
        assert got == LinearForm(want)
        if f.coeffs:
            with pytest.raises(ValueError):
                f.compose(letters[: len(f.coeffs) - 1])


# ---------------------------------------------------------------------------
# rational functions: worked examples
# ---------------------------------------------------------------------------


def test_add_inverse_is_zero():
    a = one_over_forms(x1)
    assert (a + (-a)).is_zero()


def test_add_common_denominator():
    got = one_over_forms(x1) + one_over_forms(x2)
    want = rf(1, poly({(1,): 1, (0, 1): 1}), [(x1, 1), (x2, 1)])
    assert got == want


def test_add_with_cancellation_oracle():
    a = rf(1, poly({(1,): 1, (0, 1): -1}), [(x1, 1), (x2, 1)])  # (x1-x2)/(x1 x2)
    got = a + one_over_forms(x2)
    # oracle: dense cross multiplication against the hand value (2x1-x2)/(x1 x2)
    want = rf(1, poly({(1,): 2, (0, 1): -1}), [(x1, 1), (x2, 1)])
    assert cross_equal(got, want)
    assert got == want


def test_mul_cancellation():
    a = rf(1, poly({(1,): 1, (0, 1): -1}), [(x1, 1)])
    b = rf(1, poly({(1,): 1}), [(x1 - x2, 1)])
    assert a * b == RationalFunction.one()


def test_mul_polar_chain():
    got = one_over_forms(x1) * one_over_forms(x1 + x2)
    assert got == one_over_forms(x1, x1 + x2)


def test_mul_annihilator():
    assert (RationalFunction.zero() * one_over_forms(x1)).is_zero()


def test_substitute_single_slot():
    f = one_over_forms(x1)
    assert f.substitute((x1 + x2,)) == one_over_forms(x1 + x2)


def test_substitute_polynomial():
    f = rf(1, poly({(1, 1): 1}))  # y1 y2
    got = f.substitute((x1, x1 + x2))
    assert got == rf(1, poly({(2,): 1, (1, 1): 1}))


def test_substitute_zero_denominator():
    f = one_over_forms(x1 - x2)
    with pytest.raises(ZeroDenominatorError):
        f.substitute((x2, x2))


def test_equality_permuted_denominator():
    a = rf(Fraction(1, 12), poly({(1,): 1, (0, 1): 2}), [(x1, 1), (x2, 1), (x1 + x2, 1)])
    b = rf(Fraction(1, 12), poly({(1,): 1, (0, 1): 2}), [(x1 + x2, 1), (x2, 1), (x1, 1)])
    assert a == b


def test_float_scalars_are_refused():
    # a float's binary fraction must never become an exact value
    entries = [
        lambda: RationalFunction.make(0.1, Polynomial.one()),
        lambda: rf_monomial(0.1, (1, 1)),
        lambda: ONE * 0.1,
        lambda: 0.1 * ONE,
        lambda: sa(3, 2) * 0.1,
        lambda: 0.1 * sa(3, 2),
        lambda: LinearForm((1, 2)) * 0.1,
        lambda: 0.1 * LinearForm((1, 2)),
    ]
    for entry in entries:
        with pytest.raises(TypeError):
            entry()
    tenth = Fraction(1, 10)
    assert ONE * tenth == RationalFunction.make(tenth, Polynomial.one())
    assert (sa(3, 2) * 2).components[1] == sa(3, 2).components[1] * Fraction(2)


def test_floats_are_refused_below_the_scalar_layer():
    # coefficients of polynomials and forms are ints: a float never enters
    # a numerator or a letter, and a polynomial takes no non-int scalar
    entries = [
        lambda: Polynomial.from_dict({(1,): 0.5}),
        lambda: Polynomial.constant(0.5),
        lambda: LinearForm((0.5, 1)),
        lambda: Polynomial.one() * 0.5,
        lambda: 0.5 * Polynomial.one(),
        lambda: Polynomial.one() * Fraction(1, 2),
    ]
    for entry in entries:
        with pytest.raises(TypeError):
            entry()
    assert Polynomial.one().__mul__(0.5) is NotImplemented
    assert Polynomial.one().__mul__(Fraction(1, 2)) is NotImplemented
    assert Polynomial.constant(3) * 2 == Polynomial.constant(6)
    assert Polynomial.from_dict({(1,): 2}) == Polynomial.variable(1) * 2


def test_sums_with_a_foreign_operand_raise_type_error():
    # + and - refuse a number as * refuses a float: Python raises TypeError
    values = [
        Polynomial.one(),
        x1,
        ONE,
        Mould.unit(2),
        Dimould.unit(2),
    ]
    for value in values:
        for other in (1, 0.5, Fraction(1, 2)):
            assert value.__add__(other) is NotImplemented
            with pytest.raises(TypeError):
                value + other
            with pytest.raises(TypeError):
                value - other
            with pytest.raises(TypeError):
                other + value
    assert Polynomial.one() + Polynomial.one() == Polynomial.constant(2)
    assert ONE - ONE == RationalFunction.zero()


def test_a_difference_with_a_foreign_operand_names_minus():
    # the refusal comes from - itself, before the operand is negated
    for value in (Polynomial.one(), x1, ONE, Mould.unit(2)):
        for other in (1, "a", Fraction(1, 2)):
            assert value.__sub__(other) is NotImplemented
            with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for -:"):
                value - other


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: ONE.mul_linear(LinearForm.zero()), RationalFunction.zero()),
        # (1,) and (1, 0) pack to one key, so their terms cancel
        (lambda: poly({(1,): 1, (1, 0): -1}), Polynomial.zero()),
        (lambda: rf(1, Polynomial.variable(3)).substitute([x1]),
         (ValueError, "value uses x_3 but only 1 forms given")),
        (lambda: rf(1, Polynomial.one(), [(x1, -1)]), (ValueError, "negative multiplicity")),
        (lambda: Polynomial.variable(0), (ValueError, "variable indices start at 1")),
        (lambda: LinearForm.variable(0), (ValueError, "variable indices start at 1")),
        (lambda: LinearForm.zero().leading_var(), (ValueError, "zero form has no leading variable")),
        (lambda: rf(1, Polynomial.variable(1)).constant_value(), (ValueError, "x1 is not constant")),
        (lambda: ONE / ONE, (TypeError, "only scalar division is supported; use div_linear")),
        (lambda: ONE.div_linear(LinearForm.zero()), (ZeroDivisionError, "division by the zero form")),
        (lambda: Polynomial.one().try_div_linear(LinearForm.zero()),
         (ZeroDivisionError, "division by the zero form")),
        (lambda: Polynomial.zero().leading_monomial(),
         (ValueError, "zero polynomial has no leading monomial")),
    ],
    ids=["mul_linear-zero", "from_dict-cancels", "substitute-short", "make-negative",
         "poly-variable-0", "form-variable-0", "leading_var-zero", "constant_value-x1",
         "rf-division", "div_linear-zero", "try_div_linear-zero", "leading_monomial-zero"],
)
def test_kernel_edge_cases(call, expected):
    assert outcome(call) == expected


def test_inequality():
    assert one_over_forms(x1) != one_over_forms(x2)


def test_numerator_cancellation_canonical():
    got = rf(1, poly({(2,): 1}), [(x1, 1)])  # x1^2/x1
    assert got == rf(1, poly({(1,): 1}))


def test_zero_is_unique():
    z = rf(0, poly({(1,): 1}), [(x1, 1)])
    assert z is RationalFunction.zero() or z == RationalFunction.zero()
    assert z.denominator == ()


def test_denominator_sign_normalization():
    # 1/(x2 - x1) stored with primitive-positive form x1 - x2 and scalar -1
    f = one_over_forms(x2 - x1)
    assert f.scalar == -1
    assert f.denominator == ((x1 - x2, 1),)


# ---------------------------------------------------------------------------
# ring axioms and canonical-form properties (randomized, exact)
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_ring_axioms(seed):
    rng = random.Random(seed)
    f, g, h = (random_rf(rng) for _ in range(3))
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_equality_matches_cross_multiplication(seed):
    rng = random.Random(seed)
    f, g = random_rf(rng), random_rf(rng)
    assert (f == g) == cross_equal(f, g)
    assert cross_equal(f - g, RationalFunction.zero()) == (f == g)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_canonicalize_idempotent(seed):
    rng = random.Random(seed)
    f = random_rf(rng)
    again = RationalFunction.make(f.scalar, f.numerator, f.denominator)
    assert again == f
    assert again.scalar == f.scalar
    assert again.numerator == f.numerator
    assert again.denominator == f.denominator


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_closure_of_denominators(seed):
    rng = random.Random(seed)
    f, g = random_rf(rng), random_rf(rng)
    for h in (f + g, f * g):
        for form, _ in h.denominator:
            assert form.primitive() == (1, form)
            assert h.numerator.try_div_linear(form) is None


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_rf_sum_matches_fold(seed):
    rng = random.Random(seed)
    items = [random_rf(rng) for _ in range(rng.randint(0, 5))]
    total = RationalFunction.zero()
    for r in items:
        total = total + r
    assert rf_sum(items) == total


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_evaluation_consistency(seed):
    # f + g and f * g evaluate consistently at a random rational point
    rng = random.Random(seed)
    f, g = random_rf(rng), random_rf(rng)
    pt = [Fraction(rng.randint(1, 7), rng.randint(1, 5)) for _ in range(3)]

    def value(r):
        den = Fraction(1)
        for form, mult in r.denominator:
            den *= form_eval(form, pt) ** mult
        if den == 0:
            return None
        return r.scalar * poly_eval(r.numerator, pt) / den

    vf, vg = value(f), value(g)
    if vf is None or vg is None:
        return
    vs = value(f + g)
    vp = value(f * g)
    if vs is not None:
        assert vs == vf + vg
    if vp is not None:
        assert vp == vf * vg


# ---------------------------------------------------------------------------
# kernel fast paths against their former algorithms (seeded random)
# ---------------------------------------------------------------------------


def random_poly(rng, nvars, nterms=6, maxexp=3):
    return poly(
        {
            tuple(rng.randint(0, maxexp) for _ in range(nvars)): rng.randint(-5, 5)
            for _ in range(nterms)
        }
    )


def random_forms(rng, kind, nvars):
    """``nvars`` forms of one kind; ``wide`` forms reach past x_nvars."""
    width = nvars + 2
    out = []
    for _ in range(nvars):
        j = rng.randrange(width)
        if kind == "renaming":
            coeffs = [0] * j + [1]
        elif kind == "scaling":
            coeffs = [0] * j + [rng.choice([-3, -2, -1, 2, 3])]
        elif kind == "zero":
            coeffs = [] if rng.random() < 0.5 else [0] * j + [rng.choice([-1, 1, 2])]
        elif kind == "multi":
            coeffs = [rng.randint(-2, 2) for _ in range(nvars)]
        else:  # wide: multi-term forms over more variables than the polynomial
            coeffs = [rng.randint(-2, 2) for _ in range(width)]
        out.append(LinearForm(coeffs))
    return out


@pytest.mark.parametrize("kind", ["renaming", "scaling", "zero", "multi", "wide"])
def test_compose_matches_powers_oracle(kind):
    rng = random.Random(f"compose-{kind}")
    for _ in range(40):
        nvars = rng.randint(1, 4)
        p = random_poly(rng, nvars)
        forms = random_forms(rng, kind, nvars)
        assert p.compose(forms) == compose_via_powers(p, forms)


def test_compose_edge_cases():
    p = poly({(1, 2): 3, (): -1})  # 3 x1 x2^2 - 1
    assert p.compose((x1, x2)) == p
    assert p.compose((x2, x1, x3)) == poly({(2, 1): 3, (): -1})
    assert p.compose((LinearForm.zero(), x1 + x2)) == poly({(): -1})
    assert poly({}).compose(()) == poly({})
    assert poly({(1, 1): 1, (2,): -1}).compose((x1, x1)) == poly({})
    with pytest.raises(ValueError):
        p.compose((x1,))


def test_mul_and_mul_linear_match_naive_product():
    rng = random.Random("mul")
    for _ in range(40):
        p = random_poly(rng, rng.randint(0, 4))
        q = random_poly(rng, rng.randint(0, 4))
        naive: dict = {}
        for ma, ca in p.terms.items():
            for mb, cb in q.terms.items():
                width = max(len(ma), len(mb))
                m = tuple(
                    (ma[i] if i < len(ma) else 0) + (mb[i] if i < len(mb) else 0)
                    for i in range(width)
                )
                naive[m] = naive.get(m, 0) + ca * cb
        assert p * q == Polynomial.from_dict(naive)
        form = LinearForm([rng.randint(-2, 2) for _ in range(rng.randint(0, 5))])
        assert p.mul_linear(form) == p * form.as_polynomial()


def random_summands(rng, n):
    """Summands over a shared pool of forms: repeated and missing factors."""
    pool = [
        LinearForm([rng.randint(-2, 2) for _ in range(3)]) for _ in range(4)
    ]
    pool = [f for f in pool if not f.is_zero()] or [x1]
    items = []
    for _ in range(n):
        den = [(f, rng.randint(0, 3)) for f in pool if rng.random() < 0.7]
        num = random_poly(rng, 3, nterms=rng.randint(1, 4), maxexp=2)
        if rng.random() < 0.3 and den:  # a numerator sharing a factor
            num = num.mul_linear(den[0][0])
        scalar = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        items.append(RationalFunction.make(scalar, num, den))
    return items


def test_rf_sum_matches_full_lift_oracle():
    rng = random.Random("rf_sum")
    for _ in range(60):
        items = random_summands(rng, rng.randint(2, 8))
        assert rf_sum(items) == rf_sum_via_full_lift(items)


def test_rf_sum_zero_and_single_summands():
    rng = random.Random("rf_sum-edges")
    for _ in range(20):
        items = random_summands(rng, rng.randint(1, 5))
        both = items + [-r for r in items]
        rng.shuffle(both)
        assert rf_sum(both) == RationalFunction.zero() == rf_sum_via_full_lift(both)
        assert rf_sum([items[0]]) == items[0]
        assert rf_sum([RationalFunction.zero(), items[0]]) == items[0]
        assert items[0] + items[-1] == rf_sum_via_full_lift([items[0], items[-1]])
    assert rf_sum([]) == RationalFunction.zero()


def test_sharp_psi_minus1_matches_powers_oracle():
    M = psi_minus1_mould(5)
    got = sharp(M)
    for m in range(1, 6):
        forms = tuple(sum_form(i) for i in range(1, m + 1))
        assert got.components[m] == substitute_via_powers(M.components[m], forms)


# ---------------------------------------------------------------------------
# where cancellation is attempted: the ring operations against make trying
# every form, and the attempts they skip
# ---------------------------------------------------------------------------


def test_genuine_cancellations_still_happen():
    # a dependent word makes x1 + x3 and x1 + x2 the same form
    assert rf(1, (x1 + x3).as_polynomial(), [(x1 + x2, 1)]).substitute((x1, x2, x2)) == ONE
    a = rf(1, (x1 + x2).as_polynomial(), [(x1, 1)])
    b = rf(1, x1.as_polynomial(), [(x1 + x2, 1)])
    assert a * b == ONE
    assert b + rf(1, x2.as_polynomial(), [(x1 + x2, 1)]) == ONE
    assert one_over_forms(x1, x1 + x2).mul_linear(2 * x1 + 2 * x2) == 2 * one_over_forms(x1)
    twice = rf(3, x3.as_polynomial(), [(x1 + x2, 2)])
    assert twice.mul_linear(-x1 - x2) == rf(-3, x3.as_polynomial(), [(x1 + x2, 1)])
    square = rf(1, poly({(2,): 1, (1, 1): 1}))  # x1^2 + x1 x2
    assert square.div_linear(-2 * x1 - 2 * x2) == rf(Fraction(-1, 2), x1.as_polynomial())


def random_form(rng, nvars):
    """A nonzero form in x_1..x_nvars with small coefficients."""
    while True:
        f = LinearForm([rng.randint(-2, 2) for _ in range(nvars)])
        if not f.is_zero():
            return f


def word_with_kernel(rng, nvars):
    """A dependent word (form j is a multiple of form i) and a nonzero form h
    it sends to zero."""
    forms = [LinearForm([rng.randint(-2, 2) for _ in range(nvars)]) for _ in range(nvars)]
    i, j = rng.sample(range(nvars), 2)
    a = rng.choice([-2, -1, 1, 2])
    forms[j] = a * forms[i]
    h = [0] * nvars
    h[i], h[j] = a, -1
    return forms, LinearForm(h)


@pytest.mark.parametrize("kind", ["independent", "dependent"])
def test_substitute_matches_full_make(kind):
    """Values whose numerator holds f + t*h, with h in the word's kernel: a
    dependent word turns it into the denominator form f and must cancel it."""
    rng = random.Random(f"substitute-{kind}")
    cancelled = 0
    for _ in range(60):
        nvars = rng.randint(2, 4)
        forms, h = word_with_kernel(rng, nvars)
        if kind == "independent":
            forms = [x_var(k) + rng.randint(-2, 2) * x_var(k + 1) for k in range(1, nvars + 1)]
            rng.shuffle(forms)
        f = random_form(rng, nvars)
        g = f + rng.choice([-1, 1, 3]) * h
        num = random_poly(rng, nvars, nterms=3, maxexp=2).mul_linear(g)
        other = random_form(rng, nvars)
        r = rf(Fraction(rng.randint(1, 9), rng.randint(1, 9)), num, [(f, 2), (other, 1)])
        if any(form.compose(forms).is_zero() for form, _ in r.denominator):
            with pytest.raises(ZeroDenominatorError):
                r.substitute(forms)
            continue
        got = r.substitute(forms)
        assert got == substitute_via_powers(r, forms)
        cancelled += sum(m for _, m in r.denominator) > sum(m for _, m in got.denominator)
    if kind == "dependent":
        assert cancelled > 10
    else:
        assert cancelled == 0


def test_mul_and_linear_ops_match_full_make():
    rng = random.Random("mul-full-make")
    cancelled = 0
    for _ in range(80):
        a, b = random_summands(rng, 2)
        got = a * b
        assert got == mul_via_full_make(a, b)
        cancelled += sum(m for _, m in got.denominator) < sum(
            m for _, m in a.denominator + b.denominator
        )
        for f, _ in a.denominator + b.denominator + ((x1 - 2 * x3, 1),):
            f = rng.choice([-2, -1, 1, 3]) * f
            assert a.mul_linear(f) == rf(a.scalar, a.numerator.mul_linear(f), a.denominator)
            assert a.div_linear(f) == rf(a.scalar, a.numerator, a.denominator + ((f, 1),))
    assert cancelled > 10


def test_rf_sum_cancels_a_form_two_summands_share():
    """Numerators that add up to a multiple of a form every summand holds."""
    rng = random.Random("rf_sum-shared")
    for _ in range(30):
        f = random_form(rng, 3)
        if f.primitive()[1] == x2:
            continue
        nums = [random_poly(rng, 3, nterms=3, maxexp=2) for _ in range(rng.randint(1, 4))]
        rest = Polynomial.zero()
        for p in nums:
            rest = rest - p
        nums.append(rest + random_poly(rng, 3, nterms=2, maxexp=2).mul_linear(f))
        items = [rf(1, p, [(f, 2), (x2, 1)]) for p in nums]
        got = rf_sum(items)
        assert got == rf_sum_via_full_lift(items)
        assert all(form != f.primitive()[1] or m < 2 for form, m in got.denominator)


def test_word_not_in_echelon_form_tries_every_form(monkeypatch):
    # (x2, x1 + x2) is independent, but both letters end in x2: only a word
    # whose letters end in distinct variables skips the trial divisions
    value = rf(3, poly({(2,): 1, (0, 1): -1}), [(x1, 1), (x1 - 2 * x2, 2)])
    word = (x2, x1 + x2)
    attempts = count_div_attempts(monkeypatch)
    got = value.substitute(word)
    assert attempts
    assert got == substitute_via_powers(value, word)


def test_make_tries_every_form(monkeypatch):
    attempts = count_div_attempts(monkeypatch)
    dens = [(x1, 1), (x2, 2), (x1 + x2, 1)]
    rf(1, x3.as_polynomial(), dens)
    assert len(attempts) == 3


def test_renaming_and_sharp_make_no_division_attempt(monkeypatch):
    M = psi_minus1_mould(5)
    value = M.components[4]
    assert value.denominator
    attempts = count_div_attempts(monkeypatch)
    value.substitute((x3, x_var(4), x1, x2))
    value.substitute(tuple(-x_var(k) for k in range(1, 5)))
    sharp(M)
    assert attempts == []
    # a dependent word still tries its forms
    rf(1, (x1 + x3).as_polynomial(), [(x1 + x2, 1)]).substitute((x1, x2, x2))
    assert attempts


def count_canonicalizations(monkeypatch) -> list:
    """Patch ``Polynomial.content_sign_primitive``, which every value built
    through ``_build`` calls once and the renaming path never calls, to
    record each call; returns the (growing) list of polynomials."""
    calls: list = []
    original = Polynomial.content_sign_primitive

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Polynomial, "content_sign_primitive", counting)
    return calls


def random_value(rng, nvars):
    """A nonzero value in x_1..x_nvars: a Fraction or int scalar and forms
    of multiplicity 1 to 3."""
    num = Polynomial.zero()
    while num.is_zero():
        num = random_poly(rng, nvars, nterms=rng.randint(1, 6))
    den = [(random_form(rng, nvars), rng.randint(1, 3)) for _ in range(rng.randint(0, 4))]
    return rf(Fraction(rng.choice([-7, -3, -1, 1, 2, 5]), rng.randint(1, 4)), num, den)


def signed_permutation(rng, nvars, top=16):
    """Letters +-x_j for distinct j <= top, one for each of x_1..x_nvars."""
    return tuple(rng.choice([1, -1]) * x_var(j) for j in rng.sample(range(1, top + 1), nvars))


@pytest.mark.parametrize("kind", ["signed", "permutation", "gaps", "neg", "shift"])
def test_renaming_path_matches_powers_oracle(kind, monkeypatch):
    """Words of letters +-x_j with distinct j <= 16 take the renaming path
    and give the value the general path's oracle gives."""
    rng = random.Random(f"renaming-{kind}")
    calls = count_canonicalizations(monkeypatch)
    flipped = 0  # images whose form or numerator led negative
    for _ in range(60):
        nvars = rng.randint(1, 5)
        value = random_value(rng, nvars)
        if kind == "signed":
            word = signed_permutation(rng, nvars, nvars)
        elif kind == "permutation":
            word = tuple(x_var(j) for j in rng.sample(range(1, nvars + 1), nvars))
        elif kind == "gaps":  # targets spread over x_1..x_16
            word = signed_permutation(rng, nvars)
        elif kind == "neg":
            word = tuple(-x_var(i) for i in range(1, nvars + 1))
        else:
            k = rng.randint(1, 16 - nvars)
            word = tuple(x_var(i + k) for i in range(1, nvars + 1))
        calls.clear()
        got = value.shift(k) if kind == "shift" else value.substitute(word)
        assert calls == []
        assert got == substitute_via_powers(value, word)
        flipped += got.scalar != value.scalar
    # an increasing renaming keeps every sign; the others flip some
    assert flipped == 0 if kind == "shift" else flipped > 5


def test_renaming_normalizes_the_signs_of_forms_and_numerator(monkeypatch):
    swap = (x2, x1)
    # x1 - x2 -> x2 - x1 = -(x1 - x2): the scalar takes (-1)^mult; the
    # numerator x1^2 - x2 -> x2^2 - x1 still leads with a positive x2^2
    values = [
        rf(Fraction(3, 2), poly({(2,): 1, (0, 1): -1}), [(x1 - x2, mult), (x1, 1)])
        for mult in (1, 2, 3)
    ]
    # x1 - x2^2 -> x2 - x1^2 = -(x1^2 - x2): the numerator is negated
    negated = rf(5, poly({(1,): 1, (0, 2): -1}), [(x1 + x2, 2)])
    calls = count_canonicalizations(monkeypatch)
    got = [value.substitute(swap) for value in values]
    got_negated = negated.substitute(swap)
    assert calls == []
    monkeypatch.undo()
    for mult, value, image in zip((1, 2, 3), values, got):
        assert image == substitute_via_powers(value, swap)
        assert image.denominator == ((x2, 1), (x1 - x2, mult))
        assert image.scalar == Fraction(3, 2) * (-1) ** mult
    assert got_negated == rf(-5, poly({(2,): 1, (0, 1): -1}), [(x1 + x2, 2)])


def count_horner(monkeypatch) -> list:
    """Patch ``algebra._horner`` to record every call, its recursive ones
    included; returns the (growing) list of the terms it was given."""
    calls: list = []
    original = algebra._horner

    def counting(terms, lins):
        calls.append(terms)
        return original(terms, lins)

    monkeypatch.setattr(algebra, "_horner", counting)
    return calls


def test_words_that_are_no_signed_permutation_take_the_general_path(monkeypatch):
    value = rf(Fraction(-2, 3), poly({(1, 1, 1): 1, (0, 0, 3): -2, (): 1}), [(x1 + x3, 2), (x1, 1)])
    wide = rf(1, poly({(1,) + (0,) * 999 + (1,): 1, (2,): 1}), [(x1 + x2, 1)])  # x1 x1001 + x1^2
    x17 = x_var(17)  # the first variable past the slots lies in the table
    cases = [
        (value, (x2, LinearForm.zero(), x1)),  # a zero letter
        (value, (x1, x2, x1)),  # a repeated target
        (value, (x2, 2 * x1, x3)),  # a letter 2 x_j
        (value, (x3, x2, x17)),  # a table variable in the word
        (value, (x3, -x1 + x2, x2)),  # a letter of two variables
        (wide, (x2, x1) + tuple(map(x_var, range(3, 1002)))),  # in the value
    ]
    calls = count_canonicalizations(monkeypatch)
    horner = count_horner(monkeypatch)
    for r, word in cases:
        calls.clear()
        horner.clear()
        got = r.substitute(word)
        assert len(calls) == 1
        assert horner  # the numerator's letters are no signed permutation
        assert got == substitute_via_powers(r, word)
        assert dict(r.numerator.compose(word).terms) == compose_via_tuples(r.numerator, word)
    # the letters of unused variables are read too: a zero letter past the
    # value's variables is not read, one in a gap is
    calls.clear()
    longer = value.substitute((x3, x1, x2, LinearForm.zero()))
    assert calls == []
    assert longer == value.substitute((x3, x1, x2))
    gap = rf(1, poly({(1,): 1}), [(x1 + x3, 1)])  # x1 / (x1 + x3)
    calls.clear()
    got = gap.substitute((x2, LinearForm.zero(), x1))
    assert len(calls) == 1
    assert got == rf(1, poly({(0, 1): 1}), [(x1 + x2, 1)])


def test_shuffle_words_take_the_renaming_path(monkeypatch):
    from mouldcalc.moulds import canonical_word, shuffle
    from mouldcalc.special import dupal, pal

    for M, n in ((dupal(6), 6), (pal(5), 5)):
        value = M.components[n]
        c = canonical_word(n)
        # the shuffle words, neg's word and shift's word up to x_16
        words = list(shuffle(c[:2], c[2:])) + [tuple(-x for x in c)]
        words.append(tuple(x_var(i + 16 - n) for i in range(1, n + 1)))
        calls = count_canonicalizations(monkeypatch)
        horner = count_horner(monkeypatch)
        got = [value.substitute(w) for w in words]
        assert value.shift(16 - n) == got[-1]
        assert value.numerator.shift(16 - n) == got[-1].numerator
        assert calls == horner == []
        monkeypatch.undo()
        assert got == [substitute_via_powers(value, w) for w in words]


def test_signed_permutation_decodes_renaming_words_only():
    decode = algebra._signed_permutation
    x16, x17 = x_var(16), x_var(17)
    assert decode(()) == ()
    assert decode((x2, -x1, x3)) == (2, -1, 3)
    assert decode((-x16, x_var(9), x1)) == (-16, 9, 1)  # gaps up to x_16
    assert decode(tuple(map(x_var, range(16, 0, -1)))) == tuple(range(16, 0, -1))
    refused = [
        (x2, LinearForm.zero(), x1),  # a zero letter
        (x2, 2 * x1, x3),  # a letter 2 x_j
        (x1, x2, -x1),  # a repeated target, up to sign
        (x3, x2, x17),  # past the slots
        (x3, -x1 + x2, x1),  # a letter of two variables
    ]
    for word in refused:
        assert decode(word) is None


_TRAFFIC = """
from mouldcalc.algebra import Polynomial, RationalFunction
from mouldcalc.special import sa, slang
from mouldcalc.verify import CLAIMS, run_claim

substitute, try_div = RationalFunction.substitute, Polynomial.try_div_linear
open_calls = inside = with_denominator = 0


def wrapped_substitute(self, forms):
    global open_calls, with_denominator
    with_denominator += bool(self.denominator)
    open_calls += 1
    try:
        return substitute(self, forms)
    finally:
        open_calls -= 1


def counted_div(self, form):
    global inside
    inside += open_calls > 0
    return try_div(self, form)


RationalFunction.substitute = wrapped_substitute
Polynomial.try_div_linear = counted_div
for name in CLAIMS:
    run_claim(name)
slang(1, sa(3, 4))
print(inside, with_denominator > 100)
"""


def test_claims_substitute_only_at_echelon_words():
    # every claim at its defaults and slang_1(sa_3), in a fresh interpreter
    # so no memo is warm: no substitution tries a form, so every word was in
    # echelon form; an operator that builds other words fails here instead
    # of slowing down unseen
    assert run_fresh(_TRAFFIC) == "0 True\n"


def test_products_and_sums_skip_forms_that_cannot_cancel(monkeypatch):
    a = rf(1, poly({(1, 1): 1, (): 1}), [(x1, 1), (x1 + x2, 2)])
    b = rf(1, poly({(0, 2): 1, (): -1}), [(x1, 2), (x2, 1)])
    attempts = count_div_attempts(monkeypatch)
    a * b
    # only x1 + x2 (against b's numerator) and x2 (against a's) are tried
    assert set(attempts) == {x1 + x2, x2}
    polar = [one_over_forms(x1), one_over_forms(x2), one_over_forms(x1 + x2)]
    pairs = [one_over_forms(x1, x2), one_over_forms(x1, x1 + x2)]
    attempts.clear()
    rf_sum(polar)
    assert attempts == []
    rf_sum(pairs)  # x1 is the only form two summands hold
    assert attempts == [x1]


# ---------------------------------------------------------------------------
# packed monomials against the former tuple kernel (seeded random)
# ---------------------------------------------------------------------------

# slot variables next to opaque-symbol indices, as the generic checks mix them
_MIXED = (1, 2, 3, 7, 1000, 1001, 1013)


def sparse_poly(rng, nterms=5, maxexp=3, pool=_MIXED):
    d = {}
    for _ in range(nterms):
        exps: dict = {}
        for _ in range(rng.randint(0, 3)):
            i = rng.choice(pool)
            exps[i] = exps.get(i, 0) + rng.randint(1, maxexp)
        width = max(exps, default=0)
        d[tuple(exps.get(i, 0) for i in range(1, width + 1))] = rng.randint(-5, 5)
    return poly(d)


def sparse_form(rng, nterms=3, pool=_MIXED):
    coeffs = [0] * max(pool)
    for i in rng.sample(pool, rng.randint(1, nterms)):
        coeffs[i - 1] = rng.choice([-2, -1, 1, 2, 3])
    return LinearForm(coeffs)


def test_packed_kernel_matches_tuple_kernel():
    rng = random.Random("packed")
    for _ in range(60):
        p, q = sparse_poly(rng), sparse_poly(rng)
        assert dict((p * q).terms) == mul_via_tuples(p, q)
        form = sparse_form(rng)
        assert dict(p.mul_linear(form).terms) == mul_linear_via_tuples(p, form)
        for num in (p, p.mul_linear(form)):  # a division that may fail, one that holds
            got, want = num.try_div_linear(form), try_div_linear_via_tuples(num, form)
            assert (got is None) == (want is None)
            if got is not None:
                assert dict(got.terms) == want
        assert want is not None
        if not p.is_zero():
            assert p.leading_monomial() == max(p.terms, key=lambda m: (sum(m), m))
        k = rng.randint(1, 3)
        assert dict(p.shift(k).terms) == {
            ((0,) * k + m if m else m): c for m, c in p.terms.items()
        }


@pytest.mark.parametrize("kind", ["renaming", "multi"])
def test_packed_compose_matches_tuple_kernel(kind):
    rng = random.Random(f"packed-compose-{kind}")
    for _ in range(30):
        p = sparse_poly(rng)
        # only the pool variables occur; the forms for the others are unused
        forms = [LinearForm.zero()] * p.max_var()
        for i in (i for i in _MIXED if i <= len(forms)):
            if kind == "renaming":
                j = rng.choice(_MIXED)
                forms[i - 1] = LinearForm([0] * (j - 1) + [rng.choice([-2, 1, 3])])
            else:
                forms[i - 1] = sparse_form(rng, nterms=2)
        assert dict(p.compose(forms).terms) == compose_via_tuples(p, forms)


def test_packed_rf_sum_matches_tuple_lifting():
    rng = random.Random("packed-rf-sum")
    for _ in range(30):
        pool = [sparse_form(rng, nterms=2) for _ in range(3)]
        items = [
            rf(
                Fraction(rng.randint(-6, 6), rng.randint(1, 6)),
                sparse_poly(rng, nterms=3, maxexp=2),
                [(f, rng.randint(0, 2)) for f in pool if rng.random() < 0.7],
            )
            for _ in range(rng.randint(2, 5))
        ]
        assert rf_sum(items) == rf_sum_via_tuples(items)


def test_mul_form_matches_tuple_kernel():
    # out as None, empty and nonempty; a first row and later rows with
    # coefficient 1, -1 and 3; an empty lin
    rng = random.Random("mul-form")
    for first in (1, -1, 3, None):
        for _ in range(10):
            p, q = sparse_poly(rng), sparse_poly(rng)
            lin = []
            if first is not None:
                pool = rng.sample(_MIXED, rng.randint(1, 3))
                lin = [(pool[0], first)] + [(i, rng.choice([1, -1, 3])) for i in pool[1:]]
            packed = [(_unit(i), c) for i, c in lin]
            tuples = [(i - 1, c) for i, c in lin]
            for out, want in ((None, None), ({}, {}), (dict(q._terms), dict(q.terms))):
                before = dict(p._terms)
                got = algebra._mul_form(p._terms, packed, out)
                assert p._terms == before  # only out may change
                assert dict(Polynomial(got).terms) == _mul_form_via_tuples(p.terms, tuples, want)


def even_poly(rng, pool, nterms=5):
    """A polynomial whose exponents are all even, so the lowest bit of every
    occupied field is clear."""
    d = {}
    for _ in range(nterms):
        exps: dict = {}
        for _ in range(rng.randint(0, 3)):
            i = rng.choice(pool)
            exps[i] = exps.get(i, 0) + 2 * rng.randint(1, 2)
        width = max(exps, default=0)
        d[tuple(exps.get(i, 0) for i in range(1, width + 1))] = rng.choice([-3, -1, 1, 2])
    return poly(d)


def test_division_with_a_term_free_of_the_form_matches_tuple_kernel():
    # a term free of every variable of the form proves non-divisibility;
    # a divisible numerator keeps terms whose form variables have only even
    # exponents, in fields from the table too
    rng = random.Random("div-free-term")
    pool = (1, 2, 70, 1000, 1001)
    free = held = 0
    for _ in range(60):
        form = sparse_form(rng, pool=pool)
        variables = {i for i, c in enumerate(form.coeffs, start=1) if c}
        p = even_poly(rng, pool)
        square = p.mul_linear(form).mul_linear(form)
        for num in (p, p.mul_linear(form), square, square + even_poly(rng, pool, 2)):
            got, want = num.try_div_linear(form), try_div_linear_via_tuples(num, form)
            assert (got is None) == (want is None)
            if got is not None:
                assert dict(got.terms) == want
                held += 1
            elif any(
                not any(e and i in variables for i, e in enumerate(m, start=1))
                for m in num.terms
            ):
                free += 1
    assert free > 20 and held > 60


# The lift sizes from which rf_sum lifts in rows that send every sum to one
# kernel: on packed terms (``_lift_sum`` itself) or in rows (``_lift_rows``)
KERNELS = {"dict": float("inf"), "rows": 0}


def test_rf_sum_matches_full_lift_on_every_lifting_branch(monkeypatch):
    # groups whose summands all miss a unit, units of multiplicity 2,
    # non-integer scalars and sums that cancel to zero
    for bound in KERNELS.values():
        with monkeypatch.context() as mp:
            mp.setattr(algebra, "_ROWS_FROM", bound)
            rng = random.Random("rf_sum-branches")
            forms = [x1, x2, x1 + x2, x1 - x3, x2 + 2 * x3]
            calls = {"shared": 0, "split": 0}
            mul_form, split_unit = algebra._mul_form, algebra._split_unit

            def counting_mul_form(terms, lin, out=None):
                if out is None:  # only the units a whole group misses come without out
                    calls["shared"] += 1
                return mul_form(terms, lin, out)

            def counting_split_unit(*args):
                calls["split"] += 1
                return split_unit(*args)

            mp.setattr(algebra, "_mul_form", counting_mul_form)
            mp.setattr(algebra, "_split_unit", counting_split_unit)
            for _ in range(60):
                items = [
                    rf(
                        Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 3, 7])),
                        random_poly(rng, 3, nterms=3, maxexp=2),
                        [(f, rng.choice([0, 1, 2])) for f in forms],
                    )
                    for _ in range(rng.randint(2, 7))
                ]
                assert rf_sum(items) == rf_sum_via_full_lift(items)
                both = items + [-r for r in items]
                rng.shuffle(both)
                assert rf_sum(both) == RationalFunction.zero()
            assert calls["shared"] > 50 and calls["split"] > 50
            # the leaf sum, with no unit to lift: every summand's denominator
            # is (x1 + x2)(x1 - x3).  Plain summands only (generic's shape),
            # pairs only, and a mix in which the next summand cancels the
            # first, the scaled copy of the largest plain summand, to zero.
            den = [(x1 + x2, 1), (x1 - x3, 1)]
            big = rf(Fraction(3, 2), poly({(0, 2): 1, (0, 0, 1): -4, (0,): 7}), den)
            plain = [big, rf(-2, poly({(0, 1): 1}), den), rf(Fraction(5, 7), poly({(0, 2): 3, (0,): 1}), den)]
            pairs = [
                (rf(2, poly({(0, 1): 1, (0,): 1}), [den[0]]), rf(Fraction(-1, 3), poly({(0, 0, 2): 1}), [den[1]])),
                (rf(-1, poly({(0, 3): 1}), [den[1]]), rf(1, poly({(0, 0, 1): 1, (0,): 2}), [den[0]])),
            ]
            for items in (plain, pairs, [big, -big, *pairs, plain[1]]):
                built = [r[0] * r[1] if isinstance(r, tuple) else r for r in items]
                assert rf_sum(items) == rf_sum_via_full_lift(built)


def test_rf_sum_multiplies_a_unit_its_whole_group_misses_once(monkeypatch):
    # The summands miss {x1, x2, x3}, {x1, x2}, {}, {x3} and {x3}.  x3 is
    # the most missed unit, but the first two summands both miss x1 and x2,
    # so each of those multiplies their sum once, not each summand.
    for kernel, bound in KERNELS.items():
        with monkeypatch.context() as mp:
            mp.setattr(algebra, "_ROWS_FROM", bound)
            misses = [{x1, x2, x3}, {x1, x2}, set(), {x3}, {x3}]
            items = [
                rf(k + 1, poly({(0, 0, 0, k): 1}), [(f, 1) for f in (x1, x2, x3) if f not in miss])
                for k, miss in enumerate(misses)
            ]
            lins = []
            seen = {}  # the units' linear terms, and the rows the lifting tree uses
            mul_form, lift_sum, lift_rows = algebra._mul_form, algebra._lift_sum, algebra._lift_rows

            def counting(terms, lin, out=None):
                lins.append(lin)
                return mul_form(terms, lin, out)

            def rows(summands, todo, units):
                seen["units"] = units
                return lift_rows(summands, todo, units)

            def tree(summands, todo, units):
                seen.setdefault("units", units)
                seen.setdefault("tree", units)  # the first call is the top of the tree
                return lift_sum(summands, todo, units)

            mp.setattr(algebra, "_mul_form", counting)
            mp.setattr(algebra, "_lift_rows", rows)
            mp.setattr(algebra, "_lift_sum", tree)
            assert rf_sum(items) == rf_sum_via_full_lift(items)
            assert (seen["units"] is seen["tree"]) == (kernel == "dict")
            for form in (x1, x2):
                k = seen["units"].index(((_unit(form.max_var()), 1),))
                assert sum(lin is seen["tree"][k] for lin in lins) == 1


# ---------------------------------------------------------------------------
# lifting in rows: x_a's exponent as the digit of an integer
# ---------------------------------------------------------------------------


def spy_row_lifts(monkeypatch) -> list:
    """Patch ``_from_rows`` to record the rows of every row lift; returns
    the (growing) list of them."""
    lifts: list = []
    from_rows = algebra._from_rows

    def recording(rows, step):
        lifts.append(rows)
        return from_rows(rows, step)

    monkeypatch.setattr(algebra, "_from_rows", recording)
    return lifts


def test_row_lift_matches_full_lift(monkeypatch):
    # zero and nonzero sums, fractional scalars, pairs, units of
    # multiplicity 2, and opaque symbols in the numerators and forms
    monkeypatch.setattr(algebra, "_ROWS_FROM", 0)
    lifts = spy_row_lifts(monkeypatch)
    rng = random.Random("rows")
    forms = [x1, x2, x1 + x2, x1 - x3, x2 + 2 * x3]
    zeros = nonzero = 0

    def value(pool):
        den = [(rng.choice(forms), rng.choice([0, 1, 2])) for _ in range(3)]
        if rng.random() < 0.3:
            den.append((sparse_form(rng, nterms=2, pool=pool), 1))
        scalar = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 3, 7]))
        return rf(scalar, sparse_poly(rng, nterms=4, maxexp=2, pool=pool), den)

    for pool in ((1, 2, 3), _MIXED):
        for _ in range(40):
            items = [value(pool) for _ in range(rng.randint(2, 6))]
            got = rf_sum(items)
            assert _structure(got) == _structure(rf_sum_via_full_lift(items))
            nonzero += not got.is_zero()
            pairs = [(value(pool), value(pool)) for _ in range(rng.randint(1, 3))]
            _assert_sums_like_built_products(items + pairs)
            both = items + pairs + [-r for r in items] + [(-a, b) for a, b in pairs]
            rng.shuffle(both)
            assert rf_sum(both) == RationalFunction.zero()
            zeros += 1
    assert len(lifts) > 300 and nonzero > 60 and zeros == 80


def test_row_lift_holds_coefficients_up_to_the_digit_bound(monkeypatch):
    # Powers of (x1 - x2) lifted by n more: the coefficients are signed
    # binomials up to C(2n, n), within a small factor of the bound.  A sum
    # whose bound reaches 2**62 lifts on packed terms.
    monkeypatch.setattr(algebra, "_ROWS_FROM", 0)
    lifts = spy_row_lifts(monkeypatch)
    d = x1 - x2
    for n in (1, 5, 12, 20, 30):
        num = Polynomial.one()
        for _ in range(n):
            num = num.mul_linear(d)
        items = [
            rf(1, num, [(x1 + x2, 2)]),
            rf(-3, num, [(x1 + x3, 1), (x2, 1)]),
            rf(Fraction(5, 2), x3.as_polynomial(), [(d, n)]),
        ]
        before = len(lifts)
        assert _structure(rf_sum(items)) == _structure(rf_sum_via_full_lift(items))
        peak = max(map(abs, rf_sum_via_full_lift(items).numerator.terms.values()))
        assert (len(lifts) > before) == (n <= 20)
        assert peak.bit_length() > 30 or n < 20
    # digits at the decoder's own limit 2**63 - 1, of either sign
    step = _unit(1) - _unit(2)
    top = (1 << 63) - 1
    for digits in ([top, -top, 1], [-top, 0, top], [1, -1, -top, top], [0, 0, 0, -1]):
        row = sum(c << (64 * e) for e, c in enumerate(digits))
        key = (len(digits) - 1) * _unit(2)  # digit e is x1^e x2^(len - 1 - e)
        want = {key + e * step: c for e, c in enumerate(digits) if c}
        assert algebra._from_rows({key: row}, step) == want


def test_small_sums_lift_on_packed_terms_and_shuffle_cells_in_rows(monkeypatch):
    from mouldcalc.moulds import mu_log
    from mouldcalc.special import paj
    from mouldcalc.symmetry import _shuffle_sum

    # mu_log's own depth-5 sum lifts in rows too, so it is built before the
    # count starts
    log = mu_log(paj(5))
    lifts = spy_row_lifts(monkeypatch)
    rng = random.Random("row-rule")
    for _ in range(20):
        items = [random_rf(rng, 3) for _ in range(4)]
        assert rf_sum(items) == rf_sum_via_full_lift(items)
    assert lifts == []
    # cell (2, 3) of the alternality of mu_log(paj(5)): ten words lifted by
    # 21 units to a sum of about 10,000 terms, which vanishes
    assert _shuffle_sum(log, 2, 3).is_zero()
    assert len(lifts) == 1


# ---------------------------------------------------------------------------
# rf_sum over factor pairs: (a, b) stands for a * b
# ---------------------------------------------------------------------------


def _structure(r: RationalFunction) -> tuple:
    return r.scalar, r.numerator, r.denominator


def _assert_sums_like_built_products(items) -> RationalFunction:
    """rf_sum over items that mix values and pairs equals rf_sum over the
    same items with each pair's product built, structurally."""
    built = [r[0] * r[1] if isinstance(r, tuple) else r for r in items]
    got = rf_sum(items)
    assert _structure(got) == _structure(rf_sum(built))
    return got


def test_rf_sum_of_pairs_matches_built_products_on_every_lifting_branch(monkeypatch):
    # pairs mixed with values over forms at multiplicity 0 to 2, fractional
    # scalars, cancelling and constant factors, and sums that cancel to zero
    for bound in KERNELS.values():
        with monkeypatch.context() as mp:
            mp.setattr(algebra, "_ROWS_FROM", bound)
            rng = random.Random("rf_sum-pairs")
            forms = [x1, x2, x1 + x2, x1 - x3, x2 + 2 * x3]
            calls = {"shared": 0, "split": 0}
            mul_form, split_unit = algebra._mul_form, algebra._split_unit

            def counting_mul_form(terms, lin, out=None):
                if out is None:  # only the units a whole group misses come without out
                    calls["shared"] += 1
                return mul_form(terms, lin, out)

            def counting_split_unit(*args):
                calls["split"] += 1
                return split_unit(*args)

            def value():
                den = [(f, rng.choice([0, 0, 1, 2])) for f in forms]
                num = random_poly(rng, 3, nterms=3, maxexp=2)
                if rng.random() < 0.3:  # a numerator the other factor's form divides
                    num = num.mul_linear(rng.choice(forms))
                if rng.random() < 0.1:
                    num = Polynomial.one()
                scalar = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 3, 7]))
                return rf(scalar, num, den)

            mp.setattr(algebra, "_mul_form", counting_mul_form)
            mp.setattr(algebra, "_split_unit", counting_split_unit)
            cancelled = 0
            for _ in range(80):
                items = [
                    (value(), value()) if rng.random() < 0.6 else value()
                    for _ in range(rng.randint(1, 7))
                ]
                _assert_sums_like_built_products(items)
                cancelled += any(
                    isinstance(r, tuple)
                    and len((r[0] * r[1]).denominator) < len(set(r[0].denominator) | set(r[1].denominator))
                    for r in items
                )
                both = items + [(-r[0], r[1]) if isinstance(r, tuple) else -r for r in items]
                rng.shuffle(both)
                assert rf_sum(both) == RationalFunction.zero()
            assert calls["shared"] > 50 and calls["split"] > 50 and cancelled > 10


def test_rf_sum_of_pairs_edge_cases():
    # cross-cancellation removes a form: (x1 + x2)/x1 * 1/(x1 + x2) = 1/x1
    a = rf(1, (x1 + x2).as_polynomial(), [(x1, 1)])
    b = one_over_forms(x1 + x2)
    assert _structure(rf_sum([(a, b)])) == _structure(a * b) == _structure(one_over_forms(x1))
    _assert_sums_like_built_products([(a, b), one_over_forms(x2), (b, a)])
    # forms at multiplicity 2 and fractional scalars
    c = rf(Fraction(-3, 4), poly({(1, 2): 1, (0, 1): 5}), [(x1, 2), (x2 + x1, 1)])
    d = rf(Fraction(2, 9), (x1 + x2).as_polynomial(), [(x2, 2), (x1, 1)])
    _assert_sums_like_built_products([(c, d), (d, c), c, (c, c)])
    # a zero factor drops the pair; a constant factor scales the other
    zero, three = RationalFunction.zero(), rf(3, Polynomial.one())
    assert rf_sum([(zero, c), (d, zero)]) == RationalFunction.zero()
    assert _structure(rf_sum([(zero, c), d])) == _structure(d)
    _assert_sums_like_built_products([(three, c), (d, three), (ONE, c)])
    # a single pair is built as __mul__ builds it
    for p, q in ((a, b), (c, d), (three, c), (ONE, ONE)):
        assert _structure(rf_sum([(p, q)])) == _structure(p * q)
    # opaque fields above x_K, next to slot variables
    rng = random.Random("rf_sum-pairs-opaque")
    for _ in range(20):
        items = [
            (
                rf(1, sparse_poly(rng), [(sparse_form(rng), rng.randint(0, 2))]),
                rf(Fraction(1, 3), sparse_poly(rng), [(sparse_form(rng), 1)]),
            )
            for _ in range(rng.randint(1, 4))
        ]
        _assert_sums_like_built_products(items)
    # a sum that cancels to zero
    assert rf_sum([(c, d), -(c * d)]) == RationalFunction.zero()
    assert rf_sum([(c, d), (-c, d)]) == RationalFunction.zero()


def test_rf_sum_of_a_pair_raises_exponent_overflow_as_its_product_does():
    top = _MAX_EXP
    a = rf(1, poly({(top - 5,): 1}), [(x3, 1)])
    fits, over = rf(2, poly({(0, 5): 1})), rf(1, poly({(0, 6): 1}))
    assert _structure(rf_sum([(a, fits)])) == _structure(a * fits)
    _assert_sums_like_built_products([(a, fits), one_over_forms(x3)])
    with pytest.raises(ExponentOverflowError):
        a * over
    for items in ([(a, over)], [(a, over), one_over_forms(x3)], [(over, a), ONE]):
        with pytest.raises(ExponentOverflowError):
            rf_sum(items)


def test_packed_round_trips_at_high_indices():
    rng = random.Random("packed-round-trip")
    for _ in range(30):
        p = sparse_poly(rng)
        assert poly(p.terms) == p
        assert all(not m or m[-1] for m in p.terms)  # trimmed tuples
        padded = {m + (0,) * rng.randint(0, 2): c for m, c in p.terms.items()}
        assert poly(padded) == p
        r = rf(Fraction(rng.randint(1, 6), 5), p, [(sparse_form(rng), rng.randint(1, 2))])
        assert rf_from_json(rf_to_json(r)) == r
    m = (0,) * 1012 + (2,)
    assert poly({m: 3}).terms == {m: 3}
    assert rf_to_json(rf(1, poly({m: 3})))["numerator"] == [[list(m), "1"]]


def test_exponent_field_boundary_raises_never_wraps():
    top = _MAX_EXP
    big = poly({(top,): 1})
    assert big.terms == {(top,): 1} and big.degree() == top
    for d in ({(top + 1,): 1}, {(top, 1): 1}, {(0,) * 1000 + (top + 1,): 1}):
        with pytest.raises(ExponentOverflowError):
            poly(d)
    with pytest.raises(ValueError):
        poly({(1, -1): 1})
    # products: the degree field is checked once, before any term product
    a = poly({(top - 5,): 1})
    assert (a * poly({(0, 5): 2})).terms == {(top - 5, 5): 2}
    with pytest.raises(ExponentOverflowError):
        a * poly({(0, 6): 1})
    assert poly({(top - 1,): 1}).mul_linear(x2).terms == {(top - 1, 1): 1}
    with pytest.raises(ExponentOverflowError):
        big.mul_linear(x1)
    # sums: lifting to the common denominator multiplies by the missing forms
    near = rf(1, poly({(top - 1,): 1}), [(x2, 1)])
    assert rf_sum([near, rf(1, Polynomial.one(), [(x3, 1)])]) == rf_sum_via_tuples(
        [near, rf(1, Polynomial.one(), [(x3, 1)])]
    )
    with pytest.raises(ExponentOverflowError):
        rf_sum([rf(1, big, [(x2, 1)]), rf(1, Polynomial.one(), [(x3, 1)])])
    assert issubclass(ExponentOverflowError, ArithmeticError)


# ---------------------------------------------------------------------------
# the field table: variables above x_K get fields in order of first use
# ---------------------------------------------------------------------------


def fresh_indices(n):
    """The n lowest indices above x_K that have no field yet."""
    free = (i for i in itertools.count(algebra._K + 1) if i not in algebra._FIELD_OF)
    return list(itertools.islice(free, n))


def run_fresh(script: str, *args: str) -> str:
    """Standard output of ``script`` run in a fresh interpreter, whose field
    table holds only what the script packs."""
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_fields_given_out_of_index_order_keep_grlex_on_indices():
    a, b, c = fresh_indices(3)
    for i in (c, a, b):  # x_c gets its field first
        Polynomial.variable(i)
    assert algebra._field(c) < algebra._field(a) < algebra._field(b)
    pool = (1, 2, 3, a, b, c)
    rng = random.Random("out-of-order")
    for _ in range(40):
        p = sparse_poly(rng, pool=pool)
        if p.is_zero():
            continue
        lead = max(p.terms, key=lambda m: (sum(m), m))
        assert p.leading_monomial() == lead
        sign, prim = p.content_sign_primitive()
        assert prim.terms[lead] > 0 and prim * sign == p
        assert_renders_like_tuples(p)
        k = rng.randint(1, 3)
        assert dict(p.shift(k).terms) == {
            ((0,) * k + m if m else m): v for m, v in p.terms.items()
        }
        forms = [LinearForm.zero()] * p.max_var()
        for i in (i for i in pool if i <= len(forms)):
            forms[i - 1] = sparse_form(rng, nterms=2, pool=pool)
        assert dict(p.compose(forms).terms) == compose_via_tuples(p, forms)
        q = sparse_poly(rng, pool=pool)
        assert dict((p * q).terms) == mul_via_tuples(p, q)
        form = sparse_form(rng, pool=pool)
        num = p.mul_linear(form)
        assert dict(num.try_div_linear(form).terms) == try_div_linear_via_tuples(num, form)
    # x_a^2 leads x_c^2 by index, though x_c's field is the lower one
    sq = poly({(0,) * (c - 1) + (2,): 1, (0,) * (a - 1) + (2,): -1})
    assert sq.leading_monomial() == (0,) * (a - 1) + (2,)
    assert sq.content_sign_primitive()[0] == -1
    r = rf(1, sq, [(LinearForm((1,) + (0,) * (c - 2) + (-2,)), 1)])
    assert rf_str(r) == f"(-1)*(x{a}^2 - x{c}^2)/[(x1 - 2*x{c})]"
    assert rf_latex(r) == (
        f"-\\frac{{x_{{{a}}}^{{2}} - x_{{{c}}}^{{2}}}}"
        f"{{\\left(x_{{1}} - 2 x_{{{c}}}\\right)}}"
    )
    assert rf_from_json(rf_to_json(r)) == r


_HISTORY = """
import json, sys
from mouldcalc.algebra import Polynomial, RationalFunction, rf_latex, rf_str, rf_sum
from mouldcalc.algebra import rf_to_json, x_var

order = [int(i) for i in sys.argv[1:]]
for i in order:
    Polynomial.variable(i)
a, b, c = sorted(order)
X = lambda i: RationalFunction.make(1, Polynomial.variable(i))
r = rf_sum([X(c) * X(c), -(X(a) * X(a)) * 3, X(b).div_linear(x_var(1) + x_var(2))])
print(rf_str(r), rf_latex(r), json.dumps(rf_to_json(r)), sep="\\n")
"""


def test_output_does_not_depend_on_the_order_fields_were_given():
    forward = run_fresh(_HISTORY, "5001", "5002", "5003")
    assert forward == run_fresh(_HISTORY, "5003", "5001", "5002")
    # -3 x1 x_a^2 leads: x_a is the lowest index where it and x1 x_c^2 differ
    assert forward.startswith("(-1)*(3*x1*x5001^2 ")


def test_high_index_monomial_packs_into_a_few_fields():
    # the degree field, sixteen slot fields and one byte per table variable
    script = (
        "from mouldcalc.algebra import Polynomial, poly_latex, poly_str\n"
        "p = Polynomial.variable(10**6) * Polynomial.variable(10**6 + 1)\n"
        "(m,) = p._terms\n"
        "print(m.bit_length() <= 16 * 17 + 16, poly_str(p), poly_latex(p))\n"
    )
    assert run_fresh(script) == "True x1000000*x1000001 x_{1000000} x_{1000001}\n"


def test_exponent_field_boundary_raises_for_high_fields_too():
    top = _MAX_TABLE_EXP
    assert top == 255
    a, b = fresh_indices(2)
    high = poly({(0,) * (a - 1) + (top - 5,): 1})
    assert (high * poly({(0,) * (b - 1) + (5,): 2})).terms == {
        (0,) * (a - 1) + (top - 5,) + (0,) * (b - a - 1) + (5,): 2
    }
    with pytest.raises(ExponentOverflowError):
        high * poly({(0,) * (b - 1) + (6,): 1})
    with pytest.raises(ExponentOverflowError):
        poly({(0,) * (b - 1) + (top + 1,): 1})
    near = poly({(0,) * (a - 1) + (top - 1,): 1})
    assert near.mul_linear(LinearForm.variable(b)).degree() == top
    with pytest.raises(ExponentOverflowError):
        near.mul_linear(LinearForm.variable(b)).mul_linear(LinearForm.variable(a))


def test_table_fields_hold_255_and_refuse_256():
    """A table field is one byte: an exponent of 255 fits and 256 raises
    wherever a monomial is packed or a degree grows into the table, while a
    slot field still takes _MAX_EXP."""
    top = _MAX_TABLE_EXP
    (a,) = fresh_indices(1)
    xa = LinearForm.variable(a)

    def mono(*pairs):
        exps = [0] * max(i for i, _ in pairs)
        for i, e in pairs:
            exps[i - 1] = e
        return poly({tuple(exps): 1})

    # packing: from_dict and JSON, under the degree rule of a product
    assert mono((a, top)).terms == {(0,) * (a - 1) + (top,): 1}
    for p in (mono((a, top)), mono((1, top - 1), (a, 1)), mono((1, 300))):
        r = rf(1, p)
        assert rf_from_json(rf_to_json(r)) == r
    # x_a^256, and x_1^300 x_a: with a table variable the degree is at most
    # 255 where a tuple is packed, as in a product, so whatever packs
    # can be multiplied
    for exps in ((0,) * (a - 1) + (top + 1,), (300,) + (0,) * (a - 2) + (1,)):
        over = {"scalar": "1", "numerator": [[list(exps), "1"]], "denominator": []}
        for make in (lambda: poly({exps: 1}), lambda: rf_from_json(over)):
            with pytest.raises(ExponentOverflowError):
                make()
    # a product: the total degree bounds every exponent
    assert dict((mono((a, 200)) * mono((1, top - 200))).terms) == mul_via_tuples(
        mono((a, 200)), mono((1, top - 200))
    )
    with pytest.raises(ExponentOverflowError):
        mono((a, 200)) * mono((1, top - 199))
    assert (mono((1, 300)) * mono((2, 300))).terms == {(300, 300): 1}
    # a product with a linear form: a table variable in the form or in the terms
    assert mono((1, top - 1)).mul_linear(xa).terms == mono((1, top - 1), (a, 1)).terms
    for p, form in ((mono((1, top)), xa), (mono((a, top)), x1)):
        with pytest.raises(ExponentOverflowError):
            p.mul_linear(form)
    assert mono((1, 300)).mul_linear(x2).terms == {(300, 1): 1}
    # the lifting of a sum multiplies by the forms a summand misses
    for num, form in ((mono((a, top - 1)), x3), (mono((1, top - 1)), xa)):
        items = [rf(1, num, [(x2, 1)]), one_over_forms(form)]
        assert rf_sum(items) == rf_sum_via_tuples(items)
    for num, form in ((mono((a, top)), x3), (mono((1, top)), xa)):
        with pytest.raises(ExponentOverflowError):
            rf_sum([rf(1, num, [(x2, 1)]), one_over_forms(form)])
    items = [rf(1, mono((1, 300)), [(x2, 1)]), one_over_forms(x3)]
    assert rf_sum(items) == rf_sum_via_tuples(items)
    # a substitution onto x_17 and above, by renaming and by Horner
    for forms in ([xa], [x2 + xa]):
        p = mono((1, top))
        assert dict(p.compose(forms).terms) == compose_via_tuples(p, forms)
        with pytest.raises(ExponentOverflowError):
            mono((1, top + 1)).compose(forms)
    assert mono((1, 300)).compose([x2 + x3]).degree() == 300
    # a shift across x_16
    assert mono((16, top)).shift(1).terms == mono((17, top)).terms
    with pytest.raises(ExponentOverflowError):
        mono((16, top + 1)).shift(1)
    assert mono((1, _MAX_EXP)).shift(15).terms == mono((16, _MAX_EXP)).terms


_ROUND_TRIP = """
import json, random, sys
sys.path.insert(0, sys.argv[1])
from helpers import mul_via_tuples, monomial_latex_via_tuple, monomial_str_via_tuple
from mouldcalc import algebra
from mouldcalc.algebra import ExponentOverflowError, Polynomial, RationalFunction
from mouldcalc.algebra import poly_latex, poly_str, rf_from_json, rf_to_json

order = json.loads(sys.argv[2])
for i in order:
    Polynomial.variable(i)
assert algebra._in_index_order == (order == sorted(order))
assert len(algebra._INDEX_OF) == len(order) > 256


def text(d, mono, times):
    out = []
    for m, c in sorted(d.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True):
        t = mono(m)
        piece = str(abs(c)) if not m else t if abs(c) == 1 else f"{abs(c)}{times}{t}"
        out.append((("" if c > 0 else "-") if not out else ("+ " if c > 0 else "- ")) + piece)
    return " ".join(out) or "0"


rng = random.Random("table-round-trip")
pool = list(range(1, 17)) + order[:3] + order[-40:]
width = max(pool)
for k in range(60):
    d = {}
    for _ in range(rng.randint(1, 6)):
        exps = [0] * width
        if k % 2:  # degree 255 in two table variables: terms differ in table fields
            i, j = rng.sample(pool[16:], 2)
            exps[i - 1] = rng.choice([1, 127, 128, 254])
            exps[j - 1] = 255 - exps[i - 1]
        else:
            for i in rng.sample(pool, rng.randint(0, 4)):
                exps[i - 1] = rng.choice([1, 2, 127, 128, 255]) if i > 16 else rng.randint(1, 300)
        n = len(exps)
        while n and not exps[n - 1]:
            n -= 1
        if n > 16 and sum(exps) > 255:  # a table variable: degree 255 at most
            try:
                Polynomial.from_dict({tuple(exps[:n]): 1})
            except ExponentOverflowError:
                continue
            raise AssertionError(f"degree {sum(exps)} with a table variable packed")
        d[tuple(exps[:n])] = rng.choice([-7, -1, 1, 2, 5])
    if not d:
        continue
    p = Polynomial.from_dict(d)
    assert dict(p.terms) == d
    assert p.leading_monomial() == max(d, key=lambda m: (sum(m), m))
    assert poly_str(p) == text(d, monomial_str_via_tuple, "*")
    assert poly_latex(p) == text(d, monomial_latex_via_tuple, " ")
    r = RationalFunction.make(1, p)
    rows = rf_to_json(r)["numerator"]
    want = sorted(d.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
    assert [(tuple(m), int(c) * r.scalar) for m, c in rows] == want
    assert rf_from_json(rf_to_json(r)) == r
    # a product whose degree a table field holds
    q = Polynomial.from_dict({m: c for m, c in d.items() if sum(m) < 255})
    s = Polynomial.from_dict({(0,) * (order[-1] - 1) + (1,): 1, (1,): 1})
    assert dict((q * s).terms) == mul_via_tuples(q, s)
print("ok")
"""


@pytest.mark.parametrize("shuffled", [False, True], ids=["index-order", "shuffled"])
def test_table_fields_past_256_round_trip_against_tuples(shuffled):
    # more than 256 table fields, so field numbers and byte offsets pass a byte
    order = list(range(3001, 3301))
    if shuffled:
        random.Random("table-order").shuffle(order)
    assert run_fresh(_ROUND_TRIP, str(_ROOT / "tests"), json.dumps(order)) == "ok\n"


def test_field_table_grows_consistently_under_threads():
    indices = fresh_indices(300)
    before = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=lambda k=k: [algebra._field(i) for i in indices[k::2] + indices])
            for k in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(before)
    fields = [algebra._FIELD_OF[i] for i in indices]
    assert len(set(fields)) == len(indices)
    assert all(algebra._index(f) == i for f, i in zip(fields, indices))


def test_packed_polynomials_are_not_pickled():
    with pytest.raises(TypeError):
        pickle.dumps(Polynomial.variable(1))
    with pytest.raises(TypeError):
        pickle.dumps(rf(1, Polynomial.variable(2), [(x1, 1)]))


# ---------------------------------------------------------------------------
# scalars: an int exactly when integral, never a float
# ---------------------------------------------------------------------------


def assert_canonical_scalar(r: RationalFunction) -> None:
    """The scalar is an int when integral and a Fraction with denominator
    above 1 otherwise; every coefficient is an int; a constant value reads
    as a Fraction."""
    s = r.scalar
    assert type(s) in (int, Fraction), type(s)
    assert (type(s) is int) == (Fraction(s).denominator == 1), repr(s)
    assert all(type(c) is int for c in r.numerator._terms.values())
    assert all(type(c) is int for f, _ in r.denominator for c in f.coeffs)
    if r.is_constant():
        assert type(r.constant_value()) is Fraction


def _random_letter(rng: random.Random, nvars: int = 3) -> LinearForm:
    while True:
        coeffs = [rng.randint(-3, 3) for _ in range(nvars)]
        if any(coeffs):
            return LinearForm(coeffs)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_scalars_are_ints_exactly_when_integral(seed):
    rng = random.Random(seed)
    f, g = random_rf(rng), random_rf(rng)
    k = rng.choice([2, -3, 4, 6])
    q = Fraction(rng.choice([-4, -2, 1, 3, 6]), rng.randint(1, 6))
    form = _random_letter(rng)
    values = [
        f, g, f + g, f - g, -f, f * g, f * k, k * f, f * q, f / k, f / q,
        f.mul_linear(form),
        f.div_linear(form),
        f.shift(2),
        rf_sum([(f, g), g, (g * q, f)]),
        rf_from_json(rf_to_json(f * q)),
        rf(q, f.numerator, [(form, 2)]),
        rf(k, f.numerator, [(form * k, 1)]),
        rf(Fraction(k * 3, 3), f.numerator),
    ]
    # letters with content other than 1: an echelon word, which tries no
    # form, and a random one, which tries every form
    scaled = [x1 * k, x2 * -2, x3 * 3]
    for word in (scaled, [_random_letter(rng) for _ in range(3)]):
        try:
            values.append(f.substitute(word))
        except ZeroDenominatorError:
            pass
    for r in values:
        assert_canonical_scalar(r)


_X1 = {(1,): 1}
_HALF_X1 = (Fraction(1, 2), poly(_X1))
_INTEGRAL_BUILDS = {
    "make": lambda: rf(Fraction(6, 3), poly(_X1)),
    "make-content": lambda: rf(Fraction(1, 3), poly({(): 3})),
    "product": lambda: rf(*_HALF_X1) * rf(2, poly({(0, 1): 1})),
    "int-times": lambda: rf(*_HALF_X1) * 2,
    "fraction-times": lambda: rf(*_HALF_X1) * Fraction(4, 3) * 3,
    "int-divide": lambda: rf(3, poly(_X1)) / 3,
    "fraction-divide": lambda: rf(Fraction(3, 2), poly(_X1)) / Fraction(3, 2),
    "div_linear": lambda: rf(4, poly(_X1)).div_linear(x2 * 2),
    "mul_linear": lambda: rf(*_HALF_X1, [(x2, 1)]).mul_linear(x3 * 2),
    "substitute-echelon": lambda: rf(4, poly(_X1), [(x2, 1)]).substitute([x1, x2 * 2]),
    "substitute-numerator": lambda: rf(Fraction(1, 2), poly({(2,): 1})).substitute([x1 * 2]),
    "substitute-dependent": lambda: rf(3, poly({(1, 1): 1}), [(x1 + x2, 1)]).substitute(
        [x1 * 2 + x2 * 2, x1 + x2]
    ),
    "shift": lambda: rf(4, poly(_X1), [(x1 * 2, 1)]).shift(1),
    "rf_sum": lambda: rf_sum([rf(*_HALF_X1), rf(*_HALF_X1)]),
    "rf_sum-pair": lambda: rf_sum([(rf(*_HALF_X1), rf(2, poly({(0, 1): 1}))), ONE]),
    "rf_sum-one-pair": lambda: rf_sum([(rf(*_HALF_X1), rf(2, poly({(0, 1): 1})))]),
    "json": lambda: rf_from_json(
        {"scalar": "4/2", "numerator": [[[1], "1"]], "denominator": []}
    ),
}


@pytest.mark.parametrize("build", _INTEGRAL_BUILDS.values(), ids=_INTEGRAL_BUILDS.keys())
def test_integral_scalars_are_ints_at_every_builder(build):
    # each value has an integral scalar, reached through one builder
    r = build()
    assert type(r.scalar) is int
    assert_canonical_scalar(r)


def test_an_int_scalar_reads_as_the_integral_fraction_did():
    # the same value with its scalar held as Fraction(-2), as before ints
    a = rf(-2, poly({(1,): 1, (0, 1): 1}), [(x1 + x3, 2)])
    b = RationalFunction(Fraction(-2), a.numerator, a.denominator)
    assert type(a.scalar) is int
    assert a == b and hash(a) == hash(b)
    assert rf_str(a) == rf_str(b) and rf_latex(a) == rf_latex(b)
    assert rf_to_json(a) == rf_to_json(b)
    assert type(ONE.constant_value()) is Fraction and ONE.constant_value() == 1
    assert type(RationalFunction.zero().scalar) is int


# ---------------------------------------------------------------------------
# rendering and JSON
# ---------------------------------------------------------------------------


def test_json_round_trip():
    f = rf(Fraction(-3, 4), poly({(1, 2): 5, (): -1}), [(x1, 2), (x1 + x2, 1)])
    assert rf_from_json(rf_to_json(f)) == f
    z = RationalFunction.zero()
    assert rf_from_json(rf_to_json(z)) == z


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_json_round_trip_random(seed):
    rng = random.Random(seed)
    f = random_rf(rng)
    assert rf_from_json(rf_to_json(f)) == f


def assert_renders_like_tuples(p):
    """Term order, monomial text and JSON exponent lists of ``p`` match the
    full exponent tuples."""
    indices, got = algebra._sorted_terms(p)
    want = sorted_terms_via_tuples(p)
    assert [t[2] for t in got] == [c for _, c in want]
    json_rows = rf_to_json(RationalFunction.make(1, p))["numerator"]
    assert [row[0] for row in json_rows] == [list(m) for m, _ in want]
    for var in ("x", "y"):
        names = [f"{var}{i}" for i in indices]
        assert [algebra._monomial_text(names, e, algebra._PLAIN) for _, e, _ in got] == [
            monomial_str_via_tuple(m, var) for m, _ in want
        ]
        names = [f"{var}_{{{i}}}" for i in indices]
        assert [algebra._monomial_text(names, e, algebra._LATEX) for _, e, _ in got] == [
            monomial_latex_via_tuple(m, var) for m, _ in want
        ]


def test_rendering_from_occupied_fields_matches_full_exponent_tuples():
    # on slot variables mixed with opaque-symbol indices and on the first
    # few variables alone
    rng = random.Random("render")
    # slot exponents past one byte; a table field holds at most 255 (3 * 85)
    polys = [sparse_poly(rng, nterms=8, maxexp=300, pool=(1, 2, 3, 7, 16)) for _ in range(30)]
    polys += [sparse_poly(rng, nterms=8, maxexp=85) for _ in range(30)]
    polys += [random_rf(rng, nvars=4).numerator for _ in range(60)]  # few variables
    for p in polys:
        assert_renders_like_tuples(p)


def test_forms_render_from_coefficients_as_polynomials_do():
    rng = random.Random("forms")
    forms = [sparse_form(rng, nterms=4) for _ in range(40)]
    forms += [LinearForm([rng.choice([-3, -1, 0, 1, 2]) for _ in range(5)]) for _ in range(40)]
    for f in forms:
        assert algebra.form_str(f) == algebra.poly_str(f.as_polynomial())
        assert algebra.form_latex(f) == algebra.poly_latex(f.as_polynomial())


def test_render_plain_and_latex():
    f = rf(Fraction(1, 12), poly({(1,): 1, (0, 1): 2}), [(x1, 1), (x2, 1), (x1 + x2, 1)])
    s = rf_str(f)
    assert "1/12" in s and "x1 + 2*x2" in s
    t = rf_latex(f)
    assert "12" in t and t.count("x_{1}") >= 2
    assert rf_str(RationalFunction.zero()) == "0"
    assert rf_latex(RationalFunction.one()) == "1"
