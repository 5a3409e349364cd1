"""Word algebra, shuffle product, and the elementary mould operations."""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mouldcalc.algebra import Polynomial, RationalFunction, one_over_forms, x_var
from mouldcalc.moulds import (
    DepthExceededError,
    Mould,
    NotDefinedError,
    NotInvertibleError,
    canonical_word,
    dur,
    dur_scale,
    dur_unscale,
    equal_mod_depth,
    leng,
    lu,
    mould_from_json,
    mould_to_json,
    mu,
    mu_exp,
    mu_inverse,
    mu_log,
    neg,
    sharp,
    shuffle,
    word,
)
from mouldcalc.special import paj, pal, sa

from helpers import (
    mu_exp_via_shift,
    mu_inverse_via_shift,
    mu_log_via_shift,
    mu_via_shift,
    random_ari_mould,
    random_gari_mould,
)

x1, x2, x3 = x_var(1), x_var(2), x_var(3)


# ---------------------------------------------------------------------------
# shuffle
# ---------------------------------------------------------------------------


def test_shuffle_two_letters():
    got = shuffle(word(x1), word(x2))
    assert got == {word(x1, x2): 1, word(x2, x1): 1}


def test_shuffle_empty_is_unit():
    w = word(x1, x3)
    assert shuffle(word(), w) == {w: 1}
    assert shuffle(w, word()) == {w: 1}


def test_shuffle_one_with_two():
    got = shuffle(word(x1), word(x2, x3))
    assert got == {
        word(x1, x2, x3): 1,
        word(x2, x1, x3): 1,
        word(x2, x3, x1): 1,
    }


def test_shuffle_repeated_letters_multiplicity():
    got = shuffle(word(x1), word(x1))
    assert got == {word(x1, x1): 2}


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3))
def test_shuffle_coefficient_count(p, q):
    left = canonical_word(p)
    right = canonical_word(q, offset=p)
    got = shuffle(left, right)
    assert sum(got.values()) == comb(p + q, p)


# ---------------------------------------------------------------------------
# mould evaluation
# ---------------------------------------------------------------------------


def test_evaluate_paj_on_word():
    P = paj(3)
    got = P.eval_word(word(x1, x2))
    assert got == one_over_forms(x1, x1 + x2)


def test_evaluate_on_composite_letters():
    P = paj(3)
    got = P.eval_word(word(x1 + x2, x3))
    assert got == one_over_forms(x1 + x2, x1 + x2 + x3)


def test_evaluate_empty_word():
    P = paj(2)
    assert P.eval_word(word()) == RationalFunction.one()


def test_depth_exceeded():
    P = paj(2)
    with pytest.raises(DepthExceededError):
        P.eval_word(word(x1, x2, x3))


# ---------------------------------------------------------------------------
# mu and friends
# ---------------------------------------------------------------------------


def test_mu_unit_law():
    M = random_ari_mould(random.Random(3), 4)
    assert mu(Mould.unit(4), M) == M
    assert mu(M, Mould.unit(4)) == M


def test_mu_depth2_expansion():
    rng = random.Random(5)
    M = random_gari_mould(rng, 2)
    N = random_gari_mould(rng, 2)
    got = mu(M, N).component(2)
    want = (
        M.component(0) * N.component(2)
        + M.component(1) * N.component(1).shift(1)
        + M.component(2) * N.component(0)
    )
    assert got == want


def test_mu_paj_squared_depth1():
    got = mu(paj(2), paj(2)).component(1)
    assert got == one_over_forms(x1) * 2


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_mu_associative(seed):
    rng = random.Random(seed)
    A, B, C = (random_ari_mould(rng, 5) for _ in range(3))
    assert mu(mu(A, B), C) == mu(A, mu(B, C))


def test_lu_antisymmetry_and_zero():
    rng = random.Random(11)
    M = random_ari_mould(rng, 3)
    N = random_ari_mould(rng, 3)
    assert lu(M, M).is_zero()
    assert lu(M, N) == -lu(N, M)


def test_lu_depth1_component_vanishes():
    rng = random.Random(13)
    M = random_ari_mould(rng, 3)
    N = random_ari_mould(rng, 3)
    assert lu(M, N).component(1).is_zero()


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_lu_jacobi(seed):
    rng = random.Random(seed)
    M, N, P = (random_ari_mould(rng, 4) for _ in range(3))
    total = lu(lu(M, N), P) + lu(lu(N, P), M) + lu(lu(P, M), N)
    assert total.is_zero()


def test_mu_inverse_unit():
    assert mu_inverse(Mould.unit(3)) == Mould.unit(3)


def test_mu_inverse_paj_depth1():
    assert mu_inverse(paj(3)).component(1) == -one_over_forms(x1)


def test_mu_inverse_defining_property():
    P = paj(5)
    assert mu(P, mu_inverse(P)) == Mould.unit(5)
    assert mu(mu_inverse(P), P) == Mould.unit(5)


def test_mu_inverse_requires_unit_constant():
    with pytest.raises(NotInvertibleError):
        mu_inverse(Mould.zero(2))


def test_mu_log_unit_is_zero():
    assert mu_log(Mould.unit(3)).is_zero()


def test_mu_log_paj_low_depths():
    L = mu_log(paj(3))
    assert L.component(1) == one_over_forms(x1)
    want = one_over_forms(x1, x1 + x2) - one_over_forms(x1, x2) * Fraction(1, 2)
    assert L.component(2) == want


def test_mu_exp_log_roundtrip():
    P = paj(5)
    assert mu_exp(mu_log(P)) == P
    rng = random.Random(17)
    A = random_ari_mould(rng, 4)
    assert mu_log(mu_exp(A)) == A


def test_mu_log_requires_group_element():
    with pytest.raises(NotDefinedError):
        mu_log(Mould.zero(2))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_product_and_series_match_shift_oracles(seed):
    # mu, mu_inverse, mu_exp and mu_log materialize the word-level product;
    # the oracles are the former component-wise forms built from shifts
    rng = random.Random(seed)
    S, T = random_gari_mould(rng, 4), random_gari_mould(rng, 4)
    A = random_ari_mould(rng, 4)
    P, Q = paj(5), pal(5)
    cases = [
        (mu, mu_via_shift, (S, T)),
        (mu, mu_via_shift, (P, Q)),
        (mu_inverse, mu_inverse_via_shift, (S,)),
        (mu_inverse, mu_inverse_via_shift, (Q,)),
        (mu_exp, mu_exp_via_shift, (A,)),
        (mu_exp, mu_exp_via_shift, (Q - Mould.unit(5),)),
        (mu_log, mu_log_via_shift, (S,)),
        (mu_log, mu_log_via_shift, (P,)),
        (mu_log, mu_log_via_shift, (Q,)),
    ]
    for fn, oracle, args in cases:
        assert fn(*args) == oracle(*args), fn.__name__


# ---------------------------------------------------------------------------
# unary operators
# ---------------------------------------------------------------------------


def test_neg_involution():
    M = random_ari_mould(random.Random(19), 4)
    assert neg(neg(M)) == M


def test_neg_even_component():
    assert neg(sa(3, 2)) == sa(3, 2)


def test_neg_paj_depth2():
    got = neg(paj(2)).component(2)
    assert got == one_over_forms(x1, x1 + x2)  # signs cancel at even depth


def test_neg_odd_sign():
    got = neg(paj(1)).component(1)
    assert got == -one_over_forms(x1)


def test_dur_scale_unscale_roundtrip():
    M = random_ari_mould(random.Random(23), 4)
    assert dur_unscale(dur_scale(M)) == M


def test_dur_scale_sa3():
    got = dur_scale(sa(3, 1)).component(1)
    assert got == RationalFunction.make(1, Polynomial.from_dict({(3,): 1}))


def test_dur_scale_matches_dur_mould():
    # pointwise product with the dur mould, depth by depth
    M = random_ari_mould(random.Random(29), 3)
    D = dur(3)
    scaled = dur_scale(M)
    for m in range(1, 4):
        assert scaled.component(m) == M.component(m) * D.component(m)


def test_dur_unscale_requires_zero_constant():
    with pytest.raises(NotDefinedError):
        dur_unscale(Mould.unit(2))


def test_sharp_depth1_identity():
    M = random_ari_mould(random.Random(31), 3)
    assert sharp(M).component(1) == M.component(1)


def test_sharp_simple():
    f = one_over_forms(x3)
    M = Mould([RationalFunction.zero()] * 3 + [f])
    assert sharp(M).component(3) == one_over_forms(x1 + x2 + x3)


def test_leng_projections():
    P = paj(3)
    l1 = leng(1, P)
    assert l1.component(1) == one_over_forms(x1)
    assert l1.component(0).is_zero() and l1.component(2).is_zero()
    l0 = leng(0, P)
    assert l0 == Mould.unit(3)
    total = Mould.zero(3)
    for r in range(4):
        total = total + leng(r, P)
    assert total == P


def test_linearity_of_unary_operators():
    rng = random.Random(37)
    M = random_ari_mould(rng, 3)
    N = random_ari_mould(rng, 3)
    c = Fraction(3, 7)
    for op in (neg, dur_scale, sharp, lambda X: leng(2, X)):
        assert op(M + N * c) == op(M) + op(N) * c


def test_equal_mod_depth():
    P = paj(4)
    Q = Mould(list(P.components[:4]) + [RationalFunction.zero()])
    assert equal_mod_depth(P, Q, 4)
    assert not equal_mod_depth(P, Q, 5)
    assert equal_mod_depth(P, P, 5)
    with pytest.raises(DepthExceededError):
        equal_mod_depth(P, Q, 6)


def test_mould_json_round_trip():
    P = paj(3)
    assert mould_from_json(mould_to_json(P)) == P


def test_mould_validates_components():
    with pytest.raises(ValueError):
        Mould([one_over_forms(x1)])  # depth-0 slot cannot use x1
