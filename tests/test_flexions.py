"""Flexion operators: factorizations, ari/gari toolbox, lazy/eager agreement."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mouldcalc.algebra import RationalFunction, x_var
from mouldcalc.flexions import (
    LazyMould,
    adari,
    ari,
    arit,
    expari,
    flexion_down,
    flexion_up,
    gari,
    garit,
    garit_factorizations,
    invgari,
    lazy_adari,
    lazy_expari,
    lazy_gari,
    lazy_mu_inverse,
    logari,
    preari,
    preari_n,
    tri_factorizations,
)
from mouldcalc.generic import OpaqueMould, SymbolRegistry
from mouldcalc.moulds import (
    Mould,
    NotDefinedError,
    NotInvertibleError,
    canonical_word,
    dur_scale,
    dur_unscale,
    leng,
    mu,
    mu_inverse,
    mu_log,
    neg,
    sharp,
    word,
)
from mouldcalc.special import mupaj, paj, pal, sa, sang

from helpers import (
    adari_via_logari,
    expari_via_materialized_chain,
    gari_via_shift_mu,
    mu_inverse_via_shift,
    random_ari_mould,
    random_gari_mould,
)

x1, x2, x3, x4 = (x_var(i) for i in range(1, 5))


# ---------------------------------------------------------------------------
# flexions and factorizations
# ---------------------------------------------------------------------------


def test_flexion_up():
    assert flexion_up(word(x1), word(x2, x3)) == word(x1 + x2, x3)
    assert flexion_up(word(), word(x2, x3)) == word(x2, x3)
    assert flexion_up(word(x2, x3), word()) == word()


def test_flexion_down():
    assert flexion_down(word(x1, x2), word(x3)) == word(x1, x2 + x3)
    assert flexion_down(word(x1, x2), word()) == word(x1, x2)
    assert flexion_down(word(), word(x3)) == word()


def test_tri_factorizations_count():
    w = canonical_word(3)
    items = list(tri_factorizations(w))
    assert len(items) == 10  # C(5,2) splittings of 3 letters into 3 blocks
    assert len(set(items)) == len(items)
    for a, b, c in items:
        assert a + b + c == w


def test_garit_factorizations_constraints():
    w = canonical_word(3)
    seen = set()
    for blocks in garit_factorizations(w):
        flat = tuple(part for blk in blocks for part in blk)
        assert sum((part for part in flat), ()) == w
        for a, b, c in blocks:
            assert b  # middle block never empty
        for (_, _, c), (a2, _, _) in zip(blocks, blocks[1:]):
            assert c or a2  # adjacent gap never empty
        assert blocks not in seen
        seen.add(blocks)
    # depth 1: only the trivial factorization
    assert list(garit_factorizations(canonical_word(1))) == [
        ((word(), word(x1), word()),)
    ]


# ---------------------------------------------------------------------------
# arit / preari / ari
# ---------------------------------------------------------------------------


def test_arit_low_depths_vanish():
    rng = random.Random(1)
    M, N = random_ari_mould(rng, 3), random_ari_mould(rng, 3)
    out = arit(N)(M)
    assert out.component(0).is_zero() and out.component(1).is_zero()


def test_arit_depth2_closed_form():
    rng = random.Random(2)
    M, N = random_ari_mould(rng, 2), random_ari_mould(rng, 2)
    got = arit(N)(M).component(2)
    want = M.eval_word(word(x1 + x2)) * (
        N.eval_word(word(x1)) - N.eval_word(word(x2))
    )
    assert got == want


def test_arit_zero_operand():
    M = random_ari_mould(random.Random(3), 3)
    assert arit(Mould.zero(3))(M).is_zero()


def test_arit_linearity():
    rng = random.Random(4)
    M, N, P = (random_ari_mould(rng, 3) for _ in range(3))
    c = Fraction(2, 5)
    assert arit(N + P * c)(M) == arit(N)(M) + arit(P)(M) * c


def test_preari_iterates():
    A = random_ari_mould(random.Random(5), 3)
    assert preari_n(0, A) == Mould.unit(3)
    assert preari_n(1, A) == A
    assert preari_n(2, A) == preari(A, A)
    assert preari_n(3, A) == preari(preari(A, A), A)
    assert preari_n(3, A).component(2).is_zero()


def test_preari_degenerate():
    M = random_ari_mould(random.Random(6), 3)
    assert preari(M, Mould.zero(3)).is_zero()


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10**6))
def test_prelie_identity(seed):
    # associator of preari is symmetric in its last two arguments
    rng = random.Random(seed)
    M, N, P = (random_ari_mould(rng, 4) for _ in range(3))
    a1 = preari(preari(M, N), P) - preari(M, preari(N, P))
    a2 = preari(preari(M, P), N) - preari(M, preari(P, N))
    assert a1 == a2


def test_ari_antisymmetry():
    rng = random.Random(7)
    M, N = random_ari_mould(rng, 3), random_ari_mould(rng, 3)
    assert ari(M, M).is_zero()
    assert ari(M, N) == -ari(N, M)
    assert ari(sa_pair(), sa_pair()).is_zero()


def sa_pair():
    from mouldcalc.special import sa

    return sa(3, 3)


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10**6))
def test_ari_jacobi(seed):
    rng = random.Random(seed)
    M, N, P = (random_ari_mould(rng, 4) for _ in range(3))
    total = ari(ari(M, N), P) + ari(ari(N, P), M) + ari(ari(P, M), N)
    assert total.is_zero()


def test_ari_bilinearity():
    rng = random.Random(8)
    M, N, P = (random_ari_mould(rng, 3) for _ in range(3))
    c = Fraction(-3, 2)
    assert ari(M + N * c, P) == ari(M, P) + ari(N, P) * c


# ---------------------------------------------------------------------------
# garit / gari / expari / logari / invgari / adari
# ---------------------------------------------------------------------------


def test_garit_identity_element():
    S = random_gari_mould(random.Random(9), 3)
    assert garit(Mould.unit(3))(S) == S


def test_garit_depth1_passthrough():
    rng = random.Random(10)
    S, T = random_gari_mould(rng, 2), random_gari_mould(rng, 2)
    assert garit(T)(S).component(1) == S.component(1)


def test_garit_requires_group_element():
    with pytest.raises(NotInvertibleError):
        garit(Mould.zero(2))


def test_gari_unit_laws():
    S = random_gari_mould(random.Random(11), 3)
    assert gari(S, Mould.unit(3)) == S
    assert gari(Mould.unit(3), S) == S


def test_gari_depth1_addition():
    rng = random.Random(12)
    S, T = random_gari_mould(rng, 2), random_gari_mould(rng, 2)
    got = gari(S, T).component(1)
    assert got == S.component(1) + T.component(1)


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 10**6))
def test_gari_associativity(seed):
    rng = random.Random(seed)
    S, T, U = (random_gari_mould(rng, 4) for _ in range(3))
    assert gari(gari(S, T), U) == gari(S, gari(T, U))


def test_invgari_unit():
    assert invgari(Mould.unit(3)) == Mould.unit(3)


def test_invgari_depth1_negation():
    S = random_gari_mould(random.Random(13), 3)
    assert invgari(S).component(1) == -S.component(1)


def test_invgari_two_sided():
    S = random_gari_mould(random.Random(14), 4)
    inv = invgari(S)
    assert gari(S, inv) == Mould.unit(4)
    assert gari(inv, S) == Mould.unit(4)


def test_expari_zero():
    assert expari(Mould.zero(3)) == Mould.unit(3)


def test_expari_depth1():
    A = random_ari_mould(random.Random(15), 3)
    assert expari(A).component(1) == A.component(1)


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 10**6))
def test_logari_expari_inverse_pair(seed):
    rng = random.Random(seed)
    A = random_ari_mould(rng, 4)
    assert logari(expari(A)) == A
    S = random_gari_mould(rng, 4)
    assert expari(logari(S)) == S


def test_adari_identity_conjugator():
    A = random_ari_mould(random.Random(16), 3)
    assert adari(Mould.unit(3))(A) == A


def test_adari_depth1_passthrough():
    rng = random.Random(17)
    S = random_gari_mould(rng, 3)
    A = random_ari_mould(rng, 3)
    assert adari(S)(A).component(1) == A.component(1)


@settings(max_examples=4, deadline=None)
@given(st.integers(0, 10**6))
def test_adari_is_lie_morphism(seed):
    rng = random.Random(seed)
    S = random_gari_mould(rng, 4)
    M, N = random_ari_mould(rng, 4), random_ari_mould(rng, 4)
    assert adari(S)(ari(M, N)) == ari(adari(S)(M), adari(S)(N))


def test_adari_conjugation_inverse():
    rng = random.Random(18)
    S = random_gari_mould(rng, 4)
    A = random_ari_mould(rng, 4)
    assert adari(S)(adari(invgari(S))(A)) == A


@pytest.mark.parametrize("depth, seed", [(3, 19), (3, 20), (4, 21)])
def test_adari_closed_form_matches_logari_definition(depth, seed):
    rng = random.Random(seed)
    S = random_gari_mould(rng, depth)
    A = random_ari_mould(rng, depth)
    want = Mould.from_word_function(depth, adari_via_logari(S)(A).eval_word)
    assert adari(S)(A) == want
    assert Mould.from_word_function(depth, lazy_adari(S)(A).eval_word) == want
    # the eager operator materializes a lazy argument's conjugate too
    assert adari(S)(LazyMould(depth, A.eval_word)) == want


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_adari_closed_form_matches_logari_definition_generic(depth):
    # opaque symbols make this a polynomial identity: it holds for every
    # pair of moulds truncated at this depth
    reg = SymbolRegistry()
    S = OpaqueMould(reg, "S", depth, unit_value=1)
    A = OpaqueMould(reg, "A", depth)
    w = canonical_word(depth)
    assert lazy_adari(S)(A).eval_word(w) == adari_via_logari(S)(A).eval_word(w)


def test_adari_conjugation_inverse_polar():
    S = pal(4)
    A = mu(mu(mupaj(4), sa(3, 4)), paj(4))
    assert adari(invgari(S))(adari(S)(A)) == A


# ---------------------------------------------------------------------------
# lazy evaluators agree with independent eager oracles
# ---------------------------------------------------------------------------


# (name, operator on a gari-type S and an ari-type A, the argument whose
# depth-0 value it checks, the error a wrong value raises)
_EAGER_OPERATORS = [
    ("mu", lambda S, A: mu(S, A), None, None),
    ("mu_inverse", lambda S, A: mu_inverse(S), "S", NotInvertibleError),
    ("mu_log", lambda S, A: mu_log(S), "S", NotDefinedError),
    ("gari", lambda S, A: gari(A, S), "S", NotInvertibleError),
    ("expari", lambda S, A: expari(A), "A", NotDefinedError),
    ("logari", lambda S, A: logari(S), "S", NotInvertibleError),
    ("invgari", lambda S, A: invgari(S), "S", NotInvertibleError),
    ("adari", lambda S, A: adari(S)(A), "A", NotDefinedError),
    ("sang", lambda S, A: sang(A), "A", NotDefinedError),
    ("neg", lambda S, A: neg(A), None, None),
    ("leng", lambda S, A: leng(2, A), None, None),
    ("sharp", lambda S, A: sharp(A), None, None),
    ("dur_scale", lambda S, A: dur_scale(A), None, None),
    ("dur_unscale", lambda S, A: dur_unscale(A), "A", NotDefinedError),
]


@pytest.mark.parametrize(
    "op, checked, error",
    [case[1:] for case in _EAGER_OPERATORS],
    ids=[case[0] for case in _EAGER_OPERATORS],
)
def test_eager_operator_takes_lazy_input(op, checked, error):
    # a lazy argument gives the same concrete mould as the concrete one it
    # wraps, and a wrong depth-0 value is refused with the same error
    def lazy(M):
        return LazyMould(M.depth, M.eval_word)

    rng = random.Random(8)
    S, A = random_gari_mould(rng, 3), random_ari_mould(rng, 3)
    got = op(lazy(S), lazy(A))
    assert type(got) is Mould and got == op(S, A)
    if checked is None:
        return
    bad = (S * 2, A) if checked == "S" else (S, A + Mould.unit(3))
    with pytest.raises(error) as concrete:
        op(*bad)
    with pytest.raises(error) as lazy_error:
        op(*map(lazy, bad))
    assert str(lazy_error.value) == str(concrete.value)


@pytest.mark.parametrize("op", [sharp, dur_scale, dur_unscale])
def test_coordinate_operator_reads_opaque_input_through_eval_word(op):
    # an opaque mould's symbols are variables above the slot variables, so
    # its values at the canonical words make no concrete mould: the operator
    # refuses them as materializing does, not with an AttributeError
    A = OpaqueMould(SymbolRegistry(), "A", 3)
    with pytest.raises(ValueError) as got:
        op(A)
    with pytest.raises(ValueError) as want:
        Mould.from_word_function(3, A.eval_word)
    assert str(got.value) == str(want.value)


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 10**6))
def test_lazy_matches_eager(seed):
    # the eager operators materialize the lazy ones, so the reference side
    # is built from the shift-based product oracles and the old eager forms
    rng = random.Random(seed)
    S = random_gari_mould(rng, 3)
    T = random_gari_mould(rng, 3)
    A = random_ari_mould(rng, 3)
    Sinv = invgari(S)
    pairs = [
        (lazy_mu_inverse(S), mu_inverse_via_shift(S)),
        (lazy_gari(S, T), gari_via_shift_mu(S, T)),
        (lazy_expari(A), expari_via_materialized_chain(A)),
        (lazy_adari(S)(A), Mould.from_word_function(3, adari_via_logari(S)(A).eval_word)),
    ]
    for lazy_val, eager in pairs:
        got = Mould.from_word_function(3, lazy_val.eval_word)
        assert got == eager
    one = Mould.unit(3)
    assert gari_via_shift_mu(S, Sinv) == one
    assert gari_via_shift_mu(Sinv, S) == one
    assert expari_via_materialized_chain(logari(S)) == S
