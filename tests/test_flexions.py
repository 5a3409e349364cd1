"""Flexion operators: factorizations, ari/gari toolbox, lazy/eager agreement."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mouldcalc.algebra import LinearForm, Polynomial, RationalFunction, x_var
from mouldcalc.flexions import (
    LazyMould,
    _letter_sum,
    adari,
    ari,
    arit,
    arit_at,
    expari,
    flexion_down,
    flexion_up,
    gari,
    garit,
    garit_at,
    invgari,
    lazy_adari,
    lazy_ari,
    lazy_arit,
    lazy_expari,
    lazy_gari,
    lazy_garit,
    lazy_invgari,
    lazy_leng,
    lazy_logari,
    lazy_mu,
    lazy_mu_inverse,
    lazy_neg,
    lazy_preari,
    logari,
    mu_at,
    preari,
    preari_at,
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
    lazy_mu_log,
    leng,
    mu,
    mu_inverse,
    mu_log,
    neg,
    sharp,
    unsharp_word,
    word,
)
from mouldcalc.special import _lazy_sang_expanded, lazy_sang, mupaj, paj, pal, sa, sang

from helpers import (
    adari_via_logari,
    count_products,
    expari_via_materialized_chain,
    gari_via_shift_mu,
    garit_at_per_factorization,
    garit_factorizations,
    mu_inverse_via_shift,
    outcome,
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


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_letter_sum_is_the_left_fold(seed):
    rng = random.Random(seed)
    w = tuple(
        LinearForm([rng.randint(-2, 2) for _ in range(rng.randint(0, 4))])
        for _ in range(rng.randint(0, 5))
    )
    want = LinearForm.zero()
    for letter in w:
        want = want + letter
    assert _letter_sum(w) == want


def test_letter_sum_of_cancelling_letters_and_of_one_letter():
    assert _letter_sum(word(x1 - x2 + x3, x2 - x3, -x1)) == LinearForm.zero()
    assert _letter_sum(word(x1 + x3, -x3)).coeffs == (1,)
    assert _letter_sum(word()) == LinearForm.zero()
    letter = x2 - x3
    assert _letter_sum(word(letter)) is letter


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


def _opaque_group(*names: str, depth: int = 5) -> list:
    reg = SymbolRegistry()
    return [OpaqueMould(reg, name, depth, unit_value=1) for name in names]


@pytest.mark.parametrize("depth", range(1, 6))
def test_garit_at_matches_the_per_factorization_sum(depth):
    S, T, Tinv = _opaque_group("S", "T", "Ti", depth=depth)
    w = canonical_word(depth)
    evals = (S.eval_word, T.eval_word, Tinv.eval_word)
    got = garit_at(w, *evals)
    assert got == garit_at_per_factorization(w, *evals)
    assert not got.is_zero()


@pytest.mark.parametrize("n, fib_2n", zip(range(1, 7), (1, 3, 8, 21, 55, 144)))
def test_garit_factorizations_number_f_2n(n, fib_2n):
    # a word of n letters has F(2n) block factorizations: the brute-force
    # enumeration finds each once, and garit_at, whose opaque factors never
    # vanish, reads S once per factorization
    w = canonical_word(n)
    found = list(garit_factorizations(w))
    assert len(found) == len(set(found)) == fib_2n
    S, T, Tinv = _opaque_group("S", "T", "Ti", depth=n)
    reads = []

    def s_eval(v):
        reads.append(v)
        return S.eval_word(v)

    garit_at(w, s_eval, T.eval_word, Tinv.eval_word)
    assert len(reads) == fib_2n


def _block_prefix_products(w) -> int:
    """The factor products of a garit_at walk whose values never vanish: one
    per block prefix that extends a factor other than 1 by a nonempty a (the
    prefix ending in that a) or c (the prefix ending in that block)."""
    prefixes = set()
    for blocks in garit_factorizations(w):
        started = False
        for k, (a, _, c) in enumerate(blocks):
            if a:
                if started:
                    prefixes.add(("a", blocks[:k], a))
                started = True
            if c:
                if started:
                    prefixes.add(("c", blocks[: k + 1]))
                started = True
    return len(prefixes)


@pytest.mark.parametrize("depth", [3, 4, 5])
def test_garit_at_multiplies_each_block_prefix_factor_once(monkeypatch, depth):
    S, T, Tinv = _opaque_group("S", "T", "Ti", depth=depth)
    w = canonical_word(depth)
    per_factorization = sum(
        sum(bool(a) + bool(c) for a, _, c in blocks)
        for blocks in garit_factorizations(w)
    )
    calls = count_products(monkeypatch, RationalFunction)
    garit_at(w, S.eval_word, T.eval_word, Tinv.eval_word)
    assert len(calls) == _block_prefix_products(w) < per_factorization


def test_mould_product_sums_build_no_product(monkeypatch):
    # every sum here has two or more nonzero products; rf_sum multiplies
    # their numerators straight into the lifted sum
    M, N = _opaque_group("M", "N", depth=4)
    P, Q = pal(4), random_gari_mould(random.Random("no-product"), 4)
    w = canonical_word(4)
    for A, B in ((M, N), (P, Q)):
        inverse = lazy_mu_inverse(A)
        for i in range(1, len(w)):  # a suffix of length 1 is one product
            inverse.eval_word(w[i:])
        calls = count_products(monkeypatch, Polynomial)
        mu_at(w, A.eval_word, B.eval_word)
        arit_at(w, A.eval_word, B.eval_word)
        preari_at(w, A.eval_word, B.eval_word)
        lazy_ari(A, B).eval_word(w)
        inverse.eval_word(w)
        assert calls == []
        monkeypatch.undo()


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
    assert outcome(lambda: preari_n(-1, M)) == (ValueError, "iterate index must be nonnegative")


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


# Each operator over (S, T, A, B): S and T group-like, A and B Lie-like.
_NATURAL_OPERATORS = {
    "mu": lambda S, T, A, B: lazy_mu(S, T),
    "arit": lambda S, T, A, B: lazy_arit(B)(A),
    "preari": lambda S, T, A, B: lazy_preari(A, B),
    "ari": lambda S, T, A, B: lazy_ari(A, B),
    "garit": lambda S, T, A, B: lazy_garit(T)(S),
    "gari": lambda S, T, A, B: lazy_gari(S, T),
    "expari": lambda S, T, A, B: lazy_expari(A),
    "logari": lambda S, T, A, B: lazy_logari(S),
    "invgari": lambda S, T, A, B: lazy_invgari(S),
    "adari": lambda S, T, A, B: lazy_adari(S)(A),
    "mu_log": lambda S, T, A, B: lazy_mu_log(S),
    "neg": lambda S, T, A, B: lazy_neg(A),
    "leng": lambda S, T, A, B: lazy_leng(2, A),
    "sang": lambda S, T, A, B: lazy_sang(A),
    "sang_expanded": lambda S, T, A, B: _lazy_sang_expanded(lazy_leng(1, A)),
}

# shifted, permuted, negated, flexed and unsharp words, at depths 2 to 4
_NATURALITY_WORDS = [
    canonical_word(4, 2),
    (x2, x4, x1, x3),
    tuple(-x for x in canonical_word(4)),
    (x3, -x1),
    (x1 + x2, x3, x4 + x_var(5), x_var(6)),
    (x2 - x1, x1 + x3),
    unsharp_word(4),
    unsharp_word(3),
]


@pytest.mark.parametrize("op", list(_NATURAL_OPERATORS), ids=list(_NATURAL_OPERATORS))
def test_natural_lazy_mould_substitutes_its_canonical_values(op):
    # a lazy mould over concrete moulds reaches an echelon word through its
    # canonical value; the oracle wraps the same inputs as lazy moulds with
    # no declared input, so it runs the rule at every word
    rng = random.Random(36)
    inputs = (
        random_gari_mould(rng, 4),
        random_gari_mould(rng, 4),
        random_ari_mould(rng, 4),
        random_ari_mould(rng, 4),
    )
    natural = _NATURAL_OPERATORS[op](*inputs)
    oracle = _NATURAL_OPERATORS[op](*(LazyMould(M.depth, M.eval_word) for M in inputs))
    assert natural.natural and not oracle.natural
    for m in range(5):
        natural.eval_word(canonical_word(m))
    for w in _NATURALITY_WORDS:
        assert natural.eval_word(w) == oracle.eval_word(w), w
