"""Named moulds: golden values, singulator identities, slice decompositions."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from mouldcalc import special
from mouldcalc.algebra import (
    Polynomial,
    RationalFunction,
    one_over_forms,
    x_var,
)
from mouldcalc.flexions import adari, invgari
from mouldcalc.generic import OpaqueMould, SymbolRegistry
from mouldcalc.limits import LIMITS
from mouldcalc.moulds import Mould, _materialize, canonical_word, lazy_leng, mu, mu_inverse, neg
from mouldcalc.special import (
    UnsupportedInputError,
    bernoulli,
    dupal,
    lazy_sang,
    lazy_slang,
    mupaj,
    paj,
    pal,
    s_prime,
    sa,
    sang,
    sang_expanded,
    slang,
    slang_split,
)
from mouldcalc.symmetry import is_alternal, is_symmetral

from helpers import (
    count_lazy_invgari,
    count_products,
    inductive_alternality_oracle,
    outcome,
    random_ari_mould,
    sang_via_eager_moulds,
    slang_via_eager_moulds,
)

x1, x2, x3, x4 = (x_var(i) for i in range(1, 5))


def rf_poly(d):
    return RationalFunction.make(1, Polynomial.from_dict(d))


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(6) == Fraction(1, 42)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_recurrence():
    # defining recurrence of x/(e^x - 1): sum_{k<=m} C(m+1, k) B_k = 0 for m >= 1,
    # with the m-th term included (it equals (m+1) B_m)
    from math import comb

    for m in range(1, 12):
        total = sum(Fraction(comb(m + 1, k)) * bernoulli(k) for k in range(m + 1))
        assert total == 0


# ---------------------------------------------------------------------------
# sa, paj, mupaj
# ---------------------------------------------------------------------------


def test_sa_positive_exponent():
    M = sa(3, 3)
    assert M.component(1) == rf_poly({(2,): 1})
    assert M.component(0).is_zero() and M.component(2).is_zero()


def test_sa_negative_exponent():
    M = sa(-1, 2)
    assert M.component(1) == RationalFunction.make(1, Polynomial.one(), [(x1, 2)])


def test_sa_rejects_zero():
    with pytest.raises(ValueError):
        sa(0, 2)


def test_paj_components():
    P = paj(3)
    assert P.component(0) == RationalFunction.one()
    assert P.component(2) == one_over_forms(x1, x1 + x2)
    assert P.component(3) == one_over_forms(x1, x1 + x2, x1 + x2 + x3)


def test_mupaj_closed_form():
    M = mupaj(3)
    assert M.component(1) == -one_over_forms(x1)
    assert M.component(2) == one_over_forms(x2, x1 + x2)
    assert M.component(3) == -one_over_forms(x3, x2 + x3, x1 + x2 + x3)


def test_mupaj_is_mu_inverse_of_paj():
    assert mu(paj(5), mupaj(5)) == Mould.unit(5)
    assert mupaj(5) == mu_inverse(paj(5))


# ---------------------------------------------------------------------------
# dupal and pal golden values
# ---------------------------------------------------------------------------


def test_dupal_golden_values():
    D = dupal(6)
    assert D.component(1) == RationalFunction.make(Fraction(-1, 2), Polynomial.one())
    assert D.component(2) == RationalFunction.make(
        Fraction(1, 12), Polynomial.from_dict({(1,): 1, (0, 1): -1}), [(x1, 1), (x2, 1)]
    )
    assert D.component(3).is_zero()
    assert D.component(5).is_zero()
    want4 = RationalFunction.make(
        Fraction(-1, 720),
        Polynomial.from_dict({(1,): 1, (0, 1): -3, (0, 0, 1): 3, (0, 0, 0, 1): -1}),
        [(x1, 1), (x2, 1), (x3, 1), (x4, 1)],
    )
    assert D.component(4) == want4


def test_dupal_alternal_and_inner_recursion():
    assert is_alternal(dupal(6))
    # the polynomial core of dupal satisfies the boundary recursion
    core = Mould(
        [RationalFunction.zero()]
        + [
            RationalFunction.make(
                1,
                Polynomial.from_dict(
                    {
                        (0,) * k + (1,): (-1) ** k * __import__("math").comb(m - 1, k)
                        for k in range(m)
                    }
                ),
            )
            for m in range(1, 7)
        ]
    )
    assert inductive_alternality_oracle(core)


def test_pal_golden_values():
    P = pal(5)
    assert P.component(0) == RationalFunction.one()
    assert P.component(1) == RationalFunction.make(
        Fraction(-1, 2), Polynomial.one(), [(x1, 1)]
    )
    assert P.component(2) == RationalFunction.make(
        Fraction(1, 12),
        Polynomial.from_dict({(1,): 1, (0, 1): 2}),
        [(x1, 1), (x2, 1), (x1 + x2, 1)],
    )
    assert P.component(3) == RationalFunction.make(
        Fraction(-1, 24), Polynomial.one(), [(x1, 1), (x3, 1), (x1 + x2, 1)]
    )


def test_pal_symmetral():
    assert is_symmetral(pal(5))


def test_pal_defining_relation():
    from mouldcalc.moulds import dur_scale

    P, D = pal(5), dupal(5)
    product = mu(P, D)
    scaled = dur_scale(P)
    for m in range(1, 6):
        assert scaled.component(m) == product.component(m)


def test_pal_builds_no_product(monkeypatch):
    # each depth is one mu_at at the canonical word: rf_sum multiplies the
    # pairs (pal, dupal) straight into its lifted sum
    pal.cache_clear()
    dupal.cache_clear()
    calls = count_products(monkeypatch, RationalFunction)
    P = pal(6)
    monkeypatch.undo()
    assert calls == []
    assert not P.component(6).is_zero()


# ---------------------------------------------------------------------------
# s'
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "call, refusal",
    [
        (lambda: s_prime(1), (ValueError, "s' needs depth at least 2")),
        (lambda: bernoulli(-1), (ValueError, "Bernoulli index must be nonnegative")),
    ],
    ids=["s_prime-depth-1", "bernoulli-negative"],
)
def test_special_refusals(call, refusal):
    assert outcome(call) == refusal


def test_s_prime_values():
    S = s_prime(3)
    assert S.component(1) == one_over_forms(x1) * Fraction(1, 2)
    want = (one_over_forms(x1, x1 + x2) - one_over_forms(x2, x1 + x2)) * Fraction(1, 12)
    assert S.component(2) == want
    assert S.component(3).is_zero()


# ---------------------------------------------------------------------------
# sang
# ---------------------------------------------------------------------------


def test_sang_depth1_even_part():
    A = random_ari_mould(random.Random(1), 3)
    S = sang(A)
    f = A.component(1)
    want = (f + f.substitute((-x1,))) * Fraction(1, 2)
    assert S.component(1) == want


def test_sang_of_even_mould_keeps_depth1():
    S = sang(sa(3, 3))
    assert S.component(1) == rf_poly({(2,): 1})


def test_sang_sa3_depth2_frozen():
    # hand expansion of the depth-2 singulator value collapses to x2 - x1
    S = sang(sa(3, 2))
    assert S.component(2) == rf_poly({(1,): -1, (0, 1): 1})


def test_sang_requires_zero_constant():
    from mouldcalc.moulds import NotDefinedError

    with pytest.raises(NotDefinedError):
        sang(Mould.unit(2))


def test_singulator_admits_depth_7_and_refuses_depth_8(monkeypatch):
    # neither builder evaluates anything before a value is read
    lazy_sang(sa(3, 7))
    lazy_slang(1, sa(3, 7))

    def no_work(M, w):
        raise AssertionError("built a component before the depth gate")

    monkeypatch.setattr(special, "_sang_expanded_at", no_work)
    builds = (lazy_sang, sang, sang_expanded, lambda A: slang(1, A), slang_split)
    for build in builds:
        with pytest.raises(ValueError, match="singulator depth 8 exceeds the maximum 7"):
            build(sa(3, 8))


def test_a_slicer_solves_pals_inverse_once(monkeypatch, fresh_conjugations):
    A, B = sa(3, 4), sa(5, 4)
    want = [slang_via_eager_moulds(r, A) for r in range(1, 5)]
    want_b = slang_via_eager_moulds(1, B)
    solved = count_lazy_invgari(monkeypatch)
    assert slang_split(A) == want
    assert slang(1, B) == want_b
    assert solved == [pal(4)]


def test_sang_expanded_agrees_with_compositional():
    # the oracle is the compositional lazy_sang: sang itself now takes the
    # expansion at this depth, so comparing with it would prove nothing
    for s in (3, 5):
        A = sa(s, 4)
        assert sang_expanded(A) == _materialize(lazy_sang(A))


def _count_lazy_sang(monkeypatch, module=special) -> list:
    """The depths of the moulds ``module`` hands to lazy_sang from now on."""
    calls = []

    def counting(M):
        calls.append(M.depth)
        return lazy_sang(M)

    monkeypatch.setattr(module, "lazy_sang", counting)
    return calls


def _record_expansion_words(monkeypatch) -> list:
    """The words at which the four-sum expansion is built from now on."""
    built = []
    build = special._sang_expanded_at

    def recording(M, w):
        built.append(w)
        return build(M, w)

    monkeypatch.setattr(special, "_sang_expanded_at", recording)
    return built


def test_sang_takes_the_expansion_at_every_admitted_depth(monkeypatch):
    calls = _count_lazy_sang(monkeypatch)
    built = _record_expansion_words(monkeypatch)
    # the expansion is built lazily, so depth 7 costs nothing until read
    for d in range(1, LIMITS["singulator", "depth"] + 1):
        special._singulator(sa(3, d))
    assert built == []
    for d in range(1, 5):
        assert sang(sa(3, d)) == sang_expanded(sa(3, d))
    for r in (1, 2):
        slang(r, sa(3, 3))
    slang_split(sa(5, 3))
    assert calls == []


def test_sang_falls_back_to_lazy_sang_on_opaque_input(monkeypatch):
    # an opaque mould takes lazy_sang even on depth-1 support, with no
    # support probe that would read it, and so number its symbols, first
    calls = _count_lazy_sang(monkeypatch)
    S = lazy_leng(1, OpaqueMould(SymbolRegistry(), "S", LIMITS["singulator", "depth"]))
    special._singulator(S)
    assert calls == [LIMITS["singulator", "depth"]]
    A = OpaqueMould(SymbolRegistry(), "A", 2)
    w = canonical_word(2)
    assert special._singulator(A).eval_word(w) == lazy_sang(A).eval_word(w)
    assert calls == [LIMITS["singulator", "depth"], 2]


def test_a_slice_builds_only_the_expansion_depths_it_reads(monkeypatch):
    built = _record_expansion_words(monkeypatch)
    slang(1, sa(3, 6))
    assert {len(w) for w in built} == {0, 1}
    assert len(built) == len(set(built))  # each word once


def test_the_sang_expansion_claim_solves_pajs_inverse_once(monkeypatch, fresh_conjugations):
    # sa_3 and sa_5 each take lazy_sang at depth 4; both share one adari(paj)
    from mouldcalc import verify

    solved = count_lazy_invgari(monkeypatch)
    assert verify.claim_sang_expansion(4)["status"] == "pass"
    assert solved == [paj(4)]


def test_the_expansion_checks_build_one_singulator_for_sang_and_both_slices(monkeypatch):
    from mouldcalc import verify

    calls = _count_lazy_sang(monkeypatch, verify)
    inner = _count_lazy_sang(monkeypatch)
    verify.generic_expansion_checks()
    assert calls == [2]
    assert inner == []


@pytest.mark.parametrize("depth", range(1, 8))
def test_pajs_gari_inverse_is_its_neg(depth):
    # a fact the library does not use: lazy_sang, the oracle of the sang
    # expansion, keeps conjugating by the solved inverse of the definition
    assert invgari(paj(depth)) == neg(paj(depth))


def test_sang_expansion_claim_keeps_lazy_sang_as_its_oracle(monkeypatch):
    # sang takes the expansion, so a claim comparing it with sang_expanded
    # would compare a mould with itself
    from mouldcalc import verify

    calls = _count_lazy_sang(monkeypatch, verify)
    assert verify.run_claim("sang-expansion", depth=3)["status"] == "pass"
    assert calls == [3, 3]


def test_sang_falls_back_to_lazy_sang_off_depth1_support(monkeypatch):
    calls = _count_lazy_sang(monkeypatch)
    M = random_ari_mould(random.Random(4), 3)
    assert sang(M) == _materialize(lazy_sang(M)) == sang_via_eager_moulds(M)
    assert calls == [3]


def test_sang_expanded_depth1():
    A = sa(3, 2)
    got = sang_expanded(A).component(1)
    assert got == rf_poly({(2,): 1})


def test_sang_expanded_rejects_deep_input():
    M = random_ari_mould(random.Random(2), 3)
    comps = list(Mould.zero(3).components)
    comps[2] = M.component(2)
    with pytest.raises(UnsupportedInputError):
        sang_expanded(Mould(comps))


# ---------------------------------------------------------------------------
# slang
# ---------------------------------------------------------------------------


def test_slang_depth1_kronecker():
    A = sa(3, 3)
    assert slang(1, A).component(1) == rf_poly({(2,): 1})
    assert slang(2, A).component(1).is_zero()


@pytest.mark.parametrize("s", [3, 5])
def test_singulator_matches_eager_compositions(s):
    # sang and slang materialize lazy compositions; the oracle composes the
    # shift-based mu oracle, the component-wise neg and leng, and adari
    A = sa(s, 4)
    assert sang(A) == sang_via_eager_moulds(A)
    slices = slang_split(A)
    for r in range(1, 5):
        want = slang_via_eager_moulds(r, A)
        assert slang(r, A) == want
        assert slices[r - 1] == want


def test_slang_slices_sum_to_sang():
    A = sa(3, 4)
    parts = slang_split(A)
    total = Mould.zero(4)
    for part in parts:
        total = total + part
    assert total == sang(A)


def test_slang2_closed_form():
    # frozen closed form for the depth-2 slice on even monomial input
    for b in (1, 2):
        got = slang(2, sa(2 * b, 2)).component(2)
        x12 = x1 + x2

        def pw(form, e):
            p = Polynomial.one()
            for _ in range(e):
                p = p.mul_linear(form)
            return RationalFunction.make(1, p)

        want = (
            RationalFunction.make(
                Fraction(1, 2), (x1 - x2).as_polynomial(), [(x1, 1), (x2, 1)]
            )
            * pw(x12, 2 * b - 1)
            + RationalFunction.make(
                Fraction(1, 2), (x1 + 2 * x2).as_polynomial(), [(x2, 1), (x12, 1)]
            )
            * pw(x1, 2 * b - 1)
            - RationalFunction.make(
                Fraction(1, 2), (2 * x1 + x2).as_polynomial(), [(x1, 1), (x12, 1)]
            )
            * pw(x2, 2 * b - 1)
        )
        assert got == want


def test_adari_pal_conjugation_is_invertible():
    rng = random.Random(3)
    A = random_ari_mould(rng, 4)
    P = pal(4)
    assert adari(P)(adari(invgari(P))(A)) == A


def test_sang_expanded_agrees_on_mixed_depth1_input():
    # depth-1 support is the only requirement: mix odd/even polynomial and
    # polar parts and compare against the compositional lazy singulator
    f = (
        rf_poly({(3,): 1, (1,): -2})
        + RationalFunction.make(Fraction(5, 2), Polynomial.one(), [(x1, 2)])
    )
    comps = [RationalFunction.zero()] * 4
    comps[1] = f
    M = Mould(comps)
    assert sang_expanded(M) == _materialize(lazy_sang(M))
