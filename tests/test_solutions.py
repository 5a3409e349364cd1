"""Polar/polynomial solution families, theorem verifiers, negative controls."""

from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest

from mouldcalc.algebra import (
    Polynomial,
    RationalFunction,
    one_over_forms,
    x_var,
)
from mouldcalc.flexions import ari
from mouldcalc.moulds import Mould, equal_mod_depth, sharp
from mouldcalc.special import bernoulli, sa, slang
from mouldcalc.solutions import (
    D_ab,
    luma,
    psi_minus1,
    psi_odd,
    psi_odd_mould,
    sigma_c,
    verify_comparison_theorem,
    verify_psi_minus1_theorem,
    verify_psi_odd_theorem,
    vine_partitions,
    x_AB,
    xi,
    xi_prime,
)
from mouldcalc.verify import run_claim

x1, x2, x3 = x_var(1), x_var(2), x_var(3)


def rf_poly(d):
    return RationalFunction.make(1, Polynomial.from_dict(d))


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------


def test_x_AB_empty_sets():
    assert x_AB([], [1, 2]) == RationalFunction.one()
    assert x_AB([1], []) == RationalFunction.one()


def test_x_AB_with_origin():
    assert x_AB([1], [0]) == rf_poly({(1,): 1})


def test_x_AB_product():
    got = x_AB([2, 3], [1])
    want = RationalFunction.make(
        1, (x2 - x1).as_polynomial() * (x3 - x1).as_polynomial()
    )
    assert got == want


def test_vine_partition_counts():
    for d in range(1, 7):
        counts = {}
        for cuts in vine_partitions(d):
            counts[len(cuts) - 1] = counts.get(len(cuts) - 1, 0) + 1
        assert counts == {h: comb(d - 1, h - 1) for h in range(1, d + 1)}


# ---------------------------------------------------------------------------
# psi values (hand-derived oracles)
# ---------------------------------------------------------------------------


def test_psi_odd_single_variable():
    for n in (1, 2, 3):
        assert psi_odd(n, 1) == rf_poly({(2 * n,): 1})


def test_psi_odd_two_variables_frozen():
    # direct evaluation of the display at n=1, d=2 collapses to x2 - 2 x1
    assert psi_odd(1, 2) == rf_poly({(1,): -2, (0, 1): 1})


def test_psi_odd_depth2_matches_singulator_display():
    # oracle: the depth-2 singulator of u -> u^2 is x2 - x1, so the
    # sharp-transported psi must equal it
    got = sharp(psi_odd_mould(1, 2)).component(2)
    assert got == rf_poly({(1,): -1, (0, 1): 1})


def test_psi_odd_denominators_are_differences():
    f = psi_odd(2, 3)
    for form, _ in f.denominator:
        nonzero = [c for c in form.coeffs if c]
        assert sorted(nonzero) in ([-1, 1], [1])  # x_i - x_j or x_i (j = 0)


def test_psi_minus1_single_variable():
    assert psi_minus1(1) == RationalFunction.make(1, Polynomial.one(), [(x1, 2)])


def test_psi_minus1_two_variables_frozen():
    want = one_over_forms(x1, x2, x2) - one_over_forms(x1, x2, x2 - x1) * Fraction(
        1, 2
    )
    assert psi_minus1(2) == want


# ---------------------------------------------------------------------------
# theorems
# ---------------------------------------------------------------------------


def test_psi_odd_theorem_small():
    report = verify_psi_odd_theorem(1, 3)
    assert report["status"] == "pass"
    assert len(report["checks"]) == 3


def test_psi_minus1_theorem_small():
    report = verify_psi_minus1_theorem(3)
    assert report["status"] == "pass"


def test_comparison_theorem_n1():
    report = verify_comparison_theorem(1)
    assert report["status"] == "pass"


@pytest.mark.parametrize(
    "claim, params, n_checks",
    [
        ("psi-odd", {"n": 1, "dmax": 5}, 5),
        ("sang-expansion", {"depth": 5}, 12),
        ("psi-minus1", {"dmax": 6}, 6),
    ],
)
def test_claims_verify_beyond_stated_depth(claim, params, n_checks):
    # the paper states these identities to depth 4
    report = run_claim(claim, **params)
    assert report["status"] == "pass"
    assert len(report["checks"]) == n_checks
    assert all(c["status"] == "pass" for c in report["checks"])


# ---------------------------------------------------------------------------
# polynomial families
# ---------------------------------------------------------------------------


def test_xi_prime_depth1_passthrough():
    S = sa(3, 3)
    assert xi_prime(S).component(1) == S.component(1)


def test_xi_matches_slang1_low_depths():
    for n in (1, 2):
        a = xi(n)
        b = slang(1, sa(2 * n + 1, 3))
        assert equal_mod_depth(a, b, 4)


def test_sigma_c_n1_has_empty_correction():
    assert sigma_c(1) == xi(1)


def test_sigma_c_and_luma_agree_low_depths():
    for n in (1, 2, 3):
        s = sigma_c(n)
        l = luma(n)
        assert s.component(1) == l.component(1)
        assert s.component(2) == l.component(2)
        assert s.component(1) == sa(2 * n + 1, 3).component(1)


def test_luma_n1_is_truncated_slice():
    assert luma(1) == slang(1, sa(3, 3)).truncate(3)


def test_sigma_c_depth3_has_single_term_at_n2():
    # lone correction (a, b) = (1, 1) with weight (1/24)(B2 B2 / B4) C(4, 2)
    coeff = Fraction(1, 24) * bernoulli(2) * bernoulli(2) / bernoulli(4) * comb(4, 2)
    inner = ari(sa(3, 3), ari(sa(3, 3), sa(-1, 3)))
    want = xi(2) + inner * coeff
    assert sigma_c(2) == want


def test_D_ab_in_depth_3_and_polynomial():
    # The polar parts of the two summands cancel, leaving a polynomial.
    # For b <= 3 the polynomial itself vanishes (checked by hand from the
    # depth-2 closed forms of both summands), so the discrepancy is zero
    # throughout the tested comparison range.
    for a, b in ((1, 1), (1, 2), (2, 1)):
        D = D_ab(a, b)
        for m in (0, 1, 2):
            assert D.component(m).is_zero()
        assert D.component(3).is_polynomial()
        assert D.component(3).is_zero()


def test_D_ab_nonzero_polynomial_outside_small_range():
    # at b = 4 the cancellation is only of the polar parts; the remaining
    # depth-3 component is a genuine nonzero polynomial
    D = D_ab(1, 4)
    assert D.component(3).is_polynomial()
    assert not D.component(3).is_zero()


def test_ari_sa_sa_minus1_closed_form():
    # depth-2 bracket of u^{2b} and u^{-2}: frozen display value
    for b in (1, 2):
        got = ari(sa(2 * b + 1, 2), sa(-1, 2)).component(2)

        def pw(form, e):
            p = Polynomial.one()
            for _ in range(e):
                p = p.mul_linear(form)
            return RationalFunction.make(1, p)

        x12 = x1 + x2
        want = (
            pw(x12, 2 * b) * (one_over_forms(x1, x1) - one_over_forms(x2, x2))
            - (pw(x1, 2 * b) - pw(x2, 2 * b)) * one_over_forms(x12, x12)
            + pw(x1, 2 * b) * one_over_forms(x2, x2)
            - pw(x2, 2 * b) * one_over_forms(x1, x1)
        )
        assert got == want


# ---------------------------------------------------------------------------
# negative controls
# ---------------------------------------------------------------------------


def test_mutated_psi_fails_with_residual():
    def flipped(n, d):
        value = psi_odd(n, d)
        if d == 2:
            # flip the sign of one insertion term
            term = x_AB([1], [0])  # x1
            extra = RationalFunction.make(
                2, (x2 - x1).as_polynomial() * (x2 - x1).as_polynomial(), [(x1, 1)]
            )
            return value + extra
        return value

    report = verify_psi_odd_theorem(1, 2, psi_components=flipped)
    assert report["status"] == "fail"
    failing = [c for c in report["checks"] if c["status"] == "fail"]
    assert failing and all("residual" in c for c in failing)
    assert any(c["residual"] != "0" for c in failing)


def test_mutated_sigma_coefficient_fails():
    report = verify_comparison_theorem(2, sigma=sigma_c(2, correction_scale=-1))
    assert report["status"] == "fail"
    failing = [c for c in report["checks"] if c["status"] == "fail"]
    assert failing and all(c.get("residual") for c in failing)


def test_reports_serialize_to_json():
    import json

    report = verify_comparison_theorem(1)
    blob = json.dumps(report, sort_keys=True)
    assert '"status": "pass"' in blob


@pytest.fixture
def slang_calls(monkeypatch):
    """The slang builds of the test, counted from an empty slice cache; the
    cache is emptied again afterwards, so no counted slice leaks into
    another test."""
    from mouldcalc import solutions

    calls = []

    def counting(r, A):
        calls.append((r, A))
        return slang(r, A)

    monkeypatch.setattr(solutions, "slang", counting)
    solutions._slang_sa.cache_clear()
    yield calls
    solutions._slang_sa.cache_clear()


def test_comparison_builds_each_discrepancy_mould_once(slang_calls):
    # each distinct slice is built once: at n = 3, check (i), luma and the
    # two D_ab read slang_1(sa_7), slang_1(sa_3), slang_2(sa_4),
    # slang_1(sa_5) and slang_2(sa_2) (10 calls when each reader built its
    # own, 14 when each D_ab was built twice)
    report = verify_comparison_theorem(3)
    assert report["status"] == "pass"
    assert len(slang_calls) == 5
    assert len({(r, A) for r, A in slang_calls}) == 5


def test_comparison_second_call_builds_no_slice(slang_calls):
    # the slices are cached for the process: a second call reuses all 5
    assert verify_comparison_theorem(3)["status"] == "pass"
    assert verify_comparison_theorem(3)["status"] == "pass"
    assert len(slang_calls) == 5


def test_comparison_nonvacuous_at_n5():
    # at n = 5 the two polynomial families genuinely differ at depth 3
    # (the b = 4 discrepancy term survives), and the weighted D sum still
    # balances the difference exactly
    diff = sigma_c(5) - luma(5)
    assert not diff.component(3).is_zero()
    assert diff.component(3).is_polynomial()
    report = verify_comparison_theorem(5)
    assert report["status"] == "pass"
