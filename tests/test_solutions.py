"""Polar/polynomial solution families, theorem verifiers, negative controls."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import comb

import pytest

from mouldcalc import moulds, solutions, special, verify
from mouldcalc.algebra import (
    Polynomial,
    RationalFunction,
    one_over_forms,
    rf_sum,
    x_var,
)
from mouldcalc.flexions import ari
from mouldcalc.cli import main
from mouldcalc.moulds import (
    Mould,
    canonical_word,
    equal_mod_depth,
    lazy_mu_log,
    mu_log,
    sharp,
    unsharp_word,
)
from mouldcalc.special import bernoulli, paj, sa, sang_expanded, slang
from mouldcalc.limits import LIMITS
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
from mouldcalc.verify import random_gari_mould, run_claim

from helpers import (
    count_lazy_invgari,
    outcome,
    psi_minus1_report_via_sharp,
    psi_minus1_via_products,
    psi_odd_report_via_sharp,
    psi_odd_via_products,
    x_AB_via_products,
)

x1, x2, x3 = x_var(1), x_var(2), x_var(3)


def rf_poly(d):
    return RationalFunction.make(1, Polynomial.from_dict(d))


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------


X_AB_CASES = [([], [1, 2]), ([1], []), ([1], [0]), ([2, 3], [1]), ([2, 3], [1, 0])]


def test_x_AB_matches_the_product_oracle():
    for A, B in X_AB_CASES:
        assert x_AB(A, B) == x_AB_via_products(A, B)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_psi_odd_matches_the_product_oracle(n):
    # each term built by one make equals the product of separately built
    # powers and reciprocal difference products, canonical form for form
    for d in range(1, 7):
        assert psi_odd(n, d) == psi_odd_via_products(n, d)


def test_psi_minus1_matches_the_product_oracle():
    for d in range(1, 8):
        assert psi_minus1(d) == psi_minus1_via_products(d)


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


@pytest.mark.parametrize(
    "call, refusal",
    [
        (lambda: D_ab(0, 1), (ValueError, "need a, b >= 1")),
        (lambda: psi_odd(1, 0), (ValueError, "need n >= 1 and d >= 1")),
        (lambda: psi_minus1(0), (ValueError, "need d >= 1")),
    ],
    ids=["D_ab-a-0", "psi_odd-depth-0", "psi_minus1-depth-0"],
)
def test_solution_refusals(call, refusal):
    assert outcome(call) == refusal


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
def slang_calls(monkeypatch, fresh_conjugations):
    """The slang builds of the test, counted from empty slice, bracket, xi
    and conjugation caches; the caches are emptied again afterwards, so no
    counted slice leaks into another test."""
    from mouldcalc import solutions

    calls = []

    def counting(r, A):
        calls.append((r, A))
        return slang(r, A)

    caches = (solutions._slang_sa, solutions._ari_sa, solutions._ari_slang, solutions.xi)
    monkeypatch.setattr(solutions, "slang", counting)
    for cache in caches:
        cache.cache_clear()
    yield calls
    for cache in caches:
        cache.cache_clear()


def test_comparison_builds_each_discrepancy_mould_once(
    slang_calls, monkeypatch, fresh_conjugations
):
    # each distinct slice is built once: at n = 3, check (i), luma and the
    # two D_ab read slang_1(sa_7), slang_1(sa_3), slang_2(sa_4),
    # slang_1(sa_5) and slang_2(sa_2) (10 calls when each reader built its
    # own, 14 when each D_ab was built twice)
    built = []
    build = special._sang_expansion_terms

    def recording(M, w):
        built.append(w)
        return build(M, w)

    monkeypatch.setattr(special, "_sang_expansion_terms", recording)
    report = verify_comparison_theorem(3)
    assert report["status"] == "pass"
    assert len(slang_calls) == 5
    assert len({(r, A) for r, A in slang_calls}) == 5
    # and each slice's expansion once per depth it reads, at the canonical
    # word: the slicer's shifted and permuted words rename that value (30
    # depth-1 and 8 depth-2 builds when every word read ran the expansion)
    assert [sum(len(w) == d for w in built) for d in (1, 2)] == [5, 2]
    assert all(w == canonical_word(len(w)) for w in built)


def test_comparison_solves_pals_inverse_once(monkeypatch, slang_calls):
    # the five slices of n = 3 share one conjugation by pal(3)
    solved = count_lazy_invgari(monkeypatch)
    assert verify_comparison_theorem(3)["status"] == "pass"
    assert len(slang_calls) == 5
    assert solved == [special.pal(3)]


def test_comparison_builds_xi_once(monkeypatch, slang_calls):
    # check (i) and sigma_c both read xi_7, which is built once for the
    # process (twice per comparison when each built its own)
    built = []
    build = solutions.xi_prime

    def counting(S):
        built.append(S)
        return build(S)

    monkeypatch.setattr(solutions, "xi_prime", counting)
    assert verify_comparison_theorem(3)["status"] == "pass"
    assert verify_comparison_theorem(3)["status"] == "pass"
    assert len(built) == 1


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


def _no_mould(*args, **kwargs):
    raise AssertionError("a mould was built")


@pytest.mark.parametrize("dmax", range(1, LIMITS["singulator", "depth"] + 1))
def test_psi_odd_refuses_n_above_its_limit_before_any_work(monkeypatch, dmax):
    # the limit itself gets as far as building a mould; one more does not
    limit = LIMITS["psi", "n"][dmax]
    monkeypatch.setattr(Mould, "__init__", _no_mould)
    with pytest.raises(ValueError, match=f"maximum {limit} at dmax {dmax}$"):
        verify_psi_odd_theorem(limit + 1, dmax)
    with pytest.raises(AssertionError, match="a mould was built"):
        verify_psi_odd_theorem(limit, dmax)


def test_comparison_refuses_n_above_its_limit_before_any_work(monkeypatch):
    monkeypatch.setattr(Mould, "__init__", _no_mould)
    limit = LIMITS["comparison", "n"]
    with pytest.raises(ValueError, match=f"maximum {limit}$"):
        verify_comparison_theorem(limit + 1)
    with pytest.raises(AssertionError, match="a mould was built"):
        verify_comparison_theorem(limit)


@pytest.mark.parametrize(
    "verifier",
    [lambda: verify_psi_odd_theorem(1, 0), lambda: verify_psi_minus1_theorem(0)],
    ids=["psi-odd", "psi-minus1"],
)
def test_a_verifier_with_no_check_to_make_is_refused(verifier):
    # at dmax 0 there is no depth to check: no vacuous pass
    with pytest.raises(ValueError, match="no checks"):
        verifier()


# ---------------------------------------------------------------------------
# the sharp claims, checked at unsharp_word(d) without substituting psi
# ---------------------------------------------------------------------------


def _mutated(components, dmax: int):
    """``components`` with every depth's value changed: depth k scaled by
    k + 1 for odd k, and a pole 3/x_k^2 added for even k.  Each check of a
    report reads one depth, so every failing check is that of a mutation
    of its component alone."""

    def fn(*args):
        value, k = components(*args), args[-1]
        if k % 2:
            return value * (k + 1)
        return value + one_over_forms(x_var(k), x_var(k)) * 3

    return fn


def _one_mutated(components, k: int):
    """``components`` with the depth-k value scaled by -1/2."""

    def fn(*args):
        value = components(*args)
        return value * Fraction(-1, 2) if args[-1] == k else value

    return fn


def _json(report: dict) -> str:
    return json.dumps(report, sort_keys=True)


@pytest.mark.parametrize("dmax", range(1, 7))
def test_psi_minus1_reports_match_the_sharp_oracle(dmax):
    cases = [psi_minus1, _mutated(psi_minus1, dmax), _one_mutated(psi_minus1, dmax)]
    for fn in cases:
        got = verify_psi_minus1_theorem(dmax, psi_components=fn)
        assert _json(got) == _json(psi_minus1_report_via_sharp(dmax, fn))
    assert got["status"] == "fail"


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("dmax", range(1, 6))
def test_psi_odd_reports_match_the_sharp_oracle(n, dmax):
    cases = [psi_odd, _mutated(psi_odd, dmax), _one_mutated(psi_odd, dmax)]
    for fn in cases:
        got = verify_psi_odd_theorem(n, dmax, psi_components=fn)
        assert _json(got) == _json(psi_odd_report_via_sharp(n, dmax, fn))
    assert got["status"] == "fail"


def _words(d: int) -> list:
    """``unsharp_word(d)`` and, for d >= 2, a word whose letters end in
    x_2, x_2, x_3, x_3, x_4, so not in echelon form: substitution tries
    every form."""
    letters = [x1 + x2, x2 - x1 * 2, x1 * 3 + x3, x3 - x2 * 2, x_var(4) + x1]
    return [unsharp_word(d), tuple(letters[:d])]


def test_lazy_mu_log_matches_mu_log_at_any_word():
    S = random_gari_mould(random.Random(7), 4)
    for M in (paj(5), S):
        log, want = lazy_mu_log(M), mu_log(M)
        for d in range(1, M.depth + 1):
            for w in _words(d):
                assert log.eval_word(w) == want.components[d].substitute(w)


def test_the_expansion_at_a_word_matches_its_substituted_component():
    # building at a word, as every route does, against building at the
    # canonical word and substituting
    for s in (3, 5, -1):
        S = sa(s, 5)
        want = sang_expanded(S)
        for d in range(1, 6):
            for w in _words(d):
                got = rf_sum(special._sang_expansion_terms(S, w))
                assert got == want.components[d].substitute(w)


def test_the_sharp_claims_never_call_sharp(monkeypatch):
    # psi is compared in its own coordinates, against the u-side read at
    # unsharp_word(d); neither claim pushes a mould through sharp, nor
    # builds mu_log(paj) at the canonical words and unscales it.  Each
    # claim, and sang-expansion, sums both sides' terms: none builds psi,
    # mu_log(paj) or the expansion as a value of its own
    def refused(*args, **kwargs):
        raise AssertionError("the old path was taken")

    names = ("sharp", "mu_log", "dur_unscale", "psi_odd", "psi_minus1", "lazy_mu_log")
    names += ("_lazy_sang_expanded", "sang_expanded")
    for name in names:
        for module in (moulds, solutions, special, verify):
            monkeypatch.setattr(module, name, refused, raising=False)
    assert main(["verify", "psi-odd", "--n", "2", "--dmax", "5"]) == 0
    assert main(["verify", "psi-minus1", "--dmax", "6"]) == 0
    assert main(["verify", "sang-expansion", "--depth", "4"]) == 0


def test_the_sharp_claims_gate_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("work before the gate")

    for module in (special, solutions):
        monkeypatch.setattr(module, "_sang_expansion_terms", no_work)
    monkeypatch.setattr(solutions, "_mu_log_terms", no_work)
    with pytest.raises(ValueError, match="singulator depth 8 exceeds the maximum 7"):
        verify_psi_odd_theorem(1, 8, psi_components=no_work)
    with pytest.raises(ValueError, match="psi-minus1 dmax 17 exceeds the maximum 16"):
        verify_psi_minus1_theorem(17, psi_components=no_work)
    M = Mould.zero(2)
    M = Mould([M.components[0], M.components[1], one_over_forms(x1, x2)])
    with pytest.raises(special.UnsupportedInputError):
        special._lazy_sang_expanded(M)
