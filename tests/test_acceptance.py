"""Acceptance suite: the eight exit criteria, each printed as PASS/FAIL.

Every check is an exact symbolic identity (zero tolerance).  Run with
``pytest tests/test_acceptance.py -v -s`` to see the one-line verdicts.
"""

from __future__ import annotations

import random
from fractions import Fraction

from mouldcalc.algebra import Polynomial, RationalFunction, x_var
from mouldcalc.flexions import ari, expari, gari, logari
from mouldcalc.moulds import Mould, _materialize, equal_mod_depth, mu
from mouldcalc.special import (
    dupal,
    lazy_sang,
    pal,
    sa,
    sang,
    sang_expanded,
    slang,
    slang_split,
)
from mouldcalc.solutions import (
    D_ab,
    psi_odd,
    sigma_c,
    verify_comparison_theorem,
    verify_psi_odd_theorem,
    verify_psi_minus1_theorem,
)
from mouldcalc.symmetry import dimould_mu, is_alternal, is_symmetral, sh_map
from mouldcalc.verify import (
    generic_expansion_checks,
    random_ari_mould,
    random_gari_mould,
    random_expansion_checks,
)

x1, x2, x3, x4 = (x_var(i) for i in range(1, 5))


def _verdict(criterion: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}")
    assert ok, criterion


def test_criterion_1_named_mould_golden_values():
    D = dupal(4)
    P = pal(3)
    ok = (
        D.component(1)
        == RationalFunction.make(Fraction(-1, 2), Polynomial.one())
        and D.component(2)
        == RationalFunction.make(
            Fraction(1, 12),
            Polynomial.from_dict({(1,): 1, (0, 1): -1}),
            [(x1, 1), (x2, 1)],
        )
        and D.component(3).is_zero()
        and D.component(4)
        == RationalFunction.make(
            Fraction(-1, 720),
            Polynomial.from_dict(
                {(1,): 1, (0, 1): -3, (0, 0, 1): 3, (0, 0, 0, 1): -1}
            ),
            [(x1, 1), (x2, 1), (x3, 1), (x4, 1)],
        )
        and P.component(1)
        == RationalFunction.make(Fraction(-1, 2), Polynomial.one(), [(x1, 1)])
        and P.component(2)
        == RationalFunction.make(
            Fraction(1, 12),
            Polynomial.from_dict({(1,): 1, (0, 1): 2}),
            [(x1, 1), (x2, 1), (x1 + x2, 1)],
        )
        and P.component(3)
        == RationalFunction.make(
            Fraction(-1, 24), Polynomial.one(), [(x1, 1), (x3, 1), (x1 + x2, 1)]
        )
    )
    _verdict("criterion 1: dupal/pal golden values match exactly", ok)


def test_criterion_2_expansion_identity_suite():
    checks = generic_expansion_checks() + random_expansion_checks(seed=7, rounds=1)
    ok = all(c["status"] == "pass" for c in checks)
    _verdict(
        f"criterion 2: operator expansion suite, {len(checks)} generic-symbolic "
        "and instantiated identities",
        ok,
    )


def test_criterion_3_polar_odd_theorem():
    ok = True
    for n in (1, 2):
        report = verify_psi_odd_theorem(n, 4)
        ok = ok and report["status"] == "pass"
    _verdict(
        "criterion 3: sharp(psi_{2n+1}) == sang(sa_{2n+1}) for n in {1,2}, depths 1-4",
        ok,
    )


def test_criterion_4_polar_minus1_theorem():
    report = verify_psi_minus1_theorem(4)
    _verdict(
        "criterion 4: sharp(psi_-1) == mu_log(paj)/(x_1+..+x_d) for d = 1-4",
        report["status"] == "pass",
    )


def test_criterion_5_comparison_part_1():
    from mouldcalc.solutions import xi

    ok = True
    for n in (1, 2, 3):
        ok = ok and equal_mod_depth(xi(n), slang(1, sa(2 * n + 1, 3)), 4)
    _verdict(
        "criterion 5: xi'(sa_{2n+1}) == slang_1(sa_{2n+1}) below depth 4, n in {1,2,3}",
        ok,
    )


def test_criterion_6_comparison_part_2():
    ok = True
    for a, b in ((1, 1), (1, 2), (2, 1)):
        D = D_ab(a, b)
        ok = ok and D.component(3).is_polynomial()
        ok = ok and D.component(1).is_zero() and D.component(2).is_zero()
    for n in (2, 3):
        report = verify_comparison_theorem(n)
        ok = ok and report["status"] == "pass"
    _verdict(
        "criterion 6: D_{a,b}^(3) polynomial and sigma_c - luma equals the "
        "weighted D sum below depth 4, n in {2,3}",
        ok,
    )


def test_criterion_7_property_suite():
    ok = bool(is_alternal(dupal(6)))
    ok = ok and bool(is_symmetral(pal(5)))

    A = sa(3, 4)
    total = Mould.zero(4)
    for part in slang_split(A):
        total = total + part
    ok = ok and total == sang(A)

    for s in (3, 5):
        ok = ok and sang_expanded(sa(s, 4)) == _materialize(lazy_sang(sa(s, 4)))

    rng = random.Random(20240811)
    S, T, U = (random_gari_mould(rng, 4) for _ in range(3))
    ok = ok and gari(gari(S, T), U) == gari(S, gari(T, U))
    A1 = random_ari_mould(rng, 4)
    ok = ok and logari(expari(A1)) == A1
    M, N = random_gari_mould(rng, 4), random_gari_mould(rng, 4)
    ok = ok and sh_map(mu(M, N)) == dimould_mu(sh_map(M), sh_map(N))
    P1, P2, P3 = (random_ari_mould(rng, 4) for _ in range(3))
    jac = ari(ari(P1, P2), P3) + ari(ari(P2, P3), P1) + ari(ari(P3, P1), P2)
    ok = ok and jac.is_zero()
    _verdict(
        "criterion 7: dupal alternal (6), pal symmetral (5), slice sum, four-sum "
        "agreement, gari assoc, expari/logari, Sh morphism, ari Jacobi",
        ok,
    )


def test_criterion_8_negative_controls():
    def flipped(n, d):
        value = psi_odd(n, d)
        if d == 2:
            extra = RationalFunction.make(
                2,
                (x2 - x1).as_polynomial() * (x2 - x1).as_polynomial(),
                [(x1, 1)],
            )
            return value + extra
        return value

    r1 = verify_psi_odd_theorem(1, 2, psi_components=flipped)
    bad1 = [c for c in r1["checks"] if c["status"] == "fail"]
    ok = r1["status"] == "fail" and bad1 and all(
        c.get("residual") not in (None, "0") for c in bad1
    )

    r2 = verify_comparison_theorem(2, sigma=sigma_c(2, correction_scale=-1))
    bad2 = [c for c in r2["checks"] if c["status"] == "fail"]
    ok = ok and r2["status"] == "fail" and bad2 and all(
        c.get("residual") not in (None, "0") for c in bad2
    )
    _verdict(
        "criterion 8: sign mutations of psi and of the sigma_c coefficient fail "
        "with nonzero residuals",
        ok,
    )
