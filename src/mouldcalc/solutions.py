"""Polar and polynomial solution families and their comparison verifiers.

Builds the polar solutions psi_{2n+1} and psi_{-1} (rational functions of
x_1..x_d with x_0 = 0), the polynomial families xi', xi_{2n+1}, the
canonically normalized sigma^c_{2n+1}, luma_{2n+1} (all modulo depth >= 4),
and the depth-3 discrepancy moulds D_{a,b}.  Verifier routines check, as
exact symbolic identities:

* sharp(psi_{2n+1}) equals the singulator value sang(sa_{2n+1}), up to
  the singulator's depth limit ``special.SANG_MAX_DEPTH`` and for n up to
  ``PSI_ODD_MAX_N[dmax]``;
* sharp(psi_{-1}) equals mu-log(paj) divided by x_1 + ... + x_d, up to
  ``PSI_MINUS1_MAX_DMAX``: mu_log(paj) does not finish depth 8 in 600 s;
* xi_{2n+1} agrees with slang_1(sa_{2n+1}) below depth 4, sigma^c - luma
  is the Bernoulli-weighted sum of the D_{a,b}, and each D_{a,b}^(3) is a
  polynomial, for n up to ``COMPARISON_MAX_N``.

The families are concrete moulds, built by the eager operators, which take
any mould and return a concrete one.  The slices slang_r(sa_s) that they
read come from ``_slang_sa``, cached for the life of the process, so check
(i), ``luma`` and ``D_ab`` build each distinct slice once.

Verifiers return report dictionaries rather than raising, so failures
surface with their residuals.  Every check goes through ``_check``: it
passes when its residual is zero, and a failing check carries the residual
as text and as JSON.  ``_compare`` makes one check per depth from two
moulds; "D_{a,b}^(3) is a polynomial" has residual 0 when it is one and
D_{a,b}^(3) when it is not.  A depth or an n beyond a limit is refused
with ValueError before any work.  Each n limit admits the largest n
measured to verify within 60 s, a tenth of the 600 s in which the depths
that the depth limits refuse did not finish (the CLI on a 2-vCPU x86-64
host with Python 3.11.7, single runs, about +-15 %).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Callable, Iterable, Iterator

from .algebra import (
    LinearForm,
    Polynomial,
    RationalFunction,
    rf_str,
    rf_sum,
    rf_to_json,
)
from .flexions import ari
from .moulds import Mould, dur_unscale, mu_log, sharp
from .special import bernoulli, paj, sa, sang, slang, s_prime

__all__ = [
    "x_AB",
    "psi_odd",
    "psi_minus1",
    "psi_odd_mould",
    "psi_minus1_mould",
    "vine_partitions",
    "xi_prime",
    "xi",
    "sigma_c",
    "luma",
    "D_ab",
    "verify_psi_odd_theorem",
    "verify_psi_minus1_theorem",
    "verify_comparison_theorem",
]

PSI_MINUS1_MAX_DMAX = 7

# The largest n that verify psi-odd admits at each dmax.  Measured:
#   dmax 7: n = 3 took 53 s, n = 4 76 s
#   dmax 6: n = 10 took 54 s, n = 12 did not finish in 90 s
#   dmax 5: n = 20 took 29 s, n = 24 62 s
#   dmax 4: n = 56 took 48 s, n = 64 78 s
#   dmax 3: n = 192 took 35 s, n = 224 63 s
#   dmax 2: n = 2048 took 42 s, n = 2560 84 s
#   dmax 1: n = 32767 took 0.8 s; above it sa_{2n+1}'s degree 2n outgrows
#   the kernel's exponent field
PSI_ODD_MAX_N = {1: 32767, 2: 2048, 3: 192, 4: 56, 5: 20, 6: 10, 7: 3}

# The largest n that verify comparison admits.  Measured: n = 32 took 10 s,
# n = 48 38 s, n = 56 68 s.
COMPARISON_MAX_N = 48


def _x(i: int) -> LinearForm:
    # x_0 is the zero form; the others are genuine variables
    return LinearForm.zero() if i == 0 else LinearForm.variable(i)


def x_AB(A: Iterable[int], B: Iterable[int]) -> RationalFunction:
    """Product of differences prod_{a in A, b in B} (x_a - x_b), x_0 = 0.

    An empty A or B gives 1.
    """
    poly = Polynomial.one()
    for a in A:
        for b in B:
            poly = poly.mul_linear(_x(a) - _x(b))
    return RationalFunction.make(1, poly)


def _one_over_differences(A: Iterable[int], B: Iterable[int]) -> RationalFunction:
    den = [(_x(a) - _x(b), 1) for a in A for b in B]
    return RationalFunction.make(1, Polynomial.one(), den)


def _power_rf(form: LinearForm, e: int) -> RationalFunction:
    poly = Polynomial.one()
    for _ in range(e):
        poly = poly.mul_linear(form)
    return RationalFunction.make(1, poly)


def psi_odd(n: int, d: int) -> RationalFunction:
    """The degree-2n polar solution component in d variables.

    Average of insertion terms (x_i - x_{i-1})^{2n} and x_d^{2n} over
    difference-product denominators, minus the boundary family built from
    (x_1 - x_d)^{2n} and x_{d-1}^{2n}; all with x_0 = 0.
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    parts = []
    for i in range(1, d + 1):
        num = _power_rf(_x(i) - _x(i - 1), 2 * n)
        den = _one_over_differences(range(0, i - 1), [i - 1]) * _one_over_differences(
            range(i + 1, d + 1), [i]
        )
        parts.append(num * den)
        num = _power_rf(_x(d), 2 * n)
        den = _one_over_differences(range(1, i), [0]) * _one_over_differences(
            range(i, d), [d]
        )
        parts.append(num * den)
    for i in range(1, d):
        num = _power_rf(_x(1) - _x(d), 2 * n)
        den = _one_over_differences(range(2, i + 1), [1]) * _one_over_differences(
            [*range(i + 1, d), 0], [d]
        )
        parts.append(-(num * den))
        num = _power_rf(_x(d - 1), 2 * n)
        den = _one_over_differences([d, *range(1, i)], [0]) * _one_over_differences(
            range(i, d - 1), [d - 1]
        )
        parts.append(-(num * den))
    return rf_sum(parts) * Fraction(1, 2)


def vine_partitions(d: int) -> Iterator[tuple[int, ...]]:
    """Cut-point sequences 0 = i_0 < i_1 < ... < i_h = d, one per vine."""
    for h in range(1, d + 1):
        for interior in combinations(range(1, d), h - 1):
            yield (0, *interior, d)


def psi_minus1(d: int) -> RationalFunction:
    """The weight -1 polar solution component in d variables.

    Sum over vines, written through their cut points: each block
    contributes 1 / prod_j (x_j - x_{i_s}) and the whole carries 1/x_d
    and the alternating 1/h weights.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    parts = []
    for cuts in vine_partitions(d):
        h = len(cuts) - 1
        den = [(_x(d), 1)]
        for s in range(h):
            base = cuts[s]
            for j in range(cuts[s] + 1, cuts[s + 1] + 1):
                den.append((_x(j) - _x(base), 1))
        parts.append(
            RationalFunction.make(Fraction((-1) ** (h + 1), h), Polynomial.one(), den)
        )
    return rf_sum(parts)


def _mould_of(component: Callable[[int], RationalFunction], depth: int) -> Mould:
    """The mould with ``component(d)`` at depths 1..depth and 0 at depth 0."""
    return Mould(
        [RationalFunction.zero()] + [component(d) for d in range(1, depth + 1)]
    )


def psi_odd_mould(n: int, depth: int) -> Mould:
    """Components psi_{2n+1}^{(d)} for 1 <= d <= depth (0 at depth 0)."""
    return _mould_of(lambda d: psi_odd(n, d), depth)


def psi_minus1_mould(depth: int) -> Mould:
    return _mould_of(psi_minus1, depth)


# ---------------------------------------------------------------------------
# polynomial families (all modulo depth >= 4, so built at depth 3)
# ---------------------------------------------------------------------------


def xi_prime(S: Mould) -> Mould:
    """First-order correction xi'(S) = S + ari(S, s') + ari(ari(S, s'), s')/2,
    meaningful below depth 4."""
    d = min(S.depth, 3)
    S3 = S.truncate(3) if S.depth >= 3 else S
    sp = s_prime(S3.depth)
    first = ari(S3, sp)
    return (S3 + first + ari(first, sp) * Fraction(1, 2)).truncate(d)


def xi(n: int) -> Mould:
    """xi_{2n+1} = xi'(sa_{2n+1}) below depth 4."""
    if n < 1:
        raise ValueError("need n >= 1")
    return xi_prime(sa(2 * n + 1, 3))


def _correction_pairs(n: int) -> Iterator[tuple[int, int]]:
    # the weight 1/(24b) is singular at b = 0, so both indices start at 1;
    # for n = 1 the correction sums are empty
    for a in range(1, n):
        yield a, n - a


def _weight(n: int, a: int) -> Fraction:
    """The Bernoulli weight B_2a B_2b / B_2n C(2n, 2a), b = n - a, shared by
    the corrections of sigma_c and luma and by the weighted D sum."""
    b = n - a
    return bernoulli(2 * a) * bernoulli(2 * b) / bernoulli(2 * n) * comb(2 * n, 2 * a)


def _ari_sa(a: int, b: int) -> Mould:
    """ari(sa_{2a+1}, ari(sa_{2b+1}, sa_{-1})) below depth 4."""
    return ari(sa(2 * a + 1, 3), ari(sa(2 * b + 1, 3), sa(-1, 3)))


@lru_cache(maxsize=None)
def _slang_sa(r: int, s: int) -> Mould:
    """slang_r(sa_s) below depth 4, the slice every polynomial family reads."""
    return slang(r, sa(s, 3))


def _ari_slang(a: int, b: int) -> Mould:
    """ari(slang_1(sa_{2a+1}), slang_2(sa_{2b})) below depth 4."""
    return ari(_slang_sa(1, 2 * a + 1), _slang_sa(2, 2 * b))


def sigma_c(n: int, correction_scale: Fraction | int = 1) -> Mould:
    """Canonical normalization below depth 4:
    xi_{2n+1} + sum_{a+b=n} (1/24b) (B_2a B_2b / B_2n) C(2n, 2a)
    ari(sa_{2a+1}, ari(sa_{2b+1}, sa_{-1})).

    ``correction_scale`` rescales the Bernoulli-weighted sum; it exists so
    negative-control tests can flip the coefficient's sign.
    """
    total = xi(n)
    for a, b in _correction_pairs(n):
        coeff = _weight(n, a) / (24 * b) * Fraction(correction_scale)
        total = total + _ari_sa(a, b) * coeff
    return total


def luma(n: int) -> Mould:
    """Flexion-side polynomial solution below depth 4:
    slang_1(sa_{2n+1}) - (1/12) sum_{a+b=n} (B_2a B_2b / B_2n) C(2n, 2a)
    ari(slang_1(sa_{2a+1}), slang_2(sa_{2b}))."""
    if n < 1:
        raise ValueError("need n >= 1")
    total = _slang_sa(1, 2 * n + 1)
    for a, b in _correction_pairs(n):
        total = total + _ari_slang(a, b) * (_weight(n, a) * Fraction(-1, 12))
    return total


def D_ab(a: int, b: int) -> Mould:
    """Discrepancy mould D_{a,b} = ari(sa_{2a+1}, ari(sa_{2b+1}, sa_{-1}))
    + 2b ari(slang_1(sa_{2a+1}), slang_2(sa_{2b})); lives in depths >= 3."""
    if a < 1 or b < 1:
        raise ValueError("need a, b >= 1")
    return _ari_sa(a, b) + _ari_slang(a, b) * (2 * b)


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------


def _check(claim: str, depth: int, residual: RationalFunction) -> dict:
    """One check of a report: it passes when the residual is zero, and a
    failing check carries the residual as text and as JSON."""
    ok = residual.is_zero()
    report = {"claim": claim, "depth": depth, "status": "pass" if ok else "fail"}
    if not ok:
        report["residual"] = rf_str(residual)
        report["residual_json"] = rf_to_json(residual)
    return report


def _compare(
    label: Callable[[int], str], lhs: Mould, rhs: Mould, depths: Iterable[int]
) -> list[dict]:
    """One check per depth d, named ``label(d)``: lhs^(d) == rhs^(d)."""
    return [_check(label(d), d, lhs.components[d] - rhs.components[d]) for d in depths]


def _wrap(claim: str, checks: list[dict]) -> dict:
    return {
        "claim": claim,
        "status": "pass" if all(c["status"] == "pass" for c in checks) else "fail",
        "checks": checks,
    }


def verify_psi_odd_theorem(
    n: int,
    dmax: int,
    psi_components: Callable[[int, int], RationalFunction] = psi_odd,
) -> dict:
    """Check sharp(psi_{2n+1})^{(d)} = sang(sa_{2n+1})^{(d)} for d <= dmax.

    ``sang`` takes the four-sum expansion, which is proven equal to the
    compositional singulator for every depth-1-supported mould at every
    admitted depth.  ``psi_components`` may be overridden (negative
    controls inject mutated components here).
    """
    limit = PSI_ODD_MAX_N.get(dmax)
    if limit is not None and n > limit:
        raise ValueError(f"psi-odd n {n} exceeds the maximum {limit} at dmax {dmax}")
    target = sang(sa(2 * n + 1, dmax))
    checks = _compare(
        lambda d: f"sharp(psi_{2*n+1})^({d}) == sang(sa_{2*n+1})^({d})",
        sharp(_mould_of(lambda d: psi_components(n, d), dmax)),
        target,
        range(1, dmax + 1),
    )
    return _wrap(f"psi-odd n={n}", checks)


def verify_psi_minus1_theorem(
    dmax: int,
    psi_components: Callable[[int], RationalFunction] = psi_minus1,
) -> dict:
    """Check sharp(psi_{-1})^{(d)} = mu_log(paj)^{(d)} / (x_1+...+x_d)."""
    if dmax > PSI_MINUS1_MAX_DMAX:
        raise ValueError(f"psi-minus1 dmax {dmax} exceeds the maximum {PSI_MINUS1_MAX_DMAX}")
    target = dur_unscale(mu_log(paj(dmax)))
    checks = _compare(
        lambda d: f"sharp(psi_-1)^({d}) == mu_log(paj)^({d})/(x_1+..+x_{d})",
        sharp(_mould_of(psi_components, dmax)),
        target,
        range(1, dmax + 1),
    )
    return _wrap("psi-minus1", checks)


def verify_comparison_theorem(n: int, sigma: Mould | None = None) -> dict:
    """Depth-3 comparison of the two polynomial families.

    (i) xi_{2n+1} == slang_1(sa_{2n+1}) below depth 4;
    (ii) sigma^c - luma equals the Bernoulli-weighted sum of D_{a,b} below
    depth 4;
    (iii) each D_{a,b}^(3) in the sum is a polynomial (and depths 1, 2
    vanish); a failing polynomial check carries D_{a,b}^(3) as residual.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n > COMPARISON_MAX_N:
        raise ValueError(f"comparison n {n} exceeds the maximum {COMPARISON_MAX_N}")
    checks = _compare(
        lambda m: f"xi_{2*n+1}^({m}) == slang_1(sa_{2*n+1})^({m})",
        xi(n),
        _slang_sa(1, 2 * n + 1),
        range(4),
    )
    diff = (sigma_c(n) if sigma is None else sigma) - luma(n)
    Ds = {(a, b): D_ab(a, b) for a, b in _correction_pairs(n)}
    weighted = Mould.zero(3)
    for (a, b), D in Ds.items():
        weighted = weighted + D * (_weight(n, a) / (24 * b))
    checks += _compare(
        lambda m: f"(sigma_c - luma)^({m}) == weighted D sum, n={n}",
        diff,
        weighted,
        range(4),
    )
    zero = Mould.zero(3)
    for (a, b), D in Ds.items():
        checks += _compare(lambda m: f"D_{a},{b}^({m}) == 0", D, zero, (1, 2))
        D3 = D.components[3]
        checks.append(
            _check(
                f"D_{a},{b}^(3) is a polynomial",
                3,
                RationalFunction.zero() if D3.is_polynomial() else D3,
            )
        )
    return _wrap(f"comparison n={n}", checks)
