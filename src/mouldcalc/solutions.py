"""Polar and polynomial solution families and their comparison verifiers.

Builds the polar solutions psi_{2n+1} and psi_{-1} (rational functions of
x_1..x_d with x_0 = 0), the polynomial families xi', xi_{2n+1}, the
canonically normalized sigma^c_{2n+1}, luma_{2n+1} (all modulo depth >= 4),
and the depth-3 discrepancy moulds D_{a,b}.  The polar solutions are
written in the paper's notation: every term is a scalar times a product of
numerator forms over a product of blocks x_{A,B} = prod_{a in A, b in B}
(x_a - x_b), built by one term builder, ``_term``, in a single ``make``;
``x_AB`` is its one-block case.  Verifier routines check, as exact symbolic
identities:

* sharp(psi_{2n+1}) equals the singulator value sang(sa_{2n+1});
* sharp(psi_{-1}) equals mu-log(paj) divided by x_1 + ... + x_d;
* xi_{2n+1} agrees with slang_1(sa_{2n+1}) below depth 4, sigma^c - luma
  is the Bernoulli-weighted sum of the D_{a,b}, and each D_{a,b}^(3) is a
  polynomial.

The families are concrete moulds, built by the eager operators, which take
any mould and return a concrete one.  The slices slang_r(sa_s) that they
read come from ``_slang_sa``, the ari brackets that ``sigma_c``, ``luma``
and ``D_ab`` share from ``_ari_sa`` and ``_ari_slang``, and ``xi``, which
check (i) and ``sigma_c`` both read, is memoized by n; each is cached for
the life of the process, so ``verify comparison`` builds each distinct
slice, bracket and xi once.

The two sharp claims never substitute psi.  ``sharp`` is an invertible
substitution, so sharp(psi)^(d) == T^(d) holds exactly when psi^(d) equals
T read at ``unsharp_word(d)`` = (x_1, x_2 - x_1, ..., x_d - x_{d-1}), whose
prefix sums are x_1..x_d.  ``_sharp_checks`` makes that comparison by one
``rf_sum`` per depth (``_difference``) of psi's terms and T's terms at the
word, negated.  T's terms are, for psi-odd, the four-sum expansion's of
sang(sa_{2n+1}) (``special._sang_expansion_terms``), and for psi-minus1,
mu-log(paj)'s (``_mu_log_terms``), each divided by the sum of the word's
letters, x_d.  Each builder's term
list is its one definition: ``psi_odd`` and ``psi_minus1`` are the sums of
``_psi_odd_terms`` and ``_psi_minus1_terms``.  So neither claim builds a
canonical side: when the claim holds, the lifted numerator is zero and
the sum returns before it tries any form, and at the unsharp word the two
sides even cancel term by term, psi_{-1}'s vines against mu-log's
splittings.  There every paj, mupaj and sa factor is read at differences
x_j - x_i, as psi's own denominators are, so the sum lifts by forms of two
terms.  A nonzero residual is read back at sharp's word (x_1, x_1 + x_2,
...), which is in echelon form, so the report carries the canonical
sharp(psi)^(d) - T^(d), as a check through ``sharp`` would.

Verifiers return report dictionaries rather than raising, so failures
surface with their residuals.  Every check of these verifiers goes through
``_check``: it passes when its residual is zero, and a failing check
carries the residual as text and as JSON.  ``_compare`` makes one check per
depth from two moulds; "D_{a,b}^(3) is a polynomial" has residual 0 when it
is one and D_{a,b}^(3) when it is not; a verifier left with no check to
make is refused, not passed.  The verifiers and the builders the compute
targets call (``psi_odd_mould``, ``xi``, ``sigma_c``, ``luma``, ``D_ab``)
refuse a depth, an n or an a + b above its cost limit in ``limits.LIMITS``
with ValueError before any work.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
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
from .limits import gate
from .moulds import Mould, _letter_sum, _mu_log_terms, _sharp_word, unsharp_word, vine_partitions
from .special import _sang_expansion_terms, bernoulli, paj, sa, slang, s_prime

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

def _require_n(n: int, what: str) -> None:
    if n < 1:
        raise ValueError("need n >= 1")
    gate((what, "n"), n)


def _x(i: int) -> LinearForm:
    # x_0 is the zero form; the others are genuine variables
    return LinearForm.zero() if i == 0 else LinearForm.variable(i)


def _differences(A: Iterable[int], B: Iterable[int]) -> list[LinearForm]:
    """The forms x_a - x_b for a in A and b in B, with x_0 = 0."""
    return [_x(a) - _x(b) for a in A for b in B]


def _term(
    scalar: Fraction | int, numerator: Iterable[LinearForm], *blocks
) -> RationalFunction:
    """``scalar * prod(numerator) / prod(x_AB(A, B) for A, B in blocks)``,
    built by one ``make``."""
    poly = Polynomial.one()
    for form in numerator:
        poly = poly.mul_linear(form)
    den = [(f, 1) for A, B in blocks for f in _differences(A, B)]
    return RationalFunction.make(scalar, poly, den)


def x_AB(A: Iterable[int], B: Iterable[int]) -> RationalFunction:
    """Product of differences prod_{a in A, b in B} (x_a - x_b), x_0 = 0.

    An empty A or B gives 1.
    """
    return _term(1, _differences(A, B))


def psi_odd(n: int, d: int) -> RationalFunction:
    """The degree-2n polar solution component in d variables: one ``rf_sum``
    of ``_psi_odd_terms``.

    Every term is a power over two blocks x_{A,B} (``_term``), with x_0 = 0
    and [a, b] = {a, ..., b}.  Half the sum over 1 <= i <= d of the
    insertion terms (x_i - x_{i-1})^{2n} / x_{[0,i-2],{i-1}} x_{[i+1,d],{i}}
    and x_d^{2n} / x_{[1,i-1],{0}} x_{[i,d-1],{d}}, minus half the sum over
    1 <= i < d of the boundary terms
    (x_1 - x_d)^{2n} / x_{[2,i],{1}} x_{[i+1,d-1] u {0},{d}} and
    x_{d-1}^{2n} / x_{{d} u [1,i-1],{0}} x_{[i,d-2],{d-1}}.
    """
    return rf_sum(_psi_odd_terms(n, d))


def _psi_odd_terms(n: int, d: int) -> list[RationalFunction]:
    """The 4d - 2 terms of ``psi_odd(n, d)``, each at its scale +-1/2."""
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")

    def term(sign, form, *blocks):
        return _term(Fraction(sign, 2), [form] * (2 * n), *blocks)

    parts = []
    for i in range(1, d + 1):
        parts += [
            term(1, _x(i) - _x(i - 1), (range(i - 1), [i - 1]), (range(i + 1, d + 1), [i])),
            term(1, _x(d), (range(1, i), [0]), (range(i, d), [d])),
        ]
    for i in range(1, d):
        parts += [
            term(-1, _x(1) - _x(d), (range(2, i + 1), [1]), ([*range(i + 1, d), 0], [d])),
            term(-1, _x(d - 1), ([d, *range(1, i)], [0]), (range(i, d - 1), [d - 1])),
        ]
    return parts


def psi_minus1(d: int) -> RationalFunction:
    """The weight -1 polar solution component in d variables: one
    ``rf_sum`` of ``_psi_minus1_terms``.

    Sum over vines, written through their cut points 0 = i_0 < ... < i_h
    = d: a vine contributes (-1)^(h+1)/h over the block x_{{d},{0}} = x_d
    followed by one block x_{A,{i_s}} per cut, A = {i_s + 1, ..., i_{s+1}}.
    """
    return rf_sum(_psi_minus1_terms(d))


def _psi_minus1_terms(d: int) -> list[RationalFunction]:
    """The 2^(d-1) vine terms of ``psi_minus1(d)``."""
    if d < 1:
        raise ValueError("need d >= 1")
    parts = []
    for cuts in vine_partitions(d):
        h = len(cuts) - 1
        blocks = [
            (range(cuts[s] + 1, cuts[s + 1] + 1), [cuts[s]]) for s in range(h)
        ]
        parts.append(_term(Fraction((-1) ** (h + 1), h), (), ([d], [0]), *blocks))
    return parts


def _mould_of(component: Callable[[int], RationalFunction], depth: int) -> Mould:
    """The mould with ``component(d)`` at depths 1..depth and 0 at depth 0."""
    return Mould(
        [RationalFunction.zero()] + [component(d) for d in range(1, depth + 1)]
    )


def psi_odd_mould(n: int, depth: int) -> Mould:
    """Components psi_{2n+1}^{(d)} for 1 <= d <= depth (0 at depth 0); a
    depth or an n above psi's limits is refused before any work."""
    gate(("psi", "n"), n, ("depth", depth))
    return _mould_of(lambda d: psi_odd(n, d), depth)


def psi_minus1_mould(depth: int) -> Mould:
    return _mould_of(psi_minus1, depth)


# ---------------------------------------------------------------------------
# polynomial families (all modulo depth >= 4, so built at depth 3)
# ---------------------------------------------------------------------------


def xi_prime(S: Mould) -> Mould:
    """First-order correction xi'(S) = S + ari(S, s') + ari(ari(S, s'), s')/2,
    meaningful below depth 4."""
    S3 = S.truncate(3)
    sp = s_prime(S3.depth)
    first = ari(S3, sp)
    return S3 + first + ari(first, sp) * Fraction(1, 2)


@lru_cache(maxsize=None)
def xi(n: int) -> Mould:
    """xi_{2n+1} = xi'(sa_{2n+1}) below depth 4, built once per n."""
    _require_n(n, "xi")
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


@lru_cache(maxsize=None)
def _ari_sa(a: int, b: int) -> Mould:
    """ari(sa_{2a+1}, ari(sa_{2b+1}, sa_{-1})) below depth 4."""
    return ari(sa(2 * a + 1, 3), ari(sa(2 * b + 1, 3), sa(-1, 3)))


@lru_cache(maxsize=None)
def _slang_sa(r: int, s: int) -> Mould:
    """slang_r(sa_s) below depth 4, the slice every polynomial family reads."""
    return slang(r, sa(s, 3))


@lru_cache(maxsize=None)
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
    _require_n(n, "sigma_c")
    total = xi(n)
    for a, b in _correction_pairs(n):
        coeff = _weight(n, a) / (24 * b) * Fraction(correction_scale)
        total = total + _ari_sa(a, b) * coeff
    return total


def luma(n: int) -> Mould:
    """Flexion-side polynomial solution below depth 4:
    slang_1(sa_{2n+1}) - (1/12) sum_{a+b=n} (B_2a B_2b / B_2n) C(2n, 2a)
    ari(slang_1(sa_{2a+1}), slang_2(sa_{2b}))."""
    _require_n(n, "luma")
    total = _slang_sa(1, 2 * n + 1)
    for a, b in _correction_pairs(n):
        total = total + _ari_slang(a, b) * (_weight(n, a) * Fraction(-1, 12))
    return total


def D_ab(a: int, b: int) -> Mould:
    """Discrepancy mould D_{a,b} = ari(sa_{2a+1}, ari(sa_{2b+1}, sa_{-1}))
    + 2b ari(slang_1(sa_{2a+1}), slang_2(sa_{2b})); lives in depths >= 3."""
    if a < 1 or b < 1:
        raise ValueError("need a, b >= 1")
    gate(("D", "a+b"), a + b)
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
    """The report of ``claim``; one with no checks is refused with
    ValueError rather than reported as a vacuous pass."""
    if not checks:
        raise ValueError(f"claim {claim!r} has no checks to run")
    return {
        "claim": claim,
        "status": "pass" if all(c["status"] == "pass" for c in checks) else "fail",
        "checks": checks,
    }


def _difference(lhs: list, rhs: list) -> RationalFunction:
    """sum(lhs) - sum(rhs), canonicalized once: one ``rf_sum`` of rhs and
    the negated lhs, negated.  lhs holds values and rhs may hold ``rf_sum``
    pairs, so lhs is the side negated term by term."""
    return -rf_sum([*(-t for t in lhs), *rhs])


def _sharp_checks(
    label: Callable[[int], str],
    psi: Callable[[int], list],
    target: Callable[[tuple], list],
    dmax: int,
) -> list[dict]:
    """One check per depth d <= dmax, named ``label(d)``: sharp(psi)^(d) ==
    T^(d), made as ``psi(d) == target(unsharp_word(d))``, T read at that
    word, by one ``_difference`` of the two term lists.  A nonzero residual
    is read back at sharp's word, which is in echelon form, so it is the
    canonical sharp(psi)^(d) - T^(d)."""
    checks = []
    for d in range(1, dmax + 1):
        residual = _difference(psi(d), target(unsharp_word(d)))
        if not residual.is_zero():
            residual = residual.substitute(_sharp_word(d))
        checks.append(_check(label(d), d, residual))
    return checks


def verify_psi_odd_theorem(
    n: int,
    dmax: int,
    psi_components: Callable[[int, int], RationalFunction] | None = None,
) -> dict:
    """Check sharp(psi_{2n+1})^{(d)} = sang(sa_{2n+1})^{(d)} for d <= dmax.

    ``sang`` takes the four-sum expansion, which is proven equal to the
    compositional singulator for every depth-1-supported mould at every
    admitted depth; its terms are read at ``unsharp_word(d)`` against
    psi's own (``_sharp_checks``).  ``psi_components`` may be given
    (negative controls inject mutated components here); its value enters
    the sum as one term.
    """
    # the singulator's depth first, so that a dmax above it is refused as
    # every other singulator route refuses it, whatever the n
    gate(("singulator", "depth"), dmax)
    gate(("psi", "n"), n, ("dmax", dmax))
    S = sa(2 * n + 1, dmax)
    checks = _sharp_checks(
        lambda d: f"sharp(psi_{2*n+1})^({d}) == sang(sa_{2*n+1})^({d})",
        lambda d: _psi_odd_terms(n, d) if psi_components is None else [psi_components(n, d)],
        lambda w: _sang_expansion_terms(S, w),
        dmax,
    )
    return _wrap(f"psi-odd n={n}", checks)


def verify_psi_minus1_theorem(
    dmax: int,
    psi_components: Callable[[int], RationalFunction] | None = None,
) -> dict:
    """Check sharp(psi_{-1})^{(d)} = mu_log(paj)^{(d)} / (x_1+...+x_d),
    with mu_log(paj)'s terms read at ``unsharp_word(d)`` and divided by the
    sum of its letters, x_d (``_sharp_checks``).  A given
    ``psi_components`` enters the sum as one term."""
    gate(("psi-minus1", "dmax"), dmax)
    P = paj(dmax)
    checks = _sharp_checks(
        lambda d: f"sharp(psi_-1)^({d}) == mu_log(paj)^({d})/(x_1+..+x_{d})",
        _psi_minus1_terms if psi_components is None else lambda d: [psi_components(d)],
        lambda w: [(a.div_linear(_letter_sum(w)), b) for a, b in _mu_log_terms(P, w)],
        dmax,
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
    _require_n(n, "comparison")
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
