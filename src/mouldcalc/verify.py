"""Named verification claims and the operator-expansion identity suite.

The expansion suite replays every low-depth closed expansion of the flexion
operators (arit, preari iterates, ari, garit, gari, expari, adari, the
singulator and its slices) and checks it two ways:

* generically, with opaque moulds whose evaluations are fresh symbols, so
  equality of both sides is a polynomial identity valid for all moulds;
* concretely, with seeded random polynomial moulds.

Both ways evaluate the same lazy operators (the flexion module's
``lazy_*`` and the singulator's ``lazy_sang``/``lazy_slang``) and share the
same right-hand-side builders, so a typo would have to appear twice to go
unnoticed.  The concrete rounds also check the eager ``arit``, ``gari``,
``expari`` and ``adari`` at their top depth; each of those materializes
its lazy twin at the canonical words.  The named claims drive these checks
plus the theorem verifiers from the solutions module; every claim returns a
report dict {claim, status, checks: [{claim, depth, status, ...}]}.  Checks
are made by the solutions module's ``_check`` and ``_compare``, so a failing
check carries ``residual`` and ``residual_json``; the two symmetry claims
share one body, whose failing shuffle-sum check carries ``residual`` and
the decider's ``witness`` instead.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable

from .algebra import (
    LinearForm,
    Polynomial,
    RationalFunction,
    one_over_forms,
    rf_str,
    x_var,
)
from .flexions import (
    adari,
    arit,
    expari,
    gari,
    lazy_adari,
    lazy_ari,
    lazy_arit,
    lazy_expari,
    lazy_gari,
    lazy_garit,
    lazy_preari,
)
from .generic import OpaqueMould, SymbolRegistry
from .moulds import Mould, _materialize, canonical_word
from .solutions import (
    _check,
    _compare,
    _wrap,
    verify_comparison_theorem,
    verify_psi_minus1_theorem,
    verify_psi_odd_theorem,
)
from .special import dupal, lazy_sang, lazy_slang, pal, sa, sang_expanded
from .symmetry import (
    _require_shuffle_sums,
    is_alternal,
    is_alternal_via_sh,
    is_symmetral,
    is_symmetral_via_sh,
)

__all__ = [
    "run_claim",
    "CLAIMS",
    "expansion_checks",
    "generic_expansion_checks",
    "random_expansion_checks",
    "random_ari_mould",
    "random_gari_mould",
]

_X1, _X2, _X3 = x_var(1), x_var(2), x_var(3)
_HALF = Fraction(1, 2)

RANDOM_MAX_DEGREE = 3  # the largest total degree of a random mould's monomial


def _rf(form: LinearForm) -> RationalFunction:
    return RationalFunction.make(1, form.as_polynomial())


def _frac(num_form: LinearForm, *den_forms: LinearForm) -> RationalFunction:
    return _rf(num_form) * one_over_forms(*den_forms)


def random_ari_mould(rng: random.Random, depth: int) -> Mould:
    """Random mould with small polynomial components and zero constant term."""
    comps = [RationalFunction.zero()]
    for m in range(1, depth + 1):
        terms: dict = {}
        for _ in range(rng.randint(1, 3)):
            mono = [0] * m
            for _ in range(rng.randint(0, RANDOM_MAX_DEGREE)):
                mono[rng.randrange(m)] += 1
            while mono and mono[-1] == 0:
                mono.pop()
            c = rng.randint(-3, 3)
            if c:
                key = tuple(mono)
                terms[key] = terms.get(key, 0) + c
        comps.append(RationalFunction.make(1, Polynomial.from_dict(terms)))
    return Mould(comps)


def random_gari_mould(rng: random.Random, depth: int) -> Mould:
    M = random_ari_mould(rng, depth)
    return Mould([RationalFunction.one()] + list(M.components[1:]))


# ---------------------------------------------------------------------------
# right-hand sides of the closed expansions (shared by both check modes)
# ---------------------------------------------------------------------------


def _ev(mould, *letters: LinearForm) -> RationalFunction:
    return mould.eval_word(tuple(letters))


def _arit_rhs2(M, N):
    return _ev(M, _X1 + _X2) * (_ev(N, _X1) - _ev(N, _X2))


def _arit_rhs3(M, N):
    return (
        _ev(M, _X1, _X2 + _X3) * (_ev(N, _X2) - _ev(N, _X3))
        + _ev(M, _X1 + _X2, _X3) * (_ev(N, _X1) - _ev(N, _X2))
        + _ev(M, _X1 + _X2 + _X3) * (_ev(N, _X1, _X2) - _ev(N, _X2, _X3))
    )


def _preari2_rhs2(A):
    return _ev(A, _X1 + _X2) * (_ev(A, _X1) - _ev(A, _X2)) + _ev(A, _X1) * _ev(A, _X2)


def _preari2_rhs3(A):
    return (
        _ev(A, _X1, _X2 + _X3) * (_ev(A, _X2) - _ev(A, _X3))
        + _ev(A, _X1 + _X2, _X3) * (_ev(A, _X1) - _ev(A, _X2))
        + _ev(A, _X1 + _X2 + _X3) * (_ev(A, _X1, _X2) - _ev(A, _X2, _X3))
        + _ev(A, _X1) * _ev(A, _X2, _X3)
        + _ev(A, _X1, _X2) * _ev(A, _X3)
    )


def _preari3_rhs3(A):
    return (
        (
            _ev(A, _X1 + _X2 + _X3) * (_ev(A, _X1) - _ev(A, _X2 + _X3))
            + _ev(A, _X1) * _ev(A, _X2 + _X3)
        )
        * (_ev(A, _X2) - _ev(A, _X3))
        + (
            _ev(A, _X1 + _X2 + _X3) * (_ev(A, _X1 + _X2) - _ev(A, _X3))
            + _ev(A, _X1 + _X2) * _ev(A, _X3)
        )
        * (_ev(A, _X1) - _ev(A, _X2))
        + (
            _ev(A, _X1 + _X2) * (_ev(A, _X1) - _ev(A, _X2))
            + _ev(A, _X1) * _ev(A, _X2)
        )
        * _ev(A, _X3)
    )


def _ari_rhs2(M, N):
    # arit difference plus the product-commutator terms (the bracket is
    # preari(M,N) - preari(N,M), and preari carries the mould product)
    return (
        _arit_rhs2(M, N)
        - _arit_rhs2(N, M)
        + _ev(M, _X1) * _ev(N, _X2)
        - _ev(N, _X1) * _ev(M, _X2)
    )


def _ari_rhs3(M, N):
    return (
        _arit_rhs3(M, N)
        - _arit_rhs3(N, M)
        + _ev(M, _X1) * _ev(N, _X2, _X3)
        + _ev(M, _X1, _X2) * _ev(N, _X3)
        - _ev(N, _X1) * _ev(M, _X2, _X3)
        - _ev(N, _X1, _X2) * _ev(M, _X3)
    )


def _garit_rhs1(S, T):
    return _ev(S, _X1)


def _garit_rhs2(S, T):
    return _ev(S, _X1, _X2) + _ev(S, _X1 + _X2) * (_ev(T, _X1) - _ev(T, _X2))


def _garit_rhs3(S, T):
    # The depth-3 bracket carries both product corrections
    # + T^1(x_2) T^1(x_3) - T^1(x_1) T^1(x_3); this is the form consistent
    # with the gari expansion below (gari = garit x T).
    return (
        _ev(S, _X1, _X2, _X3)
        + _ev(S, _X1, _X2 + _X3) * (_ev(T, _X2) - _ev(T, _X3))
        + _ev(S, _X1 + _X2, _X3) * (_ev(T, _X1) - _ev(T, _X2))
        + _ev(S, _X1 + _X2 + _X3)
        * (
            _ev(T, _X1, _X2)
            - _ev(T, _X2, _X3)
            + _ev(T, _X2) * _ev(T, _X3)
            - _ev(T, _X1) * _ev(T, _X3)
        )
    )


def _gari_rhs1(S, T):
    return _ev(S, _X1) + _ev(T, _X1)


def _gari_rhs2(S, T):
    return (
        _ev(S, _X1, _X2)
        + _ev(S, _X1 + _X2) * (_ev(T, _X1) - _ev(T, _X2))
        + _ev(S, _X1) * _ev(T, _X2)
        + _ev(T, _X1, _X2)
    )


def _gari_rhs3(S, T):
    return (
        _garit_rhs3(S, T)
        + _garit_rhs2(S, T) * _ev(T, _X3)
        + _ev(S, _X1) * _ev(T, _X2, _X3)
        + _ev(T, _X1, _X2, _X3)
    )


def _expari_rhs1(A):
    return _ev(A, _X1)


def _expari_rhs2(A):
    return _ev(A, _X1, _X2) + _HALF * _preari2_rhs2(A)


def _expari_rhs3(A):
    return (
        _ev(A, _X1, _X2, _X3)
        + _HALF * _preari2_rhs3(A)
        + Fraction(1, 6) * _preari3_rhs3(A)
    )


def _adari_rhs1(S, A):
    return _ev(A, _X1)


def _adari_rhs2(S, A):
    return (
        _ev(A, _X1, _X2)
        + (_ev(S, _X1 + _X2) - _ev(S, _X2)) * _ev(A, _X1)
        - (_ev(S, _X1 + _X2) - _ev(S, _X1)) * _ev(A, _X2)
        + (_ev(S, _X2) - _ev(S, _X1)) * _ev(A, _X1 + _X2)
    )


def _sang_rhs1(A):
    return _HALF * (_ev(A, _X1) + _ev(A, -_X1))


def _sang_rhs2(A):
    x1, x2 = _X1, _X2
    return (
        _HALF * (_ev(A, x1, x2) + _ev(A, -x1, -x2))
        + _HALF * one_over_forms(x2) * (_ev(A, x1) - _ev(A, -x1))
        - _HALF * one_over_forms(x1) * (_ev(A, x2) - _ev(A, -x2))
        + _HALF * _frac(x1, x2, x1 + x2) * _ev(A, -x1)
        - _HALF * _frac(x2, x1, x1 + x2) * _ev(A, -x2)
        + _HALF * _frac(x2 - x1, x1, x2) * _ev(A, -x1 - x2)
    )


def _slang_rhs1(A, r):
    if r != 1:
        return RationalFunction.zero()
    return _HALF * (_ev(A, _X1) + _ev(A, -_X1))


def _slang_rhs2(A, r):
    x1, x2 = _X1, _X2
    if r == 2:
        return _HALF * (
            _ev(A, x1, x2)
            + _ev(A, -x1, -x2)
            + _HALF * _frac(x1 - x2, x1, x2) * (_ev(A, x1 + x2) - _ev(A, -x1 - x2))
            + _HALF * _frac(x1 + 2 * x2, x2, x1 + x2) * (_ev(A, x1) - _ev(A, -x1))
            - _HALF * _frac(2 * x1 + x2, x1, x1 + x2) * (_ev(A, x2) - _ev(A, -x2))
        )
    if r == 1:
        # inner 1/2 factors as in the r = 2 block; without them the slices
        # would not sum back to the singulator
        return _HALF * (
            _HALF * _frac(x1, x2, x1 + x2) * (_ev(A, x1) + _ev(A, -x1))
            - _HALF * _frac(x2, x1, x1 + x2) * (_ev(A, x2) + _ev(A, -x2))
            - _HALF * _frac(x1 - x2, x1, x2) * (_ev(A, x1 + x2) + _ev(A, -x1 - x2))
        )
    return RationalFunction.zero()


# ---------------------------------------------------------------------------
# the expansion suite
# ---------------------------------------------------------------------------


def expansion_checks(M, N, S, T, A, SG, AD, label: str) -> list[dict]:
    """All closed-expansion identities, for the given inputs.

    M, N: Lie-side pair; S, T: group-side pair; A: Lie-side single input;
    SG: group-side element for the conjugation check; AD: Lie-side input
    for singulator checks (may carry depth-2 components).  Everything only
    needs ``depth`` and ``eval_word``.
    """
    w = canonical_word
    checks = []

    la = lazy_arit(N)(M)
    checks.append(_check(f"arit vanishing [{label}]", 1, la.eval_word(w(1))))
    checks.append(_check(f"arit depth 2 [{label}]", 2, la.eval_word(w(2)) - _arit_rhs2(M, N)))
    checks.append(_check(f"arit depth 3 [{label}]", 3, la.eval_word(w(3)) - _arit_rhs3(M, N)))

    p2 = lazy_preari(A, A)
    p3 = lazy_preari(p2, A)
    checks.append(_check(f"preari_2 depth 1 [{label}]", 1, p2.eval_word(w(1))))
    checks.append(_check(f"preari_2 depth 2 [{label}]", 2, p2.eval_word(w(2)) - _preari2_rhs2(A)))
    checks.append(_check(f"preari_2 depth 3 [{label}]", 3, p2.eval_word(w(3)) - _preari2_rhs3(A)))
    checks.append(_check(f"preari_3 depth 2 [{label}]", 2, p3.eval_word(w(2))))
    checks.append(_check(f"preari_3 depth 3 [{label}]", 3, p3.eval_word(w(3)) - _preari3_rhs3(A)))

    lr = lazy_ari(M, N)
    checks.append(_check(f"ari depth 2 [{label}]", 2, lr.eval_word(w(2)) - _ari_rhs2(M, N)))
    checks.append(_check(f"ari depth 3 [{label}]", 3, lr.eval_word(w(3)) - _ari_rhs3(M, N)))

    lg = lazy_garit(T)(S)
    checks.append(_check(f"garit depth 1 [{label}]", 1, lg.eval_word(w(1)) - _garit_rhs1(S, T)))
    checks.append(_check(f"garit depth 2 [{label}]", 2, lg.eval_word(w(2)) - _garit_rhs2(S, T)))
    checks.append(_check(f"garit depth 3 [{label}]", 3, lg.eval_word(w(3)) - _garit_rhs3(S, T)))

    gr = lazy_gari(S, T)
    checks.append(_check(f"gari depth 0 [{label}]", 0, gr.eval_word(w(0)) - RationalFunction.one()))
    checks.append(_check(f"gari depth 1 [{label}]", 1, gr.eval_word(w(1)) - _gari_rhs1(S, T)))
    checks.append(_check(f"gari depth 2 [{label}]", 2, gr.eval_word(w(2)) - _gari_rhs2(S, T)))
    checks.append(_check(f"gari depth 3 [{label}]", 3, gr.eval_word(w(3)) - _gari_rhs3(S, T)))

    ex = lazy_expari(A)
    checks.append(_check(f"expari depth 0 [{label}]", 0, ex.eval_word(w(0)) - RationalFunction.one()))
    checks.append(_check(f"expari depth 1 [{label}]", 1, ex.eval_word(w(1)) - _expari_rhs1(A)))
    checks.append(_check(f"expari depth 2 [{label}]", 2, ex.eval_word(w(2)) - _expari_rhs2(A)))
    checks.append(_check(f"expari depth 3 [{label}]", 3, ex.eval_word(w(3)) - _expari_rhs3(A)))

    ad = lazy_adari(SG)(A)
    checks.append(_check(f"adari depth 0 [{label}]", 0, ad.eval_word(w(0))))
    checks.append(_check(f"adari depth 1 [{label}]", 1, ad.eval_word(w(1)) - _adari_rhs1(SG, A)))
    checks.append(_check(f"adari depth 2 [{label}]", 2, ad.eval_word(w(2)) - _adari_rhs2(SG, A)))

    sg = lazy_sang(AD)
    checks.append(_check(f"sang depth 0 [{label}]", 0, sg.eval_word(w(0))))
    checks.append(_check(f"sang depth 1 [{label}]", 1, sg.eval_word(w(1)) - _sang_rhs1(AD)))
    checks.append(_check(f"sang depth 2 [{label}]", 2, sg.eval_word(w(2)) - _sang_rhs2(AD)))

    for r in (1, 2):
        sl = lazy_slang(r, AD)
        checks.append(
            _check(f"slang_{r} depth 1 [{label}]", 1, sl.eval_word(w(1)) - _slang_rhs1(AD, r))
        )
        checks.append(
            _check(f"slang_{r} depth 2 [{label}]", 2, sl.eval_word(w(2)) - _slang_rhs2(AD, r))
        )
    return checks


def generic_expansion_checks() -> list[dict]:
    """Expansion identities with opaque (uninterpreted) mould symbols."""
    reg = SymbolRegistry()
    M = OpaqueMould(reg, "M", 3)
    N = OpaqueMould(reg, "N", 3)
    S = OpaqueMould(reg, "S", 3, unit_value=1)
    T = OpaqueMould(reg, "T", 3, unit_value=1)
    A = OpaqueMould(reg, "A", 3)
    AD = OpaqueMould(reg, "B", 2)
    return expansion_checks(M, N, S, T, A, S, AD, "generic")


def random_expansion_checks(seed: int = 2024, rounds: int = 2) -> list[dict]:
    """Expansion identities instantiated with random polynomial moulds,
    plus top-depth checks of the eager operators."""
    checks = []
    rng = random.Random(seed)
    for k in range(rounds):
        M = random_ari_mould(rng, 3)
        N = random_ari_mould(rng, 3)
        S = random_gari_mould(rng, 3)
        T = random_gari_mould(rng, 3)
        A = random_ari_mould(rng, 3)
        AD = random_ari_mould(rng, 2)
        checks.extend(expansion_checks(M, N, S, T, A, S, AD, f"random {k}"))
        # eager implementations agree with the closed expansions too
        checks.append(
            _check(
                f"eager arit depth 3 [random {k}]",
                3,
                arit(N)(M).components[3] - _arit_rhs3(M, N),
            )
        )
        checks.append(
            _check(
                f"eager gari depth 3 [random {k}]",
                3,
                gari(S, T).components[3] - _gari_rhs3(S, T),
            )
        )
        checks.append(
            _check(
                f"eager expari depth 3 [random {k}]",
                3,
                expari(A).components[3] - _expari_rhs3(A),
            )
        )
        checks.append(
            _check(
                f"eager adari depth 2 [random {k}]",
                2,
                adari(S)(A).components[2] - _adari_rhs2(S, A),
            )
        )
    return checks


# ---------------------------------------------------------------------------
# named claims
# ---------------------------------------------------------------------------


def _symmetry_claim(name: str, build, decide, cross_check, depth: int) -> dict:
    """Claim ``name`` on ``build(depth)``: the shuffle-sum decision
    ``decide``, whose failing check carries the residual and the witness,
    and the dimould characterization ``cross_check`` up to depth 4."""
    _require_shuffle_sums(f"claim {name!r}", depth)
    M = build(depth)
    claim = f"{name.replace('-', ' ')} to depth {depth}"
    report = decide(M)
    cross_ok = cross_check(M.truncate(min(depth, 4)))
    checks = [
        {
            "claim": f"{claim} (shuffle sums)",
            "depth": depth,
            "status": "pass" if report.ok else "fail",
        },
        {
            "claim": f"{claim} (dimould characterization)",
            "depth": depth,
            "status": "pass" if cross_ok else "fail",
        },
    ]
    if not report.ok:
        checks[0]["residual"] = rf_str(report.residual)
        checks[0]["witness"] = report.witness_json()
    return _wrap(claim, checks)


def claim_psi_odd(n: int = 1, dmax: int = 3) -> dict:
    return verify_psi_odd_theorem(n, dmax)


def claim_psi_minus1(dmax: int = 4) -> dict:
    return verify_psi_minus1_theorem(dmax)


def claim_comparison(n: int = 2) -> dict:
    return verify_comparison_theorem(n)


def claim_pal_symmetral(depth: int = 5) -> dict:
    return _symmetry_claim("pal-symmetral", pal, is_symmetral, is_symmetral_via_sh, depth)


def claim_dupal_alternal(depth: int = 6) -> dict:
    return _symmetry_claim("dupal-alternal", dupal, is_alternal, is_alternal_via_sh, depth)


def claim_sang_expansion(depth: int = 4) -> dict:
    if depth < 1:
        raise ValueError("claim 'sang-expansion' needs depth 1 or more: both sides are 0 below it")
    checks = []
    for s in (3, 5):
        # the composition is lazy_sang's: sang itself takes the expansion
        checks += _compare(
            lambda m: f"sang(sa_{s}) composition == four-sum expansion, depth {m}",
            _materialize(lazy_sang(sa(s, depth))),
            sang_expanded(sa(s, depth)),
            range(depth + 1),
        )
    return _wrap(f"sang-expansion to depth {depth}", checks)


def claim_examples_section1() -> dict:
    checks = generic_expansion_checks() + random_expansion_checks()
    return _wrap("operator expansion identity suite", checks)


CLAIMS: dict[str, Callable[..., dict]] = {
    "psi-odd": claim_psi_odd,
    "psi-minus1": claim_psi_minus1,
    "comparison": claim_comparison,
    "pal-symmetral": claim_pal_symmetral,
    "dupal-alternal": claim_dupal_alternal,
    "sang-expansion": claim_sang_expansion,
    "examples-section1": claim_examples_section1,
}


def run_claim(name: str, **params) -> dict:
    """Run a named claim; a claim whose parameters leave it no check to run
    is refused with ValueError rather than reported as a vacuous pass."""
    if name not in CLAIMS:
        raise KeyError(name)
    report = CLAIMS[name](**params)
    if not report["checks"]:
        raise ValueError(f"claim {name!r} has no checks to run with {params}")
    return report
