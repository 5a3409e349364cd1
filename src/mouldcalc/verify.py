"""Named verification claims and the operator-expansion identity suite.

The expansion suite replays every low-depth closed expansion of the flexion
operators (arit, preari iterates, ari, garit, gari, expari, adari, the
singulator and its slices) and checks it two ways:

* generically, with opaque moulds whose evaluations are fresh symbols, so
  equality of both sides is a polynomial identity valid for all moulds;
* concretely, with seeded random polynomial moulds.

Both ways evaluate the same lazy operators (the flexion module's
``lazy_*``, the singulator ``lazy_sang`` and its slices) and share the
same right-hand-side builders, so a typo would have to appear twice to go
unnoticed.  The sang rows and both slice rows share one singulator: the
slices are taken from the ``lazy_sang`` that the sang rows read.  Each
expansion is written once, and the larger ones are built from the
smaller: preari(M, N) is the arit expansion plus the mould product,
ari(M, N) is preari(M, N) - preari(N, M), expari reads preari at
(A, A) and the hand-expanded preari_3, gari at depth d is the garit
expansion at each prefix times T at the rest plus T at the whole word, and
the depth-1 slice slang_1 is sang's depth 1.  Each right-hand-side
builder runs once per inputs within a suite run, one ``expansion_checks``
call or one random round with its eager rows, and nothing is held after
it (``_suite_run``), so the larger expansions reuse the smaller ones'
values.  No expansion reads an operator it checks.  The checks are one
table of rows (name, depth, mould, expansion) read by one loop,
``_row_checks``; each row reads its mould before its expansion, and the
rows keep a fixed order, so the opaque registry numbers its symbols the
same way on every run and a failing residual is reproducible.  A value
that a run or the node table shares was built earlier in the same order,
so sharing it numbers no symbol differently.  The concrete rounds also
check the eager ``arit``, ``gari``, ``expari`` and ``adari`` at their top
depth with the same loop; each of those materializes its lazy twin at the
canonical words, which, built while the round's rows live, is the node
the rows read (``moulds``' node table).

The named claims drive these checks plus the theorem verifiers from the
solutions module; every claim returns a report dict {claim, status,
checks: [{claim, depth, status, ...}]}.  Checks are made by the solutions
module's ``_check`` and ``_compare``, so a failing check carries
``residual`` and ``residual_json``; the two symmetry claims share one body,
whose failing shuffle-sum check carries ``residual`` and the decider's
``witness`` instead.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from fractions import Fraction
from functools import update_wrapper
from typing import Callable, Iterator

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
from .limits import gate
from .moulds import Mould, _key, _materialize, canonical_word
from .solutions import (
    _check,
    _compare,
    _wrap,
    verify_comparison_theorem,
    verify_psi_minus1_theorem,
    verify_psi_odd_theorem,
)
from .special import _slices, dupal, lazy_sang, pal, sa, sang_expanded
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


def _frac(num_form: LinearForm, *den_forms: LinearForm) -> RationalFunction:
    return RationalFunction.make(1, num_form.as_polynomial()) * one_over_forms(*den_forms)


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


# The right-hand sides of the suite run in progress, by ``moulds._key`` of
# builder and inputs, each with the inputs it was built from; None between runs.
_RUN: dict | None = None


@contextmanager
def _suite_run() -> Iterator[None]:
    """One suite run: each right-hand-side builder runs once per inputs
    inside it, and nothing is held after it."""
    global _RUN
    _RUN = {}
    try:
        yield
    finally:
        _RUN = None


def _per_run(builder: Callable[..., RationalFunction]) -> Callable[..., RationalFunction]:
    """``builder`` once per inputs within a suite run, and on every call
    outside one.  The entry holds its inputs, so no identity in a key of
    the run is reused."""

    def once(*args) -> RationalFunction:
        if _RUN is None:
            return builder(*args)
        key = _key(builder, args)
        got = _RUN.get(key)
        if got is None:
            got = _RUN[key] = (args, builder(*args))
        return got[1]

    return update_wrapper(once, builder)


def _ev(mould, *letters: LinearForm) -> RationalFunction:
    return mould.eval_word(tuple(letters))


@_per_run
def _arit_rhs2(M, N):
    return _ev(M, _X1 + _X2) * (_ev(N, _X1) - _ev(N, _X2))


@_per_run
def _arit_rhs3(M, N):
    return (
        _ev(M, _X1, _X2 + _X3) * (_ev(N, _X2) - _ev(N, _X3))
        + _ev(M, _X1 + _X2, _X3) * (_ev(N, _X1) - _ev(N, _X2))
        + _ev(M, _X1 + _X2 + _X3) * (_ev(N, _X1, _X2) - _ev(N, _X2, _X3))
    )


@_per_run
def _preari_rhs2(M, N):
    # preari(M, N) = arit(N)(M) + mu(M, N); ari(M, N) is its antisymmetrization
    return _arit_rhs2(M, N) + _ev(M, _X1) * _ev(N, _X2)


@_per_run
def _preari_rhs3(M, N):
    return (
        _arit_rhs3(M, N)
        + _ev(M, _X1) * _ev(N, _X2, _X3)
        + _ev(M, _X1, _X2) * _ev(N, _X3)
    )


@_per_run
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


@_per_run
def _garit_rhs2(S, T):
    return _ev(S, _X1, _X2) + _ev(S, _X1 + _X2) * (_ev(T, _X1) - _ev(T, _X2))


@_per_run
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


@_per_run
def _gari_rhs(S, T, d):
    """gari(S, T) = mu(garit(T)(S), T) at x_1..x_d: the garit expansion at
    each nonempty prefix x_1..x_k, longest first, times T at the rest, plus
    T at the whole word.  garit is S(x_1) at depth 1."""
    w = canonical_word(d)
    garit = {1: lambda: _ev(S, _X1), 2: lambda: _garit_rhs2(S, T), 3: lambda: _garit_rhs3(S, T)}
    value = garit[d]()
    for k in range(d - 1, 0, -1):
        value += garit[k]() * _ev(T, *w[k:])
    return value + _ev(T, *w)


@_per_run
def _expari_rhs3(A):
    # expari(A) = sum_n preari_n(A) / n!, with preari_2 = preari(A, A)
    return (
        _ev(A, _X1, _X2, _X3)
        + _HALF * _preari_rhs3(A, A)
        + Fraction(1, 6) * _preari3_rhs3(A)
    )


@_per_run
def _adari_rhs2(S, A):
    return (
        _ev(A, _X1, _X2)
        + (_ev(S, _X1 + _X2) - _ev(S, _X2)) * _ev(A, _X1)
        - (_ev(S, _X1 + _X2) - _ev(S, _X1)) * _ev(A, _X2)
        + (_ev(S, _X2) - _ev(S, _X1)) * _ev(A, _X1 + _X2)
    )


@_per_run
def _sang_rhs1(A):
    return _HALF * (_ev(A, _X1) + _ev(A, -_X1))


@_per_run
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


@_per_run
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
    # r == 1: inner 1/2 factors as in the r = 2 block; without them the
    # slices would not sum back to the singulator
    return _HALF * (
        _HALF * _frac(x1, x2, x1 + x2) * (_ev(A, x1) + _ev(A, -x1))
        - _HALF * _frac(x2, x1, x1 + x2) * (_ev(A, x2) + _ev(A, -x2))
        - _HALF * _frac(x1 - x2, x1, x2) * (_ev(A, x1 + x2) + _ev(A, -x1 - x2))
    )


# ---------------------------------------------------------------------------
# the expansion suite
# ---------------------------------------------------------------------------

_zero, _one = RationalFunction.zero, RationalFunction.one


def _row_checks(rows, label: str) -> list[dict]:
    """One check per row (name, depth d, mould, expansion): the mould at
    x_1..x_d minus the expansion, a thunk.  The mould is read first, so
    opaque symbols are numbered in the order the operators meet them."""
    return [
        _check(f"{name} [{label}]", d, mould.eval_word(canonical_word(d)) - rhs())
        for name, d, mould, rhs in rows
    ]


def expansion_checks(M, N, S, T, A, AD, label: str) -> list[dict]:
    """All closed-expansion identities, for the given inputs, in one suite
    run.

    M, N: Lie-side pair; S, T: group-side pair (S also conjugates in the
    adari rows); A: Lie-side single input; AD: Lie-side input for singulator
    checks (may carry depth-2 components).  Everything only needs ``depth``
    and ``eval_word``.
    """
    with _suite_run():
        return _row_checks(_expansion_rows(M, N, S, T, A, AD), label)


def _expansion_rows(M, N, S, T, A, AD) -> list:
    """The rows of ``expansion_checks``."""
    la = lazy_arit(N)(M)
    p2 = lazy_preari(A, A)
    p3 = lazy_preari(p2, A)
    lr = lazy_ari(M, N)
    lg = lazy_garit(T)(S)
    gr = lazy_gari(S, T)
    ex = lazy_expari(A)
    ad = lazy_adari(S)(A)
    sg = lazy_sang(AD)
    slice_r = _slices(sg)
    sl1, sl2 = slice_r(1), slice_r(2)
    return [
        ("arit vanishing", 1, la, _zero),
        ("arit depth 2", 2, la, lambda: _arit_rhs2(M, N)),
        ("arit depth 3", 3, la, lambda: _arit_rhs3(M, N)),
        ("preari_2 depth 1", 1, p2, _zero),
        ("preari_2 depth 2", 2, p2, lambda: _preari_rhs2(A, A)),
        ("preari_2 depth 3", 3, p2, lambda: _preari_rhs3(A, A)),
        ("preari_3 depth 2", 2, p3, _zero),
        ("preari_3 depth 3", 3, p3, lambda: _preari3_rhs3(A)),
        ("ari depth 2", 2, lr, lambda: _preari_rhs2(M, N) - _preari_rhs2(N, M)),
        ("ari depth 3", 3, lr, lambda: _preari_rhs3(M, N) - _preari_rhs3(N, M)),
        ("garit depth 1", 1, lg, lambda: _ev(S, _X1)),
        ("garit depth 2", 2, lg, lambda: _garit_rhs2(S, T)),
        ("garit depth 3", 3, lg, lambda: _garit_rhs3(S, T)),
        ("gari depth 0", 0, gr, _one),
        ("gari depth 1", 1, gr, lambda: _gari_rhs(S, T, 1)),
        ("gari depth 2", 2, gr, lambda: _gari_rhs(S, T, 2)),
        ("gari depth 3", 3, gr, lambda: _gari_rhs(S, T, 3)),
        ("expari depth 0", 0, ex, _one),
        ("expari depth 1", 1, ex, lambda: _ev(A, _X1)),
        ("expari depth 2", 2, ex, lambda: _ev(A, _X1, _X2) + _HALF * _preari_rhs2(A, A)),
        ("expari depth 3", 3, ex, lambda: _expari_rhs3(A)),
        ("adari depth 0", 0, ad, _zero),
        ("adari depth 1", 1, ad, lambda: _ev(A, _X1)),
        ("adari depth 2", 2, ad, lambda: _adari_rhs2(S, A)),
        ("sang depth 0", 0, sg, _zero),
        ("sang depth 1", 1, sg, lambda: _sang_rhs1(AD)),
        ("sang depth 2", 2, sg, lambda: _sang_rhs2(AD)),
        ("slang_1 depth 1", 1, sl1, lambda: _sang_rhs1(AD)),
        ("slang_1 depth 2", 2, sl1, lambda: _slang_rhs2(AD, 1)),
        ("slang_2 depth 1", 1, sl2, _zero),
        ("slang_2 depth 2", 2, sl2, lambda: _slang_rhs2(AD, 2)),
    ]


def generic_expansion_checks() -> list[dict]:
    """Expansion identities with opaque (uninterpreted) mould symbols."""
    reg = SymbolRegistry()
    M = OpaqueMould(reg, "M", 3)
    N = OpaqueMould(reg, "N", 3)
    S = OpaqueMould(reg, "S", 3, unit_value=1)
    T = OpaqueMould(reg, "T", 3, unit_value=1)
    A = OpaqueMould(reg, "A", 3)
    AD = OpaqueMould(reg, "B", 2)
    return expansion_checks(M, N, S, T, A, AD, "generic")


def random_expansion_checks(seed: int = 2024, rounds: int = 2) -> list[dict]:
    """Expansion identities instantiated with random polynomial moulds,
    plus top-depth checks of the eager operators.  Each round is one suite
    run, and its rows live until its eager rows are checked, so those read
    the rows' nodes and right-hand sides."""
    checks = []
    rng = random.Random(seed)
    for k in range(rounds):
        M = random_ari_mould(rng, 3)
        N = random_ari_mould(rng, 3)
        S = random_gari_mould(rng, 3)
        T = random_gari_mould(rng, 3)
        A = random_ari_mould(rng, 3)
        AD = random_ari_mould(rng, 2)
        rows = _expansion_rows(M, N, S, T, A, AD)
        with _suite_run():
            checks += _row_checks(rows, f"random {k}")
            checks += _row_checks(
                [
                    ("eager arit depth 3", 3, arit(N)(M), lambda: _arit_rhs3(M, N)),
                    ("eager gari depth 3", 3, gari(S, T), lambda: _gari_rhs(S, T, 3)),
                    ("eager expari depth 3", 3, expari(A), lambda: _expari_rhs3(A)),
                    ("eager adari depth 2", 2, adari(S)(A), lambda: _adari_rhs2(S, A)),
                ],
                f"random {k}",
            )
    return checks


# ---------------------------------------------------------------------------
# named claims
# ---------------------------------------------------------------------------


def _symmetry_claim(name: str, build, decide, cross_check, depth: int) -> dict:
    """Claim ``name`` on ``build(depth)``: the shuffle-sum decision
    ``decide``, whose failing check carries the residual and the witness,
    and the dimould characterization ``cross_check`` up to depth 4.  A depth
    above the claim's own limit is refused before any work."""
    _require_shuffle_sums(f"claim {name!r}", depth)
    gate((name, "depth"), depth)
    M = build(depth)
    claim = f"{name.replace('-', ' ')} to depth {depth}"
    report = decide(M)
    cross_ok = cross_check(M.truncate(min(depth, 4)))
    checks = [
        {"claim": f"{claim} ({how})", "depth": depth, "status": "pass" if ok else "fail"}
        for how, ok in (("shuffle sums", report.ok), ("dimould characterization", cross_ok))
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
    gate(("singulator", "depth"), depth)
    gate(("sang-expansion", "depth"), depth)
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
    """Run a named claim (KeyError if there is none); one left with no
    check to run is refused with ValueError (``solutions._wrap``)."""
    return CLAIMS[name](**params)
