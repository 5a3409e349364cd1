"""The named moulds and singulator operators.

Constructors for the classical objects of flexion theory: the monomial
moulds sa_s, the polar moulds paj and mupaj, the Bernoulli mould dupal and
its symmetral partner pal (defined by dur . pal = pal x dupal), the depth-2
corrector s', the singulator sang with its expanded four-sum form, and the
depth projections slang_r conjugated by pal.

The singulator and its slices follow the flexion layer's single path:
``lazy_sang``/``lazy_slang`` compose lazy flexion operators over any input
with ``depth`` and ``eval_word`` (concrete or opaque), and ``sang``,
``slang`` and ``slang_split`` check their input and materialize them.
pal's gari inverse is solved once per depth for the process, lazily, and
every slicer at that depth conjugates by that one pair both ways: by pal
outward, and by the inverse inward, whose own inverse is pal, so neither
conjugation solves anything more.  Likewise every ``lazy_sang`` at a depth
shares one ``lazy_adari(paj)``, so paj's gari inverse is solved once per
depth too.  These per-depth caches hold only concrete pal- and paj-derived
values; no opaque symbol enters them, so symbol numbering does not depend
on what ran before.

``sang`` and the slicer's inner singulator take the four-sum expansion
``sang_expanded``, built one word at a time as it is read, for concrete
depth-1-supported input, and ``lazy_sang``, the expansion's oracle, on any
other input.  On an opaque depth-1-supported mould the two agree at every
depth the singulator admits, so the expansion holds for every such input
(``proofs/test_singulator_expansion.py``; tier-1 proves depth 5).  The
expansion at one word, ``_sang_expanded_at``, is built only inside
``_lazy_sang_expanded``, which memoizes each word's value; the psi-odd
verifier reads it at ``unsharp_word(d)`` as every other route reads it.
Every route refuses a depth above the singulator's limit (``limits.LIMITS``)
with ValueError before any work, in the two builders all routes go through,
``lazy_sang`` and ``_lazy_sang_expanded``.  An opaque depth-1-supported
input is ``lazy_leng(1, S)`` of an opaque S.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Callable

from .algebra import (
    LinearForm,
    Polynomial,
    RationalFunction,
    one_over_forms,
    rf_monomial,
    rf_sum,
)
from .flexions import _conjugation, lazy_adari, lazy_invgari
from .limits import gate
from .moulds import (
    LazyMould,
    Mould,
    _materialize,
    _letter_sum,
    _require_ari,
    canonical_word,
    lazy_leng,
    lazy_mu,
    lazy_neg,
    mu_at,
    sum_form,
)

__all__ = [
    "bernoulli",
    "sa",
    "paj",
    "mupaj",
    "dupal",
    "pal",
    "s_prime",
    "sang",
    "sang_expanded",
    "slang",
    "slang_split",
    "lazy_sang",
    "lazy_slang",
    "UnsupportedInputError",
]

class UnsupportedInputError(ValueError):
    """The expanded singulator formula needs depth-1-supported input."""


_BERNOULLI: list[Fraction] = [Fraction(1)]
_BERNOULLI_LOCK = threading.Lock()


def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m under the x/(e^x - 1) convention (B_1 = -1/2).

    Computed by the recurrence sum_{k<=m} C(m+1, k) B_k = 0 and cached;
    the lock keeps concurrent growth of the cache consistent.
    """
    if m < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    if len(_BERNOULLI) <= m:
        with _BERNOULLI_LOCK:
            while len(_BERNOULLI) <= m:
                n = len(_BERNOULLI)
                acc = sum(
                    Fraction(comb(n + 1, k)) * _BERNOULLI[k] for k in range(n)
                )
                _BERNOULLI.append(-acc / (n + 1))
    return _BERNOULLI[m]


def sa(s: int, depth: int) -> Mould:
    """The depth-1 mould u -> u^{s-1}; s may be negative (s = -1 gives u^-2)."""
    if s == 0:
        raise ValueError("exponent s must be nonzero")
    e = s - 1
    if e >= 0:
        comp = rf_monomial(1, (1, e))
    else:
        comp = RationalFunction.make(
            1, Polynomial.one(), [(LinearForm.variable(1), -e)]
        )
    comps = [RationalFunction.zero()] * (depth + 1)
    if depth >= 1:
        comps[1] = comp
    return Mould(comps)


@lru_cache(maxsize=None)
def paj(depth: int) -> Mould:
    """Polar mould 1 / (x_1 (x_1+x_2) ... (x_1+...+x_m)); 1 at depth 0."""
    comps = [RationalFunction.one()]
    for m in range(1, depth + 1):
        forms = [LinearForm((1,) * k) for k in range(1, m + 1)]
        comps.append(one_over_forms(*forms))
    return Mould(comps)


@lru_cache(maxsize=None)
def mupaj(depth: int) -> Mould:
    """Reversed polar mould (-1)^m / (x_m (x_m+x_{m-1}) ... (x_m+...+x_1)).

    This is the mu-inverse of paj; the identity paj x mupaj = 1 is part of
    the test suite rather than assumed.
    """
    comps = [RationalFunction.one()]
    for m in range(1, depth + 1):
        forms = [
            LinearForm((0,) * (m - k) + (1,) * k) for k in range(1, m + 1)
        ]
        comps.append(one_over_forms(*forms) * Fraction((-1) ** m))
    return Mould(comps)


@lru_cache(maxsize=None)
def dupal(depth: int) -> Mould:
    """Bernoulli mould (B_m/m!) (1/(x_1..x_m)) sum_k (-1)^k C(m-1,k) x_{k+1}."""
    comps = [RationalFunction.zero()]
    fact = 1
    for m in range(1, depth + 1):
        fact *= m
        bm = bernoulli(m)
        if bm == 0:
            comps.append(RationalFunction.zero())
            continue
        numer = Polynomial.from_dict(
            {
                (0,) * k + (1,): (-1) ** k * comb(m - 1, k)
                for k in range(m)
            }
        )
        comps.append(
            RationalFunction.make(
                bm / fact,
                numer,
                [(LinearForm.variable(i), 1) for i in range(1, m + 1)],
            )
        )
    return Mould(comps)


@lru_cache(maxsize=None)
def pal(depth: int) -> Mould:
    """The symmetral mould solving dur . pal = pal x dupal with pal^0 = 1.

    The relation is triangular: the depth-m right side, one ``mu_at`` at
    the canonical word, reads only lower pal components because
    dupal^0 = 0, so pal is solved depth by depth and the division by
    x_1 + ... + x_m stays exact in the polar ring.
    """
    dup = dupal(depth)
    comps = [RationalFunction.one()]
    for m in range(1, depth + 1):
        rhs = mu_at(canonical_word(m), lambda a: comps[len(a)], dup.eval_word)
        comps.append(rhs.div_linear(sum_form(m)))
    return Mould(comps)


def s_prime(depth: int = 3) -> Mould:
    """Depth-2 corrector: 1/(2 u_1) and (1/12)(1/(u_1(u_1+u_2)) - 1/(u_2(u_1+u_2))).

    Zero beyond depth 2 (it is only ever used modulo higher depths).
    """
    if depth < 2:
        raise ValueError("s' needs depth at least 2")
    u1 = LinearForm.variable(1)
    u2 = LinearForm.variable(2)
    u12 = u1 + u2
    comps = [RationalFunction.zero()] * (depth + 1)
    comps[1] = one_over_forms(u1) * Fraction(1, 2)
    comps[2] = (one_over_forms(u1, u12) - one_over_forms(u2, u12)) * Fraction(1, 12)
    return Mould(comps)


@lru_cache(maxsize=None)
def _paj_conjugation(depth: int) -> Callable:
    """``lazy_adari(paj(depth))``, built once per depth for the process:
    every ``lazy_sang`` at the depth shares paj's solved gari inverse and
    its twisted action, which hold only concrete paj-derived values."""
    return lazy_adari(paj(depth))


@lru_cache(maxsize=None)
def _pal_conjugations(depth: int) -> tuple[Callable, Callable]:
    """Conjugation by pal(depth) outward and by its gari inverse inward,
    built once per depth for the process: pal's inverse is solved lazily,
    once, and the inward conjugation's own inverse is pal, so neither
    solves anything more.  Both hold only concrete pal-derived values."""
    p = pal(depth)
    pinv = lazy_invgari(p)
    return _conjugation(p, pinv), _conjugation(pinv, p)


def lazy_sang(M) -> LazyMould:
    """Singulator (1/2)(id + neg . adari(paj)) (mupaj x M x paj), lazily."""
    d = M.depth
    gate(("singulator", "depth"), d)
    B = lazy_mu(lazy_mu(mupaj(d), M), paj(d))
    C = lazy_neg(_paj_conjugation(d)(B))
    half = Fraction(1, 2)
    return LazyMould(d, lambda w: (B.eval_word(w) + C.eval_word(w)) * half)


def _singulator(M):
    """sang(M) by the proven rule, lazily: the four-sum expansion for a
    concrete depth-1-supported M, and ``lazy_sang(M)`` otherwise.  An opaque
    M takes ``lazy_sang`` without a support probe: its symbols are numbered
    in the order they are first read, and the probe would read M at every
    canonical word first, renumbering every symbol read after it."""
    if isinstance(M, Mould) and _is_depth1_supported(M):
        return _lazy_sang_expanded(M)
    return lazy_sang(M)


def _slices(singulator):
    """r -> slang_r of the mould whose singulator is given; the slices
    share the inner mould adari(pal)^{-1} . sang, so a slice reads only its
    own depth of the singulator.  The singulator is built first, and its
    builder checks the depth before pal is solved."""
    conj, inner_conj = _pal_conjugations(singulator.depth)
    inner = inner_conj(singulator)
    return lambda r: conj(lazy_leng(r, inner))


def lazy_slang(r: int, A) -> LazyMould:
    """Depth-r slice of the singulator conjugated by pal, lazily."""
    return _slices(_singulator(A))(r)


def sang(M: Mould) -> Mould:
    """Singulator: (1/2)(id + neg . adari(paj)) (mupaj x M x paj), through
    the four-sum expansion where it is proven equal (see ``_singulator``)."""
    _require_ari(M, "sang")
    return _materialize(_singulator(M))


def sang_expanded(M: Mould) -> Mould:
    """Expanded four-sum form of the singulator for depth-1-supported M.

    2 sang(S) at depth d is the sum over insertion positions of
    mupaj-prefix * S(letter) * paj-suffix terms, together with the three
    neg-type sums that evaluate S at -(x_1+..+x_d), -(x_1+..+x_{d-1}) and
    -(x_2+..+x_d).  Agreement with the compositional sang is a test, not an
    assumption.
    """
    return _materialize(_lazy_sang_expanded(M))


def _is_depth1_supported(M) -> bool:
    return all(
        m == 1 or M.eval_word(canonical_word(m)).is_zero()
        for m in range(M.depth + 1)
    )


def _lazy_sang_expanded(M) -> LazyMould:
    """``sang_expanded(M)``, lazily: ``_sang_expanded_at`` builds each word
    once, at that word.  M is read only through ``eval_word``: on an opaque
    depth-1 mould the canonical values prove the expansion for every such
    mould.  A depth above the singulator's limit, or input that is not
    depth-1-supported, is refused before any work."""
    gate(("singulator", "depth"), M.depth)
    if not _is_depth1_supported(M):
        raise UnsupportedInputError(
            "expanded singulator needs a depth-1-supported mould"
        )
    return LazyMould(M.depth, lambda w: _sang_expanded_at(M, w))


def _sang_expanded_at(M, w) -> RationalFunction:
    """The four-sum expansion of sang(M) at the word w, for depth-1-supported
    M: paj, mupaj and M are read at w's subwords and letter sums."""
    d = len(w)
    if d == 0:
        return RationalFunction.zero()
    pj, mp = paj(M.depth).eval_word, mupaj(M.depth).eval_word
    terms = []
    whole = _letter_sum(w)
    # mupaj(w_1..w_{i-1}) S(w_i) paj(w_{i+1}..w_d)
    for i in range(1, d + 1):
        terms.append(mp(w[: i - 1]) * M.eval_word(w[i - 1 : i]) * pj(w[i:]))
    # paj(w_1..w_{i-1}) S(-(w_1+..+w_d)) mupaj(w_{i+1}..w_d)
    s_whole = M.eval_word((-whole,))
    for i in range(1, d + 1):
        terms.append(pj(w[: i - 1]) * s_whole * mp(w[i:]))
    if d >= 2:
        # - paj(w_1..w_{i-1}) S(-(w_1+..+w_{d-1})) mupaj(w_{i+1}..w_{d-1}) / (w_1+..+w_d)
        s_head = M.eval_word((-_letter_sum(w[:-1]),))
        for i in range(1, d):
            term = pj(w[: i - 1]) * s_head * mp(w[i:-1])
            terms.append(-term.div_linear(whole))
        # + paj(w_2..w_{i-1}) S(-(w_2+..+w_d)) mupaj(w_{i+1}..w_d) / (w_1+..+w_d)
        s_tail = M.eval_word((-_letter_sum(w[1:]),))
        for i in range(2, d + 1):
            term = pj(w[1 : i - 1]) * s_tail * mp(w[i:])
            terms.append(term.div_linear(whole))
    return rf_sum(terms) * Fraction(1, 2)


def slang(r: int, A: Mould) -> Mould:
    """Depth-r slice of the singulator conjugated by pal:
    adari(pal) . leng_r . adari(pal)^{-1} . sang(A)."""
    if r < 1:
        raise ValueError("slice index must be positive")
    _require_ari(A, "slang")
    return _materialize(lazy_slang(r, A))


def slang_split(A: Mould) -> list[Mould]:
    """All slices slang_r(A) for 1 <= r <= depth, sharing the inner work.

    Their sum recovers sang(A) up to the truncation depth.
    """
    _require_ari(A, "slang_split")
    slice_r = _slices(_singulator(A))
    return [_materialize(slice_r(r)) for r in range(1, A.depth + 1)]
