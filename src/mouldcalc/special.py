"""The named moulds and singulator operators.

Constructors for the classical objects of flexion theory: the monomial
moulds sa_s, the polar moulds paj and mupaj, the Bernoulli mould dupal and
its symmetral partner pal (defined by dur . pal = pal x dupal), the depth-2
corrector s', the singulator sang with its expanded four-sum form, and the
depth projections slang_r conjugated by pal.

The singulator and its slices follow the flexion layer's single path:
``lazy_sang``/``lazy_slang`` compose lazy flexion operators over any input
with ``depth`` and ``eval_word`` (concrete or opaque), and ``sang``,
``slang`` and ``slang_split`` check their input and materialize them.  A
slicer solves pal's gari inverse once, lazily, and conjugates by that one
pair both ways: by pal outward, and by the inverse inward, whose own
inverse is pal, so neither conjugation solves anything more.

``sang`` and the slicer's inner singulator take the four-sum expansion
``sang_expanded`` for concrete depth-1-supported input up to
``SANG_EXPANSION_DEPTH``, the depth at which the opaque-symbol proof of the
tier-1 suite (``tests/test_identities.py``) shows it equal to ``lazy_sang``
for every such input; above that depth, and on any other input, they take
``lazy_sang``, which stays the oracle of the expansion.  So every depth
above ``SANG_EXPANSION_DEPTH`` reaches ``lazy_sang``, which refuses a depth
above ``SANG_MAX_DEPTH`` with ValueError before any work: ``sang(sa_3)``
takes about 166 s and 483 MB at depth 7 and does not finish in 600 s at
depth 8.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache
from math import comb

from .algebra import (
    LinearForm,
    Polynomial,
    RationalFunction,
    one_over_forms,
    rf_monomial,
    rf_sum,
)
from .flexions import _conjugation, lazy_adari, lazy_invgari
from .moulds import (
    LazyMould,
    Mould,
    _materialize,
    _require_ari,
    canonical_word,
    lazy_leng,
    lazy_mu,
    lazy_neg,
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

SANG_MAX_DEPTH = 7
# the depth up to which tests/test_identities.py proves sang_expanded equal
# to lazy_sang on an opaque depth-1-supported mould; raise it with the proof
SANG_EXPANSION_DEPTH = 5


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

    The relation is triangular: the depth-m right side uses only lower pal
    components because dupal^0 = 0, so pal is solved depth by depth and the
    division by x_1 + ... + x_m stays exact in the polar ring.
    """
    dup = dupal(depth)
    comps = [RationalFunction.one()]
    for m in range(1, depth + 1):
        rhs = rf_sum(
            comps[k] * dup.components[m - k].shift(k)
            for k in range(m)
            if not comps[k].is_zero() and not dup.components[m - k].is_zero()
        )
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


def lazy_sang(M) -> LazyMould:
    """Singulator (1/2)(id + neg . adari(paj)) (mupaj x M x paj), lazily."""
    d = M.depth
    if d > SANG_MAX_DEPTH:
        raise ValueError(f"singulator depth {d} exceeds the maximum {SANG_MAX_DEPTH}")
    B = lazy_mu(lazy_mu(mupaj(d), M), paj(d))
    C = lazy_neg(lazy_adari(paj(d))(B))
    half = Fraction(1, 2)
    return LazyMould(d, lambda w: (B.eval_word(w) + C.eval_word(w)) * half)


def _singulator(M):
    """sang(M) by the proven rule: the four-sum expansion for a concrete
    depth-1-supported M up to ``SANG_EXPANSION_DEPTH``, and otherwise
    ``lazy_sang(M)``, which refuses a depth above ``SANG_MAX_DEPTH``.

    An opaque M takes ``lazy_sang``: the expansion's components hold its
    symbols, which a substituted word cannot reach, so they make no mould.
    """
    if (
        isinstance(M, Mould)
        and M.depth <= SANG_EXPANSION_DEPTH
        and _is_depth1_supported(M)
    ):
        return sang_expanded(M)
    return lazy_sang(M)


def _lazy_slicer(A):
    """r -> slang_r(A); the slices share pal's conjugations and the inner
    mould adari(pal)^{-1} . sang(A), which stays lazy (a slice reads only
    its own depth of it) even where the singulator is concrete."""
    singulator = _singulator(A)  # checks the depth before pal is solved
    p = pal(A.depth)
    pinv = lazy_invgari(p)
    conj = _conjugation(p, pinv)
    inner = _conjugation(pinv, p)(singulator)
    return lambda r: conj(lazy_leng(r, inner))


def lazy_slang(r: int, A) -> LazyMould:
    """Depth-r slice of the singulator conjugated by pal, lazily."""
    return _lazy_slicer(A)(r)


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
    return Mould(_sang_expanded_components(M))


def _is_depth1_supported(M) -> bool:
    return all(
        m == 1 or M.eval_word(canonical_word(m)).is_zero()
        for m in range(M.depth + 1)
    )


def _sang_expanded_components(M) -> list[RationalFunction]:
    """The components of ``sang_expanded(M)``, depth 0 to ``M.depth``.

    M is read only through ``eval_word``, so it may be opaque: on an opaque
    depth-1 mould the result proves the expansion for every such mould.
    """
    if not _is_depth1_supported(M):
        raise UnsupportedInputError(
            "expanded singulator needs a depth-1-supported mould"
        )
    d_max = M.depth
    pj = paj(d_max)
    mp = mupaj(d_max)

    def f_at(form: LinearForm) -> RationalFunction:
        return M.eval_word((form,))

    comps = [RationalFunction.zero()]
    for d in range(1, d_max + 1):
        terms = []
        whole = sum_form(d)
        # mupaj(x_1..x_{i-1}) S(x_i) paj(x_{i+1}..x_d)
        for i in range(1, d + 1):
            term = mp.components[i - 1] * f_at(LinearForm.variable(i))
            terms.append(term * pj.components[d - i].shift(i))
        # paj(x_1..x_{i-1}) S(-(x_1+..+x_d)) mupaj(x_{i+1}..x_d)
        s_whole = f_at(-whole)
        for i in range(1, d + 1):
            term = pj.components[i - 1] * s_whole
            terms.append(term * mp.components[d - i].shift(i))
        # - paj(x_1..x_{i-1}) S(-(x_1+..+x_{d-1})) mupaj(x_{i+1}..x_{d-1}) / (x_1+..+x_d)
        if d >= 2:
            s_head = f_at(-sum_form(d - 1))
            for i in range(1, d):
                term = pj.components[i - 1] * s_head
                term = term * mp.components[d - 1 - i].shift(i)
                terms.append(-term.div_linear(whole))
        # + paj(x_2..x_{i-1}) S(-(x_2+..+x_d)) mupaj(x_{i+1}..x_d) / (x_1+..+x_d)
        if d >= 2:
            tail = LinearForm((0,) + (1,) * (d - 1))  # x_2 + ... + x_d
            s_tail = f_at(-tail)
            for i in range(2, d + 1):
                term = pj.components[i - 2].shift(1) * s_tail
                term = term * mp.components[d - i].shift(i)
                terms.append(term.div_linear(whole))
        comps.append(rf_sum(terms) * Fraction(1, 2))
    return comps


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
    slice_r = _lazy_slicer(A)
    return [_materialize(slice_r(r)) for r in range(1, A.depth + 1)]
