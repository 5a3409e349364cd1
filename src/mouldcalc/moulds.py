"""Moulds at finite truncation depth and the elementary mould algebra.

A mould is a collection ``M = (M^m(x_1, ..., x_m))_{0 <= m <= N}`` of rational
functions, one per depth m, truncated at a global bound N.  Words are tuples
of linear forms; evaluating a mould on a word substitutes the letters into
the component of matching depth.  This module provides the word algebra
(shuffle product), the mould product ``mu`` with its inverse / log / exp, and
the elementary unary operators (neg, dur scaling, sharp, leng).

The mould product with its inverse, exponential and logarithm, ``neg`` and
``leng`` have one evaluation path each, a lazy rule: ``mu_at`` sums over
the splittings of one word, and ``LazyMould`` memoizes a rule's values at
any word.  ``mu_at`` is one ``rf_sum`` of products per word: each
product f(a) g(b) goes in as a pair, so it is never built on its own
(``_mu_parts`` lists them for the flexions).  ``lazy_mu_inverse`` solves
T x U = 1 through it, as U(w) = -mu_at(w, T - 1, U), and ``mu_log`` sums
the powers of the same T - 1 (``_less_unit``).  The
eager forms of these operators take any mould (concrete, lazy or opaque),
check its depth-0 value through ``eval_word(())`` and materialize the lazy
rule at the canonical words, so they always return a ``Mould``: ``mu``,
``mu_inverse``, ``neg`` and ``leng`` materialize ``lazy_mu``,
``lazy_mu_inverse``, ``lazy_neg`` and ``lazy_leng``, and ``mu_exp`` and
``mu_log`` a series of lazy powers, which ``_series`` sums by one
``rf_sum`` per word, as for ``expari``.  ``dur_scale``, ``dur_unscale`` and
``sharp`` also take any mould: they transform its values at the canonical
words, which a concrete mould holds as its components.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping, Sequence

from .algebra import (
    LinearForm,
    RationalFunction,
    _json_int,
    rf_sum,
    rf_from_json,
    rf_to_json,
    x_var,
)

Word = tuple  # tuple[LinearForm, ...]
Eval = Callable[[Word], RationalFunction]

__all__ = [
    "Word",
    "word",
    "canonical_word",
    "sum_form",
    "shuffle",
    "Mould",
    "DepthExceededError",
    "NotInvertibleError",
    "NotDefinedError",
    "mu",
    "lu",
    "mu_inverse",
    "mu_exp",
    "mu_log",
    "neg",
    "dur",
    "dur_scale",
    "dur_unscale",
    "sharp",
    "leng",
    "equal_mod_depth",
    "mould_to_json",
    "mould_from_json",
    "LazyMould",
    "mu_at",
    "lazy_mu",
    "lazy_mu_inverse",
    "lazy_neg",
    "lazy_leng",
    "lazy_unit",
]


class DepthExceededError(ValueError):
    """A word longer than the mould's truncation depth was evaluated."""


class NotInvertibleError(ValueError):
    """mu-inversion requires depth-0 component 1."""


class NotDefinedError(ValueError):
    """Operation preconditions on the depth-0 component are violated."""


def word(*forms: LinearForm) -> Word:
    return tuple(forms)


@lru_cache(maxsize=None)
def canonical_word(m: int, offset: int = 0) -> Word:
    """The word (x_{offset+1}, ..., x_{offset+m})."""
    return tuple(x_var(offset + i) for i in range(1, m + 1))


@lru_cache(maxsize=None)
def sum_form(m: int) -> LinearForm:
    """The linear form x_1 + ... + x_m."""
    return LinearForm((1,) * m)


def shuffle(w1: Word, w2: Word) -> dict[Word, int]:
    """Shuffle product of two words as a multiset of interleavings.

    Follows the recursion  a w1 sh b w2 = a (w1 sh b w2) + b (a w1 sh w2),
    with the empty word as unit.  The multiplicities sum to
    binomial(len(w1) + len(w2), len(w1)).
    """
    out: dict[Word, int] = {}

    def rec(a: Word, b: Word, prefix: list):
        if not a:
            key = tuple(prefix) + b
            out[key] = out.get(key, 0) + 1
            return
        if not b:
            key = tuple(prefix) + a
            out[key] = out.get(key, 0) + 1
            return
        prefix.append(a[0])
        rec(a[1:], b, prefix)
        prefix.pop()
        prefix.append(b[0])
        rec(a, b[1:], prefix)
        prefix.pop()

    rec(tuple(w1), tuple(w2), [])
    return out


class Mould:
    """Depth-truncated mould with rational-function components.

    ``components[m]`` is the depth-m value as a rational function of the
    slot variables x_1..x_m; component 0 is a constant.  Immutable.
    """

    __slots__ = ("depth", "components", "_eval_cache")

    def __init__(self, components: Sequence[RationalFunction]):
        comps = tuple(components)
        if not comps:
            raise ValueError("a mould needs at least the depth-0 component")
        for m, c in enumerate(comps):
            if c.max_var() > m:
                raise ValueError(
                    f"depth-{m} component uses variable x_{c.max_var()}"
                )
        self.depth = len(comps) - 1
        self.components = comps
        self._eval_cache: dict = {}

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(depth: int) -> "Mould":
        return Mould([RationalFunction.zero()] * (depth + 1))

    @staticmethod
    def unit(depth: int) -> "Mould":
        return Mould(
            [RationalFunction.one()] + [RationalFunction.zero()] * depth
        )

    @staticmethod
    def from_function(depth: int, fn: Callable[[int], RationalFunction]) -> "Mould":
        return Mould([fn(m) for m in range(depth + 1)])

    @staticmethod
    def from_word_function(
        depth: int, eval_word: Callable[[Word], RationalFunction]
    ) -> "Mould":
        """Materialize from evaluations at the canonical words."""
        return Mould([eval_word(canonical_word(m)) for m in range(depth + 1)])

    # -- access ----------------------------------------------------------------

    def component(self, m: int) -> RationalFunction:
        if m > self.depth:
            raise DepthExceededError(f"depth {m} exceeds truncation {self.depth}")
        return self.components[m]

    def eval_word(self, w: Word) -> RationalFunction:
        m = len(w)
        if m > self.depth:
            raise DepthExceededError(f"word of length {m} exceeds depth {self.depth}")
        if m == 0:
            return self.components[0]
        got = self._eval_cache.get(w)
        if got is None:
            got = self.components[m].substitute(w)
            self._eval_cache[w] = got
        return got

    def eval_combination(self, comb: Mapping[Word, object]) -> RationalFunction:
        """Evaluate linearly on a formal combination of words.

        A word of coefficient 1, such as every interleaving in a shuffle of
        two blocks of distinct letters, enters the sum unscaled."""
        return rf_sum(
            self.eval_word(w) if coeff == 1 else self.eval_word(w) * Fraction(coeff)
            for w, coeff in comb.items()
        )

    def truncate(self, depth: int) -> "Mould":
        if depth >= self.depth:
            return self
        return Mould(self.components[: depth + 1])

    # -- linear structure --------------------------------------------------------

    def __add__(self, other: "Mould") -> "Mould":
        d = min(self.depth, other.depth)
        return Mould(
            [self.components[m] + other.components[m] for m in range(d + 1)]
        )

    def __sub__(self, other: "Mould") -> "Mould":
        d = min(self.depth, other.depth)
        return Mould(
            [self.components[m] - other.components[m] for m in range(d + 1)]
        )

    def __neg__(self) -> "Mould":
        # Additive inverse; for sign-flip of the arguments see neg().
        return Mould([-c for c in self.components])

    def __mul__(self, scalar) -> "Mould":
        return Mould([c * Fraction(scalar) for c in self.components])

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mould)
            and self.depth == other.depth
            and self.components == other.components
        )

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        body = ", ".join(f"{m}: {c}" for m, c in enumerate(self.components))
        return f"Mould({body})"

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)


# ---------------------------------------------------------------------------
# lazy moulds and the mould product at the level of words
# ---------------------------------------------------------------------------


class LazyMould:
    """A mould given by an evaluation rule rather than stored components.

    Anything with ``depth`` and ``eval_word`` interoperates with these
    wrappers, including concrete moulds and opaque symbol moulds.
    """

    __slots__ = ("depth", "_fn", "_memo")

    def __init__(self, depth: int, fn: Eval | None):
        self.depth = depth
        self._fn = fn
        self._memo: dict = {}

    def eval_word(self, w: Word) -> RationalFunction:
        got = self._memo.get(w)
        if got is None:
            got = self._fn(w)
            self._memo[w] = got
        return got


def _materialize(L) -> Mould:
    """The concrete mould of a lazy one: its values at the canonical words.
    A concrete mould is its own."""
    if isinstance(L, Mould):
        return L
    return Mould.from_word_function(L.depth, L.eval_word)


def _require_ari(M, what: str) -> None:
    if not M.eval_word(()).is_zero():
        raise NotDefinedError(f"{what} needs depth-0 component 0")


def _require_gari(S, what: str) -> None:
    c = S.eval_word(())
    if not (c.is_constant() and c.constant_value() == 1):
        raise NotInvertibleError(f"{what} needs depth-0 component 1")


def lazy_unit(depth: int) -> LazyMould:
    one = RationalFunction.one()
    zero = RationalFunction.zero()
    return LazyMould(depth, lambda w: one if not w else zero)


def mu_at(w: Word, f: Eval, g: Eval) -> RationalFunction:
    """The mould product at one word: sum over w = ab of f(a) g(b)."""
    return rf_sum(_mu_parts(w, f, g))


def _mu_parts(w: Word, f: Eval, g: Eval) -> list:
    """The nonzero products of ``mu_at``, as ``rf_sum`` pairs (f(a), g(b))."""
    # The shorter factor is evaluated first: self-referential evaluators
    # rely on never being probed at the full word when the complementary
    # factor already vanishes on the empty word.  The logari solver,
    # lazy_mu_inverse (U against T - 1) and special.pal (pal against
    # dupal, whose depth-0 value is 0) all rest on this.
    parts = []
    n = len(w)
    for i in range(n + 1):
        if i <= n - i:
            a = f(w[:i])
            if a.is_zero():
                continue
            b = g(w[i:])
            if b.is_zero():
                continue
        else:
            b = g(w[i:])
            if b.is_zero():
                continue
            a = f(w[:i])
            if a.is_zero():
                continue
        parts.append((a, b))
    return parts


def lazy_mu(M, N) -> LazyMould:
    return LazyMould(
        min(M.depth, N.depth), lambda w: mu_at(w, M.eval_word, N.eval_word)
    )


def _less_unit(S) -> LazyMould:
    """S - 1 for S with S(empty) = 1: S off the empty word, 0 on it."""
    zero = RationalFunction.zero()
    return LazyMould(S.depth, lambda w: S.eval_word(w) if w else zero)


def lazy_mu_inverse(T) -> LazyMould:
    """U = T^-1 from T x U = 1: U(w) = -mu_at(w, T - 1, U) off the empty
    word.  T - 1 vanishes on the empty word, so U is read only at proper
    suffixes of w."""
    D = _less_unit(T)
    U = LazyMould(T.depth, None)
    one = RationalFunction.one()
    U._fn = lambda w: -mu_at(w, D.eval_word, U.eval_word) if w else one
    return U


def _powers(A, product) -> list:
    """[1, A, product(A, A), product(product(A, A), A), ...], lazily, up to
    the A.depth-fold product."""
    chain = [lazy_unit(A.depth), A]
    for _ in range(2, A.depth + 1):
        chain.append(product(chain[-1], A))
    return chain


def _inverse_factorials(depth: int) -> list[Fraction]:
    """1/n! for 0 <= n <= depth: the coefficients of an exponential."""
    coeffs = [Fraction(1)]
    for n in range(1, depth + 1):
        coeffs.append(coeffs[-1] / n)
    return coeffs


def _series(empty: RationalFunction, coeffs, chain) -> Eval:
    """The evaluation rule of sum_n coeffs[n] chain[n]: ``empty`` on the
    empty word, and one sum over 1 <= n <= len(w) on a word w.  The terms
    with n > len(w) are left out, because each chain[n] used here is an
    n-fold product of moulds that vanish on the empty word."""

    def fn(w: Word) -> RationalFunction:
        if not w:
            return empty
        return rf_sum(chain[n].eval_word(w) * coeffs[n] for n in range(1, len(w) + 1))

    return fn


def mu(M: Mould, N: Mould) -> Mould:
    """Mould product: (M x N)^m = sum_k M^k(x_1..x_k) N^{m-k}(x_{k+1}..x_m)."""
    return _materialize(lazy_mu(M, N))


def lu(M: Mould, N: Mould) -> Mould:
    """Commutator bracket lu(M, N) = M x N - N x M."""
    return mu(M, N) - mu(N, M)


def mu_inverse(S: Mould) -> Mould:
    """Inverse for the mould product; requires S^0 = 1."""
    _require_gari(S, "mu-inverse")
    return _materialize(lazy_mu_inverse(S))


def mu_exp(A: Mould) -> Mould:
    """Exponential for the mould product; requires A^0 = 0."""
    _require_ari(A, "mu-exponential")
    series = _series(
        RationalFunction.one(), _inverse_factorials(A.depth), _powers(A, lazy_mu)
    )
    return _materialize(LazyMould(A.depth, series))


def mu_log(S: Mould) -> Mould:
    """Logarithm for the mould product; requires S^0 = 1.

    Computed as sum_h ((-1)^{h+1}/h) (S - 1)^{x h}; the series is finite at
    each truncation depth.
    """
    c = S.eval_word(())
    if not (c.is_constant() and c.constant_value() == 1):
        raise NotDefinedError("mu-logarithm needs depth-0 component 1")
    coeffs = [Fraction((-1) ** (h + 1), h) for h in range(1, S.depth + 1)]
    series = _series(
        RationalFunction.zero(), [None] + coeffs, _powers(_less_unit(S), lazy_mu)
    )
    return _materialize(LazyMould(S.depth, series))


# ---------------------------------------------------------------------------
# elementary unary operators
# ---------------------------------------------------------------------------


def lazy_neg(M) -> LazyMould:
    return LazyMould(
        M.depth, lambda w: M.eval_word(tuple(-letter for letter in w))
    )


def lazy_leng(r: int, M) -> LazyMould:
    zero = RationalFunction.zero()
    return LazyMould(
        M.depth, lambda w: M.eval_word(w) if len(w) == r else zero
    )


def neg(M: Mould) -> Mould:
    """Sign flip of all arguments: neg(M)^m(x_1..x_m) = M^m(-x_1..-x_m)."""
    return _materialize(lazy_neg(M))


def dur(depth: int) -> Mould:
    """The mould with components x_1 + ... + x_m (0 at depth 0)."""
    comps = [RationalFunction.zero()]
    for m in range(1, depth + 1):
        comps.append(RationalFunction.make(1, sum_form(m).as_polynomial()))
    return Mould(comps)


def dur_scale(M: Mould) -> Mould:
    """Pointwise product with dur: multiply depth m by x_1 + ... + x_m."""
    src = _materialize(M).components
    comps = [src[0]]
    for m in range(1, M.depth + 1):
        comps.append(src[m].mul_linear(sum_form(m)))
    return Mould(comps)


def dur_unscale(M: Mould) -> Mould:
    """Divide depth m by x_1 + ... + x_m; requires M^0 = 0."""
    _require_ari(M, "dur-unscale")
    src = _materialize(M).components
    comps = [src[0]]
    for m in range(1, M.depth + 1):
        comps.append(src[m].div_linear(sum_form(m)))
    return Mould(comps)


def sharp(M: Mould) -> Mould:
    """Change of coordinates f(x_1,..,x_m) -> f(x_1, x_1+x_2, .., x_1+..+x_m)."""
    src = _materialize(M).components
    comps = [src[0]]
    for m in range(1, M.depth + 1):
        forms = tuple(sum_form(i) for i in range(1, m + 1))
        comps.append(src[m].substitute(forms))
    return Mould(comps)


def leng(r: int, M: Mould) -> Mould:
    """Keep only the depth-r component."""
    if r < 0:
        raise ValueError("depth selector must be nonnegative")
    return _materialize(lazy_leng(r, M))


def equal_mod_depth(M: Mould, N: Mould, k: int) -> bool:
    """True iff the components agree for all depths m < k."""
    if M.depth < k - 1 or N.depth < k - 1:
        raise DepthExceededError(f"both moulds need depth at least {k - 1}")
    return all(M.components[m] == N.components[m] for m in range(k))


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def mould_to_json(M: Mould) -> dict:
    return {
        "depth": M.depth,
        "components": [rf_to_json(c) for c in M.components],
    }


def mould_from_json(obj: Mapping) -> Mould:
    comps = [rf_from_json(c) for c in obj["components"]]
    if len(comps) != _json_int(obj["depth"]) + 1:
        raise ValueError("component count does not match depth")
    return Mould(comps)
