"""Flexion operators and the ari/gari toolbox.

The two flexions attach the letter-sum of one word block to the boundary
letter of a neighbouring block.  Summing mould evaluations over flexion-
decorated factorizations of a word yields the derivation ``arit``, the
pre-Lie product ``preari``, the Lie bracket ``ari``, the twisted action
``garit``, the group law ``gari``, the exponential/logarithm pair
``expari``/``logari``, the group inverse ``invgari`` and the conjugation
``adari``.

Every operator has one evaluation path, in three layers, on top of the
word-level mould product of ``moulds`` (``mu_at``, ``LazyMould``,
``lazy_mu``, ``lazy_mu_inverse``, ``lazy_neg``, ``lazy_leng``), which this
module re-exports:

* the factorization sums (``arit_at``, ``preari_at``, ``garit_at``) are
  written once, at a single word, as functions of evaluation callables.
  Each is one ``rf_sum`` of products per word, every product passed as a
  pair of values so that none is built on its own.  ``preari`` and ``ari``
  are one sum each: ``preari_at`` sums the arit and mu parts together, and
  ``lazy_ari`` both preari part lists, the second with each pair's first
  factor negated.  ``garit_at`` walks the block factorizations with each
  block prefix's decorated word and factor, so a prefix's factor is
  multiplied once, not once per factorization through it;
* the lazy wrappers (``lazy_*``) run them at arbitrary words and memoize
  the values.  Their inputs only need ``depth`` and ``eval_word``, so
  concrete moulds, opaque symbol moulds and other lazy moulds mix freely.
  Each wrapper declares its inputs, so over concrete moulds it is natural
  (``moulds``) and reaches shifted, permuted and negated words through its
  canonical values.
  ``expari`` and ``logari`` are series of pre-Lie iterates summed like
  the mould exponential, by one ``rf_sum`` per word.  The solvers are
  lazy fixed points solved depth by depth: ``logari`` inverts ``expari``,
  and ``invgari(S)`` is the G with ``G = mu_inverse(garit(G)(S))``, which
  is ``gari(S, G) = 1``;
* each eager operator takes any mould, concrete, lazy or opaque, checks
  its preconditions and materializes its lazy twin at the canonical words,
  so it always returns a ``Mould``.  Composite operators such as the
  singulator chain the lazy twins.

``adari(S)(A)`` is defined as ``logari(gari(gari(S, expari(A)), invgari(S)))``
and evaluated in the closed form ``gari(preari(S, A), invgari(S))``:

* conjugation by S is a group automorphism, so ``adari(S)`` is linear in A
  and ``adari(S)(A)`` is the coefficient of t in ``adari(S)(tA)``;
* ``garit(expari(tA)) = id + t arit(A) + O(t^2)``, so
  ``gari(S, expari(tA)) = S + t preari(S, A) + O(t^2)``;
* ``gari`` is linear in its first argument and
  ``logari(1 + tY + O(t^2)) = tY + O(t^2)``, so that coefficient is
  ``gari(preari(S, A), invgari(S))``.

The closed form needs one solver (``invgari``) instead of three, and is
checked against the solver-chain definition in the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterator

from .algebra import RationalFunction, rf_sum
from .moulds import (
    Eval,
    LazyMould,
    Mould,
    Word,
    _inverse_factorials,
    _letter_sum,
    _materialize,
    _mu_parts,
    _powers,
    _require_ari,
    _require_gari,
    _series,
    lazy_leng,
    lazy_mu,
    lazy_mu_inverse,
    lazy_neg,
    mu_at,
)

__all__ = [
    "flexion_up",
    "flexion_down",
    "tri_factorizations",
    "arit",
    "preari",
    "preari_n",
    "ari",
    "garit",
    "gari",
    "expari",
    "logari",
    "invgari",
    "adari",
    "LazyMould",
    "lazy_mu",
    "lazy_arit",
    "lazy_preari",
    "lazy_ari",
    "lazy_mu_inverse",
    "lazy_garit",
    "lazy_gari",
    "lazy_expari",
    "lazy_logari",
    "lazy_invgari",
    "lazy_adari",
    "lazy_neg",
    "lazy_leng",
]


def flexion_up(beta: Word, alpha: Word) -> Word:
    """Attach the letter sum of beta to the first letter of alpha.

    Conventions: empty beta leaves alpha unchanged; empty alpha gives the
    empty word.
    """
    if not beta:
        return alpha
    if not alpha:
        return ()
    return (_letter_sum(beta) + alpha[0],) + alpha[1:]


def flexion_down(alpha: Word, beta: Word) -> Word:
    """Attach the letter sum of beta to the last letter of alpha.

    Conventions: empty beta leaves alpha unchanged; empty alpha gives the
    empty word.
    """
    if not beta:
        return alpha
    if not alpha:
        return ()
    return alpha[:-1] + (alpha[-1] + _letter_sum(beta),)


def tri_factorizations(w: Word) -> Iterator[tuple[Word, Word, Word]]:
    """All splittings w = alpha beta gamma, each exactly once."""
    n = len(w)
    for i in range(n + 1):
        for j in range(i, n + 1):
            yield w[:i], w[i:j], w[j:]


# ---------------------------------------------------------------------------
# factorization sums at the level of words
# ---------------------------------------------------------------------------


def arit_at(w: Word, m_eval: Eval, n_eval: Eval) -> RationalFunction:
    """The derivation sum: M(alpha ur(beta, gamma)) N(beta) terms minus
    M(dl(alpha, beta) gamma) N(beta) terms, over splittings w = alpha beta gamma."""
    return rf_sum(_arit_parts(w, m_eval, n_eval))


def _arit_parts(w: Word, m_eval: Eval, n_eval: Eval) -> list:
    """The products of ``arit_at``, as ``rf_sum`` pairs."""
    parts = []
    for alpha, beta, gamma in tri_factorizations(w):
        if not beta or (not alpha and not gamma):
            continue
        nb = n_eval(beta)
        if nb.is_zero():
            continue
        if gamma:
            parts.append((m_eval(alpha + flexion_up(beta, gamma)), nb))
        if alpha:
            parts.append((-m_eval(flexion_down(alpha, beta) + gamma), nb))
    return parts


def _preari_parts(w: Word, m_eval: Eval, n_eval: Eval) -> list:
    return _arit_parts(w, m_eval, n_eval) + _mu_parts(w, m_eval, n_eval)


def preari_at(w: Word, m_eval: Eval, n_eval: Eval) -> RationalFunction:
    return rf_sum(_preari_parts(w, m_eval, n_eval))


def garit_at(w: Word, s_eval: Eval, t_eval: Eval, tinv_eval: Eval) -> RationalFunction:
    """The twisted action sum over the block factorizations w = a_1 b_1 c_1
    ... a_s b_s c_s: S at the decorated word times the T(a_i) and T^-1(c_i)
    of every block.

    The walk carries each block prefix's decorated word and factor, so a
    prefix's factor is multiplied once, not once per factorization through
    it; a zero factor prunes every factorization through the prefix.
    """
    if not w:
        return s_eval(())
    n = len(w)
    parts = []

    def walk(start: int, empty_a: bool, prefix: Word, factor) -> None:
        # The next block is a = w[start:i], b = w[i:j], c = w[j:k]: b is
        # nonempty, a may be empty only in the first block or after a
        # nonempty c, and the block ends the factorization when k == n.
        # factor None stands for 1, the factor of the empty prefix.
        for i in range(start if empty_a else start + 1, n):
            a = w[start:i]
            with_a = factor
            if a:
                value = t_eval(a)
                with_a = value if factor is None else factor * value
                if with_a.is_zero():
                    continue
            for j in range(i + 1, n + 1):
                b = w[i:j]
                for k in range(j, n + 1):
                    c = w[j:k]
                    with_c = with_a
                    if c:
                        value = tinv_eval(c)
                        with_c = value if with_a is None else with_a * value
                        if with_c.is_zero():
                            continue
                    decorated = prefix + flexion_up(a, flexion_down(b, c))
                    if k < n:
                        walk(k, bool(c), decorated, with_c)
                        continue
                    sval = s_eval(decorated)
                    if not sval.is_zero():
                        parts.append(sval if with_c is None else (sval, with_c))

    walk(0, True, (), None)
    return rf_sum(parts)


# ---------------------------------------------------------------------------
# concrete operations on moulds
# ---------------------------------------------------------------------------


def arit(N: Mould) -> Callable[[Mould], Mould]:
    """The derivation-like operator attached to N."""
    op = lazy_arit(N)
    return lambda M: _materialize(op(M))


def preari(M: Mould, N: Mould) -> Mould:
    """Pre-Lie product preari(M, N) = arit(N)(M) + M x N."""
    return _materialize(lazy_preari(M, N))


def preari_n(n: int, A: Mould) -> Mould:
    """Left-iterated pre-Lie powers: preari_0 = 1, preari_1 = A, ..."""
    if n < 0:
        raise ValueError("iterate index must be nonnegative")
    if n == 0:
        return Mould.unit(A.depth)
    out = A
    for _ in range(n - 1):
        out = lazy_preari(out, A)
    return _materialize(out)


def ari(M: Mould, N: Mould) -> Mould:
    """Lie bracket ari(M, N) = preari(M, N) - preari(N, M)."""
    return _materialize(lazy_ari(M, N))


def garit(T: Mould) -> Callable[[Mould], Mould]:
    """The twisted action of the group element T."""
    _require_gari(T, "garit")
    op = lazy_garit(T)
    return lambda S: _materialize(op(S))


def gari(S: Mould, T: Mould) -> Mould:
    """Group law gari(S, T) = garit(T)(S) x T."""
    _require_gari(T, "gari")
    return _materialize(lazy_gari(S, T))


def expari(A: Mould) -> Mould:
    """Exponential sum of pre-Lie iterates: sum_n preari_n(A) / n!."""
    _require_ari(A, "expari")
    return _materialize(lazy_expari(A))


def logari(S: Mould) -> Mould:
    """Inverse of expari, solved depth by depth."""
    _require_gari(S, "logari")
    return _materialize(lazy_logari(S))


def invgari(S: Mould) -> Mould:
    """Inverse element for the gari group law, solved depth by depth."""
    _require_gari(S, "invgari")
    return _materialize(lazy_invgari(S))


def adari(S: Mould) -> Callable[[Mould], Mould]:
    """Conjugation of the Lie structure by the group element S.

    adari(S)(A) = logari(gari(gari(S, expari(A)), invgari(S))), evaluated in
    the closed form of ``lazy_adari`` (see the module docstring).  Like every
    eager operator, the operator takes any A and returns a ``Mould``.
    """
    _require_gari(S, "adari")
    conj = lazy_adari(S)

    def apply(A):
        _require_ari(A, "adari")
        return _materialize(conj(A))

    return apply


# ---------------------------------------------------------------------------
# lazy moulds: evaluation at arbitrary words, memoized
# ---------------------------------------------------------------------------


def lazy_arit(N) -> Callable:
    def apply(M) -> LazyMould:
        return LazyMould(
            min(M.depth, N.depth), lambda w: arit_at(w, M.eval_word, N.eval_word), M, N
        )

    return apply


def lazy_preari(M, N) -> LazyMould:
    return LazyMould(
        min(M.depth, N.depth), lambda w: preari_at(w, M.eval_word, N.eval_word), M, N
    )


def lazy_ari(M, N) -> LazyMould:
    return LazyMould(
        min(M.depth, N.depth),
        lambda w: rf_sum(
            _preari_parts(w, M.eval_word, N.eval_word)
            + [(-a, b) for a, b in _preari_parts(w, N.eval_word, M.eval_word)]
        ),
        M,
        N,
    )


def lazy_garit(T) -> Callable:
    Tinv = lazy_mu_inverse(T)

    def apply(S) -> LazyMould:
        return LazyMould(
            min(S.depth, T.depth),
            lambda w: garit_at(w, S.eval_word, T.eval_word, Tinv.eval_word),
            S,
            T,
        )

    return apply


def lazy_gari(S, T) -> LazyMould:
    """gari(S, T) = garit(T)(S) x T, with a twisted action of its own.

    For T = G = ``lazy_invgari(S)`` this action recomputes the X =
    garit(G)(S) that the solver defined G by, G = mu_inverse(X), so
    ``gari(S, invgari(S)) = 1`` is mu(X, mu_inverse(X)) = 1 and holds
    whatever ``garit_at`` computes, shared action or not.  The left
    inverse ``gari(invgari(S), S) = 1`` reads garit(S)(G), which the
    solver never computes: that side is the one that checks ``garit_at``.
    """
    return lazy_mu(lazy_garit(T)(S), T)


def lazy_expari(A) -> LazyMould:
    return LazyMould(
        A.depth,
        _series(
            RationalFunction.one(),
            _inverse_factorials(A.depth),
            _powers(A, lazy_preari),
        ),
        A,
    )


def lazy_logari(S) -> LazyMould:
    """Solve expari(X) = S for X: X = S - sum_{n >= 2} preari_n(X) / n!.
    The correction terms at a word only involve X at strictly shorter
    words, so the recursion is well founded."""
    X = LazyMould(S.depth, None, S)
    chain = _powers(X, lazy_preari)
    chain[1] = S
    coeffs = [None, Fraction(1)] + [-c for c in _inverse_factorials(S.depth)[2:]]
    X._fn = _series(RationalFunction.zero(), coeffs, chain)
    return X


def lazy_invgari(S) -> LazyMould:
    """Solve gari(S, G) = 1 for G, i.e. G = mu_inverse(garit(G)(S)).

    The fixed point is well founded: garit(G)(S) at a word only involves G
    at strictly shorter words (every garit block is flanked by a nonempty
    b), and mu_inverse at a word only involves its argument at that word
    and its own values at strictly shorter words.
    """
    G = LazyMould(S.depth, None, S)
    G._fn = lazy_mu_inverse(lazy_garit(G)(S)).eval_word
    return G


def _conjugation(S, Sinv) -> Callable:
    """A -> gari(preari(S, A), Sinv), for Sinv the gari inverse of S; the
    twisted action garit(Sinv) and its mu-inverse memo are built once."""
    twist = lazy_garit(Sinv)
    return lambda A: lazy_mu(twist(lazy_preari(S, A)), Sinv)


def lazy_adari(S) -> Callable:
    """adari(S)(A) = gari(preari(S, A), invgari(S)): one invgari(S) and one
    twisted action garit(invgari(S)) are shared by all applications."""
    return _conjugation(S, lazy_invgari(S))
