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
T x U = 1 through it, as U(w) = -mu_at(w, T - 1, U).  ``lazy_mu_log(S)``
is mu-log's definition, one ``rf_sum`` per word w of ``_mu_log_terms``:
over the splittings of w into h blocks, (-1)^(h+1)/h times the product of
S's values at the blocks.  ``mu_exp`` sums lazy powers by one ``rf_sum``
per word (``_series``, as for ``expari``).  The eager forms of
these operators take any mould (concrete, lazy or opaque), check its
depth-0 value through ``eval_word(())`` and materialize the lazy rule at
the canonical words, so they always return a ``Mould``: ``mu``,
``mu_inverse``, ``mu_log``, ``neg`` and ``leng`` materialize ``lazy_mu``,
``lazy_mu_inverse``, ``lazy_mu_log``, ``lazy_neg`` and ``lazy_leng``, and
``mu_exp`` a series of lazy powers.  ``dur_scale``, ``dur_unscale`` and
``sharp`` also take any mould: they map each depth's value at the canonical
word, which a concrete mould holds as its component, through one per-depth
map, ``_per_depth``.  ``sharp`` reads depth m at ``_sharp_word(m)``, and
``unsharp_word(m)`` inverts that substitution: ``sharp(M)^(m) == T``
can be checked as M^(m) == T at ``unsharp_word(m)``, without
substituting M.

A lazy mould is *natural* when it declares the moulds its rule reads and
each is a ``Mould`` or a natural ``LazyMould``.  A natural lazy mould's
value at a word w of length n is its canonical value, at
``canonical_word(n)``, with w put in.  Every lazy rule here, in
``flexions`` and in ``special`` reads its inputs only through
``eval_word``, at words built from w's letters by subwords, letter sums,
flexions and sign flips, and combines those values only by ring
operations.  Putting w in for the canonical word maps each word that the
rule reads at the canonical word to the word it reads at w, letter by
letter, since those operations are linear in the letters.  The
substitution is a ring map, and a ``Mould``'s value at a word is its
component with the word substituted.  So, by induction over the rules
(over word length for the solvers, which also read themselves at shorter
words), the value at w is the canonical value with w put in.  This needs
the substitution to send no denominator form to zero.  That holds when w
is echelon (``algebra._echelon``): every letter is nonzero and the
letters end in distinct variables, so they are independent, and
``substitute`` then tries no form either.  An opaque symbol is keyed by the word it is read at, not by
what its letters are, so an opaque input is not natural, and a lazy mould
over one evaluates every word by its rule and numbers its symbols as it
always did; a lazy mould that declares no input is not natural either.

So on a memo miss at an echelon word other than the canonical one, a
natural lazy mould substitutes its canonical value, which it computes
first if it does not hold it; every other word runs the rule.  This is a
memo rule, not a second builder: the value it stores is the one the rule
would return, in the same canonical form, and the rule stays each
operator's one definition.

Every ``lazy_*`` constructor here and in ``flexions`` goes through one
node table, keyed by the constructor and its inputs' identities, with an
int parameter such as ``lazy_leng``'s r by value: while a node lives, the
same constructor on the same input objects returns it, memo and all.  The
table is weak, so an entry dies with its node and no lazy value outlives
its users, and a node holds its declared ``inputs``, so no identity in a
live key is reused.  Equal moulds that are distinct objects get nodes of
their own.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, update_wrapper
from itertools import combinations, zip_longest
from typing import Callable, Iterator, Mapping, Sequence
from weakref import WeakValueDictionary

from .algebra import (
    LinearForm,
    RationalFunction,
    _echelon,
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
    "lazy_mu_log",
    "neg",
    "dur",
    "dur_scale",
    "dur_unscale",
    "sharp",
    "unsharp_word",
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


def _letter_sum(w: Word) -> LinearForm:
    """The sum of a word's letters (``sum_form(m)`` at the canonical word),
    added coefficient by coefficient in one pass; a one-letter word is its
    letter."""
    if len(w) == 1:
        return w[0]
    return LinearForm(map(sum, zip_longest(*(f.coeffs for f in w), fillvalue=0)))


def shuffle(w1: Word, w2: Word) -> dict[Word, int]:
    """Shuffle product of two words as a multiset of interleavings.

    One interleaving per set of positions for the letters of w1, in order,
    with the letters of w2 at the other positions, in order; so the
    multiplicities sum to binomial(len(w1) + len(w2), len(w1)).  The sets
    come in lexicographic order, which lists the interleavings as the
    recursion  a w1 sh b w2 = a (w1 sh b w2) + b (a w1 sh w2)  does.
    """
    out: dict[Word, int] = {}
    for chosen in combinations(range(len(w1) + len(w2)), len(w1)):
        key = list(w2)
        for k, a in zip(chosen, w1):  # increasing positions: each lands at k
            key.insert(k, a)
        key = tuple(key)
        out[key] = out.get(key, 0) + 1
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
        if not isinstance(other, Mould):
            return NotImplemented
        d = min(self.depth, other.depth)
        return Mould(
            [self.components[m] + other.components[m] for m in range(d + 1)]
        )

    def __sub__(self, other: "Mould") -> "Mould":
        if not isinstance(other, Mould):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Mould":
        # Additive inverse; for sign-flip of the arguments see neg().
        return Mould([-c for c in self.components])

    def __mul__(self, scalar) -> "Mould":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented  # exact scalars only: a float is refused
        return Mould([c * scalar for c in self.components])

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
    ``inputs`` are the moulds the rule reads; the mould is natural when
    there is one and each is a ``Mould`` or a natural ``LazyMould``, and a
    natural mould reaches some words through its canonical values (see
    the module docstring).
    """

    __slots__ = ("depth", "_fn", "_memo", "inputs", "natural", "__weakref__")

    def __init__(self, depth: int, fn: Eval | None, *inputs):
        self.depth = depth
        self._fn = fn
        self._memo: dict = {}
        self.inputs = inputs
        self.natural = bool(inputs) and all(
            isinstance(M, Mould) or (isinstance(M, LazyMould) and M.natural)
            for M in inputs
        )

    def eval_word(self, w: Word) -> RationalFunction:
        got = self._memo.get(w)
        if got is None:
            held = self._canonical_value(w) if self.natural else None
            got = self._fn(w) if held is None else held.substitute(w)
            self._memo[w] = got
        return got

    def _canonical_value(self, w: Word) -> RationalFunction | None:
        """The canonical value that w's value is substituted from, or None
        where w runs the rule."""
        c = canonical_word(len(w))
        if w == c or not _echelon(w):
            return None
        return self.eval_word(c)


# The node table: the live lazy node of each constructor and inputs.  It is
# weak, so an entry dies with its node and the table keeps no value alive.
_NODES: WeakValueDictionary = WeakValueDictionary()


def _node(key: tuple, build: Callable[[], LazyMould]) -> LazyMould:
    """The live node entered under ``key``, else ``build()``'s, entered now.
    The key names a constructor and its inputs by identity; the node holds
    those inputs (``inputs``), so no identity in a live key is reused."""
    node = _NODES.get(key)
    if node is None:
        node = _NODES[key] = build()
    return node


def _key(fn: Callable, args: tuple) -> tuple:
    """The key of ``fn`` at ``args``: an int argument (``lazy_leng``'s r) by
    value, and every other argument, a mould, by identity."""
    return (fn, *(a if type(a) is int else id(a) for a in args))


def _tabled(constructor: Callable[..., LazyMould]) -> Callable[..., LazyMould]:
    """``constructor`` through the node table, keyed by ``_key``."""

    def tabled(*args) -> LazyMould:
        return _node(_key(constructor, args), lambda: constructor(*args))

    return update_wrapper(tabled, constructor)


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
    if S.eval_word(()) != RationalFunction.one():
        raise NotInvertibleError(f"{what} needs depth-0 component 1")


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


@_tabled
def lazy_mu(M, N) -> LazyMould:
    return LazyMould(
        min(M.depth, N.depth), lambda w: mu_at(w, M.eval_word, N.eval_word), M, N
    )


def _less_unit(S) -> LazyMould:
    """S - 1 for S with S(empty) = 1: S off the empty word, 0 on it."""
    zero = RationalFunction.zero()
    return LazyMould(S.depth, lambda w: S.eval_word(w) if w else zero, S)


@_tabled
def lazy_mu_inverse(T) -> LazyMould:
    """U = T^-1 from T x U = 1: U(w) = -mu_at(w, T - 1, U) off the empty
    word.  T - 1 vanishes on the empty word, so U is read only at proper
    suffixes of w."""
    D = _less_unit(T)
    U = LazyMould(T.depth, None, T)
    one = RationalFunction.one()
    U._fn = lambda w: -mu_at(w, D.eval_word, U.eval_word) if w else one
    return U


def _powers(A, product) -> list:
    """[None, A, product(A, A), product(product(A, A), A), ...], lazily, up
    to the A.depth-fold product: entry n is the n-fold product, and entry 0,
    which no series reads, is None."""
    chain = [None, A]
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
    return _materialize(LazyMould(A.depth, series, A))


def vine_partitions(d: int) -> Iterator[tuple[int, ...]]:
    """Cut-point sequences 0 = i_0 < i_1 < ... < i_h = d, one per splitting
    of a word of length d into h nonempty blocks (a vine of psi_{-1})."""
    for h in range(1, d + 1):
        for interior in combinations(range(1, d), h - 1):
            yield (0, *interior, d)


def _mu_log_terms(S, w: Word) -> list:
    """The summands of mu-log(S) at w, by its definition: for each splitting
    of w into h nonempty blocks, (-1)^(h+1)/h times the product of S's
    values at the blocks, as an ``rf_sum`` pair (the scaled product of all
    but the last, the last).  The product of the blocks before a cut is
    built once, from the product before the cut ahead of it: the
    splittings come in order of h, so that one is already held."""
    terms, heads = [], {(0,): RationalFunction.one()}
    for cuts in vine_partitions(len(w)):
        lead, h = cuts[:-1], len(cuts) - 1
        if lead not in heads:
            heads[lead] = heads[lead[:-1]] * S.eval_word(w[lead[-2] : lead[-1]])
        terms.append((heads[lead] * Fraction((-1) ** (h + 1), h), S.eval_word(w[lead[-1] :])))
    return terms


@_tabled
def lazy_mu_log(S) -> LazyMould:
    """Logarithm for the mould product, lazily, for S with S^0 = 1: one
    ``rf_sum`` of ``_mu_log_terms`` at each word."""
    return LazyMould(S.depth, lambda w: rf_sum(_mu_log_terms(S, w)), S)


def mu_log(S: Mould) -> Mould:
    """Logarithm for the mould product; requires S^0 = 1."""
    if S.eval_word(()) != RationalFunction.one():
        raise NotDefinedError("mu-logarithm needs depth-0 component 1")
    return _materialize(lazy_mu_log(S))


# ---------------------------------------------------------------------------
# elementary unary operators
# ---------------------------------------------------------------------------


@_tabled
def lazy_neg(M) -> LazyMould:
    return LazyMould(
        M.depth, lambda w: M.eval_word(tuple(-letter for letter in w)), M
    )


@_tabled
def lazy_leng(r: int, M) -> LazyMould:
    zero = RationalFunction.zero()
    return LazyMould(
        M.depth, lambda w: M.eval_word(w) if len(w) == r else zero, M
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


def _per_depth(M, fn: Callable[[RationalFunction, int], RationalFunction]) -> Mould:
    """The mould with M^0 at depth 0 and ``fn(M^m, m)`` at each depth m >= 1;
    M may be any mould, read at the canonical words."""
    src = _materialize(M).components
    return Mould([src[0], *(fn(src[m], m) for m in range(1, len(src)))])


def dur_scale(M: Mould) -> Mould:
    """Pointwise product with dur: multiply depth m by x_1 + ... + x_m."""
    return _per_depth(M, lambda c, m: c.mul_linear(sum_form(m)))


def dur_unscale(M: Mould) -> Mould:
    """Divide depth m by x_1 + ... + x_m; requires M^0 = 0."""
    _require_ari(M, "dur-unscale")
    return _per_depth(M, lambda c, m: c.div_linear(sum_form(m)))


@lru_cache(maxsize=None)
def _sharp_word(m: int) -> Word:
    """The word (x_1, x_1+x_2, .., x_1+..+x_m) at which ``sharp`` reads depth m."""
    return tuple(sum_form(i) for i in range(1, m + 1))


@lru_cache(maxsize=None)
def unsharp_word(m: int) -> Word:
    """The word (x_1, x_2-x_1, .., x_m-x_{m-1}), whose prefix sums are x_1..x_m.

    Each form of ``_sharp_word(m)`` composed with it is x_i, so
    ``sharp(M)^(m) == T`` holds exactly when M^(m) equals T substituted at
    this word.
    """
    w = canonical_word(m)
    return w[:1] + tuple(b - a for a, b in zip(w, w[1:]))


def sharp(M: Mould) -> Mould:
    """Change of coordinates f(x_1,..,x_m) -> f(x_1, x_1+x_2, .., x_1+..+x_m)."""
    return _per_depth(M, lambda c, m: c.substitute(_sharp_word(m)))


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
