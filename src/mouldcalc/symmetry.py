"""Alternality and symmetrality at truncation depth.

A mould is alternal when all its shuffle sums
``M^{p+q}((x_1..x_p) sh (x_{p+1}..x_{p+q}))`` vanish, and symmetral when
they factor as ``M^p(x_1..x_p) M^q(x_{p+1}..x_{p+q})``.  Both notions are
decided here directly from the shuffle sums, and independently through
dimoulds: the shuffle-evaluation map Sh is an algebra map into bi-indexed
moulds, and a mould is alternal iff Sh(M) = M (x) 1 + 1 (x) M, symmetral
iff Sh(M) = M (x) M.  Decisions are valid up to the truncation depth only;
reports carry the verified depth and a failing cell witness.

Which cells are evaluated
-------------------------
Write A = (x_1..x_p), B = (x_{p+1}..x_{p+q}) for the canonical blocks of
cell (p, q), A' = (x_1..x_q), B' = (x_{q+1}..x_{q+p}) for those of cell
(q, p), and R(p, q) for the residual of cell (p, q): the shuffle sum, minus
``M^p(A) M^q(B)`` when deciding symmetrality.

*Lemma.* Let pi be the relabelling that swaps the two blocks,
x_i -> x_{i+q} for i <= p and x_{p+j} -> x_j for j <= q.  Then
R(q, p) = R(p, q) o pi, so R(q, p) = 0 exactly when R(p, q) = 0.

*Proof.* pi maps the letters of A onto B' and those of B onto A', in
order, so it maps each interleaving of A and B to one of B' and A', and
the shuffle product is commutative: sh(A', B') = sh(B', A') = pi(sh(A, B))
as multisets of words.  Hence the (q, p) shuffle sum is the (p, q) sum with
pi substituted.  The product term maps the same way:
``M^p(A) M^q(B)`` o pi = ``M^p(B') M^q(A')`` = ``M^q(A') M^p(B')``.  A
permutation of the variables is invertible, so it maps a rational function
to zero only if the function is zero.

So ``is_alternal`` and ``is_symmetral`` evaluate, at each total p + q, only
the cells with p <= q, in increasing p.  The set of failing cells at a
total is closed under p <-> q, so the first failing cell of the full order
(total, then p) already has p <= q: the report, residual included, is the
one the full loop gives.  The dimould cross-checks (``sh_map`` and the
``*_via_sh`` deciders) still evaluate every component (r, s); they are the
independent oracle of this shortcut.

Each shuffle sum is one ``rf_sum``.  The blocks A and B have distinct
letters, so every interleaving occurs once (multiplicity 1), and its value
enters the sum as it is, with no scaled copy.
"""

from __future__ import annotations

from typing import Callable, Mapping

from .algebra import RationalFunction, rf_sum, rf_to_json
from .moulds import Mould, _materialize, canonical_word, shuffle

__all__ = [
    "Dimould",
    "dimould_mu",
    "tensor",
    "sh_map",
    "SymmetryReport",
    "is_alternal",
    "is_symmetral",
    "is_alternal_via_sh",
    "is_symmetral_via_sh",
]


class Dimould:
    """Bi-indexed mould: components M^{r,s} for r + s <= depth.

    The component at (r, s) is a rational function of r + s slot variables,
    the first r forming the left block and the rest the right block.
    """

    __slots__ = ("depth", "components")

    def __init__(self, depth: int, components: Mapping[tuple, RationalFunction]):
        self.depth = depth
        comps = {}
        for r in range(depth + 1):
            for s in range(depth + 1 - r):
                c = components.get((r, s), RationalFunction.zero())
                if c.max_var() > r + s:
                    raise ValueError(f"component ({r},{s}) uses too many variables")
                comps[(r, s)] = c
        self.components = comps

    @staticmethod
    def unit(depth: int) -> "Dimould":
        return Dimould(depth, {(0, 0): RationalFunction.one()})

    @staticmethod
    def from_function(
        depth: int, fn: Callable[[int, int], RationalFunction]
    ) -> "Dimould":
        return Dimould(
            depth,
            {
                (r, s): fn(r, s)
                for r in range(depth + 1)
                for s in range(depth + 1 - r)
            },
        )

    def component(self, r: int, s: int) -> RationalFunction:
        return self.components[(r, s)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Dimould)
            and self.depth == other.depth
            and self.components == other.components
        )

    def __add__(self, other: "Dimould") -> "Dimould":
        if not isinstance(other, Dimould):
            return NotImplemented
        d = min(self.depth, other.depth)
        return Dimould.from_function(
            d, lambda r, s: self.components[(r, s)] + other.components[(r, s)]
        )

    def __repr__(self):
        body = ", ".join(
            f"{rs}: {c}" for rs, c in sorted(self.components.items()) if not c.is_zero()
        )
        return f"Dimould({body})"


def dimould_mu(A: Dimould, B: Dimould) -> Dimould:
    """Product of dimoulds: both blocks split independently."""
    d = min(A.depth, B.depth)

    def comp(r: int, s: int) -> RationalFunction:
        left = canonical_word(r)
        right = canonical_word(s, offset=r)
        parts = []
        for i in range(r + 1):
            for j in range(s + 1):
                a = A.components[(i, j)]
                if a.is_zero():
                    continue
                b = B.components[(r - i, s - j)]
                if b.is_zero():
                    continue
                a_sub = a.substitute(left[:i] + right[:j]) if i + j else a
                b_sub = (
                    b.substitute(left[i:] + right[j:]) if (r - i) + (s - j) else b
                )
                parts.append((a_sub, b_sub))
        return rf_sum(parts)

    return Dimould.from_function(d, comp)


def tensor(M: Mould, N: Mould) -> Dimould:
    """Tensor embedding: (M (x) N)^{r,s} = M^r(x_1..x_r) N^s(x_{r+1}..x_{r+s})."""
    d = min(M.depth, N.depth)
    return Dimould.from_function(
        d, lambda r, s: M.components[r] * N.components[s].shift(r)
    )


def sh_map(M: Mould) -> Dimould:
    """Evaluate M on the shuffle of the two canonical blocks."""

    def comp(r: int, s: int) -> RationalFunction:
        comb = shuffle(canonical_word(r), canonical_word(s, offset=r))
        return M.eval_combination(comb)

    return Dimould.from_function(M.depth, comp)


class SymmetryReport:
    """Outcome of an alternality/symmetrality decision up to a depth.

    Falsy when a shuffle sum fails; the witness records the failing block
    sizes and the nonzero residual.
    """

    __slots__ = ("ok", "depth", "p", "q", "residual")

    def __init__(self, ok, depth, p=None, q=None, residual=None):
        self.ok = ok
        self.depth = depth
        self.p = p
        self.q = q
        self.residual = residual

    def __bool__(self) -> bool:
        return self.ok

    def witness_json(self) -> dict | None:
        if self.ok:
            return None
        return {"p": self.p, "q": self.q, "residual": rf_to_json(self.residual)}

    def __repr__(self):
        if self.ok:
            return f"SymmetryReport(ok, depth={self.depth})"
        return (
            f"SymmetryReport(fail at ({self.p},{self.q}), residual={self.residual})"
        )


def _shuffle_sum(M: Mould, p: int, q: int, *extra) -> RationalFunction:
    """``M`` summed over the shuffle of blocks p and q, plus ``extra``:
    values or ``rf_sum`` pairs that stand for products.

    One ``rf_sum``, so the whole residual is canonicalized once.  The two
    blocks have distinct letters, so every interleaving has multiplicity 1
    and its value enters the sum unscaled.
    """
    comb = shuffle(canonical_word(p), canonical_word(q, offset=p))
    return rf_sum([*map(M.eval_word, comb), *extra])


def _require_shuffle_sums(what: str, depth: int) -> None:
    """Refuse depths below 2: there is no shuffle sum there, so a decider
    would pass vacuously."""
    if depth < 2:
        raise ValueError(
            f"{what} needs depth 2 or more: there is no shuffle sum below it"
        )


def _decide(M: Mould, what: str, unit: RationalFunction) -> SymmetryReport:
    """The first failing cell of ``M``: depth 0 unless M^0 = ``unit``, else
    the first cell (p, q) with p <= q whose shuffle sum, minus
    M^p(x_1..x_p) M^q(x_{p+1}..x_{p+q}) when ``unit`` is 1, is nonzero."""
    _require_shuffle_sums(what, M.depth)
    M = _materialize(M)
    residual = M.components[0] - unit
    if not residual.is_zero():
        return SymmetryReport(False, M.depth, 0, 0, residual)
    for total in range(2, M.depth + 1):
        for p in range(1, total // 2 + 1):
            q = total - p
            extra = () if unit.is_zero() else ((-M.components[p], M.components[q].shift(p)),)
            residual = _shuffle_sum(M, p, q, *extra)
            if not residual.is_zero():
                return SymmetryReport(False, M.depth, p, q, residual)
    return SymmetryReport(True, M.depth)


def is_alternal(M: Mould) -> SymmetryReport:
    """All shuffle sums with p, q >= 1 vanish; requires M^0 = 0 and depth
    at least 2 (ValueError below it).

    Only the cells with p <= q are evaluated (see the module docstring).
    """
    return _decide(M, "is_alternal", RationalFunction.zero())


def is_symmetral(S: Mould) -> SymmetryReport:
    """Shuffle sums factor multiplicatively; requires S^0 = 1 and depth at
    least 2 (ValueError below it).

    Only the cells with p <= q are evaluated (see the module docstring).
    """
    return _decide(S, "is_symmetral", RationalFunction.one())


def is_alternal_via_sh(M: Mould) -> bool:
    """Dimould characterization: Sh(M) = M (x) 1 + 1 (x) M."""
    M = _materialize(M)
    unit = Mould.unit(M.depth)
    return sh_map(M) == tensor(M, unit) + tensor(unit, M)


def is_symmetral_via_sh(M: Mould) -> bool:
    """Dimould characterization: Sh(M) = M (x) M with M(empty) = 1."""
    M = _materialize(M)
    if M.components[0] != RationalFunction.one():
        return False
    return sh_map(M) == tensor(M, M)
