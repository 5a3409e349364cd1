"""Shared oracles and generators for the test suite.

The oracles here are deliberately independent of the canonical-form
machinery they check: equality via dense cross-multiplication,
divisibility certificates via evaluation at points on a form's zero set,
the solver-chain definition of adari that the closed form replaced, the
kernel's former substitution (powers of whole forms, for the numerator
and for each denominator form) and summation
(every summand lifted to the full common denominator by full products),
the product canonicalized by ``make`` trying every denominator form, the
former shift-based mould product with its inverse, exponential and
logarithm (component by component, summed by chained ``+``), and the
former eager gari, expari, singulator and slices, built from that product
and the component-wise neg and leng, and the former tuple kernel (products,
products with a linear form, exact division, substitution and the lifting of
sums, on monomials as exponent tuples) that the packed-integer kernel
replaced, the former rendering of monomials from their full exponent
tuples, and the former alternality and symmetrality deciders, which
evaluate every ordered cell (p, q) where the deciders now evaluate only
p <= q; the former twisted-action sum, which builds each block
factorization's factor from scratch where ``garit_at`` now shares it
between the factorizations through a block prefix; and the opaque-symbol
proofs of the singulator's four-sum expansion and of the gari inverse,
shared by the tier-1 suite and the deeper proofs in ``proofs/``.
"""

from __future__ import annotations

import random
from fractions import Fraction

from math import gcd
from operator import add

from mouldcalc.algebra import (
    LinearForm,
    Polynomial,
    RationalFunction,
    one_over_forms,
    rf_sum,
    x_var,
)
from mouldcalc.flexions import (
    adari,
    flexion_down,
    flexion_up,
    garit_at,
    garit_factorizations,
    invgari,
    lazy_expari,
    lazy_gari,
    lazy_invgari,
    lazy_logari,
    preari,
)
from mouldcalc.generic import OpaqueMould, SymbolRegistry
from mouldcalc.moulds import (
    Mould,
    NotDefinedError,
    NotInvertibleError,
    canonical_word,
    leng,
    mu,
    neg,
)
from mouldcalc.special import _lazy_sang_expanded, lazy_sang, mupaj, paj, pal
from mouldcalc.symmetry import SymmetryReport, _shuffle_sum
from mouldcalc.verify import random_ari_mould, random_gari_mould

__all__ = [
    "mu_via_shift",
    "mu_inverse_via_shift",
    "mu_exp_via_shift",
    "mu_log_via_shift",
    "adari_via_logari",
    "gari_via_shift_mu",
    "expari_via_materialized_chain",
    "sang_via_eager_moulds",
    "slang_via_eager_moulds",
    "compose_via_powers",
    "rf_sum_via_full_lift",
    "substitute_via_powers",
    "mul_via_full_make",
    "count_div_attempts",
    "count_products",
    "opaque_sang_expansion",
    "prove_sang_expansion",
    "garit_at_per_factorization",
    "prove_gari_inverse",
    "mul_via_tuples",
    "mul_linear_via_tuples",
    "try_div_linear_via_tuples",
    "compose_via_tuples",
    "rf_sum_via_tuples",
    "sorted_terms_via_tuples",
    "monomial_str_via_tuple",
    "monomial_latex_via_tuple",
    "is_alternal_all_pairs",
    "is_symmetral_all_pairs",
    "with_component",
    "depth_supported",
    "middle_cell_mould",
    "first_fails_at_2_3",
    "den_polynomial",
    "cross_equal",
    "poly_eval",
    "form_eval",
    "random_ari_mould",
    "random_gari_mould",
    "random_rf",
]


def mu_via_shift(M: Mould, N: Mould) -> Mould:
    """Mould product: (M x N)^m = sum_k M^k(x_1..x_k) N^{m-k}(x_{k+1}..x_m)."""
    d = min(M.depth, N.depth)
    comps = []
    for m in range(d + 1):
        comps.append(
            rf_sum(
                M.components[k] * N.components[m - k].shift(k)
                for k in range(m + 1)
                if not M.components[k].is_zero()
                and not N.components[m - k].is_zero()
            )
        )
    return Mould(comps)


def mu_inverse_via_shift(S: Mould) -> Mould:
    """Inverse for the mould product; requires S^0 = 1."""
    if not S.components[0].is_constant() or S.components[0].constant_value() != 1:
        raise NotInvertibleError("mu-inverse needs depth-0 component 1")
    comps = [RationalFunction.one()]
    for m in range(1, S.depth + 1):
        total = rf_sum(
            S.components[k] * comps[m - k].shift(k)
            for k in range(1, m + 1)
            if not S.components[k].is_zero() and not comps[m - k].is_zero()
        )
        comps.append(-total)
    return Mould(comps)


def mu_exp_via_shift(A: Mould) -> Mould:
    """Exponential for the mould product; requires A^0 = 0."""
    if not A.components[0].is_zero():
        raise NotDefinedError("mu-exponential needs depth-0 component 0")
    total = Mould.unit(A.depth)
    power = Mould.unit(A.depth)
    fact = 1
    for h in range(1, A.depth + 1):
        power = mu_via_shift(power, A)
        fact *= h
        total = total + power * Fraction(1, fact)
    return total


def mu_log_via_shift(S: Mould) -> Mould:
    """Logarithm for the mould product; requires S^0 = 1.

    Computed as sum_h ((-1)^{h+1}/h) (S - 1)^{x h}; the series is finite at
    each truncation depth.
    """
    if not S.components[0].is_constant() or S.components[0].constant_value() != 1:
        raise NotDefinedError("mu-logarithm needs depth-0 component 1")
    D = S - Mould.unit(S.depth)
    total = Mould.zero(S.depth)
    power = D
    for h in range(1, S.depth + 1):
        total = total + power * Fraction((-1) ** (h + 1), h)
        if h < S.depth:
            power = mu_via_shift(power, D)
    return total


def adari_via_logari(S):
    """The defining form of the conjugation, through three nested solvers:
    adari(S)(A) = logari(gari(gari(S, expari(A)), invgari(S)))."""
    Sinv = lazy_invgari(S)

    def apply(A):
        return lazy_logari(lazy_gari(lazy_gari(S, lazy_expari(A)), Sinv))

    return apply


def gari_via_shift_mu(S: Mould, T: Mould) -> Mould:
    """gari(S, T) = garit(T)(S) x T, with garit summed at the canonical words
    over the shift-based inverse of T and the product taken by shifts."""
    Tinv = mu_inverse_via_shift(T)
    d = min(S.depth, T.depth)
    twisted = Mould(
        [
            garit_at(canonical_word(m), S.eval_word, T.eval_word, Tinv.eval_word)
            for m in range(d + 1)
        ]
    )
    return mu_via_shift(twisted, T)


def expari_via_materialized_chain(A: Mould) -> Mould:
    """expari(A) = sum_n preari_n(A) / n!, every iterate a concrete mould."""
    total = Mould.unit(A.depth) + A
    chain = A
    fact = 1
    for n in range(2, A.depth + 1):
        chain = preari(chain, A)
        fact *= n
        total = total + chain * Fraction(1, fact)
    return total


def sang_via_eager_moulds(M: Mould) -> Mould:
    """(1/2)(id + neg . adari(paj)) (mupaj x M x paj) on concrete moulds."""
    d = M.depth
    B = mu_via_shift(mu_via_shift(mupaj(d), M), paj(d))
    return (B + neg(adari(paj(d))(B))) * Fraction(1, 2)


def slang_via_eager_moulds(r: int, A: Mould) -> Mould:
    """adari(pal) . leng_r . adari(pal)^{-1} . sang(A) on concrete moulds."""
    p = pal(A.depth)
    inner = adari(invgari(p))(sang_via_eager_moulds(A))
    return adari(p)(leng(r, inner))


def compose_via_powers(p: Polynomial, forms) -> Polynomial:
    """Substitute ``forms[i-1]`` for x_i by expanding every monomial with
    cached powers of the whole forms, using only ``*`` and ``+``."""
    form_polys = [f.as_polynomial() for f in forms]
    powers = [[Polynomial.one()] for _ in forms]

    def power(i: int, e: int) -> Polynomial:
        cache = powers[i]
        while len(cache) <= e:
            cache.append(cache[-1] * form_polys[i])
        return cache[e]

    total = Polynomial.zero()
    for m, c in p.terms.items():
        term = Polynomial.constant(c)
        for i, e in enumerate(m):
            if e:
                term = term * power(i, e)
        total = total + term
    return total


def compose_form_via_powers(f: LinearForm, forms) -> LinearForm:
    """``f.compose(forms)`` through compose_via_powers of f's polynomial,
    read back from the degree-1 coefficients."""
    image = compose_via_powers(f.as_polynomial(), forms).terms
    coeffs = [0] * max(map(len, image), default=0)
    for m, c in image.items():
        assert sum(m) == 1 and m[-1] == 1, m
        coeffs[len(m) - 1] = c
    return LinearForm(coeffs)


def substitute_via_powers(r: RationalFunction, forms) -> RationalFunction:
    """``r.substitute(forms)`` with the numerator and every denominator form
    through compose_via_powers."""
    if r.is_zero():
        return r
    den = [(compose_form_via_powers(f, forms), m) for f, m in r.denominator]
    return RationalFunction.make(r.scalar, compose_via_powers(r.numerator, forms), den)


def rf_sum_via_full_lift(items) -> RationalFunction:
    """Sum over the common denominator, lifting every summand on its own by
    full products with each missing form, then adding the lifted numerators."""
    terms = [r for r in items if not r.is_zero()]
    common: dict = {}
    for r in terms:
        for f, m in r.denominator:
            common[f] = max(common.get(f, 0), m)
    lcm = 1
    for r in terms:
        lcm = lcm * r.scalar.denominator // gcd(lcm, r.scalar.denominator)
    total = Polynomial.zero()
    for r in terms:
        num = r.numerator
        da = dict(r.denominator)
        for f, m in common.items():
            for _ in range(m - da.get(f, 0)):
                num = num * f.as_polynomial()
        total = total + (r.scalar.numerator * (lcm // r.scalar.denominator)) * num
    return RationalFunction.make(Fraction(1, lcm), total, common.items())


def mul_via_full_make(a: RationalFunction, b: RationalFunction) -> RationalFunction:
    """``a * b`` as ``make`` of the full product, which tries every form."""
    if a.is_zero() or b.is_zero():
        return RationalFunction.zero()
    return RationalFunction.make(
        a.scalar * b.scalar, a.numerator * b.numerator, a.denominator + b.denominator
    )


def count_div_attempts(monkeypatch) -> list:
    """Patch ``Polynomial.try_div_linear`` to record the form of every call;
    returns the (growing) list of forms."""
    attempts: list = []
    original = Polynomial.try_div_linear

    def counting(self, form):
        attempts.append(form)
        return original(self, form)

    monkeypatch.setattr(Polynomial, "try_div_linear", counting)
    return attempts


def count_products(monkeypatch, cls) -> list:
    """Patch ``cls.__mul__`` to record every product of two ``cls`` values
    (not those by a scalar); returns the (growing) list of right factors."""
    calls: list = []
    original = cls.__mul__

    def counting(self, other):
        if isinstance(other, cls):
            calls.append(other)
        return original(self, other)

    monkeypatch.setattr(cls, "__mul__", counting)
    return calls


# ---------------------------------------------------------------------------
# the former tuple kernel: a monomial is its exponent tuple, trailing zeros
# trimmed; each oracle reads ``Polynomial.terms`` and returns a tuple-keyed
# dict (None for a failed division)
# ---------------------------------------------------------------------------


def opaque_sang_expansion(top: int) -> tuple[list, list]:
    """The singulator's four-sum expansion and ``lazy_sang`` at the canonical
    words of depth 0 to ``top``, on an opaque depth-1-supported mould S.

    Wherever the two agree as canonical forms, the expansion holds for
    every depth-1-supported mould: each value of S is a free symbol.
    """
    S = OpaqueMould(SymbolRegistry(), "S", top, support=(1,))
    expanded, oracle = _lazy_sang_expanded(S), lazy_sang(S)
    words = [canonical_word(m) for m in range(top + 1)]
    return [expanded.eval_word(w) for w in words], [oracle.eval_word(w) for w in words]


def prove_sang_expansion(top: int) -> None:
    """The expansion equals ``lazy_sang`` at every depth up to ``top``, and
    the proof is not vacuous: no component above depth 0 is zero."""
    got, want = opaque_sang_expansion(top)
    assert got == want
    assert all(not c.is_zero() for c in got[1:])


def garit_at_per_factorization(w, s_eval, t_eval, tinv_eval) -> RationalFunction:
    """The twisted action sum over block factorizations of w, each
    factorization's factor T(a_1) T^-1(c_1) ... built from scratch and each
    product S(decorated) * factor built before one ``rf_sum``."""
    if not w:
        return s_eval(())
    parts = []
    for blocks in garit_factorizations(w):
        decorated = ()
        factor = RationalFunction.one()
        for a, b, c in blocks:
            decorated = decorated + flexion_up(a, flexion_down(b, c))
            if a:
                factor = factor * t_eval(a)
                if factor.is_zero():
                    break
            if c:
                factor = factor * tinv_eval(c)
                if factor.is_zero():
                    break
        if factor.is_zero():
            continue
        sval = s_eval(decorated)
        if sval.is_zero():
            continue
        parts.append(sval * factor)
    return rf_sum(parts)


def prove_gari_inverse(top: int) -> None:
    """gari(S, invgari(S)) = 1 at every canonical word of depth 0 to
    ``top``, on an opaque S with S(empty) = 1: each value of S is a free
    symbol, so the identity holds for every S of the gari group.  The proof
    is not vacuous: invgari(S) is nonzero at every depth above 0."""
    S = OpaqueMould(SymbolRegistry(), "S", top, unit_value=1)
    G = lazy_invgari(S)
    product = lazy_gari(S, G)
    words = [canonical_word(m) for m in range(top + 1)]
    assert product.eval_word(()) == RationalFunction.one()
    for w in words[1:]:
        assert product.eval_word(w).is_zero(), f"depth {len(w)}"
        assert not G.eval_word(w).is_zero(), f"depth {len(w)}"


def _trim(seq) -> tuple:
    n = len(seq)
    while n > 0 and seq[n - 1] == 0:
        n -= 1
    return tuple(seq[:n])


def _tuple_linear_terms(form: LinearForm) -> list:
    return [(i, c) for i, c in enumerate(form.coeffs) if c]


def mul_via_tuples(p: Polynomial, q: Polynomial) -> dict:
    """``p * q``: each term product adds two exponent tuples entry by entry."""
    out: dict = {}
    a, b = p.terms, q.terms
    if len(a) > len(b):
        a, b = b, a
    for ma, ca in a.items():
        na = len(ma)
        for mb, cb in b.items():
            if len(mb) < na:
                m = tuple(map(add, ma, mb)) + ma[len(mb):]
            else:
                m = tuple(map(add, mb, ma)) + mb[na:]
            s = out.get(m, 0) + ca * cb
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def _mul_form_via_tuples(terms, lin: list, out: dict | None = None) -> dict:
    """``terms * sum(c * x_{i+1} for i, c in lin)``, added into ``out``."""
    if out is None:
        out = {}
    for i, c in lin:
        for m, cf in terms.items():
            n = len(m)
            if n > i:
                key = list(m)
                key[i] += 1
                key = tuple(key)
            else:
                key = m + (0,) * (i - n) + (1,)
            s = out.get(key, 0) + c * cf
            if s:
                out[key] = s
            else:
                del out[key]
    return out


def mul_linear_via_tuples(p: Polynomial, form: LinearForm) -> dict:
    """``p.mul_linear(form)``: each term product bumps one tuple entry."""
    return _mul_form_via_tuples(p.terms, _tuple_linear_terms(form))


def try_div_linear_via_tuples(p: Polynomial, form: LinearForm) -> dict | None:
    """``p.try_div_linear(form)`` by synthetic division in the form's
    leading variable, bucketing the tuples by that variable's entry."""
    terms = p.terms
    if not terms:
        return {}
    j = form.leading_var() - 1
    c = form.coeffs[j]
    neg_rest = [(i, -fc) for i, fc in enumerate(form.coeffs) if fc and i != j]
    levels: dict = {}
    deg = 0
    for m, coeff in terms.items():
        e = m[j] if len(m) > j else 0
        deg = max(deg, e)
        key = _trim(m[:j] + (0,) + m[j + 1:]) if len(m) > j else m
        levels.setdefault(e, {})[key] = coeff
    if deg == 0:
        return None
    q_levels: dict = {}
    carry = levels.get(deg, {})
    for k in range(deg, 0, -1):
        qk: dict = {}
        for m, cf in carry.items():
            if cf % c:
                return None
            qk[m] = cf // c
        q_levels[k - 1] = qk
        carry = _mul_form_via_tuples(qk, neg_rest, levels.get(k - 1, {}))
    if carry:
        return None
    out: dict = {}
    for e, level in q_levels.items():
        for m, cf in level.items():
            if e == 0:
                out[m] = cf
            elif len(m) > j:
                out[m[:j] + (e,) + m[j + 1:]] = cf
            else:
                out[m + (0,) * (j - len(m)) + (e,)] = cf
    return out


def _rename_via_tuples(terms, lins: list) -> dict:
    width = max((lin[0][0] + 1 for lin in lins if lin), default=0)
    out: dict = {}
    for m, c in terms.items():
        exps = [0] * width
        for i, e in enumerate(m):
            if e:
                lin = lins[i]
                if not lin:
                    break
                j, a = lin[0]
                exps[j] += e
                if a != 1:
                    c *= a**e
        else:
            key = _trim(exps)
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                del out[key]
    return out


def _horner_via_tuples(terms, lins: list) -> dict:
    n = max(map(len, terms), default=0)
    if n == 0:
        return dict(terms)
    levels: dict = {}
    for m, c in terms.items():
        e = 0
        if len(m) == n:
            e = m[-1]
            m = _trim(m[:-1])
        levels.setdefault(e, {})[m] = c
    lin = lins[n - 1]
    if not lin:
        return _horner_via_tuples(levels.get(0, {}), lins)
    top = max(levels)
    acc = _horner_via_tuples(levels[top], lins)
    for k in range(top - 1, -1, -1):
        acc = _mul_form_via_tuples(acc, lin, _horner_via_tuples(levels.get(k, {}), lins))
    return acc


def compose_via_tuples(p: Polynomial, forms) -> dict:
    """``p.compose(forms)``: a renaming maps each tuple to one tuple,
    anything else runs Horner in the last variable."""
    terms = p.terms
    width = max(map(len, terms), default=0)
    lins = [_tuple_linear_terms(f) for f in forms[:width]]
    if all(len(lin) <= 1 for lin in lins):
        return _rename_via_tuples(terms, lins)
    return _horner_via_tuples(terms, lins)


def rf_sum_via_tuples(items) -> RationalFunction:
    """``rf_sum(items)`` with the numerators lifted to the common denominator
    on tuples: each summand times the units it misses, one unit at a time."""
    terms = [r for r in items if not r.is_zero()]
    common: dict = {}
    for r in terms:
        for f, m in r.denominator:
            common[f] = max(common.get(f, 0), m)
    lcm = 1
    for r in terms:
        lcm = lcm * r.scalar.denominator // gcd(lcm, r.scalar.denominator)
    total: dict = {}
    for r in terms:
        lifted = r.numerator.terms
        have = dict(r.denominator)
        for f, m in common.items():
            for _ in range(m - have.get(f, 0)):
                lifted = _mul_form_via_tuples(lifted, _tuple_linear_terms(f))
        scale = r.scalar.numerator * (lcm // r.scalar.denominator)
        for mono, c in lifted.items():
            v = total.get(mono, 0) + scale * c
            if v:
                total[mono] = v
            else:
                del total[mono]
    return RationalFunction.make(
        Fraction(1, lcm), Polynomial.from_dict(total), common.items()
    )


def sorted_terms_via_tuples(p: Polynomial) -> list:
    """(exponent tuple, coefficient) pairs, grlex-largest first."""
    return sorted(p.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)


def monomial_str_via_tuple(m: tuple, var: str = "x") -> str:
    if not m:
        return "1"
    parts = []
    for i, e in enumerate(m, start=1):
        if e == 1:
            parts.append(f"{var}{i}")
        elif e > 1:
            parts.append(f"{var}{i}^{e}")
    return "*".join(parts)


def monomial_latex_via_tuple(m: tuple, var: str = "x") -> str:
    if not m:
        return ""
    parts = []
    for i, e in enumerate(m, start=1):
        if e == 1:
            parts.append(f"{var}_{{{i}}}")
        elif e > 1:
            parts.append(f"{var}_{{{i}}}^{{{e}}}")
    return " ".join(parts)


def is_alternal_all_pairs(M: Mould) -> SymmetryReport:
    """All shuffle sums with p, q >= 1 vanish; requires M^0 = 0."""
    if not M.components[0].is_zero():
        return SymmetryReport(False, M.depth, 0, 0, M.components[0])
    for total in range(2, M.depth + 1):
        for p in range(1, total):
            q = total - p
            residual = _shuffle_sum(M, p, q)
            if not residual.is_zero():
                return SymmetryReport(False, M.depth, p, q, residual)
    return SymmetryReport(True, M.depth)


def is_symmetral_all_pairs(S: Mould) -> SymmetryReport:
    """Shuffle sums factor multiplicatively; requires S^0 = 1."""
    c0 = S.components[0]
    if not (c0.is_constant() and not c0.is_zero() and c0.constant_value() == 1):
        return SymmetryReport(False, S.depth, 0, 0, c0 - RationalFunction.one())
    for total in range(2, S.depth + 1):
        for p in range(1, total):
            q = total - p
            product = S.components[p] * S.components[q].shift(p)
            residual = _shuffle_sum(S, p, q, -product)
            if not residual.is_zero():
                return SymmetryReport(False, S.depth, p, q, residual)
    return SymmetryReport(True, S.depth)


def with_component(M: Mould, k: int, fn) -> Mould:
    """``M`` with its depth-k component replaced by ``fn`` of it."""
    comps = list(M.components)
    comps[k] = fn(comps[k])
    return Mould(comps)


def depth_supported(depth: int, k: int, value: RationalFunction) -> Mould:
    """The mould whose only nonzero component is ``value`` at depth k."""
    comps = [RationalFunction.zero()] * (depth + 1)
    comps[k] = value
    return Mould(comps)


def middle_cell_mould() -> Mould:
    """mu(A, B) with A = x_1 - x_2 and B = 1/x_1 - 1/x_2, alternal and
    supported at depth 2.  Its shuffle sums vanish at every cell except the
    middle one, (2, 2); ``1 + mu(A, B)`` fails symmetrality there too."""
    x1, x2 = x_var(1), x_var(2)
    A = depth_supported(4, 2, RationalFunction.make(1, (x1 - x2).as_polynomial()))
    B = depth_supported(4, 2, one_over_forms(x1) - one_over_forms(x2))
    return mu(A, B)


def first_fails_at_2_3() -> Mould:
    """mu(A, B) with A = x_1 - x_2, alternal at depth 2, and
    B = 1/x_1 - 2/x_2 + 1/x_3, alternal at depth 3: the cells (1, 3) and
    (1, 4) vanish, (2, 3) does not."""
    x1, x2, x3 = x_var(1), x_var(2), x_var(3)
    A = depth_supported(5, 2, RationalFunction.make(1, (x1 - x2).as_polynomial()))
    B = depth_supported(
        5, 3, one_over_forms(x1) - one_over_forms(x2) * 2 + one_over_forms(x3)
    )
    return mu(A, B)


def den_polynomial(r: RationalFunction) -> Polynomial:
    """Expand the denominator multiset into a dense polynomial."""
    out = Polynomial.one()
    for form, mult in r.denominator:
        for _ in range(mult):
            out = out.mul_linear(form)
    return out


def cross_equal(f: RationalFunction, g: RationalFunction) -> bool:
    """Equality by cross multiplication, ignoring canonical forms."""
    lhs = f.numerator * den_polynomial(g)
    rhs = g.numerator * den_polynomial(f)
    a = f.scalar.numerator * g.scalar.denominator
    b = g.scalar.numerator * f.scalar.denominator
    return (a * lhs) == (b * rhs)


def poly_eval(p: Polynomial, values: list[Fraction]) -> Fraction:
    total = Fraction(0)
    for mono, c in p.terms.items():
        term = Fraction(c)
        for i, e in enumerate(mono):
            term *= values[i] ** e
        total += term
    return total


def form_eval(f: LinearForm, values: list[Fraction]) -> Fraction:
    return sum((Fraction(c) * values[i] for i, c in enumerate(f.coeffs)), Fraction(0))


def random_rf(rng: random.Random, nvars: int = 3) -> RationalFunction:
    """Small random rational function with linear-form denominators."""
    terms: dict = {}
    for _ in range(rng.randint(1, 3)):
        mono = [0] * nvars
        for _ in range(rng.randint(0, 2)):
            mono[rng.randrange(nvars)] += 1
        while mono and mono[-1] == 0:
            mono.pop()
        c = rng.randint(-4, 4)
        if c:
            key = tuple(mono)
            terms[key] = terms.get(key, 0) + c
    num = Polynomial.from_dict(terms)
    den = []
    for _ in range(rng.randint(0, 2)):
        coeffs = [rng.randint(-2, 2) for _ in range(nvars)]
        if any(coeffs):
            den.append((LinearForm(coeffs), rng.randint(1, 2)))
    scalar = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
    return RationalFunction.make(scalar, num, den)
