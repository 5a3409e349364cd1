"""Dimoulds, the shuffle-evaluation map, and the symmetry decision procedures."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mouldcalc.algebra import Polynomial, RationalFunction, x_var
from mouldcalc.flexions import expari
from mouldcalc.moulds import (
    LazyMould,
    Mould,
    canonical_word,
    dur,
    dur_scale,
    mu,
    mu_log,
    shuffle,
    word,
)
from mouldcalc import symmetry
from mouldcalc.special import dupal, paj, pal
from mouldcalc.symmetry import (
    Dimould,
    dimould_mu,
    inductive_alternality_oracle,
    is_alternal,
    is_alternal_via_sh,
    is_symmetral,
    is_symmetral_via_sh,
    sh_map,
    tensor,
)

from helpers import (
    count_div_attempts,
    count_products,
    first_fails_at_2_3,
    is_alternal_all_pairs,
    is_symmetral_all_pairs,
    middle_cell_mould,
    random_ari_mould,
    random_gari_mould,
    substitute_via_powers,
    with_component,
)

x1, x2 = x_var(1), x_var(2)


def random_dimould(rng, depth):
    M = random_ari_mould(rng, depth)
    N = random_gari_mould(rng, depth)
    return tensor(N, M)


# ---------------------------------------------------------------------------
# dimould algebra
# ---------------------------------------------------------------------------


def test_dimould_unit_law():
    B = random_dimould(random.Random(1), 3)
    one = Dimould.unit(3)
    assert dimould_mu(one, B) == B
    assert dimould_mu(B, one) == B


def test_dimould_product_low_cell():
    A = random_dimould(random.Random(2), 2)
    B = random_dimould(random.Random(3), 2)
    got = dimould_mu(A, B).component(1, 0)
    want = A.component(0, 0) * B.component(1, 0) + A.component(1, 0) * B.component(0, 0)
    assert got == want


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10**6))
def test_dimould_associativity(seed):
    rng = random.Random(seed)
    A, B, C = (random_dimould(rng, 3) for _ in range(3))
    assert dimould_mu(dimould_mu(A, B), C) == dimould_mu(A, dimould_mu(B, C))


def test_tensor_with_unit():
    M = random_ari_mould(random.Random(5), 3)
    t = tensor(M, Mould.unit(3))
    for r in range(4):
        assert t.component(r, 0) == M.component(r)
    assert tensor(Mould.unit(3), Mould.unit(3)) == Dimould.unit(3)


def test_tensor_bilinear():
    rng = random.Random(6)
    M, N, P = (random_ari_mould(rng, 3) for _ in range(3))
    c = Fraction(5, 3)
    lhs = tensor(M + N * c, P)
    assert lhs == _dimould_add_scaled(tensor(M, P), tensor(N, P), c)


def _dimould_add_scaled(A, B, c):
    return Dimould.from_function(
        min(A.depth, B.depth),
        lambda r, s: A.component(r, s) + B.component(r, s) * c,
    )


# ---------------------------------------------------------------------------
# the Sh map
# ---------------------------------------------------------------------------


def test_sh_map_small_cells():
    M = random_ari_mould(random.Random(7), 3)
    D = sh_map(M)
    got = D.component(1, 1)
    want = M.eval_word(word(x1, x2)) + M.eval_word(word(x2, x1))
    assert got == want
    for r in range(4):
        assert D.component(r, 0) == M.component(r)


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 10**6))
def test_sh_is_algebra_morphism(seed):
    rng = random.Random(seed)
    M = random_gari_mould(rng, 4)
    N = random_gari_mould(rng, 4)
    assert sh_map(mu(M, N)) == dimould_mu(sh_map(M), sh_map(N))


def test_dimould_product_and_symmetrality_build_no_value_product(monkeypatch):
    # a dimould component is one rf_sum over (a, b) pairs, and a symmetral
    # residual takes M^p(x_1..x_p) M^q(x_{p+1}..x_{p+q}) as a negated pair:
    # rf_sum multiplies the numerators into the sum, so no product is built
    rng = random.Random("dimould-pairs")
    A, B, S = random_dimould(rng, 3), random_dimould(rng, 3), pal(5)
    products = count_products(monkeypatch, RationalFunction)
    assert any(not c.is_zero() for c in dimould_mu(A, B).components.values())
    assert is_symmetral(S)
    assert products == []


# ---------------------------------------------------------------------------
# alternality / symmetrality
# ---------------------------------------------------------------------------


def test_dupal_alternal_to_depth_6():
    assert is_alternal(dupal(6))


def test_depth1_supported_mould_is_alternal():
    from mouldcalc.special import sa

    assert is_alternal(sa(3, 4))


def test_alternality_failure_witness():
    comps = [RationalFunction.zero()] * 3
    comps[2] = RationalFunction.make(1, Polynomial.from_dict({(1,): 1}))  # M^2 = x1
    report = is_alternal(Mould(comps))
    assert not report
    assert (report.p, report.q) == (1, 1)
    want = RationalFunction.make(1, Polynomial.from_dict({(1,): 1, (0, 1): 1}))
    assert report.residual == want  # x1 + x2
    blob = json.dumps(report.witness_json())
    assert '"p": 1' in blob and '"q": 1' in blob


def test_deciders_refuse_depths_without_a_shuffle_sum():
    # below depth 2 there is no shuffle sum, so a pass would be vacuous
    x1_7 = RationalFunction.make(1, Polynomial.from_dict({(7,): 1}))
    for depth in (0, 1):
        comps = [RationalFunction.zero(), x1_7][: depth + 1]
        with pytest.raises(ValueError, match="is_alternal needs depth 2"):
            is_alternal(Mould(comps))
        with pytest.raises(ValueError, match="is_symmetral needs depth 2"):
            is_symmetral(Mould([RationalFunction.one(), x1_7][: depth + 1]))
    comps = [RationalFunction.zero(), x1_7, RationalFunction.zero()]
    assert is_alternal(Mould(comps))


def test_pal_symmetral_to_depth_5():
    assert is_symmetral(pal(5))


def test_passing_symmetral_residuals_make_no_division_attempt(monkeypatch):
    """Each residual is one sum of the shuffle terms and the pair
    (-S^p, S^q); in a passing cell its numerator is zero and no form is
    tried against it.  The only attempts are the pair's cross-cancellation,
    the ones the product S^p S^q makes on its own."""
    S = pal(5)
    attempts = count_div_attempts(monkeypatch)
    per_residual = []
    original = symmetry.rf_sum

    def residual_sum(items):
        items = list(items)
        (a, b), = [item for item in items if isinstance(item, tuple)]
        before = len(attempts)
        a * b
        product = len(attempts) - before
        total = original(items)
        per_residual.append(len(attempts) - before - 2 * product)
        return total

    monkeypatch.setattr(symmetry, "rf_sum", residual_sum)
    assert is_symmetral(S)
    assert per_residual == [0] * 6  # cells 1 <= p <= q with p + q <= 5


@pytest.mark.parametrize(
    "build", [lambda: pal(6), lambda: dupal(7), lambda: mu_log(paj(4))],
    ids=["pal(6)", "dupal(7)", "mu_log(paj(4))"],
)
def test_shuffle_words_evaluate_as_powers_without_division(build, monkeypatch):
    """At every word of every cell (p, q) with p <= q, the value is the
    substitution through powers of whole forms, and no form is tried: a
    shuffle word renames the variables, so no form can cancel."""
    M = build()
    M = Mould(list(M.components))  # an empty word cache
    words = [
        w
        for total in range(2, M.depth + 1)
        for p in range(1, total // 2 + 1)
        for w in shuffle(canonical_word(p), canonical_word(total - p, offset=p))
    ]
    attempts = count_div_attempts(monkeypatch)
    values = [M.eval_word(w) for w in words]
    assert attempts == []
    monkeypatch.undo()
    assert any(v.denominator for v in values)
    for w, v in zip(words, values):
        assert v == substitute_via_powers(M.components[len(w)], w)


def test_unit_is_symmetral():
    assert is_symmetral(Mould.unit(4))


def test_expari_of_alternal_is_symmetral():
    # exponentials of alternal moulds are group-like; checked through both
    # characterizations
    rng = random.Random(8)
    for _ in range(3):
        A = random_ari_mould(rng, 4)
        alternalized = _alternalize(A)
        S = expari(alternalized)
        assert is_symmetral(S)
        assert is_symmetral_via_sh(S)


def _alternalize(A):
    # depth-1 plus bracket parts are alternal: project using lu-brackets
    from mouldcalc.flexions import ari
    from mouldcalc.moulds import leng

    base = leng(1, A)
    correction = ari(base, leng(1, _shifted(A)))
    return base + correction * Fraction(1, 3)


def _shifted(A):
    comps = list(A.components)
    comps[1] = comps[1] * Fraction(2, 1)
    return Mould(comps)


def test_symmetrality_requires_unit():
    assert not is_symmetral(Mould.zero(3))


@pytest.mark.parametrize(
    "decider, c0, residual", [(is_alternal, 3, 3), (is_symmetral, 0, -1), (is_symmetral, 2, 1)]
)
def test_wrong_empty_word_value_fails_at_cell_0_0(decider, c0, residual):
    # M^0 must be 0 for alternality and 1 for symmetrality; the residual is
    # M^0 minus that value
    const = lambda c: RationalFunction.make(c, Polynomial.one())
    report = decider(Mould([const(c0), RationalFunction.zero(), RationalFunction.zero()]))
    assert (report.ok, report.p, report.q) == (False, 0, 0)
    assert report.residual == const(residual)


def test_characterizations_agree_random():
    rng = random.Random(9)
    for _ in range(4):
        M = random_ari_mould(rng, 4)
        assert bool(is_alternal(M)) == is_alternal_via_sh(M)
        S = random_gari_mould(rng, 4)
        assert bool(is_symmetral(S)) == is_symmetral_via_sh(S)


@pytest.mark.parametrize(
    "decide, via_sh, build",
    [
        (is_symmetral, is_symmetral_via_sh, lambda: pal(4)),
        (is_alternal, is_alternal_via_sh, lambda: dupal(4)),
        (is_alternal, is_alternal_via_sh, middle_cell_mould),
    ],
    ids=["pal(4)", "dupal(4)", "middle cell fails"],
)
def test_deciders_take_lazy_input(decide, via_sh, build):
    # a lazy mould is read once at the canonical words: same report, same
    # witness and the same dimould verdict as the concrete mould
    M = build()
    lazy = LazyMould(M.depth, M.eval_word)
    want, got = decide(M), decide(lazy)
    assert (got.ok, got.depth, got.witness_json()) == (want.ok, want.depth, want.witness_json())
    assert via_sh(lazy) == via_sh(M)


# ---------------------------------------------------------------------------
# the block-swap lemma: only the cells with p <= q are evaluated
# ---------------------------------------------------------------------------


def _block_swap(p, q):
    """x_i -> x_{i+q} for i <= p, x_{p+j} -> x_j for j <= q."""
    return [x_var(i + q) for i in range(1, p + 1)] + [x_var(j) for j in range(1, q + 1)]


def _product_term(S, p, q):
    return -(S.components[p] * S.components[q].shift(p))


def test_mirror_cell_is_the_block_swap_of_its_cell():
    M = random_ari_mould(random.Random(11), 5)
    assert not is_alternal(M)
    S = random_gari_mould(random.Random(12), 5)
    assert not is_symmetral(S)
    for total in range(3, 6):
        for p in range(1, (total + 1) // 2):
            q = total - p
            pi = _block_swap(p, q)
            mirror = symmetry._shuffle_sum(M, q, p)
            assert not mirror.is_zero()
            assert mirror == symmetry._shuffle_sum(M, p, q).substitute(pi)
            mirror = symmetry._shuffle_sum(S, q, p, _product_term(S, q, p))
            assert not mirror.is_zero()
            cell = symmetry._shuffle_sum(S, p, q, _product_term(S, p, q))
            assert mirror == cell.substitute(pi)


def _perturbed(M, k, by):
    return with_component(M, k, lambda c: c + by)


_x1_squared = RationalFunction.make(1, Polynomial.from_dict({(2,): 1}))
ALTERNAL_CASES = {
    "dupal(6)": lambda: dupal(6),
    "mu_log(paj(4))": lambda: mu_log(paj(4)),
    "dupal(6) + x1^2 at depth 4": lambda: _perturbed(dupal(6), 4, _x1_squared),
    "mu(A, B), middle cell": middle_cell_mould,
    "mu(A, B3)": first_fails_at_2_3,
    "random": lambda: random_ari_mould(random.Random(13), 4),
}
SYMMETRAL_CASES = {
    "pal(6)": lambda: pal(6),
    "paj(6)": lambda: paj(6),
    "pal(6) doubled at depth 5": lambda: with_component(pal(6), 5, lambda c: c * 2),
    "paj(6) + x1^2 at depth 3": lambda: _perturbed(paj(6), 3, _x1_squared),
    "1 + mu(A, B), middle cell": lambda: middle_cell_mould() + Mould.unit(4),
    "random": lambda: random_gari_mould(random.Random(14), 4),
}


def _same_report(got, want):
    assert (got.ok, got.depth, got.p, got.q) == (want.ok, want.depth, want.p, want.q)
    assert got.residual == want.residual
    assert repr(got) == repr(want)


@pytest.mark.parametrize("name", ALTERNAL_CASES)
def test_is_alternal_matches_all_pairs_oracle(name):
    M = ALTERNAL_CASES[name]()
    _same_report(is_alternal(M), is_alternal_all_pairs(M))


@pytest.mark.parametrize("name", SYMMETRAL_CASES)
def test_is_symmetral_matches_all_pairs_oracle(name):
    S = SYMMETRAL_CASES[name]()
    _same_report(is_symmetral(S), is_symmetral_all_pairs(S))


def test_a_failure_only_at_the_middle_cell_is_found():
    # every cell but (2, 2) vanishes, so a loop that skips p = q passes it
    M = middle_cell_mould()
    for p, q in ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1)):
        assert symmetry._shuffle_sum(M, p, q).is_zero()
    report = is_alternal(M)
    assert not report and (report.p, report.q) == (2, 2)
    report = is_symmetral(M + Mould.unit(4))
    assert not report and (report.p, report.q) == (2, 2)


def test_passing_deciders_evaluate_only_cells_with_p_at_most_q(monkeypatch):
    # the sum over totals 2..d of floor(total / 2); every ordered cell
    # would be the sum of total - 1: 28 at depth 8 and 21 at depth 7
    calls = []
    original = symmetry._shuffle_sum

    def counting(M, p, q, *extra):
        calls.append((p, q))
        return original(M, p, q, *extra)

    monkeypatch.setattr(symmetry, "_shuffle_sum", counting)
    assert is_alternal(dupal(8))
    assert len(calls) == 16
    assert all(p <= q for p, q in calls)
    calls.clear()
    assert is_symmetral(pal(7))
    assert len(calls) == 12
    assert all(p <= q for p, q in calls)


# ---------------------------------------------------------------------------
# inductive oracle
# ---------------------------------------------------------------------------


def _binomial_mould(depth):
    # A^m = sum_k (-1)^k C(m-1, k) x_{k+1}: satisfies the boundary recursion
    comps = [RationalFunction.zero()]
    for m in range(1, depth + 1):
        terms = {
            (0,) * k + (1,): (-1) ** k * comb(m - 1, k) for k in range(m)
        }
        comps.append(RationalFunction.make(1, Polynomial.from_dict(terms)))
    return Mould(comps)


def test_inductive_oracle_accepts_binomial_mould():
    A = _binomial_mould(6)
    assert inductive_alternality_oracle(A)
    assert is_alternal(A)


def test_inductive_oracle_rejects_shifted_variant():
    A = _binomial_mould(4)
    comps = list(A.components)
    comps[3] = comps[3] + RationalFunction.one()
    B = Mould(comps)
    assert not inductive_alternality_oracle(B)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_recursion_implies_alternal(seed):
    # build a mould from a random depth-1 seed through the recursion
    rng = random.Random(seed)
    seed_comp = random_ari_mould(rng, 1).component(1)
    comps = [RationalFunction.zero(), seed_comp]
    for m in range(2, 7):
        prev = comps[m - 1]
        comps.append(prev - prev.shift(1))
    A = Mould(comps)
    assert inductive_alternality_oracle(A)
    assert is_alternal(A)


# ---------------------------------------------------------------------------
# pointwise-scaling bridge between the two notions
# ---------------------------------------------------------------------------


def test_dur_satisfies_additivity():
    D = dur(5)
    rng = random.Random(10)
    for _ in range(5):
        p = rng.randint(1, 3)
        q = rng.randint(1, 2)
        w1 = tuple(x_var(i) for i in range(1, p + 1))
        w2 = tuple(x_var(i) for i in range(p + 1, p + q + 1))
        lhs = D.eval_word(w1 + w2)
        assert lhs == D.eval_word(w1) + D.eval_word(w2)
        assert not D.eval_word(w1).is_zero()


def test_scaling_relation_links_pal_and_dupal():
    # dur . pal = pal x dupal holds, dupal is alternal, pal is symmetral:
    # the three facts verified independently instantiate the equivalence
    # (dur_scale keeps the depth-0 slot, so compare depths >= 1)
    P, D = pal(4), dupal(4)
    scaled, product = dur_scale(P), mu(P, D)
    for m in range(1, 5):
        assert scaled.component(m) == product.component(m)
    assert is_alternal(D)
    assert is_symmetral(P)
