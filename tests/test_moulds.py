"""Word algebra, shuffle product, and the elementary mould operations."""

from __future__ import annotations

import gc
import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mouldcalc import moulds
from mouldcalc.algebra import Polynomial, RationalFunction, one_over_forms, x_var
from mouldcalc.generic import OpaqueMould, SymbolRegistry
from mouldcalc.moulds import (
    DepthExceededError,
    LazyMould,
    Mould,
    NotDefinedError,
    NotInvertibleError,
    canonical_word,
    dur,
    dur_scale,
    dur_unscale,
    equal_mod_depth,
    lazy_leng,
    lazy_mu,
    lazy_mu_inverse,
    lazy_mu_log,
    lazy_neg,
    leng,
    lu,
    mould_from_json,
    mould_to_json,
    mu,
    mu_exp,
    mu_inverse,
    mu_log,
    neg,
    sharp,
    shuffle,
    unsharp_word,
    word,
)
from mouldcalc.flexions import invgari
from mouldcalc.special import paj, pal, sa
from mouldcalc.symmetry import is_symmetral_via_sh

from helpers import (
    mu_exp_via_shift,
    mu_inverse_via_shift,
    mu_log_via_powers,
    mu_log_via_shift,
    mu_via_shift,
    outcome,
    random_ari_mould,
    random_gari_mould,
)

x1, x2, x3 = x_var(1), x_var(2), x_var(3)


# ---------------------------------------------------------------------------
# shuffle
# ---------------------------------------------------------------------------


def test_shuffle_two_letters():
    got = shuffle(word(x1), word(x2))
    assert got == {word(x1, x2): 1, word(x2, x1): 1}


def test_shuffle_empty_is_unit():
    w = word(x1, x3)
    assert shuffle(word(), w) == {w: 1}
    assert shuffle(w, word()) == {w: 1}


def test_shuffle_one_with_two():
    got = shuffle(word(x1), word(x2, x3))
    assert got == {
        word(x1, x2, x3): 1,
        word(x2, x1, x3): 1,
        word(x2, x3, x1): 1,
    }


def test_shuffle_repeated_letters_multiplicity():
    got = shuffle(word(x1), word(x1))
    assert got == {word(x1, x1): 2}


def _shuffle_oracle(w1, w2):
    """Every ordering of w1 + w2, by brute force, counted once per way of
    reading it as w1 and w2 each kept in order."""
    n = len(w1) + len(w2)
    out = {}
    for order in itertools.permutations(range(n)):
        firsts = [k for k in order if k < len(w1)]
        seconds = [k for k in order if k >= len(w1)]
        if firsts == sorted(firsts) and seconds == sorted(seconds):
            key = tuple((w1 + w2)[k] for k in order)
            out[key] = out.get(key, 0) + 1
    return out


@pytest.mark.parametrize("p", range(5))
@pytest.mark.parametrize("q", range(5))
def test_shuffle_matches_brute_force(p, q):
    # distinct letters, a repeated block and letters shared by both words
    words = [
        (canonical_word(p), canonical_word(q, offset=p)),
        (word(*[x1] * p), word(*[x1] * q)),
        (word(*[x1, x2] * 2)[:p], word(*[x2, x1, x1, x3])[:q]),
    ]
    for w1, w2 in words:
        got = shuffle(w1, w2)
        assert got == _shuffle_oracle(w1, w2)
        assert sum(got.values()) == comb(p + q, p)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3))
def test_shuffle_coefficient_count(p, q):
    left = canonical_word(p)
    right = canonical_word(q, offset=p)
    got = shuffle(left, right)
    assert sum(got.values()) == comb(p + q, p)


# ---------------------------------------------------------------------------
# mould evaluation
# ---------------------------------------------------------------------------


def test_evaluate_paj_on_word():
    P = paj(3)
    got = P.eval_word(word(x1, x2))
    assert got == one_over_forms(x1, x1 + x2)


def test_evaluate_on_composite_letters():
    P = paj(3)
    got = P.eval_word(word(x1 + x2, x3))
    assert got == one_over_forms(x1 + x2, x1 + x2 + x3)


def test_evaluate_empty_word():
    P = paj(2)
    assert P.eval_word(word()) == RationalFunction.one()


def test_depth_exceeded():
    P = paj(2)
    with pytest.raises(DepthExceededError):
        P.eval_word(word(x1, x2, x3))


@pytest.mark.parametrize(
    "call, refusal",
    [
        (lambda: Mould([]), (ValueError, "a mould needs at least the depth-0 component")),
        (lambda: paj(2).component(3), (DepthExceededError, "depth 3 exceeds truncation 2")),
        (lambda: leng(-1, paj(2)), (ValueError, "depth selector must be nonnegative")),
    ],
    ids=["no-components", "component-above-depth", "leng-negative"],
)
def test_mould_refusals(call, refusal):
    assert outcome(call) == refusal


# ---------------------------------------------------------------------------
# mu and friends
# ---------------------------------------------------------------------------


def test_mu_unit_law():
    M = random_ari_mould(random.Random(3), 4)
    assert mu(Mould.unit(4), M) == M
    assert mu(M, Mould.unit(4)) == M


def test_mu_depth2_expansion():
    rng = random.Random(5)
    M = random_gari_mould(rng, 2)
    N = random_gari_mould(rng, 2)
    got = mu(M, N).component(2)
    want = (
        M.component(0) * N.component(2)
        + M.component(1) * N.component(1).shift(1)
        + M.component(2) * N.component(0)
    )
    assert got == want


def test_mu_paj_squared_depth1():
    got = mu(paj(2), paj(2)).component(1)
    assert got == one_over_forms(x1) * 2


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_mu_associative(seed):
    rng = random.Random(seed)
    A, B, C = (random_ari_mould(rng, 5) for _ in range(3))
    assert mu(mu(A, B), C) == mu(A, mu(B, C))


def test_lu_antisymmetry_and_zero():
    rng = random.Random(11)
    M = random_ari_mould(rng, 3)
    N = random_ari_mould(rng, 3)
    assert lu(M, M).is_zero()
    assert lu(M, N) == -lu(N, M)


def test_lu_depth1_component_vanishes():
    rng = random.Random(13)
    M = random_ari_mould(rng, 3)
    N = random_ari_mould(rng, 3)
    assert lu(M, N).component(1).is_zero()


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_lu_jacobi(seed):
    rng = random.Random(seed)
    M, N, P = (random_ari_mould(rng, 4) for _ in range(3))
    total = lu(lu(M, N), P) + lu(lu(N, P), M) + lu(lu(P, M), N)
    assert total.is_zero()


def test_mu_inverse_unit():
    assert mu_inverse(Mould.unit(3)) == Mould.unit(3)


def test_mu_inverse_paj_depth1():
    assert mu_inverse(paj(3)).component(1) == -one_over_forms(x1)


def test_mu_inverse_defining_property():
    P = paj(5)
    assert mu(P, mu_inverse(P)) == Mould.unit(5)
    assert mu(mu_inverse(P), P) == Mould.unit(5)


def test_mu_inverse_requires_unit_constant():
    with pytest.raises(NotInvertibleError):
        mu_inverse(Mould.zero(2))


def test_mu_log_unit_is_zero():
    assert mu_log(Mould.unit(3)).is_zero()


def test_mu_log_paj_low_depths():
    L = mu_log(paj(3))
    assert L.component(1) == one_over_forms(x1)
    want = one_over_forms(x1, x1 + x2) - one_over_forms(x1, x2) * Fraction(1, 2)
    assert L.component(2) == want


def test_mu_exp_log_roundtrip():
    P = paj(5)
    assert mu_exp(mu_log(P)) == P
    rng = random.Random(17)
    A = random_ari_mould(rng, 4)
    assert mu_log(mu_exp(A)) == A


def test_mu_log_requires_group_element():
    with pytest.raises(NotDefinedError):
        mu_log(Mould.zero(2))


def test_depth_0_value_one_after_cancelling_is_the_unit():
    # x_1 / x_1 is 1 once cancelled: each depth-0 test compares canonical
    # values, so it accepts this 1 and refuses 2
    one = one_over_forms(x1).mul_linear(x1)
    assert one == RationalFunction.one()
    S = Mould([one, *paj(3).components[1:]])
    assert mu_inverse(S) == mu_inverse(paj(3))
    assert mu_log(S) == mu_log(paj(3))
    assert invgari(S) == invgari(paj(3))
    assert is_symmetral_via_sh(S)
    T = Mould([one * 2, *S.components[1:]])
    with pytest.raises(NotInvertibleError, match="mu-inverse needs depth-0 component 1"):
        mu_inverse(T)
    with pytest.raises(NotDefinedError, match="mu-logarithm needs depth-0 component 1"):
        mu_log(T)
    with pytest.raises(NotInvertibleError, match="invgari needs depth-0 component 1"):
        invgari(T)
    assert not is_symmetral_via_sh(T)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_product_and_series_match_shift_oracles(seed):
    # mu, mu_inverse, mu_exp and mu_log materialize the word-level product;
    # the oracles are the former component-wise forms built from shifts
    rng = random.Random(seed)
    S, T = random_gari_mould(rng, 4), random_gari_mould(rng, 4)
    A = random_ari_mould(rng, 4)
    P, Q = paj(5), pal(5)
    cases = [
        (mu, mu_via_shift, (S, T)),
        (mu, mu_via_shift, (P, Q)),
        (mu_inverse, mu_inverse_via_shift, (S,)),
        (mu_inverse, mu_inverse_via_shift, (Q,)),
        (mu_exp, mu_exp_via_shift, (A,)),
        (mu_exp, mu_exp_via_shift, (Q - Mould.unit(5),)),
        (mu_log, mu_log_via_shift, (S,)),
        (mu_log, mu_log_via_shift, (P,)),
        (mu_log, mu_log_via_shift, (Q,)),
    ]
    for fn, oracle, args in cases:
        assert fn(*args) == oracle(*args), fn.__name__


def _log_words(d: int) -> list:
    """The canonical word and ``unsharp_word(d)`` of length d, and for d >= 2
    a word whose letters end in x_2, x_2, x_3, x_3, x_4, x_4: not in echelon
    form, so substitution tries every form."""
    letters = [x1 + x2, x2 - x1 * 2, x1 * 3 + x3, x3 - x2 * 2, x_var(4) + x1, x_var(4) * 2 - x2]
    return [canonical_word(d), unsharp_word(d)] + ([tuple(letters[:d])] if d >= 2 else [])


def test_lazy_mu_log_matches_the_chain_of_powers_and_the_shift_oracle():
    # mu-log by its definition, summed over the splittings of each word,
    # against the series of lazy powers it replaced and the shift oracle
    for M in (paj(6), random_gari_mould(random.Random(5), 6)):
        log, chain, shift = lazy_mu_log(M), mu_log_via_powers(M), mu_log_via_shift(M)
        for d in range(7):
            for w in _log_words(d):
                want = shift.components[d].substitute(w)
                assert log.eval_word(w) == chain.eval_word(w) == want


# ---------------------------------------------------------------------------
# unary operators
# ---------------------------------------------------------------------------


def test_neg_involution():
    M = random_ari_mould(random.Random(19), 4)
    assert neg(neg(M)) == M


def test_neg_even_component():
    assert neg(sa(3, 2)) == sa(3, 2)


def test_neg_paj_depth2():
    got = neg(paj(2)).component(2)
    assert got == one_over_forms(x1, x1 + x2)  # signs cancel at even depth


def test_neg_odd_sign():
    got = neg(paj(1)).component(1)
    assert got == -one_over_forms(x1)


def test_dur_scale_unscale_roundtrip():
    M = random_ari_mould(random.Random(23), 4)
    assert dur_unscale(dur_scale(M)) == M


def test_dur_scale_sa3():
    got = dur_scale(sa(3, 1)).component(1)
    assert got == RationalFunction.make(1, Polynomial.from_dict({(3,): 1}))


def test_dur_scale_matches_dur_mould():
    # pointwise product with the dur mould, depth by depth
    M = random_ari_mould(random.Random(29), 3)
    D = dur(3)
    scaled = dur_scale(M)
    for m in range(1, 4):
        assert scaled.component(m) == M.component(m) * D.component(m)


def test_dur_unscale_requires_zero_constant():
    with pytest.raises(NotDefinedError):
        dur_unscale(Mould.unit(2))


def test_sharp_depth1_identity():
    M = random_ari_mould(random.Random(31), 3)
    assert sharp(M).component(1) == M.component(1)


def test_sharp_simple():
    f = one_over_forms(x3)
    M = Mould([RationalFunction.zero()] * 3 + [f])
    assert sharp(M).component(3) == one_over_forms(x1 + x2 + x3)


def test_leng_projections():
    P = paj(3)
    l1 = leng(1, P)
    assert l1.component(1) == one_over_forms(x1)
    assert l1.component(0).is_zero() and l1.component(2).is_zero()
    l0 = leng(0, P)
    assert l0 == Mould.unit(3)
    total = Mould.zero(3)
    for r in range(4):
        total = total + leng(r, P)
    assert total == P


def test_linearity_of_unary_operators():
    rng = random.Random(37)
    M = random_ari_mould(rng, 3)
    N = random_ari_mould(rng, 3)
    c = Fraction(3, 7)
    for op in (neg, dur_scale, sharp, lambda X: leng(2, X)):
        assert op(M + N * c) == op(M) + op(N) * c


def test_equal_mod_depth():
    P = paj(4)
    Q = Mould(list(P.components[:4]) + [RationalFunction.zero()])
    assert equal_mod_depth(P, Q, 4)
    assert not equal_mod_depth(P, Q, 5)
    assert equal_mod_depth(P, P, 5)
    with pytest.raises(DepthExceededError):
        equal_mod_depth(P, Q, 6)


def test_mould_json_round_trip():
    P = paj(3)
    assert mould_from_json(mould_to_json(P)) == P


def test_mould_validates_components():
    with pytest.raises(ValueError):
        Mould([one_over_forms(x1)])  # depth-0 slot cannot use x1


def test_a_lazy_mould_is_natural_only_over_concrete_moulds():
    # an opaque input, one below a depth-1 projection, or no declared input
    # leaves a lazy mould to run its rule at every word
    reg = SymbolRegistry()
    A, M = OpaqueMould(reg, "A", 3), sa(3, 3)
    assert lazy_mu(M, lazy_neg(M)).natural and lazy_leng(1, M).natural
    assert not lazy_neg(A).natural
    assert not lazy_mu(M, A).natural
    assert not lazy_neg(lazy_leng(1, A)).natural
    assert not LazyMould(3, M.eval_word).natural
    assert not lazy_mu(M, LazyMould(3, M.eval_word)).natural


def test_an_opaque_lazy_mould_numbers_the_words_it_reads():
    # a symbol is keyed by its word, so a lazy mould over an opaque one reads
    # each word itself and never detours through the canonical word
    reg = SymbolRegistry()
    value = lazy_neg(OpaqueMould(reg, "A", 2)).eval_word((x_var(2), x_var(3)))
    assert list(reg._vars) == [("A", (-x_var(2), -x_var(3)))]
    assert value == reg.symbol("A", (-x_var(2), -x_var(3)))


# ---------------------------------------------------------------------------
# the node table
# ---------------------------------------------------------------------------


def _opaque_inputs():
    reg = SymbolRegistry()
    return (
        OpaqueMould(reg, "A", 3),
        OpaqueMould(reg, "B", 3),
        OpaqueMould(reg, "C", 3),
        OpaqueMould(reg, "S", 3, unit_value=1),
    )


def test_one_constructor_on_the_same_inputs_returns_the_same_node():
    A, B, _, S = _opaque_inputs()
    assert lazy_mu(A, B) is lazy_mu(A, B)
    assert lazy_neg(A) is lazy_neg(A)
    assert lazy_leng(2, A) is lazy_leng(2, A)
    assert lazy_mu_inverse(S) is lazy_mu_inverse(S)
    assert lazy_mu_log(S) is lazy_mu_log(S)
    # and an expression built twice from the same inputs, while the first
    # lives, shares its memo
    first = lazy_mu(lazy_neg(A), B)
    first.eval_word(canonical_word(2))
    assert canonical_word(2) in lazy_mu(lazy_neg(A), B)._memo


def test_distinct_inputs_or_int_parameters_never_share_a_node():
    # each node is held while the others are built, so no identity is reused
    A, B, C, _ = _opaque_inputs()
    w = canonical_word(2)
    products = [lazy_mu(A, B), lazy_mu(B, A), lazy_mu(A, C)]
    assert len({id(node) for node in products}) == 3
    assert len({node.eval_word(w) for node in products}) == 3
    slices = [lazy_leng(1, A), lazy_leng(2, A), lazy_leng(1, B)]
    assert len({id(node) for node in slices}) == 3
    assert [node.eval_word(w).is_zero() for node in slices] == [True, False, True]
    negs = [lazy_neg(A), lazy_neg(B)]
    assert negs[0] is not negs[1]


def test_the_node_table_holds_no_entry_once_its_nodes_are_dropped():
    # the table is weak: an entry dies with its node, even one in a cycle
    # (mu_inverse reads itself), so no lazy value outlives its users
    gc.collect()
    before = set(moulds._NODES.keys())
    A, B, _, S = _opaque_inputs()
    nodes = [lazy_mu(A, B), lazy_leng(1, A), lazy_mu_inverse(S), lazy_mu_log(S)]
    for node in nodes:
        node.eval_word(canonical_word(2))
    added = set(moulds._NODES.keys()) - before
    assert len(added) >= len(nodes)
    del A, B, S, node, nodes
    gc.collect()
    assert not added & set(moulds._NODES.keys())
