"""Generic (opaque-symbol) and random-instance operator expansion identities."""

from __future__ import annotations

import pytest

from mouldcalc import flexions, special, verify
from mouldcalc.algebra import Polynomial, RationalFunction, rf_from_json, x_var
from mouldcalc.flexions import lazy_arit
from mouldcalc.generic import OpaqueMould, SymbolRegistry
from mouldcalc.moulds import canonical_word, lazy_leng
from mouldcalc.special import (
    UnsupportedInputError,
    _lazy_sang_expanded,
    lazy_sang,
    lazy_slang,
)
from mouldcalc.verify import generic_expansion_checks, random_expansion_checks

from helpers import opaque_sang_expansion, prove_gari_inverse, prove_sang_expansion


def _assert_all_pass(checks):
    failures = [c for c in checks if c["status"] != "pass"]
    assert not failures, failures


def test_generic_expansions_all_pass():
    checks = generic_expansion_checks()
    assert len(checks) >= 30
    _assert_all_pass(checks)


def test_random_instance_expansions_all_pass():
    _assert_all_pass(random_expansion_checks(seed=99, rounds=2))


_LIE_SIDE = {"preari_2", "preari_3", "ari", "expari", "adari", "sang", "slang_1", "slang_2"}


@pytest.mark.parametrize(
    "name, from_length, families",
    [
        ("_arit_parts", 0, _LIE_SIDE | {"arit"}),
        ("_mu_parts", 0, _LIE_SIDE),
        ("garit_at", 2, {"garit", "gari", "adari", "sang", "slang_1", "slang_2"}),
    ],
)
def test_a_doubled_factorization_sum_fails_exactly_its_rows(
    monkeypatch, fresh_conjugations, name, from_length, families
):
    # every operator family that reads the doubled sum fails, and no other;
    # an expansion that read the operator it checks would see the doubled
    # sum on both sides and drop its family out of the failing set
    original = getattr(flexions, name)

    def doubled(w, *evals):
        value = original(w, *evals)
        return value * 2 if len(w) >= from_length else value

    monkeypatch.setattr(flexions, name, doubled)
    checks = generic_expansion_checks()
    assert {c["claim"].split()[0] for c in checks if c["status"] != "pass"} == families


def test_opaque_symbols_are_per_word():
    reg = SymbolRegistry()
    A = OpaqueMould(reg, "A", 2)
    x1 = x_var(1)
    a = A.eval_word((x1,))
    b = A.eval_word((-x1,))
    assert a != b
    assert A.eval_word((x1,)) == a  # stable across calls
    assert A.eval_word(()) == RationalFunction.zero()
    S = OpaqueMould(reg, "S", 2, unit_value=1)
    assert S.eval_word(()) == RationalFunction.one()


def test_registry_builds_each_symbol_once():
    # a repeated (name, word) returns the very same value; each new pair
    # takes the next index, base + count + 1
    reg = SymbolRegistry(base=50)
    w1, w2 = canonical_word(1), canonical_word(2)
    a = reg.symbol("S", w1)
    assert reg.symbol("S", w1) is a
    b, c = reg.symbol("S", w2), reg.symbol("T", w1)
    assert reg.symbol("S", w2) is b and reg.symbol("T", w1) is c
    for value, idx in ((a, 51), (b, 52), (c, 53)):
        assert value == RationalFunction.make(1, Polynomial.variable(idx))
    assert list(reg._vars) == [("S", w1), ("S", w2), ("T", w1)]


def test_opaque_inputs_are_validated():
    # a unit value other than 0 or 1 would be read as 0 without a word;
    # a base below the slot range's top would make a symbol a slot variable
    with pytest.raises(ValueError, match="unit_value must be 0 or 1"):
        OpaqueMould(SymbolRegistry(), "S", 2, unit_value=2)
    for base in (0, 15):
        with pytest.raises(ValueError, match="symbol base"):
            SymbolRegistry(base=base)
    assert SymbolRegistry(base=16).symbol("S", canonical_word(1)) == (
        RationalFunction.make(1, Polynomial.variable(17))
    )


def test_generic_slices_sum_to_singulator():
    # depth-2 identity slang_1 + slang_2 = sang for a fully generic input
    reg = SymbolRegistry()
    A = OpaqueMould(reg, "A", 2)
    w = canonical_word(2)
    total = lazy_slang(1, A).eval_word(w) + lazy_slang(2, A).eval_word(w)
    assert total == lazy_sang(A).eval_word(w)


def test_generic_slices_of_depth1_input_sum_to_singulator():
    # an opaque depth-1-supported input takes lazy_sang inside the slicer
    # too, with no support probe reading it before the slices do
    A = lazy_leng(1, OpaqueMould(SymbolRegistry(), "A", 3))
    w = canonical_word(3)
    total = sum((lazy_slang(r, A).eval_word(w) for r in (1, 2, 3)), RationalFunction.zero())
    assert total == lazy_sang(A).eval_word(w)


def test_sang_expansion_holds_for_every_depth1_mould():
    # on an opaque depth-1-supported S the four-sum form and the
    # compositional singulator agree as canonical forms at each depth up to
    # 5, so the expansion holds for every depth-1-supported mould there;
    # proofs/test_singulator_expansion.py runs the same proof up to the
    # singulator's depth limit, every depth at which sang takes the expansion
    prove_sang_expansion(5)


def test_gari_inverse_holds_generically():
    # gari(S, invgari(S)) = gari(invgari(S), S) = 1 on an opaque S, so for
    # every S of the gari group, at depth 5; proofs/test_gari_inverse.py
    # runs it at depth 8
    prove_gari_inverse(5)


def test_a_mutated_garit_at_fails_the_gari_inverse_proof(monkeypatch, fresh_conjugations):
    # a twisted action doubled on every word of length >= 2 still gives
    # gari(S, invgari(S)) = 1, since gari(S, G) reads the solver's own
    # garit(G)(S); the left inverse gari(invgari(S), S) catches it
    garit_at = flexions.garit_at

    def doubled(w, *evals):
        value = garit_at(w, *evals)
        return value * 2 if len(w) >= 2 else value

    monkeypatch.setattr(flexions, "garit_at", doubled)
    with pytest.raises(AssertionError, match=r"gari\(invgari\(S\), S\) at depth"):
        prove_gari_inverse(4)


def test_a_mutated_sang_expansion_fails_the_proof(monkeypatch):
    # the sum of a word's letters read with its last letter doubled, for
    # words of two or more letters, changes the forms the expansion divides
    # by from depth 2 on; lazy_sang does not read them
    letter_sum = special._letter_sum
    monkeypatch.setattr(
        special,
        "_letter_sum",
        lambda w: letter_sum(w) + w[-1] if len(w) >= 2 else letter_sum(w),
    )
    got, want = opaque_sang_expansion(5)
    assert [m for m in range(6) if got[m] != want[m]] == [2, 3, 4, 5]


def test_sang_expansion_refuses_opaque_input_beyond_depth_1():
    S = lazy_leng(2, OpaqueMould(SymbolRegistry(), "S", 3))
    with pytest.raises(UnsupportedInputError):
        _lazy_sang_expanded(S)


def test_wrong_display_is_caught():
    # sanity: the machinery can actually fail -- a deliberately wrong
    # right-hand side produces a nonzero residual
    reg = SymbolRegistry()
    M = OpaqueMould(reg, "M", 2)
    N = OpaqueMould(reg, "N", 2)
    x1, x2 = x_var(1), x_var(2)
    lhs = lazy_arit(N)(M).eval_word(canonical_word(2))
    wrong_rhs = M.eval_word((x1 + x2,)) * (
        N.eval_word((x1,)) + N.eval_word((x2,))
    )
    assert lhs != wrong_rhs


_RHS_BUILDERS = (
    "_arit_rhs2",
    "_arit_rhs3",
    "_preari_rhs2",
    "_preari_rhs3",
    "_preari3_rhs3",
    "_garit_rhs2",
    "_garit_rhs3",
    "_gari_rhs",
    "_expari_rhs3",
    "_adari_rhs2",
    "_sang_rhs1",
    "_sang_rhs2",
    "_slang_rhs2",
)


def _count_rhs_builds(monkeypatch) -> list:
    """Each right-hand-side builder, still under the per-run memo, records
    every build as (name, inputs by identity); returns the list."""
    built = []
    for name in _RHS_BUILDERS:
        builder = getattr(verify, name).__wrapped__

        def counting(*args, _name=name, _builder=builder):
            built.append((_name, *(a if type(a) is int else id(a) for a in args)))
            return _builder(*args)

        monkeypatch.setattr(verify, name, verify._per_run(counting))
    return built


def test_one_suite_run_builds_each_right_hand_side_once(monkeypatch):
    # the larger expansions reuse the smaller ones' values within a run,
    # the random round's eager rows included; nothing is held after a run,
    # so a second run on the same inputs builds every value again
    built = _count_rhs_builds(monkeypatch)
    reg = SymbolRegistry()
    inputs = [OpaqueMould(reg, name, 3) for name in ("M", "N")]
    inputs += [OpaqueMould(reg, name, 3, unit_value=1) for name in ("S", "T")]
    inputs += [OpaqueMould(reg, "A", 3), OpaqueMould(reg, "B", 2)]
    _assert_all_pass(verify.expansion_checks(*inputs, "generic"))
    once = list(built)
    assert len(set(once)) == len(once) > len(_RHS_BUILDERS)
    assert verify._RUN is None
    _assert_all_pass(verify.expansion_checks(*inputs, "generic"))
    assert built == once + once
    built.clear()
    _assert_all_pass(random_expansion_checks(seed=5, rounds=1))
    assert len(set(built)) == len(built)
    assert verify._RUN is None


def test_failing_expansion_check_carries_its_residual(monkeypatch):
    # a deliberately wrong depth-2 arit expansion fails, and the failing
    # checks carry the residual as text and as JSON, like theorem checks
    monkeypatch.setattr(verify, "_arit_rhs2", lambda M, N: RationalFunction.zero())
    checks = verify.generic_expansion_checks()
    failing = {c["claim"]: c for c in checks if c["status"] != "pass"}
    assert "arit depth 2 [generic]" in failing
    reg = SymbolRegistry()
    M, N = OpaqueMould(reg, "M", 3), OpaqueMould(reg, "N", 3)
    want = lazy_arit(N)(M).eval_word(canonical_word(2))
    check = failing["arit depth 2 [generic]"]
    assert rf_from_json(check["residual_json"]) == want
    assert check["residual"] != "0"
    assert all("residual_json" in c for c in failing.values())
