"""Generic (opaque-symbol) and random-instance operator expansion identities."""

from __future__ import annotations

import pytest

from mouldcalc import verify
from mouldcalc.algebra import RationalFunction, rf_from_json, x_var
from mouldcalc.flexions import lazy_arit
from mouldcalc.generic import OpaqueMould, SymbolRegistry
from mouldcalc.moulds import canonical_word
from mouldcalc.special import (
    SANG_EXPANSION_DEPTH,
    UnsupportedInputError,
    _sang_expanded_components,
    lazy_sang,
    lazy_slang,
)
from mouldcalc.verify import generic_expansion_checks, random_expansion_checks


def _assert_all_pass(checks):
    failures = [c for c in checks if c["status"] != "pass"]
    assert not failures, failures


def test_generic_expansions_all_pass():
    checks = generic_expansion_checks()
    assert len(checks) >= 30
    _assert_all_pass(checks)


def test_random_instance_expansions_all_pass():
    _assert_all_pass(random_expansion_checks(seed=99, rounds=2))


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


def test_generic_slices_sum_to_singulator():
    # depth-2 identity slang_1 + slang_2 = sang for a fully generic input
    reg = SymbolRegistry()
    A = OpaqueMould(reg, "A", 2)
    w = canonical_word(2)
    total = lazy_slang(1, A).eval_word(w) + lazy_slang(2, A).eval_word(w)
    assert total == lazy_sang(A).eval_word(w)


def test_generic_slices_of_depth1_input_sum_to_singulator():
    # an opaque depth-1-supported input must not reach the four-sum
    # expansion inside the slicer: its symbols make no concrete mould
    A = OpaqueMould(SymbolRegistry(), "A", 3, support=(1,))
    w = canonical_word(3)
    total = sum((lazy_slang(r, A).eval_word(w) for r in (1, 2, 3)), RationalFunction.zero())
    assert total == lazy_sang(A).eval_word(w)


def test_sang_expansion_holds_for_every_depth1_mould():
    # on an opaque depth-1-supported S the four-sum form and the
    # compositional singulator agree as canonical forms at each depth up to
    # SANG_EXPANSION_DEPTH, so the expansion holds for every
    # depth-1-supported mould there: this is what lets sang take it
    top = SANG_EXPANSION_DEPTH
    S = OpaqueMould(SymbolRegistry(), "S", top, support=(1,))
    L = lazy_sang(S)
    got = _sang_expanded_components(S)
    assert got == [L.eval_word(canonical_word(m)) for m in range(top + 1)]
    assert all(not c.is_zero() for c in got[1:])


def test_sang_expansion_refuses_opaque_input_beyond_depth_1():
    S = OpaqueMould(SymbolRegistry(), "S", 3, support=(1, 2))
    with pytest.raises(UnsupportedInputError):
        _sang_expanded_components(S)


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
