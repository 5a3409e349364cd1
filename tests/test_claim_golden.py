"""Golden claim reports: every named claim, passing and failing.

Each case's report, serialized as ``verify`` writes it, must match
``golden/claim_reports.json`` byte for byte: the claim and check labels,
their order, the statuses and the residual text and JSON of every failing
check.  The file pins the report shape while the comparison helpers behind
the claims change.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from mouldcalc import solutions
from mouldcalc.algebra import Polynomial, RationalFunction, rf_str, rf_to_json, x_var
from mouldcalc.moulds import Mould
from mouldcalc.solutions import (
    psi_minus1,
    psi_odd,
    sigma_c,
    verify_comparison_theorem,
    verify_psi_minus1_theorem,
    verify_psi_odd_theorem,
)
from mouldcalc.verify import CLAIMS, run_claim

GOLDEN = Path(__file__).parent / "golden" / "claim_reports.json"


def scaled(components, k: int, r: Fraction):
    """``components`` with the depth-k value multiplied by r."""

    def fn(*args):
        value = components(*args)
        return value * r if args[-1] == k else value

    return fn


def golden_cases() -> dict:
    """Name -> a zero-argument function returning the report."""
    cases = {f"{name} defaults": (lambda name=name: run_claim(name)) for name in CLAIMS}
    for n in (3, 4, 5):
        cases[f"comparison n={n}"] = lambda n=n: run_claim("comparison", n=n)
    cases["psi-odd n=1 dmax=5"] = lambda: run_claim("psi-odd", n=1, dmax=5)
    cases["psi-minus1 dmax=5"] = lambda: run_claim("psi-minus1", dmax=5)
    cases["psi-odd n=1 dmax=4, psi^3 * -2"] = lambda: verify_psi_odd_theorem(
        1, 4, psi_components=scaled(psi_odd, 3, Fraction(-2))
    )
    cases["psi-minus1 dmax=5, psi^4 / 2"] = lambda: verify_psi_minus1_theorem(
        5, psi_components=scaled(psi_minus1, 4, Fraction(1, 2))
    )
    for n, scale in ((2, -1), (3, 2)):
        cases[f"comparison n={n}, sigma_c scale {scale}"] = (
            lambda n=n, scale=scale: verify_comparison_theorem(
                n, sigma=sigma_c(n, correction_scale=scale)
            )
        )
    return cases


CASES = golden_cases()


def serialize(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2)


def test_golden_file_names_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_claim_report_matches_golden(name):
    want = json.loads(GOLDEN.read_text())[name]
    assert serialize(CASES[name]()) == serialize(want)


def test_failing_polynomial_check_carries_its_residual(monkeypatch):
    # D_ab with a non-polynomial depth-3 component: check (iii) fails, and
    # its residual is that component, as text and as JSON
    x1 = x_var(1)
    pole = RationalFunction.make(1, Polynomial.one(), [(x1, 1)])
    build = solutions.D_ab

    def with_pole(a, b):
        D = build(a, b)
        return Mould(list(D.components[:3]) + [D.components[3] + pole])

    monkeypatch.setattr(solutions, "D_ab", with_pole)
    report = verify_comparison_theorem(2)
    assert report["status"] == "fail"
    failing = [c for c in report["checks"] if c["status"] == "fail"]
    names = [c["claim"] for c in failing]
    assert "D_1,1^(3) is a polynomial" in names
    check = failing[names.index("D_1,1^(3) is a polynomial")]
    D3 = solutions.D_ab(1, 1).components[3]
    assert check["residual"] == rf_str(D3)
    assert check["residual_json"] == rf_to_json(D3)
