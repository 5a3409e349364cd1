"""Golden failing reports of the alternality and symmetrality deciders.

Each case below fails; its report (the failing cell, the witness JSON and
the residual text) must match ``golden/symmetry_reports.json`` byte for
byte.  The file was recorded with the deciders that evaluated every ordered
cell (p, q) of each total, now the ``*_all_pairs`` oracles in
``helpers.py``, so it pins that evaluating only the cells with p <= q
leaves every report unchanged.
"""

from __future__ import annotations

import json
from math import comb
from pathlib import Path

import pytest

from mouldcalc.algebra import Polynomial, RationalFunction
from mouldcalc.moulds import Mould
from mouldcalc.special import dupal, pal
from mouldcalc.symmetry import is_alternal, is_symmetral

from helpers import first_fails_at_2_3, middle_cell_mould, with_component

GOLDEN = Path(__file__).parent / "golden" / "symmetry_reports.json"
DEPTH = 6


def power_term(c: int, e: int) -> RationalFunction:
    """c * x_1^e, which has a nonzero shuffle sum in every cell."""
    return RationalFunction.make(c, Polynomial.from_dict({(e,): 1}))


def alternal_term(c: int, k: int, e: int) -> RationalFunction:
    """c * sum_i (-1)^i C(k-1, i) x_{i+1}^e: the depth-k component of the
    alternal mould A^1 = x_1^e, A^m = A^{m-1}(x_1..) - A^{m-1}(x_2..)."""
    terms = {(0,) * i + (e,): (-1) ** i * comb(k - 1, i) for i in range(k)}
    return RationalFunction.make(c, Polynomial.from_dict(terms))


def golden_cases() -> dict:
    """Name -> (decider, mould); every mould fails its decider."""
    P, D = pal(DEPTH), dupal(DEPTH)
    cases = {}
    for k in range(2, DEPTH + 1):
        for e in (1, 2):
            term = power_term(3, e)
            cases[f"pal+3x^{e}@{k}"] = (is_symmetral, with_component(P, k, lambda c: c + term))
            cases[f"dupal+3x^{e}@{k}"] = (is_alternal, with_component(D, k, lambda c: c + term))
        cases[f"pal*2@{k}"] = (is_symmetral, with_component(P, k, lambda c: c * 2))
    for k in range(2, DEPTH):
        for e in (1, 2):
            term = alternal_term(-3, k, e)
            cases[f"pal+alternal(x^{e})@{k}"] = (
                is_symmetral, with_component(P, k, lambda c: c + term)
            )
    for name, M in (("mu(A,B)", middle_cell_mould()), ("mu(A,B3)", first_fails_at_2_3())):
        cases[name] = (is_alternal, M)
        cases[f"1+{name}"] = (is_symmetral, M + Mould.unit(M.depth))
    return cases


def record(report) -> dict:
    return {
        "p": report.p,
        "q": report.q,
        "witness": json.dumps(report.witness_json(), sort_keys=True),
        "residual": str(report.residual),
    }


CASES = golden_cases()


def test_golden_file_names_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_failing_report_matches_golden(name):
    decider, M = CASES[name]
    report = decider(M)
    assert not report
    assert record(report) == json.loads(GOLDEN.read_text())[name]
