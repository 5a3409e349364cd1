"""Cross-check of kernel canonical forms against sympy (test-only).

sympy is never a runtime dependency: these tests skip when it is missing,
and ``import mouldcalc`` must not load it.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from mouldcalc.algebra import LinearForm, ZeroDenominatorError

from helpers import random_rf

NVARS = 3


def test_import_leaves_sympy_out():
    code = "import sys, mouldcalc; print('sympy' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert out.stdout.strip() == "False"


@pytest.fixture(scope="module")
def sp():
    return pytest.importorskip("sympy")


def to_sympy(sp, r, xs):
    if r.is_zero():
        return sp.Integer(0)
    num = sum(
        sp.Integer(c) * sp.Mul(*(x**e for x, e in zip(xs, m)))
        for m, c in r.numerator.terms.items()
    )
    den = sp.Integer(1)
    for f, mult in r.denominator:
        den *= form_to_sympy(sp, f, xs) ** mult
    return sp.Rational(r.scalar.numerator, r.scalar.denominator) * num / den


def form_to_sympy(sp, f, xs):
    return sum((c * x for c, x in zip(f.coeffs, xs)), sp.Integer(0))


def test_sum_product_substitute_match_sympy(sp):
    xs = sp.symbols(f"x1:{NVARS + 1}")
    rng = random.Random("sympy")
    for _ in range(25):
        f, g = random_rf(rng, NVARS), random_rf(rng, NVARS)
        F, G = to_sympy(sp, f, xs), to_sympy(sp, g, xs)
        assert sp.cancel(to_sympy(sp, f + g, xs) - (F + G)) == 0
        assert sp.cancel(to_sympy(sp, f * g, xs) - F * G) == 0
        forms = [
            LinearForm([rng.randint(-2, 2) for _ in range(NVARS)])
            for _ in range(NVARS)
        ]
        try:
            got = f.substitute(forms)
        except ZeroDenominatorError:
            continue
        images = {x: form_to_sympy(sp, L, xs) for x, L in zip(xs, forms)}
        assert sp.cancel(to_sympy(sp, got, xs) - F.xreplace(images)) == 0
