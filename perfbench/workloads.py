"""The benchmark's workloads: seeded job lists with known answers.

A job is a dict.  ``kind`` is ``cli`` (``argv`` for ``mouldcalc``) or
``api`` (``fn`` and ``args`` for one of the worker's API jobs); that part is
all the worker receives.  ``id`` names the job and ``expect`` is its known
answer, which only the parent reads:

* ``pass``   a theorem: status ``pass`` with at least one check;
* ``fail``   a negative control: status ``fail``, and every failing check
  carries a nonzero residual or witness;
* ``digest`` a compute job: exit 0 and the output's canonical digest equal
  to the one recorded in ``digests.json``.

The seed chooses the job order in each pass, the component and scale of
each psi mutation, the coefficient of the term added to ``pal``, the
opaque symbols and the random mould draws.  Every choice keeps the known
answer provable:

* scaling the depth-k component of psi by r (r != 1) makes the depth-k
  residual ``(r - 1) sharp(psi^k)``, nonzero because sharp is an invertible
  substitution and psi^k != 0 (the benchmark's tests check every psi^k);
* ``sigma_c`` is affine in ``correction_scale`` and the correction is
  nonzero (scale -1 fails), so every scale other than 1 fails;
* adding a nonzero alternal term to ``pal^k`` (k < 7; the workload uses
  k = 6) leaves every cell of total <= k intact and breaks cell (1, k) of
  total k + 1 by ``-pal^1(x_1) delta(x_2..x_{k+1})``, nonzero because
  ``pal^1 != 0``;
* ``gari(S, invgari(T))`` and ``logari(expari(A))`` differ from ``1`` and
  ``B`` at depth 1 already when S, T (A, B) are distinct opaque moulds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

SYMBOL_BASE = 1000  # opaque symbol indices start here, plus a seeded offset < 4
# The pal(7) control is perturbed at depth 6 by c x^1, so it fails at the
# last total and costs the same whatever the seeded coefficient c.  At depth
# 2..5 it costs 0.01-0.09 s, depending on the depth, and joins the
# millisecond jobs, which would move the median sample into another job's
# cluster; exponents 2 and 3 make it up to twice as slow as exponent 1.
PAL_PERTURBED_DEPTH = 6


@dataclass(frozen=True)
class Workload:
    """A workload; BENCHMARK.json and README.md say why each one exists."""

    name: str
    pass_s: float  # nominal pass time at the first baseline; sets the pass count
    fixed: Callable[[random.Random], list]
    # [(depth, job), ...] in order, starting one below the fixed jobs' depth
    ladder: Callable[[random.Random], list]


def cli(job_id: str, *argv, expect="pass") -> dict:
    return {"id": job_id, "kind": "cli", "argv": list(argv), "expect": expect}


def api(job_id: str, fn: str, expect="pass", **args) -> dict:
    return {"id": job_id, "kind": "api", "fn": fn, "args": args, "expect": expect}


def _coeff(rng: random.Random) -> int:
    return rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])


def _psi_mutation(rng: random.Random, dmax: int) -> dict:
    """Scale component k of psi by r, r not in {0, 1}: the cost stays that
    of the theorem, whatever the seed."""
    r = rng.choice([(-3, 1), (-2, 1), (-1, 1), (-1, 2), (1, 2), (2, 1), (3, 1)])
    return {"k": rng.randint(1, dmax), "scale": r}


def _opaque(rng: random.Random, *roles: str) -> dict:
    """Seeded opaque symbols: a name per role and a small index offset."""
    names = [role + rng.choice(["", "'", "_1", "_2"]) for role in roles]
    return {"base": SYMBOL_BASE + rng.randrange(4), "names": names}


# ---------------------------------------------------------------------------
# singulator: flexion solvers on polar moulds, heavy exact-division failure
# ---------------------------------------------------------------------------


def singulator_fixed(rng: random.Random) -> list:
    return [
        cli("verify psi-odd n=1 dmax=4", "verify", "psi-odd", "--n", "1", "--dmax", "4"),
        cli("verify psi-odd n=2 dmax=4", "verify", "psi-odd", "--n", "2", "--dmax", "4"),
        cli("verify sang-expansion depth=4", "verify", "sang-expansion", "--depth", "4"),
        cli("verify comparison n=3", "verify", "comparison", "--n", "3"),
        cli("compute sang:sa:3 depth=4 json", "compute", "sang:sa:3", "--depth", "4",
            "--format", "json", expect="digest"),
        api("psi-odd n=1 dmax=4, mutated psi", "psi_odd", expect="fail",
            n=1, dmax=4, mutate=_psi_mutation(rng, 4)),
        api("comparison n=2, mutated sigma_c", "comparison", expect="fail",
            n=2, scale=rng.choice([-2, -1, 2, 3])),
    ]


def singulator_ladder(rng: random.Random) -> list:
    return [
        (d, cli(f"verify psi-odd n=1 dmax={d}", "verify", "psi-odd", "--n", "1", "--dmax", str(d)))
        for d in range(3, 7)
    ]


# ---------------------------------------------------------------------------
# shuffle-sharp: kernel substitution and common-denominator shuffle sums
# ---------------------------------------------------------------------------


def shuffle_sharp_fixed(rng: random.Random) -> list:
    return [
        cli("verify psi-minus1 dmax=5", "verify", "psi-minus1", "--dmax", "5"),
        cli("verify pal-symmetral depth=7", "verify", "pal-symmetral", "--depth", "7"),
        cli("verify dupal-alternal depth=8", "verify", "dupal-alternal", "--depth", "8"),
        api("is_symmetral(paj(7))", "symmetral", mould="paj", depth=7),
        api("is_alternal(mu_log(paj(5)))", "alternal_mu_log_paj", depth=5),
        cli("compute psi:-1 depth=5 latex", "compute", "psi:-1", "--depth", "5",
            "--format", "latex", expect="digest"),
        cli("compute pal depth=7 json", "compute", "pal", "--depth", "7",
            "--format", "json", expect="digest"),
        api("psi-minus1 dmax=5, mutated psi", "psi_minus1", expect="fail",
            dmax=5, mutate=_psi_mutation(rng, 5)),
        api("is_symmetral(pal(7)), perturbed", "symmetral", expect="fail",
            mould="pal", depth=7,
            mutate={"k": PAL_PERTURBED_DEPTH, "c": _coeff(rng), "e": 1}),
    ]


def shuffle_sharp_ladder(rng: random.Random) -> list:
    return [
        (d, cli(f"verify psi-minus1 dmax={d}", "verify", "psi-minus1", "--dmax", str(d)))
        for d in range(4, 8)
    ]


# ---------------------------------------------------------------------------
# generic: flexion sums on opaque symbols, no denominators, long monomials
# ---------------------------------------------------------------------------


def generic_fixed(rng: random.Random) -> list:
    return [
        api("gari(S, invgari(S)) = 1, opaque, depth 6", "gari_inverse",
            depth=6, same=True, **_opaque(rng, "S", "T")),
        api("logari(expari(A)) = A, opaque, depth 5", "exp_log",
            depth=5, same=True, **_opaque(rng, "A", "B")),
        api("adari(S) is an ari automorphism, opaque, depth 4", "adari_automorphism",
            depth=4, **_opaque(rng, "S", "A", "B")),
        cli("verify examples-section1", "verify", "examples-section1"),
        api("random expansion checks", "random_expansions",
            seed=rng.randrange(2**31), rounds=3),
        api("gari(S, invgari(T)) = 1, opaque, depth 4", "gari_inverse", expect="fail",
            depth=4, same=False, **_opaque(rng, "S", "T")),
        api("logari(expari(A)) = B, opaque, depth 4", "exp_log", expect="fail",
            depth=4, same=False, **_opaque(rng, "A", "B")),
    ]


def generic_ladder(rng: random.Random) -> list:
    spec = _opaque(rng, "S", "T")
    return [
        (d, api(f"gari(S, invgari(S)) = 1, opaque, depth {d}", "gari_inverse",
                depth=d, same=True, **spec))
        for d in range(5, 9)
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("singulator", 10.0, singulator_fixed, singulator_ladder),
        Workload("shuffle-sharp", 12.0, shuffle_sharp_fixed, shuffle_sharp_ladder),
        Workload("generic", 4.0, generic_fixed, generic_ladder),
    )
}


def worker_input(job: dict) -> dict:
    """The part of a job the program sees: no id, no expected answer."""
    return {k: v for k, v in job.items() if k in ("kind", "argv", "fn", "args")}
