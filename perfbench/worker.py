"""One benchmark job in a fresh interpreter.

Usage: python3 perfbench/worker.py JOB_JSON [--trace]

The worker times the import of ``mouldcalc`` and ``mouldcalc.cli`` (what
every ``mouldcalc`` command pays), then runs one job through the public API
or the CLI entry point and prints one JSON line with the raw outcome: the
verdict report or the compute output's digest, the time to verdict, and the
peak RSS.  It judges nothing; the parent compares the outcome with the
job's known answer.  With ``--trace`` the job runs under the outside-in
tracer and the line also carries its counters.
"""

from __future__ import annotations

import os
import sys
import time

_T0 = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import mouldcalc  # noqa: E402
import mouldcalc.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from math import comb  # noqa: E402

from mouldcalc import flexions, generic, moulds, solutions, special, symmetry, verify  # noqa: E402
from mouldcalc.algebra import Polynomial, RationalFunction  # noqa: E402


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def mould_digest(obj) -> str:
    """Canonical digest of a mould JSON object, after a round trip."""
    M = moulds.mould_from_json(obj)
    return digest(json.dumps(moulds.mould_to_json(M), sort_keys=True))


# ---------------------------------------------------------------------------
# seeded perturbations (their choice is made by the parent, from the seed)
# ---------------------------------------------------------------------------


def alternal_rf(c: int, k: int, e: int) -> RationalFunction:
    """c * sum_i (-1)^i C(k-1, i) x_{i+1}^e, the depth-k component of the
    mould A^1 = x_1^e, A^m = A^{m-1}(x_1..) - A^{m-1}(x_2..), which is
    alternal (its shuffle sums vanish) and nonzero."""
    terms = {(0,) * i + (e,): (-1) ** i * comb(k - 1, i) for i in range(k)}
    return RationalFunction.make(c, Polynomial.from_dict(terms))


# ---------------------------------------------------------------------------
# report shapes
# ---------------------------------------------------------------------------


def _nonzero_witness(check: dict) -> bool:
    residual = check.get("residual")
    return (residual not in (None, "", "0")) or bool(check.get("witness"))


def summarize(report: dict) -> dict:
    """The parts of a verdict report the known-answer gate reads."""
    checks = report.get("checks", [])
    failing = [c for c in checks if c.get("status") != "pass"]
    return {
        "status": report.get("status"),
        "checks": len(checks),
        "failing": len(failing),
        "failing_with_witness": sum(1 for c in failing if _nonzero_witness(c)),
    }


def wrap(checks: list) -> dict:
    status = "pass" if all(c["status"] == "pass" for c in checks) else "fail"
    return {"status": status, "checks": checks}


def symmetry_report(rep) -> dict:
    check = {"status": "pass" if rep.ok else "fail"}
    if not rep.ok:
        check["residual"] = str(rep.residual)
        check["witness"] = rep.witness_json()
    return wrap([check])


def residual_report(pairs) -> dict:
    """Report over (lhs, rhs) rational-function pairs, one check each."""
    checks = []
    for lhs, rhs in pairs:
        residual = lhs - rhs
        check = {"status": "pass" if residual.is_zero() else "fail"}
        if not residual.is_zero():
            check["residual"] = str(residual)
        checks.append(check)
    return wrap(checks)


# ---------------------------------------------------------------------------
# API jobs
# ---------------------------------------------------------------------------


def _mutated(components, mutate):
    """``components`` with the depth-k value scaled by a rational r."""
    if not mutate:
        return components
    r = Fraction(*mutate["scale"])

    def fn(*args):
        value = components(*args)
        return value * r if args[-1] == mutate["k"] else value

    return fn


def job_psi_odd(n, dmax, mutate=None):
    fn = _mutated(solutions.psi_odd, mutate)
    return solutions.verify_psi_odd_theorem(n, dmax, psi_components=fn)


def job_psi_minus1(dmax, mutate=None):
    fn = _mutated(solutions.psi_minus1, mutate)
    return solutions.verify_psi_minus1_theorem(dmax, psi_components=fn)


def job_comparison(n, scale):
    sigma = solutions.sigma_c(n, correction_scale=Fraction(scale))
    return solutions.verify_comparison_theorem(n, sigma=sigma)


def job_symmetral(mould, depth, mutate=None):
    M = {"paj": special.paj, "pal": special.pal}[mould](depth)
    if mutate:
        k = mutate["k"]
        comps = list(M.components)
        comps[k] = comps[k] + alternal_rf(mutate["c"], k, mutate["e"])
        M = moulds.Mould(comps)
    return symmetry_report(symmetry.is_symmetral(M))


def job_alternal_mu_log_paj(depth):
    return symmetry_report(symmetry.is_alternal(moulds.mu_log(special.paj(depth))))


def _opaque(base, names, depth, unit_values):
    reg = generic.SymbolRegistry(base=base)
    return [generic.OpaqueMould(reg, nm, depth, unit_value=u) for nm, u in zip(names, unit_values)]


def _words(depth):
    return [moulds.canonical_word(m) for m in range(depth + 1)]


def job_gari_inverse(depth, base, names, same):
    """gari(S, invgari(T)) = 1 on opaque S, T (T is S when ``same``)."""
    S, T = _opaque(base, names, depth, (1, 1))
    L = flexions.lazy_gari(S, flexions.lazy_invgari(S if same else T))
    one = RationalFunction.one()
    return residual_report(
        (L.eval_word(w), one if not w else RationalFunction.zero()) for w in _words(depth)
    )


def job_exp_log(depth, base, names, same):
    """logari(expari(A)) = B on opaque A, B (B is A when ``same``)."""
    A, B = _opaque(base, names, depth, (0, 0))
    L = flexions.lazy_logari(flexions.lazy_expari(A))
    target = A if same else B
    return residual_report((L.eval_word(w), target.eval_word(w)) for w in _words(depth))


def job_adari_automorphism(depth, base, names):
    """adari(S) maps ari(A, B) to ari(adari(S)(A), adari(S)(B))."""
    S, A, B = _opaque(base, names, depth, (1, 0, 0))
    conj = flexions.lazy_adari(S)
    lhs = conj(flexions.lazy_ari(A, B))
    rhs = flexions.lazy_ari(conj(A), conj(B))
    return residual_report((lhs.eval_word(w), rhs.eval_word(w)) for w in _words(depth))


def job_random_expansions(seed, rounds):
    return wrap(verify.random_expansion_checks(seed=seed, rounds=rounds))


def job_noop():
    """Import only: the set-up probe."""
    return wrap([])


API_JOBS = {
    "noop": job_noop,
    "psi_odd": job_psi_odd,
    "psi_minus1": job_psi_minus1,
    "comparison": job_comparison,
    "symmetral": job_symmetral,
    "alternal_mu_log_paj": job_alternal_mu_log_paj,
    "gari_inverse": job_gari_inverse,
    "exp_log": job_exp_log,
    "adari_automorphism": job_adari_automorphism,
    "random_expansions": job_random_expansions,
}


# ---------------------------------------------------------------------------
# running one job
# ---------------------------------------------------------------------------


def run_cli(argv):
    """Run ``mouldcalc ARGV`` in-process; return (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = mouldcalc.cli.main(list(argv))
    return code, out.getvalue()


# (key, coefficient) pairs of ints: the probe allocates no tracked objects
# but its result dict, so it never triggers a garbage collection of the
# job's heap, which would make the probe read slow in a job with a big heap.
_PROBE_TERMS = [(7 * i + j, i + 2 * j + 1) for i in range(14) for j in range(5)]
# Short probes, often: a short job still gets tens of samples, at the same
# cost as fewer long ones.
PROBE_INTERVAL_S = 0.01


def calibrate() -> float:
    """Seconds for a fixed pure-Python sparse product of about 0.5 ms: a host
    speed probe that does not depend on mouldcalc."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    out = {}
    for ka, ca in _PROBE_TERMS:
        for kb, cb in _PROBE_TERMS:
            k = ka + kb
            out[k] = out.get(k, 0) + ca * cb
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


class SpeedProbe:
    """Samples ``calibrate()`` from a timer signal while a job runs.

    The host's speed changes within a job, so the probe runs every
    PROBE_INTERVAL_S during the timed region.  The time the probe itself
    takes is kept in ``paused_s`` and subtracted from the job's time.
    """

    def __init__(self, samples: list, active: bool):
        self.samples = samples
        self.active = active
        self.paused_s = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(calibrate())
        self.paused_s += time.perf_counter() - t0

    def __enter__(self):
        if self.active:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False


def timed(fn, probe: SpeedProbe):
    """(fn(), seconds fn took, minus the probe's own time)."""
    t0 = time.perf_counter()
    with probe:
        result = fn()
    return result, time.perf_counter() - t0 - probe.paused_s


def run_job(job: dict, probe: SpeedProbe | None = None) -> dict:
    """Run a job; return the timed raw outcome."""
    probe = probe or SpeedProbe([], active=False)
    if job["kind"] == "cli":
        (code, text), verdict_s = timed(lambda: run_cli(job["argv"]), probe)
        outcome = {"exit": code}
        if job["argv"][0] == "verify":
            outcome["report"] = summarize(json.loads(text))
        else:
            fmt = job["argv"][job["argv"].index("--format") + 1]
            outcome["digest"] = (
                mould_digest(json.loads(text)) if fmt == "json" else digest(text)
            )
    else:
        fn = API_JOBS[job["fn"]]
        report, verdict_s = timed(lambda: fn(**job.get("args", {})), probe)
        outcome = {"report": summarize(report)}
    outcome["verdict_s"] = verdict_s
    return outcome


def main(argv) -> int:
    job = json.loads(argv[0])
    traced = "--trace" in argv[1:]
    calib = [calibrate() for _ in range(5)]
    result = {"import_s": IMPORT_S, "calib_s": calib}
    # under the tracer the probe would land in the layers' self times
    probe = SpeedProbe(calib, active=not traced)
    try:
        if traced:
            from tracer import Tracer

            with Tracer() as tr:
                result.update(run_job(job, probe))
            result["trace"] = tr.summary()
        else:
            result.update(run_job(job, probe))
    except Exception:  # the parent records this job as failed
        result["error"] = traceback.format_exc(limit=5)
    calib.extend(calibrate() for _ in range(5))
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
