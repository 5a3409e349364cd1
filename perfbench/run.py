"""mouldcalc benchmark: time to verdict and depth reached.

Usage (from the repository root):

    python3 perfbench/run.py --workload singulator --seed 1 --seconds 20 --trace 0

The loop is closed with one client: the parent starts one worker
interpreter per job (``worker.py``), waits for its verdict, then starts the
next, because every ``mouldcalc`` command starts cold.  Each pass runs the
workload's fixed job list in a seeded order; ``--seconds`` sets the number
of passes (seconds over the workload's nominal pass time, at least 2), so
every run of a workload has the same sample mix.  After the passes, the
depth ladder runs its steps in order, each killed at ``LADDER_BUDGET_S``.

Every outcome goes through the known-answer gate (``judge``).  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it (``detail: {...}``) records
the seed, sample counts, tail percentile, ladder steps and failures.

With ``--trace 1`` the run makes one untraced and one traced pass and
reports the per-layer metrics instead; the spans go to
``.perfbench_out/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, worker_input

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
DIGESTS = json.loads((HERE / "digests.json").read_text())

LADDER_BUDGET_S = 6.0  # per ladder step; the worker is killed at the budget
JOB_LIMIT_S = 60.0  # per fixed job; exceeding it is a failure
# A run must end within 180 s: no pass starts after PASS_DEADLINE_S, and
# no fixed job runs past JOBS_DEADLINE_S (the ladder needs at most 4 steps
# of LADDER_BUDGET_S after that).
PASS_DEADLINE_S = 110.0
JOBS_DEADLINE_S = 140.0
# the tail keeps this many samples beyond it, or a tenth of the samples
# when that is fewer, so that it stays near p90, above the median
TAIL_BEYOND = 10
REF_CALIB_S = 0.0005  # calibrate() time that defines the reference host speed


class SetupError(Exception):
    """The program cannot be run from this directory."""


# ---------------------------------------------------------------------------
# workers
# ---------------------------------------------------------------------------


def run_worker(job: dict, limit: float, traced: bool = False) -> dict:
    """Run one job in a fresh interpreter; return its outcome.

    ``{"timeout": True}`` when it ran past ``limit`` (it is killed), or
    ``{"error": ...}`` when it printed no result.
    """
    cmd = [sys.executable, str(WORKER), json.dumps(worker_input(job))]
    if traced:
        cmd.append("--trace")
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("MOULDCALC_DEPTH", None)
    # an installed package has its bytecode cache; the set-up probe in
    # check_program writes it, so that setup_s never includes compiling
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"timeout": True}
    lines = [line for line in out.splitlines() if line.strip()]
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"worker exit {proc.returncode}: {err.strip()[-500:]}"}


def judge(job: dict, outcome: dict) -> str | None:
    """The known-answer gate: None if the outcome is right, else why not."""
    if outcome.get("timeout"):
        return "exceeded the time limit"
    if "error" in outcome:
        return "exception: " + outcome["error"].strip().splitlines()[-1]
    expect = job["expect"]
    if expect == "digest":
        want = DIGESTS.get(" ".join(job["argv"]))
        if outcome.get("exit") != 0:
            return f"exit {outcome.get('exit')}"
        if outcome.get("digest") != want:
            return "digest differs from the recorded one"
        return None
    rep = outcome.get("report") or {}
    if expect == "pass":
        if rep.get("status") != "pass":
            return f"status {rep.get('status')!r}, expected 'pass'"
        if rep.get("checks", 0) < 1:
            return "vacuous pass (zero checks)"
        if job["kind"] == "cli" and outcome.get("exit") != 0:
            return f"exit {outcome.get('exit')} on a pass"
        return None
    if expect == "fail":
        if rep.get("status") != "fail":
            return f"status {rep.get('status')!r}, expected 'fail'"
        if rep.get("failing", 0) < 1 or rep.get("failing_with_witness") != rep.get("failing"):
            return "a failing check has no nonzero residual or witness"
        if job["kind"] == "cli" and outcome.get("exit") != 1:
            return f"exit {outcome.get('exit')} on a failure"
        return None
    return f"unknown expectation {expect!r}"


class Tally:
    """Attempted and failed jobs, with the reasons for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, job: dict, outcome: dict) -> bool:
        self.attempted += 1
        why = judge(job, outcome)
        if why:
            self.failures.append(f"{job['id']}: {why}")
        return why is None


def run_pass(jobs: list, order: list, tally: Tally, end: float, traced: bool = False) -> list:
    """One pass over the fixed jobs in the given order; returns the outcomes.

    No job runs past the monotonic time ``end``.
    """
    outcomes = []
    for i in order:
        limit = min(JOB_LIMIT_S, max(end - time.monotonic(), 1.0))
        outcome = run_worker(jobs[i], limit, traced)
        tally.record(jobs[i], outcome)
        outcomes.append((jobs[i], outcome))
    return outcomes


def run_ladder(steps: list, tally: Tally, budget: float) -> tuple[int, list]:
    """Run the steps in order until one exceeds the budget or goes wrong.

    Returns the deepest depth that verified (one below the first step if
    none did; each ladder starts below its workload's fixed depth, so a
    regression lowers the result) and a log of the steps.  The step that
    runs over the budget is killed and is the expected stop: attempted, but
    not a failure.
    """
    reached = steps[0][0] - 1
    log = []
    for depth, job in steps:
        outcome = run_worker(job, budget)
        if outcome.get("timeout"):
            tally.attempted += 1
            log.append({"depth": depth, "verdict_s": None, "stop": "over budget"})
            break
        ok = tally.record(job, outcome)
        log.append({"depth": depth, "verdict_s": outcome.get("verdict_s"), "ok": ok})
        if not ok:
            break
        reached = depth
    return reached, log


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(samples: list) -> tuple[float, float, int]:
    """The highest percentile with at least ``beyond`` samples beyond it.

    ``beyond`` is TAIL_BEYOND, or a tenth of the samples when that is
    fewer.  Returns (value, percentile, beyond); below ten samples the tail
    is the largest sample, at percentile 100.
    """
    s = sorted(samples)
    n = len(s)
    beyond = min(TAIL_BEYOND, n // 10)
    return s[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def passes_for(workload, seconds: float) -> int:
    return max(2, round(seconds / workload.pass_s))


def check_program() -> None:
    if not (ROOT / "src" / "mouldcalc" / "__init__.py").is_file():
        raise SetupError(f"no mouldcalc sources under {ROOT / 'src'}")
    probe = run_worker({"kind": "api", "fn": "noop"}, JOB_LIMIT_S)
    if "import_s" not in probe:
        raise SetupError("the worker cannot import mouldcalc: " + probe.get("error", "timeout"))


def speed_factor(outcome: dict) -> float:
    """REF_CALIB_S over the worker's own calibration time (see README)."""
    calib = outcome["calib_s"]
    return REF_CALIB_S * len(calib) / sum(calib)


def measure(workload, seed: int, seconds: float) -> tuple[dict, dict, Tally]:
    rng = random.Random(f"{workload.name}:{seed}")
    jobs = workload.fixed(rng)
    ladder = workload.ladder(rng)
    tally = Tally()
    start = time.monotonic()
    walls, samples, setups, rss, raw_walls, raw_setups = [], [], [], [], [], []
    per_job = {}
    for _ in range(passes_for(workload, seconds)):
        if walls and time.monotonic() - start > PASS_DEADLINE_S:
            break
        order = rng.sample(range(len(jobs)), len(jobs))
        wall = raw_wall = 0.0
        for job, outcome in run_pass(jobs, order, tally, start + JOBS_DEADLINE_S):
            if "verdict_s" not in outcome:
                continue
            scaled = outcome["verdict_s"] * speed_factor(outcome)
            wall += scaled
            raw_wall += outcome["verdict_s"]
            samples.append(scaled)
            per_job.setdefault(job["id"], []).append(scaled)
            setups.append(outcome["import_s"] * speed_factor(outcome))
            raw_setups.append(outcome["import_s"])
            rss.append(outcome["rss_mb"])
        walls.append(wall)
        raw_walls.append(raw_wall)
    if not samples:
        raise SetupError("no fixed job produced a verdict: " + "; ".join(tally.failures[:3]))
    depth, ladder_log = run_ladder(ladder, tally, LADDER_BUDGET_S)
    tail_s, tail_pct, beyond = tail(samples)
    failed = len(tally.failures)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(statistics.median(walls), "s"),
        "verdict_s_p50": metric(statistics.median(samples), "s"),
        "verdict_s_tail": metric(tail_s, "s"),
        "depth_reached": metric(depth, "depth"),
        "correct_ratio": metric((tally.attempted - failed) / tally.attempted, "ratio"),
        "peak_rss_mb": metric(max(rss), "MB"),
    }
    detail = {
        "workload": workload.name,
        "seed": seed,
        "passes": len(walls),
        "samples": len(samples),
        "tail_percentile": round(tail_pct, 1),
        "tail_samples_beyond": beyond,
        "pass_wall_s": walls,
        "raw_pass_wall_s": raw_walls,
        "raw_setup_s": statistics.median(raw_setups),
        "job_median_s": {k: statistics.median(v) for k, v in per_job.items()},
        "ladder": ladder_log,
        "ladder_budget_s": LADDER_BUDGET_S,
        "failed_ratio": failed / tally.attempted,
        "failures": tally.failures,
    }
    return metrics, detail, tally


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: list, overhead_ratio: float) -> dict:
    """Per-layer metrics of one traced pass; see README.md for each name.

    Times are scaled to the reference host speed like the end-to-end ones.
    """
    calls, counts, self_s, incl = {}, {}, {}, {}
    peak = checks = opaque_div = opaque_compose = 0
    for job, outcome in traced:
        tr = outcome.get("trace")
        if not tr:
            continue
        f = speed_factor(outcome)
        for k, v in tr["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for total, part in ((self_s, tr["self_s"]), (incl, tr["incl_s"])):
            for k, v in part.items():
                total[k] = total.get(k, 0.0) + v * f
        for k, v in tr["counts"].items():
            if k == "peak_num_terms":
                peak = max(peak, v)
            else:
                counts[k] = counts.get(k, 0) + v
        checks += (outcome.get("report") or {}).get("checks", 0)
        if "names" in job.get("args", {}):  # built on opaque symbols
            opaque_div += tr["calls"].get("algebra.Polynomial.try_div_linear", 0)
            opaque_compose += tr["calls"].get("algebra.Polynomial.compose", 0)

    def c(name):
        return calls.get(name, 0)

    def n(name):
        return counts.get(name, 0)

    def t(name):
        return incl.get(name, 0.0)

    values = {
        "algebra.self_s": (self_s.get("algebra", 0.0), "s"),
        "algebra.mul.calls": (c("algebra.Polynomial.__mul__"), "count"),
        "algebra.mul.term_products": (n("mul.term_products"), "count"),
        "algebra.mul.exponent_entries": (n("mul.exponent_entries"), "count"),
        "algebra.div.attempts": (c("algebra.Polynomial.try_div_linear"), "count"),
        "algebra.div.failed": (n("div.failed"), "count"),
        "algebra.div.fail_ratio": (
            _ratio(n("div.failed"), c("algebra.Polynomial.try_div_linear")), "ratio"),
        "algebra.div.s": (t("algebra.Polynomial.try_div_linear"), "s"),
        "algebra.make.calls": (c("algebra.RationalFunction.make"), "count"),
        "algebra.make.s": (t("algebra.RationalFunction.make"), "s"),
        "algebra.peak_num_terms": (peak, "terms"),
        "algebra.rf_sum.calls": (c("algebra.rf_sum"), "count"),
        "algebra.rf_sum.items": (n("rf_sum.items"), "count"),
        "algebra.rf_sum.s": (t("algebra.rf_sum"), "s"),
        "algebra.compose.calls": (c("algebra.Polynomial.compose"), "count"),
        "algebra.compose.out_terms": (n("compose.out_terms"), "terms"),
        "algebra.compose.s": (t("algebra.Polynomial.compose"), "s"),
        "algebra.div.attempts.opaque_jobs": (opaque_div, "count"),
        "algebra.compose.calls.opaque_jobs": (opaque_compose, "count"),
        "moulds.self_s": (self_s.get("moulds", 0.0), "s"),
        "moulds.mu.calls": (c("moulds.mu"), "count"),
        "moulds.mu.s": (t("moulds.mu"), "s"),
        "moulds.sharp.s": (t("moulds.sharp"), "s"),
        "moulds.mu_log.s": (t("moulds.mu_log"), "s"),
        "moulds.eval_word.calls": (c("moulds.Mould.eval_word"), "count"),
        "moulds.eval_word.hit_ratio": (
            _ratio(n("moulds.eval_word.hits"), c("moulds.Mould.eval_word")), "ratio"),
        "flexions.self_s": (self_s.get("flexions", 0.0), "s"),
        "flexions.mu_at.calls": (c("flexions.mu_at"), "count"),
        "flexions.arit_at.calls": (c("flexions.arit_at"), "count"),
        "flexions.garit_at.calls": (c("flexions.garit_at"), "count"),
        "flexions.lazy_eval.calls": (c("flexions.LazyMould.eval_word"), "count"),
        "flexions.lazy_eval.hit_ratio": (
            _ratio(n("flexions.lazy_eval.hits"), c("flexions.LazyMould.eval_word")), "ratio"),
        "flexions.solvers.s": (t("flexions.solvers"), "s"),
        "symmetry.self_s": (self_s.get("symmetry", 0.0), "s"),
        "symmetry.s": (t("symmetry"), "s"),
        "symmetry.cells": (c("symmetry._shuffle_sum"), "count"),
        "symmetry.shuffle_words": (n("symmetry.shuffle_words"), "count"),
        "special.self_s": (self_s.get("special", 0.0), "s"),
        "special.sang.s": (t("special.sang"), "s"),
        "special.slang.s": (t("special.slang"), "s"),
        "special.pal.s": (t("special.pal"), "s"),
        "special.cache_hit_ratio": (
            _ratio(n("special.cache_hits"), n("special.cache_lookups")), "ratio"),
        "solutions.self_s": (self_s.get("solutions", 0.0), "s"),
        "solutions.psi_build.s": (t("solutions.psi_build"), "s"),
        "solutions.ari_family.s": (t("solutions.ari_family"), "s"),
        "generic.symbols": (n("generic.symbols"), "count"),
        "generic.symbol.calls": (c("generic.SymbolRegistry.symbol"), "count"),
        "verify.checks": (checks, "count"),
        "verify.self_s": (self_s.get("verify", 0.0), "s"),
        "cli.render.s": (t("cli.render"), "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
    return {k: metric(v, u) for k, (v, u) in values.items()}


def measure_traced(workload, seed: int) -> tuple[dict, dict, Tally]:
    """One untraced and one traced pass in the same order."""
    rng = random.Random(f"{workload.name}:{seed}")
    jobs = workload.fixed(rng)
    order = rng.sample(range(len(jobs)), len(jobs))
    tally = Tally()
    start = time.monotonic()
    plain = run_pass(jobs, order, tally, start + JOBS_DEADLINE_S / 2)
    traced = run_pass(jobs, order, tally, start + JOBS_DEADLINE_S, traced=True)
    for (job, a), (_, b) in zip(plain, traced):
        if {k: a.get(k) for k in ("report", "digest", "exit")} != {
            k: b.get(k) for k in ("report", "digest", "exit")
        }:
            tally.failures.append(f"{job['id']}: verdict differs under tracing")
    plain_wall = sum(o["verdict_s"] * speed_factor(o) for _, o in plain if "verdict_s" in o)
    traced_wall = sum(o["verdict_s"] * speed_factor(o) for _, o in traced if "verdict_s" in o)
    metrics = layer_metrics(traced, _ratio(traced_wall, plain_wall))
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans = {job["id"]: o.get("trace", {}).get("spans", []) for job, o in traced}
    (out_dir / f"trace-{workload.name}-{seed}.json").write_text(json.dumps(spans))
    detail = {
        "workload": workload.name,
        "seed": seed,
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "failures": tally.failures,
    }
    return metrics, detail, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        check_program()
        if args.trace:
            metrics, detail, tally = measure_traced(workload, args.seed)
        else:
            metrics, detail, tally = measure(workload, args.seed, args.seconds)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = len(tally.failures)
    print("detail: " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
