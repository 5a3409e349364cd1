"""The benchmark's own tests.

Run from the repository root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import run
import worker
from tracer import TARGETS, Tracer
from workloads import WORKLOADS, Workload, api, cli, worker_input

import mouldcalc  # imported by worker from the repository's src/
from mouldcalc import moulds, special, symmetry, verify

HERE = Path(__file__).resolve().parent


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


def _bindings() -> dict:
    """Every binding the tracer may touch, by identity."""
    snap = {}
    for name, mod in sys.modules.items():
        if name == "mouldcalc" or name.startswith("mouldcalc."):
            for attr, value in vars(mod).items():
                snap[(name, attr)] = id(value)
                if callable(value) and getattr(value, "__defaults__", None):
                    snap[(name, attr, "__defaults__")] = tuple(map(id, value.__defaults__))
    for layer, path, _ in TARGETS:
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(sys.modules["mouldcalc." + layer], cls_name)
            snap[(cls_name, meth)] = id(cls.__dict__[meth])
    for key, value in verify.CLAIMS.items():
        snap[("CLAIMS", key)] = id(value)
    return snap


TRACE_JOBS = [
    cli("psi-odd", "verify", "psi-odd", "--n", "1", "--dmax", "3"),
    cli("pal json", "compute", "pal", "--depth", "4", "--format", "json"),
    api("opaque inverse", "gari_inverse", depth=4, base=1000, names=["S", "T"], same=True),
    api("pal perturbed", "symmetral", expect="fail", mould="pal", depth=5,
        mutate={"k": 3, "c": 2, "e": 1}),
]


@pytest.mark.parametrize("job", TRACE_JOBS, ids=lambda j: j["id"])
def test_tracing_keeps_verdicts_and_restores_every_binding(job):
    before = _bindings()
    plain = worker.run_job(worker_input(job))
    with Tracer() as tr:
        assert special.pal.cache_info() is not None  # lru_cache API still reachable
        assert isinstance(mouldcalc.algebra.RationalFunction.__dict__["make"], staticmethod)
        traced = worker.run_job(worker_input(job))
    assert _bindings() == before
    for key in ("report", "digest", "exit"):
        assert plain.get(key) == traced.get(key)
    summary = tr.summary()
    assert sum(summary["calls"].values()) > 0
    assert summary["wall_s"] > 0


def test_tracer_reaches_functions_imported_by_value_and_defaults():
    # rf_sum lives in moulds/flexions/solutions by value; psi_odd is the
    # default of verify_psi_odd_theorem; CLAIMS holds the claim functions.
    with Tracer() as tr:
        worker.run_job(worker_input(TRACE_JOBS[0]))
    calls = tr.summary()["calls"]
    for name in ("algebra.rf_sum", "solutions.psi_odd", "verify.claim_psi_odd",
                 "flexions.adari.apply", "moulds.sharp"):
        assert calls.get(name, 0) > 0, name
    assert tr.summary()["incl_s"]["flexions.solvers"] > 0


def test_self_times_add_up_to_the_traced_wall_time():
    with Tracer() as tr:
        worker.run_job(worker_input(TRACE_JOBS[2]))
    s = tr.summary()
    assert sum(s["self_s"].values()) == pytest.approx(s["wall_s"], rel=1e-6)


# ---------------------------------------------------------------------------
# known-answer gate
# ---------------------------------------------------------------------------


def test_vacuous_pass_is_a_failure():
    job = cli("psi-odd dmax 0", "verify", "psi-odd", "--dmax", "0")
    outcome = run.run_worker(job, 60)
    assert outcome["report"] == {"status": "pass", "checks": 0, "failing": 0,
                                 "failing_with_witness": 0}
    assert run.judge(job, outcome) == "vacuous pass (zero checks)"


def test_wrong_expected_answers_are_failures():
    passing = {"report": {"status": "pass", "checks": 3, "failing": 0, "failing_with_witness": 0}}
    failing = {"report": {"status": "fail", "checks": 3, "failing": 1, "failing_with_witness": 1}}
    silent = {"report": {"status": "fail", "checks": 3, "failing": 1, "failing_with_witness": 0}}
    theorem = api("t", "noop")
    control = api("c", "noop", expect="fail")
    assert run.judge(theorem, passing) is None
    assert run.judge(control, failing) is None
    assert run.judge(control, passing)
    assert run.judge(theorem, failing)
    assert run.judge(control, silent)  # a failure without a witness
    assert run.judge(theorem, {"timeout": True})
    assert run.judge(theorem, {"error": "Traceback\nValueError: x"})
    digest_job = cli("d", "compute", "pal", "--depth", "7", "--format", "json", expect="digest")
    assert run.judge(digest_job, {"exit": 0, "digest": "0" * 64})


def _tiny(jobs, ladder) -> Workload:
    return Workload("tiny", 1000.0, lambda rng: jobs, lambda rng: ladder)


def test_wrong_answer_and_vacuous_pass_raise_failed_ratio():
    good = cli("dupal 3", "verify", "dupal-alternal", "--depth", "3")
    ladder = [(3, good)]
    metrics, detail, _ = run.measure(_tiny([good], ladder), seed=1, seconds=1)
    assert detail["failed_ratio"] == 0 and metrics["correct_ratio"]["value"] == 1.0

    wrong = dict(good, id="dupal 3, wrong answer", expect="fail")
    vacuous = cli("psi-odd dmax 0", "verify", "psi-odd", "--dmax", "0")
    metrics, detail, tally = run.measure(_tiny([good, wrong, vacuous], ladder), seed=1, seconds=1)
    assert tally.attempted == 2 * 3 + 1
    assert detail["failed_ratio"] == pytest.approx(4 / 7)
    assert metrics["correct_ratio"]["value"] == pytest.approx(3 / 7)


# ---------------------------------------------------------------------------
# ladder
# ---------------------------------------------------------------------------


def test_ladder_stops_at_first_step_over_budget_and_kills_it(monkeypatch):
    started = []
    real_popen = subprocess.Popen

    def recording_popen(*args, **kwargs):
        proc = real_popen(*args, **kwargs)
        started.append(proc)
        return proc

    monkeypatch.setattr(run.subprocess, "Popen", recording_popen)
    quick = cli("quick", "verify", "dupal-alternal", "--depth", "2")
    slow = cli("slow", "verify", "psi-odd", "--n", "2", "--dmax", "4")  # about 2 s
    tally = run.Tally()
    reached, log = run.run_ladder([(1, quick), (2, slow), (3, quick)], tally, budget=1.0)
    assert reached == 1
    assert [step["depth"] for step in log] == [1, 2]
    assert log[-1]["stop"] == "over budget"
    assert tally.attempted == 2 and tally.failures == []
    assert len(started) == 2
    assert started[1].returncode == -9  # killed at the budget, and reaped
    assert all(p.poll() is not None for p in started)


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    w = WORKLOADS[name]

    def inputs(seed):
        rng = random.Random(f"{name}:{seed}")
        return w.fixed(rng), w.ladder(rng)

    assert inputs(3) == inputs(3)
    assert any(inputs(3) != inputs(s) for s in range(4, 12))


@pytest.mark.parametrize("k", range(2, 7))
@pytest.mark.parametrize("e", (1, 2, 3))
def test_alternal_perturbation_is_alternal_and_nonzero(k, e):
    delta = worker.alternal_rf(-3, k, e)
    comps = [mouldcalc.RationalFunction.zero()] * (k + 1)
    comps[k] = delta
    assert not delta.is_zero()
    assert symmetry.is_alternal(moulds.Mould(comps)).ok


@pytest.mark.parametrize("seed", (1, 2))
def test_negative_controls_fail_with_a_witness(seed):
    for name, w in WORKLOADS.items():
        for job in w.fixed(random.Random(f"{name}:{seed}")):
            if job["expect"] == "fail":
                outcome = worker.run_job(worker_input(job))
                assert run.judge(job, outcome) is None, job["id"]


@pytest.mark.parametrize("n", (1, 2, 9, 14, 18, 35, 99, 150))
def test_tail_keeps_a_tenth_up_to_ten_samples_beyond_it_above_the_median(n):
    samples = [float(i) for i in range(1, n + 1)]
    value, pct, beyond = run.tail(samples)
    assert beyond == min(10, n // 10)
    assert sum(1 for s in samples if s > value) == beyond
    assert pct == pytest.approx(100 * (n - beyond) / n)
    assert value >= statistics.median(samples)


# ---------------------------------------------------------------------------
# the run's interface
# ---------------------------------------------------------------------------


def test_without_the_program_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "generic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_matches_the_workloads_and_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"] for m in spec["per_layer"]} == set(
        run.layer_metrics([], 1.0)
    )


def test_psi_components_that_mutations_scale_are_nonzero():
    from mouldcalc import solutions

    for d in range(1, 5):
        assert not solutions.psi_odd(1, d).is_zero()
    for d in range(1, 6):
        assert not solutions.psi_minus1(d).is_zero()
