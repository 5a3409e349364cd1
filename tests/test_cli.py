"""Command-line interface: targets, formats, exit codes, determinism."""

from __future__ import annotations

import importlib.util
import json
import os
import re
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

from mouldcalc import limits, solutions, special, verify
from mouldcalc.algebra import Polynomial, RationalFunction
from mouldcalc.cli import TARGETS, build_target, main, render_mould
from mouldcalc.flexions import adari, invgari, lazy_adari, lazy_leng
from mouldcalc.limits import LIMITS
from mouldcalc.moulds import _materialize, mould_from_json, mould_to_json
from mouldcalc.special import lazy_sang, pal, sa
from mouldcalc.verify import run_claim

from helpers import with_component


_ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv, **kwargs):
    """``mouldcalc ARGV`` in a fresh interpreter, killed after 60 s."""
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "mouldcalc", *argv], env=env, text=True, timeout=60, **kwargs
    )


def test_compute_pal_plain(capsys):
    code, out, _ = run(capsys, "compute", "pal", "--depth", "3")
    assert code == 0
    assert "m=1: (-1/2)/[(x1)]" in out
    assert "m=3" in out


def test_compute_pal_latex_contains_golden_factors(capsys):
    code, out, _ = run(capsys, "compute", "pal", "--depth", "2", "--format", "latex")
    assert code == 0
    assert "12" in out
    line2 = [l for l in out.splitlines() if l.startswith("M^{2}")][0]
    assert line2.count("x_{") >= 4  # numerator plus three denominator factors


def test_compute_dupal_depth4_includes_zero_component(capsys):
    code, out, _ = run(capsys, "compute", "dupal", "--depth", "4")
    assert code == 0
    assert "m=3: 0" in out
    assert "720" in out


def test_compute_targets_parse():
    for target in (
        "paj",
        "mupaj",
        "dupal",
        "pal",
        "dur",
        "sa:3",
        "sa:-1",
        "sang:sa:3",
        "slang:1:sa:3",
        "psi:3",
        "psi:-1",
    ):
        M = build_target(target, 3)
        assert M.depth == 3
    for target in ("xi:1", "sigma_c:2", "luma:2", "D:1:1"):
        M = build_target(target, 3)
        assert M.depth == 3


def test_compute_json_round_trip(capsys):
    code, out, _ = run(capsys, "compute", "D:1:1", "--depth", "3", "--format", "json")
    assert code == 0
    M = mould_from_json(json.loads(out))
    assert M.depth == 3


def test_unknown_target_exits_2(capsys):
    code, _, err = run(capsys, "compute", "nonsense")
    assert code == 2
    assert "unknown target" in err


def test_depth_cap(capsys):
    code, _, err = run(capsys, "compute", "paj", "--depth", str(LIMITS["compute", "depth"] + 1))
    assert code == 2
    assert "exceeds" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "psi-odd", "--n", "1", "--dmax", "8"),
        ("verify", "sang-expansion", "--depth", "8"),
        ("verify", "psi-minus1", "--dmax", "9"),  # admits 8
        ("compute", "sang:sa:3", "--depth", "8"),
        ("compute", "slang:1:sa:3", "--depth", "8"),
    ],
    ids=["psi-odd", "sang-expansion", "psi-minus1", "sang", "slang"],
)
def test_depth_8_is_refused_before_any_work(argv):
    # none of these finishes in 600 s if run, so a limit that stops being
    # checked first fails on the timeout instead of hanging
    done = run_process(*argv, capture_output=True)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


# Each claim's depth flag and the LIMITS entry that refuses it: the
# singulator's for the claims that run it, and otherwise the claim's own.
_CLAIM_ENTRY = {
    "psi-odd": ("dmax", ("singulator", "depth")),
    "psi-minus1": ("dmax", ("psi-minus1", "dmax")),
    "pal-symmetral": ("depth", ("pal-symmetral", "depth")),
    "dupal-alternal": ("depth", ("dupal-alternal", "depth")),
    "sang-expansion": ("depth", ("sang-expansion", "depth")),
}


@pytest.mark.parametrize(
    "claim", ["pal-symmetral", "dupal-alternal", "psi-odd", "sang-expansion", "psi-minus1"]
)
def test_the_first_depth_above_a_claims_own_limit_is_refused_before_any_work(claim):
    # pal-symmetral at depth 11 did not finish in 75 s, dupal-alternal stops
    # at the kernel's slot variables, and the singulator claims stop at the
    # singulator's depth, below the compute depth; the command line adds
    # nothing to the refusal of the claim's own gate
    key, (subject, parameter) = _CLAIM_ENTRY[claim]
    limit = LIMITS[subject, parameter]
    done = run_process("verify", claim, f"--{key}", str(limit + 1), capture_output=True)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == f"error: {subject} {parameter} {limit + 1} exceeds the maximum {limit}\n"
    with pytest.raises(ValueError) as refused:
        run_claim(claim, **{key: limit + 1})
    assert done.stderr == f"error: {refused.value}\n"


@pytest.mark.parametrize(
    "argv", [("verify", "psi-odd", "--dmax", "2"), ("compute", "pal", "--depth", "2")]
)
def test_closed_stdout_keeps_the_exit_status(argv):
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the command writes
    try:
        done = run_process(*argv, stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert done.returncode == 0
    assert done.stderr == ""


def _lazy_slicer_oracle(r, A):
    # the slicer with the compositional lazy_sang as its inner singulator
    p = pal(A.depth)
    inner = lazy_adari(invgari(p))(lazy_sang(A))
    return _materialize(adari(p)(lazy_leng(r, inner)))


@pytest.mark.parametrize(
    "argv, oracle",
    [
        (("sang:sa:3", "--depth", "5", "--format", "json"), lambda: _materialize(lazy_sang(sa(3, 5)))),
        (("slang:1:sa:3", "--depth", "4"), lambda: _lazy_slicer_oracle(1, sa(3, 4))),
        # pal's inverse, solved once, read at longer words
        (("slang:1:sa:3", "--depth", "5"), lambda: _lazy_slicer_oracle(1, sa(3, 5))),
        # slang_1 reads only the singulator's depth 1; slang_3 reads depth 3
        (
            ("slang:3:sa:3", "--depth", "4", "--format", "latex"),
            lambda: _lazy_slicer_oracle(3, sa(3, 4)),
        ),
    ],
    ids=["sang-json", "slang-plain", "slang-depth5", "slang3-latex"],
)
def test_singulator_output_is_the_lazy_oracles(argv, oracle):
    # sang takes the four-sum expansion at these depths; what `mouldcalc
    # compute` prints must not change by a byte
    done = run_process("compute", *argv, capture_output=True)
    assert done.returncode == 0, done.stderr
    fmt = argv[-1] if "--format" in argv else "plain"
    assert done.stdout == render_mould(oracle(), fmt) + "\n"


def test_verify_pass_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "psi-odd", "--n", "1", "--dmax", "2")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    assert all(c["status"] == "pass" for c in report["checks"])


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "sa:0"),
        ("compute", "slang:0:sa:3"),
        ("verify", "comparison", "--n", "0"),
        ("compute", "sa:70000"),  # degree 69999 outgrows the exponent field
        ("verify", "psi-odd", "--n", "40000", "--dmax", "1"),  # above the n limit
        ("verify", "comparison", "--n", "40000"),
        ("verify", "pal-symmetral", "--depth", "1"),  # no shuffle sum below depth 2
        ("verify", "dupal-alternal", "--depth", "1"),
        ("verify", "psi-odd", "--n", str(LIMITS["psi", "n"][3] + 1)),  # default dmax 3
        ("verify", "psi-odd", "--n", str(LIMITS["psi", "n"][7] + 1), "--dmax", "7"),
        ("verify", "comparison", "--n", str(LIMITS["comparison", "n"] + 1)),
    ],
)
def test_invalid_parameter_exits_2_with_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _no_work(*args):
    raise AssertionError("work before the gate")


@cache
def _limits_script():
    spec = importlib.util.spec_from_file_location("limits_script", _ROOT / "scripts" / "limits.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_limits_script_has_a_command_for_every_entry():
    assert set(_limits_script().COMMANDS) == set(LIMITS)


@pytest.mark.parametrize("entry", sorted(LIMITS), ids=".".join)
def test_each_limit_has_a_recorded_reading_within_budget(entry):
    # BENCH_limits.json holds the script's run at the limit's current value,
    # and that run finished within the timeout and 1 GB; a limit moved
    # without a new reading, or admitting a run that did not finish, fails
    record = json.loads((_ROOT / "BENCH_limits.json").read_text())
    reading = record["entries"][".".join(entry)]["at_limit"]
    (argv, _), _ = _limits_script().runs(entry)
    assert reading["argv"] == argv
    assert reading["exit"] == 0
    assert reading["wall_s"] < record["timeout_s"]
    assert reading["peak_rss_mb"] < 1024


def test_a_partial_limits_run_keeps_the_other_entries(monkeypatch, tmp_path):
    script = _limits_script()
    run = {"argv": ["compute", "xi:1"], "wall_s": 0.25, "peak_rss_mb": 20.5, "exit": 0}
    kept = {"git_sha": "0" * 40, "python": "3.11.7", "host": "x86_64, 2 CPUs",
            "at_limit": {**run, "wall_s": 54.21}, "refused": {**run, "wall_s": 58.86, "exit": -9}}
    record = {"timeout_s": 60, "entries": {"psi.n": kept, "xi.n": kept}}
    (tmp_path / "BENCH_limits.json").write_text(json.dumps(record, indent=2) + "\n")
    monkeypatch.setattr(script, "ROOT", tmp_path)
    monkeypatch.setattr(script, "measure", lambda argv, rebind: run)
    assert script.main(["xi.n"]) == 0
    text = (tmp_path / "BENCH_limits.json").read_text()
    after = json.loads(text)["entries"]
    assert list(after) == ["psi.n", "xi.n"]
    assert after["xi.n"]["at_limit"] == after["xi.n"]["refused"] == run
    assert json.dumps(kept, indent=2).replace("\n", "\n    ") in text


# The first work that each entry's command in scripts/limits.py does once its
# gate has admitted it.
_WORK = {
    ("compute", "depth"): (solutions, "psi_minus1"),
    ("singulator", "depth"): (solutions, "sa"),
    ("sang-expansion", "depth"): (verify, "sa"),
    ("psi-minus1", "dmax"): (solutions, "paj"),
    ("pal-symmetral", "depth"): (verify, "pal"),
    ("dupal-alternal", "depth"): (verify, "dupal"),
    ("psi", "n"): (solutions, "sa"),
    ("comparison", "n"): (solutions, "xi"),
    ("xi", "n"): (solutions, "sa"),
    ("sigma_c", "n"): (solutions, "sa"),
    ("luma", "n"): (solutions, "_slang_sa"),
    ("D", "a+b"): (solutions, "_ari_sa"),
    ("sang", "exponent"): (special, "_sang_expanded_at"),
    ("slang", "exponent"): (special, "_sang_expanded_at"),
}


@pytest.mark.parametrize("entry", sorted(LIMITS), ids=".".join)
def test_each_limit_refuses_one_more_before_any_work(monkeypatch, capsys, entry):
    # the two runs scripts/limits.py measures: one above the limit is
    # refused before any work, in the words of the entry the script names,
    # and the limit is admitted, as is one above it with that entry alone
    # lifted
    monkeypatch.setattr(*_WORK[entry], _no_work)
    script = _limits_script()
    (at_limit, _), (above, lifted) = script.runs(entry)
    _, at = script.COMMANDS[entry]
    limit, where = (LIMITS[entry], "") if at is None else (LIMITS[entry][at[1]], " at %s %d" % at)
    message = f"error: {' '.join(entry)} {limit + 1} exceeds the maximum {limit}{where}\n"
    assert run(capsys, *above) == (2, "", message)
    for argv, table in ((at_limit, LIMITS), (above, {**LIMITS, **lifted})):
        monkeypatch.setattr(limits, "LIMITS", table)
        with pytest.raises(AssertionError, match="work before the gate"):
            main(argv)


@pytest.mark.parametrize(
    "subject, depth",
    [(subject, depth) for subject in ("sang", "slang") for depth in sorted(LIMITS[subject, "exponent"])],
)
def test_compute_singulator_exponents_above_the_limit_are_refused_before_any_work(
    monkeypatch, capsys, subject, depth
):
    # sa_s = u^(s-1): the size |s - 1| is bounded on both sides, a pole
    # (s < 1) and a power, and both of its values at the limit are admitted
    monkeypatch.setattr(special, "_sang_expanded_at", _no_work)
    limit = LIMITS[subject, "exponent"][depth]
    target = {"sang": "sang:sa:{}", "slang": "slang:1:sa:{}"}[subject]
    message = f"error: {subject} exponent {limit + 1} exceeds the maximum {limit} at depth {depth}\n"
    # a power of degree above 65535 is refused by sa first, as a degree past
    # the exponent field
    for s in (-limit, limit + 2) if limit < 65535 else (-limit,):
        assert run(capsys, "compute", target.format(s), "--depth", str(depth)) == (2, "", message)
    for s in {1 - limit, limit + 1} - {0}:
        with pytest.raises(AssertionError, match="work before the gate"):
            main(["compute", target.format(s), "--depth", str(depth)])


def test_a_singulator_target_refuses_sa_then_the_singulator_depth_then_the_exponent(capsys):
    # sa's own refusals come first, then the depth above every exponent table
    top = LIMITS["singulator", "depth"]
    for target in ("sang:sa:{}", "slang:1:sa:{}"):
        code, _, err = run(capsys, "compute", target.format(0), "--depth", str(top + 1))
        assert (code, err) == (2, "error: exponent s must be nonzero\n")
        code, _, err = run(capsys, "compute", target.format(-999), "--depth", str(top + 1))
        assert (code, err) == (2, f"error: singulator depth {top + 1} exceeds the maximum {top}\n")


@pytest.mark.parametrize("depth", sorted(LIMITS["psi", "n"]))
def test_compute_psi_above_its_n_limit_is_refused_before_any_work(monkeypatch, capsys, depth):
    monkeypatch.setattr(solutions, "psi_odd", _no_work)
    limit = LIMITS["psi", "n"][depth]
    k = 2 * (limit + 1) + 1
    message = f"error: psi n {limit + 1} exceeds the maximum {limit} at depth {depth}\n"
    assert run(capsys, "compute", f"psi:{k}", "--depth", str(depth)) == (2, "", message)
    with pytest.raises(AssertionError, match="work before the gate"):
        solutions.psi_odd_mould(limit, depth)


def test_psi_mould_above_the_limits_depth_is_refused_before_any_work(monkeypatch):
    # the command line's compute depth refuses depth 9 first; the library refuses too
    monkeypatch.setattr(solutions, "psi_odd", _no_work)
    depth = max(LIMITS["psi", "n"]) + 1
    with pytest.raises(ValueError, match=f"^psi depth {depth} exceeds the maximum {depth - 1}$"):
        solutions.psi_odd_mould(1, depth)


@pytest.mark.parametrize("family", ["luma", "sigma_c", "xi"])
def test_compute_family_above_its_n_limit_is_refused_before_any_work(monkeypatch, capsys, family):
    monkeypatch.setattr(solutions, "sa", _no_work)
    monkeypatch.setattr(solutions, "_slang_sa", _no_work)
    limit = LIMITS[family, "n"]
    message = f"error: {family} n {limit + 1} exceeds the maximum {limit}\n"
    assert run(capsys, "compute", f"{family}:{limit + 1}", "--depth", "3") == (2, "", message)
    with pytest.raises(AssertionError, match="work before the gate"):
        getattr(solutions, family)(limit)


@pytest.mark.parametrize(
    "target, message",
    [
        ("sa:x", "S in sa:S must be an integer, got 'x'"),
        ("psi:4", "psi index must be -1 or an odd integer >= 3"),
    ],
)
def test_malformed_compute_target_exits_2_with_its_message(capsys, target, message):
    assert run(capsys, "compute", target) == (2, "", f"error: {message}\n")


def test_failing_symmetry_claim_carries_its_residual_and_witness(monkeypatch, capsys):
    # pal's depth-2 component plus x1 is not symmetral: the shuffle sum of
    # the cell p = q = 1 leaves x1 + x2
    x1 = RationalFunction.make(1, Polynomial.variable(1))
    monkeypatch.setattr(verify, "pal", lambda depth: with_component(pal(depth), 2, lambda c: c + x1))
    code, out, _ = run(capsys, "verify", "pal-symmetral", "--depth", "2")
    assert code == 1
    shuffle_sums, dimould = json.loads(out)["checks"]
    assert shuffle_sums["status"] == dimould["status"] == "fail"
    assert shuffle_sums["residual"] == "(x1 + x2)"
    assert (shuffle_sums["witness"]["p"], shuffle_sums["witness"]["q"]) == (1, 1)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "psi-odd", "--dmax", "0"), "at least 1"),
        (("verify", "pal-symmetral", "--depth", "0"), "at least 1"),
        (("verify", "psi-minus1", "--dmax", str(LIMITS["psi-minus1", "dmax"] + 1)), "exceeds"),
        (("verify", "pal-symmetral", "--depth", str(LIMITS["pal-symmetral", "depth"] + 1)), "exceeds"),
    ],
)
def test_verify_depth_bounds_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "pal", "--depth", "2"),
        ("verify", "psi-odd", "--dmax", "2"),
    ],
)
def test_unwritable_out_path_exits_2_with_one_line(capsys, tmp_path, argv):
    path = str(tmp_path / "missing" / "report.txt")
    code, out, err = run(capsys, *argv, "--out", path)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path!r}: ") and err.count("\n") == 1


def test_claim_without_checks_is_refused():
    with pytest.raises(ValueError, match="no checks"):
        run_claim("psi-odd", n=1, dmax=0)


@pytest.mark.parametrize("claim", ["pal-symmetral", "dupal-alternal"])
def test_symmetry_claim_below_depth_2_is_refused(claim):
    with pytest.raises(ValueError, match="no shuffle sum"):
        run_claim(claim, depth=1)


def test_sang_expansion_below_depth_1_is_refused():
    with pytest.raises(ValueError, match="needs depth 1 or more"):
        run_claim("sang-expansion", depth=0)


def test_verify_unknown_claim_exit_2(capsys):
    code, _, err = run(capsys, "verify", "nope")
    assert code == 2
    assert "unknown claim" in err


def test_verify_examples_alias(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_determinism(capsys):
    _, out1, _ = run(capsys, "compute", "pal", "--depth", "3", "--format", "json")
    _, out2, _ = run(capsys, "compute", "pal", "--depth", "3", "--format", "json")
    assert out1 == out2


def test_render_round_trip(tmp_path, capsys):
    path = tmp_path / "pal.json"
    path.write_text(json.dumps(mould_to_json(pal(3))))
    code, out, _ = run(capsys, "render", str(path), "--format", "json")
    assert code == 0
    assert mould_from_json(json.loads(out)) == pal(3)


def test_render_parse_error_with_location(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    code, _, err = run(capsys, "render", str(path))
    assert code == 2
    assert "line 1" in err


def test_render_unreadable_path_exits_2_with_one_line(tmp_path, capsys):
    path = str(tmp_path / "missing.json")
    message = f"error: cannot read {path!r}: [Errno 2] No such file or directory: {path!r}\n"
    assert run(capsys, "render", path) == (2, "", message)


def test_render_component_count_off_its_depth_exits_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**mould_to_json(pal(1)), "depth": 2}))
    message = f"error: invalid mould file {str(path)!r}: component count does not match depth\n"
    assert run(capsys, "render", str(path)) == (2, "", message)


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, out, _ = run(capsys, "compute", "pal", "--depth", "2", "--out", str(target))
    assert code == 0
    assert out == ""
    assert "m=2" in target.read_text()


def test_usage_error_exit_2(capsys):
    assert main([]) == 2
    assert main(["compute"]) == 2


_PAL1 = mould_to_json(pal(1))


def _with_component(**fields):
    obj = json.loads(json.dumps(_PAL1))
    obj["components"][1].update(fields)
    return obj


@pytest.mark.parametrize(
    "obj",
    [
        _with_component(denominator=[[[0], 1]]),
        _with_component(scalar="1/0"),
        _with_component(numerator=[[[2.5], "1"]]),
        _with_component(denominator=[[[1], 2.5]]),
        _with_component(numerator=[[[-1], "1"]]),
        _with_component(numerator=[[[70000], "1"]]),
        {**_PAL1, "depth": 1.5},
        {**_PAL1, "depth": True},
        _with_component(numerator=[[["1"], "1"]]),
        _with_component(scalar=0.1),
        _with_component(scalar=True),
        _with_component(numerator=[[[], 0.1]]),
        b"\xff\xfe{}",
        b"[" * 200_000,
    ],
    ids=[
        "zero-form",
        "zero-scalar-denominator",
        "fractional-exponent",
        "fractional-multiplicity",
        "negative-exponent",
        "exponent-beyond-field",
        "fractional-depth",
        "bool-depth",
        "string-exponent",
        "float-scalar",
        "bool-scalar",
        "float-coefficient",
        "not-utf8",
        "nested-too-deeply",
    ],
)
def test_render_malformed_mould_exits_2_with_one_line(tmp_path, capsys, obj):
    # a bytes case is the raw file, anything else is written as JSON
    path = tmp_path / "bad.json"
    path.write_bytes(obj if isinstance(obj, bytes) else json.dumps(obj).encode())
    code, out, err = run(capsys, "render", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid mould file") and err.count("\n") == 1


def test_render_unit_mould(tmp_path, capsys):
    from mouldcalc.moulds import Mould

    path = tmp_path / "unit.json"
    path.write_text(json.dumps(mould_to_json(Mould.unit(0))))
    code, out, _ = run(capsys, "render", str(path))
    assert code == 0
    assert out.strip() == "m=0: 1"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "comparison", "--n", "1", "--a", "1"), "unrecognized arguments"),
        (("verify", "pal-symmetral", "--dmax", "3"), "takes no --dmax"),
    ],
    ids=["unknown-flag", "flag-of-another-claim"],
)
def test_verify_flag_the_claim_does_not_take_exits_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


_SEE = "(see mouldcalc --help)"
_PAL_2 = "m=0: 1\nm=1: (-1/2)/[(x1)]\nm=2: (1/12)*(x1 + 2*x2)/[(x2)*(x1)*(x1 + x2)]\n"


@pytest.mark.parametrize(
    "argv, code, first_line",
    [
        ((), 2, f"error: the following arguments are required: command {_SEE}"),
        (("render",), 2,
         "error: the following arguments are required: file (see mouldcalc render --help)"),
        (("check", "pal"), 2, "error: argument command: invalid choice: 'check' "
         f"(choose from 'compute', 'verify', 'render', 'examples') {_SEE}"),
        (("verify", "comparison", "--m", "1"), 2, f"error: unrecognized arguments: --m 1 {_SEE}"),
        (("compute", "pal", "--dep", "2"), 2, f"error: unrecognized arguments: --dep 2 {_SEE}"),
        (("verify", "psi-odd", "--n", "one"), 2,
         "error: argument --n: invalid int value: 'one' (see mouldcalc verify --help)"),
        (("compute", "pal", "--format", "tex"), 2, "error: argument --format: invalid choice: "
         "'tex' (choose from 'plain', 'latex', 'json') (see mouldcalc compute --help)"),
        (("compute", "pal", "sa:3", "x"), 2, f"error: unrecognized arguments: sa:3 x {_SEE}"),
        (("examples", "--out"), 2,
         "error: argument --out: expected one argument (see mouldcalc examples --help)"),
        (("compute", "pal", "--depth", "-3"), 2, "error: depth must be at least 1"),
        (("compute", "pal", "--depth=2"), 0, _PAL_2),
        (("compute", "--depth", "5", "pal", "--depth", "2"), 0, _PAL_2),
        (("--help",), 0, "usage: mouldcalc {compute,verify,render,examples} ...\n"),
        (("-h", "compute"), 0, "usage: mouldcalc {compute,verify,render,examples} ...\n"),
        (("render", "missing.json", "-h"), 0,
         "usage: mouldcalc render FILE [--format {plain,latex,json}] [--out OUT]\n"),
    ],
    ids=[
        "no-command", "no-file", "unknown-command", "unknown-flag", "abbreviated-flag",
        "non-int", "bad-choice", "extra-positionals", "flag-without-value", "negative-value",
        "flag=value", "repeated-flag", "help", "help-before-command", "help-after-command",
    ],
)
def test_command_line_table(capsys, argv, code, first_line):
    # the first line of stderr, or on success the start of stdout
    got, out, err = run(capsys, *argv)
    assert got == code
    if code:
        assert out == "" and err == first_line + "\n"
    else:
        assert err == "" and out.startswith(first_line)


def test_verify_help_lists_every_claim_with_its_flags(capsys):
    code, out, _ = run(capsys, "verify", "--help")
    assert code == 0
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines() if line[:2] == "  "}
    assert rows == {
        "psi-odd": ["--n", "--dmax"],
        "psi-minus1": ["--dmax"],
        "comparison": ["--n"],
        "pal-symmetral": ["--depth"],
        "dupal-alternal": ["--depth"],
        "sang-expansion": ["--depth"],
        "examples-section1": ["(no", "flags)"],
    }


def test_a_command_imports_no_argparse_gettext_or_locale(monkeypatch):
    # each run is a fresh interpreter whose every import is logged to stderr
    monkeypatch.setenv("PYTHONPROFILEIMPORTTIME", "1")
    for argv in (("verify", "psi-odd", "--dmax", "2"), ("compute", "--help"), ("compute", "pal", "--dep", "2")):
        done = run_process(*argv, capture_output=True)
        imported = {
            line.rpartition("|")[2].strip()
            for line in done.stderr.splitlines()
            if line.startswith("import time:")
        }
        assert "mouldcalc.cli" in imported and "json" in imported
        assert not imported & {"argparse", "gettext", "locale"}


# a value for each integer placeholder that every pattern using it accepts
_SAMPLE = {"S": "3", "R": "1", "K": "3", "N": "1", "A": "1", "B": "1"}


@pytest.mark.parametrize("pattern", list(TARGETS))
def test_every_target_pattern_builds_and_is_documented(capsys, pattern):
    head, *rest = pattern.split(":")
    target = ":".join([head] + [_SAMPLE.get(token, token) for token in rest])
    assert build_target(target, 2).depth >= 2
    code, out, _ = run(capsys, "compute", "--help")
    assert code == 0
    assert pattern in re.split(r"[\s,;]+", out)


# the families defined below depth 4, with their output at the default
# depth, unchanged from before --depth was honoured
_SIGMA_C_2 = """m=0: 0
m=1: x1^4
m=2: (-1/2)*(4*x1^3 + x1^2*x2 - x1*x2^2 - 4*x2^3)
m=3: (1/2)*(4*x1^2 - 3*x1*x2 + 6*x1*x3 - 8*x2^2 - 3*x2*x3 + 4*x3^2)
"""
_BELOW_DEPTH_4 = {
    "xi:1": """m=0: 0
m=1: x1^2
m=2: (-1)*(x1 - x2)
m=3: (1/12)*(3*x1^3*x2 - 3*x1^3*x3 + 3*x1^2*x2^2 + x1^2*x2*x3 - 6*x1^2*x3^2 \
- 2*x1*x2^2*x3 + x1*x2*x3^2 - 3*x1*x3^3 + 3*x2^2*x3^2 + 3*x2*x3^3)/[(x3)*(x2)*(x1)*(x1 + x2 + x3)]
""",
    "sigma_c:2": _SIGMA_C_2,
    "luma:2": _SIGMA_C_2,
    "D:1:1": "m=0: 0\nm=1: 0\nm=2: 0\nm=3: 0\n",
}


@pytest.mark.parametrize("target", list(_BELOW_DEPTH_4))
def test_families_below_depth_4_honour_depth(capsys, target):
    code, out, _ = run(capsys, "compute", target, "--depth", "2")
    assert code == 0
    assert out == "".join(_BELOW_DEPTH_4[target].splitlines(keepends=True)[:3])
    code, out, _ = run(capsys, "compute", target)
    assert code == 0
    assert out == _BELOW_DEPTH_4[target]
