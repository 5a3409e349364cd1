"""Command-line interface: targets, formats, exit codes, determinism."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mouldcalc.cli import MAX_DEPTH, TARGETS, build_target, main, render_mould
from mouldcalc.flexions import adari, invgari, lazy_adari, lazy_leng
from mouldcalc.moulds import _materialize, mould_from_json, mould_to_json
from mouldcalc.solutions import COMPARISON_MAX_N, PSI_ODD_MAX_N
from mouldcalc.special import lazy_sang, pal, sa
from mouldcalc.verify import run_claim


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
    code, _, err = run(capsys, "compute", "paj", "--depth", str(MAX_DEPTH + 1))
    assert code == 2
    assert "exceeds" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "psi-odd", "--n", "1", "--dmax", "8"),
        ("verify", "sang-expansion", "--depth", "8"),
        ("verify", "psi-minus1", "--dmax", "8"),
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
        ("verify", "psi-odd", "--n", str(PSI_ODD_MAX_N[3] + 1)),  # default dmax 3
        ("verify", "psi-odd", "--n", str(PSI_ODD_MAX_N[7] + 1), "--dmax", "7"),
        ("verify", "comparison", "--n", str(COMPARISON_MAX_N + 1)),
    ],
)
def test_invalid_parameter_exits_2_with_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "psi-odd", "--dmax", "0"), "at least 1"),
        (("verify", "pal-symmetral", "--depth", "0"), "at least 1"),
        (("verify", "psi-minus1", "--dmax", str(MAX_DEPTH + 1)), "exceeds"),
        (("verify", "pal-symmetral", "--depth", str(MAX_DEPTH + 1)), "exceeds"),
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
