"""The benchmark's tracer wraps ``mouldcalc`` functions by name; every name
it lists must still resolve and be reached, or a traced benchmark run
breaks or charges the work to the wrong layer."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from mouldcalc import cli

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(layer: str, path: str) -> bool:
    module = importlib.import_module("mouldcalc." + layer)
    if "." in path:
        cls_name, meth = path.split(".")
        # the tracer replaces the method in the class's own namespace
        return meth in vars(getattr(module, cls_name, object))
    return callable(getattr(module, path, None))


def test_every_tracer_target_resolves():
    targets = _tracer_module().TARGETS
    assert targets
    missing = [f"{layer}.{path}" for layer, path, _ in targets if not _resolves(layer, path)]
    assert not missing, missing


@pytest.mark.parametrize(
    "target, name",
    [("pal", "special.pal"), ("dupal", "special.dupal"), ("psi:-1", "solutions.psi_minus1_mould")],
)
def test_tracer_reaches_compute_builders(target, name, capsys):
    with _tracer_module().Tracer() as tr:
        assert cli.main(["compute", target, "--depth", "2"]) == 0
    assert tr.summary()["calls"].get(name, 0) > 0


def test_tracer_reaches_the_singulator_solvers(capsys):
    # the slicer solves pal's inverse and conjugates by it in the lazy layer,
    # so the job reaches the factorization sums, not the eager solver names
    with _tracer_module().Tracer() as tr:
        assert cli.main(["compute", "slang:1:sa:3", "--depth", "3"]) == 0
    calls = tr.summary()["calls"]
    for name in ("special.slang", "flexions.preari_at", "flexions.garit_at"):
        assert calls.get(name, 0) > 0, name


def test_tracer_reaches_the_comparison_families(capsys):
    # the verifier builds luma and each D_{a,b} through the public names
    # the tracer wraps for its solutions.ari_family group
    with _tracer_module().Tracer() as tr:
        assert cli.main(["verify", "comparison", "--n", "3"]) == 0
    calls = tr.summary()["calls"]
    assert calls.get("solutions.luma", 0) == 1
    assert calls.get("solutions.D_ab", 0) == 2
