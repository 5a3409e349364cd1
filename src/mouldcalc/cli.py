"""Command-line front end.

Subcommands:

* ``compute TARGET``  - build a named mould at a truncation depth and render
  it (plain, latex or json).  Targets: paj, mupaj, dupal, pal, dur, sa:S,
  sang:sa:S, slang:R:sa:S, psi:K (odd K >= 3), psi:-1, xi:N, sigma_c:N,
  luma:N, D:A:B.
* ``verify CLAIM``    - run a named verification claim and emit a JSON
  report; exit status 0 on pass, 1 on failure.
* ``render FILE``     - re-render a mould JSON file deterministically.
* ``examples``        - shorthand for ``verify examples-section1``.

The default ``compute`` depth is 4, overridable with --depth or the
MOULDCALC_DEPTH environment variable; ``verify`` ignores the variable and
uses each claim's own defaults.  Depths and ``verify --dmax`` below 1
or above MAX_DEPTH are refused, as are parameters a target or claim rejects
(a ValueError from the library) and claims that would run no check.
Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .algebra import rf_latex, rf_str
from .moulds import Mould, dur, mould_from_json, mould_to_json
from .special import dupal, mupaj, paj, pal, sa, sang, slang
from .verify import CLAIMS, run_claim

MAX_DEPTH = 8

__all__ = ["main", "build_target", "render_mould", "MAX_DEPTH"]


class UsageError(Exception):
    pass


def _default_depth() -> int:
    env = os.environ.get("MOULDCALC_DEPTH")
    if env is None:
        return 4
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"MOULDCALC_DEPTH must be an integer, got {env!r}")


def _parse_int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise UsageError(f"{what} must be an integer, got {token!r}")


def _check_depth(depth: int, what: str) -> None:
    if depth < 1:
        raise UsageError(f"{what} must be at least 1")
    if depth > MAX_DEPTH:
        raise UsageError(f"{what} {depth} exceeds the configured maximum {MAX_DEPTH}")


def build_target(target: str, depth: int) -> Mould:
    """Resolve a compute target name to a mould at the given depth."""
    parts = target.split(":")
    head = parts[0]
    if head == "paj" and len(parts) == 1:
        return paj(depth)
    if head == "mupaj" and len(parts) == 1:
        return mupaj(depth)
    if head == "dupal" and len(parts) == 1:
        return dupal(depth)
    if head == "pal" and len(parts) == 1:
        return pal(depth)
    if head == "dur" and len(parts) == 1:
        return dur(depth)
    if head == "sa" and len(parts) == 2:
        return sa(_parse_int(parts[1], "sa exponent"), depth)
    if head == "sang" and len(parts) == 3 and parts[1] == "sa":
        return sang(sa(_parse_int(parts[2], "sa exponent"), depth))
    if head == "slang" and len(parts) == 4 and parts[2] == "sa":
        r = _parse_int(parts[1], "slice index")
        return slang(r, sa(_parse_int(parts[3], "sa exponent"), depth))
    if head == "psi" and len(parts) == 2:
        from .solutions import psi_minus1_mould, psi_odd_mould

        k = _parse_int(parts[1], "psi index")
        if k == -1:
            return psi_minus1_mould(depth)
        if k >= 3 and k % 2 == 1:
            return psi_odd_mould((k - 1) // 2, depth)
        raise UsageError("psi index must be -1 or an odd integer >= 3")
    if head == "xi" and len(parts) == 2:
        from .solutions import xi

        return xi(_parse_int(parts[1], "xi index"))
    if head == "sigma_c" and len(parts) == 2:
        from .solutions import sigma_c

        return sigma_c(_parse_int(parts[1], "sigma_c index"))
    if head == "luma" and len(parts) == 2:
        from .solutions import luma

        return luma(_parse_int(parts[1], "luma index"))
    if head == "D" and len(parts) == 3:
        from .solutions import D_ab

        return D_ab(_parse_int(parts[1], "a"), _parse_int(parts[2], "b"))
    raise UsageError(f"unknown target {target!r}")


def render_mould(M: Mould, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(mould_to_json(M), sort_keys=True, indent=2)
    lines = []
    for m, comp in enumerate(M.components):
        if fmt == "latex":
            lines.append(f"M^{{{m}}} = {rf_latex(comp)}")
        else:
            lines.append(f"m={m}: {rf_str(comp)}")
    return "\n".join(lines)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_compute(args) -> int:
    depth = args.depth if args.depth is not None else _default_depth()
    _check_depth(depth, "depth")
    try:
        M = build_target(args.target, depth)
    except ValueError as exc:
        raise UsageError(str(exc))
    _emit(render_mould(M, args.format), args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.claim not in CLAIMS:
        raise UsageError(
            f"unknown claim {args.claim!r}; choose from {', '.join(sorted(CLAIMS))}"
        )
    params = {}
    if args.n is not None:
        params["n"] = args.n
    if args.dmax is not None:
        _check_depth(args.dmax, "--dmax")
        params["dmax"] = args.dmax
    if args.depth is not None:
        _check_depth(args.depth, "--depth")
        params["depth"] = args.depth
    if args.a is not None:
        params["a"] = args.a
    if args.b is not None:
        params["b"] = args.b
    try:
        report = run_claim(args.claim, **params)
    except ValueError as exc:
        raise UsageError(str(exc))
    _emit(json.dumps(report, sort_keys=True, indent=2), args.out)
    return 0 if report["status"] == "pass" else 1


def _cmd_render(args) -> int:
    try:
        with open(args.file) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {args.file!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"parse error in {args.file!r} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )
    try:
        M = mould_from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"invalid mould file {args.file!r}: {exc}")
    _emit(render_mould(M, args.format), args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mouldcalc",
        description="Exact mould calculus: compute named moulds and verify identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="compute and render a named mould")
    c.add_argument("target")
    c.add_argument("--depth", type=int, default=None)
    c.add_argument("--format", choices=("plain", "latex", "json"), default="plain")
    c.add_argument("--out", default=None)
    c.set_defaults(fn=_cmd_compute)

    v = sub.add_parser("verify", help="run a verification claim")
    v.add_argument("claim")
    v.add_argument("--n", type=int, default=None)
    v.add_argument("--dmax", type=int, default=None)
    v.add_argument("--depth", type=int, default=None)
    v.add_argument("--a", type=int, default=None)
    v.add_argument("--b", type=int, default=None)
    v.add_argument("--out", default=None)
    v.set_defaults(fn=_cmd_verify)

    r = sub.add_parser("render", help="render a mould JSON file")
    r.add_argument("file")
    r.add_argument("--format", choices=("plain", "latex", "json"), default="plain")
    r.add_argument("--out", default=None)
    r.set_defaults(fn=_cmd_render)

    e = sub.add_parser("examples", help="run the operator expansion identity suite")
    e.add_argument("--out", default=None)
    e.set_defaults(fn=lambda args: _cmd_verify(
        argparse.Namespace(claim="examples-section1", n=None, dmax=None, depth=None,
                           a=None, b=None, out=args.out)
    ))
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; keep that contract
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
