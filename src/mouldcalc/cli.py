"""Command-line front end.

Subcommands:

* ``compute TARGET``  - build a named mould at a truncation depth and render
  it (plain, latex or json).  ``TARGETS`` lists the target patterns; it
  drives the parser, ``compute --help`` and the unknown-target message.
* ``verify CLAIM``    - run a named verification claim and emit a JSON
  report; exit status 0 on pass, 1 on failure.
* ``render FILE``     - re-render a mould JSON file deterministically.
* ``examples``        - shorthand for ``verify examples-section1``.

The default ``compute`` depth is 4, overridable with --depth; the families
xi, sigma_c, luma and D are defined below depth 4, so they stop at depth 3.
``verify`` uses each claim's own defaults.  Depths and ``verify --dmax``
below 1 or above MAX_DEPTH are refused, as are parameters a target or claim
rejects (a ValueError from the library: among them the singulator above
depth 7, psi-minus1 above dmax 7 and an n above the psi-odd and comparison
limits, whose cost the library bounds),
targets and claims whose total degree outgrows the kernel's exponent field,
``--out`` paths that cannot be written, and claims that would run no check
or would pass vacuously (``pal-symmetral`` and ``dupal-alternal`` at depth
1, where no shuffle sum exists, and ``sang-expansion`` at depth 0).  A
closed stdout ends the output quietly with the command's own exit code.
Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Sequence

from .algebra import ExponentOverflowError, rf_latex, rf_str
from .moulds import Mould, dur, mould_from_json, mould_to_json
from .solutions import D_ab, luma, psi_minus1_mould, psi_odd_mould, sigma_c, xi
from .special import dupal, mupaj, paj, pal, sa, sang, slang
from .verify import CLAIMS, run_claim

MAX_DEPTH = 8

__all__ = ["main", "build_target", "render_mould", "MAX_DEPTH", "TARGETS"]


class UsageError(Exception):
    pass


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


def _psi_target(depth: int, k: int) -> Mould:
    if k >= 3 and k % 2 == 1:
        return psi_odd_mould((k - 1) // 2, depth)
    raise UsageError("psi index must be -1 or an odd integer >= 3")


# Compute targets: ``:``-separated patterns, a name followed by tokens of
# which the upper-case ones stand for integers, each mapped to its builder.
# A builder takes the depth and those integers in order.  Patterns are tried
# in order, so the literal ``psi:-1`` comes before ``psi:K``.  Builders look
# their functions up when called, so a rebinding of the module names reaches
# them.
TARGETS: dict[str, Callable[..., Mould]] = {
    "paj": lambda depth: paj(depth),
    "mupaj": lambda depth: mupaj(depth),
    "dupal": lambda depth: dupal(depth),
    "pal": lambda depth: pal(depth),
    "dur": lambda depth: dur(depth),
    "sa:S": lambda depth, s: sa(s, depth),
    "sang:sa:S": lambda depth, s: sang(sa(s, depth)),
    "slang:R:sa:S": lambda depth, r, s: slang(r, sa(s, depth)),
    "psi:-1": lambda depth: psi_minus1_mould(depth),
    "psi:K": lambda depth, k: _psi_target(depth, k),
    "xi:N": lambda depth, n: xi(n).truncate(depth),
    "sigma_c:N": lambda depth, n: sigma_c(n).truncate(depth),
    "luma:N": lambda depth, n: luma(n).truncate(depth),
    "D:A:B": lambda depth, a, b: D_ab(a, b).truncate(depth),
}


def _match(pattern: str, parts: list[str]) -> list[int] | None:
    """The integers a target's parts give the pattern's placeholders, or
    None when the target does not have the pattern's shape."""
    tokens = pattern.split(":")
    if len(tokens) != len(parts) or tokens[0] != parts[0]:
        return None
    ints = []
    for token, part in zip(tokens[1:], parts[1:]):
        if token.isupper():
            ints.append(_parse_int(part, f"{token} in {pattern}"))
        elif token != part:
            return None
    return ints


def build_target(target: str, depth: int) -> Mould:
    """Resolve a compute target name to a mould at the given depth."""
    parts = target.split(":")
    for pattern, builder in TARGETS.items():
        ints = _match(pattern, parts)
        if ints is not None:
            return builder(depth, *ints)
    raise UsageError(f"unknown target {target!r}; choose from {', '.join(TARGETS)}")


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
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write {out!r}: {exc.strerror or exc}")
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader closed stdout (``| head``): the output ends here, and
            # devnull takes the interpreter's final flush, which would raise
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _cmd_compute(args) -> int:
    _check_depth(args.depth, "depth")
    try:
        M = build_target(args.target, args.depth)
    except (ValueError, ExponentOverflowError) as exc:
        raise UsageError(str(exc))
    _emit(render_mould(M, args.format), args.out)
    return 0


def _parameters(fn) -> tuple[str, ...]:
    """The parameter names of a function, through any ``functools.wraps``
    wrappers; read from the code object, which costs no ``inspect`` import."""
    while hasattr(fn, "__wrapped__"):
        fn = fn.__wrapped__
    code = fn.__code__
    return code.co_varnames[: code.co_argcount + code.co_kwonlyargcount]


def _cmd_verify(args) -> int:
    if args.claim not in CLAIMS:
        raise UsageError(
            f"unknown claim {args.claim!r}; choose from {', '.join(sorted(CLAIMS))}"
        )
    params = {
        key: getattr(args, key)
        for key in ("n", "dmax", "depth")
        if getattr(args, key) is not None
    }
    takes = _parameters(CLAIMS[args.claim])
    for key in params:
        if key not in takes:
            flags = ", ".join(f"--{name}" for name in takes) or "no flags"
            raise UsageError(f"claim {args.claim!r} takes no --{key} (it takes {flags})")
    for key in ("dmax", "depth"):
        if key in params:
            _check_depth(params[key], f"--{key}")
    try:
        report = run_claim(args.claim, **params)
    except (ValueError, ExponentOverflowError) as exc:
        raise UsageError(str(exc))
    _emit(json.dumps(report, sort_keys=True, indent=2), args.out)
    return 0 if report["status"] == "pass" else 1


def _cmd_render(args) -> int:
    try:
        with open(args.file, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {args.file!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"parse error in {args.file!r} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )
    except (UnicodeDecodeError, RecursionError) as exc:
        # text that is not UTF-8, or JSON nested beyond the parser's depth
        raise UsageError(f"invalid mould file {args.file!r}: {exc}")
    try:
        M = mould_from_json(obj)
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise UsageError(f"invalid mould file {args.file!r}: {exc}")
    _emit(render_mould(M, args.format), args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as one ``error:`` line, like every
    other usage error, instead of argparse's usage block."""

    def error(self, message):
        raise UsageError(f"{message} (see {self.prog} --help)")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mouldcalc",
        description="Exact mould calculus: compute named moulds and verify identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="compute and render a named mould")
    c.add_argument(
        "target",
        help=f"one of {', '.join(TARGETS)}; upper-case letters after the name "
        "stand for integers; xi, sigma_c, luma and D are defined below depth 4, "
        "so they stop at depth 3",
    )
    c.add_argument("--depth", type=int, default=4)
    c.add_argument("--format", choices=("plain", "latex", "json"), default="plain")
    c.add_argument("--out", default=None)
    c.set_defaults(fn=_cmd_compute)

    v = sub.add_parser("verify", help="run a verification claim")
    v.add_argument("claim")
    v.add_argument("--n", type=int, default=None)
    v.add_argument("--dmax", type=int, default=None)
    v.add_argument("--depth", type=int, default=None)
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
                           out=args.out)
    ))
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
