"""Command-line front end.

Subcommands:

* ``compute TARGET``  - build a named mould at a truncation depth and render
  it (plain, latex or json).  ``TARGETS`` lists the target patterns; it
  drives the parser, ``compute --help`` and the unknown-target message.
* ``verify CLAIM``    - run a named verification claim and emit a JSON
  report; exit status 0 on pass, 1 on failure.
* ``render FILE``     - re-render a mould JSON file deterministically.
* ``examples``        - shorthand for ``verify examples-section1``.

The command line is one table, ``_COMMANDS``: each command's positional
argument, its flags with their converter or choices and default, its
handler and its help line.  One parse loop, ``_parse``, and one help
writer, ``_help``, read it, so a command costs no ``argparse``, ``gettext``
or ``locale`` import.  A flag is spelled ``--flag value`` or
``--flag=value``; a repeated flag takes its last value; a value may start
with ``-``; an abbreviated flag is an unrecognized argument.  Malformed
command lines are refused in argparse's words.  ``verify --help`` lists
every claim with the flags it takes.

The default ``compute`` depth is 4, overridable with --depth; the families
xi, sigma_c, luma and D are defined below depth 4, so they stop at depth 3.
``verify`` uses each claim's own defaults.  Depths and ``verify --dmax``
below 1 are refused here, and so are a compute depth above its entry of
``limits.LIMITS`` and, in the ``sang:sa:S`` and ``slang:R:sa:S`` builders,
an |S - 1| above its entry at that depth: S exists only in the target
grammar, since the library's ``sang`` and ``slang`` take a mould.  Every
other cost limit is refused by the target or claim that runs into it.  So
are parameters a target or claim rejects (a
ValueError from the library, a cost limit's in ``limits.gate``'s words),
targets and claims whose total degree outgrows the kernel's exponent field,
``--out`` paths that cannot be written, and claims that would run no check
or would pass vacuously (``pal-symmetral`` and ``dupal-alternal`` at depth
1, where no shuffle sum exists, and ``sang-expansion`` at depth 0).  A
closed stdout ends the output quietly with the command's own exit code.
Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Callable, Sequence

from .algebra import ExponentOverflowError, rf_latex, rf_str
from .limits import gate
from .moulds import Mould, dur, mould_from_json, mould_to_json
from .solutions import D_ab, luma, psi_minus1_mould, psi_odd_mould, sigma_c, xi
from .special import dupal, mupaj, paj, pal, sa, sang, slang
from .verify import CLAIMS, run_claim

__all__ = ["main", "build_target", "render_mould", "TARGETS"]

class UsageError(Exception):
    pass


def _parse_int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise UsageError(f"{what} must be an integer, got {token!r}")


def _sa_input(subject: str, depth: int, s: int) -> Mould:
    """sa_s = u^(s-1) at ``depth`` for the singulator target ``subject``.
    After ``sa``'s own refusals, the singulator's depth is refused as
    ``sang`` and ``slang`` refuse it, then an exponent size |s - 1| above
    the subject's limit at that depth, before any singulator work."""
    A = sa(s, depth)
    gate(("singulator", "depth"), depth)
    gate((subject, "exponent"), abs(s - 1), ("depth", depth))
    return A


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
    "sang:sa:S": lambda depth, s: sang(_sa_input("sang", depth, s)),
    "slang:R:sa:S": lambda depth, r, s: slang(r, _sa_input("slang", depth, s)),
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


def _cmd_compute(target: str, depth: int, format: str, out: str | None) -> int:
    if depth < 1:
        raise UsageError("depth must be at least 1")
    try:
        gate(("compute", "depth"), depth)
        M = build_target(target, depth)
    except (ValueError, ExponentOverflowError) as exc:
        raise UsageError(str(exc))
    _emit(render_mould(M, format), out)
    return 0


def _parameters(fn) -> tuple[str, ...]:
    """The parameter names of a function, through any ``functools.wraps``
    wrappers; read from the code object, which costs no ``inspect`` import."""
    while hasattr(fn, "__wrapped__"):
        fn = fn.__wrapped__
    code = fn.__code__
    return code.co_varnames[: code.co_argcount + code.co_kwonlyargcount]


def _cmd_verify(claim: str, out: str | None, **given: int | None) -> int:
    if claim not in CLAIMS:
        raise UsageError(f"unknown claim {claim!r}; choose from {', '.join(sorted(CLAIMS))}")
    params = {key: value for key, value in given.items() if value is not None}
    takes = _parameters(CLAIMS[claim])
    for key in params:
        if key not in takes:
            flags = ", ".join(f"--{name}" for name in takes) or "no flags"
            raise UsageError(f"claim {claim!r} takes no --{key} (it takes {flags})")
    for key in ("dmax", "depth"):
        if params.get(key, 1) < 1:
            raise UsageError(f"--{key} must be at least 1")
    try:
        report = run_claim(claim, **params)
    except (ValueError, ExponentOverflowError) as exc:
        raise UsageError(str(exc))
    _emit(json.dumps(report, sort_keys=True, indent=2), out)
    return 0 if report["status"] == "pass" else 1


def _cmd_render(file: str, format: str, out: str | None) -> int:
    try:
        with open(file, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {file!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"parse error in {file!r} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )
    except (UnicodeDecodeError, RecursionError) as exc:
        # text that is not UTF-8, or JSON nested beyond the parser's depth
        raise UsageError(f"invalid mould file {file!r}: {exc}")
    try:
        M = mould_from_json(obj)
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise UsageError(f"invalid mould file {file!r}: {exc}")
    _emit(render_mould(M, format), out)
    return 0


_FORMATS = ("plain", "latex", "json")

# The command line, one row per command: its positional argument as (name,
# help) or None, its flags as {name: (converter or tuple of choices,
# default)}, its handler, which takes the positional and every flag as
# keyword arguments, and its help line.  ``_parse`` and ``_help`` read it.
_COMMANDS: dict[str, tuple] = {
    "compute": (
        ("target", f"one of\n  {', '.join(TARGETS)}\nUpper-case letters after the name "
         "stand for integers.\nxi, sigma_c, luma and D are defined below depth 4, "
         "so they stop at depth 3."),
        {"depth": (int, 4), "format": (_FORMATS, "plain"), "out": (str, None)},
        _cmd_compute, "compute and render a named mould",
    ),
    "verify": (
        ("claim", "one of these, each with the flags it takes:\n" + "\n".join(
            f"  {name:<19}{' '.join(f'--{p}' for p in _parameters(fn)) or '(no flags)'}"
            for name, fn in CLAIMS.items())),
        {"n": (int, None), "dmax": (int, None), "depth": (int, None), "out": (str, None)},
        _cmd_verify, "run a verification claim",
    ),
    "render": (
        ("file", "a mould JSON file, as compute --format json writes it"),
        {"format": (_FORMATS, "plain"), "out": (str, None)},
        _cmd_render, "render a mould JSON file",
    ),
    "examples": (None, {"out": (str, None)}, lambda out: _cmd_verify("examples-section1", out),
                 "run the operator expansion identity suite"),
}


def _help(command: str | None) -> int:
    """Print the help of one command, or of the program when it is None."""
    if command is None:
        lines = ["usage: mouldcalc {%s} ..." % ",".join(_COMMANDS), "",
                 "Exact mould calculus: compute named moulds and verify identities.", "",
                 "commands (mouldcalc COMMAND --help for each):"]
        lines += [f"  {name:<10}{row[3]}" for name, row in _COMMANDS.items()]
    else:
        positional, flags, _, line = _COMMANDS[command]
        usage = f"usage: mouldcalc {command}" + (f" {positional[0].upper()}" if positional else "")
        for name, (kind, _) in flags.items():
            usage += f" [--{name} {'{%s}' % ','.join(kind) if isinstance(kind, tuple) else name.upper()}]"
        lines = [usage, "", line] + (["", f"{positional[0].upper()} is {positional[1]}"] if positional else [])
    _emit("\n".join(lines), None)
    return 0


def _convert(what: str, kind, value: str, see: str):
    """``value`` as argument ``what`` takes it: one of the choices ``kind``,
    or ``kind(value)``; refused in argparse's words."""
    if isinstance(kind, tuple):
        if value in kind:
            return value
        choices = ", ".join(map(repr, kind))
        raise UsageError(f"argument {what}: invalid choice: {value!r} (choose from {choices}) {see}")
    try:
        return kind(value)
    except ValueError:
        raise UsageError(f"argument {what}: invalid {kind.__name__} value: {value!r} {see}")


def _parse(argv: list[str]) -> tuple[Callable[..., int], dict]:
    """The handler of a command line and its keyword arguments.  A flag is
    spelled ``--flag value`` or ``--flag=value``, the last one counts, and
    its value may start with ``-``; ``-h``/``--help`` anywhere asks for
    help.  A flag is never abbreviated.  Errors keep argparse's wording."""
    if argv and argv[0] in ("-h", "--help"):
        return _help, {"command": None}
    if not argv or argv[0].startswith("-"):
        raise UsageError("the following arguments are required: command (see mouldcalc --help)")
    command = _convert("command", tuple(_COMMANDS), argv[0], "(see mouldcalc --help)")
    if "-h" in argv or "--help" in argv:
        return _help, {"command": command}
    positional, flags, handler, _ = _COMMANDS[command]
    see = f"(see mouldcalc {command} --help)"
    args = {name: default for name, (_, default) in flags.items()}
    extras, tokens = [], iter(argv[1:])
    for token in tokens:
        name, eq, value = token[2:].partition("=")
        if token.startswith("--") and name in flags:
            if not eq:
                value = next(tokens, None)
                if value is None:
                    raise UsageError(f"argument --{name}: expected one argument {see}")
            args[name] = _convert(f"--{name}", flags[name][0], value, see)
        elif positional and positional[0] not in args and not token.startswith("-"):
            args[positional[0]] = token
        else:
            extras.append(token)
    if positional and positional[0] not in args:
        raise UsageError(f"the following arguments are required: {positional[0]} {see}")
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)} (see mouldcalc --help)")
    return handler, args


def main(argv: Sequence[str] | None = None) -> int:
    try:
        handler, args = _parse(list(sys.argv[1:] if argv is None else argv))
        return handler(**args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
