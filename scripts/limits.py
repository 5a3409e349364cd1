"""Take each cost limit's measurement again.

For each entry of ``mouldcalc.limits.LIMITS`` this runs one representative
command line, held in ``COMMANDS``, in a fresh interpreter twice: at the
limit, and at the first refused value, for which the child lifts that one
entry by rebinding the table in its own process.  Each child is killed
after 60 s.  Its wall time, its peak RSS (from ``os.wait4`` on that child
alone; ``ru_maxrss`` is in KiB on Linux) and its exit code go to
``BENCH_limits.json``, each entry with the git sha, Python version and
host it was measured on; the entries not measured in this run are kept as
they are.  Arguments name entries as subject.parameter; with none, every
entry runs (about 20 minutes).  The exit status is 1 when a run at its
limit does not exit 0.

    python scripts/limits.py
    python scripts/limits.py psi-minus1.dmax psi.n
"""

import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from mouldcalc.limits import LIMITS  # noqa: E402

TIMEOUT_S = 60

# Each entry's command line, with {} for the value, and for an entry that is
# a table, the key it is measured at.
COMMANDS = {
    ("compute", "depth"): ("compute psi:-1 --depth {}", None),
    ("singulator", "depth"): ("compute sang:sa:3 --depth {}", None),
    ("psi-minus1", "dmax"): ("verify psi-minus1 --dmax {}", None),
    ("pal-symmetral", "depth"): ("verify pal-symmetral --depth {}", None),
    ("dupal-alternal", "depth"): ("verify dupal-alternal --depth {}", None),
    ("psi", "n"): ("verify psi-odd --n {} --dmax 7", 7),
    ("comparison", "n"): ("verify comparison --n {}", None),
    ("xi", "n"): ("compute xi:{} --depth 3", None),
    ("sigma_c", "n"): ("compute sigma_c:{} --depth 3", None),
    ("luma", "n"): ("compute luma:{} --depth 3", None),
}

# The child rebinds the table with the entries it is given, then runs the
# command line.
CHILD = (
    "import ast, sys\n"
    "from mouldcalc import cli, limits\n"
    "limits.LIMITS = {**limits.LIMITS, **ast.literal_eval(sys.argv[1])}\n"
    "sys.exit(cli.main(sys.argv[2:]))\n"
)


def runs(entry: tuple[str, str]) -> list[tuple[list[str], dict]]:
    """The two runs of ``entry`` as (argv, entries the child rebinds): at
    the limit, and at the first refused value with the entry lifted to it."""
    template, key = COMMANDS[entry]
    limit = LIMITS[entry]
    value = limit if key is None else limit[key]
    lifted = value + 1 if key is None else {**limit, key: value + 1}
    return [
        (template.format(value).split(), {}),
        (template.format(value + 1).split(), {entry: lifted}),
    ]


def measure(argv: list[str], rebind: dict) -> dict:
    """One child's wall time, peak RSS and exit code."""
    args = [sys.executable, "-c", CHILD, repr(rebind), *argv]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.monotonic()
    pid = os.posix_spawn(sys.executable, args, env,
                         file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    while True:
        done, status, usage = os.wait4(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() - start > TIMEOUT_S:
            os.kill(pid, signal.SIGKILL)
        time.sleep(0.01)
    return {
        "argv": argv,
        "wall_s": round(time.monotonic() - start, 2),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
        "exit": os.waitstatus_to_exitcode(status),
    }


def main(names: list[str]) -> int:
    entries = {".".join(entry): entry for entry in LIMITS}
    unknown = [name for name in names if name not in entries]
    if unknown:
        print(f"unknown entries {unknown}; choose from {', '.join(entries)}", file=sys.stderr)
        return 2
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    provenance = {
        "git_sha": sha.stdout.strip(),
        "python": platform.python_version(),
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs",
    }
    report = {}
    for name in names or entries:
        at_limit, refused = (measure(*run) for run in runs(entries[name]))
        report[name] = {**provenance, "at_limit": at_limit, "refused": refused}
        for run in (at_limit, refused):
            print(f"{name}: {' '.join(run['argv'])}: {run['wall_s']} s, "
                  f"{run['peak_rss_mb']} MB, exit {run['exit']}", flush=True)
    path = ROOT / "BENCH_limits.json"
    kept = json.loads(path.read_text())["entries"] if path.exists() else {}
    out = {"timeout_s": TIMEOUT_S, "entries": {**kept, **report}}
    path.write_text(json.dumps(out, indent=2) + "\n")
    return 1 if any(r["at_limit"]["exit"] for r in report.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
