"""The cost limits, and the one gate that enforces them.

Cost grows combinatorially with depth and with n, so every command that
could run for hours is refused, before any work, above the largest value
measured to finish within 60 s and 1 GB (1024 MB) of peak RSS: single CLI
runs on a 2-vCPU x86-64 host with Python 3.11.7, about +-15 %, peak RSS
read for that child alone.  ``LIMITS`` holds each limit once, keyed by
(subject, parameter), with its measurement beside it; a limit that depends
on a second parameter is a table {that parameter's value: limit}.
``scripts/limits.py`` takes each measurement again, at the limit and at the
first refused value, and writes ``BENCH_limits.json``.

This module imports nothing from the package, so every module may read it.
"""

LIMITS: dict[tuple[str, str], int | dict[int, int]] = {
    # compute TARGET --depth: compute psi:-1 --depth 8 took 19 s (167 MB)
    ("compute", "depth"): 8,
    # sang, slang, verify psi-odd --dmax and verify sang-expansion --depth:
    # compute sang:sa:3 --depth 7 took 9.0 s (96 MB); at depth 8 the
    # compositional sang did not finish in 600 s, and the proof that the
    # four-sum expansion equals it is out of reach
    ("singulator", "depth"): 7,
    # verify psi-minus1 --dmax 8 took 37 to 53 s (204 to 239 MB); 9 did not
    # finish in 75 s (682 MB)
    ("psi-minus1", "dmax"): 8,
    # verify pal-symmetral --depth 10 took 13 s (240 MB); 11 did not finish
    # in 75 s (888 MB)
    ("pal-symmetral", "depth"): 10,
    # verify dupal-alternal --depth 16 took 19 to 20 s (351 MB); x_16 is the
    # kernel's last slot variable (algebra._K)
    ("dupal-alternal", "depth"): 16,
    # psi_{2n+1}'s n at each depth d: verify psi-odd --n at --dmax d, and
    # compute psi:K, n = (K - 1)/2, at --depth d; a depth above the table is
    # refused too.  Measured, with the first refused n:
    #   1: under 1 s; above it sa_{2n+1}'s degree outgrows the exponent field
    #   2: 59 s (46 MB); n = 3337 did not finish in 60 s
    #   3: 20 to 27 s (1021 MB); n = 1219 peaked at 1043 MB
    #   4: 27 s (1010 MB); n = 791 peaked at 1028 MB
    #   5: 41 s (1019 MB); n = 417 peaked at 1024.4 MB
    #   6: 51 to 55 s (822 MB); n = 163 did not finish in 60 s
    #   7: 58 s (310 MB); n = 24 did not finish in 60 s
    #   8, where no claim runs: compute psi:5 took 43 s (264 MB), psi:7 did
    #   not finish in 60 s
    ("psi", "n"): {1: 32767, 2: 3225, 3: 1209, 4: 785, 5: 416, 6: 155, 7: 23, 8: 2},
    # verify comparison --n: n = 48 took 38 s; n = 56 68 s
    ("comparison", "n"): 48,
    # compute xi:N, sigma_c:N and luma:N --depth 3, each under 240 MB
    ("xi", "n"): 242,  # 48 s; n = 246 did not finish in 60 s
    ("sigma_c", "n"): 84,  # 53 s; n = 85 did not finish in 60 s
    ("luma", "n"): 69,  # 58 s; n = 70 did not finish in 60 s
}


def gate(entry: tuple[str, str], value: int, at: tuple[str, int] | None = None) -> None:
    """Refuse ``value`` above the limit of ``entry`` = (subject, parameter)
    with ValueError, "<subject> <parameter> <value> exceeds the maximum
    <limit>": worded by the key alone, so a refusal names the entry that
    ``scripts/limits.py`` takes as subject.parameter.  This is the only
    place a cost limit is refused.

    A table entry reads its limit at ``at`` = (name, key), adding " at
    <name> <key>"; a key above the table is itself refused, "<subject>
    <name> <key> exceeds the maximum <largest key>", and one below it has no
    limit.
    """
    (subject, what), limit, where = entry, LIMITS[entry], ""
    if at is not None:
        name, key = at
        if key > max(limit):
            what, value, limit = name, key, max(limit)
        else:
            limit, where = limit.get(key, value), f" at {name} {key}"
    if value > limit:
        raise ValueError(f"{subject} {what} {value} exceeds the maximum {limit}{where}")
