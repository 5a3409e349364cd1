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
    # sang, slang and verify psi-odd --dmax: compute sang:sa:3 --depth 7
    # took 9.0 s (96 MB); at depth 8 the compositional sang did not finish
    # in 600 s, and the proof that the four-sum expansion equals it is out
    # of reach.  verify psi-odd --n 1 took 1.2 s (32 MB) at --dmax 7, and
    # 26 s (229 MB) at 8 with this limit lifted
    ("singulator", "depth"): 7,
    # verify sang-expansion --depth, which also builds the compositional
    # sang of sa_3 and sa_5: depth 6 took 3.2 to 3.5 s; 7 did not finish in
    # 60 s (424 to 531 MB)
    ("sang-expansion", "depth"): 6,
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
    # compute xi:N, sigma_c:N and luma:N --depth 3, each under 450 MB, with
    # the first refused n: xi:273 took 54 s, xi:274 55 s once and did not
    # finish in 60 s once; sigma_c:93 58 to 60 s, sigma_c:94 did not finish;
    # luma:73 49 to 54 s, luma:74 and luma:75 52 to 59 s, luma:76 57 to
    # 60 s and did not finish once, luma:77 59 s once and did not finish
    # three times; luma keeps 6 s below the timeout
    ("xi", "n"): 273,
    ("sigma_c", "n"): 93,
    ("luma", "n"): 73,
    # compute D:A:B --depth 3, by a + b, at a = 1, the slower split (a + b =
    # 200 took 48 s at a = 1, 38 s at b = 1 and 20 s at a = b): 52 s
    # (332 MB); a + b = 230 did not finish in 60 s
    ("D", "a+b"): 225,
    # compute sang:sa:S and slang:R:sa:S at each depth d, by the size
    # |S - 1| of sa_S = u^(S-1)'s exponent; a pole (S < 1) costs far more
    # than a power of the same size, so each is measured at S = 1 - limit,
    # and slang at its slowest R.  Measured, with the first refused size:
    #   1: under 1 s; above it a power's degree outgrows the exponent field
    #   2: sang 56 s (S = -10239), 10752 did not finish in 60 s; slang 56 s
    #      (R = 2, S = -4607), 4736 did not finish
    #   3: sang 52 s (S = -195), 203 did not finish; slang 56 s (R = 3,
    #      S = -147), 152 did not finish
    #   4: sang 52 s (S = -40), 43 did not finish; slang 48 s (R = 4,
    #      S = -18), 20 did not finish
    #   5: sang 56 s (S = -14), 16 did not finish; slang 34 s (R = 5,
    #      S = -4), 6 did not finish
    #   6: sang 24 s (S = -5), 7 did not finish; slang 24 s (R = 5, S = -1),
    #      3 did not finish
    #   7: sang 21 s (S = -1), 3 did not finish; slang 31 s (R = 7, S = 2),
    #      2 did not finish at R = 3, 5 or 6
    ("sang", "exponent"): {1: 65535, 2: 10240, 3: 196, 4: 41, 5: 15, 6: 6, 7: 2},
    ("slang", "exponent"): {1: 65535, 2: 4608, 3: 148, 4: 19, 5: 5, 6: 2, 7: 1},
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
