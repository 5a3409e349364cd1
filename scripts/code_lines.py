"""Count the code lines of Python files: lines that hold a token other than
a comment, a docstring or whitespace.

A docstring here is a string that stands alone as a statement.  A token
that spans several lines, such as a multi-line string in an expression,
counts every line it covers.

    python scripts/code_lines.py src/mouldcalc/*.py
"""

import sys
import tokenize

IGNORED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(path: str) -> int:
    with open(path, "rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline) if t.type not in IGNORED]
    lines = set()
    for k, t in enumerate(tokens):
        if t.type == tokenize.NEWLINE:
            continue
        starts = k == 0 or tokens[k - 1].type == tokenize.NEWLINE
        ends = k + 1 == len(tokens) or tokens[k + 1].type == tokenize.NEWLINE
        if t.type == tokenize.STRING and starts and ends:
            continue  # a docstring
        lines.update(range(t.start[0], t.end[0] + 1))
    return len(lines)


if __name__ == "__main__":
    counts = {path: code_lines(path) for path in sys.argv[1:]}
    for path, n in counts.items():
        print(f"{n:6d} {path}")
    print(f"{sum(counts.values()):6d} total")
