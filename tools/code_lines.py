#!/usr/bin/env python3
"""Code lines per module and in total, read with ``tokenize``.

    python3 tools/code_lines.py src/nadek

A code line is a physical line that holds a token of a statement.  Blank
lines, comments and docstrings (any statement that is only a string
literal) are not counted; a statement or literal that spans several lines
counts each of them.  Prints one ``<count> <module>`` line per ``.py``
file under each given directory, then ``<count> total``.
"""

from __future__ import annotations

import argparse
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    """The number of code lines in the Python file ``path``."""
    rows: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in (tokenize.NEWLINE, tokenize.ENDMARKER):
                if tok.type not in _LAYOUT:
                    statement.append(tok)
                continue
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    rows.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="+", type=Path, help="directories of Python modules")
    args = parser.parse_args(argv)
    total = 0
    for d in args.dirs:
        for path in sorted(d.rglob("*.py")):
            n = code_lines(path)
            total += n
            print(f"{n:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
