"""Count the code lines of the Python modules in a directory.

A code line holds a token outside docstrings, comments and blank lines.
Prints the count per module, in name order, then the total:

    python tools/code_lines.py src/dialg
"""

import ast
import pathlib
import sys
import tokenize

SKIP = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
        tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path):
    """The number of code lines in the module at path."""
    docs = set()
    for node in ast.walk(ast.parse(path.read_text())):
        body = getattr(node, "body", None)
        first = body[0] if isinstance(body, list) and body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                and isinstance(first.value.value, str):
            docs.update(range(first.lineno, first.end_lineno + 1))
    with path.open("rb") as f:
        tokens = tokenize.tokenize(f.readline)
        return len({t.start[0] for t in tokens if t.type not in SKIP} - docs)


def main(directory):
    total = 0
    for path in sorted(pathlib.Path(directory).glob("*.py")):
        lines = code_lines(path)
        print(f"{lines:6,} {path.name}")
        total += lines
    print(f"{total:6,} total")


if __name__ == "__main__":
    main(sys.argv[1])
