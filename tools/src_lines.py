"""Count total and code lines per Python module and for each directory given.

Code lines are the lines that hold a token other than a comment, a line
break or a docstring; a string token spanning several lines counts on each.

    python3 tools/src_lines.py [DIR ...]     # default: src/repcorr
"""

import ast
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENDMARKER, tokenize.ENCODING}


def count(path: Path) -> tuple[int, int]:
    """(total lines, code lines) of one module."""
    text = path.read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)):
            docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    code = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _SKIP and not (tok.type == tokenize.STRING and tok.start[0] in docstrings):
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code)


def main(dirs: list[str]) -> None:
    for d in dirs or ["src/repcorr"]:
        total = [0, 0]
        for path in sorted(Path(d).glob("*.py")):
            lines, code = count(path)
            total[0], total[1] = total[0] + lines, total[1] + code
            print(f"{path}: {lines} lines, {code} code")
        print(f"{d}: {total[0]} lines, {total[1]} code")


if __name__ == "__main__":
    main(sys.argv[1:])
