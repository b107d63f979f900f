"""Code lines of Python modules, in all and per module, as markdown.

A code line is a line with a token that is not a comment, outside module,
class and function docstrings.  Run from the repository root:

    python .github/code_lines.py src/tysys/*.py
"""

import ast
import io
import sys
import tokenize

skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER}
counts = {}
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        src = fh.read()
    code = {line for tok in tokenize.generate_tokens(io.StringIO(src).readline)
            if tok.type not in skip for line in range(tok.start[0], tok.end[0] + 1)}
    for node in ast.walk(ast.parse(src)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            code -= set(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    counts[path] = len(code)
print(f"src/tysys: {sum(counts.values())} code lines (not blank, a comment or a docstring)")
print("\n| module | code lines |\n| --- | ---: |")
for path, lines in counts.items():
    print(f"| {path} | {lines} |")
