"""The README's Python examples run and print what their comments say.

Each fenced ``python`` block of ``README.md`` runs top to bottom in a
fresh namespace, one statement at a time. A trailing comment on a
statement that calls ``print`` states what that call prints: the
comment's text, up to an em dash that starts prose (``# [70] — executes
via FV``), must appear in the statement's output.
"""

import ast
import contextlib
import io
import re
import tokenize
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
_TEXT = README.read_text()
BLOCKS = {
    f"README.md:{_TEXT.count(chr(10), 0, match.start()) + 1}": match.group(1)
    for match in re.finditer(r"^```python\n(.*?)^```", _TEXT, re.M | re.S)
}


def _is_print(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "id", None) == "print")


def _stated_outputs(source: str) -> dict[int, str]:
    """Line number -> the output a trailing comment states, for the
    lines of ``print`` statements."""
    comments = {
        token.start[0]: token.string[1:].split(" — ")[0].strip()
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT
    }
    return {line: comments[line]
            for node in ast.parse(source).body if _is_print(node)
            for line in range(node.lineno, node.end_lineno + 1)
            if line in comments}


def test_the_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("source", BLOCKS.values(), ids=BLOCKS.keys())
def test_block_prints_what_its_comments_state(source):
    stated = _stated_outputs(source)
    namespace: dict = {}
    checked = 0
    for node in ast.parse(source).body:
        output = io.StringIO()
        with contextlib.redirect_stdout(output):
            exec(compile(ast.Module([node], type_ignores=[]), "README.md",
                         "exec"), namespace)
        for line in range(node.lineno, node.end_lineno + 1):
            if line in stated:
                assert stated[line] in output.getvalue(), (
                    f"line {line} of the block states {stated[line]!r}; "
                    f"it printed {output.getvalue()!r}")
                checked += 1
    assert checked == len(stated)
