import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_blocks() -> list[str]:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def _value_comment(lines: list[str], node: ast.Expr) -> str | None:
    """The `# value` comment after an expression, on its line or the next."""
    after = lines[node.end_lineno - 1][node.end_col_offset :].strip()
    if not after and node.end_lineno < len(lines):
        after = lines[node.end_lineno].strip()
    return after[1:].strip() if after.startswith("#") else None


def test_readme_library_use_runs_as_printed():
    namespace: dict = {}
    checked = 0
    for block in _library_blocks():
        lines = block.splitlines()
        for node in ast.parse(block).body:
            if not isinstance(node, ast.Expr):
                exec(compile(ast.Module([node], []), str(README), "exec"), namespace)
                continue
            value = eval(compile(ast.Expression(node.value), str(README), "eval"), namespace)
            expected = _value_comment(lines, node)
            assert expected is not None, ast.unparse(node)
            assert repr(value) == expected, ast.unparse(node)
            checked += 1
    assert checked >= 8
