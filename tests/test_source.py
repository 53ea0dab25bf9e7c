import ast
import pathlib

import twophase


def test_no_assert_statements():
    # python -O strips assert statements, so none may guard input or state
    paths = sorted(pathlib.Path(twophase.__file__).parent.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
