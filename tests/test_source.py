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


def _names_used(tree) -> set:
    # every name read in the module, including those inside string
    # annotations (forward references such as -> "SuperLU")
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        notes = []
        if isinstance(node, ast.arg):
            notes.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            notes.append(node.annotation)
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used |= _names_used(ast.parse(note.value, mode="eval"))
    return used


def test_no_unused_imports():
    # every name a module imports is read somewhere in it; the package's
    # __init__ only re-exports
    paths = sorted(pathlib.Path(twophase.__file__).parent.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = _names_used(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []
