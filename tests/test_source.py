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


def test_no_sparse_lu():
    # every solve runs on banded factors: no module imports
    # scipy.sparse.linalg or names splu
    paths = sorted(pathlib.Path(twophase.__file__).parent.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        names = _names_used(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.alias, ast.FunctionDef)):
                names.add(node.name)
            elif isinstance(node, ast.ImportFrom):
                names.add(node.module or "")
        if "splu" in names or any(name.startswith("scipy.sparse.linalg")
                                  for name in names):
            found.append(path.name)
    assert found == []


def _names_used(tree) -> set:
    # every name read in the module, including those inside string
    # annotations (forward references such as -> "sp.csr_matrix")
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


def _unreferenced_definitions() -> list:
    # (module, node) of every module-level function or class that nothing
    # in the package references outside its own definition (called,
    # imported, re-exported by __init__ or read as an attribute)
    paths = sorted(pathlib.Path(twophase.__file__).parent.glob("*.py"))
    assert paths
    statements = [(path.name, node) for path in paths
                  for node in ast.parse(path.read_text(), str(path)).body]

    def references(node) -> set:
        names = _names_used(node)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif isinstance(sub, ast.alias):
                names.add(sub.name)
        return names

    refs = [(node, references(node)) for _, node in statements]
    return [(module, node) for module, node in statements
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.endswith("__")
            and not any(node.name in names for other, names in refs
                        if other is not node)]


def test_no_unreferenced_private_functions():
    # every module-level _name function or class is referenced in the
    # package outside its own definition, so a helper that a change
    # leaves without callers shows
    found = [f"{module}:{node.lineno} {node.name}"
             for module, node in _unreferenced_definitions()
             if node.name.startswith("_")]
    assert found == []


def test_no_unreferenced_public_functions():
    # every public module-level function or class is referenced in the
    # package or exported by __init__, so the package holds no code that
    # only the tests call (test oracles live in tests/oracles.py)
    found = [f"{module}:{node.lineno} {node.name}"
             for module, node in _unreferenced_definitions()
             if not node.name.startswith("_")]
    assert found == []
