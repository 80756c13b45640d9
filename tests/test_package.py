"""What the package is made of: its runtime dependencies, and a caller for every name it defines."""

import ast
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "elfkit").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def _docstrings(tree):
    """The docstring nodes of the module and of every class and function in it."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                yield body[0].value


def _identifiers(nodes):
    """Names, attribute names and import names (split at dots) used in the given subtrees."""
    out = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.update(node.name.split("."))
                if node.asname:
                    out.add(node.asname)
    return out


def _definitions(tree):
    """(name, node) of every top-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _benchmark_names():
    """Identifiers of ``benchmarks/``, and its string constants other than docstrings, split at dots."""
    out = set()
    for path in sorted((ROOT / "benchmarks").glob("*.py")):
        tree = _tree(path)
        out |= _identifiers([tree])
        docs = {id(doc) for doc in _docstrings(tree)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docs:
                out.update(node.value.split("."))
    return out


def test_source_imports_no_scipy():
    found = [f"{p.name}: {m}" for p in SOURCES for m in _imported_modules(_tree(p)) if m.split(".")[0] == "scipy"]
    assert found == []


def test_scipy_is_a_test_dependency_only():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]

    def names(requirements):
        return {req.split(">")[0].split("=")[0].split("<")[0].strip() for req in requirements}

    assert names(project["dependencies"]) == {"numpy"}
    assert "scipy" in names(project["optional-dependencies"]["test"])


def test_every_top_level_name_has_a_caller():
    # A caller is code of src/ outside the name's own definition, or anything in
    # benchmarks/, including a dotted string such as "inference.pi_to_theta".
    benchmarks = _benchmark_names()
    trees = {path.stem: _tree(path) for path in SOURCES}
    used = {module: [_identifiers([node]) for node in tree.body] for module, tree in trees.items()}
    uncalled = []
    for module, tree in trees.items():
        elsewhere = benchmarks.union(*(ids for m, nodes in used.items() if m != module for ids in nodes))
        for name, node in _definitions(tree):
            here = [ids for other, ids in zip(tree.body, used[module]) if other is not node]
            if name not in elsewhere and not any(name in ids for ids in here):
                uncalled.append(f"{module}.{name}")
    assert uncalled == []
