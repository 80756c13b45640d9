"""What the package is made of: its runtime dependencies, a caller for every name it defines,
a reader and a domain for every CLI option, one home for each domain, and no exception type of its own."""

import ast
import importlib
import math
import os
import re
import subprocess
import sys
import tomllib
from collections import Counter
from pathlib import Path

from elfkit.algebra import DOMAINS
from elfkit.cli import OPTIONS

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


def _names(root):
    """Names, attribute names and import names (split at dots) used in a subtree, once per use."""
    for node in ast.walk(root):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
            if node.asname:
                yield node.asname


def _identifiers(nodes):
    """The set of ``_names`` used in the given subtrees."""
    return {name for root in nodes for name in _names(root)}


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


def _members(tree):
    """(class, name, node) of every method and property in a top-level class body.

    A property is a decorated method or a ``name = property(...)`` assignment.
    Dunder methods, which Python calls itself, and fields (the records of a
    dataclass or NamedTuple) are not members here.
    """
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield cls.name, node.name, node
            elif (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)
                and node.value.func.id == "property"
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        yield cls.name, target.id, node


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


def test_estimation_and_the_cli_load_no_numpy_polynomial_or_ma(tmp_path):
    # pi_to_theta's quadrature rule and the checkpoint and scan-grid dedupes are numpy-only:
    # a run through each entry point leaves numpy.polynomial and numpy.ma unloaded.
    out = str(tmp_path / "run")
    code = f"""
import sys
from elfkit.cli import main
from elfkit.inference import EstimationConfig, run_estimation
from elfkit.metrics import GaussianBelief, NoiseModel
from elfkit.sim import ExperimentConfig, run_experiment
from elfkit.bias import Scheme

prior = GaussianBelief(0.3, 1e-3)
run_estimation(EstimationConfig(Scheme.AF, 1, NoiseModel(), prior, 0.3, 30, angle_source="clf"))
run_experiment(ExperimentConfig("af-clf", 0.3, prior, 1, NoiseModel(), runs=4, horizon=60))
common = ["--seed", "1", "--out", {out!r}]
assert main(["simulate", "--true-pi", "0.3", "--prior-mean", "0.3", "--runs", "3", "--horizon", "30", *common]) == 0
assert main(["scan", "--points", "3", "--restarts", "1", "--max-rounds", "5", *common]) == 0
print(sorted(m for m in sys.modules if m.split(".")[:2] in (["numpy", "polynomial"], ["numpy", "ma"])))
"""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]", run.stdout


def test_scipy_is_a_test_dependency_only():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]

    def names(requirements):
        return {req.split(">")[0].split("=")[0].split("<")[0].strip() for req in requirements}

    assert names(project["dependencies"]) == {"numpy"}
    assert "scipy" in names(project["optional-dependencies"]["test"])


def _uncalled(paths, outside: set) -> list[str]:
    """``module.name`` of each top-level definition in ``paths`` that no code of ``paths`` uses outside its
    own definition, and that is not in ``outside``."""
    trees = {path.stem: _tree(path) for path in paths}
    used = {module: [_identifiers([node]) for node in tree.body] for module, tree in trees.items()}
    uncalled = []
    for module, tree in trees.items():
        elsewhere = outside.union(*(ids for m, nodes in used.items() if m != module for ids in nodes))
        for name, node in _definitions(tree):
            here = [ids for other, ids in zip(tree.body, used[module]) if other is not node]
            if name not in elsewhere and not any(name in ids for ids in here):
                uncalled.append(f"{module}.{name}")
    return uncalled


def test_every_top_level_name_has_a_caller():
    # A caller is code of src/ outside the name's own definition, or anything in
    # benchmarks/, including a dotted string such as "inference.pi_to_theta".
    assert _uncalled(SOURCES, _benchmark_names()) == []


def test_every_top_level_name_of_the_tests_has_a_caller():
    # The same rule within tests/, whose test_* functions and Test* classes pytest calls itself;
    # a test's parameter calls the fixture it names.
    tests = sorted((ROOT / "tests").glob("*.py"))
    collected = {name for path in tests for name, _ in _definitions(_tree(path)) if name.startswith(("test_", "Test"))}
    fixtures = {
        arg.arg
        for path in tests
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
        for arg in node.args.args
    }
    assert _uncalled(tests, collected | fixtures) == []


def test_every_method_and_property_has_a_caller():
    # The top-level rule one level down: a method or property of a src/ class
    # needs a use in src/ outside its own definition, or any use in benchmarks/.
    benchmarks = _benchmark_names()
    trees = [_tree(path) for path in SOURCES]
    uses = Counter(name for tree in trees for name in _names(tree))
    uncalled = [
        f"{cls}.{name}"
        for tree in trees
        for cls, name, node in _members(tree)
        if name not in benchmarks and uses[name] == Counter(_names(node))[name]
    ]
    assert uncalled == []


def test_no_class_is_an_exception_type():
    # The CLI's exit 3 maps builtin ArithmeticErrors: the package raises builtin exceptions and defines none.
    modules = [importlib.import_module("elfkit" if p.stem == "__init__" else f"elfkit.{p.stem}") for p in SOURCES]
    found = [
        f"{module.__name__}.{name}"
        for module in modules
        for name, obj in vars(module).items()
        if isinstance(obj, type) and obj.__module__ == module.__name__ and issubclass(obj, BaseException)
    ]
    assert found == []


def test_every_cli_option_has_a_reader():
    # Each option of a command but --config is read as cfg["<name>"] by its
    # handler cmd_<command> or by a cli function that the handler calls.
    tree = _tree(ROOT / "src" / "elfkit" / "cli.py")
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def reads(name, seen):
        seen.add(name)
        out = set()
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) and node.value.id == "cfg":
                if isinstance(node.slice, ast.Constant):
                    out.add(node.slice.value)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in functions and node.func.id not in seen:
                    out |= reads(node.func.id, seen)
        return out

    unread = [
        f"{command} --{opt.name}"
        for command, opts in OPTIONS.items()
        for opt in opts
        if opt.name != "config" and opt.name not in reads(f"cmd_{command}", set())
    ]
    assert unread == []


def test_every_numeric_cli_option_declares_a_domain():
    # An int or float option has an interval such as "(0, 1]" or "[1, inf)", written or
    # taken from algebra.DOMAINS by name, whose ends parse as floats (or "pi") with the
    # lower at or below the upper; no other option has one.
    bad = []
    for command, opts in OPTIONS.items():
        for opt in opts:
            if opt.type not in (int, float):
                if opt.domain is not None:
                    bad.append(f"{command} --{opt.name}: a {opt.type.__name__} option with a domain")
                continue
            match = re.fullmatch(r"[\[(]([^,]+), ([^,]+)[\])]", opt.domain or "")
            ends = [math.pi if end == "pi" else float(end) for end in match.groups()] if match else None
            if ends is None or not ends[0] <= ends[1]:
                bad.append(f"{command} --{opt.name}: {opt.domain!r}")
    assert bad == []


def test_no_cli_option_restates_a_library_domain():
    # A numeric option named like an entry of algebra.DOMAINS (dashes as underscores) takes
    # that entry by name, so none writes a domain; only the CLI's own options do.
    tree = _tree(ROOT / "src" / "elfkit" / "cli.py")
    restated = [
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Opt"
        if any(kw.arg == "domain" for kw in node.keywords) and node.args[0].value.replace("-", "_") in DOMAINS
    ]
    assert restated == []
