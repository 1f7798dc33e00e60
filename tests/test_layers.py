"""The package's modules form layers: each imports only from the modules
below it, and imports nothing it does not use."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cbo"
# bottom to top: a module may import from the modules before it
ORDER = ["errors", "rng", "objectives", "dynamics", "theory", "harness", "config", "cli"]
MODULES = sorted(p for p in SRC.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_imports_go_down_the_layers_and_are_used(path):
    assert path.stem in ORDER, f"{path.stem} has no place in the layer order"
    below = ORDER[: ORDER.index(path.stem)]
    tree = ast.parse(path.read_text())
    upward, bound = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            if node.level:
                # "from .x import a" imports x, "from . import x" imports x
                targets = [node.module] if node.module else [a.name for a in node.names]
                upward += [t for t in targets if t not in below]
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)
    assert upward == [], f"{path.stem} imports from modules above it: {upward}"
    assert unused == [], f"{path.stem} imports names it does not use: {unused}"


def test_only_rng_starts_kills_or_reaps_a_process():
    """One class in ``cbo.rng`` owns a forked child's life: its fork, its
    exit, its kill and its reaping are each written once, there."""
    lifecycle = {"fork", "_exit", "kill", "waitpid"}
    calls = sorted(
        (path.stem, node.func.attr)
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "os"
        and node.func.attr in lifecycle
    )
    assert calls == [("rng", name) for name in sorted(lifecycle)]


def test_the_one_squared_norm_is_objectives_squared_norms():
    """The squared norm of the objectives and of V is written once: the
    package's only ``np.einsum`` is inside ``objectives.squared_norms``."""
    calls = [
        (path.stem, node.lineno)
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "np"
        and node.func.attr == "einsum"
    ]
    helper = next(
        node for node in ast.parse((SRC / "objectives.py").read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name == "squared_norms"
    )
    assert len(calls) == 1, calls
    (stem, line), = calls
    assert stem == "objectives" and helper.lineno <= line <= helper.end_lineno
