"""The test modules keep one definition of each helper: the references
they share live in oracles.py and are imported from there."""

import ast
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
MODULES = sorted(TESTS.glob("*.py"))


def functions(path, nested=False):
    """Names of the functions a module defines at its top level, or at
    any depth when `nested`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    nodes = ast.walk(tree) if nested else tree.body
    return {n.name for n in nodes if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}


def test_each_helper_has_one_definition():
    counts = Counter(name for path in MODULES for name in functions(path))
    assert sorted(n for n, c in counts.items() if c > 1 and not n.startswith("test_")) == []
    shared = functions(TESTS / "oracles.py")
    assert {"floyd_warshall", "clusters_at_level", "bfs", "reference",
            "per_pair_random_graph", "per_line_save_graph", "per_line_save_hierarchy",
            "oracle_failure", "prefix_groups", "eq3_grid_min"} <= shared
    elsewhere = [
        (path.name, name)
        for path in MODULES if path.name != "oracles.py"
        for name in sorted(functions(path, nested=True) & shared)
    ]
    assert elsewhere == []
