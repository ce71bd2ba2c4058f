"""The program attributes perfbench/ reads.

perfbench's traced mode wraps the functions named in tracer.TRACED and
its worker's probes call the program directly.  The tracer skips a name
its module lacks, and tier-1 never runs the traced mode, so a removed
name would pass unnoticed; these checks name it instead.
"""

import ast
import importlib
import importlib.util
import pathlib

BENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_attributes_exist():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, attrs in tracer.TRACED.items():
        mod = importlib.import_module(f"routestretch.{module}")
        assert [a for a in attrs if not hasattr(mod, a)] == [], module


def test_worker_attributes_exist():
    # every `<module>.<attr>` the worker reads off a routestretch import
    tree = ast.parse((BENCH / "worker.py").read_text(encoding="utf-8"))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "routestretch":
            bound.update((a.asname or a.name, f"routestretch.{a.name}") for a in node.names)
        elif isinstance(node, ast.Import) and any(
            a.name.split(".")[0] == "routestretch" for a in node.names
        ):
            bound["routestretch"] = "routestretch"
    read = {
        (bound[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in bound
    }
    assert ("routestretch.routing", "build_tables") in read
    assert ("routestretch.routing", "route") in read
    missing = [
        f"{module}.{attr}" for module, attr in sorted(read)
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
