"""The program attributes perfbench/ reads, and one run of each workload.

perfbench's traced mode wraps the functions named in tracer.TRACED and
its worker's probes call the program directly.  The tracer skips a name
its module lacks, so a removed name would pass unnoticed; the first two
checks name it instead.  The last runs the toy workload traced, which
calls every worker probe, and each benchmarked workload for one second
untraced.  Every run checks every step's output against the digests in
perfbench/reference.json, so a changed signature, or one byte of drift
in a graph, hierarchy, report, fit, curve or SVG, fails it too.
"""

import ast
import importlib
import importlib.util
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"


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


@pytest.mark.parametrize("workload", ["toy", "torus-ladder", "random-dense", "torus-cluster"])
def test_perfbench_run_is_correct(tmp_path, workload):
    trace = "1" if workload == "toy" else "0"
    skip = shutil.ignore_patterns("__pycache__", ".perfbench")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", trace],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), done.stdout
