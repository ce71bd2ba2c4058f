"""One set-up, timed pass or traced pass of a workload, in a fresh process.

    python3 perfbench/worker.py MODE WORKLOAD SEED WORKDIR RESULT_JSON [TRACE_ID]

MODE is setup, pass or trace.  run.py starts this with PYTHONPATH set to
the checkout's src/ and the BLAS thread variables pinned to 1, and reads
RESULT_JSON when it exits.  Steps call routestretch.cli.main with the
workload's command lines from inside WORKDIR, so the program sees only
the generated files.  Host speed is sampled throughout (speed.py), so
that run.py can scale each set-up and step time to a reference speed.
"""

from __future__ import annotations

import time

import speed

speed.start()  # before the set-up clock starts: the first sample is not set-up work
T0 = time.perf_counter()  # set-up time includes importing the program

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402

import workloads  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402

ROUTE_SAMPLE = 2000  # p99 then has 20 samples beyond it


def make_inputs(wl, seed: int) -> dict[str, str]:
    """Write the workload's input graphs; returns their sha256 digests."""
    from routestretch import graphs

    for name, spec in wl.inputs.items():
        spec = dict(spec)
        g = graphs.generate(spec.pop("topology"), **spec)
        if wl.relabel:
            perm = workloads.permutation(g.n_nodes, seed)
            g = graphs.Graph(g.n_nodes, [(perm[u], perm[v]) for u, v in g.edges])
        graphs.save(g, name)
    digests = {}
    for name in wl.inputs:
        with open(name, "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def run_steps(wl, tracer: Tracer | None = None) -> list[dict]:
    from routestretch import cli

    for name in os.listdir("."):
        if name not in wl.inputs:
            os.remove(name)
    results = []
    for step in wl.steps:
        out, err = io.StringIO(), io.StringIO()
        span = tracer.span(f"cli.{step.kind}", step=step.name) if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(step.argv))
            except Exception:  # a crash is a failed step, not a failed benchmark
                traceback.print_exc()
                code = -1
        results.append({
            "name": step.name,
            "code": code,
            "interval": (start, time.perf_counter()),
            "stdout": out.getvalue(),
            "stderr": err.getvalue()[-2000:],
        })
    return results


def peak_mb(fn, *args) -> float:
    """Peak MiB that fn(*args) allocates above what was held when it started."""
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    fn(*args)
    return (tracemalloc.get_traced_memory()[1] - base) / 2**20


def trace(wl, seed: int, trace_id: str) -> dict:
    """Spans around every traced layer call of one pass, then probes the
    pass does not make itself: APSP and build_tables without dist= for
    each simulated hierarchy, and route() latency on seeded pairs.  Peak
    memory comes last, from tracemalloc, so it does not slow the spans."""
    import importlib

    from routestretch import graphs, hierarchy, routing

    # unwrapped, so probes and memory peaks do not add to the pass's spans
    load_graph, load_hier, build_balanced = graphs.load, hierarchy.load, hierarchy.build_balanced
    apsp, build_tables, measure = graphs.all_pairs_shortest_lengths, routing.build_tables, routing.measure
    tracer = Tracer(trace_id)
    for module, attrs in TRACED.items():
        tracer.patch(importlib.import_module(f"routestretch.{module}"), attrs)

    with tracer.span("setup"):
        inputs = make_inputs(wl, seed)
    steps = run_steps(wl, tracer)
    # no samples in the probes: they would count in route() latency and in
    # the tracemalloc peaks
    speed.stop()

    # probes only where the pass's own step succeeded
    ok = {res["name"] for res in steps if res["code"] == 0}
    sims = [s for s in wl.simulate_steps if s.name in ok]
    entries: dict[str, int] = {}
    sample: dict = {}
    with tracer.span("probe"):
        loaded = {f: load_graph(f) for f in {s.graph for s in sims}}
        for f, g in loaded.items():
            with tracer.span("graphs.all_pairs_shortest_lengths", graph=f):
                apsp(g)
        tables = None
        for s in sims:
            h = load_hier(s.hierarchy)
            with tracer.span("routing.build_tables", step=s.name):
                tables = build_tables(loaded[s.graph], h)
            entries[s.name] = sum(t.length for t in tables)
        if sims:
            g = loaded[sims[-1].graph]
            rng = random.Random(f"routes-{seed}")
            pairs = [tuple(rng.sample(range(g.n_nodes), 2)) for _ in range(ROUTE_SAMPLE)]
            routes, us = [], []
            for src, dst in pairs:
                start = time.perf_counter_ns()
                hops = routing.route(tables, g, h, src, dst)
                us.append((time.perf_counter_ns() - start) / 1000.0)
                routes.append(hops)
            sample = {"step": sims[-1].name, "pairs": pairs, "routes": routes, "us": us}
        del tables

    peaks: dict[str, float] = {}
    tracemalloc.start()
    try:
        with tracer.span("memory"):
            clusters = [s for s in wl.steps if s.kind == "cluster" and s.name in ok]
            if clusters:
                deepest = max(clusters, key=lambda s: s.levels)
                g = load_graph(deepest.graph)
                peaks["hierarchy.build_balanced_peak_mb"] = peak_mb(
                    build_balanced, g, deepest.levels, 2)
            if sims:
                g, h = load_graph(sims[0].graph), load_hier(sims[0].hierarchy)
                peaks["graphs.all_pairs_peak_mb"] = peak_mb(apsp, g)
                peaks["routing.build_tables_peak_mb"] = peak_mb(build_tables, g, h)
                peaks["routing.measure_peak_mb"] = peak_mb(measure, g, h)
    finally:
        tracemalloc.stop()

    return {
        "inputs": inputs,
        "steps": steps,
        "spans": tracer.spans,
        "table_entries": entries,
        "route_sample": sample,
        "peaks": peaks,
    }


def main(argv: list[str]) -> int:
    mode, name, seed, workdir, result_path = argv[:5]
    seed = int(seed)
    wl = workloads.WORKLOADS[name]()
    result_path = os.path.abspath(result_path)
    os.chdir(workdir)
    if mode == "setup":
        inputs = make_inputs(wl, seed)
        result = {"interval": (T0, time.perf_counter()), "inputs": inputs}
    elif mode == "pass":
        import routestretch.cli  # noqa: F401  warm before the clock starts

        result = {"steps": run_steps(wl)}
    elif mode == "trace":
        result = trace(wl, seed, argv[5])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    speed.stop()
    for timed in [result, *result.get("steps", [])]:
        if "interval" in timed:
            timed["seconds"], timed["cal_s"] = speed.measure(*timed.pop("interval"))
    import routestretch

    result["program"] = routestretch.__file__
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
