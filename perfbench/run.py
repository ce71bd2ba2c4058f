"""Benchmark of the routestretch cluster -> simulate -> fit pipeline.

    python3 perfbench/run.py --workload torus-ladder --seed 0 --seconds 36 --trace 0

Run it from the root of a checkout; it imports the program from src/.
Workloads: torus-ladder, random-dense, torus-cluster (see workloads.py),
or all three in turn with --workload all.

--trace 0 runs timed passes of the workload's CLI steps, each in a
fresh process and each after two fresh-process set-ups of the inputs,
until --seconds have gone by (at least three passes).  It prints the
end-to-end metrics listed in BENCHMARK.json, then the figures in UNGATED,
which BENCHMARK.json lists with the per-layer metrics.

Times are scaled to a reference host speed.  On a shared 2-core host the
cores' speed drifts by up to 2x over seconds to minutes, so whole runs
can land in a slow phase and unscaled times of runs minutes apart differ
by 20-30%.  The worker therefore samples the host's speed every 50 ms
with a short fixed loop (speed.py); a set-up or step's scaled time is
its seconds times REF_CAL_S over the mean sample time during it.
setup_s is the median over the set-ups of their scaled times; wall_s,
cluster_s and simulate_s sum each step's median scaled time over the
passes; peak_rss_mb is the median over the passes.  The unscaled pass
times and the host speed factor are printed beside them.

--trace 1 runs one untraced and one traced pass and prints the per-layer
metrics; the spans are written to .perfbench/trace-<workload>-<seed>.json.

Every output of every pass is checked (checks.py); an operation fails on
a non-zero exit, on a failed check, on a digest that differs from the
recorded reference (reference.json) or from the first clean pass of
this run, or on a count that does not repeat exactly across the passes
of this run.  The benchmarked workloads' inputs do not depend on the
seed, so the reference holds at every seed (see workloads.py).  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread in this process and in every worker it starts
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import secrets  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from speed import REF_CAL_S  # noqa: E402
from tracer import TRACED, duration, self_times  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
STATE = ".perfbench"  # working files, inside the checkout
REFERENCE = os.path.join(HERE, "reference.json")
SETUPS_PER_PASS = 2
MIN_PASSES = 3
DEADLINE_S = 170.0  # a run must end within 180 s

# every layer span the traced run can record, named as in the metrics
LAYERS = [f"{m}.{f}" for m, fs in TRACED.items() for f in fs] + [
    "graphs.all_pairs_shortest_lengths",
    "routing.build_tables",
]
# end-to-end figures printed by --trace 0 but not gated (see BENCHMARK.json):
# simulate_s and pairs_per_s are absent on torus-cluster, and error_rate is 0
# on a correct program; a gated metric must be present and non-zero everywhere
UNGATED = {"simulate_s": "s", "pairs_per_s": "1/s", "error_rate": "ratio"}


class Fatal(Exception):
    """The benchmark cannot measure here; no result is printed."""


def median(values):
    return statistics.median(values) if values else 0.0


def scaled(res: dict) -> float:
    """A set-up's or step's seconds at the reference host speed: its time
    divided by the host's current speed factor, cal_s / REF_CAL_S."""
    return res["seconds"] * REF_CAL_S / res["cal_s"]


class Run:
    """One workload run: set-ups, passes, checks and metrics."""

    def __init__(self, name: str, seed: int, reference: dict, deadline: float):
        self.wl = workloads.WORKLOADS[name]()
        self.name, self.seed = name, seed
        self.env = env_info(seed)
        self.reference = reference.get(name)  # none for torus-ladder-shuffled
        self.deadline = deadline
        self.workdir = os.path.join(STATE, name)
        self.ops: dict[str, list[str]] = {}  # operation -> problems
        self.graphs: dict[str, checks.GraphData] = {}
        self.lines: list[str] = []
        self.setups = 0  # set-ups attempted
        self.setup_s: list[float] = []  # scaled seconds of each clean one
        self.speed: list[float] = []  # host speed factor at each set-up and step
        # digests and counts of each operation's first clean set-up or pass
        self.seen_digests: dict[str, str] = {}
        self.seen_counts: dict[str, dict] = {}

    # -- processes -------------------------------------------------------

    def worker(self, mode: str, op: str, *extra: str) -> dict | None:
        result_path = os.path.join(STATE, f"result-{os.getpid()}.json")
        if os.path.exists(result_path):
            os.remove(result_path)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, self.name,
               str(self.seed), self.workdir, result_path, *extra]
        env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
        try:
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.fail(op, [f"{mode} worker timed out"])
            return None
        if proc.returncode != 0 or not os.path.exists(result_path):
            self.fail(op, [f"{mode} worker exited {proc.returncode}: {proc.stderr[-500:]}"])
            return None
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        os.remove(result_path)
        if not result["program"].startswith(os.path.abspath("src") + os.sep):
            raise Fatal(f"worker imported routestretch from {result['program']}")
        return result

    def fail(self, op: str, problems: list[str]) -> None:
        self.ops.setdefault(op, []).extend(problems)

    def graph(self, file: str) -> checks.GraphData:
        if file not in self.graphs:
            self.graphs[file] = checks.GraphData(os.path.join(self.workdir, file))
        return self.graphs[file]

    # -- checks ----------------------------------------------------------

    def expect(self, op: str, digests: dict, counts: dict | None = None) -> None:
        """Compare with the reference digests and with the first clean set-up
        or pass; a clean operation's digests and counts become the ones to
        repeat."""
        problems = []
        for key, value in digests.items():
            if self.reference is not None and self.reference.get(key) != value:
                problems.append(f"{key} differs from the reference digest")
            elif self.seen_digests.get(key, value) != value:
                problems.append(f"{key} differs from an earlier set-up or pass")
        step = op.split("/", 1)[-1]
        if counts and self.seen_counts.get(step, counts) != counts:
            problems.append(f"counts {counts} drifted from {self.seen_counts[step]}")
        self.fail(op, problems)
        if not self.ops[op]:
            for key, value in digests.items():
                self.seen_digests.setdefault(key, value)
            if counts:
                self.seen_counts.setdefault(step, counts)

    def check_setup(self, op: str, result: dict | None) -> None:
        self.ops.setdefault(op, [])
        if result is not None:
            self.expect(op, {f"input:{f}": sha for f, sha in result["inputs"].items()})

    def check_step(self, step, res: dict, records: list[str]) -> tuple[list[str], dict, dict]:
        out = res["stdout"]
        digests = {f"{step.name}:stdout": checks.sha256(out)}
        counts: dict = {}
        if res["code"] != 0:
            return [f"exit code {res['code']}: {res['stderr'].strip()[-300:]}"], digests, counts
        path = os.path.join(self.workdir, step.hierarchy or "")
        if step.kind == "cluster":
            g = self.graph(step.graph)
            paths = checks.read_hierarchy(path, g.n)
            problems = checks.hierarchy_problems(paths, g, step)
            want = f"clusters per level: {','.join(map(str, step.cluster_counts))}) to {step.hierarchy}\n"
            if not out.endswith(want):
                problems.append(f"cluster stdout {out!r}")
            digests[f"{step.name}:{step.hierarchy}"] = checks.sha256(open(path, "rb").read())
            counts["clusters"] = checks.cluster_count(paths)
        elif step.kind == "simulate":
            g = self.graph(step.graph)
            problems, counts = checks.simulate_problems(out, g, checks.read_hierarchy(path, g.n), step)
            if not records:
                problems.append("no CSV record appended")
            else:
                record = records.pop(0)
                problems += checks.csv_record_problems(record, out)
                digests[f"{step.name}:csv"] = checks.sha256(record)
        elif step.kind == "validate":
            problems = checks.validate_problems(out)
        elif step.kind == "fit":
            rows = checks.read_results(self.read(workloads.RESULTS))
            problems = checks.fit_problems(out, step.model, rows)
        else:
            csv_text, svg = self.read(workloads.CURVE_CSV), self.read(workloads.CURVE_SVG)
            problems = checks.curve_problems(out, csv_text, svg, step)
            digests["curve:csv"] = checks.sha256(csv_text)
            digests["curve:svg"] = checks.sha256(svg)
        return problems, digests, counts

    def read(self, file: str) -> str:
        with open(os.path.join(self.workdir, file), encoding="utf-8") as fh:
            return fh.read()

    def check_pass(self, label: str, result: dict) -> dict:
        """Check every step of a pass; returns the pass's counts per step."""
        results_csv = os.path.join(self.workdir, workloads.RESULTS)
        records = self.read(workloads.RESULTS).splitlines()[1:] if os.path.exists(results_csv) else []
        all_counts = {}
        for step, res in zip(self.wl.steps, result["steps"]):
            op = f"{label}/{step.name}"
            try:
                problems, digests, counts = self.check_step(step, res, records)
            except (OSError, ValueError, KeyError, IndexError, ArithmeticError) as exc:
                problems, digests, counts = [f"output unreadable: {exc!r}"], {}, {}
            self.fail(op, problems)
            self.expect(op, digests, counts)
            all_counts[step.name] = counts
        return all_counts

    # -- measurement -----------------------------------------------------

    def setup(self, repeats: int) -> None:
        """Write the inputs `repeats` more times, each in a fresh process."""
        if not self.setups:
            shutil.rmtree(self.workdir, ignore_errors=True)
            os.makedirs(self.workdir)
        for _ in range(repeats):
            op = f"setup{self.setups}"
            self.setups += 1
            res = self.worker("setup", op)
            self.check_setup(op, res)
            if res is not None:
                self.setup_s.append(scaled(res))
                self.speed.append(res["cal_s"] / REF_CAL_S)
        if not self.setup_s:
            raise Fatal("set-up failed: " + "; ".join(self.ops.get("setup0", [])))

    def pass_time(self, passes: list[dict], kind: str | None = None) -> float:
        """A pass's time in its steps (of one kind): the sum over those
        steps of each step's median scaled time over the passes."""
        return sum(median([scaled(p["steps"][i]) for p in passes])
                   for i, step in enumerate(self.wl.steps) if kind in (None, step.kind))

    def timed(self, seconds: float) -> dict:
        passes, counts = [], None
        start = time.monotonic()
        while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
            longest = max((sum(r["seconds"] for r in p["steps"]) for p in passes), default=0.0)
            if time.monotonic() + 1.5 * longest + 5 > self.deadline:
                self.lines.append(f"stopped after {len(passes)} passes to end within {DEADLINE_S:.0f} s")
                break
            self.setup(SETUPS_PER_PASS)
            res = self.worker("pass", f"pass{len(passes)}")
            if res is None:
                break
            counts = self.check_pass(f"pass{len(passes)}", res)
            passes.append(res)
            self.speed += [r["cal_s"] / REF_CAL_S for r in res["steps"]]
        if not passes:
            raise Fatal("no pass completed: " + "; ".join(p for ps in self.ops.values() for p in ps))
        walls = " ".join(f"{sum(scaled(r) for r in p['steps']):.4g}" for p in passes)
        raw = " ".join(f"{sum(r['seconds'] for r in p['steps']):.4g}" for p in passes)
        over = f"step medians over {len(passes)} passes; scaled pass times {walls}"
        q = statistics.quantiles(self.speed, n=4)
        self.lines.append(f"host speed factor (sample time / {REF_CAL_S} s): median "
                          f"{median(self.speed):.3f}, quartiles {q[0]:.3f} {q[2]:.3f}, "
                          f"{len(self.speed)} samples; unscaled pass times {raw}")
        sim = self.pass_time(passes, "simulate")
        pairs = sum(c.get("pairs", 0) for c in counts.values())
        values = {
            "setup_s": (median(self.setup_s), self.setup_s),
            "wall_s": (self.pass_time(passes), over),
            "cluster_s": (self.pass_time(passes, "cluster"), over),
            "peak_rss_mb": (median(r := [p["maxrss_mb"] for p in passes]), r),
        }
        if pairs:
            values["simulate_s"] = (sim, over)
            values["pairs_per_s"] = (pairs / sim, over)
        return values

    def traced(self, trace_id: str) -> dict:
        self.setup(1)
        plain = self.worker("pass", "untraced")
        if plain is not None:
            self.check_pass("untraced", plain)
        traced = self.worker("trace", "traced/setup", trace_id)
        if plain is None or traced is None:
            raise Fatal("; ".join(p for ps in self.ops.values() for p in ps))
        self.check_setup("traced/setup", traced)
        counts = self.check_pass("traced", traced)
        spans = traced["spans"]
        own = self_times(spans)
        total = {name: 0.0 for name in LAYERS}
        calls = {name: 0 for name in LAYERS}
        for s in spans:
            if s["name"] in total:
                total[s["name"]] += duration(s)
                calls[s["name"]] += 1
        steps = [s for s in spans if s["name"].startswith("cli.")]
        traced_wall = sum(duration(s) for s in steps)
        plain_wall = sum(r["seconds"] for r in plain["steps"])

        # walk = measure minus build_tables (no dist=) for each simulated hierarchy
        walk = 0.0
        step_span = {s["step"]: s for s in steps}
        for s in spans:
            if s["name"] == "routing.build_tables":
                parent = step_span[s["step"]]["id"]
                walk += sum(duration(m) for m in spans
                            if m["name"] == "routing.measure" and m["parent"] == parent)
                walk -= duration(s)

        probe_entries = traced["table_entries"]
        stdout_entries = {k: c["table_entries"] for k, c in counts.items() if "table_entries" in c}
        self.fail("traced/probe", [] if probe_entries == stdout_entries else
                  [f"build_tables entries {probe_entries} != reports {stdout_entries}"])
        us = []
        sample = traced["route_sample"]
        if sample:
            g = self.graph(self.wl.step(sample["step"]).graph)
            self.fail("traced/routes", checks.route_problems(sample["pairs"], sample["routes"], g))
            us = sample["us"]
        quant = statistics.quantiles(us, n=100) if len(us) >= 100 else [0.0] * 99
        hops = sum(c.get("hops", 0) for c in counts.values())
        sim = self.pass_time([plain], "simulate")
        pairs = sum(c.get("pairs", 0) for c in counts.values())

        values = {f"{name}_s": (total[name], calls[name]) for name in LAYERS}
        values.update({name: (v, 1) for name, v in traced["peaks"].items()})
        for name in ("graphs.all_pairs_peak_mb", "hierarchy.build_balanced_peak_mb",
                     "routing.build_tables_peak_mb", "routing.measure_peak_mb"):
            values.setdefault(name, (0.0, 0))
        values.update({
            "hierarchy.clusters": (sum(c.get("clusters", 0) for c in counts.values()), None),
            "routing.table_entries": (sum(probe_entries.values()), None),
            "routing.pairs": (pairs, None),
            "routing.hops": (hops, None),
            "routing.walk_s": (walk, len(probe_entries)),
            "routing.hops_per_s": (hops / walk if walk > 0 else 0.0, None),
            "routing.route_us_p50": (quant[49], len(us)),
            "routing.route_us_p99": (quant[98], len(us)),
            "cli.overhead_s": (sum(v for k, v in own.items() if k.startswith("cli.")), len(steps)),
            # scaled, so the two passes' host speeds do not count as overhead
            "trace.overhead_s": (sum(map(scaled, traced["steps"])) - sum(map(scaled, plain["steps"])), 1),
            "cluster_s": (self.pass_time([plain], "cluster"), 1),
            "simulate_s": (sim, 1),
            "pairs_per_s": (pairs / sim if sim > 0 else 0.0, 1),
        })
        self.lines.append(f"traced step time {traced_wall:.4f} s, untraced {plain_wall:.4f} s "
                          f"(unscaled)")
        self.lines.append("layer (calls, total s, self s, share of traced step time):")
        for name in LAYERS:
            if calls[name]:
                self.lines.append(f"  {name}: {calls[name]}, {total[name]:.4f}, "
                                  f"{own[name]:.4f}, {total[name] / traced_wall:.1%}")
        self.lines.append(f"  routing.walk: -, {walk:.4f}, -, {walk / traced_wall:.1%}")
        self.lines.append(f"  cli (self): {len(steps)}, -, {values['cli.overhead_s'][0]:.4f}, "
                          f"{values['cli.overhead_s'][0] / traced_wall:.1%}")
        with open(os.path.join(STATE, f"trace-{self.name}-{self.seed}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"trace_id": trace_id, "env": self.env, "spans": spans, "self_s": own,
                       "untraced_wall_s": plain_wall, "traced_wall_s": traced_wall}, fh)
        return values


def env_info(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "loadavg": os.getloadavg()[0],
    }


def run_one(name: str, seed: int, seconds: float, trace: bool, reference: dict,
            spec: dict) -> tuple[list[str], dict]:
    deadline = time.monotonic() + DEADLINE_S
    run = Run(name, seed, reference, deadline)
    lines = [f"workload {name} seed {seed} trace {int(trace)}", f"env: {json.dumps(run.env)}"]
    if trace:
        values = run.traced(f"{name}-{seed}-{secrets.token_hex(4)}")
        listed = spec["per_layer"]
    else:
        values = run.timed(seconds)
        listed = spec["end_to_end"]
    attempted = len(run.ops)
    failed = sum(1 for problems in run.ops.values() if problems)
    values["error_rate"] = (failed / attempted, f"{failed} of {attempted} operations failed")
    lines += run.lines
    metrics = {}
    for m in listed:
        value, samples = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        lines.append(_metric_line(m["name"], value, samples, m["unit"]))
    if not trace:
        for name, unit in UNGATED.items():
            if name in values:
                lines.append(_metric_line(name, *values[name], unit))
            else:
                lines.append(f"{name}: not measured, the workload has no simulate step")
    for op, problems in run.ops.items():
        for p in problems[:3]:
            lines.append(f"FAILED {op}: {p}")
    return lines, {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": metrics}


def _metric_line(name: str, value: float, samples, unit: str) -> str:
    line = f"{name} = {value:.6g} {unit}"
    if isinstance(samples, list):
        line += f"  (median of {len(samples)}: {' '.join(f'{v:.4g}' for v in samples)})"
    elif isinstance(samples, int):
        line += f"  (n={samples})"
    elif samples:
        line += f"  ({samples})"
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="how long to run passes; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", default=REFERENCE,
                        help="reference digests (JSON); the self-test passes a wrong one")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "routestretch", "cli.py")):
        print("run.py: no src/routestretch here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    with open(args.reference, encoding="utf-8") as fh:
        reference = json.load(fh)
    os.makedirs(STATE, exist_ok=True)
    names = workloads.BENCHMARKED if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            lines, result = run_one(name, args.seed, seconds, bool(args.trace),
                                    reference, spec)
        except Fatal as exc:
            print(f"run.py: {name}: {exc}", file=sys.stderr)
            return 3
        print("\n".join(lines), flush=True)
        results[name] = result
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
