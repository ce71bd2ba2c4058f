"""Output checks that do not use the code under test.

Graph and hierarchy files are parsed here, hop distances come from the
benchmark's own BFS, table lengths are counted from the hierarchy file,
and fits and curves are recomputed from the formulas in the README.
Every check returns a list of problems; an empty list means the output
is correct.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter, deque

import numpy as np

REL = 1e-9  # reports print 10 significant digits


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _close(a: float, b: float, rel: float = REL, abs_tol: float = 0.0) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


class GraphData:
    """A graph file parsed by the benchmark, with its own BFS distances."""

    def __init__(self, path: str):
        with open(path, encoding="utf-8") as fh:
            lines = [ln.split() for ln in fh if ln.strip() and not ln.startswith("#")]
        if not lines or lines[0][0] != "n":
            raise ValueError(f"{path}: no 'n <count>' header")
        self.n = int(lines[0][1])
        self.edges = {(int(u), int(v)) for u, v in lines[1:]}
        self.adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            self.adj[u].append(v)
            self.adj[v].append(u)
        self._dist: np.ndarray | None = None

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def distances(self) -> np.ndarray:
        """All-pairs hop counts by breadth-first search on the boolean
        adjacency matrix, one matrix product per BFS layer."""
        if self._dist is None:
            n = self.n
            adj = np.zeros((n, n), dtype=np.float32)
            for u, v in self.edges:
                adj[u, v] = adj[v, u] = 1.0
            dist = np.full((n, n), -1, dtype=np.int32)
            np.fill_diagonal(dist, 0)
            reached = np.eye(n, dtype=bool)
            frontier = np.eye(n, dtype=np.float32)
            depth = 0
            while True:
                nxt = ((frontier @ adj) > 0) & ~reached
                if not nxt.any():
                    break
                depth += 1
                dist[nxt] = depth
                reached |= nxt
                frontier = nxt.astype(np.float32)
            if not reached.all():
                raise ValueError("graph is not connected")
            self._dist = dist
        return self._dist

    def mean_shortest(self) -> float:
        return int(self.distances().sum(dtype=np.int64)) / (self.n * (self.n - 1))


def read_hierarchy(path: str, n: int) -> list[tuple[int, ...]]:
    rows: dict[int, tuple[int, ...]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip() or line.startswith("#"):
                continue
            u, *label = map(int, line.split())
            if u in rows:
                raise ValueError(f"{path}: node {u} listed twice")
            rows[u] = tuple(label)
    if sorted(rows) != list(range(n)):
        raise ValueError(f"{path}: does not list nodes 0..{n - 1} once each")
    return [rows[u] for u in range(n)]


def _connected(members: list[int], adj: list[list[int]]) -> bool:
    inside = set(members)
    seen = {members[0]}
    queue = deque([members[0]])
    while queue:
        for w in adj[queue.popleft()]:
            if w in inside and w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(inside)


def hierarchy_problems(paths, graph: GraphData, step) -> list[str]:
    """Partition, nesting and connectivity, the expected cluster count per
    level, and for balanced clusterings sibling sizes within one."""
    if any(len(p) != step.levels - 1 for p in paths):
        return [f"label paths are not all of length {step.levels - 1}"]
    problems = []
    for k in range(step.levels - 1):
        groups: dict[int, list[int]] = {}
        for u, p in enumerate(paths):
            groups.setdefault(p[k], []).append(u)
        if len(groups) != step.cluster_counts[k]:
            problems.append(f"level {k + 1}: {len(groups)} clusters, want {step.cluster_counts[k]}")
        siblings: dict[tuple[int, ...], list[int]] = {}
        for cid, members in groups.items():
            prefixes = {paths[u][:k] for u in members}
            if len(prefixes) != 1:
                problems.append(f"level {k + 1} cluster {cid} spans {len(prefixes)} parents")
            siblings.setdefault(paths[members[0]][:k], []).append(len(members))
            if not _connected(members, graph.adj):
                problems.append(f"level {k + 1} cluster {cid} is not connected")
        if step.balanced:
            for prefix, sizes in siblings.items():
                if max(sizes) - min(sizes) > 1:
                    problems.append(f"level {k + 1} under {prefix}: unbalanced sizes {sizes}")
    return problems


def cluster_count(paths) -> int:
    return sum(len({p[k] for p in paths}) for k in range(len(paths[0])))


def table_entries(paths) -> int:
    """Sum of table lengths: per node its own leaf cluster (itself
    included) plus, per level, the sibling clusters under its parent."""
    leaf = Counter(paths)
    depth = len(paths[0])
    children = [Counter(q[:k] for q in {p[: k + 1] for p in paths}) for k in range(depth)]
    return sum(leaf[p] + sum(children[k][p[:k]] - 1 for k in range(depth)) for p in paths)


def parse_fields(text: str) -> dict[str, str]:
    fields = {}
    for line in text.splitlines():
        if ": " in line and not line.startswith(" "):
            key, value = line.split(": ", 1)
            fields[key] = value
    return fields


def parse_histogram(text: str) -> list[tuple[int, int]]:
    lines = text.splitlines()
    start = lines.index("histogram:") + 1
    return [tuple(map(int, ln.strip().split(": "))) for ln in lines[start:]]


def simulate_problems(text: str, graph: GraphData, paths, step) -> tuple[list[str], dict]:
    """Check a simulate report against the benchmark's own BFS and table
    count; returns the problems and the exact counts behind the report."""
    rep = parse_fields(text)
    hist = parse_histogram(text)
    n = graph.n
    pairs = n * (n - 1)
    hops = sum(length * count for length, count in hist)
    entries = table_entries(paths)
    problems = []
    if int(rep["n"]) != n or int(rep["levels"]) != step.levels:
        problems.append(f"n/levels {rep['n']}/{rep['levels']}, want {n}/{step.levels}")
    if sum(c for _, c in hist) != pairs or min(length for length, _ in hist) < 1:
        problems.append("histogram does not cover every ordered pair with a route of >= 1 hop")
    s_p, s_t = float(rep["s_p"]), float(rep["s_t"])
    mean_table = float(rep["mean_table_length"])
    mean_short = float(rep["mean_shortest_path"])
    mean_hier = float(rep["mean_hier_path"])
    if not s_p >= 1:
        problems.append(f"s_p {s_p} < 1")
    # each printed figure against its exact value: a ratio of two printed
    # figures can be off by twice their rounding, more than REL allows
    own_short = graph.mean_shortest()
    if not _close(s_t, entries / n / n):
        problems.append(f"s_t {s_t} != {entries}/{n}/{n} from the hierarchy")
    if not _close(mean_table, entries / n):
        problems.append(f"mean_table_length {mean_table} != {entries}/{n} from the hierarchy")
    if not _close(mean_short, own_short):
        problems.append(f"mean_shortest_path {mean_short} != own BFS {own_short}")
    if not _close(mean_hier, hops / pairs):
        problems.append(f"mean_hier_path {mean_hier} != {hops}/{pairs} from the histogram")
    if not _close(s_p, hops / pairs / own_short):
        problems.append(f"s_p {s_p} != {hops / pairs / own_short} from the histogram and own BFS")
    if not float(rep["mean_path_ratio"]) >= 1:
        problems.append(f"mean_path_ratio {rep['mean_path_ratio']} < 1")
    if step.s_t is not None and s_t != step.s_t:
        problems.append(f"s_t {s_t}, frozen value {step.s_t}")
    return problems, {"table_entries": entries, "pairs": pairs, "hops": hops}


def csv_record_problems(record: str, report: str) -> list[str]:
    rep = parse_fields(report)
    want = [rep["n"], rep["levels"], rep["method"], rep["s_p"], rep["s_t"],
            rep["mean_table_length"], rep["mean_hier_path"], rep["mean_shortest_path"]]
    return [] if record.split(",") == want else [f"CSV record {record!r} != report {want}"]


def read_results(csv_text: str) -> list[dict[str, float]]:
    lines = csv_text.splitlines()
    header = lines[0].split(",")
    return [
        {k: float(v) for k, v in zip(header, ln.split(",")) if k != "method"}
        for ln in lines[1:]
    ]


FIT_MODELS = {"linear": "linear-theorem1", "ipea": "ipea-log", "eq3": "eq3"}


def _eq3_sse(alpha: float, pts, n: int) -> float:
    total = 0.0
    for sp, st in pts:
        m = 1.0 + (sp - 1.0) / alpha
        total += (st - m * n ** (1.0 / m - 1.0)) ** 2
    return total


def fit_problems(text: str, model: str, rows: list[dict[str, float]]) -> list[str]:
    """Recompute the fit from the results CSV: closed-form slopes for
    linear and ipea; for eq3 the reported residual at the reported alpha
    and that alpha being a local minimum."""
    rep = parse_fields(text)
    alpha, sse = float(rep["alpha_hat"]), float(rep["residual_sse"])
    r2 = float(rep["r_squared"])
    problems = []
    if rep["model"] != FIT_MODELS[model] or int(rep["n_points"]) != len(rows):
        problems.append(f"model/n_points {rep['model']}/{rep['n_points']}")
    if not (math.isfinite(alpha) and alpha > 0 and sse >= 0 and r2 <= 1):
        return problems + [f"alpha {alpha}, sse {sse}, r2 {r2} out of range"]
    if model == "eq3":
        pts = [(r["s_p"], r["s_t"]) for r in rows]
        n = int(rows[0]["n"])
        own = _eq3_sse(alpha, pts, n)
        if not _close(own, sse, rel=1e-6, abs_tol=1e-15):
            problems.append(f"eq3 residual {sse} != {own} at alpha {alpha}")
        if min(_eq3_sse(alpha * f, pts, n) for f in (0.999, 1.001)) < own * (1 - 1e-9):
            problems.append(f"eq3 alpha {alpha} is not a local minimum")
        observed = [st for _, st in pts]
    else:
        if model == "linear":
            xs = [r["levels"] - 1.0 for r in rows]
        else:
            xs = [-math.log(r["s_t"]) for r in rows]
        ys = [r["s_p"] - 1.0 for r in rows]
        want = sum(x * y for x, y in zip(xs, ys)) / sum(x * x for x in xs)
        own = sum((y - want * x) ** 2 for x, y in zip(xs, ys))
        if not _close(alpha, want, rel=1e-8) or not _close(sse, own, rel=1e-6, abs_tol=1e-15):
            problems.append(f"{model} fit {alpha}/{sse}, recomputed {want}/{own}")
        observed = [r["s_p"] for r in rows]
    mean = sum(observed) / len(observed)
    sst = sum((y - mean) ** 2 for y in observed)
    if sst > 0 and not _close(r2, 1 - sse / sst, rel=1e-6, abs_tol=1e-9):
        problems.append(f"r_squared {r2} != {1 - sse / sst}")
    return problems


def curve_problems(stdout: str, csv_text: str, svg_text: str, step) -> list[str]:
    """Every row of the analytic curve against s_t = m * N**(1/m - 1)
    with m = 1 + (s_p - 1)/alpha, alpha = 0.987."""
    alpha = 0.987
    count = int(math.floor(4.0 / step.curve_step + 1e-9)) + 1
    lines = csv_text.splitlines()
    problems = []
    if lines[0] != "N,alpha,s_p,m,s_t" or len(lines) != count + 1:
        problems.append(f"curve CSV has {len(lines) - 1} rows, want {count}")
    if stdout != f"wrote {count} rows to curve.csv\n":
        problems.append(f"curve stdout {stdout!r}")
    for i, line in enumerate(lines[1:]):
        n, a, s_p, m, s_t = (float(x) for x in line.split(","))
        want_sp = 1.0 + i * step.curve_step
        want_m = 1.0 + (want_sp - 1.0) / alpha
        want_st = want_m * step.n_nodes ** (1.0 / want_m - 1.0)
        if not (n == step.n_nodes and a == alpha and _close(s_p, want_sp)
                and _close(m, want_m) and _close(s_t, want_st)):
            problems.append(f"curve row {i}: {line}")
            break
    if not (svg_text.startswith("<svg") and svg_text.rstrip().endswith("</svg>")
            and "<polyline" in svg_text):
        problems.append("curve SVG is not a chart with a polyline")
    return problems


def validate_problems(stdout: str) -> list[str]:
    lines = stdout.splitlines()
    if not lines or lines[-1] != "all checks passed" or any(ln.startswith("FAIL") for ln in lines):
        return [f"validate did not pass: {lines[-3:]}"]
    if not any(ln.startswith("PASS files ") for ln in lines):
        return ["validate did not check the files"]
    return []


def route_problems(pairs, routes, graph: GraphData) -> list[str]:
    """Each sampled route starts and ends where asked, uses real edges and
    is never shorter than the BFS distance."""
    dist = graph.distances()
    problems = []
    for (src, dst), hops in zip(pairs, routes):
        if hops[0] != src or hops[-1] != dst:
            problems.append(f"route {src}->{dst} not delivered: {hops[:3]}...{hops[-3:]}")
        elif not all(graph.has_edge(u, v) for u, v in zip(hops, hops[1:])):
            problems.append(f"route {src}->{dst} leaves the graph's edges")
        elif len(hops) - 1 < dist[src, dst]:
            problems.append(f"route {src}->{dst} shorter than BFS distance {dist[src, dst]}")
        if len(problems) >= 5:
            break
    return problems
