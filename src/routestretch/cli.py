"""Command-line toolkit for the hierarchical-routing stretch tradeoff.

Subcommands: curve, gen, cluster, simulate, fit, validate.
Exit codes: 0 success, 1 usage error, 2 domain or validation error,
3 I/O error.

A process builds one argument parser, on its first ``main`` call (not
at import), and every later call reuses it: a run of many steps in one
process pays for the parser once.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import random
import sys
import warnings
from itertools import chain

from . import analytic, fitting, graphs, hierarchy, routing, svgplot

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_IO = 3

DEFAULT_CURVE_SIZES = [10, 100, 1000, 10000, 100000]


# the options each choice reads, for the subcommands whose options hang
# on a choice: gen's topology, cluster's method and fit's model.  The
# choice needs each one unless it is in brackets.  An option given that
# the choice does not read, or one it needs and was not given, is a
# usage error.
_READS = {
    "gen": ("topology", {"ring": ("--n",), "grid": ("--rows", "--cols"),
                         "torus": ("--rows", "--cols"),
                         "random": ("--n", "--p", "[--seed]")}),
    "cluster": ("method", {"balanced": ("[--levels]", "[--branching]"),
                           "grid": ("--rows", "--cols", "--block-rows", "--block-cols")}),
    "fit": ("model", {"linear": (), "eq3": ("[--n-nodes]",), "ipea": ()}),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit with 1, and which can
    run `check` on what it parsed: a message it returns is a usage error."""

    def __init__(self, *args, check=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.check = check

    # argparse exits with 2 on bad usage; this tool reserves 2 for domain errors
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        problem = self.check and self.check(namespace)
        if problem:
            self.error(problem)
        return namespace, extras


def _given(args, flag: str) -> bool:
    return getattr(args, flag[2:].replace("-", "_")) is not None


def _choice_options(command: str, args) -> str | None:
    """A usage error naming the options given to `command` that its
    choice does not read, else one naming those it needs and was not
    given (see _READS), or None."""
    name, reads = _READS[command]
    choice = getattr(args, name)
    read = [flag.strip("[]") for flag in reads[choice]]
    unread = [
        flag
        for flag in dict.fromkeys(f.strip("[]") for f in chain.from_iterable(reads.values()))
        if flag not in read and _given(args, flag)
    ]
    if unread:
        return f"the {choice} {name} does not read {', '.join(unread)}"
    missing = [flag for flag in reads[choice] if flag[0] != "[" and not _given(args, flag)]
    if missing:
        return f"the {choice} {name} needs {', '.join(missing)}"
    return None


def _cluster_options(args) -> str | None:
    """_choice_options for cluster, else a usage error unless grid's
    block options hold one value per level; None when the options fit."""
    problem = _choice_options("cluster", args)
    if problem or args.method != "grid" or len(args.block_rows) == len(args.block_cols):
        return problem
    return (
        "--block-rows and --block-cols need one value per level "
        f"(got {len(args.block_rows)} and {len(args.block_cols)})"
    )


def _validate_files(args) -> str | None:
    """A usage error unless --graph and --hierarchy come together or not
    at all, else None."""
    if bool(args.graph) != bool(args.hierarchy):
        return "--graph and --hierarchy must be given together"
    return None


def _method_tag(tag: str) -> str:
    """A --method-tag value: one field of a CSV record and one line of a
    report, so it holds no comma, double quote, carriage return or line
    feed."""
    if any(c in tag for c in ',"\r\n'):
        raise argparse.ArgumentTypeError(
            f"method tag {tag!r} holds a comma, a double quote or a line break"
        )
    return tag


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call."""
    parser = _Parser(prog="routestretch", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curve", help="tabulate analytic tradeoff curves")
    p.add_argument("--n-nodes", type=int, nargs="+", default=DEFAULT_CURVE_SIZES,
                   metavar="N", help="network sizes, one series each")
    p.add_argument("--alpha", type=float, default=analytic.DEFAULT_ALPHA)
    p.add_argument("--s-p-min", type=float, default=1.0)
    p.add_argument("--s-p-max", type=float, default=5.0)
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--svg", help="optional SVG chart path")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("gen", help="generate a graph file",
                       check=functools.partial(_choice_options, "gen"))
    p.add_argument("topology", choices=list(_READS["gen"][1]))
    p.add_argument("--n", type=int, help="node count (ring, random)")
    p.add_argument("--rows", type=int, help="rows (grid, torus)")
    p.add_argument("--cols", type=int, help="cols (grid, torus)")
    p.add_argument("--p", type=float, help="edge probability (random)")
    p.add_argument("--seed", type=int)  # None when not given; random uses 0
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("cluster", help="build a hierarchy over a graph",
                       check=_cluster_options)
    p.add_argument("--graph", required=True)
    p.add_argument("--method", choices=list(_READS["cluster"][1]), default="balanced")
    # None when not given, so grid can reject them; balanced uses 2
    p.add_argument("--levels", type=int, help="balanced: level count (default 2)")
    p.add_argument("--branching", type=int, help="balanced: parts per split (default 2)")
    p.add_argument("--rows", type=int, help="grid: grid rows")
    p.add_argument("--cols", type=int, help="grid: grid cols")
    p.add_argument("--block-rows", type=int, nargs="+", metavar="R",
                   help="grid: block rows, one value per level")
    p.add_argument("--block-cols", type=int, nargs="+", metavar="C",
                   help="grid: block cols, one value per level")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("simulate", help="measure stretch of a (graph, hierarchy) pair")
    p.add_argument("--graph", required=True)
    p.add_argument("--hierarchy", required=True)
    p.add_argument("--method-tag", type=_method_tag,
                   help="clustering-method tag for the report")
    p.add_argument("--report", help="write the text report here (also printed)")
    p.add_argument("--csv", help="append one CSV record here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="estimate alpha from a results CSV",
                       check=functools.partial(_choice_options, "fit"))
    p.add_argument("--input", required=True, help="CSV with measurement rows")
    p.add_argument("--model", choices=list(_READS["fit"][1]), default="linear")
    p.add_argument("--n-nodes", type=int, help="network size (eq3; else inferred)")
    p.add_argument("--out", help="write the fit report here (also printed)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("validate", help="run the built-in invariant suite",
                       check=_validate_files)
    p.add_argument("--alpha", type=float, default=analytic.DEFAULT_ALPHA)
    p.add_argument("--graph", help="optional graph file to check")
    p.add_argument("--hierarchy", help="optional hierarchy file to check against --graph")
    p.set_defaults(func=cmd_validate)

    return parser


def cmd_curve(args) -> int:
    series = []
    for n in args.n_nodes:
        params = analytic.AnalyticParams(n_nodes=n, alpha=args.alpha)
        series.append(analytic.sweep_curve(params, args.s_p_min, args.s_p_max, args.step))
    # one template over every row; "%.10g" formats a double as routing._fmt does
    rows = [(cs.n_nodes, cs.alpha, *point) for cs in series for point in cs.points]
    text = ("N,alpha,s_p,m,s_t\n" + "%d,%.10g,%.10g,%.10g,%.10g\n" * len(rows)) % tuple(
        chain.from_iterable(rows)
    )
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    if args.svg:
        chart = [
            (f"N={cs.n_nodes}", [(p[0], p[2]) for p in cs.points]) for cs in series
        ]
        svgplot.write_line_chart(
            args.svg, chart, "path stretch s_p", "table stretch s_t",
            title="table stretch vs path stretch",
        )
    print(f"wrote {sum(len(cs.points) for cs in series)} rows to {args.out}")
    return EXIT_OK


def cmd_gen(args) -> int:
    g = graphs.generate(
        args.topology,
        n=args.n,
        rows=args.rows,
        cols=args.cols,
        edge_prob=args.p,
        seed=args.seed or 0,
    )
    graphs.save(g, args.out)
    print(f"wrote {args.topology} graph ({g.n_nodes} nodes, {g.num_edges} edges) to {args.out}")
    return EXIT_OK


def cmd_cluster(args) -> int:
    g = graphs.load(args.graph)
    if args.method == "balanced":
        h = hierarchy.build_balanced(
            g,
            2 if args.levels is None else args.levels,
            2 if args.branching is None else args.branching,
        )
    else:
        h = hierarchy.build_grid_blocks(
            g, args.rows, args.cols, list(zip(args.block_rows, args.block_cols))
        )
    hierarchy.save(h, args.out)
    counts = ",".join(map(str, hierarchy.stats(h))) or "-"
    print(
        f"wrote {h.levels}-level hierarchy ({h.method}; clusters per level: {counts}) "
        f"to {args.out}"
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    g = graphs.load(args.graph)
    h = hierarchy.load(args.hierarchy)
    problems = hierarchy.validate(h, g)
    if problems:
        for p in problems:
            print(f"invalid hierarchy: {p}", file=sys.stderr)
        return EXIT_DOMAIN
    report = routing.measure(g, h, method=args.method_tag)
    text = report.to_text()
    print(text, end="")
    if args.report:
        with open(args.report, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    if args.csv:
        with open(args.csv, "a+b") as fh:
            end = fh.seek(0, io.SEEK_END)
            if end == 0:  # a missing or empty file gets the header
                lead = routing.StretchReport.CSV_HEADER + "\n"
            else:  # and an unended last line its line end
                fh.seek(end - 1)
                lead = "" if fh.read(1) == b"\n" else "\n"
            fh.write(f"{lead}{report.csv_record()}\n".encode("utf-8"))
    return EXIT_OK


def _read_csv_columns(path: str, columns: list[str]) -> list[tuple[float, ...]]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty CSV")
        missing = [c for c in columns if c not in reader.fieldnames]
        if missing:
            raise ValueError(
                f"{path}: missing column(s) {', '.join(missing)} "
                f"(have: {', '.join(reader.fieldnames)})"
            )
        rows = []
        for row in reader:
            values = []
            for c in columns:
                try:
                    v = float(row[c])  # a short row holds None: TypeError
                except (TypeError, ValueError):
                    v = math.nan
                if not math.isfinite(v):
                    raise ValueError(
                        f"{path}: line {reader.line_num}: {c} is not a finite "
                        f"number ({row[c]!r})"
                    )
                values.append(v)
            rows.append(tuple(values))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return rows


def _warned(fit, *args):
    """fit(*args), each warning it gives printed to stderr as a
    `routestretch: warning:` line, in order, also when it raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return fit(*args)
        finally:
            for w in caught:
                print(f"routestretch: warning: {w.message}", file=sys.stderr)


def cmd_fit(args) -> int:
    if args.model == "linear":
        pts = _read_csv_columns(args.input, ["levels", "s_p"])
        result = _warned(fitting.fit_alpha_linear, pts)
    elif args.model == "ipea":
        pts = _read_csv_columns(args.input, ["s_t", "s_p"])
        result = _warned(fitting.fit_alpha_ipea, pts)
    else:
        n = args.n_nodes
        if n is None:
            seen = {row[0] for row in _read_csv_columns(args.input, ["n"])}
            if len(seen) != 1:
                raise ValueError(
                    "eq3 fit needs --n-nodes when the CSV mixes network sizes"
                )
            n = seen.pop()
            if not n.is_integer():
                raise ValueError(f"{args.input}: n is not a whole number ({n!r})")
            n = int(n)
        pts = _read_csv_columns(args.input, ["s_p", "s_t"])
        result = _warned(fitting.fit_alpha_eq3, pts, n)
    text = result.to_text()
    print(text, end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return EXIT_OK


def _check(name: str, fn, failures: list[str]) -> None:
    try:
        fn()
    except OSError:  # an unreadable file is an I/O error (exit 3), not a failure
        raise
    except Exception as exc:  # report and keep going; the suite must finish
        failures.append(name)
        print(f"FAIL {name}: {exc}")
        return
    print(f"PASS {name}")


def cmd_validate(args) -> int:
    failures: list[str] = []

    def boundary() -> None:
        analytic.AnalyticParams(n_nodes=2, alpha=args.alpha)  # reject bad --alpha here
        rng = random.Random(20240117)
        for _ in range(100):
            n = rng.randrange(2, 10**6)
            a = rng.uniform(1e-3, 5.0)
            assert analytic.path_stretch_from_height(1.0, a) == 1.0
            assert analytic.table_stretch_kk(n, 1.0) == 1.0
            assert analytic.table_stretch_from_path_stretch(
                1.0, analytic.AnalyticParams(n_nodes=n, alpha=a)
            ) == 1.0
            assert analytic.path_stretch_from_table_stretch_ipea(1.0, a) == 1.0

    def inverse_pair() -> None:
        rng = random.Random(7)
        for _ in range(200):
            a = rng.uniform(1e-3, 5.0)
            h = rng.uniform(1.0, 100.0)
            s_p = analytic.path_stretch_from_height(h, a)
            if abs(analytic.height_from_path_stretch(s_p, a) - h) > 1e-9:
                raise AssertionError(f"round trip broke at h={h}, alpha={a}")

    def optimality() -> None:
        for n in (10, 1000, 100000):
            got = analytic.golden_section_min(
                lambda m: analytic.optimal_table_length_fixed(n, m), 0.3,
                max(2.0, 4.0 * math.log(n)), tol=1e-9,
            )[1]
            want = analytic.optimal_table_length_variable(n)
            if abs(got - want) > 1e-9 * want:
                raise AssertionError(f"optimal length mismatch at N={n}")

    def composition() -> None:
        params = analytic.AnalyticParams(n_nodes=500, alpha=args.alpha)
        for i in range(1, 40):
            s_p = 1.0 + i * 0.1
            direct = analytic.table_stretch_from_path_stretch(s_p, params)
            m = analytic.height_from_path_stretch(s_p, params.alpha)
            if abs(direct - analytic.table_stretch_kk(500, m)) > 1e-12:
                raise AssertionError(f"composition broke at s_p={s_p}")

    def minimum_report() -> None:
        params = analytic.AnalyticParams(n_nodes=10, alpha=args.alpha)
        cont = analytic.find_min_table_stretch(params)
        grid = analytic.sweep_curve(params).grid_min()
        print(
            f"  N=10 continuous minimum: s_p={cont.s_p_at_min:.6f} "
            f"s_t={cont.s_t_min:.6f}; sweep-grid minimum: s_p={grid[0]:.6f} "
            f"s_t={grid[2]:.6f}"
        )

    def ring_oracle() -> None:
        g = graphs.ring_graph(8)
        h = hierarchy.build_balanced(g, 2, 2)
        report = routing.measure(g, h)
        assert report.s_t == 0.625, f"ring s_t {report.s_t} != 0.625"
        assert report.s_p >= 1.0

    def grid_oracle() -> None:
        g = graphs.grid_graph(4, 4)
        h = hierarchy.build_grid_blocks(g, 4, 4, [(2, 2)])
        report = routing.measure(g, h)
        assert report.s_t == 0.4375, f"grid s_t {report.s_t} != 0.4375"
        assert report.s_p >= 1.0

    _check("boundary identities", boundary, failures)
    _check("height/path-stretch inverse pair", inverse_pair, failures)
    _check("optimal table length link", optimality, failures)
    _check("curve composition", composition, failures)
    _check("minimum report (N=10)", minimum_report, failures)
    _check("ring-8 simulator oracle", ring_oracle, failures)
    _check("grid-4x4 simulator oracle", grid_oracle, failures)

    if args.graph:
        def file_check() -> None:
            g = graphs.load(args.graph)
            h = hierarchy.load(args.hierarchy)
            problems = hierarchy.validate(h, g)
            if problems:
                raise AssertionError("; ".join(problems))

        _check(f"files {args.graph} + {args.hierarchy}", file_check, failures)

    if failures:
        print(f"{len(failures)} check(s) failed")
        return EXIT_DOMAIN
    print("all checks passed")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"routestretch: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, ArithmeticError) as exc:
        print(f"routestretch: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
