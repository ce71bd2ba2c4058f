"""End-to-end command-line coverage, driven through main(argv).

Exit-code contract: 0 success, 1 usage, 2 domain/validation, 3 I/O.
"""

import argparse
import hashlib
import math
import re
import warnings
import xml.etree.ElementTree as ET

import pytest

from routestretch import analytic as an
from routestretch import cli
from routestretch import graphs as gr
from routestretch import hierarchy as hi
from routestretch import routing as rt
from routestretch.cli import main


def alpha_from(out):
    m = re.search(r"alpha_hat: ([0-9.eE+-]+)", out)
    assert m, out
    return float(m.group(1))


def test_full_pipeline(tmp_path, capsys):
    graph = tmp_path / "ring8.graph"
    csv = tmp_path / "stretch.csv"
    assert main(["gen", "ring", "--n", "8", "--out", str(graph)]) == 0
    for levels in (1, 2, 3):
        hier = tmp_path / f"h{levels}.clusters"
        assert main([
            "cluster", "--graph", str(graph), "--levels", str(levels),
            "--branching", "2", "--out", str(hier),
        ]) == 0
        assert main([
            "simulate", "--graph", str(graph), "--hierarchy", str(hier),
            "--csv", str(csv),
        ]) == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "n,levels,method,s_p,s_t,mean_table,mean_hier,mean_short"
    assert len(lines) == 4
    capsys.readouterr()
    assert main(["fit", "--model", "linear", "--input", str(csv)]) == 0
    out = capsys.readouterr().out
    assert "model: linear-theorem1" in out
    assert alpha_from(out) > 0


def test_simulate_output_and_report_file(tmp_path, capsys):
    graph = tmp_path / "g.graph"
    hier = tmp_path / "h.clusters"
    report = tmp_path / "report.txt"
    main(["gen", "ring", "--n", "8", "--out", str(graph)])
    main(["cluster", "--graph", str(graph), "--levels", "2", "--out", str(hier)])
    capsys.readouterr()
    assert main([
        "simulate", "--graph", str(graph), "--hierarchy", str(hier),
        "--report", str(report),
    ]) == 0
    out = capsys.readouterr().out
    assert "s_p: 1.0625" in out
    assert "s_t: 0.625" in out
    assert report.read_text() == out


def test_simulate_builds_no_adjacency_rows(tmp_path, capsys, monkeypatch):
    # load, validate and measure read the graph's arrays only: neighbour
    # rows are the balanced builder's, which validate's own suite runs on
    # its 8-node ring and never on the files it checks
    graph = tmp_path / "t.graph"
    hier = tmp_path / "t.clusters"
    main(["gen", "torus", "--rows", "20", "--cols", "20", "--out", str(graph)])
    main(["cluster", "--graph", str(graph), "--levels", "3", "--out", str(hier)])
    capsys.readouterr()
    built = []

    def recorded(build):
        def rows(graph):
            built.append(graph.n_nodes)
            return build(graph)
        return rows

    monkeypatch.setattr(hi, "_adjacency", recorded(hi._adjacency))
    monkeypatch.setattr(hi, "_rows", recorded(hi._rows))
    assert main(["simulate", "--graph", str(graph), "--hierarchy", str(hier)]) == 0
    assert "s_p: " in capsys.readouterr().out
    assert built == []
    assert main(["validate", "--graph", str(graph), "--hierarchy", str(hier)]) == 0
    assert "all checks passed" in capsys.readouterr().out
    assert built == [8]


def test_simulate_method_tag(tmp_path, capsys):
    graph = tmp_path / "g.graph"
    hier = tmp_path / "h.clusters"
    main(["gen", "ring", "--n", "8", "--out", str(graph)])
    main(["cluster", "--graph", str(graph), "--levels", "2", "--out", str(hier)])
    capsys.readouterr()
    main([
        "simulate", "--graph", str(graph), "--hierarchy", str(hier),
        "--method-tag", "mytag",
    ])
    assert "method: mytag" in capsys.readouterr().out


@pytest.mark.parametrize("tag", ["a,b", 'a"b', "a\nb", "a\rb"])
def test_simulate_rejects_a_tag_that_breaks_a_record(tmp_path, capsys, tag):
    # a comma or quote would split or quote the CSV field, a line break
    # the report's method line and the record
    graph = tmp_path / "g.graph"
    hier = tmp_path / "h.clusters"
    csv = tmp_path / "out.csv"
    report = tmp_path / "report.txt"
    main(["gen", "ring", "--n", "8", "--out", str(graph)])
    main(["cluster", "--graph", str(graph), "--levels", "2", "--out", str(hier)])
    capsys.readouterr()
    assert main([
        "simulate", "--graph", str(graph), "--hierarchy", str(hier),
        "--method-tag", tag, "--csv", str(csv), "--report", str(report),
    ]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"method tag {tag!r}" in err
    assert not csv.exists() and not report.exists()


def test_simulate_rejects_invalid_hierarchy(tmp_path, capsys):
    graph = tmp_path / "g.graph"
    hier = tmp_path / "h.clusters"
    main(["gen", "ring", "--n", "8", "--out", str(graph)])
    # nodes 0 and 4 sit on opposite sides of the ring: disconnected cluster
    hier.write_text("".join(f"{u} {0 if u in (0, 4) else 1}\n" for u in range(8)))
    capsys.readouterr()
    assert main(["simulate", "--graph", str(graph), "--hierarchy", str(hier)]) == 2
    err = capsys.readouterr().err
    assert "invalid hierarchy:" in err
    assert "disconnected" in err


def test_curve_defaults_and_determinism(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert main(["curve", "--n-nodes", "10", "100", "--out", str(out)]) == 0
    assert "wrote 802 rows" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "N,alpha,s_p,m,s_t"
    assert len(lines) == 803
    assert lines[1] == "10,0.987,1,1,1"
    first = out.read_bytes()
    main(["curve", "--n-nodes", "10", "100", "--out", str(out)])
    assert out.read_bytes() == first


def test_curve_csv_equals_the_per_row_format(tmp_path, capsys):
    # one "%.10g" template writes the bytes that formatting each row with
    # routing._fmt did, on the default sizes and grid
    out = tmp_path / "curve.csv"
    assert main(["curve", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {401 * 5} rows to {out}\n"
    want = ["N,alpha,s_p,m,s_t\n"]
    for n in cli.DEFAULT_CURVE_SIZES:
        cs = an.sweep_curve(an.AnalyticParams(n_nodes=n, alpha=an.DEFAULT_ALPHA))
        for s_p, m, s_t in cs.points:
            want.append(
                f"{cs.n_nodes},{rt._fmt(cs.alpha)},{rt._fmt(s_p)},{rt._fmt(m)},{rt._fmt(s_t)}\n"
            )
    assert out.read_bytes() == "".join(want).encode()


def test_curve_svg(tmp_path):
    out = tmp_path / "curve.csv"
    svg = tmp_path / "curve.svg"
    assert main([
        "curve", "--n-nodes", "10", "100", "--out", str(out), "--svg", str(svg),
    ]) == 0
    root = ET.fromstring(svg.read_text())
    ns = "{http://www.w3.org/2000/svg}"
    assert len(root.findall(f"{ns}polyline")) == 2


def test_gen_is_deterministic(tmp_path):
    a = tmp_path / "a.graph"
    b = tmp_path / "b.graph"
    args = ["gen", "random", "--n", "20", "--p", "0.2", "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert gr.load(a) == gr.random_graph(20, 0.2, seed=7)


def test_gen_random_file_frozen(tmp_path, capsys):
    # sha256 of the file written while random_graph made one random() call
    # per node pair and save wrote one line per edge: the benchmark's
    # random-dense input
    out = tmp_path / "g.graph"
    assert main(["gen", "random", "--n", "700", "--p", "0.043", "--seed", "1",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        f"wrote random graph (700 nodes, 10477 edges) to {out}\n"
    )
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "a6249d962c2a434d8f5748c1b64c319d95595019f5c7500aa554ff86d4c50fc2"
    )


@pytest.mark.parametrize("argv, graph", [
    (["ring", "--n", "8"], gr.ring_graph(8)),
    (["grid", "--rows", "3", "--cols", "4"], gr.grid_graph(3, 4)),
    (["torus", "--rows", "4", "--cols", "4"], gr.torus_graph(4, 4)),
    (["random", "--n", "20", "--p", "0.2"], gr.random_graph(20, 0.2, seed=0)),
    (["random", "--n", "20", "--p", "0.2", "--seed", "7"], gr.random_graph(20, 0.2, seed=7)),
])
def test_gen_writes_each_topology(tmp_path, capsys, argv, graph):
    # without --seed, random draws from seed 0
    out = tmp_path / "g.graph"
    want = tmp_path / "want.graph"
    gr.save(graph, want)
    assert main(["gen", *argv, "--out", str(out)]) == 0
    assert capsys.readouterr() == (
        f"wrote {argv[0]} graph ({graph.n_nodes} nodes, {graph.num_edges} edges) "
        f"to {out}\n",
        "",
    )
    assert out.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("argv, unread", [
    (["ring", "--n", "8", "--seed", "5"], "--seed"),
    (["ring", "--n", "8", "--rows", "2", "--p", "0.3"], "--rows, --p"),
    (["grid", "--rows", "3", "--cols", "4", "--n", "12"], "--n"),
    (["grid", "--rows", "3", "--cols", "4", "--seed", "0"], "--seed"),
    (["torus", "--rows", "4", "--cols", "4", "--p", "0.3"], "--p"),
    (["random", "--n", "20", "--p", "0.2", "--cols", "4"], "--cols"),
    # named in a fixed order, not in the order given
    (["torus", "--rows", "4", "--cols", "4", "--seed", "1", "--p", "0.3", "--n", "16"],
     "--n, --p, --seed"),
])
def test_gen_rejects_an_option_its_topology_does_not_read(tmp_path, capsys, argv, unread):
    out = tmp_path / "g.graph"
    assert main(["gen", *argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: routestretch gen ")
    assert captured.err.endswith(
        f"routestretch gen: error: the {argv[0]} topology does not read {unread}\n"
    )
    assert not out.exists()


GRID_2X2 = ["--method", "grid", "--rows", "4", "--cols", "4", "--block-rows", "2",
            "--block-cols", "2"]


@pytest.mark.parametrize("argv, message", [
    (["--method", "grid"], "the grid method needs --rows, --cols, --block-rows, --block-cols"),
    (GRID_2X2[:6], "the grid method needs --block-rows, --block-cols"),
    ([*GRID_2X2, "--levels", "5"], "the grid method does not read --levels"),
    ([*GRID_2X2, "--branching", "3", "--levels", "2"],
     "the grid method does not read --levels, --branching"),
    (["--rows", "4"], "the balanced method does not read --rows"),
    (["--method", "balanced", "--levels", "3", "--block-cols", "2", "--block-rows", "2"],
     "the balanced method does not read --block-rows, --block-cols"),
    ([*GRID_2X2[:6], "--block-rows", "4", "2", "--block-cols", "4"],
     "--block-rows and --block-cols need one value per level (got 2 and 1)"),
], ids=["grid-bare", "grid-no-blocks", "grid-levels", "grid-both", "balanced-rows",
        "balanced-blocks", "grid-uneven-blocks"])
def test_cluster_rejects_options_that_do_not_fit_its_method(tmp_path, capsys, argv, message):
    # a usage error before the graph is read: the graph file is absent
    out = tmp_path / "h.clusters"
    argv = ["cluster", "--graph", str(tmp_path / "absent.graph"), *argv, "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: routestretch cluster ")
    assert captured.err.endswith(f"routestretch cluster: error: {message}\n")
    assert not out.exists()


def test_cluster_grid_nests_one_block_per_level(tmp_path, capsys):
    # three block levels on the 8x8 grid: halves, quarters, then 2x2 blocks
    graph = tmp_path / "g.graph"
    hier = tmp_path / "h.clusters"
    gr.save(gr.grid_graph(8, 8), graph)
    assert main([
        "cluster", "--graph", str(graph), "--method", "grid", "--rows", "8", "--cols", "8",
        "--block-rows", "4", "4", "2", "--block-cols", "8", "4", "2", "--out", str(hier),
    ]) == 0
    assert capsys.readouterr().out == (
        f"wrote 4-level hierarchy (grid-blocks-4x8+4x4+2x2; clusters per level: "
        f"2,4,16) to {hier}\n"
    )
    want = "".join(
        f"{u} {u // 32} {u // 32 * 2 + u % 8 // 4} {u // 16 * 4 + u % 8 // 2}\n"
        for u in range(64)
    )
    assert hier.read_text() == want
    assert want.splitlines()[27] == "27 0 0 5"


def test_cluster_grid_rejects_blocks_that_do_not_nest(tmp_path, capsys):
    graph = tmp_path / "g.graph"
    hier = tmp_path / "h.clusters"
    gr.save(gr.grid_graph(8, 8), graph)
    assert main([
        "cluster", "--graph", str(graph), "--method", "grid", "--rows", "8", "--cols", "8",
        "--block-rows", "4", "3", "--block-cols", "4", "4", "--out", str(hier),
    ]) == 2
    assert capsys.readouterr() == (
        "", "routestretch: block 3x4 does not divide the enclosing 4x4\n"
    )
    assert not hier.exists()


def test_cluster_balanced_defaults_to_two_levels_of_two(tmp_path, capsys):
    graph = tmp_path / "g.graph"
    gr.save(gr.ring_graph(8), graph)
    got = []
    for flags in ([], ["--levels", "2", "--branching", "2"]):
        hier = tmp_path / f"h{len(flags)}.clusters"
        assert main(["cluster", "--graph", str(graph), *flags, "--out", str(hier)]) == 0
        got.append((capsys.readouterr().out.replace(str(hier), "H"), hier.read_bytes()))
    assert got[0] == got[1]
    assert got[0][0] == "wrote 2-level hierarchy (balanced-b2; clusters per level: 2) to H\n"


def run_main(argv, capsys):
    """(exit code, stdout, stderr) of main(argv)."""
    code = main(argv)
    return (code, *capsys.readouterr())


def test_one_parser_serves_every_call_as_a_fresh_one_would(tmp_path, capsys, monkeypatch):
    # main builds its parser on the first call and reuses it: a sequence
    # of calls in one process gives what each call gives on a parser of
    # its own, and builds one parser in all
    graph, hier = tmp_path / "g.graph", tmp_path / "h.clusters"
    results = tmp_path / "results.csv"
    g = gr.ring_graph(8)
    gr.save(g, graph)
    hi.save(hi.build_balanced(g, 2, 2), hier)
    results.write_text("".join([
        rt.StretchReport.CSV_HEADER + "\n",
        *(rt.measure(g, hi.build_balanced(g, k, 2)).csv_record() + "\n" for k in (1, 2, 3)),
    ]))
    calls = [
        ["gen", "ring", "--n", "8"],  # no --out: a usage error
        ["--help"],
        ["curve", "--out", str(tmp_path / "curve.csv")],  # default --n-nodes
        ["simulate", "--graph", str(graph), "--hierarchy", str(hier)],
        ["fit", "--input", str(results)],
        ["validate"],
    ]
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    shared = [run_main(argv, capsys) for argv in calls]
    shared += [run_main(argv, capsys) for argv in calls]
    assert built.count("routestretch") == 1
    assert [code for code, _, _ in shared] == [1, 0, 0, 0, 0, 0] * 2
    assert shared[:6] == shared[6:]
    for argv, got in zip(calls, shared):
        cli.build_parser.cache_clear()
        assert run_main(argv, capsys) == got
    assert built.count("routestretch") == 1 + len(calls)
    assert cli.DEFAULT_CURVE_SIZES == [10, 100, 1000, 10000, 100000]


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["bogus"]) == 1
    assert main(["gen", "ring", "--n", "8"]) == 1          # missing --out
    assert main(["fit", "--model", "nope", "--input", "x"]) == 1
    capsys.readouterr()


def test_domain_errors_exit_2(tmp_path, capsys):
    # generator parameter missing for the chosen topology
    assert main(["gen", "ring", "--out", str(tmp_path / "g.graph")]) == 2
    assert "ring topology needs n" in capsys.readouterr().err
    # corrupted graph file
    bad = tmp_path / "bad.graph"
    bad.write_text("n 3\n0 9\n")
    assert main([
        "cluster", "--graph", str(bad), "--out", str(tmp_path / "h.clusters"),
    ]) == 2
    # a huge node count with too few edges fails before any allocation
    huge = tmp_path / "huge.graph"
    huge.write_text("n 1000000000000\n0 1\n")
    hier = tmp_path / "two.clusters"
    hier.write_text("0\n1\n")
    capsys.readouterr()
    assert main(["simulate", "--graph", str(huge), "--hierarchy", str(hier)]) == 2
    assert "graph with 1000000000000 nodes and 1 edges is not connected" in capsys.readouterr().err
    # negative sweep step
    assert main([
        "curve", "--n-nodes", "10", "--step", "-0.1",
        "--out", str(tmp_path / "c.csv"),
    ]) == 2
    capsys.readouterr()


def test_io_errors_exit_3(tmp_path, capsys):
    missing = tmp_path / "absent.graph"
    assert main([
        "simulate", "--graph", str(missing), "--hierarchy", str(missing),
    ]) == 3
    assert "I/O error" in capsys.readouterr().err
    assert main([
        "curve", "--n-nodes", "10", "--out", str(tmp_path / "no" / "dir" / "c.csv"),
    ]) == 3
    capsys.readouterr()


def test_validate_passes_by_default(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 7
    assert "all checks passed" in out
    assert "N=10 continuous minimum" in out


def test_validate_reports_failures(capsys):
    assert main(["validate", "--alpha", "0"]) == 2
    out = capsys.readouterr().out
    assert "FAIL boundary identities" in out
    assert "check(s) failed" in out


def test_validate_rejects_infinite_alpha(capsys):
    assert main(["validate", "--alpha", "inf"]) == 2
    out = capsys.readouterr().out
    assert "FAIL boundary identities" in out
    assert "all checks passed" not in out


def test_curve_rejects_infinite_alpha(tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert main(["curve", "--n-nodes", "10", "--alpha", "inf", "--out", str(out)]) == 2
    assert "alpha must be finite" in capsys.readouterr().err
    assert not out.exists()



def test_curve_rejects_an_alpha_that_overflows_the_height(tmp_path, capsys):
    # m = 1 + (s_p - 1) / 1e-308 is infinite from s_p = 2.8 on
    out, svg = tmp_path / "c.csv", tmp_path / "c.svg"
    argv = ["curve", "--n-nodes", "100000", "--alpha", "1e-308", "--out", str(out),
            "--svg", str(svg)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "routestretch: m is not finite at s_p = 2.8, alpha = 1e-308\n"
    assert not out.exists() and not svg.exists()


def test_validate_fails_curve_composition_on_an_overflowing_height(capsys):
    assert main(["validate", "--alpha", "1e-308"]) == 2
    out = capsys.readouterr().out
    assert "FAIL curve composition: m is not finite at s_p = 2.8, alpha = 1e-308" in out
    assert "all checks passed" not in out


def test_validate_with_files(tmp_path, capsys):
    graph = tmp_path / "g.graph"
    hier = tmp_path / "h.clusters"
    main(["gen", "grid", "--rows", "4", "--cols", "4", "--out", str(graph)])
    main([
        "cluster", "--graph", str(graph), "--method", "grid",
        "--rows", "4", "--cols", "4", "--block-rows", "2", "--block-cols", "2",
        "--out", str(hier),
    ])
    capsys.readouterr()
    assert main(["validate", "--graph", str(graph), "--hierarchy", str(hier)]) == 0
    assert capsys.readouterr().out.count("PASS") == 8
    # both file flags are required together: a usage error before the suite runs
    for flags in (["--graph", str(graph)], ["--hierarchy", str(hier)]):
        assert main(["validate", *flags]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: routestretch validate ")
        assert err.endswith(
            "routestretch validate: error: --graph and --hierarchy must be given together\n"
        )


def test_validate_with_files_that_fail(tmp_path, capsys):
    # alternate nodes of a ring in two clusters: neither is connected
    graph, hier = tmp_path / "g.graph", tmp_path / "h.clusters"
    gr.save(gr.ring_graph(8), graph)
    hi.save(hi.Hierarchy(2, tuple((u % 2,) for u in range(8))), hier)
    assert main(["validate", "--graph", str(graph), "--hierarchy", str(hier)]) == 2
    out = capsys.readouterr().out
    assert out.count("PASS") == 7
    assert out.endswith(
        f"FAIL files {graph} + {hier}: "
        "connectivity: level 1 cluster 0 induces a disconnected subgraph; "
        "connectivity: level 1 cluster 1 induces a disconnected subgraph\n"
        "1 check(s) failed\n"
    )


def test_fit_eq3_from_csv(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    params = an.AnalyticParams(n_nodes=10, alpha=0.987)
    rows = ["s_p,s_t"]
    for sp in (1.2, 1.8, 2.4, 3.0):
        rows.append(f"{sp},{an.table_stretch_from_path_stretch(sp, params)}")
    pts.write_text("\n".join(rows) + "\n")
    assert main([
        "fit", "--model", "eq3", "--input", str(pts), "--n-nodes", "10",
    ]) == 0
    assert abs(alpha_from(capsys.readouterr().out) - 0.987) <= 1e-4


@pytest.mark.parametrize("model", ["linear", "ipea"])
def test_fit_rejects_n_nodes_for_a_model_that_does_not_read_it(tmp_path, capsys, model):
    # a usage error before the input is read: the CSV is absent
    argv = ["fit", "--model", model, "--input", str(tmp_path / "absent.csv"),
            "--n-nodes", "10"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: routestretch fit ")
    assert captured.err.endswith(
        f"routestretch fit: error: the {model} model does not read --n-nodes\n"
    )


def test_fit_eq3_infers_n_from_column(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    params = an.AnalyticParams(n_nodes=10, alpha=0.987)
    rows = ["n,s_p,s_t"]
    for sp in (1.2, 1.8, 2.4):
        rows.append(f"10,{sp},{an.table_stretch_from_path_stretch(sp, params)}")
    pts.write_text("\n".join(rows) + "\n")
    assert main(["fit", "--model", "eq3", "--input", str(pts)]) == 0
    assert abs(alpha_from(capsys.readouterr().out) - 0.987) <= 1e-4
    # mixed sizes cannot be inferred
    pts.write_text("n,s_p,s_t\n10,1.2,0.9\n20,1.4,0.8\n")
    assert main(["fit", "--model", "eq3", "--input", str(pts)]) == 2
    assert "mixes network sizes" in capsys.readouterr().err


def test_fit_eq3_rejects_fractional_n(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("n,s_p,s_t\n10.7,1.2,0.9\n10.7,1.8,0.6\n")
    assert main(["fit", "--model", "eq3", "--input", str(pts)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{pts}: n is not a whole number (10.7)" in captured.err


def test_fit_ipea_from_csv(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    rows = ["s_t,s_p"]
    for st in (1.0, 0.5, 0.25, 0.125):
        rows.append(f"{st},{1.0 - 0.8 * math.log(st)}")
    pts.write_text("\n".join(rows) + "\n")
    out_file = tmp_path / "fit.txt"
    assert main([
        "fit", "--model", "ipea", "--input", str(pts), "--out", str(out_file),
    ]) == 0
    out = capsys.readouterr().out
    assert math.isclose(alpha_from(out), 0.8, rel_tol=1e-9)
    assert out_file.read_text() == out


def test_fit_missing_column_exit_2(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("foo,bar\n1,2\n")
    assert main(["fit", "--model", "linear", "--input", str(pts)]) == 2
    assert "missing column(s)" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("", "empty CSV"), ("levels,s_p\n", "no data rows"),
], ids=["empty", "header-only"])
def test_fit_needs_data_rows_exit_2(tmp_path, capsys, text, message):
    pts = tmp_path / "pts.csv"
    pts.write_text(text)
    assert main(["fit", "--model", "linear", "--input", str(pts)]) == 2
    assert capsys.readouterr() == ("", f"routestretch: {pts}: {message}\n")


@pytest.mark.parametrize("model", ["linear", "ipea", "eq3"])
@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "abc", ""])
def test_fit_rejects_non_finite_value_exit_2(tmp_path, capsys, model, cell):
    pts = tmp_path / "pts.csv"
    pts.write_text(f"n,levels,s_p,s_t\n10,2,1.2,0.5\n10,3,{cell},0.25\n")
    assert main(["fit", "--model", model, "--input", str(pts)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{pts}: line 3: s_p is not a finite number" in captured.err


OVERFLOW = "fit overflows: its sums of squares exceed the float range"


@pytest.mark.parametrize("model, row, message", [
    ("linear", "10,3,1e300,0.25", f"the linear-theorem1 {OVERFLOW}"),
    ("ipea", "10,3,1e300,0.25", f"the ipea-log {OVERFLOW}"),
    ("eq3", "10,3,1e300,0.25", f"the eq3 {OVERFLOW}"),
    ("eq3", "10,3,1.5,1e308", f"the eq3 {OVERFLOW}"),
    ("eq3", "10,3,1.5,-0.5", "s_t must be > 0 (got -0.5)"),
], ids=["linear", "ipea", "eq3-s_p", "eq3-s_t", "eq3-negative-s_t"])
def test_fit_out_of_range_values_exit_2(tmp_path, capsys, model, row, message):
    # finite values whose fit once printed inf or a bare OverflowError
    pts = tmp_path / "pts.csv"
    pts.write_text(f"n,levels,s_p,s_t\n10,2,1.2,0.5\n{row}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fit", "--model", model, "--input", str(pts)]) == 2
    assert capsys.readouterr() == ("", f"routestretch: {message}\n")


def test_fit_short_row_exit_2(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("levels,s_p\n2,1.2\n3\n")
    assert main(["fit", "--model", "linear", "--input", str(pts)]) == 2
    assert "line 3: s_p is not a finite number" in capsys.readouterr().err


def test_simulate_csv_appends(tmp_path):
    graph = tmp_path / "g.graph"
    hier = tmp_path / "h.clusters"
    csv = tmp_path / "out.csv"
    main(["gen", "ring", "--n", "8", "--out", str(graph)])
    main(["cluster", "--graph", str(graph), "--levels", "2", "--out", str(hier)])
    for _ in range(2):
        main(["simulate", "--graph", str(graph), "--hierarchy", str(hier),
              "--csv", str(csv)])
    lines = csv.read_text().splitlines()
    assert len(lines) == 3
    assert lines[1] == lines[2]


def test_simulate_csv_onto_an_empty_file_writes_the_header(tmp_path, capsys):
    graph = tmp_path / "g.graph"
    csv = tmp_path / "out.csv"
    csv.write_text("")
    main(["gen", "ring", "--n", "8", "--out", str(graph)])
    for levels in (2, 3):
        hier = tmp_path / f"h{levels}.clusters"
        main(["cluster", "--graph", str(graph), "--levels", str(levels), "--out", str(hier)])
        assert main(["simulate", "--graph", str(graph), "--hierarchy", str(hier),
                     "--csv", str(csv)]) == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "n,levels,method,s_p,s_t,mean_table,mean_hier,mean_short"
    assert len(lines) == 3
    capsys.readouterr()
    assert main(["fit", "--model", "linear", "--input", str(csv)]) == 0
    assert alpha_from(capsys.readouterr().out) > 0


def test_curve_rejects_a_step_that_cannot_move_the_grid(tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert main(["curve", "--n-nodes", "10", "--step", "1e-17", "--out", str(out)]) == 2
    assert "too small to move s_p" in capsys.readouterr().err
    assert not out.exists()


def test_curve_rejects_a_tiny_step_and_an_infinite_bound(tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert main(["curve", "--n-nodes", "10", "--step", "1e-15", "--out", str(out)]) == 2
    assert "points, more than 1000000" in capsys.readouterr().err
    assert main(["curve", "--n-nodes", "10", "--s-p-max", "inf", "--out", str(out)]) == 2
    assert "s_p bounds must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_cluster_rejects_huge_levels_at_once(tmp_path, capsys):
    graph = tmp_path / "g.graph"
    main(["gen", "ring", "--n", "8", "--out", str(graph)])
    assert main(["cluster", "--graph", str(graph), "--levels", "100000",
                 "--out", str(tmp_path / "h.clusters")]) == 2
    err = capsys.readouterr().err
    assert "branching 2 with 100000 levels needs more nodes than the graph's 8" in err


def test_cluster_grid_rejects_a_graph_that_is_not_the_lattice(tmp_path, capsys):
    graph = tmp_path / "ring16.graph"
    hier = tmp_path / "h.clusters"
    main(["gen", "ring", "--n", "16", "--out", str(graph)])
    capsys.readouterr()
    assert main([
        "cluster", "--graph", str(graph), "--method", "grid",
        "--rows", "4", "--cols", "4", "--block-rows", "2", "--block-cols", "2",
        "--out", str(hier),
    ]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "routestretch: 2x2 blocks of a 4x4 lattice do not fit the graph: "
        "connectivity: level 1 cluster 0 induces a disconnected subgraph\n"
    )
    assert not hier.exists()


@pytest.mark.parametrize("text, message", [
    ("n 99999999999999999999\n0 1\n",
     "graph with 99999999999999999999 nodes and 1 edges is not connected"),
    ("n 3\n0 1\n0 9223372036854775808\n",
     "line 3: non-integer endpoint in '0 9223372036854775808'"),
])
def test_huge_numbers_exit_2_at_once(tmp_path, capsys, text, message):
    # nothing sized by the node count is allocated (a MemoryError would
    # escape main()), and an id beyond int64 is named with its line
    graph = tmp_path / "huge.graph"
    graph.write_text(text)
    hier = tmp_path / "two.clusters"
    hier.write_text("0\n1\n")
    capsys.readouterr()
    assert main(["cluster", "--graph", str(graph), "--out", str(tmp_path / "h")]) == 2
    assert message in capsys.readouterr().err
    assert main(["simulate", "--graph", str(graph), "--hierarchy", str(hier)]) == 2
    assert message in capsys.readouterr().err
    assert main(["validate", "--graph", str(graph), "--hierarchy", str(hier)]) == 2
    assert message in capsys.readouterr().out
