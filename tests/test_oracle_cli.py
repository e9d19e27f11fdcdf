"""Harness: call logging, reports, benchmarks, and the CLI surface."""

import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest

import polyoracle.localsubset as ls
import polyoracle.oracle as orc
import polyoracle.problems as pr
from polyoracle.cli import run_cli
from polyoracle.errors import CapExceeded, PolyOracleError
from polyoracle import circuits as ci, errors, polynomials as poly
from oracles import (
    has_induced_pattern,
    heavy_pattern_witnesses,
    induced_copies,
    induced_path3_count,
    random_weighted_graph,
    triangle_count,
    zero_sum_triples,
)
from routes import report_matches_log, timed


def triangle_instance():
    return pr.encode_h_induced(
        pr.GraphInput(3, frozenset({(1, 2), (1, 3), (2, 3)})), pr.H_PRESETS["triangle"]
    )


def test_logging_oracle_records_single_call():
    spec, inst = triangle_instance()
    log = orc.OracleCallLog()
    wrapped = orc.logging_oracle(ls.exact_evaluation_oracle, log)
    assert ls.solve_via_oracle(spec, inst, 2, wrapped)
    assert len(log.records) == 1
    record = log.records[0]
    assert record.size == ls.variable_count(inst.size, spec.r, 2)
    assert record.charged_cost == record.size
    assert record.result_nonzero
    assert log.total_cost == record.size


def test_logging_oracle_empty_log():
    log = orc.OracleCallLog()
    assert log.total_cost == 0 and log.records == []


def test_cost_example_size_18():
    spec, inst = pr.encode_ksum(pr.KSumInput(1, ((0,),), 0))
    assert inst.size == 2
    log = orc.OracleCallLog()
    ls.solve_via_oracle(spec, inst, 1, orc.logging_oracle(ls.exact_evaluation_oracle, log))
    assert log.total_cost == ls.variable_count(2, 1, 1) == 18


def test_call_size_example_816():
    """A size-16 instance of an r = 2 problem at theta = 4 charges 816."""
    graph = pr.GraphInput(6, frozenset({(1, 2), (1, 3), (2, 3), (1, 4), (4, 5), (5, 6),
                                        (2, 4), (3, 5), (1, 6), (2, 6)}))
    spec, inst = pr.encode_h_induced(graph, pr.H_PRESETS["triangle"])
    assert inst.size == 16
    log = orc.OracleCallLog()
    ls.solve_via_oracle(spec, inst, 4, orc.logging_oracle(ls.exact_evaluation_oracle, log))
    assert [record.size for record in log.records] == [816]


def test_report_is_written_from_the_call_log():
    spec, inst = triangle_instance()
    log = orc.OracleCallLog()
    answer = ls.solve_via_oracle(
        spec, inst, 2, orc.logging_oracle(ls.exact_evaluation_oracle, log)
    )
    # A second, hand-logged call with a zero result.
    log.records.append(orc.OracleCallRecord(5, False))
    buffer = io.StringIO()
    orc.dump_report(buffer, spec.name, inst, answer, log, 0.1234567)
    text = buffer.getvalue()
    assert report_matches_log(text, spec.name, answer, log)
    data = json.loads(text)
    assert [c["result_nonzero"] for c in data["calls"]] == [True, False]
    assert data["instance_digest"] == orc.instance_digest(spec.name, inst)
    assert data["wall_time_seconds"] == 0.123457
    assert text == json.dumps(data, sort_keys=True, indent=2) + "\n"


def test_instance_digest_is_pinned():
    """The digest hashes the LS instance wire format; a changed value breaks
    comparison with earlier reports."""
    spec, inst = triangle_instance()
    assert orc.instance_digest(spec.name, inst) == "c70952f7360edd84"


def test_bench_slope_theta_8():
    result = orc.bench_vars("triangle", 8, [2**t for t in range(6, 13)])
    assert result.slope <= 1.35
    csv = result.to_csv()
    assert csv.startswith("s,variables\n64,")


def test_bench_slope_theta_1_near_1_plus_r():
    result = orc.bench_vars("triangle", 1, [2**t for t in range(6, 13)])
    assert abs(result.slope - 3.0) < 0.05  # r = 2 and no blocking


def test_bench_slope_monotone_in_theta():
    sizes = [2**t for t in range(6, 13)]
    slopes = [orc.bench_vars("triangle", theta, sizes).slope for theta in (1, 2, 4, 8)]
    assert all(a >= b - 1e-9 for a, b in zip(slopes, slopes[1:]))


def test_bench_requires_fixed_r():
    with pytest.raises(Exception):
        orc.bench_vars("min-weight-clique", 2, [64, 128, 256, 512])
    result = orc.bench_vars("min-weight-clique", 2, [64, 128, 256, 512], r=5)
    assert result.rows[0][0] == 64


# --- CLI ------------------------------------------------------------------


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def write_poly(path, p):
    path.write_text(poly.dumps(p))
    return str(path)


def test_cli_solve_triangle(tmp_path, capsys):
    k3 = write_json(tmp_path / "k3.json", {"n": 3, "edges": [[1, 2], [1, 3], [2, 3]]})
    report = tmp_path / "report.json"
    code = run_cli(
        [
            "solve", "--problem", "triangle", "--input", k3,
            "--method", "formulation", "--theta", "2", "--report", str(report),
        ]
    )
    assert code == 0
    assert "yes" in capsys.readouterr().out
    data = json.loads(report.read_text())
    assert data["answer"] is True
    assert len(data["calls"]) == 1
    assert data["total_oracle_cost"] == data["calls"][0]["size"]


K3_REPORT = """{
  "answer": true,
  "calls": [
    {
      "charged_cost": 336,
      "result_nonzero": true,
      "size": 336
    }
  ],
  "instance_digest": "c70952f7360edd84",
  "problem": "induced-triangle",
  "total_oracle_cost": 336,
  "wall_time_seconds": WALL
}
"""

K3_BRUTE_REPORT = """{
  "answer": true,
  "calls": [],
  "instance_digest": "c70952f7360edd84",
  "problem": "induced-triangle",
  "total_oracle_cost": 0,
  "wall_time_seconds": WALL
}
"""


@pytest.mark.parametrize(
    "method, expected", [("formulation", K3_REPORT), ("brute", K3_BRUTE_REPORT)]
)
def test_cli_solve_report_text_is_pinned(tmp_path, method, expected):
    """The whole ``--report`` file, byte for byte, with only the wall time masked."""
    k3 = write_json(tmp_path / "k3.json", {"n": 3, "edges": [[1, 2], [1, 3], [2, 3]]})
    report = tmp_path / "report.json"
    argv = ["solve", "--problem", "triangle", "--input", k3, "--method", method,
            "--theta", "2", "--report", str(report)]
    assert run_cli(argv) == 0
    text = report.read_text()
    wall = json.loads(text)["wall_time_seconds"]
    assert isinstance(wall, float) and wall >= 0 and wall == round(wall, 6)
    masked = text.replace(f'"wall_time_seconds": {json.dumps(wall)}\n', '"wall_time_seconds": WALL\n')
    assert masked == expected


def test_readme_report_table_lists_every_key(tmp_path):
    """The README's ``--report`` table names the keys ``dump_report`` writes,
    at the top level and in each ``calls[]`` entry, no more and no fewer."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("`solve --report PATH` writes", 1)[1].split("\n\n", 2)[1]
    keys = re.findall(r"^\| `([\w\[\].]+)` \|", table, re.MULTILINE)
    k3 = write_json(tmp_path / "k3.json", {"n": 3, "edges": [[1, 2], [1, 3], [2, 3]]})
    report = tmp_path / "report.json"
    assert run_cli(["solve", "--problem", "triangle", "--input", k3, "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    assert sorted(k for k in keys if "." not in k) == sorted(data)
    assert sorted(k[len("calls[]."):] for k in keys if "." in k) == sorted(data["calls"][0])


def test_cli_solve_no_instance(tmp_path):
    path = write_json(tmp_path / "path.json", {"n": 3, "edges": [[1, 2], [2, 3]]})
    assert run_cli(["solve", "--problem", "triangle", "--input", path]) == 1
    assert run_cli(["solve", "--problem", "triangle", "--input", path, "--method", "brute"]) == 1


def test_cli_usage_errors(tmp_path):
    assert run_cli(["solve", "--problem", "nope", "--input", "x.json"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["solve", "--problem", "triangle", "--input", str(bad)]) == 2
    assert run_cli(["unknown-subcommand"]) == 2


def deep_json_argv(path, tmp_path, problem="ksum"):
    """Each JSON-reading subcommand, reading ``path`` where it reads JSON,
    as ``problem``'s input for solve and formulate; ``verify-circuit`` reads
    it as either file and, as the other, a valid circuit or polynomial
    written into ``tmp_path``."""
    circuit = write_json(tmp_path / "good_circuit.json", GOOD_CIRCUIT)
    polynomial = write_json(tmp_path / "good_poly.json", GOOD_POLY)
    return {
        "solve": ["solve", "--problem", problem, "--input", path],
        "formulate": ["formulate", "--problem", problem, "--input", path, "--size", "4",
                      "--out", str(tmp_path / "out.json")],
        "verify-circuit --circuit": ["verify-circuit", "--circuit", path, "--poly", polynomial,
                                     "--delta", "1"],
        "verify-circuit --poly": ["verify-circuit", "--circuit", circuit, "--poly", path,
                                  "--delta", "1"],
        "setcover": ["setcover", "--input", path],
    }


JSON_COMMANDS = ["solve", "formulate", "verify-circuit --circuit", "verify-circuit --poly",
                 "setcover"]


@pytest.mark.parametrize("command", JSON_COMMANDS)
def test_cli_deeply_nested_json_is_an_input_error(tmp_path, capsys, command):
    """A 100 000-deep array (200 KB) passes the JSON reader's recursion
    limit: an input error with one ``error:`` line naming the nesting, not a
    traceback."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    argv = deep_json_argv(str(path), tmp_path)[command]
    assert timed(lambda: run_cli(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert captured.err.endswith("JSON nested too deeply to read\n")


GRAPH = {"n": 4, "edges": [[1, 2], [2, 3]]}
WEIGHTED = {"n": 4, "edges": [[1, 2, 1], [2, 3, -1]], "k": 3, "threshold": 0}
POINTS = {"points": [[0, 0], [1, 1], [2, 2]]}
KSUM = {"k": 2, "sets": [[1, -1], [1, 2]]}


@pytest.mark.parametrize(
    "problem, good, bad",
    [
        pytest.param("triangle", GRAPH, {"n": 4, "edges": 5}, id="graph-edges-5"),
        pytest.param("triangle", GRAPH, [GRAPH], id="graph-list"),
        pytest.param("triangle", GRAPH, {"n": 4, "edges": [[None, 2]]}, id="graph-null"),
        pytest.param("min-weight-clique", WEIGHTED, {**WEIGHTED, "edges": 5}, id="weighted-5"),
        pytest.param("min-weight-clique", WEIGHTED, [WEIGHTED], id="weighted-list"),
        pytest.param(
            "min-weight-clique", WEIGHTED, {**WEIGHTED, "edges": [[1, None, 2]]}, id="weighted-null"
        ),
        pytest.param("min-weight-clique", WEIGHTED, {**WEIGHTED, "k": None}, id="weighted-null-k"),
        pytest.param("collinearity", POINTS, {"points": 5}, id="points-5"),
        pytest.param("collinearity", POINTS, [POINTS], id="points-list"),
        pytest.param("collinearity", POINTS, {"points": [[0, None]]}, id="points-null"),
        pytest.param("ksum", KSUM, {**KSUM, "sets": 5}, id="ksum-sets-5"),
        pytest.param("ksum", KSUM, [KSUM], id="ksum-list"),
        pytest.param("ksum", KSUM, {**KSUM, "sets": [[1, None], [1, 2]]}, id="ksum-null"),
    ],
)
def test_cli_solve_malformed_json(tmp_path, problem, good, bad):
    def solve(payload):
        path = write_json(tmp_path / "input.json", payload)
        return run_cli(["solve", "--problem", problem, "--input", path])

    assert solve(good) in (0, 1)
    assert solve(bad) == 2


@pytest.mark.parametrize(
    "problem, data",
    [
        pytest.param("triangle", {"n": 3, "edges": [[1, 2, 7, 8]]}, id="graph-four"),
        pytest.param(
            "min-weight-clique", {**WEIGHTED, "edges": [[1, 2, 5, 99, 100]]}, id="weighted-five"
        ),
    ],
)
def test_cli_solve_refuses_an_edge_entry_past_three_integers(tmp_path, capsys, problem, data):
    """An edge entry is [u, v] or [u, v, w]; a longer one is refused, not cut."""
    path = write_json(tmp_path / "input.json", data)
    assert run_cli(["solve", "--problem", problem, "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: wrong number of integers")


def test_size_errors_are_one_family():
    """Every cap raises the one size error, a package error."""
    sizes = [name for name in vars(errors) if name.endswith(("TooLarge", "Exceeded"))]
    assert sizes == ["CapExceeded"] and issubclass(CapExceeded, PolyOracleError)


def test_cli_cap_errors(tmp_path, capsys):
    huge = write_json(
        tmp_path / "huge.json", {"k": 2, "sets": [[0], [0]], "magnitude": 10**6}
    )
    assert run_cli(["solve", "--problem", "ksum", "--input", huge, "--method", "brute"]) == 0
    assert "yes" in capsys.readouterr().out
    # A small universe, but 256**256 tuples for the unpruned brute walk.
    wide = write_json(tmp_path / "wide.json", {"k": 256, "sets": [[0]] * 256})
    argv = ["solve", "--problem", "ksum", "--input", wide, "--method", "brute"]
    assert timed(lambda: run_cli(argv)) == 3
    assert "cap brute_walk exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("theta", [10**12, 10**400], ids=["1e12", "1e400"])
@pytest.mark.parametrize("report", [False, True])
def test_cli_solve_huge_theta(tmp_path, capsys, theta, report):
    """The candidate top is decided without building 2**(theta * L), and a
    call size past the largest float is charged in integers."""
    k3 = write_json(tmp_path / "k3.json", {"n": 3, "edges": [[1, 2], [1, 3], [2, 3]]})
    argv = ["solve", "--problem", "triangle", "--input", k3, "--theta", str(theta)]
    out = tmp_path / "report.json"
    assert timed(lambda: run_cli(argv + ["--report", str(out)] * report)) == 0
    assert "yes" in capsys.readouterr().out
    if report:
        (call,) = json.loads(out.read_text())["calls"]
        assert call["size"] > theta and call["charged_cost"] == call["size"]


@pytest.mark.parametrize("report", [False, True])
def test_cli_solve_refuses_unprintable_call_size(tmp_path, capsys, report):
    """At theta = 10**4299 the call size has more digits than CPython turns
    into text by default: the solve exits 3 before it walks, and no report
    file is started."""
    k3 = write_json(tmp_path / "k3.json", {"n": 3, "edges": [[1, 2], [1, 3], [2, 3]]})
    argv = ["solve", "--problem", "triangle", "--input", k3, "--theta", str(10**4299)]
    out = tmp_path / "report.json"
    assert timed(lambda: run_cli(argv + ["--report", str(out)] * report)) == 3
    assert "cap call_bits exceeded" in capsys.readouterr().err
    assert not out.exists()


def test_cli_solve_b_slots_past_a_million_codes(tmp_path, capsys):
    """path3's b-slot ranges over the n**2 - 2 codes outside S: at n = 3000
    the declared member draws the one non-edge among the path's vertices
    instead, so the solve answers without listing the complement."""
    path = write_json(tmp_path / "path.json", {"n": 3000, "edges": [[1, 2], [2, 3]]})
    assert timed(lambda: run_cli(["solve", "--problem", "path3", "--input", path])) == 0
    assert ": yes" in capsys.readouterr().out


EDGE_AND_ISOLATED = {"n": 3, "edges": [[1, 2]]}


@pytest.mark.parametrize(
    "problem, data",
    [
        ("h-induced", {"n": 10**12, "edges": [[1, 2]], "H": EDGE_AND_ISOLATED}),
        ("family-induced", {"n": 10**12, "edges": [[1, 2]], "family": [EDGE_AND_ISOLATED]}),
    ],
    ids=["h-induced", "family-induced"],
)
def test_cli_solve_b_slots_past_sys_maxsize(tmp_path, capsys, problem, data):
    """The isolated vertex's b-slot ranges over the n**2 - 1 codes outside S,
    more than sys.maxsize at n = 10**12, a length len() cannot report: the
    walk is refused at the ls_walk cap, with no traceback."""
    path = write_json(tmp_path / "graph.json", data)
    assert timed(lambda: run_cli(["solve", "--problem", problem, "--input", path])) == 3
    assert "cap ls_walk exceeded" in capsys.readouterr().err


def test_cli_solve_brute_report_needs_a_printable_instance(tmp_path, capsys):
    """k-SUM whose n has more than 4 300 decimal digits: the brute route
    answers, but the report's instance digest cannot print n, so the solve
    exits 2, with no traceback, before the report file is opened."""
    data = {"k": 2, "sets": [[0], [0]], "magnitude": "9" + "0" * 4299}
    path = write_json(tmp_path / "ksum.json", data)
    out = tmp_path / "report.json"
    argv = ["solve", "--problem", "ksum", "--input", path, "--method", "brute"]
    assert timed(lambda: run_cli(argv + ["--report", str(out)])) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


def _gnp(rng, n, p):
    return [[u, v] for u, v in combinations(range(1, n + 1), 2) if rng.random() < p]


STAR_5 = {"n": 6, "edges": [[1, v] for v in range(2, 7)]}
K5 = {"n": 5, "edges": [list(pair) for pair in combinations(range(1, 6), 2)]}
WALK_HEAVY = [
    pytest.param(
        "ksum",
        lambda rng: {"k": 4, "sets": [rng.sample(range(1, 10**6), 100) for _ in range(4)]},
        id="ksum-4x100",
    ),
    pytest.param(
        "h-induced", lambda rng: {"n": 30, "edges": _gnp(rng, 30, 0.3), "H": STAR_5}, id="star5-G30"
    ),
    pytest.param(
        "h-induced", lambda rng: {"n": 40, "edges": _gnp(rng, 40, 0.5), "H": K5}, id="k5-G40"
    ),
    pytest.param(
        "min-weight-clique",
        lambda rng: {
            "n": 30,
            "edges": [[u, v, rng.randint(0, 9)] for u, v in _gnp(rng, 30, 0.6)],
            "k": 5,
            "threshold": -1,
        },
        id="light-5-clique-G30",
    ),
    pytest.param(
        "collinearity", lambda rng: {"points": [[x, x] for x in range(2000)]}, id="collinear-2000"
    ),
    pytest.param(
        "collinearity",
        lambda rng: {"points": [[x, rng.randint(-(10**6), 10**6)] for x in range(10**4)]},
        id="points-10000",
    ),
    pytest.param(
        "h-induced",
        lambda rng: {"n": 3000, "edges": [[1, 2]], "H": {"n": 3, "edges": [[1, 2]]}},
        id="isolated-vertex-3000",
    ),
]


@pytest.mark.parametrize("problem, build", WALK_HEAVY)
def test_cli_ls_walks_are_bounded(tmp_path, capsys, problem, build):
    """Inputs within every size cap whose formulation walk would try far more
    candidates than one walk may stop at the ls_walk cap: a 4-SUM over four
    sets of 100 positive values, an induced 5-leaf star or k5 and a 5-clique
    of negative weight, each on a seeded random graph, and collinearity on
    2 000 points of one line or 10**4 seeded points, whose line index is
    built one first point at a time as the walk reaches it, and a one-edge
    pattern with an isolated vertex on 3 000 vertices, whose first non-edge
    slot, with room for a fresh vertex, falls back to the complement of
    about 9 * 10**6 codes and is refused by its length before it is walked."""
    path = write_json(tmp_path / "input.json", build(random.Random(1)))
    assert timed(lambda: run_cli(["solve", "--problem", problem, "--input", path])) == 3
    assert "cap ls_walk exceeded" in capsys.readouterr().err


def _sparse_graph(rng, n, m):
    edges = set()
    while len(edges) < m:
        edges.add(tuple(sorted(rng.sample(range(1, n + 1), 2))))
    return [list(edge) for edge in sorted(edges)]


HEADLINE = [
    pytest.param(
        "triangle",
        lambda rng: {"n": 5000, "edges": _sparse_graph(rng, 5000, 10**4)},
        id="triangle-5000v-10000e",
    ),
    pytest.param(
        "ksum",
        lambda rng: {"k": 3, "sets": [rng.sample(range(-(10**6), 10**6), 300) for _ in range(3)]},
        id="3sum-3x300",
    ),
]


@pytest.mark.parametrize("problem, build", HEADLINE)
def test_cli_solve_answers_headline_sizes(tmp_path, capsys, problem, build):
    """The paper's headline problems past toy sizes, under the unchanged
    caps: triangle detection on a seeded sparse graph of 5 000 vertices and
    10**4 edges, and 3-SUM over three sets of 300 values, each answers yes
    within 1 s.  The count is checked against a reference that shares no
    code with the library: adjacency-set intersection times the 3! edge
    orderings, or hash lookup of the value closing each pair."""
    data = build(random.Random(1))
    path = write_json(tmp_path / "input.json", data)
    start = time.perf_counter()
    assert run_cli(["solve", "--problem", problem, "--input", path]) == 0
    assert time.perf_counter() - start < 1
    assert ": yes" in capsys.readouterr().out
    spec, inst = pr.build_problem(problem, data)
    if problem == "triangle":
        expected = 6 * triangle_count(pr.graph_from_json(data))
    else:
        expected = zero_sum_triples(data["sets"])
    assert ls.evaluate_formulation(spec, inst, 2) == expected > 0


def test_cli_solve_sparse_path3_on_2000_vertices(tmp_path, capsys):
    """Induced path3 on a seeded sparse graph of 2 000 vertices and 4 000
    edges, whose b-slot complement holds about 4 * 10**6 codes, answers yes
    within 1 s.  The count is checked against a reference sharing no code
    with the library: the paths u - v - w, sum over v of C(deg v, 2), less
    the three such paths inside each triangle, times the 2! edge orderings."""
    data = {"n": 2000, "edges": _sparse_graph(random.Random(1), 2000, 4000)}
    path = write_json(tmp_path / "input.json", data)
    start = time.perf_counter()
    assert run_cli(["solve", "--problem", "path3", "--input", path]) == 0
    assert time.perf_counter() - start < 1
    assert ": yes" in capsys.readouterr().out
    spec, inst = pr.build_problem("path3", data)
    expected = 2 * induced_path3_count(pr.graph_from_json(data))
    assert ls.evaluate_formulation(spec, inst, 2) == expected > 0


@pytest.mark.parametrize("threshold", [0, 20])
@pytest.mark.parametrize("mode", ["edge-weights", "vertex-weights"])
def test_cli_solve_max_h_c4_on_ten_vertices(tmp_path, capsys, mode, threshold):
    """Induced c4 of weight >= threshold on a seeded 10-vertex graph of 17
    weighted edges, theta = 2, answers within 0.5 s in both modes; at
    threshold 20 the records need r = 5, so each b-slot's complement holds
    about 10**5 codes.  The count is checked against
    ``heavy_pattern_witnesses``."""
    graph = random_weighted_graph(random.Random(10), 10, 5, 20, True)
    data = {
        "n": graph.n,
        "edges": [[u, v, w] for (u, v), w in graph.edge_weights],
        "vertex_weights": list(graph.vertex_weights),
        "magnitude": graph.magnitude,
        "H": "c4",
        "threshold": threshold,
        "mode": mode,
    }
    path = write_json(tmp_path / "input.json", data)
    expected = heavy_pattern_witnesses(graph, pr.H_PRESETS["c4"], threshold, mode)
    argv = ["solve", "--problem", "max-h-subgraph", "--input", path]
    start = time.perf_counter()
    assert run_cli(argv) == (0 if expected else 1)
    assert time.perf_counter() - start < 0.5
    spec, inst = pr.build_problem("max-h-subgraph", data)
    assert ls.evaluate_formulation(spec, inst, 2) == expected
    assert f": {'yes' if expected else 'no'} (" in capsys.readouterr().out


def test_cli_walk_cost_ignores_vertex_labels(tmp_path, capsys):
    """A step's work is bounded by the pattern, not by the vertex labels: an
    induced triangle in G(40, 0.3) relabelled to the top of [10**6] answers
    within 2 s, yes as on labels 1..40."""
    edges = _gnp(random.Random(1), 40, 0.3)
    for n in (40, 10**6):
        shifted = [[u + n - 40, v + n - 40] for u, v in edges]
        path = write_json(tmp_path / "input.json", {"n": n, "edges": shifted, "H": "triangle"})
        assert timed(lambda: run_cli(["solve", "--problem", "h-induced", "--input", path])) == 0
        assert ": yes" in capsys.readouterr().out


@pytest.mark.parametrize("n", [5, 8])
def test_cli_solve_sparse_pattern_walks_one_ordering(tmp_path, capsys, monkeypatch, n):
    """A one-edge pattern on 5 vertices has 9 interchangeable non-edge slots:
    the count walks one ordering of them instead of all 9! and multiplies."""
    path = write_json(
        tmp_path / "input.json", {"n": n, "edges": [[1, 2]], "H": {"n": 5, "edges": [[1, 2]]}}
    )
    counts = []
    inner = ls.exact_evaluation_oracle

    def recording(query):
        counts.append(inner(query))
        return counts[-1]

    monkeypatch.setattr(ls, "exact_evaluation_oracle", recording)
    start = time.perf_counter()
    argv = ["solve", "--problem", "h-induced", "--input", path, "--method", "formulation"]
    assert run_cli(argv) == 0
    assert time.perf_counter() - start < 1
    assert "yes" in capsys.readouterr().out
    graph = pr.GraphInput(n, frozenset({(1, 2)}))
    copies = induced_copies(graph, pr.PatternGraph("one-edge", 5, frozenset({(1, 2)})))
    assert copies == math.comb(n - 2, 3)
    assert counts == [copies * math.factorial(1) * math.factorial(9)]


FOUND_FAMILY = ["k4", {"n": 4, "edges": [[1, 2]]}]
K4 = [[u, v] for u in range(1, 5) for v in range(u + 1, 5)]


@pytest.mark.parametrize(
    "edges",
    [
        pytest.param([[1, 2]], id="one-edge"),
        pytest.param(K4 + [[5, 6]], id="k4-and-edge"),
        pytest.param([], id="edgeless"),
    ],
)
def test_cli_solve_family_walks_only_the_slots_members_read(tmp_path, capsys, edges):
    """The family [k4, a one-edge 4-vertex pattern] on 6 vertices: k4 fills
    six edge slots, the other member one edge and five non-edge slots.  Each
    member walks only its own slots freely; every other slot holds one
    filler code, so the count stays fast."""
    data = {"n": 6, "edges": edges, "family": FOUND_FAMILY}
    path = write_json(tmp_path / "input.json", data)
    start = time.perf_counter()
    argv = ["solve", "--problem", "family-induced", "--input", path, "--method", "formulation"]
    code = run_cli(argv)
    assert time.perf_counter() - start < 1
    graph = pr.graph_from_json(data)
    expected = any(has_induced_pattern(graph, pr.pattern_from_json(p)) for p in FOUND_FAMILY)
    assert code == (0 if expected else 1)
    assert ("yes" if expected else "no") in capsys.readouterr().out


def test_cli_solve_family_refuses_a_pattern_on_one_vertex(tmp_path, capsys):
    """No pair slot can witness a one-vertex pattern, so a family holding
    one is a usage error rather than a "no" on a graph with five copies."""
    data = {"n": 5, "edges": [], "family": ["k4", {"n": 1, "edges": []}]}
    path = write_json(tmp_path / "input.json", data)
    assert run_cli(["solve", "--problem", "family-induced", "--input", path]) == 2
    assert "two or more vertices" in capsys.readouterr().err


def _path(n):
    return [[v, v + 1] for v in range(1, n)]


PRISM = [[v, v % 6 + 1] for v in range(1, 7)] + [[v + 6, v % 6 + 7] for v in range(1, 7)]
PRISM += [[v, v + 6] for v in range(1, 7)]
MOBIUS_LADDER = [[v, v % 12 + 1] for v in range(1, 13)] + [[v, v + 6] for v in range(1, 7)]


@pytest.mark.parametrize(
    "graph, pattern",
    [
        *(
            pytest.param(
                {"n": n, "edges": [[1, v] for v in range(2, n + 1)]},
                {"n": n, "edges": _path(n)},
                id=f"star-{n}-vs-P{n}",
            )
            for n in (9, 10, 11, 12)
        ),
        pytest.param(
            {"n": 12, "edges": PRISM}, {"n": 12, "edges": MOBIUS_LADDER}, id="prism-vs-mobius"
        ),
    ],
)
def test_cli_solve_pattern_acceptance_is_not_a_permutation_search(
    tmp_path, capsys, graph, pattern
):
    """The star K_{1,n-1} against the path P_n, and the hexagonal prism
    against the Moebius ladder on 12 vertices: each pair has as many edges,
    so the walk's first tuple spans every vertex and reaches ``accept``,
    which must not try the pattern's n! bijections.  No copy exists; the
    walk answers no or stops at its cap."""
    path = write_json(tmp_path / "input.json", {**graph, "H": pattern})
    code = timed(lambda: run_cli(["solve", "--problem", "h-induced", "--input", path]))
    captured = capsys.readouterr()
    assert code in (1, 3)
    assert ": no" in captured.out if code == 1 else "cap ls_walk exceeded" in captured.err


SLOT_HEAVY = [
    pytest.param("ksum", {"k": 1500, "sets": [[0]] * 1500}, id="ksum-1500"),
    pytest.param(
        "min-weight-clique",
        {"n": 3, "edges": [[1, 2, 1], [2, 3, 1], [1, 3, 1]], "k": 10**12, "threshold": 5},
        id="clique-k-1e12",
    ),
    pytest.param(
        "h-induced", {"n": 3, "edges": [[1, 2]], "H": {"n": 10**12, "edges": [[1, 2]]}},
        id="pattern-1e12-vertices",
    ),
]


@pytest.mark.parametrize("method", ["formulation", "brute"])
@pytest.mark.parametrize("problem, payload", SLOT_HEAVY)
def test_cli_solve_slot_count_cap(tmp_path, capsys, problem, payload, method):
    """More witness slots than the walk allows is refused before any pool is
    built, instead of an OverflowError or a RecursionError."""
    path = write_json(tmp_path / "input.json", payload)
    argv = ["solve", "--problem", problem, "--input", path, "--method", method]
    assert timed(lambda: run_cli(argv)) == 3
    assert "cap witness_slots exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("last_set, answer", [([0], 0), ([1], 1)])
def test_cli_solve_at_slot_count_cap(tmp_path, capsys, last_set, answer):
    k = 256
    path = write_json(tmp_path / "ksum.json", {"k": k, "sets": [[0]] * (k - 1) + [last_set]})
    assert timed(lambda: run_cli(["solve", "--problem", "ksum", "--input", path])) == answer
    assert capsys.readouterr().out.startswith(f"{k}-sum: {'no' if answer else 'yes'}")
    too_many = write_json(tmp_path / "more.json", {"k": k + 1, "sets": [[0]] * (k + 1)})
    assert run_cli(["solve", "--problem", "ksum", "--input", too_many]) == 3


def test_cli_setcover_huge_universe(tmp_path, capsys):
    path = write_json(tmp_path / "f.json", {"n": 10**12, "sets": [[1]]})
    assert timed(lambda: run_cli(["setcover", "--input", path])) == 1
    assert capsys.readouterr().out.strip() == "uncoverable"


def test_cli_setcover_huge_element(tmp_path, capsys):
    """One element cannot cover [10**11]; that is decided before the set's
    mask, of as many bits as its element, would take 12.5 GB."""
    path = write_json(tmp_path / "f.json", {"n": 10**11, "sets": [[10**11]]})
    assert timed(lambda: run_cli(["setcover", "--input", path])) == 1
    assert capsys.readouterr().out.strip() == "uncoverable"


def test_cli_setcover_brute_set_cap(tmp_path, capsys):
    """1 501 sets would recurse past CPython's limit; the cap refuses them first."""
    path = write_json(tmp_path / "f.json", {"n": 1, "sets": [[]] * 1500 + [[1]]})
    assert timed(lambda: run_cli(["setcover", "--input", path, "--method", "brute"])) == 3
    assert "cap setcover_brute exceeded: 1501 > 256" in capsys.readouterr().err


def test_cli_setcover_refuses_a_wide_branched_universe_before_expanding(tmp_path, capsys):
    """Ten 20-element sets over n = 40 branch down to m = 40 > 12 elements:
    refused before the expansion splits each set into up to 2**20 sets."""
    rng = random.Random(1)
    sets = [rng.sample(range(1, 41), 20) for _ in range(8)]
    sets += [list(range(1, 21)), list(range(21, 41))]
    path = write_json(tmp_path / "f.json", {"n": 40, "sets": sets})
    assert timed(lambda: run_cli(["setcover", "--input", path])) == 3
    assert "cap setpartition_universe exceeded: 40 > 12" in capsys.readouterr().err


@pytest.mark.parametrize(
    "method, message",
    [
        ("brute", "cap setcover_brute exceeded: 40001 > 256"),
        ("reduction", "reduction needs a universe of at least 2*theta*maxsize = 80000"),
    ],
)
def test_cli_setcover_refuses_by_size_before_building_masks(tmp_path, capsys, method, message):
    """n = 40 000: one full set plus 40 000 copies of [40000].  Both refusals
    are decided from the lists' sizes, before 40 001 masks of 40 000 bits
    each (about 200 MB) are built, so the command allocates under 50 MB."""
    n = 40_000
    path = write_json(tmp_path / "f.json", {"n": n, "sets": [list(range(1, n + 1))] + [[n]] * n})
    tracemalloc.start()
    try:
        code = run_cli(["setcover", "--input", path, "--method", method])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and message in capsys.readouterr().err
    assert peak < 50 * 2**20, f"peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("method", ["brute", "reduction"])
@pytest.mark.parametrize("sets", [[], [[]]])
def test_cli_setcover_negative_universe_is_an_input_error(tmp_path, capsys, method, sets):
    path = write_json(tmp_path / "f.json", {"n": -1, "sets": sets})
    assert run_cli(["setcover", "--input", path, "--method", method]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: universe size must be nonnegative\n"


def test_cli_formulate(tmp_path):
    graph = {"n": 3, "edges": [[1, 2], [1, 3], [2, 3]]}
    k3 = write_json(tmp_path / "k3.json", graph)
    out = tmp_path / "poly.json"
    code = run_cli(
        ["formulate", "--problem", "triangle", "--input", k3, "--size", "4",
         "--theta", "1", "--out", str(out)]
    )
    assert code == 0
    parsed = poly.from_json_dict(json.loads(out.read_text()))
    assert parsed.num_vars == ls.variable_count(4, 2, 1)
    spec, _ = pr.build_problem("triangle", graph)
    assert out.read_text() == poly.dumps(ls.formulation_polynomial(spec, 4, 1)) + "\n"


def test_cli_formulate_parametrised_problem_needs_input(tmp_path, capsys):
    """k-SUM has no default input: formulate without --input is an input
    error with one ``error:`` line, and writes nothing."""
    out = tmp_path / "poly.json"
    argv = ["formulate", "--problem", "ksum", "--size", "4", "--out", str(out)]
    assert run_cli(argv) == 2
    assert capsys.readouterr() == ("", "error: problem 'ksum' needs --input to fix its parameters\n")
    assert not out.exists()


def test_cli_verify_circuit(tmp_path):
    target = poly.polynomial(2, {((0, 1), (1, 1)): 2, (): -3})
    good = ci.build_circuit_from_polynomial(target)
    poly_path = write_poly(tmp_path / "p.json", target)
    good_path = write_json(tmp_path / "good.json", ci.to_json_dict(good))
    assert run_cli(
        ["verify-circuit", "--circuit", good_path, "--poly", poly_path, "--delta", "3"]
    ) == 0
    gates = list(good.gates)
    for i, g in enumerate(gates):
        if isinstance(g, ci.ConstGate):
            gates[i] = ci.ConstGate(g.value + 1)
            break
    bad = ci.ArithmeticCircuit(good.num_inputs, tuple(gates), good.output)
    bad_path = write_json(tmp_path / "bad.json", ci.to_json_dict(bad))
    assert run_cli(
        ["verify-circuit", "--circuit", bad_path, "--poly", poly_path, "--delta", "3"]
    ) == 1


def test_cli_verify_circuit_clamps_delta(tmp_path):
    target = poly.polynomial(1, {((0, 2),): 1})
    circuit_path = write_json(
        tmp_path / "c.json", ci.to_json_dict(ci.build_circuit_from_polynomial(target))
    )
    poly_path = write_poly(tmp_path / "p.json", target)
    start = time.perf_counter()
    code = run_cli(
        ["verify-circuit", "--circuit", circuit_path, "--poly", poly_path,
         "--delta", "1000000000"]
    )
    assert code == 0
    assert time.perf_counter() - start < 2


def test_cli_verify_circuit_bounds_a_product_before_forming_it(tmp_path, capsys):
    """(x0 + ... + x99)**4 as the square of a square: the last product would
    pair 5 050 terms with 5 050, past the gate_pairs cap, and is refused
    before its first pair."""
    gates = [ci.InputGate(i) for i in range(100)]
    total = 0
    for i in range(1, 100):
        gates.append(ci.AddGate(total, i))
        total = len(gates) - 1
    gates += [ci.MulGate(total, total), ci.MulGate(total + 1, total + 1)]
    circuit = ci.ArithmeticCircuit(100, tuple(gates), total + 2)
    circuit_path = write_json(tmp_path / "c.json", ci.to_json_dict(circuit))
    poly_path = write_poly(tmp_path / "p.json", poly.polynomial(100, {}))
    argv = ["verify-circuit", "--circuit", circuit_path, "--poly", poly_path, "--delta", "4"]
    assert timed(lambda: run_cli(argv)) == 1
    assert capsys.readouterr().out.strip() == "verify: cap_exceeded"


@pytest.mark.parametrize("squaring", [False, True])
def test_cli_verify_circuit_charges_only_the_pairs_a_truncation_keeps(tmp_path, capsys, squaring):
    """(x0 + ... + x39)**4 at delta = 2 against the zero polynomial: every
    pair past s**2 has degree above 2, so no build forms one and both the
    left-folded build and the square of a square match.  Charging the
    square's 820 * 820 dropped pairs would pass the gate_pairs cap."""
    gates = [ci.InputGate(i) for i in range(40)]
    total = 0
    for i in range(1, 40):
        gates.append(ci.AddGate(total, i))
        total = len(gates) - 1
    gates.append(ci.MulGate(total, total))
    if squaring:
        gates.append(ci.MulGate(total + 1, total + 1))
    else:
        gates += [ci.MulGate(total + 1, total), ci.MulGate(total + 2, total)]
    circuit = ci.ArithmeticCircuit(40, tuple(gates), len(gates) - 1)
    circuit_path = write_json(tmp_path / "c.json", ci.to_json_dict(circuit))
    poly_path = write_poly(tmp_path / "p.json", poly.polynomial(40, {}))
    argv = ["verify-circuit", "--circuit", circuit_path, "--poly", poly_path, "--delta", "2"]
    assert timed(lambda: run_cli(argv)) == 0
    assert capsys.readouterr().out.strip() == "verify: match"


@pytest.mark.parametrize("inputs", [32, 42])
def test_cli_verify_circuit_bounds_the_pairs_of_all_products(tmp_path, capsys, inputs):
    """Five product gates each square s**2, s = x0 + ... + x_{inputs-1}, then
    are summed.  With 32 inputs each forms 528 * 528 pairs, under the
    gate_pairs cap, and the second takes the expansion's running total past
    it; with 42 the first does, at 903 * 903.  Either is refused before its
    first pair."""
    gates = [ci.InputGate(i) for i in range(inputs)]
    total = 0
    for i in range(1, inputs):
        gates.append(ci.AddGate(total, i))
        total = len(gates) - 1
    gates.append(ci.MulGate(total, total))
    products = range(len(gates), len(gates) + 5)
    gates += [ci.MulGate(len(gates) - 1, len(gates) - 1)] * 5
    total = products[0]
    for product in products[1:]:
        gates.append(ci.AddGate(total, product))
        total = len(gates) - 1
    circuit = ci.ArithmeticCircuit(inputs, tuple(gates), total)
    circuit_path = write_json(tmp_path / "c.json", ci.to_json_dict(circuit))
    poly_path = write_poly(tmp_path / "p.json", poly.polynomial(inputs, {}))
    argv = ["verify-circuit", "--circuit", circuit_path, "--poly", poly_path, "--delta", "4"]
    assert timed(lambda: run_cli(argv)) == 1
    assert capsys.readouterr().out.strip() == "verify: cap_exceeded"


def test_cli_verify_circuit_bounds_the_terms_sums_copy(tmp_path, capsys):
    """s = x0 + ... + x9999, then s + x_i in 10 000 further sum gates: each
    but the last copies s's 10 000 terms, so the sums copy 99 990 001 terms
    in all, and the copies count toward the gate_pairs cap."""
    inputs = 10_000
    gates = [ci.InputGate(i) for i in range(inputs)]
    total = 0
    for i in range(1, inputs):
        gates.append(ci.AddGate(total, i))
        total = len(gates) - 1
    gates += [ci.AddGate(total, i) for i in range(inputs)]
    circuit = ci.ArithmeticCircuit(inputs, tuple(gates), len(gates) - 1)
    circuit_path = write_json(tmp_path / "c.json", ci.to_json_dict(circuit))
    poly_path = write_poly(tmp_path / "p.json", poly.polynomial(inputs, {}))
    argv = ["verify-circuit", "--circuit", circuit_path, "--poly", poly_path, "--delta", "2"]
    assert timed(lambda: run_cli(argv)) == 1
    assert capsys.readouterr().out.strip() == "verify: cap_exceeded"


GOOD_CIRCUIT = {"num_inputs": 1, "gates": [{"op": "input", "i": 0}], "output": 0}
GOOD_POLY = {"num_vars": 1, "monomials": [{"coeff": "1", "powers": [[0, 1]]}]}


@pytest.mark.parametrize(
    "circuit_data, poly_data",
    [
        ({**GOOD_CIRCUIT, "gates": 5}, GOOD_POLY),
        ([GOOD_CIRCUIT], GOOD_POLY),
        ({**GOOD_CIRCUIT, "gates": [None]}, GOOD_POLY),
        (GOOD_CIRCUIT, {**GOOD_POLY, "monomials": 5}),
        (GOOD_CIRCUIT, [GOOD_POLY]),
        (GOOD_CIRCUIT, {**GOOD_POLY, "monomials": [None]}),
        ({**GOOD_CIRCUIT, "gates": [{"op": "input", "i": None}]}, GOOD_POLY),
        (GOOD_CIRCUIT, {**GOOD_POLY, "monomials": [{"coeff": "1", "powers": [5]}]}),
    ],
)
def test_cli_verify_circuit_malformed_json(tmp_path, circuit_data, poly_data):
    def verify(circuit_payload, poly_payload):
        circuit_path = write_json(tmp_path / "c.json", circuit_payload)
        poly_path = write_json(tmp_path / "p.json", poly_payload)
        return run_cli(
            ["verify-circuit", "--circuit", circuit_path, "--poly", poly_path, "--delta", "1"]
        )

    assert verify(GOOD_CIRCUIT, GOOD_POLY) == 0
    assert verify(circuit_data, poly_data) == 2


@pytest.mark.parametrize("command", JSON_COMMANDS)
def test_cli_refuses_a_fraction_in_an_integer_field(tmp_path, capsys, command):
    """Each JSON file the CLI reads refuses 1.5 where an integer belongs."""
    bad = {
        "solve": {**KSUM, "k": 1.5},
        "formulate": {**KSUM, "k": 1.5},
        "verify-circuit --circuit": {**GOOD_CIRCUIT, "num_inputs": 1.5},
        "verify-circuit --poly": {**GOOD_POLY, "num_vars": 1.5},
        "setcover": {"n": 1.5, "sets": [[1]]},
    }[command]
    argv = deep_json_argv(write_json(tmp_path / "bad.json", bad), tmp_path)[command]
    assert run_cli(argv) == 2
    assert capsys.readouterr() == ("", "error: expected an integer, got 1.5\n")


def without_each_key(payload, path=()):
    """(path, a copy of ``payload`` lacking the key the path ends in) for
    each key of each object in ``payload``, at any depth."""
    if isinstance(payload, dict):
        for key, value in payload.items():
            yield (*path, key), {k: v for k, v in payload.items() if k != key}
            for inner, smaller in without_each_key(value, (*path, key)):
                yield inner, {**payload, key: smaller}
    elif isinstance(payload, list):
        for index, item in enumerate(payload):
            for inner, smaller in without_each_key(item, (*path, str(index))):
                yield inner, [*payload[:index], smaller, *payload[index + 1 :]]


PATTERN = {"n": 2, "edges": [[1, 2]]}
ALL_GATES = {
    "num_inputs": 1,
    "gates": [{"op": "input", "i": 0}, {"op": "const", "v": "2"},
              {"op": "add", "l": 0, "r": 1}, {"op": "mul", "l": 2, "r": 0}],
    "output": 3,
}
# Each JSON file the CLI reads, holding only keys it requires: (the
# command, its problem for solve and formulate, a valid payload).
REQUIRED_KEY_FILES = {
    "solve ksum": ("solve", "ksum", KSUM),
    "solve collinearity": ("solve", "collinearity", POINTS),
    "solve triangle": ("solve", "triangle", GRAPH),
    "solve h-induced": ("solve", "h-induced", {**GRAPH, "H": PATTERN}),
    "solve family-induced": ("solve", "family-induced", {**GRAPH, "family": ["edge", PATTERN]}),
    "solve min-weight-clique": ("solve", "min-weight-clique", WEIGHTED),
    "solve max-h-subgraph": ("solve", "max-h-subgraph", {**GRAPH, "H": "edge", "threshold": 0}),
    "formulate ksum": ("formulate", "ksum", KSUM),
    "verify-circuit --circuit": ("verify-circuit --circuit", None, ALL_GATES),
    "verify-circuit --poly": ("verify-circuit --poly", None, GOOD_POLY),
    "setcover": ("setcover", None, {"n": 6, "sets": [[1, 2, 3], [4, 5, 6]]}),
}


@pytest.mark.parametrize(
    "file, key, payload",
    [
        pytest.param(file, path[-1], payload, id=f"{file}-{'.'.join(path)}")
        for file, (_, _, whole) in REQUIRED_KEY_FILES.items()
        for path, payload in without_each_key(whole)
    ],
)
def test_cli_names_each_missing_key(tmp_path, capsys, file, key, payload):
    """Each JSON file the CLI reads, lacking one required key at any depth,
    is an input error whose one line names the key; the whole file is not."""
    command, problem, whole = REQUIRED_KEY_FILES[file]

    def run(data):
        path = write_json(tmp_path / "input.json", data)
        return run_cli(deep_json_argv(path, tmp_path, problem or "ksum")[command])

    assert run(whole) in (0, 1)
    capsys.readouterr()
    assert run(payload) == 2
    assert capsys.readouterr() == ("", f"error: missing key {key!r}\n")


def test_cli_verify_circuit_rejects_a_negative_input_count(tmp_path, capsys):
    """A circuit declaring -1 inputs is refused as input, as a polynomial
    declaring -1 variables is, rather than compared and found to differ."""
    circuit_path = write_json(
        tmp_path / "c.json",
        {"num_inputs": -1, "gates": [{"op": "const", "v": "1"}], "output": 0},
    )
    poly_path = write_poly(tmp_path / "p.json", poly.polynomial(0, {(): 1}))
    argv = ["verify-circuit", "--circuit", circuit_path, "--poly", poly_path, "--delta", "1"]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert "num_inputs" in captured.err and "Traceback" not in captured.err + captured.out
    with pytest.raises(ValueError):
        ci.ArithmeticCircuit(-1, (ci.ConstGate(1),), 0)


def test_cli_permanent(tmp_path, capsys):
    matrix = tmp_path / "m.txt"
    matrix.write_text("110\n011\n101\n")
    for method in ("brute", "formulation"):
        assert run_cli(["permanent", "--matrix", str(matrix), "--method", method]) == 0
        assert capsys.readouterr().out.strip() == "2"
    assert run_cli(["permanent", "--matrix", str(matrix), "--theta", "1"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert run_cli(["permanent", "--matrix", str(matrix), "--method", "fsets"]) == 2


def test_cli_runs_as_a_module(tmp_path):
    """``python -m polyoracle`` and ``python -m polyoracle.cli`` run the
    command line as the installed script does."""
    matrix = tmp_path / "m.txt"
    matrix.write_text("110\n011\n101\n")
    paths = [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    for module in ("polyoracle", "polyoracle.cli"):
        result = subprocess.run(
            [sys.executable, "-m", module, "permanent", "--matrix", str(matrix)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (result.returncode, result.stdout) == (0, "2\n"), (module, result.stderr)

def test_cli_setcover(tmp_path, capsys):
    data = write_json(tmp_path / "f.json", {"n": 6, "sets": [[1, 2, 3], [4, 5, 6], [1, 4]]})
    assert run_cli(["setcover", "--input", data, "--method", "brute"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert run_cli(["setcover", "--input", data, "--method", "reduction"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    gap = write_json(tmp_path / "g.json", {"n": 3, "sets": [[1], [2]]})
    assert run_cli(["setcover", "--input", gap, "--method", "brute"]) == 1
    assert capsys.readouterr().out.strip() == "uncoverable"
    strings = write_json(tmp_path / "s.json", {"n": "2", "sets": [["1", 2], ["2"]]})
    assert run_cli(["setcover", "--input", strings, "--method", "brute"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    # A bad theta is a usage error even where the family cannot be covered.
    assert run_cli(["setcover", "--input", gap, "--theta", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "theta must be one of" in captured.err


@pytest.mark.parametrize(
    "payload",
    [
        {"n": 4, "sets": 5},
        [{"n": 4, "sets": [[1]]}],
        {"n": 4, "sets": [[None]]},
        {"n": None, "sets": [[1]]},
        {"n": 4, "sets": [[True]]},
        {"n": 4, "sets": [["x"]]},
        {"n": 4},
        {"n": "0_3", "sets": [["\u0663", " 2\n", "+1"]]},
    ],
)
def test_cli_setcover_malformed_json(tmp_path, payload):
    path = write_json(tmp_path / "f.json", payload)
    assert run_cli(["setcover", "--input", path]) == 2


def test_cli_bench_vars(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = run_cli(
        ["bench-vars", "--problem", "triangle", "--theta", "8",
         "--sizes", ",".join(str(2**t) for t in range(6, 13)), "--out", str(out)]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert printed.startswith("slope=") and len(printed.split("=")[1].strip().split(".")[1]) == 6
    lines = out.read_text().splitlines()
    assert lines[0] == "s,variables"
    assert lines[1] == f"64,{ls.variable_count(64, 2, 8)}"


@pytest.mark.parametrize("r", ["0", "-1"])
def test_cli_bench_vars_refuses_r_below_one(capsys, r):
    argv = ["bench-vars", "--problem", "triangle", "--theta", "8", "--sizes", "64,128,256,512",
            "--r", r]
    assert run_cli(argv) == 2
    assert capsys.readouterr() == ("", "error: r must be >= 1\n")


@pytest.mark.parametrize("r", [[], ["--r", "2"]], ids=["no-r", "r-2"])
def test_cli_bench_vars_refuses_an_unknown_problem(capsys, r):
    argv = ["bench-vars", "--problem", "nonsense", "--theta", "1", "--sizes", "2,4,8,16", *r]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --problem: invalid choice: 'nonsense'" in captured.err


def test_cli_lists_its_subcommands(capsys):
    assert run_cli(["--help"]) == 0
    out = capsys.readouterr().out
    for name in ("solve", "formulate", "verify-circuit", "permanent", "setcover", "bench-vars"):
        assert name in out
    assert "selftest" not in out
    assert run_cli(["selftest"]) == 2
