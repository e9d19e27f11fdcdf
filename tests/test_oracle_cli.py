"""Harness: call logging, reports, benchmarks, and the CLI surface."""

import json
import math
import time
from types import SimpleNamespace

import pytest

import polyoracle.localsubset as ls
import polyoracle.oracle as orc
import polyoracle.problems as pr
from polyoracle.cli import run_cli
from polyoracle.errors import (
    CapExceeded,
    StreamTooLarge,
    TooLarge,
    UniverseTooLarge,
    ValueOutOfRange,
)
from polyoracle import circuits as ci, polynomials as poly
from oracles import has_induced_pattern, induced_copies
from test_localsubset import timed


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
    assert record.max_arg_magnitude == 1
    assert record.result_nonzero
    assert not record.magnitude_flagged
    assert log.total_cost == record.size


def test_logging_oracle_empty_log():
    log = orc.OracleCallLog()
    assert log.total_cost == 0 and log.records == []


def test_default_magnitude_flag_is_the_power_of_two_bound():
    """Flagged iff magnitude > 2**ceil(size**0.9), at and around every power of two."""
    size = 5
    bound = 2 ** math.ceil(size**0.9)
    magnitudes = [0] + [2**k + d for k in range(12) for d in (-1, 0, 1)]
    for magnitude in magnitudes:
        log = orc.OracleCallLog()
        query = SimpleNamespace(size=size, max_abs_value=magnitude)
        orc.logging_oracle(lambda q: 0, log)(query)
        assert log.records[0].magnitude_flagged == (magnitude > bound), magnitude
    # a benchmark-sized call: the 2**(2.4e8) bound is never built
    assert not orc.exceeds_magnitude_bound(1, 2_013_265_920)


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


def test_report_round_trip():
    spec, inst = triangle_instance()
    log = orc.OracleCallLog()
    answer, wall = orc.timed(
        lambda: ls.solve_via_oracle(
            spec, inst, 2, orc.logging_oracle(ls.exact_evaluation_oracle, log)
        )
    )
    report = orc.RunReport(
        problem=spec.name,
        instance_digest=orc.instance_digest(spec.name, inst),
        answer=answer,
        total_oracle_cost=log.total_cost,
        calls=list(log.records),
        wall_time_seconds=wall,
    )
    parsed = orc.RunReport.from_json_dict(json.loads(report.dumps()))
    assert parsed == orc.RunReport.from_json_dict(json.loads(parsed.dumps()))
    assert parsed.total_oracle_cost == sum(c.size for c in parsed.calls)
    assert all(c.charged_cost == c.size for c in parsed.calls)
    tampered = json.loads(report.dumps())
    tampered["calls"][0]["charged_cost"] += 1
    with pytest.raises(ValueOutOfRange):
        orc.RunReport.from_json_dict(tampered)


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


def test_size_errors_are_one_family():
    assert all(issubclass(e, TooLarge) for e in (CapExceeded, UniverseTooLarge, StreamTooLarge))


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


def test_cli_solve_huge_theta(tmp_path, capsys):
    """The candidate top is decided without building 2**(theta * L)."""
    k3 = write_json(tmp_path / "k3.json", {"n": 3, "edges": [[1, 2], [1, 3], [2, 3]]})
    argv = ["solve", "--problem", "triangle", "--input", k3, "--theta", "1000000000000"]
    assert timed(lambda: run_cli(argv)) == 0
    assert "yes" in capsys.readouterr().out


def test_cli_solve_b_pool_cap(tmp_path, capsys):
    """path3's b-slots range over the n**2 - 2 codes outside S: at n = 3000
    that pool passes the b_pool cap and is refused before it is built."""
    path = write_json(tmp_path / "path.json", {"n": 3000, "edges": [[1, 2], [2, 3]]})
    assert timed(lambda: run_cli(["solve", "--problem", "path3", "--input", path])) == 3
    assert "cap b_pool exceeded" in capsys.readouterr().err


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
    """The family [k4, a one-edge 4-vertex pattern] on 6 vertices: k4 reads
    six edge slots, the other member one edge and five non-edge slots.  The
    count walks only the slots each inclusion-exclusion term reads."""
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


def test_cli_verify_circuit(tmp_path):
    target = poly.polynomial(2, {((0, 1), (1, 1)): 2, (): -3})
    good = ci.build_circuit_from_polynomial(target)
    poly_path = write_json(tmp_path / "p.json", poly.to_json_dict(target))
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
    poly_path = write_json(tmp_path / "p.json", poly.to_json_dict(target))
    start = time.perf_counter()
    code = run_cli(
        ["verify-circuit", "--circuit", circuit_path, "--poly", poly_path,
         "--delta", "1000000000"]
    )
    assert code == 0
    assert time.perf_counter() - start < 2


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


def test_cli_permanent(tmp_path, capsys):
    matrix = tmp_path / "m.txt"
    matrix.write_text("110\n011\n101\n")
    for method in ("brute", "formulation"):
        assert run_cli(["permanent", "--matrix", str(matrix), "--method", method]) == 0
        assert capsys.readouterr().out.strip() == "2"
    assert run_cli(["permanent", "--matrix", str(matrix), "--theta", "1"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert run_cli(["permanent", "--matrix", str(matrix), "--method", "fsets"]) == 2


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


def test_cli_lists_its_subcommands(capsys):
    assert run_cli(["--help"]) == 0
    out = capsys.readouterr().out
    for name in ("solve", "formulate", "verify-circuit", "permanent", "setcover", "bench-vars"):
        assert name in out
    assert "selftest" not in out
    assert run_cli(["selftest"]) == 2
