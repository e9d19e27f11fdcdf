"""Fuzzing the command line in-process: whatever the input, every subcommand
ends with a documented exit code (0-3), lets no exception escape and answers
within a few seconds."""

import io
import json
import random
import time
from contextlib import redirect_stdout
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyoracle.cli import run_cli
from polyoracle.problems import H_PRESETS, PROBLEMS
from routes import timed

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=150)

ANY_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**30), 10**30)
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
# Integer flags: a small range plus zero, negatives and a huge value.
FLAG = st.integers(-2, 8) | st.sampled_from([0, -1, 10**12])

SMALL = st.integers(-1, 8)
PAIRS = st.lists(st.lists(SMALL, min_size=2, max_size=3), max_size=5)
PATTERN = st.sampled_from([*H_PRESETS, "nonesuch"]) | st.fixed_dictionaries(
    {"n": SMALL, "edges": st.lists(st.lists(SMALL, min_size=2, max_size=2), max_size=4)}
)
FIELDS = {
    "n": SMALL,
    "edges": PAIRS,
    "H": PATTERN,
    "family": st.lists(PATTERN, max_size=2),
    "k": SMALL,
    "threshold": st.integers(-6, 6),
    "points": st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=2), max_size=5),
    "sets": st.lists(st.lists(SMALL, max_size=3), max_size=5),
    "magnitude": st.integers(0, 6),
    "vertex_weights": st.lists(st.integers(-3, 3), max_size=5),
    "mode": st.sampled_from(["edge-weights", "vertex-weights", "other"]),
}
OPTIONAL = ("magnitude", "vertex_weights", "mode")
KEYS = {
    "ksum": ("k", "sets", "magnitude"),
    "collinearity": ("points", "magnitude"),
    "h-induced": ("n", "edges", "H"),
    "family-induced": ("n", "edges", "family"),
    "min-weight-clique": ("n", "edges", "k", "threshold", "magnitude", "vertex_weights"),
    "max-h-subgraph": ("n", "edges", "H", "threshold", "magnitude", "vertex_weights", "mode"),
    "setcover": ("n", "sets"),
}


def shaped(command, fields=FIELDS):
    """Dicts with the keys ``command``'s input reads, holding small values."""
    keys = KEYS.get(command, ("n", "edges"))
    return st.fixed_dictionaries(
        {key: fields[key] for key in keys if key not in OPTIONAL},
        optional={key: fields[key] for key in keys if key in OPTIONAL},
    )


# Just past a signed 32-bit int, just past sys.maxsize, and 10**12, whose
# square is past sys.maxsize.
HUGE = st.sampled_from([2**31, 2**63, 10**12])
EDGE_AND_ISOLATED = {"n": 3, "edges": [[1, 2]]}


def huge_shaped(command):
    """``command``'s shape with a HUGE vertex count, beside an edge plus an
    isolated vertex as the pattern, whose b-slot then ranges over the huge
    complement; for set cover, a universe or elements that may be HUGE."""
    fields = {
        **FIELDS,
        "n": HUGE,
        "H": st.just(EDGE_AND_ISOLATED),
        "family": st.just([EDGE_AND_ISOLATED]),
    }
    if command == "setcover":
        fields["n"] = SMALL | HUGE
        fields["sets"] = st.lists(st.lists(SMALL | HUGE, max_size=3), max_size=5)
    return shaped(command, fields)


POLY = st.fixed_dictionaries(
    {
        "num_vars": st.integers(0, 3),
        "monomials": st.lists(
            st.fixed_dictionaries(
                {
                    "coeff": st.integers(-3, 3) | st.sampled_from(["2", "x"]),
                    "powers": st.lists(
                        st.lists(st.integers(-1, 3), min_size=2, max_size=2), max_size=2
                    ),
                }
            ),
            max_size=4,
        ),
    }
)
GATE = st.one_of(
    st.fixed_dictionaries({"op": st.just("input"), "i": st.integers(-1, 3)}),
    st.fixed_dictionaries({"op": st.just("const"), "v": st.integers(-3, 3)}),
    st.fixed_dictionaries(
        {
            "op": st.sampled_from(["add", "mul", "div"]),
            "l": st.integers(-1, 6),
            "r": st.integers(-1, 6),
        }
    ),
)
CIRCUIT = st.fixed_dictionaries(
    {
        "num_inputs": st.integers(0, 3),
        "gates": st.lists(GATE, max_size=8),
        "output": st.integers(-1, 8),
    }
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def write(path, text):
    path.write_text(text)
    return str(path)


def run(argv):
    start = time.perf_counter()
    code = run_cli(argv)
    assert time.perf_counter() - start < 5, argv
    assert code in (0, 1, 2, 3), argv
    return code


@FUZZ
@given(
    problem=st.sampled_from(sorted(PROBLEMS)),
    method=st.sampled_from(["brute", "formulation"]),
    theta=FLAG,
    data=st.data(),
)
def test_solve(workdir, problem, method, theta, data):
    payload = data.draw(shaped(problem) | huge_shaped(problem) | ANY_JSON)
    path = write(workdir / "solve.json", json.dumps(payload))
    argv = ["solve", "--problem", problem, "--input", path, "--method", method]
    code = run(argv + ["--theta", str(theta)])
    if not isinstance(payload, dict):
        assert code == 2


def walk_heavy(problem, rnd):
    """A well-formed input of a shape with a long witness walk, drawn from
    ``rnd``: k-SUM over up to 6 sets of up to 80 values, or patterns on up
    to 6 vertices on a random graph of up to 30 vertices."""
    if problem == "ksum":
        k, size = rnd.randint(1, 6), rnd.randint(1, 80)
        values = range(-(w := rnd.choice([size, 10**3, 10**6])), w + 1)
        return {"k": k, "sets": [rnd.sample(values, size) for _ in range(k)]}

    def gnp(n):
        p = rnd.random()
        return [[u, v] for u, v in combinations(range(1, n + 1), 2) if rnd.random() < p]

    def pattern():
        return {"n": (t := rnd.randint(2, 6)), "edges": gnp(t)}

    n = rnd.randint(2, 30)
    data = {"n": n, "edges": gnp(n)}
    if problem == "family-induced":
        data["family"] = [pattern() for _ in range(rnd.randint(1, 3))]
    else:
        data["H"] = pattern()
    if problem == "max-h-subgraph":
        data["edges"] = [[u, v, rnd.randint(-5, 5)] for u, v in data["edges"]]
        data["vertex_weights"] = [rnd.randint(-5, 5) for _ in range(n)]
        data["threshold"] = rnd.randint(-20, 20)
        data["mode"] = rnd.choice(["edge-weights", "vertex-weights"])
    return data


# Fewer examples than FUZZ: a drawn walk often runs up to the ls_walk cap.
@settings(FUZZ, max_examples=60)
@given(
    problem=st.sampled_from(["ksum", "h-induced", "family-induced", "max-h-subgraph"]),
    method=st.sampled_from(["brute", "formulation"]),
    theta=st.integers(1, 3),
    seed=st.integers(0, 2**32),
)
def test_solve_walk_heavy(workdir, problem, method, theta, seed):
    payload = walk_heavy(problem, random.Random(seed))
    path = write(workdir / "heavy.json", json.dumps(payload))
    run(["solve", "--problem", problem, "--input", path, "--method", method, "--theta", str(theta)])


def tree(rnd, n, shape):
    """Edges of a tree on 1..n: the path, the star at 1, or each vertex after
    the first joined to a random earlier one."""
    if shape == "path":
        return [[v, v + 1] for v in range(1, n)]
    return [[1 if shape == "star" else rnd.randint(1, v - 1), v] for v in range(2, n + 1)]


def tree_pattern(problem, rnd):
    """A tree or path on 7 to 12 vertices as the pattern, against a star or
    another tree with as many edges as the graph: the walk's first tuples
    span every vertex, so each reaches ``accept``."""
    n = rnd.randint(7, 12)
    graph = tree(rnd, n, rnd.choice(["star", "random"]))
    pattern = {"n": n, "edges": tree(rnd, n, rnd.choice(["path", "random"]))}
    rnd.shuffle(graph)
    if problem == "h-induced":
        return {"n": n, "edges": graph, "H": pattern}
    if problem == "family-induced":
        other = {"n": n, "edges": tree(rnd, n, "random")}
        return {"n": n, "edges": graph, "family": [pattern, other][: rnd.randint(1, 2)]}
    return {
        "n": n,
        "edges": [[u, v, rnd.randint(-3, 3)] for u, v in graph],
        "H": pattern,
        "threshold": rnd.randint(-6, 6),
        "vertex_weights": [rnd.randint(-3, 3) for _ in range(n)],
        "mode": rnd.choice(["edge-weights", "vertex-weights"]),
    }


# Few examples: a drawn walk often runs up to the ls_walk cap.
@settings(FUZZ, max_examples=15)
@given(
    problem=st.sampled_from(["h-induced", "family-induced", "max-h-subgraph"]),
    method=st.sampled_from(["brute", "formulation"]),
    seed=st.integers(0, 2**32),
)
def test_solve_tree_patterns(workdir, problem, method, seed):
    payload = tree_pattern(problem, random.Random(seed))
    path = write(workdir / "tree.json", json.dumps(payload))
    run(["solve", "--problem", problem, "--input", path, "--method", method])


@FUZZ
@given(problem=st.sampled_from(sorted(PROBLEMS)), size=FLAG, theta=FLAG, data=st.data())
def test_formulate(workdir, problem, size, theta, data):
    payload = data.draw(shaped(problem) | ANY_JSON)
    path = write(workdir / "formulate.json", json.dumps(payload))
    out = str(workdir / "poly.json")
    argv = ["formulate", "--problem", problem, "--input", path, "--size", str(size)]
    code = run(argv + ["--theta", str(theta), "--out", out])
    if not isinstance(payload, dict):
        assert code == 2


@FUZZ
@given(circuit=CIRCUIT | ANY_JSON, target=POLY | ANY_JSON, delta=FLAG)
def test_verify_circuit(workdir, circuit, target, delta):
    circuit_path = write(workdir / "circuit.json", json.dumps(circuit))
    poly_path = write(workdir / "target.json", json.dumps(target))
    code = run(
        ["verify-circuit", "--circuit", circuit_path, "--poly", poly_path, "--delta", str(delta)]
    )
    if not isinstance(circuit, dict) or not isinstance(target, dict):
        assert code == 2


def sum_power(k, d, squaring):
    """The circuit (x_0 + ... + x_{k-1})**d: the sum left-folded, the power
    left-folded or by repeated squaring."""
    gates = [{"op": "input", "i": i} for i in range(k)]

    def emit(op, left, right):
        gates.append({"op": op, "l": left, "r": right})
        return len(gates) - 1

    base = 0
    for i in range(1, k):
        base = emit("add", base, i)
    if not squaring:
        power = base
        for _ in range(d - 1):
            power = emit("mul", power, base)
    else:
        power = None
        while d:
            if d & 1:
                power = base if power is None else emit("mul", power, base)
            d >>= 1
            if d:
                base = emit("mul", base, base)
    return {"num_inputs": k, "gates": gates, "output": power}


@settings(FUZZ, max_examples=50)
@example(k=250, d=6, squaring=True, delta=8)
@example(k=37, d=4, squaring=True, delta=8)
@given(
    k=st.integers(1, 250), d=st.integers(1, 6), squaring=st.booleans(), delta=st.integers(1, 8)
)
def test_verify_sum_power_circuits(workdir, k, d, squaring, delta):
    """A sum power against the zero polynomial answers within 2 s: its
    truncation at delta >= d is nonzero, so that run rejects, by mismatch or
    at a cap; below d it matches unless a cap stops the expansion first."""
    circuit = write(workdir / "power.json", json.dumps(sum_power(k, d, squaring)))
    zero = write(workdir / "zero.json", json.dumps({"num_vars": k, "monomials": []}))
    argv = ["verify-circuit", "--circuit", circuit, "--poly", zero, "--delta", str(delta)]
    out = io.StringIO()
    with redirect_stdout(out):
        code = timed(lambda: run_cli(argv))
    reason = out.getvalue().split()[-1]
    assert reason in {"match" if delta < d else "mismatch", "cap_exceeded"}
    assert code == (0 if reason == "match" else 1)


MATRIX = st.integers(0, 12).flatmap(
    lambda n: st.lists(st.text("01", min_size=n, max_size=n), min_size=n, max_size=n)
).map(lambda rows: "\n".join(rows) + "\n")


@FUZZ
@example(text="01\n10\n", method="formulation", alpha="inf", theta=2)
@example(text="01\n10\n", method="formulation", alpha="1e12", theta=2)
@given(
    text=MATRIX | st.text(max_size=40),
    method=st.sampled_from(["brute", "formulation"]),
    alpha=st.sampled_from(["0", "0.25", "0.5", "1", "-1", "2", "nan", "inf", "1e12", "x"]),
    theta=FLAG,
)
def test_permanent(workdir, text, method, alpha, theta):
    path = write(workdir / "matrix.txt", text)
    argv = ["permanent", "--matrix", path, "--method", method, "--alpha", alpha]
    run(argv + ["--theta", str(theta)])


@FUZZ
@given(method=st.sampled_from(["brute", "reduction"]), theta=FLAG, data=st.data())
def test_setcover(workdir, method, theta, data):
    payload = data.draw(shaped("setcover") | huge_shaped("setcover") | ANY_JSON)
    path = write(workdir / "family.json", json.dumps(payload))
    code = run(["setcover", "--input", path, "--method", method, "--theta", str(theta)])
    if not isinstance(payload, dict):
        assert code == 2


@FUZZ
@example(problem="triangle", theta=2, sizes=[4, 5, 6, 7], r=10**12)
@given(
    problem=st.sampled_from([*sorted(PROBLEMS), "nonesuch"]),
    theta=FLAG,
    sizes=st.lists(st.integers(2, 64) | FLAG, min_size=1, max_size=6, unique=True).map(sorted),
    r=st.none() | FLAG,
)
def test_bench_vars(problem, theta, sizes, r):
    argv = ["bench-vars", "--problem", problem, "--theta", str(theta)]
    argv += ["--sizes", ",".join(map(str, sizes))]
    run(argv + ([] if r is None else ["--r", str(r)]))


# Past the JSON reader's recursion limit: 200 KB holding a 100 000-deep array.
DEEP = "[" * 100_000 + "]" * 100_000


@FUZZ
@example(command="solve", text=DEEP)
@example(command="formulate", text=DEEP)
@example(command="verify-circuit", text=DEEP)
@example(command="setcover", text=DEEP)
@given(
    command=st.sampled_from(["solve", "formulate", "verify-circuit", "setcover"]),
    text=st.text(max_size=20).filter(lambda text: not _parses(text)),
)
def test_unparseable_json_is_a_usage_error(workdir, command, text):
    path = write(workdir / "broken.json", text)
    argv = {
        "solve": ["solve", "--problem", "ksum", "--input", path],
        "formulate": ["formulate", "--problem", "ksum", "--input", path, "--size", "4",
                      "--out", str(workdir / "out.json")],
        "verify-circuit": ["verify-circuit", "--circuit", path, "--poly", path, "--delta", "2"],
        "setcover": ["setcover", "--input", path],
    }[command]
    assert run(argv) == 2


def _parses(text):
    try:
        json.loads(text)
    except ValueError:
        return False
    return True
