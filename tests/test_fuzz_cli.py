"""Fuzzing the command line in-process: whatever the input, every subcommand
ends with a documented exit code (0-3), lets no exception escape and answers
within a few seconds."""

import json
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyoracle.cli import run_cli
from polyoracle.problems import H_PRESETS, PROBLEMS

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


def shaped(command):
    """Dicts with the keys ``command``'s input reads, holding small values."""
    keys = KEYS.get(command, ("n", "edges"))
    return st.fixed_dictionaries(
        {key: FIELDS[key] for key in keys if key not in OPTIONAL},
        optional={key: FIELDS[key] for key in keys if key in OPTIONAL},
    )


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
    payload = data.draw(shaped(problem) | ANY_JSON)
    path = write(workdir / "solve.json", json.dumps(payload))
    argv = ["solve", "--problem", problem, "--input", path, "--method", method]
    code = run(argv + ["--theta", str(theta)])
    if not isinstance(payload, dict):
        assert code == 2


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
    payload = data.draw(shaped("setcover") | ANY_JSON)
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


@FUZZ
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
