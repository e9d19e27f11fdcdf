"""Circuit IR: evaluation, homogenization, expansion, verification, primes."""

import json
import os
import random
import subprocess
import sys
import tracemalloc
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyoracle.circuits as ci
import polyoracle.polynomials as poly
from oracles import circuit_verdicts, independent_prime
from polyoracle.errors import ArityMismatch, CapExceeded
from routes import random_circuit, random_polynomial, reference_verdict, syntactic_degree

ROOT = Path(__file__).resolve().parents[1]


def circuit(num_inputs, gates, output=None):
    return ci.ArithmeticCircuit(
        num_inputs, tuple(gates), len(gates) - 1 if output is None else output
    )


def test_size_counts_edges():
    assert ci.circuit_size(circuit(1, [ci.InputGate(0)])) == 0
    c = circuit(
        3,
        [ci.InputGate(0), ci.InputGate(1), ci.InputGate(2), ci.MulGate(0, 1), ci.AddGate(3, 2)],
    )
    assert ci.circuit_size(c) == 4


def test_evaluate_known_values():
    assert ci.evaluate_circuit(circuit(0, [ci.ConstGate(7)]), []) == 7
    c = circuit(1, [ci.InputGate(0), ci.MulGate(0, 0), ci.ConstGate(-1), ci.MulGate(1, 2), ci.AddGate(1, 3)])
    # x**2 - x has fixed point at 1
    assert ci.evaluate_circuit(c, [1]) == 0
    with pytest.raises(ArityMismatch):
        ci.evaluate_circuit(c, [1, 2])


def test_dag_validation():
    with pytest.raises(ValueError):
        circuit(1, [ci.AddGate(0, 1), ci.InputGate(0)])
    with pytest.raises(ValueError):
        circuit(1, [ci.InputGate(3)])


def test_homogenize_input_semantics():
    c = circuit(1, [ci.InputGate(0)])
    h = ci.homogenize(c, 1)
    assert ci.expand_to_polynomial(h) == poly.polynomial(1, {((0, 1),): 1})


def test_homogenize_known_product():
    # (x + 1) * (x - 1) keeps its semantics through homogenization
    gates = [
        ci.InputGate(0),
        ci.ConstGate(1),
        ci.ConstGate(-1),
        ci.AddGate(0, 1),
        ci.AddGate(0, 2),
        ci.MulGate(3, 4),
    ]
    h = ci.homogenize(circuit(1, gates), 2)
    assert ci.expand_to_polynomial(h) == poly.polynomial(1, {((0, 2),): 1, (): -1})


def test_homogenize_truncates_high_degree():
    # x**2 truncated at delta = 1 loses its only monomial
    c = circuit(1, [ci.InputGate(0), ci.MulGate(0, 0)])
    assert not ci.expand_to_polynomial(ci.homogenize(c, 1)).terms


def test_homogenize_preserves_polynomial_and_size_bound():
    rng = random.Random(1)
    delta = 4
    for _ in range(100):
        c = random_circuit(rng, rng.randint(1, 4), 8, max_syntactic_degree=delta)
        h = ci.homogenize(c, delta)
        assert ci.expand_to_polynomial(h) == ci.expand_to_polynomial(c)
        if ci.circuit_size(c):
            assert ci.circuit_size(h) <= ci.HOMOGENIZE_SIZE_FACTOR * delta**2 * ci.circuit_size(c)


def test_homogenize_clamps_delta_to_syntactic_degree():
    rng = random.Random(9)
    for _ in range(100):
        c = random_circuit(rng, rng.randint(1, 4), 10)
        degree = max(1, syntactic_degree(c))
        h = ci.homogenize(c, 10**9)
        assert h == ci.homogenize(c, degree) == ci.homogenize(c, degree + 3)
        assert ci.expand_to_polynomial(h) == ci.expand_to_polynomial(c)
    with pytest.raises(ValueError):
        ci.homogenize(circuit(1, [ci.InputGate(0)]), 0)


def test_expand_known_values():
    assert ci.expand_to_polynomial(circuit(0, [ci.ConstGate(5)])) == poly.polynomial(0, {(): 5})
    x_minus_x = [ci.InputGate(0), ci.ConstGate(-1), ci.MulGate(1, 0), ci.AddGate(0, 2)]
    assert not ci.expand_to_polynomial(circuit(1, x_minus_x)).terms
    doubled = [ci.InputGate(0), ci.AddGate(0, 0), ci.AddGate(1, 1)]
    assert ci.expand_to_polynomial(circuit(1, doubled)) == poly.polynomial(1, {((0, 1),): 4})
    gates = [ci.InputGate(0), ci.InputGate(1), ci.AddGate(0, 1), ci.MulGate(2, 2)]
    assert ci.expand_to_polynomial(circuit(2, gates)) == poly.polynomial(
        2, {((0, 2),): 1, ((0, 1), (1, 1)): 2, ((1, 2),): 1}
    )


def test_expand_cap(set_cap):
    # (x0 + x1 + x2)**8 has 45 monomials; a tiny cap trips
    gates = [ci.InputGate(0), ci.InputGate(1), ci.InputGate(2), ci.AddGate(0, 1), ci.AddGate(3, 2)]
    acc = 4
    for _ in range(3):
        gates.append(ci.MulGate(acc, acc))
        acc = len(gates) - 1
    c = circuit(3, gates, acc)
    set_cap("gate_terms", 10)
    with pytest.raises(CapExceeded):
        ci.expand_to_polynomial(c)
    # (x0 + x1) * (x0 - x1) merges four products into x0**2 - x1**2; the cap
    # counts the two nonzero monomials, not the cancelled x0*x1 terms
    gates = [
        ci.InputGate(0), ci.InputGate(1), ci.ConstGate(-1), ci.MulGate(2, 1),
        ci.AddGate(0, 1), ci.AddGate(0, 3), ci.MulGate(4, 5),
    ]
    set_cap("gate_terms", 2)
    squares = ci.expand_to_polynomial(circuit(2, gates))
    assert squares == poly.polynomial(2, {((0, 2),): 1, ((1, 2),): -1})
    set_cap("gate_terms", 1)
    with pytest.raises(CapExceeded, match=r"cap gate_terms exceeded: 2 > 1"):
        ci.expand_to_polynomial(circuit(2, gates))
    # (x0 - x0) + x1 holds one monomial at every gate once x0 cancels
    gates = [
        ci.InputGate(0), ci.InputGate(1), ci.ConstGate(-1), ci.MulGate(2, 0),
        ci.AddGate(0, 3), ci.AddGate(4, 1),
    ]
    assert ci.expand_to_polynomial(circuit(2, gates)) == poly.polynomial(2, {((1, 1),): 1})


def test_builder_round_trip_and_verify():
    rng = random.Random(3)
    for _ in range(100):
        target = random_polynomial(rng, rng.randint(1, 4))
        built = ci.build_circuit_from_polynomial(target)
        assert ci.expand_to_polynomial(built) == target
        delta = max(max(map(poly._degree, target.terms), default=0), 1)
        assert ci.verify_circuit(built, target, delta).reason == "match"


def test_built_circuit_gates_are_pinned():
    """Terms fold in canonical order, whatever order the target was built in."""
    target = poly.polynomial(3, {((0, 2),): 2, ((2, 1),): -1, (): 5, ((0, 1),): 3})
    built = ci.build_circuit_from_polynomial(target)
    assert built.gates == (
        ci.ConstGate(5), ci.ConstGate(3), ci.InputGate(0), ci.MulGate(1, 2),
        ci.ConstGate(-1), ci.InputGate(2), ci.MulGate(4, 5),
        ci.ConstGate(2), ci.MulGate(7, 2), ci.MulGate(8, 2),
        ci.AddGate(0, 3), ci.AddGate(10, 6), ci.AddGate(11, 9),
    )
    assert built.output == 12


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 4))
def test_library_built_values_pass_the_strict_constructors(rng, delta):
    """build_circuit_from_polynomial, homogenize, expand_to_polynomial and
    find_prime build their values without the constructors' checks; each
    value re-passes its strict constructor and compares equal."""
    target = random_polynomial(rng, rng.randint(1, 4))
    built = ci.build_circuit_from_polynomial(target)
    drawn = random_circuit(rng, rng.randint(1, 4), 8)
    for c in (built, ci.homogenize(built, delta), ci.homogenize(drawn, delta)):
        assert ci.ArithmeticCircuit(c.num_inputs, c.gates, c.output) == c
        expanded = ci.expand_to_polynomial(c)
        assert poly.SparsePolynomial(expanded.num_vars, dict(expanded.terms)) == expanded
        with pytest.raises(TypeError):
            expanded.terms[()] = 1  # type: ignore[index]
    modulus = ci.find_prime(poly.value_bound(target, rng.randint(1, 30)))
    assert ci.PrimeModulus(modulus.p) == modulus


def test_verify_built_circuits_at_every_delta():
    """A built circuit folds one-term chains, each step a product of two
    one-term maps.  At every delta from 1 to deg p + 1 the chains are cut at
    a different step, and verify_circuit agrees with the independent
    expansion against p and against p's truncation, which it matches."""
    rng = random.Random(34)
    cut_chains = 0
    for _ in range(150):
        p = random_polynomial(rng, rng.randint(1, 5), max_terms=8, max_degree=5)
        c = ci.build_circuit_from_polynomial(p)
        top = max(map(poly._degree, p.terms), default=0)
        for delta in range(1, top + 2):
            kept = {q: v for q, v in p.terms.items() if poly._degree(q) <= delta}
            targets = [p, poly.polynomial(p.num_vars, kept)]
            results = [ci.verify_circuit(c, t, delta) for t in targets]
            verdicts = [(r.accepted, r.reason) for r in results]
            assert verdicts == circuit_verdicts(c, targets, delta)
            assert verdicts[1] == (True, "match")
            assert verdicts[0][0] == (delta >= top)
            cut_chains += delta < top
    assert cut_chains >= 200


def test_verify_rejects_distinct_polynomial():
    x_plus_y = poly.polynomial(2, {((0, 1),): 1, ((1, 1),): 1})
    x_times_y = poly.polynomial(2, {((0, 1), (1, 1)): 1})
    c = ci.build_circuit_from_polynomial(x_plus_y)
    result = ci.verify_circuit(c, x_times_y, 2)
    assert not result and result.reason == "mismatch"
    wider = poly.polynomial(3, {((0, 1),): 1, ((1, 1),): 1})
    assert ci.verify_circuit(c, wider, 2).reason == "mismatch"


def test_verify_accepts_the_degree_delta_truncation():
    """x**3 + x is accepted as x at delta = 1 and rejected at delta = 3."""
    x_cubed_plus_x = poly.polynomial(1, {((0, 3),): 1, ((0, 1),): 1})
    c = ci.build_circuit_from_polynomial(x_cubed_plus_x)
    x = poly.polynomial(1, {((0, 1),): 1})
    assert ci.verify_circuit(c, x, 1).reason == "match"
    assert ci.verify_circuit(c, x, 3).reason == "mismatch"
    assert ci.verify_circuit(c, x_cubed_plus_x, 3).reason == "match"


def test_verify_rejects_mutants():
    rng = random.Random(4)
    rejected = 0
    for _ in range(100):
        target = random_polynomial(rng, rng.randint(1, 3))
        built = ci.build_circuit_from_polynomial(target)
        gates = list(built.gates)
        const_ids = [i for i, g in enumerate(gates) if isinstance(g, ci.ConstGate)]
        if not const_ids:
            continue
        gid = rng.choice(const_ids)
        gates[gid] = ci.ConstGate(gates[gid].value + 1)
        mutant = ci.ArithmeticCircuit(built.num_inputs, tuple(gates), built.output)
        if ci.expand_to_polynomial(mutant) == target:
            continue  # mutation was not semantic
        delta = max(max(map(poly._degree, target.terms), default=0), 1) + 1
        assert not ci.verify_circuit(mutant, target, delta)
        rejected += 1
    assert rejected >= 80


def test_verify_cap_reason(set_cap):
    gates = [ci.InputGate(0), ci.InputGate(1), ci.AddGate(0, 1)]
    for _ in range(4):
        gates.append(ci.MulGate(len(gates) - 1, len(gates) - 1))
    c = circuit(2, gates)
    set_cap("gate_terms", 5)
    result = ci.verify_circuit(c, poly.polynomial(2, {}), 16)
    assert not result and result.reason == "cap_exceeded"


def test_one_term_products_charge_one_pair_each(set_cap):
    """Each step of a built circuit's chains multiplies two one-term maps: one
    pair toward gate_pairs when its degree is at most delta, none when it is
    truncated, and the folded sum copies no term.  The cap admits that total
    at every delta and refuses one less."""
    p = poly.polynomial(
        3, {((0, 2), (2, 1)): 4, ((1, 1),): -3, ((0, 1), (1, 1), (2, 2)): 5, (): 7}
    )
    c = ci.build_circuit_from_polynomial(p)
    degrees = []
    for g in c.gates:
        if isinstance(g, ci.MulGate):
            degrees.append(degrees[g.left] + degrees[g.right])
        elif isinstance(g, ci.AddGate):
            degrees.append(max(degrees[g.left], degrees[g.right]))
        else:
            degrees.append(int(isinstance(g, ci.InputGate)))
    for delta in range(1, 6):
        kept = {q: v for q, v in p.terms.items() if poly._degree(q) <= delta}
        target = poly.polynomial(3, kept)
        pairs = sum(isinstance(g, ci.MulGate) and d <= delta for g, d in zip(c.gates, degrees))
        set_cap("gate_pairs", pairs)
        assert ci.verify_circuit(c, target, delta).reason == "match"
        set_cap("gate_pairs", pairs - 1)
        assert ci.verify_circuit(c, target, delta).reason == "cap_exceeded"


def test_verify_cap_bounds_each_original_gate(set_cap):
    """g = (x0 + x1 + 1)**2 has 6 monomials, but each of its homogeneous
    parts has at most 3; (g * x2) truncated at delta = 2 is x2 + 2x0x2 + 2x1x2.
    The cap bounds g's own degree-<=2 expansion, so cap 3 rejects what the
    homogenized circuit's expansion accepts."""
    gates = [
        ci.InputGate(0), ci.InputGate(1), ci.InputGate(2), ci.ConstGate(1),
        ci.AddGate(0, 1), ci.AddGate(4, 3), ci.MulGate(5, 5), ci.MulGate(6, 2),
    ]
    c = circuit(3, gates)
    target = poly.polynomial(3, {((2, 1),): 1, ((0, 1), (2, 1)): 2, ((1, 1), (2, 1)): 2})
    set_cap("gate_terms", 3)
    assert reference_verdict(c, target, 2) == (True, "match")
    assert ci.verify_circuit(c, target, 2).reason == "cap_exceeded"
    set_cap("gate_terms", 6)
    assert ci.verify_circuit(c, target, 2).reason == "match"
    set_cap("gate_terms", 5)
    with pytest.raises(CapExceeded, match=r"cap gate_terms exceeded: 6 > 5"):
        ci._expand_terms(c, 2)


def test_verify_rejects_delta_below_one():
    with pytest.raises(ValueError):
        ci.verify_circuit(circuit(1, [ci.InputGate(0)]), poly.polynomial(1, {((0, 1),): 1}), 0)


def test_folded_sum_expands_in_linear_memory():
    """The built circuit of all 1 820 monomials of degree <= 4 in 12
    variables folds its terms into one running sum.  Keeping every partial
    sum's map would hold about 1.7 million entries (over 60 MB); each map is
    released after its last reader and the running sum grows in place."""
    terms = {}
    for degree in range(5):
        for combo in combinations_with_replacement(range(12), degree):
            terms[tuple((v, combo.count(v)) for v in sorted(set(combo)))] = len(terms) + 1
    target = poly.polynomial(12, terms)
    c = ci.build_circuit_from_polynomial(target)
    tracemalloc.start()
    try:
        assert ci.expand_to_polynomial(c) == target
        assert ci.verify_circuit(c, target, 4).reason == "match"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(terms) == 1820 and peak < 8 * 2**20


def test_verify_long_squaring_chain_in_bounded_memory(tmp_path):
    """x**(2**199998) + x at delta = 2 is x.  Exact syntactic degrees along
    the chain would hold about 2 * 10**10 bits; the child process runs under
    a 1 GB address-space limit."""
    size = 200_000
    gates = [{"op": "input", "i": 0}]
    gates += [{"op": "mul", "l": i, "r": i} for i in range(size - 2)]
    gates.append({"op": "add", "l": size - 2, "r": 0})
    circuit_path = tmp_path / "chain.json"
    circuit_path.write_text(json.dumps({"num_inputs": 1, "gates": gates, "output": size - 1}))
    poly_path = tmp_path / "x.json"
    poly_path.write_text(poly.dumps(poly.polynomial(1, {((0, 1),): 1})))
    child = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from polyoracle.cli import run_cli\n"
        "sys.exit(run_cli(sys.argv[1:]))\n"
    )
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    argv = ["verify-circuit", "--circuit", str(circuit_path), "--poly", str(poly_path)]
    result = subprocess.run(
        [sys.executable, "-c", child, *argv, "--delta", "2"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (result.returncode, result.stdout.strip()) == (0, "verify: match"), result.stderr


def test_find_prime_known_values():
    assert ci.find_prime(1).p == 2
    assert ci.find_prime(10).p == 23
    assert ci.find_prime(100).p == 211


def test_find_prime_window_and_primality():
    rng = random.Random(5)
    for _ in range(300):
        m = rng.randint(1, 10**6)
        pm = ci.find_prime(m)
        assert 2 * m <= pm.p <= 4 * m
        assert independent_prime(pm.p)


def test_centered_residue_reconstruction():
    rng = random.Random(6)
    for _ in range(300):
        p = random_polynomial(rng, rng.randint(1, 3))
        rho = rng.randint(1, 30)
        bound = poly.value_bound(p, rho)
        pm = ci.find_prime(bound)
        x = [rng.randint(-rho, rho) for _ in range(p.num_vars)]
        expected = poly.eval_over_integers(p, x)
        assert ci.centered_residue(poly.eval_mod(p, x, pm.p), pm.p) == expected


def test_json_round_trip():
    rng = random.Random(7)
    for _ in range(20):
        c = random_circuit(rng, rng.randint(1, 3), 6)
        data = json.loads(json.dumps(ci.to_json_dict(c)))
        assert ci.from_json_dict(data) == c
