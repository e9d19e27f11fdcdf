"""Deterministic circuit verification: build, expand truncated, compare.

The verifier expands each gate of a circuit straight into its degree-<=delta
truncation and accepts only when the output's truncation is the target
polynomial monomial for monomial, so a one-off constant perturbation is
always caught; the gate_terms cap on each original gate's truncated expansion
bounds the work.  Modular evaluation with a prime from [2M, 4M] recovers
exact integer values through centered residues."""

import random

from polyoracle import circuits as ci
from polyoracle import polynomials as poly

target = poly.polynomial(3, {((0, 1), (1, 1)): 2, ((2, 2),): -1, (): 5})
print("target polynomial:", poly.dumps(target))

circuit = ci.build_circuit_from_polynomial(target)
print(f"faithful circuit: {len(circuit.gates)} gates, size {ci.circuit_size(circuit)} edges")

result = ci.verify_circuit(circuit, target, delta=2)
print(f"verify(faithful): accepted={result.accepted} reason={result.reason}")

mutated_gates = list(circuit.gates)
for i, gate in enumerate(mutated_gates):
    if isinstance(gate, ci.ConstGate):
        mutated_gates[i] = ci.ConstGate(gate.value + 1)
        break
mutant = ci.ArithmeticCircuit(circuit.num_inputs, tuple(mutated_gates), circuit.output)
result = ci.verify_circuit(mutant, target, delta=2)
print(f"verify(mutant):   accepted={result.accepted} reason={result.reason}")

rng = random.Random(0)
rho = 10
bound = poly.value_bound(target, rho)
prime = ci.find_prime(bound)
print(f"value bound M={bound}, smallest prime in [2M, 4M]: {prime.p}")
for _ in range(3):
    point = [rng.randint(-rho, rho) for _ in range(3)]
    residue = poly.eval_mod(target, point, prime.p)
    recovered = ci.centered_residue(residue, prime.p)
    exact = poly.eval_over_integers(target, point)
    print(f"  P{tuple(point)} = {exact}; residue {residue} -> centered {recovered}")
    assert recovered == exact
