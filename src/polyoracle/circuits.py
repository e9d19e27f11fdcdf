"""Arithmetic circuits over Z (or Z_p): evaluation, verification, homogenization.

A circuit is a topologically ordered gate list over binary +/x gates, input
leaves and integer constants.  Its size is the number of edges, i.e. two per
binary gate.  A circuit *computes* a polynomial; verification below means
identity of polynomials (monomial by monomial), never pointwise agreement.

The verification pipeline accepts a candidate circuit C against a target
polynomial P iff the degree-<=delta truncation of C is identical to P:

    1. truncated expansion     -- one pass of gate-by-gate symbolic
                                  expansion, each gate a dict of its
                                  nonzero terms of degree <= delta beside
                                  its syntactic degree; a product drops the
                                  pairs above delta, which truncation allows
                                  since it commutes with + and x, and a
                                  product of two one-term maps is formed
                                  directly as one term.  A cap on each
                                  original gate's nonzero monomials, and
                                  one on the operand pairs of all products
                                  together, make non-constant-degree
                                  circuits fail fast instead of exhausting
                                  memory or time.
    2. compare against P       -- term maps are equal iff the polynomials
                                  are identical.

homogenize(C, delta) is the explicit Strassen construction of the same
truncation as a circuit.  It stays for perfbench's traced circuit op and for
the "homogenize then expand" test route; the first-principles reference for
the pipeline's verdicts is ``oracles.circuit_verdicts`` in the test suite.

Prime selection for modular evaluation picks the smallest prime in [2M, 4M]
(one exists by Bertrand's postulate); smallest rather than arbitrary keeps
golden files reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest
from types import MappingProxyType
from typing import Sequence, Union

from . import polynomials as poly
from .errors import ArityMismatch, CapExceeded, cap_limit, check
from .polynomials import Powers, SparsePolynomial, is_prime

@dataclass(frozen=True)
class InputGate:
    index: int


@dataclass(frozen=True)
class ConstGate:
    value: int


@dataclass(frozen=True)
class AddGate:
    left: int
    right: int


@dataclass(frozen=True)
class MulGate:
    left: int
    right: int


Gate = Union[InputGate, ConstGate, AddGate, MulGate]


@dataclass(frozen=True)
class ArithmeticCircuit:
    """Gates in topological order; ``output`` is a gate id.

    The constructor (and so ``from_json_dict``) checks the input count,
    every gate id and every input index.  Circuits the library builds
    itself, by ``build_circuit_from_polynomial`` and ``homogenize``, are
    valid by construction and are not checked again.
    """

    num_inputs: int
    gates: tuple[Gate, ...]
    output: int

    def __post_init__(self) -> None:
        if self.num_inputs < 0:
            raise ValueError("num_inputs must be nonnegative")
        if not self.gates:
            raise ValueError("circuit needs at least one gate")
        if not 0 <= self.output < len(self.gates):
            raise ValueError("output is not a valid gate id")
        for gate_id, gate in enumerate(self.gates):
            if isinstance(gate, InputGate):
                if not 0 <= gate.index < self.num_inputs:
                    raise ValueError(f"gate {gate_id}: input index out of range")
            elif isinstance(gate, (AddGate, MulGate)):
                if not (0 <= gate.left < gate_id and 0 <= gate.right < gate_id):
                    raise ValueError(f"gate {gate_id}: operand must reference an earlier gate")


@dataclass(frozen=True)
class PrimeModulus:
    """A prime p, checked prime by the constructor; ``find_prime``, which
    has just tested it, builds one unchecked."""

    p: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError("modulus is not prime")


def circuit_size(circuit: ArithmeticCircuit) -> int:
    """Number of edges: two per binary gate, zero for leaves."""
    return 2 * sum(isinstance(g, (AddGate, MulGate)) for g in circuit.gates)


def evaluate_circuit(
    circuit: ArithmeticCircuit, point: Sequence[int], modulus: int | None = None
) -> int:
    """Evaluate gate by gate in topological order, optionally mod a prime."""
    if len(point) != circuit.num_inputs:
        raise ArityMismatch(f"expected {circuit.num_inputs} inputs, got {len(point)}")
    values: list[int] = []
    for gate in circuit.gates:
        if isinstance(gate, InputGate):
            v = point[gate.index]
        elif isinstance(gate, ConstGate):
            v = gate.value
        elif isinstance(gate, AddGate):
            v = values[gate.left] + values[gate.right]
        else:
            v = values[gate.left] * values[gate.right]
        if modulus is not None:
            v %= modulus
        values.append(v)
    return values[circuit.output]


class _CircuitBuilder:
    """Gate accumulator with None standing for an identically-zero operand.

    Skipping zero operands instead of materializing zero constants keeps the
    homogenization size bound tight and lets single-leaf circuits transform
    into single-leaf circuits.
    """

    def __init__(self) -> None:
        self.gates: list[Gate] = []

    def emit(self, gate: Gate) -> int:
        self.gates.append(gate)
        return len(self.gates) - 1

    def add(self, left: int | None, right: int | None) -> int | None:
        if left is None:
            return right
        if right is None:
            return left
        return self.emit(AddGate(left, right))

    def sum_all(self, parts: list[int | None]) -> int | None:
        acc: int | None = None
        for part in parts:
            acc = self.add(acc, part)
        return acc

    def circuit(self, num_inputs: int, parts: list[int | None]) -> ArithmeticCircuit:
        """The gates so far, with output the sum of ``parts`` (a zero
        constant when every part is zero)."""
        output = self.sum_all(parts)
        if output is None:
            output = self.emit(ConstGate(0))
        return poly._unchecked(
            ArithmeticCircuit, num_inputs=num_inputs, gates=tuple(self.gates), output=output
        )


def homogenize(circuit: ArithmeticCircuit, delta: int) -> ArithmeticCircuit:
    """Strassen homogenization truncated at degree ``delta``.

    Every original gate g is replaced by components computing the homogeneous
    degree-0..delta parts of g: addition acts componentwise and multiplication
    becomes the truncated convolution sum_{i+j=d} l_i * r_j.  The returned
    circuit computes the degree-<=delta truncation of the original polynomial,
    hence the identical polynomial whenever that degree bound holds.  The
    bound is not checked: terms above delta are dropped without notice.
    verify_circuit expands the same truncation without building this
    circuit; expanding it is the independent reference for that route.
    """
    if delta < 1:
        raise ValueError("delta must be >= 1")
    builder = _CircuitBuilder()
    # Each gate's component list ends at its syntactic degree, capped at
    # delta, so the work is bounded by the circuit itself, not by delta.
    components: list[list[int | None]] = []
    for gate in circuit.gates:
        if isinstance(gate, InputGate):
            comps: list[int | None] = [None, builder.emit(InputGate(gate.index))]
        elif isinstance(gate, ConstGate):
            comps = [builder.emit(ConstGate(gate.value)) if gate.value != 0 else None]
        elif isinstance(gate, AddGate):
            comps = [
                builder.add(lg, rg)
                for lg, rg in zip_longest(components[gate.left], components[gate.right])
            ]
        else:
            # l_i * r_j over the nonzero components only, grouped by degree
            # i + j in ascending i, then emitted and summed degree by degree
            left, right = components[gate.left], components[gate.right]
            comps = [None] * min(delta + 1, len(left) + len(right) - 1)
            left_parts = [(i, g) for i, g in enumerate(left) if g is not None]
            right_parts = [(j, g) for j, g in enumerate(right) if g is not None]
            pairs: dict[int, list[tuple[int, int]]] = {}
            for i, lg in left_parts:
                for j, rg in right_parts:
                    if i + j <= delta:
                        pairs.setdefault(i + j, []).append((lg, rg))
            for d in sorted(pairs):
                comps[d] = builder.sum_all([builder.emit(MulGate(lg, rg)) for lg, rg in pairs[d]])
        components.append(comps)
    return builder.circuit(circuit.num_inputs, components[circuit.output])


def _expand_terms(circuit: ArithmeticCircuit, delta: int | None) -> dict[Powers, int]:
    """The output's term map, expanded gate by gate in one pass (after a scan
    for each map's last reader) and, when ``delta`` is given, truncated at
    degree delta.

    Each gate is a dict of its nonzero terms.  Truncation T commutes with the
    gates, T(l + r) = T(l) + T(r) and T(l * r) = T(T(l) * T(r)) as degrees are
    nonnegative, so only a product whose operands' syntactic degrees sum above
    delta drops pairs, and it neither forms nor counts them.  Each gate's
    syntactic degree (input 1, constant 0, + max, x sum) is kept beside its
    map, saturated at delta + 1 to stay small where exact degrees double
    along a chain of squarings.  A product of two one-term maps that is not truncated is the
    one term of the two monomials' product, formed directly.
    Raises CapExceeded as soon as any gate's map passes the gate_terms cap,
    and before the gate that takes the running total of term pairs formed by
    products plus terms copied by sums, over all gates so far, past the
    gate_pairs cap forms a pair or copies a term.
    """
    limit, pair_limit = cap_limit("gate_terms"), cap_limit("gate_pairs")
    work = 0
    # With no delta nothing saturates and no product is truncated.
    ceiling = math.inf if delta is None else delta + 1
    # A map is dropped after its last reader, and a sum extends its left
    # operand's map in place when that reader is the sum itself, so a folded
    # sum of n terms holds O(n) entries rather than O(n**2).
    last_read = [-1] * len(circuit.gates)
    for gate_id, gate in enumerate(circuit.gates):
        kind = type(gate)
        if kind is MulGate or kind is AddGate:
            last_read[gate.left] = last_read[gate.right] = gate_id
    last_read[circuit.output] = len(circuit.gates)
    expanded: list[dict[Powers, int] | None] = []
    degrees: list[int] = []
    for gate_id, gate in enumerate(circuit.gates):
        kind = type(gate)
        if kind is InputGate:
            terms = {((gate.index, 1),): 1}
            degree = 1
        elif kind is ConstGate:
            terms = {(): gate.value} if gate.value else {}
            degree = 0
        else:
            left_id, right_id = gate.left, gate.right
            left, right = expanded[left_id], expanded[right_id]
            if last_read[left_id] == gate_id:
                expanded[left_id] = None
            if last_read[right_id] == gate_id:
                expanded[right_id] = None
            if kind is MulGate:
                degree = degrees[left_id] + degrees[right_id]
                if degree < ceiling:
                    left_size, right_size = len(left), len(right)
                    work += left_size * right_size
                    if work > pair_limit:
                        check("gate_pairs", work)
                    if left_size == 1 == right_size:
                        ((a, ca),) = left.items()
                        ((b, cb),) = right.items()
                        terms = {poly._merge_powers(a, b): ca * cb}
                    else:
                        terms = poly._multiply_terms(left, right)
                else:
                    degree = ceiling
                    work += poly._pair_count(left, right, delta)
                    if work > pair_limit:
                        check("gate_pairs", work)
                    terms = poly._multiply_terms(left, right, delta)
            else:
                degree = max(degrees[left_id], degrees[right_id])
                if last_read[left_id] == gate_id and left_id != right_id:
                    terms = poly._add_into(left, right)
                else:
                    work += len(left)
                    if work > pair_limit:
                        check("gate_pairs", work)
                    terms = poly._add_into(dict(left), right)
        if len(terms) > limit:
            check("gate_terms", len(terms))
        expanded.append(terms)
        degrees.append(degree)
    return expanded[circuit.output]


def expand_to_polynomial(circuit: ArithmeticCircuit) -> SparsePolynomial:
    """Symbolically expand the circuit into a sparse polynomial.

    Shares the gate-by-gate loop of verify_circuit, with no degree bound.
    Raises CapExceeded as soon as any of the circuit's own gates passes the
    gate_terms cap, or its gates together form and copy more terms than the
    gate_pairs cap admits, signalling that the circuit is not effectively
    constant-degree at these caps.
    """
    return poly._unchecked(
        SparsePolynomial,
        num_vars=circuit.num_inputs,
        terms=MappingProxyType(_expand_terms(circuit, None)),
    )


@dataclass(frozen=True)
class VerificationResult:
    accepted: bool
    reason: str  # "match", "mismatch", or "cap_exceeded"

    def __bool__(self) -> bool:
        return self.accepted


def verify_circuit(
    circuit: ArithmeticCircuit, target: SparsePolynomial, delta: int
) -> VerificationResult:
    """Check that the degree-<=delta truncation of ``circuit`` is ``target``.

    Acceptance means the circuit's expansion truncated at delta equals the
    target (same variable count and term map), so a circuit for x**3 + x is
    accepted against x at delta = 1 and rejected at delta = 3.  The
    gate_terms cap bounds each original gate's degree-<=delta expansion and
    the gate_pairs cap the term pairs its products form plus the terms its
    sums copy, all gates together, as in expand_to_polynomial; an overflow
    is reported as a rejection with its own reason code rather than an
    exception.
    """
    if delta < 1:
        raise ValueError("delta must be >= 1")
    try:
        terms = _expand_terms(circuit, delta)
    except CapExceeded:
        return VerificationResult(False, "cap_exceeded")
    if circuit.num_inputs != target.num_vars or terms != target.terms:
        return VerificationResult(False, "mismatch")
    return VerificationResult(True, "match")


def find_prime(bound: int) -> PrimeModulus:
    """Smallest prime in [2M, 4M]; existence is Bertrand's postulate."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    lower, upper = 2 * bound, 4 * bound
    candidate = lower
    while candidate <= upper:
        if is_prime(candidate):
            return poly._unchecked(PrimeModulus, p=candidate)
        candidate += 1
    raise AssertionError("no prime in [2M, 4M]; Bertrand's postulate violated")


def centered_residue(residue: int, modulus: int) -> int:
    """Map a residue in [0, p) into (-p/2, p/2]."""
    if not 0 <= residue < modulus:
        raise ValueError("residue out of range")
    return residue if residue <= modulus // 2 else residue - modulus


def build_circuit_from_polynomial(target: SparsePolynomial) -> ArithmeticCircuit:
    """Deterministic faithful circuit: sum of per-monomial products.

    Each monomial becomes coefficient-constant times repeated-squaring-free
    variable products (exponents are small for constant-degree targets); the
    terms are folded with additions in canonical order.
    """
    builder = _CircuitBuilder()
    input_ids: dict[int, int] = {}

    def input_gate(index: int) -> int:
        if index not in input_ids:
            input_ids[index] = builder.emit(InputGate(index))
        return input_ids[index]

    term_ids: list[int | None] = []
    for mono in target.monomials:
        acc = builder.emit(ConstGate(mono.coefficient))
        for index, exponent in mono.powers:
            for _ in range(exponent):
                acc = builder.emit(MulGate(acc, input_gate(index)))
        term_ids.append(acc)
    return builder.circuit(target.num_vars, term_ids)


# --- JSON wire format ---------------------------------------------------
#
# {"num_inputs": n,
#  "gates": [{"op": "input", "i": k} | {"op": "const", "v": "<decimal>"}
#            | {"op": "add", "l": i, "r": j} | {"op": "mul", "l": i, "r": j}],
#  "output": id}
#
# Gate ids are positions in the gates array.


def to_json_dict(circuit: ArithmeticCircuit) -> dict:
    gates: list[dict] = []
    for gate in circuit.gates:
        if isinstance(gate, InputGate):
            gates.append({"op": "input", "i": gate.index})
        elif isinstance(gate, ConstGate):
            gates.append({"op": "const", "v": str(gate.value)})
        elif isinstance(gate, AddGate):
            gates.append({"op": "add", "l": gate.left, "r": gate.right})
        else:
            gates.append({"op": "mul", "l": gate.left, "r": gate.right})
    return {"num_inputs": circuit.num_inputs, "gates": gates, "output": circuit.output}


def from_json_dict(data: dict) -> ArithmeticCircuit:
    if not isinstance(data, dict) or not isinstance(data.get("gates"), list):
        raise ValueError("circuit JSON must be an object with a list of gates")
    as_int = poly._json_int
    gates: list[Gate] = []
    for entry in data["gates"]:
        if not isinstance(entry, dict):
            raise ValueError(f"gate {entry!r} is not an object")
        op = entry["op"]
        if op == "input":
            gates.append(InputGate(as_int(entry["i"])))
        elif op == "const":
            gates.append(ConstGate(as_int(entry["v"])))
        elif op == "add":
            gates.append(AddGate(as_int(entry["l"]), as_int(entry["r"])))
        elif op == "mul":
            gates.append(MulGate(as_int(entry["l"]), as_int(entry["r"])))
        else:
            raise ValueError(f"unknown gate op {op!r}")
    return ArithmeticCircuit(as_int(data["num_inputs"]), tuple(gates), as_int(data["output"]))
