"""The four benchmark workloads: seeded inputs, the timed op, its traced twin
and the reference check.

Each workload builds one pass: a fixed list of op shapes whose contents the
seed draws.  The shapes, not the seed, set each op's cost, so two seeds give
passes of about the same cost and every pass has the same mix.  ``run`` calls
the library's single public entry point; ``traced`` drives the same
computation through the public steps inside that entry point, with a span
around each call into a module, and must return the same result.  ``check``
compares a result with a reference that shares no code with the timed
route; it runs outside the timed region.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from math import ceil, factorial
from typing import Any

import bench_reference as ref
import polyoracle.circuits as ci
import polyoracle.localsubset as ls
import polyoracle.oracle as orc
import polyoracle.permanent as pm
import polyoracle.polynomials as poly
import polyoracle.problems as pr
import polyoracle.setcover as sc
from polyoracle.errors import CapExceeded


@dataclass
class Op:
    kind: str
    data: Any
    expected: Any = None
    checked: dict = field(default_factory=dict)  # lazily computed library references


def _graph(rng: random.Random, n: int, m: int) -> pr.GraphInput:
    return pr.GraphInput(n, frozenset(rng.sample(list(combinations(range(1, n + 1), 2)), m)))


def _weighted(rng: random.Random, n: int, m: int, w: int, vertex: bool) -> pr.WeightedGraphInput:
    pairs = rng.sample(list(combinations(range(1, n + 1), 2)), m)
    return pr.WeightedGraphInput(
        n,
        tuple((p, rng.randint(-w, w)) for p in pairs),
        w,
        tuple(rng.randint(-w, w) for _ in range(n)) if vertex else (),
    )


def _draw(rng: random.Random, want: bool, make, decide, attempts: int = 1000):
    """Redraw until the reference answer equals ``want``."""
    for _ in range(attempts):
        data = make()
        if decide(data) == want:
            return data
    raise RuntimeError("no input with the wanted answer; the shape is mis-sized")


# --- ls-decide ------------------------------------------------------------


class LsDecide:
    """encode_* -> solve_via_oracle through logging_oracle, over all six encoders."""

    name = "ls-decide"
    # (encoder, size parameters, copies); theta cycles 1..3 and the wanted
    # answer alternates yes/no along the pass.  Sizes spread the shapes' costs
    # apart so that, sorted by cost, the six cliques straddle the median and
    # the three family ops the 90th percentile whatever the seed.
    SHAPES = (
        ("collinearity", {"points": 18, "w": 40}, 3),
        ("triangle", {"n": 9, "m": 12}, 3),
        ("path3", {"n": 12, "m": 4}, 3),
        ("clique", {"n": 7, "m": 11, "w": 9}, 6),
        ("max-edge", {"n": 6, "m": 6, "w": 9}, 3),
        ("max-vertex", {"n": 6, "m": 6, "w": 9}, 3),
        ("ksum", {"k": 3, "size": 10, "w": 200}, 3),
        ("family", {"n": 9, "m": 3}, 3),
    )
    SMOKE_SHAPES = (
        ("ksum", {"k": 2, "size": 3, "w": 5}, 1),
        ("path3", {"n": 4, "m": 3}, 1),
        ("clique", {"n": 4, "m": 4, "w": 5}, 1),
    )

    def make_ops(self, rng: random.Random, smoke: bool) -> list[Op]:
        shapes = [
            (kind, size)
            for kind, size, copies in (self.SMOKE_SHAPES if smoke else self.SHAPES)
            for _ in range(copies)
        ]
        ops = []
        for slot, (kind, size) in enumerate(shapes):
            want = slot % 2 == 0
            theta = slot % 3 + 1
            data = _draw(rng, want, lambda: self._natural(rng, kind, size), self._decide)
            ops.append(Op(kind, (data, theta), want))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _natural(rng, kind, size):
        if kind == "ksum":
            w = size["w"]
            sets = tuple(tuple(rng.sample(range(-w, w + 1), size["size"])) for _ in range(size["k"]))
            return kind, pr.KSumInput(size["k"], sets, w)
        if kind == "collinearity":
            w = size["w"]
            points = set()
            while len(points) < size["points"]:
                points.add((rng.randint(-w, w), rng.randint(-w, w)))
            return kind, pr.PointSetInput(tuple(sorted(points)), w)
        if kind in ("triangle", "path3", "family"):
            return kind, _graph(rng, size["n"], size["m"])
        if kind == "clique":
            return kind, (_weighted(rng, size["n"], size["m"], size["w"], False), rng.randint(-12, 4))
        return kind, (
            _weighted(rng, size["n"], size["m"], size["w"], kind == "max-vertex"),
            rng.randint(-4, 12),
        )

    @staticmethod
    def _decide(data) -> bool:
        kind, inp = data
        if kind == "ksum":
            return ref.zero_sum_choices(inp.sets) > 0
        if kind == "collinearity":
            return ref.has_collinear_triple(inp.points)
        if kind in ("triangle", "path3"):
            pattern = pr.H_PRESETS[kind]
            return bool(ref.induced_copies(inp.n, inp.edges, pattern.num_vertices, pattern.edges))
        if kind == "family":
            return any(
                ref.induced_copies(inp.n, inp.edges, p.num_vertices, p.edges)
                for p in (pr.H_PRESETS["path3"], pr.H_PRESETS["triangle"])
            )
        graph, threshold = inp
        weights = dict(graph.edge_weights)
        if kind == "clique":
            best = ref.cheapest_clique(graph.n, weights, 3)
            return best is not None and best <= threshold
        pattern = pr.H_PRESETS["triangle" if kind == "max-edge" else "edge"]
        best = ref.heaviest_induced(
            graph.n, weights, graph.vertex_weights, pattern.num_vertices, pattern.edges,
            by_vertex=kind == "max-vertex",
        )
        return best is not None and best >= threshold

    @staticmethod
    def _encode(kind, inp):
        if kind == "ksum":
            return pr.encode_ksum(inp)
        if kind == "collinearity":
            return pr.encode_collinearity(inp)
        if kind in ("triangle", "path3"):
            return pr.encode_h_induced(inp, pr.H_PRESETS[kind])
        if kind == "family":
            return pr.encode_family_induced(inp, [pr.H_PRESETS["path3"], pr.H_PRESETS["triangle"]])
        graph, threshold = inp
        if kind == "clique":
            return pr.encode_min_weight_kclique(graph, 3, threshold)
        if kind == "max-edge":
            return pr.encode_max_h_subgraph(graph, pr.H_PRESETS["triangle"], threshold, "edge-weights")
        return pr.encode_max_h_subgraph(graph, pr.H_PRESETS["edge"], threshold, "vertex-weights")

    def run(self, op: Op):
        (kind, inp), theta = op.data
        spec, inst = self._encode(kind, inp)
        log = orc.OracleCallLog()
        answer = ls.solve_via_oracle(spec, inst, theta, orc.logging_oracle(ls.exact_evaluation_oracle, log))
        return answer, tuple((r.size, r.charged_cost) for r in log.records), inst.size, spec.r

    def traced(self, op: Op, tracer, counts: dict):
        (kind, inp), theta = op.data
        with tracer.span("problems.encode"):
            spec, inst = self._encode(kind, inp)
        witnesses = []

        def evaluate(query):
            with tracer.span("localsubset.evaluate"):
                witnesses.append(ls.exact_evaluation_oracle(query))
            return witnesses[-1]

        log = orc.OracleCallLog()
        logged = orc.logging_oracle(evaluate, log)

        def oracle_call(query):
            with tracer.span("oracle.log"):
                return logged(query)

        with tracer.span("localsubset.solve"):
            answer = ls.solve_via_oracle(spec, inst, theta, oracle_call)
        counts["localsubset.ops"] += 1
        counts["localsubset.tuples"] += _tuples(spec, inst, theta)
        counts["localsubset.witnesses"] += sum(witnesses)
        counts["localsubset.yes"] += answer
        counts["oracle.calls"] += len(log.records)
        counts["oracle.charged_cost"] += sum(r.charged_cost for r in log.records)
        return answer, tuple((r.size, r.charged_cost) for r in log.records), inst.size, spec.r

    def check(self, op: Op, result) -> bool:
        answer, records, s, r = result
        theta = op.data[1]
        size = 3 * (s + 1) * theta * (1 << _block_length(s, r, theta))
        return answer == op.expected and records == ((size, size),)


def _block_length(s: int, r: int, theta: int) -> int:
    """L = ceil(r * ceil(log2 s) / theta), restated from the formulation's definition."""
    return -(-(r * (s - 1).bit_length()) // theta)


def _tuples(spec, inst, theta: int) -> int:
    """Candidate tuples the witness count enumerates, computed from the instance."""
    top = min(inst.n**spec.r, (1 << (theta * _block_length(inst.size, spec.r, theta))) - 1)
    inside = sum(1 for e in inst.elements if e <= top)
    return inside**spec.alpha * (top - inside) ** spec.beta


# --- ls-literal -----------------------------------------------------------


class LsLiteral:
    """formulation_polynomial -> compute_assignment().vector() -> eval_over_integers."""

    name = "ls-literal"
    # (problem, graph n or k-SUM k, edges m or k-SUM (w, set size), theta, copies per pass).
    # The literal polynomial depends only on (problem, s, theta), so fixed
    # shapes fix each op's cost; the seed draws which edges or values.
    # Sorted by cost, the pass puts one shape at each reported quantile, so a
    # seed cannot move p50 or p90 across a gap between shapes: four copies of
    # triangle s4/theta2 straddle the median, two of triangle s6/theta1 the
    # 90th percentile.
    SHAPES = (
        ("ksum", 1, (1, 3), 1, 2),
        ("ksum", 1, (1, 2), 2, 1),
        ("ksum", 2, (0, 1), 2, 1),
        ("ksum", 2, (1, 1), 1, 2),
        ("path3", 3, 1, 1, 2),
        ("triangle", 3, 1, 2, 2),
        ("triangle", 4, 0, 2, 2),
        ("path3", 3, 0, 2, 1),
        ("triangle", 3, 2, 1, 1),
        ("triangle", 4, 1, 1, 1),
        ("triangle", 3, 2, 2, 1),
        ("path3", 3, 2, 1, 1),
        ("triangle", 3, 3, 1, 2),
        ("path3", 3, 1, 2, 1),
    )
    SMOKE_SHAPES = (
        ("ksum", 2, (0, 1), 1, 1),
        ("triangle", 3, 1, 1, 1),
        ("path3", 3, 0, 1, 1),
    )

    def make_ops(self, rng: random.Random, smoke: bool) -> list[Op]:
        ops = []
        for problem, a, b, theta, copies in self.SMOKE_SHAPES if smoke else self.SHAPES:
            for _ in range(copies):
                if problem == "ksum":
                    w, size = b
                    sets = tuple(tuple(rng.sample(range(-w, w + 1), size)) for _ in range(a))
                    spec, inst = pr.encode_ksum(pr.KSumInput(a, sets, w))
                    expected = ref.zero_sum_choices(sets)
                else:
                    graph = _graph(rng, a, b)
                    pattern = pr.H_PRESETS[problem]
                    copies_found = ref.induced_copies(a, graph.edges, pattern.num_vertices, pattern.edges)
                    # each induced copy is hit by every ordering of its edge
                    # slots and of its non-edge slots
                    expected = len(copies_found) * factorial(pattern.num_edges) * factorial(
                        pattern.num_nonedges
                    )
                    spec, inst = pr.encode_h_induced(graph, pattern)
                ops.append(Op(f"{problem}/s{inst.size}/theta{theta}", (spec, inst, theta), expected))
        rng.shuffle(ops)
        return ops

    def run(self, op: Op):
        spec, inst, theta = op.data
        polynomial = ls.formulation_polynomial(spec, inst.size, theta)
        vector = ls.compute_assignment(spec, inst, theta).vector()
        return poly.eval_over_integers(polynomial, vector), polynomial

    def traced(self, op: Op, tracer, counts: dict):
        spec, inst, theta = op.data
        terms: dict = {}
        emitted = 0
        with tracer.span("localsubset.stream"):
            for mono in ls.formulation_monomials(spec, inst.size, theta):
                terms[mono.powers] = terms.get(mono.powers, 0) + mono.coefficient
                emitted += 1
        with tracer.span("polynomials.canonicalize"):
            polynomial = poly.polynomial(ls.variable_count(inst.size, spec.r, theta), terms)
        with tracer.span("localsubset.vector"):
            vector = ls.compute_assignment(spec, inst, theta).vector()
        with tracer.span("polynomials.eval"):
            value = poly.eval_over_integers(polynomial, vector)
        counts["localsubset.monomials_emitted"] += emitted
        counts["polynomials.distinct_monomials"] += len(polynomial.monomials)
        return value, polynomial

    def check(self, op: Op, result) -> bool:
        spec, inst, theta = op.data
        if "witness_count" not in op.checked:
            op.checked["witness_count"] = ls.evaluate_formulation(spec, inst, theta)
        return result[0] == op.expected == op.checked["witness_count"]


# --- circuit-verify -------------------------------------------------------


class CircuitVerify:
    """build_circuit_from_polynomial -> verify_circuit -> find_prime + eval_mod/centered_residue."""

    name = "circuit-verify"
    RHO = 3
    # (variables, monomials, degree, delta slack above the true degree,
    # copies); each copy is one faithful and one mutated op.  Sorted by cost,
    # the six 100-monomial ops straddle the median and the four 240-monomial
    # ops the 90th percentile.
    SHAPES = (
        (6, 40, 3, 0, 2), (8, 60, 4, 0, 1), (8, 80, 3, 2, 1), (10, 100, 5, 0, 3),
        (10, 120, 4, 1, 1), (12, 160, 6, 0, 1), (12, 200, 5, 0, 1), (12, 240, 6, 1, 2),
    )
    SMOKE_SHAPES = ((4, 10, 3, 0, 1), (4, 12, 3, 1, 1))

    def make_ops(self, rng: random.Random, smoke: bool) -> list[Op]:
        ops = []
        for variables, monomials, degree, slack, copies in self.SMOKE_SHAPES if smoke else self.SHAPES:
            for mutated in (False, True) * copies:
                terms: dict = {}
                while len(terms) < monomials:
                    chosen = rng.choices(range(variables), k=rng.randint(1, degree))
                    powers = tuple(sorted((v, chosen.count(v)) for v in set(chosen)))
                    terms[powers] = rng.choice([-1, 1]) * rng.randint(1, 50)
                top = max(terms, key=lambda p: sum(e for _, e in p))
                if sum(e for _, e in top) < degree:
                    terms[((0, degree),)] = rng.randint(1, 50)
                source = dict(terms)
                if mutated:
                    victim = rng.choice(sorted(terms))
                    source[victim] = terms[victim] + (1 if terms[victim] != -1 else 2)
                point = [rng.choice([-1, 1]) * rng.randint(1, self.RHO) for _ in range(variables)]
                data = (
                    poly.polynomial(variables, source),
                    poly.polynomial(variables, terms),
                    degree + slack,
                    point,
                )
                expected = {
                    "accepted": not mutated,
                    "value": ref.evaluate_terms(terms, point),
                    "source_value": ref.evaluate_terms(source, point),
                    "bound": 1 + sum(abs(c) * self.RHO ** sum(e for _, e in p) for p, c in terms.items()),
                }
                # nonzero coordinates make the one-coefficient change visible at the point
                if mutated != (expected["value"] != expected["source_value"]):
                    raise RuntimeError("mutation not visible at the check point")
                ops.append(Op(f"v{variables}/t{monomials}/d{degree}+{slack}", data, expected))
        rng.shuffle(ops)
        return ops

    def run(self, op: Op):
        source, target, delta, point = op.data
        circuit = ci.build_circuit_from_polynomial(source)
        verdict = ci.verify_circuit(circuit, target, delta)
        modulus = ci.find_prime(poly.value_bound(target, self.RHO))
        value = ci.centered_residue(poly.eval_mod(target, point, modulus.p), modulus.p)
        return verdict.accepted, verdict.reason, modulus.p, value, circuit

    def traced(self, op: Op, tracer, counts: dict):
        source, target, delta, point = op.data
        with tracer.span("circuits.build"):
            circuit = ci.build_circuit_from_polynomial(source)
        with tracer.span("circuits.homogenize"):
            homogeneous = ci.homogenize(circuit, delta)
        try:
            with tracer.span("circuits.expand"):
                expansion = ci.expand_to_polynomial(homogeneous)
        except CapExceeded:
            accepted, reason = False, "cap_exceeded"
        else:
            with tracer.span("circuits.compare"):
                accepted = (
                    expansion.num_vars == target.num_vars
                    and expansion.monomials == target.monomials
                )
            reason = "match" if accepted else "mismatch"
        with tracer.span("circuits.find_prime"):
            modulus = ci.find_prime(poly.value_bound(target, self.RHO))
        with tracer.span("polynomials.eval"):
            value = ci.centered_residue(poly.eval_mod(target, point, modulus.p), modulus.p)
        counts["circuits.gates"] += len(circuit.gates)
        counts["circuits.homogenized_gates"] += len(homogeneous.gates)
        return accepted, reason, modulus.p, value, circuit

    def check(self, op: Op, result) -> bool:
        accepted, reason, prime, value, circuit = result
        expected = op.expected
        bound = expected["bound"]
        # the built circuit computes its source polynomial; for the mutated
        # half that differs from the target, which confirms the mutation
        built_value = ref.evaluate_gates(circuit.gates, circuit.output, op.data[3])
        return (
            accepted == expected["accepted"]
            and reason == ("match" if accepted else "mismatch")
            and value == expected["value"]
            and built_value == expected["source_value"]
            and 2 * bound <= prime <= 4 * bound
            and ref.is_prime(prime)
        )


# --- counting -------------------------------------------------------------


class Counting:
    """permanent_via_formulation and setcover_min(method="reduction"), alternating."""

    name = "counting"
    ALPHA, PERMANENT_THETA = 0.5, 2  # permanent_via_formulation's defaults
    MAX_BRANCH = 6  # setcover_min's default
    # Permanent sizes and set-cover shapes (n, theta, set sizes, minimum
    # cover size), zipped so the pass alternates between the two chains.  The
    # reduction tries k = 1.. up to the minimum, so fixing the minimum fixes
    # most of an op's cost.  Sorted by cost, n=9 permanents straddle the
    # median and the n=12, theta=2 covers the 90th percentile.  Costs still
    # vary with each drawn matrix and family, so every shape is drawn twice
    # as often as the quantile blocks need, to average that out.
    PERMANENT_SIZES = ((8,) * 4 + (9,) * 8 + (10,) * 6) * 2
    SETCOVER_SHAPES = (
        ((10, 2, (2,) * 9, 5),) * 4
        + ((10, 1, (5, 4, 4, 3, 3, 3, 2, 2, 2), 4),) * 4
        + ((11, 1, (5, 5, 4, 3, 3, 2, 2, 2), 4),) * 2
        + ((12, 1, (4, 4, 4, 3, 3, 3, 2, 2, 2), 5),) * 2
        + ((12, 2, (3,) * 9, 5),) * 6
    ) * 2
    SMOKE_PERMANENT_SIZES = (5,)
    SMOKE_SETCOVER_SHAPES = ((6, 1, (3, 2, 2, 1), 3),)

    def make_ops(self, rng: random.Random, smoke: bool) -> list[Op]:
        permanents = self.SMOKE_PERMANENT_SIZES if smoke else self.PERMANENT_SIZES
        setcovers = self.SMOKE_SETCOVER_SHAPES if smoke else self.SETCOVER_SHAPES
        ops = []
        for n, (universe, theta, sizes, cover) in zip(permanents, setcovers):
            ones = ceil(0.55 * n)  # the same number of ones in every row
            rows = []
            for _ in range(n):
                chosen = set(rng.sample(range(n), ones))
                rows.append([int(column in chosen) for column in range(n)])
            ops.append(Op(f"permanent/n{n}", pm.matrix_from_rows(rows)))

            def make():
                return [sorted(rng.sample(range(1, universe + 1), size)) for size in sizes]

            lists = _draw(rng, cover, make, lambda sets: ref.min_cover_size(universe, sets))
            ops.append(Op(f"setcover/n{universe}/theta{theta}", (sc.family_from_lists(universe, lists), theta), cover))
        return ops  # kept in alternating order

    def run(self, op: Op):
        if op.kind.startswith("permanent"):
            return pm.permanent_via_formulation(op.data)
        family, theta = op.data
        return sc.setcover_min(family, method="reduction", theta=theta)

    def traced(self, op: Op, tracer, counts: dict):
        if op.kind.startswith("permanent"):
            matrix = op.data
            s_eq1 = (1 << ceil(self.ALPHA * matrix.n)) - 1
            with tracer.span("permanent.f_expand"):
                terms = pm.f_expand(matrix, s_eq1, self.ALPHA)
            total = zeros = 0
            with tracer.span("permanent.traces"):
                for sign, spec in terms:
                    count = pm.f_count_traces(matrix, spec.eq1, spec.eq0, self.PERMANENT_THETA)
                    zeros += count == 0
                    total += sign * count
            counts["permanent.terms"] += len(terms)
            counts["permanent.zero_terms"] += zeros
            return total
        family, theta = op.data
        n = family.n
        maxsize = max(bin(mask).count("1") for mask in family.sets)
        m = max(2 * theta * maxsize, n - self.MAX_BRANCH)
        with tracer.span("setcover.expand"):
            expanded = sc.hcv_expand_setcover(family, m)
        for k in range(1, len(family.sets) + 1):
            counts["setcover.k_tried"] += 1
            with tracer.span("setcover.branch"):
                branches = sc.hcv_branch(expanded, n, m, k)
            total = 0
            with tracer.span("setcover.partition"):
                for sign, instance in branches:
                    count = sc.setpartition_via_traces(instance, k, theta)
                    counts["setcover.zero_instances"] += count == 0
                    total += sign * count
            counts["setcover.branch_instances"] += len(branches)
            if total > 0:
                return k
        return None

    def check(self, op: Op, result) -> bool:
        if "brute" not in op.checked:
            if op.kind.startswith("permanent"):
                op.checked["brute"] = pm.permanent_brute(op.data)
            else:
                op.checked["brute"] = sc.setcover_min(op.data[0], method="brute")
        if op.kind.startswith("permanent"):
            return result == op.checked["brute"]
        return result == op.checked["brute"] == op.expected


WORKLOADS = {w.name: w for w in (LsDecide(), LsLiteral(), CircuitVerify(), Counting())}
