"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every criterion runs at its stated tolerance (all comparisons exact) within
its stated runtime budget, over seeded generators, so reruns are
reproducible bit for bit.
"""

import random
import time
from itertools import product

import polyoracle.circuits as ci
import polyoracle.localsubset as ls
import polyoracle.oracle as orc
import polyoracle.permanent as pm
import polyoracle.polynomials as poly
import polyoracle.problems as pr
import polyoracle.setcover as sc
from oracles import (
    f_count,
    hcv_count,
    mapping_coverages,
    random_graph,
    random_weighted_graph,
    setpartition_count,
)

SEED = 20240817


def _report(number, name, passed, elapsed, budget):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({elapsed:.1f}s / budget {budget}s)")
    assert passed, f"criterion {number} ({name}) failed"
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget: {elapsed:.1f}s"


def _encoder_instances(name, rng, count):
    """Seeded desk-scale instances: graphs n <= 8, m <= 20; k-SUM set size
    <= 6, |values| <= 20; points n <= 8."""
    out = []
    for _ in range(count):
        if name == "ksum":
            k = rng.choice([2, 3])
            w = rng.randint(0, 20)
            size = rng.randint(1, min(3, 2 * w + 1))
            sets = tuple(tuple(rng.sample(range(-w, w + 1), size)) for _ in range(k))
            out.append(pr.encode_ksum(pr.KSumInput(k, sets, w)))
        elif name == "collinearity":
            w = rng.randint(1, 20)
            pts = tuple(
                {(rng.randint(-w, w), rng.randint(-w, w)) for _ in range(rng.randint(3, 8))}
            )
            out.append(pr.encode_collinearity(pr.PointSetInput(pts, w)))
        elif name == "h-induced":
            out.append(
                pr.encode_h_induced(
                    random_graph(rng, rng.randint(3, 8), 10), pr.H_PRESETS["triangle"]
                )
            )
        elif name == "family-induced":
            family = [pr.H_PRESETS["path3"], pr.H_PRESETS["edge"]]
            out.append(
                pr.encode_family_induced(random_graph(rng, rng.randint(2, 5), 8), family)
            )
        elif name == "min-weight-clique":
            graph = random_weighted_graph(rng, rng.randint(3, 7), rng.randint(0, 10), 5)
            out.append(pr.encode_min_weight_kclique(graph, 3, rng.randint(-15, 15)))
        elif name == "max-h-subgraph":
            mode = rng.choice(["edge-weights", "vertex-weights"])
            pattern = pr.H_PRESETS[
                rng.choice(["edge", "triangle"]) if mode == "edge-weights" else "edge"
            ]
            graph = random_weighted_graph(
                rng,
                rng.randint(pattern.num_vertices, 6),
                rng.randint(0, 10),
                4 if mode == "edge-weights" else 3,
                with_vertex_weights=True,
            )
            out.append(pr.encode_max_h_subgraph(graph, pattern, rng.randint(-12, 12), mode))
        else:
            raise AssertionError(name)
    return out


ENCODERS = (
    "ksum",
    "collinearity",
    "h-induced",
    "family-induced",
    "min-weight-clique",
    "max-h-subgraph",
)


def test_criterion_1_ls_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(SEED)
    mismatches = 0
    per_encoder = 1000
    for name in ENCODERS:
        for spec, inst in _encoder_instances(name, rng, per_encoder):
            expected = ls.brute_solve(spec, inst)
            for theta in (1, 2, 3):
                if ls.solve_via_oracle(spec, inst, theta) != expected:
                    mismatches += 1
    elapsed = time.perf_counter() - start
    _report(
        1,
        f"LS oracle equivalence ({per_encoder} instances x 6 encoders x theta 1..3,"
        f" {mismatches} mismatches)",
        mismatches == 0,
        elapsed,
        60,
    )


def _small_instances_for_streams(rng):
    """Instances with s <= 8 whose literal streams fit the cap."""
    cases = []
    for k, w in ((1, 0), (1, 1), (2, 0), (2, 1)):
        for _ in range(4):
            size = rng.randint(1, 2 * w + 1)
            sets = tuple(tuple(rng.sample(range(-w, w + 1), size)) for _ in range(k))
            spec, inst = pr.encode_ksum(pr.KSumInput(k, sets, w))
            if inst.size <= 8:
                cases.append((spec, inst))
    for name in ("triangle", "path3"):
        for _ in range(8):
            graph = random_graph(rng, 3, 5)
            spec, inst = pr.encode_h_induced(graph, pr.H_PRESETS[name])
            if inst.size <= 8:
                cases.append((spec, inst))
    return cases


def test_criterion_2_witness_identity():
    start = time.perf_counter()
    rng = random.Random(SEED + 1)
    checked = 0
    exact = True
    for spec, inst in _small_instances_for_streams(rng):
        for theta in (1, 2):
            literal_poly = ls.formulation_polynomial(spec, inst.size, theta)
            vector = ls.compute_assignment(spec, inst, theta).vector()
            literal = poly.eval_over_integers(literal_poly, vector)
            witness = ls.evaluate_formulation(spec, inst, theta)
            exact = exact and literal == witness
            checked += 1
    elapsed = time.perf_counter() - start
    _report(
        2,
        f"witness identity (literal stream == witness count on {checked} evaluations)",
        exact and checked >= 40,
        elapsed,
        60,
    )


def test_criterion_3_formula_reproduction():
    start = time.perf_counter()
    ok = True
    # max monomial degree is exactly theta * (alpha + 2 beta)
    probes = [
        pr.encode_ksum(pr.KSumInput(2, ((0,), (0,)), 1)),
        pr.encode_h_induced(
            pr.GraphInput(3, frozenset({(1, 2), (2, 3)})), pr.H_PRESETS["path3"]
        ),
    ]
    for (spec, inst), thetas in zip(probes, ((1, 2, 3), (1, 2))):
        for theta in thetas:
            degrees = {m.degree for m in ls.formulation_monomials(spec, inst.size, theta)}
            ok = ok and degrees == {theta * (spec.alpha + 2 * spec.beta)}
    # assignment-table size is exactly 3 (s+1) theta 2**L
    for spec, inst in probes:
        for theta in (1, 2, 3):
            assignment = ls.compute_assignment(spec, inst, theta)
            expected = 3 * (inst.size + 1) * theta * (1 << assignment.block_len)
            ok = ok and assignment.num_vars == expected
            ok = ok and expected == ls.variable_count(inst.size, spec.r, theta)
            ok = ok and len(assignment.vector()) == expected
    # triangle bench at theta = 8 over s in {2**6 .. 2**12}
    bench = orc.bench_vars("triangle", 8, [2**t for t in range(6, 13)])
    ok = ok and bench.slope <= 1.35
    elapsed = time.perf_counter() - start
    _report(
        3,
        f"formula reproduction (degrees, table sizes, bench slope {bench.slope:.3f})",
        ok,
        elapsed,
        10,
    )


def test_criterion_4_permanent_chain():
    start = time.perf_counter()
    rng = random.Random(SEED + 2)
    ok = True
    for _ in range(200):
        n = rng.randint(1, 7)
        matrix = pm.matrix_from_rows(
            [[1 if rng.random() < 0.55 else 0 for _ in range(n)] for _ in range(n)]
        )
        ok = ok and pm.permanent_via_formulation(matrix, 0.5, 2) == pm.permanent_brute(matrix)
    # F-identity, exhaustive over all disjoint (S1, S0, S>=1) triples at n <= 5
    identity_checks = 0
    for n in range(1, 6):
        for _ in range(2):
            matrix = pm.matrix_from_rows(
                [[1 if rng.random() < 0.6 else 0 for _ in range(n)] for _ in range(n)]
            )
            coverages = mapping_coverages(matrix)
            counts = {}
            for assignment in product(range(4), repeat=n):
                eq1 = eq0 = ge1 = 0
                for position, kind in enumerate(assignment):
                    bit = 1 << position
                    if kind == 1:
                        eq1 |= bit
                    elif kind == 2:
                        eq0 |= bit
                    elif kind == 3:
                        ge1 |= bit
                counts[(eq1, eq0, ge1)] = f_count(coverages, pm.FSpec(eq1, eq0, ge1))
            for (eq1, eq0, ge1), value in counts.items():
                bits = [b for b in range(n) if ge1 >> b & 1]
                for b in bits:
                    bit = 1 << b
                    expected = counts[(eq1, eq0, ge1 ^ bit)] - counts[(eq1, eq0 | bit, ge1 ^ bit)]
                    ok = ok and value == expected
                    identity_checks += 1
    elapsed = time.perf_counter() - start
    _report(
        4,
        f"permanent chain (200 matrices n <= 7; {identity_checks} F-identity checks)",
        ok and identity_checks > 1000,
        elapsed,
        120,
    )


def test_criterion_5_set_cover_chain():
    start = time.perf_counter()
    rng = random.Random(SEED + 3)
    ok = True
    # reduction minimum equals brute minimum
    for _ in range(200):
        n = rng.randint(2, 8)
        size_cap = min(3, n // 2)
        sets = []
        for _ in range(rng.randint(1, 9)):
            size = rng.randint(1, max(1, size_cap))
            sets.append(rng.sample(range(1, n + 1), size))
        family = sc.family_from_lists(n, sets)
        ok = ok and sc.setcover_min(family, method="brute") == sc.setcover_min(
            family, method="reduction"
        )
    # branching recurrence against the #HCV reference
    for _ in range(100):
        n = rng.randint(1, 7)
        m = rng.randint(0, n)
        sets = tuple(rng.randint(0, (1 << n) - 1) for _ in range(rng.randint(0, 8)))
        family = sc.SetFamily(n, sets)
        k = rng.randint(0, len(sets))
        total = sum(
            sign * setpartition_count(inst, k) for sign, inst in sc.hcv_branch(family, n, m, k)
        )
        ok = ok and total == hcv_count(family, m, k)
    # trace-counted partitions against the brute oracle at theta = 2
    for _ in range(200):
        n = rng.randint(4, 8)
        size_cap = n // 4
        sets = []
        for _ in range(rng.randint(0, 12)):
            if rng.random() < 0.2:
                sets.append([])
            else:
                sets.append(rng.sample(range(1, n + 1), rng.randint(1, max(1, size_cap))))
        family = sc.family_from_lists(n, sets)
        k = rng.randint(0, len(sets))
        ok = ok and sc.setpartition_via_traces(family, k, 2) == setpartition_count(family, k)
    elapsed = time.perf_counter() - start
    _report(5, "set cover chain (200 + 100 + 200 seeded cases)", ok, elapsed, 120)


def _random_polynomial(rng, num_vars, max_terms=6, max_degree=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        powers = {}
        for v in rng.choices(range(num_vars), k=rng.randint(0, max_degree)):
            powers[v] = powers.get(v, 0) + 1
        key = tuple(sorted(powers.items()))
        terms[key] = terms.get(key, 0) + rng.randint(-8, 8)
    return poly.polynomial(num_vars, terms)


def _random_circuit(rng, num_inputs, max_binary, max_syntactic_degree):
    gates = [ci.InputGate(i) for i in range(num_inputs)]
    degrees = [1] * num_inputs
    gates.append(ci.ConstGate(rng.randint(-5, 5)))
    degrees.append(0)
    for _ in range(rng.randint(1, max_binary)):
        a, b = rng.randrange(len(gates)), rng.randrange(len(gates))
        if rng.random() < 0.5 and degrees[a] + degrees[b] <= max_syntactic_degree:
            gates.append(ci.MulGate(a, b))
            degrees.append(degrees[a] + degrees[b])
        else:
            gates.append(ci.AddGate(a, b))
            degrees.append(max(degrees[a], degrees[b]))
    return ci.ArithmeticCircuit(num_inputs, tuple(gates), len(gates) - 1)


def test_criterion_6_circuit_pipeline():
    start = time.perf_counter()
    rng = random.Random(SEED + 4)
    accepted = rejected = 0
    ok = True
    while accepted < 100 or rejected < 100:
        target = _random_polynomial(rng, rng.randint(1, 4))
        built = ci.build_circuit_from_polynomial(target)
        delta = max(max(map(poly._degree, target.terms), default=0), 1)
        if accepted < 100:
            ok = ok and bool(ci.verify_circuit(built, target, delta))
            accepted += 1
        if rejected < 100:
            gates = list(built.gates)
            const_ids = [i for i, g in enumerate(gates) if isinstance(g, ci.ConstGate)]
            gid = rng.choice(const_ids)
            gates[gid] = ci.ConstGate(gates[gid].value + 1)
            mutant = ci.ArithmeticCircuit(built.num_inputs, tuple(gates), built.output)
            if ci.expand_to_polynomial(mutant) != target:  # confirmed semantic
                ok = ok and not ci.verify_circuit(mutant, target, delta + 1)
                rejected += 1
    # homogenized circuits agree with originals at 100 random points mod p
    for _ in range(100):
        circuit = _random_circuit(rng, rng.randint(1, 4), 8, 4)
        homogenized = ci.homogenize(circuit, 4)
        prime = ci.find_prime(10**6 + rng.randint(0, 10**4)).p
        for _ in range(100):
            x = [rng.randint(-50, 50) for _ in range(circuit.num_inputs)]
            ok = ok and ci.evaluate_circuit(homogenized, x, prime) == ci.evaluate_circuit(
                circuit, x
            ) % prime
    # deterministic primes in [2M, 4M] for 1000 random M <= 10**6
    def independent_prime(n):
        if n < 2:
            return False
        if n % 2 == 0:
            return n == 2
        d = 3
        while d * d <= n:
            if n % d == 0:
                return False
            d += 2
        return True

    for _ in range(1000):
        m = rng.randint(1, 10**6)
        found = ci.find_prime(m)
        ok = ok and 2 * m <= found.p <= 4 * m and independent_prime(found.p)
    # centered-residue reconstruction under the value bound, 1000 cases
    for _ in range(1000):
        target = _random_polynomial(rng, rng.randint(1, 3))
        rho = rng.randint(1, 30)
        bound = poly.value_bound(target, rho)
        modulus = ci.find_prime(bound)
        x = [rng.randint(-rho, rho) for _ in range(target.num_vars)]
        expected = poly.eval_over_integers(target, x)
        ok = ok and ci.centered_residue(poly.eval_mod(target, x, modulus.p), modulus.p) == expected
    elapsed = time.perf_counter() - start
    _report(
        6,
        f"circuit pipeline ({accepted} accepts, {rejected} rejects, 100x100 mod-p points,"
        " 1000 primes, 1000 residues)",
        ok,
        elapsed,
        60,
    )


def test_criterion_7_oracle_accounting():
    start = time.perf_counter()
    rng = random.Random(SEED + 5)
    ok = True
    for name in ENCODERS:
        (spec, inst), = _encoder_instances(name, rng, 1)
        log = orc.OracleCallLog()
        wrapped = orc.logging_oracle(ls.exact_evaluation_oracle, log)
        answer = ls.solve_via_oracle(spec, inst, 2, wrapped)
        ok = ok and len(log.records) == 1
        record = log.records[0]
        ok = ok and record.size == ls.variable_count(inst.size, spec.r, 2)
        ok = ok and record.charged_cost == record.size
        ok = ok and log.total_cost == record.size
        report = orc.RunReport(
            problem=spec.name,
            instance_digest=orc.instance_digest(spec.name, inst),
            answer=answer,
            total_oracle_cost=log.total_cost,
            calls=list(log.records),
            wall_time_seconds=0.0,
        )
        parsed = orc.RunReport.from_json_dict(__import__("json").loads(report.dumps()))
        ok = ok and parsed.total_oracle_cost == sum(c.size for c in parsed.calls)
        ok = ok and parsed == report
    elapsed = time.perf_counter() - start
    _report(7, "oracle accounting (single-call contract + report totals)", ok, elapsed, 5)
