"""Independent reference implementations used as test oracles.

Everything here recomputes answers from first principles (direct enumeration
over the natural problem structure) and deliberately shares no code with the
package's evaluation paths.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import cache
from itertools import chain, combinations, groupby, permutations, product
from math import comb, factorial
from typing import Iterator

from polyoracle.circuits import ArithmeticCircuit, ConstGate, InputGate, MulGate
from polyoracle.permanent import BinaryMatrix, FSpec
from polyoracle.problems import GraphInput, PatternGraph, WeightedGraphInput
from polyoracle.setcover import SetFamily


def _induced_vertex_sets(n: int, edges, pattern: PatternGraph) -> Iterator[tuple[int, ...]]:
    """Vertex subsets of [n] inducing a copy of the pattern under ``edges``,
    by bijection enumeration."""
    for vs in combinations(range(1, n + 1), pattern.num_vertices):
        actual = {p for p in combinations(vs, 2) if p in edges}
        for perm in permutations(vs):
            mapped = {
                tuple(sorted((perm[u - 1], perm[v - 1]))) for u, v in pattern.edges
            }
            if mapped == actual:
                yield vs
                break


def has_induced_pattern(graph: GraphInput, pattern: PatternGraph) -> bool:
    """Direct induced-subgraph check by vertex-subset and bijection enumeration."""
    return next(_induced_vertex_sets(graph.n, graph.edges, pattern), None) is not None


def induced_copies(graph: GraphInput, pattern: PatternGraph) -> int:
    """The number of vertex subsets whose induced subgraph is a copy of the pattern."""
    return sum(1 for _ in _induced_vertex_sets(graph.n, graph.edges, pattern))


# The LS witness counts below are each solution times the orderings of its
# interchangeable witness slots: the edge slots, the non-edge slots and the
# vertex-record slots of a pattern, or the points of a triple.


def _slot_orders(pattern: PatternGraph) -> int:
    return factorial(pattern.num_edges) * factorial(pattern.num_nonedges)


def induced_witnesses(graph: GraphInput, pattern: PatternGraph) -> int:
    return induced_copies(graph, pattern) * _slot_orders(pattern)


def ksum_witnesses(sets: tuple[tuple[int, ...], ...]) -> int:
    """Choices of one value per set that sum to 0."""
    return sum(1 for choice in product(*sets) if sum(choice) == 0)


def zero_sum_triples(sets) -> int:
    """Choices of one value from each of three sets that sum to 0, each pair
    of the first two sets closed by a hash lookup in the third."""
    third = set(sets[2])
    return sum(1 for a in sets[0] for b in sets[1] if -a - b in third)


def triangle_count(graph: GraphInput) -> int:
    """Triangles of the graph: each edge's common neighbours, by intersecting
    the adjacency sets of its ends, each triangle seen from its 3 edges."""
    adjacent: dict[int, set[int]] = {v: set() for v in range(1, graph.n + 1)}
    for u, v in graph.edges:
        adjacent[u].add(v)
        adjacent[v].add(u)
    return sum(len(adjacent[u] & adjacent[v]) for u, v in graph.edges) // 3


def induced_path3_count(graph: GraphInput) -> int:
    """Induced paths u - v - w: each vertex v's pairs of neighbours, less the
    three pairs of every triangle, whose ends are adjacent."""
    degrees = Counter(x for edge in graph.edges for x in edge)
    return sum(comb(d, 2) for d in degrees.values()) - 3 * triangle_count(graph)


def collinear_witnesses(points) -> int:
    return factorial(3) * sum(
        1
        for a, b, c in combinations(points, 3)
        if (b[0] - a[0]) * (c[1] - a[1]) == (c[0] - a[0]) * (b[1] - a[1])
    )


def light_clique_witnesses(inp: WeightedGraphInput, k: int, threshold: int) -> int:
    """k-cliques of total edge weight <= threshold."""
    weights = dict(inp.edge_weights)
    cliques = 0
    for vs in combinations(range(1, inp.n + 1), k):
        pairs = list(combinations(vs, 2))
        cliques += all(p in weights for p in pairs) and sum(weights[p] for p in pairs) <= threshold
    return factorial(comb(k, 2)) * cliques


def heavy_pattern_witnesses(
    inp: WeightedGraphInput, pattern: PatternGraph, threshold: int, mode: str
) -> int:
    """Vertex sets inducing the pattern with weight >= threshold: the weights
    of their edges, or of their vertices in vertex mode."""
    weights = dict(inp.edge_weights)
    heavy = 0
    for vs in _induced_vertex_sets(inp.n, weights, pattern):
        if mode == "edge-weights":
            total = sum(weights[p] for p in combinations(vs, 2) if p in weights)
        else:
            total = sum(inp.vertex_weights[v - 1] for v in vs)
        heavy += total >= threshold
    records = factorial(pattern.num_vertices) if mode == "vertex-weights" else 1
    return _slot_orders(pattern) * records * heavy


def family_witnesses(graph: GraphInput, family) -> int:
    """The induced witnesses of each distinct pattern of the family, summed."""
    return sum(induced_witnesses(graph, pattern) for pattern in dict.fromkeys(family))


# The literal polynomial of a local-subset spec at size s, from the
# definition in the ``localsubset`` module docstring: the grid x[c][i][q][a]
# flattened in the order (c, i, q, a) with c in (<, =, >), theta blocks of L
# bits each, the leading block absorbing the bits above, and candidate codes
# [1, min(s**r, 2**(theta*L) - 1)].  A spec is read only through its alpha,
# beta, r and ``verifier``.


def literal_grid(spec, s: int, theta: int) -> tuple[int, int]:
    """(L, top): L = ceil(r * ceil(log2 s) / theta) and the largest candidate code."""
    log2_s = 0
    while 1 << log2_s < s:
        log2_s += 1
    length = -(-spec.r * log2_s // theta)
    return length, min(s**spec.r, 2 ** (theta * length) - 1)


def literal_index(s: int, theta: int, length: int, c: str, i: int, q: int, a: int) -> int:
    """The flat index of x[c][i][q][a]: comparison c in "<=>" order, then
    row i in [0, s], block q in [1, theta], block value a in [0, 2**L)."""
    return (("<=>".index(c) * (s + 1) + i) * theta + q - 1) * 2**length + a


def literal_blocks(v: int, theta: int, length: int) -> list[int]:
    """Code v split into theta blocks, most significant first: blocks
    2..theta hold L bits each and block 1 holds the rest."""
    low = [v >> (length * (theta - q)) & (2**length - 1) for q in range(2, theta + 1)]
    return [v >> (length * (theta - 1))] + low


def literal_outcome(u: int, v: int) -> str:
    """The outcome of comparing u against v: "<", "=" or ">"."""
    return "<" if u < v else "=" if u == v else ">"


def literal_point(spec, inst, theta: int) -> list[int]:
    """x = phi(inst) as a table, entry by entry over the whole grid: rows
    s_0..s_{m+1} are 0, the elements of S sorted and n**r + 1, and
    x[c][i][q][a] is 1 iff row i exists and block q of s_i compares to a as c."""
    s = inst.n + len(inst.elements)
    length, _ = literal_grid(spec, s, theta)
    rows = [0, *sorted(inst.elements), inst.n**spec.r + 1]
    table = {}
    for c, i, q, a in product("<=>", range(s + 1), range(1, theta + 1), range(2**length)):
        block = literal_blocks(rows[i], theta, length)[q - 1] if i < len(rows) else None
        held = block is not None and c == literal_outcome(block, a)
        table[literal_index(s, theta, length, c, i, q, a)] = int(held)
    return [table[index] for index in range(len(table))]


@cache
def literal_witnesses(spec, s: int, theta: int) -> tuple[tuple[int, ...], ...]:
    """Every ordered tuple of alpha + beta candidate codes that
    ``spec.verifier`` accepts, in ``itertools.product`` order; memoised, as
    a spec is immutable and the product filter is the reference's slow part."""
    _, top = literal_grid(spec, s, theta)
    codes = range(1, top + 1)
    return tuple(w for w in product(codes, repeat=spec.alpha + spec.beta) if spec.verifier(*w))


def literal_polynomial(spec, s: int, theta: int) -> dict[tuple[tuple[int, int], ...], int]:
    """The size-s literal polynomial as a power vector -> coefficient map.

    Each accepted tuple contributes the product of one factor per slot.  An
    a-slot holding v contributes the sum over rows i in [1, s] of the
    all-equal gadget of v on row i; a b-slot holding v the sum over rows j in
    [0, s - 1] of (the C_lt gadgets of v on row j) times (the C_gt gadgets of
    v on row j + 1).  The gadget of an outcome tuple c on row i is the
    product over blocks q of x[c_q][i][q][block q of v].  C_lt and C_gt are
    the outcome tuples of {<, =, >}**theta whose leftmost non-equal outcome
    is < and > respectively.  A factor is a list of gadgets, each a list of
    variable indices; the products are counted as sorted index tuples, then
    each tuple's repeated indices are collapsed into powers."""
    length, _ = literal_grid(spec, s, theta)

    def gadget(outcome, i: int, v: int) -> list[int]:
        blocks = literal_blocks(v, theta, length)
        return [
            literal_index(s, theta, length, c, i, q, a)
            for q, (c, a) in enumerate(zip(outcome, blocks), start=1)
        ]

    def leftmost(outcome) -> str:
        return next((c for c in outcome if c != "="), "=")

    outcomes = list(product("<=>", repeat=theta))
    c_lt = [c for c in outcomes if leftmost(c) == "<"]
    c_gt = [c for c in outcomes if leftmost(c) == ">"]

    def a_factor(v: int) -> list[list[int]]:
        return [gadget("=" * theta, i, v) for i in range(1, s + 1)]

    def b_factor(v: int) -> list[list[int]]:
        return [
            gadget(lt, j, v) + gadget(gt, j + 1, v)
            for j in range(s)
            for lt in c_lt
            for gt in c_gt
        ]

    counts: Counter[tuple[int, ...]] = Counter()
    for w in literal_witnesses(spec, s, theta):
        factors = [a_factor(v) for v in w[: spec.alpha]] + [b_factor(v) for v in w[spec.alpha :]]
        for choice in product(*factors):
            counts[tuple(sorted(chain.from_iterable(choice)))] += 1
    return {
        tuple((i, len(list(run))) for i, run in groupby(indices)): count
        for indices, count in counts.items()
    }


def random_graph(rng: random.Random, n: int, max_edges: int | None = None) -> GraphInput:
    pairs = list(combinations(range(1, n + 1), 2))
    rng.shuffle(pairs)
    cap = len(pairs) if max_edges is None else min(max_edges, len(pairs))
    return GraphInput(n, frozenset(pairs[: rng.randint(0, cap)]))


def random_weighted_graph(
    rng: random.Random, n: int, magnitude: int, max_edges: int, with_vertex_weights: bool = False
) -> WeightedGraphInput:
    pairs = list(combinations(range(1, n + 1), 2))
    rng.shuffle(pairs)
    count = rng.randint(0, min(max_edges, len(pairs)))
    edge_weights = tuple((p, rng.randint(-magnitude, magnitude)) for p in pairs[:count])
    vertex_weights = (
        tuple(rng.randint(-magnitude, magnitude) for _ in range(n))
        if with_vertex_weights
        else ()
    )
    return WeightedGraphInput(
        n, edge_weights, max(magnitude, 1), vertex_weights=vertex_weights
    )


def mapping_coverages(matrix: BinaryMatrix) -> Counter[tuple[int, ...]]:
    """How many edge-respecting mappings L -> R give each coverage vector:
    entry v of a vector is the number of rows mapped to column v + 1."""
    choices = [[v for v, entry in enumerate(row) if entry] for row in matrix.entries]
    coverages: Counter[tuple[int, ...]] = Counter()
    for mapping in product(*choices):
        coverage = [0] * len(choices)
        for v in mapping:
            coverage[v] += 1
        coverages[tuple(coverage)] += 1
    return coverages


def f_count(coverages: Counter[tuple[int, ...]], spec: FSpec) -> int:
    """|F(eq1, eq0, ge1)| from ``mapping_coverages``: mappings covering each
    eq1 column exactly once, no eq0 column, and each ge1 column at least once."""

    def meets(coverage: tuple[int, ...]) -> bool:
        for v, times in enumerate(coverage):
            bit = 1 << v
            if spec.eq1 & bit and times != 1:
                return False
            if spec.eq0 & bit and times:
                return False
            if spec.ge1 & bit and not times:
                return False
        return True

    return sum(count for coverage, count in coverages.items() if meets(coverage))


def f_counts(matrix: BinaryMatrix, specs) -> list[int]:
    """``f_count`` of each spec, over one table of mapping coverages."""
    coverages = mapping_coverages(matrix)
    return [f_count(coverages, spec) for spec in specs]


def permanent_ryser(matrix: BinaryMatrix) -> int:
    """Ryser's formula, perm A = (-1)**n * sum over column sets S of
    (-1)**|S| * prod_i sum_{j in S} a_ij (Ryser, Combinatorial Mathematics,
    1963).  S runs through Gray-code order, so each step adds or removes one
    column and updates the n row sums: O(2**n * n)."""
    n = matrix.n
    sums = [0] * n
    total = 0 if n else 1  # S = {} contributes the empty product only at n = 0
    for step in range(1, 1 << n):
        j = (step & -step).bit_length() - 1
        gray = step ^ step >> 1  # the columns of S
        delta = 1 if gray >> j & 1 else -1
        product = 1
        for i, row in enumerate(matrix.entries):
            sums[i] += delta * row[j]
            product *= sums[i]
        total += -product if gray.bit_count() % 2 else product
    return -total if n % 2 else total


def setpartition_count(family: SetFamily, k: int) -> int:
    """k-index-subsets of the family whose sets are pairwise disjoint with union [n]."""
    count = 0
    for indices in combinations(range(len(family.sets)), k):
        union = 0
        for i in indices:
            if family.sets[i] & union:
                break
            union |= family.sets[i]
        else:
            count += union == family.full_mask
    return count


def hcv_count(family: SetFamily, m: int, k: int) -> int:
    """#HCV: k-index-subsets covering every element of [n] and each of [m]
    exactly once."""
    count = 0
    for indices in combinations(range(len(family.sets)), k):
        coverage = [sum(family.sets[i] >> e & 1 for i in indices) for e in range(family.n)]
        count += all(coverage) and all(times == 1 for times in coverage[:m])
    return count


def _signed_subset_sums(values: list[int], n: int) -> Counter[int]:
    """Zeta-transform ``values`` (indexed by subsets of [n]) in place, so entry
    X sums the entries of X's subsets, and return each transformed value with
    the sum of (-1)**|[n] - X| over the subsets X where it occurs."""
    for bit in range(n):
        step = 1 << bit
        for x in range(1 << n):
            if x & step:
                values[x] += values[x ^ step]
    weights: Counter[int] = Counter()
    for x, value in enumerate(values):
        weights[value] += -1 if (n - x.bit_count()) % 2 else 1
    return weights


def setpartition_counts_bhk(family: SetFamily, k_max: int) -> list[int]:
    """Entry k, for k = 0..k_max: index subsets of size k whose sets are
    pairwise disjoint with union [n], by inclusion-exclusion (Bjorklund,
    Husfeldt and Koivisto, "Set partitioning via inclusion-exclusion", SIAM
    J. Comput. 39(2), 2009).

    The ranked zeta transform gives, for every X inside [n], the polynomial
    f_X(t) = sum of t**|S| over the nonempty family sets S inside X.  The
    ordered j-tuples of nonempty sets with sizes summing to n and union [n]
    are disjoint, so sum_X (-1)**|[n] - X| [t**n] f_X(t)**j is j! times the
    partitions into j nonempty sets; each then takes k - j empty sets.  A
    polynomial is one int with one lane per degree, wide enough for the
    largest coefficient of a power, the number of j-tuples."""
    n = family.n
    nonempty = [mask for mask in family.sets if mask]
    empties = len(family.sets) - len(nonempty)
    j_max = max(0, min(k_max, n))
    width = (len(nonempty) ** j_max).bit_length() + 1
    ranked = [0] * (1 << n)
    for mask in nonempty:
        ranked[mask] += 1 << mask.bit_count() * width
    lane_n, low_lanes = n * width, (1 << (n + 1) * width) - 1
    ordered = [0] * (j_max + 1)
    for poly, weight in _signed_subset_sums(ranked, n).items():
        if weight:
            power = 1
            for j in range(j_max + 1):
                ordered[j] += weight * (power >> lane_n)
                power = power * poly & low_lanes
    partitions = []
    for j, count in enumerate(ordered):
        assert count % factorial(j) == 0
        partitions.append(count // factorial(j))
    return [
        sum(partitions[j] * comb(empties, k - j) for j in range(min(k, j_max) + 1))
        for k in range(k_max + 1)
    ]


def setcover_min_bhk(family: SetFamily) -> int | None:
    """The least k for which some k sets cover [n], or None: the least k with
    a positive count of ordered k-tuples of family sets (repeats allowed)
    covering [n], sum_X (-1)**|[n] - X| a(X)**k with a(X) the number of family
    sets inside X (Bjorklund, Husfeldt and Koivisto, SIAM J. Comput. 2009)."""
    inside = [0] * (1 << family.n)
    for mask in family.sets:
        inside[mask] += 1
    weights = _signed_subset_sums(inside, family.n)
    for k in range(len(family.sets) + 1):
        if sum(weight * a**k for a, weight in weights.items()) > 0:
            return k
    return None


def circuit_values(circuit: ArithmeticCircuit, points, modulus: int | None = None) -> list[int]:
    """The circuit's output at each point over Z, then reduced mod ``modulus``."""
    out = []
    for point in points:
        values: list[int] = []
        for gate in circuit.gates:
            if isinstance(gate, InputGate):
                values.append(point[gate.index])
            elif isinstance(gate, ConstGate):
                values.append(gate.value)
            elif isinstance(gate, MulGate):
                values.append(values[gate.left] * values[gate.right])
            else:
                values.append(values[gate.left] + values[gate.right])
        out.append(values[circuit.output] % modulus if modulus else values[circuit.output])
    return out


def circuit_verdicts(circuit: ArithmeticCircuit, targets, delta: int) -> list[tuple[bool, str]]:
    """(accepted, reason) per target: whether the circuit's expansion,
    truncated at degree ``delta``, has the target's variable count and terms.

    Each gate is held as a dict from sorted tuples of input indices, one
    index per degree, to coefficients; a product drops its pairs whose
    degrees sum above ``delta``, which is exact as no term has negative
    degree.
    """
    gates: list[Counter[tuple[int, ...]]] = []
    for gate in circuit.gates:
        terms: Counter[tuple[int, ...]] = Counter()
        if isinstance(gate, InputGate):
            terms[(gate.index,)] = 1
        elif isinstance(gate, ConstGate):
            terms[()] = gate.value
        elif isinstance(gate, MulGate):
            for (a, x), (b, y) in product(gates[gate.left].items(), gates[gate.right].items()):
                if len(a) + len(b) <= delta:
                    terms[tuple(sorted(a + b))] += x * y
        else:
            terms.update(gates[gate.left])
            terms.update(gates[gate.right])
        gates.append(Counter({key: c for key, c in terms.items() if c}))
    verdicts = []
    for target in targets:
        expected = {
            tuple(i for i, e in powers for _ in range(e)): c for powers, c in target.terms.items()
        }
        match = circuit.num_inputs == target.num_vars and gates[circuit.output] == expected
        verdicts.append((True, "match") if match else (False, "mismatch"))
    return verdicts


def independent_prime(n: int) -> bool:
    """Primality by trial division."""
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
