"""Independent reference implementations used as test oracles.

Everything here recomputes answers from first principles (direct enumeration
over the natural problem structure) and deliberately shares no code with the
package's evaluation paths.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations, permutations, product
from math import comb, factorial
from typing import Iterator

from polyoracle.permanent import BinaryMatrix, FSpec
from polyoracle.problems import GraphInput, PatternGraph, WeightedGraphInput
from polyoracle.setcover import SetFamily


def _induced_vertex_sets(graph: GraphInput, pattern: PatternGraph) -> Iterator[tuple[int, ...]]:
    """Vertex subsets inducing a copy of the pattern, by bijection enumeration."""
    for vs in combinations(range(1, graph.n + 1), pattern.num_vertices):
        actual = {p for p in combinations(sorted(vs), 2) if p in graph.edges}
        for perm in permutations(vs):
            mapped = {
                tuple(sorted((perm[u - 1], perm[v - 1]))) for u, v in pattern.edges
            }
            if mapped == actual:
                yield vs
                break


def has_induced_pattern(graph: GraphInput, pattern: PatternGraph) -> bool:
    """Direct induced-subgraph check by vertex-subset and bijection enumeration."""
    return next(_induced_vertex_sets(graph, pattern), None) is not None


def induced_copies(graph: GraphInput, pattern: PatternGraph) -> int:
    """The number of vertex subsets whose induced subgraph is a copy of the pattern."""
    return sum(1 for _ in _induced_vertex_sets(graph, pattern))


def ksum_direct(sets: tuple[tuple[int, ...], ...]) -> bool:
    return any(sum(choice) == 0 for choice in product(*sets))


def collinear_direct(points) -> bool:
    for a, b, c in combinations(points, 3):
        if (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1]) == 0:
            return True
    return False


def min_weight_clique_direct(inp: WeightedGraphInput, k: int, threshold: int) -> bool:
    weights = dict(inp.edge_weights)
    for vs in combinations(range(1, inp.n + 1), k):
        pairs = list(combinations(vs, 2))
        if all(p in weights for p in pairs):
            if sum(weights[p] for p in pairs) <= threshold:
                return True
    return False


def max_h_subgraph_direct(
    inp: WeightedGraphInput, pattern: PatternGraph, threshold: int, mode: str
) -> bool:
    edges = {p for p, _ in inp.edge_weights}
    weights = dict(inp.edge_weights)
    for vs in combinations(range(1, inp.n + 1), pattern.num_vertices):
        actual = {p for p in combinations(sorted(vs), 2) if p in edges}
        if not any(
            {tuple(sorted((perm[u - 1], perm[v - 1]))) for u, v in pattern.edges} == actual
            for perm in permutations(vs)
        ):
            continue
        if mode == "edge-weights":
            total = sum(weights[p] for p in actual)
        else:
            total = sum(inp.vertex_weights[v - 1] for v in vs)
        if total >= threshold:
            return True
    return False


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
