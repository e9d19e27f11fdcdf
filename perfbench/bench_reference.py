"""Reference answers that share no code with the library's timed routes.

Every function here works on the natural problem structure (vertex subsets,
value choices, point triples, gate lists) and imports nothing from
``polyoracle``, so a defect in an encoder, the formulation or a counting
chain cannot hide by also being in its check.
"""

from __future__ import annotations

from itertools import combinations, permutations, product


def zero_sum_choices(sets) -> int:
    """Number of ways to pick one value per set with total zero."""
    return sum(1 for choice in product(*sets) if sum(choice) == 0)


def has_collinear_triple(points) -> bool:
    for a, b, c in combinations(points, 3):
        if (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1]) == 0:
            return True
    return False


def induced_copies(n: int, edges, pattern_vertices: int, pattern_edges) -> list[tuple[int, ...]]:
    """Vertex subsets of [n] whose induced subgraph is isomorphic to the pattern."""
    target = {frozenset(e) for e in pattern_edges}
    found = []
    for vs in combinations(range(1, n + 1), pattern_vertices):
        actual = {frozenset(p) for p in combinations(vs, 2) if tuple(p) in edges}
        if len(actual) != len(target):
            continue
        for image in permutations(vs):
            mapped = {frozenset((image[u - 1], image[v - 1])) for u, v in target}
            if mapped == actual:
                found.append(vs)
                break
    return found


def cheapest_clique(n: int, weights: dict, k: int) -> int | None:
    """Minimum total edge weight over k-cliques; None when there is none."""
    best = None
    for vs in combinations(range(1, n + 1), k):
        pairs = list(combinations(vs, 2))
        if all(p in weights for p in pairs):
            total = sum(weights[p] for p in pairs)
            best = total if best is None else min(best, total)
    return best


def heaviest_induced(
    n: int, weights: dict, vertex_weights, pattern_vertices: int, pattern_edges, by_vertex: bool
) -> int | None:
    """Maximum weight over induced copies of the pattern; None when there is none."""
    best = None
    for vs in induced_copies(n, weights, pattern_vertices, pattern_edges):
        if by_vertex:
            total = sum(vertex_weights[v - 1] for v in vs)
        else:
            total = sum(weights[p] for p in combinations(vs, 2) if p in weights)
        best = total if best is None else max(best, total)
    return best


def min_cover_size(n: int, sets) -> int | None:
    """Fewest sets whose union is {1..n}; sets are lists of elements."""
    full = set(range(1, n + 1))
    for k in range(1, len(sets) + 1):
        for chosen in combinations(sets, k):
            if set().union(*chosen) == full:
                return k
    return None


def is_prime(value: int) -> bool:
    if value < 2:
        return False
    divisor = 2
    while divisor * divisor <= value:
        if value % divisor == 0:
            return False
        divisor += 1
    return True


def evaluate_terms(terms: dict, point) -> int:
    """Value of sum(coeff * prod(x_i ** e)) over the integers."""
    total = 0
    for powers, coeff in terms.items():
        term = coeff
        for index, exponent in powers:
            term *= point[index] ** exponent
        total += term
    return total


def evaluate_gates(gates, output: int, point) -> int:
    """Value of a gate list read by attribute name, without the library's evaluator."""
    values = []
    for gate in gates:
        if hasattr(gate, "index"):
            values.append(point[gate.index])
        elif hasattr(gate, "value"):
            values.append(gate.value)
        elif type(gate).__name__ == "AddGate":
            values.append(values[gate.left] + values[gate.right])
        else:
            values.append(values[gate.left] * values[gate.right])
    return values[output]
