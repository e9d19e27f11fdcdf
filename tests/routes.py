"""The route table: each exact number the suite computes by more than one
route, as data.

A quantity maps route names to Routes and row names to Inputs.  A row's
cases are (args, settings) pairs: a route is called as ``fn(*args, setting)``
for each setting of a case (a theta, an (alpha, theta) pair, a delta or
None), and is independent when it reads nothing but ``oracles.py``.  The
first route a row lists is its reference; ``test_routes.py`` runs the rows.

The test helpers that several test modules share live here too, so that no
test module imports another.
"""
import json
import math
import random
import sys
import time
from functools import partial
from itertools import product
from pathlib import Path
from typing import Any, Callable, NamedTuple

from hypothesis import strategies as st

import polyoracle.circuits as ci
import polyoracle.localsubset as ls
import polyoracle.permanent as pm
import polyoracle.polynomials as poly
import polyoracle.problems as pr
import polyoracle.setcover as sc
from oracles import (
    circuit_values,
    circuit_verdicts,
    collinear_witnesses,
    f_counts,
    family_witnesses,
    hcv_count,
    heavy_pattern_witnesses,
    induced_witnesses,
    ksum_witnesses,
    light_clique_witnesses,
    permanent_ryser,
    random_graph,
    random_weighted_graph,
    setcover_min_bhk,
    setpartition_count,
    setpartition_counts_bhk,
)
from polyoracle.errors import CapExceeded

SEED = 20240817
ROOT = Path(__file__).resolve().parents[1]


def timed(fn):
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    assert elapsed < 2, f"took {elapsed:.2f} s, not under 2 s"
    return result


def report_matches_log(text, problem, answer, log):
    """Whether a ``solve --report`` text states the problem, the answer and
    exactly the log's calls, each charged its size, with the total their sum."""
    data = json.loads(text)
    written = [(c["size"], c["charged_cost"], c["result_nonzero"]) for c in data["calls"]]
    logged = [(r.size, r.size, r.result_nonzero) for r in log.records]
    return (
        data["problem"] == problem
        and data["answer"] is answer
        and written == logged
        and data["total_oracle_cost"] == sum(r.size for r in log.records)
    )


# --- shared input generators -------------------------------------------------


def random_polynomial(rng, num_vars, max_terms=6, max_degree=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        powers = {}
        for v in rng.choices(range(num_vars), k=rng.randint(0, max_degree)):
            powers[v] = powers.get(v, 0) + 1
        key = tuple(sorted(powers.items()))
        terms[key] = terms.get(key, 0) + rng.randint(-8, 8)
    return poly.polynomial(num_vars, terms)


def random_circuit(rng, num_inputs, max_binary, max_syntactic_degree=None):
    gates = [ci.InputGate(i) for i in range(num_inputs)]
    degrees = [1] * num_inputs
    gates.append(ci.ConstGate(rng.randint(-5, 5)))
    degrees.append(0)
    for _ in range(rng.randint(1, max_binary)):
        a, b = rng.randrange(len(gates)), rng.randrange(len(gates))
        mul_ok = (
            max_syntactic_degree is None or degrees[a] + degrees[b] <= max_syntactic_degree
        )
        if rng.random() < 0.5 and mul_ok:
            gates.append(ci.MulGate(a, b))
            degrees.append(degrees[a] + degrees[b])
        else:
            gates.append(ci.AddGate(a, b))
            degrees.append(max(degrees[a], degrees[b]))
    return ci.ArithmeticCircuit(num_inputs, tuple(gates), len(gates) - 1)


def syntactic_degree(c):
    degrees = []
    for g in c.gates:
        if isinstance(g, ci.InputGate):
            degrees.append(1)
        elif isinstance(g, ci.ConstGate):
            degrees.append(0)
        elif isinstance(g, ci.AddGate):
            degrees.append(max(degrees[g.left], degrees[g.right]))
        else:
            degrees.append(degrees[g.left] + degrees[g.right])
    return max(degrees)


def with_cancellations(rng, c):
    """c with x - x chains, AddGate(g, g) and (g + h) * (g - h), whose cross
    terms cancel, appended over random gates and folded into the output."""
    gates = list(c.gates)
    minus_one = len(gates)
    gates.append(ci.ConstGate(-1))
    for _ in range(rng.randint(1, 4)):
        g, h = rng.randrange(len(gates)), rng.randrange(len(gates))
        kind = rng.randrange(3)
        if kind == 0:
            gates.append(ci.MulGate(minus_one, g))
            gates.append(ci.AddGate(g, len(gates) - 1))
        elif kind == 1:
            gates.append(ci.AddGate(g, g))
        else:
            gates.append(ci.MulGate(minus_one, h))
            gates.append(ci.AddGate(g, len(gates) - 1))
            gates.append(ci.AddGate(g, h))
            gates.append(ci.MulGate(len(gates) - 1, len(gates) - 2))
        gates.append(ci.AddGate(rng.randrange(len(gates)), len(gates) - 1))
    return ci.ArithmeticCircuit(c.num_inputs, tuple(gates), len(gates) - 1)


def reference_verdict(c, target, delta):
    """The Strassen route: expand the homogenized circuit, then compare."""
    try:
        expansion = ci.expand_to_polynomial(ci.homogenize(c, delta))
    except CapExceeded:
        return False, "cap_exceeded"
    return (True, "match") if expansion == target else (False, "mismatch")


def random_matrix(rng, n, density=0.5):
    return pm.matrix_from_rows(
        [[1 if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
    )


def random_family(rng, n, max_sets, size_cap, empty_rate=0.15):
    sets = []
    for _ in range(rng.randint(0, max_sets)):
        if rng.random() < empty_rate:
            sets.append(0)
        else:
            size = rng.randint(1, max(1, size_cap))
            mask = sum(1 << (e - 1) for e in rng.sample(range(1, n + 1), min(size, n)))
            sets.append(mask)
    return sc.SetFamily(n, tuple(sets))


def planted_lists(rng, n, size_cap, partitions, extra):
    """The blocks of ``partitions`` random partitions of [n] into sets of size
    at most ``size_cap``, plus ``extra`` random sets of such sizes, shuffled."""
    lists = []
    for _ in range(partitions):
        elements = rng.sample(range(1, n + 1), n)
        while elements:
            size = rng.randint(1, size_cap)
            lists.append(elements[:size])
            elements = elements[size:]
    lists += [rng.sample(range(1, n + 1), rng.randint(1, size_cap)) for _ in range(extra)]
    rng.shuffle(lists)
    return lists


def tiny_encodings():
    """Every encoder at a size whose whole candidate product [1, n**r]**(alpha + beta)
    has at most 2**20 tuples.  Max-H records with more than one pair or vertex
    slot need 64**4 tuples at the least; the LS count rows and the multi-slot
    LS decision row cover them."""
    graph = lambda n: pr.GraphInput(n, frozenset())  # noqa: E731
    weighted = lambda n: pr.WeightedGraphInput(n, (), 1, (0,) * n)  # noqa: E731
    single = pr.PatternGraph("vertex", 1, frozenset())
    return [
        pr.encode_ksum(pr.KSumInput(3, ((0,),) * 3, 1)),
        pr.encode_ksum(pr.KSumInput(2, ((0,),) * 2, 2)),
        pr.encode_collinearity(pr.PointSetInput((), 2)),
        pr.encode_h_induced(graph(4), pr.H_PRESETS["triangle"]),
        pr.encode_h_induced(graph(4), pr.H_PRESETS["path3"]),
        pr.encode_family_induced(graph(3), [pr.H_PRESETS["path3"], pr.H_PRESETS["triangle"]]),
        pr.encode_family_induced(graph(3), [pr.H_PRESETS["path3"], pr.H_PRESETS["edge"]]),
        pr.encode_min_weight_kclique(weighted(3), 2, 0),
        pr.encode_min_weight_kclique(weighted(2), 3, 0),
        pr.encode_max_h_subgraph(weighted(2), pr.H_PRESETS["edge"], 0, "edge-weights"),
        pr.encode_max_h_subgraph(weighted(2), single, 0, "vertex-weights"),
    ]


def small_stream_instances(rng):
    """Instances with s <= 8 whose literal polynomials fit the cap."""
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


# --- the table ---------------------------------------------------------------


class Route(NamedTuple):
    fn: Callable  # fn(*args, setting) -> value
    independent: bool = False


class Inputs(NamedTuple):
    cases: Any  # a function of no arguments yielding (args, settings), or a strategy of them
    routes: tuple | None = None  # the reference first; None runs every route
    check: Callable = lambda cases, values: True  # a side assertion on cases and references
    caps: dict = {}  # cap limits lifted for the row
    max_examples: int = 0  # for a strategy


class Quantity(NamedTuple):
    routes: dict
    inputs: dict


SKIP = object()  # a route's value on a case beyond its reach


class LS(NamedTuple):
    """A natural input, the oracles.py function that counts its witnesses
    directly, and its encoding."""

    direct: Callable
    args: tuple
    spec: ls.LSProblemSpec
    inst: ls.LSInstance


def ls_case(direct, encode, *args):
    assert direct.__module__ == "oracles"  # an independent route calls it
    return LS(direct, args, *encode(*args))


h_induced_case = partial(ls_case, induced_witnesses, pr.encode_h_induced)
family_case = partial(ls_case, family_witnesses, pr.encode_family_induced)
clique_case = partial(ls_case, light_clique_witnesses, pr.encode_min_weight_kclique)
max_h_case = partial(ls_case, heavy_pattern_witnesses, pr.encode_max_h_subgraph)


def ksum_case(sets, w):
    return ls_case(ksum_witnesses, lambda s: pr.encode_ksum(pr.KSumInput(len(s), s, w)), sets)


def points_case(points, w):
    encode = lambda p: pr.encode_collinearity(pr.PointSetInput(p, w))  # noqa: E731
    return ls_case(collinear_witnesses, encode, points)


def random_encoding(name, rng):
    """A small random instance of one encoder, sized so that the unpruned
    product of its witness pools stays below about 10**5 tuples."""
    if name == "ksum":
        w = rng.randint(0, 6)
        size = rng.randint(1, min(4, 2 * w + 1))
        sets = tuple(tuple(rng.sample(range(-w, w + 1), size)) for _ in range(rng.choice([2, 3])))
        return ksum_case(sets, w)
    if name == "collinearity":
        w = rng.randint(1, 4)
        points = {(rng.randint(-w, w), rng.randint(-w, w)) for _ in range(rng.randint(3, 9))}
        return points_case(tuple(points), w)
    if name == "h-induced":
        pattern = pr.H_PRESETS[rng.choice(["edge", "path3", "triangle"])]
        return h_induced_case(random_graph(rng, rng.randint(3, 6), 8), pattern)
    if name == "family-induced":
        family = [pr.H_PRESETS["path3"], pr.H_PRESETS[rng.choice(["edge", "triangle"])]]
        return family_case(random_graph(rng, rng.randint(2, 5), 6), family)
    if name == "min-weight-clique":
        graph = random_weighted_graph(rng, rng.randint(3, 6), 4, 8)
        return clique_case(graph, 3, rng.randint(-8, 8))
    mode = rng.choice(["edge-weights", "vertex-weights"])
    presets = ["edge", "path3", "triangle"] if mode == "edge-weights" else ["edge"]
    pattern = pr.H_PRESETS[rng.choice(presets)]
    graph = random_weighted_graph(rng, rng.randint(3, 5), 3, 5, with_vertex_weights=True)
    return max_h_case(graph, pattern, rng.randint(-8, 8), mode)


def unpruned_count(spec, inst, theta, limit=None):
    """Accepted tuples over evaluate_formulation's pools, by a plain product
    loop; SKIP where the product has more than ``limit`` tuples."""
    top = min(inst.n**spec.r, 2 ** (theta * ls.block_length(inst.size, spec.r, theta)) - 1)
    a_pool = [v for v in inst.elements if v <= top]
    outside = [v for v in range(1, top + 1) if v not in inst.elements] if spec.beta else []
    pools = [a_pool] * spec.alpha + [outside] * spec.beta
    if limit is not None and math.prod(map(len, pools)) > limit:
        return SKIP
    return sum(1 for t in product(*pools) if spec.verifier(*t))


def literal_value(spec, inst, theta):
    polynomial = ls.formulation_polynomial(spec, inst.size, theta)
    return poly.eval_over_integers(polynomial, ls.compute_assignment(spec, inst, theta).vector())


# LS cases are ((LS,), thetas).


def h_induced_draws():
    rng = random.Random(20)
    for _ in range(100):
        for name, nmax, mmax in (("path3", 7, 12), ("triangle", 8, 12), ("c4", 5, 6)):
            graph = random_graph(rng, rng.randint(2, nmax), mmax)
            yield (h_induced_case(graph, pr.H_PRESETS[name]),), (2,)


def family_draws():
    rng = random.Random(21)
    family = [pr.H_PRESETS["path3"], pr.H_PRESETS["edge"]]
    for _ in range(120):
        yield (family_case(random_graph(rng, rng.randint(1, 5), 8), family),), (2,)


def ksum_draws():
    rng = random.Random(22)
    for _ in range(200):
        k = rng.choice([2, 3])
        w = rng.randint(0, 20)
        count = rng.randint(1, min(4, 2 * w + 1))
        sets = tuple(tuple(rng.sample(range(-w, w + 1), count)) for _ in range(k))
        yield (ksum_case(sets, w),), (2,)


def collinearity_draws():
    rng = random.Random(23)
    for _ in range(200):
        w = rng.randint(1, 15)
        points = tuple({(rng.randint(-w, w), rng.randint(-w, w)) for _ in range(rng.randint(3, 8))})
        yield (points_case(points, w),), (2,)


def min_weight_clique_draws():
    rng = random.Random(24)
    for _ in range(150):
        graph = random_weighted_graph(rng, rng.randint(3, 7), rng.randint(0, 15), 6)
        yield (clique_case(graph, 3, rng.randint(-20, 20)),), (2,)


def max_h_draws():
    rng = random.Random(25)
    for _ in range(150):
        mode = rng.choice(["edge-weights", "vertex-weights"])
        name = rng.choice(["edge", "triangle"]) if mode == "edge-weights" else "edge"
        pattern = pr.H_PRESETS[name]
        graph = random_weighted_graph(
            rng,
            rng.randint(pattern.num_vertices, 6),
            rng.randint(0, 10),
            4 if mode == "edge-weights" else 3,
            with_vertex_weights=True,
        )
        threshold = rng.randint(-15, 15)
        yield (max_h_case(graph, pattern, threshold, mode),), (2,)


def multi_slot_draws():
    """Min-weight 4-cliques, and vertex-mode max-H for path3 and the
    triangle: six and seven record slots, too many for ``brute_solve``."""
    rng = random.Random(27)
    for _ in range(20):
        graph = random_weighted_graph(rng, rng.randint(3, 5), 3, 10, with_vertex_weights=True)
        threshold = rng.randint(-6, 6)
        yield (clique_case(graph, 4, threshold),), (2,)
        for name in ("path3", "triangle"):
            case = max_h_case(graph, pr.H_PRESETS[name], threshold, "vertex-weights")
            yield (case,), (2,)


def literal_graph_draws():
    cases = [
        ("triangle", 3, [(1, 2), (1, 3), (2, 3)]),
        ("triangle", 3, [(1, 2), (2, 3)]),
        ("path3", 3, [(1, 2), (2, 3)]),
        ("path3", 3, [(1, 2)]),
        ("path3", 3, [(1, 2), (1, 3), (2, 3)]),
    ]
    for name, n, edges in cases:
        graph = pr.GraphInput(n, frozenset(edges))
        yield (h_induced_case(graph, pr.H_PRESETS[name]),), (1, 2)


def literal_ksum_draws():
    rng = random.Random(0)
    for _ in range(20):
        w = rng.randint(0, 1)
        count = rng.randint(1, 2 * w + 1)
        values = lambda: tuple(sorted(rng.sample(range(-w, w + 1), count)))  # noqa: E731
        yield (ksum_case((values(), values()), w),), (1, 2, 3)


def has_step(cases, _):
    return all(m.step is not None for (case,), _ in cases for m in case.spec.members)


def pruned_count_draws(name):
    """random_encoding's inputs at a drawn theta, of size 2 or more."""
    return st.builds(
        lambda seed, theta: ((random_encoding(name, random.Random(seed)),), (theta,)),
        st.integers(0, 2**32),
        st.integers(1, 3),
    ).filter(lambda case: case[0][0].inst.size >= 2)


LS_DECISION = Quantity(
    routes={
        "direct": Route(lambda c, _: bool(c.direct(*c.args)), independent=True),
        "brute_solve": Route(lambda c, _: ls.brute_solve(c.spec, c.inst)),
        "solve_via_oracle": Route(lambda c, theta: ls.solve_via_oracle(c.spec, c.inst, theta)),
    },
    inputs={
        "h-induced": Inputs(h_induced_draws),
        "family-induced": Inputs(family_draws),
        "ksum": Inputs(ksum_draws),
        "collinearity": Inputs(collinearity_draws),
        "min-weight-clique": Inputs(min_weight_clique_draws),
        "max-h-subgraph": Inputs(max_h_draws),
        "multi-slot records": Inputs(multi_slot_draws, ("direct", "solve_via_oracle")),
        "literal-polynomial graphs": Inputs(literal_graph_draws),
    },
)

LITERAL = ("direct", "evaluate_formulation", "literal polynomial")
LS_COUNT = Quantity(
    routes={
        "direct": Route(lambda c, _: c.direct(*c.args), independent=True),
        "evaluate_formulation": Route(
            lambda c, theta: ls.evaluate_formulation(c.spec, c.inst, theta)
        ),
        # The plain product filter, where it has at most 2 * 10**4 tuples.
        "unpruned product": Route(
            lambda c, theta: unpruned_count(c.spec, c.inst, theta, 2 * 10**4)
        ),
        "literal polynomial": Route(lambda c, theta: literal_value(c.spec, c.inst, theta)),
    },
    inputs={
        **{
            f"{name} pruned vs unpruned": Inputs(
                pruned_count_draws(name),
                ("direct", "evaluate_formulation", "unpruned product"),
                has_step,
                max_examples=40,
            )
            for name in (
                "ksum",
                "collinearity",
                "h-induced",
                "min-weight-clique",
                "max-h-subgraph",
                "family-induced",
            )
        },
        "literal-polynomial 2-sum": Inputs(literal_ksum_draws, LITERAL),
        "literal-polynomial graphs": Inputs(literal_graph_draws, LITERAL),
    },
)


# Permanent cases are ((matrix,), (alpha, theta) pairs).

CHAIN_SETTINGS = ((0.5, 2), (0.5, 1))
VARIANT_SETTINGS = ((0.25, 2), (0.5, 3), (0.75, 1), (1.0, 2))


def matrix_draws(seed, count, max_n, settings=((0.5, 2),)):
    def draws():
        rng = random.Random(seed)
        for _ in range(count):
            n = rng.randint(1, max_n)
            yield (random_matrix(rng, n),), settings

    return draws


def ryser_draws():
    rng = random.Random(21)
    for n in range(9):
        for _ in range(10):
            yield (random_matrix(rng, n, density=rng.choice([0.3, 0.6, 0.9])),), ((0.5, 2),)


def past_the_cap_matrix_draws():
    """Per n, one matrix per theta 1-3; the theta = 3 matrix serves theta = 4 too."""
    rng = random.Random(22)
    for n in (11, 12, 13):
        for theta in (1, 2, 3):
            settings = ((0.5, 3), (0.5, 4)) if theta == 3 else ((0.5, theta),)
            yield (random_matrix(rng, n, density=0.6),), settings


def bit_matrix_case(n, bits, setting):
    """The n x n 0/1 matrix whose entry (i, j) is bit n*i + j of ``bits``."""
    rows = [[bits >> (n * i + j) & 1 for j in range(n)] for i in range(n)]
    return (pm.matrix_from_rows(rows),), (setting,)


def signed_f_sum(matrix, alpha):
    """The f_expand terms' signed sum, each term counted by ``f_counts``."""
    terms = pm.f_expand(matrix, (1 << math.ceil(alpha * matrix.n)) - 1, alpha)
    counts = f_counts(matrix, [spec for _, spec in terms])
    return sum(sign * count for (sign, _), count in zip(terms, counts))


PERMANENT = Quantity(
    routes={
        "ryser": Route(lambda m, _: permanent_ryser(m), independent=True),
        "permanent_brute": Route(lambda m, _: pm.permanent_brute(m)),
        "permanent_via_formulation": Route(
            lambda m, setting: pm.permanent_via_formulation(m, *setting)
        ),
        "f_expand signed f_counts": Route(lambda m, setting: signed_f_sum(m, setting[0])),
    },
    inputs={
        "chain": Inputs(
            matrix_draws(7, 120, 6, CHAIN_SETTINGS),
            ("ryser", "permanent_brute", "permanent_via_formulation"),
        ),
        "alpha-theta variants": Inputs(
            matrix_draws(8, 40, 6, VARIANT_SETTINGS),
            ("ryser", "permanent_brute", "permanent_via_formulation"),
        ),
        "hypothesis": Inputs(
            st.builds(
                bit_matrix_case,
                st.integers(1, 6),
                st.integers(0, 2**36 - 1),
                st.sampled_from(CHAIN_SETTINGS + VARIANT_SETTINGS),
            ),
            ("ryser", "permanent_brute", "permanent_via_formulation"),
            max_examples=120,
        ),
        "n <= 8": Inputs(ryser_draws, ("ryser", "permanent_brute")),
        "past the cap": Inputs(
            past_the_cap_matrix_draws,
            ("ryser", "permanent_via_formulation"),
            lambda cases, values: all(value > 0 for value in values),
            caps={"permanent_formulation": 13},
        ),
        "f_expand terms": Inputs(matrix_draws(2, 60, 5)),
    },
)


def g_count_dp(matrix, rows, s_eq1, s_eq0, flag):
    """Segment count G_K: mappings from ``rows`` covering s_eq1 exactly once
    and avoiding s_eq0, flagged with the last row mapped into s_eq1.

    The one-segment subset DP over every subset C of s_eq1 at once, packed
    into one int: lane C, of w bits, counts the mappings of the rows so far
    that cover exactly C once.  Per row, ``moved`` shifts every lane lacking
    a column the row covers in s_eq1 up by that column's lane offset, and
    ``dp = dp * free + moved``; the flagged count is the last row's
    ``moved``.  No lane exceeds the product of the rows' choice counts, whose
    bit length is w.  It shares no code with f_count_traces."""
    bits = [b for b in range(matrix.n) if s_eq1 >> b & 1]
    rows = list(rows)
    blocked = s_eq1 | s_eq0
    free = {u: (matrix.row_masks[u - 1] & ~blocked).bit_count() for u in rows}
    covs = {u: [p for p, b in enumerate(bits) if matrix.row_masks[u - 1] >> b & 1] for u in rows}
    width = math.prod(free[u] + len(covs[u]) or 1 for u in rows).bit_length()
    total = width << len(bits)
    lack = {}  # lack[p]: all-ones lanes where position p is uncovered, built by doubling
    for p in range(len(bits)):
        mask, span = (1 << (width << p)) - 1, 2 * width << p
        while span < total:
            mask |= mask << span
            span *= 2
        lack[p] = mask
    dp, moved = 1, 0  # no rows: only the empty block is covered, and nothing is flagged
    for u in rows:
        moved = sum((dp & lack[p]) << (width << p) for p in covs[u])
        dp = dp * free[u] + moved
    return (moved if flag else dp) >> ((1 << len(bits)) - 1) * width


# f-count cases are ((matrix, FSpecs), thetas); each value lists |F(eq1, eq0, {})| per FSpec.


def mask_draws():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 6)
        m = random_matrix(rng, n)
        full = (1 << n) - 1
        eq1 = rng.randint(0, full)
        eq0 = rng.randint(0, full) & ~eq1
        theta = rng.choice([1, 2, 3, 4])
        yield (m, (pm.FSpec(eq1, eq0, 0),)), (theta,)


def f_count_case(n, bits, eq1, eq0, theta):
    """The n x n matrix of ``bits`` with S1 = eq1 and S0 = eq0 outside S1,
    both cut to its n columns."""
    (matrix,), _ = bit_matrix_case(n, bits, None)
    full = (1 << n) - 1
    eq1 &= full
    return (matrix, (pm.FSpec(eq1, eq0 & full & ~eq1, 0),)), (theta,)


def one_segment_draws():
    """Every f_expand term of a matrix at five alphas, traced at theta = 1."""
    rng = random.Random(19)
    for _ in range(80):
        n = rng.randint(1, 7)
        m = random_matrix(rng, n)
        specs = []
        for alpha in (0, 0.25, 0.5, 0.75, 1):
            specs += [spec for _, spec in pm.f_expand(m, (1 << math.ceil(alpha * n)) - 1, alpha)]
        yield (m, specs), (1,)


F_COUNTS = Quantity(
    routes={
        "f_count": Route(lambda m, specs, _: f_counts(m, specs), independent=True),
        "f_count_traces": Route(
            lambda m, specs, theta: [pm.f_count_traces(m, s.eq1, s.eq0, theta) for s in specs]
        ),
        "subset DP": Route(
            lambda m, specs, _: [g_count_dp(m, range(1, m.n + 1), s.eq1, s.eq0, 0) for s in specs]
        ),
    },
    inputs={
        "random masks": Inputs(mask_draws),
        "one-segment f_expand terms": Inputs(one_segment_draws),
        "hypothesis": Inputs(
            st.builds(
                f_count_case,
                st.integers(1, 6),
                st.integers(0, 2**36 - 1),
                st.integers(0, 63),
                st.integers(0, 63),
                st.integers(1, 5),
            ),
            max_examples=120,
        ),
    },
)


def z_var_dp(family, a_mask, b_mask, count):
    """The z variable, one lane of the trace counter's z table: partitions of
    A into ``count`` family sets whose minima precede min(B)."""
    counter = sc._PartitionCounter(family, 1, 0)
    return counter.lane(counter.z(a_mask, b_mask & -b_mask), count)


# Set-partition cases are ((family, k_max), thetas); each value lists the
# counts for k = 0..k_max.


def partition_draws(theta):
    def draws():
        rng = random.Random(theta)
        for _ in range(150):
            n = rng.randint(2 * theta, 10)
            family = random_family(rng, n, 10, n // (2 * theta))
            k_max = len(family.sets)
            rng.randint(0, k_max)  # the one k once traced alone; every k is now
            yield (family, k_max), (theta,)

    return draws


def small_family_partitions(n, raw_sets, k):
    lists = [[e for e in s if e <= n][: n // 4] for s in raw_sets]
    return (sc.family_from_lists(n, [sorted(set(s)) for s in lists]), k), (2,)


def bhk_draws():
    rng = random.Random(19)
    for _ in range(200):
        n = rng.randint(0, 7)
        family = random_family(rng, n, 9, max(1, n // 2))
        yield family, rng.randint(-1, 6)


def past_the_cap_partition_draws():
    """Per n, one family with sets of size <= n/6 serves every theta, and one
    with sets of size <= n/2 serves theta = 1."""
    rng = random.Random(23)
    for n in (13, 14, 15, 16):
        for size_cap, thetas in ((n // 6, (1, 2, 3)), (n // 2, (1,))):
            lists = planted_lists(rng, n, size_cap, partitions=3, extra=n)
            yield (sc.family_from_lists(n, lists + [[], []]), n + 2), thetas


SET_PARTITION = Quantity(
    routes={
        "bhk": Route(lambda f, k_max, _: setpartition_counts_bhk(f, k_max), independent=True),
        "enumeration": Route(
            lambda f, k_max, _: [setpartition_count(f, k) for k in range(k_max + 1)],
            independent=True,
        ),
        "trace lanes": Route(lambda f, k_max, theta: sc._partition_counts(f, k_max, theta)),
        "setpartition_via_traces": Route(
            lambda f, k_max, theta: [
                sc.setpartition_via_traces(f, k, theta) for k in range(k_max + 1)
            ]
        ),
    },
    inputs={
        **{f"theta {theta}": Inputs(partition_draws(theta)) for theta in (1, 2, 3)},
        "hypothesis": Inputs(
            st.builds(
                small_family_partitions,
                st.integers(4, 9),
                st.lists(st.lists(st.integers(1, 9), min_size=0, max_size=2), max_size=9),
                st.integers(0, 9),
            ),
            max_examples=120,
        ),
        "bhk references": Inputs(
            lambda: (((family, k_max), (1,)) for family, k_max in bhk_draws()),
            ("bhk", "enumeration"),
        ),
        "past the cap": Inputs(
            past_the_cap_partition_draws,
            ("bhk", "trace lanes"),
            lambda cases, values: all(any(counts) for counts in values),
            caps={"setpartition_universe": 16},
        ),
    },
)


# #HCV cases are ((family, m, k), (None,)).


def hcv_draws():
    rng = random.Random(3)
    for _ in range(150):
        n = rng.randint(1, 7)
        m = rng.randint(0, n)
        family = random_family(rng, n, 8, n)
        yield (family, m, rng.randint(0, len(family.sets))), (None,)


def hcv_case(n, m, raw_sets, k):
    """A family over [n] of at most 8 sets, as hcv_draws' are, with m <= n
    and k at most the number of sets."""
    lists = [list(dict.fromkeys(e for e in s if e <= n)) for s in raw_sets]
    return (sc.family_from_lists(n, lists), min(m, n), min(k, len(lists))), (None,)


HCV_COUNT = Quantity(
    routes={
        "enumeration": Route(lambda f, m, k, _: hcv_count(f, m, k), independent=True),
        "hcv_branch signed partitions": Route(
            lambda f, m, k, _: sum(
                sign * setpartition_count(inst, k) for sign, inst in sc.hcv_branch(f, f.n, m, k)
            )
        ),
    },
    inputs={
        "branch signed sums": Inputs(
            hcv_draws,
            check=lambda cases, _: all(
                len(sc.hcv_branch(f, f.n, m, k)) == 2 ** (f.n - m) for (f, m, k), _ in cases
            ),
        ),
        "hypothesis": Inputs(
            st.builds(
                hcv_case,
                st.integers(1, 7),
                st.integers(0, 7),
                st.lists(st.lists(st.integers(1, 7), max_size=7), max_size=8),
                st.integers(0, 8),
            ),
            max_examples=120,
        ),
    },
)


# Set-cover cases are ((family,), thetas).


def cover_draws():
    rng = random.Random(5)
    for _ in range(120):
        n = rng.randint(2, 8)
        yield (random_family(rng, n, 9, min(3, n // 2), empty_rate=0.1),), (1,)


def benchmark_shaped_cover_draws():
    """Families shaped like the benchmark's, where a greedy cover can exceed
    the minimum that the reduction must still return."""
    rng = random.Random(5)
    for _ in range(6):
        lists = [rng.sample(range(1, 11), size) for size in (5, 4, 4, 3, 3, 3, 2, 2, 2)]
        yield (sc.family_from_lists(10, lists),), (1,)


def large_cover_draws():
    """Three planted families per theta at n = 13-14, then the last of them
    without element n, which nothing covers."""
    rng = random.Random(19)
    for n in (13, 14):
        for theta in (1, 2, 3):
            for _ in range(3):
                lists = planted_lists(rng, n, min(5, n // (2 * theta)), partitions=1, extra=n // 2)
                family = sc.family_from_lists(n, lists)
                yield (family,), (theta,)
            uncoverable = sc.SetFamily(n, tuple(mask & ~(1 << (n - 1)) for mask in family.sets))
            yield (uncoverable,), (theta,)


def cover_case(n, raw_sets):
    """A family over [n] of at most 9 sets of size <= min(3, n // 2), as
    cover_draws' are."""
    lists = [list(dict.fromkeys(e for e in s if e <= n))[: min(3, n // 2)] for s in raw_sets]
    return (sc.family_from_lists(n, lists),), (1,)


def element_lists(family):
    return [[e + 1 for e in range(family.n) if mask >> e & 1] for mask in family.sets]


def greedy_gaps(cases, minima):
    return any(
        minimum is not None and sc._greedy_cover_size(f.sets, f.full_mask) > minimum
        for ((f,), _), minimum in zip(cases, minima)
    )


COVER_MIN = Quantity(
    routes={
        "bhk": Route(lambda f, _: setcover_min_bhk(f), independent=True),
        "brute": Route(lambda f, _: sc.setcover_min(f, method="brute")),
        "reduction": Route(lambda f, theta: sc.setcover_min(f, method="reduction", theta=theta)),
        # setcover_min_of_lists, the CLI's entry point, on the family's element lists.
        "brute of lists": Route(lambda f, _: sc.setcover_min_of_lists(f.n, element_lists(f))),
        "reduction of lists": Route(
            lambda f, theta: sc.setcover_min_of_lists(f.n, element_lists(f), "reduction", theta)
        ),
    },
    inputs={
        "n <= 8": Inputs(cover_draws),
        "hypothesis": Inputs(
            st.builds(
                cover_case,
                st.integers(2, 8),
                st.lists(st.lists(st.integers(1, 8), max_size=3), max_size=9),
            ),
            max_examples=120,
        ),
        "benchmark-shaped": Inputs(benchmark_shaped_cover_draws, check=greedy_gaps),
        "n 13-14": Inputs(
            large_cover_draws,
            ("bhk", "reduction", "reduction of lists"),
            lambda cases, minima: minima[3::4] == [None] * 6 and len(set(minima) - {None}) > 2,
        ),
        "bhk references": Inputs(
            lambda: (((family,), (1,)) for family, _ in bhk_draws()),
            ("bhk", "brute", "brute of lists"),
        ),
    },
)


# Circuit-value cases are ((circuit, points, modulus), (delta,)); each value
# lists the circuit's values at the points, over Z or mod a prime.


def evaluated(circuit, points, modulus):
    return [ci.evaluate_circuit(circuit, x, modulus) for x in points]


def expanded_values(circuit, points, modulus):
    p = ci.expand_to_polynomial(circuit)
    if modulus:
        return [poly.eval_mod(p, x, modulus) for x in points]
    return [poly.eval_over_integers(p, x) for x in points]


def expansion_draws():
    rng = random.Random(0)
    for _ in range(100):
        base = random_circuit(rng, rng.randint(1, 4), 9, max_syntactic_degree=5)
        for c in (base, with_cancellations(rng, base)):
            points = [[rng.randint(-9, 9) for _ in range(c.num_inputs)] for _ in range(10)]
            yield (c, points, None), (None,)


def homogenized_draws():
    rng = random.Random(2)
    for _ in range(100):
        c = random_circuit(rng, rng.randint(1, 4), 8, max_syntactic_degree=4)
        p = ci.find_prime(10**6 + rng.randint(0, 10**4)).p
        points = [[rng.randint(-50, 50) for _ in range(c.num_inputs)] for _ in range(100)]
        yield (c, points, p), (4,)


CIRCUIT_VALUES = Quantity(
    routes={
        "gate walk": Route(lambda c, points, p, _: circuit_values(c, points, p), independent=True),
        "evaluate_circuit": Route(lambda c, points, p, _: evaluated(c, points, p)),
        "expansion": Route(lambda c, points, p, _: expanded_values(c, points, p)),
        "homogenized": Route(
            lambda c, points, p, delta: evaluated(ci.homogenize(c, delta), points, p)
        ),
    },
    inputs={
        # Cancellations lift the syntactic degree past any one delta.
        "expansion": Inputs(expansion_draws, ("gate walk", "evaluate_circuit", "expansion")),
        "homogenized mod p": Inputs(homogenized_draws),
    },
)


# Circuit-verdict cases are ((circuit, targets, expected), (delta,)), where
# expected is the verdict the benchmark expects of one of its ops, else None;
# only a row's check reads it.  Each value lists an (accepted, reason) verdict
# per target.


def truncation_draws():
    """Random circuits, many above degree delta, against their truncation,
    the truncation with its constant changed, and a random polynomial."""
    rng = random.Random(11)
    for _ in range(300):
        c = random_circuit(rng, rng.randint(3, 6), 20)
        delta = rng.randint(1, 5)
        reference = ci.expand_to_polynomial(ci.homogenize(c, delta))
        changed = dict(reference.terms)
        changed[()] = changed.get((), 0) + 1
        targets = [reference, poly.polynomial(c.num_inputs, changed)]
        targets.append(random_polynomial(rng, c.num_inputs))
        yield (c, targets, None), (delta,)


def benchmark_op_draws():
    """Every circuit-verify op of seeds 1-3, built by the benchmark itself."""
    bench = str(ROOT / "perfbench")
    sys.path.insert(0, bench)
    try:
        from bench_workloads import WORKLOADS
    finally:
        sys.path.remove(bench)
    for seed in (1, 2, 3):
        for op in WORKLOADS["circuit-verify"].make_ops(random.Random(seed), False):
            source, target, delta, _ = op.data
            c = ci.build_circuit_from_polynomial(source)
            yield (c, [target], op.expected["accepted"]), (delta,)


def drawn_verdict_case(rng, kind, delta):
    """A small random circuit (with cancellations appended, for kind
    "cancelling") or the circuit built from a random polynomial, against its
    degree-<=delta truncation, the truncation with its constant changed, and
    its whole expansion."""
    if kind == "built":
        c = ci.build_circuit_from_polynomial(
            random_polynomial(rng, rng.randint(1, 4), max_degree=5)
        )
    else:
        c = random_circuit(rng, rng.randint(1, 4), 8, max_syntactic_degree=6)
        if kind == "cancelling":
            c = with_cancellations(rng, c)
    reference = ci.expand_to_polynomial(ci.homogenize(c, delta))
    changed = dict(reference.terms)
    changed[()] = changed.get((), 0) + 1
    targets = [reference, poly.polynomial(c.num_inputs, changed), ci.expand_to_polynomial(c)]
    return (c, targets, None), (delta,)


CIRCUIT_VERDICTS = Quantity(
    routes={
        "truncated expansion": Route(
            lambda c, targets, _, delta: circuit_verdicts(c, targets, delta), independent=True
        ),
        "homogenize then expand": Route(
            lambda c, targets, _, delta: [reference_verdict(c, t, delta) for t in targets]
        ),
        "verify_circuit": Route(
            lambda c, targets, _, delta: [
                (result.accepted, result.reason)
                for result in (ci.verify_circuit(c, t, delta) for t in targets)
            ]
        ),
    },
    inputs={
        "truncation": Inputs(
            truncation_draws,
            check=lambda cases, _: sum(
                syntactic_degree(c) > delta for (c, _, _), (delta,) in cases
            ) >= 100,
        ),
        "hypothesis": Inputs(
            st.builds(
                drawn_verdict_case,
                st.randoms(use_true_random=False),
                st.sampled_from(["random", "cancelling", "built"]),
                st.integers(1, 5),
            ),
            max_examples=120,
        ),
        # Each op also carries the verdict the benchmark expects.
        "benchmark ops": Inputs(
            benchmark_op_draws,
            check=lambda cases, verdicts: len(cases) == 72
            and [v[0][0] for v in verdicts] == [accepted for (_, _, accepted), _ in cases],
        ),
    },
)


QUANTITIES = {
    "ls-decision": LS_DECISION,
    "ls-count": LS_COUNT,
    "permanent": PERMANENT,
    "f-counts": F_COUNTS,
    "set-partition": SET_PARTITION,
    "hcv": HCV_COUNT,
    "cover-min": COVER_MIN,
    "circuit-values": CIRCUIT_VALUES,
    "circuit-verdicts": CIRCUIT_VERDICTS,
}

# (quantity, row) -> why the row has no independent route yet.
NO_INDEPENDENT_ROUTE: dict[tuple[str, str], str] = {}
