"""Encoders: codec round trips, spec examples, equivalence with direct solvers."""

import random
import time
from itertools import combinations, product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyoracle.localsubset as ls
import polyoracle.problems as pr
from polyoracle.errors import UniverseTooLarge, ValueOutOfRange
from oracles import (
    collinear_direct,
    has_induced_pattern,
    induced_copies,
    ksum_direct,
    max_h_subgraph_direct,
    min_weight_clique_direct,
    random_graph,
    random_weighted_graph,
)


def test_pair_codec_round_trip_exhaustive():
    seen = {}
    for u in range(1, 41):
        for v in range(1, 41):
            code = pr.encode_pair(u, v)
            assert pr.decode_pair(code) == (u, v)
            assert code not in seen
            seen[code] = (u, v)
    # shell property: codes for [n] x [n] fill [1, n**2] exactly
    assert sorted(pr.encode_pair(u, v) for u in range(1, 8) for v in range(1, 8)) == list(
        range(1, 50)
    )


def test_pair_codec_shell_top_is_self_pair():
    for n in range(1, 30):
        assert pr.encode_pair(n, n) == n * n


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**6))
def test_pair_codec_decode_total(code):
    u, v = pr.decode_pair(code)
    assert pr.encode_pair(u, v) == code


def test_tagged_codec_round_trip():
    codec = pr.tagged_codec(5, 3, 7)
    seen = set()
    for tag in (1, 2, 3):
        for u in range(1, 6):
            for v in range(1, 6):
                for w in range(1, 8):
                    code = codec.encode(tag, u, v, w)
                    assert codec.decode(code) == (tag, u, v, w)
                    assert code not in seen and code >= 1
                    seen.add(code)
    assert max(seen) <= 5**codec.r


def test_ksum_examples():
    spec, inst = pr.encode_ksum(pr.KSumInput(3, ((0,), (0,), (0,)), 1))
    assert ls.brute_solve(spec, inst)
    spec, inst = pr.encode_ksum(pr.KSumInput(3, ((1,), (1,), (1,)), 1))
    assert not ls.brute_solve(spec, inst)


def test_ksum_out_of_range():
    with pytest.raises(ValueOutOfRange):
        pr.KSumInput(2, ((5,), (0,)), 3)


def test_collinearity_examples():
    spec, inst = pr.encode_collinearity(pr.PointSetInput(((0, 0), (1, 1), (2, 2)), 2))
    assert ls.brute_solve(spec, inst)
    spec, inst = pr.encode_collinearity(pr.PointSetInput(((0, 0), (1, 0), (0, 1)), 1))
    assert not ls.brute_solve(spec, inst)


def test_h_induced_examples():
    k3 = pr.GraphInput(3, frozenset({(1, 2), (1, 3), (2, 3)}))
    spec, inst = pr.encode_h_induced(k3, pr.H_PRESETS["triangle"])
    assert ls.brute_solve(spec, inst)
    k4 = pr.GraphInput(4, frozenset(combinations(range(1, 5), 2)))
    spec, inst = pr.encode_h_induced(k4, pr.H_PRESETS["c4"])
    assert not ls.brute_solve(spec, inst)  # K4 has no induced 4-cycle


def test_family_examples():
    family = [pr.H_PRESETS["triangle"], pr.H_PRESETS["path3"]]
    one_edge = pr.GraphInput(3, frozenset({(1, 2)}))
    spec, inst = pr.encode_family_induced(one_edge, family)
    assert not ls.brute_solve(spec, inst)
    k3 = pr.GraphInput(3, frozenset({(1, 2), (1, 3), (2, 3)}))
    spec, inst = pr.encode_family_induced(k3, [pr.H_PRESETS["triangle"]])
    assert ls.brute_solve(spec, inst)


def test_family_with_a_huge_pattern_is_refused_before_listing_slots():
    """A member on 10**12 vertices reads about 5 * 10**23 non-edge slots: the
    encoder refuses the family by the witness_slots cap, fast, instead of
    listing that member's slots."""
    huge = pr.pattern_from_json({"n": 10**12, "edges": [[1, 2]]})
    start = time.perf_counter()
    with pytest.raises(UniverseTooLarge, match="cap witness_slots exceeded"):
        pr.encode_family_induced(pr.GraphInput(3, frozenset()), [pr.H_PRESETS["edge"], huge])
    assert time.perf_counter() - start < 1


def test_family_loop_never_in_witness():
    k3 = pr.GraphInput(3, frozenset({(1, 2), (1, 3), (2, 3)}))
    spec, inst = pr.encode_family_induced(k3, [pr.H_PRESETS["triangle"]])
    loop_code = pr.encode_pair(1, 1)
    assert loop_code in inst.elements
    others = [e for e in inst.elements if e != loop_code]
    # any witness slot holding the loop code is rejected by the verifier
    assert not spec.verifier(loop_code, others[0], others[1])
    assert not spec.verifier(others[0], loop_code, others[1])
    assert spec.verifier(others[0], others[1], others[2]) or spec.verifier(
        others[0], others[2], others[1]
    )


def test_min_weight_clique_examples():
    triangle = pr.WeightedGraphInput(
        3, (((1, 2), 0), ((1, 3), 0), ((2, 3), 0)), 1
    )
    spec, inst = pr.encode_min_weight_kclique(triangle, 3, 0)
    assert ls.brute_solve(spec, inst)
    heavy = pr.WeightedGraphInput(3, (((1, 2), 1), ((1, 3), 1), ((2, 3), 1)), 1)
    spec, inst = pr.encode_min_weight_kclique(heavy, 3, 2)
    assert not ls.brute_solve(spec, inst)


def test_max_h_subgraph_examples():
    one_edge = pr.WeightedGraphInput(2, (((1, 2), 5),), 5)
    spec, inst = pr.encode_max_h_subgraph(one_edge, pr.H_PRESETS["edge"], 5, "edge-weights")
    assert ls.brute_solve(spec, inst)
    spec, inst = pr.encode_max_h_subgraph(one_edge, pr.H_PRESETS["edge"], 6, "edge-weights")
    assert not ls.brute_solve(spec, inst)


def test_max_h_subgraph_edge_mode_rejects_isolated_vertices():
    lonely = pr.PatternGraph("lonely", 3, frozenset({(1, 2)}))
    graph = pr.WeightedGraphInput(3, (((1, 2), 0),), 1)
    with pytest.raises(ValueOutOfRange):
        pr.encode_max_h_subgraph(graph, lonely, 0, "edge-weights")


def test_negative_values_never_reach_codes():
    spec, inst = pr.encode_ksum(pr.KSumInput(2, ((-3, 0), (-1, 3)), 3))
    assert all(e >= 1 for e in inst.elements)
    w = pr.WeightedGraphInput(2, (((1, 2), -4),), 4)
    spec, inst = pr.encode_max_h_subgraph(w, pr.H_PRESETS["edge"], -4, "edge-weights")
    assert all(e >= 1 for e in inst.elements)
    assert ls.brute_solve(spec, inst)


def test_h_induced_random_vs_direct():
    rng = random.Random(20)
    for _ in range(100):
        for name, nmax, mmax in (("path3", 7, 12), ("triangle", 8, 12), ("c4", 5, 6)):
            graph = random_graph(rng, rng.randint(2, nmax), mmax)
            pattern = pr.H_PRESETS[name]
            spec, inst = pr.encode_h_induced(graph, pattern)
            assert ls.brute_solve(spec, inst) == has_induced_pattern(graph, pattern)


@pytest.mark.parametrize("name, edge_count", [("c4", 53), ("k4", 56)])
def test_induced_counts_on_20_vertices(name, edge_count):
    """The grouped witness count is the induced-copy count times alpha! *
    beta!, one ordering of the edge slots and of the non-edge slots each."""
    rng = random.Random(17)
    edges = frozenset(rng.sample(list(combinations(range(1, 21), 2)), edge_count))
    graph, pattern = pr.GraphInput(20, edges), pr.H_PRESETS[name]
    spec, inst = pr.encode_h_induced(graph, pattern)
    start = time.perf_counter()
    count = ls.evaluate_formulation(spec, inst, 2)
    assert time.perf_counter() - start < 5
    copies = induced_copies(graph, pattern)
    assert copies > 0
    assert count == copies * factorial(spec.alpha) * factorial(spec.beta)


def test_family_random_vs_direct():
    rng = random.Random(21)
    family = [pr.H_PRESETS["path3"], pr.H_PRESETS["edge"]]
    for _ in range(120):
        graph = random_graph(rng, rng.randint(1, 5), 8)
        spec, inst = pr.encode_family_induced(graph, family)
        expected = any(has_induced_pattern(graph, p) for p in family)
        assert ls.brute_solve(spec, inst) == expected


def test_ksum_random_vs_direct():
    rng = random.Random(22)
    for _ in range(200):
        k = rng.choice([2, 3])
        w = rng.randint(0, 20)
        count = rng.randint(1, min(4, 2 * w + 1))
        sets = tuple(
            tuple(rng.sample(range(-w, w + 1), count)) for _ in range(k)
        )
        spec, inst = pr.encode_ksum(pr.KSumInput(k, sets, w))
        assert ls.brute_solve(spec, inst) == ksum_direct(sets)


def test_collinearity_random_vs_direct():
    rng = random.Random(23)
    for _ in range(200):
        w = rng.randint(1, 15)
        points = tuple(
            {(rng.randint(-w, w), rng.randint(-w, w)) for _ in range(rng.randint(3, 8))}
        )
        spec, inst = pr.encode_collinearity(pr.PointSetInput(points, w))
        assert ls.brute_solve(spec, inst) == collinear_direct(points)


def test_min_weight_clique_random_vs_direct():
    rng = random.Random(24)
    for _ in range(150):
        graph = random_weighted_graph(rng, rng.randint(3, 7), rng.randint(0, 15), 6)
        threshold = rng.randint(-20, 20)
        spec, inst = pr.encode_min_weight_kclique(graph, 3, threshold)
        assert ls.brute_solve(spec, inst) == min_weight_clique_direct(graph, 3, threshold)


def test_max_h_random_vs_direct():
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
        spec, inst = pr.encode_max_h_subgraph(graph, pattern, threshold, mode)
        expected = max_h_subgraph_direct(graph, pattern, threshold, mode)
        assert ls.brute_solve(spec, inst) == expected


def test_build_problem_registry():
    spec, inst = pr.build_problem(
        "triangle", {"n": 3, "edges": [[1, 2], [1, 3], [2, 3]]}
    )
    assert spec.alpha == 3 and inst.m == 3
    spec, inst = pr.build_problem("ksum", {"k": 2, "sets": [[1, -1], [1, -1]]})
    assert spec.alpha == 2
    spec, inst = pr.build_problem(
        "min-weight-clique",
        {"n": 3, "edges": [[1, 2, 0], [1, 3, 0], [2, 3, 0]], "k": 3, "threshold": 0},
    )
    assert spec.alpha == 4
    with pytest.raises(ValueOutOfRange):
        pr.build_problem("nonsense", {})


def test_multi_slot_records_vs_direct():
    """Min-weight 4-cliques and vertex-mode max-H for path3 and the triangle
    (six and seven record slots, too many for ``brute_solve``), through the
    pruned witness count against the direct solvers."""
    rng = random.Random(27)
    for _ in range(20):
        graph = random_weighted_graph(rng, rng.randint(3, 5), 3, 10, with_vertex_weights=True)
        threshold = rng.randint(-6, 6)
        spec, inst = pr.encode_min_weight_kclique(graph, 4, threshold)
        assert ls.solve_via_oracle(spec, inst, 2) == min_weight_clique_direct(graph, 4, threshold)
        for name in ("path3", "triangle"):
            pattern = pr.H_PRESETS[name]
            spec, inst = pr.encode_max_h_subgraph(graph, pattern, threshold, "vertex-weights")
            expected = max_h_subgraph_direct(graph, pattern, threshold, "vertex-weights")
            assert ls.solve_via_oracle(spec, inst, 2) == expected


def _tiny_encodings():
    """Every encoder at a size whose whole candidate product [1, n**r]**(alpha + beta)
    has at most 2**20 tuples.  Max-H records with more than one pair or vertex
    slot need 64**4 tuples at the least; the random pruned-vs-unpruned count
    test in test_localsubset and ``test_multi_slot_records_vs_direct`` cover them."""
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


@pytest.mark.parametrize(
    "spec, inst", [pytest.param(spec, inst, id=spec.name) for spec, inst in _tiny_encodings()]
)
def test_prefix_is_sound_exhaustively(spec, inst):
    """Over the whole candidate range, the pruned walk on ``accept`` and
    ``prefix`` yields exactly the product tuples ``spec.verifier`` accepts,
    in product order."""
    pools = [range(1, inst.n**spec.r + 1)] * (spec.alpha + spec.beta)
    accepted = [t for t in product(*pools) if spec.verifier(*t)]
    assert accepted and spec.prefix is not None
    assert list(ls.accepted_tuples(pools, spec.accept, spec.prefix)) == accepted
