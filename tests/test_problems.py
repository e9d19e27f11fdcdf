"""Encoders: codec round trips, spec examples, equivalence with direct solvers."""

import random
import time
from dataclasses import replace
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyoracle.localsubset as ls
import polyoracle.problems as pr
from polyoracle.errors import CapExceeded, ValueOutOfRange
from oracles import induced_witnesses
from routes import tiny_encodings


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


def test_pair_memos_are_bounded():
    """The process-wide pair memos hold a bounded number of entries, so
    repeated solves on large graphs do not grow the process without limit."""
    for memo in (pr.encode_pair, pr.decode_pair, pr._pair_record):
        assert memo.cache_parameters()["maxsize"] is not None


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**6))
def test_pair_codec_decode_total(code):
    u, v = pr.decode_pair(code)
    assert pr.encode_pair(u, v) == code


def test_tagged_codec_round_trip():
    r, encode, decode = pr.tagged_codec(5, 3, 7)
    seen = set()
    for tag in (1, 2, 3):
        for u in range(1, 6):
            for v in range(1, 6):
                for w in range(1, 8):
                    code = encode(tag, u, v, w)
                    assert decode(code) == (tag, u, v, w)
                    assert code not in seen and code >= 1
                    seen.add(code)
    assert max(seen) <= 5**r


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
    with pytest.raises(CapExceeded, match="cap witness_slots exceeded"):
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


@pytest.mark.parametrize("name, edge_count", [("c4", 53), ("k4", 56)])
def test_induced_counts_on_20_vertices(name, edge_count):
    """The grouped witness count is the induced-copy count times alpha! *
    beta!, the orderings of the edge slots and of the non-edge slots."""
    rng = random.Random(17)
    edges = frozenset(rng.sample(list(combinations(range(1, 21), 2)), edge_count))
    graph, pattern = pr.GraphInput(20, edges), pr.H_PRESETS[name]
    spec, inst = pr.encode_h_induced(graph, pattern)
    start = time.perf_counter()
    count = ls.evaluate_formulation(spec, inst, 2)
    assert time.perf_counter() - start < 5
    assert count == induced_witnesses(graph, pattern) > 0


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


def test_member_groups_are_pinned():
    """Each graph and record encoder's groups, derived from its slot
    declaration: its edge and vertex runs of two or more slots, never a run
    of fixed-pair slots (the family's fillers, the threshold record)."""
    graph = pr.GraphInput(4, frozenset())
    weighted = pr.WeightedGraphInput(4, (((1, 2), 1),), 2, (1, 1, 1, 1))
    path3 = pr.H_PRESETS["path3"]
    family = [path3, pr.H_PRESETS["triangle"], pr.H_PRESETS["edge"]]
    specs = {
        "h-induced c4": pr.encode_h_induced(graph, pr.H_PRESETS["c4"]),
        "family": pr.encode_family_induced(graph, family),
        "4-clique": pr.encode_min_weight_kclique(weighted, 4, 0),
        "max-H edge": pr.encode_max_h_subgraph(weighted, path3, 0, "edge-weights"),
        "max-H vertex": pr.encode_max_h_subgraph(weighted, path3, 0, "vertex-weights"),
    }
    assert {name: [m.groups for m in spec.members] for name, (spec, _) in specs.items()} == {
        "h-induced c4": [((0, 4), (4, 6))],
        "family": [((0, 2),), ((0, 3),), ()],
        "4-clique": [((0, 6),)],
        "max-H edge": [((0, 2),)],
        "max-H vertex": [((0, 2), (2, 5))],
    }


@pytest.mark.parametrize(
    "spec, inst", [pytest.param(spec, inst, id=spec.name) for spec, inst in tiny_encodings()]
)
def test_prefix_is_sound_exhaustively(spec, inst):
    """Over the whole candidate range, each member's pruned walk on its
    ``accept`` and ``step`` yields exactly the product tuples it accepts, in
    product order, and together they are the tuples ``spec.verifier`` accepts."""
    pools = [range(1, inst.n**spec.r + 1)] * (spec.alpha + spec.beta)
    accepted = [t for t in product(*pools) if spec.verifier(*t)]
    walked = set()
    for member in spec.members:
        alone = replace(spec, members=(member,))
        assert member.step is not None
        walk = list(ls.accepted_tuples(pools, member.accept, member.step))
        assert walk == [t for t in accepted if alone.verifier(*t)]
        walked.update(walk)
    assert accepted and sorted(walked) == accepted
