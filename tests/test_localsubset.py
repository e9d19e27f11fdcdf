"""Local-subset framework: comparisons, assignments, formulations, oracles."""

import hashlib
import math
import random
import time
from collections import Counter
from dataclasses import fields, replace
from itertools import permutations, product, zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyoracle.localsubset as ls
import polyoracle.polynomials as poly
import polyoracle.problems as pr
from oracles import random_graph, random_weighted_graph
from polyoracle.errors import StreamTooLarge, UniverseTooLarge
from test_acceptance import SEED, _small_instances_for_streams
from test_problems import _tiny_encodings


def ksum_spec(k=3, w=20):
    spec, _ = pr.encode_ksum(pr.KSumInput(k, tuple((0,) for _ in range(k)), w))
    return spec


def test_comparison_sets_theta_1():
    c_eq, c_lt, c_gt = ls.comparison_tuple_sets(1)
    assert c_eq == {("=",)} and c_lt == {("<",)} and c_gt == {(">",)}


def test_comparison_sets_theta_2_sizes():
    c_eq, c_lt, c_gt = ls.comparison_tuple_sets(2)
    assert (len(c_eq), len(c_lt), len(c_gt)) == (1, 4, 4)


@pytest.mark.parametrize("theta", [1, 2, 3, 4])
def test_comparison_sets_partition(theta):
    c_eq, c_lt, c_gt = ls.comparison_tuple_sets(theta)
    everything = set(product(ls.COMPARISONS, repeat=theta))
    assert c_eq | c_lt | c_gt == everything
    assert len(c_eq) + len(c_lt) + len(c_gt) == 3**theta


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(1, 4), st.integers(1, 6))
def test_blockwise_comparison_matches_integer_comparison(u, v, theta, block_len):
    c_eq, c_lt, c_gt = ls.comparison_tuple_sets(theta)
    outcome = tuple(
        ls.compare3(a, b)
        for a, b in zip(ls.blocks_of(u, theta, block_len), ls.blocks_of(v, theta, block_len))
    )
    expected = {"<": c_lt, "=": c_eq, ">": c_gt}[ls.compare3(u, v)]
    assert outcome in expected


def test_variable_count_known_values():
    assert ls.variable_count(2, 1, 1) == 18
    assert ls.variable_count(16, 2, 4) == 816


def test_variable_count_slope():
    sizes = [2**t for t in range(6, 13)]
    xs = [math.log(s) for s in sizes]
    ys = [math.log(ls.variable_count(s, 2, 8)) for s in sizes]
    n = len(xs)
    xbar, ybar = sum(xs) / n, sum(ys) / n
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum(
        (x - xbar) ** 2 for x in xs
    )
    assert slope <= 1 + 2 / 8 + 0.1


def test_instance_validation():
    with pytest.raises(ValueError):
        ls.LSInstance(0, ())
    with pytest.raises(ValueError):
        ls.LSInstance(3, (2, 2))
    inst = ls.ls_instance(3, [5, 1, 3])
    assert inst.elements == (1, 3, 5) and inst.m == 3 and inst.size == 6


def test_brute_solve_ksum_examples():
    spec, inst = pr.encode_ksum(pr.KSumInput(3, ((1,), (2,), (-3,)), 3))
    assert ls.brute_solve(spec, inst)
    spec, inst = pr.encode_ksum(pr.KSumInput(3, ((1,), (1,), (1,)), 3))
    assert not ls.brute_solve(spec, inst)


def test_brute_solve_triangle_path():
    spec, inst = pr.encode_h_induced(
        pr.GraphInput(3, frozenset({(1, 2), (2, 3)})), pr.H_PRESETS["triangle"]
    )
    assert not ls.brute_solve(spec, inst)


def test_brute_solve_universe_cap():
    """A beta = 0 walk never touches the universe, so W = 10**6 is answered;
    a beta > 0 complement past 10**6 is refused before its pool is built."""
    spec, inst = pr.encode_ksum(pr.KSumInput(2, ((0,), (0,)), 10**6))
    start = time.perf_counter()
    assert ls.brute_solve(spec, inst) is True
    assert time.perf_counter() - start < 2.0
    assert ls.solve_via_oracle(spec, inst, theta=1) is True
    path = pr.GraphInput(1001, frozenset({(1, 2), (2, 3)}))
    spec, inst = pr.encode_h_induced(path, pr.H_PRESETS["path3"])
    with pytest.raises(UniverseTooLarge, match="cap b_pool exceeded"):
        ls.brute_solve(spec, inst)


def test_assignment_empty_set_rows():
    spec = ksum_spec(k=2, w=1)
    inst = ls.ls_instance(6, [])  # universe [6], no members
    assignment = ls.compute_assignment(spec, inst, theta=2)
    width = 1 << assignment.block_len
    for i in range(assignment.s + 1):
        nonzero = any(
            assignment.value(c, i, q, a)
            for c in ls.COMPARISONS
            for q in (1, 2)
            for a in range(width)
        )
        assert nonzero == (i <= 1)


def test_assignment_self_comparison():
    spec = ksum_spec(k=2, w=2)
    inst = ls.ls_instance(10, [3, 7, 9])
    assignment = ls.compute_assignment(spec, inst, theta=2)
    for i in range(1, inst.m + 1):
        blocks = ls.blocks_of(inst.elements[i - 1], 2, assignment.block_len)
        for q in (1, 2):
            assert assignment.value("=", i, q, blocks[q - 1]) == 1


def test_assignment_exactly_one_comparison_holds():
    spec = ksum_spec(k=2, w=2)
    inst = ls.ls_instance(10, [2, 5])
    assignment = ls.compute_assignment(spec, inst, theta=2)
    width = 1 << assignment.block_len
    for i in range(assignment.s + 1):
        for q in (1, 2):
            for a in range(width):
                total = sum(assignment.value(c, i, q, a) for c in ls.COMPARISONS)
                assert total == (1 if i <= inst.m + 1 else 0)


def test_assignment_full_table_rederivation():
    """Entry-by-entry recomputation from the definitions, via string slicing."""
    spec = ksum_spec(k=2, w=3)
    inst = ls.ls_instance(14, [2, 9, 13])
    theta = 2
    assignment = ls.compute_assignment(spec, inst, theta)
    length = assignment.block_len
    width = 1 << length

    def reference_blocks(value):
        text = bin(value)[2:]
        text = text.zfill(max(theta * length, len(text)))
        head, tail = text[: len(text) - (theta - 1) * length], text[len(text) - (theta - 1) * length :]
        blocks = [int(head, 2)] + [
            int(tail[i * length : (i + 1) * length], 2) for i in range(theta - 1)
        ]
        return blocks

    rows = {0: 0, 1: 2, 2: 9, 3: 13, 4: 14 + 1}
    for i, value in rows.items():
        expected_blocks = reference_blocks(value)
        for q in range(1, theta + 1):
            for a in range(width):
                expected = ls.compare3(expected_blocks[q - 1], a)
                for c in ls.COMPARISONS:
                    assert assignment.value(c, i, q, a) == (1 if c == expected else 0)


def test_vector_matches_value():
    """Cell by cell; m = 0 at a power-of-two size puts the sentinel's block 1
    past 2**L, where the runs must clamp."""
    spec = ksum_spec(k=2, w=1)
    for (n, elements), theta in product([(6, [2, 5]), (4, []), (8, [1, 8])], (1, 2, 3)):
        assignment = ls.compute_assignment(spec, ls.ls_instance(n, elements), theta)
        assert assignment.num_vars == ls.variable_count(assignment.s, spec.r, theta)
        width = 1 << assignment.block_len
        cells = product(ls.COMPARISONS, range(assignment.s + 1), range(1, theta + 1), range(width))
        expected = [None] * assignment.num_vars
        for c, i, q, a in cells:
            expected[assignment.variable_index(c, i, q, a)] = assignment.value(c, i, q, a)
        assert assignment.vector() == expected


def comp_polynomial_value(assignment, comparison, i, value, theta):
    """Evaluate the block-comparison gadget for row i against a full value."""
    c_eq, c_lt, c_gt = ls.comparison_tuple_sets(theta)
    chosen = {"=": c_eq, "<": c_lt, ">": c_gt}[comparison]
    blocks = ls.blocks_of(value, theta, assignment.block_len)
    total = 0
    for outcome in chosen:
        term = 1
        for q in range(1, theta + 1):
            term *= assignment.value(outcome[q - 1], i, q, blocks[q - 1])
            if not term:
                break
        total += term
    return total


@pytest.mark.parametrize("theta", [1, 2, 3])
def test_comparison_gadget_value(theta):
    spec = ksum_spec(k=2, w=3)
    inst = ls.ls_instance(14, [2, 9, 13])
    assignment = ls.compute_assignment(spec, inst, theta)
    rows = {0: 0, 1: 2, 2: 9, 3: 13, 4: 15}
    for i, row_value in rows.items():
        for value in range(1, 15):
            results = {
                c: comp_polynomial_value(assignment, c, i, value, theta)
                for c in ls.COMPARISONS
            }
            assert sum(results.values()) == 1
            assert results[ls.compare3(row_value, value)] == 1


def test_formulation_monomial_degrees_and_coefficients():
    spec, inst = pr.encode_ksum(pr.KSumInput(2, ((0,), (0,)), 1))
    s = inst.size
    for theta in (1, 2):
        degree = theta * (spec.alpha + 2 * spec.beta)
        for mono in ls.formulation_monomials(spec, s, theta):
            assert mono.coefficient == 1
            assert mono.degree == degree


def test_formulation_hand_enumeration_2sum():
    """k-SUM with k = 2 at s = 3, theta = 1: the stream is exactly the nine
    row-pair monomials of the single accepted candidate pair (codes 1, 2)."""
    spec, _ = pr.encode_ksum(pr.KSumInput(2, ((0,), (0,)), 0))
    s, theta = 3, 1
    length = ls.block_length(s, spec.r, theta)
    got = {m.powers for m in ls.formulation_monomials(spec, s, theta)}
    expected = set()
    block_1 = ls.blocks_of(1, theta, length)[0]
    block_2 = ls.blocks_of(2, theta, length)[0]
    for i1 in range(1, s + 1):
        for i2 in range(1, s + 1):
            v1 = ls.flat_variable_index(s, theta, length, "=", i1, 1, block_1)
            v2 = ls.flat_variable_index(s, theta, length, "=", i2, 1, block_2)
            expected.add(tuple(sorted({v1: 1, v2: 1}.items())))
    assert got == expected and len(got) == 9


def path3_spec():
    spec, _ = pr.encode_h_induced(
        pr.GraphInput(3, frozenset({(1, 2), (2, 3)})), pr.H_PRESETS["path3"]
    )
    return spec


def accepted_witnesses(spec, s, theta):
    length = ls.block_length(s, spec.r, theta)
    top = min(s**spec.r, 2 ** (theta * length) - 1)
    return [
        w
        for w in product(range(1, top + 1), repeat=spec.alpha + spec.beta)
        if spec.verifier(*w)
    ]


def test_formulation_hand_enumeration_path3():
    """Induced path3 (alpha = 2, beta = 1) at s = 4, theta = 1: each accepted
    (a1, a2, b) contributes x[=,i1,a1] x[=,i2,a2] x[<,j,b] x[>,j+1,b] for
    every i1, i2 in [1, s] and j in [0, s-1], with multiplicity."""
    spec, s, theta = path3_spec(), 4, 1
    length = ls.block_length(s, spec.r, theta)

    def x(comparison, row, value):
        return ls.flat_variable_index(s, theta, length, comparison, row, 1, value)

    expected = Counter()
    witnesses = accepted_witnesses(spec, s, theta)
    for a1, a2, b in witnesses:
        for i1, i2, j in product(range(1, s + 1), range(1, s + 1), range(s)):
            factors = Counter([x("=", i1, a1), x("=", i2, a2), x("<", j, b), x(">", j + 1, b)])
            expected[tuple(sorted(factors.items()))] += 1
    got = Counter(m.powers for m in ls.formulation_monomials(spec, s, theta))
    assert witnesses and got == expected


@pytest.mark.parametrize("theta", [1, 2])
@pytest.mark.parametrize(
    "spec, s",
    [pytest.param(ksum_spec(k=2, w=1), 5, id="2-sum"), pytest.param(path3_spec(), 4, id="path3")],
)
def test_formulation_stream_count(spec, s, theta):
    """#accepted * s**alpha * (s * |C_lt| * |C_gt|)**beta monomials, one per
    row and comparison-tuple choice."""
    _, c_lt, c_gt = ls.comparison_tuple_sets(theta)
    per_witness = s**spec.alpha * (s * len(c_lt) * len(c_gt)) ** spec.beta
    emitted = sum(1 for _ in ls.formulation_monomials(spec, s, theta))
    assert emitted == len(accepted_witnesses(spec, s, theta)) * per_witness


def test_formulation_beta_degree():
    monos = list(ls.formulation_monomials(path3_spec(), 5, 2))
    assert monos
    assert {m.degree for m in monos} == {2 * (2 + 2 * 1)}


def test_stream_cap_environment(monkeypatch):
    spec, inst = pr.encode_ksum(pr.KSumInput(2, ((0,), (0,)), 1))
    monkeypatch.setenv("POLYORACLE_CAP", "1")
    with pytest.raises(StreamTooLarge):
        list(ls.formulation_monomials(spec, inst.size, 1))


def literal_value(spec, inst, theta):
    polynomial = ls.formulation_polynomial(spec, inst.size, theta)
    vector = ls.compute_assignment(spec, inst, theta).vector()
    return poly.eval_over_integers(polynomial, vector)


def test_literal_stream_equals_witness_count_ksum():
    rng = random.Random(0)
    for _ in range(20):
        w = rng.randint(0, 1)
        count = rng.randint(1, 2 * w + 1)
        values = lambda: tuple(sorted(rng.sample(range(-w, w + 1), count)))
        spec, inst = pr.encode_ksum(pr.KSumInput(2, (values(), values()), w))
        for theta in (1, 2, 3):
            assert literal_value(spec, inst, theta) == ls.evaluate_formulation(
                spec, inst, theta
            )


def test_literal_stream_equals_witness_count_graphs():
    cases = [
        ("triangle", 3, [(1, 2), (1, 3), (2, 3)]),
        ("triangle", 3, [(1, 2), (2, 3)]),
        ("path3", 3, [(1, 2), (2, 3)]),
        ("path3", 3, [(1, 2)]),
        ("path3", 3, [(1, 2), (1, 3), (2, 3)]),
    ]
    for name, n, edges in cases:
        spec, inst = pr.encode_h_induced(
            pr.GraphInput(n, frozenset(edges)), pr.H_PRESETS[name]
        )
        for theta in (1, 2):
            literal = literal_value(spec, inst, theta)
            witness = ls.evaluate_formulation(spec, inst, theta)
            assert literal == witness
            assert (witness > 0) == ls.brute_solve(spec, inst)


def test_literal_stream_theta_3_with_nonedges():
    """theta = 3 exercises multi-block inequality gadgets on the b-slots: the
    polynomial is far from zero as a polynomial, yet the row and sentinel
    logic zeroes it on a no-instance encoding."""
    spec, inst = pr.encode_h_induced(
        pr.GraphInput(3, frozenset({(1, 2)})), pr.H_PRESETS["path3"]
    )
    assert inst.size == 4
    formulation = ls.formulation_polynomial(spec, inst.size, 3)
    assert len(formulation.monomials) > 0
    vector = ls.compute_assignment(spec, inst, 3).vector()
    assert poly.eval_over_integers(formulation, vector) == 0
    assert ls.evaluate_formulation(spec, inst, 3) == 0


def test_solve_via_oracle_contract():
    spec, inst = pr.encode_ksum(pr.KSumInput(3, ((1,), (2,), (-3,)), 3))
    assert ls.solve_via_oracle(spec, inst, 2)
    assert not ls.solve_via_oracle(spec, inst, 2, oracle=lambda query: 0)

    calls = []

    def recording(query):
        calls.append(query)
        return ls.exact_evaluation_oracle(query)

    assert ls.solve_via_oracle(spec, inst, 2, oracle=recording)
    assert len(calls) == 1
    assert calls[0].size == ls.variable_count(inst.size, spec.r, 2)
    assert calls[0].assignment.max_abs_value == 1


def test_formulation_query_holds_only_spec_and_x():
    assert [f.name for f in fields(ls.FormulationQuery)] == ["spec", "assignment"]


def test_oracle_is_evaluate_at_phi():
    """The exact oracle reads only (spec, x): at x = phi(inst) it gives the
    formulation value, positive exactly on yes-instances."""
    for spec, inst in _tiny_encodings():
        answer = ls.brute_solve(spec, inst)
        for theta in (1, 2, 3):
            query = ls.FormulationQuery(spec, ls.compute_assignment(spec, inst, theta))
            value = ls.exact_evaluation_oracle(query)
            assert value == ls.evaluate_formulation(spec, inst, theta)
            assert (value > 0) == answer


def test_witness_identity_counts_tuples():
    spec, inst = pr.encode_h_induced(
        pr.GraphInput(3, frozenset({(1, 2), (1, 3), (2, 3)})), pr.H_PRESETS["triangle"]
    )
    # one triangle, alpha = 3 ordered edge slots
    assert ls.evaluate_formulation(spec, inst, 2) == 6


def test_generated_formulation_is_explicit():
    spec, inst = pr.encode_h_induced(
        pr.GraphInput(3, frozenset({(1, 2), (1, 3), (2, 3)})), pr.H_PRESETS["triangle"]
    )
    generated = ls.formulation_polynomial(spec, 6, 2)
    # degree theta * (alpha + beta), coefficients within num_vars**degree
    degree = 2 * (3 + 0)
    assert max(map(poly._degree, generated.terms), default=0) == degree
    bound = generated.num_vars**degree
    assert all(abs(coeff) <= bound for coeff in generated.terms.values())


def test_instance_json_round_trip():
    spec, inst = pr.encode_ksum(pr.KSumInput(2, ((1, -1), (1, -1)), 2))
    data = ls.instance_to_json_dict(spec.name, inst)
    assert data == {"problem": "2-sum", "n": inst.n, "elements": list(inst.elements)}


def test_degenerate_full_and_empty_sets():
    # S = U_n is legal: single-value universe, the sole element is a witness
    spec, inst = pr.encode_ksum(pr.KSumInput(1, ((0,),), 0))
    assert inst.n == 1 and inst.elements == (1,)
    assert ls.evaluate_formulation(spec, inst, 1) == 1
    # m = 0 is legal and never a yes-instance for alpha >= 1
    empty = ls.ls_instance(2, [])
    assert ls.evaluate_formulation(spec, empty, 1) == 0


def random_encoding(name, rng):
    """A small random instance of one encoder, sized so that the unpruned
    product of its witness pools stays below about 10**5 tuples."""
    if name == "ksum":
        w = rng.randint(0, 6)
        size = rng.randint(1, min(4, 2 * w + 1))
        sets = tuple(tuple(rng.sample(range(-w, w + 1), size)) for _ in range(rng.choice([2, 3])))
        return pr.encode_ksum(pr.KSumInput(len(sets), sets, w))
    if name == "collinearity":
        w = rng.randint(1, 4)
        points = {(rng.randint(-w, w), rng.randint(-w, w)) for _ in range(rng.randint(3, 9))}
        return pr.encode_collinearity(pr.PointSetInput(tuple(points), w))
    if name == "h-induced":
        pattern = pr.H_PRESETS[rng.choice(["edge", "path3", "triangle"])]
        return pr.encode_h_induced(random_graph(rng, rng.randint(3, 6), 8), pattern)
    if name == "family-induced":
        family = [pr.H_PRESETS["path3"], pr.H_PRESETS[rng.choice(["edge", "triangle"])]]
        return pr.encode_family_induced(random_graph(rng, rng.randint(2, 5), 6), family)
    if name == "min-weight-clique":
        graph = random_weighted_graph(rng, rng.randint(3, 6), 4, 8)
        return pr.encode_min_weight_kclique(graph, 3, rng.randint(-8, 8))
    mode = rng.choice(["edge-weights", "vertex-weights"])
    presets = ["edge", "path3", "triangle"] if mode == "edge-weights" else ["edge"]
    pattern = pr.H_PRESETS[rng.choice(presets)]
    graph = random_weighted_graph(rng, rng.randint(3, 5), 3, 5, with_vertex_weights=True)
    return pr.encode_max_h_subgraph(graph, pattern, rng.randint(-8, 8), mode)


def unpruned_count(spec, inst, theta):
    """Accepted tuples over evaluate_formulation's pools, by a plain product loop."""
    top = min(inst.n**spec.r, 2 ** (theta * ls.block_length(inst.size, spec.r, theta)) - 1)
    a_pool = [v for v in inst.elements if v <= top]
    outside = [v for v in range(1, top + 1) if v not in inst.elements] if spec.beta else []
    pools = [a_pool] * spec.alpha + [outside] * spec.beta
    return sum(1 for t in product(*pools) if spec.verifier(*t))


ENCODER_NAMES = (
    "ksum", "collinearity", "h-induced", "family-induced", "min-weight-clique", "max-h-subgraph"
)


@settings(max_examples=240, deadline=None)
@given(st.sampled_from(ENCODER_NAMES), st.integers(0, 2**32), st.integers(1, 3))
def test_pruned_count_equals_unpruned_count(name, seed, theta):
    spec, inst = random_encoding(name, random.Random(seed))
    if inst.size < 2:
        return
    assert spec.prefix is not None
    assert ls.evaluate_formulation(spec, inst, theta) == unpruned_count(spec, inst, theta)


@pytest.mark.parametrize(
    "groups, message",
    [
        pytest.param(((0, 1),), "fewer than 2 slots", id="short"),
        pytest.param(((3, 6),), "leaves", id="past-the-end"),
        pytest.param(((-1, 1),), "leaves", id="before-the-start"),
        pytest.param(((0, 2), (1, 3)), "overlaps", id="overlap"),
        pytest.param(((2, 4),), "straddles alpha", id="straddle"),
    ],
)
def test_spec_rejects_bad_groups(groups, message):
    def make(groups):
        member = ls.Member(range(5), None, lambda *c: True, groups)
        return ls.LSProblemSpec("t", alpha=3, beta=2, r=1, members=(member,))

    assert make(((0, 3), (3, 5))).members[0].groups == ((0, 3), (3, 5))
    with pytest.raises(ValueError, match=message):
        make(groups)


def accept_all(*codes):
    return True


@pytest.mark.parametrize(
    "member, message",
    [
        pytest.param(ls.Member((3, 5), None, accept_all), "slots .* leave", id="slot-past-the-end"),
        pytest.param(
            ls.Member((-1, 0), None, accept_all), "slots .* leave", id="slot-before-the-start"
        ),
        pytest.param(ls.Member((1, 0), None, accept_all), "not strictly increasing", id="unsorted"),
        pytest.param(ls.Member((1, 1), None, accept_all), "not strictly increasing", id="repeated"),
        pytest.param(
            ls.Member((0, 1), None, accept_all, ((1, 3),)), "group .* leaves", id="group-outside"
        ),
        pytest.param(
            ls.Member((1, 3), None, accept_all, ((0, 2),)), "straddles alpha", id="group-straddle"
        ),
    ],
)
def test_spec_rejects_bad_members(member, message):
    def make(members):
        return ls.LSProblemSpec("t", alpha=3, beta=2, r=1, members=members)

    good = ls.Member((0, 1, 3, 4), None, accept_all, ((0, 2), (2, 4)))
    assert make((good,)).members == (good,)
    with pytest.raises(ValueError, match=message):
        make((good, member))
    with pytest.raises(ValueError, match="at least one member"):
        make(())


def test_member_reading_no_slots_counts_every_tuple_or_none():
    """A member that reads no slots accepts every tuple or none, as its
    ``accept()`` says; the union count then reads the pool product or
    leaves the other members' count alone."""
    spec, inst = pr.encode_ksum(pr.KSumInput(2, ((0, 1), (0, -1)), 1))
    x = ls.compute_assignment(spec, inst, 1)
    pools = inst.m**spec.alpha
    solutions = ls.exact_evaluation_oracle(ls.FormulationQuery(spec, x))
    assert solutions == 2
    ksum = ls.Member((0, 1), spec.prefix, spec.accept)
    for nothing, expected in ((accept_all, pools), (lambda: False, solutions)):
        with_members = replace(spec, members=(ksum, ls.Member((), None, nothing), ksum))
        assert ls.exact_evaluation_oracle(ls.FormulationQuery(with_members, x)) == expected


def member_accepts(member, codes):
    slots, prefix, accept, _ = member
    chosen = tuple(codes[i] for i in slots)
    passes = prefix is None or all(prefix(chosen[:k]) for k in range(1, len(chosen) + 1))
    return passes and accept(*chosen)


def test_union_count_equals_product_filter_on_hand_built_members():
    """Overlapping members on a- and b-slots, two of them order-sensitive
    without groups, one with a group of b-slots, a repeat and a member that
    reads nothing: the union count equals a filter over the whole product,
    and so do the derived ``spec.verifier`` on each tuple and ``brute_solve``."""
    increasing = ls.Member((0, 1), None, lambda a, b: a < b)
    even_sum = ls.Member(
        (1, 2, 3),
        lambda codes: codes[-1] not in codes[:-1],
        lambda a, b, c: (a + b + c) % 2 == 0,
        ((1, 3),),
    )
    above = ls.Member((0, 2), None, lambda a, b: a > b)
    members = (increasing, even_sum, above, increasing, ls.Member((), None, lambda: False))

    def accept(*codes):
        return any(member_accepts(member, codes) for member in members)

    spec = ls.LSProblemSpec("t", alpha=2, beta=2, r=1, members=members)
    inst = ls.ls_instance(8, [2, 3, 5, 7])
    x = ls.compute_assignment(spec, inst, 1)
    a_pool, b_pool = [2, 3, 5, 7], [1, 4, 6, 8]
    tuples = list(product(a_pool, a_pool, b_pool, b_pool))
    assert [spec.verifier(*codes) for codes in tuples] == [accept(*codes) for codes in tuples]
    expected = sum(1 for codes in tuples if accept(*codes))
    assert 0 < expected < 4**4
    assert ls.exact_evaluation_oracle(ls.FormulationQuery(spec, x)) == expected
    assert ls.brute_solve(spec, inst)


ONE_EDGE_3 = pr.PatternGraph("one-edge-3", 3, frozenset({(1, 2)}))
ONE_EDGE_4 = pr.PatternGraph("one-edge-4", 4, frozenset({(1, 2)}))


def declaring_encoding(name, rng):
    """random_encoding's inputs for an encoder that declares groups, and
    patterns with two or more non-edges, whose non-edge slots form a group."""
    if name == "h-induced-nonedges":
        pattern = rng.choice([pr.H_PRESETS["c4"], ONE_EDGE_3, ONE_EDGE_4])
        return pr.encode_h_induced(random_graph(rng, rng.randint(3, 5), 5), pattern)
    if name == "max-h-nonedges":
        # edge mode needs a pattern without isolated vertices
        mode, pattern = rng.choice(
            [("edge-weights", pr.H_PRESETS["c4"]), ("vertex-weights", ONE_EDGE_3)]
        )
        graph = random_weighted_graph(rng, rng.randint(4, 5), 2, 6, with_vertex_weights=True)
        return pr.encode_max_h_subgraph(graph, pattern, rng.randint(-4, 4), mode)
    return random_encoding(name, rng)


DECLARING_NAMES = (
    "collinearity",
    "h-induced",
    "min-weight-clique",
    "max-h-subgraph",
    "h-induced-nonedges",
    "max-h-nonedges",
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(DECLARING_NAMES), st.integers(0, 2**32), st.integers(1, 3))
def test_grouped_count_equals_ungrouped_count(name, seed, theta):
    """Both exactness conditions of a member's ``groups``: the reorderings of the
    grouped walk's witnesses are exactly the ungrouped walk's witnesses, each
    once, and every one of them passes ``spec.verifier``."""
    spec, inst = declaring_encoding(name, random.Random(seed))
    if inst.size < 2:
        return
    x = ls.compute_assignment(spec, inst, theta)
    top = ls._candidate_top(x.rows[-1] - 1, theta, x.block_len)
    pools = ls._witness_pools(spec, x.rows[1:-1], top)
    ungrouped = list(ls.accepted_tuples(pools, spec.accept, spec.prefix))
    assert ls.exact_evaluation_oracle(ls.FormulationQuery(spec, x)) == len(ungrouped)
    (member,) = spec.members
    orbits = []
    for witness in ls.accepted_tuples(pools, spec.accept, spec.prefix, member.groups):
        for orders in product(*(permutations(witness[a:b]) for a, b in member.groups)):
            reordered = list(witness)
            for (a, b), order in zip(member.groups, orders):
                reordered[a:b] = order
            assert spec.verifier(*reordered)
            orbits.append(tuple(reordered))
    assert sorted(orbits) == ungrouped


EDGELESS_3 = pr.PatternGraph("edgeless-3", 3, frozenset())
# A member on one vertex reads no slots: its accept() fails, so it adds nothing.
VERTEX_1 = pr.PatternGraph("vertex", 1, frozenset())
FAMILY_PATTERNS = (*pr.H_PRESETS.values(), ONE_EDGE_4, EDGELESS_3, VERTEX_1)


class WalkTooLong(Exception):
    """A reference walk called its prefix more often than its budget."""


def budgeted(prefix, calls):
    def counted(codes):
        nonlocal calls
        calls -= 1
        if calls < 0:
            raise WalkTooLong
        return prefix(codes)

    return counted


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 3))
def test_family_union_count_equals_member_free_counts(seed, theta):
    """The inclusion-exclusion count of a family equals the plain product
    filter ``unpruned_count`` and the walk of one member that reads every
    slot with the family's derived ``prefix`` and ``accept``.  Families hold
    1-3 patterns, sometimes one of them twice; graphs have 3-5 vertices.
    Both references enumerate every slot, so each runs only where it stays
    small: the product filter up to 2 * 10**4 tuples, the one-member walk up
    to 5 000 prefix calls."""
    rng = random.Random(seed)
    family = rng.choices(FAMILY_PATTERNS, k=rng.randint(1, 3))
    if len(family) > 1 and rng.random() < 0.3:
        family[-1] = family[0]
    if all(pattern.num_edges == 0 for pattern in family):
        family[-1] = rng.choice(list(pr.H_PRESETS.values()))
    spec, inst = pr.encode_family_induced(random_graph(rng, rng.randint(3, 5)), family)
    count = ls.evaluate_formulation(spec, inst, theta)
    x = ls.compute_assignment(spec, inst, theta)
    top = ls._candidate_top(x.rows[-1] - 1, theta, x.block_len)
    pools = ls._witness_pools(spec, x.rows[1:-1], top)
    if math.prod(map(len, pools)) <= 2 * 10**4:
        assert count == unpruned_count(spec, inst, theta)
    whole = ls.Member(range(spec.alpha + spec.beta), budgeted(spec.prefix, 5000), spec.accept)
    try:
        walked = ls.evaluate_formulation(replace(spec, members=(whole,)), inst, theta)
    except WalkTooLong:
        return
    assert count == walked


def test_brute_solve_never_consults_prefix():
    """``brute_solve`` never prunes: it calls ``spec.verifier`` once per
    product tuple, in product order, up to the first accepted one."""
    calls = []

    class RecordingSpec(ls.LSProblemSpec):
        def verifier(self, *codes):
            calls.append(codes)
            return super().verifier(*codes)

    triangle = pr.H_PRESETS["triangle"]
    for edges in ({(1, 2), (1, 3), (2, 3), (3, 4)}, {(1, 2), (2, 3), (3, 4), (1, 4)}):
        spec, inst = pr.encode_h_induced(pr.GraphInput(4, frozenset(edges)), triangle)
        tuples = list(product(inst.elements, repeat=spec.alpha))
        hits = [i for i, t in enumerate(tuples) if spec.verifier(*t)]
        calls.clear()
        recording = RecordingSpec(**{f.name: getattr(spec, f.name) for f in fields(spec)})
        answer = ls.brute_solve(recording, inst)
        assert answer == bool(hits)
        assert calls == tuples[: hits[0] + 1 if hits else len(tuples)]
    # the prefix is part of the definition: the reversed pairs of a triangle
    # pass ``accept`` alone but fail the canonical-pair prefix
    reversed_codes = [pr.encode_pair(v, u) for u, v in sorted(triangle.edges)]
    assert spec.accept(*reversed_codes) and not spec.verifier(*reversed_codes)
    inst = ls.ls_instance(3, reversed_codes)
    assert not ls.brute_solve(spec, inst)
    (member,) = spec.members
    assert ls.brute_solve(replace(spec, members=(member._replace(prefix=None),)), inst)


def test_accepted_tuples_in_product_order():
    pools = [[3, 1, 2], [2, 1], [1, 3, 2]]
    accept = lambda a, b, c: (a + b + c) % 2 == 0  # noqa: E731
    expected = [t for t in product(*pools) if accept(*t)]
    assert list(ls.accepted_tuples(pools, accept)) == expected
    # a prefix that drops first slots holding 1 removes exactly those tuples
    pruned = ls.accepted_tuples(pools, accept, prefix=lambda t: t[0] != 1)
    assert list(pruned) == [t for t in expected if t[0] != 1]


def test_walk_depth_is_capped():
    """The walk recurses once per slot: 256 pools are walked, one more is
    refused before the first step."""
    accept = lambda *codes: True  # noqa: E731
    deepest = [[1]] * 256
    assert list(ls.accepted_tuples(deepest, accept)) == [(1,) * 256]
    with pytest.raises(UniverseTooLarge, match="cap witness_slots exceeded: 257 > 256"):
        ls.accepted_tuples(deepest + [[1]], accept)


def test_stream_unchanged_by_pruning():
    """On the (spec, s, theta) of acceptance criteria 2 and 3, the pruned
    literal stream emits the unpruned stream's monomials in the same order."""
    cases = {}
    probes = _small_instances_for_streams(random.Random(SEED + 1))
    for (spec, inst), theta in product(probes, (1, 2)):
        cases.setdefault((spec.name, inst.n, inst.size, theta), spec)
    path3 = pr.H_PRESETS["path3"]
    criterion_3 = [
        (pr.encode_ksum(pr.KSumInput(2, ((0,), (0,)), 1)), (1, 2, 3)),
        (pr.encode_h_induced(pr.GraphInput(3, frozenset({(1, 2), (2, 3)})), path3), (1, 2)),
    ]
    for (spec, inst), thetas in criterion_3:
        for theta in thetas:
            cases.setdefault((spec.name, inst.n, inst.size, theta), spec)
    assert len(cases) == 27
    for (_, _, s, theta), spec in sorted(cases.items()):
        pruned = ls.formulation_monomials(spec, s, theta)
        whole = ls.Member(range(spec.alpha + spec.beta), None, spec.verifier)
        unpruned_spec = replace(spec, members=(whole,))
        unpruned = ls.formulation_monomials(unpruned_spec, s, theta)
        assert all(a == b for a, b in zip_longest(pruned, unpruned))


def stream_sum(spec, s, theta):
    """The literal stream summed per power vector, one monomial at a time."""
    terms = Counter()
    for mono in ls.formulation_monomials(spec, s, theta):
        terms[mono.powers] += mono.coefficient
    return dict(terms)


def triangle_spec():
    spec, _ = pr.encode_h_induced(pr.GraphInput(3, frozenset()), pr.H_PRESETS["triangle"])
    return spec


def edge_and_vertex_spec():
    """Induced edge plus an isolated vertex: alpha = 1, beta = 2."""
    pattern = pr.PatternGraph("edge-and-vertex", 3, frozenset({(1, 2)}))
    spec, _ = pr.encode_h_induced(pr.GraphInput(3, frozenset()), pattern)
    return spec


# Sizes below the encoding's own at which the literal stream is nonempty and
# at most about 10**6 monomials long.
LITERAL_SIZES = {
    "collinearity": 4,
    "family-induced-path3+triangle": 4,
    "family-induced-path3+edge": 3,
    "min-weight-3-clique": 2,
    "max-vertex-subgraph-vertex-weights": 3,
}


@pytest.mark.parametrize("theta", [1, 2])
@pytest.mark.parametrize(
    "spec, s",
    [
        *(
            pytest.param(spec, LITERAL_SIZES.get(spec.name, inst.size), id=spec.name)
            for spec, inst in _tiny_encodings()
        ),
        *(pytest.param(triangle_spec(), s, id=f"triangle-s{s}") for s in (5, 6)),
        *(pytest.param(path3_spec(), s, id=f"path3-s{s}") for s in (5, 6)),
        pytest.param(edge_and_vertex_spec(), 3, id="edge-and-vertex"),
    ],
)
def test_collected_polynomial_equals_stream_sum(spec, s, theta):
    """Grouping witnesses by multiset and counting sorted index tuples gives
    the plain per-power-vector sum of the literal stream."""
    expected = stream_sum(spec, s, theta)
    collected = ls.formulation_polynomial(spec, s, theta)
    assert expected
    assert collected.num_vars == ls.variable_count(s, spec.r, theta)
    assert collected.terms == expected


def criteria_stream_cases():
    """The 27 (s, theta, spec) of acceptance criteria 2 and 3, in a fixed order."""
    cases = {}
    probes = _small_instances_for_streams(random.Random(SEED + 1))
    for (spec, inst), theta in product(probes, (1, 2)):
        cases.setdefault((spec.name, inst.n, inst.size, theta), spec)
    path3 = pr.H_PRESETS["path3"]
    criterion_3 = [
        (pr.encode_ksum(pr.KSumInput(2, ((0,), (0,)), 1)), (1, 2, 3)),
        (pr.encode_h_induced(pr.GraphInput(3, frozenset({(1, 2), (2, 3)})), path3), (1, 2)),
    ]
    for (spec, inst), thetas in criterion_3:
        for theta in thetas:
            cases.setdefault((spec.name, inst.n, inst.size, theta), spec)
    return [(s, theta, spec) for (_, _, s, theta), spec in sorted(cases.items())]


def test_collected_polynomials_are_pinned():
    """One sha256 over the JSON of the 27 criteria polynomials; the value is
    the one the stream-summing collection produced."""
    cases = criteria_stream_cases()
    digest = hashlib.sha256()
    for s, theta, spec in cases:
        digest.update(poly.dumps(ls.formulation_polynomial(spec, s, theta)).encode())
    assert len(cases) == 27
    assert digest.hexdigest() == "40ec8f685b4a61fe9385d54ee79bac179c34ab051dd0cbb08e8b9f920e0c5d4e"


def test_collection_cap_counts_literal_monomials(monkeypatch):
    """Every witness multiset of this triangle spec has multiplicity 6, and
    the cap counts the stream's variable occurrences: the collection succeeds
    at N * d, for N monomials of degree d, and raises at N * d - 1."""
    spec, s, theta = triangle_spec(), 4, 1
    multisets = Counter(tuple(sorted(w)) for w in accepted_witnesses(spec, s, theta))
    assert set(multisets.values()) == {6}
    degrees = [m.degree for m in ls.formulation_monomials(spec, s, theta)]
    assert set(degrees) == {3}
    occurrences = sum(degrees)
    monkeypatch.setenv("POLYORACLE_CAP", str(occurrences))
    assert ls.formulation_polynomial(spec, s, theta).terms == stream_sum(spec, s, theta)
    monkeypatch.setenv("POLYORACLE_CAP", str(occurrences - 1))
    with pytest.raises(StreamTooLarge, match="cap literal exceeded"):
        ls.formulation_polynomial(spec, s, theta)


def timed(fn):
    start = time.perf_counter()
    result = fn()
    assert time.perf_counter() - start < 2
    return result


def test_literal_tables_skip_unused_comparison_tuples():
    """beta = 0 needs no C_lt x C_gt table: 3**12 comparison tuples per block
    would not fit, but the triangle's 256 terms come at once."""
    polynomial = timed(lambda: ls.formulation_polynomial(triangle_spec(), 4, 12))
    assert len(polynomial.terms) == 256


def test_literal_cap_decided_from_witness_count():
    """path3 at theta = 10 has s * |C_lt| * |C_gt| = 4 * 29524**2 monomials
    per b-slot: refused before any factor table is built."""
    with pytest.raises(StreamTooLarge):
        timed(lambda: ls.formulation_polynomial(path3_spec(), 4, 10))


def test_literal_tables_only_for_witness_codes():
    """1-SUM over {0} has one witness code; its 2 000 terms need neither the
    other candidates' tables nor an (i, 1) pair per grid variable."""
    polynomial = timed(lambda: ls.formulation_polynomial(ksum_spec(k=1, w=0), 2000, 1))
    assert len(polynomial.terms) == 2000


def test_literal_precheck_decides_huge_powers_by_bit_length():
    """A pattern on 10**12 vertices has about 5 * 10**23 b-slots."""
    pattern = pr.pattern_from_json({"n": 10**12, "edges": [[1, 2]]})
    spec, _ = pr.encode_h_induced(pr.GraphInput(2, frozenset()), pattern)
    with pytest.raises(StreamTooLarge, match="cap literal_candidates exceeded"):
        timed(lambda: ls.formulation_polynomial(spec, 4, 1))
