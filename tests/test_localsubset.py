"""Local-subset framework: comparisons, assignments, formulations, oracles."""

import hashlib
import math
import random
import time
from bisect import bisect_right
from collections import Counter
from dataclasses import fields, replace
from functools import cache
from itertools import combinations, permutations, product
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyoracle.localsubset as ls
import polyoracle.polynomials as poly
import polyoracle.problems as pr
from oracles import (
    family_witnesses,
    induced_witnesses,
    literal_blocks,
    literal_grid,
    literal_index,
    literal_outcome,
    literal_point,
    literal_polynomial,
    literal_witnesses,
    random_graph,
    random_weighted_graph,
)
from polyoracle import errors
from polyoracle.errors import CapExceeded
from routes import (
    SEED,
    random_encoding,
    small_stream_instances,
    timed,
    tiny_encodings,
    unpruned_count,
)


@cache
def ksum_spec(k=3, w=20):
    spec, _ = pr.encode_ksum(pr.KSumInput(k, tuple((0,) for _ in range(k)), w))
    return spec


# The literal polynomial from its definition, built once per (spec, s, theta)
# across the rows that read it; the spec helpers are memoised to share it.
reference = cache(literal_polynomial)


def entries(assignment):
    """x's entry (c, i, q, a), read from ``vector()`` at the reference's flat index."""
    x, s, theta, length = assignment.vector(), assignment.s, assignment.theta, assignment.block_len
    return lambda c, i, q, a: x[literal_index(s, theta, length, c, i, q, a)]


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
        literal_outcome(a, b)
        for a, b in zip(ls.blocks_of(u, theta, block_len), ls.blocks_of(v, theta, block_len))
    )
    expected = {"<": c_lt, "=": c_eq, ">": c_gt}[literal_outcome(u, v)]
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
    a beta > 0 brute walk over a complement of about 10**6 codes is refused
    by brute_walk before any pool is built."""
    spec, inst = pr.encode_ksum(pr.KSumInput(2, ((0,), (0,)), 10**6))
    start = time.perf_counter()
    assert ls.brute_solve(spec, inst) is True
    assert time.perf_counter() - start < 2.0
    assert ls.solve_via_oracle(spec, inst, theta=1) is True
    path = pr.GraphInput(1001, frozenset({(1, 2), (2, 3)}))
    spec, inst = pr.encode_h_induced(path, pr.H_PRESETS["path3"])
    with pytest.raises(CapExceeded, match="cap brute_walk exceeded"):
        ls.brute_solve(spec, inst)


def test_assignment_empty_set_rows():
    spec = ksum_spec(k=2, w=1)
    inst = ls.ls_instance(6, [])  # universe [6], no members
    assignment = ls.compute_assignment(spec, inst, theta=2)
    value = entries(assignment)
    width = 1 << assignment.block_len
    for i in range(assignment.s + 1):
        nonzero = any(
            value(c, i, q, a)
            for c in ls.COMPARISONS
            for q in (1, 2)
            for a in range(width)
        )
        assert nonzero == (i <= 1)


def test_assignment_self_comparison():
    spec = ksum_spec(k=2, w=2)
    inst = ls.ls_instance(10, [3, 7, 9])
    assignment = ls.compute_assignment(spec, inst, theta=2)
    value = entries(assignment)
    for i in range(1, inst.m + 1):
        blocks = ls.blocks_of(inst.elements[i - 1], 2, assignment.block_len)
        for q in (1, 2):
            assert value("=", i, q, blocks[q - 1]) == 1


def test_assignment_exactly_one_comparison_holds():
    spec = ksum_spec(k=2, w=2)
    inst = ls.ls_instance(10, [2, 5])
    assignment = ls.compute_assignment(spec, inst, theta=2)
    value = entries(assignment)
    width = 1 << assignment.block_len
    for i in range(assignment.s + 1):
        for q in (1, 2):
            for a in range(width):
                total = sum(value(c, i, q, a) for c in ls.COMPARISONS)
                assert total == (1 if i <= inst.m + 1 else 0)


def test_assignment_full_table_rederivation():
    """Entry-by-entry recomputation from the definitions, via string slicing."""
    spec = ksum_spec(k=2, w=3)
    inst = ls.ls_instance(14, [2, 9, 13])
    theta = 2
    assignment = ls.compute_assignment(spec, inst, theta)
    value = entries(assignment)
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
    for i, row_value in rows.items():
        expected_blocks = reference_blocks(row_value)
        for q in range(1, theta + 1):
            for a in range(width):
                expected = literal_outcome(expected_blocks[q - 1], a)
                for c in ls.COMPARISONS:
                    assert value(c, i, q, a) == (1 if c == expected else 0)


def test_vector_matches_value():
    """The vector equals the reference's entry-by-entry table of x; m = 0 at
    a power-of-two size puts the sentinel's block 1 past 2**L, where the runs
    must clamp."""
    spec = ksum_spec(k=2, w=1)
    for (n, elements), theta in product([(6, [2, 5]), (4, []), (8, [1, 8])], (1, 2, 3)):
        inst = ls.ls_instance(n, elements)
        assignment = ls.compute_assignment(spec, inst, theta)
        assert assignment.num_vars == ls.variable_count(assignment.s, spec.r, theta)
        assert assignment.vector() == literal_point(spec, inst, theta)


def comp_polynomial_value(assignment, comparison, i, value, theta):
    """Evaluate the block-comparison gadget for row i against a full value."""
    c_eq, c_lt, c_gt = ls.comparison_tuple_sets(theta)
    chosen = {"=": c_eq, "<": c_lt, ">": c_gt}[comparison]
    blocks = ls.blocks_of(value, theta, assignment.block_len)
    entry = entries(assignment)
    total = 0
    for outcome in chosen:
        term = 1
        for q in range(1, theta + 1):
            term *= entry(outcome[q - 1], i, q, blocks[q - 1])
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
            assert results[literal_outcome(row_value, value)] == 1


def test_formulation_monomial_degrees_and_coefficients():
    spec, inst = pr.encode_ksum(pr.KSumInput(2, ((0,), (0,)), 1))
    s = inst.size
    for theta in (1, 2):
        degree = theta * (spec.alpha + 2 * spec.beta)
        terms = ls.formulation_polynomial(spec, s, theta).terms
        assert terms and all(count > 0 for count in terms.values())
        assert {poly._degree(powers) for powers in terms} == {degree}


def test_formulation_hand_enumeration_2sum():
    """k-SUM with k = 2 at s = 3, theta = 1: the polynomial is exactly the
    nine row-pair monomials of the single accepted candidate pair (codes 1,
    2), each once."""
    spec, _ = pr.encode_ksum(pr.KSumInput(2, ((0,), (0,)), 0))
    s, theta = 3, 1
    length, _ = literal_grid(spec, s, theta)
    terms = ls.formulation_polynomial(spec, s, theta).terms
    assert set(terms.values()) == {1}
    got = set(terms)
    expected = set()
    block_1 = literal_blocks(1, theta, length)[0]
    block_2 = literal_blocks(2, theta, length)[0]
    for i1 in range(1, s + 1):
        for i2 in range(1, s + 1):
            v1 = literal_index(s, theta, length, "=", i1, 1, block_1)
            v2 = literal_index(s, theta, length, "=", i2, 1, block_2)
            expected.add(tuple(sorted({v1: 1, v2: 1}.items())))
    assert got == expected and len(got) == 9


@cache
def path3_spec():
    spec, _ = pr.encode_h_induced(
        pr.GraphInput(3, frozenset({(1, 2), (2, 3)})), pr.H_PRESETS["path3"]
    )
    return spec


def test_formulation_hand_enumeration_path3():
    """Induced path3 (alpha = 2, beta = 1) at s = 4, theta = 1: each accepted
    (a1, a2, b) contributes x[=,i1,a1] x[=,i2,a2] x[<,j,b] x[>,j+1,b] for
    every i1, i2 in [1, s] and j in [0, s-1], with multiplicity."""
    spec, s, theta = path3_spec(), 4, 1
    length, _ = literal_grid(spec, s, theta)

    def x(comparison, row, value):
        return literal_index(s, theta, length, comparison, row, 1, value)

    expected = Counter()
    witnesses = literal_witnesses(spec, s, theta)
    for a1, a2, b in witnesses:
        for i1, i2, j in product(range(1, s + 1), range(1, s + 1), range(s)):
            factors = Counter([x("=", i1, a1), x("=", i2, a2), x("<", j, b), x(">", j + 1, b)])
            expected[tuple(sorted(factors.items()))] += 1
    got = ls.formulation_polynomial(spec, s, theta).terms
    assert witnesses and got == expected


@pytest.mark.parametrize("theta", [1, 2])
@pytest.mark.parametrize(
    "spec, s",
    [pytest.param(ksum_spec(k=2, w=1), 5, id="2-sum"), pytest.param(path3_spec(), 4, id="path3")],
)
def test_formulation_coefficient_sum(spec, s, theta):
    """The coefficients sum to #accepted * s**alpha * (s * |C_lt| *
    |C_gt|)**beta, one literal monomial per row and comparison-tuple choice."""
    _, c_lt, c_gt = ls.comparison_tuple_sets(theta)
    per_witness = s**spec.alpha * (s * len(c_lt) * len(c_gt)) ** spec.beta
    total = sum(ls.formulation_polynomial(spec, s, theta).terms.values())
    assert total == len(literal_witnesses(spec, s, theta)) * per_witness


def test_formulation_beta_degree():
    terms = ls.formulation_polynomial(path3_spec(), 5, 2).terms
    assert terms
    assert {poly._degree(powers) for powers in terms} == {2 * (2 + 2 * 1)}


def test_monomial_view_lists_each_term_once_per_unit(set_cap):
    """formulation_monomials is a view of formulation_polynomial: each term
    once per unit of its coefficient, with coefficient 1; under the literal
    cap it raises before the first monomial, as the collection does."""
    spec, s, theta = path3_spec(), 4, 1
    terms = ls.formulation_polynomial(spec, s, theta).terms
    monomials = list(ls.formulation_monomials(spec, s, theta))
    assert {m.coefficient for m in monomials} == {1}
    assert Counter(m.powers for m in monomials) == terms
    assert max(terms.values()) > 1 and len(monomials) == sum(terms.values())
    set_cap("literal", 1)
    with pytest.raises(CapExceeded, match="cap literal exceeded"):
        next(iter(ls.formulation_monomials(spec, s, theta)))


def test_literal_polynomial_theta_3_with_nonedges():
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
    assert set(calls[0].assignment.vector()) <= {0, 1}


def test_formulation_query_holds_only_spec_and_x():
    assert [f.name for f in fields(ls.FormulationQuery)] == ["spec", "assignment"]


def test_oracle_is_evaluate_at_phi():
    """The exact oracle reads only (spec, x): at x = phi(inst) it gives the
    formulation value, positive exactly on yes-instances."""
    for spec, inst in tiny_encodings():
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


def test_degenerate_full_and_empty_sets():
    # S = U_n is legal: single-value universe, the sole element is a witness
    spec, inst = pr.encode_ksum(pr.KSumInput(1, ((0,),), 0))
    assert inst.n == 1 and inst.elements == (1,)
    assert ls.evaluate_formulation(spec, inst, 1) == 1
    # m = 0 is legal and never a yes-instance for alpha >= 1
    empty = ls.ls_instance(2, [])
    assert ls.evaluate_formulation(spec, empty, 1) == 0


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
        member = ls.Member(None, lambda *c: True, groups)
        return ls.LSProblemSpec("t", alpha=3, beta=2, r=1, members=(member,))

    assert make(((0, 3), (3, 5))).members[0].groups == ((0, 3), (3, 5))
    with pytest.raises(ValueError, match=message):
        make(groups)


def accept_all(*codes):
    return True


@pytest.mark.parametrize(
    "member, message",
    [
        pytest.param(ls.Member(None, accept_all, ((4, 6),)), "group .* leaves", id="group-outside"),
        pytest.param(
            ls.Member(None, accept_all, ((2, 4),)), "straddles alpha", id="group-straddle"
        ),
    ],
)
def test_spec_rejects_bad_members(member, message):
    """Every member's groups are checked, not only the first member's."""

    def make(members):
        return ls.LSProblemSpec("t", alpha=3, beta=2, r=1, members=members)

    good = ls.Member(None, accept_all, ((0, 2), (3, 5)))
    assert make((good,)).members == (good,)
    with pytest.raises(ValueError, match=message):
        make((good, member))
    with pytest.raises(ValueError, match="at least one member"):
        make(())


def test_union_count_equals_product_filter_on_hand_built_members():
    """Members on a- and b-slots, two of them order-sensitive without groups,
    one with a group of b-slots, a repeat and one that accepts nothing: the
    count is the sum of the members' product filters, ``spec.verifier``
    accepts a tuple iff some member does, and ``brute_solve`` agrees."""
    increasing = ls.Member(None, lambda a, b, c, d: a < b)
    even_sum = ls.Member(
        lambda seen, slot, code: seen if slot == 0 else None if code in seen else seen + (code,),
        lambda a, b, c, d: (b + c + d) % 2 == 0,
        ((2, 4),),
    )
    above = ls.Member(None, lambda a, b, c, d: a > c)
    members = (increasing, even_sum, above, increasing, ls.Member(None, lambda *codes: False))
    spec = ls.LSProblemSpec("t", alpha=2, beta=2, r=1, members=members)
    inst = ls.ls_instance(8, [2, 3, 5, 7])
    x = ls.compute_assignment(spec, inst, 1)
    a_pool, b_pool = [2, 3, 5, 7], [1, 4, 6, 8]
    tuples = list(product(a_pool, a_pool, b_pool, b_pool))
    alone = [replace(spec, members=(member,)) for member in members]
    accepted = [[one.verifier(*codes) for one in alone] for codes in tuples]
    assert [spec.verifier(*codes) for codes in tuples] == list(map(any, accepted))
    expected = sum(map(sum, accepted))
    assert 0 < sum(map(any, accepted)) < 4**4 < expected
    assert ls.exact_evaluation_oracle(ls.FormulationQuery(spec, x)) == expected
    assert ls.brute_solve(spec, inst)


ONE_EDGE_3 = pr.PatternGraph("one-edge-3", 3, frozenset({(1, 2)}))
ONE_EDGE_4 = pr.PatternGraph("one-edge-4", 4, frozenset({(1, 2)}))


def declaring_encoding(name, rng):
    """random_encoding's inputs for an encoder that declares groups, and
    patterns with two or more non-edges, whose non-edge slots form a group,
    alone or in a family."""
    if name == "family-nonedges":
        family = [pr.H_PRESETS["c4"], ONE_EDGE_4]
        return pr.encode_family_induced(random_graph(rng, rng.randint(3, 5), 5), family)
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
    case = random_encoding(name, rng)
    return case.spec, case.inst


DECLARING_NAMES = (
    "ksum",
    "collinearity",
    "h-induced",
    "family-induced",
    "min-weight-clique",
    "max-h-subgraph",
    "h-induced-nonedges",
    "family-nonedges",
    "max-h-nonedges",
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(DECLARING_NAMES), st.integers(0, 2**32), st.integers(1, 3))
def test_grouped_count_equals_ungrouped_count(name, seed, theta):
    """Both exactness conditions of each member's ``groups``: the reorderings
    of the member's grouped walk's witnesses are exactly its ungrouped walk's
    witnesses, each once, and every one of them passes the member's verifier;
    the count, which walks each member's pool hook, is the sum of the
    members' unhooked, ungrouped walks."""
    spec, inst = declaring_encoding(name, random.Random(seed))
    if inst.size < 2:
        return
    x = ls.compute_assignment(spec, inst, theta)
    top = ls._candidate_top(x.rows[-1] - 1, theta, x.block_len)
    pools = ls._witness_pools(spec, x.rows[1:-1], top)
    # The reference walks ignore the groups, so one may try more candidates
    # than the ls_walk cap lets one library walk try.
    with patch.dict(errors.CAPS, {"ls_walk": (10**9, errors.CAPS["ls_walk"][1])}):
        ungrouped = [list(ls.accepted_tuples(pools, m.accept, m.step)) for m in spec.members]
    assert ls.exact_evaluation_oracle(ls.FormulationQuery(spec, x)) == sum(map(len, ungrouped))
    for member, walk in zip(spec.members, ungrouped):
        alone = replace(spec, members=(member,))
        orbits = []
        for witness in ls.accepted_tuples(pools, member.accept, member.step, member.groups):
            for orders in product(*(permutations(witness[a:b]) for a, b in member.groups)):
                reordered = list(witness)
                for (a, b), order in zip(member.groups, orders):
                    reordered[a:b] = order
                assert alone.verifier(*reordered)
                orbits.append(tuple(reordered))
        assert sorted(orbits) == walk


def hooked_encoding(name, rng):
    """An instance of an encoder with a pool hook: ``random_encoding``'s for
    k-SUM and collinearity, and a graph on 12-30 vertices with 16-40 edges,
    sparse enough for the graph hooks to draw, for the graph encoders.  Its
    h-induced and family patterns have non-edges, drawn by the b-slot side
    of the hook; so have the max-H-subgraph patterns of "max-h-nonedges"
    (path3 or c4, either mode), on 5-8 vertices with weights within 2 and a
    threshold within 4, so that the record universe each b-slot is drawn
    from holds at most 8**4 codes."""
    if name in ("ksum", "collinearity"):
        case = random_encoding(name, rng)
        return case.spec, case.inst
    if name == "max-h-nonedges":
        graph = random_weighted_graph(rng, rng.randint(5, 8), 2, 10, with_vertex_weights=True)
        pattern = pr.H_PRESETS[rng.choice(["path3", "c4"])]
        mode = rng.choice(["edge-weights", "vertex-weights"])
        return pr.encode_max_h_subgraph(graph, pattern, rng.randint(-4, 4), mode)
    n = rng.randint(12, 30)
    pairs = rng.sample(list(combinations(range(1, n + 1), 2)), rng.randint(16, 40))
    presets = [pr.H_PRESETS[p] for p in ("edge", "path3", "triangle", "c4", "k4")]
    if name == "h-induced":
        return pr.encode_h_induced(pr.GraphInput(n, frozenset(pairs)), rng.choice(presets))
    if name == "family-induced":
        family = rng.sample(presets, rng.randint(1, 3))
        return pr.encode_family_induced(pr.GraphInput(n, frozenset(pairs)), family)
    weights = tuple(rng.randint(-5, 5) for _ in range(n))
    graph = pr.WeightedGraphInput(n, tuple((p, rng.randint(-5, 5)) for p in pairs), 5, weights)
    if name == "min-weight-clique":
        return pr.encode_min_weight_kclique(graph, rng.choice([3, 4]), rng.randint(-10, 10))
    mode, pattern = rng.choice([("edge-weights", "triangle"), ("vertex-weights", "edge")])
    return pr.encode_max_h_subgraph(graph, pr.H_PRESETS[pattern], rng.randint(-10, 10), mode)


HOOKED_NAMES = (
    "ksum",
    "collinearity",
    "h-induced",
    "family-induced",
    "min-weight-clique",
    "max-h-subgraph",
    "max-h-nonedges",
)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(HOOKED_NAMES), st.integers(0, 2**32), st.integers(1, 3))
def test_pool_hook_draws_every_candidate_the_step_passes(name, seed, theta):
    """The pool hook's contract, at every node of each member's grouped
    walk, a-slots and b-slots alike: the draw is ascending, lies in the base
    pool and holds every candidate of it the walk would try (above the
    previous slot of a group) that the step passes; and the hooked count
    equals the unhooked one."""
    spec, inst = hooked_encoding(name, random.Random(seed))
    x = ls.compute_assignment(spec, inst, theta)
    top = ls._candidate_top(x.rows[-1] - 1, theta, x.block_len)
    pools = ls._witness_pools(spec, x.rows[1:-1], top)
    bases = [set(pool) for pool in pools]
    unhooked = 0
    for member in spec.members:
        groups = member.groups
        walk = ls.accepted_tuples(pools, member.accept, member.step, groups)
        orders = math.prod(math.factorial(stop - start) for start, stop in groups)
        unhooked += sum(1 for _ in walk) * orders
        draw = member.pool(pools)
        chained = {slot for start, stop in groups for slot in range(start + 1, stop)}
        nodes = [((), ())] if draw else []
        while nodes:
            head, state = nodes.pop()
            slot = len(head)
            drawn = list(draw(state, slot))
            assert drawn == sorted(set(drawn)) and set(drawn) <= bases[slot]
            tried = [v for v in pools[slot] if slot not in chained or v > head[-1]]
            steps = [(v, member.step(state, slot, v)) for v in tried]
            passed = [(v, after) for v, after in steps if after is not None]
            assert {v for v, _ in passed} <= set(drawn)
            if slot + 1 < len(pools):
                nodes += [(head + (v,), after) for v, after in passed]
    assert ls.exact_evaluation_oracle(ls.FormulationQuery(spec, x)) == unhooked


EDGELESS_3 = pr.PatternGraph("edgeless-3", 3, frozenset())
FAMILY_PATTERNS = (*pr.H_PRESETS.values(), ONE_EDGE_4, EDGELESS_3)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 3))
def test_family_union_count_equals_member_free_counts(seed, theta):
    """A family's count equals ``family_witnesses``, read off the graph, and,
    as its patterns are pairwise non-isomorphic, the plain product filter
    ``unpruned_count`` where that has at most 2 * 10**4 tuples.  Families
    hold 1-3 patterns, sometimes one of them twice; graphs have 3-5
    vertices."""
    rng = random.Random(seed)
    family = rng.choices(FAMILY_PATTERNS, k=rng.randint(1, 3))
    if len(family) > 1 and rng.random() < 0.3:
        family[-1] = family[0]
    if all(pattern.num_edges == 0 for pattern in family):
        family[-1] = rng.choice(list(pr.H_PRESETS.values()))
    graph = random_graph(rng, rng.randint(3, 5))
    spec, inst = pr.encode_family_induced(graph, family)
    count = ls.evaluate_formulation(spec, inst, theta)
    assert count == family_witnesses(graph, family)
    x = ls.compute_assignment(spec, inst, theta)
    top = ls._candidate_top(x.rows[-1] - 1, theta, x.block_len)
    pools = ls._witness_pools(spec, x.rows[1:-1], top)
    if math.prod(map(len, pools)) <= 2 * 10**4:
        assert count == unpruned_count(spec, inst, theta)


def test_family_count_sums_its_distinct_patterns():
    """Two isomorphic patterns count a copy twice, the same pattern listed
    twice counts it once, and each family decides as ``brute_solve`` does."""
    path3 = pr.H_PRESETS["path3"]
    other_path3 = pr.PatternGraph("other-path3", 3, frozenset({(1, 3), (2, 3)}))
    rng = random.Random(SEED)
    for _ in range(40):
        graph = random_graph(rng, rng.randint(2, 5))
        for family, copies in (([path3, other_path3], 2), ([path3, path3], 1)):
            spec, inst = pr.encode_family_induced(graph, family)
            theta = rng.randint(1, 2)
            count = ls.evaluate_formulation(spec, inst, theta)
            assert count == copies * induced_witnesses(graph, path3)
            assert ls.solve_via_oracle(spec, inst, theta) == ls.brute_solve(spec, inst)


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
    # the step is part of the definition: the reversed pairs of a triangle
    # pass ``accept`` alone but fail the canonical-pair step
    reversed_codes = [pr.encode_pair(v, u) for u, v in sorted(triangle.edges)]
    (member,) = spec.members
    assert member.accept(*reversed_codes) and not spec.verifier(*reversed_codes)
    inst = ls.ls_instance(3, reversed_codes)
    assert not ls.brute_solve(spec, inst)
    assert ls.brute_solve(replace(spec, members=(member._replace(step=None),)), inst)


def test_verifier_steps_each_slot_at_most_once():
    """``spec.verifier``, and so ``brute_solve``, folds a member's ``step`` once
    along a candidate: at most alpha + beta calls per tuple, on an h-induced
    spec and a max-H-subgraph spec whose brute walks cross every tuple, some
    of them passing every step but not ``accept``."""
    steps_per_tuple = []

    class CountingSpec(ls.LSProblemSpec):
        def verifier(self, *codes):
            steps_per_tuple.append(0)
            return super().verifier(*codes)

    def counted(step):
        def wrapped(state, slot, code):
            steps_per_tuple[-1] += 1
            return step(state, slot, code)

        return wrapped

    paw = pr.GraphInput(4, frozenset({(1, 2), (1, 3), (2, 3), (3, 4)}))
    weighted_path = pr.WeightedGraphInput(3, (((1, 2), 1), ((2, 3), 2)), 2)
    for spec, inst in (
        pr.encode_h_induced(paw, pr.H_PRESETS["c4"]),
        pr.encode_max_h_subgraph(weighted_path, pr.H_PRESETS["path3"], 9, "edge-weights"),
    ):
        members = tuple(member._replace(step=counted(member.step)) for member in spec.members)
        counting = CountingSpec(**{f.name: getattr(spec, f.name) for f in fields(spec)})
        steps_per_tuple.clear()
        assert not ls.brute_solve(replace(counting, members=members), inst)
        assert len(steps_per_tuple) == inst.m**spec.alpha * (inst.n**spec.r - inst.m) ** spec.beta
        assert max(steps_per_tuple) == spec.alpha + spec.beta


def test_accepted_tuples_in_product_order():
    pools = [[3, 1, 2], [2, 1], [1, 3, 2]]
    accept = lambda a, b, c: (a + b + c) % 2 == 0  # noqa: E731
    expected = [t for t in product(*pools) if accept(*t)]
    assert list(ls.accepted_tuples(pools, accept)) == expected
    # a step that drops first slots holding 1 removes exactly those tuples
    step = lambda state, slot, code: None if (slot, code) == (0, 1) else state  # noqa: E731
    pruned = ls.accepted_tuples(pools, accept, step=step)
    assert list(pruned) == [t for t in expected if t[0] != 1]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60), st.integers(0, 2**32))
def test_complement_view_matches_the_listed_complement(top, seed):
    """A b-slot's ``_Complement`` view of [low, top] outside a sorted S has
    the listed complement's length, codes, positions, members and the tails
    a chained group takes after a bisection."""
    rng = random.Random(seed)
    inside = sorted(rng.sample(range(1, top + 1), rng.randint(0, top)))
    low = rng.randint(1, top + 1)
    view = ls._Complement(inside, low, top)
    listed = [code for code in range(low, top + 1) if code not in inside]
    assert len(view) == len(listed) and list(view) == listed
    assert [view[i] for i in range(len(listed))] == listed
    assert [code for code in range(-1, top + 3) if code in view] == listed
    for code in range(top + 2):
        tail = view[bisect_right(view, code) :]
        assert len(tail) == len(listed[bisect_right(listed, code) :]) and list(tail) == [
            v for v in listed if v > code
        ]


def test_walk_depth_is_capped():
    """The walk recurses once per slot: 256 pools are walked, one more is
    refused before the first step."""
    accept = lambda *codes: True  # noqa: E731
    deepest = [[1]] * 256
    assert list(ls.accepted_tuples(deepest, accept)) == [(1,) * 256]
    with pytest.raises(CapExceeded, match="cap witness_slots exceeded: 257 > 256"):
        ls.accepted_tuples(deepest + [[1]], accept)


def test_collection_unchanged_by_pruning():
    """On the (spec, s, theta) of acceptance criteria 2 and 3, the pruned
    spec and the unpruned one, whose single member is ``spec.verifier``,
    both collect to the literal polynomial of the definition."""
    cases = criteria_stream_cases()
    assert len(cases) == 27
    for s, theta, spec in cases:
        expected = reference(spec, s, theta)
        assert expected
        assert ls.formulation_polynomial(spec, s, theta).terms == expected
        unpruned_spec = replace(spec, members=(ls.Member(None, spec.verifier),))
        assert ls.formulation_polynomial(unpruned_spec, s, theta).terms == expected


@cache
def triangle_spec():
    spec, _ = pr.encode_h_induced(pr.GraphInput(3, frozenset()), pr.H_PRESETS["triangle"])
    return spec


@cache
def edge_and_vertex_spec():
    """Induced edge plus an isolated vertex: alpha = 1, beta = 2."""
    pattern = pr.PatternGraph("edge-and-vertex", 3, frozenset({(1, 2)}))
    spec, _ = pr.encode_h_induced(pr.GraphInput(3, frozenset()), pattern)
    return spec


# Sizes below the encoding's own at which the literal polynomial is nonempty
# and its coefficients sum to at most about 10**6.
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
            for spec, inst in tiny_encodings()
        ),
        *(pytest.param(triangle_spec(), s, id=f"triangle-s{s}") for s in (5, 6)),
        *(pytest.param(path3_spec(), s, id=f"path3-s{s}") for s in (5, 6)),
        pytest.param(edge_and_vertex_spec(), 3, id="edge-and-vertex"),
    ],
)
def test_collected_polynomial_equals_reference(spec, s, theta):
    """Grouping witnesses by multiset and counting sorted index tuples gives
    the literal polynomial of the definition, every ordering of every
    accepted tuple multiplied out."""
    expected = reference(spec, s, theta)
    collected = ls.formulation_polynomial(spec, s, theta)
    assert expected
    assert collected.num_vars == ls.variable_count(s, spec.r, theta)
    assert collected.terms == expected


# The (spec, s) cases of test_collected_polynomial_equals_reference.
LITERAL_CASES = next(
    mark.args[1]
    for mark in test_collected_polynomial_equals_reference.pytestmark
    if mark.args[0] == "spec, s"
)


@pytest.mark.parametrize("theta", [1, 2])
@pytest.mark.parametrize("spec, s", LITERAL_CASES)
def test_grouped_literal_walk_weighs_each_multiset_by_its_orderings(spec, s, theta):
    """The collection's walk, one increasing ordering per group weighted by
    the groups' factorials, counts per (sorted a-values, sorted b-values)
    the multisets of every accepted ordering of the product filter: each
    encoder's group contract holds over every candidate code in [1, top],
    not only over S and its complement."""
    alpha = spec.alpha
    every_ordering = Counter(
        (tuple(sorted(w[:alpha])), tuple(sorted(w[alpha:])))
        for w in literal_witnesses(spec, s, theta)
    )
    assert every_ordering
    assert ls._literal_tables(spec, s, theta)[0] == every_ordering


def criteria_stream_cases():
    """The 27 (s, theta, spec) of acceptance criteria 2 and 3, in a fixed order."""
    cases = {}
    probes = small_stream_instances(random.Random(SEED + 1))
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


# The ls-literal benchmark's shapes: (problem, k-SUM k or graph n,
# k-SUM (magnitude, set size) or edge count m, theta).
LITERAL_SHAPES = [
    ("ksum", 1, (1, 3), 1), ("ksum", 1, (1, 2), 2), ("ksum", 2, (0, 1), 2),
    ("ksum", 2, (1, 1), 1), ("path3", 3, 0, 2), ("path3", 3, 1, 1), ("path3", 3, 1, 2),
    ("path3", 3, 2, 1), ("triangle", 3, 1, 2), ("triangle", 3, 2, 1), ("triangle", 3, 2, 2),
    ("triangle", 3, 3, 1), ("triangle", 4, 0, 2), ("triangle", 4, 1, 1),
]


def shape_encoding(shape, rng):
    """A seeded encoding of one of ``LITERAL_SHAPES``."""
    problem, a, b, _ = shape
    if problem == "ksum":
        w, size = b
        sets = tuple(tuple(rng.sample(range(-w, w + 1), size)) for _ in range(a))
        return pr.encode_ksum(pr.KSumInput(a, sets, w))
    edges = rng.sample(list(combinations(range(1, a + 1), 2)), b)
    return pr.encode_h_induced(pr.GraphInput(a, frozenset(edges)), pr.H_PRESETS[problem])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(LITERAL_SHAPES), st.randoms(use_true_random=False))
def test_collected_polynomials_pass_the_strict_constructor(shape, rng):
    """formulation_polynomial wraps its term map without the constructor's
    checks; the map re-passes them and compares equal."""
    spec, inst = shape_encoding(shape, rng)
    p = ls.formulation_polynomial(spec, inst.size, shape[3])
    assert poly.SparsePolynomial(p.num_vars, dict(p.terms)) == p
    with pytest.raises(TypeError):
        p.terms[()] = 1  # type: ignore[index]


@cache
def shape_case(shape):
    """One ``LITERAL_SHAPES`` entry's (spec, s): the literal polynomial does
    not read the instance, so one seeded encoding stands for every draw."""
    spec, inst = shape_encoding(shape, random.Random(SEED))
    return spec, inst.size


# Every shape at theta 1-2, and the beta = 0 shapes at theta 3 too: a b-slot
# holds s * |C_lt| * |C_gt| gadgets, which |C_lt| = 13 at theta 3 makes slow
# for the reference.
LITERAL_ROWS = [
    (shape, theta)
    for shape in LITERAL_SHAPES
    for theta in (1, 2, 3)
    if theta < 3 or shape_case(shape)[0].beta == 0
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(LITERAL_ROWS))
def test_collected_polynomial_equals_reference_on_benchmark_shapes(row):
    """The collection equals the literal polynomial of the definition on the
    ls-literal benchmark's shapes."""
    shape, theta = row
    spec, s = shape_case(shape)
    expected = reference(spec, s, theta)
    assert expected and ls.formulation_polynomial(spec, s, theta).terms == expected


def occurrences(terms):
    """The variable occurrences of ``terms`` listed one unit of coefficient at a time."""
    return sum(count * poly._degree(powers) for powers, count in terms.items())


def test_collection_cap_counts_literal_monomials(set_cap):
    """Every witness multiset of this triangle spec has multiplicity 6, and
    the cap counts the literal polynomial's variable occurrences, its terms
    listed once per unit of coefficient: the collection succeeds at N * d,
    for N such monomials of degree d, and raises at N * d - 1."""
    spec, s, theta = triangle_spec(), 4, 1
    multisets = Counter(tuple(sorted(w)) for w in literal_witnesses(spec, s, theta))
    assert set(multisets.values()) == {6}
    expected = reference(spec, s, theta)
    assert {poly._degree(powers) for powers in expected} == {3}
    set_cap("literal", occurrences(expected))
    assert ls.formulation_polynomial(spec, s, theta).terms == expected
    set_cap("literal", occurrences(expected) - 1)
    with pytest.raises(CapExceeded, match="cap literal exceeded"):
        ls.formulation_polynomial(spec, s, theta)


def test_collection_cap_counts_literal_monomials_with_b_slots(set_cap):
    """path3 walks one ordering of its two edge slots, so every witness
    multiset has multiplicity 2, and it has one b-slot.  The cap still
    counts the literal polynomial's variable occurrences: the collection
    succeeds at their number and, like the monomial view, raises one below
    it."""
    spec, s, theta = path3_spec(), 4, 1
    assert [member.groups for member in spec.members] == [((0, 2),)] and spec.beta == 1
    multisets = Counter(
        (tuple(sorted(w[: spec.alpha])), w[spec.alpha :])
        for w in literal_witnesses(spec, s, theta)
    )
    assert set(multisets.values()) == {2}
    expected = reference(spec, s, theta)
    set_cap("literal", occurrences(expected))
    assert ls.formulation_polynomial(spec, s, theta).terms == expected
    set_cap("literal", occurrences(expected) - 1)
    with pytest.raises(CapExceeded, match="cap literal exceeded"):
        ls.formulation_polynomial(spec, s, theta)
    with pytest.raises(CapExceeded, match="cap literal exceeded"):
        list(ls.formulation_monomials(spec, s, theta))


def test_collection_collapses_repeated_variables():
    """At s = 4, theta = 2 some of path3's multisets have slot tables that
    share variables, so some of their products repeat one: the collection
    collapses those into powers and still equals the literal polynomial of
    the definition."""
    spec, s, theta = path3_spec(), 4, 2
    terms = ls.formulation_polynomial(spec, s, theta).terms
    assert terms == reference(spec, s, theta)
    assert any(exponent >= 2 for powers in terms for _, exponent in powers)


def test_literal_tables_skip_unused_comparison_tuples():
    """beta = 0 needs no C_lt x C_gt table: 3**12 comparison tuples per block
    would not fit, but the triangle's 256 terms come at once."""
    polynomial = timed(lambda: ls.formulation_polynomial(triangle_spec(), 4, 12))
    assert len(polynomial.terms) == 256


def test_literal_cap_decided_from_witness_count():
    """path3 at theta = 10 has s * |C_lt| * |C_gt| = 4 * 29524**2 monomials
    per b-slot: refused before any factor table is built."""
    with pytest.raises(CapExceeded):
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
    with pytest.raises(CapExceeded, match="cap literal_candidates exceeded"):
        timed(lambda: ls.formulation_polynomial(spec, 4, 1))
