"""Set-cover chain: partition counting, z-variable DP, HCV branching, minima."""

import gc
import random
from itertools import combinations
from math import comb

import pytest

import polyoracle.permanent as pm
import polyoracle.setcover as sc
from polyoracle.errors import CapExceeded, PolyOracleError, PreconditionViolated, ValueOutOfRange
from oracles import hcv_count, setpartition_count
from routes import planted_lists, random_family, z_var_dp


def test_setpartition_brute_known_values():
    assert setpartition_count(sc.family_from_lists(2, [[1], [2]]), 2) == 1
    assert setpartition_count(sc.family_from_lists(2, [[1, 2]]), 1) == 1
    # duplicate values are distinct indices
    assert setpartition_count(sc.family_from_lists(2, [[1], [1], [2]]), 2) == 2


def test_z_var_dp_base_cases():
    family = sc.family_from_lists(3, [[1], [2]])
    b = 0b100  # B = {3}
    assert z_var_dp(family, 0, b, 0) == 1
    assert z_var_dp(family, 0, b, 1) == 0


def test_z_var_dp_vs_direct_enumeration():
    rng = random.Random(1)
    for _ in range(150):
        n = rng.randint(2, 6)
        family = random_family(rng, n, 8, max(1, n // 2))
        full = family.full_mask
        a_mask = rng.randint(0, full)
        rest = full & ~a_mask
        if rest == 0:
            continue
        b_bit = 1 << rng.choice([b for b in range(n) if rest >> b & 1])
        k = rng.randint(0, 4)
        expected = 0
        indices = [i for i, m in enumerate(family.sets) if m]
        for chosen in combinations(indices, k):
            union = 0
            ok = True
            for i in chosen:
                mask = family.sets[i]
                if mask & union or mask & ~a_mask or (mask & -mask) >= b_bit:
                    ok = False
                    break
                union |= mask
            if ok and union == a_mask:
                expected += 1
        assert z_var_dp(family, a_mask, b_bit, k) == expected


def test_setpartition_traces_known_values():
    assert sc.setpartition_via_traces(sc.family_from_lists(2, [[1], [2]]), 2, 1) == 1
    # empty universe: only empty sets, pure binomial choice
    empties = sc.SetFamily(0, (0, 0, 0))
    for k in range(5):
        assert sc.setpartition_via_traces(empties, k, 1) == comb(3, k)


def test_setpartition_traces_precondition():
    family = sc.family_from_lists(4, [[1, 2, 3]])
    with pytest.raises(PreconditionViolated):
        sc.setpartition_via_traces(family, 1, 1)  # size 3 > floor(4/2)


def test_partition_lanes_hold_counts_near_the_width():
    """Many copies of two disjoint sets and many empty sets: the count for k
    sets is a*b*C(e, k - 2), far wider than any multiplicity, and every lane
    must still come out whole."""
    a, b, e = 40, 40, 30
    family = sc.SetFamily(4, (0b0011,) * a + (0b1100,) * b + (0,) * e)
    k_max = e + 3
    expected = [a * b * comb(e, k - 2) if k >= 2 else 0 for k in range(k_max + 1)]
    assert sc._partition_counts(family, k_max, 1) == expected
    for k in range(k_max + 1):
        assert sc.setpartition_via_traces(family, k, 1) == expected[k]


def greedy_partition_trace(masks, n, theta):
    """The unique block decomposition of a partition's nonempty sets."""
    nonempty = sorted((m for m in masks if m), key=lambda m: m & -m)
    blocks, current, covered = [], [], 0
    for mask in nonempty:
        size = bin(mask).count("1")
        if theta * (covered + size) > n:
            prefix = 0
            for x in current:
                prefix |= x
            blocks.append((prefix, mask, len(current) + 1))
            current, covered = [], 0
        else:
            current.append(mask)
            covered += size
    if current:
        prefix = 0
        for x in current[:-1]:
            prefix |= x
        blocks.append((prefix, current[-1], len(current)))
    return tuple(blocks)


def test_partition_trace_uniqueness_audit():
    """Each brute partition lands in exactly one trace of at most theta
    blocks, and every trace's y * z * binomial product reproduces its
    histogram bucket."""
    rng = random.Random(8)
    for _ in range(60):
        theta = rng.choice([1, 2, 3])
        n = rng.randint(2 * theta, 6)
        family = random_family(rng, n, 9, max(1, n // (2 * theta)))
        k = rng.randint(0, len(family.sets))
        empties = sum(1 for m in family.sets if m == 0)
        value_counts = {}
        for mask in family.sets:
            if mask:
                value_counts[mask] = value_counts.get(mask, 0) + 1
        histogram = {}
        for indices in combinations(range(len(family.sets)), k):
            union, ok = 0, True
            for i in indices:
                if family.sets[i] & union:
                    ok = False
                    break
                union |= family.sets[i]
            if not ok or union != family.full_mask:
                continue
            trace = greedy_partition_trace([family.sets[i] for i in indices], n, theta)
            assert len(trace) <= theta
            histogram[trace] = histogram.get(trace, 0) + 1
        total = sc.setpartition_via_traces(family, k, theta)
        assert sum(histogram.values()) == total
        for trace, bucket in histogram.items():
            used = sum(k_j for _, _, k_j in trace)
            expected = comb(empties, k - used)
            for a_mask, b_mask, k_j in trace:
                expected *= value_counts[b_mask] * z_var_dp(family, a_mask, b_mask, k_j - 1)
            assert expected == bucket


def test_trace_blocks_are_every_block_the_full_scan_counts():
    """At every (remaining, b) the trace recursion reaches, the blocks listed
    with a nonzero z are, once each, those of the scan over every A: A inside
    remaining - {b}, holding every element of remaining under b, with
    |A| <= n // theta and z(A, b) != 0, and B a family set with minimum b
    inside remaining - A that ends the trace or takes A | B past n / theta.
    A listed block with z(A, b) = 0 is final (A | B = remaining), so the
    recursion reaches no state through it."""
    rng = random.Random(28)
    for _ in range(100):
        theta = rng.choice([1, 2, 3])
        n = rng.randint(2 * theta, 10)
        lists = planted_lists(rng, n, n // (2 * theta), partitions=2, extra=n)
        family = sc.family_from_lists(n, lists + [[]])
        counter = sc._PartitionCounter(family, theta, len(family.sets))
        counter.traces(family.full_mask)
        a_cap = n // theta
        for remaining in list(counter.trace_memo):
            for b in range(n):
                b_bit = 1 << b
                below = remaining & (b_bit - 1)
                if not remaining & b_bit or below.bit_count() > a_cap:
                    continue
                listed = [
                    (a_mask, b_mask)
                    for a_mask, b_mask, _ in counter.blocks(remaining, b_bit)
                    if counter.z(a_mask, b_bit)
                ]
                for a_mask, b_mask, _ in counter.blocks(remaining, b_bit):
                    assert counter.z(a_mask, b_bit) or a_mask | b_mask == remaining
                expected = []
                inside = remaining ^ b_bit
                for a_mask in range(inside + 1):
                    if (
                        a_mask & ~inside
                        or below & ~a_mask
                        or a_mask.bit_count() > a_cap
                        or not counter.z(a_mask, b_bit)
                    ):
                        continue
                    for b_mask, _ in counter.by_pivot.get(b_bit, ()):
                        after = remaining ^ a_mask ^ b_mask
                        if b_mask & ~(remaining ^ a_mask):
                            continue
                        if after and theta * (a_mask | b_mask).bit_count() <= n:
                            continue
                        expected.append((a_mask, b_mask))
                assert sorted(listed) == sorted(expected)


def test_hcv_brute_known_values():
    assert hcv_count(sc.family_from_lists(1, [[1]]), 1, 1) == 1
    assert hcv_count(sc.family_from_lists(1, [[1], [1]]), 1, 2) == 0
    # with m = 0, HCV counts covers: {1}+{2}, {1}+{1,2}, {2}+{1,2}
    assert hcv_count(sc.family_from_lists(2, [[1], [2], [1, 2]]), 0, 2) == 3


def test_hcv_is_setpartition_when_m_equals_n():
    rng = random.Random(2)
    for _ in range(80):
        n = rng.randint(1, 6)
        family = random_family(rng, n, 8, n)
        k = rng.randint(0, len(family.sets))
        assert hcv_count(family, n, k) == setpartition_count(family, k)


def test_hcv_branch_structure():
    family = sc.family_from_lists(3, [[1, 2], [3]])
    same = sc.hcv_branch(family, 3, 3, 1)
    assert len(same) == 1 and same[0][0] == 1 and same[0][1] == family
    two = sc.hcv_branch(family, 3, 2, 1)
    assert len(two) == 2 and [sign for sign, _ in two] == [1, -1]
    assert all(inst.n == 2 for _, inst in two)


def test_hcv_expand_known_values():
    family = sc.family_from_lists(2, [[1, 2]])
    expanded = sc.hcv_expand_setcover(family, 1)
    assert sorted(expanded.sets) == sorted(
        (0b11, 0b10)
    )  # {1,2} and {2}
    unchanged = sc.hcv_expand_setcover(family, 0)
    assert unchanged.sets == family.sets


def test_hcv_expand_positivity_matches_coverability():
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randint(1, 6)
        m = rng.randint(0, n)
        family = random_family(rng, n, 6, n)
        k = rng.randint(1, max(1, len(family.sets)))
        expanded = sc.hcv_expand_setcover(family, m)
        m_mask = (1 << m) - 1
        assert len(expanded.sets) == sum(
            2 ** bin(mask & m_mask).count("1") for mask in family.sets
        )
        positive = hcv_count(expanded, m, k) > 0 if len(expanded.sets) <= 18 else None
        if positive is None:
            continue
        minimum = sc.setcover_min(family, method="brute")
        assert positive == (minimum is not None and minimum <= k)


def test_setcover_min_known_values():
    assert sc.setcover_min(sc.family_from_lists(3, [[1, 2, 3]])) == 1
    assert sc.setcover_min(sc.family_from_lists(3, [[1], [2], [3]])) == 3
    assert sc.setcover_min(sc.family_from_lists(3, [[1], [2]])) is None
    assert sc.setcover_min(sc.SetFamily(0, ())) == 0


def test_setcover_reduction_cap_bounds_the_branched_universe():
    """setpartition_universe bounds the branched universe m = max(2*theta*maxsize,
    n - 6), not n: with triples at theta = 1, n = 18 branches down to m = 12
    and is answered, while n = 19 needs m = 13 and is refused."""
    rng = random.Random(20)
    disjoint = [[i, i + 1, i + 2] for i in range(1, 19, 3)]
    for extra in (4, 8, 12):
        lists = disjoint + [rng.sample(range(1, 19), 3) for _ in range(extra)]
        family = sc.family_from_lists(18, lists)
        assert sc.setcover_min(family, method="reduction") == sc.setcover_min(family) == 6
    wider = sc.family_from_lists(19, disjoint + [[17, 18, 19]])
    with pytest.raises(CapExceeded, match=r"cap setpartition_universe exceeded: 13 > 12"):
        sc.setcover_min(wider, method="reduction")


def test_setcover_min_checks_arguments_before_early_returns():
    """A bad method, or a bad theta for the reduction, is refused even when
    the answer needs no counting: an empty universe or an uncoverable one."""
    empty = sc.SetFamily(0, ())
    uncoverable = sc.family_from_lists(3, [[1, 2]])
    for family in (empty, uncoverable):
        with pytest.raises(ValueOutOfRange, match="unknown method"):
            sc.setcover_min(family, method="bogus")
        for theta in (0, 4, -1):
            with pytest.raises(ValueOutOfRange, match="theta must be one of"):
                sc.setcover_min(family, method="reduction", theta=theta)
    # The brute route does not read theta.
    assert sc.setcover_min(empty, method="brute", theta=0) == 0
    assert sc.setcover_min(uncoverable, method="brute", theta=0) is None


def test_setcover_min_reduction_precondition():
    family = sc.family_from_lists(3, [[1, 2, 3]])
    with pytest.raises(PreconditionViolated):
        sc.setcover_min(family, method="reduction")  # needs m >= 6 > n


def outcome(call):
    """A call's value, or the class and message of the library error it raised."""
    try:
        return call()
    except PolyOracleError as error:
        return type(error), str(error)


TRIPLES = [[i, i + 1, i + 2] for i in range(1, 19, 3)]
# (n, lists, method, theta), each with the value or the refusal (class and
# the start of its message) that it is drawn for.
REFUSAL_DRAWS = [
    ((3, [[1, 2], [3]], "bogus", 1), (ValueOutOfRange, "unknown method 'bogus'")),
    ((3, [[1, 2], [3]], "reduction", 4), (ValueOutOfRange, "theta must be one of (1, 2, 3)")),
    ((0, [[], []], "reduction", 0), (ValueOutOfRange, "theta must be one of (1, 2, 3)")),
    ((0, [[], []], "reduction", 2), 0),
    ((0, [], "brute", 1), 0),
    ((4, [[1, 2], [2, 3], [3]], "reduction", 1), None),
    ((2, [[1], [2]] * 129, "reduction", 1), 2),
    ((2, [[1], [2]] * 129, "brute", 1), (CapExceeded, "cap setcover_brute exceeded: 258 > 256")),
    ((2, [[1], [3]], "brute", 1), (ValueOutOfRange, "element 3 outside [1, 2]")),
    (
        (5, [[1, 2, 2], [3, 4, 5]], "reduction", 1),
        (PreconditionViolated, "reduction needs a universe of at least 2*theta*maxsize = 6"),
    ),
    (
        (19, TRIPLES + [[17, 18, 19]], "reduction", 1),
        (CapExceeded, "cap setpartition_universe exceeded: 13 > 12"),
    ),
    ((19, TRIPLES + [[17, 18, 19]], "brute", 1), 7),
    ((-1, [], "reduction", 1), (ValueOutOfRange, "universe size must be nonnegative")),
    ((-1, [[]], "reduction", 1), (ValueOutOfRange, "universe size must be nonnegative")),
    ((-1, [[]] * 300, "brute", 1), (ValueOutOfRange, "universe size must be nonnegative")),
]


def entry_point_draws():
    """Planted partitions of [n] plus random sets, n 1-9, every method and
    theta 0-4; a list now and then repeats an element or, rarely, holds n + 1."""
    rng = random.Random(39)
    for _ in range(300):
        n = rng.randint(1, 9)
        size_cap = rng.randint(1, min(n, 3))
        lists = planted_lists(rng, n, size_cap, rng.randint(0, 1), rng.randint(0, 6))
        for elements in lists:
            if rng.random() < 0.1:
                elements.append(rng.choice(elements) if rng.random() < 0.9 else n + 1)
        method = rng.choice(["brute", "reduction", "reduction", "bogus"])
        yield n, lists, method, rng.choice([0, 1, 1, 1, 2, 3, 4])


def test_setcover_entry_points_agree():
    """setcover_min_of_lists equals setcover_min of family_from_lists, value
    for value and refusal for refusal, on the drawn refusals and on random
    lists (with repeated elements, empty lists, elements past n, every
    method and theta 0-4)."""
    for (n, lists, method, theta), expected in REFUSAL_DRAWS:
        got = outcome(lambda: sc.setcover_min_of_lists(n, lists, method, theta))
        if isinstance(expected, tuple):
            assert got[0] is expected[0] and got[1].startswith(expected[1]), got
        else:
            assert got == expected
    kinds = set()
    for draw in [draw for draw, _ in REFUSAL_DRAWS] + list(entry_point_draws()):
        n, lists, method, theta = draw
        of_lists = outcome(lambda: sc.setcover_min_of_lists(n, lists, method, theta))
        of_family = outcome(lambda: sc.setcover_min(sc.family_from_lists(n, lists), method, theta))
        assert of_lists == of_family, draw
        kinds.add(of_lists[0] if isinstance(of_lists, tuple) else type(of_lists))
    assert kinds == {int, type(None), ValueOutOfRange, CapExceeded, PreconditionViolated}


def test_lists_build_their_masks_once_past_every_refusal(monkeypatch):
    """setcover_min_of_lists builds the masks once for an input it answers
    by counting, and never for one that is refused, uncoverable or empty."""
    builds = []
    build = sc._masks_of
    monkeypatch.setattr(sc, "_masks_of", lambda n, lists: builds.append(n) or build(n, lists))
    for (n, lists, method, theta), expected in REFUSAL_DRAWS:
        builds.clear()
        outcome(lambda: sc.setcover_min_of_lists(n, lists, method, theta))
        answered = isinstance(expected, int) and expected > 0
        assert builds == ([n] if answered else []), (n, method, expected)


def test_counting_chain_leaves_no_reference_cycles():
    """Memo tables and recursions die with the call: nothing is left for the
    cycle collector."""
    family = sc.family_from_lists(10, [[1, 2], [3, 4], [5, 6], [7, 8], [9, 10], [2, 3], [4, 5]])
    nine = sc.SetFamily(10, family.sets + sc.family_from_lists(10, [[6, 7], [8, 9]]).sets)
    matrix = pm.matrix_from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    calls = [
        (lambda: sc.setpartition_via_traces(family, 5, 2), 1),
        (lambda: sc.setcover_min(family, method="reduction", theta=2), 5),
        (lambda: sc.setcover_min(nine, method="brute"), 5),
        (lambda: pm.permanent_brute(matrix), 2),
        (lambda: pm.permanent_via_formulation(matrix), 2),
    ]
    gc.collect()
    gc.disable()
    try:
        for call, expected in calls:
            assert call() == expected
            assert gc.collect() == 0
    finally:
        gc.enable()
