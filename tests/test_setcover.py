"""Set-cover chain: partition counting, z-variable DP, HCV branching, minima."""

import gc
import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyoracle.permanent as pm
import polyoracle.setcover as sc
from polyoracle.errors import PreconditionViolated, TooLarge, ValueOutOfRange
from oracles import hcv_count, setcover_min_bhk, setpartition_count, setpartition_counts_bhk


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


def test_setpartition_brute_known_values():
    assert setpartition_count(sc.family_from_lists(2, [[1], [2]]), 2) == 1
    assert setpartition_count(sc.family_from_lists(2, [[1, 2]]), 1) == 1
    # duplicate values are distinct indices
    assert setpartition_count(sc.family_from_lists(2, [[1], [1], [2]]), 2) == 2


def test_z_var_dp_base_cases():
    family = sc.family_from_lists(3, [[1], [2]])
    b = 0b100  # B = {3}
    assert sc.z_var_dp(family, 0, b, 0) == 1
    assert sc.z_var_dp(family, 0, b, 1) == 0
    with pytest.raises(ValueOutOfRange):
        sc.z_var_dp(family, 0b001, 0, 0)


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
        assert sc.z_var_dp(family, a_mask, b_bit, k) == expected


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


@pytest.mark.parametrize("theta", [1, 2, 3])
def test_setpartition_traces_vs_brute(theta):
    rng = random.Random(theta)
    for _ in range(150):
        n = rng.randint(2 * theta, 10)
        family = random_family(rng, n, 10, n // (2 * theta))
        k_max = len(family.sets)
        counts = sc._partition_counts(family, k_max, theta)
        assert counts == [setpartition_count(family, k) for k in range(k_max + 1)]
        k = rng.randint(0, k_max)
        assert sc.setpartition_via_traces(family, k, theta) == counts[k]


@settings(max_examples=120, deadline=None)
@given(
    st.integers(4, 9),
    st.lists(st.lists(st.integers(1, 9), min_size=0, max_size=2), max_size=9),
    st.integers(0, 9),
)
def test_setpartition_traces_hypothesis(n, raw_sets, k):
    lists = [[e for e in s if e <= n][: n // 4] for s in raw_sets]
    family = sc.family_from_lists(n, [sorted(set(s)) for s in lists])
    assert sc.setpartition_via_traces(family, k, 2) == setpartition_count(family, k)


def test_bhk_references_match_enumeration():
    """The inclusion-exclusion references agree with direct enumeration."""
    rng = random.Random(19)
    for _ in range(200):
        n = rng.randint(0, 7)
        family = random_family(rng, n, 9, max(1, n // 2))
        k_max = rng.randint(-1, 6)
        assert setpartition_counts_bhk(family, k_max) == [
            setpartition_count(family, k) for k in range(k_max + 1)
        ]
        assert setcover_min_bhk(family) == sc.setcover_min(family, method="brute")


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


def test_partition_counts_match_bhk_past_the_cap(set_cap):
    """Past the library cap, checked against the inclusion-exclusion count,
    which shares no code with the trace recursion.  Per n, one family with
    sets of size <= n/6 serves every theta, and one with sets of size <= n/2
    serves theta = 1."""
    set_cap("setpartition_universe", 16)
    rng = random.Random(23)
    for n in (13, 14, 15, 16):
        for size_cap, thetas in ((n // 6, (1, 2, 3)), (n // 2, (1,))):
            lists = planted_lists(rng, n, size_cap, partitions=3, extra=n)
            family = sc.family_from_lists(n, lists + [[], []])
            expected = setpartition_counts_bhk(family, n + 2)
            assert any(expected)
            for theta in thetas:
                assert sc._partition_counts(family, n + 2, theta) == expected


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
    """Each brute partition lands in exactly one trace, and every trace's
    y * z * binomial product reproduces its histogram bucket."""
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
            histogram[trace] = histogram.get(trace, 0) + 1
        total = sc.setpartition_via_traces(family, k, theta)
        assert sum(histogram.values()) == total
        for trace, bucket in histogram.items():
            used = sum(k_j for _, _, k_j in trace)
            expected = comb(empties, k - used)
            for a_mask, b_mask, k_j in trace:
                expected *= value_counts[b_mask] * sc.z_var_dp(family, a_mask, b_mask, k_j - 1)
            assert expected == bucket


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


def test_hcv_branch_signed_sums_match_brute():
    rng = random.Random(3)
    for _ in range(150):
        n = rng.randint(1, 7)
        m = rng.randint(0, n)
        family = random_family(rng, n, 8, n)
        k = rng.randint(0, len(family.sets))
        expected = hcv_count(family, m, k)
        terms = sc.hcv_branch(family, n, m, k)
        assert len(terms) == 2 ** (n - m)
        assert sum(sign * setpartition_count(inst, k) for sign, inst in terms) == expected


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


def test_setcover_min_methods_agree():
    rng = random.Random(5)
    for _ in range(120):
        n = rng.randint(2, 8)
        family = random_family(rng, n, 9, min(3, n // 2), empty_rate=0.1)
        brute = sc.setcover_min(family, method="brute")
        reduction = sc.setcover_min(family, method="reduction")
        assert brute == reduction
    # Families shaped like the benchmark's, where a greedy cover can exceed
    # the minimum that the reduction must still return.
    rng = random.Random(5)
    greedy_gaps = 0
    for _ in range(6):
        lists = [rng.sample(range(1, 11), size) for size in (5, 4, 4, 3, 3, 3, 2, 2, 2)]
        family = sc.family_from_lists(10, lists)
        brute = sc.setcover_min(family, method="brute")
        assert sc.setcover_min(family, method="reduction") == brute
        if brute is not None:
            greedy_gaps += sc._greedy_cover_size(family.sets, family.full_mask) > brute
    assert greedy_gaps


def test_setcover_min_reduction_matches_bhk_cover_count():
    """At n = 13-14, above the universes test_setcover_min_methods_agree
    draws, the reduction agrees with the least k whose inclusion-exclusion
    k-cover count is positive."""
    rng = random.Random(19)
    minima = set()
    for n in (13, 14):
        for theta in (1, 2, 3):
            for _ in range(3):
                lists = planted_lists(rng, n, min(5, n // (2 * theta)), partitions=1, extra=n // 2)
                family = sc.family_from_lists(n, lists)
                expected = setcover_min_bhk(family)
                assert sc.setcover_min(family, method="reduction", theta=theta) == expected
                minima.add(expected)
            # Without element n nothing covers [n].
            uncoverable = sc.SetFamily(n, tuple(mask & ~(1 << (n - 1)) for mask in family.sets))
            assert setcover_min_bhk(uncoverable) is None
            assert sc.setcover_min(uncoverable, method="reduction", theta=theta) is None
    assert len(minima) > 2


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
    with pytest.raises(TooLarge, match=r"cap setpartition_universe exceeded: 13 > 12"):
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
