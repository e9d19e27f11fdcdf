"""Permanent chain: brute oracle, F-counts, expansion identity, traces, DP."""

import math
import random
import time
from itertools import product

import pytest

import polyoracle.permanent as pm
from polyoracle.errors import TooLarge, ValueOutOfRange
from oracles import f_count, mapping_coverages, permanent_ryser


def random_matrix(rng, n, density=0.5):
    return pm.matrix_from_rows(
        [[1 if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
    )


def test_permanent_brute_known_values():
    assert pm.permanent_brute(pm.matrix_from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 1
    assert pm.permanent_brute(pm.matrix_from_rows([[1, 1, 1], [1, 1, 1], [1, 1, 1]])) == 6
    assert pm.permanent_brute(pm.matrix_from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])) == 2


def test_permanent_brute_cap():
    with pytest.raises(TooLarge):
        pm.permanent_brute(pm.matrix_from_rows([[0] * 11 for _ in range(11)]))


def test_permanent_caps_are_separate(set_cap):
    """The formulation route has its own cap, not the brute route's."""
    ones = pm.matrix_from_rows([[1] * 6 for _ in range(6)])
    set_cap("permanent_brute", 5)
    with pytest.raises(TooLarge, match="cap permanent_brute exceeded"):
        pm.permanent_brute(ones)
    assert pm.permanent_via_formulation(ones) == 720


def test_permanent_via_formulation_checks_theta_on_the_empty_matrix():
    empty = pm.matrix_from_rows([])
    assert pm.permanent_via_formulation(empty, 0.5, 1) == 1
    for theta in (0, -1):
        with pytest.raises(ValueOutOfRange, match="theta must be >= 1"):
            pm.permanent_via_formulation(empty, 0.5, theta)


def test_matrix_text_round_trip():
    m = pm.matrix_from_text("110\n011\n101\n")
    assert m.entries == ((1, 1, 0), (0, 1, 1), (1, 0, 1))
    with pytest.raises(ValueOutOfRange):
        pm.matrix_from_text("12\n34")


def test_f_count_unconstrained_is_degree_product():
    rng = random.Random(0)
    for _ in range(30):
        m = random_matrix(rng, rng.randint(1, 5))
        expected = 1
        for mask in m.row_masks:
            expected *= bin(mask).count("1")
        assert f_count(mapping_coverages(m), pm.FSpec(0, 0, 0)) == expected


def test_f_count_complete_bipartite_eq0_everything():
    m = pm.matrix_from_rows([[1, 1], [1, 1]])
    assert f_count(mapping_coverages(m), pm.FSpec(0, 0b11, 0)) == 0


def test_fspec_disjointness():
    with pytest.raises(ValueOutOfRange):
        pm.FSpec(1, 1, 0)


def test_f_identity_exhaustive():
    """|F(S1,S0,Sg)| = |F(S1,S0,Sg-v)| - |F(S1,S0+v,Sg-v)| for all triples."""
    rng = random.Random(1)
    for n in range(1, 5):
        for _ in range(3):
            m = random_matrix(rng, n)
            coverages = mapping_coverages(m)
            counts = {}
            for assignment in product(range(4), repeat=n):
                eq1 = eq0 = ge1 = 0
                for position, kind in enumerate(assignment):
                    bit = 1 << position
                    if kind == 1:
                        eq1 |= bit
                    elif kind == 2:
                        eq0 |= bit
                    elif kind == 3:
                        ge1 |= bit
                counts[(eq1, eq0, ge1)] = f_count(coverages, pm.FSpec(eq1, eq0, ge1))
            for (eq1, eq0, ge1), value in counts.items():
                for b in range(n):
                    bit = 1 << b
                    if ge1 & bit:
                        assert value == counts[(eq1, eq0, ge1 ^ bit)] - counts[
                            (eq1, eq0 | bit, ge1 ^ bit)
                        ]


def test_f_expand_term_counts():
    m = pm.matrix_from_rows([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
    assert len(pm.f_expand(m, 0b111, 1.0)) == 1
    assert pm.f_expand(m, 0b111, 1.0)[0] == (1, pm.FSpec(0b111, 0, 0))
    assert len(pm.f_expand(m, 0b011, 2 / 3)) == 2
    with pytest.raises(ValueOutOfRange):
        pm.f_expand(m, 0b001, 0.5)  # ceil(0.5 * 3) = 2 bits required


def test_f_expand_signed_sum_is_permanent():
    rng = random.Random(2)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n)
        t = -(-n // 2)
        coverages = mapping_coverages(m)
        total = sum(
            sign * f_count(coverages, spec) for sign, spec in pm.f_expand(m, (1 << t) - 1, 0.5)
        )
        assert total == pm.permanent_brute(m)


def test_g_count_dp_base_cases():
    m = pm.matrix_from_rows([[1, 1], [1, 1]])
    assert pm.g_count_dp(m, [], 0, 0, 0) == 1
    assert pm.g_count_dp(m, [], 0, 0, 1) == 0
    assert pm.g_count_dp(m, [], 0b01, 0, 0) == 0


def test_g_count_dp_vs_restricted_enumeration():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n)
        size = rng.randint(0, n)
        rows = sorted(rng.sample(range(1, n + 1), size))
        full = (1 << n) - 1
        eq1 = rng.randint(0, full)
        eq0 = rng.randint(0, full) & ~eq1
        flag = rng.randint(0, 1)
        expected = 0
        pools = [
            [1 << b for b in range(n) if m.row_masks[u - 1] >> b & 1] for u in rows
        ]
        for choice in product(*pools):
            once = multi = 0
            for bit in choice:
                if bit & once:
                    once ^= bit
                    multi |= bit
                elif not bit & multi:
                    once |= bit
            covered = once | multi
            if eq1 & ~once or (eq1 | eq0) & covered & ~eq1:
                continue
            if flag and (not choice or not choice[-1] & eq1):
                continue
            expected += 1
        assert pm.g_count_dp(m, rows, eq1, eq0, flag) == expected


@pytest.mark.parametrize("rows", [[0, 1, 2], [1, 2, 4], [2, 1, 3], [1, 1, 2]])
def test_g_count_dp_rejects_rows_outside_or_unordered(rows):
    with pytest.raises(ValueOutOfRange, match="rows must increase strictly"):
        pm.g_count_dp(pm.matrix_from_rows([[1] * 3 for _ in range(3)]), rows, 0b111, 0, 0)


def test_g_count_dp_band_at_the_g_target_cap():
    """All 20 columns as S1: the packed sweep holds 2**20 lanes, and the
    count is the band's two perfect matchings."""
    band = pm.matrix_from_rows(
        [[1 if v in (u, (u + 1) % 20) else 0 for v in range(20)] for u in range(20)]
    )
    start = time.perf_counter()
    assert pm.g_count_dp(band, range(1, 21), (1 << 20) - 1, 0, 0) == 2
    assert time.perf_counter() - start < 2


def test_preimage_quotas():
    assert pm.preimage_quotas(0, 3) == ((0,), (0,))
    assert pm.preimage_quotas(4, 1) == ((4,), (0,))
    assert pm.preimage_quotas(4, 2) == ((2, 2), (1, 0))
    assert pm.preimage_quotas(4, 3) == ((2, 2, 0), (1, 1, 0))
    assert pm.preimage_quotas(5, 4) == ((2, 2, 1, 0), (1, 1, 1, 0))
    assert pm.preimage_quotas(2, 4) == ((1, 1, 0), (1, 1, 0))


def test_per_trace_factor_count_is_theta():
    """With theta dividing |S1|, every trace contributes exactly theta
    segment factors: theta - 1 flagged plus the final unflagged one."""
    for size, theta in ((4, 2), (6, 3), (6, 2), (3, 3)):
        quotas, flags = pm.preimage_quotas(size, theta)
        assert len(quotas) == theta
        assert flags == (1,) * (theta - 1) + (0,)


def test_f_count_traces_empty_target_theta_1():
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n)
        eq0 = rng.randint(0, (1 << n) - 1)
        assert pm.f_count_traces(m, 0, eq0, 1) == pm.g_count_dp(
            m, range(1, n + 1), 0, eq0, 0
        )


def test_f_count_traces_matches_brute():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 6)
        m = random_matrix(rng, n)
        full = (1 << n) - 1
        eq1 = rng.randint(0, full)
        eq0 = rng.randint(0, full) & ~eq1
        theta = rng.choice([1, 2, 3, 4])
        assert pm.f_count_traces(m, eq1, eq0, theta) == f_count(
            mapping_coverages(m), pm.FSpec(eq1, eq0, 0)
        )


def greedy_trace(choice, n, eq1_mask, quotas):
    """The unique trace of an exactly-once mapping: breakpoints + blocks."""
    is_preimage = [bool(bit & eq1_mask) for bit in choice]
    segments = []
    position = 0
    for quota in quotas[:-1]:
        taken, end = 0, position
        while taken < quota:
            end += 1
            if is_preimage[end - 1]:
                taken += 1
        segments.append((position, end))
        position = end
    segments.append((position, n))
    blocks = []
    for start, end in segments:
        block = 0
        for u in range(start, end):
            if is_preimage[u]:
                block |= choice[u]
        blocks.append(block)
    return tuple(segments), tuple(blocks)


def test_trace_uniqueness_audit():
    """Every mapping lands in exactly one trace and each trace's product
    reproduces its histogram bucket."""
    rng = random.Random(6)
    for _ in range(40):
        n = rng.randint(2, 5)
        m = random_matrix(rng, n, density=0.7)
        full = (1 << n) - 1
        eq1 = rng.randint(1, full)
        eq0 = rng.randint(0, full) & ~eq1
        theta = rng.choice([2, 3])
        quotas, flags = pm.preimage_quotas(bin(eq1).count("1"), theta)
        pools = [
            [1 << b for b in range(n) if m.row_masks[u] >> b & 1] for u in range(n)
        ]
        histogram = {}
        total = 0
        for choice in product(*pools):
            once = multi = 0
            for bit in choice:
                if bit & once:
                    once ^= bit
                    multi |= bit
                elif not bit & multi:
                    once |= bit
            if eq1 & ~once or eq0 & (once | multi):
                continue
            total += 1
            trace = greedy_trace(choice, n, eq1, quotas)
            histogram[trace] = histogram.get(trace, 0) + 1
        assert sum(histogram.values()) == total == pm.f_count_traces(m, eq1, eq0, theta)
        for (segments, blocks), expected in histogram.items():
            got = 1
            for (start, end), block, flag in zip(segments, blocks, flags):
                got *= pm.g_count_dp(
                    m, range(start + 1, end + 1), block, eq0 | (eq1 & ~block), flag
                )
            assert got == expected


def test_permanent_via_formulation_known_values():
    identity4 = pm.matrix_from_rows(
        [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    )
    assert pm.permanent_via_formulation(identity4, 0.5, 2) == 1
    ones4 = pm.matrix_from_rows([[1] * 4 for _ in range(4)])
    assert pm.permanent_via_formulation(ones4, 0.5, 2) == 24


def test_permanent_chain_random():
    rng = random.Random(7)
    for _ in range(120):
        n = rng.randint(1, 6)
        m = random_matrix(rng, n)
        expected = pm.permanent_brute(m)
        assert pm.permanent_via_formulation(m, 0.5, 2) == expected
        assert pm.permanent_via_formulation(m, 0.5, 1) == expected


def test_one_segment_trace_count_is_the_subset_dp():
    """At theta = 1 the trace count of every f_expand term is the single
    unflagged subset DP over rows 1..n."""
    rng = random.Random(19)
    for _ in range(80):
        n = rng.randint(1, 7)
        m = random_matrix(rng, n)
        for alpha in (0, 0.25, 0.5, 0.75, 1):
            s_eq1 = (1 << math.ceil(alpha * n)) - 1
            for _, spec in pm.f_expand(m, s_eq1, alpha):
                assert pm.f_count_traces(m, spec.eq1, spec.eq0, 1) == pm.g_count_dp(
                    m, range(1, n + 1), spec.eq1, spec.eq0, 0
                )


def test_permanent_alpha_theta_variants():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = random_matrix(rng, n)
        expected = pm.permanent_brute(m)
        for alpha, theta in ((0.25, 2), (0.5, 3), (0.75, 1), (1.0, 2)):
            assert pm.permanent_via_formulation(m, alpha, theta) == expected


def test_all_ones_lane_width_boundary():
    """On the all-ones matrix with S1 empty, lane 0 ends at n**n, exactly
    the product of the row degrees that fixes the lane width."""
    for n in range(1, 11):
        ones = pm.matrix_from_rows([[1] * n for _ in range(n)])
        for theta in range(1, 5):
            assert pm.f_count_traces(ones, 0, 0, theta) == n**n
            assert pm.permanent_via_formulation(ones, 0.5, theta) == math.factorial(n)


def test_sweeps_per_f_count_traces(monkeypatch):
    """One backward sweep plus one forward sweep per distinct start of a
    non-final segment: two at theta = 2, at most n + 1 at theta = 3."""
    calls = []
    sweep = pm._sweep

    def counted(*args):
        calls.append(args)
        return sweep(*args)

    monkeypatch.setattr(pm, "_sweep", counted)
    rng = random.Random(20)
    for n in range(2, 9):
        m = random_matrix(rng, n, density=0.6)
        for _, spec in pm.f_expand(m, (1 << -(-n // 2)) - 1, 0.5):
            calls.clear()
            pm.f_count_traces(m, spec.eq1, spec.eq0, 2)
            assert len(calls) == 2
            calls.clear()
            pm.f_count_traces(m, spec.eq1, spec.eq0, 3)
            assert len(calls) <= n + 1


def test_ryser_matches_brute():
    rng = random.Random(21)
    for n in range(9):
        for _ in range(10):
            m = random_matrix(rng, n, density=rng.choice([0.3, 0.6, 0.9]))
            assert permanent_ryser(m) == pm.permanent_brute(m)


def test_formulation_matches_ryser_past_the_cap(set_cap):
    """Past the library cap, checked against Ryser's formula, which shares
    no code with the signed coverage chain."""
    set_cap("permanent_formulation", 13)
    rng = random.Random(22)
    for n in (11, 12, 13):
        for theta in (1, 2, 3):
            m = random_matrix(rng, n, density=0.6)
            expected = permanent_ryser(m)
            assert expected > 0
            assert pm.permanent_via_formulation(m, 0.5, theta) == expected
