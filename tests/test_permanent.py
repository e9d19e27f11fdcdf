"""Permanent chain: brute oracle, F-counts, expansion identity, traces, DP."""

import math
import random
import time
from itertools import product

import pytest

import polyoracle.permanent as pm
from polyoracle.errors import CapExceeded, ValueOutOfRange
from oracles import f_count, mapping_coverages, permanent_ryser
from routes import g_count_dp, random_matrix


def test_permanent_brute_known_values():
    assert pm.permanent_brute(pm.matrix_from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 1
    assert pm.permanent_brute(pm.matrix_from_rows([[1, 1, 1], [1, 1, 1], [1, 1, 1]])) == 6
    assert pm.permanent_brute(pm.matrix_from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])) == 2


def test_permanent_brute_cap():
    with pytest.raises(CapExceeded):
        pm.permanent_brute(pm.matrix_from_rows([[0] * 11 for _ in range(11)]))


def test_permanent_caps_are_separate(set_cap):
    """The formulation route has its own cap, not the brute route's."""
    ones = pm.matrix_from_rows([[1] * 6 for _ in range(6)])
    set_cap("permanent_brute", 5)
    with pytest.raises(CapExceeded, match="cap permanent_brute exceeded"):
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
    # "12" is not 0/1; neither are Arabic-Indic or fullwidth digits, though int() reads them.
    for text in ["12\n34", "\u0661\u0660\n\u0660\u0661", "1\uff11\n11"]:
        with pytest.raises(ValueOutOfRange, match="entries must be 0/1"):
            pm.matrix_from_text(text)


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


def test_g_count_dp_base_cases():
    m = pm.matrix_from_rows([[1, 1], [1, 1]])
    assert g_count_dp(m, [], 0, 0, 0) == 1
    assert g_count_dp(m, [], 0, 0, 1) == 0
    assert g_count_dp(m, [], 0b01, 0, 0) == 0


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
        assert g_count_dp(m, rows, eq1, eq0, flag) == expected


def test_g_count_dp_band_at_the_g_target_cap():
    """All 20 columns as S1, the g_target cap: the packed sweep holds 2**20
    lanes, and the count is the band's two perfect matchings, as one sweep
    and through f_count_traces at theta = 1."""
    band = pm.matrix_from_rows(
        [[1 if v in (u, (u + 1) % 20) else 0 for v in range(20)] for u in range(20)]
    )
    start = time.perf_counter()
    assert g_count_dp(band, range(1, 21), (1 << 20) - 1, 0, 0) == 2
    assert pm.f_count_traces(band, (1 << 20) - 1, 0, 1) == 2
    assert time.perf_counter() - start < 2


def test_preimage_quotas():
    assert pm.preimage_quotas(0, 3) == (0,)
    assert pm.preimage_quotas(4, 1) == (4,)
    assert pm.preimage_quotas(4, 2) == (2, 2)
    assert pm.preimage_quotas(4, 3) == (2, 2, 0)
    assert pm.preimage_quotas(5, 4) == (2, 2, 1, 0)
    assert pm.preimage_quotas(2, 4) == (1, 1, 0)


def test_per_trace_factor_count_is_theta():
    """With theta dividing |S1|, every trace contributes exactly theta
    segment factors: theta - 1 flagged plus the final unflagged one."""
    for size, theta in ((4, 2), (6, 3), (6, 2), (3, 3)):
        assert len(pm.preimage_quotas(size, theta)) == theta


def test_f_count_traces_empty_target_theta_1():
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n)
        eq0 = rng.randint(0, (1 << n) - 1)
        assert pm.f_count_traces(m, 0, eq0, 1) == g_count_dp(
            m, range(1, n + 1), 0, eq0, 0
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
        quotas = pm.preimage_quotas(bin(eq1).count("1"), theta)
        flags = (1,) * (len(quotas) - 1) + (0,)  # every non-final segment is flagged
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
                got *= g_count_dp(
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


def test_all_ones_lane_width_boundary():
    """On the all-ones matrix with S1 empty, lane 0 ends at n**n, exactly
    the product of the row degrees that fixes the lane width."""
    for n in range(1, 11):
        ones = pm.matrix_from_rows([[1] * n for _ in range(n)])
        for theta in range(1, 5):
            assert pm.f_count_traces(ones, 0, 0, theta) == n**n
            assert pm.permanent_via_formulation(ones, 0.5, theta) == math.factorial(n)


def test_trace_tables_built_once_per_call(monkeypatch):
    """The sweep's tables (lane width, lane masks, segment-end masks, packed
    columns) depend on S1, theta and the packing alone:
    permanent_via_formulation builds them once and sweeps once per subset of
    the columns of R - S1 it leaves unpacked -- all 2**(n - |S1|) of them
    with packing off -- and f_count_traces builds them once and sweeps once,
    packing nothing."""
    builds, sweeps = [], []
    build, sweep = pm._trace_tables, pm._count_traces

    def counted_build(*args):
        builds.append(build(*args))
        return builds[-1]

    def counted_sweep(*args):
        sweeps.append(args)
        return sweep(*args)

    monkeypatch.setattr(pm, "_trace_tables", counted_build)
    monkeypatch.setattr(pm, "_count_traces", counted_sweep)
    rng = random.Random(20)
    for n in range(2, 9):
        m = random_matrix(rng, n, density=0.6)
        s_eq1 = (1 << -(-n // 2)) - 1
        for theta in (1, 2, 3, 4):
            for pack_bits in (0, pm._PACK_BITS):
                monkeypatch.setattr(pm, "_PACK_BITS", pack_bits)
                builds.clear()
                sweeps.clear()
                assert pm.permanent_via_formulation(m, 0.5, theta) == pm.permanent_brute(m)
                unpacked = ((1 << n) - 1) & ~builds[0].blocked
                assert len(builds) == 1 and len(sweeps) == 2 ** unpacked.bit_count()
                if not pack_bits:
                    assert unpacked == ((1 << n) - 1) & ~s_eq1
            for _, spec in pm.f_expand(m, s_eq1, 0.5):
                builds.clear()
                sweeps.clear()
                pm.f_count_traces(m, spec.eq1, spec.eq0, theta)
                assert len(builds) == len(sweeps) == builds[0].groups == 1


def test_every_packing_split_equals_ryser(monkeypatch):
    """With the packing limit forced to pack none, some or all of the columns
    of R - S1, permanent_via_formulation equals Ryser's formula on seeded
    n <= 8 matrices, and each sweep's lane (t, S1) equals f_count_traces of
    the f_expand term whose S0 is t joined to the sweep's unpacked columns."""
    rng = random.Random(42)
    for n in range(9):
        m = random_matrix(rng, n, density=rng.choice([0.4, 0.6, 0.8]))
        expected = permanent_ryser(m)
        for alpha in (0, 0.5, 1):
            s_eq1 = (1 << math.ceil(alpha * n)) - 1
            rest = ((1 << n) - 1) & ~s_eq1
            for theta in range(1, 5):
                lone = pm._trace_tables(m, s_eq1, theta, 0)
                for npacked in sorted({0, rest.bit_count() // 2, rest.bit_count()}):
                    # The largest limit that packs exactly ``npacked`` columns.
                    monkeypatch.setattr(pm, "_PACK_BITS", (lone.top + lone.width) << npacked)
                    assert pm.permanent_via_formulation(m, alpha, theta) == expected
                    tables = pm._trace_tables(m, s_eq1, theta, rest)
                    assert tables.groups == 2**npacked
                    packed = [b for b in range(n) if (tables.blocked & ~s_eq1) >> b & 1]
                    lanes = {}
                    for _, spec in pm.f_expand(m, s_eq1, alpha):
                        t2 = spec.eq0 & ~tables.blocked
                        if t2 not in lanes:
                            lanes[t2] = pm._count_traces(m, t2, tables)
                        t = sum(1 << i for i, b in enumerate(packed) if spec.eq0 >> b & 1)
                        count = pm.f_count_traces(m, spec.eq1, spec.eq0, theta)
                        assert lanes[t2][t] == count


def test_formulation_past_the_cap_at_n16(set_cap):
    """With permanent_formulation lifted to 16 in this test only, a seeded
    16 x 16 matrix (55% ones per row, alpha = 0.5, theta = 3) equals Ryser's
    formula, and the formulation takes under 1 s."""
    set_cap("permanent_formulation", 16)
    m = random_matrix(random.Random(16), 16, density=0.55)
    start = time.perf_counter()
    value = pm.permanent_via_formulation(m, 0.5, 3)
    elapsed = time.perf_counter() - start
    assert value == permanent_ryser(m) > 0
    assert elapsed < 1, f"took {elapsed:.2f} s"
