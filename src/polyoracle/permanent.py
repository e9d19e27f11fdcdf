"""Binary permanent via coverage-constrained mapping counts.

The permanent of a 0/1 matrix equals the number of perfect matchings of the
bipartite graph G(L, R, E) with (u, v) an edge iff a[u][v] = 1, which in turn
equals F(S1, {}, R \\ S1) for any S1 -- the number of edge-respecting mappings
L -> R covering S1 exactly once and the rest at least once.  Everything here
counts mappings; sets of right-hand vertices are bitmasks (bit v-1 for
column v).

Pipeline (desk scale throughout):

  f_expand        -- eliminate the at-least-once constraints through
                     |F(.., S>=1)| = |F(.., S>=1 - v)| - |F(S0+v, S>=1 - v)|,
                     yielding 2**(n - |S1|) signed terms with empty S>=1;
  f_count_traces  -- count each term by splitting L into consecutive
                     segments, each owning a fixed quota of S1-preimages;
                     a trace (segment breakpoints + preimage block
                     assignment) classifies every mapping uniquely, and the
                     per-trace count is a product of segment counts.  A
                     non-final segment's flag forces its last vertex to be
                     a preimage, which pins the greedy breakpoints and makes
                     traces disjoint.  The sum over traces is one sweep over
                     the rows with one packed state per segment; no segment
                     count is ever read out on its own.

A state runs the subset DP over every subset D of S1 at once, in one Python
int: lane D, a fixed width of w bits, counts the mappings of the rows swept
so far that cover exactly D once.  A lane never exceeds the product of the
row degrees, and w is that product's bit length, so no lane carries into the
next and every count stays exact.

permanent_via_formulation is the whole chain: the signed sum of f_expand's
terms.  The terms differ only in S0, and the sweep reads S0 only through
each row's free count, so one sweep counts many terms at once: the first P
columns of R \\ S1, the packed columns, widen each lane index to (t, D), one
group of 2**|S1| lanes per subset t of them, and lane (t, D) counts as if t
were joined to S0.  A row's free count in group t is its count outside S1,
S0 and the packed columns plus its packed columns that t leaves open, so a
state steps in all groups at once.  P is the largest with w * 2**(|S1| + P)
at most _PACK_BITS bits; the other columns of R \\ S1 still take one sweep
per subset.  f_count_traces is the case with no packed columns.  The
sweep's tables (each row's S1 positions and packed columns with their lane
masks, the lane width and the segment-end masks) depend on S1, theta and
the packing but not on S0, so they are built once per call
(``_trace_tables``), and every sweep of the call reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from math import ceil
from typing import NamedTuple, Sequence

from .errors import ValueOutOfRange, check


@dataclass(frozen=True)
class BinaryMatrix:
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        for row in self.entries:
            if len(row) != n:
                raise ValueOutOfRange("matrix must be square")
            for value in row:
                if value not in (0, 1):
                    raise ValueOutOfRange("entries must be 0/1")

    @property
    def n(self) -> int:
        return len(self.entries)

    @cached_property
    def row_masks(self) -> tuple[int, ...]:
        """Neighborhood of each left vertex as a column bitmask."""
        return tuple(
            sum(1 << (v - 1) for v in range(1, self.n + 1) if row[v - 1])
            for row in self.entries
        )


def matrix_from_rows(rows: Sequence[Sequence[int]]) -> BinaryMatrix:
    return BinaryMatrix(tuple(tuple(int(x) for x in row) for row in rows))


def matrix_from_text(text: str) -> BinaryMatrix:
    """Parse the n-lines-of-n-characters format; each character is 0 or 1."""
    lines = [line.strip() for line in text.strip().splitlines() if line.strip()]
    if any(c not in "01" for line in lines for c in line):
        raise ValueOutOfRange("entries must be 0/1")
    return matrix_from_rows([[int(c) for c in line] for line in lines])


@dataclass(frozen=True)
class FSpec:
    """Coverage constraints: exactly-once, never, at-least-once (disjoint masks)."""

    eq1: int
    eq0: int
    ge1: int

    def __post_init__(self) -> None:
        if self.eq1 & self.eq0 or self.eq1 & self.ge1 or self.eq0 & self.ge1:
            raise ValueOutOfRange("constraint masks must be pairwise disjoint")


def permanent_brute(matrix: BinaryMatrix) -> int:
    """Permutation enumeration with dead-branch pruning; the reference oracle."""
    check("permanent_brute", matrix.n)
    return _matchings_from(matrix.row_masks, 0, 0)


def _matchings_from(masks: Sequence[int], u: int, used: int) -> int:
    if u == len(masks):
        return 1
    total = 0
    free = masks[u] & ~used
    while free:
        bit = free & -free
        total += _matchings_from(masks, u + 1, used | bit)
        free ^= bit
    return total


def f_expand(matrix: BinaryMatrix, s_eq1: int, alpha: float) -> list[tuple[int, FSpec]]:
    """Expand F(S1, {}, R - S1) into 2**(n - |S1|) signed terms with empty S>=1.

    Repeated application of the elimination identity turns the at-least-once
    set into a signed sum over its subsets T moved into the never-covered
    position, with sign (-1)**|T|.
    """
    n = matrix.n
    expected = ceil(alpha * n)
    if s_eq1.bit_count() != expected:
        raise ValueOutOfRange(f"|S1| must be ceil(alpha * n) = {expected}")
    rest = ((1 << n) - 1) & ~s_eq1
    terms: list[tuple[int, FSpec]] = []
    t = rest
    while True:
        sign = -1 if t.bit_count() % 2 else 1
        terms.append((sign, FSpec(eq1=s_eq1, eq0=t, ge1=0)))
        if t == 0:
            break
        t = (t - 1) & rest
    terms.reverse()
    return terms


def preimage_quotas(size: int, theta: int) -> tuple[int, ...]:
    """Per-segment preimage quotas for splitting |S1| = size.

    Non-final segments take ceil(size / theta) preimages and carry the
    endpoint flag; the final segment takes the remainder unflagged.  Flagged
    segments with a zero quota are dropped (they would admit no mapping), so
    size = 0 degenerates to a single unflagged segment.
    """
    if theta < 1:
        raise ValueOutOfRange("theta must be >= 1")
    if size == 0 or theta == 1:
        return (size,)
    quota = -(-size // theta)
    flagged: list[int] = []
    remaining = size
    for _ in range(theta - 1):
        take = min(quota, remaining)
        if take == 0:
            break
        flagged.append(take)
        remaining -= take
    return tuple(flagged) + (remaining,)


def f_count_traces(matrix: BinaryMatrix, s_eq1: int, s_eq0: int, theta: int) -> int:
    """|F(S1, S0, {})| as a sum over traces of products of segment counts.

    A trace fixes segment breakpoints p_1 < ... < p_{g-1} in L and an
    assignment of S1 into per-segment blocks W(j) matching the quotas.  Each
    mapping has exactly one trace (greedy minimal breakpoints, enforced by
    the endpoint flag), so the per-trace products sum to the total.

    The sum is one row sweep with one packed state per segment
    (``_count_traces``), over tables built once per call (``_trace_tables``)
    with no packed columns: one group of lanes, one sweep.
    """
    if s_eq1 & s_eq0:
        raise ValueOutOfRange("constraint masks must be disjoint")
    return _count_traces(matrix, s_eq0, _trace_tables(matrix, s_eq1, theta, 0))[0]


# Bits a packed state may reach before permanent_via_formulation stops packing
# columns of R - S1 into lanes: past it, the big-int work of one wide sweep
# outgrows the per-sweep Python overhead that packing saves.  Measured on a
# 2-core Xeon, CPython 3.11, 55% ones, alpha 0.5, theta 2: n = 10 takes 0.42,
# 0.27 and 0.24 ms at 2**13, 2**14 and 2**15 bits, n = 12 2.4, 1.5 and
# 1.3 ms; 2**16 to 2**18 gain nothing past noise up to n = 16, and 2**18
# makes n = 18 about 10% slower (180 against 165 ms).
_PACK_BITS = 1 << 15


class _Tables(NamedTuple):
    # moves[u - 1]: (lack[p], width << p) for each S1 position p row u covers.
    moves: list[list[tuple[int, int]]]
    # opens[u - 1]: open[q] for each packed column q row u covers.
    opens: list[list[int]]
    # ends[j]: the lanes whose D has popcount the quotas of segments 0..j
    # summed, in every group.
    ends: list[int]
    # A 1 in lane (t, {}) for every t: the sweep's first state.
    start: int
    # S1 and the packed columns, as a column bitmask.
    blocked: int
    # Lane width w, the bit offset of lane (0, S1), and the number 2**P of
    # groups, one per subset t of the packed columns.
    width: int
    top: int
    groups: int


def _replicate(pattern: int, span: int, total: int) -> int:
    """``pattern``, which lies below bit ``span``, repeated every ``span``
    bits up to bit ``total``, by doubling."""
    while span < total:
        pattern |= pattern << span
        span *= 2
    return pattern


def _trace_tables(matrix: BinaryMatrix, s_eq1: int, theta: int, pack: int) -> _Tables:
    """The sweep's tables for S1 = ``s_eq1``, packing a prefix of the columns
    ``pack`` (disjoint from S1) into lanes.  A group holds 2**|S1| lanes, so
    |S1| is bounded by the g_target cap.

    Lane (t, D) of a state -- bits (t * 2**|S1| + D) * w up to the next lane,
    D a subset of the positions 0..|S1|-1 of S1's columns in increasing order
    and t a subset of the positions 0..P-1 of the packed columns -- counts
    mappings of the rows swept so far that also never cover t.  One
    segment's state counts each such mapping at most once (its earlier
    breakpoints are fixed), and a row has at most its degree of choices, so
    w, the bit length of the product of the row degrees (a zero degree taken
    as 1), keeps every lane exact: no lane carries into the next.

    The packed columns are the first P columns of ``pack``, P the largest
    with w * 2**(|S1| + P) <= _PACK_BITS (0 when one group alone is wider).
    Every mask is a one-group pattern replicated over the groups by doubling,
    in O((|S1| + P)**2) big-int operations.
    """
    check("g_target", s_eq1.bit_count())
    bits = [b for b in range(matrix.n) if s_eq1 >> b & 1]
    size, quotas = len(bits), preimage_quotas(len(bits), theta)
    bound = 1
    for mask in matrix.row_masks:
        bound *= mask.bit_count() or 1
    width = bound.bit_length()
    packed = [b for b in range(pack.bit_length()) if pack >> b & 1]
    npacked = 0
    while npacked < len(packed) and width << (size + npacked + 1) <= _PACK_BITS:
        npacked += 1
    packed = packed[:npacked]
    group, total = width << size, width << (size + npacked)
    # lack[i]: all-ones lanes whose index (t, D) has bit i clear -- D lacks
    # S1 position i for i < |S1|, and t leaves packed column i - |S1| open.
    lack = [
        _replicate((1 << (width << i)) - 1, width << (i + 1), total)
        for i in range(size + npacked)
    ]
    # pop[k]: all-ones lanes of popcount k, over the positions doubled in so far.
    goals = list(accumulate(quotas[:-1]))
    keep = max(goals, default=0) + 1
    pop = [(1 << width) - 1]
    for p in range(size):
        pop = [a | b << (width << p) for a, b in zip(pop + [0], [0] + pop)][:keep]
    return _Tables(
        [[(lack[p], width << p) for p, b in enumerate(bits) if mask >> b & 1]
         for mask in matrix.row_masks],
        [[lack[size + q] for q, b in enumerate(packed) if mask >> b & 1]
         for mask in matrix.row_masks] if packed else [[]] * matrix.n,
        [_replicate(pop[goal], group, total) for goal in goals],
        _replicate(1, group, total),
        s_eq1 | sum(1 << b for b in packed),
        width,
        group - width,
        1 << npacked,
    )


def _count_traces(matrix: BinaryMatrix, s_eq0: int, tables: _Tables) -> list[int]:
    """f_count_traces of S1 and S0 = ``s_eq0`` joined with each subset t of
    the packed columns, given ``_trace_tables`` of S1; ``s_eq0`` must miss S1
    and the packed columns.  Entry t of the list is |F(S1, S0 + t, {})|.

    One sweep over the rows keeps a packed state per segment: lane (t, D) of
    states[j] counts the mappings of the rows so far whose segments before j
    have ended, covering the S1 positions D exactly once and otherwise only
    columns outside S1, S0 and t.  Per row, each segment from last to first
    steps as the one-segment subset DP does: ``moved`` shifts every lane
    lacking a position p the row covers up by 2**p lanes, ``stay`` keeps
    each lane times its free count -- the row's columns outside S1, S0 and
    the packed columns, plus, through ``open[q]``, each packed column q the
    row covers that t leaves open -- and ``h = stay + moved``.  A non-final
    segment ends at a row that maps into S1 and brings its popcount to its
    summed quotas -- the endpoint flag -- so ``moved & ends[j]`` starts the
    next segment's state, whose step for this row is already done.  The
    counts are the final state's lanes (t, S1).
    """
    moves, opens, ends = tables.moves, tables.opens, tables.ends
    blocked = tables.blocked | s_eq0
    states = [tables.start] + [0] * len(ends)
    for nbr, row, row_opens in zip(matrix.row_masks, moves, opens):
        free = (nbr & ~blocked).bit_count()
        for j in range(len(ends), -1, -1):
            h = states[j]
            if not h:
                continue
            moved = 0
            for lack, shift in row:
                moved += (h & lack) << shift
            stay = h * free
            for open_q in row_opens:
                stay += h & open_q
            states[j] = stay + moved
            if j < len(ends):
                states[j + 1] += moved & ends[j]
    final, lane = states[-1] >> tables.top, (1 << tables.width) - 1
    group = tables.top + tables.width
    counts = []
    for _ in range(tables.groups):
        counts.append(final & lane)
        final >>= group
    return counts


def permanent_via_formulation(matrix: BinaryMatrix, alpha: float = 0.5, theta: int = 2) -> int:
    """Permanent as the signed sum of trace-decomposed mapping counts.

    f_expand's term for S0 = T has sign (-1)**|T|.  T splits into T2, its
    unpacked columns, and t, its packed ones, so one sweep per T2 counts the
    2**P terms that share it, each in its own group of lanes.
    """
    if not 0 <= alpha <= 1:
        raise ValueOutOfRange("alpha must lie in [0, 1]")
    if theta < 1:
        raise ValueOutOfRange("theta must be >= 1")
    n = matrix.n
    check("permanent_formulation", n)
    if n == 0:
        return 1
    full, s_eq1 = (1 << n) - 1, (1 << ceil(alpha * n)) - 1
    tables = _trace_tables(matrix, s_eq1, theta, full & ~s_eq1)
    unpacked = full & ~tables.blocked
    total = 0
    t2 = unpacked
    while True:
        signed = 0
        for t, count in enumerate(_count_traces(matrix, t2, tables)):
            signed += -count if t.bit_count() % 2 else count
        total += -signed if t2.bit_count() % 2 else signed
        if not t2:
            break
        t2 = (t2 - 1) & unpacked
    if total < 0:
        raise AssertionError("signed permanent chain produced a negative total")
    return total
