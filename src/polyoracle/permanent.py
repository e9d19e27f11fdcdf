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
                     per-trace count is a product of segment counts, each
                     read as one lane of a packed sweep: one flagged sweep
                     per distinct start of a non-final segment, plus one
                     unflagged sweep from row n down for the final segment
                     (two sweeps in all at theta = 2);
  g_count_dp      -- the segment count: subset DP over covered S1-elements,
                     with an optional flag forcing the segment's last vertex
                     to be a preimage (which is what pins the greedy
                     breakpoints and makes traces disjoint).

The sweep (``_sweep``) runs the subset DP over every subset C of S1 at once,
in one Python int: lane C, a fixed width of w bits, counts the mappings of
the rows swept so far that cover exactly C once.  A lane never exceeds the
product of the swept rows' choice counts (each at most the row's degree),
and w is that product's bit length, so no lane carries into the next and
every count stays exact.

permanent_via_formulation is the whole chain: the signed sum of f_expand's
terms, each counted by f_count_traces.  At theta = 1 a trace is one unflagged
segment over all rows, so each term costs a single sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import ceil
from typing import Iterator, Sequence

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
    """Parse the n-lines-of-n-characters format."""
    lines = [line.strip() for line in text.strip().splitlines() if line.strip()]
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


def g_count_dp(
    matrix: BinaryMatrix, rows: Sequence[int], s_eq1: int, s_eq0: int, flag: int
) -> int:
    """Segment count G_K: mappings from ``rows`` covering s_eq1 exactly once,
    avoiding s_eq0 and everything else in S1, with the flag forcing the last
    (maximum) row to map into s_eq1.  ``rows`` must increase strictly
    within 1..n.

    The full lane of one packed sweep over the subsets of S1 (see
    ``_sweep``): O(2**|S1|) lanes per row, in a few big-integer operations.
    """
    n = matrix.n
    rows = list(rows)
    if any(not 1 <= u <= n for u in rows) or any(a >= b for a, b in zip(rows, rows[1:])):
        raise ValueOutOfRange(f"rows must increase strictly within 1..{n}")
    if s_eq1 & s_eq0:
        raise ValueOutOfRange("constraint masks must be disjoint")
    s_eq1 &= (1 << n) - 1
    check("g_target", s_eq1.bit_count())
    blocked = s_eq1 | s_eq0
    free = [(nbr & ~blocked).bit_count() for nbr in matrix.row_masks]
    width, counts = _sweep(matrix, rows, s_eq1, free, flag)
    # The full lane is the top one: nothing lies above it.
    return counts[-1] >> (((1 << s_eq1.bit_count()) - 1) * width)


def _sweep(
    matrix: BinaryMatrix, rows: Sequence[int], s_eq1: int, free: Sequence[int], flag: int
) -> tuple[int, list[int]]:
    """One subset DP over all of S1 = s_eq1 along ``rows``, packed into ints.

    Returns (w, counts).  Lane C of counts[i] -- bits C*w up to (C+1)*w,
    where C is a subset of the positions 0..|S1|-1 of S1's columns in
    increasing order -- is the segment count G_K of ``rows[:i]`` with block
    C: mappings covering C exactly once and otherwise only the ``free[u - 1]``
    columns open to row u; flagged, the last row of the prefix maps into C.
    Per row, ``moved`` shifts every lane lacking a position p the row covers
    up by 2**p lanes, and ``dp = dp * free + moved``; the flagged count is
    ``moved`` alone.

    A row's choice count is its free columns plus its columns in S1, at most
    its degree (taken as 1 when zero: every lane is 0 after such a row).  No
    lane exceeds the product of the rows' choice counts, and w is that
    product's bit length, so lanes never carry into each other.
    """
    masks = matrix.row_masks
    bits = [b for b in range(matrix.n) if s_eq1 >> b & 1]
    covs = [[p for p, b in enumerate(bits) if masks[u - 1] >> b & 1] for u in rows]
    bound = 1
    for u, cov in zip(rows, covs):
        bound *= free[u - 1] + len(cov) or 1
    width = bound.bit_length()
    total = width << len(bits)
    # lack[p]: all-ones lanes where position p is uncovered, built by doubling.
    lack = {}
    for p in {p for cov in covs for p in cov}:
        period = width << p
        mask, span = (1 << period) - 1, 2 * period
        while span < total:
            mask |= mask << span
            span *= 2
        lack[p] = mask
    # No rows: nothing to flag, and only the empty block is covered.
    dp = 1
    counts = [0 if flag else dp]
    for u, cov in zip(rows, covs):
        moved = 0
        for p in cov:
            moved += (dp & lack[p]) << (width << p)
        dp = dp * free[u - 1] + moved
        counts.append(moved if flag else dp)
    return width, counts


def preimage_quotas(size: int, theta: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-segment preimage quotas and flags for splitting |S1| = size.

    Non-final segments take ceil(size / theta) preimages and carry the
    endpoint flag; the final segment takes the remainder unflagged.  Flagged
    segments with a zero quota are dropped (they would admit no mapping), so
    size = 0 degenerates to a single unflagged segment.
    """
    if theta < 1:
        raise ValueOutOfRange("theta must be >= 1")
    if size == 0 or theta == 1:
        return (size,), (0,)
    quota = -(-size // theta)
    flagged: list[int] = []
    remaining = size
    for _ in range(theta - 1):
        take = min(quota, remaining)
        if take == 0:
            break
        flagged.append(take)
        remaining -= take
    return tuple(flagged) + (remaining,), (1,) * len(flagged) + (0,)


def _ordered_partitions(bits: tuple[int, ...], sizes: Sequence[int]) -> Iterator[list[int]]:
    """Ordered partitions of ``bits`` into parts of the given sizes, as masks;
    the sizes sum to len(bits), so the last part is whatever is left."""
    head, *tail = sizes
    if not tail:
        yield [sum(1 << b for b in bits)]
        return
    for chosen in combinations(bits, head):
        mask = sum(1 << b for b in chosen)
        rest = tuple(b for b in bits if not mask >> b & 1)
        for others in _ordered_partitions(rest, tail):
            yield [mask, *others]


def f_count_traces(matrix: BinaryMatrix, s_eq1: int, s_eq0: int, theta: int) -> int:
    """|F(S1, S0, {})| as a sum over traces of products of segment counts.

    A trace fixes segment breakpoints p_1 < ... < p_{g-1} in L and an
    assignment of S1 into per-segment blocks W(j) matching the quotas.  Each
    mapping has exactly one trace (greedy minimal breakpoints, enforced by
    the endpoint flag), so the per-trace products sum to the total.

    Every segment count is a lane of a packed sweep (``_sweep``): one flagged
    sweep from each distinct start of a non-final segment counts it for every
    end and block, and the final segment is unflagged, so its count does not
    depend on row order and one sweep from row n down counts it for every
    start and block.  At theta = 2 that is two sweeps in all.
    """
    if s_eq1 & s_eq0:
        raise ValueOutOfRange("constraint masks must be disjoint")
    n = matrix.n
    size = (s_eq1 & ((1 << n) - 1)).bit_count()
    quotas, flags = preimage_quotas(size, theta)
    segments = len(quotas)
    # Every segment blocks all of S1 and S0 outside its own block W.
    blocked = s_eq1 | s_eq0
    free = [(nbr & ~blocked).bit_count() for nbr in matrix.row_masks]
    partitions = list(_ordered_partitions(tuple(range(size)), quotas))

    backward = _sweep(matrix, range(n, 0, -1), s_eq1, free, 0)
    forward: dict[int, tuple[int, list[int]]] = {}
    total = 0
    for cuts in combinations(range(1, n + 1), segments - 1):
        bounds = (0, *cuts, n)
        if any(bounds[j + 1] - bounds[j] < quotas[j] for j in range(segments)):
            continue
        # Segment j's packed counts over every block, and their lane width.
        tables = []
        for j in range(segments - 1):
            start = bounds[j]
            if start not in forward:
                forward[start] = _sweep(matrix, range(start + 1, n + 1), s_eq1, free, flags[j])
            width, counts = forward[start]
            tables.append((counts[bounds[j + 1] - start], width))
        width, counts = backward
        tables.append((counts[n - bounds[-2]], width))
        if not all(packed for packed, _ in tables):
            continue
        for blocks in partitions:
            product = 1
            for (packed, width), block in zip(tables, blocks):
                product *= (packed >> block * width) & ((1 << width) - 1)
                if not product:
                    break
            total += product
    return total


def permanent_via_formulation(matrix: BinaryMatrix, alpha: float = 0.5, theta: int = 2) -> int:
    """Permanent as the signed sum of trace-decomposed mapping counts."""
    if not 0 <= alpha <= 1:
        raise ValueOutOfRange("alpha must lie in [0, 1]")
    if theta < 1:
        raise ValueOutOfRange("theta must be >= 1")
    n = matrix.n
    check("permanent_formulation", n)
    if n == 0:
        return 1
    s_eq1 = (1 << ceil(alpha * n)) - 1
    total = 0
    for sign, spec in f_expand(matrix, s_eq1, alpha):
        total += sign * f_count_traces(matrix, spec.eq1, spec.eq0, theta)
    if total < 0:
        raise AssertionError("signed permanent chain produced a negative total")
    return total
