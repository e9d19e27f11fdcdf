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
                     per-trace count is a product of segment DP counts;
                     one DP sweep from each (start, block) gives a flagged
                     segment's count for every end, and one sweep per block
                     from row n down gives the unflagged final segment's
                     count for every start;
  g_count_dp      -- the segment count: subset DP over covered S1-elements,
                     with an optional flag forcing the segment's last vertex
                     to be a preimage (which is what pins the greedy
                     breakpoints and makes traces disjoint).

permanent_via_formulation is the whole chain: the signed sum of f_expand's
terms, each counted by f_count_traces.  At theta = 1 a trace is one unflagged
segment over all rows, so each term costs a single subset DP.
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
    (maximum) row to map into s_eq1.

    Subset DP over covered S1-elements: O(2**|S1|) states per row.
    """
    if s_eq1 & s_eq0:
        raise ValueOutOfRange("constraint masks must be disjoint")
    check("g_target", (s_eq1 & ((1 << matrix.n) - 1)).bit_count())
    blocked = s_eq1 | s_eq0
    free = [(nbr & ~blocked).bit_count() for nbr in matrix.row_masks]
    return _segment_counts(matrix, rows, s_eq1, free, flag)[-1]


def _segment_counts(
    matrix: BinaryMatrix, rows: Sequence[int], w_mask: int, free: Sequence[int], flag: int
) -> list[int]:
    """Entry i: the segment count G_K of ``rows[:i]``, for i = 0..len(rows),
    from one sweep of the subset DP.  Row u may map outside the blocked
    columns in ``free[u - 1]`` ways or onto a still-uncovered element of
    ``w_mask``; a flagged count makes the last row of its prefix do the latter.
    """
    bits = [b for b in range(matrix.n) if w_mask >> b & 1]
    full = (1 << len(bits)) - 1
    masks = matrix.row_masks
    dp = [0] * (full + 1)
    dp[0] = 1
    # No rows: nothing to flag, and W is covered only when empty.
    counts = [0 if flag or full else 1]
    for i, u in enumerate(rows, 1):
        nbr = masks[u - 1]
        cov = [1 << p for p, b in enumerate(bits) if nbr >> b & 1]
        row_free = free[u - 1]
        flagged = sum(dp[full ^ bit] for bit in cov)
        counts.append(flagged if flag else flagged + row_free * dp[full])
        if i == len(rows):
            break
        new = [row_free * value for value in dp]
        for cm, value in enumerate(dp):
            if value:
                for bit in cov:
                    if not cm & bit:
                        new[cm | bit] += value
        dp = new
    return counts


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
    """Ordered partitions of ``bits`` into parts of the given sizes, as masks."""
    if not sizes:
        yield []
        return
    head, *tail = sizes
    pool = set(bits)
    for chosen in combinations(bits, head):
        mask = sum(1 << b for b in chosen)
        rest = tuple(sorted(pool - set(chosen)))
        for others in _ordered_partitions(rest, tail):
            yield [mask] + others


def f_count_traces(matrix: BinaryMatrix, s_eq1: int, s_eq0: int, theta: int) -> int:
    """|F(S1, S0, {})| as a sum over traces of products of segment counts.

    A trace fixes segment breakpoints p_1 < ... < p_{g-1} in L and an
    assignment of S1 into per-segment blocks W(j) matching the quotas.  Each
    mapping has exactly one trace (greedy minimal breakpoints, enforced by
    the endpoint flag), so the per-trace products sum to the total.
    """
    if s_eq1 & s_eq0:
        raise ValueOutOfRange("constraint masks must be disjoint")
    n = matrix.n
    bits = tuple(b for b in range(n) if s_eq1 >> b & 1)
    quotas, flags = preimage_quotas(len(bits), theta)
    segments = len(quotas)
    # Every segment blocks all of S1 and S0 outside its own block W.
    blocked = s_eq1 | s_eq0
    free = [(nbr & ~blocked).bit_count() for nbr in matrix.row_masks]
    partitions = list(_ordered_partitions(bits, quotas))
    forward: dict[tuple[int, int, int], list[int]] = {}
    backward: dict[int, list[int]] = {}

    def segment_count(j: int, start: int, end: int, w_mask: int) -> int:
        if j < segments - 1:
            # One sweep from ``start`` counts the segment for every end.
            key = (start, w_mask, flags[j])
            if key not in forward:
                rows = range(start + 1, n + 1)
                forward[key] = _segment_counts(matrix, rows, w_mask, free, flags[j])
            return forward[key][end - start]
        # The final segment is unflagged, so its count does not depend on
        # row order: one sweep from row n down counts it for every start.
        if w_mask not in backward:
            backward[w_mask] = _segment_counts(matrix, range(n, 0, -1), w_mask, free, 0)
        return backward[w_mask][n - start]

    total = 0
    for cuts in combinations(range(1, n + 1), segments - 1):
        bounds = (0, *cuts, n)
        if any(bounds[j + 1] - bounds[j] < quotas[j] for j in range(segments)):
            continue
        for blocks in partitions:
            product = 1
            for j in range(segments):
                product *= segment_count(j, bounds[j], bounds[j + 1], blocks[j])
                if not product:
                    break
            total += product
    return total


def permanent_via_formulation(matrix: BinaryMatrix, alpha: float = 0.5, theta: int = 2) -> int:
    """Permanent as the signed sum of trace-decomposed mapping counts."""
    if not 0 <= alpha <= 1:
        raise ValueOutOfRange("alpha must lie in [0, 1]")
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
