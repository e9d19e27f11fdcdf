"""Set Cover through exact counting: expansion, branching, trace-counted
set partitions.

Universe elements are 1..n, sets are bitmasks (bit e-1 for element e), and a
family is an index-distinguishable sequence: repeated set values count
separately, so sub-collections are index subsets.

The decision chain for "is there a k-cover?":

  hcv_expand_setcover -- replace each set S with all S - T, T inside
                         S intersect [m]; covering becomes hybrid counting:
                         the expanded family has a k-collection covering [n]
                         with [m] covered exactly once iff the original has
                         a k-cover;
  hcv_branch          -- eliminate elements m+1..n one at a time via
                         #HCV(S) = #HCV(S with e dropped) - #HCV(S without
                         the sets containing e), leaving 2**(n-m) signed
                         #Set Partition instances over [m];
  setpartition_via_traces -- count partitions by the trace of their sorted
                         set sequence: greedy blocks A_1 B_1 ... A_q B_q,
                         where each B_j is the family set that pushes the
                         running union past n/theta (the final block may
                         fall short).  Per block, y counts indices equal to
                         B_j and a min-pivot subset DP counts partitions of
                         A_j by sets whose minima precede min(B_j).  B_j is
                         looked up only among the sets whose minimum is the
                         least element left outside A_j: any other B_j
                         would leave that element to a later block, whose
                         elements must all follow min(B_j).  One table, the
                         distinct set values with their multiplicities by
                         minimum, serves both y and z.
                         One recursion gives the count for every k up to a
                         bound, packed into one int with a fixed-width lane
                         per number of sets: multiplying a block's y*z
                         factor by the tail's packed count convolves them
                         over part counts in one big-integer product.
  setcover_min        -- counts every branch instance once, for all k up to
                         the size of a greedy cover (an upper bound on the
                         minimum), and returns the first k whose signed
                         total is positive.

Counts are exact big integers; signed intermediate sums must come out
nonnegative and are asserted to.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from math import comb
from operator import or_
from typing import Sequence

from .errors import PreconditionViolated, ValueOutOfRange, cap_limit, check

SETPARTITION_THETAS = (1, 2, 3)
MAX_BRANCH = 6


@dataclass(frozen=True)
class SetFamily:
    """Universe size plus an index-distinguishable sequence of subset masks."""

    n: int
    sets: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueOutOfRange("universe size must be nonnegative")
        for mask in self.sets:
            if mask >> self.n:
                raise ValueOutOfRange("set exceeds the universe")

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1


def family_from_lists(n: int, lists: Sequence[Sequence[int]]) -> SetFamily:
    masks = []
    for elements in lists:
        mask = 0
        for e in elements:
            if not 1 <= e <= n:
                raise ValueOutOfRange(f"element {e} outside [1, {n}]")
            mask |= 1 << (e - 1)
        masks.append(mask)
    return SetFamily(n, tuple(masks))


class _PartitionCounter:
    """Memo tables for the z-variable DP and the trace recursion over one
    family, counting partitions into every number of sets 0..k_max at once.

    Both return one int whose lane c, bits c*w up to (c+1)*w, counts c sets.
    Every lane, also one above k_max before it is masked off, counts distinct
    index subsets of the family (trace decompositions are unique), so it stays
    below 2**len(family.sets) and w = len(family.sets) + 1 never carries."""

    def __init__(self, family: SetFamily, theta: int = 1, k_max: int = 0):
        self.n, self.theta = family.n, theta
        self.width = width = len(family.sets) + 1
        self.lane_mask = (1 << width) - 1
        self.k_mask = (1 << (k_max + 1) * width) - 1
        empties = family.sets.count(0)
        self.empty_choices = sum(comb(empties, k) << k * width for k in range(k_max + 1))
        # Each distinct nonempty set value with its multiplicity, by minimum.
        self.by_pivot: dict[int, list[tuple[int, int]]] = {}
        for mask, count in Counter(filter(None, family.sets)).items():
            self.by_pivot.setdefault(mask & -mask, []).append((mask, count))
        self.memo: dict[tuple[int, int], int] = {}
        self.trace_memo: dict[tuple[int, int], int] = {}

    def lane(self, packed: int, index: int) -> int:
        return packed >> index * self.width & self.lane_mask

    def z(self, a_mask: int, b_min_bit: int) -> int:
        """Lane c, for c = 0..|A|: partitions of A into c nonempty family
        sets (by index), each with minimum element below B's minimum."""
        # Only A's elements are compared with min(B), so min(B) may stand for
        # the least element of A above it, which lets more calls share a memo
        # entry; 0 when there is none, and then every part qualifies.
        above = a_mask & -b_min_bit
        b_min_bit = above & -above
        key = (a_mask, b_min_bit)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        result = 0
        pivot = a_mask & -a_mask
        if a_mask == 0:
            result = 1
        elif pivot != b_min_bit:  # that is, pivot < min(B)
            for mask, count in self.by_pivot.get(pivot, ()):
                if not mask & ~a_mask:
                    result += count * self.z(a_mask ^ mask, b_min_bit)
            result <<= self.width  # the part containing the pivot
        self.memo[key] = result
        return result

    def traces(self, remaining: int, blocks_used: int) -> int:
        """Lane k, for k = 0..k_max: the sum of per-trace products over
        partitions of ``remaining`` into k sets, after ``blocks_used`` greedy
        blocks."""
        if remaining == 0:
            return self.empty_choices
        if blocks_used >= 2 * self.theta:
            return 0
        key = (remaining, blocks_used)
        cached = self.trace_memo.get(key)
        if cached is not None:
            return cached
        n, theta = self.n, self.theta
        a_cap = n // theta
        pivot = remaining & -remaining
        # Lanes count the sets other than B until one shift adds B at the end.
        # Tail block with empty prefix: B alone consumes everything left.
        total = sum(
            count * self.empty_choices
            for b_mask, count in self.by_pivot.get(pivot, ())
            if b_mask == remaining
        )
        # Blocks with a nonempty prefix A containing the pivot element: A's
        # partition times the tail's.  B's minimum is the least element
        # outside A: any other B would leave that element to a later block,
        # whose elements must all follow min(B).
        rest = remaining ^ pivot
        sub = rest
        while True:
            a_mask = sub | pivot
            outside = remaining ^ a_mask
            if a_mask.bit_count() <= a_cap and outside:
                b_min_bit = outside & -outside
                for b_mask, count in self.by_pivot.get(b_min_bit, ()):
                    if b_mask & ~outside:
                        continue
                    after = outside ^ b_mask
                    # A non-final block must overshoot n/theta.
                    if after and theta * (a_mask | b_mask).bit_count() <= n:
                        continue
                    zs = self.z(a_mask, b_min_bit)
                    if zs:
                        total += count * zs * self.traces(after, blocks_used + 1)
            if sub == 0:
                break
            sub = (sub - 1) & rest
        total = (total << self.width) & self.k_mask
        self.trace_memo[key] = total
        return total


def z_var_dp(family: SetFamily, a_mask: int, b_mask: int, count: int) -> int:
    """The z variable: partitions of A into ``count`` family sets whose minima
    precede min(B).  Empty family sets are never usable here."""
    if b_mask == 0:
        raise ValueOutOfRange("B must be nonempty")
    if a_mask & b_mask:
        raise ValueOutOfRange("A and B must be disjoint")
    check("z_universe", a_mask.bit_count())
    counter = _PartitionCounter(family)
    return counter.lane(counter.z(a_mask, b_mask & -b_mask), count) if count >= 0 else 0


def _partition_counts(family: SetFamily, k_max: int, theta: int) -> list[int]:
    """Entry k, for k = 0..k_max: #Set Partition into k sets, from one
    trace count; empty when k_max < 0."""
    n = family.n
    check("setpartition_universe", n)
    if theta not in SETPARTITION_THETAS:
        raise ValueOutOfRange(f"theta must be one of {SETPARTITION_THETAS}")
    if k_max < 0:
        return []
    size_cap = n // (2 * theta)
    for mask in family.sets:
        if mask and mask.bit_count() > size_cap:
            raise PreconditionViolated(
                f"nonempty sets must have size <= floor(n / (2*theta)) = {size_cap}"
            )
    counter = _PartitionCounter(family, theta, k_max)
    counts = counter.traces(family.full_mask, 0)
    return [counter.lane(counts, k) for k in range(k_max + 1)]


def setpartition_via_traces(family: SetFamily, k: int, theta: int) -> int:
    """#Set Partition by summing per-trace products.

    Enumerates the greedy block structure directly: blocks are built in
    increasing order of minimum element; a non-final block must overshoot
    n/theta once its pivot set B is added while its prefix A stays within
    n/theta; the final block only needs its prefix within n/theta.  Each
    block contributes y(B) * z(A, B, k_j - 1) and leftover multiplicity
    chooses empty sets, C(#empties, k - sum k_j).
    """
    counts = _partition_counts(family, k, theta)
    return counts[k] if k >= 0 else 0


def hcv_branch(family: SetFamily, n: int, m: int, k: int) -> list[tuple[int, SetFamily]]:
    """Reduce #HCV_{n,m,k} to 2**(n-m) signed #Set Partition instances over [m].

    Branching on the top element e: dropping e from every set keeps all
    collections but forgets e's coverage; subtracting the count over sets
    free of e leaves exactly the collections that do cover e.  The instances
    do not depend on k; ``setcover_min`` counts each once for every k.
    """
    if not 0 <= m <= n or family.n != n:
        raise ValueOutOfRange("need 0 <= m <= n = family.n")
    check("hcv_branch", n - m)
    branches = [(1, family.sets)]
    for level in range(n, m, -1):
        bit = 1 << (level - 1)
        branches = [
            branch
            for sign, sets in branches
            for branch in (
                (sign, tuple(mask & ~bit for mask in sets)),
                (-sign, tuple(mask for mask in sets if not mask & bit)),
            )
        ]
    return [(sign, SetFamily(m, sets)) for sign, sets in branches]


def hcv_expand_setcover(family: SetFamily, m: int) -> SetFamily:
    """Expansion making covers countable: each set S becomes {S - T : T in S cap [m]}."""
    if not 0 <= m <= family.n:
        raise ValueOutOfRange("need 0 <= m <= n")
    m_mask = (1 << m) - 1
    limit = cap_limit("hcv_overlap")
    out: list[int] = []
    for mask in family.sets:
        overlap = mask & m_mask
        if overlap.bit_count() > limit:
            check("hcv_overlap", overlap.bit_count())
        sub = 0
        while True:
            out.append(mask & ~sub)
            if sub == overlap:
                break
            sub = (sub - overlap) & overlap
    return SetFamily(family.n, tuple(out))


def _has_cover(
    sets: Sequence[int], unions: Sequence[int], full: int, k: int, index: int = 0, union: int = 0
) -> bool:
    """Whether at most k sets from sets[index:] extend ``union`` to ``full``;
    ``unions[i]`` is the union of sets[i:]."""
    if union == full:
        return True
    if k == 0 or index == len(sets) or union | unions[index] != full:
        return False
    if _has_cover(sets, unions, full, k - 1, index + 1, union | sets[index]):
        return True
    return _has_cover(sets, unions, full, k, index + 1, union)


def _greedy_cover_size(sets: Sequence[int], full: int) -> int:
    """Size of the cover that repeatedly takes the set adding the most
    uncovered elements; [n] must be coverable."""
    covered = size = 0
    while covered != full:
        covered |= max(sets, key=lambda mask: (mask & ~covered).bit_count())
        size += 1
    return size


def setcover_min(
    family: SetFamily,
    method: str = "brute",
    theta: int = 1,
) -> int | None:
    """Minimum number of sets covering [n]; None when [n] is not coverable.

    The reduction route runs the full chain: expansion, branching down to
    m = max(2*theta*maxsize, n - MAX_BRANCH) elements, and trace-counted set
    partitions.  Each branch instance is counted once for every k up to the
    size of a greedy cover, which bounds the minimum from above; the first k
    with a positive signed total is the minimum.
    """
    if method not in ("brute", "reduction"):
        raise ValueOutOfRange(f"unknown method {method!r}")
    if method == "reduction" and theta not in SETPARTITION_THETAS:
        raise ValueOutOfRange(f"theta must be one of {SETPARTITION_THETAS}")
    n = family.n
    if n == 0:
        return 0
    union = 0
    for mask in family.sets:
        union |= mask
    # Every mask lies inside [n], so the union covers [n] iff it has n bits.
    if union.bit_count() != n:
        return None
    full = family.full_mask
    if method == "brute":
        unions = list(accumulate(reversed(family.sets), or_))[::-1]
        for k in range(1, len(family.sets) + 1):
            if _has_cover(family.sets, unions, full, k):
                return k
        return None
    maxsize = max((mask.bit_count() for mask in family.sets), default=0)
    m = max(2 * theta * maxsize, n - MAX_BRANCH)
    if m > n:
        raise PreconditionViolated(
            f"reduction needs a universe of at least 2*theta*maxsize = {2 * theta * maxsize}"
        )
    k_max = _greedy_cover_size(family.sets, full)
    totals = [0] * (k_max + 1)
    for sign, instance in hcv_branch(hcv_expand_setcover(family, m), n, m, 0):
        for k, count in enumerate(_partition_counts(instance, k_max, theta)):
            totals[k] += sign * count
    for k in range(1, k_max + 1):
        if totals[k] < 0:
            raise AssertionError("signed #HCV total came out negative")
        if totals[k] > 0:
            return k
    raise AssertionError("signed #HCV totals vanish up to the greedy cover size")
