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
                         B_j and a min-pivot subset DP, z, counts partitions
                         of A_j by sets whose minima precede min(B_j).  The
                         next block is found by b = min(B_j), in increasing
                         order: A_j holds exactly the elements left under b
                         (any other B_j would leave one of them to a later
                         block, whose elements must all follow b), so b
                         stops once those outnumber n/theta.  A final
                         block's A_j is what B_j leaves; a non-final
                         block's A_j is one of the unions that a min-pivot
                         walk over the elements under b reaches, the only
                         A_j whose z can be nonzero.  One table, the
                         distinct set values with their multiplicities by
                         minimum, serves y, z and the walk.
                         One recursion gives the count for every k up to a
                         bound, packed into one int with a fixed-width lane
                         per number of sets: multiplying a block's y*z
                         factor by the tail's packed count convolves them
                         over part counts in one big-integer product.
                         No block count is kept: a non-final block holds
                         over n/theta elements, so at most theta - 1 of
                         them precede the final one.
  setcover_min        -- counts every branch instance once, for all k up to
                         the size of a greedy cover (an upper bound on the
                         minimum), and returns the first k whose signed
                         total is positive.  It shares one body with
                         setcover_min_of_lists, which decides every refusal
                         from n, the number of covered elements and the set
                         sizes before any mask is built or expanded.

Counts are exact big integers; signed intermediate sums must come out
nonnegative and are asserted to.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from math import comb
from operator import or_
from typing import Callable, Sequence

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


def distinct_elements(n: int, lists: Sequence[Sequence[int]]) -> set[int]:
    """The distinct elements of the lists; raises ValueOutOfRange for one
    outside [1, n].  It builds no mask, whose bits follow the largest
    element, so fewer than n of them decide an uncoverable [n] in memory
    that follows the input."""
    distinct: set[int] = set()
    for elements in lists:
        for e in elements:
            if not 1 <= e <= n:
                raise ValueOutOfRange(f"element {e} outside [1, {n}]")
        distinct.update(elements)
    return distinct


def family_from_lists(n: int, lists: Sequence[Sequence[int]]) -> SetFamily:
    distinct_elements(n, lists)
    return _masks_of(n, lists)


def _masks_of(n: int, lists: Sequence[Sequence[int]]) -> SetFamily:
    """The family of ``lists``, whose elements are known to lie in [1, n]."""
    return SetFamily(n, tuple(sum(1 << (e - 1) for e in set(elements)) for elements in lists))


class _PartitionCounter:
    """Memo tables for the z-variable DP and the trace recursion over one
    family, counting partitions into every number of sets 0..k_max at once.

    Both return one int whose lane c, bits c*w up to (c+1)*w, counts c sets.
    Every lane, also one above k_max before it is masked off, counts distinct
    index subsets of the family (trace decompositions are unique), so it stays
    below 2**len(family.sets) and w = len(family.sets) + 1 never carries."""

    def __init__(self, family: SetFamily, theta: int, k_max: int):
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
        self.trace_memo: dict[int, int] = {}

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

    def traces(self, remaining: int) -> int:
        """Lane k, for k = 0..k_max: the sum of per-trace products over
        partitions of ``remaining`` into k sets.

        The next block (A, B) is found by b = min(B), in increasing order
        over ``remaining``.  A holds every element of ``remaining`` under b
        (any other B would leave one of them to a later block, whose
        elements must all follow b), so the loop stops once those alone
        outnumber n // theta.  ``blocks`` lists each b's candidates, and
        z(A, b) counts A's partitions."""
        if remaining == 0:
            return self.empty_choices
        cached = self.trace_memo.get(remaining)
        if cached is not None:
            return cached
        a_cap = self.n // self.theta
        # Lanes count the sets other than B until one shift adds B at the end.
        total = 0
        rest = remaining
        while rest:
            b_min_bit = rest & -rest
            if (remaining & (b_min_bit - 1)).bit_count() > a_cap:
                break
            for a_mask, b_mask, count in self.blocks(remaining, b_min_bit):
                zs = self.z(a_mask, b_min_bit)
                if zs:
                    after = remaining ^ a_mask ^ b_mask
                    total += count * zs * self.traces(after)
            rest ^= b_min_bit
        total = (total << self.width) & self.k_mask
        self.trace_memo[remaining] = total
        return total

    def blocks(self, remaining: int, b_min_bit: int) -> list[tuple[int, int, int]]:
        """The blocks (A, B, multiplicity of B) that may start a trace of
        ``remaining`` with min(B) = b: B a family set with minimum b inside
        ``remaining``, and A inside ``remaining`` - B, holding ``below``
        (the elements of ``remaining`` under b), with |A| <= n // theta.
        A final block's A is ``remaining`` - B, empty when B is all of it.
        A non-final block's A | B must pass n / theta and leave an element
        for a later block; its A is one of the unions ``covers`` reaches, the
        only A whose z(A, b) can be nonzero, and that walk runs only when
        some B admits such an A."""
        a_cap = self.n // self.theta
        below = remaining & (b_min_bit - 1)
        low, left = below.bit_count(), remaining.bit_count()
        found = []
        # Each B's size range for a non-final A: past n / theta with B, and
        # leaving an element for a later block.
        spans = []
        for b_mask, count in self.by_pivot.get(b_min_bit, ()):
            if b_mask & ~remaining:
                continue
            size = b_mask.bit_count()
            if left - size <= a_cap:
                found.append((remaining ^ b_mask, b_mask, count))
            least, most = max(low, a_cap + 1 - size), min(a_cap, left - size - 1)
            if least <= most:
                spans.append((b_mask, count, least, most))
        if spans:
            cap = max(most for _, _, _, most in spans)
            for a_mask in self.covers(below, remaining ^ b_min_bit, cap):
                size = a_mask.bit_count()
                for b_mask, count, least, most in spans:
                    if least <= size <= most and not a_mask & b_mask:
                        found.append((a_mask, b_mask, count))
        return found

    def covers(self, below: int, inside: int, cap: int) -> list[int]:
        """Every union of at most ``cap`` elements of disjoint family sets
        inside ``inside``, each with its minimum in ``below``, that covers
        ``below``: the min-pivot walk adds a set whose minimum is the least
        element of ``below`` not yet covered, and visits each union once."""
        found = []
        seen = {0}
        stack = [0]
        while stack:
            union = stack.pop()
            open_ = below & ~union
            if not open_:
                found.append(union)
                continue
            for mask, _ in self.by_pivot.get(open_ & -open_, ()):
                if mask & ~inside or mask & union:
                    continue
                grown = union | mask
                if grown not in seen and grown.bit_count() <= cap:
                    seen.add(grown)
                    stack.append(grown)
        return found


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
    counts = counter.traces(family.full_mask)
    return [counter.lane(counts, k) for k in range(k_max + 1)]


def setpartition_via_traces(family: SetFamily, k: int, theta: int) -> int:
    """#Set Partition into k sets: entry k of ``_partition_counts``, whose one
    trace recursion counts every number of sets up to k at once (see the
    module docstring); 0 when k < 0."""
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


def setcover_min(family: SetFamily, method: str = "brute", theta: int = 1) -> int | None:
    """Minimum number of sets covering [n]; None when [n] is not coverable.

    The brute route recurses once per set, so it refuses a family past the
    setcover_brute cap.  The reduction route runs the full chain: expansion,
    branching down to m = max(2*theta*maxsize, n - MAX_BRANCH) elements, and
    trace-counted set partitions.  Each branch instance is counted once for
    every k up to the size of a greedy cover, which bounds the minimum from
    above; the first k with a positive signed total is the minimum.
    """
    # Every mask lies inside [n], so the union covers [n] iff it has n bits.
    covered = reduce(or_, family.sets, 0).bit_count()
    sizes = [mask.bit_count() for mask in family.sets]
    return _setcover_min(family.n, covered, sizes, lambda: family, method, theta)


def setcover_min_of_lists(
    n: int, lists: Sequence[Sequence[int]], method: str = "brute", theta: int = 1
) -> int | None:
    """setcover_min of the family of ``lists`` over [n].

    A set's mask has as many bits as its largest element, so the masks are
    built only once every refusal has passed: an input that is uncoverable
    (fewer than n distinct elements) or refused takes memory that follows
    its own size.
    """
    covered = len(distinct_elements(n, lists))
    sizes = [len(set(elements)) for elements in lists]
    return _setcover_min(n, covered, sizes, lambda: _masks_of(n, lists), method, theta)


def _setcover_min(
    n: int, covered: int, sizes: Sequence[int], build: Callable[[], SetFamily], method: str,
    theta: int,
) -> int | None:
    """setcover_min of the family ``build()`` returns, whose sets cover
    ``covered`` elements of [n] and have the given sizes.  Every refusal is
    decided from these alone, before ``build`` runs once."""
    if method not in ("brute", "reduction"):
        raise ValueOutOfRange(f"unknown method {method!r}")
    if method == "reduction" and theta not in SETPARTITION_THETAS:
        raise ValueOutOfRange(f"theta must be one of {SETPARTITION_THETAS}")
    if n == 0:
        return 0
    if covered < n:
        return None
    if method == "brute":
        check("setcover_brute", len(sizes))
        sets = build().sets
        unions = list(accumulate(reversed(sets), or_))[::-1]
        full = (1 << n) - 1
        return next(k for k in range(1, len(sets) + 1) if _has_cover(sets, unions, full, k))
    least = 2 * theta * max(sizes)
    m = max(least, n - MAX_BRANCH)
    if m > n:
        raise PreconditionViolated(
            f"reduction needs a universe of at least 2*theta*maxsize = {least}"
        )
    # Before the expansion splits each set into up to 2**|S & [m]| sets.
    check("setpartition_universe", m)
    family = build()
    k_max = _greedy_cover_size(family.sets, family.full_mask)
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
