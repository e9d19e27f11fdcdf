"""Local-subset problems and their constant-degree polynomial formulations.

A local-subset problem asks, for an instance (n, m, S) with S a sorted
m-subset of the universe [n**r]: do there exist alpha elements of S and beta
elements of [n**r] \\ S that a fixed verifier accepts?  The instance size is
s = n + m.

The formulation replaces per-universe-element variables by block-comparison
indicators.  Sorted S gains sentinels s_0 = 0 and s_{m+1} = n**r + 1; an
element a belongs to S iff a == s_i for some row i, and b avoids S iff
s_j < b < s_{j+1} for some row j.  Values are compared through the theta
blocks of their binary representation, zero-padded to theta*L bits with

    L = ceil(r * ceil(log2 s) / theta),

and a comparison outcome is decided by the leftmost differing block, so each
outcome tuple lies in exactly one of three comparison-tuple sets (below).
The variable space is the full grid

    x[c][i][q][a],  c in {<, =, >},  i in [0, s],  q in [1, theta],
                    a in [0, 2**L)

flattened in that order, 3 * (s+1) * theta * 2**L variables in total; row i
of the assignment is all-zero beyond i = m + 1.  Two conventions make the
grid exact at desk scale: the most significant block absorbs all bits above
(theta-1)*L, so the sentinel n**r + 1 compares correctly even when it does
not fit in theta*L bits, and enumerated candidate values are capped at
2**(theta*L) - 1 (the cap only ever excludes the top shell code when m = 0
and s is a power of two; shipped encoders never place a witness there).

An oracle query is (spec, x), x = phi(inst) from ``compute_assignment``.  Two
evaluation paths compute the same number at x: the literal polynomial
(exponentially large in alpha + beta, usable only at tiny s) and the witness
count ``exact_evaluation_oracle``, which reads S and its complement from x's
rows.  Their equality is part of the test suite.  Each accepted tuple's share
of the literal polynomial is the product of per-slot factor tables, whose
entries are gadgets held as (index, 1) power pairs.  All a-slots share one
table and all b-slots another, so witnesses that differ only by a
permutation within the a-slots or within the b-slots contribute the same
product: ``formulation_polynomial`` walks one ordering per group, weights
each walked tuple by the orderings it stands for, and expands each witness
multiset once with its summed weight, collapsing repeated pairs into powers.
It is the one walk of the literal polynomial; ``formulation_monomials`` is a
view that lists its terms one unit of coefficient at a time.  The tests
check the collected terms against a reference built from this definition
alone, every ordering of every slot walked and multiplied out.

A spec states acceptance as its ``members``: checks that each read every
slot, one for a plain problem and one per distinct pattern for a family.  A
tuple is a witness iff some member accepts it, and the formulation value sums
the members' counts.  A member's ``step`` checks one slot against the state
the earlier slots left, its ``accept`` is the global check on the full
tuple, its ``groups`` the runs of slots whose order acceptance ignores, and
its optional ``pool`` hook narrows each node's candidates to what ``step`` passes.
The b-slots' base pool, the complement of S, is a lazy view, never listed.

Every tuple loop goes through one enumerator, ``accepted_tuples``: a
lexicographic backtracking walk over per-slot candidate pools that carries
the step's state down each tuple and yields the accepted tuples in
``itertools.product`` order, never extending a prefix a step rejects.  The
witness count walks each member once, one increasing ordering per group
times the groups' factorials, drawing from its hook, so its work follows
the witnesses rather than |S|**alpha; the literal polynomial walks the same
orderings over every candidate code; the reference ``brute_solve`` hands
the full predicate ``spec.verifier`` alone to the enumerator, an unpruned
filter.  Every walk stops with CapExceeded once its nodes and the
candidates they tried pass the ls_walk cap, a node charging its whole pool,
or its draw, before it tries the first.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import chain, groupby, pairwise, product, repeat
from math import factorial, prod
from types import MappingProxyType
from typing import Callable, Generator, Iterator, NamedTuple, Sequence

from .errors import cap_limit, check
from .polynomials import Monomial, Powers, SparsePolynomial, _unchecked

LT, EQ, GT = "<", "=", ">"
COMPARISONS = (LT, EQ, GT)
Draw = Callable[[tuple, int], Sequence[int]]  # a pool hook's draw(state, slot)


class Member(NamedTuple):
    """One check of an ``LSProblemSpec`` on all alpha + beta slots: its
    per-slot ``step`` (or None), its global ``accept``, the ``groups`` of
    slots whose order it ignores and its optional ``pool`` hook.  Called once
    per walk with the base pools, ``pool`` returns None or draw(state, slot):
    an ascending part of pools[slot] holding every candidate the walk would
    try there that ``step`` passes from ``state``."""

    step: Callable[[tuple, int, int], tuple | None] | None
    accept: Callable[..., bool]
    groups: tuple[tuple[int, int], ...] = ()
    pool: Callable[[Sequence[Sequence[int]]], Draw | None] | None = None


def _check_groups(groups: Sequence[tuple[int, int]], size: int, alpha: int) -> None:
    """Raise ValueError unless ``groups`` are disjoint (start, stop) ranges of
    at least two of the slots [0, size), none straddling ``alpha``."""
    previous_stop = 0
    for start, stop in sorted(groups):
        if stop - start < 2:
            raise ValueError(f"member group {(start, stop)} has fewer than 2 slots")
        if start < 0 or stop > size:
            raise ValueError(f"member group {(start, stop)} leaves [0, {size})")
        if start < previous_stop:
            raise ValueError(f"member group {(start, stop)} overlaps another group")
        if start < alpha < stop:
            raise ValueError(f"member group {(start, stop)} straddles alpha")
        previous_stop = stop


@dataclass(frozen=True)
class LSProblemSpec:
    """A local-subset problem: (alpha, beta, universe exponent r, members).

    A ``Member`` accepts a tuple of alpha + beta universe codes when its
    ``step`` (when given), folded along the tuple from the state () as
    ``state = step(state, slot, code)``, never returns None, and the full
    tuple passes its ``accept``, which is called only after every step
    passed.  Both are pure and must interpret a code the same way at every
    instance size.  A tuple is a witness iff some member accepts it,
    and the formulation value is the sum of the members' counts: a plain
    problem has one member, a pattern family one per distinct pattern.

    A member's ``groups`` lists half-open ranges (start, stop) of slots, each
    of at least two inside the a-slots or inside the b-slots, whose order
    acceptance ignores.  ``exact_evaluation_oracle`` and
    ``formulation_polynomial`` walk one increasing representative per group
    and weigh it by the groups' factorials, which is exact only when both of
    these hold for every candidate code, over S and its complement for the
    count and over all of [1, top] for the literal polynomial:

    * every accepted tuple has distinct values within each group;
    * reordering a group never changes whether every step passes or whether
      ``accept`` passes.

    A member that ``problems`` derives from a slot declaration meets the
    first condition and the step half of the second by construction: each
    group is a run of slots with one check, and the step rejects a repeated
    pair and counts the vertices of the pairs placed as a set.  That
    ``accept`` ignores the order within each run stays the encoder's duty.
    """

    name: str
    alpha: int
    beta: int
    r: int
    members: tuple[Member, ...]

    def __post_init__(self) -> None:
        if self.alpha < 1:
            raise ValueError("alpha must be >= 1")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if self.r < 1:
            raise ValueError("r must be >= 1")
        if not self.members:
            raise ValueError("a spec needs at least one member")
        for member in self.members:
            _check_groups(member.groups, self.alpha + self.beta, self.alpha)

    def verifier(self, *codes: int) -> bool:
        """The full acceptance predicate on alpha + beta codes: some member
        accepts them, its step folded once along them from the state ()."""
        for step, accept, *_ in self.members:
            state = ()
            for slot, code in enumerate(codes if step else ()):
                if (state := step(state, slot, code)) is None:
                    break
            if state is not None and accept(*codes):
                return True
        return False


@dataclass(frozen=True)
class LSInstance:
    """An instance (n, m, S); elements strictly increasing, sentinels implicit."""

    n: int
    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        previous = 0
        for element in self.elements:
            if element <= previous:
                raise ValueError("elements must be strictly increasing positive integers")
            previous = element

    @property
    def m(self) -> int:
        return len(self.elements)

    @property
    def size(self) -> int:
        return self.n + self.m


def ls_instance(n: int, elements: Sequence[int]) -> LSInstance:
    return LSInstance(n, tuple(sorted(elements)))


def universe_size(spec: LSProblemSpec, inst: LSInstance) -> int:
    size = inst.n**spec.r
    if inst.elements and inst.elements[-1] > size:
        raise ValueError("instance elements exceed the universe")
    return size


def brute_solve(spec: LSProblemSpec, inst: LSInstance) -> bool:
    """Reference decision: filter every witness tuple over S and its complement
    through ``spec.verifier``, unpruned and ignoring groups, stopping at the
    first hit.
    Raises CapExceeded past the witness_slots or brute_walk cap, both checked
    before any pool is built, or past the ls_walk cap."""
    check("witness_slots", spec.alpha + spec.beta)
    u = universe_size(spec, inst)
    limit = cap_limit("brute_walk")
    walk = _capped_power(inst.m, spec.alpha, limit) * _capped_power(u - inst.m, spec.beta, limit)
    check("brute_walk", walk)
    pools = _witness_pools(spec, inst.elements, u)
    return next(accepted_tuples(pools, spec.verifier), None) is not None


def _witness_pools(spec: LSProblemSpec, elements: Sequence[int], top: int) -> list[Sequence[int]]:
    """Per-slot candidates up to ``top``: the elements of S for each a-slot
    and one ``_Complement`` view of the rest of [1, top], never listed, for
    each b-slot.  Raises CapExceeded rather than build pools past the
    witness_slots cap."""
    check("witness_slots", spec.alpha + spec.beta)
    inside = [v for v in elements if v <= top]
    return [inside] * spec.alpha + [_Complement(inside, 1, top)] * spec.beta


class _Complement(Sequence):
    """The ascending codes of [low, top] outside the ascending list ``inside``,
    whose elements are at most ``top``, never listed: its length is O(1), it
    iterates over the ranges between consecutive elements of ``inside``, and
    it finds a position, a tail slice or a member by bisection.  ``len()``
    saturates at sys.maxsize, the most CPython can report; ``size`` is exact."""

    def __init__(self, inside: list[int], low: int, top: int) -> None:
        self.inside, self.low, self.top = inside, low, top
        self.first = bisect_left(inside, low)  # inside[first:] lie in [low, top]
        self.size = top - low + 1 - (len(inside) - self.first)

    def __len__(self) -> int:
        return min(self.size, sys.maxsize)

    def __iter__(self) -> Iterator[int]:
        later = map(self.inside.__getitem__, range(self.first, len(self.inside)))
        bounds = pairwise(chain([self.low - 1], later, [self.top + 1]))
        return chain.from_iterable(range(a + 1, b) for a, b in bounds)

    def __contains__(self, code: object) -> bool:
        at = bisect_left(self.inside, code, self.first)
        return self.low <= code <= self.top and self.inside[at : at + 1] != [code]

    def __getitem__(self, position):
        if isinstance(position, slice):
            start, stop, step = position.indices(self.size)
            if (stop, step) != (self.size, 1):
                raise ValueError("a complement view slices only its tails")
            return _Complement(self.inside, self[start] if start < stop else self.top + 1, self.top)
        if not 0 <= position < self.size:
            raise IndexError("complement view index out of range")
        # inside[k] lies below the code iff inside[k] - 1 - k, the codes of
        # [1, inside[k]) outside ``inside``, is at most those of [1, code).
        inside, rank = self.inside, self.low - 1 - self.first + position
        members = bisect_right(range(len(inside)), rank, self.first, key=lambda k: inside[k] - 1 - k)
        return rank + 1 + members


def accepted_tuples(
    pools: Sequence[Sequence[int]],
    accept: Callable[..., bool],
    step: Callable[[tuple, int, int], tuple | None] | None = None,
    groups: Sequence[tuple[int, int]] = (),
    pool: Callable[[Sequence[Sequence[int]]], Draw | None] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield the tuples of ``product(*pools)`` that every ``step`` passes and
    ``accept`` accepts, in product order.  The state starts at () and each
    candidate is stepped once; a rejected one is dropped with all its
    extensions.  Within each (start, stop) of ``groups`` only strictly
    increasing values are walked, which needs those slots' pools ascending.
    A ``pool`` hook that does not decline narrows each node's pool to its
    draw, each candidate drawn stepped as before, so the same tuples come
    out.  Raises CapExceeded past the witness_slots cap, and, while walking,
    once the nodes and the candidates they tried pass the ls_walk cap."""
    check("witness_slots", len(pools))
    chained = [False] * len(pools)
    for start, stop in groups:
        chained[start + 1 : stop] = [True] * (stop - start - 1)
    draw = pool(pools) if pool else None
    return _extend(pools, draw, accept, step, chained, (), (), cap_limit("ls_walk"))


def _extend(
    pools, draw, accept, step, chained, head: tuple[int, ...], state: tuple, budget: int
) -> Generator[tuple[int, ...], None, int]:
    """Walk the extensions of ``head``, which left ``state``, with ``budget``
    nodes and candidates left; return what is left of it."""
    depth = len(head)
    last = depth + 1 == len(pools)
    pool = pools[depth] if draw is None else draw(state, depth)
    if chained[depth]:
        pool = pool[bisect_right(pool, head[-1]) :]
    budget -= len(pool) + 1  # the node itself and each candidate it tries
    if budget < 0:
        check("ls_walk", cap_limit("ls_walk") - budget)
    for value in pool:
        after = state if step is None else step(state, depth, value)
        if after is None:
            continue
        longer = head + (value,)
        if not last:
            budget = yield from _extend(pools, draw, accept, step, chained, longer, after, budget)
        elif accept(*longer):
            yield longer
    return budget


# --- block comparison machinery ------------------------------------------


def ceil_log2(s: int) -> int:
    if s < 2:
        raise ValueError("size must be >= 2")
    return (s - 1).bit_length()


def block_length(s: int, r: int, theta: int) -> int:
    """L = ceil(r * ceil(log2 s) / theta), within the grid_bits cap."""
    if theta < 1:
        raise ValueError("theta must be >= 1")
    if r < 1:
        raise ValueError("r must be >= 1")
    length = -(-r * ceil_log2(s) // theta)
    check("grid_bits", length)
    return length


def variable_count(s: int, r: int, theta: int) -> int:
    """Exact size of the implemented variable grid: 3 * (s+1) * theta * 2**L."""
    return 3 * (s + 1) * theta * (1 << block_length(s, r, theta))


def flat_variable_index(
    s: int, theta: int, block_len: int, comparison: str, i: int, q: int, a: int
) -> int:
    """Flatten (c, i, q, a) in the documented grid order."""
    c = COMPARISONS.index(comparison)
    return ((c * (s + 1) + i) * theta + (q - 1)) * (1 << block_len) + a


def blocks_of(value: int, theta: int, block_len: int) -> tuple[int, ...]:
    """Split a nonnegative value into theta blocks, most significant first.

    Blocks 2..theta hold ``block_len`` bits each; block 1 is unbounded and
    absorbs everything above, so block-vector comparison of any two
    nonnegative integers agrees with integer comparison.
    """
    mask = (1 << block_len) - 1
    out = [0] * theta
    for q in range(theta - 1, 0, -1):
        out[q] = value & mask
        value >>= block_len
    out[0] = value
    return tuple(out)


def comparison_tuple_sets(
    theta: int,
) -> tuple[frozenset[tuple[str, ...]], frozenset[tuple[str, ...]], frozenset[tuple[str, ...]]]:
    """The outcome-tuple sets (C_eq, C_lt, C_gt) deciding blockwise comparison.

    C_eq is the all-equal tuple; C_lt collects tuples whose first non-equal
    position is '<'; C_gt is the rest.  The three sets partition
    {<,=,>}**theta.
    """
    if theta < 1:
        raise ValueError("theta must be >= 1")
    c_eq = frozenset({(EQ,) * theta})
    lt: set[tuple[str, ...]] = set()
    for q in range(1, theta + 1):
        for tail in product(COMPARISONS, repeat=theta - q):
            lt.add((EQ,) * (q - 1) + (LT,) + tail)
    c_lt = frozenset(lt)
    c_gt = frozenset(product(COMPARISONS, repeat=theta)) - c_eq - c_lt
    return c_eq, c_lt, frozenset(c_gt)


@dataclass(frozen=True)
class BlockVariableAssignment:
    """The point x = phi(inst): the 0/1 table x[c][i][q][a] of the encoding
    map, ``num_vars`` entries in the grid order.

    x is defined by ``rows`` = (s_0, ..., s_{m+1}) = (0, sorted S, n**r + 1):
    entry (c, i, q, a) is 1 iff i <= m + 1 and comparing block q of s_i
    against a yields c.  ``vector`` lists it, the one description of x.
    """

    s: int
    theta: int
    block_len: int
    rows: tuple[int, ...]
    num_vars: int

    def vector(self) -> list[int]:
        """Materialize the full grid; intended for small instances only."""
        s, theta, length = self.s, self.theta, self.block_len
        out = [0] * self.num_vars
        width = 1 << length
        for i, value in enumerate(self.rows):
            for q, block in enumerate(blocks_of(value, theta, length), start=1):
                # Runs over a, clamped to the width since block 1 is unbounded.
                runs = ((GT, 0, block), (EQ, block, block + 1), (LT, block + 1, width))
                for comparison, low, high in runs:
                    low, high = min(low, width), min(high, width)
                    base = flat_variable_index(s, theta, length, comparison, i, q, 0)
                    out[base + low : base + high] = [1] * (high - low)
        return out


def compute_assignment(spec: LSProblemSpec, inst: LSInstance, theta: int) -> BlockVariableAssignment:
    s = inst.size
    num_vars = variable_count(s, spec.r, theta)
    check("call_bits", num_vars.bit_length())
    return BlockVariableAssignment(
        s=s,
        theta=theta,
        block_len=block_length(s, spec.r, theta),
        rows=(0, *inst.elements, universe_size(spec, inst) + 1),
        num_vars=num_vars,
    )


def _candidate_top(bound: int, theta: int, length: int) -> int:
    """min(bound, 2**(theta*length) - 1), the largest enumerated candidate code;
    a shift longer than the bound's bit length cannot cap it and is skipped."""
    if theta * length > bound.bit_length():
        return bound
    return min(bound, (1 << (theta * length)) - 1)


def _capped_power(base: int, exponent: int, cap: int) -> int:
    """min(base**exponent, cap + 1), deciding a huge power by bit length
    instead of computing it."""
    if base > 1 and (base.bit_length() - 1) * exponent > cap.bit_length():
        return cap + 1
    return min(base**exponent, cap + 1)


def _literal_tables(
    spec: LSProblemSpec, s: int, theta: int
) -> tuple[Counter[tuple[tuple[int, ...], tuple[int, ...]]], dict[int, list], dict[int, list]]:
    """The accepted candidate tuples of the size-s literal formulation as
    multisets (sorted a-values, sorted b-values), each counting the
    orderings it stands for: one walk per member, in one increasing ordering
    per member group, adds each tuple's weight, the groups' factorials, as
    it walks.  And the factor tables of the codes they hold, a-tables for
    codes in an a-slot and b-tables for codes in a b-slot.  A table lists
    gadgets, each a tuple of (index, 1) power pairs built once per code.

    Each witness contributes exactly s**alpha * (s * |C_lt| * |C_gt|)**beta
    literal monomials of degree theta * (alpha + 2 * beta), |C_lt| = |C_gt| =
    (3**theta - 1) / 2, so the literal cap is checked from the weighted
    witness count before any table is built, and literal_candidates before
    the walk.
    """
    length = block_length(s, spec.r, theta)
    top = _candidate_top(s**spec.r, theta, length)
    slots = spec.alpha + spec.beta
    check("literal_candidates", _capped_power(top, slots, cap_limit("literal_candidates")))
    limit = cap_limit("literal")
    # |C_lt| >= 3**(theta - 1) > limit once theta exceeds the cap's bit length.
    half = limit + 1 if theta > limit.bit_length() else (3**theta - 1) // 2
    per_witness = theta * (spec.alpha + 2 * spec.beta) * _capped_power(s, spec.alpha, limit)
    per_witness *= _capped_power(s * half * half, spec.beta, limit)
    candidates = [range(1, top + 1)] * slots
    alpha = spec.alpha
    multisets = Counter()
    walked = 0
    for step, accept, groups, _ in spec.members:
        weight = prod(factorial(stop - start) for start, stop in groups)
        for witness in accepted_tuples(candidates, accept, step, groups):
            multisets[tuple(sorted(witness[:alpha])), tuple(sorted(witness[alpha:]))] += weight
            walked += weight
            if walked * per_witness > limit:
                check("literal", walked * per_witness)
    a_values = {v for a, _ in multisets for v in a}
    b_values = {v for _, b in multisets for v in b}
    blocks = {v: blocks_of(v, theta, length) for v in a_values | b_values}

    def gadget(comparisons: Sequence[str], row: int, v: int) -> Powers:
        return tuple(
            (flat_variable_index(s, theta, length, c, row, q, block), 1)
            for q, (c, block) in enumerate(zip(comparisons, blocks[v]), start=1)
        )

    a_factors = {v: [gadget((EQ,) * theta, i, v) for i in range(1, s + 1)] for v in a_values}
    b_factors = {}
    if b_values:
        _, c_lt, c_gt = comparison_tuple_sets(theta)
        lts, gts = sorted(c_lt), sorted(c_gt)
        b_factors = {
            v: [
                lt + gt
                for j in range(s)
                for lt, gt in product(
                    [gadget(c, j, v) for c in lts], [gadget(c, j + 1, v) for c in gts]
                )
            ]
            for v in b_values
        }
    return multisets, a_factors, b_factors


def formulation_monomials(spec: LSProblemSpec, s: int, theta: int) -> Iterator[Monomial]:
    """The literal monomials of the size-s formulation polynomial, as a view
    of ``formulation_polynomial``: each term once per unit of its
    coefficient, as a Monomial with coefficient 1 and total degree exactly
    theta * (alpha + 2 * beta).  That is the multiset of the product terms
    of every ordering of every accepted tuple, so it raises CapExceeded,
    before its first monomial, on exactly the inputs on which the collection
    does.

    It stays only because perfbench's traced ls-literal op drains it; ROADMAP
    item 1 step B, which runs that op as the plain collection under a
    library trace, deletes it.
    """
    terms = formulation_polynomial(spec, s, theta).terms
    return chain.from_iterable(repeat(Monomial(1, p), count) for p, count in terms.items())


def formulation_polynomial(spec: LSProblemSpec, s: int, theta: int) -> SparsePolynomial:
    """The size-s formulation polynomial: the sum over the accepted candidate
    tuples from [1, s**r], every ordering of every slot, of the product of
    the slots' factors.  Per slot holding v, a_factors[v] lists the
    all-equal gadgets on rows i in [1, s] and b_factors[v] the C_lt(row j) *
    C_gt(row j + 1) gadgets over j in [0, s-1].  The polynomial depends
    only on (spec, s, theta), not on any instance.

    Each member is walked in one increasing ordering per group, and each
    representative weighs the product of its groups' factorials: the
    orderings it stands for.  All a-slots share one factor table and all
    b-slots another, so witnesses that differ only by a permutation within
    the a-slots or within the b-slots contribute the same monomials.  The
    walk returns the weights summed per multiset (sorted a-values, sorted
    b-values), and each multiset is expanded once: every product is counted
    under the sorted concatenation of its gadgets' (index, 1) pairs, and
    each distinct key adds its count times the multiset's weight.  When no
    two of a multiset's slot tables share a variable, every such key is
    already a power vector; otherwise a key may repeat a pair, and it
    collapses into (index, exponent) pairs.  The literal cap counts walked
    witnesses times their weights times the monomials each contributes
    times their degree, the variable occurrences of the terms listed one
    unit of coefficient at a time, and raises CapExceeded before any factor
    table is built.  Every coefficient is a positive count and every key a
    power vector over the declared variables, so the map is wrapped without
    a second check.
    """
    multisets, a_factors, b_factors = _literal_tables(spec, s, theta)
    terms: dict[Powers, int] = {}
    for (a_values, b_values), weight in multisets.items():
        tables = [a_factors[v] for v in a_values] + [b_factors[v] for v in b_values]
        reads = [set(chain.from_iterable(table)) for table in tables]
        disjoint = len(set().union(*reads)) == sum(map(len, reads))
        counts = Counter(map(tuple, map(sorted, map(chain.from_iterable, product(*tables)))))
        for pairs, count in counts.items():
            if not disjoint and len(set(pairs)) < len(pairs):
                pairs = tuple((i, len(list(run))) for (i, _), run in groupby(pairs))
            terms[pairs] = terms.get(pairs, 0) + weight * count
    return _unchecked(
        SparsePolynomial, num_vars=variable_count(s, spec.r, theta), terms=MappingProxyType(terms)
    )


def evaluate_formulation(spec: LSProblemSpec, inst: LSInstance, theta: int) -> int:
    """The exact oracle at x = compute_assignment(spec, inst, theta); positive
    iff the instance is a yes-instance."""
    return exact_evaluation_oracle(FormulationQuery(spec, compute_assignment(spec, inst, theta)))


@dataclass(frozen=True)
class FormulationQuery:
    """One oracle query (spec, x): evaluate the size-``size`` member of spec's
    formulation family at the point x = ``assignment``.  x = phi(inst) is a
    0/1 point, so every argument of the call has magnitude at most 1."""

    spec: LSProblemSpec
    assignment: BlockVariableAssignment

    @property
    def size(self) -> int:
        return self.assignment.num_vars


Oracle = Callable[[FormulationQuery], int]


def exact_evaluation_oracle(query: FormulationQuery) -> int:
    """P(x) by witness counting: the accepted tuples whose a-slots draw from
    x's rows s_1..s_m and whose b-slots draw from the rest of [1, top], top the
    largest candidate code below the sentinel s_{m+1}.  Sortedness of S makes
    the row choices unique and the actual comparison outcomes select exactly
    one comparison tuple per polynomial factor, so each witness contributes
    exactly 1 per member accepting it.  Each member is one walk, one
    increasing ordering per group, times the groups' factorials."""
    spec, x = query.spec, query.assignment
    top = _candidate_top(x.rows[-1] - 1, x.theta, x.block_len)
    pools = _witness_pools(spec, x.rows[1:-1], top)
    return sum(
        sum(1 for _ in accepted_tuples(pools, accept, step, groups, pool))
        * prod(factorial(stop - start) for start, stop in groups)
        for step, accept, groups, pool in spec.members
    )


def solve_via_oracle(
    spec: LSProblemSpec,
    inst: LSInstance,
    theta: int,
    oracle: Oracle = exact_evaluation_oracle,
) -> bool:
    """Decide the instance with exactly one oracle call, at x = phi(inst)."""
    return oracle(FormulationQuery(spec, compute_assignment(spec, inst, theta))) != 0
