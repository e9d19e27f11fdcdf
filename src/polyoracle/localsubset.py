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
of the literal polynomial is the product of per-slot factor tables.  All
a-slots share one table and all b-slots another, so witnesses that differ
only by a permutation within the a-slots or within the b-slots contribute the
same product: ``formulation_polynomial`` expands each such witness multiset
once and weights it by its multiplicity.  The literal monomial stream
``formulation_monomials`` emits every product term one by one and is the
reference the collected polynomial is tested against.

A spec states acceptance as its ``members``: checks that each read a fixed,
strictly increasing subset of the slots, whose union is the accepted set (one
member reading every slot for a plain problem, one per pattern for a family).
A member's ``prefix`` is the per-slot check every nonempty prefix of its
projection must pass, its ``accept`` the global check on the full projection,
and its ``groups`` the runs of its positions whose order acceptance ignores.

Every tuple loop goes through one enumerator, ``accepted_tuples``: a
lexicographic backtracking walk over per-slot candidate pools that yields the
accepted tuples in ``itertools.product`` order, never extending a prefix that
fails.  The witness count sums, by inclusion-exclusion over the member sets,
the tuples that every member of a set accepts: it walks only the slots those
members read, one increasing ordering per group times the groups'
factorials, and multiplies by the pool size of every other slot.  The
literal stream walks the spec's derived ``prefix`` and ``accept`` over every
ordering of every slot; the reference ``brute_solve`` hands the derived full
predicate ``spec.verifier`` alone to the enumerator, an unpruned filter.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, groupby, product
from math import factorial, prod
from typing import Callable, Iterator, NamedTuple, Sequence

from .errors import cap_limit, check
from .polynomials import Monomial, Powers, SparsePolynomial

LT, EQ, GT = "<", "=", ">"
COMPARISONS = (LT, EQ, GT)


class Member(NamedTuple):
    """One check of an ``LSProblemSpec``: the strictly increasing slot indices
    it reads, its per-slot ``prefix`` (or None), its global ``accept`` and the
    ``groups`` of its own positions whose order it ignores."""

    slots: Sequence[int]
    prefix: Callable[[tuple[int, ...]], bool] | None
    accept: Callable[..., bool]
    groups: tuple[tuple[int, int], ...] = ()


def _check_groups(groups: Sequence[tuple[int, int]], size: int, alpha: int) -> None:
    """Raise ValueError unless ``groups`` are disjoint (start, stop) ranges of
    at least two of the positions [0, size), none straddling ``alpha``."""
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

    A tuple of alpha + beta universe codes is accepted iff some ``Member``
    accepts its projection onto that member's ``slots``: each nonempty prefix
    of the projection, the full one included, passes the member's ``prefix``
    (when given) and the full projection passes its ``accept``.  ``prefix``
    is called on ``codes[:1]``, ``codes[:2]``, ... in order and may assume
    every shorter prefix passed; ``accept`` is called only on full
    projections whose every prefix passed.  Both are pure and must interpret
    a code the same way at every instance size.  A plain problem has one
    member whose slots are range(alpha + beta).

    A member's ``groups`` lists half-open ranges (start, stop) of its
    positions, each of at least two inside the a-slots or inside the
    b-slots, whose order acceptance ignores.  ``exact_evaluation_oracle``
    counts one increasing representative per group and multiplies by the
    groups' factorials, which is exact only when both of these hold:

    * every accepted projection has distinct values within each group;
    * reordering a group never changes whether each prefix passes or whether
      ``accept`` passes.

    ``exact_evaluation_oracle`` sums by inclusion-exclusion over the
    distinct members, at most 2**k - 1 walks for k of them, fewer since a
    set no tuple fits is never extended.  The spec's ``prefix``, ``accept``
    and ``verifier`` derive the same acceptance on full tuples.
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
        size = self.alpha + self.beta
        for slots, _, _, groups in self.members:
            # Not listed slot by slot: size may be far past the witness_slots cap.
            if slots == range(size):
                _check_groups(groups, size, self.alpha)
                continue
            if any(not 0 <= slot < size for slot in slots):
                raise ValueError(f"member slots {slots} leave [0, alpha + beta)")
            if any(left >= right for left, right in zip(slots, slots[1:])):
                raise ValueError(f"member slots {slots} are not strictly increasing")
            _check_groups(groups, len(slots), bisect_left(slots, self.alpha))

    @cached_property
    def _checks(self) -> tuple[Callable[[tuple[int, ...]], bool] | None, Callable[..., bool]]:
        """(prefix, accept) on full tuples: a lone member reading range(alpha +
        beta) gives its own; else a prefix passes while some member's
        projection of it passes that member's prefix at every length, and
        ``accept`` asks each such member's ``accept``."""
        first = self.members[0]
        if set(self.members) == {first} and first.slots == range(self.alpha + self.beta):
            return first.prefix, first.accept

        def fitting(codes: Sequence[int]) -> Iterator[tuple[Callable[..., bool], tuple]]:
            for slots, prefix, accept, _ in self.members:
                chosen = tuple(codes[i] for i in slots[: bisect_left(slots, len(codes))])
                if prefix is None or all(prefix(chosen[:k]) for k in range(1, len(chosen) + 1)):
                    yield accept, chosen

        def prefix(codes: tuple[int, ...]) -> bool:
            return next(fitting(codes), None) is not None

        def accept(*codes: int) -> bool:
            return any(member_accept(*chosen) for member_accept, chosen in fitting(codes))

        return prefix, accept

    @property
    def prefix(self) -> Callable[[tuple[int, ...]], bool] | None:
        """The per-slot check every nonempty prefix of an accepted tuple passes."""
        return self._checks[0]

    @property
    def accept(self) -> Callable[..., bool]:
        """The global check on full tuples whose every prefix passed."""
        return self._checks[1]

    def verifier(self, *codes: int) -> bool:
        """The full acceptance predicate on alpha + beta codes."""
        prefix, accept = self._checks
        if prefix is not None:
            for length in range(1, len(codes) + 1):
                if not prefix(codes[:length]):
                    return False
        return accept(*codes)


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
    through ``spec.verifier``, unpruned and ignoring groups and members'
    slots, stopping at the first hit.
    Raises UniverseTooLarge past the witness_slots, b_pool or brute_walk cap."""
    u = universe_size(spec, inst)
    pools = _witness_pools(spec, inst.elements, u)
    limit = cap_limit("brute_walk")
    walk = _capped_power(inst.m, spec.alpha, limit) * _capped_power(u - inst.m, spec.beta, limit)
    check("brute_walk", walk)
    return next(accepted_tuples(pools, spec.verifier), None) is not None


def _witness_pools(spec: LSProblemSpec, elements: Sequence[int], top: int) -> list[list[int]]:
    """Per-slot candidates up to ``top``: the elements of S for each a-slot and
    the rest of [1, top] for each b-slot.  Raises UniverseTooLarge rather than
    build pools past the witness_slots or b_pool cap."""
    check("witness_slots", spec.alpha + spec.beta)
    inside = [v for v in elements if v <= top]
    check("b_pool", top - len(inside) if spec.beta else 0)
    member = set(inside)
    outside = [v for v in range(1, top + 1) if v not in member] if spec.beta else []
    return [inside] * spec.alpha + [outside] * spec.beta


def accepted_tuples(
    pools: Sequence[Sequence[int]],
    accept: Callable[..., bool],
    prefix: Callable[[tuple[int, ...]], bool] | None = None,
    groups: Sequence[tuple[int, int]] = (),
) -> Iterator[tuple[int, ...]]:
    """Yield the tuples of ``product(*pools)`` whose every nonempty prefix
    passes ``prefix`` and which ``accept`` accepts, in product order.  A
    failing prefix is dropped with all its extensions.  Within each (start,
    stop) of ``groups`` only strictly increasing values are walked, which
    needs those slots' pools ascending.  Raises UniverseTooLarge past the
    witness_slots cap."""
    check("witness_slots", len(pools))
    chained = [False] * len(pools)
    for start, stop in groups:
        chained[start + 1 : stop] = [True] * (stop - start - 1)
    return _extend(pools, accept, prefix, chained, ())


def _extend(pools, accept, prefix, chained, head: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    depth = len(head)
    last = depth + 1 == len(pools)
    pool = pools[depth]
    if chained[depth]:
        pool = pool[bisect_right(pool, head[-1]) :]
    for value in pool:
        extended = head + (value,)
        if prefix is not None and not prefix(extended):
            continue
        if not last:
            yield from _extend(pools, accept, prefix, chained, extended)
        elif accept(*extended):
            yield extended


# --- block comparison machinery ------------------------------------------


def ceil_log2(s: int) -> int:
    if s < 2:
        raise ValueError("size must be >= 2")
    return (s - 1).bit_length()


def block_length(s: int, r: int, theta: int) -> int:
    """L = ceil(r * ceil(log2 s) / theta), within the grid_bits cap."""
    if theta < 1:
        raise ValueError("theta must be >= 1")
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


def compare3(left: int, right: int) -> str:
    if left < right:
        return LT
    if left == right:
        return EQ
    return GT


@lru_cache(maxsize=None)
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
    """The point x = phi(inst): the 0/1 table x[c][i][q][a] of the encoding map.

    x is defined by ``rows`` = (s_0, ..., s_{m+1}) = (0, sorted S, n**r + 1)
    and queried rather than materialized: entry (c, i, q, a) is 1 iff i <=
    m + 1 and comparing block q of s_i against a yields c.
    """

    s: int
    theta: int
    block_len: int
    rows: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.rows) - 2

    @property
    def num_vars(self) -> int:
        return 3 * (self.s + 1) * self.theta * (1 << self.block_len)

    @property
    def max_abs_value(self) -> int:
        return 1

    @cached_property
    def row_blocks(self) -> tuple[tuple[int, ...], ...]:
        """Blocks of s_0 .. s_{m+1}; rows beyond m + 1 are all-zero."""
        return tuple(blocks_of(value, self.theta, self.block_len) for value in self.rows)

    def value(self, comparison: str, i: int, q: int, a: int) -> int:
        if not 0 <= i <= self.s:
            raise ValueError("row index out of range")
        if not 1 <= q <= self.theta:
            raise ValueError("block index out of range")
        if not 0 <= a < (1 << self.block_len):
            raise ValueError("block value out of range")
        if i >= len(self.rows):
            return 0
        return 1 if compare3(self.row_blocks[i][q - 1], a) == comparison else 0

    def variable_index(self, comparison: str, i: int, q: int, a: int) -> int:
        return flat_variable_index(self.s, self.theta, self.block_len, comparison, i, q, a)

    def vector(self) -> list[int]:
        """Materialize the full grid; intended for small instances only."""
        out = [0] * self.num_vars
        width = 1 << self.block_len
        for i, blocks in enumerate(self.row_blocks):
            for q, block in enumerate(blocks, start=1):
                # Runs over a, clamped to the width since block 1 is unbounded.
                runs = ((GT, 0, block), (EQ, block, block + 1), (LT, block + 1, width))
                for comparison, low, high in runs:
                    low, high = min(low, width), min(high, width)
                    base = self.variable_index(comparison, i, q, 0)
                    out[base + low : base + high] = [1] * (high - low)
        return out


def compute_assignment(spec: LSProblemSpec, inst: LSInstance, theta: int) -> BlockVariableAssignment:
    s = inst.size
    if s < 2:
        raise ValueError("instance size must be >= 2")
    return BlockVariableAssignment(
        s=s,
        theta=theta,
        block_len=block_length(s, spec.r, theta),
        rows=(0, *inst.elements, universe_size(spec, inst) + 1),
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
) -> tuple[list[tuple[int, ...]], dict[int, list], dict[int, list]]:
    """The accepted candidate tuples of the size-s literal formulation and the
    factor tables of the codes they hold, a-tables for codes in an a-slot and
    b-tables for codes in a b-slot.

    Each witness contributes exactly s**alpha * (s * |C_lt| * |C_gt|)**beta
    literal monomials of degree theta * (alpha + 2 * beta), |C_lt| = |C_gt| =
    (3**theta - 1) / 2, so the literal cap is checked from the witness count
    before any table is built, and literal_candidates before the walk.
    """
    if s < 2:
        raise ValueError("size must be >= 2")
    length = block_length(s, spec.r, theta)
    top = _candidate_top(s**spec.r, theta, length)
    slots = spec.alpha + spec.beta
    check("literal_candidates", _capped_power(top, slots, cap_limit("literal_candidates")))
    limit = cap_limit("literal")
    # |C_lt| >= 3**(theta - 1) > limit once theta exceeds the cap's bit length.
    half = limit + 1 if theta > limit.bit_length() else (3**theta - 1) // 2
    per_witness = theta * (spec.alpha + 2 * spec.beta) * _capped_power(s, spec.alpha, limit)
    per_witness *= _capped_power(s * half * half, spec.beta, limit)
    witnesses = []
    for witness in accepted_tuples([range(1, top + 1)] * slots, spec.accept, spec.prefix):
        witnesses.append(witness)
        if len(witnesses) * per_witness > limit:
            check("literal", len(witnesses) * per_witness)
    a_values = {v for w in witnesses for v in w[: spec.alpha]}
    b_values = {v for w in witnesses for v in w[spec.alpha :]}
    blocks = {v: blocks_of(v, theta, length) for v in a_values | b_values}

    def gadget(comparisons: Sequence[str], row: int, v: int) -> tuple[int, ...]:
        return tuple(
            flat_variable_index(s, theta, length, c, row, q, block)
            for q, (c, block) in enumerate(zip(comparisons, blocks[v]), start=1)
        )

    a_factors = {v: [gadget((EQ,) * theta, i, v) for i in range(1, s + 1)] for v in a_values}
    b_factors = {}
    if b_values:
        _, c_lt, c_gt = comparison_tuple_sets(theta)
        lt_gt = list(product(sorted(c_lt), sorted(c_gt)))
        b_factors = {
            v: [gadget(lt, j, v) + gadget(gt, j + 1, v) for j in range(s) for lt, gt in lt_gt]
            for v in b_values
        }
    return witnesses, a_factors, b_factors


def formulation_monomials(spec: LSProblemSpec, s: int, theta: int) -> Iterator[Monomial]:
    """Stream the literal monomials of the size-s formulation polynomial.

    The outer sum ranges over accepted candidate tuples from
    [1, s**r]; per slot holding v, a_factors[v] lists the all-equal gadgets
    on rows i in [1, s] and b_factors[v] the C_lt(row j) * C_gt(row j + 1)
    gadgets over j in [0, s-1].  Every emitted monomial has coefficient 1
    and total degree exactly theta * (alpha + 2 * beta); duplicates across
    outer terms are emitted separately, one validated Monomial each.  This
    stream is the reference that formulation_polynomial is tested against.

    The stream depends only on (spec, s, theta) -- not on any instance --
    and raises StreamTooLarge, before its first monomial, when its variable
    occurrences would pass the literal cap (see errors.CAPS).
    """
    witnesses, a_factors, b_factors = _literal_tables(spec, s, theta)
    slot_tables = [a_factors] * spec.alpha + [b_factors] * spec.beta
    for witness in witnesses:
        for factors in product(*[table[v] for table, v in zip(slot_tables, witness)]):
            exponents: dict[int, int] = {}
            for idx in chain.from_iterable(factors):
                exponents[idx] = exponents.get(idx, 0) + 1
            yield Monomial(1, tuple(sorted(exponents.items())))


def formulation_polynomial(spec: LSProblemSpec, s: int, theta: int) -> SparsePolynomial:
    """The size-s formulation polynomial: formulation_monomials summed per
    power vector, collected once per witness multiset.

    All a-slots share one factor table and all b-slots another, so witnesses
    that differ only by a permutation within the a-slots or within the
    b-slots contribute the same monomials.  Each multiset (sorted a-values,
    sorted b-values) is expanded once and weighted by its multiplicity, one
    multiplicity class at a time.  An expanded monomial is counted under its
    sorted tuple of variable indices, which becomes a power vector once per
    class.  The literal cap counts the stream's variable occurrences, so this
    raises StreamTooLarge on exactly the inputs on which draining the stream
    does.  The stream is the reference this collection is tested against.
    """
    witnesses, a_factors, b_factors = _literal_tables(spec, s, theta)
    alpha = spec.alpha
    multisets = Counter((tuple(sorted(w[:alpha])), tuple(sorted(w[alpha:]))) for w in witnesses)
    by_weight: dict[int, list] = {}
    for key, weight in multisets.items():
        by_weight.setdefault(weight, []).append(key)

    # Shared (index, 1) pairs for the common term with no repeated variable.
    gadgets = chain(*a_factors.values(), *b_factors.values())
    unit_powers = {i: (i, 1) for i in chain.from_iterable(gadgets)}
    terms: dict[Powers, int] = {}
    for weight, keys in by_weight.items():
        counts: Counter[tuple[int, ...]] = Counter()
        for a_values, b_values in keys:
            tables = [a_factors[v] for v in a_values] + [b_factors[v] for v in b_values]
            counts.update(map(tuple, map(sorted, map(chain.from_iterable, product(*tables)))))
        for indices, count in counts.items():
            if len(set(indices)) == len(indices):
                powers = tuple(map(unit_powers.__getitem__, indices))
            else:
                powers = tuple((i, len(list(run))) for i, run in groupby(indices))
            terms[powers] = terms.get(powers, 0) + weight * count
    return SparsePolynomial(variable_count(s, spec.r, theta), terms)


def evaluate_formulation(spec: LSProblemSpec, inst: LSInstance, theta: int) -> int:
    """The exact oracle at x = compute_assignment(spec, inst, theta); positive
    iff the instance is a yes-instance."""
    return exact_evaluation_oracle(FormulationQuery(spec, compute_assignment(spec, inst, theta)))


# LS instance wire format: {"problem": "<name>", "n": N, "elements": [codes...]}
# with m inferred from the element list.


def instance_to_json_dict(problem: str, inst: LSInstance) -> dict:
    return {"problem": problem, "n": inst.n, "elements": list(inst.elements)}


@dataclass(frozen=True)
class FormulationQuery:
    """One oracle query (spec, x): evaluate the size-``size`` member of spec's
    formulation family at the point x = ``assignment``."""

    spec: LSProblemSpec
    assignment: BlockVariableAssignment

    @property
    def size(self) -> int:
        return self.assignment.num_vars

    @property
    def max_abs_value(self) -> int:
        return self.assignment.max_abs_value


Oracle = Callable[[FormulationQuery], int]


def exact_evaluation_oracle(query: FormulationQuery) -> int:
    """P(x) by witness counting: the accepted tuples whose a-slots draw from
    x's rows s_1..s_m and whose b-slots draw from the rest of [1, top], top the
    largest candidate code below the sentinel s_{m+1}.  Sortedness of S makes
    the row choices unique and the actual comparison outcomes select exactly
    one comparison tuple per polynomial factor, so each witness contributes
    exactly 1.  The count is that of the union of the members' accepted sets
    (``_union_count``)."""
    spec, x = query.spec, query.assignment
    top = _candidate_top(x.rows[-1] - 1, x.theta, x.block_len)
    return _union_count(spec.members, _witness_pools(spec, x.rows[1:-1], top))


def _union_count(members: Sequence[Member], pools: list[list[int]]) -> int:
    """The tuples over ``pools`` that some member accepts, by inclusion-exclusion:
    the sum over nonempty sets M of distinct members of (-1)**(|M| + 1) * N(M),
    N(M) the tuples that every member of M accepts (``_common_count``).

    A tuple accepted by exactly j >= 1 members is counted sum_i (-1)**(i + 1)
    * C(j, i) = 1 times.  N only shrinks as M grows, so a set whose N is 0 is
    not extended: each of its supersets counts 0 too."""
    members = list(dict.fromkeys(members))

    def terms(chosen: list[Member], start: int, sign: int) -> int:
        total = 0
        for i in range(start, len(members)):
            grown = chosen + [members[i]]
            count = _common_count(grown, pools)
            if count:
                total += sign * count + terms(grown, i + 1, -sign)
        return total

    return terms([], 0, 1)


def _common_count(members: Sequence[Member], pools: list[list[int]]) -> int:
    """N(M): the tuples over ``pools`` whose projection every member accepts.

    Only U, the slots some member reads, is walked, one increasing ordering
    per group, times the groups' factorials.  A lone member walks its own
    checks.  Otherwise a member that reads the newest slot checks its
    ``prefix`` on its projection, every member checks ``accept`` on the full
    one, and ``_shared_groups`` gives the groups.  Each other slot is free,
    so the count is multiplied by its pool size.  With U empty, ``accept()``
    decides between the whole pool product and 0."""
    if len(members) == 1:
        ((used, prefix, accept, groups),) = members
    else:
        used = sorted({slot for slots, _, _, _ in members for slot in slots})
        place = {slot: at for at, slot in enumerate(used)}
        views = [m._replace(slots=tuple(map(place.__getitem__, m.slots))) for m in members]
        checks: list[list] = [[] for _ in used]
        for places, member_prefix, _, _ in views:
            if member_prefix is not None:
                for length, at in enumerate(places, start=1):
                    checks[at].append((member_prefix, places[:length]))

        def prefix(codes: tuple[int, ...]) -> bool:
            tests = checks[len(codes) - 1]
            return all(test(tuple(codes[at] for at in places)) for test, places in tests)

        def accept(*codes: int) -> bool:
            return all(test(*(codes[at] for at in places)) for places, _, test, _ in views)

        groups = _shared_groups(views, len(used))
    free = prod(len(pool) for slot, pool in enumerate(pools) if slot not in used)
    if not used:
        return free if accept() else 0
    walked = sum(1 for _ in accepted_tuples([pools[slot] for slot in used], accept, prefix, groups))
    return free * walked * prod(factorial(stop - start) for start, stop in groups)


def _shared_groups(views, size: int) -> tuple[tuple[int, int], ...]:
    """The maximal runs of at least two of the ``size`` walk positions that
    every member either does not read or reads inside one of its own groups.
    Reordering such a run reorders part of one group of each member that
    reads it, so acceptance ignores the run's order, and the reading members
    make its values distinct: the groups' contract holds.  Some member reads
    each run, so the run lies inside one of that member's groups, which
    never straddles alpha: the run's slots share one ascending pool."""

    def label(at: int) -> list:
        key = []
        for places, _, _, member_groups in views:
            if at not in places:
                key.append(None)
                continue
            local = places.index(at)
            # A read slot outside every group of its member is a run of its own.
            key.append(next((g for g in member_groups if g[0] <= local < g[1]), ("alone", at)))
        return key

    runs = (list(run) for _, run in groupby(range(size), key=label))
    return tuple((run[0], run[-1] + 1) for run in runs if len(run) >= 2)


def solve_via_oracle(
    spec: LSProblemSpec,
    inst: LSInstance,
    theta: int,
    oracle: Oracle = exact_evaluation_oracle,
) -> bool:
    """Decide the instance with exactly one oracle call, at x = phi(inst)."""
    return oracle(FormulationQuery(spec, compute_assignment(spec, inst, theta))) != 0
