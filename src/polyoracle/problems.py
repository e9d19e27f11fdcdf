"""Concrete local-subset encoders: k-SUM, collinearity, induced patterns,
minimum-weight cliques and weighted pattern subgraphs.

Every encoder turns a natural problem input into an ``LSProblemSpec`` plus an
``LSInstance``.  Universe codecs are size-independent bijections into the
positive integers, so a tuple valid at size n-1 keeps its code at size n:

* pairs use shell (max-based) enumeration -- shell k covers codes
  ((k-1)**2, k**2], with the self-pair (k, k) taking the shell's top code;
* tagged weighted records (tag, u, v, w) nest the pair shell code with a
  fixed weight span and tag count, both frozen into the problem spec;
* values from a range [-W, W] are shifted by W + 1 before encoding so codes
  stay positive.

Acceptance predicates are pure functions of codes and never consult the
instance size.  The one construction that needs a reserved element (the
pattern-family encoder, whose instances must keep both S and its complement
nonempty) puts a loop at vertex 1 and shifts real vertices up by one, so
"the witness avoids the reserved vertex" is a size-independent check.

Each encoder states acceptance as the spec's ``members``, each reading
every slot: one ``Member``, or one per distinct pattern of a family.  A
graph or record encoder declares a member's slots once, as ordered ``Run``s
of alike slots, each with a record tag, a pair shape (a canonical edge, a
vertex (v, v) or one fixed pair) and whether its weight must be 1.  The
member's ``step`` is derived from that declaration: it checks each slot
against its run, and its state, the pairs placed and the vertices they
span, rejects a repeated pair or more than |V(H)| (or k) vertices.  Its
groups are derived too: the runs of two or more edge or vertex slots,
whose order the step ignores.  ``accept`` keeps only the global check: the
pattern isomorphism or the weight threshold.  A pattern on t >= 2 vertices
fills C(t, 2) pair slots, and that many distinct canonical pairs on at most
t vertices are all the pairs of exactly t vertices; so a clique's
``accept`` needs no vertex count, and in vertex mode the declared vertices
are the spanned ones.  k-SUM's step pins one tag per slot and carries the
code sum, which its last slot must close; collinearity's keeps its three
points distinct, one group, and its third on the line of the first two.
Each pool hook draws only what its step can pass: k-SUM's a slot's own tag
or the closing code, collinearity's the third point from the lines through
the first, a declared member's the codes at the spanned vertices, and, for
a b-slot, the codes outside S of its fixed pair or of the pairs among the
spanned vertices, so β > 0 walks follow the pattern, not the universe.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, combinations, combinations_with_replacement
from math import gcd, isqrt
from typing import Callable, Iterable, Literal, NamedTuple, Sequence

from .errors import ValueOutOfRange, cap_limit, check, int_list, json_field, json_int, json_list
from .errors import json_object
from .localsubset import Draw, LSInstance, LSProblemSpec, Member, ls_instance


# --- shell pair codec -----------------------------------------------------

# Entries in each process-wide pair memo: bounded, so repeated solves on
# large graphs do not grow the process without limit.
_PAIR_MEMO = 1 << 16


@lru_cache(maxsize=_PAIR_MEMO)
def encode_pair(u: int, v: int) -> int:
    """Shell code of an ordered pair of positive integers; max(u, v) = shell."""
    if u < 1 or v < 1:
        raise ValueOutOfRange("pair components must be positive")
    k = max(u, v)
    base = (k - 1) * (k - 1)
    if v == k and u < k:
        return base + u
    if u == k and v < k:
        return base + (k - 1) + v
    return k * k  # u == v == k


@lru_cache(maxsize=_PAIR_MEMO)
def decode_pair(code: int) -> tuple[int, int]:
    if code < 1:
        raise ValueOutOfRange("pair code must be positive")
    k = isqrt(code - 1) + 1
    offset = code - (k - 1) * (k - 1)
    if offset <= k - 1:
        return offset, k
    if offset <= 2 * (k - 1):
        return k, offset - (k - 1)
    return k, k


# --- pattern graphs -------------------------------------------------------


@dataclass(frozen=True)
class PatternGraph:
    """A small fixed pattern on vertices 1..num_vertices with canonical edges."""

    name: str
    num_vertices: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for u, v in self.edges:
            if not (1 <= u < v <= self.num_vertices):
                raise ValueOutOfRange("pattern edges must be canonical pairs in range")

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_nonedges(self) -> int:
        return self.num_vertices * (self.num_vertices - 1) // 2 - len(self.edges)


def _pattern(name: str, n: int, edges: Iterable[tuple[int, int]]) -> PatternGraph:
    return PatternGraph(name, n, frozenset(tuple(sorted(e)) for e in edges))


H_PRESETS: dict[str, PatternGraph] = {
    "edge": _pattern("edge", 2, [(1, 2)]),
    "path3": _pattern("path3", 3, [(1, 2), (2, 3)]),
    "triangle": _pattern("triangle", 3, [(1, 2), (1, 3), (2, 3)]),
    "c4": _pattern("c4", 4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
    "k4": _pattern("k4", 4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),
}


def _spans_pattern(pairs: Sequence[tuple[int, int]], pattern: PatternGraph) -> bool:
    """True iff the vertices of ``pairs``, joined by its first |E(H)| pairs,
    form a copy of the pattern.

    A map onto the pattern's vertices grows one vertex at a time, taking a
    neighbour of the mapped ones where there is one.  Each goes to an unused
    pattern vertex of its degree whose neighbours among the used ones are
    exactly the images of its mapped neighbours; a map that cannot grow is
    undone a vertex at a time.  Vertices are numbered by first appearance,
    and neighbourhoods are bitmasks over those numbers, or over the
    pattern's vertices less one.

    The caller's step has made the pairs distinct on at most |V(H)|
    vertices, the first |E(H)| canonical edges u < v and all later ones but
    the self-pairs (v, v) canonical, so the canonical pairs after the first
    |E(H)| are exactly the copy's non-edges.
    """
    n = pattern.num_vertices
    position: dict[int, int] = {}
    for pair in pairs:
        for x in pair:
            position.setdefault(x, len(position))
    if len(position) != n:
        return False
    ours, theirs = [0] * n, [0] * n  # neighbourhoods in the pairs and in the pattern
    for u, v in pairs[: pattern.num_edges]:
        ours[position[u]] |= 1 << position[v]
        ours[position[v]] |= 1 << position[u]
    for u, v in pattern.edges:
        theirs[u - 1] |= 1 << (v - 1)
        theirs[v - 1] |= 1 << (u - 1)
    image = [0] * n  # each mapped vertex's pattern vertex, as a bit

    def grow(mapped: int, used: int, reached: int) -> bool:
        if mapped == (1 << n) - 1:
            return True
        open_ = reached & ~mapped or ~mapped  # unmapped neighbours, else all unmapped
        i = (open_ & -open_).bit_length() - 1
        wanted, rest = 0, ours[i] & mapped
        while rest:
            wanted |= image[(rest & -rest).bit_length() - 1]
            rest &= rest - 1
        degree = ours[i].bit_count()
        for t, around in enumerate(theirs):
            bit = 1 << t
            if not used & bit and around & used == wanted and around.bit_count() == degree:
                image[i] = bit
                if grow(mapped | (1 << i), used | bit, reached | ours[i]):
                    return True
        return False

    return grow(0, 0, 0)


class Run(NamedTuple):
    """``count`` alike slots of a member's declaration, each holding a record
    of ``tag`` whose pair is a canonical edge u < v at or above the member's
    lowest vertex (``shape`` "edge"), a vertex (v, v) ("vertex") or the one
    pair ``shape``, and whose weight is 1 where ``unit``."""

    count: int
    tag: int
    shape: Literal["edge", "vertex"] | tuple[int, int]
    unit: bool = False


@lru_cache(maxsize=_PAIR_MEMO)
def _pair_record(code: int) -> tuple[int, int, int, int]:
    """A pair code read as the record (1, u, v, 1)."""
    return (1, *decode_pair(code), 1)


def _declared_member(
    runs: Sequence[Run], codec: tuple, budget: int, accept: Callable, lowest: int = 1
) -> Member:
    """The member of a run declaration, its records read and written by the
    ``codec`` (encode, decode): its step checks a slot's record against the
    slot's run and adds each edge or vertex to the state (pairs placed,
    vertices spanned), rejecting a repeated pair or more than ``budget``
    vertices, so a step's work is bounded by the budget, not by the walk's
    depth or the vertex labels; its groups are the runs of two or more edge
    or vertex slots.  Its pool hook draws a b-slot of a ``unit`` run from its
    records of weight 1 outside S: a fixed pair's, or, with no room for a
    fresh vertex, the pairs' among the spanned ones.  An a-slot with room
    for one fresh vertex, or none, draws the codes at, or among, the spanned
    ones from an index of the a-slot pool by (tag, vertex) and (tag, u, v),
    which declines small or dense pools."""
    encode, decode = codec
    runs = [run for run in runs if run.count]
    limit = cap_limit("witness_slots")  # no walk steps a slot past it
    slot_runs = [run for run in runs for _ in range(min(run.count, limit))][:limit]
    starts = accumulate((run.count for run in runs), initial=0)
    groups = tuple(
        (start, start + count)
        for start, (count, _, shape, _) in zip(starts, runs)
        if count >= 2 and isinstance(shape, str)
    )

    def step(state: tuple, slot: int, code: int) -> tuple | None:
        _, tag, shape, unit = slot_runs[slot]
        t, u, v, w = decode(code)
        if t != tag or (unit and w != 1):
            return None
        if not isinstance(shape, str):
            return state if (u, v) == shape else None
        if not (lowest <= u < v if shape == "edge" else u == v):
            return None
        pairs, spanned = state or ((), ())
        if u not in spanned:
            spanned += (u,)
        if v not in spanned:
            spanned += (v,)
        if len(spanned) > budget or (u, v) in pairs:
            return None
        return pairs + ((u, v),), spanned

    def pool(pools: Sequence[Sequence[int]]) -> Draw | None:
        a_pool, outside = pools[0], pools[-1]  # the b-slots' pool, or a_pool when beta = 0
        index: dict[tuple, list[int]] | None = None  # a_pool by (tag, vertex) and (tag, u, v)
        if len(a_pool) >= 16:  # below, indexing would cost more than a whole walk of them
            index = {}
            for code in a_pool:
                t, u, v, _ = decode(code)
                for key in {(t, u), (t, v), (t, u, v)}:
                    index.setdefault(key, []).append(code)
            if budget * max(map(len, index.values()), default=0) >= len(a_pool):
                index = None  # a draw could hold as many codes as the pool
        if index is None and outside is a_pool:
            return None

        @lru_cache(maxsize=256)  # siblings that add no vertex share a draw
        def near(tag: int, spanned: tuple) -> list[int]:
            if len(spanned) < budget:  # room for one fresh vertex
                return sorted(set().union(*[index.get((tag, x), ()) for x in spanned]))
            pairs = combinations_with_replacement(sorted(spanned), 2)
            return sorted([c for u, v in pairs for c in index.get((tag, u, v), ())])

        @lru_cache(maxsize=256)  # every b-slot below a full budget shares a draw
        def among(tag: int, spanned: tuple) -> list[int]:
            codes = [encode(tag, u, v, 1) for u, v in combinations(sorted(spanned), 2)]
            return sorted(code for code in codes if code in outside)

        def draw(state: tuple, slot: int) -> Sequence[int]:
            _, tag, shape, unit = slot_runs[slot]
            spanned = state[1] if state else ()
            room = budget - len(spanned)
            if pools[slot] is a_pool:
                if index is not None and isinstance(shape, str) and room <= (shape == "edge"):
                    return near(tag, spanned)
            elif unit and not isinstance(shape, str):
                code = encode(tag, *shape, 1)
                return (code,) if code in outside else ()
            elif unit and shape == "edge" and not room:
                return among(tag, spanned)
            return pools[slot]  # no index, room to spare or no unit b-run

        return draw

    return Member(step, accept, groups, pool)


def _induced_member(pattern: PatternGraph, alpha: int, beta: int, lowest: int = 1) -> Member:
    """An induced copy of the pattern on its |E(H)| leading a-slots and
    |nonedges(H)| leading b-slots, on vertices at least ``lowest``; any
    other a-slot holds the loop (1, 1) and any other b-slot the pair (1, 2).
    A pair record weighs 1, so its b-runs are declared ``unit`` and drawn."""
    edges, nonedges = pattern.num_edges, pattern.num_nonedges
    runs = (Run(edges, 1, "edge"), Run(alpha - edges, 1, (1, 1)))
    runs += (Run(nonedges, 1, "edge", True), Run(beta - nonedges, 1, (1, 2), True))

    def accept(*codes: int) -> bool:
        pairs = codes[:edges] + codes[alpha : alpha + nonedges]
        return _spans_pattern([decode_pair(c) for c in pairs], pattern)

    pair_codec = (lambda tag, u, v, w: encode_pair(u, v), _pair_record)
    return _declared_member(runs, pair_codec, pattern.num_vertices, accept, lowest)


# --- natural inputs -------------------------------------------------------


@dataclass(frozen=True)
class KSumInput:
    """k equal-size sets of integers within [-magnitude, magnitude]."""

    k: int
    sets: tuple[tuple[int, ...], ...]
    magnitude: int

    def __post_init__(self) -> None:
        if self.k < 1 or len(self.sets) != self.k:
            raise ValueOutOfRange("need exactly k value sets")
        sizes = {len(s) for s in self.sets}
        if len(sizes) != 1:
            raise ValueOutOfRange("value sets must have equal size")
        for values in self.sets:
            if len(set(values)) != len(values):
                raise ValueOutOfRange("values within a set must be distinct")
            for value in values:
                if abs(value) > self.magnitude:
                    raise ValueOutOfRange(f"value {value} outside [-W, W]")


@dataclass(frozen=True)
class PointSetInput:
    """Planar integer points with coordinates within [-magnitude, magnitude]."""

    points: tuple[tuple[int, int], ...]
    magnitude: int

    def __post_init__(self) -> None:
        for x, y in self.points:
            if abs(x) > self.magnitude or abs(y) > self.magnitude:
                raise ValueOutOfRange(f"point ({x}, {y}) outside range")


@dataclass(frozen=True)
class GraphInput:
    """Simple graph on vertices 1..n with canonical (u < v) edges."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for u, v in self.edges:
            if not (1 <= u < v <= self.n):
                raise ValueOutOfRange("edges must be canonical pairs within [1, n]")


@dataclass(frozen=True)
class WeightedGraphInput:
    """Simple graph with integer weights in [-magnitude, magnitude].

    ``edge_weights`` maps canonical pairs to weights; ``vertex_weights``
    (when present) assigns one weight per vertex.
    """

    n: int
    edge_weights: tuple[tuple[tuple[int, int], int], ...]
    magnitude: int
    vertex_weights: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for (u, v), w in self.edge_weights:
            if not (1 <= u < v <= self.n):
                raise ValueOutOfRange("edges must be canonical pairs within [1, n]")
            if (u, v) in seen:
                raise ValueOutOfRange("duplicate edge")
            seen.add((u, v))
            if abs(w) > self.magnitude:
                raise ValueOutOfRange(f"edge weight {w} outside [-W, W]")
        if self.vertex_weights:
            if len(self.vertex_weights) != self.n:
                raise ValueOutOfRange("need one weight per vertex")
            for w in self.vertex_weights:
                if abs(w) > self.magnitude:
                    raise ValueOutOfRange(f"vertex weight {w} outside [-W, W]")


# --- encoders -------------------------------------------------------------


def encode_ksum(inp: KSumInput) -> tuple[LSProblemSpec, LSInstance]:
    """k-SUM: universe [k] x [-W, W]; a witness picks one value per set index.

    The step demands set indices exactly 1..k in order, so every solution
    corresponds to exactly one witness tuple.
    """
    k, w = inp.k, inp.magnitude

    def encode(tag: int, value: int) -> int:
        return (value + w) * k + tag

    # The step puts tag i in the i-th slot, so code i is (value_i + w) * k + i and
    # the values sum to zero iff the codes sum to this.
    zero_sum = k * k * w + k * (k + 1) // 2

    def step(state: tuple, slot: int, code: int) -> tuple | None:
        total = code + (state[0] if state else 0)  # the running code sum
        if (code - 1) % k != slot or (slot == k - 1 and total != zero_sum):
            return None
        return (total,)

    def pool(pools: Sequence[Sequence[int]]) -> Draw:
        tagged = [[code for code in pools[0] if (code - 1) % k == tag] for tag in range(k)]
        closing = {zero_sum - code: (code,) for code in tagged[-1]}  # by the sum before it
        return lambda state, slot: tagged[slot] if slot < k - 1 else closing.get(sum(state), ())

    member = Member(step, lambda *codes: True, pool=pool)
    spec = LSProblemSpec(f"{k}-sum", k, 0, r=1, members=(member,))
    elements = [encode(tag, value) for tag, values in enumerate(inp.sets, 1) for value in values]
    return spec, ls_instance(n=k * (2 * w + 1), elements=elements)


def encode_collinearity(inp: PointSetInput) -> tuple[LSProblemSpec, LSInstance]:
    """Collinearity: universe [-W, W]^2; exact integer directions, no floats."""
    w = inp.magnitude
    shift = w + 1

    @lru_cache(maxsize=None)
    def decode_point(code: int) -> tuple[int, int]:
        a, b = decode_pair(code)
        return a - shift, b - shift

    def direction(a: int, b: int) -> tuple[int, int]:  # from a to b, reduced, sign fixed
        (x1, y1), (x2, y2) = decode_point(a), decode_point(b)
        dx, dy = x2 - x1, y2 - y1
        g = gcd(dx, dy) if dx > 0 or (dx == 0 and dy > 0) else -gcd(dx, dy)
        return dx // g, dy // g

    def step(seen: tuple, slot: int, code: int) -> tuple | None:
        if code in seen or slot == 2 and direction(*seen) != direction(seen[0], code):
            return None
        return seen + (code,)

    def pool(pools: Sequence[Sequence[int]]) -> Draw:
        # Each point b after a, with its line's points after a and where b's
        # successors start: O(|S|) per a, as is a's slot-1 pool the walk charged.
        @lru_cache(maxsize=1)  # the walk takes each a's pairs in turn
        def lines(a: int) -> dict[int, tuple[list[int], int]]:
            later: dict[tuple[int, int], list[int]] = {}
            for b in pools[2][bisect_right(pools[2], a) :]:
                later.setdefault(direction(a, b), []).append(b)
            return {b: (line, i + 1) for line in later.values() for i, b in enumerate(line)}

        def draw(seen: tuple, slot: int) -> Sequence[int]:
            if slot < 2:
                return pools[slot]
            line, after = lines(seen[0])[seen[1]]
            return line[after:]

        return draw

    member = Member(step, lambda *codes: True, groups=((0, 3),), pool=pool)
    spec = LSProblemSpec("collinearity", alpha=3, beta=0, r=2, members=(member,))
    elements = {encode_pair(x + shift, y + shift) for x, y in inp.points}
    return spec, ls_instance(n=2 * w + 1, elements=sorted(elements))


def encode_h_induced(inp: GraphInput, pattern: PatternGraph) -> tuple[LSProblemSpec, LSInstance]:
    """H-induced subgraph: universe [n]^2, witnesses = |E(H)| edges plus
    |nonedges(H)| non-edges spanning an H-isomorph.

    Edges are stored canonically (u < v); the step rejects any code whose
    pair is not canonical, so each edge or non-edge has exactly one code.
    """
    if pattern.num_edges < 1:
        raise ValueOutOfRange("pattern needs at least one edge to be encodable")
    alpha, beta = pattern.num_edges, pattern.num_nonedges
    member = _induced_member(pattern, alpha, beta)
    spec = LSProblemSpec(f"induced-{pattern.name}", alpha, beta, r=2, members=(member,))
    elements = [encode_pair(u, v) for u, v in inp.edges]
    return spec, ls_instance(n=inp.n, elements=elements)


def encode_family_induced(
    inp: GraphInput, family: Sequence[PatternGraph]
) -> tuple[LSProblemSpec, LSInstance]:
    """Family-induced subgraph: some member of a finite pattern family occurs.

    Vertex 1 is reserved and carries a loop so that S and its complement are
    both nonempty; real vertices shift up by one.  Each distinct pattern H is
    a member: its leading |E(H)| edge and |nonedges(H)| non-edge slots make
    the h-induced checks and avoid vertex 1, its other edge slots hold the
    loop, always in S, and its other non-edge slots the pair (1, 2), never in
    S.  So the count sums the distinct patterns' h-induced counts.  Patterns
    on fewer than two vertices fill no pair slot and are refused.
    """
    if not family or any(p.num_vertices < 2 for p in family):
        raise ValueOutOfRange("family must be nonempty, each pattern on two or more vertices")
    alpha = max(p.num_edges for p in family)
    beta = max(p.num_nonedges for p in family)
    if alpha < 1:
        raise ValueOutOfRange("family needs a member with at least one edge")
    # Refused here, as every walk over the slots would be.
    check("witness_slots", alpha + beta)
    name = "family-induced-" + "+".join(p.name for p in family)
    members = tuple(_induced_member(p, alpha, beta, lowest=2) for p in dict.fromkeys(family))
    spec = LSProblemSpec(name, alpha, beta, r=2, members=members)
    elements = [encode_pair(1, 1)] + [encode_pair(u + 1, v + 1) for u, v in inp.edges]
    return spec, ls_instance(n=inp.n + 1, elements=elements)


def tagged_codec(n: int, num_tags: int, span: int) -> tuple[int, Callable[..., int], Callable]:
    """(r, encode, decode): a size-stable bijection between records (tag, u,
    v, w'), tag in [num_tags] and w' in [span], and codes in [1, n**r].

    The exponent r is the smallest one with n**r >= num_tags * span * n**2,
    the top record code; the code function itself never consults n.
    """

    def encode(tag: int, u: int, v: int, w: int) -> int:
        if not 1 <= tag <= num_tags:
            raise ValueOutOfRange("tag out of range")
        if not 1 <= w <= span:
            raise ValueOutOfRange("weight slot out of range")
        return ((encode_pair(u, v) - 1) * span + (w - 1)) * num_tags + tag

    @lru_cache(maxsize=None)
    def decode(code: int) -> tuple[int, int, int, int]:
        tag = (code - 1) % num_tags + 1
        rest = (code - tag) // num_tags
        w = rest % span + 1
        u, v = decode_pair(rest // span + 1)
        return tag, u, v, w

    return _tagged_universe_exponent(n, num_tags, span), encode, decode


def _tagged_universe_exponent(n: int, num_tags: int, span: int) -> int:
    """Smallest r with n**r >= num_tags * span * n**2 (the max record code)."""
    if n < 2:
        raise ValueOutOfRange("weighted encoders need n >= 2")
    top = num_tags * span * n * n
    r = 1
    while n**r < top:
        r += 1
    return r


def encode_min_weight_kclique(
    inp: WeightedGraphInput, k: int, threshold: int
) -> tuple[LSProblemSpec, LSInstance]:
    """Minimum-weight k-clique, decision form: some k-clique of weight <= threshold.

    Records are (1, u, v, weight) for edges and (2, 1, 1, threshold); the tag
    pattern lets the step tell edges from the threshold record.
    """
    if k < 2:
        raise ValueOutOfRange("k must be >= 2")
    pair_count = k * (k - 1) // 2
    wcap = max(inp.magnitude, abs(threshold), 1)
    span = 2 * wcap + 1
    shift = wcap + 1
    r, encode, decode = tagged_codec(inp.n, 2, span)

    def accept(*codes: int) -> bool:
        total = sum(decode(code)[3] - shift for code in codes[:-1])
        return total <= decode(codes[-1])[3] - shift

    runs = (Run(pair_count, 1, "edge"), Run(1, 2, (1, 1)))
    member = _declared_member(runs, (encode, decode), k, accept)
    spec = LSProblemSpec(f"min-weight-{k}-clique", pair_count + 1, 0, r, members=(member,))
    elements = [encode(1, u, v, w + shift) for (u, v), w in inp.edge_weights]
    elements.append(encode(2, 1, 1, threshold + shift))
    return spec, ls_instance(n=inp.n, elements=elements)


WeightMode = Literal["edge-weights", "vertex-weights"]


def encode_max_h_subgraph(
    inp: WeightedGraphInput, pattern: PatternGraph, threshold: int, mode: WeightMode
) -> tuple[LSProblemSpec, LSInstance]:
    """MAX H-SUBGRAPH, decision form: an induced H of total weight >= threshold.

    Edge mode records: (1, u, v, weight) weighted edges, (2, u, v, 1)
    adjacency witnesses -- their absence from S certifies a non-edge -- and
    (3, 1, 1, threshold).  Vertex mode records: (1, u, v, 1) edges,
    (2, v, v, weight) weighted vertices, (3, 1, 1, threshold); non-edges are
    certified through absent tag-1 records.  In edge mode the pattern must
    not contain isolated vertices (every pattern vertex must be pinned to a
    real edge endpoint; a vertex touching only non-edge slots could otherwise
    land outside the graph).
    """
    if mode not in ("edge-weights", "vertex-weights"):
        raise ValueOutOfRange(f"unknown mode {mode!r}")
    edge_mode = mode == "edge-weights"
    if edge_mode:
        covered = {x for pair in pattern.edges for x in pair}
        if len(covered) != pattern.num_vertices:
            raise ValueOutOfRange("edge mode requires a pattern without isolated vertices")
    if not edge_mode and not inp.vertex_weights:
        raise ValueOutOfRange("vertex mode needs vertex weights")
    wcap = max(inp.magnitude, abs(threshold), 1)
    span = 2 * wcap + 1
    shift = wcap + 1
    r, encode, decode = tagged_codec(inp.n, 3, span)
    ne, nv = pattern.num_edges, pattern.num_vertices
    beta = pattern.num_nonedges

    threshold_slot = ne if edge_mode else ne + nv
    threshold_run = Run(1, 3, (1, 1))
    if edge_mode:
        runs = (Run(ne, 1, "edge"), threshold_run, Run(beta, 2, "edge", unit=True))
    else:
        edges, nonedges = Run(ne, 1, "edge", unit=True), Run(beta, 1, "edge", unit=True)
        runs = (edges, Run(nv, 2, "vertex"), threshold_run, nonedges)
    weighted_slots = range(ne) if edge_mode else range(ne, threshold_slot)

    def accept(*codes: int) -> bool:
        records = [decode(code) for code in codes]
        total = sum(records[slot][3] - shift for slot in weighted_slots)
        if total < records[threshold_slot][3] - shift:
            return False
        pairs = [(u, v) for slot, (_, u, v, _) in enumerate(records) if slot != threshold_slot]
        return _spans_pattern(pairs, pattern)

    member = _declared_member(runs, (encode, decode), nv, accept)
    name = f"max-{pattern.name}-subgraph-{mode}"
    spec = LSProblemSpec(name, threshold_slot + 1, beta, r, members=(member,))
    elements = []
    for (u, v), w in inp.edge_weights:
        if edge_mode:
            elements.append(encode(1, u, v, w + shift))
        elements.append(encode(2, u, v, 1) if edge_mode else encode(1, u, v, 1))
    if not edge_mode:
        for vertex, w in enumerate(inp.vertex_weights, start=1):
            elements.append(encode(2, vertex, vertex, w + shift))
    elements.append(encode(3, 1, 1, threshold + shift))
    return spec, ls_instance(n=inp.n, elements=elements)


# --- natural-input JSON and the problem registry ---------------------------


def _magnitude(data: dict, values: Iterable[int]) -> int:
    """The given ``magnitude``, raised to the largest |value|."""
    return max([json_int(data.get("magnitude", 0)), *map(abs, values)])


def graph_from_json(data: dict) -> GraphInput:
    data = json_object(data)
    edges = frozenset(
        tuple(sorted(int_list(entry, 2, 3)[:2])) for entry in json_list(json_field(data, "edges"))
    )
    return GraphInput(n=json_int(json_field(data, "n")), edges=edges)


def weighted_graph_from_json(data: dict) -> WeightedGraphInput:
    data = json_object(data)
    edge_weights = []
    for entry in json_list(json_field(data, "edges")):
        u, v, *w = int_list(entry, 2, 3)
        edge_weights.append(((min(u, v), max(u, v)), w[0] if w else 0))
    vertex_weights = tuple(int_list(data.get("vertex_weights", [])))
    return WeightedGraphInput(
        n=json_int(json_field(data, "n")),
        edge_weights=tuple(edge_weights),
        magnitude=_magnitude(data, [*(w for _, w in edge_weights), *vertex_weights]),
        vertex_weights=vertex_weights,
    )


def points_from_json(data: dict) -> PointSetInput:
    data = json_object(data)
    points = tuple(tuple(int_list(entry, 2, 2)) for entry in json_list(json_field(data, "points")))
    return PointSetInput(points=points, magnitude=_magnitude(data, chain(*points)))


def ksum_from_json(data: dict) -> KSumInput:
    data = json_object(data)
    sets = tuple(tuple(int_list(values)) for values in json_list(json_field(data, "sets")))
    k = json_int(json_field(data, "k"))
    return KSumInput(k=k, sets=sets, magnitude=_magnitude(data, chain(*sets)))


def pattern_from_json(value) -> PatternGraph:
    if isinstance(value, str):
        try:
            return H_PRESETS[value]
        except KeyError:
            raise ValueOutOfRange(f"unknown pattern preset {value!r}") from None
    value = json_object(value)
    edges = [tuple(int_list(entry, 2, 2)) for entry in json_list(json_field(value, "edges"))]
    return _pattern(str(value.get("name", "custom")), json_int(json_field(value, "n")), edges)


@dataclass(frozen=True)
class ProblemDefinition:
    """Registry entry: JSON builder, the universe exponent used by benchmarks,
    and (when the problem spec needs no instance parameters) a default input
    that pins down the spec alone."""

    build: Callable[[dict], tuple[LSProblemSpec, LSInstance]]
    bench_r: int | None
    default_input: dict | None = None


def _h_induced_definition(preset: str) -> ProblemDefinition:
    return ProblemDefinition(
        build=lambda data: encode_h_induced(graph_from_json(data), H_PRESETS[preset]),
        bench_r=2,
        default_input={"n": 2, "edges": []},
    )


PROBLEMS: dict[str, ProblemDefinition] = {
    "ksum": ProblemDefinition(lambda d: encode_ksum(ksum_from_json(d)), bench_r=1),
    "collinearity": ProblemDefinition(
        lambda d: encode_collinearity(points_from_json(d)), bench_r=2
    ),
    "h-induced": ProblemDefinition(
        lambda d: encode_h_induced(graph_from_json(d), pattern_from_json(json_field(d, "H"))),
        bench_r=2,
    ),
    "family-induced": ProblemDefinition(
        lambda d: encode_family_induced(
            graph_from_json(d), [pattern_from_json(p) for p in json_list(json_field(d, "family"))]
        ),
        bench_r=2,
    ),
    "min-weight-clique": ProblemDefinition(
        lambda d: encode_min_weight_kclique(
            weighted_graph_from_json(d),
            json_int(json_field(d, "k")),
            json_int(json_field(d, "threshold")),
        ),
        bench_r=None,
    ),
    "max-h-subgraph": ProblemDefinition(
        lambda d: encode_max_h_subgraph(
            weighted_graph_from_json(d),
            pattern_from_json(json_field(d, "H")),
            json_int(json_field(d, "threshold")),
            d.get("mode", "edge-weights"),
        ),
        bench_r=None,
    ),
}
for _preset in H_PRESETS:
    PROBLEMS[_preset] = _h_induced_definition(_preset)


def build_problem(name: str, data: dict) -> tuple[LSProblemSpec, LSInstance]:
    try:
        definition = PROBLEMS[name]
    except KeyError:
        raise ValueOutOfRange(f"unknown problem {name!r}") from None
    return definition.build(data)
