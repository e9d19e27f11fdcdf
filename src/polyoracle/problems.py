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

Each encoder states acceptance as the spec's ``members``: one ``Member``
reading every slot, or, for a pattern family, one per pattern.  A member
writes every per-slot check once, in its ``prefix``: slot tags, canonical
pairs, w == 1, distinct pairs and at most |V(H)| (or k) vertices spanned.
Its ``accept`` keeps only the global check: the value sum, the cross
product, the pattern isomorphism or the weight threshold.  A pattern on
t >= 2 vertices fills C(t, 2) pair slots, and that many distinct canonical
pairs on at most t vertices are all the pairs of exactly t vertices; so a
clique's ``accept`` needs no vertex count, and in vertex mode the declared
vertices are the spanned ones.

Where those checks read a run of slots as a set, the member declares the run
in its ``groups``, and the prefix makes the run's values distinct: the three
collinear points, a pattern's edge slots and its non-edge slots, and a
weighted pattern's or clique's edge, vertex and non-edge records.  k-SUM
pins one tag per slot, so it declares none.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import isqrt
from typing import Callable, Iterable, Literal, Sequence

from . import polynomials
from .errors import ValueOutOfRange, check
from .localsubset import LSInstance, LSProblemSpec, Member, ls_instance


# --- shell pair codec -----------------------------------------------------


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
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


@dataclass(frozen=True)
class UniverseCodec:
    """A size-stable bijection between natural tuples and [1, n**r]."""

    r: int
    encode: Callable[..., int]
    decode: Callable[[int], tuple]


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
    form a copy of the pattern: a brute-force bijection check.

    The caller's prefix has made the pairs distinct on at most |V(H)|
    vertices, and all but the self-pairs (v, v) canonical, so the canonical
    pairs after the first |E(H)| are exactly the copy's non-edges.
    """
    vertices = sorted({x for pair in pairs for x in pair})
    if len(vertices) != pattern.num_vertices:
        return False
    edge_pairs = pairs[: pattern.num_edges]
    for image in permutations(range(1, pattern.num_vertices + 1)):
        mapping = dict(zip(vertices, image))
        mapped = {
            (min(mapping[u], mapping[v]), max(mapping[u], mapping[v])) for u, v in edge_pairs
        }
        if mapped == pattern.edges:
            return True
    return False


def _pairs_fit(pairs: Sequence[tuple[int, int]], budget: int) -> bool:
    """Distinct pairs spanning at most ``budget`` vertices: the pair check of
    every graph encoder's prefix."""
    return len(set(pairs)) == len(pairs) and len({x for p in pairs for x in p}) <= budget


def _induced_checks(
    pattern: PatternGraph, lowest: int = 1
) -> tuple[Callable[[tuple[int, ...]], bool], Callable[..., bool]]:
    """The prefix and accept of an induced copy of the pattern on |E(H)| edge
    slots followed by |nonedges(H)| non-edge slots: every pair canonical with
    both vertices at least ``lowest``, the pairs distinct on at most |V(H)|
    vertices, and the edge slots' pairs spanning a copy of H."""

    def prefix(codes: tuple[int, ...]) -> bool:
        u, v = decode_pair(codes[-1])
        return lowest <= u < v and _pairs_fit([decode_pair(c) for c in codes], pattern.num_vertices)

    def accept(*codes: int) -> bool:
        return _spans_pattern([decode_pair(c) for c in codes], pattern)

    return prefix, accept


def _slot_groups(*ranges: tuple[int, int]) -> tuple[tuple[int, int], ...]:
    """The (start, stop) slot ranges holding at least two slots: a spec's
    ``groups``, for ranges of slots its checks read as a set."""
    return tuple((start, stop) for start, stop in ranges if stop - start >= 2)


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

    The prefix demands set indices exactly 1..k in order, so every solution
    corresponds to exactly one witness tuple.
    """
    k, w = inp.k, inp.magnitude

    def encode(tag: int, value: int) -> int:
        return (value + w) * k + tag

    def prefix(codes: tuple[int, ...]) -> bool:
        return (codes[-1] - 1) % k + 1 == len(codes)

    # The prefix puts tag i in slot i, so code i is (value_i + w) * k + i and
    # the values sum to zero iff the codes sum to this.
    zero_sum = k * k * w + k * (k + 1) // 2

    def accept(*codes: int) -> bool:
        return sum(codes) == zero_sum

    spec = LSProblemSpec(f"{k}-sum", k, 0, r=1, members=(Member(range(k), prefix, accept),))
    elements = [encode(tag, value) for tag, values in enumerate(inp.sets, 1) for value in values]
    return spec, ls_instance(n=k * (2 * w + 1), elements=elements)


def encode_collinearity(inp: PointSetInput) -> tuple[LSProblemSpec, LSInstance]:
    """Collinearity: universe [-W, W]^2; exact cross-product test, no floats."""
    w = inp.magnitude
    shift = w + 1

    @lru_cache(maxsize=None)
    def decode_point(code: int) -> tuple[int, int]:
        a, b = decode_pair(code)
        return a - shift, b - shift

    def prefix(codes: tuple[int, ...]) -> bool:
        return codes[-1] not in codes[:-1]

    def accept(c1: int, c2: int, c3: int) -> bool:
        (x1, y1), (x2, y2), (x3, y3) = decode_point(c1), decode_point(c2), decode_point(c3)
        return (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1) == 0

    member = Member(range(3), prefix, accept, groups=((0, 3),))
    spec = LSProblemSpec("collinearity", alpha=3, beta=0, r=2, members=(member,))
    elements = {encode_pair(x + shift, y + shift) for x, y in inp.points}
    return spec, ls_instance(n=2 * w + 1, elements=sorted(elements))


def encode_h_induced(inp: GraphInput, pattern: PatternGraph) -> tuple[LSProblemSpec, LSInstance]:
    """H-induced subgraph: universe [n]^2, witnesses = |E(H)| edges plus
    |nonedges(H)| non-edges spanning an H-isomorph.

    Edges are stored canonically (u < v); the prefix rejects any code whose
    pair is not canonical, so each edge or non-edge has exactly one code.
    """
    if pattern.num_edges < 1:
        raise ValueOutOfRange("pattern needs at least one edge to be encodable")
    prefix, accept = _induced_checks(pattern)
    alpha, beta = pattern.num_edges, pattern.num_nonedges
    groups = _slot_groups((0, alpha), (alpha, alpha + beta))
    member = Member(range(alpha + beta), prefix, accept, groups)
    spec = LSProblemSpec(f"induced-{pattern.name}", alpha, beta, r=2, members=(member,))
    elements = [encode_pair(u, v) for u, v in inp.edges]
    return spec, ls_instance(n=inp.n, elements=elements)


def encode_family_induced(
    inp: GraphInput, family: Sequence[PatternGraph]
) -> tuple[LSProblemSpec, LSInstance]:
    """Family-induced subgraph: some member of a finite pattern family occurs.

    Vertex 1 is reserved and carries a loop so that S and its complement are
    both nonempty; real vertices shift up by one.  Each pattern H is one of
    the spec's ``members``: it reads the leading |E(H)| edge slots and the
    leading |nonedges(H)| non-edge slots, makes the h-induced checks there
    and avoids the reserved vertex.  A tuple is a witness iff some member
    accepts the slots it reads.  The witness count walks only the slots that
    the members of each inclusion-exclusion term read, and counts every
    other slot by its pool size, since any value there leaves the tuple a
    witness.
    """
    if not family:
        raise ValueOutOfRange("family must be nonempty")
    alpha = max(p.num_edges for p in family)
    beta = max(p.num_nonedges for p in family)
    if alpha < 1:
        raise ValueOutOfRange("family needs a member with at least one edge")
    # Refused before the members list their slots, as many as alpha + beta.
    check("witness_slots", alpha + beta)

    def member(pattern: PatternGraph) -> Member:
        edges, nonedges = pattern.num_edges, pattern.num_nonedges
        slots = (*range(edges), *range(alpha, alpha + nonedges))
        groups = _slot_groups((0, edges), (edges, edges + nonedges))
        return Member(slots, *_induced_checks(pattern, lowest=2), groups)

    # A repeated pattern reuses its member, so the count can drop the copy.
    built = {pattern: member(pattern) for pattern in family}
    name = "family-induced-" + "+".join(p.name for p in family)
    spec = LSProblemSpec(name, alpha, beta, r=2, members=tuple(built[p] for p in family))
    elements = [encode_pair(1, 1)] + [encode_pair(u + 1, v + 1) for u, v in inp.edges]
    return spec, ls_instance(n=inp.n + 1, elements=elements)


def tagged_codec(n: int, num_tags: int, span: int) -> UniverseCodec:
    """Codec for records (tag, u, v, w') with tag in [num_tags], w' in [span].

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

    return UniverseCodec(r=_tagged_universe_exponent(n, num_tags, span), encode=encode, decode=decode)


def _tagged_universe_exponent(n: int, num_tags: int, span: int) -> int:
    """Smallest r with n**r >= num_tags * span * n**2 (the max record code)."""
    if n < 2:
        raise ValueOutOfRange("weighted encoders need n >= 2")
    top = num_tags * span * n * n
    r = 1
    while n**r < top:
        r += 1
    return r


def _record_prefix(
    decode: Callable[[int], tuple[int, int, int, int]],
    threshold_slot: int,
    fits_slot: Callable[[int, int, int, int, int], bool],
    budget: int,
) -> Callable[[tuple[int, ...]], bool]:
    """Prefix predicate for tagged-record witnesses.

    The newest record must pass ``fits_slot(slot, tag, u, v, w)``, the
    encoder's per-slot tag and pair check; the (u, v) of every record outside
    the threshold slot must be distinct and span at most ``budget`` vertices.
    """

    def prefix(codes: tuple[int, ...]) -> bool:
        slot = len(codes) - 1
        tag, u, v, w = decode(codes[-1])
        if not fits_slot(slot, tag, u, v, w):
            return False
        if slot == threshold_slot:
            return True
        pairs = [decode(c)[1:3] for i, c in enumerate(codes) if i != threshold_slot]
        return _pairs_fit(pairs, budget)

    return prefix


def encode_min_weight_kclique(
    inp: WeightedGraphInput, k: int, threshold: int
) -> tuple[LSProblemSpec, LSInstance]:
    """Minimum-weight k-clique, decision form: some k-clique of weight <= threshold.

    Records are (1, u, v, weight) for edges and (2, 1, 1, threshold); the tag
    pattern lets the prefix tell edges from the threshold record.
    """
    if k < 2:
        raise ValueOutOfRange("k must be >= 2")
    pair_count = k * (k - 1) // 2
    wcap = max(inp.magnitude, abs(threshold), 1)
    span = 2 * wcap + 1
    shift = wcap + 1
    codec = tagged_codec(inp.n, 2, span)
    r = codec.r

    decode = codec.decode

    def accept(*codes: int) -> bool:
        total = sum(decode(code)[3] - shift for code in codes[:-1])
        return total <= decode(codes[-1])[3] - shift

    def fits_slot(slot: int, tag: int, u: int, v: int, w: int) -> bool:
        if slot == pair_count:
            return tag == 2 and u == 1 and v == 1
        return tag == 1 and u < v

    prefix = _record_prefix(decode, pair_count, fits_slot, k)
    member = Member(range(pair_count + 1), prefix, accept, _slot_groups((0, pair_count)))
    spec = LSProblemSpec(f"min-weight-{k}-clique", pair_count + 1, 0, r, members=(member,))
    elements = [codec.encode(1, u, v, w + shift) for (u, v), w in inp.edge_weights]
    elements.append(codec.encode(2, 1, 1, threshold + shift))
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
    codec = tagged_codec(inp.n, 3, span)
    r = codec.r
    ne, nv = pattern.num_edges, pattern.num_vertices
    beta = pattern.num_nonedges

    decode = codec.decode

    threshold_slot = ne if edge_mode else ne + nv

    def fits_slot(slot: int, tag: int, u: int, v: int, w: int) -> bool:
        if slot == threshold_slot:
            return tag == 3 and u == 1 and v == 1
        if edge_mode:
            return (tag == 1 and u < v) if slot < ne else (tag == 2 and u < v and w == 1)
        if ne <= slot < threshold_slot:
            return tag == 2 and u == v
        return tag == 1 and u < v and w == 1

    weighted_slots = range(ne) if edge_mode else range(ne, threshold_slot)

    def accept(*codes: int) -> bool:
        records = [decode(code) for code in codes]
        total = sum(records[slot][3] - shift for slot in weighted_slots)
        if total < records[threshold_slot][3] - shift:
            return False
        pairs = [(u, v) for slot, (_, u, v, _) in enumerate(records) if slot != threshold_slot]
        return _spans_pattern(pairs, pattern)

    alpha = threshold_slot + 1
    groups = _slot_groups((0, ne), (ne, threshold_slot), (alpha, alpha + beta))
    prefix = _record_prefix(decode, threshold_slot, fits_slot, nv)
    member = Member(range(alpha + beta), prefix, accept, groups)
    spec = LSProblemSpec(f"max-{pattern.name}-subgraph-{mode}", alpha, beta, r, members=(member,))
    elements = []
    for (u, v), w in inp.edge_weights:
        if edge_mode:
            elements.append(codec.encode(1, u, v, w + shift))
        elements.append(codec.encode(2, u, v, 1) if edge_mode else codec.encode(1, u, v, 1))
    if not edge_mode:
        for vertex, w in enumerate(inp.vertex_weights, start=1):
            elements.append(codec.encode(2, vertex, vertex, w + shift))
    elements.append(codec.encode(3, 1, 1, threshold + shift))
    return spec, ls_instance(n=inp.n, elements=elements)


# --- natural-input JSON and the problem registry ---------------------------


def _json_object(data: object) -> dict:
    if not isinstance(data, dict):
        raise ValueOutOfRange("input must be a JSON object")
    return data


def _json_list(value: object) -> list:
    if not isinstance(value, list):
        raise ValueOutOfRange(f"expected a list, got {value!r}")
    return value


def _json_int(value: object) -> int:
    """An int from a JSON integer or decimal string."""
    try:
        return polynomials._json_int(value)
    except ValueError as exc:
        raise ValueOutOfRange(str(exc)) from None


def _int_list(value: object, shortest: int = 0, longest: int | None = None) -> list[int]:
    """A JSON list of ``shortest`` to ``longest`` integers."""
    items = _json_list(value)
    if len(items) < shortest or (longest is not None and len(items) > longest):
        raise ValueOutOfRange(f"wrong number of integers in {value!r}")
    return [_json_int(item) for item in items]


def graph_from_json(data: dict) -> GraphInput:
    data = _json_object(data)
    edges = frozenset(
        tuple(sorted(_int_list(entry, 2)[:2])) for entry in _json_list(data["edges"])
    )
    return GraphInput(n=_json_int(data["n"]), edges=edges)


def weighted_graph_from_json(data: dict) -> WeightedGraphInput:
    data = _json_object(data)
    edge_weights = []
    magnitude = _json_int(data.get("magnitude", 0))
    implied = 0
    for entry in _json_list(data["edges"]):
        u, v, *rest = _int_list(entry, 2)
        w = rest[0] if rest else 0
        implied = max(implied, abs(w))
        edge_weights.append(((min(u, v), max(u, v)), w))
    vertex_weights = tuple(_int_list(data.get("vertex_weights", [])))
    implied = max([implied, *(abs(w) for w in vertex_weights)], default=implied)
    return WeightedGraphInput(
        n=_json_int(data["n"]),
        edge_weights=tuple(edge_weights),
        magnitude=max(magnitude, implied),
        vertex_weights=vertex_weights,
    )


def points_from_json(data: dict) -> PointSetInput:
    data = _json_object(data)
    points = tuple(tuple(_int_list(entry, 2, 2)) for entry in _json_list(data["points"]))
    implied = max((max(abs(x), abs(y)) for x, y in points), default=0)
    magnitude = _json_int(data.get("magnitude", 0))
    return PointSetInput(points=points, magnitude=max(magnitude, implied))


def ksum_from_json(data: dict) -> KSumInput:
    data = _json_object(data)
    sets = tuple(tuple(_int_list(values)) for values in _json_list(data["sets"]))
    implied = max((abs(v) for values in sets for v in values), default=0)
    magnitude = _json_int(data.get("magnitude", 0))
    return KSumInput(k=_json_int(data["k"]), sets=sets, magnitude=max(magnitude, implied))


def pattern_from_json(value) -> PatternGraph:
    if isinstance(value, str):
        try:
            return H_PRESETS[value]
        except KeyError:
            raise ValueOutOfRange(f"unknown pattern preset {value!r}") from None
    value = _json_object(value)
    edges = [tuple(_int_list(entry, 2, 2)) for entry in _json_list(value["edges"])]
    return _pattern(str(value.get("name", "custom")), _json_int(value["n"]), edges)


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
        lambda d: encode_h_induced(graph_from_json(d), pattern_from_json(d["H"])),
        bench_r=2,
    ),
    "family-induced": ProblemDefinition(
        lambda d: encode_family_induced(
            graph_from_json(d), [pattern_from_json(p) for p in _json_list(d["family"])]
        ),
        bench_r=2,
    ),
    "min-weight-clique": ProblemDefinition(
        lambda d: encode_min_weight_kclique(
            weighted_graph_from_json(d), _json_int(d["k"]), _json_int(d["threshold"])
        ),
        bench_r=None,
    ),
    "max-h-subgraph": ProblemDefinition(
        lambda d: encode_max_h_subgraph(
            weighted_graph_from_json(d),
            pattern_from_json(d["H"]),
            _json_int(d["threshold"]),
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
