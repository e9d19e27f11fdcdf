"""Exception types shared across the package, the one table of size caps, and
the JSON readers.

Every size limit is an entry of ``CAPS``, and ``check`` is the one place that
raises ``CapExceeded``, naming the entry.  Code that needs a limit itself reads it
through ``cap_limit``.  Every JSON input reads its objects, required keys, lists
and integers through ``json_object``, ``json_field``, ``json_list``,
``json_int`` and ``int_list``: each raises ``ValueOutOfRange`` for a value of
the wrong kind, a missing key or a list of the wrong length.
"""

from __future__ import annotations

import re


class PolyOracleError(Exception):
    """Base class for all package-specific errors."""


class ArityMismatch(PolyOracleError):
    """An evaluation point or operand has the wrong number of variables."""


class NotPrime(PolyOracleError):
    """A modulus that must be prime failed the primality test."""


class ValueOutOfRange(PolyOracleError):
    """An input value lies outside its declared range."""


class CapExceeded(PolyOracleError):
    """An input size or an intermediate object passed its limit in ``CAPS``."""


class PreconditionViolated(PolyOracleError):
    """A documented precondition of an algorithm does not hold."""


# name: (limit, what it bounds).  Each comment names the test pinning the limit;
# tests/test_caps.py::test_cap_boundary exercises every entry.
CAPS: dict[str, tuple[int, str]] = {
    # test_oracle_cli.py::test_cli_cap_errors
    "brute_walk": (10**6, "|S|**alpha * |S-bar|**beta brute walk tuples"),
    # Far below CPython's recursion limit of 1000: the walk recurses once per slot.
    # test_localsubset.py::test_walk_depth_is_capped
    "witness_slots": (256, "alpha + beta slots of the witness walk"),
    # Checked per node of accepted_tuples's walk: one for the node and one for
    # each candidate of its whole pool (or its pool hook's draw), before the
    # first is tried, so a b-slot left with the whole complement of S is
    # refused by its length.  A hooked node steps nearly every candidate it
    # draws, so a hooked walk reaches the cap in about twice an unhooked one's
    # time (k5 in G(40, 0.5): 0.47 s, against 0.21 s unhooked).  Tier-1
    # library walks charge at most 276 561, the ls-decide benchmark ops
    # (seeds 1-10) at most 347 and the ls-literal ones at most 1 246.
    # test_oracle_cli.py::test_cli_ls_walks_are_bounded
    "ls_walk": (5 * 10**5, "nodes visited plus candidates tried by one LS walk"),
    # Keeps a call's size printable: CPython turns an int into text only up to
    # 4 300 decimal digits (about 14 284 bits) by default.
    # test_oracle_cli.py::test_cli_solve_refuses_unprintable_call_size
    "call_bits": (10**4, "bits of one oracle call's size, the variables of its grid"),
    # Counts variable occurrences, alike for the stream and the collected polynomial.
    # test_localsubset.py::test_collection_cap_counts_literal_monomials
    "literal": (10**7, "literal variable occurrences, monomials * degree"),
    # test_localsubset.py::test_literal_precheck_decides_huge_powers_by_bit_length
    "literal_candidates": (10**8, "candidate tuples of the literal path"),
    "grid_bits": (10**6, "block length L of the grid"),  # test_cap_boundary[grid_bits]
    # test_permanent.py::test_permanent_brute_cap
    "permanent_brute": (10, "matrix size n of permanent_brute"),
    # test_permanent.py::test_permanent_caps_are_separate
    "permanent_formulation": (10, "matrix size n of permanent_via_formulation"),
    "g_target": (20, "|S1| of f_count_traces's subset DP"),  # test_cap_boundary[g_target]
    # test_cap_boundary[setpartition_universe]
    "setpartition_universe": (12, "set-partition universe n, or setcover_min's branched m"),
    # Far below CPython's recursion limit of 1000: the brute cover walk recurses
    # once per set.  Tier-1 and the benchmark hand it at most 9 sets.
    # test_oracle_cli.py::test_cli_setcover_brute_set_cap
    "setcover_brute": (256, "sets in the family of setcover_min's brute walk"),
    "hcv_branch": (20, "n - m branched elements"),  # test_cap_boundary[hcv_branch]
    "hcv_overlap": (20, "|S & [m]| of an expanded set"),  # test_cap_boundary[hcv_overlap]
    # test_circuits.py::test_expand_cap
    "gate_terms": (10**6, "nonzero monomials of one gate's expansion"),
    # Below gate_terms, so no product forms more terms than a gate may hold;
    # pairs form at about 5 * 10**5 a second.  Tier-1 expansions reach at
    # most 6 720 in all and copy at most 19 terms; circuit-verify benchmark
    # ops reach 988 and copy none.
    # test_oracle_cli.py::test_cli_verify_circuit_bounds_the_pairs_of_all_products
    "gate_pairs": (5 * 10**5, "term pairs formed plus terms copied in one expansion"),
    # is_prime's 13 witnesses, the primes 2..41, decide n < psi_13 = 3.317e24
    # (Sorenson & Webster, Math. Comp. 2017).
    # test_polynomials.py::test_moduli_beyond_miller_rabin_range_are_too_large
    "miller_rabin": (3_317_044_064_679_887_385_961_980, "n of Miller-Rabin"),
}


def cap_limit(name: str) -> int:
    """The limit of cap ``name``."""
    return CAPS[name][0]


def check(name: str, value: int) -> None:
    """Raise CapExceeded when ``value`` exceeds cap ``name``'s limit.  A value
    decided by bit length is reported as a lower bound of the true one."""
    limit, bounds = CAPS[name]
    if value > limit:
        raise CapExceeded(f"cap {name} exceeded: {value} > {limit} ({bounds})")


def json_object(value: object) -> dict:
    if not isinstance(value, dict):
        raise ValueOutOfRange(f"expected a JSON object, got {type(value).__name__}")
    return value


def json_list(value: object) -> list:
    if not isinstance(value, list):
        raise ValueOutOfRange(f"expected a list, got {value!r}")
    return value


def json_field(data: dict, key: str) -> object:
    """The value of a required ``key`` of the JSON object ``data``."""
    try:
        return data[key]
    except KeyError:
        raise ValueOutOfRange(f"missing key {key!r}") from None


def json_int(value: object) -> int:
    """An int from a JSON integer or a decimal string: an optional ``-``
    followed by ASCII digits, nothing else (no sign ``+``, space, ``_`` or
    other script's digits, which ``int()`` alone would take)."""
    decimal = isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value)
    if isinstance(value, bool) or not (isinstance(value, int) or decimal):
        raise ValueOutOfRange(f"expected an integer, got {value!r}")
    try:
        return int(value)
    except ValueError as exc:  # past int's digit limit
        raise ValueOutOfRange(str(exc)) from None


def int_list(value: object, shortest: int = 0, longest: int | None = None) -> list[int]:
    """A JSON list of ``shortest`` to ``longest`` integers."""
    items = json_list(value)
    if len(items) < shortest or (longest is not None and len(items) > longest):
        raise ValueOutOfRange(f"wrong number of integers in {value!r}")
    return [json_int(item) for item in items]
