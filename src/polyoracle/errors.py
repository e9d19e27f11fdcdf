"""Exception types shared across the package, and the one table of size caps.

Every size limit is an entry of ``CAPS``, and ``check`` is the one place that
raises for a cap, naming its entry.  Code that needs a limit itself reads it
through ``cap_limit``.
"""

from __future__ import annotations


class PolyOracleError(Exception):
    """Base class for all package-specific errors."""


class ArityMismatch(PolyOracleError):
    """An evaluation point or operand has the wrong number of variables."""


class NotPrime(PolyOracleError):
    """A modulus that must be prime failed the primality test."""


class ValueOutOfRange(PolyOracleError):
    """An input value lies outside its declared range."""


class TooLarge(PolyOracleError):
    """An exact-counting routine was called beyond its size cap."""


class CapExceeded(TooLarge):
    """An intermediate object grew past its configured cap."""


class UniverseTooLarge(TooLarge):
    """The instance universe exceeds the desk-scale enumeration cap."""


class StreamTooLarge(TooLarge):
    """The literal monomial stream exceeds the enumeration cap."""


class PreconditionViolated(PolyOracleError):
    """A documented precondition of an algorithm does not hold."""


# name: (limit, error it raises, what it bounds).  Each comment names the test pinning
# the limit; tests/test_caps.py::test_cap_boundary exercises every entry.
CAPS: dict[str, tuple[int, type[TooLarge], str]] = {
    # test_oracle_cli.py::test_cli_cap_errors
    "brute_walk": (10**6, UniverseTooLarge, "|S|**alpha * |S-bar|**beta brute walk tuples"),
    # test_oracle_cli.py::test_cli_solve_b_pool_cap
    "b_pool": (10**6, UniverseTooLarge, "codes in a b-slot candidate pool"),
    # Far below CPython's recursion limit of 1000: the walk recurses once per slot.
    # test_localsubset.py::test_walk_depth_is_capped
    "witness_slots": (256, UniverseTooLarge, "alpha + beta slots of the witness walk"),
    # Counts variable occurrences, alike for the stream and the collected polynomial.
    # test_localsubset.py::test_collection_cap_counts_literal_monomials
    "literal": (10**7, StreamTooLarge, "literal variable occurrences, monomials * degree"),
    # test_localsubset.py::test_literal_precheck_decides_huge_powers_by_bit_length
    "literal_candidates": (10**8, StreamTooLarge, "candidate tuples of the literal path"),
    "grid_bits": (10**6, TooLarge, "block length L of the grid"),  # test_cap_boundary[grid_bits]
    # test_permanent.py::test_permanent_brute_cap
    "permanent_brute": (10, TooLarge, "matrix size n of permanent_brute"),
    # test_permanent.py::test_permanent_caps_are_separate
    "permanent_formulation": (10, TooLarge, "matrix size n of permanent_via_formulation"),
    "g_target": (20, TooLarge, "|S1| of g_count_dp's subset DP"),  # test_cap_boundary[g_target]
    # test_cap_boundary[setpartition_universe]
    "setpartition_universe": (12, TooLarge, "universe n of setpartition_via_traces"),
    "z_universe": (20, TooLarge, "|A| of z_var_dp"),  # test_cap_boundary[z_universe]
    "hcv_branch": (20, TooLarge, "n - m branched elements"),  # test_cap_boundary[hcv_branch]
    "hcv_overlap": (20, TooLarge, "|S & [m]| of an expanded set"),  # test_cap_boundary[hcv_overlap]
    # test_circuits.py::test_expand_cap
    "gate_terms": (10**6, CapExceeded, "nonzero monomials of one gate's expansion"),
    # is_prime's 13 witnesses, the primes 2..41, decide n < psi_13 = 3.317e24
    # (Sorenson & Webster, Math. Comp. 2017).
    # test_polynomials.py::test_moduli_beyond_miller_rabin_range_are_too_large
    "miller_rabin": (3_317_044_064_679_887_385_961_980, TooLarge, "n of Miller-Rabin"),
}


def cap_limit(name: str) -> int:
    """The limit of cap ``name``."""
    return CAPS[name][0]


def check(name: str, value: int) -> None:
    """Raise cap ``name``'s error when ``value`` exceeds its limit.  A value
    decided by bit length is reported as a lower bound of the true one."""
    limit = cap_limit(name)
    if value > limit:
        _, error, bounds = CAPS[name]
        raise error(f"cap {name} exceeded: {value} > {limit} ({bounds})")
