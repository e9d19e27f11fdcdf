"""Sparse multivariate polynomials over Z with exact big-integer arithmetic.

A polynomial is stored as its term map: a read-only mapping from sparse power
vector to nonzero arbitrary-precision integer coefficient,

    Powers = ((variable_index, exponent), ...)   indices strictly increasing,
                                                 every exponent >= 1

validated once when the polynomial is built.  The zero polynomial has an
empty map.  Each power vector appears once, so two polynomials are equal
exactly when their variable counts and term maps are; the order in which the
terms were inserted plays no part.  Polynomials are not hashable.

Evaluation, bounds and identity checks do not depend on term order.  Order
is a derived view: ``monomials`` lists the terms in canonical graded
lexicographic order (ascending total degree, then descending
dense-lexicographic on the exponent vector).  Within the package only the
JSON wire format (and so ``formulate``'s output) and the gate order of
``circuits.build_circuit_from_polynomial`` read that view.

All arithmetic is exact.  Evaluation never densifies the power vector, so the
number of declared variables may be large (formulations routinely declare
millions of variables while each monomial touches only a handful).
"""

from __future__ import annotations

import gc
import json
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import ArityMismatch, NotPrime, check

Powers = tuple[tuple[int, int], ...]


def _degree(powers: Powers) -> int:
    return sum(e for _, e in powers)


def _powers_key(powers: Powers) -> tuple:
    # Ascending degree first; the flattened (index, -exponent) pairs linearize
    # descending dense-lexicographic order within a degree class.
    return (_degree(powers), *[x for i, e in powers for x in (i, -e)])


def _check_powers(powers: Powers) -> None:
    last = -1
    for index, exponent in powers:
        if index <= last:
            raise ValueError("power indices must be strictly increasing")
        if exponent < 1:
            raise ValueError("exponents must be positive")
        last = index


@dataclass(frozen=True)
class Monomial:
    """One term: ``coefficient * prod(x_i ** e)`` with a sparse power vector."""

    coefficient: int
    powers: Powers

    def __post_init__(self) -> None:
        if self.coefficient == 0:
            raise ValueError("monomial coefficient must be nonzero")
        _check_powers(self.powers)

    @property
    def degree(self) -> int:
        return _degree(self.powers)


@dataclass(frozen=True)
class SparsePolynomial:
    """Sparse polynomial in ``num_vars`` variables.

    ``terms`` maps each power vector to its nonzero coefficient; it is copied
    into a read-only map on construction.
    """

    num_vars: int
    terms: Mapping[Powers, int]

    def __post_init__(self) -> None:
        if self.num_vars < 0:
            raise ValueError("num_vars must be nonnegative")
        for powers, coeff in self.terms.items():
            if coeff == 0:
                raise ValueError("coefficients must be nonzero")
            _check_powers(powers)
            if powers and powers[-1][0] >= self.num_vars:
                raise ValueError("variable index out of range")
        object.__setattr__(self, "terms", MappingProxyType(dict(self.terms)))

    @cached_property
    def monomials(self) -> tuple[Monomial, ...]:
        """The terms in canonical graded lexicographic order."""
        return tuple(
            Monomial(self.terms[powers], powers) for powers in sorted(self.terms, key=_powers_key)
        )


def polynomial(num_vars: int, terms: Mapping[Powers, int]) -> SparsePolynomial:
    """Build a polynomial from a power vector -> coefficient map; zeros are dropped."""
    return SparsePolynomial(num_vars, {powers: coeff for powers, coeff in terms.items() if coeff})


def eval_over_integers(p: SparsePolynomial, point: Sequence[int]) -> int:
    """Exact evaluation over Z."""
    if len(point) != p.num_vars:
        raise ArityMismatch(f"expected {p.num_vars} values, got {len(point)}")
    total = 0
    for powers, coeff in p.terms.items():
        term = coeff
        for index, exponent in powers:
            base = point[index]
            if base == 0:
                term = 0
                break
            term *= base**exponent
        total += term
    return total


def eval_mod(p: SparsePolynomial, point: Sequence[int], modulus: int) -> int:
    """Evaluate modulo a prime; result lies in [0, modulus)."""
    if len(point) != p.num_vars:
        raise ArityMismatch(f"expected {p.num_vars} values, got {len(point)}")
    if not is_prime(modulus):
        raise NotPrime(f"{modulus} is not prime")
    total = 0
    for powers, coeff in p.terms.items():
        term = coeff % modulus
        for index, exponent in powers:
            term = term * pow(point[index], exponent, modulus) % modulus
        total = (total + term) % modulus
    return total


def value_bound(p: SparsePolynomial, rho: int) -> int:
    """Strict bound M with |p(x)| < M whenever all |x_i| <= rho.

    Uses the exact per-polynomial sum 1 + sum(|coeff| * rho**degree) rather
    than an asymptotic in (num_vars, rho); a tight M keeps the primes drawn
    from [2M, 4M] small.
    """
    if rho < 1:
        raise ValueError("rho must be >= 1")
    return 1 + sum(abs(coeff) * rho ** _degree(powers) for powers, coeff in p.terms.items())


def _add_into(out: dict[Powers, int], right: Mapping[Powers, int]) -> dict[Powers, int]:
    """Add a term map of nonzero coefficients into ``out`` in place and return
    it; cancelled terms are dropped."""
    for powers, coeff in right.items():
        total = out.get(powers, 0) + coeff
        if total:
            out[powers] = total
        else:
            del out[powers]
    return out


def _merge_powers(a: Powers, b: Powers) -> Powers:
    out: list[tuple[int, int]] = []
    i = j = 0
    while i < len(a) and j < len(b):
        ia, ea = a[i]
        ib, eb = b[j]
        if ia == ib:
            out.append((ia, ea + eb))
            i += 1
            j += 1
        elif ia < ib:
            out.append((ia, ea))
            i += 1
        else:
            out.append((ib, eb))
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _multiply_terms(
    left: Mapping[Powers, int], right: Mapping[Powers, int], max_degree: int | None = None
) -> dict[Powers, int]:
    """Product of two term maps of nonzero coefficients; cancelled terms are
    dropped, and so is every pair whose degrees sum above ``max_degree``."""
    out: dict[Powers, int] = {}
    partners = right.items()
    if max_degree is not None:
        graded = [(b, cb, sum(e for _, e in b)) for b, cb in partners]
    for a, ca in left.items():
        if max_degree is not None:
            room = max_degree - sum(e for _, e in a)
            partners = [(b, cb) for b, cb, degree in graded if degree <= room]
        for b, cb in partners:
            powers = _merge_powers(a, b)
            out[powers] = out.get(powers, 0) + ca * cb
    return {powers: coeff for powers, coeff in out.items() if coeff}


# --- JSON wire format ---------------------------------------------------
#
# {"num_vars": s, "monomials": [{"coeff": "<decimal>", "powers": [[i, e], ...]}, ...]}
#
# Coefficients travel as decimal strings so readers without big integers do
# not silently overflow.


def to_json_dict(p: SparsePolynomial) -> dict:
    # Sorting and listing allocate a few small containers per term, none in a
    # cycle; with the cyclic collector running they trigger repeated passes
    # over the live term map, so it is paused here and restored after.
    enabled = gc.isenabled()
    gc.disable()
    try:
        monomials = [
            {"coeff": str(p.terms[powers]), "powers": [[i, e] for i, e in powers]}
            for powers in sorted(p.terms, key=_powers_key)
        ]
    finally:
        if enabled:
            gc.enable()
    return {"num_vars": p.num_vars, "monomials": monomials}


def _json_int(value: object) -> int:
    """An int from a JSON integer or decimal string; ValueError for anything else."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def from_json_dict(data: dict) -> SparsePolynomial:
    """Parse the wire format; entries sharing a power vector are summed."""
    if not isinstance(data, dict) or not isinstance(data.get("monomials"), list):
        raise ValueError("polynomial JSON must be an object with a list of monomials")
    terms: dict[Powers, int] = {}
    for entry in data["monomials"]:
        if not isinstance(entry, dict) or not isinstance(entry.get("powers"), list):
            raise ValueError(f"monomial {entry!r} is not an object with a list of powers")
        if not all(isinstance(pair, list) and len(pair) == 2 for pair in entry["powers"]):
            raise ValueError(f"monomial {entry!r} has a power that is not an [index, exponent] pair")
        powers = tuple((_json_int(i), _json_int(e)) for i, e in entry["powers"])
        terms[powers] = terms.get(powers, 0) + _json_int(entry["coeff"])
    return polynomial(_json_int(data["num_vars"]), terms)


def dumps(p: SparsePolynomial) -> str:
    return json.dumps(to_json_dict(p), sort_keys=True)


# --- deterministic primality --------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_TRIAL_DIVISION_BELOW = 10**7


def is_prime(n: int) -> bool:
    """Deterministic primality test; TooLarge for n >= 3.317e24, where the
    fixed Miller-Rabin witness set stops deciding (the miller_rabin cap)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < _TRIAL_DIVISION_BELOW:
        d = 41
        while d * d <= n:
            if n % d == 0 or n % (d + 2) == 0:
                return False
            d += 6
        return True
    check("miller_rabin", n)
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
