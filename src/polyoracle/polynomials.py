"""Sparse multivariate polynomials over Z with exact big-integer arithmetic.

A polynomial is stored as its term map: a read-only mapping from sparse power
vector to nonzero arbitrary-precision integer coefficient,

    Powers = ((variable_index, exponent), ...)   indices strictly increasing,
                                                 every exponent >= 1

validated where a term map enters the library: the ``SparsePolynomial``
constructor, ``polynomial()`` and ``from_json_dict``.  A map the library
builds itself (a circuit's expansion, a formulation polynomial) is valid by
construction and is wrapped as it is, unchecked.  The zero polynomial has an
empty map.  Each power vector appears once, so two polynomials are equal
exactly when their variable counts and term maps are; the order in which the
terms were inserted plays no part.  Polynomials are not hashable.

Evaluation, bounds and identity checks do not depend on term order.  Order
is a derived view: ``monomials`` lists the terms in canonical graded
lexicographic order (ascending total degree, then descending
dense-lexicographic on the exponent vector).  ``dump`` writes the JSON wire
format (and so ``formulate``'s output) in that order, one term at a time,
and ``circuits.build_circuit_from_polynomial`` reads the ``monomials`` view
for its gate order.

All arithmetic is exact.  Evaluation never densifies the power vector, so the
number of declared variables may be large (formulations routinely declare
millions of variables while each monomial touches only a handful).
"""

from __future__ import annotations

import io
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence, TextIO

from .errors import ArityMismatch, NotPrime, check

Powers = tuple[tuple[int, int], ...]


def _degree(powers: Powers) -> int:
    return sum(e for _, e in powers)


def _powers_key(powers: Powers) -> tuple:
    # Ascending degree first; the flattened (index, -exponent) pairs linearize
    # descending dense-lexicographic order within a degree class.
    return (_degree(powers), *[x for i, e in powers for x in (i, -e)])


def _unchecked(cls, **fields):
    """A frozen ``cls`` holding ``fields`` as given, built without
    ``__post_init__``: for values the library builds valid by construction.
    A ``SparsePolynomial``'s ``terms`` must be passed read-only."""
    value = object.__new__(cls)
    for name, field in fields.items():
        object.__setattr__(value, name, field)
    return value


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
    """The power vector of the product of two monomials.  When the index
    ranges do not interleave (either is empty, or every index of one lies
    below every index of the other) it is the concatenation, lower range
    first; only interleaved or shared indices take the two-pointer merge."""
    if not a or not b or a[-1][0] < b[0][0]:
        return a + b
    if b[-1][0] < a[0][0]:
        return b + a
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


def _pair_count(left: Mapping[Powers, int], right: Mapping[Powers, int], max_degree: int) -> int:
    """The pairs ``_multiply_terms`` forms under ``max_degree``: those whose
    degrees sum to at most it."""
    lefts, rights = Counter(map(_degree, left)), Counter(map(_degree, right))
    return sum(
        count * other
        for degree, count in lefts.items()
        for partner, other in rights.items()
        if degree + partner <= max_degree
    )


def _multiply_terms(
    left: Mapping[Powers, int], right: Mapping[Powers, int], max_degree: int | None = None
) -> dict[Powers, int]:
    """Product of two term maps of nonzero coefficients; cancelled terms are
    dropped, and so is every pair whose degrees sum above ``max_degree``,
    which is never formed: the right operand is bucketed by degree.

    A one-term operand is a relabelling: it maps distinct terms to distinct
    terms and cancels none, so the product is formed in one pass."""
    if len(left) == 1 or len(right) == 1:
        if len(left) != 1:
            left, right = right, left
        ((a, ca),) = left.items()
        if max_degree is None:
            return {_merge_powers(a, b): ca * cb for b, cb in right.items()}
        room = max_degree - _degree(a)
        return {_merge_powers(a, b): ca * cb for b, cb in right.items() if _degree(b) <= room}
    out: dict[Powers, int] = {}
    partners = right.items()
    if max_degree is not None:
        buckets: dict[int, list[tuple[Powers, int]]] = {}
        for b, cb in partners:
            buckets.setdefault(_degree(b), []).append((b, cb))
    for a, ca in left.items():
        if max_degree is not None:
            room = max_degree - _degree(a)
            partners = [pair for d, bucket in buckets.items() if d <= room for pair in bucket]
        for b, cb in partners:
            powers = _merge_powers(a, b)
            out[powers] = out.get(powers, 0) + ca * cb
    return {powers: coeff for powers, coeff in out.items() if coeff}


# --- JSON wire format ---------------------------------------------------
#
# {"monomials": [{"coeff": "<decimal>", "powers": [[i, e], ...]}, ...], "num_vars": s}
#
# Coefficients travel as decimal strings so readers without big integers do
# not silently overflow.


def dump(p: SparsePolynomial, handle: TextIO) -> None:
    """Write the wire format to ``handle`` one term at a time, in canonical
    order, as ``json.dumps(..., sort_keys=True)`` lays it out.  Every value is
    an int or an int's decimal string, so nothing needs escaping."""
    handle.write('{"monomials": [')
    separator = ""
    for powers in sorted(p.terms, key=_powers_key):
        pairs = ", ".join(f"[{i}, {e}]" for i, e in powers)
        handle.write(f'{separator}{{"coeff": "{p.terms[powers]}", "powers": [{pairs}]}}')
        separator = ", "
    handle.write(f'], "num_vars": {p.num_vars}}}')


def dumps(p: SparsePolynomial) -> str:
    buffer = io.StringIO()
    dump(p, buffer)
    return buffer.getvalue()


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


# --- deterministic primality --------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_TRIAL_DIVISION_BELOW = 10**7


def is_prime(n: int) -> bool:
    """Deterministic primality test; CapExceeded for n >= 3.317e24, where the
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
