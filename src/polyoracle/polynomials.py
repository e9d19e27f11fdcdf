"""Sparse multivariate polynomials over Z with exact big-integer arithmetic.

A polynomial is a sequence of monomials, each storing an arbitrary-precision
integer coefficient and a sparse power vector:

    Powers = ((variable_index, exponent), ...)   indices strictly increasing,
                                                 every exponent >= 1

The zero polynomial has an empty monomial sequence.  Monomials are kept in a
fixed canonical order (graded lexicographic: ascending total degree, then
descending dense-lexicographic on the exponent vector), and no two monomials
share a power vector.  This makes equality a plain tuple comparison and a
monomial-by-monomial diff of two polynomials a single merge pass.

All arithmetic is exact.  Evaluation never densifies the power vector, so the
number of declared variables may be large (formulations routinely declare
millions of variables while each monomial touches only a handful).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import ArityMismatch, NotPrime

Powers = tuple[tuple[int, int], ...]


def _powers_key(powers: Powers) -> tuple:
    # Ascending degree first; (index, -exponent) pairs linearize descending
    # dense-lexicographic order within a degree class.
    degree = sum(e for _, e in powers)
    return (degree, tuple((i, -e) for i, e in powers))


@dataclass(frozen=True)
class Monomial:
    """One term: ``coefficient * prod(x_i ** e)`` with a sparse power vector."""

    coefficient: int
    powers: Powers

    def __post_init__(self) -> None:
        if self.coefficient == 0:
            raise ValueError("monomial coefficient must be nonzero")
        last = -1
        for index, exponent in self.powers:
            if index <= last:
                raise ValueError("power indices must be strictly increasing")
            if exponent < 1:
                raise ValueError("exponents must be positive")
            last = index

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.powers)

    def sort_key(self) -> tuple:
        return _powers_key(self.powers)


@dataclass(frozen=True)
class SparsePolynomial:
    """Canonical sparse polynomial in ``num_vars`` variables."""

    num_vars: int
    monomials: tuple[Monomial, ...]

    def __post_init__(self) -> None:
        if self.num_vars < 0:
            raise ValueError("num_vars must be nonnegative")
        previous = None
        for mono in self.monomials:
            if mono.powers and mono.powers[-1][0] >= self.num_vars:
                raise ValueError("variable index out of range")
            key = mono.sort_key()
            if previous is not None and key <= previous:
                raise ValueError("monomials not in strict canonical order")
            previous = key

    @property
    def is_zero(self) -> bool:
        return not self.monomials


@dataclass(frozen=True)
class ExplicitFamilyParams:
    """Degree bound and coefficient scale of an explicit polynomial family.

    A member on n variables qualifies when its total degree is at most
    ``delta`` and every coefficient magnitude is at most
    ``coeff_scale * n**delta``.
    """

    delta: int
    coeff_scale: int

    def __post_init__(self) -> None:
        if self.delta < 1:
            raise ValueError("delta must be >= 1")
        if self.coeff_scale < 1:
            raise ValueError("coeff_scale must be >= 1")


def polynomial(num_vars: int, terms: Mapping[Powers, int] | Iterable[tuple[int, Powers]]) -> SparsePolynomial:
    """Build a canonical polynomial from (coefficient, powers) terms.

    Terms with equal power vectors are merged; zero coefficients are dropped.
    """
    merged: dict[Powers, int] = {}
    items = terms.items() if isinstance(terms, Mapping) else None
    if items is not None:
        for powers, coeff in items:
            merged[powers] = merged.get(powers, 0) + coeff
    else:
        for coeff, powers in terms:  # type: ignore[union-attr]
            merged[powers] = merged.get(powers, 0) + coeff
    monomials = tuple(
        Monomial(coeff, powers)
        for powers, coeff in sorted(merged.items(), key=lambda kv: _powers_key(kv[0]))
        if coeff != 0
    )
    return SparsePolynomial(num_vars, monomials)


def zero(num_vars: int) -> SparsePolynomial:
    return SparsePolynomial(num_vars, ())


def constant(num_vars: int, value: int) -> SparsePolynomial:
    if value == 0:
        return zero(num_vars)
    return SparsePolynomial(num_vars, (Monomial(value, ()),))


def variable(num_vars: int, index: int) -> SparsePolynomial:
    if not 0 <= index < num_vars:
        raise ValueError(f"variable index {index} out of range for {num_vars} variables")
    return SparsePolynomial(num_vars, (Monomial(1, ((index, 1),)),))


def total_degree(p: SparsePolynomial) -> int:
    """Maximum monomial degree; 0 for the zero polynomial by convention."""
    if p.is_zero:
        return 0
    return max(mono.degree for mono in p.monomials)


def eval_over_integers(p: SparsePolynomial, point: Sequence[int]) -> int:
    """Exact evaluation over Z."""
    if len(point) != p.num_vars:
        raise ArityMismatch(f"expected {p.num_vars} values, got {len(point)}")
    total = 0
    for mono in p.monomials:
        term = mono.coefficient
        for index, exponent in mono.powers:
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
    for mono in p.monomials:
        term = mono.coefficient % modulus
        for index, exponent in mono.powers:
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
    return 1 + sum(abs(m.coefficient) * rho**m.degree for m in p.monomials)


def _add_terms(left: dict[Powers, int], right: dict[Powers, int]) -> dict[Powers, int]:
    """Sum of two term dicts of nonzero coefficients; cancelled terms are dropped."""
    out = dict(left)
    for powers, coeff in right.items():
        total = out.get(powers, 0) + coeff
        if total:
            out[powers] = total
        else:
            del out[powers]
    return out


def _terms(p: SparsePolynomial) -> dict[Powers, int]:
    return {m.powers: m.coefficient for m in p.monomials}


def add(p: SparsePolynomial, q: SparsePolynomial) -> SparsePolynomial:
    if p.num_vars != q.num_vars:
        raise ArityMismatch("polynomials have different variable counts")
    return polynomial(p.num_vars, _add_terms(_terms(p), _terms(q)))


def negate(p: SparsePolynomial) -> SparsePolynomial:
    return SparsePolynomial(
        p.num_vars, tuple(Monomial(-m.coefficient, m.powers) for m in p.monomials)
    )


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


def _multiply_terms(left: dict[Powers, int], right: dict[Powers, int]) -> dict[Powers, int]:
    """Product of two term dicts of nonzero coefficients; cancelled terms are dropped."""
    out: dict[Powers, int] = {}
    for a, ca in left.items():
        for b, cb in right.items():
            powers = _merge_powers(a, b)
            out[powers] = out.get(powers, 0) + ca * cb
    return {powers: coeff for powers, coeff in out.items() if coeff}


def multiply(p: SparsePolynomial, q: SparsePolynomial) -> SparsePolynomial:
    if p.num_vars != q.num_vars:
        raise ArityMismatch("polynomials have different variable counts")
    return polynomial(p.num_vars, _multiply_terms(_terms(p), _terms(q)))


def check_explicit(p: SparsePolynomial, params: ExplicitFamilyParams, n: int) -> bool:
    """Check membership in the explicit family described by ``params``."""
    if p.num_vars != n:
        raise ArityMismatch(f"polynomial has {p.num_vars} variables, expected {n}")
    if total_degree(p) > params.delta:
        return False
    bound = params.coeff_scale * n**params.delta
    return all(abs(m.coefficient) <= bound for m in p.monomials)


# --- JSON wire format ---------------------------------------------------
#
# {"num_vars": s, "monomials": [{"coeff": "<decimal>", "powers": [[i, e], ...]}, ...]}
#
# Coefficients travel as decimal strings so readers without big integers do
# not silently overflow.


def to_json_dict(p: SparsePolynomial) -> dict:
    return {
        "num_vars": p.num_vars,
        "monomials": [
            {"coeff": str(m.coefficient), "powers": [[i, e] for i, e in m.powers]}
            for m in p.monomials
        ],
    }


def _json_int(value: object) -> int:
    """An int from a JSON integer or decimal string; ValueError for anything else."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def from_json_dict(data: dict) -> SparsePolynomial:
    if not isinstance(data, dict) or not isinstance(data.get("monomials"), list):
        raise ValueError("polynomial JSON must be an object with a list of monomials")
    terms = []
    for entry in data["monomials"]:
        if not isinstance(entry, dict) or not isinstance(entry.get("powers"), list):
            raise ValueError(f"monomial {entry!r} is not an object with a list of powers")
        if not all(isinstance(pair, list) and len(pair) == 2 for pair in entry["powers"]):
            raise ValueError(f"monomial {entry!r} has a power that is not an [index, exponent] pair")
        powers = tuple((_json_int(i), _json_int(e)) for i, e in entry["powers"])
        terms.append((_json_int(entry["coeff"]), powers))
    return polynomial(_json_int(data["num_vars"]), terms)


def dumps(p: SparsePolynomial) -> str:
    return json.dumps(to_json_dict(p), sort_keys=True)


def loads(text: str) -> SparsePolynomial:
    return from_json_dict(json.loads(text))


# --- deterministic primality --------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_TRIAL_DIVISION_LIMIT = 10**7
# The fixed witness set below decides primality for all n < 3.317e24
# (Sorenson & Webster); beyond that we refuse rather than guess.
_MILLER_RABIN_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < 3.3e24."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < _TRIAL_DIVISION_LIMIT:
        d = 41
        while d * d <= n:
            if n % d == 0 or n % (d + 2) == 0:
                return False
            d += 6
        return True
    if n >= _MILLER_RABIN_LIMIT:
        raise ValueError("modulus beyond the deterministic witness range")
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
