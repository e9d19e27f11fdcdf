"""Sparse polynomial core: term maps, the sum and product kernels, bounds, JSON."""

import json
import os
import random
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polyoracle.circuits as ci
import polyoracle.polynomials as poly
from polyoracle.errors import ArityMismatch, CapExceeded, NotPrime
from routes import random_polynomial

ROOT = Path(__file__).resolve().parents[1]


def P(num_vars, terms):
    return poly.polynomial(num_vars, terms)


def test_constant_eval():
    assert poly.eval_over_integers(P(2, {(): 3}), [0, 0]) == 3


def test_identity_eval():
    p = P(3, {((0, 1), (1, 1)): 1, ((2, 1),): 1})
    assert poly.eval_over_integers(p, [1, 1, 0]) == 1


def test_eval_arity_mismatch():
    with pytest.raises(ArityMismatch):
        poly.eval_over_integers(P(2, {(): 1}), [1])


def test_eval_mod_known_values():
    assert poly.eval_mod(P(2, {((0, 1),): 1, ((1, 1),): 1}), [2, 3], 5) == 0
    assert poly.eval_mod(P(1, {((0, 2),): 1}), [-3], 7) == 2


def test_eval_mod_rejects_composite():
    with pytest.raises(NotPrime):
        poly.eval_mod(P(1, {((0, 1),): 1}), [1], 10)


def test_value_bound_known_values():
    assert poly.value_bound(P(3, {}), 10) == 1
    assert poly.value_bound(P(2, {((0, 1), (1, 1)): 2}), 3) == 19


def test_add_cancellation():
    out = {((0, 1),): 1, (): 2}
    assert poly._add_into(out, {((0, 1),): -1}) is out
    assert out == {(): 2}
    assert poly._add_into(out, {(): -2}) == {}


def test_multiply_difference_of_squares():
    x_plus_one = {((0, 1),): 1, (): 1}
    x_minus_one = {((0, 1),): 1, (): -1}
    assert poly._multiply_terms(x_plus_one, x_minus_one) == {((0, 2),): 1, (): -1}
    # At max_degree 1 the x**2 pair is skipped and the two x terms cancel.
    assert poly._multiply_terms(x_plus_one, x_minus_one, 1) == {(): -1}


def test_monomial_validation():
    with pytest.raises(ValueError):
        poly.Monomial(0, ())
    with pytest.raises(ValueError):
        poly.Monomial(1, ((1, 1), (0, 1)))
    with pytest.raises(ValueError):
        poly.Monomial(1, ((0, 0),))


@pytest.mark.parametrize(
    "num_vars, terms",
    [
        (-1, {}),
        (2, {((0, 1),): 0}),
        (2, {((1, 1), (0, 1)): 1}),
        (2, {((0, 1), (0, 2)): 1}),
        (2, {((0, 0),): 1}),
        (2, {((2, 1),): 1}),
    ],
    ids=[
        "negative-arity", "zero-coeff", "unsorted", "repeated-index", "zero-exponent",
        "out-of-range",
    ],
)
def test_sparse_polynomial_validation(num_vars, terms):
    with pytest.raises(ValueError):
        poly.SparsePolynomial(num_vars, terms)


def test_polynomial_drops_zero_coefficients():
    p = P(2, {((0, 1),): 0, (): 4})
    assert p.terms == {(): 4}
    assert P(2, {((1, 2),): 0}) == P(2, {}) and not P(2, {}).terms


def test_equality_ignores_insertion_order():
    a = P(3, {(): 1, ((0, 1),): -2, ((1, 1), (2, 3)): 7})
    b = P(3, {((1, 1), (2, 3)): 7, ((0, 1),): -2, (): 1})
    assert a == b and a.monomials == b.monomials
    assert a != P(4, dict(a.terms))
    assert a != P(3, {(): 1, ((0, 1),): -2})


def test_terms_are_read_only():
    source = {((0, 1),): 3}
    p = P(2, source)
    source[((1, 1),)] = 5
    assert p.terms == {((0, 1),): 3}
    with pytest.raises(TypeError):
        p.terms[((1, 1),)] = 5  # type: ignore[index]
    with pytest.raises(FrozenInstanceError):
        p.terms = {}  # type: ignore[misc]
    with pytest.raises(TypeError):
        hash(p)


def test_from_json_dict_merges_duplicate_powers():
    def entry(coeff, powers):
        return {"coeff": coeff, "powers": powers}

    data = {
        "num_vars": 2,
        "monomials": [
            entry("2", [[0, 1]]), entry("-1", []), entry("3", [[0, 1]]),
            entry(1, []), entry("4", [[1, 2]]),
        ],
    }
    assert poly.from_json_dict(data) == P(2, {((0, 1),): 5, ((1, 2),): 4})


def test_canonical_order_is_graded_lex():
    p = P(3, {((2, 1),): 1, ((0, 1),): 1, ((0, 2),): 1, ((0, 1), (1, 1)): 1, (): 1})
    keys = [m.powers for m in p.monomials]
    assert keys == [(), ((0, 1),), ((2, 1),), ((0, 2),), ((0, 1), (1, 1))]
    assert poly.dumps(p) == (
        '{"monomials": [{"coeff": "1", "powers": []}, {"coeff": "1", "powers": [[0, 1]]},'
        ' {"coeff": "1", "powers": [[2, 1]]}, {"coeff": "1", "powers": [[0, 2]]},'
        ' {"coeff": "1", "powers": [[0, 1], [1, 1]]}], "num_vars": 3}'
    )


# --- randomized properties -------------------------------------------------

@st.composite
def polynomials_(draw, num_vars=4, coefficients=st.integers(-20, 20)):
    exponent_entries = st.lists(
        st.tuples(st.integers(0, max(num_vars - 1, 0)), st.integers(1, 3)),
        max_size=3 if num_vars else 0,
    )
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        entries = draw(exponent_entries)
        powers = {}
        for index, exponent in entries:
            powers[index] = powers.get(index, 0) + exponent
        key = tuple(sorted(powers.items()))
        terms[key] = terms.get(key, 0) + draw(coefficients)
    return poly.polynomial(num_vars, terms)


points = st.lists(st.integers(-15, 15), min_size=4, max_size=4)


def graded_values(p, x):
    """Value at x of each homogeneous part of p, by degree."""
    values = {}
    for powers, coeff in p.terms.items():
        degree = poly._degree(powers)
        values[degree] = values.get(degree, 0) + poly.eval_over_integers(
            P(p.num_vars, {powers: coeff}), x
        )
    return values


def truncated_product_value(p, q, x, max_degree):
    """Value at x of the degree <= max_degree part of p * q, from the
    homogeneous parts of p and q alone."""
    graded_q = graded_values(q, x)
    return sum(
        value_p * value_q
        for degree_p, value_p in graded_values(p, x).items()
        for degree_q, value_q in graded_q.items()
        if degree_p + degree_q <= max_degree
    )


@settings(max_examples=200, deadline=None)
@given(polynomials_(), polynomials_(), points, st.integers(0, 12))
def test_evaluation_homomorphism(p, q, x, max_degree):
    ev_p, ev_q = poly.eval_over_integers(p, x), poly.eval_over_integers(q, x)
    total = P(4, poly._add_into(dict(p.terms), q.terms))
    assert poly.eval_over_integers(total, x) == ev_p + ev_q
    product = P(4, poly._multiply_terms(p.terms, q.terms))
    assert poly.eval_over_integers(product, x) == ev_p * ev_q
    truncated = P(4, poly._multiply_terms(p.terms, q.terms, max_degree))
    assert poly.eval_over_integers(truncated, x) == truncated_product_value(p, q, x, max_degree)
    degrees_p, degrees_q = map(poly._degree, p.terms), list(map(poly._degree, q.terms))
    kept = sum(a + b <= max_degree for a in degrees_p for b in degrees_q)
    assert poly._pair_count(p.terms, q.terms, max_degree) == kept


@settings(max_examples=200, deadline=None)
@given(polynomials_(), st.integers(1, 12), points)
def test_value_bound_soundness(p, rho, x):
    bounded = [max(-rho, min(rho, v)) for v in x]
    assert abs(poly.eval_over_integers(p, bounded)) < poly.value_bound(p, rho)


@settings(max_examples=200, deadline=None)
@given(polynomials_(), points, st.sampled_from([2, 3, 5, 7, 11, 101, 9973]))
def test_eval_mod_matches_integer_evaluation(p, x, prime):
    assert poly.eval_mod(p, x, prime) == poly.eval_over_integers(p, x) % prime


@settings(max_examples=150, deadline=None)
@given(polynomials_(), polynomials_(), st.integers(0, 12))
def test_arithmetic_stays_canonical(p, q, max_degree):
    for terms in (
        poly._add_into(dict(p.terms), q.terms),
        poly._multiply_terms(p.terms, q.terms),
        poly._multiply_terms(p.terms, q.terms, max_degree),
    ):
        # The strict constructor rejects a cancelled (zero) coefficient and
        # any power vector out of canonical form.
        result = poly.SparsePolynomial(4, terms)
        rebuilt = poly.polynomial(
            result.num_vars, {m.powers: m.coefficient for m in result.monomials}
        )
        assert rebuilt == result


def nested_json_layout(p):
    """The wire format as nested dicts and lists, for ``json.dumps`` to lay out."""
    return {
        "num_vars": p.num_vars,
        "monomials": [
            {"coeff": str(m.coefficient), "powers": [[i, e] for i, e in m.powers]}
            for m in p.monomials
        ],
    }


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 5).flatmap(
        lambda n: polynomials_(n, st.integers(-20, 20) | st.integers(-(2**80), 2**80))
    )
)
@example(P(0, {}))
@example(P(0, {(): -(2**64) - 1}))
@example(P(3, {(): 2**64 + 1, ((0, 2), (2, 1)): -5, ((1, 3),): 7}))
def test_json_round_trip(p):
    text = poly.dumps(p)
    assert text == json.dumps(nested_json_layout(p), sort_keys=True)
    assert poly.from_json_dict(json.loads(text)) == p


def test_dump_adds_less_memory_than_the_polynomial_it_writes():
    """Writing path3's s = 9 formulation polynomial term by term adds less
    to the peak resident set than building it did.  A fresh interpreter
    measures both; since Linux carries the launching process's peak across
    exec into ru_maxrss, it measures in a fork of itself, whose count starts
    from the interpreter's own size."""
    child = (
        "import os, resource, sys\n"
        "from polyoracle import localsubset, polynomials, problems\n"
        "if os.fork():\n"
        "    sys.exit(os.waitstatus_to_exitcode(os.wait()[1]))\n"
        "def peak():\n"
        "    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "start = peak()\n"
        "spec, _ = problems.build_problem('path3', problems.PROBLEMS['path3'].default_input)\n"
        "p = localsubset.formulation_polynomial(spec, 9, 1)\n"
        "built = peak()\n"
        "with open(os.devnull, 'w', encoding='utf-8') as handle:\n"
        "    polynomials.dump(p, handle)\n"
        "print(start, built, peak())\n"
    )
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    result = subprocess.run(
        [sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    start, built, written = map(int, result.stdout.split())
    assert written - built < built - start, (start, built, written)


def test_one_term_product_is_a_relabelling():
    """A one-term operand, on either side, maps the other operand's terms to
    distinct terms and cancels none: at max_degree None the product has
    every pair's term, and under a bound exactly the pairs _pair_count
    charges.  Seeded cases mix signs and repeat variables."""
    rng = random.Random(29)
    negative = repeated = 0
    for _ in range(300):
        one = random_polynomial(rng, 4, max_terms=1)
        while len(one.terms) != 1:
            one = random_polynomial(rng, 4, max_terms=1)
        other = random_polynomial(rng, 4)
        x = [rng.randint(-9, 9) for _ in range(4)]
        ((powers, coeff),) = one.terms.items()
        negative += coeff < 0
        shared = {i for i, _ in powers} & {i for q in other.terms for i, _ in q}
        repeated += bool(shared) or any(e > 1 for _, e in powers)
        for p, q in ((one, other), (other, one)):
            for max_degree in (None, *range(7)):
                terms = poly._multiply_terms(p.terms, q.terms, max_degree)
                # the strict constructor rejects a cancelled coefficient
                value = poly.eval_over_integers(poly.SparsePolynomial(4, terms), x)
                if max_degree is None:
                    assert len(terms) == len(p.terms) * len(q.terms)
                    assert value == poly.eval_over_integers(p, x) * poly.eval_over_integers(q, x)
                else:
                    assert len(terms) == poly._pair_count(p.terms, q.terms, max_degree)
                    assert value == truncated_product_value(p, q, x, max_degree)
    assert negative >= 100 and repeated >= 100


def test_invariants_on_1000_seeded_cases():
    """Homomorphism, value-bound soundness, and modular agreement, 1000 times;
    the truncated product cycles max_degree through 0..6."""
    rng = random.Random(99)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(0, 5)):
            powers = {}
            for v in rng.choices(range(4), k=rng.randint(0, 3)):
                powers[v] = powers.get(v, 0) + 1
            key = tuple(sorted(powers.items()))
            terms[key] = terms.get(key, 0) + rng.randint(-30, 30)
        return poly.polynomial(4, terms)

    for case in range(1000):
        p, q = rand_poly(), rand_poly()
        rho = rng.randint(1, 20)
        x = [rng.randint(-rho, rho) for _ in range(4)]
        ev_p, ev_q = poly.eval_over_integers(p, x), poly.eval_over_integers(q, x)
        total = P(4, poly._add_into(dict(p.terms), q.terms))
        assert poly.eval_over_integers(total, x) == ev_p + ev_q
        product = P(4, poly._multiply_terms(p.terms, q.terms))
        assert poly.eval_over_integers(product, x) == ev_p * ev_q
        max_degree = case % 7
        truncated = P(4, poly._multiply_terms(p.terms, q.terms, max_degree))
        assert poly.eval_over_integers(truncated, x) == truncated_product_value(p, q, x, max_degree)
        assert abs(ev_p) < poly.value_bound(p, rho)
        assert poly.eval_mod(p, x, 10007) == ev_p % 10007


def test_is_prime_agrees_with_trial_division():
    def slow(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, n)) or n == 2

    for n in range(0, 700):
        assert poly.is_prime(n) == slow(n), n


# psi_k, the least strong pseudoprime to the first k prime bases (OEIS A014233).
STRONG_PSEUDOPRIMES = {
    4: 3_215_031_751,
    5: 2_152_302_898_747,
    6: 3_474_749_660_383,
    7: 341_550_071_728_321,
    9: 3_825_123_056_546_413_051,
    12: 318_665_857_834_031_151_167_461,  # 399 165 290 221 * 798 330 580 441
}


def test_is_prime_rejects_strong_pseudoprimes():
    for k, n in STRONG_PSEUDOPRIMES.items():
        assert not poly.is_prime(n), k
    assert poly.is_prime(10_000_019)
    assert poly.is_prime(2**61 - 1)


def test_moduli_beyond_miller_rabin_range_are_too_large():
    with pytest.raises(CapExceeded):
        ci.find_prime(2 * 10**24)
    with pytest.raises(CapExceeded):
        poly.eval_mod(P(1, {((0, 1),): 1}), [1], 2**89 - 1)
