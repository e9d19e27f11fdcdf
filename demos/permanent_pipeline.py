"""Binary permanent three ways: permutations, signed F-counts, trace products.

The expansion step rewrites the permanent as 2**(n - |S1|) signed
mapping-count terms; the formulation route counts each term as a sum over
traces of per-segment DP products, and at theta = 1 a trace is a single
subset DP over all rows.
"""

import random

from polyoracle import permanent as pm

matrix = pm.matrix_from_text(
    """
    1101
    0111
    1011
    1110
    """
)
print("matrix:")
for row in matrix.entries:
    print("  " + "".join(map(str, row)))

brute = pm.permanent_brute(matrix)
print(f"\npermanent by permutation enumeration: {brute}")

s_eq1 = 0b0011  # first ceil(n/2) columns covered exactly once
terms = pm.f_expand(matrix, s_eq1, alpha=0.5)
print(f"expansion of F(S1, {{}}, R-S1): {len(terms)} signed terms")
signed = 0
for sign, spec in terms:
    count = pm.f_count_traces(matrix, spec.eq1, spec.eq0, theta=1)
    print(f"  sign {sign:+d}  never-covered mask {spec.eq0:04b}  count {count}")
    signed += sign * count
print(f"signed sum: {signed}")
assert signed == brute

one_segment = pm.permanent_via_formulation(matrix, alpha=0.5, theta=1)
traced = pm.permanent_via_formulation(matrix, alpha=0.5, theta=2)
print(f"trace route: theta=1 (one segment) {one_segment}, theta=2 {traced}")
assert brute == one_segment == traced

rng = random.Random(1)
print("\nrandom cross-check (n <= 6):")
for _ in range(5):
    n = rng.randint(2, 6)
    m = pm.matrix_from_rows([[rng.randint(0, 1) for _ in range(n)] for _ in range(n)])
    want, got = pm.permanent_brute(m), pm.permanent_via_formulation(m)
    print(f"  n={n}: brute={want} traces={got}")
    assert want == got
