"""Set Cover through the exact-counting chain.

For each candidate k the chain asks "is there a k-cover?" by counting: the
expansion turns covers into exactly-once coverings on a prefix [m] of the
universe, branching eliminates the remaining elements at the price of signs,
and the surviving #Set Partition instances are counted through their block
traces.  The first k with a positive signed total is the minimum.
"""

from polyoracle import setcover as sc

lists = [[1, 2, 3], [3, 4], [4, 5, 6], [1, 4], [2, 5], [6]]
family = sc.family_from_lists(6, lists)
print("universe [6], sets:", lists)
print("brute minimum:", sc.setcover_min(family, method="brute"))

m = 6  # keep the whole universe exactly-once for the walkthrough
k = 2
expanded = sc.hcv_expand_setcover(family, m)
print(f"\nexpansion at m={m}: {len(family.sets)} sets -> {len(expanded.sets)} sets")

terms = sc.hcv_branch(expanded, family.n, m, k)
print(f"branching to universe [{m}]: {len(terms)} signed term(s)")
total = sum(sign * sc.setpartition_via_traces(inst, k, 1) for sign, inst in terms)
print(f"signed #HCV total at k={k}: {total} (positive means a {k}-cover exists)")

print("\nfull reduction route:", sc.setcover_min(family, method="reduction"))

# the trace counter agrees with a hand count, repetitions included: the only
# partitions take one of the two {1}s, one of the two {2}s and {3, 4}
dup = sc.family_from_lists(4, [[1], [1], [2], [3, 4], [2]])
by_hand = [0, 0, 0, 4, 0]
print()
for k, expected in enumerate(by_hand):
    traced = sc.setpartition_via_traces(dup, k, 1)
    print(f"#SetPartition(k={k}): by hand={expected} traces={traced}")
    assert expected == traced
