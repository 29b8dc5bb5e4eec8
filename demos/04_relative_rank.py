"""Compute rank(End : Aut) for the binary shift on S3 and show the generators.

The relative rank is the number of maps that must be added to the
equivariant bijections to generate the whole endomorphism monoid.  It is
computed structurally (sum of |U(H_i)| minus the number of single-orbit
boxes) and each generator is an elementary collapse with a distinct type.
The same numbers come from the subgroup lattice alone, which reaches shift
spaces far too large to build (S5 has 2^120 binary configurations).
Run with:  python3 demos/04_relative_rank.py
"""

from equirank import (
    build_shift,
    collapse_type,
    collapse_type_census,
    make_symmetric,
    relative_rank,
    shift_rank,
)

G = make_symmetric(3)
X = build_shift(G, 2).gset

report = relative_rank(X)
decomp = report.decomposition

print(f"binary shift on {G.name}: {X.size} configurations")
print(f"alpha profile {decomp.alpha}, kappa = {decomp.kappa}")
print(f"relative rank = {decomp.relative_rank}\n")

print("U-set sizes per box and the generating maps:")
for i, u in enumerate(decomp.u_sets):
    print(f"  box {i}: |U| = {len(u)}")
for tag, gen in zip(decomp.tags, report.generating_set):
    print(f"  {tag:<16} type {collapse_type(gen)}")

census = collapse_type_census(X)
print(f"\ncollapse-type census has {len(census)} entries "
      f"(= relative rank: {len(census) == decomp.relative_rank})")

print("\nfrom the lattice alone, without building a configuration:")
for n, q in ((3, 2), (4, 2), (5, 2), (5, 1000)):
    count = shift_rank(make_symmetric(n), q)
    print(f"  S{n} with {q} letters: relative rank {count.relative_rank}, "
          f"{len(count.alpha)} boxes")
