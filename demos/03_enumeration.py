"""Count and enumerate equivariant maps three ways on small instances.

For the binary shift on Z3 the monoid of equivariant maps is enumerated
point by point, then cross-checked against the product formula and the
wreath-product orders of the individual boxes.
Run with:  python3 demos/03_enumeration.py
"""

from equirank import (
    burnside_orbit_count,
    build_shift,
    decompose,
    end_monoid_order,
    enumerate_aut,
    enumerate_end,
    make_cyclic,
)

G = make_cyclic(3)
X = build_shift(G, 2).gset
decomp = decompose(X)

print(f"binary shift on {G.name}: {X.size} points, "
      f"{burnside_orbit_count(X)} orbits (Burnside)\n")

end = enumerate_end(X)
aut = enumerate_aut(X)
print(f"|End| enumerated = {end.size}, formula = {end_monoid_order(X)}")
print(f"|Aut| enumerated = {aut.size}, formula = {decomp.aut_order}\n")

print("per-box monoid orders (w^alpha * alpha^alpha):")
for i in range(decomp.n_boxes):
    print(f"  box {i}: alpha = {decomp.alpha[i]}, w = {decomp.wreath[i][0]}, "
          f"|End(B_{i})| = {decomp.box_end_order(i)}")

print("\nfirst few endomorphisms (as image rows):")
for row in end.images[:5]:
    print(f"  {tuple(int(v) for v in row)}")
