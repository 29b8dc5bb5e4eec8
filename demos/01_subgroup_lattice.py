"""Walk the subgroup lattice of S3: classes, normalizers, Moebius values.

Run with:  python3 demos/01_subgroup_lattice.py
"""

from equirank import build_lattice, make_symmetric

G = make_symmetric(3)
lat = build_lattice(G)

print(f"group {G.name}, order {G.order}")
print(f"{len(lat.subgroups)} subgroups in {len(lat.classes)} conjugacy classes\n")

for idx, H in enumerate(lat.subgroups):
    N = lat.subgroups[lat.normalizer_idx[idx]]
    print(f"  H{idx}: order {H.order:>2}  elements {H.elements}  |N_G(H)| = {N.order}")

print("\nconjugacy classes (by subgroup index):")
for cls in lat.classes:
    print(f"  {cls}")

print("\nMoebius values mu(H, G) down the top of the lattice:")
top = len(lat.subgroups) - 1
for idx in range(len(lat.subgroups)):
    print(f"  mu(H{idx}, G) = {lat.moebius_table[idx, top]}")
