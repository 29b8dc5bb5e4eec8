"""Split the 64 binary configurations on Z6 into boxes by stabilizer class.

Each configuration x: Z6 -> {0,1} is encoded as a 6-bit integer.  The box of
a point is the conjugacy class of its stabilizer; alpha counts the orbits
inside a box.  Run with:  python3 demos/02_box_decomposition.py
"""

from equirank import build_shift, decompose, make_cyclic

G = make_cyclic(6)
space = build_shift(G, 2)
X = space.gset

decomp = decompose(X)
print(f"{X.size} configurations, {len(X.orbit_reps)} orbits, {decomp.n_boxes} boxes\n")

for i in range(decomp.n_boxes):
    H = decomp.box_subgroup(i)
    print(f"box {i}: stabilizer class of {H.elements} (order {H.order}), "
          f"alpha = {decomp.alpha[i]}")
    for o in decomp.orbit_table(i).T.tolist():
        words = [space.decode(x) for x in o]
        print(f"    orbit {tuple(o)}  as words {[''.join(map(str, w)) for w in words]}")
    print()

print(f"kappa (single-orbit boxes): {decomp.kappa}")
print(f"expected Aut-orbits per box: "
      f"{[decomp.expected_aut_orbits(i) for i in range(decomp.n_boxes)]}")
