"""Brute-force reference implementations used only by the test suite.

Everything in this file is deliberately dumb: plain loops or full
enumeration over raw numpy tables, with no imports from the package under
test.  Each function answers one question in the most direct way
imaginable so the package's cleverer routines can be checked against it.

Conventions: a group is just its multiplication table `mul` (shape n x n,
mul[a, b] = a*b with b applied first when elements act as functions); an
action is a table `act` of shape (n, m) with act[g, x] = g.x; a map on
points is an image tuple/array `img` of length m.
"""

from __future__ import annotations

import itertools

import numpy as np

ORACLE_MAP_LIMIT = 20_000_000


def all_equivariant_images(act: np.ndarray, limit: int = ORACLE_MAP_LIMIT) -> set:
    """Every image tuple of an equivariant self-map, by filtering all m^m maps."""
    n, m = act.shape
    total = m ** m
    if total > limit:
        raise ValueError(f"oracle asked to scan {total} maps, over its limit")
    out = set()
    chunk = 1 << 16
    powers = m ** np.arange(m - 1, -1, -1, dtype=np.int64)
    for start in range(0, total, chunk):
        ids = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = (ids[:, None] // powers[None, :]) % m   # row i is one map
        keep = np.ones(len(ids), dtype=bool)
        for g in range(n):
            row = act[g]
            keep &= (digits[:, row] == row[digits]).all(axis=1)
            if not keep.any():
                break
        for img in digits[keep]:
            out.add(tuple(int(v) for v in img))
    return out


def is_equivariant(act: np.ndarray, img) -> bool:
    """Check img(g.x) == g.img(x) for every g and x, one pair at a time."""
    n, m = act.shape
    img = [int(v) for v in img]
    for g in range(n):
        for x in range(m):
            if img[act[g, x]] != act[g, img[x]]:
                return False
    return True


def action_violation(mul: np.ndarray, act: np.ndarray, identity: int) -> str | None:
    """The first reason a table is not a group action, or None.

    Entries must lie in 0..m-1, the identity must act trivially, and
    act[g][act[h]] must equal act[g*h] for every pair (g, h), scanned in
    row-major order one pair at a time.
    """
    n, m = act.shape
    if m and (act.min() < 0 or act.max() >= m):
        return "out of range"
    if (act[identity] != np.arange(m)).any():
        return "identity acts nontrivially"
    for g in range(n):
        for h in range(n):
            if (act[g][act[h]] != act[int(mul[g, h])]).any():
                return f"incompatible at ({g},{h})"
    return None


def first_generator_violation(mul: np.ndarray, act: np.ndarray, generators) -> tuple | None:
    """The first (g, s) with act[g][act[s]] != act[g*s], or None.

    Scans the generators s in the given order and, for each, g ascending,
    one pair of rows at a time: the pair an exact generator check names.
    """
    for s in generators:
        for g in range(act.shape[0]):
            if (act[g][act[s]] != act[int(mul[g, s])]).any():
                return g, s
    return None


def first_non_commuting_generator(act: np.ndarray, img: np.ndarray, generators) -> int | None:
    """The first generator s with img[act[s]] != act[s][img], or None.

    Scans the generators in the given order, comparing the whole of both
    rows for each: the generator an exact equivariance check names.
    """
    for s in generators:
        if (img[act[s]] != act[s][img]).any():
            return s
    return None


def associativity_failures(mul: np.ndarray) -> int:
    """Number of triples (a, b, c) with (ab)c != a(bc), one triple at a time."""
    n = mul.shape[0]
    return sum(int(mul[mul[a, b], c]) != int(mul[a, mul[b, c]])
               for a in range(n) for b in range(n) for c in range(n))


def generated_elements(table: list, identity: int, gens) -> frozenset:
    """Every product of the given elements, breadth-first from the identity.

    `table` is the multiplication table as nested lists (`mul.tolist()`).
    """
    elems = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = table[a][g]
                if b not in elems:
                    elems.add(b)
                    nxt.append(b)
        frontier = nxt
    return frozenset(elems)


def permutation_product_table(perms) -> tuple[np.ndarray, np.ndarray, int]:
    """(mul, inv, identity) of a list of permutations closed under composition.

    p*q applies q first, then p.  Every one of the n^2 products is composed
    as a tuple and found in a dict from permutation to its list position.
    """
    perms = [tuple(int(x) for x in p) for p in perms]
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    mul = np.empty((n, n), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            mul[i, j] = index[tuple(p[x] for x in q)]
    degree = len(perms[0])
    inv = np.array([index[tuple(sorted(range(degree), key=p.__getitem__))] for p in perms])
    return mul, inv, index[tuple(range(degree))]


def is_bijection(img) -> bool:
    return sorted(int(v) for v in img) == list(range(len(img)))


def orbit_of(act: np.ndarray, x: int) -> frozenset:
    return frozenset(int(act[g, x]) for g in range(act.shape[0]))


def orbit_partition(act: np.ndarray) -> list[frozenset]:
    """All orbits, sorted by smallest member."""
    n, m = act.shape
    seen = set()
    orbits = []
    for x in range(m):
        if x in seen:
            continue
        o = orbit_of(act, x)
        seen |= o
        orbits.append(o)
    return sorted(orbits, key=min)


def orbit_ids_by_search(act: np.ndarray) -> np.ndarray:
    """Per point, the position of its orbit among the orbits sorted by
    smallest point: its column minimum, binary-searched among the points
    that are their own column minimum."""
    minima = act.min(axis=0)
    reps = np.flatnonzero(minima == np.arange(act.shape[1]))
    return np.searchsorted(reps, minima)


def stabilizer_classes_by_unique(act: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct fixed-flag columns (one row each, (g fixes x) per group
    element, sorted lexicographically with False first) and, per point,
    the position of its own column among them, from `np.unique`."""
    fixes = act == np.arange(act.shape[1])
    distinct, cls = np.unique(fixes.T, axis=0, return_inverse=True)
    return distinct, cls.ravel()


def canonical_reps_by_box(stab_index: np.ndarray, orbit_ids: np.ndarray,
                          box_subgroups) -> list[np.ndarray]:
    """Per box, given its canonical subgroup's index, and per orbit that
    holds points with exactly that stabilizer, the smallest such point, in
    orbit order: one `np.unique(return_index)` per box."""
    out = []
    for h in box_subgroups:
        pts = np.flatnonzero(stab_index == h)
        _, first = np.unique(orbit_ids[pts], return_index=True)
        out.append(pts[first])
    return out


def coset_action_table(mul: np.ndarray, subgroup_elements) -> np.ndarray:
    """G acting on the left cosets gH, cosets ordered by smallest member.

    Each coset is built as a set, and g sends coset C to the coset equal
    to the set {g c : c in C}.
    """
    n = mul.shape[0]
    cosets = sorted({frozenset(int(mul[g, h]) for h in subgroup_elements) for g in range(n)},
                    key=min)
    position = {c: i for i, c in enumerate(cosets)}
    return np.array([[position[frozenset(int(mul[g, c]) for c in C)] for C in cosets]
                     for g in range(n)], dtype=np.int32)


def stabilizer_of(act: np.ndarray, x: int) -> tuple:
    return tuple(g for g in range(act.shape[0]) if int(act[g, x]) == x)


def fixed_points(act: np.ndarray, subgroup_elements) -> tuple:
    """Points fixed by every listed group element."""
    m = act.shape[1]
    subgroup_elements = list(subgroup_elements)
    return tuple(x for x in range(m)
                 if all(int(act[h, x]) == x for h in subgroup_elements))


def burnside_count(act: np.ndarray) -> int:
    """Orbit count as the average number of fixed points, checked integral."""
    n, m = act.shape
    total = sum(int((act[g] == np.arange(m)).sum()) for g in range(n))
    assert total % n == 0, "fixed-point total not divisible by group order"
    return total // n


def moebius_by_inversion(leq: np.ndarray) -> np.ndarray:
    """Moebius function of a finite poset as the inverse of its zeta matrix.

    Computed in floating point, rounded, then re-verified exactly over the
    integers so rounding can never smuggle in a wrong value.
    """
    zeta = leq.astype(np.float64)
    mu = np.rint(np.linalg.inv(zeta)).astype(np.int64)
    prod = leq.astype(np.int64) @ mu
    assert (prod == np.eye(leq.shape[0], dtype=np.int64)).all(), "zeta * mu != I"
    return mu


def shift_action_table(mul: np.ndarray, inv: np.ndarray, q: int,
                       display: list[int]) -> np.ndarray:
    """Action of a group on q-ary configurations, built with plain loops.

    A configuration is a function x: group -> {0..q-1}, encoded base q with
    the digit of display[0] most significant.  The action is
    (g.x)(h) = x(g^-1 h).
    """
    n = mul.shape[0]
    pos = {display[i]: i for i in range(n)}
    m = q ** n
    act = np.zeros((n, m), dtype=np.int64)
    for c in range(m):
        digits = []
        rem = c
        for _ in range(n):
            digits.append(rem % q)
            rem //= q
        digits.reverse()                       # digits[i] = value at display[i]
        value = {display[i]: digits[i] for i in range(n)}
        for g in range(n):
            moved = [value[int(mul[inv[g], h])] for h in display]
            enc = 0
            for d in moved:
                enc = enc * q + d
            act[g, c] = enc
    return act


def shift_action_by_horner(mul: np.ndarray, inv: np.ndarray, q: int,
                           display: list[int]) -> np.ndarray:
    """Every row of the shift action, each code built from x's digits by
    Horner's rule, most significant digit first.

    The digit of g.x at display[i] is the digit of x at g^-1 display[i], so
    row g holds the sum over positions i of q^(n-1-i) times x's digit at
    the position of g^-1 display[i].  A second route to the formula that
    `build_shift` fills by transposing the code tensor.
    """
    n = mul.shape[0]
    display = np.asarray(display)
    source = np.argsort(display)[mul[np.ix_(inv, display)]]    # (g, i): x's digit position
    digits = np.indices((q,) * n).reshape(n, -1)
    act = np.zeros((n, q ** n), dtype=np.int64)
    for i in range(n):
        act *= q
        act += digits[source[:, i]]
    return act


def cellular_step(mul: np.ndarray, q: int, display: list[int],
                  memory: list[int], rule: dict, config_digits: dict) -> dict:
    """One application of a local rule, computed pointwise.

    config_digits maps group element -> digit.  Result digit at g is
    rule[pattern] where the pattern reads the configuration at g*s for s
    in the memory set, ordered by the position of s in `display`.
    """
    mem = sorted(memory, key=lambda s: display.index(s))
    out = {}
    for g in config_digits:
        pattern = tuple(config_digits[int(mul[g, s])] for s in mem)
        out[g] = rule[pattern]
    return out


def count_maps_formula(alpha: list[int], quotient_orders: list[int]) -> int:
    """|End| of a single box from its orbit count and N/H order, per wreath size."""
    total = 1
    for a, w in zip(alpha, quotient_orders):
        total *= (w ** a) * (a ** a)
    return total


def closure_of_maps(images: set, cap: int = 5_000_000) -> set:
    """Smallest composition-closed set containing the given image tuples.

    Raises exactly when that set has more than `cap` elements.
    """
    out = set(images)
    if len(out) > cap:
        raise ValueError("oracle closure exceeded cap")
    frontier = list(images)
    while frontier:
        fresh = []
        for f in frontier:
            for g in list(out):
                for h in (tuple(f[v] for v in g), tuple(g[v] for v in f)):
                    if h not in out:
                        out.add(h)
                        fresh.append(h)
                        if len(out) > cap:
                            raise ValueError("oracle closure exceeded cap")
        frontier = fresh
    return out


def monoid_by_bfs(size: int, generators, cap: int = ORACLE_MAP_LIMIT) -> np.ndarray:
    """The monoid generated by image arrays on `size` points, identity included.

    Breadth-first over a set of row bytes: each level composes every
    generator after every frontier element and keeps the products not seen
    before.  More than `cap` elements raises.  Returned as int32 rows in
    lexicographic order.
    """
    gens = np.asarray(generators, dtype=np.int32).reshape(-1, size)
    width = 4 * size
    known = {np.arange(size, dtype=np.int32).tobytes(), *(g.tobytes() for g in gens)}
    frontier = known
    while frontier:
        if len(known) > cap:
            raise ValueError("oracle closure exceeded cap")
        rows = np.frombuffer(b"".join(frontier), dtype=np.int32).reshape(len(frontier), size)
        products = gens[:, rows].tobytes()
        frontier = {products[i:i + width] for i in range(0, len(products), width)} - known
        known |= frontier
    rows = np.frombuffer(b"".join(known), dtype=np.int32).reshape(len(known), size)
    return rows[np.lexsort(rows.T[::-1])]


def orbit_classes_under(images, size: int) -> list[frozenset]:
    """Point classes under the group generated by the given bijection images.

    Union-find over x ~ f(x); because the maps are permutations of a finite
    set, forward closure already yields the full group orbits.
    """
    parent = list(range(size))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for img in images:
        for x in range(size):
            ra, rb = find(x), find(int(img[x]))
            if ra != rb:
                parent[ra] = rb
    classes = {}
    for x in range(size):
        classes.setdefault(find(x), []).append(x)
    return sorted((frozenset(v) for v in classes.values()), key=min)


def double_orbit_classes(rows: np.ndarray, bijections) -> list[frozenset]:
    """Row indices grouped by the double orbits f -> u f v of a group of
    bijections, given by generators, on a set of image rows closed under it.

    Union-find over f ~ u f and f ~ f u for each generator u; every u f v
    is a chain of such steps, so this yields the full double orbits.
    """
    index = {row.tobytes(): i for i, row in enumerate(rows)}
    parent = list(range(len(rows)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u in bijections:
        u = np.asarray(u)
        for products in (u[rows], rows[:, u]):
            for i, row in enumerate(products):
                ra, rb = find(i), find(index[row.tobytes()])
                if ra != rb:
                    parent[ra] = rb
    classes = {}
    for i in range(len(rows)):
        classes.setdefault(find(i), []).append(i)
    return sorted((frozenset(v) for v in classes.values()), key=min)


def all_subgroup_element_sets(mul: np.ndarray) -> set:
    """Every subgroup of a small group, by testing all element subsets."""
    n = mul.shape[0]
    assert n <= 16, "subset scan limited to tiny groups"
    identity = next(e for e in range(n) if all(mul[e, x] == x for x in range(n)))
    out = set()
    others = [x for x in range(n) if x != identity]
    for r in range(len(others) + 1):
        for extra in itertools.combinations(others, r):
            cand = frozenset((identity,) + extra)
            closed = all(int(mul[a, b]) in cand for a in cand for b in cand)
            if closed:
                out.add(cand)
    return out


def conjugate_set(mul: np.ndarray, inv: np.ndarray, g: int, elements) -> frozenset:
    """The set g S g^-1, one product at a time."""
    return frozenset(int(mul[mul[g, h], inv[g]]) for h in elements)


def conjugation_table(mul: np.ndarray, inv: np.ndarray, subgroups: list) -> np.ndarray:
    """out[g, i] = position of g S_i g^-1 in the list of subgroup element sets."""
    index = {frozenset(s): i for i, s in enumerate(subgroups)}
    n = mul.shape[0]
    out = np.zeros((n, len(subgroups)), dtype=np.int64)
    for g in range(n):
        for i, s in enumerate(subgroups):
            out[g, i] = index[conjugate_set(mul, inv, g, s)]
    return out


def subgroup_classes(mul: np.ndarray, inv: np.ndarray, subgroups: list) -> list[tuple]:
    """Conjugacy classes of subgroups as position tuples.

    Members sorted by element list; classes sorted by the size and element
    list of their first member.
    """
    index = {frozenset(s): i for i, s in enumerate(subgroups)}
    key = lambda i: (len(subgroups[i]), sorted(subgroups[i]))
    classes = set()
    for s in subgroups:
        members = {index[conjugate_set(mul, inv, g, s)] for g in range(mul.shape[0])}
        classes.add(tuple(sorted(members, key=key)))
    return sorted(classes, key=lambda cl: key(cl[0]))


def normalizer_elements(mul: np.ndarray, inv: np.ndarray, elements) -> frozenset:
    s = frozenset(elements)
    return frozenset(g for g in range(mul.shape[0]) if conjugate_set(mul, inv, g, s) == s)


def smallest_conjugator(mul: np.ndarray, inv: np.ndarray, source, target):
    """The smallest g with g S g^-1 = T, or None."""
    target = frozenset(target)
    return next((g for g in range(mul.shape[0])
                 if conjugate_set(mul, inv, g, source) == target), None)


def subgroups_by_pairwise_join(mul: np.ndarray) -> list[tuple]:
    """Every subgroup, by closing the cyclic subgroups under pairwise join.

    Each join is a breadth-first search over products of the two element
    sets; every subgroup is the join of the cyclic subgroups it contains,
    so the fixed point is the complete list.  Returned as element tuples
    sorted by (order, elements).
    """
    table = mul.tolist()
    n = len(table)
    identity = next(e for e in range(n) if all(table[e][x] == x for x in range(n)))

    found = {generated_elements(table, identity, [g]) for g in range(n)}
    worklist = list(found)
    while worklist:
        fresh = []
        for A in worklist:
            for B in list(found):
                if A <= B or B <= A:
                    continue
                J = generated_elements(table, identity, A | B)
                if J not in found:
                    found.add(J)
                    fresh.append(J)
        worklist = fresh
    return sorted((tuple(sorted(s)) for s in found), key=lambda s: (len(s), s))


def subgroup_violation(mul: np.ndarray, inv: np.ndarray, identity: int, elements) -> str | None:
    """The first reason a sorted element tuple is not a subgroup, or None.

    Scans a in order, testing its inverse and then each product (a, b) in
    order, one product at a time.
    """
    s = set(elements)
    if not elements:
        return "a subgroup cannot be empty"
    if identity not in s:
        return "subgroup does not contain the identity"
    for a in elements:
        if int(inv[a]) not in s:
            return f"subgroup not closed under inverses at {a}"
        for b in elements:
            if int(mul[a, b]) not in s:
                return f"subgroup not closed under product at ({a},{b})"
    if mul.shape[0] % len(s) != 0:
        return "subgroup order does not divide the group order"
    return None


def shift_orbit_count(mul: np.ndarray, identity: int, q: int) -> int:
    """Orbits of G on the q^|G| configurations, by Burnside's lemma.

    An element g of order d fixes the configurations constant on the
    cosets of <g>, q^(|G|/d) of them; its order is found by multiplying
    g with itself until the identity comes back.
    """
    n = mul.shape[0]
    total = 0
    for g in range(n):
        order, power = 1, g
        while power != identity:
            order, power = order + 1, int(mul[power, g])
        total += q ** (n // order)
    assert total % n == 0, "fixed-point total not divisible by group order"
    return total // n


def u_classes(mul: np.ndarray, inv: np.ndarray, act: np.ndarray, subgroup_elements) -> set:
    """The classes, under conjugation by the normalizer N of H, of the
    point stabilizers of `act` that contain H, as sets of element sets.

    Stabilizers are read off the table's fixed-point columns; each class
    is the set of n S n^-1 for n in N.
    """
    h = frozenset(subgroup_elements)
    normalizer = normalizer_elements(mul, inv, h)
    distinct, _ = stabilizer_classes_by_unique(act)
    stabilizers = {frozenset(np.flatnonzero(row).tolist()) for row in distinct}
    return {frozenset(conjugate_set(mul, inv, n, s) for n in normalizer)
            for s in stabilizers if h <= s}


def collapse_shape(act: np.ndarray, img) -> tuple | None:
    """The (source orbit, target orbit) of an elementary collapse, else None,
    with sets: the kernel classes (points sharing an image, two or more)
    must cover exactly two whole orbits, each class holding exactly one
    point of the target.  Orbits are numbered by smallest member; the
    larger-numbered orbit is tried as the target first."""
    by_image = {}
    for x, y in enumerate(int(v) for v in img):
        by_image.setdefault(y, set()).add(x)
    classes = [cls for cls in by_image.values() if len(cls) >= 2]
    if not classes:
        return None
    orbits = orbit_partition(act)
    covered = set().union(*classes)
    involved = sorted(k for k, o in enumerate(orbits) if o & covered)
    if len(involved) != 2:
        return None
    a_id, b_id = involved
    if covered != orbits[a_id] | orbits[b_id]:
        return None
    for source, target in ((a_id, b_id), (b_id, a_id)):
        if all(len(orbits[target] & cls) == 1 for cls in classes):
            return source, target
    return None
