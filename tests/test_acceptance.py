"""Acceptance gate: one test per criterion, each a single pass/fail line.

Expected values come from the independent routes in oracles.py or from
hand-checkable tables, frozen here; runtime bounds are asserted where a
criterion states one.
"""

import time
from math import factorial

import numpy as np
import pytest

from equirank import (
    BudgetExceeded,
    EquivariantMap,
    GSet,
    alpha_by_moebius,
    aut_generators,
    aut_orbits_in_box,
    build_lattice,
    build_shift,
    burnside_orbit_count,
    ca_from_rule,
    closure,
    collapse_type,
    collapse_type_census,
    compose,
    coset_action,
    decompose,
    decompose_by_boxes,
    disjoint_union,
    end_monoid_order,
    enumerate_aut,
    enumerate_end,
    identity_map,
    is_elementary_collapse,
    make_cyclic,
    recompose,
    relative_rank,
    restrict_to_invariant,
    rule_from_map,
    trivial_gset,
    wreath_factorize,
    wreath_multiply,
)
from equirank.cli import parse_specs, run
from equirank.transform import DEFAULT_ENUM_BUDGET

import oracles


class _Budget:
    """Context manager asserting the block ran inside a wall-clock budget."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert elapsed < self.seconds, f"took {elapsed:.1f}s, budget {self.seconds}s"
        return False


def _box_points(decomp, i):
    return np.flatnonzero(decomp.box_of_point == i)


def _aut_point_classes(X):
    """Actual Aut-orbits, via the group generated by the constructed bijections."""
    gens = aut_generators(X)
    return oracles.orbit_classes_under([g.image for g in gens], X.size)


@pytest.fixture(scope="module")
def lattices(zoo):
    return {name: build_lattice(G) for name, G in zoo.items()}


@pytest.fixture(scope="module")
def small_pool(zoo, lattices):
    """Criterion-4 instances: five small groups, coset actions plus tiny shifts."""
    pool = []
    for name in ("Z1", "Z2", "Z3", "V4", "Z4"):
        G = zoo[name]
        for H in lattices[name].subgroups:
            pool.append(coset_action(G, H))
    shift_qs = {"Z1": range(2, 17), "Z2": range(2, 5), "Z3": range(2, 3)}
    for name, qs in shift_qs.items():
        for q in qs:
            pool.append(build_shift(zoo[name], q).gset)
    return pool


def test_criterion_01_s3_shift_relative_rank():
    with _Budget(5):
        code, report = run(parse_specs(["rank", "S3", "shift:q=2"]))
    assert code == 0
    assert report["relative_rank"] == 8
    assert report["u_sizes"] == [4, 2, 2, 1]
    assert report["kappa_size"] == 1


def test_criterion_02_box_tables_z6_and_s3(zoo):
    with _Budget(5):
        z6 = build_shift(zoo["Z6"], 2).gset
        dz6 = decompose(z6)
        assert [set(_box_points(dz6, i).tolist()) for i in range(dz6.n_boxes)] == [
            set(range(64)) - {0, 63, 21, 42, 9, 18, 36, 27, 45, 54},
            {9, 18, 36, 27, 45, 54},
            {21, 42},
            {0, 63},
        ]
        free = dz6.orbit_table(0).T
        assert len(_box_points(dz6, 0)) == 54 and len(free) == 9
        assert all(len(o) == 6 for o in free)

        s3 = build_shift(zoo["S3"], 2).gset
        ds3 = decompose(s3)
        assert set(_box_points(ds3, 3).tolist()) == {0, 63}
        assert set(_box_points(ds3, 2).tolist()) == {28, 35}
        assert len(_box_points(ds3, 1)) == 18
        mid = ds3.orbit_table(1).T
        assert len(mid) == 6 and all(len(o) == 3 for o in mid)
        assert len(_box_points(ds3, 0)) == 42
        free3 = ds3.orbit_table(0).T
        assert len(free3) == 7 and all(len(o) == 6 for o in free3)

        # the 18 transposition-stabilized configs split into 3 Aut-orbits
        classes = _aut_point_classes(s3)
        in_mid = [c for c in classes if c <= set(_box_points(ds3, 1).tolist())]
        assert len(in_mid) == 3 and all(len(c) == 6 for c in in_mid)
        assert set(in_mid) == {frozenset(p) for p in ds3.sub_boxes[1].values()}
        assert ds3.expected_aut_orbits(1) == 3


def test_criterion_03_klein_four_alpha_profile(zoo):
    X = build_shift(zoo["V4"], 2).gset
    decomp = decompose(X)
    assert decomp.alpha == (2, 1, 1, 1, 2)
    assert decomp.n_boxes == 5


def _strictly_ascending(rows):
    """Are the rows in strictly increasing lexicographic order, hence distinct?"""
    a, b = rows[:-1], rows[1:]
    differs = a != b
    first = differs.argmax(axis=1)
    at = np.arange(len(first))
    return bool(differs.any(axis=1).all() and (a[at, first] < b[at, first]).all())


def _oracle_rows(images, size):
    """An oracle's set of image tuples as a lexicographically sorted int32 matrix."""
    return np.array(sorted(images), dtype=np.int32).reshape(-1, size)


def _three_way_check(X):
    """Dumb oracle, representative enumeration, and order formulas must agree.

    Each route runs inside its own feasibility bound; out-of-budget routes
    must raise, and at least the formula route always reports.  Enumerated
    rows are compared as matrices: strictly ascending rows are distinct, so
    equal matrices mean equal sets of maps.
    """
    decomp = decompose(X)
    end_formula = end_monoid_order(X)
    aut_formula = decomp.aut_order
    if X.group.order == 1:
        # for the trivial group the all-maps count is the closed form m^m
        assert end_formula == X.size ** X.size

    try:
        end_rows = enumerate_end(X).images
        assert _strictly_ascending(end_rows) and len(end_rows) == end_formula
    except BudgetExceeded:
        assert end_formula > DEFAULT_ENUM_BUDGET
        end_rows = None
    try:
        aut_rows = enumerate_aut(X).images
        assert _strictly_ascending(aut_rows) and len(aut_rows) == aut_formula
    except BudgetExceeded:
        aut_rows = None

    if X.size <= 8 and end_formula <= 300_000 and end_rows is not None:
        oracle_rows = _oracle_rows(oracles.all_equivariant_images(X.action), X.size)
        assert np.array_equal(end_rows, oracle_rows)
        bijective = [oracles.is_bijection(r) for r in oracle_rows]
        assert aut_rows is not None and np.array_equal(aut_rows, oracle_rows[bijective])

    for i in range(decomp.n_boxes):
        w = decomp.box_normalizer(i).order // decomp.box_subgroup(i).order
        a = decomp.alpha[i]
        box_formula = decomp.box_end_order(i)
        assert box_formula == (w ** a) * (a ** a)
        sub = restrict_to_invariant(X, _box_points(decomp, i), name=f"box{i}")
        try:
            sub_rows = enumerate_end(sub).images
            assert _strictly_ascending(sub_rows) and len(sub_rows) == box_formula
            if sub.size <= 8 and box_formula <= 300_000:
                assert np.array_equal(
                    sub_rows, _oracle_rows(oracles.all_equivariant_images(sub.action), sub.size))
        except BudgetExceeded:
            assert box_formula > DEFAULT_ENUM_BUDGET
        try:
            assert enumerate_aut(sub).size == (w ** a) * factorial(a)
        except BudgetExceeded:
            pass


def test_criterion_04_oracle_equivalence(zoo, small_pool):
    with _Budget(60):
        for X in small_pool:
            _three_way_check(X)

        # the binary shift of Z2, all the way through
        X = build_shift(zoo["Z2"], 2).gset
        assert enumerate_end(X).size == 16
        assert enumerate_aut(X).size == 4
        report = relative_rank(X)
        assert report.decomposition.relative_rank == 2
        aut = list(enumerate_aut(X).maps())
        V = list(report.generating_set)
        assert closure(X, aut + V).size == 16
        for k in range(len(V)):
            rest = [v for i, v in enumerate(V) if i != k]
            assert closure(X, aut + rest).size < 16


def test_criterion_05_moebius_cross_check(zoo, lattices):
    with _Budget(120):
        for name, G in zoo.items():
            lat = lattices[name]
            instances = [coset_action(G, H) for H in lat.subgroups]
            instances.append(build_shift(G, 2).gset)
            for X in instances:
                decomp = decompose(X)
                for i in range(decomp.n_boxes):
                    assert alpha_by_moebius(X, i) == decomp.alpha[i]
                # a fresh decomposition, of a copy of X, agrees
                fresh = GSet(X.group, X.action)
                assert decompose(fresh) is not decomp
                assert alpha_by_moebius(fresh, 0) == decomp.alpha[0]


def test_criterion_06_burnside_on_random_unions(zoo, lattices):
    rng = np.random.default_rng(2024)
    for name, G in zoo.items():
        lat = lattices[name]
        actions = [coset_action(G, H) for H in lat.subgroups]
        for _ in range(50):
            k = int(rng.integers(1, 4))
            parts = [actions[int(i)] for i in rng.integers(0, len(actions), k)]
            X = parts[0]
            for nxt in parts[1:]:
                X = disjoint_union(X, nxt)
            assert burnside_orbit_count(X) == len(X.orbit_reps)


def test_criterion_07_aut_orbit_counts(zoo, lattices):
    for name, G in zoo.items():
        lat = lattices[name]
        instances = [coset_action(G, H) for H in lat.subgroups]
        instances.append(build_shift(G, 2).gset)
        for X in instances:
            decomp = decompose(X)
            classes = _aut_point_classes(X)
            for i in range(decomp.n_boxes):
                expected = aut_orbits_in_box(X, i)
                actual = sum(1 for c in classes if c <= set(_box_points(decomp, i).tolist()))
                assert actual == expected == len(decomp.sub_boxes[i])


def _check_box_functoriality(X, i):
    """wreath_multiply matches map composition, over every pair in the box monoid."""
    G = X.group
    sub = restrict_to_invariant(X, _box_points(decompose(X), i), name=f"box{i}")
    sub_decomp = decompose(sub)       # held: every factorization below reads it
    end = enumerate_end(sub)
    factors = [wreath_factorize(EquivariantMap(sub, img), 0) for img in end.images]
    F = np.array([f.orbit_map for f in factors], dtype=np.int64)
    T = np.array([f.cosets for f in factors], dtype=np.int64)
    A = end.images.astype(np.int64)
    weights = (sub.size ** np.arange(A.shape[1] - 1, -1, -1)).astype(np.int64)
    keys = A @ weights
    order = np.argsort(keys)
    sorted_keys = keys[order]

    H = sub_decomp.box_subgroup(0)
    CM = np.empty((G.order, G.order), dtype=np.int64)
    for a in range(G.order):
        for b in range(G.order):
            c = int(G.mul[a, b])
            CM[a, b] = min(int(G.mul[c, h]) for h in H.elements)

    M = end.size
    rows = np.arange(min(128, M))
    for start in range(0, M, 128):
        blk = slice(start, min(start + 128, M))
        Ai, Fi, Ti = A[blk], F[blk], T[blk]
        b = Ai.shape[0]
        comp_keys = Ai[:, A] @ weights                     # (pi after tau) images
        p = order[np.searchsorted(sorted_keys, comp_keys)]
        gather = Fi[rows[:b, None, None], F[None, :, :]]
        assert (F[p] == gather).all()
        tgather = Ti[rows[:b, None, None], F[None, :, :]]
        assert (T[p] == CM[T[None, :, :], tgather]).all()

    # a sample of pairs through the public entry points as well
    rng = np.random.default_rng(11)
    for _ in range(min(20, M * M)):
        a, c = int(rng.integers(M)), int(rng.integers(M))
        composed = compose(EquivariantMap(sub, end.images[a]),
                           EquivariantMap(sub, end.images[c]))
        assert wreath_factorize(composed, 0) == wreath_multiply(factors[a], factors[c], H)


def test_criterion_08_decomposition_and_functoriality(zoo, small_pool):
    pool = list(small_pool) + [build_shift(zoo["Z4"], 2).gset]
    for X in pool:
        decomp = decompose(X)
        if end_monoid_order(X) <= 10_000:
            for img in enumerate_end(X).images:
                tau = EquivariantMap(X, img)
                assert recompose(decompose_by_boxes(tau)) == tau
        for i in range(decomp.n_boxes):
            if decomp.box_end_order(i) <= 2_000:
                _check_box_functoriality(X, i)


def test_criterion_09_collapse_census(small_pool):
    for X in small_pool:
        report = relative_rank(X)
        census = collapse_type_census(X)
        assert len(census) == report.decomposition.relative_rank
        if end_monoid_order(X) <= 10_000:
            realized = set()
            for img in enumerate_end(X).images:
                tau = EquivariantMap(X, img)
                if is_elementary_collapse(tau):
                    realized.add(collapse_type(tau))
            assert realized == census


def test_criterion_10_letter_generators():
    # a swap and an n-cycle give the n! permutations; a defect-1 map added
    # gives all n^n maps (on one letter all three are the identity)
    with _Budget(60):
        for n in range(1, 7):
            letters = trivial_gset(make_cyclic(1), n)
            swap = np.arange(n); swap[:2] = swap[:2][::-1]
            cycle = np.roll(np.arange(n), -1)
            defect = np.arange(n); defect[0] = min(1, n - 1)
            bijections = [EquivariantMap(letters, swap), EquivariantMap(letters, cycle)]
            assert closure(letters, bijections).size == factorial(n)
            if n <= 5:
                assert closure(letters, bijections + [EquivariantMap(letters, defect)]).size == n ** n


def test_criterion_11_rule_round_trips(zoo):
    z2 = build_shift(zoo["Z2"], 2)
    for img in enumerate_end(z2.gset).images:
        tau = EquivariantMap(z2.gset, img)
        assert ca_from_rule(z2, rule_from_map(z2, tau)) == tau
    z4 = build_shift(zoo["Z4"], 2)
    end = enumerate_end(z4.gset)
    rng = np.random.default_rng(0)
    for idx in rng.choice(end.size, 100, replace=False):
        tau = EquivariantMap(z4.gset, end.images[int(idx)])
        assert ca_from_rule(z4, rule_from_map(z4, tau)) == tau
    from equirank import minimal_memory_set
    assert minimal_memory_set(z2, identity_map(z2.gset)) == (z2.group.identity,)
