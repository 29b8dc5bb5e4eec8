"""Relative rank, collapse types, and the wreath structure of the boxes."""

import functools
import itertools
import time

import numpy as np
import pytest

from equirank import (
    BudgetExceeded,
    CollapseType,
    DomainError,
    EquivariantMap,
    PropertyFailure,
    alpha_by_moebius,
    aut_generators,
    aut_orbits_in_box,
    build_lattice,
    build_shift,
    closure,
    collapse_type,
    collapse_type_census,
    compose,
    coset_action,
    decompose,
    decompose_by_boxes,
    direct_product,
    disjoint_union,
    end_monoid_order,
    enumerate_aut,
    enumerate_end,
    from_permutation_generators,
    identity_map,
    is_elementary_collapse,
    make_cyclic,
    make_dihedral,
    make_symmetric,
    point_push,
    point_swap,
    recompose,
    relative_rank,
    restrict_to_invariant,
    shift_rank,
    wreath_factorize,
    wreath_multiply,
    wreath_order_checks,
)
from equirank.actions import DEFAULT_CELL_BUDGET, RankCount
from equirank.lattice import Subgroup, generated_subgroup
from equirank.rank import _collapse_shape

import oracles
from catalog import small_groups


@pytest.fixture(scope="module")
def z2_shift():
    return build_shift(make_cyclic(2), 2).gset


@pytest.fixture(scope="module")
def z6_shift():
    return build_shift(make_cyclic(6), 2).gset


@pytest.fixture(scope="module")
def s3_shift():
    return build_shift(make_symmetric(3), 2).gset


def test_z2_shift_rank(z2_shift):
    report = relative_rank(z2_shift)
    count = report.decomposition
    assert count.relative_rank == 2
    assert count.kappa == (0,)
    assert tuple(len(u) for u in count.u_sets) == (2, 1)
    assert [v.as_tuple() for v in report.generating_set] == [(0, 0, 0, 3), (3, 1, 2, 3)]
    assert count.tags == ("push 1->(1,1)", "push 2->2'")


def test_s3_shift_rank(s3_shift):
    report = relative_rank(s3_shift)
    count = report.decomposition
    assert count.relative_rank == 8
    assert count.kappa == (2,)
    assert tuple(len(u) for u in count.u_sets) == (4, 2, 2, 1)
    # the free box sees every stabilizer class, in canonical order
    assert count.u_sets[0] == ((0,), (1, 2, 3), (4,), (5,))
    assert count.tags == (
        "push 1->1'", "push 1->(1,1)", "push 1->(1,2)", "push 1->(1,3)",
        "push 2->2'", "push 2->(2,1)", "push 3->(3,1)", "push 4->4'",
    )
    assert len(report.generating_set) == 8
    assert not any(v.is_bijective() for v in report.generating_set)


def test_z6_shift_rank(z6_shift):
    count = relative_rank(z6_shift).decomposition
    assert count.relative_rank == 8
    assert count.kappa == (2,)
    assert tuple(len(u) for u in count.u_sets) == (4, 2, 2, 1)
    assert count.tags == (
        "push 1->1'", "push 1->(1,1)", "push 1->(1,2)", "push 1->(1,3)",
        "push 2->2'", "push 2->(2,1)", "push 3->(3,1)", "push 4->4'",
    )


def test_transitive_action_has_rank_zero(zoo):
    S3 = zoo["S3"]
    lat = build_lattice(S3)
    H = lat.subgroups[lat.subgroup_index(frozenset({0, 2}))]
    X = coset_action(S3, H)
    report = relative_rank(X)
    assert report.decomposition.relative_rank == 0
    assert report.generating_set == () and report.decomposition.tags == ()
    assert report.decomposition.kappa == (0,)


def test_elementary_collapse_detection(z2_shift):
    X = z2_shift
    assert not is_elementary_collapse(identity_map(X))
    p = point_push(X, 1, 0)
    assert is_elementary_collapse(p)
    assert collapse_type(p) == CollapseType(box_index=0, target_class=(1,))
    with pytest.raises(DomainError):
        collapse_type(identity_map(X))


def test_double_push_is_not_elementary():
    X = build_shift(make_cyclic(3), 2).gset
    double = compose(point_push(X, 1, 0), point_push(X, 3, 0))
    assert not is_elementary_collapse(double)
    with pytest.raises(DomainError):
        collapse_type(double)
    # merging two free orbits is elementary, with the self-class as target
    free_merge = point_push(X, 1, 3)
    assert is_elementary_collapse(free_merge)
    assert collapse_type(free_merge) == CollapseType(box_index=0, target_class=(0,))


def _collapse_sweep_gsets():
    """Z2 shift q=2 and 3, Z3 shift q=2, Z1 shift q=4, D4 on the cosets of
    {e} and twice of the rotations, and every pair (repeats allowed) of S3
    coset actions on class representatives: 20,610 maps of End."""
    yield from (build_shift(G, q).gset for G, q in [
        (make_cyclic(2), 2), (make_cyclic(2), 3), (make_cyclic(3), 2), (make_cyclic(1), 4)])
    D4 = make_dihedral(4)
    cosets = [coset_action(D4, Subgroup(D4, tuple(sorted(generated_subgroup(D4, [e])))))
              for e in (0, 1, 1)]
    yield functools.reduce(disjoint_union, cosets)
    S3 = make_symmetric(3)
    lattice = build_lattice(S3)
    actions = [coset_action(S3, lattice.subgroups[i]) for i in lattice.class_reps]
    for a, b in itertools.combinations_with_replacement(actions, 2):
        yield disjoint_union(a, b)


def test_collapse_shape_matches_the_set_route():
    # the array classification agrees with the kernel-class sets on every
    # End element, source and target alike
    maps = elementary = 0
    for X in _collapse_sweep_gsets():
        for img in enumerate_end(X).images:
            shape = _collapse_shape(EquivariantMap(X, img))
            assert shape == oracles.collapse_shape(X.action, img), (X.name, img.tolist())
            maps += 1
            elementary += shape is not None
    assert (maps, elementary) == (20_610, 3_486)


def test_collapse_type_golden(z6_shift):
    # crushing a two-element-stabilizer orbit onto a fixed point
    tau = point_push(z6_shift, 9, 0)
    assert collapse_type(tau) == CollapseType(box_index=1, target_class=(3,))


def test_collapse_type_witness_invariance(s3_shift):
    report = relative_rank(s3_shift)      # holds the decomposition collapse_type reads
    for v in report.generating_set:
        types = set()
        valid = 0
        for w in range(s3_shift.size):
            try:
                types.add(collapse_type(v, witness=w))
                valid += 1
            except DomainError:
                pass
        assert len(types) == 1
        assert valid in set(np.bincount(s3_shift.orbit_of_point).tolist())


def test_collapse_type_refuses_a_witness_outside_the_source_orbit(z2_shift):
    tau = relative_rank(z2_shift).generating_set[0]     # pushes the orbit (1, 2) onto 0
    assert tau.as_tuple() == (0, 0, 0, 3)
    expected = collapse_type(tau)
    assert collapse_type(tau, 1) == collapse_type(tau, np.int64(2)) == expected
    for witness in (1.0, np.float64(1.0), True, np.bool_(True), -1, 4, 99, 0, 3):
        with pytest.raises(DomainError):
            collapse_type(tau, witness)


def test_point_and_box_indices_are_checked_exactly(z2_shift):
    # numpy would read -1 as the last point or box and 4 as an IndexError
    X = z2_shift                                   # 4 points in 2 boxes
    tau = point_push(X, 1, 0)
    assert (X.size, decompose(X).n_boxes) == (4, 2)
    for bad in (-1, -4, 4):
        for call in (point_push, point_swap):
            for args in ((bad, 0), (0, bad)):
                with pytest.raises(DomainError, match=rf"^point {bad} is not in 0\.\.3$"):
                    call(X, *args)
    for bad in (-1, 2):
        for call, arg in ((alpha_by_moebius, X), (aut_orbits_in_box, X), (wreath_factorize, tau)):
            with pytest.raises(DomainError, match=rf"^box {bad} is not in 0\.\.1$"):
                call(arg, bad)


def test_census_matches_generating_set(z2_shift, z6_shift, s3_shift):
    z3 = build_shift(make_cyclic(3), 2).gset
    z4 = build_shift(make_cyclic(4), 2).gset
    for X in (z2_shift, z3, z4, z6_shift, s3_shift):
        report = relative_rank(X)
        census = collapse_type_census(X)
        assert len(census) == report.decomposition.relative_rank
        realized = {collapse_type(v) for v in report.generating_set}
        assert realized == census


def test_census_golden(z2_shift):
    assert collapse_type_census(z2_shift) == {
        CollapseType(box_index=0, target_class=(1,)),
        CollapseType(box_index=1, target_class=(1,)),
    }


def test_generating_set_irredundancy(z2_shift):
    X = z2_shift
    aut = list(enumerate_aut(X).maps())
    V = relative_rank(X).generating_set
    assert closure(X, aut + list(V)).size == 16
    for k in range(len(V)):
        rest = [v for i, v in enumerate(V) if i != k]
        assert closure(X, aut + rest).size == 8


def test_decompose_by_boxes_roundtrip():
    X = build_shift(make_cyclic(4), 2).gset
    decomp = decompose(X)
    end = enumerate_end(X)
    rng = np.random.default_rng(3)
    picks = rng.choice(end.size, 200, replace=False)
    for idx in picks:
        tau = EquivariantMap(X, end.images[int(idx)])
        factors = decompose_by_boxes(tau)
        assert len(factors) == decomp.n_boxes
        assert recompose(factors) == tau
        for k, f in enumerate(factors):
            off_box = np.flatnonzero(decomp.box_of_point != k)
            assert (f.image[off_box] == np.array(off_box)).all()


def test_wreath_factorize_free_box():
    X = build_shift(make_cyclic(4), 2).gset
    assert decompose(X).box_end_order(0) == 1728
    free = restrict_to_invariant(X, np.flatnonzero(decompose(X).box_of_point == 0), name="free")
    sub_decomp = decompose(free)
    assert sub_decomp.n_boxes == 1 and sub_decomp.alpha == (3,)
    end = enumerate_end(free)
    assert end.size == 1728

    ident = wreath_factorize(identity_map(free), 0)
    assert ident.orbit_map == (0, 1, 2) and ident.cosets == (0, 0, 0)

    H = sub_decomp.box_subgroup(0)
    maps = list(end.maps())
    rng = np.random.default_rng(11)
    for _ in range(50):
        pi, tau = (maps[int(i)] for i in rng.integers(0, len(maps), 2))
        lhs = wreath_factorize(compose(pi, tau), 0)
        rhs = wreath_multiply(wreath_factorize(pi, 0), wreath_factorize(tau, 0), H)
        assert lhs == rhs


def test_wreath_factorize_rejects_leaky_map(z2_shift):
    leak = point_push(z2_shift, 1, 0)       # free box lands on a fixed point
    with pytest.raises(DomainError):
        wreath_factorize(leak, 0)


def test_aut_generators_close_to_full_group(z2_shift):
    X = build_shift(make_cyclic(3), 2).gset
    gens = aut_generators(X)
    assert all(g.is_bijective() for g in gens)
    assert closure(X, gens).size == decompose(X).aut_order == 36
    assert enumerate_aut(X).size == 36

    assert closure(z2_shift, aut_generators(z2_shift)).size == 4
    assert decompose(z2_shift).aut_order == 4


def test_aut_generators_budget_before_any_map():
    X = build_shift(make_cyclic(3), 2).gset
    assert len(aut_generators(X)) == _wreath_generator_count(X)
    # 11 maps of 117,649 points (1.29M cells) if it were built
    big = build_shift(make_symmetric(3), 7).gset
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match=r"aut_generators would build 11 maps of 117649 "):
        aut_generators(big)
    assert time.perf_counter() - start < 30


def _wreath_generator_count(X):
    """Sum over boxes of [alpha >= 2] + [alpha >= 3] + d, the maps of a swap,
    an alpha-cycle and d translations, where d counts the elements of N
    taken in ascending order whenever the group generated by H and the
    ones taken so far misses them (d <= log2 |N:H| is asserted)."""
    decomp = decompose(X)
    table = X.group.mul.tolist()
    total = 0
    for i, a in enumerate(decomp.alpha):
        H, N = decomp.box_subgroup(i), decomp.box_normalizer(i)
        taken, reached = [], H.element_set
        for t in N.elements:
            if t not in reached:
                taken.append(t)
                reached = oracles.generated_elements(table, X.group.identity,
                                                     [*H.elements, *taken])
        assert reached == N.element_set
        assert 2 ** len(taken) <= N.order // H.order
        total += (a >= 2) + (a >= 3) + len(taken)
    return total


def _aut_sweep(G, lattice):
    """(X, Aut) for the shift spaces with q^|G| |G| <= 2 10^5 and the disjoint
    unions of up to three coset actions (one per subgroup class, repeats
    allowed) on at most 24 points, wherever Aut fits the enumeration
    budget.  The choices that budget counts grow with q, so the shift
    spaces stop at the first one refused."""
    q = 2
    while q ** G.order * G.order <= 200_000:
        X = build_shift(G, q).gset
        try:
            aut = enumerate_aut(X)
        except BudgetExceeded:
            break
        yield X, aut
        q += 1
    actions = [coset_action(G, lattice.subgroups[i]) for i in lattice.class_reps]
    for k in range(1, 4):
        for combo in itertools.combinations_with_replacement(actions, k):
            if sum(a.size for a in combo) > 24:
                continue
            X = functools.reduce(disjoint_union, combo)
            try:
                aut = enumerate_aut(X)
            except BudgetExceeded:
                continue
            yield X, aut


@pytest.mark.parametrize("name", sorted(small_groups()))
def test_aut_generators_generate_aut(zoo, name):
    # wherever Aut can be enumerated, the wreath generators close to it,
    # each is a bijection, and there are a swap, an alpha-cycle and d(N/H)
    # translations per box
    G = zoo[name]
    lattice = build_lattice(G)              # held: one lattice for every instance
    checked = 0
    for X, aut in _aut_sweep(G, lattice):
        decomp = decompose(X)               # held across the calls below
        gens = aut_generators(X)
        assert all(oracles.is_bijection(f.image) for f in gens), X.name
        assert np.array_equal(closure(X, gens, cap=aut.size).indices, aut.indices), X.name
        assert len(gens) == _wreath_generator_count(X), X.name
        checked += 1
        del decomp
    assert checked


@pytest.mark.parametrize("group, q, count", [
    (make_symmetric(3), 2, 8), (make_dihedral(4), 2, 17), (make_symmetric(3), 3, 11),
    (make_dihedral(4), 3, 25), (make_symmetric(3), 5, 11),
], ids=["S3-q2", "D4-q2", "S3-q3", "D4-q3", "S3-q5"])
def test_aut_generator_counts(group, q, count):
    # the old construction built 48, 224, 677, 6,409 and 15,381 swaps; the
    # last two were refused (D4 q=3: 42M cells of 6,561 points)
    X = build_shift(group, q).gset
    gens = aut_generators(X)
    assert len(gens) == _wreath_generator_count(X) == count
    assert all(f.is_bijective() for f in gens)


def test_aut_order_prediction(s3_shift):
    assert decompose(s3_shift).aut_order == 4063327027200


def test_wreath_order_checks(z6_shift, monkeypatch):
    z3 = build_shift(make_cyclic(3), 2).gset
    assert wreath_order_checks(z3) is None
    assert wreath_order_checks(z6_shift) is None    # its whole Aut passes the budget
    # each predicted order the check can enumerate is compared
    with monkeypatch.context() as m:
        m.setattr(RankCount, "box_end_order", lambda self, i: 35 if i == 1 else 36)
        with pytest.raises(PropertyFailure, match=r"^box 1: predicted \|End\| 35, enumerated 36$"):
            wreath_order_checks(z6_shift)
    with monkeypatch.context() as m:
        m.setattr(RankCount, "box_aut_order", lambda self, i: 17)   # box 0 passes the budget
        with pytest.raises(PropertyFailure, match=r"^box 1: predicted \|Aut\| 17, enumerated 18$"):
            wreath_order_checks(z6_shift)
    monkeypatch.setattr(RankCount, "aut_order", 35)
    with pytest.raises(PropertyFailure, match=r"^predicted \|Aut\| 35, enumerated 36$"):
        wreath_order_checks(z3)


# Per zoo group, the most coset actions a union may join: three for the
# groups of order at most 6, two for order 8 except Z2^3, one for Z2^3.
# The triples of the other order-8 groups would add about 2 s, and the
# pairs and triples of Z2^3 about 4 s.
_MINIMALITY_PARTS = [(name, 3 if n <= 6 else 1 if name == "Z2x2x2" else 2) for name, n in [
    ("Z1", 1), ("Z2", 2), ("Z3", 3), ("Z4", 4), ("V4", 4), ("Z5", 5), ("Z6", 6), ("S3", 6),
    ("Z7", 7), ("Z8", 8), ("D4", 8), ("Z4xZ2", 8), ("Q8", 8), ("Z2x2x2", 8)]]


def _minimality_instances(G, lattice, parts):
    """Shift spaces with q^|G| <= 40, and disjoint unions of up to `parts`
    coset actions (one per subgroup class, repeats allowed) on at most 16
    points; only those with |End| <= 5000."""
    spaces = [build_shift(G, q).gset for q in range(2, 41) if q ** G.order <= 40]
    actions = [coset_action(G, lattice.subgroups[i]) for i in lattice.class_reps]
    for k in range(1, parts + 1):
        for combo in itertools.combinations_with_replacement(actions, k):
            if sum(a.size for a in combo) <= 16:
                spaces.append(functools.reduce(disjoint_union, combo))
    return [X for X in spaces if end_monoid_order(X) <= 5000]


@pytest.mark.parametrize("name, parts", _MINIMALITY_PARTS, ids=[n for n, _ in _MINIMALITY_PARTS])
def test_relative_rank_is_minimal(zoo, name, parts):
    # Replacing a generator a by u a v (u, v in Aut) leaves <Aut, A>
    # unchanged, so if fewer than `rank` non-invertible maps generated End
    # with Aut, some (rank - 1)-subset of the Aut x Aut double-orbit
    # representatives of End minus Aut would too.
    G = zoo[name]
    lattice = build_lattice(G)              # held: one lattice for every instance
    for X in _minimality_instances(G, lattice, parts):
        decomp = decompose(X)               # held across the calls below
        end = enumerate_end(X)
        aut = aut_generators(X)
        classes = oracles.double_orbit_classes(end.images, [f.image for f in aut])
        reps = [end.images[min(c)] for c in classes]
        reps = [f for f in reps if not oracles.is_bijection(f)]
        rank = relative_rank(X).decomposition.relative_rank
        assert closure(X, aut + reps, cap=end.size).size == end.size, X.name
        assert len(reps) >= rank, X.name
        for subset in itertools.combinations(reps, max(rank - 1, 0)) if rank else ():
            assert closure(X, aut + list(subset), cap=end.size).size < end.size, X.name
        del decomp


# Every shift space of a zoo group with an alphabet of 2 to 7 letters that
# fits the cell budget: 67 spaces of 2 to 117,649 points
ZOO_SHIFTS = [(name, q) for name, G in small_groups().items() for q in range(2, 8)
              if q ** G.order * G.order <= DEFAULT_CELL_BUDGET]


@pytest.mark.parametrize("name, q", ZOO_SHIFTS, ids=[f"{n}-q{q}" for n, q in ZOO_SHIFTS])
def test_shift_rank_equals_the_point_route(zoo, name, q):
    G = zoo[name]
    count = shift_rank(G, q)
    X = build_shift(G, q).gset
    report = relative_rank(X)
    decomp = report.decomposition
    assert count.lattice is decomp.lattice
    assert count.box_classes == decomp.box_classes
    assert count.alpha == decomp.alpha
    assert count.kappa == decomp.kappa
    assert count.u_sets == decomp.u_sets
    assert count.tags == decomp.tags
    assert count.relative_rank == decomp.relative_rank == len(report.generating_set)
    assert count.wreath == decomp.wreath == tuple(
        (decomp.box_normalizer(i).order // decomp.box_subgroup(i).order, a)
        for i, a in enumerate(decomp.alpha))
    assert count.aut_order == decomp.aut_order
    if X.size <= 4096:
        lat = count.lattice
        for c, u in zip(count.box_classes, count.u_sets):
            h = lat.subgroups[lat.class_reps[c]].elements
            found = {frozenset(lat.subgroups[k].element_set for k in cls) for cls in u}
            assert found == oracles.u_classes(G.mul, G.inv, X.action, h)


# The ranks of full shifts in ROADMAP item 3's table: all past the cell
# budget but S3 at q = 2, the paper's headline.  Each group with its order.
_PAST_BUDGET_GROUPS = {
    "S3": (lambda: make_symmetric(3), 6),
    "S4": (lambda: make_symmetric(4), 24),
    # A5 = <(0 1 2), (2 3 4)> and A6 = <(0 1 2), (1 2 3 4 5)>
    "A5": (lambda: from_permutation_generators(5, [(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)]), 60),
    "S5": (lambda: make_symmetric(5), 120),
    "A6": (lambda: from_permutation_generators(6, [(1, 2, 0, 3, 4, 5), (0, 2, 3, 4, 5, 1)]),
           360),
    "Z2xS5": (lambda: direct_product(make_cyclic(2), make_symmetric(5)), 240),
}
SHIFT_RANKS = {
    ("S3", 2): 8, ("S3", 1000): 9, ("S4", 2): 44, ("S4", 1000): 45, ("A5", 2): 32,
    ("S5", 2): 102, ("S5", 1000): 103, ("A6", 2): 132, ("A6", 1000): 132,
    ("Z2xS5", 2): 513, ("Z2xS5", 1000): 516,
}


@pytest.mark.parametrize("name, q", sorted(SHIFT_RANKS), ids=[f"{n}-q{q}" for n, q in
                                                            sorted(SHIFT_RANKS)])
def test_shift_rank_past_the_cell_budget(name, q):
    make, order = _PAST_BUDGET_GROUPS[name]
    G = make()
    assert G.order == order
    count = shift_rank(G, q)
    assert count.relative_rank == SHIFT_RANKS[name, q]
    assert sum(count.alpha) == oracles.shift_orbit_count(G.mul, G.identity, q)
    orders = count.lattice.orders
    indices = [G.order // int(orders[count.lattice.class_reps[c]]) for c in count.box_classes]
    assert sum(a * k for a, k in zip(count.alpha, indices)) == q ** G.order
    assert count.kappa == tuple(i for i, a in enumerate(count.alpha) if a == 1)
    assert len(count.tags) == count.relative_rank


def test_shift_rank_guards():
    with pytest.raises(DomainError):
        shift_rank(make_cyclic(3), 1)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        shift_rank(make_symmetric(6), 2)       # the lattice budget: order 720 > 360
    assert time.perf_counter() - start < 1.0
