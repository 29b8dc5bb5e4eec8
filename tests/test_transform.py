"""Equivariant maps: construction, composition, pushes, enumeration, closure."""

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equirank import (
    BudgetExceeded,
    ClosureCapExceeded,
    DomainError,
    EquivariantMap,
    GSet,
    MonoidClosure,
    StabilizerError,
    aut_generators,
    build_lattice,
    build_shift,
    closure,
    compose,
    coset_action,
    decompose,
    direct_product,
    disjoint_union,
    end_monoid_order,
    enumerate_aut,
    enumerate_end,
    identity_map,
    is_equivariant,
    make_cyclic,
    make_dihedral,
    make_symmetric,
    map_rank,
    point_push,
    point_swap,
    relative_rank,
    sym_generators_check,
    trans_generators_check,
    trivial_gset,
)

from equirank.actions import DEFAULT_CELL_BUDGET
from equirank.groups import _check_blocks, _sorted_unique
from equirank.transform import _EndIndex, _first_non_commuting_generators

import oracles
from catalog import make_quaternion, small_groups


@pytest.fixture(scope="module")
def z2_shift():
    return build_shift(make_cyclic(2), 2).gset


@pytest.fixture(scope="module")
def z6_shift():
    return build_shift(make_cyclic(6), 2).gset


def test_map_validation(z2_shift):
    X = z2_shift
    assert (X.action[1] == [0, 2, 1, 3]).all()
    with pytest.raises(DomainError, match=r"^image has shape \(3,\), expected \(4,\)$"):
        EquivariantMap(X, [0, 1, 2])
    with pytest.raises(DomainError, match=r"^image has shape \(3,\), expected \(4,\)$"):
        is_equivariant(X, [0, 1, 2])
    for out_of_range in ([0, 1, 2, 4], [0, 1, 2, -1]):      # 3 is a fixed point
        with pytest.raises(DomainError, match="^image entries out of range$"):
            EquivariantMap(X, out_of_range)
        with pytest.raises(DomainError, match="^image entries out of range$"):
            is_equivariant(X, out_of_range)
    with pytest.raises(DomainError):             # out of range, the identity once cut to int32
        EquivariantMap(trivial_gset(make_cyclic(2), 3), np.array([2**32, 2**32 + 1, 2]))
    with pytest.raises(DomainError):
        EquivariantMap(X, [0, 1, 3, 3])          # tau(1.1)=3 but 1.tau(1)=2
    tau = EquivariantMap(X, [0, 2, 1, 3])
    assert tau(1) == 2 and tau.as_tuple() == (0, 2, 1, 3)
    assert tau.is_bijective()


def test_is_equivariant_scan_matches_oracle(z2_shift):
    X = z2_shift
    # every image array on 4 points, both routes must agree
    for flat in range(4 ** 4):
        img = [(flat // 4 ** k) % 4 for k in range(4)]
        assert is_equivariant(X, img) == oracles.is_equivariant(X.action, img)


def test_equivariance_check_names_the_first_generator_that_fails():
    X = build_shift(make_symmetric(3), 2).gset
    first, second = X.group.generators
    P = X.action[first]

    def first_orbit(x):                     # x under the powers of `first`
        orbit = [x]
        while P[orbit[-1]] != x:
            orbit.append(int(P[orbit[-1]]))
        return orbit

    # send a <first>-orbit that `second` leaves onto the all-0 configuration,
    # which every element fixes, and fix every other point
    x = next(x for x in range(X.size) if X.action[second, x] not in first_orbit(x))
    img = np.arange(X.size)
    img[first_orbit(x)] = 0
    assert np.array_equal(img[P], P[img])
    assert not np.array_equal(img[X.action[second]], X.action[second][img])
    assert not oracles.is_equivariant(X.action, img)
    with pytest.raises(DomainError, match=f"not equivariant at group element {second}$"):
        EquivariantMap(X, img)


def test_equivariance_check_names_each_rows_first_generator_across_column_blocks():
    G = make_dihedral(4)
    X = build_shift(G, 4).gset                  # 65,536 points
    first, second = G.generators
    center = next(g for g in range(G.order) if g != G.identity
                  and (G.mul[g] == G.mul[:, g]).all())
    fixed, moved = X.size - 1, 1                # the all-3 configuration; 0..01
    assert (X.action[:, fixed] == fixed).all() and X.action[first, moved] != moved
    rows = np.array([
        np.arange(X.size),                      # the identity, broken at the last point
        X.action[first],                        # commutes with `first`, not with `second`
        X.action[center],                       # equivariant
        X.action[first],                        # as above, and broken at the last point
        np.arange(X.size),                      # an entry out of range
    ], dtype=np.int32)
    rows[[0, 3], fixed] = moved
    rows[4, 7] = X.size
    blocks = _check_blocks(rows.shape)          # column ranges across all five rows
    assert len(blocks) > 2 and all(r == slice(0, len(rows)) for r, _ in blocks)

    def failing_columns(row, s):
        return np.flatnonzero(row[X.action[s]] != X.action[s][row])

    # row 3 fails `second` in the first column block, `first` only in the last
    assert failing_columns(rows[3], second)[0] < blocks[0][1].stop
    assert failing_columns(rows[3], first).tolist() == [fixed]
    expected = [oracles.first_non_commuting_generator(X.action, row, G.generators)
                for row in rows[:4]]
    assert expected == [first, second, None, first]
    assert _first_non_commuting_generators(X, rows).tolist() == [first, second, -1, first, -2]


def _map_instances():
    out = []
    for G in small_groups().values():
        subgroups = build_lattice(G).subgroups
        X = disjoint_union(coset_action(G, subgroups[0]),
                           coset_action(G, subgroups[len(subgroups) // 2]))
        out += [(X, img) for img in enumerate_end(X).images[::7]]
    return out


MAP_INSTANCES = _map_instances()


@given(st.sampled_from(MAP_INSTANCES), st.data())
@settings(max_examples=150, deadline=None)
def test_equivariance_checks_match_oracle_on_flipped_entries(case, data):
    X, img = case
    img = img.copy()
    x = data.draw(st.integers(0, X.size - 1))
    img[x] = data.draw(st.integers(0, X.size - 1))
    expected = oracles.is_equivariant(X.action, img)
    assert is_equivariant(X, img) == expected
    try:
        EquivariantMap(X, img)
        accepted = True
    except DomainError:
        accepted = False
    assert accepted == expected


def test_identity_and_compose(z2_shift):
    X = z2_shift
    e = identity_map(X)
    assert (e.image == np.arange(4)).all()
    p1 = point_push(X, 1, 0)
    assert p1.as_tuple() == (0, 0, 0, 3)
    assert compose(p1, e) == p1 == compose(e, p1)
    p2 = point_push(X, 0, 3)
    assert p2.as_tuple() == (3, 1, 2, 3)
    # compose applies the right factor first
    assert compose(p2, p1).as_tuple() == (3, 3, 3, 3)
    assert compose(p1, p2).as_tuple() == (3, 0, 0, 3)
    other = build_shift(make_cyclic(2), 3).gset
    with pytest.raises(DomainError):
        compose(p1, identity_map(other))


def test_maps_on_separately_built_equal_actions():
    # two shift spaces of one group, built apart: equal tables, so their
    # maps compose and compare; another group's copy does neither
    G = make_cyclic(2)
    X, Y = build_shift(G, 2).gset, build_shift(G, 2).gset
    assert X is not Y
    p, q = point_push(X, 1, 0), point_push(Y, 0, 3)
    assert compose(q, p).as_tuple() == (3, 3, 3, 3)
    assert compose(p, identity_map(Y)) == p == EquivariantMap(Y, p.image)
    assert p != EquivariantMap(Y, q.image)
    Z = build_shift(make_cyclic(2), 2).gset
    assert p != EquivariantMap(Z, p.image)
    with pytest.raises(DomainError):
        compose(p, identity_map(Z))


def test_equal_maps_hash_equal(z2_shift):
    X = z2_shift
    p = point_push(X, 1, 0)
    twin = EquivariantMap(X, np.array([0, 0, 0, 3], dtype=np.int64))
    assert p is not twin and p == twin and hash(p) == hash(twin)
    maps = {p, twin, identity_map(X), identity_map(X), point_push(X, 0, 3)}
    assert len(maps) == 3
    assert twin in maps and compose(p, p) in maps


def test_point_push_requires_stabilizer_growth(z2_shift):
    X = z2_shift
    with pytest.raises(StabilizerError):
        point_push(X, 0, 1)     # stab(0) is everything, stab(1) is trivial
    tau = point_push(X, 1, 3)
    assert tau.as_tuple() == (0, 3, 3, 3)
    assert not tau.is_bijective()


def test_point_swap(z6_shift):
    X = z6_shift
    # points 9 and 18 sit in one orbit, 27 in the other, all with stabilizer {0,3}
    assert X.stabilizer(9).elements == X.stabilizer(27).elements == (0, 3)
    same_orbit = point_swap(X, 9, 18)
    assert same_orbit.is_bijective() and same_orbit(9) == 18
    cross = point_swap(X, 9, 27)
    assert cross.is_bijective() and cross(9) == 27 and cross(27) == 9
    assert cross(0) == 0
    with pytest.raises(StabilizerError):
        point_swap(X, 0, 9)     # unequal stabilizers
    assert point_swap(X, 9, 9) == identity_map(X)


@pytest.fixture(scope="module")
def small_instances(zoo):
    S3, Z4 = zoo["S3"], zoo["Z4"]
    lat3, lat4 = build_lattice(S3), build_lattice(Z4)
    sub = lambda lat, els: lat.subgroups[lat.subgroup_index(frozenset(els))]
    return [
        build_shift(make_cyclic(2), 2).gset,
        coset_action(S3, sub(lat3, {0, 2})),                       # 3 points
        disjoint_union(coset_action(S3, sub(lat3, {0, 3, 4})),     # 2 + 3 points
                       coset_action(S3, sub(lat3, {0, 2}))),
        disjoint_union(coset_action(Z4, sub(lat4, {0})),           # 4 + 1 points
                       coset_action(Z4, sub(lat4, {0, 1, 2, 3}))),
    ]


def test_enumerate_end_matches_oracle(small_instances):
    for X in small_instances:
        expected = oracles.all_equivariant_images(X.action)
        got = enumerate_end(X)
        assert {tuple(row) for row in got.images} == expected
        assert got.size == len(expected) == end_monoid_order(X)


def test_enumerate_aut_matches_oracle(small_instances):
    for X in small_instances:
        expected = {img for img in oracles.all_equivariant_images(X.action)
                    if oracles.is_bijection(img)}
        got = enumerate_aut(X)
        assert {tuple(row) for row in got.images} == expected
        for tau in got.maps():
            assert tau.is_bijective()


def test_end_monoid_order_formula():
    # product over orbit representatives of the number of admissible targets,
    # cross-checked against full enumeration where that is feasible
    z4 = build_shift(make_cyclic(4), 2).gset
    assert end_monoid_order(z4) == enumerate_end(z4).size == 65536
    assert end_monoid_order(build_shift(make_cyclic(3), 2).gset) == 256
    assert end_monoid_order(build_shift(make_cyclic(2), 3).gset) == 19683


def test_end_order_closed_form_equals_the_enumerated_count(zoo):
    # |End| read from the stabilizers' fixed points, the closed form over the
    # boxes and the product of the per-orbit target counts that
    # enumerate_end enumerates: every shift space of the zoo with q = 2..7
    # inside the cell budget, and every union of two coset spaces of class
    # representatives
    instances = 0
    for G in zoo.values():
        spaces = [build_shift(G, q).gset for q in range(2, 8)
                  if q ** G.order * G.order <= DEFAULT_CELL_BUDGET]
        lattice = build_lattice(G)
        cosets = [coset_action(G, lattice.subgroups[i]) for i in lattice.class_reps]
        spaces += [disjoint_union(a, b) for a, b in
                   itertools.combinations_with_replacement(cosets, 2)]
        for X in spaces:
            decomp = decompose(X)
            boxes = math.prod(len(X.fix(decomp.box_subgroup(i))) ** a
                              for i, a in enumerate(decomp.alpha))
            assert end_monoid_order(X) == boxes == math.prod(_EndIndex(X).counts)
        instances += len(spaces)
    assert instances > 300


def test_rank_of_end_rows_gives_the_end_indices(small_instances):
    for X in small_instances + [build_shift(group, q).gset for group, q in _VERIFY_INSTANCES]:
        codec, end, aut = _EndIndex(X), enumerate_end(X), enumerate_aut(X)
        keys, ok = codec.rank(end.images)
        assert ok.all() and np.array_equal(keys, end.indices)
        assert np.array_equal(codec.rank(aut.images)[0], aut.indices)


def test_a_block_of_products_ranks_like_its_rows():
    # g after every element of End on Z4 shift:q=2: 65,536 rows as one
    # block, against ranking a sample of them one row at a time
    X = build_shift(make_cyclic(4), 2).gset
    end = enumerate_end(X)
    g = aut_generators(X)[0].image
    products = g[end.images]
    codec = _EndIndex(X)
    keys, ok = codec.rank(products)
    assert ok.all() and len(keys) == 65536
    assert np.array_equal(_sorted_unique(keys), end.indices)     # g is a bijection of End
    sample = np.random.default_rng(5).choice(len(products), 300, replace=False)
    for i in sample:
        key, one = codec.rank(products[i][None])
        assert one.all() and key[0] == keys[i]
    assert np.array_equal(codec.unrank(keys[sample]), products[sample])


@given(st.sampled_from(range(len(MAP_INSTANCES))), st.data())
@settings(max_examples=60, deadline=None)
def test_rank_masks_exactly_the_rows_outside_end(case, data):
    # a block of End rows, some with one entry changed (to any point, or
    # to -1 or m, out of range); the mask is the oracle's verdict per row
    X = MAP_INSTANCES[case][0]
    m, end = X.size, enumerate_end(X)
    picks = data.draw(st.lists(st.integers(0, end.size - 1), min_size=1, max_size=12))
    rows = end.images[picks].astype(np.int64)
    for r in range(len(rows)):
        if data.draw(st.booleans()):
            rows[r, data.draw(st.integers(0, m - 1))] = data.draw(st.integers(-1, m))
    codec = _EndIndex(X)
    keys, ok = codec.rank(rows)
    in_range = (rows.min(axis=1) >= 0) & (rows.max(axis=1) < m)
    expected = [bool(r) and oracles.is_equivariant(X.action, row) for r, row in zip(in_range, rows)]
    assert ok.tolist() == expected
    assert ok[in_range].tolist() == [is_equivariant(X, row) for row in rows[in_range]]
    assert np.array_equal(codec.unrank(keys[ok]), rows[ok])
    for width in (m - 1, m + 1):
        wrong = np.zeros((len(rows), width), dtype=np.int64)
        assert len(codec.rank(wrong)[0]) == len(rows) and not codec.rank(wrong)[1].any()


def test_enumerate_budget_guard(z6_shift):
    with pytest.raises(BudgetExceeded):
        enumerate_end(z6_shift)     # far beyond the default budget



def test_budget_guard_on_counts_past_the_int_str_limit():
    # 1600^1600 has 5127 digits, more than Python will turn into a string
    X = trivial_gset(make_cyclic(1), 1600)
    with pytest.raises(BudgetExceeded, match=r"at least 10\^5126 maps"):
        enumerate_end(X)
    with pytest.raises(BudgetExceeded, match=r"at least 10\^\d+ choices"):
        enumerate_aut(X)


def test_budget_guard_before_target_lists():
    # 8236 orbits on 65536 points: listing every representative's targets
    # before the check would take about 5e8 entries
    X = build_shift(make_quaternion(), 4).gset
    with pytest.raises(BudgetExceeded):
        enumerate_end(X)
    with pytest.raises(BudgetExceeded):
        enumerate_aut(X)

def test_monoid_closure_container(z2_shift):
    end = enumerate_end(z2_shift)
    assert len(end) == 16
    ident = identity_map(z2_shift)
    assert ident in end
    rows = [tuple(r) for r in end.images]
    assert rows == sorted(rows)
    aut = enumerate_aut(z2_shift)
    assert aut.size == 4
    assert point_push(z2_shift, 1, 0) not in aut



def test_monoid_closure_membership(z2_shift):
    end = enumerate_end(z2_shift)
    expected = oracles.all_equivariant_images(z2_shift.action)
    for img in itertools.product(range(4), repeat=4):
        assert (img in end) == (img in expected)
    assert [0, 1, 2] not in end                 # wrong length
    assert np.arange(5) not in end
    assert [0, 1, 2, 9] not in end              # a target out of range
    assert [0, 0, 0, 1] not in end              # admissible targets, not equivariant
    # every other End index: their rows, and membership among them only
    half = MonoidClosure(z2_shift, end.indices[::2])
    assert half.images.tobytes() == end.images[::2].tobytes()
    assert all((row in half) == (i % 2 == 0) for i, row in enumerate(end.images))

def test_closure(z2_shift):
    X = z2_shift
    e = identity_map(X)
    assert closure(X, []).size == 1                      # identity alone
    p = point_push(X, 1, 0)
    assert closure(X, [p]).size == 2                     # p is idempotent
    gens = list(enumerate_aut(X).maps()) + [p, point_push(X, 0, 3)]
    assert closure(X, gens).size == 16                   # the whole monoid
    with pytest.raises(ClosureCapExceeded) as info:
        closure(X, gens, cap=5)
    assert info.value.cap == 5 and info.value.partial_size >= 5
    assert e in closure(X, [p])


def test_closure_cap_counts_the_seed():
    # identity plus three distinct generators already exceed a cap of 1
    X = trivial_gset(make_cyclic(1), 3)
    gens = [[0, 0, 2], [1, 1, 2], [2, 2, 2]]
    with pytest.raises(ClosureCapExceeded) as info:
        closure(X, gens, cap=1)
    assert info.value.partial_size > 1
    size = closure(X, gens).size
    assert closure(X, gens, cap=size).size == size
    with pytest.raises(ClosureCapExceeded):
        closure(X, gens, cap=size - 1)


def test_closure_keeps_the_maps_built_on_its_gset(monkeypatch):
    X = build_shift(direct_product(make_cyclic(2), make_cyclic(2)), 2).gset
    gens = aut_generators(X) + list(relative_rank(X).generating_set)
    built = []
    check = EquivariantMap.__post_init__

    def counted(f):
        built.append(f.image)
        check(f)

    monkeypatch.setattr(EquivariantMap, "__post_init__", counted)
    found = closure(X, gens)
    assert built == [] and found.size == end_monoid_order(X)
    assert all(a is b for a, b in zip(found.generators, gens, strict=True))
    # a raw row, and a map on an equal G-set built apart, are wrapped and checked
    push = gens[-1]
    twin = EquivariantMap(GSet(X.group, X.action.copy(), name=X.name), push.image)
    built.clear()
    assert closure(X, [push.image, twin]).size == closure(X, [push]).size
    assert len(built) == 2
    bad = np.arange(X.size)
    bad[0] = 1                      # the constant configuration 0 is fixed by all of G, 1 is not
    with pytest.raises(DomainError, match="not equivariant"):
        closure(X, [bad])
    with pytest.raises(DomainError, match="different action"):
        closure(X, [identity_map(build_shift(make_cyclic(4), 2).gset)])


# shift spaces whose End `verify` can enumerate and close
_VERIFY_INSTANCES = [
    (direct_product(make_cyclic(2), make_cyclic(2)), 2),
    (make_cyclic(4), 2),
    (make_cyclic(1), 6),
    (make_cyclic(3), 2),
    (make_cyclic(2), 3),
]
_VERIFY_IDS = ["Z2xZ2-q2", "Z4-q2", "Z1-q6", "Z3-q2", "Z2-q3"]


@pytest.fixture(scope="module")
def verify_closures():
    """Per verify instance: X, then (generators, oracle rows) for the
    closure verify runs (Aut generators plus the push set) and for the
    pushes alone."""
    cases = []
    for group, q in _VERIFY_INSTANCES:
        X = build_shift(group, q).gset
        pushes = list(relative_rank(X).generating_set)
        cases.append((X, *((gens, oracles.monoid_by_bfs(X.size, [f.image for f in gens]))
                           for gens in (aut_generators(X) + pushes, pushes))))
    return cases


@pytest.mark.parametrize("case", range(len(_VERIFY_IDS)), ids=_VERIFY_IDS)
def test_closure_matches_bfs_oracle_on_verify_instances(verify_closures, case):
    X, (gens, expected), _ = verify_closures[case]
    assert len(expected) == end_monoid_order(X)
    # the default cap and a cap of exactly |End| keep a bitmap of End
    for cap in ({}, {"cap": len(expected)}):
        got = closure(X, gens, **cap)
        assert got.images.tobytes() == expected.tobytes()
    # one short of End: the sorted keys, which must refuse the last element
    with pytest.raises(ClosureCapExceeded) as info:
        closure(X, gens, cap=got.size - 1)
    assert info.value.partial_size > info.value.cap == got.size - 1


@pytest.mark.parametrize("case", range(len(_VERIFY_IDS)), ids=_VERIFY_IDS)
def test_closure_of_a_proper_submonoid_on_both_membership_paths(verify_closures, case):
    # the pushes alone close to less than End; a cap of |End| keeps the
    # known elements as a bitmap of End, a cap of the closure's own size
    # as sorted keys
    X, _, (pushes, expected) = verify_closures[case]
    assert len(expected) < end_monoid_order(X)
    for cap in (end_monoid_order(X), len(expected)):
        got = closure(X, pushes, cap=cap)
        assert got.images.tobytes() == expected.tobytes()
        assert got.size == len(expected)


@pytest.mark.parametrize("chunk_values", [1, 2, 3, 1 << 12])
def test_bitmap_closure_at_small_chunk_and_block_bounds(monkeypatch, verify_closures,
                                                        small_instances, chunk_values):
    # chunks of at most 1, 2 or 3 End indices, so most orbits (up to 16
    # targets) are a chunk of their own.  The pushes-only submonoids also
    # run at 48 keys a block: many blocks per level, and chunks of at most
    # 48 // generators values, which alone sets the bound at the default
    # of 4,096.  (The closures to all of End keep the default block; 48
    # keys would take 32,768 blocks on 65,536 maps.)
    # End and Aut, which no chunk bound reaches, are unranked orbit by
    # orbit and compared with the oracle's rows.
    import equirank.transform

    monkeypatch.setattr(equirank.transform, "_CLOSURE_CHUNK_VALUES", chunk_values)
    for X, (gens, expected), _ in verify_closures:
        got = closure(X, gens, cap=len(expected))
        assert got.images.tobytes() == expected.tobytes()
    monkeypatch.setattr(equirank.transform, "_BLOCK_CELLS", 48)
    for X, _, (pushes, expected) in verify_closures:
        got = closure(X, pushes, cap=end_monoid_order(X))
        assert got.images.tobytes() == expected.tobytes()
    # an orbit whose targets alone outnumber the bound (16 on Z4 q=2)
    X, _, (pushes, _) = verify_closures[1]
    assert max(_EndIndex(X).counts) > min(chunk_values, 48 // len(pushes))
    for X in small_instances:
        rows = np.array(sorted(oracles.all_equivariant_images(X.action)), dtype=np.int32)
        _assert_end_and_aut_rows(X, rows)
    # without a fixed point the row of End index 0 is no constant map; the
    # closure, the enumeration and the BFS oracle agree on all of End of
    # S3 acting on two copies of itself and on its cosets of C2 and C3
    # (17 x 17 x 1 x 2 maps)
    S3 = make_symmetric(3)
    trivial, c2, _, _, c3, _ = (coset_action(S3, H) for H in build_lattice(S3).subgroups)
    X = disjoint_union(disjoint_union(trivial, trivial), disjoint_union(c2, c3))
    end = enumerate_end(X)
    assert end.images[0].any()
    gens = aut_generators(X) + list(relative_rank(X).generating_set)
    got = closure(X, gens, cap=end.size)
    assert got.images.tobytes() == end.images.tobytes()
    rows = oracles.monoid_by_bfs(X.size, [f.image for f in gens])
    assert len(rows) == end_monoid_order(X)
    _assert_end_and_aut_rows(X, rows)


def _assert_end_and_aut_rows(X, rows):
    """enumerate_end gives exactly `rows` (all of End, in lexicographic
    order) and enumerate_aut its bijective rows."""
    bijective = np.array([oracles.is_bijection(row) for row in rows])
    assert enumerate_end(X).images.tobytes() == rows.tobytes()
    assert enumerate_aut(X).images.tobytes() == rows[bijective].tobytes()


def test_bitmap_closure_edge_cases(z2_shift):
    # End of a 0-point G-set is the empty map alone, of a 1-point G-set the
    # identity; with no generators any closure is the identity alone
    for X in (trivial_gset(make_cyclic(2), 0), trivial_gset(make_cyclic(2), 1), z2_shift):
        identity = np.arange(X.size, dtype=np.int32)[None]
        for gens, cap in (([], 1), ([], 2), ([], end_monoid_order(X)), ([identity[0]], 2)):
            got = closure(X, gens, cap=cap)
            assert got.images.dtype == np.int32 and got.images.shape == (1, X.size)
            assert got.images.tobytes() == identity.tobytes()
    for m in (0, 1):
        X = trivial_gset(make_cyclic(2), m)
        assert enumerate_end(X).images.tobytes() == closure(X, []).images.tobytes()


def test_closure_near_the_default_cap_matches_enumeration():
    # Z1 shift:q=7: 823,543 maps on 7 points, the closure's End indices in
    # two chunks of 7^4 and 7^3 values; closure and enumeration are
    # independent routes to the same indices, and both unrank to the rows
    X = build_shift(make_cyclic(1), 7).gset
    gens = aut_generators(X) + list(relative_rank(X).generating_set)
    end = enumerate_end(X)
    assert end.size == 7 ** 7
    assert np.array_equal(closure(X, gens, cap=end.size).images, end.images)


def _last_target_map(X):
    """Each orbit representative sent to its largest admissible target:
    the End element of largest index, End order minus one."""
    table = X.stabilizer_table
    img = np.arange(X.size)
    for r in X.orbit_reps.tolist():
        t = np.flatnonzero(table.within[table.point_class[r]][table.point_class]).max()
        img[X.action[:, r]] = X.action[:, t]
    return EquivariantMap(X, img)


@pytest.mark.parametrize("group, q, swaps, width", [
    (make_cyclic(3), 2, [(1, 3), (1, 4)], "uint32"),
    (make_symmetric(3), 2, [(1, 3), (1, 7)], "one uint64 word"),
    (make_cyclic(3), 4, [(1, 2), (1, 3)], "several words"),
], ids=["Z3-q2", "S3-q2", "Z3-q4"])
def test_closure_at_every_key_width(group, q, swaps, width):
    # End indices need 32 bits, exactly 64 (|End| = 2^64 for S3 q=2, so
    # the last-target map has key 2^64 - 1), or more than one 64-bit word;
    # three pushes and two point swaps in the free box (two orbit swaps, or
    # on Z3 q=2 an orbit swap and a translation) close to 113, 126 and 190
    # maps
    X = build_shift(group, q).gset
    order = end_monoid_order(X)
    assert {"uint32": order <= 2 ** 32, "one uint64 word": order == 2 ** 64,
            "several words": order > 2 ** 64}[width]
    last = _last_target_map(X)
    gens = [last, *relative_rank(X).generating_set[:3], *(point_swap(X, x, y) for x, y in swaps)]
    got = closure(X, gens, cap=4096)
    expected = oracles.monoid_by_bfs(X.size, [f.image for f in gens])
    assert got.images.tobytes() == expected.tobytes()
    assert (got.images[-1] == last.image).all()
    # membership ranks a row into a key of that width; so does a block of
    # rows, one row at a time or all at once, and the keys unrank to the rows
    codec = _EndIndex(X)
    keys, ok = codec.rank(expected)
    assert ok.all() and np.array_equal(keys, got.indices)
    assert np.array_equal(np.concatenate([codec.rank(row[None])[0] for row in expected]), keys)
    _assert_round_trip(codec, _random_end_indices(codec, 200, seed=22))
    assert all(row in got for row in expected)
    outside = [f for f in aut_generators(X) if not (expected == f.image).all(axis=1).any()]
    assert outside and not any(f in got for f in outside)
    # and finds no index for a row that is no equivariant self-map: one
    # image moved within a non-trivial orbit, entries out of range, or the
    # wrong shape
    row = expected[-1].astype(np.int64)
    x = np.flatnonzero((X.action != np.arange(X.size)).any(axis=0))[0]
    bent = row.copy()
    bent[x] = (row[x] + 1) % X.size
    assert not is_equivariant(X, bent)
    # (the fifth: the identity with its last point, a fixed one, sent to m)
    for bad in (bent, np.full(X.size, X.size), np.full(X.size, -1),
                np.append(np.arange(X.size - 1), X.size),
                np.where(row == row[0], -1, row), row[:-1], np.append(row, 0),
                expected[:2].ravel(), row[:0]):
        assert not codec.rank(bad.reshape(1, -1))[1].any() and bad not in got
    assert closure(X, gens, cap=got.size).size == got.size
    with pytest.raises(ClosureCapExceeded):
        closure(X, gens, cap=got.size - 1)


def test_closure_and_membership_on_thousands_of_orbits():
    # S3 shift:q=6: 7,896 orbits, End indices of 1,969 key words: sorted
    # keys in the closure, membership ranks a row into such a key, and the
    # identity's row is unranked from it orbit by orbit
    X = build_shift(make_symmetric(3), 6).gset
    start = time.perf_counter()
    got = closure(X, [])
    assert got.images.tobytes() == np.arange(X.size, dtype=np.int32).tobytes()
    assert identity_map(X) in got
    assert point_push(X, 1, 0) not in got
    # End is far past any budget: End indices drawn at random round-trip
    _assert_round_trip(got._codec, _random_end_indices(got._codec, 50, seed=6))
    assert time.perf_counter() - start < 10


def _random_end_indices(codec, n, seed):
    """n End indices of the codec's G-set, digits drawn at random, ascending."""
    rng = np.random.default_rng(seed)
    return _sorted_unique(codec.keys.pack(np.column_stack([rng.integers(0, c, n)
                                                           for c in codec.counts])))


def _assert_round_trip(codec, indices):
    """Ranking the rows that End indices unrank to gives the indices back."""
    rows = codec.unrank(indices)
    keys, ok = codec.rank(rows)
    assert ok.all() and np.array_equal(keys, indices)
    assert all(is_equivariant(codec.gset, row) for row in rows[:5])


_ORACLE_CAP = 64


@st.composite
def _generator_sets(draw, sizes):
    """Maps on m letters that move only a few drawn points among themselves."""
    m = draw(sizes)
    moved = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=min(m, 6), unique=True))
    gens = []
    for _ in range(draw(st.integers(0, 3))):
        img = list(range(m))
        for x in moved:
            img[x] = draw(st.sampled_from(moved))
        gens.append(img)
    return m, gens


def _check_closure_against_oracle(m, gens):
    X = trivial_gset(make_cyclic(1), m)
    seed = {tuple(range(m)), *map(tuple, gens)}
    try:
        expected = oracles.closure_of_maps(seed, cap=_ORACLE_CAP)
    except ValueError:
        with pytest.raises(ClosureCapExceeded):
            closure(X, gens, cap=_ORACLE_CAP)
        return
    got = closure(X, gens, cap=len(expected))
    assert got.images.tolist() == sorted(map(list, expected))
    with pytest.raises(ClosureCapExceeded):
        closure(X, gens, cap=len(expected) - 1)


@given(_generator_sets(st.integers(1, 6)))
@settings(max_examples=40, deadline=None)
def test_closure_matches_oracle_on_few_letters(case):
    _check_closure_against_oracle(*case)


@given(_generator_sets(st.integers(17, 40)))
@settings(max_examples=40, deadline=None)
def test_closure_matches_oracle_on_multiword_keys(case):
    # over 16 letters a packed row spans more than one 64-bit word
    _check_closure_against_oracle(*case)


def test_sym_and_trans_generator_checks():
    for n in range(1, 5):
        assert sym_generators_check(n) is True
    for n in range(1, 4):
        assert trans_generators_check(n) is True
    with pytest.raises(BudgetExceeded):
        sym_generators_check(7)
    with pytest.raises(BudgetExceeded):
        trans_generators_check(6)
    with pytest.raises(DomainError):
        sym_generators_check(0)


def _same_image(f: EquivariantMap) -> np.ndarray:
    """[a, b] says f(a) = f(b): the kernel of f as a relation."""
    return f.image[:, None] == f.image[None, :]


def test_kernel_pairs_and_rank(z2_shift):
    X = z2_shift
    p = point_push(X, 1, 0)
    off_diagonal = ~np.eye(X.size, dtype=bool)
    pairs = np.argwhere(_same_image(p) & off_diagonal).tolist()
    assert pairs == [[0, 1], [0, 2], [1, 0], [1, 2], [2, 0], [2, 1]]
    assert map_rank(p) == 2
    e = identity_map(X)
    assert not (_same_image(e) & off_diagonal).any() and map_rank(e) == 4


def test_singular_maps_form_an_ideal(z2_shift):
    maps = list(enumerate_end(z2_shift).maps())
    for s in maps:
        for t in maps:
            st = compose(s, t)
            if not (s.is_bijective() and t.is_bijective()):
                assert not st.is_bijective()
            # kernel of the right factor survives composition: points
            # with equal t images have equal s o t images
            assert not (_same_image(t) & ~_same_image(st)).any()
