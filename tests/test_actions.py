import functools
import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from equirank import (
    BudgetExceeded,
    DomainError,
    GSet,
    Subgroup,
    alpha_by_moebius,
    build_lattice,
    build_shift,
    burnside_orbit_count,
    coset_action,
    decompose,
    disjoint_union,
    make_cyclic,
    make_dihedral,
    make_symmetric,
    relative_rank,
    restrict_to_invariant,
    trivial_gset,
)
from equirank.groups import _check_blocks

import oracles
from catalog import small_groups

S3_DISPLAY = [0, 2, 5, 1, 4, 3]   # element order used when reading configurations


def shift_gset(G, q, display=None):
    display = display if display is not None else list(range(G.order))
    act = oracles.shift_action_table(G.mul, G.inv, q, display)
    return GSet(G, act, name=f"{G.name} shift q={q}")


def test_action_validation():
    Z2 = make_cyclic(2)
    with pytest.raises(DomainError):
        GSet(Z2, np.array([[1, 0], [0, 1]]))          # identity must act trivially
    with pytest.raises(DomainError):
        GSet(Z2, np.array([[0, 1, 2], [1, 2, 0]]))    # order-2 element acting with order 3
    with pytest.raises(DomainError):
        GSet(Z2, np.array([[0, 1], [0, 5]]))          # out of range
    with pytest.raises(DomainError):
        GSet(Z2, np.array([[0, 1], [1 + 2**32, 0]]))  # out of range, valid once cut to int32
    with pytest.raises(DomainError):
        GSet(Z2, [[0, 1], [1 + 2**64, 0]])            # past int64 as well
    with pytest.raises(BudgetExceeded):
        trivial_gset(make_cyclic(100), 20_000)


def test_action_check_sees_non_generator_rows():
    Z6 = make_cyclic(6)
    assert Z6.generators == (1,)
    act = Z6.mul.copy()                   # the regular action g.x = g + x
    act[4] = act[2]                       # still a permutation, but 4 = 1+1+1+1
    assert oracles.action_violation(Z6.mul, act, Z6.identity) is not None
    with pytest.raises(DomainError, match="compatible"):
        GSet(Z6, act)


def _flip_instances():
    out = []
    for G in small_groups().values():
        subgroups = build_lattice(G).subgroups
        out += [coset_action(G, H) for H in subgroups[:3]]
        out.append(disjoint_union(coset_action(G, subgroups[0]), coset_action(G, subgroups[len(subgroups) // 2])))
    return out


FLIP_INSTANCES = _flip_instances()


@given(st.sampled_from(FLIP_INSTANCES), st.data())
@settings(max_examples=150, deadline=None)
def test_action_check_matches_pair_loop_on_flipped_entries(X, data):
    n, m = X.action.shape
    act = X.action.copy()
    g = data.draw(st.integers(0, n - 1))
    x = data.draw(st.integers(0, m - 1))
    act[g, x] = data.draw(st.integers(0, m - 1))
    expected = oracles.action_violation(X.group.mul, act, X.group.identity) is None
    try:
        GSet(X.group, act)
        accepted = True
    except DomainError:
        accepted = False
    assert accepted == expected


def _coset_tables():
    return [coset_action(G, H) for G in small_groups().values() if G.order > 1
            for H in build_lattice(G).subgroups if H.order < G.order]


@given(st.sampled_from(_coset_tables()), st.data())
@settings(max_examples=150, deadline=None)
def test_action_check_names_the_first_bad_generator_pair(X, data):
    G, (n, m) = X.group, X.action.shape
    g = data.draw(st.sampled_from([h for h in range(n) if h != G.identity]))
    x = data.draw(st.integers(0, m - 1))
    value = data.draw(st.integers(0, m - 1))
    assume(value != X.action[g, x])
    act = X.action.copy()
    act[g, x] = value                     # row g is no longer a permutation
    assert oracles.action_violation(G.mul, act, G.identity) is not None
    bad_g, bad_s = oracles.first_generator_violation(G.mul, act, G.generators)
    with pytest.raises(DomainError) as info:
        GSet(G, act)
    assert str(info.value) == f"action is not compatible with the product at ({bad_g},{bad_s})"


def _named_pair(G, act):
    """The (g, s) that `GSet` names for a broken table, checked against
    the oracle's first failing pair."""
    bad_g, bad_s = oracles.first_generator_violation(G.mul, act, G.generators)
    with pytest.raises(DomainError) as info:
        GSet(G, act)
    assert str(info.value) == f"action is not compatible with the product at ({bad_g},{bad_s})"
    return bad_g, bad_s


def test_action_check_names_the_first_bad_pair_past_the_first_block():
    # tall: the regular action of D300, 600 x 600, checked in blocks of rows
    G = make_dihedral(300)
    blocks = _check_blocks(G.mul.shape)
    assert len(blocks) > 1 and all(c == slice(0, G.order) for _, c in blocks)
    for x in (0, 345, G.order - 1):
        act = G.mul.copy()
        act[-1, x] = (act[-1, x] + 1) % G.order
        assert _named_pair(G, act)[0] >= blocks[0][0].stop

    # wide: D4 shift:q=4, 8 rows of 65,536 points, checked in column ranges
    # across all rows
    G = make_dihedral(4)
    X = build_shift(G, 4).gset
    blocks = _check_blocks(X.action.shape)
    assert len(blocks) > 2 and all(r == slice(0, G.order) for r, _ in blocks)
    for x in (0, 12345, X.size - 1):
        act = X.action.copy()
        act[-1, x] = (act[-1, x] + 1) % X.size
        assert oracles.action_violation(G.mul, act, G.identity) is not None
        _named_pair(G, act)
    # one cell broken in the first column block, one in the last: the first
    # bad pair's row fails only in the last block, a later row in the first
    act = X.action.copy()
    for g, x in ((7, 100), (2, X.size - 100)):
        act[g, x] = (act[g, x] + 1) % X.size
    bad_g, bad_s = _named_pair(G, act)
    failing = act[G.mul[:, bad_s]] != act[:, act[bad_s]]
    assert failing[bad_g, :blocks[-1][1].start].sum() == 0
    assert failing[bad_g + 1:, :blocks[0][1].stop].any()


def _box_instances():
    out = []
    for G in small_groups().values():
        subgroups = build_lattice(G).subgroups
        out += [coset_action(G, H) for H in subgroups]
        q = 2
        while q <= 7 and q ** G.order <= 7000:
            out.append(build_shift(G, q).gset)
            q += 1
        if G.order in (6, 8):
            parts = [coset_action(G, subgroups[k]) for k in (0, 1, 1, len(subgroups) // 2, -1)]
            X = parts[0]
            for p in parts[1:]:
                X = disjoint_union(X, p)
            out.append(X)
    return out


def test_boxes_and_orbit_tables_match_oracle_groupings():
    groups = {}
    for X in _box_instances():
        G, m = X.group, X.size
        if id(G) not in groups:
            subgroups = oracles.subgroups_by_pairwise_join(G.mul)
            classes = oracles.subgroup_classes(G.mul, G.inv, subgroups)
            groups[id(G)] = ({s: i for i, s in enumerate(subgroups)},
                             {i: c for c, members in enumerate(classes) for i in members})
        index, class_of = groups[id(G)]
        stab = [index[oracles.stabilizer_of(X.action, x)] for x in range(m)]
        classes = sorted({class_of[k] for k in stab})
        box = [classes.index(class_of[k]) for k in stab]
        orbits = [tuple(sorted(o)) for o in oracles.orbit_partition(X.action)]
        D = decompose(X)
        assert D.box_classes == tuple(classes)
        assert D.box_of_point.tolist() == box
        for i in range(len(classes)):
            keys = sorted({k for x, k in enumerate(stab) if box[x] == i})
            assert [(k, pts.tolist()) for k, pts in D.sub_boxes[i].items()] == [
                (k, [x for x in range(m) if stab[x] == k]) for k in keys]
            in_box = tuple(o for o in orbits if box[o[0]] == i)
            assert np.array_equal(D.orbit_table(i), np.array(in_box).T)
            assert D.alpha[i] == len(in_box)


def test_rank_leaves_point_tuples_unbuilt():
    X = build_shift(make_cyclic(6), 7).gset
    D = relative_rank(X).decomposition
    assert "sub_boxes" not in vars(D)
    assert len(D.sub_boxes[0]) == 1            # still available on first use


def test_orbits_and_stabilizers_against_oracle(zoo):
    for name in ("Z6", "S3", "D4", "Q8"):
        G = zoo[name]
        L = build_lattice(G)
        instances = [_union_of_cosets(G)] + ([build_shift(G, 2).gset] if name == "D4" else [])
        for X in instances:
            orbits = oracles.orbit_partition(X.action)
            assert X.orbit_of_point.tolist() == [
                next(k for k, o in enumerate(orbits) if x in o) for x in range(X.size)]
            D = decompose(X)
            for x in range(X.size):
                assert X.stabilizer(x).elements == oracles.stabilizer_of(X.action, x)
                assert D.stab_index[x] == L.subgroup_index(oracles.stabilizer_of(X.action, x))
            assert burnside_orbit_count(X) == oracles.burnside_count(X.action) == len(X.orbit_reps)
            assert X.orbit_reps.tolist() == [min(o) for o in oracles.orbit_partition(X.action)]


def _union_of_cosets(G, ks=None):
    subgroups = build_lattice(G).subgroups
    parts = [coset_action(G, subgroups[k]) for k in (range(len(subgroups)) if ks is None else ks)]
    X = parts[0]
    for p in parts[1:]:
        X = disjoint_union(X, p)
    return X


def _s5_union():
    # |G| = 120 > 64: each point's fixed flags span two key words
    return _union_of_cosets(make_symmetric(5), (0, 1, 40, 100, 150))


def test_stabilizers_past_one_key_word():
    X = _s5_union()
    table = X.stabilizer_table
    for x in range(X.size):
        assert X.stabilizer(x).elements == oracles.stabilizer_of(X.action, x)
    flags = table.masks.astype(int)
    assert (np.lexsort(flags.T[::-1]) == np.arange(len(flags))).all()   # ascending
    assert len(np.unique(flags, axis=0)) == len(flags)                  # distinct


def test_labels_and_representatives_match_the_sort_and_search_routes(zoo):
    instances = [build_shift(make_dihedral(4), 4).gset, _s5_union()]
    instances += [_union_of_cosets(zoo[name]) for name in ("Z6", "S3", "D4", "Q8")]
    for X in instances:
        distinct, cls = oracles.stabilizer_classes_by_unique(X.action)
        assert np.array_equal(X.stabilizer_table.masks, distinct)
        assert np.array_equal(X.stabilizer_table.point_class, cls)
        assert np.array_equal(X.orbit_of_point, oracles.orbit_ids_by_search(X.action))
        D = decompose(X)
        box_of_orbit = D.box_of_point[X.orbit_reps]
        expected = oracles.canonical_reps_by_box(
            D.stab_index, X.orbit_of_point, [D.lattice.class_reps[c] for c in D.box_classes])
        for i, reps in enumerate(expected):
            assert np.array_equal(D.canonical_reps[box_of_orbit == i], reps)
        for a, k in enumerate(D.stabilizers.tolist()):
            assert np.array_equal(D.sub_boxes[D.box_of_stabilizer[a]][k],
                                  np.flatnonzero(D.stab_index == k))


def test_fix_against_oracle(zoo):
    G = zoo["D4"]
    X = shift_gset(G, 2)
    L = build_lattice(G)
    for s, mask in zip(L.subgroups, L.masks):
        expected = list(oracles.fixed_points(X.action, s.elements))
        assert X.fix(s.elements).tolist() == expected
        assert X.fix(s).tolist() == X.fix(mask).tolist() == expected


def test_coset_action_basics(zoo):
    G = zoo["S3"]
    L = build_lattice(G)
    for s in L.subgroups:
        ca = coset_action(G, s)
        assert ca.size == G.order // s.order
        assert len(ca.orbit_reps) == 1
        # the point holding the subgroup itself is index 0 and has stabilizer H
        assert ca.stabilizer(0).elements == s.elements


def test_coset_action_matches_oracle(zoo):
    for G in zoo.values():
        for H in build_lattice(G).subgroups:
            expected = oracles.coset_action_table(G.mul, H.elements)
            assert np.array_equal(coset_action(G, H).action, expected)
            assert H.coset_min.tolist() == [min(int(G.mul[t, h]) for h in H.elements)
                                            for t in range(G.order)]


@functools.cache
def _s7():
    return make_symmetric(7)


def test_coset_action_refuses_its_table_before_gathering_it():
    # S7 on the cosets of an order-2 subgroup: 5040 x 2520 cells, 51 MB as int32
    G = _s7()
    H = Subgroup(G, (0, 1))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded,
                           match=r"^action table of 12700800 cells exceeds budget 1000000$"):
            coset_action(G, H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20


def test_a_whole_group_subgroup_is_checked_and_its_cosets_found_in_blocks():
    # H = S7 itself: 5040^2 products to check and 5040 x 5040 cells to take
    # coset minima over, each 102 MB as int32 if gathered at once
    G = _s7()
    tracemalloc.start()
    try:
        H = Subgroup(G, range(G.order))
        X = coset_action(G, H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert X.size == 1 and not H.coset_min.any()
    assert peak < 5 * 2 ** 20


def test_decompose_once_per_gset(zoo):
    X = coset_action(zoo["S3"], build_lattice(zoo["S3"]).subgroups[1])
    D = decompose(X)
    assert decompose(X) is D and D.gset is X
    # X refers to D only weakly, so no cycle outlives the last holder
    held = weakref.ref(D)
    del D
    assert held() is None


def test_lattice_once_per_group_while_held():
    G = make_symmetric(3)
    X = build_shift(G, 2).gset
    gc.disable()                        # only reference counting may free it
    try:
        D = decompose(X)
        Y = coset_action(G, D.lattice.subgroups[1])
        assert decompose(Y).lattice is D.lattice is build_lattice(G)
        held = weakref.ref(D.lattice)
        del D
        assert held() is None
    finally:
        gc.enable()


def test_z6_shift_boxes():
    X = shift_gset(make_cyclic(6), 2)
    D = decompose(X)
    assert np.bincount(D.box_of_point).tolist() == [54, 6, 2, 2]
    assert D.alpha == (9, 2, 1, 2)
    assert D.kappa == (2,)
    assert np.flatnonzero(D.box_of_point == 1).tolist() == [9, 18, 27, 36, 45, 54]
    assert np.flatnonzero(D.box_of_point == 2).tolist() == [21, 42]
    assert np.flatnonzero(D.box_of_point == 3).tolist() == [0, 63]
    free_minima = D.orbit_table(0)[0].tolist()
    assert free_minima == [1, 3, 5, 7, 11, 13, 15, 23, 31]
    assert [D.box_subgroup(i).elements for i in range(4)] == [
        (0,), (0, 3), (0, 2, 4), (0, 1, 2, 3, 4, 5)]


def test_s3_shift_boxes():
    X = shift_gset(make_symmetric(3), 2, display=S3_DISPLAY)
    D = decompose(X)
    assert np.bincount(D.box_of_point).tolist() == [42, 18, 2, 2]
    assert D.alpha == (7, 6, 1, 2)
    assert D.kappa == (2,)
    assert np.flatnonzero(D.box_of_point == 2).tolist() == [28, 35]
    assert np.flatnonzero(D.box_of_point == 3).tolist() == [0, 63]
    assert X.stabilizer(28).elements == (0, 3, 4)
    assert X.stabilizer(5).elements == (0, 2)
    assert {k: pts.tolist() for k, pts in D.sub_boxes[1].items()} == {
        1: [9, 18, 27, 36, 45, 54],     # fixed pointwise by (1 2)
        2: [5, 10, 15, 48, 53, 58],     # by (0 1)
        3: [6, 17, 23, 40, 46, 57],     # by (0 2)
    }
    assert D.orbit_table(0)[0].tolist() == [1, 3, 7, 11, 19, 29, 31]
    assert [D.expected_aut_orbits(i) for i in range(4)] == [1, 3, 1, 1]
    assert [len(D.sub_boxes[i]) for i in range(4)] == [1, 3, 1, 1]


def test_alpha_moebius_matches_direct(zoo):
    for name, G in zoo.items():
        if G.order > 6:
            continue
        X = shift_gset(G, 2)
        D = decompose(X)
        for i in range(D.n_boxes):
            assert alpha_by_moebius(X, i) == D.alpha[i]


def test_alpha_moebius_on_unions(zoo):
    G = zoo["S3"]
    L = build_lattice(G)
    X = disjoint_union(coset_action(G, L.subgroups[1]),
                       coset_action(G, L.subgroups[2]))
    D = decompose(X)
    assert D.alpha == (2,)
    assert alpha_by_moebius(X, 0) == 2
    assert D.kappa == ()


def test_burnside_on_random_unions(zoo):
    rng = np.random.default_rng(7)
    for name in ("Z4", "S3", "D4"):
        G = zoo[name]
        L = build_lattice(G)
        for _ in range(10):
            picks = rng.integers(0, len(L.subgroups), size=rng.integers(1, 5))
            X = coset_action(G, L.subgroups[picks[0]])
            for k in picks[1:]:
                X = disjoint_union(X, coset_action(G, L.subgroups[k]))
            assert burnside_orbit_count(X) == len(X.orbit_reps) == len(picks)


def test_restrict_to_invariant():
    X = shift_gset(make_cyclic(6), 2)
    R = restrict_to_invariant(X, [0, 63, 21, 42])
    assert R.orbit_of_point.tolist() == [0, 1, 1, 2]
    new = {x: i for i, x in enumerate([0, 21, 42, 63])}
    assert R.action.tolist() == [[new[int(X.action[g, x])] for x in new] for g in range(6)]
    for outside in ([0, 64], [-1, 0]):
        with pytest.raises(DomainError):
            restrict_to_invariant(X, outside)
    with pytest.raises(DomainError):
        restrict_to_invariant(X, [1, 2])              # not closed under the action
    with pytest.raises(DomainError):
        restrict_to_invariant(X, [])


def test_disjoint_union_rejects_mixed_groups():
    with pytest.raises(DomainError):
        disjoint_union(trivial_gset(make_cyclic(2), 2),
                       trivial_gset(make_cyclic(3), 2))
