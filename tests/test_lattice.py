import itertools
import re
from functools import reduce

import numpy as np
import pytest

from equirank import (
    BudgetExceeded,
    DomainError,
    Subgroup,
    build_lattice,
    conj_order_graph,
    direct_product,
    from_permutation_generators,
    generated_subgroup,
    make_cyclic,
    make_symmetric,
)
import oracles

# Alt(5) and Alt(6) as the CLI specs perm:5:(0 1 2);(2 3 4) and perm:6:(0 1 2);(1 2 3 4 5)
A5_GENS = [(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)]
A6_GENS = [(1, 2, 0, 3, 4, 5), (0, 2, 3, 4, 5, 1)]


def test_all_subgroups_against_subset_scan(zoo):
    for G in zoo.values():
        ours = {s.element_set for s in build_lattice(G).subgroups}
        brute = oracles.all_subgroup_element_sets(G.mul)
        assert ours == brute


def test_all_subgroups_against_pairwise_join():
    groups = {
        "A5": from_permutation_generators(5, A5_GENS),
        "S4": make_symmetric(4),
        "S3xS3": direct_product(make_symmetric(3), make_symmetric(3)),
        "Z2^4": reduce(direct_product, [make_cyclic(2)] * 4),
        "Z2xS4": direct_product(make_cyclic(2), make_symmetric(4)),
    }
    for name, G in groups.items():
        ours = [s.elements for s in build_lattice(G).subgroups]
        assert ours == oracles.subgroups_by_pairwise_join(G.mul), name


def test_lattice_counts_past_order_100():
    A5 = build_lattice(from_permutation_generators(5, A5_GENS))
    assert (len(A5.subgroups), len(A5.classes)) == (59, 9)
    assert A5.moebius(0, len(A5.subgroups) - 1) == -60
    S5 = build_lattice(make_symmetric(5))
    assert (len(S5.subgroups), len(S5.classes)) == (156, 19)
    A6 = build_lattice(from_permutation_generators(6, A6_GENS))
    assert (len(A6.subgroups), len(A6.classes)) == (501, 22)
    # A5 is perfect: no chain of cyclic extensions reaches it, joins do
    even = tuple(i for i, p in enumerate(itertools.permutations(range(5)))
                 if sum(a > b for a, b in itertools.combinations(p, 2)) % 2 == 0)
    assert even in [s.elements for s in S5.subgroups]


def test_subgroup_objects_are_built_on_first_use(capsys, monkeypatch):
    from equirank.cli import main

    built = []
    check = Subgroup.__post_init__

    def counted(H):
        built.append(H.elements)
        check(H)

    monkeypatch.setattr(Subgroup, "__post_init__", counted)
    assert main(["lattice", "S4"]) == 0                # the report reads the masks
    capsys.readouterr()
    assert built == []
    L = build_lattice(make_symmetric(4))
    assert len(L.subgroups) == 30 and built == []
    H = L.subgroups[7]
    assert len(built) == 1 and L.subgroups[-23] is H
    assert H.elements == tuple(np.flatnonzero(L.masks[7]).tolist())
    assert [S.elements for S in L.subgroups[28:]] == [
        tuple(np.flatnonzero(m).tolist()) for m in L.masks[28:]]
    assert [S.elements for S in L.subgroups] == oracles.subgroups_by_pairwise_join(L.group.mul)


def test_subgroup_counts(zoo):
    counts = {name: len(build_lattice(G).subgroups) for name, G in zoo.items()}
    assert counts == {"Z1": 1, "Z2": 2, "Z3": 2, "Z4": 3, "Z5": 2, "Z6": 4,
                      "Z7": 2, "Z8": 4, "V4": 5, "S3": 6, "D4": 10,
                      "Z4xZ2": 8, "Z2x2x2": 16, "Q8": 6}


def test_subgroup_validation():
    G = make_symmetric(3)
    with pytest.raises(DomainError):
        Subgroup(G, (0, 3))            # (0 1 2) alone is not closed
    with pytest.raises(DomainError):
        Subgroup(G, (1, 2))            # missing the identity
    with pytest.raises(DomainError):
        Subgroup(G, ())


def test_subgroup_validation_against_loop(zoo):
    rng = np.random.default_rng(5)
    for G in [*zoo.values(), make_symmetric(4)]:
        for _ in range(60):
            size = int(rng.integers(1, G.order + 1))
            elements = tuple(sorted(rng.choice(G.order, size, replace=False).tolist()))
            if rng.random() < 0.5 and G.identity not in elements:
                elements = tuple(sorted(elements + (G.identity,)))
            expected = oracles.subgroup_violation(G.mul, G.inv, G.identity, elements)
            if expected is None:
                assert Subgroup(G, elements).elements == elements
            else:
                with pytest.raises(DomainError, match=re.escape(expected)):
                    Subgroup(G, elements)
    with pytest.raises(DomainError, match="element 9 out of range"):
        Subgroup(make_symmetric(3), (0, 1, 9))


def test_generated_subgroup():
    G = make_symmetric(3)
    assert generated_subgroup(G, []) == frozenset({0})
    assert generated_subgroup(G, [3]) == frozenset({0, 3, 4})
    assert generated_subgroup(G, [1, 2]) == frozenset(range(6))


def test_s3_lattice_golden():
    L = build_lattice(make_symmetric(3))
    assert [s.elements for s in L.subgroups] == [
        (0,), (0, 1), (0, 2), (0, 5), (0, 3, 4), (0, 1, 2, 3, 4, 5)]
    assert L.classes == [(0,), (1, 2, 3), (4,), (5,)]
    assert L.class_reps == (0, 1, 4, 5)
    # order-2 subgroups are self-normalizing; the rest are normal
    assert L.normalizer_idx == (5, 1, 2, 3, 5, 5)
    assert L.moebius(0, 5) == 3
    assert L.moebius(0, 4) == -1
    assert L.moebius(1, 5) == -1
    assert L.class_of(2) == 1 and L.class_of(4) == 2


def test_moebius_against_zeta_inverse(zoo):
    # the larger groups have many order layers, solved one at a time
    groups = dict(zoo, S4=make_symmetric(4), A5=from_permutation_generators(5, A5_GENS),
                  S5=make_symmetric(5), Z2_4=reduce(direct_product, [make_cyclic(2)] * 4),
                  Z2xS4=direct_product(make_cyclic(2), make_symmetric(4)),
                  A6=from_permutation_generators(6, A6_GENS))
    for name, G in groups.items():
        L = build_lattice(G)
        mu = oracles.moebius_by_inversion(L.leq)
        ours = np.where(L.leq, L.moebius_table, mu)   # only compare on the order
        assert (ours == mu).all(), name


def test_blocked_tables_match_unblocked(monkeypatch):
    import equirank.lattice

    groups = [make_symmetric(5), direct_product(make_cyclic(2), make_symmetric(4))]
    whole = [build_lattice(G) for G in groups]
    # a few dozen cells a block: one class representative per block in the
    # enumeration, many row blocks in `containment`, many chain blocks per
    # order layer in the Moebius table
    monkeypatch.setattr(equirank.lattice, "_BLOCK_CELLS", 40)
    for G, L in zip(groups, whole):
        assert (equirank.lattice._subgroup_masks(G) == L.masks).all()
        assert (equirank.lattice.containment(L.masks) == L.leq).all()
        mu = equirank.lattice._moebius_table(L.leq, L.masks.sum(axis=1))
        assert (mu == L.moebius_table).all()
        assert (mu == oracles.moebius_by_inversion(L.leq)).all()


def test_moebius_rejects_incomparable():
    L = build_lattice(make_cyclic(6))
    i = L.subgroup_index([0, 3])
    j = L.subgroup_index([0, 2, 4])
    with pytest.raises(DomainError):
        L.moebius(i, j)


def test_normalizer_and_n_classes():
    G = make_symmetric(3)
    H = Subgroup(G, (0, 2))
    L = build_lattice(G)
    N = L.normalizer_of(H)
    assert N.elements == (0, 2)
    full = Subgroup(G, tuple(range(6)))
    h = L.subgroup_index(H)
    assert [L.subgroups[j].elements for j in L.n_class(N, h)] == [(0, 2)]
    assert [L.subgroups[j].elements for j in L.n_class(full, h)] == [
        (0, 1), (0, 2), (0, 5)]
    assert L.subgroups[L.conj[3, L.subgroup_index({0, 2})]].element_set == frozenset({0, 1})


def test_conjugation_table_against_oracle(zoo):
    groups = dict(zoo, S4=make_symmetric(4), A5=from_permutation_generators(5, A5_GENS))
    for name, G in groups.items():
        L = build_lattice(G)
        sets = [S.elements for S in L.subgroups]
        index = {frozenset(s): i for i, s in enumerate(sets)}
        assert (L.conj == oracles.conjugation_table(G.mul, G.inv, sets)).all(), name
        classes = oracles.subgroup_classes(G.mul, G.inv, sets)
        assert L.classes == classes, name
        assert L.class_reps == tuple(cl[0] for cl in classes), name
        assert [L.classes[L.class_of(i)] for i in range(len(sets))] == [
            next(cl for cl in classes if i in cl) for i in range(len(sets))], name
        assert L.normalizer_idx == tuple(
            index[oracles.normalizer_elements(G.mul, G.inv, s)] for s in sets), name
        for n in sorted(set(L.normalizer_idx)):
            N = L.subgroups[n]
            for i, s in enumerate(sets):
                found = {oracles.conjugate_set(G.mul, G.inv, g, s) for g in N.elements}
                assert L.n_class(N, i) == tuple(sorted(index[t] for t in found)), (name, n, i)
        for cl in classes:
            for i in cl:
                for j in cl:
                    assert L.conjugator(i, j) == oracles.smallest_conjugator(
                        G.mul, G.inv, sets[i], sets[j]), (name, i, j)


def test_conjugator_rejects_non_conjugate_pair():
    L = build_lattice(make_symmetric(3))
    with pytest.raises(DomainError):
        L.conjugator(1, 4)


def test_conj_order_graph_s3():
    L = build_lattice(make_symmetric(3))
    edges = conj_order_graph(L)
    # classes: 0=trivial, 1=order-2, 2=alternating, 3=full
    assert edges == {(0, 0), (0, 1), (0, 2), (0, 3),
                     (1, 1), (1, 3), (2, 2), (2, 3), (3, 3)}
    # reflexive and transitive
    for (a, b) in list(edges):
        for (c, d) in list(edges):
            if b == c:
                assert (a, d) in edges


def test_lattice_budget():
    with pytest.raises(BudgetExceeded):
        build_lattice(make_cyclic(720), budget=360)


def test_subgroup_membership_order_and_equality(zoo):
    # containment and equality against element sets, for every pair of subgroups
    for G in zoo.values():
        subgroups = list(build_lattice(G).subgroups)
        for H in subgroups:
            assert all((g in H) == (g in set(H.elements)) for g in range(G.order))
        for H, K in itertools.product(subgroups, repeat=2):
            assert (H <= K) == set(H.elements).issubset(K.elements)
            assert (H == K) == (H.elements == K.elements)
        # a copy built apart is equal and hashes equal; a set dedupes it
        copies = [Subgroup(G, reversed(H.elements)) for H in subgroups]
        assert copies == subgroups and [hash(c) for c in copies] == [hash(H) for H in subgroups]
        assert len(set(subgroups) | set(copies)) == len(subgroups)
    # the same elements in another group's copy are another subgroup
    trivial = Subgroup(make_cyclic(2), (0,))
    assert trivial != Subgroup(make_cyclic(2), (0,)) and trivial != (0,)
