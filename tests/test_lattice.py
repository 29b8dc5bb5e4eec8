import numpy as np
import pytest

from equirank import (
    BudgetExceeded,
    DomainError,
    Subgroup,
    all_subgroups,
    build_lattice,
    conj_order_graph,
    generated_subgroup,
    make_cyclic,
    make_symmetric,
)
import oracles


def test_all_subgroups_against_subset_scan(zoo):
    for G in zoo.values():
        ours = {s.element_set for s in all_subgroups(G)}
        brute = oracles.all_subgroup_element_sets(G.mul)
        assert ours == brute


def test_subgroup_counts(zoo):
    counts = {name: len(all_subgroups(G)) for name, G in zoo.items()}
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
    for G in zoo.values():
        L = build_lattice(G)
        mu = oracles.moebius_by_inversion(L.leq)
        ours = np.where(L.leq, L.moebius_table, mu)   # only compare on the order
        assert (ours == mu).all()


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
    groups = dict(zoo, S4=make_symmetric(4))
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
        all_subgroups(make_cyclic(720), budget=360)
