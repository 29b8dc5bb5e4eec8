"""Subgroup lattices: enumeration, conjugacy, normalizers, Moebius values.

Everything here is exhaustive and budget-guarded; the subgroup count of a
group explodes quickly with the order, and this is a desk-scale
verification tool, not a general-purpose CAS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BudgetExceeded, DomainError
from .groups import FiniteGroup

DEFAULT_LATTICE_ORDER_BUDGET = 360
_SUBGROUP_COUNT_CAP = 50_000


@dataclass(frozen=True, eq=False)
class Subgroup:
    """A subgroup given by its sorted element indices inside a parent group."""

    group: FiniteGroup
    elements: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(sorted(int(x) for x in self.elements)))
        _check_subgroup(self.group, self.elements)

    @cached_property
    def element_set(self) -> frozenset:
        return frozenset(self.elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    def index_in_group(self) -> int:
        return self.group.order // self.order

    def __contains__(self, g: int) -> bool:
        return g in self.element_set

    def __le__(self, other: "Subgroup") -> bool:
        return self.element_set <= other.element_set

    def __eq__(self, other):
        return (isinstance(other, Subgroup) and self.group is other.group
                and self.elements == other.elements)

    def __hash__(self):
        return hash((id(self.group), self.elements))

    def __repr__(self):
        shown = ",".join(self.group.label(g) for g in self.elements)
        return f"Subgroup{{{shown}}}"


def _check_subgroup(G: FiniteGroup, elements: tuple[int, ...]) -> None:
    if not elements:
        raise DomainError("a subgroup cannot be empty")
    s = frozenset(elements)
    if G.identity not in s:
        raise DomainError("subgroup does not contain the identity")
    for a in elements:
        if not (0 <= a < G.order):
            raise DomainError(f"element {a} out of range")
        if int(G.inv[a]) not in s:
            raise DomainError(f"subgroup not closed under inverses at {a}")
        for b in elements:
            if int(G.mul[a, b]) not in s:
                raise DomainError(f"subgroup not closed under product at ({a},{b})")
    if G.order % len(s) != 0:
        raise DomainError("subgroup order does not divide the group order")


def generated_subgroup(G: FiniteGroup, gens) -> frozenset:
    """Element set of the subgroup generated by `gens` (may be empty -> trivial)."""
    elems = {G.identity}
    frontier = [G.identity]
    gens = [int(g) for g in gens]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = int(G.mul[a, g])
                if b not in elems:
                    elems.add(b)
                    nxt.append(b)
        frontier = nxt
    return frozenset(elems)


def conjugate_subgroup(G: FiniteGroup, H: frozenset, g: int) -> frozenset:
    """The set g H g^-1."""
    gi = int(G.inv[g])
    return frozenset(int(G.mul[int(G.mul[g, h]), gi]) for h in H)


def all_subgroups(G: FiniteGroup, budget: int = DEFAULT_LATTICE_ORDER_BUDGET) -> list[Subgroup]:
    """Every subgroup of G, sorted by (order, element list).

    Found by closing the set of cyclic subgroups under pairwise join;
    since every subgroup is the join of the cyclic subgroups it contains,
    the fixed point of that process is the complete list.
    """
    if G.order > budget:
        raise BudgetExceeded(
            f"subgroup enumeration limited to order {budget}, group has {G.order}")
    found: set[frozenset] = set()
    for g in range(G.order):
        found.add(generated_subgroup(G, [g]))
    worklist = list(found)
    while worklist:
        fresh = []
        for A in worklist:
            for B in list(found):
                if A <= B or B <= A:
                    continue
                J = generated_subgroup(G, A | B)
                if J not in found:
                    found.add(J)
                    fresh.append(J)
                    if len(found) > _SUBGROUP_COUNT_CAP:
                        raise BudgetExceeded("subgroup count exceeds internal cap")
        worklist = fresh
    ordered = sorted(found, key=lambda s: (len(s), sorted(s)))
    return [Subgroup(G, tuple(sorted(s))) for s in ordered]


@dataclass(frozen=True, eq=False)
class SubgroupLattice:
    """All subgroups of a group plus the structure the rank machinery needs.

    subgroups are in the canonical (order, elements) sort; `leq[i, j]` says
    subgroup i is contained in subgroup j; classes list conjugacy classes
    in ascending size of their members, each with a representative (the
    lexicographically smallest member).
    """

    group: FiniteGroup
    subgroups: list[Subgroup]
    leq: np.ndarray
    classes: list[tuple[int, ...]]          # tuples of subgroup indices
    class_reps: tuple[int, ...]             # representative subgroup index per class
    normalizer_idx: tuple[int, ...]         # per subgroup, index of its normalizer
    moebius_table: np.ndarray               # valid where leq holds
    _index: dict = field(repr=False)

    def subgroup_index(self, H) -> int:
        """Index of a subgroup given as a Subgroup or an element collection."""
        key = frozenset(H.elements) if isinstance(H, Subgroup) else frozenset(int(x) for x in H)
        try:
            return self._index[key]
        except KeyError:
            raise DomainError(f"{sorted(key)} is not a subgroup of this group") from None

    def class_of(self, H) -> int:
        """Position (in the canonical class order) of the class containing H."""
        i = H if isinstance(H, (int, np.integer)) else self.subgroup_index(H)
        return self._class_of_subgroup[i]

    @cached_property
    def _class_of_subgroup(self) -> np.ndarray:
        out = np.empty(len(self.subgroups), dtype=np.int32)
        for c, members in enumerate(self.classes):
            for i in members:
                out[i] = c
        return out

    def normalizer_of(self, H) -> Subgroup:
        return self.subgroups[self.normalizer_idx[self.subgroup_index(H)]]

    def moebius(self, H, K) -> int:
        """Moebius value mu(H, K) of the containment order; requires H <= K."""
        i = H if isinstance(H, (int, np.integer)) else self.subgroup_index(H)
        j = K if isinstance(K, (int, np.integer)) else self.subgroup_index(K)
        if not self.leq[i, j]:
            raise DomainError("moebius is only defined on containment pairs")
        return int(self.moebius_table[i, j])

    def n_class(self, N: Subgroup, i: int) -> tuple[int, ...]:
        """The subgroups n S n^-1 for S = subgroups[i] and n in N.

        Returned as subgroup indices, ordered by element list.
        """
        S = self.subgroups[i].element_set
        found = {self._index[conjugate_subgroup(self.group, S, n)] for n in N.elements}
        return tuple(sorted(found, key=lambda j: self.subgroups[j].elements))

    def conjugator(self, i: int, j: int) -> int:
        """The smallest group element g with g S g^-1 = T, for S = subgroups[i]
        and T = subgroups[j]."""
        S, T = self.subgroups[i].element_set, self.subgroups[j].element_set
        for g in range(self.group.order):
            if conjugate_subgroup(self.group, S, g) == T:
                return g
        raise DomainError(f"subgroups {i} and {j} are not conjugate")


def normalizer(G: FiniteGroup, H: Subgroup) -> Subgroup:
    """N_G(H) = {g : g H g^-1 = H}."""
    hs = H.element_set
    members = [g for g in range(G.order)
               if conjugate_subgroup(G, hs, g) == hs]
    return Subgroup(G, tuple(members))


def conjugacy_classes(G: FiniteGroup, subgroups: list[Subgroup]) -> list[list[int]]:
    """Partition subgroup indices into conjugacy classes.

    Classes come out ascending by member order; ties are broken by the
    element list of each class's smallest member, and that smallest member
    is the designated representative (always first in its class tuple).
    """
    index = {S.element_set: i for i, S in enumerate(subgroups)}
    unassigned = set(range(len(subgroups)))
    classes = []
    for i, S in enumerate(subgroups):
        if i not in unassigned:
            continue
        members = set()
        for g in range(G.order):
            c = conjugate_subgroup(G, S.element_set, g)
            members.add(index[c])
        unassigned -= members
        classes.append(sorted(members, key=lambda k: subgroups[k].elements))
    classes.sort(key=lambda cl: (subgroups[cl[0]].order, subgroups[cl[0]].elements))
    return classes


def _moebius_table(leq: np.ndarray, order_key: list[int]) -> np.ndarray:
    """mu(i, j) by the recursion mu(i,i)=1, sum over i<=k<=j of mu(i,k) = 0.

    `order_key` gives subgroup sizes so intermediate subgroups can be
    swept smallest-to-largest.
    """
    n = leq.shape[0]
    by_size = sorted(range(n), key=lambda k: order_key[k])
    table = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        table[i, i] = 1
        above = [j for j in by_size if leq[i, j] and j != i]
        for j in above:
            acc = 0
            for k in range(n):
                if k != j and leq[i, k] and leq[k, j]:
                    acc += table[i, k]
            table[i, j] = -acc
    return table


def build_lattice(G: FiniteGroup, budget: int = DEFAULT_LATTICE_ORDER_BUDGET) -> SubgroupLattice:
    """Enumerate everything: subgroups, containment, classes, normalizers, Moebius."""
    subs = all_subgroups(G, budget=budget)
    n = len(subs)
    leq = np.zeros((n, n), dtype=bool)
    for i, A in enumerate(subs):
        for j, B in enumerate(subs):
            leq[i, j] = A.element_set <= B.element_set
    index = {S.element_set: i for i, S in enumerate(subs)}
    classes = conjugacy_classes(G, subs)
    reps = tuple(cl[0] for cl in classes)
    norm_idx = tuple(index[normalizer(G, S).element_set] for S in subs)
    moeb = _moebius_table(leq, [S.order for S in subs])
    return SubgroupLattice(
        group=G,
        subgroups=subs,
        leq=leq,
        classes=[tuple(cl) for cl in classes],
        class_reps=reps,
        normalizer_idx=norm_idx,
        moebius_table=moeb,
        _index=index,
    )


def conj_order_graph(lattice: SubgroupLattice) -> set[tuple[int, int]]:
    """Edges (i, j) between class positions: class i sits below class j.

    Class [H] is below [K] when H is contained in some conjugate of K.
    The relation is reflexive, and transitive because containment is.
    """
    edges = set()
    for i, ci in enumerate(lattice.classes):
        H = ci[0]
        for j, cj in enumerate(lattice.classes):
            if any(lattice.leq[H, k] for k in cj):
                edges.add((i, j))
    return edges
