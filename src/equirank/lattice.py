"""Subgroup lattices: enumeration, conjugacy, normalizers, Moebius values.

Everything here is exhaustive and budget-guarded; the subgroup count of a
group explodes quickly with the order, and this is a desk-scale
verification tool, not a general-purpose CAS.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    subgroups are in the canonical (order, elements) sort and `masks[i]`
    marks the elements of subgroup i.  `conj[g, i]` is the index of
    g S_i g^-1, the one conjugation table: classes, normalizers, N-classes
    and conjugators are all read off it.  `leq[i, j]` says subgroup i is
    contained in subgroup j.  classes list conjugacy classes in ascending
    size of their members, each with a representative (the
    lexicographically smallest member, always first); `subgroup_class[i]`
    is the position of subgroup i's class.
    """

    group: FiniteGroup
    subgroups: list[Subgroup]
    masks: np.ndarray                       # (subgroups, |G|) bool
    leq: np.ndarray
    conj: np.ndarray                        # (|G|, subgroups) int32
    subgroup_class: np.ndarray              # per subgroup, its class position
    classes: list[tuple[int, ...]]          # tuples of subgroup indices
    class_reps: tuple[int, ...]             # representative subgroup index per class
    normalizer_idx: tuple[int, ...]         # per subgroup, index of its normalizer
    moebius_table: np.ndarray               # valid where leq holds

    def index_of_masks(self, masks) -> np.ndarray:
        """Subgroup index of each row of a boolean (k, |G|) element-mask array."""
        masks = np.asarray(masks, dtype=bool)
        if masks.shape[1] != self.group.order:
            raise DomainError(f"element masks have {masks.shape[1]} columns, "
                              f"the group has order {self.group.order}")
        found = _lookup(np.packbits(self.masks, axis=1), np.packbits(masks, axis=1))
        missing = np.flatnonzero(found < 0)
        if len(missing):
            members = np.flatnonzero(masks[missing[0]]).tolist()
            raise DomainError(f"{members} is not a subgroup of this group")
        return found

    def subgroup_index(self, H) -> int:
        """Index of a subgroup given as a Subgroup or an element collection."""
        members = sorted(H.element_set if isinstance(H, Subgroup) else {int(x) for x in H})
        if not all(0 <= x < self.group.order for x in members):
            raise DomainError(f"{members} is not a subgroup of this group")
        mask = np.zeros((1, self.group.order), dtype=bool)
        mask[0, members] = True
        return int(self.index_of_masks(mask)[0])

    def class_of(self, H) -> int:
        """Position (in the canonical class order) of the class containing H."""
        i = H if isinstance(H, (int, np.integer)) else self.subgroup_index(H)
        return int(self.subgroup_class[i])

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
        return tuple(np.unique(self.conj[list(N.elements), i]).tolist())

    def conjugator(self, i: int, j: int) -> int:
        """The smallest group element g with g S g^-1 = T, for S = subgroups[i]
        and T = subgroups[j]."""
        hits = self.conj[:, i] == j
        if not hits.any():
            raise DomainError(f"subgroups {i} and {j} are not conjugate")
        return int(hits.argmax())


def containment(masks: np.ndarray) -> np.ndarray:
    """`out[a, b]` says the element set of mask row a lies inside row b."""
    counts = masks.astype(np.int64)
    return counts @ (1 - counts).T == 0


def _lookup(known: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Position of each row of `queries` among the distinct rows of `known`, -1 if absent.

    Rows are bit-packed element masks.
    """
    n = len(known)
    keys = np.vstack([known, queries])
    _, ids = np.unique(keys, axis=0, return_inverse=True)
    ids = ids.reshape(-1)
    position = np.full(len(keys), -1, dtype=np.int32)
    position[ids[:n]] = np.arange(n)
    return position[ids[n:]]


def _moebius_table(leq: np.ndarray) -> np.ndarray:
    """mu as the inverse of the zeta matrix, by forward substitution.

    Subgroups are sorted by order, so the zeta matrix `leq` is unitriangular
    and mu zeta = I gives each column from the earlier ones:
    mu[:, j] = e_j - sum of mu[:, k] over k < j with k <= j.
    """
    n = len(leq)
    table = np.zeros((n, n), dtype=np.int64)
    for j in range(n):
        table[:, j] = -table[:, np.flatnonzero(leq[:j, j])].sum(axis=1)
        table[j, j] = 1
    return table


def build_lattice(G: FiniteGroup, budget: int = DEFAULT_LATTICE_ORDER_BUDGET) -> SubgroupLattice:
    """Enumerate everything: subgroups, containment, classes, normalizers, Moebius."""
    subs = all_subgroups(G, budget=budget)
    n = len(subs)
    masks = np.zeros((n, G.order), dtype=bool)
    for i, S in enumerate(subs):
        masks[i, list(S.elements)] = True
    keys = np.packbits(masks, axis=1)
    # g S g^-1 holds x exactly when S holds g^-1 x g = mul[mul[g^-1], g][x];
    # one lookup per g keeps the temporaries at the size of one table row
    conj = np.stack([_lookup(keys, np.packbits(masks[:, G.mul[G.mul[G.inv[g]], g]], axis=1))
                     for g in range(G.order)])
    # a class's smallest index is its lexicographically smallest member
    reps, subgroup_class = np.unique(conj.min(axis=0), return_inverse=True)
    subgroup_class = subgroup_class.reshape(-1).astype(np.int32)
    # N(S_i) is the set of g with conj[g, i] == i
    normalizers = _lookup(keys, np.packbits((conj == np.arange(n)).T, axis=1))
    leq = containment(masks)
    return SubgroupLattice(
        group=G,
        subgroups=subs,
        masks=masks,
        leq=leq,
        conj=conj,
        subgroup_class=subgroup_class,
        classes=[tuple(np.flatnonzero(subgroup_class == c).tolist()) for c in range(len(reps))],
        class_reps=tuple(reps.tolist()),
        normalizer_idx=tuple(normalizers.tolist()),
        moebius_table=_moebius_table(leq),
    )


def conj_order_graph(lattice: SubgroupLattice) -> set[tuple[int, int]]:
    """Edges (i, j) between class positions: class i sits below class j.

    Class [H] is below [K] when H is contained in some conjugate of K.
    The relation is reflexive, and transitive because containment is.
    """
    member = np.eye(len(lattice.classes), dtype=np.int64)[lattice.subgroup_class]
    below = lattice.leq[list(lattice.class_reps)].astype(np.int64) @ member
    return {(int(i), int(j)) for i, j in zip(*np.nonzero(below))}
