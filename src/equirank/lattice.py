"""Subgroup lattices: enumeration, conjugacy, normalizers, Moebius values.

Everything here is exhaustive and budget-guarded; the subgroup count of a
group explodes quickly with the order, and this is a desk-scale
verification tool, not a general-purpose CAS.
"""

from __future__ import annotations

import weakref
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

    @cached_property
    def coset_min(self) -> np.ndarray:
        """Per group element t, the smallest member of the left coset tH."""
        return self.group.mul[:, list(self.elements)].min(axis=1)

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
    if G.identity not in elements:
        raise DomainError("subgroup does not contain the identity")
    outside = [a for a in elements if not 0 <= a < G.order]
    if outside:
        raise DomainError(f"element {outside[0]} out of range")
    e = np.asarray(elements)
    member = np.zeros(G.order, dtype=bool)
    member[e] = True
    # per row a (in sorted order): the inverse test comes before any product (a, b)
    bad_inverse = ~member[G.inv[e]]
    closed = member[G.mul[e[:, None], e]]
    bad_row = bad_inverse | ~closed.all(axis=1)
    if bad_row.any():
        a = int(bad_row.argmax())
        if bad_inverse[a]:
            raise DomainError(f"subgroup not closed under inverses at {elements[a]}")
        b = int((~closed[a]).argmax())
        raise DomainError(
            f"subgroup not closed under product at ({elements[a]},{elements[b]})")
    if G.order % int(member.sum()) != 0:
        raise DomainError("subgroup order does not divide the group order")


def _closure(mul: np.ndarray, mask: np.ndarray, gens) -> np.ndarray:
    """The smallest superset of `mask` closed under right multiplication by `gens`.

    When `mask` holds the identity and lies inside <gens>, that is the
    subgroup <gens>: in a finite group products alone give the inverses.
    Each step multiplies every member at once by the columns `mul[:, gens]`.
    """
    mask = mask.copy()
    steps = mul[:, list(gens)]
    while True:
        reached = steps[mask]
        if mask[reached].all():
            return mask
        mask[reached] = True


def generated_subgroup(G: FiniteGroup, gens) -> frozenset:
    """Element set of the subgroup generated by `gens` (may be empty -> trivial)."""
    seed = np.zeros(G.order, dtype=bool)
    seed[G.identity] = True
    return frozenset(np.flatnonzero(_closure(G.mul, seed, [int(g) for g in gens])).tolist())


def _conjugation_perms(G: FiniteGroup) -> np.ndarray:
    """`out[g, x]` = g^-1 x g, so `mask[out[g]]` marks g S g^-1 when `mask` marks S."""
    return G.mul[G.mul[G.inv], np.arange(G.order)[:, None]]


def _check_order(G: FiniteGroup, budget: int) -> None:
    if G.order > budget:
        raise BudgetExceeded(
            f"subgroup enumeration limited to order {budget}, group has {G.order}")


def _subgroup_masks(G: FiniteGroup) -> np.ndarray:
    """Every subgroup of G as a row of a bool (subgroups, |G|) array, in the
    (order, element list) sort.

    Found one conjugacy class at a time.  Starting from the trivial
    subgroup, each class representative R (kept with a short generating
    list) is joined with the cyclic subgroups <g> not inside it; a join J
    not seen before brings in its whole class, the rows of
    `J[_conjugation_perms(G)]`, and only J itself goes on the worklist.
    Two joins are skipped because an earlier one stands for them:
    <R, y g y^-1> = y <R, g> y^-1 for y in N(R), so one <g> per N(R)-orbit
    is enough, and <R, x> = <R, g> for x in the double coset R g R.

    This is complete.  Every subgroup H ends a chain 1 < <c1> < <c1, c2>
    < ... = H.  If one step is x R x^-1 for a representative R, the next is
    x <R, x^-1 c x> x^-1, and <R, x^-1 c x> is a join the loop makes (or
    one it skipped for the reasons above), so the next step's class is
    recorded too.  Unlike extending subgroups by cyclic subgroups they
    normalize, this reaches perfect subgroups such as A5.
    """
    n = G.order
    rows = np.arange(n)
    cyclic = np.zeros((n, n), dtype=bool)            # row g marks <g>
    power = rows.copy()
    while True:
        cyclic[rows, power] = True
        if (power == G.identity).all():
            break
        power = G.mul[power, rows]
    # cyclic_gen[c] generates the c-th distinct cyclic subgroup, <g> is number cyclic_id[g]
    _, cyclic_gen, cyclic_id = np.unique(_row_keys(cyclic), return_index=True,
                                         return_inverse=True)
    perms = _conjugation_perms(G)

    trivial = cyclic[G.identity]
    seen = {np.packbits(trivial).tobytes()}
    found = [trivial[None]]
    worklist = [(trivial, [], rows)]
    while worklist:
        R, gens, normalizer = worklist.pop()
        todo = np.flatnonzero(~R[cyclic_gen])
        orbit_min = cyclic_id[perms[normalizer][:, cyclic_gen[todo]]].min(axis=0)
        inside = np.flatnonzero(R)
        done = np.zeros(len(cyclic_gen), dtype=bool)
        for c in todo[orbit_min == todo].tolist():
            if done[c]:
                continue
            g = int(cyclic_gen[c])
            done[cyclic_id[G.mul[G.mul[inside, g][:, None], inside]]] = True
            J = _closure(G.mul, R | cyclic[g], gens + [g])
            if np.packbits(J).tobytes() in seen:
                continue
            conjugates = J[perms]
            keys, members = np.unique(_row_keys(conjugates), return_index=True)
            seen.update(keys.tolist())                 # one bytes object per row
            if len(seen) > _SUBGROUP_COUNT_CAP:
                raise BudgetExceeded("subgroup count exceeds internal cap")
            found.append(conjugates[members])
            worklist.append((J, gens + [g], np.flatnonzero((conjugates == J).all(axis=1))))
    masks = np.concatenate(found)
    elements = [np.flatnonzero(m).tolist() for m in masks]
    return masks[sorted(range(len(masks)), key=lambda i: (len(elements[i]), elements[i]))]


def _subgroups_of(G: FiniteGroup, masks: np.ndarray) -> list[Subgroup]:
    return [Subgroup(G, tuple(np.flatnonzero(m).tolist())) for m in masks]


def all_subgroups(G: FiniteGroup, budget: int = DEFAULT_LATTICE_ORDER_BUDGET) -> list[Subgroup]:
    """Every subgroup of G, sorted by (order, element list).

    Enumerated by conjugacy class, joining class representatives with
    cyclic subgroups on element masks (see `_subgroup_masks`).
    """
    _check_order(G, budget)
    return _subgroups_of(G, _subgroup_masks(G))


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

    @cached_property
    def _index(self) -> _MaskIndex:
        return _MaskIndex(self.masks)

    def index_of_masks(self, masks) -> np.ndarray:
        """Subgroup index of each row of a boolean (k, |G|) element-mask array."""
        masks = np.asarray(masks, dtype=bool)
        if masks.shape[1] != self.group.order:
            raise DomainError(f"element masks have {masks.shape[1]} columns, "
                              f"the group has order {self.group.order}")
        found = self._index(masks)
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


class _MaskIndex:
    """Finds bool element-mask rows among a fixed set of distinct rows.

    The known rows are bit-packed, viewed as one void scalar each and
    sorted once; each query is then a binary search.
    """

    def __init__(self, masks: np.ndarray):
        keys = _row_keys(masks)
        self._order = np.argsort(keys).astype(np.int32)
        self._sorted = keys[self._order]

    def __call__(self, masks: np.ndarray) -> np.ndarray:
        """Position of each row of `masks` among the known rows, -1 if absent."""
        keys = _row_keys(masks)
        at = np.minimum(np.searchsorted(self._sorted, keys), len(self._sorted) - 1)
        return np.where(self._sorted[at] == keys, self._order[at], np.int32(-1))


def _row_keys(masks: np.ndarray) -> np.ndarray:
    """One void scalar per mask row, holding the row's bit-packed bytes."""
    packed = np.packbits(np.ascontiguousarray(masks), axis=1)
    return packed.view(np.dtype((np.void, packed.shape[1]))).ravel()


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
    """Enumerate everything: subgroups, containment, classes, normalizers, Moebius.

    One lattice per group while it is held: every call returns the same
    object for as long as any caller holds it (a decomposition does).  The
    group keeps only a weak reference, since the lattice refers back to
    the group.  The order budget is checked on every call, before the
    held lattice is looked up.
    """
    _check_order(G, budget)
    held = G.__dict__.get("_lattice")               # weak reference, set below
    lattice = held() if held is not None else None
    if lattice is not None:
        return lattice
    masks = _subgroup_masks(G)
    subs = _subgroups_of(G, masks)
    n = len(subs)
    index = _MaskIndex(masks)
    # g S g^-1 holds x exactly when S holds g^-1 x g; one lookup per g keeps
    # the temporaries at the size of one table row
    perms = _conjugation_perms(G)
    conj = np.stack([index(masks[:, perms[g]]) for g in range(G.order)])
    # a class's smallest index is its lexicographically smallest member
    reps, subgroup_class = np.unique(conj.min(axis=0), return_inverse=True)
    subgroup_class = subgroup_class.reshape(-1).astype(np.int32)
    # N(S_i) is the set of g with conj[g, i] == i
    normalizers = index((conj == np.arange(n)).T)
    leq = containment(masks)
    lattice = SubgroupLattice(
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
    object.__setattr__(G, "_lattice", weakref.ref(lattice))
    return lattice


def conj_order_graph(lattice: SubgroupLattice) -> set[tuple[int, int]]:
    """Edges (i, j) between class positions: class i sits below class j.

    Class [H] is below [K] when H is contained in some conjugate of K.
    The relation is reflexive, and transitive because containment is.
    """
    member = np.eye(len(lattice.classes), dtype=np.int64)[lattice.subgroup_class]
    below = lattice.leq[list(lattice.class_reps)].astype(np.int64) @ member
    return {(int(i), int(j)) for i, j in zip(*np.nonzero(below))}
