"""Subgroup lattices: enumeration, conjugacy, normalizers, Moebius values.

Everything here is exhaustive and budget-guarded; the subgroup count of a
group explodes quickly with the order, and this is a desk-scale
verification tool, not a general-purpose CAS.
"""

from __future__ import annotations

import weakref
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BudgetExceeded, DomainError
from .groups import (_BLOCK_CELLS, FiniteGroup, _fill_by_generators, _group_by, _RowIndex,
                     _sorted_unique, _spans)

DEFAULT_LATTICE_ORDER_BUDGET = 360
# The lattice keeps two dense subgroups x subgroups tables, `leq` (bool) and
# `moebius_table` (int64): 9 bytes a cell, so 5,000 subgroups take 225 MB.
# Enumeration stops as soon as it has found more.
_SUBGROUP_COUNT_CAP = 5_000


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
        """Per group element t, the smallest member of the left coset tH:
        the minimum of row t of the product table over H's columns, a
        block of `_BLOCK_CELLS` cells at a time."""
        members = np.array(self.elements, dtype=np.intp)
        blocks = _spans(self.group.order, max(1, _BLOCK_CELLS // len(members)))
        return np.concatenate([np.take(self.group.mul[rows], members, axis=1).min(axis=1)
                               for rows in blocks])

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
    # per row a (in sorted order): the inverse test comes before any product
    # (a, b); rows are checked a block of `_BLOCK_CELLS` products at a time
    bad_inverse = ~member[G.inv[e]]
    for rows in _spans(len(e), max(1, _BLOCK_CELLS // len(e))):
        closed = member[G.mul[e[rows, None], e]]
        bad_row = bad_inverse[rows] | ~closed.all(axis=1)
        if bad_row.any():
            a = int(bad_row.argmax())
            if bad_inverse[rows][a]:
                raise DomainError(f"subgroup not closed under inverses at {elements[rows][a]}")
            b = int((~closed[a]).argmax())
            raise DomainError(
                f"subgroup not closed under product at ({elements[rows][a]},{elements[b]})")
    if G.order % int(member.sum()) != 0:
        raise DomainError("subgroup order does not divide the group order")


def _closure(G: FiniteGroup, masks: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Row c: the smallest superset of `masks[c]` closed under right
    multiplication by the elements in row c of `steps`.

    When a row holds the identity and lies inside the subgroup its steps
    generate, that is the subgroup: in a finite group products alone give
    the inverses.  Every row grows at once: y joins row c when y s^-1 is in
    it, for s in row c of `steps`, read as one gather per column of `steps`.
    """
    rows, n = masks.shape
    # pulls[t, c, y] is the flat position of y s^-1 in row c, s = steps[c, t]
    pulls = G.mul[:, G.inv[steps]].transpose(2, 1, 0) + (np.arange(rows) * n)[:, None]
    masks = masks.copy()
    while True:
        grown = masks.copy()
        for pull in pulls:
            grown |= grown.ravel()[pull]
        if (grown == masks).all():
            return masks
        masks = grown


def generated_subgroup(G: FiniteGroup, gens) -> frozenset:
    """Element set of the subgroup generated by `gens` (may be empty -> trivial)."""
    seed = np.zeros((1, G.order), dtype=bool)
    seed[0, G.identity] = True
    steps = np.array([[int(g) for g in gens]], dtype=np.intp)
    return frozenset(np.flatnonzero(_closure(G, seed, steps)[0]).tolist())


def _conjugation_perms(G: FiniteGroup) -> np.ndarray:
    """`out[g, x]` = g^-1 x g, so `mask[out[g]]` marks g S g^-1 when `mask` marks S."""
    return G.mul[G.mul[G.inv], np.arange(G.order)[:, None]]


def _conjugation_table(G: FiniteGroup, masks: np.ndarray, index: _RowIndex) -> np.ndarray:
    """`out[g, i]` = index of g S_i g^-1, for the subgroups S_i that `masks` lists.

    Only the generators' rows are looked up, in one call; `_fill_by_generators`
    composes the rest, as (x s) S (x s)^-1 = x (s S s^-1) x^-1.
    """
    gens = np.array(G.generators, dtype=np.intp)
    # g S g^-1 holds x exactly when S holds g^-1 x g
    conjugated = np.take(masks, _conjugation_perms(G)[gens], axis=1)    # (n, gens, |G|)
    by_gen = index(conjugated.reshape(-1, G.order)).reshape(len(masks), len(gens)).T
    return _fill_by_generators(G.mul[:, gens], G.identity, by_gen)


def _subgroup_masks(G: FiniteGroup) -> np.ndarray:
    """Every subgroup of G as a row of a bool (subgroups, |G|) array, in the
    (order, element list) sort.

    Found one conjugacy class at a time, in levels; the trivial subgroup is
    the first.  Each class representative R of a level (kept with a short
    generating list and its normalizer) is joined with the cyclic subgroups
    <g> not inside it.  Since <R, y g y^-1> = y <R, g> y^-1 for y in N(R),
    one <g> per N(R)-orbit is enough.  The joins of a block of
    representatives are closed at once; a join J not seen before brings in
    its whole class, the rows of `J[_conjugation_perms(G)]`, and J itself
    goes into the next level.

    This is complete.  Every subgroup H ends a chain 1 < <c1> < <c1, c2>
    < ... = H.  If one step is x R x^-1 for a representative R, the next is
    x <R, x^-1 c x> x^-1, and <R, x^-1 c x> is a join the loop makes (or
    one it skips for the reason above), so the next step's class is
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
    # moved[y, c] numbers the cyclic subgroup y^-1 <g> y, for g = cyclic_gen[c]
    moved = cyclic_id[perms[:, cyclic_gen]]

    trivial = cyclic[G.identity]
    seen = {np.packbits(trivial).tobytes()}
    found = [trivial[None]]
    # one level of class representatives R: masks, generators, normalizer masks
    level = [(trivial, np.empty(0, dtype=np.intp), np.ones(n, dtype=bool))]
    chunk = max(1, _BLOCK_CELLS // moved.size)
    while level:
        reps, gens, normal = (np.array(column) for column in zip(*level))
        level = []
        for lo in range(0, len(reps), chunk):
            R = reps[lo:lo + chunk]
            owner, y = np.nonzero(normal[lo:lo + chunk])
            orbit_min = np.minimum.reduceat(moved[y], np.searchsorted(owner, np.arange(len(R))))
            at, c = np.nonzero(~R[:, cyclic_gen] & (orbit_min == np.arange(len(cyclic_gen))))
            if not len(at):
                continue
            steps = np.column_stack([gens[lo + at], cyclic_gen[c]])
            joins = _closure(G, R[at] | cyclic[cyclic_gen[c]], steps)
            keys = _row_keys(joins)
            _, distinct = np.unique(keys, return_index=True)
            for d, key in zip(distinct.tolist(), keys[distinct].tolist()):
                if key in seen:                          # its class is recorded
                    continue
                J = joins[d]
                conjugates = J[perms]
                class_keys, members = np.unique(_row_keys(conjugates), return_index=True)
                seen.update(class_keys.tolist())         # one bytes object per row
                if len(seen) > _SUBGROUP_COUNT_CAP:
                    raise BudgetExceeded(
                        f"group has more than {_SUBGROUP_COUNT_CAP} subgroups; the subgroups"
                        f" x subgroups tables take 9 bytes a cell, "
                        f"{9 * _SUBGROUP_COUNT_CAP ** 2 / 1e6:g} MB at that count")
                found.append(conjugates[members])
                level.append((J, steps[d], (conjugates == J).all(axis=1)))
    masks = np.concatenate(found)
    # among subgroups of one order, the smaller element list has the larger mask
    by_elements = np.argsort(_row_keys(~masks), kind="stable")
    return masks[by_elements[np.argsort(masks[by_elements].sum(axis=1), kind="stable")]]


def element_lists(masks: np.ndarray) -> list[list[int]]:
    """The sorted element list of every row of a bool mask array, in one pass."""
    flat = np.nonzero(masks)[1].tolist()
    ends = np.cumsum(masks.sum(axis=1)).tolist()
    return [flat[a:b] for a, b in zip([0] + ends, ends)]


class _LazySubgroups(Sequence):
    """The rows of a subgroup mask array as `Subgroup` objects, each built
    (and checked) on first access; the length costs nothing."""

    def __init__(self, group: FiniteGroup, masks: np.ndarray):
        self._group, self._masks = group, masks
        self._built: list[Subgroup | None] = [None] * len(masks)

    def __len__(self) -> int:
        return len(self._built)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        H = self._built[i]
        if H is None:
            H = self._built[i] = Subgroup(self._group, tuple(np.flatnonzero(self._masks[i]).tolist()))
        return H


@dataclass(frozen=True, eq=False)
class SubgroupLattice:
    """All subgroups of a group plus the structure the rank machinery needs.

    Subgroups are numbered in the canonical (order, elements) sort:
    `masks[i]` marks the elements of subgroup i, and `subgroups[i]` is it as
    a `Subgroup`, built on first use.  `conj[g, i]` is the index of
    g S_i g^-1, the one conjugation table: classes, normalizers, N-classes
    and conjugators are all read off it.  `leq[i, j]` says subgroup i is
    contained in subgroup j.  classes list conjugacy classes in ascending
    size of their members, each with a representative (the
    lexicographically smallest member, always first); `subgroup_class[i]`
    is the position of subgroup i's class.
    """

    group: FiniteGroup
    masks: np.ndarray                       # (subgroups, |G|) bool
    leq: np.ndarray
    conj: np.ndarray                        # (|G|, subgroups) int32
    subgroup_class: np.ndarray              # per subgroup, its class position
    classes: list[tuple[int, ...]]          # tuples of subgroup indices
    class_reps: tuple[int, ...]             # representative subgroup index per class
    normalizer_idx: tuple[int, ...]         # per subgroup, index of its normalizer
    moebius_table: np.ndarray               # valid where leq holds

    @cached_property
    def subgroups(self) -> Sequence[Subgroup]:
        """The subgroups as `Subgroup` objects, each built from `masks` on first use."""
        return _LazySubgroups(self.group, self.masks)

    @cached_property
    def orders(self) -> np.ndarray:
        """Per subgroup, its order."""
        return self.masks.sum(axis=1)

    def weyl_order(self, i: int) -> int:
        """w = |N(S_i):S_i|, the order of the quotient N(S_i)/S_i."""
        return int(self.orders[self.normalizer_idx[i]] // self.orders[i])

    @cached_property
    def _index(self) -> _RowIndex:
        return _RowIndex(self.masks, _row_keys)

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

    def n_class(self, N: Subgroup, i: int) -> tuple[int, ...]:
        """The subgroups n S n^-1 for S = subgroups[i] and n in N.

        Returned as subgroup indices, ordered by element list.
        """
        return tuple(_sorted_unique(self.conj[list(N.elements), i]).tolist())

    def conjugator(self, i: int, j: int) -> int:
        """The smallest group element g with g S g^-1 = T, for S = subgroups[i]
        and T = subgroups[j]."""
        hits = self.conj[:, i] == j
        if not hits.any():
            raise DomainError(f"subgroups {i} and {j} are not conjugate")
        return int(hits.argmax())


def containment(masks: np.ndarray) -> np.ndarray:
    """`out[a, b]` says the element set of mask row a lies inside row b.

    Rows are packed into 64-bit words; a lies inside b when no word of a
    has a bit outside b.  One block of rows of `out` at a time keeps the
    word temporaries near `_BLOCK_CELLS`.
    """
    packed = np.packbits(masks, axis=1)
    padded = np.zeros((len(packed), -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
    padded[:, :packed.shape[1]] = packed
    words = padded.view(np.uint64).T.copy()                    # (words, rows)
    outside = ~words
    n = masks.shape[0]
    out = np.empty((n, n), dtype=bool)
    step = max(1, _BLOCK_CELLS // max(n, 1))
    for lo in range(0, n, step):
        spill = words[0, lo:lo + step, None] & outside[0]
        for inside, other in zip(words[1:], outside[1:]):
            spill |= inside[lo:lo + step, None] & other
        np.equal(spill, 0, out=out[lo:lo + step])
    return out


def _row_keys(masks: np.ndarray) -> np.ndarray:
    """One void scalar per mask row, holding the row's bit-packed bytes."""
    packed = np.packbits(np.ascontiguousarray(masks), axis=1)
    return packed.view(np.dtype((np.void, packed.shape[1]))).ravel()


def _moebius_table(leq: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """mu as the inverse of the zeta matrix `leq`, exact in int64.

    mu(i, j) = -sum of mu(i, k) over the chains i <= k < j.  Every such k
    has a smaller order than j, so the subgroups of one order (a run of
    `orders`, which is sorted) are all solved at once from the smaller
    orders: the chains (i, k, j) of a run are listed by expanding each pair
    k < j by the subgroups i <= k, and summed into mu(i, j) with one
    `np.add.at`.  Chains are listed `_BLOCK_CELLS` at a time.
    """
    n = len(leq)
    table = np.zeros((n, n), dtype=np.int64)
    flat = table.reshape(-1)
    flat[::n + 1] = 1
    above, below = np.nonzero(leq.T)                # by j, then i <= j
    down_start = np.concatenate([[0], np.cumsum(leq.sum(axis=0))])
    runs = np.concatenate([[0], np.flatnonzero(np.diff(orders)) + 1, [n]])
    for a, b in zip(runs[:-1], runs[1:]):
        pairs = np.arange(down_start[a], down_start[b])
        k, j = below[pairs], above[pairs]
        k, j = k[k != j], j[k != j]
        if not len(k):
            continue
        width = down_start[k + 1] - down_start[k]   # subgroups i <= k
        ends = np.cumsum(width)
        cuts = np.searchsorted(ends, np.arange(_BLOCK_CELLS, ends[-1], _BLOCK_CELLS)).tolist()
        for lo, hi in zip([0] + cuts, cuts + [len(k)]):
            w = width[lo:hi]
            # chain t of pair p takes the (t - its first chain)-th subgroup below k_p
            shift = np.repeat(down_start[k[lo:hi]] - (np.cumsum(w) - w), w)
            i = below[shift + np.arange(len(shift))]
            np.add.at(flat, i * n + np.repeat(j[lo:hi], w), -flat[i * n + np.repeat(k[lo:hi], w)])
    return table


def build_lattice(G: FiniteGroup) -> SubgroupLattice:
    """Enumerate everything: subgroups, containment, classes, normalizers, Moebius.

    One lattice per group while it is held: every call returns the same
    object for as long as any caller holds it (a decomposition does).  The
    group keeps only a weak reference, since the lattice refers back to
    the group.  The order budget is checked on every call, before the
    held lattice is looked up.
    """
    if G.order > DEFAULT_LATTICE_ORDER_BUDGET:
        raise BudgetExceeded(f"subgroup enumeration limited to order "
                             f"{DEFAULT_LATTICE_ORDER_BUDGET}, group has {G.order}")
    held = G.__dict__.get("_lattice")               # weak reference, set below
    lattice = held() if held is not None else None
    if lattice is not None:
        return lattice
    masks = _subgroup_masks(G)
    n = len(masks)
    index = _RowIndex(masks, _row_keys)
    conj = _conjugation_table(G, masks, index)
    # a class's smallest index is its lexicographically smallest member
    reps, subgroup_class = np.unique(conj.min(axis=0), return_inverse=True)
    subgroup_class = subgroup_class.reshape(-1).astype(np.int32)
    # N(S_i) is the set of g with conj[g, i] == i
    normalizers = index((conj == np.arange(n)).T)
    leq = containment(masks)
    lattice = SubgroupLattice(
        group=G,
        masks=masks,
        leq=leq,
        conj=conj,
        subgroup_class=subgroup_class,
        classes=_group_by(subgroup_class, len(reps)),
        class_reps=tuple(reps.tolist()),
        normalizer_idx=tuple(normalizers.tolist()),
        moebius_table=_moebius_table(leq, masks.sum(axis=1)),
    )
    object.__setattr__(G, "_lattice", weakref.ref(lattice))
    return lattice
