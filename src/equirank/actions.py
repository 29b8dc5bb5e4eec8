"""Finite group actions as dense tables, their box decompositions, and the
rank numbers the boxes determine.

A G-set on m points is stored as an integer table of shape (|G|, m) with
act[g, x] = g.x.  The box decomposition groups points by the conjugacy
class of their stabilizer; it is the skeleton every rank computation
hangs off: each box is invariant under every equivariant self-map, and
equivariant bijections additionally preserve the exact stabilizer.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from math import factorial, prod

import numpy as np

from .errors import BudgetExceeded, DomainError, PropertyFailure
from .groups import FiniteGroup, _exact_int32, _RowKeys, _rule_break, _sorted_unique
from .lattice import Subgroup, SubgroupLattice, build_lattice, containment

DEFAULT_CELL_BUDGET = 1_000_000


@dataclass(frozen=True)
class StabilizerTable:
    """The distinct point stabilizers of a G-set.

    `point_class[x]` is the position of x's stabilizer among the distinct
    ones, `masks[a]` marks the group elements of stabilizer a, and
    `within[a, b]` says stabilizer a is contained in stabilizer b.
    """

    point_class: np.ndarray
    masks: np.ndarray
    within: np.ndarray


@dataclass(frozen=True, eq=False)
class GSet:
    """A finite group action, validated on construction."""

    group: FiniteGroup
    action: np.ndarray
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "action", _exact_int32(self.action, "action table"))
        _check_action(self.group, self.action)

    @property
    def size(self) -> int:
        return self.action.shape[1]

    def apply(self, g: int, x: int) -> int:
        return int(self.action[g, x])

    @cached_property
    def orbit_reps(self) -> np.ndarray:
        """The smallest point of each orbit, ascending: orbits are numbered
        in this order."""
        return np.flatnonzero(self._is_orbit_minimum)

    @cached_property
    def orbit_of_point(self) -> np.ndarray:
        """Per point, the number of its orbit (its position in `orbit_reps`):
        how many orbit minima lie at or below its orbit's minimum, less one."""
        ranks = np.cumsum(self._is_orbit_minimum, dtype=np.int32)
        ranks -= 1
        return np.take(ranks, self._orbit_minima)

    @cached_property
    def _orbit_minima(self) -> np.ndarray:
        return self.action.min(axis=0)

    @cached_property
    def _is_orbit_minimum(self) -> np.ndarray:
        """Column x of the table is the orbit of x, so x is its orbit's
        smallest point exactly when it is its column's minimum."""
        return self._orbit_minima == np.arange(self.size, dtype=np.int32)

    @cached_property
    def stabilizer_table(self) -> StabilizerTable:
        """Every point stabilizer, read off one (|G|, m) fixed-point table.

        Each point's column of fixed flags is packed into a key, one bit
        per group element with element 0 most significant, so the distinct
        keys, sorted, follow the lexicographic order of the flag columns.
        There are few of them, and each point finds its class by binary
        search among them.
        """
        keys = _RowKeys([2] * self.group.order)
        fixes = self.action == np.arange(self.size, dtype=np.int32)
        packed = keys.pack(fixes.T)
        distinct = _sorted_unique(packed)
        masks = keys.unpack(distinct, bool)
        return StabilizerTable(np.searchsorted(distinct, packed), masks, containment(masks))

    def stabilizer(self, x: int) -> Subgroup:
        table = self.stabilizer_table
        members = np.flatnonzero(table.masks[table.point_class[x]])
        return Subgroup(self.group, tuple(members.tolist()))

    def fix(self, elements) -> np.ndarray:
        """The points fixed by every element in `elements`, ascending: a
        Subgroup, element indices or a boolean mask over the group."""
        if isinstance(elements, Subgroup):
            elements = elements.elements
        picked = np.asarray(elements)
        rows = self.action[picked if picked.dtype == bool else picked.astype(np.intp)]
        return np.flatnonzero((rows == np.arange(self.size)).all(axis=0))

    def __repr__(self):
        return f"GSet({self.name or self.group.name}, {self.size} points)"


def _check_action(G: FiniteGroup, act: np.ndarray) -> None:
    n = G.order
    if act.ndim != 2 or act.shape[0] != n:
        raise DomainError(f"action table has shape {act.shape}, expected ({n}, m)")
    m = act.shape[1]
    if n * m > DEFAULT_CELL_BUDGET:
        raise BudgetExceeded(f"action table of {n * m} cells exceeds budget {DEFAULT_CELL_BUDGET}")
    if m and (act.min() < 0 or act.max() >= m):
        raise DomainError("action table entries out of range")
    if (act[G.identity] != np.arange(m, dtype=np.int32)).any():   # m is within the cell budget
        raise DomainError("identity does not act trivially")
    # act[g] act[s] = act[gs] for every g and generator s extends to every
    # product by induction on word length; with the identity acting
    # trivially it also makes each row a permutation (act[g^-1] undoes it).
    broken = _rule_break(G, act)
    if broken is not None:
        raise DomainError("action is not compatible with the product at ({},{})".format(*broken))


def trivial_gset(G: FiniteGroup, m: int, name: str = "") -> GSet:
    return GSet(G, np.tile(np.arange(m), (G.order, 1)), name=name or f"trivial({m})")


def coset_action(G: FiniteGroup, H: Subgroup, name: str = "") -> GSet:
    """G acting on the left cosets of H, cosets ordered by smallest member."""
    if H.group is not G:
        raise DomainError("subgroup belongs to a different group")
    reps = _sorted_unique(H.coset_min)      # each coset's smallest member, ascending
    act = np.searchsorted(reps, H.coset_min[G.mul[:, reps]])
    label = name or f"{G.name}/{{{','.join(G.label(e) for e in H.elements)}}}"
    return GSet(G, act, name=label)


def disjoint_union(a: GSet, b: GSet, name: str = "") -> GSet:
    """One action on the points of `a` followed by the points of `b`."""
    if a.group is not b.group and not (
            a.group.order == b.group.order and (a.group.mul == b.group.mul).all()):
        raise DomainError("cannot union actions of different groups")
    act = np.hstack([a.action, b.action + a.size])
    return GSet(a.group, act, name=name or f"{a.name}+{b.name}")


def restrict_to_invariant(gset: GSet, points, name: str = "") -> GSet:
    """The induced action on an invariant subset, points kept in ascending order."""
    given = np.fromiter(points, dtype=np.int64)
    if not len(given):
        raise DomainError("cannot restrict to an empty point set")
    if given.min() < 0 or given.max() >= gset.size:
        raise DomainError(f"points must lie in 0..{gset.size - 1}")
    member = np.zeros(gset.size, dtype=bool)
    member[given] = True
    pts = np.flatnonzero(member)
    sub = gset.action[:, pts]
    if not member[sub].all():
        raise DomainError("point set is not invariant under the action")
    remap = np.cumsum(member, dtype=np.int32) - 1
    return GSet(gset.group, remap[sub], name=name or f"{gset.name}|{len(pts)}")


def burnside_orbit_count(gset: GSet) -> int:
    """Number of orbits as the average number of fixed points per element."""
    total = int((gset.action == np.arange(gset.size)).sum())
    if total % gset.group.order != 0:
        raise PropertyFailure("fixed-point total is not divisible by the group order")
    return total // gset.group.order


@dataclass(frozen=True, eq=False)
class RankCount:
    """The rank numbers of a G-set, read off its subgroup lattice alone.

    A G-set enters only through the stabilizer classes that occur in it,
    `box_classes` (lattice class positions, ascending: one per box), and
    the number of orbits in each box, `alpha`.  Points are never needed,
    so the same numbers come from a point table (`decompose`, whose
    `BoxDecomposition` extends this class) or from orbit counts found
    without one (`shift.shift_rank`).
    """

    lattice: SubgroupLattice
    box_classes: tuple[int, ...]
    alpha: tuple[int, ...]

    @property
    def n_boxes(self) -> int:
        return len(self.box_classes)

    @cached_property
    def kappa(self) -> tuple[int, ...]:
        """Boxes that hold a single orbit (0-based positions)."""
        return tuple(i for i, a in enumerate(self.alpha) if a == 1)

    @cached_property
    def u_sets(self) -> tuple:
        """Per box i, the N_i-classes of occurring subgroups that contain H_i.

        H_i is the box's canonical subgroup and N_i its normalizer.  Each
        class is an ascending tuple of subgroup indices: the subgroups above
        H_i that share their smallest N_i-conjugate.  The classes are
        disjoint, so sorting them as tuples sorts them by first member, and
        H_i's own class (H_i,) sorts first.
        """
        lat = self.lattice
        occurring = np.isin(lat.subgroup_class, self.box_classes)
        out = []
        for c in self.box_classes:
            h = lat.class_reps[c]
            above = np.flatnonzero(lat.leq[h] & occurring)
            normalizer = np.flatnonzero(lat.masks[lat.normalizer_idx[h]])
            first = lat.conj[np.ix_(normalizer, above)].min(axis=0)
            out.append(tuple(tuple(above[first == m].tolist())
                             for m in _sorted_unique(first).tolist()))
        return tuple(out)

    @property
    def relative_rank(self) -> int:
        """Sum over boxes of |U(H_i)|, less one for every single-orbit box."""
        return sum(len(u) for u in self.u_sets) - len(self.kappa)

    @cached_property
    def pushes(self) -> tuple[tuple[int, int | None], ...]:
        """The witness pushes, one per collapse type, as (box, target).

        Box i pushes its first orbit onto a second one (target None) when
        it has one, then onto each further class of U(H_i) (target the
        class's first member, a subgroup index).
        """
        return tuple((i, target) for i, u in enumerate(self.u_sets)
                     for target in [None] * (self.alpha[i] > 1) + [cls[0] for cls in u[1:]])

    @cached_property
    def tags(self) -> tuple[str, ...]:
        """Per push, 1-based: "push i->i'" onto box i's second orbit and
        "push i->(i,j)" onto the j-th further class of U(H_i)."""
        return tuple(tag for i, u in enumerate(self.u_sets)
                     for tag in [f"push {i + 1}->{i + 1}'"] * (self.alpha[i] > 1)
                     + [f"push {i + 1}->({i + 1},{j})" for j in range(1, len(u))])

    @cached_property
    def wreath(self) -> tuple[tuple[int, int], ...]:
        """Per box, (w, alpha) with w = |N(H):H|.

        Each orbit of the box is a copy of G/H, whose equivariant bijections
        form N(H)/H, so the box's Aut is (N/H) wr S_alpha and its End is
        (N/H) wr T_alpha.
        """
        lat = self.lattice
        return tuple((lat.weyl_order(lat.class_reps[c]), a)
                     for c, a in zip(self.box_classes, self.alpha))

    def box_aut_order(self, i: int) -> int:
        """|Aut| of box i on its own, w^alpha * alpha!."""
        w, a = self.wreath[i]
        return w ** a * factorial(a)

    def box_end_order(self, i: int) -> int:
        """|End| of box i on its own, w^alpha * alpha^alpha."""
        w, a = self.wreath[i]
        return w ** a * a ** a

    @property
    def aut_order(self) -> int:
        """|Aut|, the product of the boxes' orders."""
        return prod(self.box_aut_order(i) for i in range(self.n_boxes))


@dataclass(frozen=True, eq=False)
class BoxDecomposition(RankCount):
    """Points of a G-set grouped by stabilizer conjugacy class: the rank
    numbers of `RankCount` together with the points they count.

    Box order follows the lattice's canonical class order (ascending
    subgroup size, then elements), restricted to the classes that occur.
    Distinct stabilizer a (row a of `gset.stabilizer_table`) is subgroup
    `stabilizers[a]`, in box `box_of_stabilizer[a]`; `alpha[i]` counts the
    G-orbits inside box i.  Box i's points are where `box_of_point` is i;
    the point arrays of `sub_boxes` are derived from these arrays on first
    use.
    """

    gset: GSet
    stab_index: np.ndarray                       # per point: subgroup index
    box_of_point: np.ndarray
    stabilizers: np.ndarray
    box_of_stabilizer: np.ndarray

    @cached_property
    def sub_boxes(self) -> tuple[dict, ...]:
        """Per box, {subgroup index: ascending array of the points with that
        exact stabilizer}, keys ascending: one stable sort of the points by
        distinct stabilizer, split at the class sizes."""
        point_class = self.gset.stabilizer_table.point_class
        by_stabilizer = np.split(np.argsort(point_class, kind="stable"),
                                 np.cumsum(np.bincount(point_class))[:-1])
        out = tuple({} for _ in range(self.n_boxes))
        for a in np.argsort(self.stabilizers).tolist():
            out[self.box_of_stabilizer[a]][int(self.stabilizers[a])] = by_stabilizer[a]
        return out

    def box_subgroup(self, i: int) -> Subgroup:
        """The canonical representative stabilizer of box i."""
        return self.lattice.subgroups[self.lattice.class_reps[self.box_classes[i]]]

    def box_normalizer(self, i: int) -> Subgroup:
        rep = self.lattice.class_reps[self.box_classes[i]]
        return self.lattice.subgroups[self.lattice.normalizer_idx[rep]]

    @cached_property
    def canonical_reps(self) -> np.ndarray:
        """Per orbit (in `gset.orbit_reps` order), its smallest point whose
        stabilizer is its box's canonical subgroup: one minimum per orbit
        over the points with a canonical stabilizer."""
        X = self.gset
        canonical = np.array(self.lattice.class_reps)[list(self.box_classes)]
        pts = np.flatnonzero((canonical[self.box_of_stabilizer] == self.stabilizers)
                             [X.stabilizer_table.point_class])
        reps = np.full(len(X.orbit_reps), X.size, dtype=np.intp)
        np.minimum.at(reps, X.orbit_of_point[pts], pts)
        return reps

    def orbit_table(self, i: int) -> np.ndarray:
        """Box i's orbits as columns, each ascending, ordered by smallest point
        (column r of the action lists r's orbit with each point |H| times)."""
        reps = self.gset.orbit_reps
        reps = reps[self.box_of_point[reps] == i]
        return np.sort(self.gset.action[:, reps], axis=0)[::self.box_subgroup(i).order]

    def expected_aut_orbits(self, i: int) -> int:
        """Index of the box stabilizer's normalizer; equals the sub-box count."""
        return self.lattice.group.order // self.box_normalizer(i).order


def decompose(gset: GSet) -> BoxDecomposition:
    """The box decomposition of a G-set, one object per G-set while it is held.

    Every call returns the same object for as long as any caller holds it.
    The G-set keeps only a weak reference: a strong one both ways would
    form a cycle that keeps each finished G-set's tables alive until the
    cyclic garbage collector runs.

    To build it, each distinct stabilizer of the G-set's table is looked
    up once in the group's subgroup lattice and placed in its box; boxes,
    sub-boxes and orbit counts are groupings of the points by distinct
    stabilizer.
    """
    held = gset.__dict__.get("_decomposition")        # weak reference, set below
    decomp = held() if held is not None else None
    if decomp is not None:
        return decomp
    lattice = build_lattice(gset.group)
    table = gset.stabilizer_table
    subs = lattice.index_of_masks(table.masks)            # per distinct stabilizer
    box_classes, box_of_sub = np.unique(lattice.subgroup_class[subs], return_inverse=True)
    box_of_point = box_of_sub.astype(np.int32)[table.point_class]
    alpha = np.bincount(box_of_point[gset.orbit_reps], minlength=len(box_classes))
    decomp = BoxDecomposition(
        gset=gset,
        lattice=lattice,
        stab_index=subs[table.point_class],
        box_classes=tuple(box_classes.tolist()),
        box_of_point=box_of_point,
        stabilizers=subs,
        box_of_stabilizer=box_of_sub,
        alpha=tuple(alpha.tolist()),
    )
    object.__setattr__(gset, "_decomposition", weakref.ref(decomp))
    return decomp


def alpha_by_moebius(X: GSet, i: int) -> int:
    """Orbit count of box i from fixed-point counts alone.

    The counts |Fix(K)| are read off the action table, one subgroup K at a
    time (see `_orbits_by_moebius`).  An independent route to `alpha`, kept
    separate so the two can be compared.
    """
    decomp = decompose(X)
    lat = decomp.lattice
    return _orbits_by_moebius(lat, lat.class_reps[decomp.box_classes[i]],
                             lambda k: len(X.fix(lat.masks[k])))


def _orbits_by_moebius(lattice: SubgroupLattice, h: int, fixed) -> int:
    """The number of orbits whose stabilizers are conjugate to subgroup h.

    `fixed(k)` is |Fix(K)|, the number of points that subgroup k fixes, for
    every subgroup K containing h.  Moebius inversion over the subgroups
    above h turns these counts into the number of points whose stabilizer
    is exactly h.  Each such orbit holds w = [N(h):h] of them, one per coset
    of h in its normalizer, so dividing by w gives the orbit count.
    Subgroups K with mu(h, K) = 0 are never asked for.
    """
    mu = lattice.moebius_table[h]
    above = np.flatnonzero(lattice.leq[h] & (mu != 0))
    total = sum(int(mu[k]) * fixed(k) for k in above.tolist())
    share = lattice.weyl_order(h)
    if total % share != 0:
        raise PropertyFailure("sub-box size is not divisible by the normalizer index")
    return total // share


def aut_orbits_in_box(X: GSet, i: int) -> int:
    """Number of orbits of the equivariant bijections on box i.

    Returns the index of the box stabilizer's normalizer; checks that it
    matches the number of nonempty sub-boxes, which is how the count is
    realized.
    """
    decomp = decompose(X)
    expected = decomp.expected_aut_orbits(i)
    sub_boxes = np.count_nonzero(decomp.box_of_stabilizer == i)
    if expected != sub_boxes:
        raise PropertyFailure(f"normalizer index {expected} != {sub_boxes} sub-boxes in box {i}")
    return expected
