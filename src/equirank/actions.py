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
from .groups import (_POINT_BLOCK, FiniteGroup, _check_blocks, _exact_int32, _RowKeys,
                     _rule_break, _sorted_unique, _spans)
from .lattice import Subgroup, SubgroupLattice, build_lattice, containment

DEFAULT_CELL_BUDGET = 1_000_000


@dataclass(frozen=True)
class StabilizerTable:
    """The distinct point stabilizers of a G-set.

    `point_class[x]` (int32) is the position of x's stabilizer among the
    distinct ones, `masks[a]` marks the group elements of stabilizer a, and
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
        """Per point (int32), the number of its orbit (its position in
        `orbit_reps`): how many orbit minima lie at or below its orbit's
        minimum, less one."""
        ranks = np.cumsum(self._is_orbit_minimum, dtype=np.int32)
        ranks -= 1
        out = np.empty(self.size, dtype=np.int32)
        for b, minima in self._orbit_minima():
            out[b] = ranks[minima]
        return out

    @cached_property
    def _is_orbit_minimum(self) -> np.ndarray:
        """Per point, whether it is its orbit's smallest point: the minimum
        of its column of the table."""
        out = np.empty(self.size, dtype=bool)
        for b, minima in self._orbit_minima():
            np.equal(minima, np.arange(*b.indices(self.size), dtype=np.int32), out=out[b])
        return out

    def _orbit_minima(self):
        """Per block of points, the block and each point's orbit minimum:
        column x of the table is the orbit of x.  Never kept whole;
        `_is_orbit_minimum` and `orbit_of_point` each read them once."""
        for b in _spans(self.size, _POINT_BLOCK):
            yield b, self.action[:, b].min(axis=0)

    @cached_property
    def stabilizer_table(self) -> StabilizerTable:
        """Every point stabilizer, read off one (|G|, m) fixed-point table.

        Each point's column of fixed flags is packed into a key, one bit
        per group element with element 0 most significant, so the distinct
        keys, sorted, follow the lexicographic order of the flag columns.
        There are few of them, and each point finds its class by binary
        search among them.  Flags and classes are found a block of points
        at a time, so no temporary grows with the G-set.
        """
        keys = _RowKeys([2] * self.group.order)
        blocks = _spans(self.size, _POINT_BLOCK)
        packed = np.empty(self.size, dtype=keys.key_dtype)
        for b in blocks:
            fixes = self.action[:, b] == np.arange(*b.indices(self.size), dtype=np.int32)
            packed[b] = keys.pack(fixes.T)
        distinct = _sorted_unique(packed)
        point_class = np.empty(self.size, dtype=np.int32)
        for b in blocks:
            point_class[b] = np.searchsorted(distinct, packed[b])
        masks = keys.unpack(distinct, bool)
        return StabilizerTable(point_class, masks, containment(masks))

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
        return np.flatnonzero((rows == np.arange(self.size, dtype=np.int32)).all(axis=0))

    def __repr__(self):
        return f"GSet({self.name or self.group.name}, {self.size} points)"


def _check_action(G: FiniteGroup, act: np.ndarray) -> None:
    n = G.order
    if act.ndim != 2 or act.shape[0] != n:
        raise DomainError(f"action table has shape {act.shape}, expected ({n}, m)")
    m = act.shape[1]
    _check_cells(n, m)
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


def _check_cells(n: int, m: int) -> None:
    """Refuse an action table of n group elements by m points past the cell budget."""
    if n * m > DEFAULT_CELL_BUDGET:
        raise BudgetExceeded(f"action table of {n * m} cells exceeds budget {DEFAULT_CELL_BUDGET}")


def _check_index(i, size: int, what: str) -> int:
    """`i` as an index into 0..size-1 (a point or a box); DomainError for a
    negative index, one past the end, a bool or a non-integer."""
    if isinstance(i, bool) or not isinstance(i, (int, np.integer)) or not 0 <= i < size:
        raise DomainError(f"{what} {i!r} is not in 0..{size - 1}")
    return int(i)


def trivial_gset(G: FiniteGroup, m: int, name: str = "") -> GSet:
    return GSet(G, np.tile(np.arange(m), (G.order, 1)), name=name or f"trivial({m})")


def coset_action(G: FiniteGroup, H: Subgroup, name: str = "") -> GSet:
    """G acting on the left cosets of H, cosets ordered by smallest member.

    The table's size |G| [G:H] is checked before any of it is gathered.
    """
    if H.group is not G:
        raise DomainError("subgroup belongs to a different group")
    _check_cells(G.order, G.order // H.order)
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
    """Number of orbits as the average number of fixed points per element,
    counted a block of the table at a time."""
    total = sum(int(np.count_nonzero(
        gset.action[rows, cols] == np.arange(*cols.indices(gset.size), dtype=np.int32)))
        for rows, cols in _check_blocks(gset.action.shape))
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
    G-orbits inside box i.  The one per-point array stored here is
    `box_of_point` (int32): box i's points are where it is i.  From the
    G-set's `point_class`, `stab_index` is derived on each read and the
    point arrays of `sub_boxes` on the first.
    """

    gset: GSet
    box_of_point: np.ndarray
    stabilizers: np.ndarray
    box_of_stabilizer: np.ndarray

    @property
    def stab_index(self) -> np.ndarray:
        """Per point, the subgroup index of its stabilizer: a new array on
        every read."""
        return self.stabilizers[self.gset.stabilizer_table.point_class]

    @cached_property
    def sub_boxes(self) -> tuple[dict, ...]:
        """Per box, {subgroup index: ascending int32 array of the points
        with that exact stabilizer}, keys ascending: the points grouped by
        distinct stabilizer (`_points_by_label`)."""
        by_stabilizer = _points_by_label(self.gset.stabilizer_table.point_class,
                                         len(self.stabilizers))
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


def _points_by_label(labels: np.ndarray, n: int) -> list[np.ndarray]:
    """The points 0..len(labels)-1 grouped by their label 0..n-1, each
    group ascending, as int32 views of one array.

    A stable counting sort, a block of points at a time: each block is
    sorted by label, and its run of label a goes on at label a's next free
    place, after the runs of the earlier blocks.
    """
    blocks = _spans(len(labels), _POINT_BLOCK)
    counts = sum(np.bincount(labels[b], minlength=n) for b in blocks)
    ends = np.cumsum(counts)
    out = np.empty(len(labels), dtype=np.int32)
    free = ends - counts                                # per label, its next free place
    for b in blocks:
        order = np.argsort(labels[b], kind="stable")
        here = np.bincount(labels[b], minlength=n)
        # the k-th point of the block's run of label a goes to free[a] + k
        at = np.repeat(free - np.cumsum(here) + here, here)
        at += np.arange(len(order))
        order += b.start
        out[at] = order
        free += here
    return np.split(out, ends[:-1])


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

    Past the (|G|, m) int32 table, a decomposed G-set keeps 13 bytes a
    point: `point_class` and `box_of_point` (int32), the orbit-minimum
    flags (bool) and, once read, the points of `sub_boxes` (int32).  Every
    pass over the points works a `_POINT_BLOCK` at a time, so no
    temporary grows with m.  `tests/test_cli.py` holds a `boxes` report to
    this bound.
    """
    held = gset.__dict__.get("_decomposition")        # weak reference, set below
    decomp = held() if held is not None else None
    if decomp is not None:
        return decomp
    lattice = build_lattice(gset.group)
    table = gset.stabilizer_table
    subs = lattice.index_of_masks(table.masks)            # per distinct stabilizer
    box_classes, box_of_sub = np.unique(lattice.subgroup_class[subs], return_inverse=True)
    box_of_point = np.empty(gset.size, dtype=np.int32)
    for b in _spans(gset.size, _POINT_BLOCK):
        box_of_point[b] = box_of_sub[table.point_class[b]]
    alpha = np.bincount(box_of_point[gset.orbit_reps], minlength=len(box_classes))
    decomp = BoxDecomposition(
        gset=gset,
        lattice=lattice,
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
    i = _check_index(i, decomp.n_boxes, "box")
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
    i = _check_index(i, decomp.n_boxes, "box")
    expected = decomp.expected_aut_orbits(i)
    sub_boxes = np.count_nonzero(decomp.box_of_stabilizer == i)
    if expected != sub_boxes:
        raise PropertyFailure(f"normalizer index {expected} != {sub_boxes} sub-boxes in box {i}")
    return expected
