"""Relative rank of the endomorphism monoid over the automorphism group.

For a finite action, every non-invertible equivariant self-map factors
through "collapses" that merge one orbit into another; classifying the
possible collapse types per stabilizer-class box yields an exact count of
how many generators must be added to the automorphisms to generate all
endomorphisms, together with an explicit generating set of point-pushes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .actions import DEFAULT_CELL_BUDGET, BoxDecomposition, GSet, decompose, restrict_to_invariant
from .errors import BudgetExceeded, DomainError, PropertyFailure
from .groups import _greedy_generators
from .lattice import Subgroup
from .transform import (
    DEFAULT_ENUM_BUDGET,
    EquivariantMap,
    compose,
    enumerate_aut,
    enumerate_end,
    point_push,
    point_swap,
)


@dataclass(frozen=True)
class CollapseType:
    """Identity card of an elementary collapse.

    `box_index` is the source box (position in the canonical box order);
    `target_class` is the class, under conjugation by the box stabilizer's
    normalizer, of the image point's stabilizer — as a sorted tuple of
    subgroup indices.
    """

    box_index: int
    target_class: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class RankReport:
    """Everything the rank computation produces, in one bundle.

    The G-set, its lattice, kappa and the rank numbers are
    `decomposition.gset`, `.lattice`, `.kappa` and so on, and
    `generating_set` holds `decomposition.pushes` as maps.
    """

    decomposition: BoxDecomposition
    generating_set: tuple[EquivariantMap, ...]


def _push_maps(decomp: BoxDecomposition) -> tuple[EquivariantMap, ...]:
    """`RankCount.pushes` as maps on the points.

    Box i's push moves x_i, its smallest point with stabilizer H_i (also
    its smallest orbit representative), onto the smallest such point in
    another orbit, or onto the smallest point whose stabilizer is the
    target subgroup: the first of its sub-box, found without sorting the
    points into `sub_boxes`.
    """
    maps = []
    for i, target in decomp.pushes:
        reps = np.sort(_box_orbit_reps(decomp, i))
        y = reps[1] if target is None else np.flatnonzero(decomp.stab_index == target)[0]
        maps.append(point_push(decomp.gset, int(reps[0]), int(y)))
    return tuple(maps)


def relative_rank(X: GSet) -> RankReport:
    """How many generators End needs beyond Aut, with an explicit witness set.

    The count is sum over boxes of |U(H_i)|, minus one for every box made
    of a single orbit; the constructed generating set realizes one
    elementary collapse per collapse type, and its size is asserted to
    match the formula.
    """
    decomp = decompose(X)
    maps = _push_maps(decomp)
    if len(maps) != decomp.relative_rank:
        raise PropertyFailure(
            f"generating set has {len(maps)} pushes but the formula gives {decomp.relative_rank}")
    return RankReport(decomposition=decomp, generating_set=maps)


def decompose_by_boxes(tau: EquivariantMap) -> list[EquivariantMap]:
    """Split tau into per-box factors whose ascending-order composition is tau.

    Factor k acts like tau on box k and fixes everything else.  Because
    stabilizers only grow along equivariant maps, applying the factors
    from the last box down to the first (i.e. composing in ascending box
    order) reproduces tau exactly.
    """
    decomp = decompose(tau.gset)
    ident = np.arange(tau.gset.size, dtype=np.int32)
    return [EquivariantMap(tau.gset, np.where(decomp.box_of_point == i, tau.image, ident))
            for i in range(decomp.n_boxes)]


def recompose(factors) -> EquivariantMap:
    """Compose a factor list in ascending order (last factor applied first)."""
    return reduce(compose, factors)


def _collapse_shape(tau: EquivariantMap):
    """The (source orbit, target orbit) of an elementary collapse, else None.

    Elementary means: the points that share their image with another
    point make up exactly two orbits, and each image they share is the
    image of exactly one point of the target orbit.  Those points are
    whole orbits, as g carries a pair with one image to another such
    pair.  When every shared image has two preimages either orbit can
    serve as the target; the choice does not affect the type.
    """
    orbit_of_point = tau.gset.orbit_of_point
    shared = np.bincount(tau.image, minlength=tau.gset.size)[tau.image] >= 2
    pair = np.unique(orbit_of_point[shared])
    if len(pair) != 2:
        return None
    for source, target in (pair, pair[::-1]):
        hits = np.bincount(tau.image[orbit_of_point == target], minlength=tau.gset.size)
        if (hits[tau.image[shared]] == 1).all():
            return int(source), int(target)
    return None


def is_elementary_collapse(tau: EquivariantMap) -> bool:
    """Does tau merge exactly one orbit pair, pointwise, and nothing else?"""
    return _collapse_shape(tau) is not None


def collapse_type(tau: EquivariantMap, witness: int | None = None) -> CollapseType:
    """Classify an elementary collapse by source box and image-stabilizer class.

    The witness (any point of the collapse's source orbit) is first moved
    by a group element so its stabilizer becomes the box's canonical
    subgroup; the type is then the normalizer-conjugacy class of the
    image point's stabilizer.  Any valid witness yields the same type.
    """
    decomp = decompose(tau.gset)
    shape = _collapse_shape(tau)
    if shape is None:
        raise DomainError("map is not an elementary collapse")
    src_id, _ = shape
    X = decomp.gset
    if witness is None:
        witness = X.orbit_reps[src_id]
    elif (not isinstance(witness, (int, np.integer)) or isinstance(witness, bool)
          or not 0 <= witness < X.size or X.orbit_of_point[witness] != src_id):
        raise DomainError(f"witness {witness!r} is not in the source orbit")
    return _push_type(decomp, int(decomp.stab_index[witness]),
                      int(decomp.stab_index[tau.image[witness]]))


def collapse_type_census(X: GSet) -> set:
    """Every collapse type realizable on X, found by scanning stabilizer pairs.

    A type (i, [K]) is realizable exactly when some point with stabilizer
    conjugate to H_i can be pushed onto a point with stabilizer K sitting
    in a different orbit.  This route never touches U(H_i) or the rank
    formula, so the two can be compared as independent computations.
    """
    decomp = decompose(X)
    lat = decomp.lattice
    orbits_with = {s: set(X.orbit_of_point[decomp.stab_index == s].tolist())
                   for s in decomp.stabilizers.tolist()}
    # a single orbit with both stabilizers leaves nothing to merge
    return {_push_type(decomp, s, t)
            for s, s_orbits in orbits_with.items() for t, t_orbits in orbits_with.items()
            if lat.leq[s, t] and not (len(s_orbits) == 1 and s_orbits == t_orbits)}


def _push_type(decomp: BoxDecomposition, s: int, t: int) -> CollapseType:
    """The type of a push from a point with stabilizer s onto one with stabilizer t.

    The smallest g with g S_s g^-1 = H_i, box i's canonical subgroup, moves
    the target's stabilizer to g S_t g^-1, whose class under N(H_i) is the type.
    """
    lat = decomp.lattice
    box_class = int(lat.subgroup_class[s])
    box_i = decomp.box_classes.index(box_class)
    g = lat.conjugator(s, lat.class_reps[box_class])
    return CollapseType(box_index=box_i, target_class=lat.n_class(
        decomp.box_normalizer(box_i), int(lat.conj[g, t])))


@dataclass(frozen=True)
class WreathFactor:
    """The two coordinates of a box endomorphism: orbit map and coset parts.

    `orbit_map[k]` is the position (within the box's orbit list) that
    orbit k lands on; `cosets[k]` is the minimal element of the coset tH
    with tau(x_k) = t.x_{orbit_map[k]}, where x_k is the canonical
    representative of orbit k.
    """

    box_index: int
    orbit_map: tuple[int, ...]
    cosets: tuple[int, ...]


def _box_orbit_reps(decomp: BoxDecomposition, i: int) -> np.ndarray:
    """Per orbit of box i, in orbit order, its smallest point whose
    stabilizer is the box's canonical subgroup."""
    return decomp.canonical_reps[decomp.box_of_point[decomp.gset.orbit_reps] == i]


def wreath_factorize(tau: EquivariantMap, i: int) -> WreathFactor:
    """Split tau's action on box i into an orbit map and per-orbit cosets."""
    decomp = decompose(tau.gset)
    if (decomp.box_of_point[tau.image[decomp.box_of_point == i]] != i).any():
        raise DomainError(f"map does not keep box {i} inside itself")
    X = decomp.gset
    reps = _box_orbit_reps(decomp, i)
    y = tau.image[reps]
    f = np.searchsorted(X.orbit_of_point[reps], X.orbit_of_point[y])
    # every g with g.reps[f] = y lies in N(H), and they form one coset gH
    t = (X.action[:, reps[f]] == y).argmax(axis=0)
    cosets = decomp.box_subgroup(i).coset_min[t]
    return WreathFactor(box_index=i, orbit_map=tuple(f.tolist()), cosets=tuple(cosets.tolist()))


def wreath_multiply(pi: WreathFactor, tau: WreathFactor, H: Subgroup) -> WreathFactor:
    """The factor of the composition (pi after tau), computed from the parts."""
    if pi.box_index != tau.box_index:
        raise DomainError("factors belong to different boxes")
    G = H.group
    f = tuple(pi.orbit_map[k] for k in tau.orbit_map)
    cosets = tuple(int(H.coset_min[G.mul[tau.cosets[k], pi.cosets[tau.orbit_map[k]]]])
                   for k in range(len(tau.orbit_map)))
    return WreathFactor(box_index=pi.box_index, orbit_map=f, cosets=cosets)


def aut_generators(X: GSet) -> list[EquivariantMap]:
    """A generating set for the equivariant bijections, from the wreath
    structure: at most d(N_i/H_i) + 2 maps per box.

    Box i's Aut is (N_i/H_i) wr S_alpha, acting on its orbits' canonical
    representatives r_0, ..., r_{alpha-1}.  It is generated by the swap of
    the first two orbits, the cycle g.r_k -> g.r_{k+1 mod alpha}, and the
    translations r_0 -> t.r_0 of the first orbit for greedy generators t of
    N_i/H_i; the swap and the cycle conjugate those translations onto every
    orbit.  Refuses, before building any map, when the generators would
    hold more than DEFAULT_CELL_BUDGET cells.
    """
    decomp = decompose(X)
    lat = decomp.lattice
    translations = []
    for c in decomp.box_classes:
        h = lat.class_reps[c]
        normalizer = np.flatnonzero(lat.masks[lat.normalizer_idx[h]])
        translations.append(_greedy_generators(lat.group, lat.masks[h], normalizer))
    count = sum((a >= 2) + (a >= 3) + len(t) for a, t in zip(decomp.alpha, translations))
    if count * X.size > DEFAULT_CELL_BUDGET:
        raise BudgetExceeded(
            f"aut_generators would build {count} maps of {X.size} points, "
            f"over the budget of {DEFAULT_CELL_BUDGET} cells")
    gens = []
    for i, ts in enumerate(translations):
        reps = _box_orbit_reps(decomp, i)
        r = int(reps[0])
        if len(reps) >= 2:
            gens.append(point_swap(X, r, int(reps[1])))
        if len(reps) >= 3:
            img = np.arange(X.size, dtype=np.int32)
            img[X.action[:, reps]] = X.action[:, np.roll(reps, -1)]
            gens.append(EquivariantMap(X, img))
        gens += [point_swap(X, r, int(X.action[t, r])) for t in ts]
    return gens


def wreath_order_checks(X: GSet, budget: int = DEFAULT_ENUM_BUDGET) -> dict:
    """Compare predicted wreath-product orders with enumeration where feasible.

    Returns a report dict; a mismatch raises immediately, because a wrong
    order means the structural bookkeeping is broken, not the input.
    """
    decomp = decompose(X)
    boxes = []
    for i in range(decomp.n_boxes):
        end_pred = decomp.box_end_order(i)
        aut_pred = decomp.box_aut_order(i)
        sub = restrict_to_invariant(X, np.flatnonzero(decomp.box_of_point == i), name=f"box{i}")
        try:
            end_enum = enumerate_end(sub, budget=budget).size
        except BudgetExceeded:
            end_enum = None
        try:
            aut_enum = enumerate_aut(sub, budget=budget).size
        except BudgetExceeded:
            aut_enum = None
        if end_enum is not None and end_enum != end_pred:
            raise PropertyFailure(
                f"box {i}: predicted |End| {end_pred}, enumerated {end_enum}")
        if aut_enum is not None and aut_enum != aut_pred:
            raise PropertyFailure(
                f"box {i}: predicted |Aut| {aut_pred}, enumerated {aut_enum}")
        boxes.append({
            "box": i,
            "alpha": decomp.alpha[i],
            "wreath_base_order": decomp.wreath[i][0],
            "end_order_predicted": end_pred,
            "end_order_enumerated": end_enum,
            "aut_order_predicted": aut_pred,
            "aut_order_enumerated": aut_enum,
        })
    aut_pred_total = decomp.aut_order
    try:
        aut_enum_total = enumerate_aut(X, budget=budget).size
    except BudgetExceeded:
        aut_enum_total = None
    if aut_enum_total is not None and aut_enum_total != aut_pred_total:
        raise PropertyFailure(
            f"predicted |Aut| {aut_pred_total}, enumerated {aut_enum_total}")
    return {
        "boxes": boxes,
        "aut_order_predicted": aut_pred_total,
        "aut_order_enumerated": aut_enum_total,
        "verified": aut_enum_total is not None,
    }
