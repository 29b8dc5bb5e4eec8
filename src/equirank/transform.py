"""Equivariant self-maps of a G-set: construction, enumeration, closure.

Maps are flat image arrays over point indices.  Composition, the monoid
End of all equivariant self-maps, the group Aut of equivariant bijections,
and level-by-level closure of generator sets all live here; the rank
machinery builds on these primitives.  A map is fixed by the images of
the orbit representatives, so End has a dense mixed-radix index (one
digit per orbit, the image's position among the admissible targets).
A set of maps (`MonoidClosure`) is its sorted End indices: enumeration
and closure find only those, and `_rows` alone turns them into image
rows, when a caller reads them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .actions import GSet, trivial_gset
from .errors import BudgetExceeded, ClosureCapExceeded, DomainError, StabilizerError
from .groups import (_BLOCK_CELLS, _exact_int32, _RowKeys, _count_text, _runs, _sorted_unique,
                     make_cyclic)

DEFAULT_ENUM_BUDGET = 2_000_000
DEFAULT_CLOSURE_CAP = 2_000_000


@dataclass(frozen=True, eq=False)
class EquivariantMap:
    """A G-equivariant self-map, stored as an image array.

    Equivariance (image[g.x] = g.image[x]) is checked on construction, on
    the group's generators, which decides it for every element; it
    already implies that stabilizers can only grow along the map.
    """

    gset: GSet
    image: np.ndarray

    def __post_init__(self):
        img = _exact_int32(self.image, "image")
        object.__setattr__(self, "image", img)
        g = _first_non_commuting_generator(self.gset, img)
        if g is not None:
            raise DomainError(f"map is not equivariant at group element {g}")

    def __call__(self, x: int) -> int:
        return int(self.image[x])

    def __eq__(self, other):
        if not isinstance(other, EquivariantMap):
            return NotImplemented
        return _same_gset(self.gset, other.gset) and (self.image == other.image).all()

    def __hash__(self):
        return hash(self.image.tobytes())

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(int(v) for v in self.image)

    def is_bijective(self) -> bool:
        return map_rank(self) == self.gset.size

    def __repr__(self):
        shown = ",".join(str(int(v)) for v in self.image[:12])
        tail = ",..." if self.gset.size > 12 else ""
        return f"EquivariantMap[{shown}{tail}]"


def _same_gset(a: GSet, b: GSet) -> bool:
    return a is b or (a.group is b.group and a.action.shape == b.action.shape
                      and (a.action == b.action).all())


def identity_map(X: GSet) -> EquivariantMap:
    return EquivariantMap(X, np.arange(X.size))


def compose(f: EquivariantMap, g: EquivariantMap) -> EquivariantMap:
    """f after g: compose(f, g)(x) = f(g(x))."""
    if not _same_gset(f.gset, g.gset):
        raise DomainError("cannot compose maps on different actions")
    return EquivariantMap(f.gset, f.image[g.image])


def is_equivariant(X: GSet, image) -> bool:
    return _first_non_commuting_generator(X, np.asarray(image, dtype=np.int64)) is None


def _first_non_commuting_generator(X: GSet, img: np.ndarray) -> int | None:
    """The first generator s with img(s.x) != s.img(x) for some x, else None.

    A map commuting with the generators commutes with their products, so
    this decides equivariance for the whole group (X is already an action);
    an image of the wrong shape or range raises DomainError.
    """
    m = X.size
    if img.shape != (m,):
        raise DomainError(f"image has shape {img.shape}, expected ({m},)")
    if m and (img.min() < 0 or img.max() >= m):
        raise DomainError("image entries out of range")
    for s in X.group.generators:
        row = X.action[s]
        if not np.array_equal(np.take(img, row), np.take(row, img)):
            return s
    return None


def point_push(X: GSet, x: int, y: int) -> EquivariantMap:
    """The map sending g.x to g.y and fixing everything else.

    Well-defined exactly when the stabilizer of x is contained in the
    stabilizer of y; non-invertible exactly when the two stabilizers differ.
    """
    table = X.stabilizer_table
    if not table.within[table.point_class[x], table.point_class[y]]:
        raise StabilizerError(
            f"stabilizer of {x} is not contained in the stabilizer of {y}")
    img = np.arange(X.size, dtype=np.int32)
    img[X.action[:, x]] = X.action[:, y]       # g.x = h.x implies g.y = h.y
    return EquivariantMap(X, img)


def point_swap(X: GSet, x: int, y: int) -> EquivariantMap:
    """Exchange the orbits of x and y along g.x <-> g.y.

    Requires equal stabilizers.  When x and y share an orbit this is the
    translation moving x to y (a bijection of that single orbit); when the
    orbits differ it is an involution exchanging them.
    """
    cls = X.stabilizer_table.point_class
    if cls[x] != cls[y]:
        raise StabilizerError(f"stabilizers of {x} and {y} differ")
    if X.orbit_of_point[x] == X.orbit_of_point[y]:
        out = point_push(X, x, y)
        assert out.is_bijective()
        return out
    img = np.arange(X.size, dtype=np.int32)
    img[X.action[:, x]] = X.action[:, y]
    img[X.action[:, y]] = X.action[:, x]
    return EquivariantMap(X, img)


@dataclass(frozen=True, eq=False)
class MonoidClosure:
    """A set of equivariant maps, kept as their End indices.

    `indices` holds ascending, distinct End indices as keys packed by
    `_RowKeys` over the G-set's target counts.  Since ascending indices
    unrank to rows in lexicographic order, two instances on one G-set
    hold the same maps exactly when their index arrays are equal.  The
    image rows are unranked on first read of `images`.  Instances come
    out of the enumerators (End, Aut) and out of `closure`, which also
    records its seed in `generators`.
    """

    gset: GSet
    indices: np.ndarray
    generators: tuple = ()

    @cached_property
    def images(self) -> np.ndarray:
        """The (size, points) int32 image rows, in lexicographic order."""
        return _rows(self.gset, self.indices)

    @property
    def size(self) -> int:
        return len(self.indices)

    def __len__(self):
        return self.size

    def __contains__(self, item) -> bool:
        if isinstance(item, EquivariantMap):
            item = item.image
        index = _end_index(self.gset, np.asarray(item, dtype=np.int64).ravel())
        if index is None:
            return False
        at = np.searchsorted(self.indices, index)
        return bool(at[0] < self.size and self.indices[at[0]] == index[0])

    def maps(self):
        for row in self.images:
            yield EquivariantMap(self.gset, row)

    def __repr__(self):
        return f"MonoidClosure({self.size} maps on {self.gset.size} points)"


def _targets(X: GSet):
    """Per orbit representative, the number of admissible targets, and a
    function listing them.

    A representative r may go to any y whose stabilizer contains Stab(r);
    the position of y in r's list is r's digit of the End index.  The
    counts cost O(|G| m) however many orbits there are, so a budget can be
    checked on their product before the lists (O(m) per distinct
    representative stabilizer) are built.
    """
    table = X.stabilizer_table
    cls, within = table.point_class, table.within
    rep_cls = cls[X.orbit_reps]
    per_class = within.astype(np.int64) @ np.bincount(cls, minlength=len(within))
    counts = [int(c) for c in per_class[rep_cls]]

    def lists() -> list[np.ndarray]:
        by_class = {a: np.flatnonzero(within[a][cls]).astype(np.int32)
                    for a in set(rep_cls.tolist())}
        return [by_class[a] for a in rep_cls.tolist()]

    return counts, lists


def _check_budget(total: int, budget: int, what: str) -> None:
    if total > budget:
        raise BudgetExceeded(
            f"{_count_text(total)} {what} exceed the enumeration budget {budget}")


def end_monoid_order(X: GSet) -> int:
    """|End| as the product over orbit representatives of admissible targets."""
    counts, _ = _targets(X)
    return math.prod(counts)


def enumerate_end(X: GSet, budget: int = DEFAULT_ENUM_BUDGET) -> MonoidClosure:
    """All equivariant self-maps: every End index, ascending.

    A representative x may go to any y whose stabilizer contains that of
    x; the rest of the orbit follows by equivariance.  The product of the
    choice counts is checked against the budget before any work happens.
    """
    counts, _ = _targets(X)
    _check_budget(math.prod(counts), budget, "maps")
    return MonoidClosure(X, np.arange(math.prod(counts), dtype=_RowKeys(counts).dtype))


def enumerate_aut(X: GSet, budget: int = DEFAULT_ENUM_BUDGET) -> MonoidClosure:
    """All equivariant bijections: the End indices whose digits pick, per
    representative, a target of its own stabilizer, in distinct orbits.

    The budget is checked on the number of equal-stabilizer choices before
    any work happens.  Choices grow one orbit at a time and a partial
    choice that hits an orbit twice is dropped before it is extended.
    Within a box every partial choice extends, so no stage holds more rows
    than the result; the choices come out in End index order.
    """
    cls = X.stabilizer_table.point_class
    rep_cls = cls[X.orbit_reps]
    _check_budget(math.prod(np.bincount(cls)[rep_cls].tolist()), budget, "choices")
    counts, lists = _targets(X)
    targets = lists()
    orbit_of = X.orbit_of_point
    picks = np.zeros((1, 0), dtype=np.intp)         # End digit per orbit so far
    hit = np.zeros((1, len(targets)), dtype=bool)   # orbits already chosen
    for t, a in zip(targets, rep_cls):
        digits = np.flatnonzero(cls[t] == a)
        t_orbit = orbit_of[t[digits]]
        row, j = np.nonzero(~hit[:, t_orbit])
        picks = np.column_stack((picks[row], digits[j]))
        hit = hit[row]
        hit[np.arange(len(row)), t_orbit[j]] = True
    return MonoidClosure(X, _RowKeys(counts).pack(picks))


def _end_index(X: GSet, row: np.ndarray) -> np.ndarray | None:
    """The End index of an image row, as an array of one key; None if the
    row is no equivariant self-map of X.

    A row is in End exactly when it is equivariant, and then it sends each
    orbit representative r to a point whose stabilizer contains Stab(r),
    one of r's admissible targets.  Digit c is that target's position in
    the list of orbit c's representative: one gather per representative
    stabilizer class.
    """
    try:
        if _first_non_commuting_generator(X, row) is not None:
            return None
    except DomainError:                 # wrong shape, or entries out of range
        return None
    counts, lists = _targets(X)
    keys = _RowKeys(counts)
    rep_cls = X.stabilizer_table.point_class[X.orbit_reps]
    images = row[X.orbit_reps]
    digits = np.empty((1, len(counts)), dtype=keys.dtype)
    for a, (_, positions) in _target_positions(X, lists(), keys.dtype).items():
        at = rep_cls == a
        digits[0, at] = positions[images[at]]
    return keys.pack(digits)


def _target_positions(X: GSet, targets, dtype) -> dict[int, tuple]:
    """Per representative stabilizer class a, its target list t (`targets`
    holds one per orbit, from `_targets`) and an array over the points
    that holds each target's position in t and 0 at other points."""
    out = {}
    for a, t in zip(X.stabilizer_table.point_class[X.orbit_reps].tolist(), targets):
        if a not in out:
            positions = np.zeros(X.size, dtype=dtype)
            positions[t] = np.arange(len(t))
            out[a] = t, positions
    return out


def _rows(X: GSet, indices: np.ndarray) -> np.ndarray:
    """The image rows of End indices, keys packed by `_RowKeys` over X's
    target counts.

    Digit c of an index picks the digit-th admissible target y
    (`_targets`) as the image of orbit c's representative r, and a point
    g.r of that orbit goes to g.y.  Ascending indices give rows in
    lexicographic order: orbits are ordered by their minimal point r,
    every point before r lies in an earlier orbit, and the image of r
    itself is the chosen target.  Only the chosen targets' columns of the
    action are read, so the cost follows the number of indices, not the
    number of admissible targets.
    """
    counts, lists = _targets(X)
    keys = _RowKeys(counts)
    picks = keys.unpack(indices, keys.row_dtype)
    # per point p, the first g with g.r = p, r the minimal point of p's orbit
    via = np.argmax(X.action[:, X.orbit_reps[X.orbit_of_point]] == np.arange(X.size), axis=0)
    out = np.empty((X.size, len(indices)), dtype=np.int32)
    for o, t, col in zip(X.orbits, lists(), picks.T):
        pts = np.array(o, dtype=np.intp)
        out[pts] = X.action[via[pts][:, None], t[col][None, :]]
    return np.ascontiguousarray(out.T)


# End indices a chunk of orbits covers at most in the bitmap closure (a
# single orbit with more targets is a chunk of its own).
_CLOSURE_CHUNK_VALUES = 1 << 12


def closure(X: GSet, generators, cap: int = DEFAULT_CLOSURE_CAP) -> MonoidClosure:
    """The submonoid generated by the given maps (identity always included).

    An equivariant map is fixed by where it sends the orbit
    representatives, so each element is kept as its End index: the
    position of each representative's image among its admissible targets,
    first orbit most significant (`enumerate_end`'s order), packed by
    `_RowKeys`.  Composing a generator g after an element moves each
    digit through a (targets, generators) table of g's action on the
    targets, one table per representative stabilizer.

    Level-synchronous: the frontier holds the elements the previous level
    found, and a level forms the keys of every generator after every
    frontier element, in blocks of at most `_BLOCK_CELLS` keys.
    Known elements are kept one of two ways, chosen by the size of End:

    - End has at most min(cap, DEFAULT_CLOSURE_CAP) elements, so its
      indices are one key word and the closure cannot pass the cap: one
      flag per End index.  A block's keys are flagged in one scatter, a
      level's new elements are the flags it raised, and the flagged
      indices come out sorted.  Consecutive orbits are grouped into
      chunks of at most `_CLOSURE_CHUNK_VALUES` digit combinations (and
      no more table keys than a block), and each chunk has one
      (chunk value, generators) table of its orbits' scaled digits summed,
      so a block costs one gather per chunk.
    - Otherwise End may be far larger than the closure: sorted keys.
      Keys already known are dropped by binary search and the rest are
      merged in; more than `cap` elements raises before they are stored,
      rather than truncating.  Each orbit's digit is gathered on its own:
      orbits share their stabilizer's table and a block scales it, since
      one table per orbit holds sum(counts) x generators keys (D4 q=4:
      527 million per generator).

    Either way the known End indices come out sorted and are the result;
    `_rows` unranks them only when the result's `images` are read.
    """
    maps = []
    for f in generators:
        if isinstance(f, EquivariantMap):
            if not _same_gset(f.gset, X):
                raise DomainError("generator lives on a different action")
            f = f.image
        maps.append(EquivariantMap(X, f))
    counts, lists = _targets(X)
    targets = lists()
    keys = _RowKeys(counts)
    gens = np.array([f.image for f in maps], dtype=np.int32).reshape(len(maps), X.size)
    rep_cls = X.stabilizer_table.point_class[X.orbit_reps].tolist()
    # table[d, s] = position of gens[s](t[d]) in t
    by_class = {a: np.ascontiguousarray(positions[gens[:, t]].T)
                for a, (t, positions) in _target_positions(X, targets, keys.dtype).items()}
    known = _end_index(X, np.arange(X.size))
    if len(known) > cap:
        raise ClosureCapExceeded(cap=cap, partial_size=len(known))
    step = max(1, _BLOCK_CELLS // max(1, len(maps)))
    seen = None
    if keys.words == 1 and math.prod(counts) <= min(cap, DEFAULT_CLOSURE_CAP):
        seen = np.zeros(math.prod(counts), dtype=bool)
        seen[known] = True
        parts = []                  # as below, one per chunk, word 0 and scale 1
        for run in _runs(counts, min(_CLOSURE_CHUNK_VALUES, step)):
            table = np.zeros((1, len(maps)), dtype=keys.dtype)
            for c in run:           # outer sums: first orbit most significant
                scaled = by_class[rep_cls[c]] * keys.stride[c]
                table = (table[:, None] + scaled[None]).reshape(len(table) * len(scaled), -1)
            parts.append((0, math.prod(counts[run.stop:]), len(table), table, 1))
    else:                           # (word, stride, radix, table, scale) per orbit
        parts = [(keys.word_of[c], keys.stride[c], keys.radix[c], by_class[a], keys.stride[c])
                 for c, a in enumerate(rep_cls)]
    frontier = known
    while len(frontier):
        fresh, before = [], None if seen is None else seen.copy()
        for start in range(0, len(frontier), step):
            block, words = keys.split(frontier[start:start + step]), []
            for w, stride, radix, table, scale in parts:      # word by word
                part = np.take(table, block[w] // stride % radix, axis=0).ravel()
                if scale != 1:
                    part *= scale
                if w < len(words):
                    words[w] += part
                else:
                    words.append(part)
            found = keys.join(words)
            if seen is not None:
                seen[found] = True
                continue
            found = _sorted_unique(found)
            at = np.searchsorted(known, found)
            unseen = known[np.minimum(at, len(known) - 1)] != found
            found, at = found[unseen], at[unseen]
            if len(known) + len(found) > cap:
                raise ClosureCapExceeded(cap=cap, partial_size=len(known) + len(found))
            known = np.insert(known, at, found)
            fresh.append(found)
        frontier = np.concatenate(fresh) if seen is None else np.flatnonzero(seen > before)
    if seen is not None:
        known = np.flatnonzero(seen).astype(keys.dtype)
    return MonoidClosure(X, known, generators=tuple(maps))


def _letters_gset(n: int) -> GSet:
    return trivial_gset(make_cyclic(1), n, name=f"letters({n})")


def sym_generators_check(n: int) -> bool:
    """Do a transposition and an n-cycle generate all n! permutations?"""
    if n > 6:
        raise BudgetExceeded(f"permutation closure limited to n <= 6, got {n}")
    if n < 1:
        raise DomainError("need at least one letter")
    X = _letters_gset(n)
    gens = _sym_seed(X, n)
    return closure(X, gens, cap=math.factorial(n)).size == math.factorial(n)


def trans_generators_check(n: int) -> bool:
    """Do the permutation pair plus one rank-(n-1) map generate all n^n maps?"""
    if n > 5:
        raise BudgetExceeded(f"transformation closure limited to n <= 5, got {n}")
    if n < 1:
        raise DomainError("need at least one letter")
    X = _letters_gset(n)
    gens = _sym_seed(X, n)
    if n >= 2:
        collapse = np.arange(n)
        collapse[0] = 1
        gens.append(EquivariantMap(X, collapse))
    return closure(X, gens, cap=n ** n).size == n ** n


def _sym_seed(X: GSet, n: int) -> list[EquivariantMap]:
    if n < 2:
        return []
    swap = np.arange(n)
    swap[[0, 1]] = [1, 0]
    cycle = np.roll(np.arange(n), -1)
    return [EquivariantMap(X, swap), EquivariantMap(X, cycle)]


def _kernel_classes(f: EquivariantMap) -> list[np.ndarray]:
    """The points f sends to one value, for every value hit at least twice."""
    order = np.argsort(f.image, kind="stable")
    cuts = np.flatnonzero(np.diff(f.image[order])) + 1
    return [cls for cls in np.split(order, cuts) if len(cls) >= 2]


def kernel_pairs(f: EquivariantMap) -> set:
    """All ordered pairs (a, b), a != b, with f(a) = f(b)."""
    return {pair for cls in _kernel_classes(f) for pair in itertools.permutations(cls.tolist(), 2)}


def map_rank(f: EquivariantMap) -> int:
    """Number of distinct image points."""
    return int(np.count_nonzero(np.bincount(f.image, minlength=f.gset.size)))
