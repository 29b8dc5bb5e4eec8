"""Equivariant self-maps of a G-set: construction, enumeration, closure.

Maps are flat image arrays over point indices.  Composition, the monoid
End of all equivariant self-maps, the group Aut of equivariant bijections,
and level-by-level closure of generator sets all live here; the rank
machinery builds on these primitives.  A map is fixed by the images of
the orbit representatives, so End has a dense mixed-radix index (one
digit per orbit, the image's position among the admissible targets).
`_EndIndex` ranks blocks of image rows to End indices, masking the rows
that are no equivariant self-maps, and unranks indices to rows.  A set
of maps (`MonoidClosure`) is its sorted End indices: enumeration and
closure find only those, and rows are unranked when a caller reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .actions import GSet, trivial_gset
from .errors import BudgetExceeded, ClosureCapExceeded, DomainError, StabilizerError
from .groups import (_BLOCK_CELLS, _check_blocks, _exact_int32, _RowKeys, _count_text, _runs,
                     _sorted_unique, make_cyclic)

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
        g = _non_commuting_generator(self.gset, img)
        if g >= 0:
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
    return _non_commuting_generator(X, np.asarray(image, dtype=np.int64)) == -1


def _non_commuting_generator(X: GSet, img: np.ndarray) -> int:
    """One image's first non-commuting generator, or -1; a bad image raises DomainError."""
    g = int(_first_non_commuting_generators(X, img[None])[0])
    if g == -2:
        raise DomainError(f"image has shape {img.shape}, expected ({X.size},)"
                          if img.shape != (X.size,) else "image entries out of range")
    return g


def _first_non_commuting_generators(X: GSet, rows: np.ndarray) -> np.ndarray:
    """Per row of a (k, m) block of images: -1 where the row commutes with
    every generator s (row(s.x) = s.row(x) for all x), else the first s it
    does not commute with, and -2 where the row has an entry outside
    0..m-1.  A block of the wrong width is -2 on every row.

    A map commuting with the generators commutes with their products, so
    -1 marks exactly the equivariant self-maps (X is already an action).
    Both sides are compared in the blocks `_check_blocks` shapes to the
    (k, m) block: column ranges of every row for the usual few rows.
    """
    m = X.size
    if rows.shape[1:] != (m,):
        return np.full(len(rows), -2)
    out = np.full(len(rows), -1)
    blocks = _check_blocks(rows.shape)
    for s in reversed(X.group.generators):     # a row's first failure is written last
        row = X.action[s]       # clipped entries lie in rows marked -2 below
        for r, c in blocks:
            lhs = np.take(rows[r], row[c], axis=1)
            out[r][(lhs != np.take(row, rows[r, c], mode="clip")).any(axis=1)] = s  # a view
    if m:
        out[(rows.min(axis=1) < 0) | (rows.max(axis=1) >= m)] = -2
    return out


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

    `indices` holds ascending, distinct End indices of the G-set's
    `_EndIndex`, which the instance holds (built when none is given).
    Since ascending indices unrank to rows in lexicographic order, two
    instances on one G-set hold the same maps exactly when their index
    arrays are equal.  The rows are unranked on first read of `images`,
    and membership ranks the row asked about.  `closure` also records its
    seed in `generators`.
    """

    gset: GSet
    indices: np.ndarray
    generators: tuple = ()
    _codec: _EndIndex | None = None

    def __post_init__(self):
        if self._codec is None:
            object.__setattr__(self, "_codec", _EndIndex(self.gset))

    @cached_property
    def images(self) -> np.ndarray:
        """The (size, points) int32 image rows, in lexicographic order."""
        return self._codec.unrank(self.indices)

    @property
    def size(self) -> int:
        return len(self.indices)

    def __len__(self):
        return self.size

    def __contains__(self, item) -> bool:
        if isinstance(item, EquivariantMap):
            item = item.image
        key, ok = self._codec.rank(np.asarray(item, dtype=np.int64).reshape(1, -1))
        at = np.searchsorted(self.indices, key)
        return bool(ok[0] and at[0] < self.size and self.indices[at[0]] == key[0])

    def maps(self):
        for row in self.images:
            yield EquivariantMap(self.gset, row)

    def __repr__(self):
        return f"MonoidClosure({self.size} maps on {self.gset.size} points)"


class _EndIndex:
    """The End index format of a G-set X: one ranker and one unranker.

    A representative r may go to any point whose stabilizer contains
    Stab(r): r's admissible targets, ascending.  A map's End index has one
    digit per orbit, the position of its representative's image among
    those targets, read as a mixed-radix number over `counts` (first orbit
    most significant) and packed by `keys`.

    The counts cost O(|G| m) however many orbits there are, so a budget is
    checked on their product before the keys, target lists and position
    tables (O(m) per representative stabilizer) are built.
    """

    def __init__(self, X: GSet):
        table = X.stabilizer_table
        self.gset = X
        self.rep_class = table.point_class[X.orbit_reps]
        per_class = (table.within.astype(np.int64)
                     @ np.bincount(table.point_class, minlength=len(table.within)))
        self.counts = [int(c) for c in per_class[self.rep_class]]

    @cached_property
    def keys(self) -> _RowKeys:
        return _RowKeys(self.counts)

    @cached_property
    def targets(self) -> dict[int, np.ndarray]:
        """Per representative stabilizer class a, its admissible targets."""
        table = self.gset.stabilizer_table
        return {a: np.flatnonzero(table.within[a][table.point_class]).astype(np.int32)
                for a in dict.fromkeys(self.rep_class.tolist())}

    @cached_property
    def positions(self) -> dict[int, np.ndarray]:
        """Per representative stabilizer class a, an array over the points
        holding each target's position in `targets[a]` (elsewhere, where
        the point would be inserted)."""
        points = np.arange(self.gset.size)
        return {a: np.searchsorted(t, points).astype(self.keys.dtype)
                for a, t in self.targets.items()}

    def rank(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The End indices of a (k, m) block of image rows, and the mask of
        the rows that are equivariant self-maps of X; the other rows' keys
        mean nothing.

        An equivariant row sends each representative to one of its
        targets, whose position is the digit: one gather per
        representative stabilizer class, then one pack.
        """
        ok = _first_non_commuting_generators(self.gset, rows) == -1
        digits = np.zeros((len(ok), len(self.counts)), dtype=self.keys.dtype)
        if ok.any():                    # so the block has X's width
            images = np.where(ok[:, None], rows[:, self.gset.orbit_reps], 0)
            for a, positions in self.positions.items():
                at = self.rep_class == a
                digits[:, at] = positions[images[:, at]]
        return self.keys.pack(digits), ok

    def unrank(self, indices: np.ndarray) -> np.ndarray:
        """The (k, m) int32 image rows of k End indices.

        Digit c picks the target y of orbit c's representative r, and a
        point g.r of that orbit goes to g.y: one gather of the chosen
        targets per representative stabilizer class, then one read of the
        action for every row.  Ascending indices give rows in
        lexicographic order: orbits are ordered by their minimal point r,
        every point before r lies in an earlier orbit, and the image of r
        itself is the chosen target.
        """
        X = self.gset
        picks = self.keys.unpack(indices, self.keys.row_dtype)
        chosen = np.empty(picks.shape, dtype=np.intp)
        for a, targets in self.targets.items():
            at = self.rep_class == a
            chosen[:, at] = targets[picks[:, at]]
        # per point p, the first g with g.r = p, r the minimal point of p's orbit
        via = np.argmax(X.action[:, X.orbit_reps[X.orbit_of_point]] == np.arange(X.size), axis=0)
        return X.action[via, np.take(chosen, X.orbit_of_point, axis=1)]   # take keeps it C-ordered


def _check_budget(total: int, budget: int, what: str) -> None:
    if total > budget:
        raise BudgetExceeded(f"{_count_text(total)} {what} exceed the enumeration budget {budget}")


def end_monoid_order(X: GSet) -> int:
    """|End| = prod over the orbit representatives r of |Fix_X(Stab(r))|
    (over the boxes, prod_i |Fix_X(H_i)|^alpha_i), read from the action
    rather than from the target counts the enumerators use."""
    table = X.stabilizer_table
    cls = table.point_class[X.orbit_reps].tolist()
    fixed = {a: len(X.fix(table.masks[a])) for a in set(cls)}
    return math.prod(fixed[a] for a in cls)


def enumerate_end(X: GSet, budget: int = DEFAULT_ENUM_BUDGET) -> MonoidClosure:
    """All equivariant self-maps: every End index, ascending.  The product
    of the target counts is checked against the budget before any work."""
    codec = _EndIndex(X)
    order = math.prod(codec.counts)
    _check_budget(order, budget, "maps")
    return MonoidClosure(X, np.arange(order, dtype=codec.keys.dtype), _codec=codec)


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
    codec = _EndIndex(X)
    _check_budget(math.prod(np.bincount(cls)[codec.rep_class].tolist()), budget, "choices")
    picks = np.zeros((1, 0), dtype=np.intp)             # End digit per orbit so far
    hit = np.zeros((1, len(codec.counts)), dtype=bool)  # orbits already chosen
    for a in codec.rep_class.tolist():
        t = codec.targets[a]
        digits = np.flatnonzero(cls[t] == a)
        t_orbit = X.orbit_of_point[t[digits]]
        row, j = np.nonzero(~hit[:, t_orbit])
        picks = np.column_stack((picks[row], digits[j]))
        hit = hit[row]
        hit[np.arange(len(row)), t_orbit[j]] = True
    return MonoidClosure(X, codec.keys.pack(picks), _codec=codec)


# End indices a chunk of orbits covers at most in the bitmap closure (a
# single orbit with more targets is a chunk of its own).
_CLOSURE_CHUNK_VALUES = 1 << 12


def closure(X: GSet, generators, cap: int = DEFAULT_CLOSURE_CAP) -> MonoidClosure:
    """The submonoid generated by the given maps (identity always included).

    Each element is kept as its End index (`_EndIndex`).  Composing a
    generator g after an element moves each digit through a (targets,
    generators) table of g's action on the targets, one table per
    representative stabilizer.

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
    """
    maps = []
    for f in generators:
        if isinstance(f, EquivariantMap):
            if f.gset is X:             # checked when it was built
                maps.append(f)
                continue
            if not _same_gset(f.gset, X):
                raise DomainError("generator lives on a different action")
            f = f.image
        maps.append(EquivariantMap(X, f))
    codec = _EndIndex(X)
    counts, keys = codec.counts, codec.keys
    gens = np.array([f.image for f in maps], dtype=np.int32).reshape(len(maps), X.size)
    rep_cls = codec.rep_class.tolist()
    # table[d, s] = position of gens[s](t[d]) in t
    by_class = {a: np.ascontiguousarray(codec.positions[a][gens[:, t]].T)
                for a, t in codec.targets.items()}
    known, _ = codec.rank(np.arange(X.size)[None])
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
    return MonoidClosure(X, known, generators=tuple(maps), _codec=codec)


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


def map_rank(f: EquivariantMap) -> int:
    """Number of distinct image points."""
    hit = np.zeros(f.gset.size, dtype=bool)
    hit[f.image] = True
    return int(np.count_nonzero(hit))
