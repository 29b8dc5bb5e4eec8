"""Finite groups as dense index-based multiplication tables.

Elements are always the integers 0..n-1.  Every other module speaks these
indices; optional labels exist purely for display.  Keeping the whole
group as a flat numpy table makes actions, stabilizers and closures plain
array indexing.  Rows of digits (permutations here, fixed-point flags in
`actions`, End indices in `transform`) are packed into sortable
mixed-radix keys by `_RowKeys`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BudgetExceeded, DomainError

# Constructors refuse to build groups larger than this unless the caller
# raises the limit explicitly.  Large enough for S7 x Z2, small enough
# that nothing accidentally allocates gigabytes.
DEFAULT_GROUP_BUDGET = 10_080

# Cells a blocked step builds at once: the (elements, generators, points)
# products `_group_from_permutations` looks up, the (elements, columns)
# table rows that `_fill_by_generators` fills, the lattice's word and chain
# temporaries, and the candidate End keys that `transform.closure` forms
# per block.  2^18 int32 cells are 1 MB (2 MB at 64 bits).
#
# The generator-rule checks (`_rule_break` here, the equivariance check in
# `transform`) compare two gathers of a table per block, and numpy widens
# an int32 index to intp on every call, so their blocks (`_check_blocks`)
# hold a quarter of that, 256 KB of int32 a side, and take their shape from
# the table.  A wide table (q^|G| shift columns on |G| rows) is cut into
# column ranges across all rows, so each gather is indexed by a short slice
# of the generator's row rather than by the whole row once per row block.
# A tall table (a group's own |G| x |G| product table) is cut into row
# ranges: column blocks would split every row's gather into many short
# ones, which made Light's test on S7 six times slower.
_BLOCK_CELLS = 1 << 18


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group on elements 0..order-1.

    mul[a, b] is the product a*b, identity is the neutral element's index
    and inv[a] the index of the inverse.  Instances are immutable and safe
    to share; equality is identity (two separately built copies of the
    same table are deliberately distinct objects).
    """

    order: int
    mul: np.ndarray
    identity: int
    inv: np.ndarray
    labels: tuple[str, ...] | None = None
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "mul", _exact_int32(self.mul, "multiplication table"))
        object.__setattr__(self, "inv", _exact_int32(self.inv, "inverse table"))
        _check_group_axioms(self)

    def multiply(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    def label(self, a: int) -> str:
        if self.labels is not None:
            return self.labels[a]
        return str(a)

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A generating set, chosen greedily in element order.

        Every element is a product of generators, so a property that holds
        on the generators and survives products holds everywhere; the
        validation checks rely on this.  A group of order n gets at most
        log2(n) generators.
        """
        seed = np.zeros(self.order, dtype=bool)
        seed[self.identity] = True
        return _greedy_generators(self, seed, range(self.order))

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = int(self.mul[x, a])
            k += 1
        return k

    def __len__(self):
        return self.order

    def __repr__(self):
        return f"FiniteGroup({self.name or 'order ' + str(self.order)})"


def _greedy_generators(G: FiniteGroup, seed: np.ndarray, candidates) -> tuple[int, ...]:
    """Generators modulo H of the subgroup <H, candidates>, taken from the
    candidates greedily in the given order; `seed` marks H.

    Each candidate not yet reached from H by right multiplication with the
    generators so far becomes a generator, and the reached set is closed
    again.  The candidates must normalize H, so the reached set H<C> is the
    subgroup <H, C>; each generator at least doubles it, so a quotient of
    order n gets at most log2(n) generators.  With H = {e} they generate
    the subgroup itself.
    """
    reached = seed.copy()
    gens = []
    for g in candidates:
        if reached[g]:
            continue
        gens.append(int(g))
        frontier = np.flatnonzero(reached)
        while len(frontier):
            products = G.mul[frontier[:, None], gens].ravel()
            fresh = np.zeros(G.order, dtype=bool)
            fresh[products] = True
            fresh &= ~reached
            reached |= fresh
            frontier = np.flatnonzero(fresh)
    return tuple(gens)


def _exact_int32(values, what: str) -> np.ndarray:
    """`values` as a C-contiguous int32 array, refused with DomainError when
    narrowing would change an entry (2^32 + 1 would wrap to 1) or a Python
    integer does not fit in 64 bits."""
    given = np.asarray(values)
    try:
        out = np.ascontiguousarray(given, dtype=np.int32)
    except OverflowError:
        raise DomainError(f"{what} entries out of range") from None
    if given.dtype != out.dtype and not np.array_equal(given, out):
        raise DomainError(f"{what} entries out of range")
    return out


def _check_group_axioms(G: FiniteGroup) -> None:
    n = G.order
    mul, inv, e = G.mul, G.inv, G.identity
    if mul.shape != (n, n):
        raise DomainError(f"multiplication table has shape {mul.shape}, expected {(n, n)}")
    if not ((mul >= 0).all() and (mul < n).all()):
        raise DomainError("multiplication table entries out of range")
    if not (mul[e] == np.arange(n)).all() or not (mul[:, e] == np.arange(n)).all():
        raise DomainError(f"element {e} is not a two-sided identity")
    if not (mul[np.arange(n), inv] == e).all() or not (mul[inv, np.arange(n)] == e).all():
        raise DomainError("inverse table is wrong")
    # Light's test: (x s) y = x (s y) for every generator s is enough.  The
    # elements z with (x z) y = x (z y) for all x, y are closed under
    # products, so they form the whole table once they hold the generators.
    # An associative table with identity and inverses is a group, so its
    # rows and columns are permutations without a separate check.
    broken = _rule_break(G, mul)
    if broken is not None:
        raise DomainError(f"associativity fails for middle factor {broken[1]}")


def _fill_by_generators(right: np.ndarray, identity: int, gen_rows: np.ndarray) -> np.ndarray:
    """Every row of a table T on the group elements, from the generators' rows.

    `right[x, j]` is x s_j, `gen_rows[j]` is T[s_j], T[identity] is 0, 1, 2, ...
    Product, action and conjugation tables keep T[x s] = T[x][T[s]], so rows
    are filled by levels of the Cayley graph, in blocks of `_BLOCK_CELLS` cells.
    """
    (n, k), m = right.shape, gen_rows.shape[1]
    # the products of two generators, as further steps, halve the levels
    right = np.concatenate([right, right[right].reshape(n, k * k)], axis=1)
    gen_rows = np.concatenate([gen_rows, np.take(gen_rows, gen_rows, axis=1).reshape(k * k, m)])
    out = np.empty((n, m), dtype=np.int32)
    out[identity] = np.arange(m)
    reached = np.zeros(n, dtype=bool)
    reached[identity] = True
    via = np.empty(n, dtype=np.intp)                    # a position in `products` reaching it
    frontier = np.array([identity])
    step = max(1, _BLOCK_CELLS // max(1, m))
    while len(frontier):
        products = right[frontier].ravel()                  # x s, by x then s
        via[products] = np.arange(len(products))            # any (x, s) reaching it will do
        fresh = np.zeros(n, dtype=bool)
        fresh[products] = True
        fresh &= ~reached
        reached |= fresh
        fresh = np.flatnonzero(fresh)
        x, s = np.divmod(via[fresh], right.shape[1])
        for a in range(0, len(fresh), step):
            out[fresh[a:a + step]] = out[frontier[x[a:a + step], None], gen_rows[s[a:a + step]]]
        frontier = fresh
    if not reached.all():
        raise DomainError("the generators do not reach every element")
    return out


def _check_blocks(shape: tuple[int, int]) -> list[tuple[slice, slice]]:
    """The (rows, columns) blocks that a generator-rule check of an (n, m)
    table compares, in order; a quarter of `_BLOCK_CELLS` cells each.

    A wide table (m > n) is cut into column ranges across all rows, a tall
    one into row ranges of whole rows; either way a row's last block comes
    after every block of the rows before it.
    """
    n, m = shape
    cells = max(1, _BLOCK_CELLS >> 2)
    if m > n:
        width = max(1, cells // max(1, n))
        return [(slice(0, n), slice(c, c + width)) for c in range(0, m, width)]
    height = max(1, cells // max(1, m))
    return [(slice(r, r + height), slice(0, m)) for r in range(0, n, height)]


def _rule_break(G: FiniteGroup, table: np.ndarray) -> tuple[int, int] | None:
    """The first (g, s), s in `G.generators`, with table[g s] != table[g][table[s]].

    On `G.mul` this is Light's test, on a G-set's table the action law.
    Generators are taken in order.  For each, both sides are compared block
    by block (`_check_blocks`); after a block that ends at the last column,
    every row up to its last one has been checked in full, so the first of
    them that failed is the g.  None when the rule holds (then for all
    products).
    """
    m, blocks = table.shape[1], _check_blocks(table.shape)
    for s in G.generators:
        bad = None
        for rows, cols in blocks:
            differs = table[G.mul[rows, s], cols] != np.take(table[rows], table[s, cols], axis=1)
            if differs.any():
                if bad is None:
                    bad = np.zeros(len(table), dtype=bool)
                bad[rows] |= differs.any(axis=1)
            if bad is not None and cols.stop >= m:
                return int(bad.argmax()), s
    return None


def _count_text(n: int) -> str:
    """n in decimal, or a power-of-ten bound once the decimal gets too long."""
    try:
        return str(n)
    except ValueError:      # more digits than sys.get_int_max_str_digits()
        return f"at least 10^{math.floor((n.bit_length() - 1) * math.log10(2))}"


def _guard_order(n: int, budget: int) -> None:
    if n < 1:
        raise DomainError(f"group order must be positive, got {n}")
    if n > budget:
        raise BudgetExceeded(f"group of order {_count_text(n)} exceeds budget {budget}")


def make_cyclic(n: int, budget: int = DEFAULT_GROUP_BUDGET) -> FiniteGroup:
    """The cyclic group Z_n with addition mod n."""
    _guard_order(n, budget)
    idx = np.arange(n)
    mul = (idx[:, None] + idx[None, :]) % n
    labels = tuple(str(i) for i in range(n))
    return FiniteGroup(n, mul, 0, (-idx) % n, labels, name=f"Z{n}")


def _perm_cycle_label(p: tuple[int, ...]) -> str:
    """Cycle-notation label for a permutation in one-line form, 'e' for the identity."""
    seen, cycles = set(), []
    for start in range(len(p)):
        if start in seen or p[start] == start:
            seen.add(start)
            continue
        cyc, x = [], start
        while x not in seen:
            seen.add(x)
            cyc.append(x)
            x = p[x]
        cycles.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(cycles) if cycles else "e"


def _runs(radices: list[int], bound: int) -> list[range]:
    """Consecutive positions cut greedily into runs whose radices multiply
    to at most `bound`; a radix above `bound` is a run of its own."""
    cuts, product = [0], 1
    for c, r in enumerate(radices):
        if c > cuts[-1] and product * r > bound:
            cuts.append(c)
            product = 1
        product *= r
    return [range(a, b) for a, b in zip(cuts, cuts[1:] + [len(radices)])]


def _group_by(labels: np.ndarray, n: int) -> list[tuple[int, ...]]:
    """Positions grouped by their label 0, ..., n-1; each group ascending."""
    order = np.argsort(labels, kind="stable").tolist()
    ends = np.cumsum(np.bincount(labels, minlength=n)).tolist()
    return [tuple(order[a:b]) for a, b in zip([0] + ends, ends)]


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending: what plain `np.unique` returns.

    np.sort plus a neighbour test.  np.unique took about 100 times as long
    as np.sort on a million uint64 keys under numpy 2.4, and its plain form
    imports numpy.ma on first use (about 17 ms).
    """
    values = np.sort(values, axis=None)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


class _RowKeys:
    """Packs rows of digits into keys that sort like the rows.

    Column c holds digits 0..radices[c]-1: point indices (permutations in
    one-line form), fixed-point flags, or the target chosen per orbit by
    an equivariant self-map (`transform.closure`).  A row is read as a
    mixed-radix number, first column most significant, and cut greedily
    into words whose radices multiply to at most 2^64, so comparing keys
    compares rows lexicographically.  A single word is a uint32 key when
    its radices multiply to at most 2^32 and a uint64 key otherwise; a
    longer row becomes a void scalar over its big-endian uint64 words,
    which also sorts and searches as one value.  `row_dtype` is the
    narrowest unsigned type holding a digit.
    """

    def __init__(self, radices):
        radices = [int(r) for r in radices]
        columns = _runs(radices, 1 << 64)
        self.length = len(radices)
        self.words = len(columns)
        self.dtype = np.dtype(np.uint32 if self.words == 1 and math.prod(radices) <= 1 << 32
                              else np.uint64)
        self.word_of = [0] * self.length
        self.stride = [self.dtype.type(0)] * self.length
        for w, cols in enumerate(columns):
            step = 1
            for c in reversed(cols):
                self.word_of[c], self.stride[c] = w, self.dtype.type(step)
                step *= radices[c]
        self.radix = [self.dtype.type(r) for r in radices]
        self.row_dtype = np.min_scalar_type(max(radices, default=1) - 1)

    def pack(self, rows: np.ndarray) -> np.ndarray:
        """One key per row of an (n, length) array."""
        words = np.zeros((self.words, len(rows)), dtype=self.dtype)
        for c in range(self.length):
            words[self.word_of[c]] += rows[:, c].astype(self.dtype) * self.stride[c]
        return self.join(words)

    def join(self, words) -> np.ndarray:
        """The keys whose words are the columns of a (words, n) array, or
        of a list of one array per word."""
        if self.words == 1:
            return words[0]
        return np.ascontiguousarray(np.transpose(words), dtype=">u8").view(
            np.dtype((np.void, 8 * self.words))).ravel()

    def split(self, keys: np.ndarray) -> np.ndarray:
        """The (words, n) array whose columns are the words of n keys."""
        if self.words == 1:
            return keys[None]
        return keys.view(">u8").reshape(len(keys), self.words).T.astype(np.uint64)

    def unpack(self, keys: np.ndarray, dtype) -> np.ndarray:
        """The (n, length) rows of n keys, as `dtype`."""
        words = self.split(keys)
        rows = np.empty((self.length, len(keys)), dtype=dtype).T
        for c in range(self.length):
            rows[:, c] = words[self.word_of[c]] // self.stride[c] % self.radix[c]
        return rows


class _RowIndex:
    """Finds rows among a fixed set of distinct rows, by binary search on
    their keys; `key` gives one sortable key per row of an array of rows."""

    def __init__(self, rows: np.ndarray, key):
        self._key = key
        keys = key(rows)
        self._order = np.argsort(keys).astype(np.int32)
        self._sorted = keys[self._order]

    def __call__(self, rows: np.ndarray) -> np.ndarray:
        """Position of each row among the known rows, -1 if absent."""
        keys = self._key(rows)
        at = np.minimum(np.searchsorted(self._sorted, keys), len(self._sorted) - 1)
        return np.where(self._sorted[at] == keys, self._order[at], np.int32(-1))


def _group_from_permutations(perms: list[tuple[int, ...]], gens: list[tuple[int, ...]],
                             name: str) -> FiniteGroup:
    """Build the table of the group `perms`, which `gens` generates.

    The product p*q is the composite "apply q first, then p".  The products
    p*s and s*p with a generator s, a block of elements at a time, the
    identity and the inverses are found among the elements on packed keys;
    `_fill_by_generators` fills the table from them.  Points that every
    permutation fixes are dropped first and the moved points relabelled in
    increasing order, which keeps the elements' order and every product;
    the cycle labels are taken from the given permutations.
    """
    order, k = len(perms), len(gens)
    full = np.array([*perms, *gens], dtype=np.int64).reshape(order + k, -1)
    moved = np.flatnonzero((full != np.arange(full.shape[1])).any(axis=0))
    m = len(moved)
    keys = _RowKeys([1 << max(1, (m - 1).bit_length())] * m)   # ceil(log2 m) bits a point
    P, S = np.split(np.searchsorted(moved, full[:, moved]).astype(keys.row_dtype), [order])
    find = _RowIndex(P, lambda rows: keys.pack(rows.reshape(math.prod(rows.shape[:-1]), m)))

    def index(rows: np.ndarray) -> np.ndarray:
        at = find(rows)
        if (at < 0).any():
            raise DomainError("permutations are not closed under composition")
        return at.reshape(rows.shape[:-1])

    step = max(1, _BLOCK_CELLS // max(1, k * m))
    blocks = [P[start:start + step] for start in range(0, order, step)]
    right = np.concatenate([index(np.take(block, S, axis=1)) for block in blocks])  # p s_j
    left = np.concatenate([index(S[:, block]) for block in blocks], axis=1)         # s_j p
    identity, *inv = index(np.vstack([np.arange(m), np.argsort(P, axis=1)])).tolist()
    mul = _fill_by_generators(right, identity, left)
    labels = tuple(_perm_cycle_label(p) for p in perms)
    return FiniteGroup(order, mul, identity, inv, labels, name=name)


def make_symmetric(n: int, budget: int = DEFAULT_GROUP_BUDGET) -> FiniteGroup:
    """Sym(n) acting on {0..n-1}.

    Elements are enumerated in lexicographic one-line order, so index 0 is
    the identity.  Labels use cycle notation.
    """
    if n < 1:
        raise DomainError(f"degree must be positive, got {n}")
    order = 1
    for k in range(2, n + 1):       # stops past the budget, long before n! for a large n
        order *= k
        if order > budget:
            raise BudgetExceeded(f"group of order {_count_text(n)}! exceeds budget {budget}")
    perms = [tuple(p) for p in itertools.permutations(range(n))]
    gens = [(1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)] if n > 1 else []
    return _group_from_permutations(perms, gens, name=f"S{n}")


def make_dihedral(n: int, budget: int = DEFAULT_GROUP_BUDGET) -> FiniteGroup:
    """Dihedral group of order 2n: rotations and reflections of an n-gon.

    Realized as permutations of the n vertices; for n >= 3 this is the
    usual symmetry group, D1 and D2 fall back to the evident small groups.
    """
    if n < 1:
        raise DomainError(f"polygon size must be positive, got {n}")
    _guard_order(2 * n, budget)
    if n == 1:
        return make_cyclic(2)
    if n == 2:
        return direct_product(make_cyclic(2), make_cyclic(2))
    # rotations first (identity included), then reflections; one of each generates
    perms = ([tuple((i + k) % n for i in range(n)) for k in range(n)]
             + [tuple((k - i) % n for i in range(n)) for k in range(n)])
    return _group_from_permutations(perms, [perms[1], perms[n]], name=f"D{n}")


def direct_product(a: FiniteGroup, b: FiniteGroup,
                   budget: int = DEFAULT_GROUP_BUDGET) -> FiniteGroup:
    """Componentwise product; element k encodes the pair (k // |b|, k % |b|)."""
    n = a.order * b.order
    _guard_order(n, budget)
    pair = np.arange(n)
    x, y = pair // b.order, pair % b.order
    # mul[(x1,y1),(x2,y2)] = (x1*x2, y1*y2) under the pair encoding
    mul = a.mul[np.ix_(x, x)] * b.order + b.mul[np.ix_(y, y)]
    inv = a.inv[x] * b.order + b.inv[y]
    labels = None
    if a.labels is not None and b.labels is not None:
        labels = tuple(
            f"({a.labels[i]},{b.labels[j]})" for i, j in zip(x, y)
        )
    name = f"{a.name}x{b.name}" if a.name and b.name else ""
    return FiniteGroup(n, mul, a.identity * b.order + b.identity, inv, labels, name=name)


def from_permutation_generators(degree: int, perms, budget: int = DEFAULT_GROUP_BUDGET,
                                name: str = "") -> FiniteGroup:
    """Close a list of permutations of {0..degree-1} under composition.

    Each generator must be a bijection in one-line notation.  The result's
    elements are the distinct permutations of the closure, sorted
    lexicographically.  Generators the earlier ones already give are
    dropped, so at most log2 of the order reach the table build.
    """
    given = []
    for p in perms:
        p = tuple(int(x) for x in p)
        if sorted(p) != list(range(degree)):
            raise DomainError(f"{p} is not a permutation of 0..{degree - 1}")
        given.append(p)
    elements, gens = {tuple(range(degree))}, []
    for s in given:
        if s in elements:
            continue
        gens.append(s)
        frontier, steps = list(elements), [s]   # a word leaves the closure first at a p -> p s
        while frontier:
            nxt = []
            for p, q in itertools.product(frontier, steps):
                r = tuple(p[q[k]] for k in range(degree))
                if r not in elements:
                    if len(elements) >= budget:
                        raise BudgetExceeded(f"permutation closure exceeds budget {budget}")
                    elements.add(r)
                    nxt.append(r)
            frontier, steps = nxt, gens
    return _group_from_permutations(sorted(elements), gens, name=name)

