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

# Cells of the (rows, order, ...) blocks that `_group_from_permutations`
# composes and `_check_group_axioms` compares at once.
_BLOCK_CELLS = 1 << 22


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
        object.__setattr__(self, "mul", np.asarray(self.mul, dtype=np.int32))
        object.__setattr__(self, "inv", np.asarray(self.inv, dtype=np.int32))
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

        Each element not yet reached from the identity by right
        multiplication with the generators so far becomes a generator, and
        the reached set is closed again.  Every element is then a product
        of generators, so a property that holds on the generators and
        survives products holds everywhere; the validation checks rely on
        this.  A group of order n gets at most log2(n) generators.
        """
        reached = np.zeros(self.order, dtype=bool)
        reached[self.identity] = True
        gens = []
        for g in range(self.order):
            if reached[g]:
                continue
            gens.append(g)
            frontier = np.flatnonzero(reached)
            while len(frontier):
                products = self.mul[np.ix_(frontier, gens)].ravel()
                fresh = np.zeros(self.order, dtype=bool)
                fresh[products] = True
                fresh &= ~reached
                reached |= fresh
                frontier = np.flatnonzero(fresh)
        return tuple(gens)

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
    step = max(1, _BLOCK_CELLS // n)
    for s in G.generators:
        for start in range(0, n, step):
            rows = mul[start:start + step]
            if not (mul[rows[:, s]] == np.take(rows, mul[s], axis=1)).all():
                raise DomainError(f"associativity fails for middle factor {s}")


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
        columns, product = [[]], 1
        for c, r in enumerate(radices):
            if columns[-1] and product * r > 1 << 64:
                columns.append([])
                product = 1
            columns[-1].append(c)
            product *= r
        self.length = len(radices)
        self.words = len(columns)
        self.dtype = np.dtype(np.uint32 if self.words == 1 and product <= 1 << 32 else np.uint64)
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

    def join(self, words: np.ndarray) -> np.ndarray:
        """The keys whose words are the columns of a (words, n) array."""
        if self.words == 1:
            return words[0]
        return np.ascontiguousarray(words.T, dtype=">u8").view(
            np.dtype((np.void, 8 * self.words))).ravel()

    def unpack(self, keys: np.ndarray, dtype) -> np.ndarray:
        """The (n, length) rows of n keys, as `dtype`."""
        words = (keys[None] if self.words == 1
                 else keys.view(">u8").reshape(len(keys), self.words).T.astype(np.uint64))
        rows = np.empty((self.length, len(keys)), dtype=dtype).T
        for c in range(self.length):
            rows[:, c] = words[self.word_of[c]] // self.stride[c] % self.radix[c]
        return rows


def _group_from_permutations(perms: list[tuple[int, ...]], name: str) -> FiniteGroup:
    """Build the table for a closed set of permutations under composition.

    The product p*q is the composite "apply q first, then p".  A block of
    table rows is composed in one gather, and every product is found among
    the elements by binary search on packed keys (`_RowKeys`).  Points that
    every permutation fixes are dropped first and the moved points
    relabelled in increasing order, which keeps the elements' order and
    every product; the cycle labels are taken from the given permutations.
    """
    full = np.array(perms, dtype=np.int64).reshape(len(perms), -1)
    moved = np.flatnonzero((full != np.arange(full.shape[1])).any(axis=0))
    relabel = np.zeros(full.shape[1], dtype=np.int64)
    relabel[moved] = np.arange(len(moved))
    m = len(moved)
    keys = _RowKeys([1 << max(1, (m - 1).bit_length())] * m)   # ceil(log2 m) bits a point
    P = relabel[full[:, moved]].astype(keys.row_dtype)
    order = len(P)
    elements = keys.pack(P)
    by_key = np.argsort(elements)
    sorted_keys = elements[by_key]

    def index(rows: np.ndarray) -> np.ndarray:
        found = keys.pack(rows)
        at = np.minimum(np.searchsorted(sorted_keys, found), order - 1)
        if (sorted_keys[at] != found).any():
            raise DomainError("permutations are not closed under composition")
        return by_key[at]

    mul = np.empty((order, order), dtype=np.int32)
    step = max(1, _BLOCK_CELLS // max(1, order * keys.length))
    for start in range(0, order, step):
        block = np.take(P[start:start + step], P, axis=1)    # block[a, j] = p_(start+a) p_j
        mul[start:start + len(block)] = index(
            block.reshape(len(block) * order, keys.length)).reshape(len(block), order)
    inverse = np.empty_like(P)
    inverse[np.arange(order)[:, None], P] = np.arange(keys.length)
    identity = int(index(np.arange(keys.length)[None])[0])
    labels = tuple(_perm_cycle_label(p) for p in perms)
    return FiniteGroup(order, mul, identity, index(inverse), labels, name=name)


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
    return _group_from_permutations(perms, name=f"S{n}")


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
    perms = []
    for k in range(n):
        perms.append(tuple((i + k) % n for i in range(n)))
    for k in range(n):
        perms.append(tuple((k - i) % n for i in range(n)))
    # rotations first (identity included), then reflections
    G = _group_from_permutations(perms, name=f"D{n}")
    return G


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
    lexicographically so construction is deterministic.
    """
    gens = []
    for p in perms:
        p = tuple(int(x) for x in p)
        if sorted(p) != list(range(degree)):
            raise DomainError(f"{p} is not a permutation of 0..{degree - 1}")
        gens.append(p)
    ident = tuple(range(degree))
    elements = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for q in gens:
                r = tuple(p[q[k]] for k in range(degree))
                if r not in elements:
                    if len(elements) >= budget:
                        raise BudgetExceeded(
                            f"permutation closure exceeds budget {budget}")
                    elements.add(r)
                    nxt.append(r)
        frontier = nxt
    return _group_from_permutations(sorted(elements), name=name)

