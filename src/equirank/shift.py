"""Shift actions on configuration spaces A^G, and their cellular automata.

A configuration assigns a symbol from {0,..,q-1} to every group element,
and G shifts it by (g.x)(h) = x(g^-1 h).  Configurations are encoded as
base-q integers, most significant digit first, over a fixed display
order of the group elements, so the tables produced here can be compared
against hand-written ones digit for digit.

Every cellular automaton built from a local rule lands in the
equivariant maps of the shift, and for a finite group the converse holds
too: `rule_from_map` reads a (full-memory) local rule off any
equivariant map, and `minimal_memory_set` shrinks the memory to the
unique minimal one by a coordinate dependence scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .actions import DEFAULT_CELL_BUDGET, GSet, RankCount, _orbits_by_moebius
from .errors import BudgetExceeded, DomainError, PropertyFailure
from .groups import FiniteGroup, _count_text
from .lattice import build_lattice
from .transform import EquivariantMap

# The classic presentation of S3 lists e, then the transpositions a, b,
# and then c, f, g; our element indices sort permutations lexicographically.
_S3_DISPLAY = (0, 2, 5, 1, 4, 3)


@dataclass(frozen=True, eq=False)
class ShiftSpace:
    """The action of G on configurations G -> {0,..,q-1}.

    `display` fixes which group element owns which digit position
    (position 0 is the most significant digit).
    """

    group: FiniteGroup
    q: int
    display: tuple[int, ...]
    gset: GSet

    @property
    def size(self) -> int:
        return self.gset.size

    @cached_property
    def position_of(self) -> np.ndarray:
        """Inverse of `display`: digit position of each group element."""
        return np.argsort(self.display)

    @cached_property
    def weights(self) -> np.ndarray:
        n = self.group.order
        return self.q ** np.arange(n - 1, -1, -1, dtype=np.int64)

    def encode(self, digits) -> int:
        d = np.asarray(list(digits), dtype=np.int64)
        if d.shape != (self.group.order,):
            raise DomainError(f"expected {self.group.order} digits, got {d.shape}")
        if d.size and (d.min() < 0 or d.max() >= self.q):
            raise DomainError(f"digits must lie in 0..{self.q - 1}")
        return int(d @ self.weights)

    def decode(self, code: int) -> tuple[int, ...]:
        if not 0 <= code < self.size:
            raise DomainError(f"configuration code {code} out of range 0..{self.size - 1}")
        return tuple(int(v) for v in (code // self.weights) % self.q)

    def __repr__(self):
        return f"ShiftSpace({self.group.name}, q={self.q}, {self.size} configurations)"


def _check_alphabet(q: int) -> None:
    if q < 2:
        raise DomainError(f"alphabet size must be at least 2, got {q}")


def _shift_size(G: FiniteGroup, q: int) -> int:
    """|A^G| = q^|G|, refused when its action table would pass the cell
    budget (`GSet`'s own), before anything is allocated.

    q^|G| >= 2^bits >= 10^digits, bits = |G| (bit length of q, less one).
    A power past 4,300 digits (Python's default limit on int-to-str
    conversion) is refused with "at least 10^k" bounds read from `bits`;
    when `digits` alone reaches that limit the power is not computed.
    """
    _check_alphabet(q)
    bits = G.order * (q.bit_length() - 1)
    digits = math.floor(bits * math.log10(2))
    m = q ** G.order if digits < 4300 else None
    if m is not None and m < 10 ** 4300:
        if m * G.order > DEFAULT_CELL_BUDGET:
            raise BudgetExceeded(f"shift space of {_count_text(m)} configurations "
                                 f"({_count_text(m * G.order)} cells) exceeds budget "
                                 f"{DEFAULT_CELL_BUDGET}")
        return m
    cells = math.floor((bits + G.order.bit_length() - 1) * math.log10(2))
    raise BudgetExceeded(f"shift space of at least 10^{digits} configurations "
                         f"(at least 10^{cells} cells) exceeds budget {DEFAULT_CELL_BUDGET}")


def _shift_name(G: FiniteGroup, q: int) -> str:
    """The name of A^G's G-set, as `build_shift` gives it."""
    return f"{G.name} shift q={q}"


def build_shift(G: FiniteGroup, q: int, display=None) -> ShiftSpace:
    """Construct A^G with the shift action, |A| = q.

    `GSet` checks the table to be an action, as it checks every table.
    """
    m = _shift_size(G, q)
    if display is None:
        display = _S3_DISPLAY if (G.name == "S3" and G.order == 6) else tuple(range(G.order))
    else:
        display = tuple(int(i) for i in display)
        if sorted(display) != list(range(G.order)):
            raise DomainError("display order must be a permutation of the group elements")

    n, pos = G.order, np.argsort(display)
    # Axis i of the code tensor is digit position i.  The digit of g.x at
    # position i is the digit of x at position perm[i], so act[g], read as
    # a tensor over x's digits, is the code tensor with its axes permuted
    # by the inverse of perm.
    codes = np.arange(m, dtype=np.int32).reshape((q,) * n)
    act = np.empty((n, m), dtype=np.int32)
    for g in range(n):
        perm = pos[G.mul[G.inv[g], list(display)]]
        act[g].reshape((q,) * n)[...] = codes.transpose(np.argsort(perm))
    return ShiftSpace(group=G, q=q, display=display, gset=GSet(G, act, name=_shift_name(G, q)))


def shift_rank(G: FiniteGroup, q: int) -> RankCount:
    """The rank numbers of A^G, |A| = q, from the subgroup lattice alone.

    No configuration is built, so no cell budget applies; the lattice's
    budgets do.  A subgroup L fixes exactly the configurations constant on
    its right cosets, q^[G:L] of them, and Moebius inversion of these
    counts (`actions._orbits_by_moebius`) gives the orbits per stabilizer
    class, one class representative at a time.  The classes with orbits
    are the boxes, in the order `decompose` gives them on `build_shift(G, q)`.
    """
    _check_alphabet(q)
    lat = build_lattice(G)
    index = (G.order // lat.orders).tolist()
    power = cache(q.__pow__)
    alpha = [_orbits_by_moebius(lat, h, lambda k: power(index[k])) for h in lat.class_reps]
    boxes = [c for c, a in enumerate(alpha) if a]
    return RankCount(lat, tuple(boxes), tuple(alpha[c] for c in boxes))


@dataclass(frozen=True, eq=False)
class LocalRule:
    """A local rule mu: A^S -> A over a memory set S.

    Patterns are encoded base-q over S in display order, most significant
    first, matching the configuration encoding.  `memory` is stored in
    display order; `table` has one entry per pattern.
    """

    space: ShiftSpace
    memory: tuple[int, ...]
    table: np.ndarray

    def __post_init__(self):
        mem = [int(s) for s in self.memory]
        if len(set(mem)) != len(mem):
            raise DomainError("memory set has repeated elements")
        if mem and not all(0 <= s < self.space.group.order for s in mem):
            raise DomainError("memory set contains invalid group elements")
        mem.sort(key=lambda s: int(self.space.position_of[s]))
        object.__setattr__(self, "memory", tuple(mem))
        table = np.ascontiguousarray(self.table, dtype=np.int64)
        if table.shape != (self.space.q ** len(mem),):
            raise DomainError(
                f"rule table must cover all {self.space.q ** len(mem)} patterns, "
                f"got shape {table.shape}")
        if table.size and (table.min() < 0 or table.max() >= self.space.q):
            raise DomainError(f"rule values must lie in 0..{self.space.q - 1}")
        object.__setattr__(self, "table", table)

    def __repr__(self):
        return f"LocalRule(S={self.memory}, {self.table.size} patterns)"


def ca_from_rule(space: ShiftSpace, rule: LocalRule) -> EquivariantMap:
    """The global map tau(x)(g) = mu((x o R_g)|_S), R_g(h) = g h.

    That is tau(x)(g) = mu(x(g s_1), .., x(g s_k)), the memory s_1..s_k in
    display order.
    """
    if rule.space is not space and (
            rule.space.q != space.q or rule.space.display != space.display
            or rule.space.group.order != space.group.order
            or (rule.space.group.mul != space.group.mul).any()):
        raise DomainError("rule belongs to a different shift space")
    return EquivariantMap(space.gset, _ca_image(space, rule))


def _ca_image(space: ShiftSpace, rule: LocalRule) -> np.ndarray:
    """The image codes of `ca_from_rule`, for a rule on `space`.

    The image is summed on the (q,)*|G| configuration tensor, whose axis i
    is the digit of display[i].  Cell g = display[i] adds q^(|G|-1-i) mu:
    the rule table reshaped to (q,)*k and laid, as a view, on the axes of
    the cells g s_1, .., g s_k, broadcast over the other axes.  The action
    table is not read, and the int32 sums are exact as codes lie below
    q^|G| < 2^31.
    """
    n, q, k = space.group.order, space.q, len(rule.memory)
    local = rule.table.astype(np.int32).reshape((q,) * k)
    memory_axes = space.position_of[space.group.mul[np.ix_(space.display, rule.memory)]]
    image = np.zeros((q,) * n, dtype=np.int32)
    for weight, axes in zip(space.weights.tolist(), memory_axes.tolist()):
        shape = [1] * n
        for a in axes:
            shape[a] = q
        order = sorted(range(k), key=axes.__getitem__)
        image += (local * weight).transpose(order).reshape(shape)
    return image.reshape(-1)


def _identity_digits(space: ShiftSpace, tau: EquivariantMap) -> np.ndarray:
    """tau(x)(e) for every configuration x, in int32: the identity's digit
    of each image code (exact, as codes lie below q^|G| < 2^31)."""
    out = tau.image // int(space.weights[space.position_of[space.group.identity]])
    out %= space.q
    return out


def rule_from_map(space: ShiftSpace, tau) -> LocalRule:
    """Read off the full-memory local rule S = G, mu(x|_G) = tau(x)(e).

    Accepts an EquivariantMap on the shift or a raw image array (rejected
    if not equivariant).  `ca_from_rule` round-trips the result exactly.
    """
    tau = _as_shift_map(space, tau)
    return LocalRule(space=space, memory=space.display, table=_identity_digits(space, tau))


def _as_shift_map(space: ShiftSpace, tau) -> EquivariantMap:
    if isinstance(tau, EquivariantMap):
        if tau.gset is not space.gset and (
                tau.gset.size != space.size
                or (tau.gset.action != space.gset.action).any()):
            raise DomainError("map does not live on this shift space")
        return tau
    return EquivariantMap(space.gset, np.asarray(tau))


def minimal_memory_set(space: ShiftSpace, tau) -> tuple[int, ...]:
    """The unique minimal memory set of an equivariant map.

    The result is checked to be a valid memory set: the image of the rule
    `_minimal_rule` reads off must equal tau's own.  Equal to an
    equivariant map's, it needs no equivariance check of its own.
    """
    tau = _as_shift_map(space, tau)
    rule = _minimal_rule(space, tau)
    if (_ca_image(space, rule) != tau.image).any():
        raise PropertyFailure("dependence scan did not produce a valid memory set")
    return rule.memory


def _minimal_rule(space: ShiftSpace, tau: EquivariantMap) -> LocalRule:
    """tau's local rule over the minimal memory set.

    An element s belongs to the minimal set exactly when tau(x)(e)
    depends on x(s) for some configuration x; the scan toggles each
    coordinate over all of A^G.  The rule's table is the tensor of
    tau(x)(e) with every axis outside the memory at digit 0.  The tensor
    is freed on return, before the caller rebuilds the image.
    """
    n, q = space.group.order, space.q
    tensor = _identity_digits(space, tau).reshape((q,) * n)
    axes = [ax for ax in range(n)
            if (tensor != tensor.take([0], axis=ax)).any()]
    table = tensor[tuple(slice(None) if ax in axes else 0 for ax in range(n))].reshape(-1)
    return LocalRule(space=space, memory=tuple(space.display[ax] for ax in axes), table=table)
