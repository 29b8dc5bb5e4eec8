import itertools
import re
import types

import numpy as np
import pytest

from equirank import (
    BudgetExceeded,
    DomainError,
    FiniteGroup,
    direct_product,
    from_permutation_generators,
    make_cyclic,
    make_dihedral,
    make_symmetric,
)
from equirank.actions import GSet, coset_action
from equirank.groups import _BLOCK_CELLS, _group_from_permutations, _rule_break, _RowKeys
from equirank.lattice import build_lattice

import oracles

# The classic 6x6 table for the symmetric group on three letters, with the
# two 3-cycles written f, g and the transpositions a=(0 1), b=(0 2), c=(1 2).
CLASSIC_LETTERS = "eabcfg"
CLASSIC_TABLE = [
    "eabcfg",
    "aefgbc",
    "bgefca",
    "cfgeab",
    "fcabge",
    "gbcaef",
]
# position of each letter inside make_symmetric(3)'s lexicographic ordering
CLASSIC_TO_LEX = [0, 2, 5, 1, 4, 3]


def test_symmetric_three_matches_classic_table():
    G = make_symmetric(3)
    for r in range(6):
        for c in range(6):
            prod = G.multiply(CLASSIC_TO_LEX[r], CLASSIC_TO_LEX[c])
            letter = CLASSIC_LETTERS[CLASSIC_TO_LEX.index(prod)]
            assert letter == CLASSIC_TABLE[r][c]


def test_symmetric_three_labels():
    G = make_symmetric(3)
    assert G.labels == ("e", "(1 2)", "(0 1)", "(0 1 2)", "(0 2 1)", "(0 2)")
    assert G.identity == 0


def test_zoo_orders_and_axioms(zoo):
    expected = {"Z1": 1, "Z2": 2, "Z3": 3, "Z4": 4, "Z5": 5, "Z6": 6, "Z7": 7,
                "Z8": 8, "V4": 4, "S3": 6, "D4": 8, "Z4xZ2": 8, "Z2x2x2": 8, "Q8": 8}
    assert {k: g.order for k, g in zoo.items()} == expected
    for g in zoo.values():
        # construction already ran the axiom checks; spot-check closure anyway
        assert g.multiply(g.identity, g.order - 1) == g.order - 1


def test_element_orders(zoo):
    Z6 = zoo["Z6"]
    assert [Z6.element_order(k) for k in range(6)] == [1, 6, 3, 2, 3, 6]
    Q8 = zoo["Q8"]
    assert [Q8.element_order(k) for k in range(8)] == [1, 2, 4, 4, 4, 4, 4, 4]
    D4 = zoo["D4"]
    assert sorted(D4.element_order(k) for k in range(8)) == [1, 2, 2, 2, 2, 2, 4, 4]


def test_quaternion_multiplication_rules(zoo):
    Q8 = zoo["Q8"]
    lab = {v: k for k, v in enumerate(Q8.labels)}
    assert Q8.multiply(lab["i"], lab["j"]) == lab["k"]
    assert Q8.multiply(lab["j"], lab["i"]) == lab["-k"]
    assert Q8.multiply(lab["i"], lab["i"]) == lab["-1"]
    assert Q8.multiply(lab["k"], lab["i"]) == lab["j"]


def test_inverse_antihomomorphism(zoo):
    for G in zoo.values():
        mul, inv = G.mul, G.inv
        lhs = inv[mul]
        rhs = mul[np.ix_(inv, inv)].T
        assert (lhs == rhs).all()


def test_regular_representation_rebuild(zoo):
    for name in ("Z6", "S3", "Q8"):
        G = zoo[name]
        perms = [tuple(int(v) for v in G.mul[g]) for g in range(G.order)]
        H = from_permutation_generators(G.order, perms)
        assert H.order == G.order
        assert sorted(H.element_order(k) for k in range(H.order)) == \
            sorted(G.element_order(k) for k in range(G.order))


def test_points_every_generator_fixes_leave_the_table_unchanged():
    # the Frobenius group of order 21 on 7 points; the same with 57 more
    # points that every element fixes, after the moved ones or among them
    cycle, frobenius = (1, 2, 3, 4, 5, 6, 0), (0, 2, 4, 6, 1, 3, 5)
    small = from_permutation_generators(7, [cycle, frobenius])
    wide = from_permutation_generators(64, [p + tuple(range(7, 64)) for p in (cycle, frobenius)])
    spots = [0, 9, 10, 30, 31, 50, 63]

    def spread(p):
        out = list(range(64))
        for a, b in enumerate(p):
            out[spots[a]] = spots[b]
        return tuple(out)

    spread_out = from_permutation_generators(64, [spread(cycle), spread(frobenius)])
    assert small.order == 21
    assert wide.labels == small.labels
    for G in (wide, spread_out):
        assert np.array_equal(G.mul, small.mul) and np.array_equal(G.inv, small.inv)
        assert G.identity == small.identity
    assert spread_out.labels == tuple(
        re.sub(r"\d+", lambda m: str(spots[int(m.group())]), label) for label in small.labels)


def _even(p) -> bool:
    return sum(a > b for a, b in itertools.combinations(p, 2)) % 2 == 0


FROBENIUS_SPOTS = [0, 9, 10, 30, 31, 50, 63]


def _spread(p: tuple[int, ...]) -> tuple[int, ...]:
    """A permutation of 0..6 acting on the points FROBENIUS_SPOTS of 0..63."""
    out = list(range(64))
    for a, b in enumerate(p):
        out[FROBENIUS_SPOTS[a]] = FROBENIUS_SPOTS[b]
    return tuple(out)


# x -> a x + b mod 7 for a in {1, 2, 4}: the Frobenius group of order 21
FROBENIUS = [tuple((a * x + b) % 7 for x in range(7)) for a in (1, 2, 4) for b in range(7)]


def _dihedral_perms(n: int) -> list[tuple[int, ...]]:
    return ([tuple((i + k) % n for i in range(n)) for k in range(n)]
            + [tuple((k - i) % n for i in range(n)) for k in range(n)])


# (name, a function making the group, one making its element list in order)
PERMUTATION_GROUPS = (
    [(f"S{n}", lambda n=n: make_symmetric(n), lambda n=n: list(itertools.permutations(range(n))))
     for n in range(1, 7)]
    + [(f"D{n}", lambda n=n: make_dihedral(n), lambda n=n: _dihedral_perms(n))
       for n in range(3, 41)]
    + [("A5", lambda: from_permutation_generators(5, [(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)]),
        lambda: sorted(filter(_even, itertools.permutations(range(5))))),
       ("A6", lambda: from_permutation_generators(6, [(1, 2, 0, 3, 4, 5), (0, 2, 3, 4, 5, 1)]),
        lambda: sorted(filter(_even, itertools.permutations(range(6))))),
       ("F21", lambda: from_permutation_generators(7, FROBENIUS[1:3] + FROBENIUS[7:8]),
        lambda: sorted(FROBENIUS)),
       ("F21 on 64 points",
        lambda: from_permutation_generators(64, [_spread(FROBENIUS[1]), _spread(FROBENIUS[7])]),
        lambda: sorted(map(_spread, FROBENIUS))),
       # every element given, (0 1) and the 5-cycle 400 times each first
       ("S5 from 920 generators",
        lambda: from_permutation_generators(5, [(1, 0, 2, 3, 4)] * 400 + [(1, 2, 3, 4, 0)] * 400
                                            + list(itertools.permutations(range(5)))),
        lambda: list(itertools.permutations(range(5))))]
)


@pytest.mark.parametrize("build, perms", [case[1:] for case in PERMUTATION_GROUPS],
                         ids=[case[0] for case in PERMUTATION_GROUPS])
def test_permutation_group_tables_match_product_oracle(build, perms):
    G = build()
    mul, inv, identity = oracles.permutation_product_table(perms())
    assert np.array_equal(G.mul, mul)
    assert np.array_equal(G.inv, inv)
    assert G.identity == identity


def test_generating_list_must_reach_every_element():
    S3 = sorted(itertools.permutations(range(3)))
    assert _group_from_permutations(S3, [(1, 0, 2), (1, 2, 0)], "S3").order == 6
    with pytest.raises(DomainError, match="generators do not reach every element"):
        _group_from_permutations(S3, [(1, 0, 2)], "S3")         # <(0 1)> has order 2
    with pytest.raises(DomainError, match="generators do not reach every element"):
        _group_from_permutations(S3, [], "S3")


def test_permutations_not_closed_under_composition_rejected():
    S3 = sorted(itertools.permutations(range(3)))
    with pytest.raises(DomainError, match="not closed under composition"):
        _group_from_permutations(S3[:5], [(1, 0, 2), (1, 2, 0)], "")
    # e, (0 1), (1 2), (1 2)(0 1) = (0 2 1): closed under p -> p (0 1), but
    # (0 1)(1 2) = (0 1 2) is missing
    with pytest.raises(DomainError, match="not closed under composition"):
        _group_from_permutations([(0, 1, 2), (0, 2, 1), (1, 0, 2), (2, 0, 1)], [(1, 0, 2)], "")
    # a generator outside the list
    with pytest.raises(DomainError, match="not closed under composition"):
        _group_from_permutations([(0, 1, 2), (1, 0, 2)], [(0, 2, 1)], "")


def _build_error(build) -> str:
    with pytest.raises(DomainError) as info:
        build()
    return str(info.value)


def test_blocked_builds_and_checks_match_unblocked(monkeypatch):
    import equirank.groups

    builds = [build for name, build, _ in PERMUTATION_GROUPS
              if name in ("S5", "D9", "A5", "F21 on 64 points")]
    whole = [build() for build in builds]
    S4 = make_symmetric(4)
    X = coset_action(S4, build_lattice(S4).subgroups[1])          # 12 points
    broken = X.action.copy()
    broken[20, [3, 4]] = broken[20, [4, 3]]                       # row 20 is still a permutation
    bad_builds = [
        lambda: FiniteGroup(order=6, mul=np.array(LOOP_FAILING_AT_SECOND_GENERATOR), identity=0,
                            inv=np.array([0, 1, 5, 4, 3, 2])),
        lambda: FiniteGroup(order=5, mul=np.array(NON_ASSOCIATIVE_LOOP), identity=0,
                            inv=np.arange(5)),
        lambda: GSet(S4, broken),
        lambda: _group_from_permutations([(0, 1, 2), (0, 2, 1), (1, 0, 2), (2, 0, 1)],
                                         [(1, 0, 2)], ""),
    ]
    errors = [_build_error(build) for build in bad_builds]
    bad_g, bad_s = oracles.first_generator_violation(S4.mul, broken, S4.generators)
    assert errors[2] == f"action is not compatible with the product at ({bad_g},{bad_s})"
    # a few dozen cells a block: many blocks of generator products per
    # group build, one table row a block in the fill and in Light's test,
    # three in the action check on 12 points
    monkeypatch.setattr(equirank.groups, "_BLOCK_CELLS", 40)
    for build, G in zip(builds, whole):
        H = build()
        assert np.array_equal(H.mul, G.mul) and np.array_equal(H.inv, G.inv)
        assert (H.identity, H.labels) == (G.identity, G.labels)
    assert np.array_equal(GSet(S4, X.action).action, X.action)
    assert [_build_error(build) for build in bad_builds] == errors


def test_dihedral_small_cases():
    assert make_dihedral(1).order == 2
    assert make_dihedral(2).order == 4
    D3 = make_dihedral(3)
    assert sorted(D3.element_order(k) for k in range(6)) == [1, 2, 2, 2, 3, 3]


def test_direct_product_labels():
    V4 = direct_product(make_cyclic(2), make_cyclic(2))
    assert V4.labels == ("(0,0)", "(0,1)", "(1,0)", "(1,1)")
    assert V4.name == "Z2xZ2"
    assert all(V4.element_order(k) in (1, 2) for k in range(4))


def test_conjugation_golden():
    G = make_symmetric(3)
    # conj[g, h] = g h g^-1, one row per conjugating element
    conj = G.mul[G.mul, G.inv[:, None]]
    # conjugating the 3-cycle (0 2 1) by the transposition (0 1) yields (0 1 2)
    assert conj[2, 4] == 3 == G.mul[G.mul[2], G.inv[2]][4]
    # g^-1 (0 1) g for g = (0 2 1) is (1 2)
    assert conj[G.inv[4], 2] == 1


def test_order_budget():
    with pytest.raises(BudgetExceeded):
        make_cyclic(1_000_000)
    with pytest.raises(BudgetExceeded):
        from_permutation_generators(40, [tuple(range(1, 40)) + (0,)], budget=10)
    # orders past the int-to-str digit limit are named by a power of ten
    with pytest.raises(BudgetExceeded, match=r"order at least 10\^4999 exceeds"):
        make_cyclic(10 ** 5000)
    with pytest.raises(BudgetExceeded, match=r"order 8! exceeds budget 10080"):
        make_symmetric(8)


def test_associativity_check_names_the_first_bad_pair_past_the_first_block():
    G = make_dihedral(300)
    rows_per_block = _BLOCK_CELLS // G.order
    assert rows_per_block < G.order
    mul = G.mul.copy()
    mul[500, 7] = (mul[500, 7] + 1) % G.order      # no identity entry made or lost
    assert G.identity not in (G.mul[500, 7], mul[500, 7])
    bad = types.SimpleNamespace(order=G.order, mul=mul, identity=G.identity, inv=G.inv)
    bad.generators = FiniteGroup.generators.func(bad)
    bad_g, bad_s = oracles.first_generator_violation(mul, mul, bad.generators)
    assert bad_g >= rows_per_block
    assert _rule_break(bad, mul) == (bad_g, bad_s)
    with pytest.raises(DomainError, match=f"associativity fails for middle factor {bad_s}$"):
        FiniteGroup(order=G.order, mul=mul, identity=G.identity, inv=G.inv)


def test_bad_tables_rejected():
    with pytest.raises(DomainError):
        FiniteGroup(order=2, mul=np.zeros((2, 2), dtype=int), identity=0,
                    inv=np.array([0, 1]))
    good = make_cyclic(2)
    with pytest.raises(DomainError):
        FiniteGroup(order=2, mul=good.mul, identity=0, inv=np.array([1, 0]))
    with pytest.raises(DomainError, match="out of range"):       # Z2's table once cut to int32
        FiniteGroup(order=2, mul=good.mul + np.array([[0, 0], [0, 2**32]]), identity=0,
                    inv=np.array([0, 1]))
    with pytest.raises(DomainError):
        from_permutation_generators(3, [(0, 0, 1)])


# A Latin square with two-sided identity 0 in which every element is its
# own inverse, but (ab)c != a(bc) for 36 of the 125 triples.
NON_ASSOCIATIVE_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


# Inverses 0, 1, 5, 4, 3, 2.  The greedy generators are 1 and 2; every
# triple with middle factor 1 associates, so only the second generator
# exposes the 32 failing triples.
LOOP_FAILING_AT_SECOND_GENERATOR = [
    [0, 1, 2, 3, 4, 5],
    [1, 0, 3, 2, 5, 4],
    [2, 3, 5, 4, 1, 0],
    [3, 2, 4, 5, 0, 1],
    [4, 5, 1, 0, 3, 2],
    [5, 4, 0, 1, 2, 3],
]


# Identity 0 and every element its own inverse, but row 1 repeats 1: not a
# Latin square.  No Latin-square check runs; associativity rejects it.
NON_LATIN_TABLE = [
    [0, 1, 2],
    [1, 0, 1],
    [2, 1, 0],
]


@pytest.mark.parametrize("table, inv, failures", [
    (NON_ASSOCIATIVE_LOOP, [0, 1, 2, 3, 4], 36),
    (LOOP_FAILING_AT_SECOND_GENERATOR, [0, 1, 5, 4, 3, 2], 32),
    (NON_LATIN_TABLE, [0, 1, 2], 2),
])
def test_non_associative_loop_rejected(table, inv, failures):
    mul = np.array(table)
    assert oracles.associativity_failures(mul) == failures
    with pytest.raises(DomainError, match="associativity"):
        FiniteGroup(order=len(inv), mul=mul, identity=0, inv=np.array(inv))


def test_generators_generate(zoo):
    groups = dict(zoo, S4=make_symmetric(4), S5=make_symmetric(5), D6=make_dihedral(6),
                  Z2xS4=direct_product(make_cyclic(2), make_symmetric(4)))
    for name, G in groups.items():
        table = G.mul.tolist()
        gens = G.generators
        assert oracles.generated_elements(table, G.identity, gens) == frozenset(range(G.order))
        # greedy: no generator is a product of the earlier ones
        for k, g in enumerate(gens):
            assert g not in oracles.generated_elements(table, G.identity, gens[:k]), name
        assert 2 ** len(gens) <= G.order, name


@pytest.mark.parametrize("m", [1, 2, 5, 16, 17, 40, 300])
def test_row_keys_sort_like_rows(m):
    # one uint64 word up to 16 points, several words (void keys) beyond
    rng = np.random.default_rng(m)
    rows = rng.integers(0, max(m, 1), size=(200, m))
    rows[100:] = rows[:100]                    # ties must compare equal
    keys = _RowKeys([1 << max(1, (m - 1).bit_length())] * m)
    packed = keys.pack(rows)
    assert (keys.unpack(packed, np.int64) == rows).all()
    by_key = np.argsort(packed, kind="stable")
    by_row = np.lexsort(rows.T[::-1])
    assert (rows[by_key] == rows[by_row]).all()
    assert len(np.unique(packed)) == len(np.unique(rows, axis=0))


@pytest.mark.parametrize("length", [1, 8, 64, 65, 130])
def test_bit_row_keys_sort_like_rows(length):
    # fixed-point flags over |G| elements: one bit each, 64 to a word
    rng = np.random.default_rng(length)
    rows = rng.integers(0, 2, size=(200, length)).astype(bool)
    rows[100:] = rows[:100]
    keys = _RowKeys([2] * length)
    packed = keys.pack(rows)
    assert (keys.unpack(packed, bool) == rows).all()
    assert (rows[np.argsort(packed, kind="stable")] == rows[np.lexsort(rows.T[::-1])]).all()


@pytest.mark.parametrize("radices, words, dtype", [
    ([6] * 6, 1, np.uint32),                   # 6^6 = 46,656: one uint32 word
    ([1 << 16, 1 << 16], 1, np.uint32),        # exactly 2^32
    ([1 << 16, 1 << 16, 2], 1, np.uint64),     # just past 2^32
    ([1 << 32, 1 << 32], 1, np.uint64),        # exactly 2^64
    ([1 << 32, 1 << 32, 2], 2, np.uint64),     # just past 2^64: a second word
    ([3, 7, 1, 5, 1 << 20, 11, 1 << 30, 9, 2, 13], 2, np.uint64),
])
def test_mixed_radix_keys_sort_like_rows(radices, words, dtype):
    # per-column radices: keys are the mixed-radix value, words split
    # greedily at 2^64, and the largest digits round-trip exactly
    rng = np.random.default_rng(len(radices))
    rows = np.column_stack([rng.integers(0, r, size=200, dtype=np.uint64) for r in radices])
    rows[0] = [r - 1 for r in radices]
    rows[1] = 0
    rows[100:] = rows[:100]
    keys = _RowKeys(radices)
    assert keys.words == words and keys.dtype == dtype
    packed = keys.pack(rows)
    assert (keys.unpack(packed, np.uint64) == rows).all()
    assert (rows[np.argsort(packed, kind="stable")] == rows[np.lexsort(rows.T[::-1])]).all()
    if words == 1:
        weights = [int(np.prod(radices[c + 1:], dtype=object)) for c in range(len(radices))]
        assert [int(k) for k in packed[:2]] == [sum(int(d) * w for d, w in zip(r, weights))
                                                for r in rows[:2]]
