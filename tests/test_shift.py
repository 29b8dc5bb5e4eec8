"""Shift spaces, configuration encoding, and cellular automata."""

import functools
import itertools
import math
import time
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import equirank.shift
from equirank import (
    BudgetExceeded,
    DomainError,
    EquivariantMap,
    GSet,
    LocalRule,
    PropertyFailure,
    build_shift,
    ca_from_rule,
    compose,
    direct_product,
    enumerate_aut,
    end_monoid_order,
    enumerate_end,
    identity_map,
    make_cyclic,
    make_dihedral,
    make_symmetric,
    map_rank,
    minimal_memory_set,
    rule_from_map,
)
from equirank.actions import DEFAULT_CELL_BUDGET
from equirank.groups import _POINT_BLOCK, _count_text
from equirank.shift import _shift_size

import oracles


@pytest.fixture(scope="module")
def z6():
    return build_shift(make_cyclic(6), 2)


@pytest.fixture(scope="module")
def s3():
    return build_shift(make_symmetric(3), 2)


@pytest.fixture(scope="module")
def z4():
    return build_shift(make_cyclic(4), 2)


def test_end_order_of_a_full_shift_is_q_to_the_q_to_the_order():
    # a CA on A^G is fixed by its local rule A^G -> A, so |End(A^G)| = q^(q^|G|);
    # every space of these groups within the cell budget, for q in {2, 3, 4, 5, 7}
    groups = [make_cyclic(n) for n in range(1, 7)] + [
        make_symmetric(3), make_dihedral(4), direct_product(make_cyclic(2), make_cyclic(2))]
    spaces = [(G, q) for G in groups for q in (2, 3, 4, 5, 7)
              if G.order * q ** G.order <= DEFAULT_CELL_BUDGET]
    assert len(spaces) == 43
    for G, q in spaces:
        assert end_monoid_order(build_shift(G, q).gset) == q ** q ** G.order, (G.name, q)


def test_encode_decode_golden(z6, z4):
    assert z6.encode((0, 0, 0, 0, 0, 0)) == 0
    assert z6.encode((0, 1, 1, 0, 1, 0)) == 26
    assert z6.decode(26) == (0, 1, 1, 0, 1, 0)
    assert z4.encode((0, 0, 0, 1)) == 1
    orbit_of_point = z4.gset.orbit_of_point
    assert np.flatnonzero(orbit_of_point == orbit_of_point[1]).tolist() == [1, 2, 4, 8]
    with pytest.raises(DomainError):
        z4.encode((0, 0, 2, 0))            # digit out of alphabet
    with pytest.raises(DomainError):
        z4.encode((0, 0, 0))               # wrong length
    with pytest.raises(DomainError):
        z4.decode(16)


def test_shift_action_golden(z6, s3):
    assert z6.gset.apply(1, 6) == 3
    assert z6.decode(3) == (0, 0, 0, 0, 1, 1)
    # display order for S3 is e, a, b, c, f, g; a has element index 2
    assert s3.display == (0, 2, 5, 1, 4, 3)
    assert s3.decode(s3.gset.apply(2, 6)) == (0, 0, 1, 0, 0, 1)
    assert (s3.gset.action[0] == np.arange(64)).all()


def test_build_shift_guards():
    with pytest.raises(DomainError):
        build_shift(make_cyclic(3), 1)
    with pytest.raises(BudgetExceeded):
        build_shift(make_cyclic(6), 10)    # 6 * 10^6 cells
    with pytest.raises(DomainError):
        build_shift(make_cyclic(3), 2, display=(0, 0, 1))


def test_shift_size_refuses_before_the_power():
    # q^|G| for q = 10^639 and |G| = 10,080 has 6.4 million digits; the
    # refusal bounds it from q's bit length instead of computing it.  Only
    # the order is read, so a stand-in spares the test a 10,080-element table
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match=r"^shift space of at least 10\^6438959 "
                       r"configurations \(at least 10\^6438963 cells\) exceeds budget 1000000$"):
        _shift_size(types.SimpleNamespace(order=10_080), 10 ** 639)
    assert time.perf_counter() - start < 0.5
    with pytest.raises(BudgetExceeded, match=r"^shift space of 16777216 configurations "
                       r"\(402653184 cells\) exceeds budget 1000000$"):
        _shift_size(make_symmetric(4), 2)
    # while q^|G| has at most 4,300 digits the message holds the exact
    # counts (or, for the cells past 4,300 digits, their own bound); past
    # that, both bounds come from q's bit length, power computed or not
    for q, n in [(2, 14_284), (2, 14_285), (3, 9_010), (3, 9_020), (10, 4_300), (10, 4_301),
                 (1000, 1_433), (1000, 1_434)]:
        m = q ** n
        with pytest.raises(BudgetExceeded) as info:
            _shift_size(types.SimpleNamespace(order=n), q)
        if m < 10 ** 4300:
            assert str(info.value) == (f"shift space of {m} configurations "
                                       f"({_count_text(m * n)} cells) exceeds budget 1000000")
        else:
            bits = n * (q.bit_length() - 1)
            k, cells = (math.floor(b * math.log10(2)) for b in (bits, bits + n.bit_length() - 1))
            assert str(info.value) == (f"shift space of at least 10^{k} configurations "
                                       f"(at least 10^{cells} cells) exceeds budget 1000000")


def test_shift_tables_match_oracle(zoo):
    cases = [(make_cyclic(n), 2, None) for n in range(2, 7)]
    cases += [(make_cyclic(2), 3, None), (make_cyclic(2), 4, None), (make_symmetric(3), 2, None)]
    cases += [(zoo[name], 2, None) for name in ("D4", "V4", "Q8")]
    cases += [(make_cyclic(3), 3, None), (make_symmetric(3), 2, (5, 3, 1, 0, 2, 4)),
              (zoo["D4"], 2, (6, 1, 7, 0, 3, 5, 2, 4)), (make_cyclic(4), 3, (2, 0, 3, 1))]
    for G, q, display in cases:
        space = build_shift(G, q, display=display)
        expected = oracles.shift_action_table(G.mul, G.inv, q, list(space.display))
        assert (space.gset.action == expected).all()


# every shift space the benchmark and CI build, and the shuffled displays
# of test_shift_tables_match_oracle, as (group maker, q, display): built in
# the test, so that a fault fails the space it is in, not the collection
_BUILT_SPACES = {
    "Z1 q=6": (lambda: make_cyclic(1), 6, None),
    "Z1 q=7": (lambda: make_cyclic(1), 7, None),
    "Z3 q=2": (lambda: make_cyclic(3), 2, None),
    "Z4 q=2": (lambda: make_cyclic(4), 2, None),
    "Z2xZ2 q=2": (lambda: direct_product(make_cyclic(2), make_cyclic(2)), 2, None),
    "S3 q=2": (lambda: make_symmetric(3), 2, None),
    "S3 q=7": (lambda: make_symmetric(3), 7, None),
    "D4 q=3": (lambda: make_dihedral(4), 3, None),
    "D4 q=4": (lambda: make_dihedral(4), 4, None),
    "Z6 q=7": (lambda: make_cyclic(6), 7, None),
    "S3 q=2 shuffled": (lambda: make_symmetric(3), 2, (5, 3, 1, 0, 2, 4)),
    "D4 q=2 shuffled": (lambda: make_dihedral(4), 2, (6, 1, 7, 0, 3, 5, 2, 4)),
    "Z4 q=3 shuffled": (lambda: make_cyclic(4), 3, (2, 0, 3, 1)),
}


@pytest.mark.parametrize("name", sorted(_BUILT_SPACES))
def test_shift_tables_match_horner_oracle(name):
    make, q, display = _BUILT_SPACES[name]
    group = make()
    space = build_shift(group, q, display=display)
    expected = oracles.shift_action_by_horner(group.mul, group.inv, q, list(space.display))
    assert np.array_equal(space.gset.action, expected)


@pytest.mark.parametrize("group, q", [(make_cyclic(4), 3), (make_symmetric(3), 2),
                                      (make_dihedral(4), 2)])
def test_shift_row_check_names_the_corrupted_configuration(group, q):
    space = build_shift(group, q)
    expected = oracles.shift_action_table(group.mul, group.inv, q, list(space.display))
    rng = np.random.default_rng(q)
    for g in group.generators:
        for x in rng.choice(space.size, size=5, replace=False).tolist():
            act = space.gset.action.copy()
            act[g, x] = (act[g, x] + 1) % space.size
            assert oracles.action_violation(group.mul, act, group.identity) is not None
            assert np.flatnonzero(act[g] != expected[g]).tolist() == [x]
            # the action check every table passes refuses it
            bad_g, bad_s = oracles.first_generator_violation(group.mul, act, group.generators)
            with pytest.raises(DomainError) as info:
                GSet(group, act)
            assert str(info.value) == (f"action is not compatible with the product "
                                       f"at ({bad_g},{bad_s})")


def test_local_rule_validation(z4):
    LocalRule(space=z4, memory=(), table=[1])
    with pytest.raises(DomainError):
        LocalRule(space=z4, memory=(0, 0), table=[0, 1, 1, 0])
    with pytest.raises(DomainError):
        LocalRule(space=z4, memory=(0, 9), table=[0, 1, 1, 0])
    with pytest.raises(DomainError):
        LocalRule(space=z4, memory=(0, 1), table=[0, 1, 1])
    with pytest.raises(DomainError):
        LocalRule(space=z4, memory=(0, 1), table=[0, 1, 1, 2])


def test_constant_and_identity_rules(z4):
    const = ca_from_rule(z4, LocalRule(space=z4, memory=(), table=[1]))
    assert (const.image == z4.encode((1, 1, 1, 1))).all()
    ident = ca_from_rule(z4, LocalRule(space=z4, memory=(0,), table=[0, 1]))
    assert ident == identity_map(z4.gset)


def test_xor_rule(z4):
    xor = LocalRule(space=z4, memory=(0, 1), table=[0, 1, 1, 0])
    tau = ca_from_rule(z4, xor)
    # hand expansion of tau(x)(g) = x(g) xor x(g+1)
    expected = []
    for c in range(16):
        d = z4.decode(c)
        expected.append(z4.encode([d[i] ^ d[(i + 1) % 4] for i in range(4)]))
    assert tau.as_tuple() == tuple(expected)
    assert not tau.is_bijective() and map_rank(tau) == 8
    assert minimal_memory_set(z4, tau) == (0, 1)



def test_map_rank_counts_the_image_over_several_point_blocks():
    # Z1 acts trivially, so every image is equivariant; its points are
    # marked three point blocks and a few points at a time
    space = build_shift(make_cyclic(1), 3 * _POINT_BLOCK + 5)
    image = np.random.default_rng(3).integers(0, space.size // 2, space.size)
    assert map_rank(EquivariantMap(space.gset, image)) == len(np.unique(image))

def test_ca_matches_pointwise_oracle(s3):
    rule = LocalRule(space=s3, memory=(0, 2), table=[0, 1, 1, 1])
    tau = ca_from_rule(s3, rule)
    table = {(a, b): int(v) for (a, b), v in
             zip([(0, 0), (0, 1), (1, 0), (1, 1)], rule.table)}
    for c in range(64):
        digits = s3.decode(c)
        config = {s3.display[i]: digits[i] for i in range(6)}
        out = oracles.cellular_step(s3.group.mul, 2, list(s3.display),
                                    [0, 2], table, config)
        assert s3.decode(int(tau.image[c])) == tuple(out[h] for h in s3.display)


# q = 2 and 3, and non-default displays: a cell's memory axes come from
# the display and from g s (not s g).  Built on first use by the `ca_space`
# fixture, so that a fault fails the space it is in, not the collection.
_CA_SPACES = {
    "Z4 q=2": (lambda: make_cyclic(4), 2, None),
    "S3 q=2": (lambda: make_symmetric(3), 2, None),
    "D4 q=2": (lambda: make_dihedral(4), 2, None),
    "Z3 q=3": (lambda: make_cyclic(3), 3, None),
    "S3 q=3": (lambda: make_symmetric(3), 3, None),
    "S3 q=2 shuffled": (lambda: make_symmetric(3), 2, (5, 3, 1, 0, 2, 4)),
    "D4 q=2 shuffled": (lambda: make_dihedral(4), 2, (6, 1, 7, 0, 3, 5, 2, 4)),
}


@pytest.fixture(scope="module")
def ca_space():
    """The shift space of a `_CA_SPACES` name, built once per module."""
    @functools.cache
    def build(name):
        make, q, display = _CA_SPACES[name]
        return build_shift(make(), q, display=display)
    return build


@given(st.sampled_from(sorted(_CA_SPACES)), st.data())
@settings(max_examples=60, deadline=None)
def test_ca_from_rule_matches_pointwise_oracle(ca_space, name, data):
    space = ca_space(name)
    n, q = space.group.order, space.q
    memory = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=4))
    table = data.draw(st.lists(st.integers(0, q - 1), min_size=q ** len(memory),
                               max_size=q ** len(memory)))
    rule = LocalRule(space=space, memory=tuple(memory), table=table)
    patterns = itertools.product(range(q), repeat=len(rule.memory))
    lookup = dict(zip(patterns, rule.table.tolist()))
    tau = ca_from_rule(space, rule)
    for c in range(space.size):
        digits = space.decode(c)
        config = {space.display[i]: digits[i] for i in range(n)}
        out = oracles.cellular_step(space.group.mul, q, list(space.display),
                                    memory, lookup, config)
        assert space.decode(int(tau.image[c])) == tuple(out[h] for h in space.display)


def test_rule_space_mismatch(z4, z6):
    rule = LocalRule(space=z4, memory=(0, 1), table=[0, 1, 1, 0])
    with pytest.raises(DomainError):
        ca_from_rule(z6, rule)


def test_rule_from_map_roundtrip(z4):
    ident = identity_map(z4.gset)
    full = rule_from_map(z4, ident)
    assert full.memory == z4.display
    assert ca_from_rule(z4, full) == ident
    with pytest.raises(DomainError):
        rule_from_map(z4, np.array([1, 0] + list(range(2, 16))))


def test_every_endomorphism_is_a_cellular_automaton():
    for space in (build_shift(make_cyclic(2), 2), build_shift(make_cyclic(3), 2)):
        end = enumerate_end(space.gset)
        for img in end.images:
            tau = EquivariantMap(space.gset, img)
            assert ca_from_rule(space, rule_from_map(space, tau)) == tau


def test_bijective_ca_has_ca_inverse():
    space = build_shift(make_cyclic(3), 2)
    ident = identity_map(space.gset)
    for img in enumerate_aut(space.gset).images:
        tau = EquivariantMap(space.gset, img)
        inverse = EquivariantMap(space.gset, np.argsort(img))
        assert compose(tau, inverse) == ident == compose(inverse, tau)
        assert ca_from_rule(space, rule_from_map(space, inverse)) == inverse


def test_minimal_memory_golden(z4):
    assert minimal_memory_set(z4, identity_map(z4.gset)) == (0,)
    const = ca_from_rule(z4, LocalRule(space=z4, memory=(), table=[0]))
    assert minimal_memory_set(z4, const) == ()
    # a rule declared on a larger memory set than it uses gets shrunk
    padded = LocalRule(space=z4, memory=(0, 1, 2),
                       table=[0, 0, 1, 1, 1, 1, 0, 0])   # xor of first two digits
    assert minimal_memory_set(z4, ca_from_rule(z4, padded)) == (0, 1)


def test_minimal_memory_refuses_a_rebuild_that_differs(z4, monkeypatch):
    tau = ca_from_rule(z4, LocalRule(space=z4, memory=(0, 1), table=[0, 1, 1, 0]))
    image = equirank.shift._ca_image

    def off_by_one(space, rule):
        out = image(space, rule)
        out[5] ^= 1
        return out

    monkeypatch.setattr(equirank.shift, "_ca_image", off_by_one)
    with pytest.raises(PropertyFailure,
                       match="^dependence scan did not produce a valid memory set$"):
        minimal_memory_set(z4, tau)


def test_minimal_memory_is_contained_in_declared_memory(s3):
    rng = np.random.default_rng(5)
    for _ in range(10):
        memory = tuple(sorted(rng.choice(6, rng.integers(0, 4), replace=False)))
        table = rng.integers(0, 2, 2 ** len(memory))
        rule = LocalRule(space=s3, memory=memory, table=table)
        minimal = minimal_memory_set(s3, ca_from_rule(s3, rule))
        assert set(minimal) <= set(rule.memory)


@given(code=st.integers(min_value=0, max_value=3 ** 4 - 1))
@settings(max_examples=60, deadline=None)
def test_encode_decode_roundtrip(code):
    space = build_shift(make_cyclic(4), 3)
    assert space.encode(space.decode(code)) == code
