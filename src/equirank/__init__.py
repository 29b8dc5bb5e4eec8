"""Structure of the endomorphism monoid of a finite group action.

The package computes, for a finite group G acting on a finite set X, the
decomposition of the equivariant self-maps of X into boxes keyed by
stabilizer conjugacy class, the order of the induced wreath products, a
generating set extending the equivariant automorphisms, and the exact
number of extra generators needed (the relative rank).  A small cellular
automata layer realizes the shift actions of G on configuration spaces.
"""

from .errors import (
    BudgetExceeded,
    ClosureCapExceeded,
    DomainError,
    EquirankError,
    PropertyFailure,
    SpecStringError,
    StabilizerError,
)
from .groups import (
    DEFAULT_GROUP_BUDGET,
    FiniteGroup,
    direct_product,
    from_permutation_generators,
    make_cyclic,
    make_dihedral,
    make_symmetric,
)
from .actions import (
    BoxDecomposition,
    GSet,
    alpha_by_moebius,
    aut_orbits_in_box,
    burnside_orbit_count,
    coset_action,
    decompose,
    disjoint_union,
    restrict_to_invariant,
    trivial_gset,
)
from .lattice import (
    Subgroup,
    SubgroupLattice,
    build_lattice,
    generated_subgroup,
)
from .transform import (
    EquivariantMap,
    MonoidClosure,
    closure,
    compose,
    end_monoid_order,
    enumerate_aut,
    enumerate_end,
    identity_map,
    is_equivariant,
    map_rank,
    point_push,
    point_swap,
)
from .rank import (
    CollapseType,
    RankReport,
    WreathFactor,
    aut_generators,
    collapse_type,
    collapse_type_census,
    decompose_by_boxes,
    is_elementary_collapse,
    recompose,
    relative_rank,
    wreath_factorize,
    wreath_multiply,
    wreath_order_checks,
)
from .shift import (
    LocalRule,
    ShiftSpace,
    build_shift,
    ca_from_rule,
    minimal_memory_set,
    rule_from_map,
    shift_rank,
)

__all__ = [
    "BudgetExceeded",
    "ClosureCapExceeded",
    "DomainError",
    "EquirankError",
    "PropertyFailure",
    "SpecStringError",
    "StabilizerError",
    "DEFAULT_GROUP_BUDGET",
    "FiniteGroup",
    "direct_product",
    "from_permutation_generators",
    "make_cyclic",
    "make_dihedral",
    "make_symmetric",
    "BoxDecomposition",
    "GSet",
    "alpha_by_moebius",
    "aut_orbits_in_box",
    "burnside_orbit_count",
    "coset_action",
    "decompose",
    "disjoint_union",
    "restrict_to_invariant",
    "trivial_gset",
    "Subgroup",
    "SubgroupLattice",
    "build_lattice",
    "generated_subgroup",
    "EquivariantMap",
    "MonoidClosure",
    "closure",
    "compose",
    "end_monoid_order",
    "enumerate_aut",
    "enumerate_end",
    "identity_map",
    "is_equivariant",
    "map_rank",
    "point_push",
    "point_swap",
    "CollapseType",
    "RankReport",
    "WreathFactor",
    "aut_generators",
    "collapse_type",
    "collapse_type_census",
    "decompose_by_boxes",
    "is_elementary_collapse",
    "recompose",
    "relative_rank",
    "wreath_factorize",
    "wreath_multiply",
    "wreath_order_checks",
    "LocalRule",
    "ShiftSpace",
    "build_shift",
    "ca_from_rule",
    "minimal_memory_set",
    "rule_from_map",
    "shift_rank",
]

__version__ = "0.1.0"
