"""Command-line front end.

Spec strings name a group (``Z6``, ``S3``, ``D4``, ``Z2xZ4``,
``perm:<degree>:<generators>``) and a G-set (``shift:q=2``,
``cosets:0,3``, ``union:<a>+<b>``); subcommands report the subgroup
lattice, the box decomposition, monoid enumerations, the relative rank,
cellular automata, or run the verification suite on the instance.

Exit codes: 0 success, 2 malformed spec / domain error, 3 budget
exceeded, 4 property-check failure, 5 internal error.  JSON output is
deterministic: same input, byte-identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import dataclass
from itertools import chain
from json.encoder import JSONEncoder, encode_basestring_ascii

import numpy as np

from .actions import (
    GSet,
    RankCount,
    alpha_by_moebius,
    aut_orbits_in_box,
    burnside_orbit_count,
    coset_action,
    decompose,
    disjoint_union,
)
from .errors import BudgetExceeded, EquirankError, PropertyFailure, SpecStringError
from .groups import (
    FiniteGroup,
    direct_product,
    from_permutation_generators,
    make_cyclic,
    make_dihedral,
    make_symmetric,
)
from .lattice import Subgroup, build_lattice, element_lists, generated_subgroup
from .rank import (
    aut_generators,
    collapse_type_census,
    relative_rank,
    wreath_order_checks,
)
from .shift import (
    LocalRule,
    ShiftSpace,
    _shift_name,
    _shift_size,
    build_shift,
    ca_from_rule,
    minimal_memory_set,
    rule_from_map,
    shift_rank,
)
from .transform import (
    closure,
    end_monoid_order,
    enumerate_aut,
    enumerate_end,
    identity_map,
    map_rank,
)

COMMANDS = ("lattice", "boxes", "enumerate", "rank", "ca", "verify")
_IMAGE_LIMIT = 512
# Most points a perm: spec may name.  Within the 10,080-element group budget a
# closure then holds at most 10,080 x 64 = 645,120 tuple slots (5 MB).
_PERM_DEGREE_CAP = 64
# Most significant digits a numeric token may have.  int() refuses longer
# digit strings once they pass sys.get_int_max_str_digits (4300 by default,
# never below 640); a number that long is past every budget and outside
# every group, so it is refused with the exit of a small out-of-range value.
_MAX_DIGITS = 640
# bound at import: perfbench's tracer swaps `cli.json` for a namespace with only `dumps`
_encode_scalar = JSONEncoder().encode

_ATOM = re.compile(r"^(Z|S|D)(\d+)$")
_PERM = re.compile(r"^perm:(\d+):(.+)$")
_SHIFT = re.compile(r"^shift:q=(\d+)$")
_COSETS = re.compile(r"^cosets:(\d+(,\d+)*)$")


@dataclass(frozen=True)
class RunConfig:
    """A parsed command line: the spec strings as given, plus their parsed values.

    `group` is ("perm", degree, generators) or ("product", ((kind, n), ...));
    `gset` is ("shift", q), ("cosets", elements) or ("union", ((token, gset), ...)),
    or None; `rule` is (memory, table) for the ca command, else None.
    """

    command: str
    group_spec: str
    gset_spec: str | None
    group: tuple
    gset: tuple | None
    rule_spec: str | None = None
    rule: tuple | None = None
    paper_layout: bool = False
    aut_only: bool = False
    verify_after: bool = False
    budget: int | None = None
    output: str = "json"


def _number(digits: str, what: str, error: type[EquirankError]) -> int:
    """The value of a decimal digit string, checked for length before int().

    `error` is BudgetExceeded for a size (exit 3) and SpecStringError for
    an element or a letter (exit 2).
    """
    significant = digits.lstrip("0")
    if len(significant) > _MAX_DIGITS:
        raise error(f"{what} has {len(significant)} digits; numbers are read up to "
                    f"{_MAX_DIGITS} digits")
    return int(significant or "0")


def _parse_group(token: str, position: int) -> tuple:
    m = _PERM.match(token)
    if m:
        degree = _number(m.group(1), "the permutation degree", BudgetExceeded)
        if degree > _PERM_DEGREE_CAP:
            raise BudgetExceeded(f"permutation degree {degree} exceeds the cap {_PERM_DEGREE_CAP}")
        gens = []
        for word in m.group(2).split(";"):
            perm = list(range(degree))
            for cyc in re.findall(r"\(([^)]*)\)", word):
                words = [t for t in re.split(r"[ ,]+", cyc.strip()) if t]
                entries = [_number(t, "a cycle entry", SpecStringError)
                           for t in words if t.isdecimal()]
                if (len(entries) != len(words) or any(not 0 <= e < degree for e in entries)
                        or len(set(entries)) != len(entries)):
                    raise SpecStringError(f"malformed cycle ({cyc}) in {token!r}", token=token)
                for a, b in zip(entries, entries[1:] + entries[:1]):
                    perm[a] = b
            gens.append(tuple(perm))
        return ("perm", degree, tuple(gens))
    atoms = []
    for part in token.split("x"):
        m = _ATOM.match(part)
        if m is None:
            raise SpecStringError(
                f"unknown group token {part!r} in {token!r} (argument {position})",
                token=part, position=position)
        atoms.append((m.group(1), _number(m.group(2), f"the {m.group(1)} parameter",
                                          BudgetExceeded)))
    return ("product", tuple(atoms))


def _parse_gset(token: str, position: int) -> tuple:
    if token.startswith("union:"):
        parts = token[len("union:"):].split("+")
        if len(parts) < 2:
            raise SpecStringError(
                f"union spec {token!r} needs at least two parts (argument {position})",
                token=token, position=position)
        return ("union", tuple((part, _parse_gset(part, position)) for part in parts))
    m = _SHIFT.match(token)
    if m:
        q = _number(m.group(1), "the alphabet size", BudgetExceeded)
        if q < 2:
            raise SpecStringError(
                f"alphabet size must be at least 2 in {token!r} (argument {position})",
                token=token, position=position)
        return ("shift", q)
    m = _COSETS.match(token)
    if m:
        return ("cosets", tuple(_number(t, "a coset element", SpecStringError)
                                for t in m.group(1).split(",")))
    raise SpecStringError(
        f"unknown G-set token {token!r} (argument {position})",
        token=token, position=position)


_PARSER = argparse.ArgumentParser(
    prog="equirank",
    description="structure of the equivariant self-maps of a finite group action")
_PARSER.add_argument("command", choices=COMMANDS)
_PARSER.add_argument("group", help="Z6 | S3 | D4 | Z2xZ4 | perm:<degree>:<gens>")
_PARSER.add_argument("gset", nargs="?",
                     help="shift:q=<n> | cosets:<elements> | union:<a>+<b>")
_PARSER.add_argument("--rule", help="ca: local rule as <memory>:<table>, e.g. 0,1:0110")
_PARSER.add_argument("--paper-layout", action="store_true",
                     help="boxes: render boxes as a compact printed-style table")
_PARSER.add_argument("--aut-only", action="store_true",
                     help="enumerate: enumerate only the bijections")
_PARSER.add_argument("--verify", action="store_true",
                     help="boxes, enumerate, rank, ca: run the property suite after the command")
_PARSER.add_argument("--budget", type=int,
                     help="enumerate, verify and --verify: enumeration budget")
# None when not given, so that boxes --paper-layout can refuse an explicit one
_PARSER.add_argument("--output", choices=["json", "table"])

# The commands that read each option; the others refuse it.  --budget is
# also read by every command run with --verify.
_READERS = {
    "--rule": ("ca",),
    "--paper-layout": ("boxes",),
    "--aut-only": ("enumerate",),
    "--verify": ("boxes", "enumerate", "rank", "ca"),
    "--budget": ("enumerate", "verify"),
}


def parse_specs(args) -> RunConfig:
    """Parse and validate the argument list; raises SpecStringError on bad tokens."""
    try:
        ns = _PARSER.parse_args(list(args))
    except SystemExit:
        raise SpecStringError(f"could not parse arguments: {' '.join(args)}") from None

    given = {"--rule": ns.rule is not None, "--paper-layout": ns.paper_layout,
             "--aut-only": ns.aut_only, "--verify": ns.verify,
             "--budget": ns.budget is not None and not ns.verify}
    for option, readers in _READERS.items():
        if given[option] and ns.command not in readers:
            raise SpecStringError(f"command {ns.command!r} does not read {option}")
    if ns.budget is not None and ns.budget <= 0:
        raise SpecStringError(f"budget must be positive, got {ns.budget}")
    group = _parse_group(ns.group, 2)
    if (ns.gset is None) != (ns.command == "lattice"):
        raise SpecStringError(f"command {ns.command!r} " + (
            "takes no G-set spec" if ns.command == "lattice" else "needs a G-set spec"))
    gset = None if ns.gset is None else _parse_gset(ns.gset, 3)
    if ns.command == "ca":
        if gset[0] != "shift":
            raise SpecStringError("the ca command needs a shift:q=<n> G-set")
        if ns.rule is None:
            raise SpecStringError("the ca command needs --rule <memory>:<table>")
    if ns.command == "boxes" and ns.paper_layout and ns.verify:
        # a paper-layout table is text, with no place for the verification checks
        raise SpecStringError("boxes takes --paper-layout or --verify, not both")
    if ns.paper_layout and ns.output is not None:
        raise SpecStringError("boxes --paper-layout prints text and takes no --output")
    return RunConfig(
        command=ns.command,
        group_spec=ns.group,
        gset_spec=ns.gset,
        group=group,
        gset=gset,
        rule_spec=ns.rule,
        rule=None if ns.rule is None else _parse_rule(ns.rule),
        paper_layout=ns.paper_layout,
        aut_only=ns.aut_only,
        verify_after=ns.verify,
        budget=ns.budget,
        output=ns.output or "json",
    )


_MAKERS = {"Z": make_cyclic, "S": make_symmetric, "D": make_dihedral}


def _build_group(parsed: tuple, name: str) -> FiniteGroup:
    if parsed[0] == "perm":
        _, degree, gens = parsed
        return from_permutation_generators(degree, gens, name=name)
    groups = [_MAKERS[kind](n) for kind, n in parsed[1]]
    return functools.reduce(direct_product, groups)


def _build_gset(G: FiniteGroup, parsed: tuple, token: str):
    """Returns (gset, shift-space-or-None)."""
    kind, value = parsed
    if kind == "union":
        pieces = [_build_gset(G, sub, part)[0] for part, sub in value]
        return functools.reduce(disjoint_union, pieces), None
    if kind == "shift":
        space = build_shift(G, value)
        return space.gset, space
    if any(not 0 <= e < G.order for e in value):
        raise SpecStringError(f"coset spec {token!r} names elements outside the group",
                              token=token)
    H = Subgroup(G, tuple(sorted(generated_subgroup(G, value))))
    return coset_action(G, H), None


def _parse_rule(spec: str) -> tuple:
    """(memory, table) of a <memory>:<table> rule spec: comma-separated group
    elements, then one letter per digit or comma-separated letters.  Their
    ranges are checked against the shift space when the rule is built."""
    if ":" not in spec:
        raise SpecStringError(f"rule spec {spec!r} is missing the ':' separator", token=spec)
    mem_part, _, table_part = spec.partition(":")
    memory = [t for t in mem_part.split(",") if t != ""]
    table = table_part.split(",") if "," in table_part else list(table_part)
    if not all(t.isdecimal() for t in memory + table):
        raise SpecStringError(f"memory set and rule table in {spec!r} must be digits",
                              token=spec)
    return (tuple(_number(t, "a memory element", SpecStringError) for t in memory),
            tuple(_number(t, "a rule table entry", SpecStringError) for t in table))


def _build_rule(space: ShiftSpace, config: RunConfig) -> LocalRule:
    memory, table = config.rule
    if any(s >= space.group.order for s in memory):
        raise SpecStringError(f"memory set in {config.rule_spec!r} names elements outside "
                              "the group", token=config.rule_spec)
    if any(a >= space.q for a in table):           # before they meet int64
        raise SpecStringError(f"rule table in {config.rule_spec!r} names letters outside "
                              "the alphabet", token=config.rule_spec)
    return LocalRule(space=space, memory=memory, table=np.array(table, dtype=np.int64))


def _lattice_report(G: FiniteGroup) -> dict:
    lat = build_lattice(G)
    below, above = np.nonzero(lat.leq)                  # row-major: by i, then j
    moebius = np.stack([below, above, lat.moebius_table[below, above]], axis=1)
    return {
        "schema": 1,
        "command": "lattice",
        "group": G.name,
        "group_order": G.order,
        "subgroups": element_lists(lat.masks),
        "classes": [list(c) for c in lat.classes],
        "class_reps": list(lat.class_reps),
        "normalizers": list(lat.normalizer_idx),
        "moebius": moebius,
    }


def _boxes_report(X: GSet) -> dict:
    decomp = decompose(X)
    boxes = []
    for i in range(decomp.n_boxes):
        H = decomp.box_subgroup(i)
        entry = {
            "stabilizer": list(H.elements),
            "stabilizer_order": H.order,
            "alpha": decomp.alpha[i],
            "aut_orbits": decomp.expected_aut_orbits(i),
            "sub_boxes": {str(k): pts for k, pts in decomp.sub_boxes[i].items()},
        }
        if X.size <= _IMAGE_LIMIT:
            entry["points"] = np.flatnonzero(decomp.box_of_point == i)
            entry["orbits"] = decomp.orbit_table(i).T.tolist()
        boxes.append(entry)
    return {
        "schema": 1,
        "command": "boxes",
        "group": X.group.name,
        "gset": X.name,
        "points": X.size,
        "orbit_count": burnside_orbit_count(X),
        "kappa": list(decomp.kappa),
        "boxes": boxes,
    }


def _paper_table(X: GSet) -> str:
    """Boxes as printed tables: largest stabilizer first, one column per
    orbit, each box's `orbit_table` written by `_table_rows`, the whole
    report joined once."""
    decomp = decompose(X)
    parts = [f"{X.name}: {X.size} points, {decomp.n_boxes} boxes"]
    for i in reversed(range(decomp.n_boxes)):
        H = decomp.box_subgroup(i)
        label = "{" + ",".join(X.group.label(e) for e in H.elements) + "}"
        parts.append(f"\nstabilizer class {label}  alpha = {decomp.alpha[i]}")
        parts += _table_rows(decomp.orbit_table(i))
    return "".join(parts)


def _table_rows(table: np.ndarray) -> list[str]:
    """A non-empty table of non-negative integers as text, in parts of
    about `_CHUNK_ITEMS` cells: fixed-width blocks of ASCII codes, each row
    on a new line, each cell two spaces and its value right-aligned to the
    width of the table's largest (the rows of `"  %*d" * columns`)."""
    top = table.max()
    parts = []
    for rows in _chunks(table):
        cells = np.full((2 + len(str(top)), rows.size), ord(" "), dtype=np.uint8)
        cells[2:] = _decimal_places(rows, top)
        block = np.empty((len(rows), 1 + cells.size // len(rows)), dtype=np.uint8)
        block[:, 0] = ord("\n")
        block[:, 1:] = cells.T.reshape(len(rows), -1)
        parts.append(block.tobytes().decode("ascii"))
    return parts


def _enumerate_report(X: GSet, config: RunConfig) -> dict:
    kwargs = {"budget": config.budget} if config.budget else {}
    if config.aut_only:
        found = enumerate_aut(X, **kwargs)
        predicted = decompose(X).aut_order
    else:
        found = enumerate_end(X, **kwargs)
        predicted = end_monoid_order(X)
    if found.size != predicted:
        raise PropertyFailure(f"enumerated {found.size} maps, formula gives {predicted}")
    report = {
        "schema": 1,
        "command": "enumerate",
        "kind": "aut" if config.aut_only else "end",
        "group": X.group.name,
        "gset": X.name,
        "size": found.size,
        "order_formula": predicted,
    }
    if found.size <= _IMAGE_LIMIT:
        report["images"] = found.images.tolist()
    return report


def _rank_report(X: GSet) -> dict:
    report = relative_rank(X)
    out = _rank_fields(X.group, X.name, X.size, report.decomposition)
    if X.size <= _IMAGE_LIMIT:
        out["generators"] = [g.image.tolist() for g in report.generating_set]
    return out


def _rank_fields(G: FiniteGroup, name: str, points: int, count: RankCount) -> dict:
    return {
        "schema": 1,
        "command": "rank",
        "group": G.name,
        "gset": name,
        "points": points,
        "relative_rank": count.relative_rank,
        "u_sizes": [len(u) for u in count.u_sets],
        "u_sets": [[list(cls) for cls in u] for u in count.u_sets],
        "alpha": list(count.alpha),
        "kappa": list(count.kappa),
        "kappa_size": len(count.kappa),
        "tags": list(count.tags),
        "aut_order": count.aut_order,
    }


def _shift_rank_report(G: FiniteGroup, config: RunConfig) -> dict | None:
    """The rank report of a shift space read off the lattice (`shift_rank`),
    or None where it needs points: when it would print the generators (at
    most `_IMAGE_LIMIT` points) or `--verify` follows.  A shift space past
    the cell budget is refused here, as `build_shift` would refuse it."""
    kind, q = config.gset
    if kind != "shift" or config.verify_after:
        return None
    points = _shift_size(G, q)
    if points <= _IMAGE_LIMIT:
        return None
    return _rank_fields(G, _shift_name(G, q), points, shift_rank(G, q))


def _ca_report(space: ShiftSpace, config: RunConfig) -> dict:
    rule = _build_rule(space, config)
    tau = ca_from_rule(space, rule)
    image_size = map_rank(tau)
    out = {
        "schema": 1,
        "command": "ca",
        "group": space.group.name,
        "q": space.q,
        "memory": list(rule.memory),
        "rule": rule.table.tolist(),
        "equivariant": True,
        "invertible": image_size == space.size,
        "map_rank": image_size,
        "minimal_memory": list(minimal_memory_set(space, tau)),
    }
    if space.size <= _IMAGE_LIMIT:
        out["image"] = tau.image.tolist()
    return out


def _verify_checks(X: GSet, space: ShiftSpace | None, budget: int | None) -> list[dict]:
    checks = []

    def record(name, fn):
        try:
            fn()
            checks.append({"name": name, "status": "pass"})
        except BudgetExceeded:
            checks.append({"name": name, "status": "skipped"})
        except (PropertyFailure, AssertionError) as e:
            checks.append({"name": name, "status": "fail", "detail": str(e)})

    decomp = decompose(X)

    def check_burnside():
        if burnside_orbit_count(X) != len(X.orbit_reps):
            raise PropertyFailure("orbit count disagrees with the fixed-point average")

    def check_moebius():
        for i in range(decomp.n_boxes):
            if alpha_by_moebius(X, i) != decomp.alpha[i]:
                raise PropertyFailure(f"box {i}: Moebius route disagrees with direct count")

    def check_aut_orbits():
        for i in range(decomp.n_boxes):
            aut_orbits_in_box(X, i)

    rank_report = functools.cache(lambda: relative_rank(X))

    def check_rank():
        count = rank_report().decomposition
        census = collapse_type_census(X)
        if len(census) != count.relative_rank:
            raise PropertyFailure(
                f"census has {len(census)} types, rank is {count.relative_rank}")

    def check_wreath():
        wreath_order_checks(X, **({"budget": budget} if budget else {}))

    def check_enumeration():
        end = enumerate_end(X, **({"budget": budget} if budget else {}))
        if end.size != end_monoid_order(X):
            raise PropertyFailure("enumeration disagrees with the order formula")
        gens = aut_generators(X) + list(rank_report().generating_set)
        # both are sorted End indices of X, so equal monoids are equal arrays
        if not np.array_equal(closure(X, gens, cap=max(end.size, 2)).indices, end.indices):
            raise PropertyFailure("Aut plus the push set does not generate the monoid")

    record("burnside_orbit_count", check_burnside)
    record("alpha_moebius", check_moebius)
    record("aut_orbits_per_box", check_aut_orbits)
    record("rank_census", check_rank)
    record("wreath_orders", check_wreath)
    record("enumeration_vs_formulas", check_enumeration)

    if space is not None:
        def check_curtis_hedlund():
            ident = identity_map(space.gset)
            if ca_from_rule(space, rule_from_map(space, ident)) != ident:
                raise PropertyFailure("identity map does not round-trip through its rule")
            mm = minimal_memory_set(space, ident)
            if mm != (space.group.identity,):
                raise PropertyFailure(f"identity map has minimal memory {mm}")

        record("rule_round_trip", check_curtis_hedlund)
    return checks


def _verify_report(X: GSet, space: ShiftSpace | None, config: RunConfig) -> tuple[int, dict]:
    checks = _verify_checks(X, space, config.budget)
    failures = sum(1 for c in checks if c["status"] == "fail")
    report = {
        "schema": 1,
        "command": "verify",
        "group": X.group.name,
        "gset": X.name,
        "checks": checks,
        "failures": failures,
    }
    return (4 if failures else 0), report


def run(config: RunConfig) -> tuple[int, dict | str]:
    """Execute a parsed config; returns (exit code, report)."""
    G = _build_group(config.group, config.group_spec)
    if config.command == "lattice":
        return 0, _lattice_report(G)

    if config.command == "rank":
        report = _shift_rank_report(G, config)
        if report is not None:
            return 0, report

    X, space = _build_gset(G, config.gset, config.gset_spec)
    code = 0
    if config.command == "boxes":
        report = _paper_table(X) if config.paper_layout else _boxes_report(X)
    elif config.command == "enumerate":
        report = _enumerate_report(X, config)
    elif config.command == "rank":
        report = _rank_report(X)
    elif config.command == "ca":
        report = _ca_report(space, config)
    else:
        code, report = _verify_report(X, space, config)

    if config.verify_after and config.command != "verify" and isinstance(report, dict):
        vcode, vreport = _verify_report(X, space, config)
        report["verification"] = vreport["checks"]
        code = code or vcode
    return code, report


def _as_table(report) -> str:
    """A report as indented `key: value` lines, appended to one flat list
    and joined once; a str report as it is."""
    if isinstance(report, str):
        return report
    parts = []

    def lines(d, indent):
        if not d:                                       # an empty block is an empty line
            parts.append("\n")
        for key, value in d.items():
            if isinstance(value, dict):
                parts.append(f"\n{indent}{key}:")
                lines(value, indent + "  ")
            elif isinstance(value, list) and value and isinstance(value[0], dict):
                for k, item in enumerate(value):
                    parts.append(f"\n{indent}{key}[{k}]:")
                    lines(item, indent + "  ")
            elif isinstance(value, np.ndarray) and value.ndim == 1 and _is_int_array(value):
                parts.append(f"\n{indent}{key}: [")
                parts.extend(_int_join(value, ", "))
                parts.append("]")
            else:                                       # an array as str(value.tolist())
                value = value.tolist() if isinstance(value, np.ndarray) else value
                parts.append(f"\n{indent}{key}: {value}")

    lines(report, "")
    del lines           # a recursive closure is a cycle that would keep `parts` past the join
    parts[0] = parts[0][1:]                             # no new line before the first
    return "".join(parts)


# Items the digit writers convert in one numpy pass.  A chunk's temporaries,
# about 100 bytes an item, stay cache-sized, and none grows with the report;
# 2^13 and 2^16 items encoded the 116,592 points of S3 shift:q=7 more slowly
# on a 2-vCPU Xeon.
_CHUNK_ITEMS = 1 << 14


def _chunks(values: np.ndarray):
    """Slices of `values` along its first axis of about `_CHUNK_ITEMS` items."""
    step = max(1, _CHUNK_ITEMS // values[0].size)
    return (values[start:start + step] for start in range(0, len(values), step))


def _decimal_places(values: np.ndarray, top) -> np.ndarray:
    """Non-negative integers as ASCII codes, one row per decimal place:
    column k holds `"%*d" % (width, values.flat[k])`, width that of `top`,
    which is at least the largest value, so leading zeros are spaces."""
    rest = values.ravel()
    if top < 1 << 32:                   # uint32 divides about 3 times as fast as uint64
        rest = rest.astype(np.uint32)
    out = np.empty((len(str(top)), rest.size), dtype=np.uint8)
    leading = np.empty(out.shape, dtype=bool)
    for place, zero in zip(out[::-1], leading[::-1]):
        np.equal(rest, 0, out=zero)
        quotient = rest // 10
        np.subtract(rest, quotient * 10, out=place, casting="unsafe")
        rest = quotient
    out += ord("0")
    leading[-1] = False                 # the value 0 itself is "0"
    out[leading] = ord(" ")
    return out


def _is_int_array(values: np.ndarray) -> bool:
    """Is `values` a non-empty 1-D or 2-D integer array, as `_int_join` takes?"""
    return values.ndim in (1, 2) and values.size > 0 and values.dtype.kind in "iu"


def _int_join(values: np.ndarray, sep: str, row_sep: str = "") -> list[str]:
    """The parts of `sep.join(map(str, values.tolist()))` for a non-empty
    1-D integer array, one per `_CHUNK_ITEMS` items; for a 2-D one, its
    items a row at a time, with `sep` inside a row and `row_sep` between
    rows, cut at row boundaries.

    Each item is one column of ASCII codes: a sign, its decimal places and
    a comma, or a semicolon at the end of a row.  One boolean compress a
    chunk drops the signs of non-negative items and leading spaces, and
    `str.replace` widens each comma to `sep` and each semicolon to
    `row_sep`; the last separator is cut off the last part.
    """
    parts = []
    for chunk in _chunks(values):
        flat = chunk.ravel()
        negative = flat < 0
        magnitude = flat.astype(np.uint64)
        np.negative(magnitude, out=magnitude, where=negative)   # modulo 2^64: |int64 min| too
        digits = _decimal_places(magnitude, magnitude.max())
        block = np.empty((2 + len(digits), len(flat)), dtype=np.uint8)
        block[0] = ord("-")
        block[1:-1] = digits
        block[-1] = ord(",")
        if chunk.ndim == 2:
            block[-1, chunk.shape[1] - 1::chunk.shape[1]] = ord(";")
        keep = np.ones(block.shape, dtype=bool)
        keep[0] = negative
        keep[1:-1] = digits != ord(" ")
        text = block.T[keep.T].tobytes().decode("ascii")
        parts.append(text.replace(",", sep).replace(";", row_sep))
    parts[-1] = parts[-1][:-len(row_sep if values.ndim == 2 else sep)]
    return parts


# Characters `main` hands the text layer at once: each write encodes one
# slice, never the whole report.
_WRITE_SLICE = 1 << 16


class _ReportEncoder(JSONEncoder):
    """The bytes of `json.dumps(report, sort_keys=True, indent=2,
    default=np.ndarray.tolist)` for CLI reports.

    Reports are trees of str-keyed dicts, lists, tuples, numpy arrays and
    JSON scalars.  Whatever options it is given, it writes sorted keys
    indented by two, and a non-str key raises TypeError.  A non-empty 1-D
    or 2-D integer array (the lattice's Moebius triples) is written from
    its digits, a chunk at a time and a 2-D one a row at a time within
    it (`_int_join`); any other array as its `tolist()`.  A list of plain
    ints is written in one join, and a list of int lists (element lists)
    in one join per row, where the stock encoder steps a generator per item.
    Every piece is appended to one flat list, which `json.dumps` joins
    once: the encode peaks at about twice the text it writes, and the list
    is freed as soon as it is joined.
    """

    def iterencode(self, o, _one_shot=False):
        parts = []
        put = parts.append

        def value(v, pad):
            inner = pad + "  "
            if isinstance(v, np.ndarray) and not _is_int_array(v):
                v = v.tolist()
            if isinstance(v, dict) and v:
                sep = "{" + inner
                for k, x in sorted(v.items()):
                    put(f"{sep}{encode_basestring_ascii(k)}: ")
                    value(x, inner)
                    sep = "," + inner
                put(pad + "}")
            elif isinstance(v, np.ndarray) and v.ndim == 1:
                put("[" + inner)
                parts.extend(_int_join(v, "," + inner))
                put(pad + "]")
            elif isinstance(v, np.ndarray):
                row = inner + "  "
                put(f"[{inner}[{row}")
                parts.extend(_int_join(v, "," + row, f"{inner}],{inner}[{row}"))
                put(f"{inner}]{pad}]")
            elif not isinstance(v, (list, tuple)):         # a scalar or an empty dict
                put(_encode_scalar(v))
            elif not v:
                put("[]")
            elif (kinds := {*map(type, v)}) == {int}:
                put(f"[{inner}{(',' + inner).join(map(int.__repr__, v))}{pad}]")
            elif kinds <= {list, tuple} and {*map(type, chain.from_iterable(v))} <= {int}:
                row = inner + "  "
                row_join = ("," + row).join
                put("[" + inner)
                put(("," + inner).join([f"[{row}{row_join(map(int.__repr__, x))}{inner}]"
                                        if x else "[]" for x in v]))
                put(pad + "]")
            else:
                sep = "[" + inner
                for x in v:
                    put(sep)
                    value(x, inner)
                    sep = "," + inner
                put(pad + "]")

        value(o, "\n")
        del value       # a recursive closure is a cycle that would keep `parts` past the join
        return parts


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    try:
        config = parse_specs(args)
        code, report = run(config)
    except EquirankError as e:
        sys.stderr.write(f"error: {e}\n")
        return e.exit_code
    except Exception as e:  # pragma: no cover - defensive
        sys.stderr.write(f"internal error: {e!r}\n")
        return 5
    if isinstance(report, str) or config.output == "table":
        text = _as_table(report)
    else:
        text = json.dumps(report, sort_keys=True, indent=2, cls=_ReportEncoder)
    # encoded in full first, so a failed encode writes nothing; written a
    # slice at a time, so the text layer never holds a bytes copy of it all
    for start in range(0, len(text), _WRITE_SLICE):
        sys.stdout.write(text[start:start + _WRITE_SLICE])
    sys.stdout.write("\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
