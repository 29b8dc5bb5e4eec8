"""The three workloads, their command lines, and the output checks.

Every command is an argv list for ``equirank.cli.main``.  The workload
seed only shuffles the order of the commands inside a pass; the command
lines themselves, including the CA rule tables, are fixed.

Each output is checked twice: its bytes against the reference recorded
from the seed program (``reference.json``), and, where the benchmark
knows a fact independently of the program, against that fact.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from collections import Counter


def _rule_table(q: int, k: int, a: int) -> str:
    """A fixed pseudo-random local-rule table over q letters for k memory cells."""
    digits, x = [], a
    for _ in range(q ** k):
        x = (1103515245 * x + 12345) % 2 ** 31
        digits.append(str((x >> 16) % q))
    return "".join(digits)


WORKLOADS = {
    "lattice": [
        ["lattice", "perm:5:(0 1 2);(2 3 4)"],
        ["lattice", "S3xS3"],
        ["lattice", "Z3xS4"],
        ["lattice", "Z2xS4"],
        ["lattice", "Z2xZ2xZ2xZ2"],
        ["lattice", "S5"],
    ],
    "shift": [
        ["rank", "S3", "shift:q=2"],
        ["rank", "D4", "shift:q=3"],
        ["rank", "Z6", "shift:q=7"],
        ["boxes", "S3", "shift:q=7"],
        ["boxes", "D4", "shift:q=4", "--paper-layout"],
        ["ca", "Z6", "shift:q=7", "--rule", "0,1,3:" + _rule_table(7, 3, 5)],
        ["ca", "S3", "shift:q=7", "--rule", "0,1:" + _rule_table(7, 2, 2)],
        ["ca", "D4", "shift:q=4", "--rule", "0,1,2:" + _rule_table(4, 3, 3)],
    ],
    "monoid": [
        ["verify", "Z2xZ2", "shift:q=2"],
        ["verify", "Z4", "shift:q=2"],
        ["verify", "Z1", "shift:q=6"],
        ["verify", "S3", "shift:q=2"],
        ["enumerate", "Z4", "shift:q=2"],
        ["enumerate", "Z1", "shift:q=6", "--aut-only"],
    ],
}


def command_key(argv: list[str]) -> str:
    return " ".join(argv)


# Element-order census {order: number of elements} of the groups whose
# shift spaces the workloads decompose; Burnside then gives the orbit
# count of A^G as sum_g q^(|G|/ord g) / |G|.
ORDER_CENSUS = {
    "S3": {1: 1, 2: 3, 3: 2},
    "D4": {1: 1, 2: 5, 4: 2},
    "Z6": {1: 1, 2: 1, 3: 2, 6: 2},
}


def shift_orbit_count(group: str, q: int) -> int:
    census = ORDER_CENSUS[group]
    n = sum(census.values())
    return sum(count * q ** (n // d) for d, count in census.items()) // n


def cyclic_shift_census(n: int, q: int) -> tuple[int, int]:
    """(|End|, |Aut|) of the Z_n shift space q^n, from its orbits alone.

    An equivariant map sends an orbit's representative x to any point whose
    stabilizer contains Stab(x).  Z_n is abelian, so Aut is the product over
    stabilizers H of S_a wr (Z_n / H), a the number of orbits with stabilizer H.
    """
    points = list(itertools.product(range(q), repeat=n))

    def stabilizer(x):
        return frozenset(k for k in range(n) if x[k:] + x[:k] == x)

    stabs = [stabilizer(x) for x in points]
    orbit_stabs = {min(x[k:] + x[:k] for k in range(n)): h for x, h in zip(points, stabs)}
    end = math.prod(sum(h <= t for t in stabs) for h in orbit_stabs.values())
    aut = math.prod(math.factorial(a) * (n // len(h)) ** a
                    for h, a in Counter(orbit_stabs.values()).items())
    return end, aut


# Subgroup lattices with known invariants: (subgroups, classes, mu(1, G)).
# A5: Hall (1936), mu(1, A5) = -60.  (Z2)^4: mu(1, G) = (-1)^4 2^(4*3/2).
LATTICE_FACTS = {
    "perm:5:(0 1 2);(2 3 4)": (59, 9, -60),
    "S5": (156, 19, None),
    "Z2xZ2xZ2xZ2": (67, None, 2 ** 6),
}

# Fact names, so a smoke run can assert that every one of them ran.
FACTS = (
    "lattice_counts",
    "lattice_moebius",
    "shift_orbit_count",
    "rank_headline",
    "enumerate_census",
    "known_failure",
)


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _check_lattice(argv, report, ran):
    facts = LATTICE_FACTS.get(argv[1])
    if facts is None:
        return
    n_subgroups, n_classes, mu = facts
    _require(len(report["subgroups"]) == n_subgroups,
             f"{len(report['subgroups'])} subgroups, expected {n_subgroups}")
    if n_classes is not None:
        _require(len(report["classes"]) == n_classes,
                 f"{len(report['classes'])} classes, expected {n_classes}")
    ran.add("lattice_counts")
    if mu is not None:
        sizes = [len(s) for s in report["subgroups"]]
        bottom = sizes.index(1)
        top = sizes.index(report["group_order"])
        got = [m for i, j, m in report["moebius"] if (i, j) == (bottom, top)]
        _require(got == [mu], f"mu(1, G) = {got}, expected {mu}")
        ran.add("lattice_moebius")


def _check_orbit_count(argv, count, ran):
    group, q = argv[1], int(argv[2].split("=")[1])
    expected = shift_orbit_count(group, q)
    _require(count == expected, f"{count} orbits, Burnside gives {expected}")
    ran.add("shift_orbit_count")


def _paper_layout_alpha(text: str) -> list[int]:
    return [int(a) for a in re.findall(r"alpha = (\d+)", text)]


def check_facts(argv: list[str], text: str, ran: set) -> None:
    """Check the facts the benchmark knows about one successful output."""
    command = argv[0]
    if command == "boxes" and "--paper-layout" in argv:
        _check_orbit_count(argv, sum(_paper_layout_alpha(text)), ran)
        return
    # Integers past the int-to-str digit limit (|Aut| of large boxes) stay
    # strings; no check reads them.
    report = json.loads(text, parse_int=lambda s: int(s) if len(s) < 4000 else s)
    if command == "lattice":
        _check_lattice(argv, report, ran)
    elif command == "boxes":
        _check_orbit_count(argv, report["orbit_count"], ran)
    elif command == "rank":
        _check_orbit_count(argv, sum(report["alpha"]), ran)
        if argv[1:3] == ["S3", "shift:q=2"]:
            _require(report["relative_rank"] == 8 and report["alpha"] == [7, 6, 1, 2],
                     f"rank {report['relative_rank']} alpha {report['alpha']}, "
                     "expected 8 and [7, 6, 1, 2]")
            ran.add("rank_headline")
    elif command == "enumerate":
        end, aut = cyclic_shift_census(int(argv[1].removeprefix("Z")),
                                       int(argv[2].split("=")[1]))
        expected = aut if "--aut-only" in argv else end
        _require(report["size"] == expected,
                 f"enumerated {report['size']}, the orbit census gives {expected}")
        ran.add("enumerate_census")
