"""CLI parsing, exit codes, and golden outputs."""

import hashlib
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import equirank.cli
import equirank.transform
from equirank import (EquirankError, SpecStringError, build_shift, decompose, make_cyclic,
                      make_dihedral, make_symmetric)
from equirank.cli import (COMMANDS, _as_table, _ReportEncoder, _table_rows, main, parse_specs,
                          run)

Z6_PAPER_TABLE = """\
Z6 shift q=2: 64 points, 4 boxes
stabilizer class {0,1,2,3,4,5}  alpha = 2
   0  63
stabilizer class {0,2,4}  alpha = 1
  21
  42
stabilizer class {0,3}  alpha = 2
   9  27
  18  45
  36  54
stabilizer class {0}  alpha = 9
   1   3   5   7  11  13  15  23  31
   2   6  10  14  22  19  30  29  47
   4  12  17  28  25  26  39  43  55
   8  24  20  35  37  38  51  46  59
  16  33  34  49  44  41  57  53  61
  32  48  40  56  50  52  60  58  62
"""


def _json_out(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_parse_specs_happy_path():
    config = parse_specs(["rank", "S3", "shift:q=2"])
    assert config.command == "rank"
    assert config.group_spec == "S3" and config.gset_spec == "shift:q=2"
    assert config.output == "json" and not config.paper_layout

    config = parse_specs(["boxes", "Z6", "shift:q=2", "--paper-layout"])
    assert config.paper_layout

    config = parse_specs(["enumerate", "Z2", "shift:q=2", "--aut-only", "--budget", "99"])
    assert config.aut_only and config.budget == 99


def test_boxes_refuses_paper_layout_with_verify(capsys):
    # the paper-layout table is text and has no place for the checks
    with pytest.raises(SpecStringError, match="--paper-layout or --verify"):
        parse_specs(["boxes", "S3", "shift:q=2", "--paper-layout", "--verify"])
    assert main(["boxes", "S3", "shift:q=2", "--paper-layout", "--verify"]) == 2
    assert capsys.readouterr().out == ""
    for argv in (["verify", "S3", "shift:q=2", "--paper-layout"],
                 ["rank", "S3", "shift:q=2", "--paper-layout", "--verify"]):
        with pytest.raises(SpecStringError, match="does not read --paper-layout"):
            parse_specs(argv)


@pytest.mark.parametrize("argv", [
    ["rank", "Z2", "shift:q=2", "--rule", "0:01"],
    ["lattice", "Z2", "--aut-only"],
    ["lattice", "Z2", "--verify"],
    ["lattice", "Z2", "shift:q=2"],
    ["verify", "Z2", "shift:q=2", "--verify"],
    ["enumerate", "Z2", "shift:q=2", "--paper-layout"],
    ["rank", "Z2", "shift:q=2", "--paper-layout"],
    ["rank", "Z2", "shift:q=2", "--budget", "3"],
    ["ca", "Z2", "shift:q=2", "--rule", "0:01", "--aut-only"],
    ["boxes", "Z6", "shift:q=2", "--paper-layout", "--output", "table"],
    ["boxes", "Z6", "shift:q=2", "--paper-layout", "--output", "json"],
], ids=" ".join)
def test_commands_refuse_what_they_do_not_read(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


def test_budget_is_read_by_enumerate_verify_and_every_verify_run():
    for argv in (["enumerate", "Z2", "shift:q=2"], ["verify", "Z2", "shift:q=2"],
                 ["rank", "Z2", "shift:q=2", "--verify"], ["boxes", "Z2", "shift:q=2", "--verify"],
                 ["ca", "Z2", "shift:q=2", "--rule", "0:01", "--verify"]):
        assert parse_specs(argv + ["--budget", "3"]).budget == 3


def test_parse_specs_rejects_bad_tokens():
    with pytest.raises(SpecStringError) as info:
        parse_specs(["rank", "Q9", "shift:q=2"])
    assert info.value.token == "Q9"
    with pytest.raises(SpecStringError):
        parse_specs(["rank", "Z6", "shift:q=1"])
    with pytest.raises(SpecStringError):
        parse_specs(["rank", "Z6", "orbits:q=2"])
    with pytest.raises(SpecStringError):
        parse_specs(["rank", "Z6"])                      # missing G-set
    with pytest.raises(SpecStringError):
        parse_specs(["ca", "Z4", "shift:q=2"])           # missing --rule
    with pytest.raises(SpecStringError):
        parse_specs(["ca", "Z4", "cosets:1", "--rule", "0:01"])
    with pytest.raises(SpecStringError):
        parse_specs(["dance", "Z6", "shift:q=2"])
    parse_specs(["lattice", "S3"])                       # no G-set needed


def test_exit_codes(capsys):
    assert main(["rank", "Q9", "shift:q=2"]) == 2
    assert main(["rank", "Z1000000", "shift:q=2"]) == 3
    assert main(["rank", "Z6", "shift:q=1"]) == 2
    assert main(["enumerate", "Z6", "shift:q=2"]) == 3   # |End| beyond budget
    assert main(["rank", "S3", "shift:q=2"]) == 0
    capsys.readouterr()



# group specs whose size shows only in a number: n! past the digit limit, n!
# for n = 10^7, a list of 10^10 points, a closure on 5*10^6 points
HUGE_GROUP_SPECS = ["S3000", "S10000000", "perm:10000000000:(0 1)",
                    "perm:5000000:(0 1);(1 2);(2 3)"]


def test_huge_group_specs_exit_3_at_once():
    # in a child process with 2 GB of address space and a timeout, so that a
    # regression fails here instead of filling the machine's memory
    script = ("import sys, time\n"
              "from equirank.cli import main\n"
              "for spec in sys.argv[1:]:\n"
              "    start = time.perf_counter()\n"
              "    print(main(['lattice', spec]), time.perf_counter() - start)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", script, *HUGE_GROUP_SPECS],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)))
    assert done.returncode == 0, done.stderr
    results = [line.split() for line in done.stdout.splitlines()]
    assert [code for code, _ in results] == ["3"] * len(HUGE_GROUP_SPECS)
    assert max(float(seconds) for _, seconds in results) < 0.5
    assert done.stderr.count("error: ") == len(HUGE_GROUP_SPECS)


def test_commands_leave_numpy_ma_unimported():
    # plain np.unique imports numpy.ma on first use (about 17 ms a process);
    # a fresh interpreter shows whether any command still reaches it
    script = ("import sys\n"
              "from equirank.cli import main\n"
              "for argv in ([c, 'S3', 'shift:q=2'] for c in ('verify', 'rank')):\n"
              "    assert main(argv) == 0\n"
              "assert main(['boxes', 'S3', 'cosets:1']) == 0\n"
              "print('numpy.ma' in sys.modules)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def test_enumerate_count_past_the_int_str_limit_exits_3(capsys):
    # 1600^1600 maps: too many digits to print, still a budget error
    assert main(["enumerate", "Z1", "shift:q=1600"]) == 3
    assert "at least 10^5126 maps" in capsys.readouterr().err


def test_enumerate_checks_its_count_against_the_closed_form(monkeypatch, capsys):
    # |End| comes from the fixed points of the stabilizers, not from the
    # target counts that the enumeration reads, so a codec that loses one
    # target of one orbit is caught: 32,768 maps enumerated against 65,536
    init = equirank.transform._EndIndex.__init__

    def one_target_short(self, X):
        init(self, X)
        self.counts[-1] -= 1

    monkeypatch.setattr(equirank.transform._EndIndex, "__init__", one_target_short)
    assert main(["enumerate", "Z4", "shift:q=2"]) == 4
    assert "enumerated 32768 maps, formula gives 65536" in capsys.readouterr().err


# 5001 digits: past int()'s default limit of 4300
_LONG = "7" * 5001


@pytest.mark.parametrize("argv, code", [
    (["lattice", "Z" + _LONG], 3),                     # a size: like Z99999999999
    (["lattice", "S" + _LONG], 3),
    (["lattice", "D" + _LONG], 3),
    (["lattice", f"perm:{_LONG}:(0 1)"], 3),
    (["rank", "Z2", "shift:q=" + _LONG], 3),
    (["rank", "Z2", "cosets:" + _LONG], 2),            # an element: like cosets:5
    (["lattice", f"perm:3:(0 {_LONG})"], 2),
    (["ca", "Z2", "shift:q=2", "--rule", _LONG + ":0110"], 2),
    (["ca", "Z2", "shift:q=2", "--rule", "0:0,1,1," + _LONG], 2),
    (["ca", "Z2", "shift:q=2", "--rule", "0:0,1,1," + "9" * 20], 2),  # past int64
    (["lattice", "Z" + "0" * 5000 + "6"], 0),          # leading zeros are not digits
], ids=lambda v: " ".join(v)[:32] if isinstance(v, list) else str(v))
def test_numeric_tokens_past_the_int_str_limit(capsys, argv, code):
    assert main(argv) == code
    assert "internal error" not in capsys.readouterr().err


_NUMBER = (st.integers(0, 300).map(str) | st.text("0123456789", min_size=1, max_size=12)
           | st.integers(600, 6000).map(lambda n: "9" * n))
_ATOM_SPEC = st.builds("".join, st.tuples(st.sampled_from(["Z", "S", "D", "Q"]), _NUMBER))
_CYCLE = st.lists(_NUMBER | st.text(max_size=3), max_size=4).map(lambda t: "(" + " ".join(t) + ")")
_GROUP_SPECS = (st.lists(_ATOM_SPEC, min_size=1, max_size=3).map("x".join)
                | st.builds(lambda n, words: f"perm:{n}:" + ";".join(words), _NUMBER,
                            st.lists(st.lists(_CYCLE, max_size=3).map("".join), min_size=1,
                                     max_size=3))
                | st.text(max_size=12))
_SIMPLE_GSET_SPECS = (st.builds("shift:q={}".format, _NUMBER)
                      | st.lists(_NUMBER, min_size=1, max_size=4).map(
                          lambda t: "cosets:" + ",".join(t))
                      | st.text(max_size=12))
_GSET_SPECS = (_SIMPLE_GSET_SPECS
               | st.lists(_SIMPLE_GSET_SPECS, max_size=3).map(lambda t: "union:" + "+".join(t)))
_RULE_SPECS = (st.builds(lambda mem, table: ",".join(mem) + ":" + table,
                         st.lists(_NUMBER, max_size=3),
                         st.text("0123456789", max_size=16)
                         | st.lists(_NUMBER, max_size=4).map(",".join))
               | st.text(max_size=12))


@given(st.sampled_from(COMMANDS), _GROUP_SPECS, _GSET_SPECS, _RULE_SPECS)
@settings(max_examples=300, deadline=None)
def test_parse_specs_returns_a_config_or_exits_2_or_3(command, group, gset, rule):
    try:
        config = parse_specs([command, group, gset] + ["--rule", rule] * (command == "ca"))
    except EquirankError as e:
        assert e.exit_code in (2, 3), e
    else:
        assert config.group_spec == group and config.gset_spec == gset


def test_rank_json_golden(capsys):
    code, report = _json_out(capsys, ["rank", "S3", "shift:q=2"])
    assert code == 0
    assert report["schema"] == 1
    assert report["relative_rank"] == 8
    assert report["u_sizes"] == [4, 2, 2, 1]
    assert report["kappa_size"] == 1
    assert report["alpha"] == [7, 6, 1, 2]
    assert report["tags"] == [
        "push 1->1'", "push 1->(1,1)", "push 1->(1,2)", "push 1->(1,3)",
        "push 2->2'", "push 2->(2,1)", "push 3->(3,1)", "push 4->4'",
    ]
    assert len(report["generators"]) == 8


def test_json_is_deterministic(capsys):
    main(["rank", "S3", "shift:q=2"])
    first = capsys.readouterr().out
    main(["rank", "S3", "shift:q=2"])
    second = capsys.readouterr().out
    assert first == second


def test_paper_layout_golden(capsys):
    assert main(["boxes", "Z6", "shift:q=2", "--paper-layout"]) == 0
    assert capsys.readouterr().out == Z6_PAPER_TABLE


def test_table_output_of_nested_reports(capsys):
    # a list of dicts is written one indexed block per item
    _, report = _json_out(capsys, ["verify", "Z2", "shift:q=2"])
    assert main(["verify", "Z2", "shift:q=2", "--output", "table"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == ["schema: 1", "command: verify", "group: Z2", "gset: Z2 shift q=2"]
    blocks = [[f"checks[{k}]:", f"  name: {c['name']}", f"  status: {c['status']}"]
              for k, c in enumerate(report["checks"])]
    assert lines[4:-1] == sum(blocks, []) and lines[-1] == "failures: 0"
    # a dict inside such an item is written indented one more level
    assert main(["boxes", "Z6", "shift:q=2", "--output", "table"]) == 0
    lines = capsys.readouterr().out.splitlines()
    at = lines.index("boxes[3]:")
    assert lines[at:] == [
        "boxes[3]:",
        "  stabilizer: [0, 1, 2, 3, 4, 5]",
        "  stabilizer_order: 6",
        "  alpha: 2",
        "  aut_orbits: 1",
        "  sub_boxes:",
        "    3: [0, 63]",
        "  points: [0, 63]",
        "  orbits: [[0], [63]]",
    ]
    assert lines[lines.index("boxes[1]:") + 6] == "    1: [9, 18, 27, 36, 45, 54]"


def test_boxes_z4(capsys):
    code, report = _json_out(capsys, ["boxes", "Z4", "shift:q=2"])
    assert code == 0
    assert report["orbit_count"] == 6 and len(report["boxes"]) == 3
    assert report["kappa"] == [1]
    assert [b["alpha"] for b in report["boxes"]] == [3, 1, 2]


def test_enumerate_command(capsys):
    code, report = _json_out(capsys, ["enumerate", "Z2", "shift:q=2"])
    assert code == 0
    assert report["size"] == report["order_formula"] == 16
    assert len(report["images"]) == 16

    code, report = _json_out(capsys, ["enumerate", "Z2", "shift:q=2", "--aut-only"])
    assert report["size"] == 4 and report["kind"] == "aut"


def test_enumerate_past_the_lattice_budget(capsys):
    # |End| is counted without the subgroup lattice, which Z400 and S6 pass
    # (order above 360), so coset spaces of these groups enumerate
    for argv, size in [(["Z400", "cosets:0"], 400), (["S6", "cosets:1,2"], 6)]:
        code, report = _json_out(capsys, ["enumerate", *argv])
        assert code == 0 and report["size"] == report["order_formula"] == size
    assert main(["rank", "Z400", "cosets:0"]) == 3          # rank still needs the lattice


def test_ca_command(capsys):
    code, report = _json_out(capsys, ["ca", "Z4", "shift:q=2", "--rule", "0,1:0110"])
    assert code == 0
    assert report["equivariant"] is True
    assert report["invertible"] is False
    assert report["map_rank"] == 8
    assert report["minimal_memory"] == [0, 1]

    code, report = _json_out(capsys, ["ca", "Z4", "shift:q=2", "--rule", "0:01"])
    assert report["invertible"] is True and report["minimal_memory"] == [0]

    assert main(["ca", "Z4", "shift:q=2", "--rule", "0,1:012"]) == 2
    capsys.readouterr()


def test_ca_builds_one_map(capsys, monkeypatch):
    built = []
    check = equirank.transform.EquivariantMap.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(equirank.transform.EquivariantMap, "__post_init__", counted)
    assert main(["ca", "S3", "shift:q=2", "--rule", "0,1:0110"]) == 0
    capsys.readouterr()
    # the rule's map; minimal_memory_set compares its rebuilt image with it
    assert len(built) == 1


def test_verify_command(capsys):
    code, report = _json_out(capsys, ["verify", "Z2", "shift:q=2"])
    assert code == 0 and report["failures"] == 0
    assert [c["name"] for c in report["checks"]] == [
        "burnside_orbit_count", "alpha_moebius", "aut_orbits_per_box",
        "rank_census", "wreath_orders", "enumeration_vs_formulas",
        "rule_round_trip",
    ]
    assert all(c["status"] == "pass" for c in report["checks"])

    code, report = _json_out(capsys, ["verify", "Z6", "union:cosets:3+cosets:2"])
    assert code == 0 and report["failures"] == 0


def test_verify_decomposes_once(capsys, monkeypatch):
    import equirank.actions
    import equirank.cli
    import equirank.rank

    calls = {"decompose": 0, "build_lattice": 0}

    def counted(real):
        def wrapper(*args, **kwargs):
            calls[real.__name__] += 1
            return real(*args, **kwargs)
        return wrapper

    for module in (equirank.cli, equirank.rank):
        monkeypatch.setattr(module, "decompose", counted(module.decompose))
    monkeypatch.setattr(equirank.actions, "build_lattice",
                        counted(equirank.actions.build_lattice))
    code, report = _json_out(capsys, ["verify", "S3", "shift:q=2"])
    assert code == 0 and report["failures"] == 0
    # many callers ask for the decomposition; it and its lattice are built once
    assert calls["decompose"] > 1 and calls["build_lattice"] == 1


def test_verify_fails_without_one_push(capsys, monkeypatch):
    import dataclasses

    import equirank.cli

    def short_rank(X):
        report = relative_rank(X)
        return dataclasses.replace(report, generating_set=report.generating_set[1:])

    relative_rank = equirank.cli.relative_rank
    monkeypatch.setattr(equirank.cli, "relative_rank", short_rank)
    code, report = _json_out(capsys, ["verify", "Z2", "shift:q=2"])
    assert code == 4 and report["failures"] == 1
    status = {c["name"]: c["status"] for c in report["checks"]}
    assert status.pop("enumeration_vs_formulas") == "fail"
    assert set(status.values()) == {"pass"}


def test_verify_fails_on_a_wrong_aut_order(capsys, monkeypatch):
    from equirank.actions import RankCount

    real = RankCount.aut_order
    monkeypatch.setattr(RankCount, "aut_order", property(lambda count: real.fget(count) + 1))
    code, report = _json_out(capsys, ["verify", "Z2", "shift:q=2"])
    assert code == 4 and report["failures"] == 1
    status = {c["name"]: c["status"] for c in report["checks"]}
    assert status.pop("wreath_orders") == "fail"
    assert set(status.values()) == {"pass"}


def test_verify_skips_over_budget_checks(capsys):
    code, report = _json_out(capsys, ["verify", "Z6", "shift:q=2"])
    assert code == 0 and report["failures"] == 0
    status = {c["name"]: c["status"] for c in report["checks"]}
    assert status["enumeration_vs_formulas"] == "skipped"
    assert status["alpha_moebius"] == "pass"


def test_perm_group_spec(capsys):
    code, report = _json_out(capsys, ["lattice", "perm:3:(0 1);(0 1 2)"])
    assert code == 0 and report["group_order"] == 6
    assert report["class_reps"] == [0, 1, 4, 5]
    assert main(["lattice", "perm:3:(0 9)"]) == 2
    assert main(["lattice", "perm:3:(a b)"]) == 2       # not a number: a spec error
    capsys.readouterr()


def test_lattice_s3_golden(capsys):
    code, report = _json_out(capsys, ["lattice", "S3"])
    assert code == 0
    assert report["subgroups"] == [[0], [0, 1], [0, 2], [0, 5], [0, 3, 4],
                                   [0, 1, 2, 3, 4, 5]]
    assert report["classes"] == [[0], [1, 2, 3], [4], [5]]
    assert report["normalizers"] == [5, 1, 2, 3, 5, 5]
    assert [m for m in report["moebius"] if m[0] == 0 and m[1] == 5] == [[0, 5, 3]]


# sha256 of the stdout bytes: S4 and D4 recorded before subgroup conjugation
# became one table, S5 and A5 before subgroups were enumerated by class, the
# rest before the lattice was built on whole tables (S3xS3, Z3xS4, Z2xS4 and
# Z2^4 are also in perfbench/reference.json; the perm:6 spec is A6)
LATTICE_JSON_SHA256 = {
    "S4": "3b1d17940bb7401bdda03d19d95ead7f43663a04a71f4c5a56a0d274ea0436fe",
    "D4": "23703859c44da8c3fbfac27cf226e0ee7ce80c48e0c63eabfb99fcd3289d6234",
    "S5": "f74d280dd73b9f13b3187e3ab0ca7e480b9d1d1092d2463b98ce62fd90be02a4",
    "perm:5:(0 1 2);(2 3 4)": "c0feb15282b1bc3b92d11323d80c112acec8c54fa1cd3353483dc2dddb031594",
    "S3xS3": "582b9f5afaf3d2f91d6c3d8afba41042438c58d51abc85c56c5e4e6b459a63af",
    "Z3xS4": "444c6fa92072ea5a3322e9e31ecbe265fb661ccfab24e2ffeceb369f9d8a09ad",
    "Z2xS4": "7effc84cd4450c1530672e41bc496bb9c9b32e93ace16e3b7e1fc57a0c8db722",
    "Z2xZ2xZ2xZ2": "4b432034f264d88c6cfb7dfc10e1ad5af5cf7814217871cf0ba8267e4e0493bc",
    "perm:6:(0 1 2);(1 2 3 4 5)": "2413ebf12e7e1f154107cc467318ab937ccf61f01bb596aac2bfab60ab1d387c",
    "Z2xS5": "3048ffbb0ff3f52fb77e969010e7a1d1af0eb38f95f159cd307db03f4a8557b7",
}


@pytest.mark.parametrize("group", sorted(LATTICE_JSON_SHA256))
def test_lattice_json_frozen(capsys, group):
    assert main(["lattice", group]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == LATTICE_JSON_SHA256[group]


def test_lattice_past_the_subgroup_count_cap_exits_3(capsys, monkeypatch):
    import equirank.lattice

    def unreachable(*args):
        raise AssertionError("a subgroups x subgroups table was built past the cap")

    monkeypatch.setattr(equirank.lattice, "_SUBGROUP_COUNT_CAP", 20)
    monkeypatch.setattr(equirank.lattice, "containment", unreachable)
    monkeypatch.setattr(equirank.lattice, "_moebius_table", unreachable)
    assert main(["lattice", "S4"]) == 3                # 30 subgroups
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "more than 20 subgroups" in captured.err


# sha256 of the stdout bytes of the benchmark's two large boxes reports
# (perfbench/reference.json), recorded before the reports were encoded in bulk
BOXES_SHA256 = {
    ("boxes", "S3", "shift:q=7"):
        "f1cbdfb701f5f62fb1b65506b26bad113bcac7a73e154de0bd7251f5d68422e7",
    ("boxes", "D4", "shift:q=4", "--paper-layout"):
        "46eb5033f71da55ec2626fe4bae188b5c19681d6f7b7becd5fb251008dc5aa39",
}


@pytest.mark.parametrize("argv", sorted(BOXES_SHA256), ids=" ".join)
def test_large_boxes_output_frozen(capsys, argv):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == BOXES_SHA256[argv]


_SCALARS = (st.none() | st.booleans() | st.integers(-10 ** 20, 10 ** 20)
            | st.floats(allow_nan=True, allow_infinity=True) | st.text())
_INTS = st.integers(-10 ** 20, 10 ** 20)
# rows like the lattice's Moebius triples, some empty, some with a bool in them
_INT_ROWS = st.lists(st.lists(_INTS | st.booleans(), max_size=4)
                     | st.lists(_INTS, min_size=1, max_size=4) | st.tuples(_INTS, _INTS),
                     max_size=5)
_INT_DTYPES = hnp.integer_dtypes() | hnp.unsigned_integer_dtypes()    # both byte orders
# arrays of every integer dtype, 0-d to 2-D and 0-size among them, each
# dtype's extremes side by side, and bool and float arrays
_ARRAYS = (hnp.arrays(_INT_DTYPES, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0))
           | _INT_DTYPES.map(lambda d: np.array([np.iinfo(d).min, 0, np.iinfo(d).max], dtype=d))
           | hnp.arrays(hnp.boolean_dtypes() | hnp.floating_dtypes(),
                        hnp.array_shapes(min_dims=0, max_dims=2, min_side=0)))
_JSON_VALUES = st.recursive(
    _SCALARS | st.lists(_INTS) | _INT_ROWS | _ARRAYS,
    lambda inner: (st.lists(inner, max_size=5) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(), inner, max_size=5)),
    max_leaves=20)


_CHUNK = equirank.cli._CHUNK_ITEMS


def _across_chunks(size, dtype=np.int64):
    """`size` integers of every digit count, with the dtype's extremes, 0
    and -1 (1 if unsigned) at both ends and on both sides of each chunk
    edge the digit writers cut at."""
    info = np.iinfo(dtype)
    rng = np.random.default_rng(size)
    values = rng.integers(info.min, info.max, size=size, dtype=dtype, endpoint=True)
    values >>= rng.integers(0, 64, size=size).astype(dtype)     # 1 to 20 digits
    edges = {at for edge in range(_CHUNK, size + 1, _CHUNK) for at in (edge - 1, edge)}
    extremes = [info.min, info.max, 0, -1 if info.min else 1]
    for k, at in enumerate(sorted({0, 1, size - 2, size - 1} | edges - {size})):
        values[at] = extremes[k % len(extremes)]
    return values


# 1-D integer arrays one short of, at and one past a chunk, and over three chunks
_CHUNK_EDGE_ARRAYS = [_across_chunks(_CHUNK - 1), _across_chunks(_CHUNK),
                      _across_chunks(_CHUNK + 1), _across_chunks(3 * _CHUNK + 5),
                      _across_chunks(3 * _CHUNK + 5, np.uint64)]
# 2-D integer tables: int64 rows of three (the Moebius triples' shape) and
# uint64 rows of two over three chunks, one row or one column past a chunk,
# and tables with no columns or no rows
_CHUNK_EDGE_TABLES = [_across_chunks(3 * _CHUNK + 6).reshape(-1, 3),
                      _across_chunks(3 * _CHUNK + 6, np.uint64).reshape(-1, 2),
                      _CHUNK_EDGE_ARRAYS[2].reshape(1, -1), _CHUNK_EDGE_ARRAYS[2].reshape(-1, 1),
                      np.zeros((5, 0), dtype=np.int64), np.zeros((0, 5), dtype=np.int64)]


@given(_JSON_VALUES)
@example({code: np.array([np.iinfo(code).min, 0, np.iinfo(code).max], dtype=code)
          for code in np.typecodes["AllInteger"]})
@example(_CHUNK_EDGE_ARRAYS[0])
@example(_CHUNK_EDGE_ARRAYS[1])
@example(_CHUNK_EDGE_ARRAYS[2])
@example({"a": [_CHUNK_EDGE_ARRAYS[3]], "b": {"c": _CHUNK_EDGE_ARRAYS[4]}})
@example(_CHUNK_EDGE_TABLES[0])
@example({"a": [_CHUNK_EDGE_TABLES[1]], "b": {"c": _CHUNK_EDGE_TABLES[0]}})
@example(_CHUNK_EDGE_TABLES[2])
@example(_CHUNK_EDGE_TABLES[3])
@example([_CHUNK_EDGE_TABLES[4], {"a": _CHUNK_EDGE_TABLES[5]}])
@settings(max_examples=200, deadline=None)
def test_report_encoder_writes_the_stock_bytes(value):
    assert (json.dumps(value, sort_keys=True, indent=2, cls=_ReportEncoder)
            == json.dumps(value, sort_keys=True, indent=2, default=np.ndarray.tolist))


@given(_ARRAYS)
@example(np.array([0, -1, 7, -10, np.iinfo(np.int64).min, np.iinfo(np.int64).max]))
@example(np.array([0, 1, np.iinfo(np.uint64).max], dtype=np.uint64))
@example(np.array([], dtype=np.int64))
@example(np.array([], dtype=np.uint8))
@example(_CHUNK_EDGE_ARRAYS[0])
@example(_CHUNK_EDGE_ARRAYS[1])
@example(_CHUNK_EDGE_ARRAYS[2])
@example(_CHUNK_EDGE_ARRAYS[3])
@example(_CHUNK_EDGE_ARRAYS[4])
@example(_CHUNK_EDGE_TABLES[0])
@settings(max_examples=200, deadline=None)
def test_table_output_writes_an_array_as_its_list(value):
    # 1-D integer arrays are written from their digits, all others (2-D
    # tables too) through tolist(); both must read as the list's str
    assert _as_table({"key": value}) == f"key: {value.tolist()}"


# the last two span more than one chunk of rows: two chunks, the second of
# one row, and three chunks of one column
@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (6, 1), (5, 4), (_CHUNK // 3 + 1, 3),
                                   (2 * _CHUNK + 1, 1)])
def test_table_rows_are_the_printf_rows(shape):
    # every width from 1 to 7 digits; the table is a strided view, as
    # orbit_table's rows are
    rng = np.random.default_rng(shape)
    for top in (0, 9, 10, 99, 999, 9_999, 99_999, 100_000, 999_999, 9_999_999):
        table = rng.integers(0, top + 1, size=(2 * shape[0], shape[1]), dtype=np.int32)[::2]
        table[rng.integers(shape[0]), rng.integers(shape[1])] = top
        row = "  " + "  ".join([f"%{len(str(top))}d"] * shape[1])
        text = "".join("\n" + row % tuple(r) for r in table.tolist())
        assert "".join(_table_rows(table)) == text


def test_report_encoder_keeps_the_stock_errors():
    huge = 10 ** 4300                                  # 4301 digits
    for value in ([1, huge], {"a": [huge]}, [1, {"x"}], [[1, 2], [3, huge]], [[], (huge,)]):
        with pytest.raises((ValueError, TypeError)) as stock:
            json.dumps(value, sort_keys=True, indent=2)
        with pytest.raises(stock.type) as ours:
            json.dumps(value, sort_keys=True, indent=2, cls=_ReportEncoder)
        assert str(ours.value) == str(stock.value)
    # reports key their dicts by str; any other key is refused, not coerced
    for value in ({huge: 1}, {1: 2}, [{(1,): 2}], {"a": {None: 3}}):
        with pytest.raises(TypeError):
            json.dumps(value, sort_keys=True, indent=2, cls=_ReportEncoder)


def _encode_peak(report) -> tuple[int, int]:
    """(length, tracemalloc peak in bytes) of the report's encode."""
    tracemalloc.start()
    try:
        text = json.dumps(report, sort_keys=True, indent=2, cls=_ReportEncoder)
        return len(text), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_report_encode_peaks_near_twice_its_text():
    # the parts and the text they are joined into, plus a chunk's working
    # blocks: no copy of the whole text per nesting level
    _, boxes = run(parse_specs(["boxes", "S3", "shift:q=7"]))          # 2.0 MB of JSON
    synthetic = {"a": {"b": [np.arange(-10 ** 6 // 2, 10 ** 6 // 2, dtype=np.int64)]}}
    # Moebius-shaped: rows (i, j, mu) of small indices and signed values,
    # over three chunks of rows
    k = np.arange(3 * _CHUNK + 1)
    moebius = {"moebius": np.stack([k // 50, k % 2000, k % 121 - 60], axis=1)}
    for report in (boxes, synthetic, moebius):
        length, peak = _encode_peak(report)
        assert peak <= 2.5 * length, (length, peak)


def test_a_failed_encode_writes_nothing(capsys, monkeypatch):
    huge = 10 ** 4300                                  # 4301 digits
    report = {"a": np.arange(10 ** 6), "b": [huge]}    # the array is encoded first
    monkeypatch.setattr(equirank.cli, "run", lambda config: (0, report))
    with pytest.raises(ValueError) as stock:
        json.dumps(huge)
    with pytest.raises(ValueError) as ours:
        main(["lattice", "Z2"])
    assert str(ours.value) == str(stock.value)
    assert capsys.readouterr().out == ""


REPORT_COMMANDS = [
    ["lattice", "S3"],
    ["lattice", "perm:5:(0 1 2);(2 3 4)"],            # A5: mu(1, A5) = -60
    ["boxes", "Z4", "shift:q=2"],
    ["enumerate", "Z2", "shift:q=2"],
    ["enumerate", "Z2", "shift:q=2", "--aut-only"],
    ["rank", "S3", "shift:q=2", "--verify"],
    ["ca", "Z4", "shift:q=2", "--rule", "0,1:0110"],
    ["verify", "Z2", "shift:q=2"],
]


@pytest.mark.parametrize("argv", REPORT_COMMANDS, ids=" ".join)
def test_stdout_is_the_stock_json_of_the_report(capsys, argv):
    _, report = run(parse_specs(argv))
    main(argv)
    assert capsys.readouterr().out == json.dumps(report, sort_keys=True, indent=2,
                                                 default=np.ndarray.tolist) + "\n"


# rank instances inside the cell budget whose aut_order has more than 4300
# digits, as (group spec, q, group)
_DIGIT_LIMIT_RANKS = [
    ("Z6", 7, lambda: make_cyclic(6)),
    ("D4", 4, lambda: make_dihedral(4)),
    ("D5", 3, lambda: make_dihedral(5)),
    ("S3", 7, lambda: make_symmetric(3)),
    ("Z6", 5, lambda: make_cyclic(6)),
]


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="ROADMAP item 1: aut_order has over 4300 digits and "
                          "json.dumps raises out of main")
@pytest.mark.parametrize("group, q, make", _DIGIT_LIMIT_RANKS,
                         ids=[f"{g}-q{q}" for g, q, _ in _DIGIT_LIMIT_RANKS])
def test_rank_prints_an_exact_aut_order_past_the_digit_limit(capsys, group, q, make):
    code = main(["rank", group, f"shift:q={q}"])
    out = capsys.readouterr().out
    assert code == 0
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)                      # only to read the output back
    try:
        report = json.loads(out)
    finally:
        sys.set_int_max_str_digits(limit)
    assert report["aut_order"] == decompose(build_shift(make(), q).gset).aut_order


# sha256 of the stdout of rank commands.  D4 and Z2xZ4 at q=3 are shift
# spaces of more than 512 points, which `rank` reads off the lattice; their
# digests were recorded from the point route.  The rest have at most 512
# points, so `rank` builds them and prints the generators: S3 at q=2 is the
# paper's headline (relative rank 8).
RANK_SHA256 = {
    ("rank", "D4", "shift:q=3"):
        "18956a8cd4eee660eff8e98edd94d605a9e7a17205e83e61af734b8bf0424a3b",
    ("rank", "Z2xZ4", "shift:q=3"):
        "0016b42497346eec0e3d335c9ca44d9f2ad0faba97064f43fe43d6fbbe50afc2",
    ("rank", "S3", "shift:q=2"):
        "ee9ecbb4976fce2d02fd03b495a7fe2920ab94aba06793bce033d72d0ddc2c25",
    ("rank", "Z4", "shift:q=2"):
        "a053db860c4d93013918e0def790c3413a48d9999a98d19983bca0141315d5cf",
    ("rank", "D4", "union:cosets:0+cosets:1+cosets:1"):
        "d71ba50e77b52fe0a6c6cc2e997c0a90896149780d76fd2e62aa6b88118b5e62",
}


@pytest.mark.parametrize("argv", sorted(RANK_SHA256), ids=" ".join)
def test_large_rank_output_frozen(capsys, argv):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == RANK_SHA256[argv]


# The zoo's shift spaces of more than 512 points inside the cell budget,
# alphabet 2 to 7, for the groups a spec can name (all but Q8)
_LATTICE_RANKS = [(group, q) for group, n in [("Z4", 4), ("Z5", 5), ("Z6", 6), ("Z7", 7),
                                              ("Z8", 8), ("Z2xZ2", 4), ("S3", 6), ("D4", 8),
                                              ("Z4xZ2", 8), ("Z2xZ2xZ2", 8)]
                  for q in range(2, 8) if 512 < q ** n and q ** n * n <= 10 ** 6]


@pytest.mark.parametrize("group, q", _LATTICE_RANKS, ids=[f"{g}-q{q}" for g, q in _LATTICE_RANKS])
def test_rank_from_the_lattice_prints_the_point_route_bytes(capsys, monkeypatch, group, q):
    argv = ["rank", group, f"shift:q={q}"]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)                      # some aut_orders pass the limit
    try:
        assert main(argv) == 0
        from_lattice = capsys.readouterr().out
        monkeypatch.setattr(equirank.cli, "_shift_rank_report", lambda G, config: None)
        assert main(argv) == 0
        from_points = capsys.readouterr().out
    finally:
        sys.set_int_max_str_digits(limit)
    assert from_lattice == from_points


def test_rank_builds_points_only_where_it_needs_them(capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("points were built")

    monkeypatch.setattr(equirank.cli, "build_shift", unreachable)
    assert main(["rank", "D4", "shift:q=3"]) == 0          # 6,561 points
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == RANK_SHA256["rank", "D4", "shift:q=3"]
    # the generators of 64 points, and --verify, need the points
    for argv in (["rank", "S3", "shift:q=2"], ["rank", "D4", "shift:q=3", "--verify"]):
        assert main(argv) == 5
        assert "points were built" in capsys.readouterr().err
    # past the cell budget, rank still exits 3 before building anything
    assert main(["rank", "S4", "shift:q=2"]) == 3
    assert capsys.readouterr().err == ("error: shift space of 16777216 configurations "
                                       "(402653184 cells) exceeds budget 1000000\n")


def test_table_output(capsys):
    assert main(["rank", "Z2", "shift:q=2", "--output", "table"]) == 0
    out = capsys.readouterr().out
    assert "relative_rank: 2" in out


def test_run_returns_report_directly():
    code, report = run(parse_specs(["boxes", "Z4", "shift:q=2"]))
    assert code == 0 and report["orbit_count"] == 6


def test_verify_after_flag(capsys):
    code, report = _json_out(capsys, ["rank", "Z2", "shift:q=2", "--verify"])
    assert code == 0
    assert all(c["status"] == "pass" for c in report["verification"])
