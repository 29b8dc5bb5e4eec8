"""Spans around the calls between equirank's modules, recorded from outside.

``Tracer.install`` wraps, inside the already imported program, every
function that ``equirank.cli``, ``equirank.rank``, ``equirank.actions`` and
``equirank.transform`` import from another equirank module, plus the
``GSet`` and ``EquivariantMap`` constructors and the CLI's own argument
parsing and JSON encoding.  Only the traced pass's process is changed; no
source file is.  Spans stay in memory as
``[name, start, end, parent, request]`` and go out with the pass result.

``layer_metrics`` turns one pass's spans into the per-layer metrics: self
time is a span's duration minus the time its child spans cover, rescaled
by its command's speed factor (normalised over raw seconds, see
``speedprobe.py``).
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types

LAYER_MODULES = ("equirank.cli", "equirank.rank", "equirank.actions", "equirank.transform")
ROOT_SPAN = "cli.main"


def _count_decompose(counts, decomp):
    counts["actions.points"] += decomp.gset.size
    counts["actions.orbits"] += sum(decomp.alpha)


def _count_lattice(counts, lattice):
    counts["lattice.subgroups"] += len(lattice.subgroups)


def _count_enumeration(counts, found):
    counts["transform.enumerated_rows"] += found.size


def _count_closure(counts, found):
    counts["transform.closure_rows"] += found.size
    counts["transform.closure_gens"] += len(found.generators)


_COUNT_HOOKS = {
    "actions.decompose": _count_decompose,
    "lattice.build_lattice": _count_lattice,
    "transform.enumerate_end": _count_enumeration,
    "transform.enumerate_aut": _count_enumeration,
    "transform.closure": _count_closure,
}

COUNTS = ("lattice.subgroups", "actions.points", "actions.orbits",
          "transform.enumerated_rows", "transform.closure_rows", "transform.closure_gens")

# Per-layer seconds: the summed self time of the spans named (a name
# ending in ".*" takes every span of that module).
SELF_TIME = {
    "cli.parse_s": ("cli.parse_specs",),
    "cli.encode_s": ("cli.encode",),
    "groups.build_s": ("groups.*",),
    "lattice.build_s": ("lattice.*",),
    "actions.gset_s": ("actions.GSet",),
    "actions.decompose_s": ("actions.decompose",),
    "transform.enumerate_s": ("transform.enumerate_end", "transform.enumerate_aut"),
    "transform.closure_s": ("transform.closure",),
    "transform.map_check_s": ("transform.EquivariantMap",),
    "rank.relative_rank_s": ("rank.relative_rank",),
    "rank.wreath_checks_s": ("rank.wreath_order_checks",),
    "rank.aut_generators_s": ("rank.aut_generators",),
    "shift.build_s": ("shift.build_shift",),
    "shift.ca_s": ("shift.ca_from_rule", "shift.rule_from_map"),
    "shift.memory_s": ("shift.minimal_memory_set",),
}

# Per-layer call counts: how many spans of these names a pass made.
CALLS = {
    "lattice.builds": ("lattice.build_lattice",),
    "actions.decompose_calls": ("actions.decompose",),
    "transform.maps_built": ("transform.EquivariantMap",),
}


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack: list[int] = []
        self._request = -1

    def _wrap(self, fn, name):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = _COUNT_HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = [name, start, end, parent, self._request]
            if hook is not None:
                hook(counts, result)
            return result

        return traced

    def install(self) -> None:
        wrapped = {}
        for modname in LAYER_MODULES:
            module = sys.modules[modname]
            for attr, obj in list(vars(module).items()):
                if (isinstance(obj, types.FunctionType) and obj.__module__ != modname
                        and obj.__module__.startswith("equirank.")):
                    if obj not in wrapped:
                        wrapped[obj] = self._wrap(obj, _span_name(obj))
                    setattr(module, attr, wrapped[obj])
        cli = sys.modules["equirank.cli"]
        cli.parse_specs = self._wrap(cli.parse_specs, "cli.parse_specs")
        cli.json = types.SimpleNamespace(dumps=self._wrap(json.dumps, "cli.encode"))
        for cls, name in ((sys.modules["equirank.actions"].GSet, "actions.GSet"),
                          (sys.modules["equirank.transform"].EquivariantMap,
                           "transform.EquivariantMap")):
            cls.__post_init__ = self._wrap(cls.__post_init__, name)

    def begin_request(self, request: int) -> None:
        """Open the root span of one command; its times come from end_request."""
        self._request = request
        self._stack[:] = [len(self.spans)]
        self.spans.append(None)

    def end_request(self, start: float, end: float) -> None:
        idx = self._stack[0]
        self.spans[idx] = [ROOT_SPAN, start, end, -1, self._request]
        self._stack.clear()


def span_table(spans, scale: dict[int, float]) -> dict[str, list]:
    """Per span name: [calls, total seconds, self seconds].

    ``scale`` maps a span's request to the factor its seconds are multiplied by.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table: dict[str, list] = {}
    for (name, start, end, _, request), covered in zip(spans, child_time):
        row = table.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += (end - start) * scale[request]
        row[2] += (end - start - covered) * scale[request]
    return table


def _matches(name: str, patterns) -> bool:
    return any(name == p or (p.endswith(".*") and name.startswith(p[:-1]))
               for p in patterns)


def layer_metrics(spans, counts, scale: dict[int, float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    table = span_table(spans, scale)
    out: dict[str, float] = {}
    for metric, patterns in SELF_TIME.items():
        out[metric] = sum((row[2] for name, row in table.items() if _matches(name, patterns)), 0.0)
    for metric, patterns in CALLS.items():
        out[metric] = sum(row[0] for name, row in table.items() if _matches(name, patterns))
    out.update(counts)
    return out


def module_self_time(spans, scale: dict[int, float]) -> dict[str, float]:
    """Self seconds per program module, to show which layers a workload loads."""
    out: dict[str, float] = {}
    for name, (_, _, self_s) in span_table(spans, scale).items():
        module = name.split(".", 1)[0]
        out[module] = out.get(module, 0.0) + self_s
    return out
