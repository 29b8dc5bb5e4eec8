"""The equirank benchmark: CLI workloads, correctness checks, per-layer spans.

Usage (from the repository root):

    python3 perfbench/run.py --workload lattice|shift|monoid [--seed N]
                             [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test   # one untraced + one traced pass per workload
    python3 perfbench/run.py --record      # rewrite reference.json from src/

A run measures ``setup_s`` (fresh interpreters importing ``equirank.cli``),
then runs passes of the workload while the next one, judged by the longest
so far, would end within ``--seconds`` of the run's start (at least two
passes).  Each pass is a fresh interpreter (``passrunner.py``) that issues
the workload's commands one after another through ``equirank.cli.main``: a
closed loop with a single caller and no threads.  The seed shuffles the
command order of every pass.  With ``--trace 1`` untraced and traced passes
alternate; the traced ones give the per-layer metrics and ``trace.overhead``.

Times are speed-normalised seconds (``speedprobe.py``): each command's
seconds are rescaled by the CPU speed a probe sampled while it ran, so
that a shared host's swings in CPU speed do not show as program changes.
The raw seconds are kept in the record.

Every output is checked against ``reference.json`` and against the facts
in ``workloads.py``.  The last stdout line is the JSON result; the lines
before it show the environment stamp and every metric with its unit.  A
full record of the run, spans included, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from speedprobe import normalised
from tracing import layer_metrics, module_self_time
from workloads import FACTS, WORKLOADS, CheckFailed, check_facts, command_key

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
REFERENCE = BENCH / "reference.json"
SPEC = ROOT / "BENCHMARK.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 170


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def env_stamp() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "equirank").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_start": list(os.getloadavg()),
    }


def measure_setup(repeats: int = SETUP_REPEATS) -> list[list[float]]:
    """[raw, normalised] seconds for fresh interpreters to finish `import equirank.cli`.

    One untimed import first, so byte-code compilation is not counted.
    """
    cmd = [sys.executable, str(BENCH / "speedprobe.py")]
    env = _child_env()
    subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=CHILD_TIMEOUT_S)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        seconds = time.perf_counter() - start
        probe = json.loads(proc.stdout)
        times.append([seconds, normalised(seconds, probe["probe_s"], probe["probe_median_s"])])
    return times


def run_pass(commands: list[list[str]], trace: bool, workdir: Path) -> dict:
    """One pass in a fresh interpreter; returns the pass runner's result."""
    job = json.dumps({"commands": commands, "workdir": str(workdir), "trace": trace})
    proc = subprocess.run([sys.executable, str(BENCH / "passrunner.py")], input=job,
                          capture_output=True, text=True, env=_child_env(),
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"pass runner exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not Path(result["equirank_file"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported equirank from {result['equirank_file']}, not {SRC}")
    return result


def check_command(argv, outcome, ref, output: Path, ran: set) -> tuple[bool, str]:
    """Returns (failed, problem) for one command; an empty problem means correct."""
    exc = outcome["exception"]
    if "exception" in ref:
        # The recorded known failure: the same exception escaping main is
        # correct but failed.  A program that fixes it re-records the reference.
        if exc is not None and exc[0] == ref["exception"] \
                and exc[1].startswith(ref["message_prefix"]):
            ran.add("known_failure")
            return True, ""
        return True, f"{command_key(argv)}: exit {outcome['code']}, exception {exc}"
    if exc is not None or outcome["code"] != ref["code"]:
        return True, f"{command_key(argv)}: exit {outcome['code']}, exception {exc}"
    elif outcome["sha256"] != ref["sha256"]:
        return True, f"{command_key(argv)}: output differs from the reference"
    try:
        check_facts(argv, output.read_text(), ran)
    except CheckFailed as e:
        return True, f"{command_key(argv)}: {e}"
    return False, ""


def command_medians(passes, key: str = "norm_s") -> list[float]:
    """Per command, the median of its normalised seconds over the passes.

    A pass is one command after another, so the sum is the time of a
    median pass; taking the median per command keeps one slow stretch of a
    pass from moving the whole pass.
    """
    seconds: dict[int, list[float]] = {}
    for p in passes:
        for c in p["commands"]:
            seconds.setdefault(c["argv_index"], []).append(c[key])
    return [statistics.median(v) for _, v in sorted(seconds.items())]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    commands = WORKLOADS[name]
    reference = json.loads(REFERENCE.read_text())
    rng = random.Random(seed)
    stamp = env_stamp()
    begin = time.perf_counter()
    setup = measure_setup()

    passes, ran, problems = [], set(), []
    RESULTS.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        workdir = Path(tmp)
        longest = 0.0
        while True:
            traced = trace and len(passes) % 2 == 1
            order = rng.sample(range(len(commands)), len(commands))
            started = time.perf_counter()
            result = run_pass([commands[i] for i in order], traced, workdir)
            longest = max(longest, time.perf_counter() - started)
            n_failed = 0
            for pos, (i, outcome) in enumerate(zip(order, result["commands"])):
                argv = commands[i]
                bad, problem = check_command(argv, outcome, reference[command_key(argv)],
                                             workdir / f"{pos}.out", ran)
                n_failed += bad
                if problem:
                    problems.append(problem)
                outcome["argv_index"] = i
                outcome["norm_s"] = normalised(outcome["seconds"], outcome["probe_s"],
                                               outcome["probe_median_s"])
            result.update(traced=traced, failed=n_failed,
                          output_bytes=sum(c["bytes"] for c in result["commands"]))
            passes.append(result)
            # Another pass only if, as long as the longest so far, it ends in
            # time; but at least two, so no command's time rests on one sample.
            if time.perf_counter() - begin + longest > seconds and len(passes) >= 2:
                break

    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    cmd_s = command_medians(plain)
    end_to_end = {
        "wall_s": sum(cmd_s),
        "max_cmd_s": max(cmd_s),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "ok_ratio": 1.0 - sum(p["failed"] for p in plain) / sum(len(p["commands"]) for p in plain),
        "setup_s": statistics.median(s[1] for s in setup),
    }
    raw = {"wall_s": sum(command_medians(plain, "seconds")),
           "setup_s": statistics.median(s[0] for s in setup)}
    per_layer = {}
    if traced_passes:
        layers = [layer_metrics(p["spans"], p["counts"], _speed_scale(p))
                  for p in traced_passes]
        per_layer = {m: statistics.median(layer[m] for layer in layers) for m in layers[0]}
        per_layer["cli.output_bytes"] = statistics.median(p["output_bytes"] for p in traced_passes)
        per_layer["trace.overhead"] = sum(command_medians(traced_passes)) / sum(cmd_s)
    stamp["loadavg_end"] = list(os.getloadavg())
    stamp["numpy"] = passes[0]["numpy"]
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "env": stamp, "setup_s_samples": setup, "raw_seconds": raw,
        "correct": not problems, "attempted": sum(len(p["commands"]) for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "problems": problems, "facts_checked": sorted(ran),
        "end_to_end": end_to_end, "per_layer": per_layer,
        "layer_self_s": [module_self_time(p["spans"], _speed_scale(p)) for p in traced_passes],
        "passes": passes,
    }


def _speed_scale(traced_pass) -> dict[int, float]:
    """Per command (span request) of a pass, normalised over raw seconds."""
    return {pos: c["norm_s"] / c["seconds"] for pos, c in enumerate(traced_pass["commands"])}


def report(record: dict, spec: dict) -> dict:
    """Print the human summary and return the result line's object.

    The metrics are those BENCHMARK.json names, with its units: end-to-end
    for an untraced run, per-layer for a traced one.
    """
    kind = "per_layer" if record["trace"] else "end_to_end"
    metrics = {m["name"]: {"value": record[kind].get(m["name"]), "unit": m["unit"]}
               for m in spec[kind]}
    print("env: " + json.dumps(record["env"], sort_keys=True))
    print(f"workload {record['workload']} seed {record['seed']}: "
          f"{len(record['passes'])} passes, {record['attempted']} commands, "
          f"{record['failed']} failed (fail_ratio {record['failed'] / record['attempted']:.4f}), "
          f"correct={record['correct']}")
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    for self_s in record["layer_self_s"]:
        total = sum(self_s.values())
        print("  self seconds by module (share of the traced pass): " + ", ".join(
            f"{m}={s:.3f} ({s / total:.1%})"
            for m, s in sorted(self_s.items(), key=lambda kv: -kv[1])))
    for m, entry in metrics.items():
        print(f"  {m} = {entry['value']} {entry['unit']}")
    print("  not normalised: " + ", ".join(f"{m} = {v:.4f} s"
                                           for m, v in record["raw_seconds"].items()))
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def save(record: dict) -> None:
    path = RESULTS / f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}.json"
    path.write_text(json.dumps(record))


def record_references() -> None:
    """Run every command once in separate processes and store its outcome."""
    refs = {}
    RESULTS.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        for commands in WORKLOADS.values():
            result = run_pass(commands, False, Path(tmp))
            for argv, outcome in zip(commands, result["commands"]):
                if outcome["exception"] is None:
                    refs[command_key(argv)] = {"code": outcome["code"],
                                               "sha256": outcome["sha256"],
                                               "bytes": outcome["bytes"]}
                else:
                    exc_type, message = outcome["exception"]
                    refs[command_key(argv)] = {"exception": exc_type,
                                               "message_prefix": message.split(";")[0]}
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(refs)} references to {REFERENCE}")


def self_test(spec: dict) -> int:
    """One untraced and one traced pass of each workload; checks the result shape."""
    errors, facts = [], set()
    for name in WORKLOADS:
        record = run_workload(name, DEFAULT_SEED, 0, True)
        facts.update(record["facts_checked"])
        if not record["correct"]:
            errors.append(f"{name}: incorrect: {record['problems']}")
        if record["attempted"] != 2 * len(WORKLOADS[name]):
            errors.append(f"{name}: {record['attempted']} commands checked")
        for kind in ("end_to_end", "per_layer"):
            missing = [m["name"] for m in spec[kind]
                       if not isinstance(record[kind].get(m["name"]), (int, float))]
            if missing:
                errors.append(f"{name}: {kind} metrics missing: {missing}")
        report(record, spec)
    missing_facts = sorted(set(FACTS) - facts)
    if missing_facts:
        errors.append(f"facts never checked: {missing_facts}")
    for e in errors:
        print(f"self-test FAILED: {e}", file=sys.stderr)
    if not errors:
        print("self-test ok")
    return 1 if errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    for path in (SRC / "equirank" / "cli.py", SPEC):
        if not path.is_file():
            print(f"error: {path} is missing", file=sys.stderr)
            return 2
    if args.record:
        record_references()
        return 0
    if not REFERENCE.is_file():
        print(f"error: {REFERENCE} is missing; run with --record", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    if args.self_test:
        return self_test(spec)
    if args.workload is None:
        parser.error("--workload is required")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    record = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    save(record)
    print(json.dumps(report(record, spec)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
