"""One pass of a workload in a fresh interpreter, the way a CLI user runs it.

Reads a JSON job from stdin: ``commands`` (argv lists, already in pass
order), ``workdir`` (where each command's stdout and stderr go) and
``trace`` (whether to record spans).  Imports ``equirank.cli``, then runs
the commands one after another through ``main(argv)`` with stdout and
stderr redirected at the file-descriptor level, so the program sees the
interpreter exactly as a shell redirect would leave it.  Prints one JSON
result line on the original stdout.

Timing starts after the import; digests and sizes are taken after the
last command.  A ``SpeedProbe`` samples the CPU speed around and during
every command (see ``speedprobe.py``); each result carries the probe's own
seconds inside the command and the median probe duration.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

from speedprobe import SpeedProbe


def _run_commands(main, commands, workdir, tracer, probe):
    results = []
    saved = os.dup(1), os.dup(2)
    try:
        for i, argv in enumerate(commands):
            around = probe.mark()
            probe.edge()
            with open(os.path.join(workdir, f"{i}.out"), "wb") as out, \
                    open(os.path.join(workdir, f"{i}.err"), "wb") as err:
                os.dup2(out.fileno(), 1)
                os.dup2(err.fileno(), 2)
                code, exc = None, None
                if tracer is not None:
                    tracer.begin_request(i)
                inside = probe.mark()
                start = time.perf_counter()
                try:
                    code = main(argv)
                except Exception as e:  # the program let it escape main
                    exc = [type(e).__name__, str(e)]
                finally:
                    sys.stdout.flush()
                    sys.stderr.flush()
                    end = time.perf_counter()
                    probe_s = probe.busy_s - inside[1]
                    if tracer is not None:
                        tracer.end_request(start, end)
                    os.dup2(saved[0], 1)
                    os.dup2(saved[1], 2)
            probe.edge()
            results.append({"code": code, "exception": exc, "seconds": end - start,
                            "probe_s": probe_s, "probe_median_s": probe.median_since(around)})
    finally:
        os.dup2(saved[0], 1)
        os.dup2(saved[1], 2)
        os.close(saved[0])
        os.close(saved[1])
    return results


def main() -> int:
    job = json.load(sys.stdin)
    import numpy
    import equirank
    import equirank.cli

    tracer = None
    if job["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    probe = SpeedProbe()
    probe.start()
    try:
        results = _run_commands(equirank.cli.main, job["commands"], job["workdir"], tracer, probe)
    finally:
        probe.stop()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for i, r in enumerate(results):
        path = os.path.join(job["workdir"], f"{i}.out")
        with open(path, "rb") as f:
            data = f.read()
        r["sha256"] = hashlib.sha256(data).hexdigest()
        r["bytes"] = len(data)
    out = {
        "equirank_file": equirank.__file__,
        "numpy": numpy.__version__,
        "peak_rss_mb": peak_kb / 1024.0,
        "commands": results,
    }
    if tracer is not None:
        out["spans"] = tracer.spans
        out["counts"] = tracer.counts
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
