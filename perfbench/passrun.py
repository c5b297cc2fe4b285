"""One benchmark pass in a fresh interpreter.

Reads {"calls": [argv, ...], "trace": bool} as JSON on stdin, runs each argv
through mubkit.cli.main with stdout and stderr captured, and writes one JSON
object to stdout: per call the exit code, wall seconds and captured text,
the seconds of the speed probe run before each call and after the last, the
interpreter's peak RSS, and, when traced, the per-layer sums of each call
(see layertrace.per_call).

    PYTHONPATH=src python3 perfbench/passrun.py < calls.json
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def probe() -> float:
    """Seconds for a fixed pure-Python loop: the speed of the CPU this pass
    runs on, at this moment (see README.md, "Speed scaling")."""
    start = time.perf_counter()
    s = 0
    for i in range(500_000):
        s += i * i % 7
    return time.perf_counter() - start


def main() -> int:
    job = json.load(sys.stdin)
    import mubkit.cli

    tracer = None
    if job["trace"]:
        import layertrace  # next to this file

        tracer = layertrace.Tracer()
        layertrace.install(tracer)
    results, probes = [], []
    for argv in job["calls"]:
        probes.append(probe())
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = mubkit.cli.main(list(argv))
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
            seconds = time.perf_counter() - start
        results.append({"code": code, "s": seconds,
                        "out": out.getvalue(), "err": err.getvalue()})
    probes.append(probe())
    doc = {"calls": results, "probes": probes, "mubkit": mubkit.cli.__file__}
    if tracer is not None:
        doc["layers"] = layertrace.per_call(tracer)
    doc["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(doc, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
