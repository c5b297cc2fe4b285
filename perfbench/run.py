"""mubkit benchmark: CLI workloads timed end to end, or traced per layer.

    python3 perfbench/run.py --workload construct-count --seed 1 --seconds 56 --trace 0

Run from the root of a source tree; the package is imported from ./src. Each
pass runs one workload's CLI calls in a fresh interpreter (perfbench/
passrun.py), one pass at a time, until the next pass would end after
--seconds. Every output is checked against a known answer. Timings are
scaled to a reference machine speed, measured by a fixed loop timed between
the calls of each pass (see PROBE_REF_S). Standard output
ends with three JSON lines: the environment, a per-metric summary (median,
max, sample count), and the result object. The exit code is 1 if any call
gave a wrong answer, 2 if nothing could be measured (no package in ./src, an
interpreter that crashed or hung); no result is printed then. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PER_PASS = 3
# The speed of a shared VM drifts by up to 1.6x over minutes. So every pass
# also times a fixed loop, passrun.probe(), before each call and after the
# last; the probe time is taken out of the pass's wall and CPU time, and
# every timing is scaled to the speed at which the probe takes PROBE_REF_S
# seconds (about its median on a 2-vCPU Xeon guest, Python 3.11). The summary
# line keeps the unscaled times. See README.md, "Speed scaling".
PROBE_REF_S = 0.06
# a run must end within 180 s even if a pass hangs
HARD_LIMIT_S = 170

SETUP_CODE = """\
import time
t = time.perf_counter()
import mubkit.cli
mubkit.cli.build_parser()
print(time.perf_counter() - t, mubkit.cli.__file__)
"""

# per-layer metric -> unit, in the order they are printed
LAYER_METRICS = {
    "zplinalg.ExtField.trace.calls": "count", "zplinalg.ExtField.trace.s": "s",
    "zplinalg.ExtField.mul.calls": "count",
    "zplinalg.solve_affine.calls": "count", "zplinalg.solve_affine.s": "s",
    "zplinalg.rref.calls": "count", "zplinalg.rref.s": "s",
    "groups.classify_basis.calls": "count", "groups.classify_basis.s": "s",
    "groups.separation_pattern.s": "s", "groups.nbody_profile.s": "s",
    "groups.qupit_factor_distribution.calls": "count",
    "groups.qupit_factor_distribution.s": "s",
    "groups.members.calls": "count", "groups.members.bytes": "bytes",
    "groups.member_keys.calls": "count", "groups.member_keys.s": "s",
    "complement.field_spread.s": "s",
    "complement.complement_distribution.calls": "count",
    "complement.complement_distribution.s": "s",
    "complement.enumerate_lagrangians.s": "s", "complement.enumerate_lagrangians.count": "count",
    "complement.search_spreads.first_s": "s", "complement.search_spreads.s": "s",
    "complement.search_spreads.yielded": "count",
    "complement.verify_spread.s": "s", "complement.purity_census.s": "s",
    "complement.dumps.s": "s", "complement.from_json_dict.s": "s",
    "hilbert.eigenbasis.full.calls": "count", "hilbert.eigenbasis.full.s": "s",
    "hilbert.eigenbasis.full.bytes": "bytes",
    "hilbert.eigenbasis.light.calls": "count", "hilbert.eigenbasis.light.s": "s",
    "hilbert.eigenvalue_deviation.s": "s",
    "hilbert.mub_check.calls": "count", "hilbert.mub_check.s": "s",
    "hilbert.mub_check.pair_ratio": "ratio", "hilbert.mub_check.concurrency": "ratio",
    "hilbert.qupit_purities.s": "s",
    "stoich.extremize.s": "s", "stoich.count_solutions.s": "s",
    "stoich.enumerate_solutions.s": "s", "stoich.solutions": "count",
    "stoich.profile_table.s": "s",
    "cli.main.s": "s", "cli.self_s": "s",
    "trace.pass_s": "s", "trace.overhead_s": "s",
}
# the gated subset of the summary; the per-command metrics are printed in the
# summary only (see README.md, "End-to-end metrics")
END_TO_END = ("setup_s", "pass_s", "pass_cpu_s", "peak_rss_mb")


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("MUBKIT_THREADS", None)  # program default: the verifier picks its own pool
    env["PYTHONPATH"] = str(SRC)
    return env


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, as OpenBLAS reports them."""
    import ctypes

    import numpy  # noqa: F401  (loads OpenBLAS)
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(dll, sym):
                return int(getattr(dll, sym)())
    return None


def environment(seed: int) -> dict:
    import numpy
    try:
        # the ceiling keeps git from reporting an enclosing repository
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10,
                                env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
                                ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "openblas_threads": blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "MUBKIT_THREADS_set": "MUBKIT_THREADS" in os.environ,
            "seed": seed, "commit": commit, "loadavg_before": os.getloadavg()}


def measure_setup(env) -> float:
    """Seconds to import mubkit.cli and build the parser in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        raise RuntimeError(f"import failed: {done.stderr.strip()[-300:]}")
    seconds, path = done.stdout.split(maxsplit=1)
    if not Path(path.strip()).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported mubkit from {path.strip()}, not from {SRC}")
    return float(seconds)


def run_pass(argvs: list[list[str]], trace: bool, env, timeout: float) -> dict:
    """One pass in a fresh interpreter: its wall and CPU seconds without the
    probes, its speed scale, peak RSS, and per call the exit code, seconds,
    captured output (and layer sums)."""
    job = json.dumps({"calls": argvs, "trace": trace})
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "passrun.py")], cwd=ROOT, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(job, timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"pass exceeded {timeout:.0f} s and was stopped")
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise RuntimeError(f"pass exited {proc.returncode}: {err.strip()[-300:]}")
    doc = json.loads(out)
    spent = sum(doc["probes"])
    doc["wall_s"] = wall - spent
    doc["cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime) - spent
    doc["scale"] = PROBE_REF_S / statistics.median(doc["probes"])
    return doc


def self_check_problems(call: workloads.Call, layers: dict) -> list[str]:
    return [f"{name} = {layers.get(name)}, expected {want}"
            for name, want in call.counts.items() if layers.get(name) != want]


def summarize(values: list[float], unit: str) -> dict:
    """Median with max and sample count; no tail percentile has ten samples
    beyond it at the pass counts one run makes, so the max stands in."""
    return {"value": statistics.median(values), "unit": unit, "max": max(values),
            "n": len(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "mubkit" / "cli.py").is_file():
        return fail(f"no package to measure: {SRC / 'mubkit' / 'cli.py'} is missing")
    env = child_env()
    info = environment(args.seed)
    start = time.perf_counter()
    deadline = start + args.seconds

    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    setup, passes, traced = [], [], []
    attempted = failed = 0
    try:
        files = workloads.make_inputs(args.workload, args.seed, workdir,
                                      workdir.relative_to(ROOT))
        wl = workloads.workload(args.workload, files)
        argvs = [c.argv for c in wl.calls]
        while True:
            round_start = time.perf_counter()
            for trace in ((False, True) if args.trace else (False,)):
                try:
                    # set-up samples spread over the run, three per pass
                    setup += [measure_setup(env) for _ in range(SETUP_PER_PASS)]
                    doc = run_pass(argvs, trace, env,
                                   HARD_LIMIT_S - (time.perf_counter() - start))
                except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
                    return fail(str(exc))
                (traced if trace else passes).append(doc)
                for i, (call, got) in enumerate(zip(wl.calls, doc["calls"])):
                    attempted += 1
                    problems = [p for p in [call.check(got["code"], got["out"], got["err"])] if p]
                    if trace:
                        problems += self_check_problems(call, doc["layers"][i])
                    if problems:
                        failed += 1
                        print(f"perfbench: wrong answer from mubkit {' '.join(call.argv)}: "
                              + "; ".join(problems), file=sys.stderr)
            now = time.perf_counter()
            if now + (now - round_start) > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    probes = [p for d in passes for p in d["probes"]]
    setup_scale = PROBE_REF_S / statistics.median(probes)  # set-up runs between passes

    def timing(key):
        return summarize([d[key] * d["scale"] for d in passes], "s")

    summary = {
        "setup_s": summarize([s * setup_scale for s in setup], "s"),
        "pass_s": timing("wall_s"),
        "pass_cpu_s": timing("cpu_s"),
        "peak_rss_mb": summarize([d["maxrss_kb"] / 1024 for d in passes], "MB"),
        "probe_s": summarize(probes, "s"),
        "setup_wall_s": summarize(setup, "s"),
        "pass_wall_s": summarize([d["wall_s"] for d in passes], "s"),
        "pass_cpu_wall_s": summarize([d["cpu_s"] for d in passes], "s"),
    }
    # The highest peak, not the median: RSS counts file-backed pages of numpy's
    # shared libraries, and under memory pressure from outside some of them are
    # not resident, which lowers a pass's peak by up to ~30 MB.
    summary["peak_rss_mb"]["value"] = summary["peak_rss_mb"]["max"]
    for kind in wl.kinds:
        summary[kind] = summarize([d["scale"] * sum(got["s"] for call, got
                                                    in zip(wl.calls, d["calls"])
                                                    if call.kind == kind)
                                   for d in passes], "s")
    summary["failed_frac"] = {"value": failed / attempted, "unit": "ratio"}
    if args.trace:
        import layertrace
        per_pass = [layertrace.layer_metrics(d["layers"]) for d in traced]
        for d, doc in zip(per_pass, traced):
            d["trace.pass_s"] = doc["wall_s"] * doc["scale"]
            d["trace.overhead_s"] = d["trace.pass_s"] - summary["pass_s"]["value"]
        metrics = {name: {"value": statistics.median(d[name] for d in per_pass), "unit": unit}
                   for name, unit in LAYER_METRICS.items()}
    else:
        metrics = {name: {"value": summary[name]["value"], "unit": summary[name]["unit"]}
                   for name in END_TO_END}
    info["loadavg_after"] = os.getloadavg()
    print(json.dumps({"env": info}))
    print(json.dumps({"workload": args.workload, "summary": summary}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
