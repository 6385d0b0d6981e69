#!/usr/bin/env python3
"""Benchmark of ictl through its public entry point, ``ictl.cli.main``.

    python3 perfbench/run.py --workload {prove,scan,check} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  One process, one thread.  A workload is a seeded list of
jobs run as a closed loop: each job is one ``cli.main([...])`` call with
``--format json``, started when the previous one returned.  The list is
run in whole passes, at least one; another pass starts only while it is
expected to end within ``--seconds``.

``--trace 0`` reports the end-to-end metrics: set-up time (the median of
several set-ups, each a fresh import of ``ictl``, input generation and
warm-up, half of them before the timed passes and half after), wall
time of a pass (median over passes), per-job latency percentiles over
all passes and peak resident memory, read after the timed passes and
before the reference work.  ``--trace 1`` runs one untraced pass, then
one pass with the functions of every ``ictl`` layer wrapped
(``spans.py``), and reports per-layer calls, inclusive and self times
plus derived counts and ratios.

Every job's output is checked against a reference computed after timing
(``workloads.py``).  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
run record, with the span table of a traced run, is written to
``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 6  # set-ups before the timed passes, and again after them

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}


def run_job(main, argv: list[str]) -> tuple[float, int | None, str]:
    """(seconds, exit code or None if it raised, stdout or the exception)."""
    buf = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    except SystemExit as e:  # argparse rejected the arguments
        return perf_counter() - t0, e.code if isinstance(e.code, int) else 2, buf.getvalue()
    except Exception as e:  # a crash is a failed job, not a failed benchmark
        return perf_counter() - t0, None, f"{type(e).__name__}: {e}"
    return perf_counter() - t0, code, buf.getvalue()


def run_passes(cli, jobs, seconds: float) -> list[tuple[float, list]]:
    """[(pass wall seconds, [(job, seconds, code, output)])], at least one pass."""
    passes = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        # cli.main is looked up per call so that a traced pass sees the wrapper
        results = [(job, *run_job(cli.main, job.argv)) for job in jobs]
        passes.append((perf_counter() - t0, results))
        typical = statistics.median(wall for wall, _ in passes)
        if perf_counter() - start + typical > seconds:
            return passes


def check_output(workload, job, code: int | None, out: str) -> tuple[dict | None, str | None]:
    """(parsed document, None) for a right answer, else (None, what is wrong)."""
    if code is None:
        return None, f"raised {out}"
    if code >= 2:
        return None, f"exit {code}: {out.strip()[:200]}"
    try:
        doc = json.loads(out)
    except json.JSONDecodeError as e:
        return None, f"output is not JSON: {e}"
    problem = workload.verify(job, code, doc)
    return (None, problem) if problem else (doc, None)


def describe(job) -> str:
    """The job's arguments after ``--format json``, file paths cut to their names."""
    return " ".join(os.path.basename(a) if os.sep in a else a for a in job.argv[2:])[:80]


def p90(values: list[float]) -> float:
    """90th percentile, interpolating between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def end_to_end(setup_s: float, pass_walls: list[float], latencies: list[float],
               rss_mb: float) -> dict:
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(pass_walls),
        "job_p50_ms": statistics.median(latencies) * 1e3,
        "job_p90_ms": p90(latencies) * 1e3,
        "peak_rss_mb": rss_mb,
    }


def per_layer(tracer, traced_wall: float, untraced_wall: float, jobs, docs) -> dict:
    import spans

    out: dict[str, float] = {}
    for name in spans.traced_names():
        calls, incl, self_s, _ = tracer.totals(name)
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = incl
        out[f"{name}.self_s"] = self_s

    fix_calls = sum(tracer.totals(name)[0] for name in spans.FIXPOINTS)
    out["checker.fixpoint_iterations"] = tracer.fixpoint_iterations
    out["checker.fixpoint_calls"] = fix_calls
    out["checker.iterations_per_fixpoint"] = tracer.fixpoint_iterations / fix_calls if fix_calls else 0.0

    search = "gen.find_countermodel"
    out["gen.models_checked"] = (
        tracer.totals("gen.enumerate_models", search)[3] + tracer.totals("gen.random_model", search)[0]
    )
    candidates = tracer.totals("gen.frame_conditions_hold", "gen.enumerate_frames")[0]
    out["gen.frame_candidates"] = candidates
    out["gen.frame_accept_ratio"] = (
        tracer.totals("gen.enumerate_frames")[3] / candidates if candidates else 0.0
    )

    # memo misses: engine operators called straight from the scan loop
    evals = sum(
        tracer.totals(f"checker.{op}", "harness.scan_models")[0]
        for op in spans.TRACED["checker"]
        if op.endswith("_set")
    )
    import workloads

    scans = [(job, doc["report"][0]) for job, doc in zip(jobs, docs) if job.kind == "compare" and doc]
    lookups = sum(
        workloads.Scan.operator_nodes(job.battery_seed) * report["models"] for job, report in scans
    )
    out["harness.operator_evals"] = evals
    out["harness.memo_lookups"] = lookups
    out["harness.memo_hit_ratio"] = 1 - evals / lookups if lookups else 0.0
    out["harness.verdicts"] = sum(report["verdicts"] for _, report in scans)

    out["trace.wall_s"] = traced_wall
    out["trace.overhead_ratio"] = traced_wall / untraced_wall
    return out


def metric_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("_ratio", "_per_fixpoint")):
        return "ratio"
    return "count"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_program() -> None:
    """Import ``ictl.cli`` afresh, with the standard library already loaded."""
    for name in [n for n in sys.modules if n == "ictl" or n.startswith("ictl.")]:
        del sys.modules[name]
    importlib.import_module("ictl.cli")


def set_up(factory, seed: int, workdir: str, small: bool, fresh_import: bool):
    """(seconds, workload): one import, input generation and warm-up."""
    t0 = perf_counter()
    if fresh_import:
        import_program()
    from ictl import cli

    wl = factory(seed, workdir, small)
    for argv in wl.warmup:
        run_job(cli.main, argv)
    return perf_counter() - t0, wl


def run(workload_name: str, seed: int, seconds: float, trace: bool, workdir: str,
        small: bool = False, fresh_import: bool = False) -> dict:
    """Run one workload; returns {"result": printed object, "record": run record}.

    ``fresh_import`` re-imports ``ictl`` in every set-up; the self-tests,
    which patch its modules in place, leave it off.
    """
    import spans
    import workloads

    factory = workloads.WORKLOADS[workload_name]
    setups = []
    for _ in range(SETUP_REPEATS):
        seconds_taken, wl = set_up(factory, seed, workdir, small, fresh_import)
        setups.append(seconds_taken)
    from ictl import cli

    passes = run_passes(cli, wl.jobs, 0 if trace else seconds)
    # taken before the reference work below, which is the benchmark's, not the program's
    rss_mb = peak_rss_mb()
    if trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            passes += run_passes(cli, wl.jobs, 0)
        finally:
            tracer.restore()
    # set up again after timing, so that the median spans the run as wall_s
    # does; the inputs are the same, as they come from the seed alone
    for _ in range(SETUP_REPEATS):
        setups.append(set_up(factory, seed, workdir, small, fresh_import)[0])
    setup_s = statistics.median(setups)

    wl.compute_reference()
    results = [r for _, rs in passes for r in rs]
    checked = [check_output(wl, job, code, out) for job, _, code, out in results]
    failures = [f"{describe(r[0])}: {why}" for r, (_, why) in zip(results, checked) if why]
    # a failed job counts as missing every latency limit
    latencies = [math.inf if why else r[1] for r, (_, why) in zip(results, checked)]

    if trace:
        traced_wall, traced = passes[-1]
        metrics = per_layer(tracer, traced_wall, passes[0][0], [r[0] for r in traced],
                            [doc for doc, _ in checked[-len(traced):]])
        units = {name: metric_unit(name) for name in metrics}
    else:
        metrics = end_to_end(setup_s, [wall for wall, _ in passes], latencies, rss_mb)
        units = END_TO_END_UNITS
    result = {
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    record = {
        "workload": workload_name,
        "why": workloads.WHY[workload_name],
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "jobs_per_pass": len(wl.jobs),
        "passes": len(passes),
        "pass_walls_s": [wall for wall, _ in passes],
        "latency_samples": len(results),
        "fail_share": len(failures) / len(results),
        "failures": failures[:10],
        "setup_runs_s": setups,
        "job_seconds": [[describe(job), sec] for job, sec, _, _ in results],
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
    }
    if trace:
        record["spans"] = tracer.span_table()
    return {"result": result, "record": record}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["prove", "scan", "check"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ictl" / "cli.py").is_file():
        print(f"perfbench: no ictl sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir,
                  fresh_import=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(out, indent=1)
    )

    result, record = out["result"], out["record"]
    print(
        f"perfbench {args.workload} seed={args.seed}: {record['jobs_per_pass']} jobs x "
        f"{record['passes']} passes, fail_share={record['fail_share']:.4g} "
        f"({result['failed']}/{result['attempted']})"
    )
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
        if not math.isfinite(m["value"]):
            m["value"] = None  # a percentile that reached a failed job
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
