#!/usr/bin/env python3
"""Run the benchmark over several seeds and print every metric's spread.

    python3 perfbench/summarize.py [--seeds 1 2 3 ...] [--trace]
        [--out FILE] [--against FILE]

Each run is a separate ``perfbench/run.py`` process, started one at a
time from the repository root, for every workload of ``BENCHMARK.json``
with its ``run_seconds``.  For every metric the table gives the unit, the
sample count, the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread, which is the distance between the quartiles as a share
of the median.  End-to-end spreads are compared with a third of the
metric's bound.  ``--out`` writes the runs, the summary and a run record
(commit, Python version, core count, CPU model, seeds, jobs per
workload and why each workload was chosen) as JSON.  ``--against`` takes
an earlier ``--out`` file and prints, per end-to-end metric, this
series' median over that one's, flagged where it is worse by more than
the bound.  The exit code is 1 if a run failed, or if with ``--against`` a
median is worse than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORDS = ROOT / ".bench_build" / "perfbench"
RECORD_KEYS = ["git_sha", "python", "nproc", "cpu_model"]


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    record_file = RECORDS / f"{workload}-seed{seed}-trace{trace}.json"
    record = json.loads(record_file.read_text())["record"] if record_file.is_file() else {}
    for bulky in ("spans", "job_seconds"):
        record.pop(bulky, None)
    return {
        "seed": seed, "trace": trace, "exit": proc.returncode, "elapsed_s": elapsed,
        "result": result, "record": record, "stderr": proc.stderr[-2000:],
    }


def compact(run: dict) -> dict:
    """The run with each metric as a bare value; the summary keeps the units."""
    res = run["result"]
    if res is None:
        return run
    return {**run, "result": {**res, "metrics": {k: m["value"] for k, m in res["metrics"].items()}}}


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "n": len(values), "median": med, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
    }


def compare(summary: dict, earlier: dict, spec: dict) -> bool:
    """Print this series' medians over the earlier series'; False if one is worse than its bound."""
    ok = True
    print("median ratio, this series over the earlier one")
    for workload, now in summary.items():
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            before = earlier["summary"][workload]["metrics"].get(name)
            after = now["metrics"].get(name)
            if not before or not after:
                print(f"  {workload:6} {name:12} missing")
                ok = False
                continue
            ratio = after["median"] / before["median"]
            worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
            flag = "ok" if worse <= bound else f"WORSE (bound {bound})"
            ok &= worse <= bound
            print(f"  {workload:6} {name:12} {before['median']:>12.6g} {after['median']:>12.6g} "
                  f"{ratio:.4f} {flag}")
    return ok


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--trace", action="store_true", help="per-layer metrics instead")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--against", type=Path, help="an earlier --out file of end-to-end runs")
    args = parser.parse_args(argv)
    trace = int(args.trace)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs: dict[str, list[dict]] = {}
    summary: dict[str, dict] = {}
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        runs[workload] = []
        for seed in args.seeds:
            run = one_run(workload, seed, spec["run_seconds"], trace)
            runs[workload].append(run)
            res = run["result"]
            state = "no result" if res is None else f"correct={res['correct']}"
            print(f"{workload} seed={seed}: {state} exit={run['exit']} in {run['elapsed_s']:.1f}s",
                  flush=True)
        results = [r["result"] for r in runs[workload] if r["result"] is not None]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        ok &= len(results) == len(args.seeds) and all(r["correct"] for r in results)
        metrics = {}
        for name in results[0]["metrics"] if results else []:
            values = [r["metrics"][name]["value"] for r in results]
            if any(v is None for v in values):
                continue
            metrics[name] = {"unit": results[0]["metrics"][name]["unit"], **spread(values)}
        summary[workload] = {
            "runs": len(results), "jobs_attempted": attempted, "jobs_failed": failed,
            "fail_share": failed / attempted if attempted else None, "metrics": metrics,
        }
        print(f"\n{workload}: {len(results)} runs, {attempted} jobs, "
              f"fail_share={summary[workload]['fail_share']}")
        print(f"  {'metric':44} {'unit':6} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} spread")
        for name, m in metrics.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "ok" if m["spread"] < bound / 3 else f"WIDE (bound {bound})"
            print(f"  {name:44} {m['unit']:6} {m['n']:>3} {m['median']:>12.6g} "
                  f"{m['q1']:>12.6g} {m['q3']:>12.6g} {m['spread']:.4f} {flag}")
        print(flush=True)

    if args.against:
        ok &= compare(summary, json.loads(args.against.read_text()), spec)

    if args.out:
        first = {w: rs[0]["record"] for w, rs in runs.items() if rs}
        some = next(iter(first.values()), {})
        record = {
            **{key: some.get(key) for key in RECORD_KEYS},
            "run_seconds": spec["run_seconds"],
            "trace": trace,
            "seeds": args.seeds,
            "jobs_per_pass": {w: r.get("jobs_per_pass") for w, r in first.items()},
            "why": {w: r.get("why") for w, r in first.items()},
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        runs = {w: [compact(r) for r in rs] for w, rs in runs.items()}
        args.out.write_text(json.dumps({"record": record, "summary": summary, "runs": runs}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
