"""Record the end-to-end numbers and the per-layer split of every workload.

Usage, from the root of a checkout::

    python3 perfbench/baseline.py [--seeds 0 1] [--seconds 20]

Runs ``run.py`` once untraced and once traced for each workload and seed,
one process at a time, and writes ``perfbench/baseline.json``: for each
workload and seed the result object of both runs and the parts of the run
record that explain them (samples, tail percentile, set-up breakdown, trace
summary, machine and load).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run
import workloads

KEPT = ("git_sha", "source_sha256", "samples", "setup", "periods", "failed_frac", "failures",
        "loadavg_before", "loadavg_after", "nproc", "python", "numpy", "scipy", "blas",
        "blas_threads", "trace_summary", "absent_metrics")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, check=True, timeout=300)
    lines = out.stdout.strip().splitlines()
    record = json.loads(next(line for line in lines if line.startswith("record "))[7:])
    summary = record.get("trace_summary")
    if summary:  # per-span tables are in the record file; keep the totals here
        record["trace_summary"] = {k: v for k, v in summary.items()
                                   if k not in ("calls", "self_s", "total_s")}
    return {"result": json.loads(lines[-1]), "record": {k: record[k] for k in KEPT if k in record}}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[run.DEFAULT_SEED, 1])
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()
    doc = {"seconds": args.seconds, "workloads": {}}
    for name in workloads.WORKLOADS:
        for seed in args.seeds:
            for trace in (0, 1):
                entry = run_once(name, seed, args.seconds, trace)
                doc["workloads"].setdefault(name, {}).setdefault(str(seed), {})[
                    "traced" if trace else "untraced"] = entry
                print(f"{name} seed={seed} trace={trace} correct={entry['result']['correct']}",
                      flush=True)
    with open(run.ROOT / "perfbench" / "baseline.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
