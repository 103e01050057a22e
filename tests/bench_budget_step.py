"""The budget-additive sweep step: output identity, in-process and benchmark numbers.

Usage, from the root of a checkout::

    python tests/bench_budget_step.py --base REV --workdir DIR

``DIR`` must not exist yet.  The script exports ``REV`` (``git archive``) and
this working tree (tracked and untracked files that git does not ignore) under
``DIR`` and writes ``BENCH_budget_step.json`` at the root of the checkout with:

* ``pools``: ``tests/test_golden.py --dump FILE --pools`` of this working tree
  run against each export's ``src/``: the line count and SHA-256 of each dump
  and whether the two are byte-identical;
* ``in_process``: each solve workload's seed-7 pool, every request sent
  ``PASSES`` times per process, one process per side and each of ``ROUNDS``
  rounds, the side that runs first alternating; per request kind (the request
  key without its pool item), the median over rounds of the kind's summed
  time, its p50 request time and the rounds the change won;
* ``runs`` and ``summary``: ``SECONDS``-long ``perfbench/run.py`` runs in both
  exports, alternating pairs: ``PAIRS`` of ``paper-sweep`` and three of each
  other workload, on seeds no earlier measurement used; ``digest``: each
  workload on seed 0 in the change's export, where the benchmark checks its
  digest;
* ``host``: ``nproc`` and the BLAS thread count.

No timing is asserted, and pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from bench_out_overwrite import export, perfbench, summarize

ROOT = Path(__file__).resolve().parent.parent
SWEEP_SEEDS = range(7001, 7021)  # unused by every committed BENCH_*.json
OTHER_SEEDS = {"lowdim-exhaustive": (7101, 7102, 7103), "ingest-cold": (7201, 7202, 7203),
               "coverage-gains": (7301, 7302, 7303)}
AB_WORKLOADS, AB_SEED = ("paper-sweep", "lowdim-exhaustive", "coverage-gains"), 7
ROUNDS, PASSES, PAIRS, SECONDS = 9, 3, 10, 20.0

# One process of the in-process A/B: build a workload's pool, warm up, then time every
# request, ``passes`` times over; prints each request kind's times in seconds.
KIND_AB = """
import json, re, sys, tempfile, time
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import divsel, divsel.algorithms, divsel.cli
from workloads import WORKLOADS
workload, seed, passes = WORKLOADS[sys.argv[3]], int(sys.argv[4]), int(sys.argv[5])
times = {}
with tempfile.TemporaryDirectory() as tmp:
    inputs = workload.generate(seed, Path(tmp))
    state = workload.build(divsel, inputs)
    workload.warm_up(divsel, state)
    for _ in range(passes):
        for spec in workload.specs(inputs):
            t0 = time.perf_counter()
            workload.call(divsel, state, spec)
            times.setdefault(re.sub(r" item=\\d+$", "", spec.key), []).append(time.perf_counter() - t0)
print(json.dumps(times))
"""


def pools_identity(trees: dict[str, Path], work: Path) -> dict:
    result = {}
    for side, tree in trees.items():
        path = work / f"{side}.pools"
        subprocess.run([sys.executable, str(ROOT / "tests" / "test_golden.py"), "--dump", str(path),
                        "--pools"], check=True, env={**os.environ, "PYTHONPATH": str(tree / "src")})
        data = path.read_bytes()
        result[side] = {"records": data.count(b"\n"), "sha256": hashlib.sha256(data).hexdigest()}
    result["identical"] = result["parent"]["sha256"] == result["change"]["sha256"]
    return result


def in_process(trees: dict[str, Path]) -> dict:
    result = {}
    for workload in AB_WORKLOADS:
        totals = {side: {} for side in trees}  # kind -> per-round summed ms
        every = {side: {} for side in trees}  # kind -> every request's ms
        for r in range(ROUNDS):
            for side in (("parent", "change") if r % 2 == 0 else ("change", "parent")):
                out = subprocess.run([sys.executable, "-c", KIND_AB, str(trees[side] / "src"),
                                      str(trees[side] / "perfbench"), workload, str(AB_SEED),
                                      str(PASSES)], check=True, capture_output=True, text=True).stdout
                for kind, times in json.loads(out).items():
                    totals[side].setdefault(kind, []).append(sum(times) * 1e3)
                    every[side].setdefault(kind, []).extend(t * 1e3 for t in times)
        kinds = {}
        for kind in totals["parent"]:
            p, c = totals["parent"][kind], totals["change"][kind]
            kinds[kind] = {"total_ms_median": {"parent": round(statistics.median(p), 3),
                                               "change": round(statistics.median(c), 3)},
                           "request_ms_p50": {side: round(statistics.median(every[side][kind]), 4)
                                              for side in trees},
                           "change_wins_rounds": sum(b < a for a, b in zip(p, c))}
        pool = {side: [sum(v) for v in zip(*totals[side].values())] for side in trees}
        result[workload] = {
            "seed": AB_SEED, "rounds": ROUNDS, "passes_per_round": PASSES,
            "pool_ms_median": {side: round(statistics.median(v), 3) for side, v in pool.items()},
            "change_wins_rounds": sum(b < a for a, b in zip(pool["parent"], pool["change"])),
            "kinds": kinds}
        print(json.dumps({workload: result[workload]["pool_ms_median"]}), file=sys.stderr)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the parent revision")
    parser.add_argument("--workdir", required=True, type=Path, help="a new scratch directory")
    args = parser.parse_args()
    args.workdir.mkdir(parents=True)
    base_sha = subprocess.run(["git", "rev-parse", args.base], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    trees = export(base_sha, args.workdir)
    bench = {"label": "budget_step", "parent_sha": base_sha,
             "claim": {"workload": "paper-sweep", "metric": "request_s_p50", "direction": "lower"},
             "host": {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
                      "python": sys.version.split()[0]},
             "pools": pools_identity(trees, args.workdir),
             "in_process": in_process(trees)}
    schedule = [("paper-sweep", seed) for seed in SWEEP_SEEDS[:PAIRS]]
    schedule += [(workload, seed) for workload, seeds in OTHER_SEEDS.items() for seed in seeds]
    runs = []
    for i, (workload, seed) in enumerate(schedule):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            runs.append({"side": side, "pair": i,
                         **perfbench(trees[side], workload, seed, SECONDS)})
            print(json.dumps(runs[-1]), file=sys.stderr)
    bench["runs"] = runs
    bench["summary"] = summarize([r for r in runs if "metrics" in r])
    bench["digest"] = [perfbench(trees["change"], workload, 0, 8.0)
                       for workload in ("paper-sweep", *OTHER_SEEDS)]
    bench["host"]["blas_threads"] = bench["digest"][0].get("blas_threads")
    (ROOT / "BENCH_budget_step.json").write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
