"""Rewriting ``--out`` files in place: file-system, in-process and benchmark numbers.

Usage, from the root of a checkout::

    python tests/bench_out_overwrite.py --base REV --workdir DIR [--pairs 10] [--seconds 20]

``DIR`` must not exist yet and should sit on the file system that benchmark
checkouts use, since the cost measured here is the file system's.  The script
exports ``REV`` (``git archive``) and this working tree (tracked and untracked
files that git does not ignore) under ``DIR`` and writes
``BENCH_out_overwrite.json`` at the root of the checkout with:

* ``fs``: the median cost, over 7 files each, of replacing a small file's
  contents by ``O_TRUNC``, by ``unlink`` and create, by a rename over it, and
  by ``formats._write_text`` in place (same, shorter and longer length).  Each
  is timed on files that were fsynced, on new files not yet written back, and
  on files last written by a truncating rewrite, as ``ingest`` left its
  ``--out`` before this change;
* ``in_process``: ``divsel ingest`` called in process over one
  ``ingest-cold``-shaped file, rewriting one ``--out``; one process per side
  and round, the side that runs first alternating;
* ``runs`` and ``summary``: ``perfbench/run.py`` in both exports, ``--pairs``
  alternating pairs of ``ingest-cold`` runs and one pair of each other
  workload, on seeds no earlier measurement used; ``digest``: each workload
  on seed 0 in the change's export, where the benchmark checks its digest;
* ``host``: ``nproc``, the BLAS thread count and the mount options of the file
  system holding ``DIR``.

No timing is asserted, and pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
INGEST_SEEDS = range(6001, 6021)  # unused by every committed BENCH_*.json
OTHER_SEEDS = {"paper-sweep": 6101, "lowdim-exhaustive": 6201, "coverage-gains": 6301}
FS_FILES, PAYLOAD = 7, 1000  # bytes, about one ingest-cold output

# One process of the in-process A/B: warm up, then time ``divsel ingest`` calls.
INGEST_AB = """
import contextlib, io, json, sys, time
sys.path.insert(0, sys.argv[1])
from divsel.cli import main
argv = ["ingest", "--embeddings", sys.argv[2], "--utility", "margin", "--k", "8", "--out", sys.argv[3]]
times = []
for i in range(int(sys.argv[4]) + 2):
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    times.append((time.perf_counter() - t0) * 1e3)
print(json.dumps(times[2:]))
"""


def export(base: str, dest: Path) -> dict[str, Path]:
    """``base`` and this working tree as two plain directories under ``dest``."""
    trees = {"parent": dest / "parent", "change": dest / "change"}
    for tree in trees.values():
        tree.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", base], cwd=ROOT, check=True,
                             capture_output=True).stdout
    tar_path = dest / "parent.tar"
    tar_path.write_bytes(archive)
    with tarfile.open(tar_path) as tar:
        tar.extractall(trees["parent"], filter="data")
    tar_path.unlink()
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, check=True, capture_output=True, text=True).stdout
    for name in filter(None, listed.split("\0")):
        if (ROOT / name).is_file():  # a tracked file deleted in the working tree is skipped
            (trees["change"] / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, trees["change"] / name)
    return trees


def fs_micro(work: Path) -> dict:
    from divsel.formats import _write_text

    data = "z" * PAYLOAD

    def o_trunc(path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(data)

    def unlink(path):
        os.unlink(path)
        o_trunc(path)

    def rename_over(path):
        o_trunc(f"{path}.tmp")
        os.replace(f"{path}.tmp", path)

    ops = {"o_trunc": o_trunc, "unlink": unlink, "rename_over": rename_over,
           "in_place": lambda path: _write_text(data, path),
           "in_place_shorter": lambda path: _write_text(data[:-16], path),
           "in_place_longer": lambda path: _write_text(data + "z" * 16, path)}

    def prepare(path, state):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(data)
            if state == "fsynced":
                fh.flush()
                os.fsync(fh.fileno())
        if state == "after_truncating_rewrite":
            o_trunc(path)

    result = {}
    for state in ("fsynced", "not_written_back", "after_truncating_rewrite"):
        for name, op in ops.items():
            samples = []
            for i in range(FS_FILES):
                path = work / f"{state}-{name}-{i}"  # a new file: no earlier write affects it
                prepare(path, state)
                t0 = time.perf_counter()
                op(path)
                samples.append((time.perf_counter() - t0) * 1e3)
            result[f"{state}/{name}"] = {"median_ms": round(statistics.median(samples), 4),
                                         "samples_ms": [round(s, 4) for s in samples]}
    return result


def ingest_file(path: Path) -> None:
    """One file shaped like an ``ingest-cold`` pool item: n 1,500 unit rows of dim 64."""
    rng = np.random.default_rng(6000)
    vectors = rng.standard_normal((1500, 64))
    vectors /= np.linalg.norm(vectors, axis=1)[:, None]
    with open(path, "w", encoding="utf-8") as fh:
        for vec, unc in zip(vectors.tolist(), rng.uniform(0.0, 2.0, 1500).tolist()):
            fh.write(json.dumps({"embedding": vec, "uncertainty": unc}) + "\n")


def in_process(trees: dict[str, Path], work: Path, rounds: int = 6, calls: int = 20) -> dict:
    emb = work / "ab.jsonl"
    ingest_file(emb)
    per_round = {side: [] for side in trees}
    every = {side: [] for side in trees}
    for r in range(rounds):
        for side in (("parent", "change") if r % 2 == 0 else ("change", "parent")):
            out = subprocess.run([sys.executable, "-c", INGEST_AB, str(trees[side] / "src"),
                                  str(emb), str(work / f"ab-{side}.out.json"), str(calls)],
                                 check=True, capture_output=True, text=True).stdout
            times = json.loads(out)
            per_round[side].append(round(statistics.median(times), 3))
            every[side].extend(times)
    return {"rounds": rounds, "calls_per_round": calls,
            "median_ms": {side: round(statistics.median(t), 3) for side, t in every.items()},
            "round_medians_ms": per_round,
            "change_wins_rounds": sum(c < p for p, c in zip(per_round["parent"],
                                                            per_round["change"]))}


def perfbench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    with open("/proc/loadavg", encoding="utf-8") as fh:
        load = float(fh.read().split()[0])
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return {"workload": workload, "seed": seed, "returncode": proc.returncode,
                "stderr": proc.stderr[-2000:]}
    last = json.loads(lines[-1])
    record = json.loads(next(line for line in lines if line.startswith("record "))[7:])
    return {"workload": workload, "seed": seed, "loadavg_1m_before": load,
            "attempted": last["attempted"], "failed": last["failed"],
            "digest_checked": record["digest_checked"], "blas_threads": record["blas_threads"],
            "metrics": {k: v["value"] for k, v in last["metrics"].items()}}


def summarize(runs: list[dict]) -> dict:
    better = {m["name"]: m["better"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = [(p["metrics"], c["metrics"]) for p, c in
                 zip(*[[r for r in runs if r["workload"] == workload and r["side"] == side]
                       for side in ("parent", "change")])]
        rows = {}
        for metric, direction in better.items():
            values = {"parent": [p[metric] for p, _ in pairs], "change": [c[metric] for _, c in pairs]}
            sign = 1 if direction == "lower" else -1
            wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
            losses = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
            rows[metric] = {side: {"median": float(np.median(v)), "q1": float(np.percentile(v, 25)),
                                   "q3": float(np.percentile(v, 75))} for side, v in values.items()}
            rows[metric].update(wins=wins, losses=losses, ties=len(pairs) - wins - losses)
        summary[workload] = {"pairs": len(pairs), "metrics": rows}
    return summary


def mount_options(path: Path) -> dict:
    path, best = str(path.resolve()), None
    with open("/proc/mounts", encoding="utf-8") as fh:
        for line in fh:
            device, point, fstype, options = line.split()[:4]
            if (path == point or path.startswith(point.rstrip("/") + "/")) and (
                    best is None or len(point) > len(best["mount_point"])):
                best = {"mount_point": point, "fstype": fstype, "options": options}
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the parent revision")
    parser.add_argument("--workdir", required=True, type=Path, help="a new scratch directory")
    parser.add_argument("--pairs", type=int, default=10, help="ingest-cold pairs, at most 20")
    parser.add_argument("--seconds", type=float, default=20.0, help="length of each run")
    args = parser.parse_args()
    args.workdir.mkdir(parents=True)
    base_sha = subprocess.run(["git", "rev-parse", args.base], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    trees = export(base_sha, args.workdir)
    sys.path.insert(0, str(trees["change"] / "src"))
    (fs_dir := args.workdir / "fs").mkdir()
    bench = {"label": "out_overwrite", "parent_sha": base_sha,
             "claim": {"workload": "ingest-cold", "metric": "request_s_p50", "direction": "lower"},
             "host": {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
                      "python": sys.version.split()[0], "workdir_mount": mount_options(args.workdir)},
             "fs": fs_micro(fs_dir),
             "in_process": in_process(trees, args.workdir)}
    schedule = [("ingest-cold", seed) for seed in INGEST_SEEDS[:args.pairs]]
    schedule += list(OTHER_SEEDS.items())
    runs = []
    for i, (workload, seed) in enumerate(schedule):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            runs.append({"side": side, "pair": i,
                         **perfbench(trees[side], workload, seed, args.seconds)})
            print(json.dumps(runs[-1]), file=sys.stderr)
    bench["runs"] = runs
    bench["summary"] = summarize([r for r in runs if "metrics" in r])
    bench["digest"] = [perfbench(trees["change"], workload, 0, 8.0)
                       for workload in ("ingest-cold", *OTHER_SEEDS)]
    bench["host"]["blas_threads"] = bench["digest"][0].get("blas_threads")
    (ROOT / "BENCH_out_overwrite.json").write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
