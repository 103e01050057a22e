"""divsel benchmark: one workload per process, closed loop, one client.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-sweep --seed 0 --seconds 20 --trace 0

The workload's inputs come from ``--seed``.  Requests cycle over the
workload's request list for ``--seconds`` seconds and then finish the period
of the mix they are in, so every run measures whole periods of the same mix.  After each
request, outside its timed interval, the result is checked (see
``workloads.check``).  ``--trace 0`` reports the end-to-end metrics; ``--trace
1`` runs half the time untraced and half traced and reports the per-layer
split.  The last line of standard output is the result object; the lines
before it are a readable table and the run record, which is also written to
``perfbench/out/``.  The package is imported from ``src/`` of the checkout and
nowhere else; without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
DEFAULT_SEED = 0
DIGEST = ROOT / "perfbench" / "digest.json"
#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3
#: The tail percentile leaves at least this many samples beyond it.
TAIL_BEYOND = 10
MAX_SPANS = 200_000
#: Median time of SpeedProbe's kernel on the machine the benchmark was defined
#: on (2-core Xeon at 2.0 GHz, when it ran fast); request timings are scaled to it.
REFERENCE_KERNEL_S = 0.0015

END_TO_END_UNITS = {
    "request_s_p50": "s",
    "request_s_tail": "s",
    "requests_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "oracle_queries_per_request": "count",
}


def load_divsel():
    """Import divsel from this checkout's ``src/``; refuse any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import divsel
    import divsel.algorithms
    import divsel.cli
    import divsel.formats

    if not Path(divsel.__file__).resolve().is_relative_to(src):
        raise ImportError(f"divsel was imported from {divsel.__file__}, not from {src}")
    return divsel


def import_seconds() -> float:
    """``import divsel`` timed in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import divsel; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-I", "-c", code, str(ROOT / "src")],
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout.strip())


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, read from the library; None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            path = next((line.split()[-1] for line in fh if "openblas" in line.lower()), None)
        if path is None:
            return None
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    except OSError:
        return None
    return None


def loadavg() -> list[float] | None:
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def source_identity() -> dict:
    """Git sha when the checkout is a repository, and a hash of the package sources."""
    # the ceiling keeps git from reading a repository above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, env=env).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "divsel").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "source_sha256": digest.hexdigest()}


def machine_record() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                            if k in os.environ},
    }


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile that leaves
    at least TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


class SpeedProbe:
    """Times a fixed kernel between requests to follow the machine's speed.

    On a shared machine the same code runs up to about 1.4x slower for seconds
    to minutes at a time.  Each request's timing is scaled by the kernel's
    latest median time; scaled timings vary far less between runs than raw ones.
    """

    INTERVAL_S = 0.25

    def __init__(self):
        self.data = np.random.default_rng(0).standard_normal(20_000)
        self.samples: list[float] = []
        self.last = -math.inf
        self.factor = 1.0  # turns a raw timing into one at reference speed

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(20_000):  # interpreter-bound part
            total += i * i
        np.minimum(self.data, np.sort(self.data))  # numpy part
        return time.perf_counter() - t0

    def between_requests(self) -> None:
        if time.perf_counter() - self.last >= self.INTERVAL_S:
            latest = [self._kernel() for _ in range(3)]
            self.samples.extend(latest)
            self.factor = REFERENCE_KERNEL_S / statistics.median(latest)
            self.last = time.perf_counter()


class Phase:
    """Outcome of one closed-loop phase."""

    def __init__(self):
        self.latencies: list[float] = []  # every attempted request, in order
        self.ok: list[float] = []  # latencies of requests that passed the check
        self.scaled: list[float] = []  # latencies at reference speed, every request
        self.scaled_ok: list[float] = []  # the same, requests that passed
        self.oracle_calls: list[int] = []  # of the requests that passed
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.periods = 0.0

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def run_phase(wl, dv, state, specs, refs, digest, seconds, tracer=None, probe=None) -> Phase:
    """Send requests one after another for ``seconds``, then finish the period
    of the request mix.

    A request that raises or fails its check counts as failed and the loop goes
    on.  A hard stop mid-period keeps a very slow program inside the time limit.
    """
    phase = Phase()
    period = wl.period(specs)
    start = time.perf_counter()
    deadline, hard_stop = start + seconds, start + 1.5 * seconds + 10
    i = 0
    while True:
        now = time.perf_counter()
        if now >= hard_stop or (i % period == 0 and now >= deadline and i > 0):
            break
        if probe is not None:
            probe.between_requests()
        index = i % len(specs)
        spec = specs[index]
        i += 1
        phase.attempted += 1
        latency = None
        try:
            if tracer is not None:
                tracer.begin(i)
            t0 = time.perf_counter()
            try:
                raw = wl.call(dv, state, spec)
            finally:
                latency = time.perf_counter() - t0
                if tracer is not None:
                    tracer.end()
            res = wl.result(state, spec, raw)
            expected = digest[index] if digest is not None else None
            problems = workloads.check(res, refs[index], expected)
        except Exception as exc:  # a failing request is counted, not fatal
            problems = [f"raised {type(exc).__name__}: {exc}"]
        latency = latency if latency is not None else 0.0
        factor = probe.factor if probe is not None else 1.0
        phase.latencies.append(latency)
        phase.scaled.append(latency * factor)
        if problems:
            phase.failed += 1
            if len(phase.failures) < 5:
                phase.failures.append(f"{spec.key}: {'; '.join(problems)}")
            continue
        phase.ok.append(latency)
        phase.scaled_ok.append(latency * factor)
        phase.oracle_calls.append(res["oracle_calls"])
    phase.periods = i / period
    return phase


def load_digest(workload: str, seed: int, specs) -> list[dict] | None:
    """Results recorded at the seed commit, checked on the default seed only."""
    if seed != DEFAULT_SEED:
        return None
    with open(DIGEST, encoding="utf-8") as fh:
        entries = json.load(fh)["workloads"][workload]
    if [e["key"] for e in entries] != [s.key for s in specs]:
        raise ValueError(f"digest for {workload} does not match its request list")
    return entries


def setup(wl, dv, inputs, probe: SpeedProbe):
    """Set-up time at reference speed: the median of ``import divsel`` in a
    fresh interpreter plus the median of building the shared objects and
    warming them up.  Returns (seconds, raw samples, last state built)."""
    imports, builds, scaled_imports, scaled_builds = [], [], [], []
    for _ in range(SETUP_REPEATS):
        probe.between_requests()
        imports.append(import_seconds())
        scaled_imports.append(imports[-1] * probe.factor)
    state = None
    for _ in range(SETUP_REPEATS):
        state = None  # free the previous objects before building new ones
        probe.between_requests()
        t0 = time.perf_counter()
        state = wl.build(dv, inputs)
        wl.warm_up(dv, state)
        builds.append(time.perf_counter() - t0)
        scaled_builds.append(builds[-1] * probe.factor)
    seconds = statistics.median(scaled_imports) + statistics.median(scaled_builds)
    return seconds, {"import_s": imports, "build_and_warmup_s": builds}, state


def latency_metrics(ok: list[float], every: list[float]) -> tuple[dict, float, int]:
    """p50, tail and throughput of one list of latencies; the tail's percentile
    and the number of samples beyond it."""
    value, pct, beyond = tail(ok or [0.0])
    busy = sum(every)
    return {"request_s_p50": statistics.median(ok or [0.0]), "request_s_tail": value,
            "requests_per_s": len(ok) / busy if busy else 0.0}, pct, beyond


def end_to_end(phase: Phase, setup_s: float, probe: SpeedProbe) -> tuple[dict, dict]:
    """Metrics and their sample counts.  Request timings are at reference speed;
    the raw ones are in the sample record."""
    raw, pct, beyond = latency_metrics(phase.ok, phase.latencies)
    scaled, _, _ = latency_metrics(phase.scaled_ok, phase.scaled)
    metrics = {
        **scaled,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "oracle_queries_per_request": (statistics.fmean(phase.oracle_calls)
                                       if phase.oracle_calls else 0.0),
    }
    samples = {
        "request_s_p50": len(phase.ok),
        "request_s_tail": {"samples": len(phase.ok), "percentile": round(pct, 2),
                           "beyond": beyond},
        "requests_per_s": {"completed": len(phase.ok), "busy_s": phase.busy_s},
        "setup_s": SETUP_REPEATS,
        "peak_rss_mb": 1,
        "oracle_queries_per_request": len(phase.oracle_calls),
        "raw": raw,
        "speed_probe": {"samples": len(probe.samples),
                        "median_s": statistics.median(probe.samples) if probe.samples else None},
    }
    return metrics, samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        dv = load_divsel()
    except ImportError as exc:
        print(f"error: cannot import divsel from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload]
    record = {"workload": wl.name, "why": wl.why, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **source_identity(), **machine_record(),
              "loadavg_before": loadavg()}

    inputs = wl.generate(args.seed, OUT_DIR)
    specs = wl.specs(inputs)
    probe = SpeedProbe()
    setup_s, record["setup"], state = setup(wl, dv, inputs, probe)
    refs = wl.references(dv, inputs, specs)
    digest = load_digest(wl.name, args.seed, specs)
    record["digest_checked"] = digest is not None

    if args.trace:
        half = args.seconds / 2.0
        plain = run_phase(wl, dv, state, specs, refs, digest, half, probe=probe)
        tracer = spans.Tracer(MAX_SPANS)
        tracer.install(dv)
        traced = run_phase(wl, dv, state, specs, refs, digest, half, tracer, probe)
        # compare the two phases at reference speed on the same prefix of requests
        m = min(len(plain.scaled), len(traced.scaled))
        rates = {"trace.requests_per_s": m / sum(traced.scaled[:m]),
                 "trace.untraced_requests_per_s": m / sum(plain.scaled[:m])}
        rates["trace.overhead_frac"] = (rates["trace.untraced_requests_per_s"]
                                        / rates["trace.requests_per_s"] - 1.0)
        metrics = tracer.metrics(rates)
        units = {name: spec[0] for name, spec in spans.METRICS.items()}
        record["trace_summary"] = tracer.summary()
        record["absent_metrics"] = tracer.absent()  # printed as 0: the hook is gone
        spans_path = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        phases = [plain, traced]
    else:
        phase = run_phase(wl, dv, state, specs, refs, digest, args.seconds, probe=probe)
        metrics, record["samples"] = end_to_end(phase, setup_s, probe)
        units = END_TO_END_UNITS
        phases = [phase]

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    record.update({
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "failures": [f for p in phases for f in p.failures],
        "periods": [p.periods for p in phases], "period": wl.period(specs),
        "loadavg_after": loadavg(),
    })
    name = f"record-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)

    for key, value in metrics.items():
        print(f"{wl.name:18} {key:34} {value:>14.6g} {units[key]}")
    print(f"{wl.name:18} {'failed_frac':34} {failed / attempted:>14.6g} ratio")
    print("record " + json.dumps(record, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
