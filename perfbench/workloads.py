"""The four request workloads of the divsel benchmark.

A workload turns the benchmark seed into a pool of inputs (``generate``),
builds the objects its requests share (``build``), and lists the requests it
cycles over (``specs``).  ``call`` is the timed request: one solve call into
the public library API, or one in-process ``divsel ingest`` invocation.
``result``, ``references`` and ``check`` make the output check and run
untimed.

Only public names are used: no ``AlgoConfig``, no ``--parallel``, no
private attributes, and no ``distance_matrix()`` call to warm a cache.
Every library function is looked up on its module at call time, so the
traced run sees the calls through its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scipy.spatial.distance import pdist

#: Relative tolerance for objective values; the same value as divsel.core.VALUE_RTOL.
VALUE_RTOL = 1e-9
#: Absolute slack for values near zero.
VALUE_ATOL = 1e-12


@dataclass(frozen=True)
class Spec:
    """One request of a workload's list."""

    key: str
    solver: str  # gist | simple_baseline | classic_greedy | random_baseline | ingest
    k: int
    schedule: str = "geometric"
    item: int = 0  # which instance of the workload's pool


@dataclass
class Reference:
    """Independent data the output check compares one request against."""

    n: int
    k: int
    lam: float
    g_of: Callable[[tuple[int, ...]], float]  # a utility object separate from the solver's
    div_of: Callable[[tuple[int, ...]], float]  # computed here from the points
    simple_f: float | None  # simple_baseline's f on the same problem, for gist requests


class PointDiv:
    """div(S) recomputed from the generated points, independent of divsel."""

    def __init__(self, points: np.ndarray, metric: str):
        self.metric = metric
        if metric == "cosine":
            points = points / np.linalg.norm(points, axis=1)[:, None]
        self.points = points
        self._d_max: float | None = None

    def _pairs(self, p: np.ndarray) -> np.ndarray:
        if self.metric == "euclidean":
            return pdist(p)
        d = 1.0 - p @ p.T
        return np.maximum(d[np.triu_indices(len(p), 1)], 0.0)

    def __call__(self, s: tuple[int, ...]) -> float:
        if len(s) >= 2:
            return float(self._pairs(self.points[list(s)]).min())
        if self._d_max is None:  # only a one-point selection needs the diameter
            self._d_max = float(self._pairs(self.points).max())
        return self._d_max


def _solution_result(sol) -> dict:
    return {
        "selected": tuple(sol.selected),
        "f": sol.f_value,
        "g": sol.g_value,
        "div": sol.div_value,
        "threshold": sol.winning_threshold,
        "oracle_calls": sol.oracle_calls,
    }


def _simple_f(dv, instance, utility, lam: float, k: int) -> float:
    problem = dv.Problem(instance, utility, lam, k)
    return dv.algorithms.simple_baseline(problem).f_value


class Workload:
    """A pool of seeded inputs and the requests sent over it.

    Requests of one period share an item of the pool; the next period moves
    to the next item.  A pool averages out how much one instance's work
    varies with the seed: on a 64-d Gaussian instance the number of distinct
    greedy runs depends on its extreme pair distances.
    """

    name = ""
    why = ""
    SALT = POOL = N = DIM = 0
    LAM, EPSILON = 0.05, 0.1

    def generate(self, seed: int, out_dir: Path) -> dict:
        rng = np.random.default_rng([self.SALT, seed])
        return {"pool": [self.generate_item(rng, out_dir, seed, i) for i in range(self.POOL)],
                "seed": seed}

    def generate_item(self, rng, out_dir: Path, seed: int, item: int) -> dict:
        raise NotImplementedError

    def specs(self, inputs: dict) -> list[Spec]:
        raise NotImplementedError

    def period(self, specs: list[Spec]) -> int:
        """Requests after which the mix of request kinds repeats."""
        return len(specs) // self.POOL

    def build(self, dv, inputs: dict) -> Any:
        raise NotImplementedError

    def warm_up(self, dv, state: Any) -> None:
        """Set-up's untimed requests that fill lazy caches."""

    def call(self, dv, state: Any, spec: Spec) -> Any:
        raise NotImplementedError

    def result(self, state: Any, spec: Spec, raw: Any) -> dict:
        return _solution_result(raw)

    def references(self, dv, inputs: dict, specs: list[Spec]) -> list[Reference]:
        raise NotImplementedError


class _SolveWorkload(Workload):
    """Requests that call a solver on a prebuilt ``Problem``, one Euclidean
    instance per pool item."""

    KS: tuple[int, ...] = ()
    SCHEDULES = ("geometric",)

    def utilities(self, dv, item: dict) -> dict[int, Any]:
        """A new utility object for each budget k of one pool item."""
        raise NotImplementedError

    def build(self, dv, inputs):
        state = {"random_seed": inputs["seed"]}
        for i, item in enumerate(inputs["pool"]):
            instance = dv.Instance.from_euclidean(item["points"])
            for k, utility in self.utilities(dv, item).items():
                for schedule in self.SCHEDULES:
                    state[(i, k, schedule)] = dv.Problem(
                        instance, utility, self.LAM, k, self.EPSILON, schedule)
        return state

    def warm_up(self, dv, state):
        # simple_baseline reads distance rows and the diametrical pair, which
        # fills each instance's distance caches
        for i in range(self.POOL):
            dv.algorithms.simple_baseline(state[(i, self.KS[0], self.SCHEDULES[0])])

    def call(self, dv, state, spec):
        problem = state[(spec.item, spec.k, spec.schedule)]
        if spec.solver == "random_baseline":
            return dv.algorithms.random_baseline(problem, state["random_seed"])
        return getattr(dv.algorithms, spec.solver)(problem)

    def references(self, dv, inputs, specs):
        refs = []
        current, simple = None, {}
        for spec in specs:
            item = inputs["pool"][spec.item]
            if spec.item != current:  # one check instance at a time, dropped after its item
                current, simple = spec.item, {}
                check_instance = dv.Instance.from_euclidean(item["points"])
                check_utilities = self.utilities(dv, item)
                div_of = PointDiv(item["points"], "euclidean")
            utility = check_utilities[spec.k]
            if spec.solver == "gist" and spec.k not in simple:
                simple[spec.k] = _simple_f(dv, check_instance, utility, self.LAM, spec.k)
            refs.append(Reference(self.N, spec.k, self.LAM, utility.evaluate, div_of,
                                  simple.get(spec.k) if spec.solver == "gist" else None))
        return refs


class _BudgetAdditive(_SolveWorkload):
    """Gaussian points with uniform weights, as in acceptance criterion 9."""

    ALPHA, BETA = 0.95, 0.75

    def generate_item(self, rng, out_dir, seed, item):
        return {"points": rng.standard_normal((self.N, self.DIM)),
                "weights": rng.uniform(0.0, 1.0, self.N)}

    def utilities(self, dv, item):
        # the cap's normalizer is the budget, so each k has its own utility
        return {k: dv.BudgetAdditiveUtility(item["weights"], self.ALPHA, self.BETA, k)
                for k in self.KS}


class PaperSweep(_BudgetAdditive):
    """Criterion 9's instance family, every solver over a grid of k."""

    name = "paper-sweep"
    why = ("the paper's reproduction experiment: warm distances, time goes to greedy "
           "bookkeeping, batch_marginal validation and gist's exhaustive threshold loop")
    SALT, N, DIM, POOL, KS = 101, 400, 64, 32, (25, 50, 100)
    SCHEDULES = ("geometric", "exhaustive")
    SOLVERS = (("gist", "geometric"), ("gist", "exhaustive"), ("simple_baseline", "geometric"),
               ("classic_greedy", "geometric"), ("random_baseline", "geometric"))

    def specs(self, inputs):
        return [Spec(f"{solver}-{schedule} k={k} item={item}", solver, k, schedule, item)
                for item in range(self.POOL) for k in self.KS
                for solver, schedule in self.SOLVERS]


class LowdimExhaustive(_BudgetAdditive):
    """Small two-dimensional Gaussian instances, exhaustive gist."""

    name = "lowdim-exhaustive"
    why = ("thousands of short greedy runs per request that share selection prefixes: "
           "run count, objective evaluations and wasted steps dominate")
    SALT, N, DIM, POOL, KS = 102, 45, 2, 96, (15,)
    SCHEDULES = ("exhaustive",)

    def specs(self, inputs):
        return [Spec(f"gist-exhaustive k={k} item={item}", "gist", k, "exhaustive", item)
                for item in range(self.POOL) for k in self.KS]


class CoverageGains(_SolveWorkload):
    """Euclidean instances whose utility is set coverage."""

    name = "coverage-gains"
    why = ("utility gains are frozenset unions, so the utility kernel behind "
           "batch_marginal dominates each request")
    SALT, N, DIM, POOL, KS = 103, 300, 64, 24, (40, 50, 60)
    UNIVERSE, SET_SIZES = 800, (5, 30)

    def generate_item(self, rng, out_dir, seed, item):
        points = rng.standard_normal((self.N, self.DIM))
        family = [rng.choice(self.UNIVERSE, size=int(rng.integers(*self.SET_SIZES)),
                             replace=False).tolist() for _ in range(self.N)]
        return {"points": points, "family": family}

    def utilities(self, dv, item):
        shared = dv.CoverageUtility(item["family"], self.UNIVERSE)
        return {k: shared for k in self.KS}

    def specs(self, inputs):
        return [Spec(f"gist-geometric k={k} item={item}", "gist", k, item=item)
                for item in range(self.POOL) for k in self.KS]


class IngestCold(Workload):
    """``divsel ingest`` on JSON-lines embeddings files; each request starts cold."""

    name = "ingest-cold"
    why = ("every request parses the file and builds a new cosine Instance, so formats, "
           "the n^2 distance matrix and the pair sort dominate; greedy work is small")
    SALT, N, DIM, POOL, K = 104, 1500, 64, 12, 8
    ALPHA = 0.9  # the CLI's default for --utility margin; lam = 1 - alpha

    def generate_item(self, rng, out_dir, seed, item):
        vectors = rng.standard_normal((self.N, self.DIM))
        vectors /= np.linalg.norm(vectors, axis=1)[:, None]
        uncertainty = rng.uniform(0.0, 2.0, self.N)
        path = out_dir / f"ingest-seed{seed}-{item}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for vec, unc in zip(vectors.tolist(), uncertainty.tolist()):
                fh.write(json.dumps({"embedding": vec, "uncertainty": unc}) + "\n")
        return {"vectors": vectors, "uncertainty": uncertainty, "path": path,
                "out": out_dir / f"ingest-seed{seed}-{item}.out.json"}

    def specs(self, inputs):
        return [Spec(f"ingest margin k={self.K} item={item}", "ingest", self.K, item=item)
                for item in range(self.POOL)]

    def build(self, dv, inputs):
        return [["ingest", "--embeddings", str(item["path"]), "--utility", "margin",
                 "--k", str(self.K), "--out", str(item["out"])] for item in inputs["pool"]]

    def warm_up(self, dv, state):
        # cold by design: warming imports and code paths is all there is to do
        self.call(dv, state, Spec("warm-up", "ingest", self.K))

    def call(self, dv, state, spec):
        argv = state[spec.item]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = dv.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"divsel ingest exited with code {code}")
        return argv[-1]

    def result(self, state, spec, raw):
        with open(raw, encoding="utf-8") as fh:
            doc = json.load(fh)
        return {"selected": tuple(doc["selected"]), "f": doc["f"], "g": doc["g"],
                "div": doc["div"], "threshold": doc["threshold"],
                "oracle_calls": doc["oracle_calls"]}

    def references(self, dv, inputs, specs):
        lam = 1.0 - self.ALPHA
        refs = []
        for spec in specs:
            item = inputs["pool"][spec.item]
            weights = self.ALPHA * item["uncertainty"]
            # the check instance is dropped before the next one is built
            instance = dv.Instance.from_cosine(item["vectors"])
            simple_f = _simple_f(dv, instance, dv.LinearUtility(weights), lam, self.K)
            refs.append(Reference(self.N, self.K, lam, dv.LinearUtility(weights).evaluate,
                                  PointDiv(item["vectors"], "cosine"), simple_f))
        return refs


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (PaperSweep(), LowdimExhaustive(), IngestCold(), CoverageGains())
}


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=VALUE_RTOL, abs_tol=VALUE_ATOL)


def check(res: dict, ref: Reference, expected: dict | None) -> list[str]:
    """Problems found in one request's result; empty when it is correct."""
    sel = res["selected"]
    if not 1 <= len(sel) <= ref.k:
        return [f"|S|={len(sel)} outside [1, {ref.k}]"]
    if list(sel) != sorted(set(sel)) or sel[0] < 0 or sel[-1] >= ref.n:
        return [f"selection not sorted, unique and in range: {sel[:8]}"]
    problems = []
    g = ref.g_of(sel)
    d = ref.div_of(sel)
    for label, got, want in (("g", res["g"], g), ("div", res["div"], d),
                             ("f", res["f"], g + ref.lam * d)):
        if not _close(got, want):
            problems.append(f"{label}={got!r} but recomputed {want!r}")
    if ref.simple_f is not None and not (res["f"] >= ref.simple_f or _close(res["f"], ref.simple_f)):
        problems.append(f"gist f={res['f']!r} below simple_baseline f={ref.simple_f!r}")
    if expected is not None:
        if list(sel) != expected["selected"]:
            problems.append("selected differs from the recorded digest")
        if res["threshold"] != expected["threshold"]:
            problems.append(f"threshold {res['threshold']!r} != digest {expected['threshold']!r}")
        for label in ("f", "g", "div"):
            if not _close(res[label], expected[label]):
                problems.append(f"{label}={res[label]!r} != digest {expected[label]!r}")
    return problems
