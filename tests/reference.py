"""Literal reference for GIST, the simple baseline, the classic greedy and the
random baseline, read off the paper's pseudo-code with no shared runs,
batching or caching; for the exact solvers, a list of every subset; for
the dense matrices and the diameter, built with full-size temporaries and a
sort; and for the embeddings file, a reader that parses with ``json`` alone.

Every threshold gets its own greedy run, every candidate is evaluated, and a
later candidate replaces an equal one.  Gains come from the public single
``marginal`` and distances from ``Instance.dist``.  The query counts expect
an exact linear or constant-zero utility, whose gains never change, to be
asked once per point in all.  Slow by design: only for small test problems.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

from divsel import (
    BudgetAdditiveUtility,
    ConstantZeroUtility,
    CoverageUtility,
    LinearUtility,
    Problem,
    distance_thresholds,
)
from divsel.core import VALUE_RTOL
from divsel.errors import FormatError


def cosine_distance_matrix(points) -> np.ndarray:
    """``1 - <u, v>`` on the normalized rows: the strict upper triangle summed
    with its transpose for exact symmetry, then clamped at 0."""
    p = np.asarray(points, dtype=np.float64)
    p = p / np.linalg.norm(p, axis=1)[:, None]
    d = np.triu(1.0 - p @ p.T, 1)
    return np.maximum(d + d.T, 0.0)


def similarity_matrix(unit) -> np.ndarray:
    """``<u, v>`` on unit rows, symmetrized the same way, clipped to [-1, 1],
    with a zero diagonal."""
    s = np.triu(unit @ unit.T, 1)
    return np.clip(s + s.T, -1.0, 1.0)


def diameter(matrix: np.ndarray) -> tuple[float, tuple[int, int] | None]:
    """The largest of the sorted pair distances (0 below two points) and the
    lexicographically first pair (i < j) at it, (0, 1) when that is 0."""
    n = len(matrix)
    if n < 2:
        return 0.0, None
    d_max = float(np.sort(matrix[np.triu_indices(n, 1)])[-1])
    if d_max == 0.0:
        return d_max, (0, 1)
    return d_max, next((i, j) for i, j in itertools.combinations(range(n), 2)
                       if matrix[i, j] == d_max)


def fixed_gains(problem: Problem) -> bool:
    """Whether the utility is exactly linear or constant zero (not a subclass)."""
    return type(problem.utility) in (LinearUtility, ConstantZeroUtility)


def candidates_at(problem: Problem, selected: list[int], d: float) -> list[int]:
    """The points outside ``selected`` at distance >= d from all of it."""
    inst = problem.instance
    return [v for v in range(inst.n)
            if v not in selected and all(inst.dist(v, s) >= d for s in selected)]


def greedy(problem: Problem, d: float) -> tuple[list[int], int]:
    """Greedy independent set at threshold ``d``, ties to the lowest index,
    and the number of gain queries: one per candidate scored, or n for fixed
    gains."""
    util = problem.utility
    selected: list[int] = []
    queries = 0
    while len(selected) < problem.k:
        candidates = candidates_at(problem, selected, d)
        if not candidates:
            break
        queries += len(candidates)
        # max returns the first maximal candidate, i.e. the lowest index
        selected.append(max(candidates, key=lambda v: util.marginal(v, selected)))
    return selected, problem.instance.n if fixed_gains(problem) else queries


def div(problem: Problem, subset: list[int]) -> float:
    inst = problem.instance
    if len(subset) <= 1:
        return inst.d_max
    return min(inst.dist(u, v) for u, v in itertools.combinations(subset, 2))


def best(problem: Problem, candidates: list[tuple[list[int], float | None]]) -> tuple:
    """``(selected, f, g, div, threshold)`` of the best candidate, later wins ties."""
    winner = None
    for subset, threshold in candidates:
        g = problem.utility.evaluate(subset)
        d = div(problem, subset)
        f = g + problem.lam * d
        if winner is None or f >= winner[1]:
            winner = (tuple(sorted(subset)), f, g, d, threshold)
    return winner


def extreme_candidates(problem: Problem) -> list[tuple[list[int], float | None]]:
    """The d = 0 greedy, then the lexicographically first diametrical pair."""
    inst = problem.instance
    candidates = [(greedy(problem, 0.0)[0], 0.0)]
    if problem.k >= 2 and inst.n >= 2:
        pairs = itertools.combinations(range(inst.n), 2)
        candidates.append((list(max(pairs, key=lambda p: inst.dist(*p))), None))
    return candidates


def simple_baseline(problem: Problem) -> tuple:
    return best(problem, extreme_candidates(problem))


def gist(problem: Problem) -> tuple:
    thresholds = distance_thresholds(problem)
    return best(problem, extreme_candidates(problem) + [(greedy(problem, d)[0], d) for d in thresholds])


def gist_queries_unpruned(problem: Problem) -> int:
    """The oracle queries of a gist that shares its runs' common prefixes and
    skips no run.

    Gains are asked once at each distinct prefix P of the runs at d = 0 and
    at every threshold with |P| < k, for the candidates at the smallest
    threshold whose run passes through P.  Then ``g`` is evaluated once per
    distinct run (consecutive thresholds with equal runs share one) and once
    for the diametrical pair when k >= 2.  Fixed gains are asked once per
    point in all: n + distinct runs + pair.
    """
    thresholds = [0.0] + distance_thresholds(problem)
    runs = [greedy(problem, d)[0] for d in thresholds]
    lowest: dict[tuple[int, ...], float] = {}
    for d, run in zip(thresholds, runs):
        for size in range(min(len(run), problem.k - 1) + 1):
            lowest.setdefault(tuple(run[:size]), d)
    gains = problem.instance.n if fixed_gains(problem) else sum(
        len(candidates_at(problem, list(p), d)) for p, d in lowest.items())
    distinct_runs = 1 + sum(a != b for a, b in zip(runs, runs[1:]))
    return gains + distinct_runs + (problem.k >= 2 and problem.instance.n >= 2)


def pruned_sweep(problem: Problem) -> tuple[int, list[tuple[list[int], float, list[int]]]]:
    """The oracle queries of gist's sweep with its skip rule, and the subtrees
    it skips, each as ``(prefix, bound, indices into [0.0] + thresholds of the
    runs inside)``.

    The sweep is :func:`gist_queries_unpruned`'s, walked run by run in
    threshold order.  A node is a prefix P of the runs, reached first by the
    run at the lowest threshold d_P through it, and is decided then against
    ``best``, the largest f among the candidates offered before that run (the
    d = 0 run, then the diametrical pair, then each distinct run not skipped).
    Only for an exact linear, constant-zero, coverage or budget-additive
    utility, with g(S) the running sum of ``marginal`` gains of S's picks in
    order, gains clipped at 0, div(S) by :func:`div` and
    ``skipped(bound) = bound + VALUE_RTOL * |bound| < best``:

    * a branch, a node P + u with d_{P+u} > d_P, is skipped when
      g(P) + (sum of the r = k - |P| largest gains at P over the candidates at
      d_{P+u}) + lam * div(P + u) is;
    * a node P that asks gains (|P| < k, candidates at d_P) asks them, and its
      subtree is skipped when g(P) + r * (largest gain) + lam * div(P) is;
    * the runs that end at P from a threshold above d_P on are skipped when
      g(P) + lam * div(P) is.

    A skipped subtree asks nothing more, and its runs are not evaluated.
    """
    util, inst, lam, k = problem.utility, problem.instance, problem.lam, problem.k
    thresholds = [0.0] + distance_thresholds(problem)
    runs = [greedy(problem, d)[0] for d in thresholds]
    bounded = type(util) in (LinearUtility, ConstantZeroUtility, CoverageUtility,
                             BudgetAdditiveUtility)
    best = -math.inf
    queries = inst.n if fixed_gains(problem) else 0

    def lowest(prefix):
        return next(i for i, run in enumerate(runs) if run[:len(prefix)] == prefix)

    def gains(prefix, d):
        return [max(0.0, util.marginal(v, prefix)) for v in candidates_at(problem, prefix, d)]

    def g(prefix):
        total = 0.0
        for size, v in enumerate(prefix):
            total += util.marginal(v, prefix[:size])
        return total

    def skipped(bound):
        return bounded and bound + VALUE_RTOL * abs(bound) < best

    def node(prefix, j):
        """The bound that skips the subtree at ``prefix``, first reached by run j, or None."""
        nonlocal queries
        parent = prefix[:-1]
        if prefix and j > lowest(parent):  # a branch off its parent's run
            top = sorted(gains(parent, thresholds[j]))[len(parent) - k:]
            bound = g(parent) + math.fsum(top) + lam * div(problem, prefix)
            if skipped(bound):
                return bound
        here = gains(prefix, thresholds[j]) if len(prefix) < k else []
        if not fixed_gains(problem):
            queries += len(here)
        bound = g(prefix) + (k - len(prefix)) * max(here, default=0.0) + lam * div(problem, prefix)
        return bound if here and skipped(bound) else None

    decided: dict[tuple, float | None] = {}  # a node, or ("end", P) for the runs ending at P
    skips = []
    for j, run in enumerate(runs):
        for size in range(len(run) + 1):
            prefix = run[:size]
            if tuple(prefix) not in decided:  # first reached by this run
                decided[tuple(prefix)] = node(prefix, j)
                if decided[tuple(prefix)] is not None:
                    skips.append((prefix, decided[tuple(prefix)],
                                  [i for i, r in enumerate(runs) if r[:size] == prefix]))
            if decided[tuple(prefix)] is not None:
                break
        else:
            end = ("end",) + tuple(run)
            if end not in decided:
                # the runs ending at P from a threshold above P's node are a branch of their own
                bound = g(run) + lam * div(problem, run)
                decided[end] = bound if runs.index(run) > lowest(run) and skipped(bound) else None
                if decided[end] is not None:
                    skips.append((run, bound, [i for i, r in enumerate(runs) if r == run]))
            if decided[end] is None:
                if j == 0 or run != runs[j - 1]:  # one evaluation per distinct run
                    queries += 1
                    best = max(best, util.evaluate(run) + lam * div(problem, run))
                if j == 0 and k >= 2 and inst.n >= 2:
                    queries += 1
                    pair = extreme_candidates(problem)[1][0]
                    best = max(best, util.evaluate(pair) + lam * div(problem, pair))
    return queries, skips


def gist_queries(problem: Problem) -> int:
    """The oracle queries of gist: :func:`pruned_sweep`'s."""
    return pruned_sweep(problem)[0]


def random_baseline(problem: Problem, seed: int) -> tuple:
    """The best prefix of a seeded random order of k points, the earliest on
    ties; every prefix is evaluated."""
    order = [int(v) for v in np.random.default_rng(seed).permutation(problem.instance.n)]
    prefixes = []
    for size in range(1, problem.k + 1):
        subset = order[:size]
        g = problem.utility.evaluate(subset)
        d = div(problem, subset)
        prefixes.append((tuple(sorted(subset)), g + problem.lam * d, g, d, None))
    return max(prefixes, key=lambda p: p[1])


def classic_greedy(problem: Problem) -> tuple:
    """Greedy on the f-gain (utility marginal plus the weighted drop in
    diversity), ties to the lowest index.  The first point is always taken;
    later the chain stops at a negative best gain.  Every prefix is evaluated.
    Returns the best prefix, the earliest on ties."""
    inst, util, lam = problem.instance, problem.utility, problem.lam
    div_cur = inst.d_max
    order: list[int] = []
    prefixes = []
    while len(order) < problem.k:
        step = None  # (f-gain, point, new div)
        for v in range(inst.n):
            if v in order:
                continue
            g_gain = util.marginal(v, order)
            new_div = min([div_cur] + [inst.dist(v, s) for s in order])
            gain = g_gain + lam * (new_div - div_cur)
            if step is None or gain > step[0]:
                step = (gain, v, new_div)
        gain, v, new_div = step
        if order and gain < 0:
            break
        order.append(v)
        g = util.evaluate(order)
        div_cur = new_div
        prefixes.append((tuple(sorted(order)), g + lam * div_cur, g, div_cur, None))
    # max returns the first maximal prefix, i.e. the earliest
    return max(prefixes, key=lambda p: p[1])


def subsets(problem: Problem) -> list[tuple[int, ...]]:
    """Every nonempty subset of size <= k, by size and then lexicographically."""
    n = problem.instance.n
    return [c for size in range(1, problem.k + 1) for c in itertools.combinations(range(n), size)]


def best_subset(values: dict) -> tuple:
    """The largest value and the lexicographically smallest subset with it."""
    top = max(values.values())
    witness = min(c for c, v in values.items() if v == top)
    return values[witness], witness


def brute_force(problem: Problem) -> tuple:
    """``(opt_value, witness, subsets_examined, feasible)`` of max f, evaluating
    every subset once."""
    every = subsets(problem)
    values = {c: problem.utility.evaluate(c) + problem.lam * div(problem, list(c)) for c in every}
    return *best_subset(values), len(every), True


def brute_force_constrained(problem: Problem, d: float) -> tuple:
    """The same for max g over the subsets with div >= d, evaluating only those;
    ``(None, (), examined, False)`` when there are none."""
    every = subsets(problem)
    values = {c: problem.utility.evaluate(c) for c in every if div(problem, list(c)) >= d}
    if not values:
        return None, (), len(every), False
    return *best_subset(values), len(every), True


def load_embeddings_json(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a JSON-lines embeddings file; returns (embeddings, uncertainty)."""
    vectors: list[list[float]] = []
    scores: list[float] = []
    dim: int | None = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                vec, score = rec["embedding"], rec["uncertainty"]
                if not isinstance(vec, list):
                    raise FormatError(f"{path}:{lineno}: embedding must be a JSON array")
                # exact types, so a JSON string or boolean (bool subclasses int) is no number
                if not set(map(type, vec)) | {type(score)} <= {int, float}:
                    raise FormatError(
                        f"{path}:{lineno}: embedding and uncertainty must be JSON numbers")
                if dim is None:
                    dim = len(vec)
                elif len(vec) != dim:
                    raise FormatError(
                        f"{path}:{lineno}: embedding dimension {len(vec)} != {dim}"
                    )
                vectors.append(vec)
                scores.append(score)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, FormatError):
            raise
        raise FormatError(f"cannot parse embeddings file {path}: {exc}") from exc
    if not vectors:
        raise FormatError(f"{path}: no embedding records found")
    try:
        return np.asarray(vectors, dtype=np.float64), np.asarray(scores, dtype=np.float64)
    except OverflowError as exc:  # an integer beyond float range
        raise FormatError(f"cannot parse embeddings file {path}: {exc}") from exc
