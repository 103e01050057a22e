"""Literal reference for GIST, the simple baseline, the classic greedy and the
random baseline, read off the paper's pseudo-code with no shared runs,
batching or caching; for the exact solvers, a list of every subset; and for
the dense matrices and the diameter, built with full-size temporaries and a
sort.

Every threshold gets its own greedy run, every candidate is evaluated, and a
later candidate replaces an equal one.  Gains come from the public single
``marginal`` and distances from ``Instance.dist``.  The query counts expect
an exact linear or constant-zero utility, whose gains never change, to be
asked once per point in all.  Slow by design: only for small test problems.
"""

from __future__ import annotations

import itertools

import numpy as np

from divsel import ConstantZeroUtility, LinearUtility, Problem, distance_thresholds


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


def gist_queries(problem: Problem) -> int:
    """The oracle queries of a gist that shares its runs' common prefixes.

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
    later the chain stops at a negative best gain.  Returns the best prefix,
    the earliest on ties."""
    inst, util, lam = problem.instance, problem.utility, problem.lam
    g_cur = util.evaluate([])
    div_cur = inst.d_max
    order: list[int] = []
    prefixes = []
    while len(order) < problem.k:
        step = None  # (f-gain, point, utility gain, new div)
        for v in range(inst.n):
            if v in order:
                continue
            g_gain = util.marginal(v, order)
            new_div = min([div_cur] + [inst.dist(v, s) for s in order])
            gain = g_gain + lam * (new_div - div_cur)
            if step is None or gain > step[0]:
                step = (gain, v, g_gain, new_div)
        gain, v, g_gain, new_div = step
        if order and gain < 0:
            break
        order.append(v)
        g_cur += g_gain
        div_cur = new_div
        prefixes.append((tuple(sorted(order)), g_cur + lam * div_cur, g_cur, div_cur, None))
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
