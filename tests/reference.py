"""Literal reference for GIST, the simple baseline and the classic greedy,
read off the paper's pseudo-code with no shared runs, batching or caching.

Every threshold gets its own greedy run, every candidate is evaluated, and a
later candidate replaces an equal one.  Gains come from the public single
``marginal`` and distances from ``Instance.dist``.  Slow by design: only for
small test problems.
"""

from __future__ import annotations

import itertools

from divsel import Problem, distance_thresholds


def greedy(problem: Problem, d: float) -> tuple[list[int], int]:
    """Greedy independent set at threshold ``d``, ties to the lowest index,
    and the number of candidates whose gain it asked for."""
    inst, util = problem.instance, problem.utility
    selected: list[int] = []
    queries = 0
    while len(selected) < problem.k:
        candidates = [
            v for v in range(inst.n)
            if v not in selected and all(inst.dist(v, s) >= d for s in selected)
        ]
        if not candidates:
            break
        queries += len(candidates)
        # max returns the first maximal candidate, i.e. the lowest index
        selected.append(max(candidates, key=lambda v: util.marginal(v, selected)))
    return selected, queries


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
