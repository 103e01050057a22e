"""Literal reference for GIST and the simple baseline, read off the paper's
pseudo-code with no shared runs, batching or caching.

Every threshold gets its own greedy run, every candidate is evaluated, and a
later candidate replaces an equal one.  Gains come from the public single
``marginal`` and distances from ``Instance.dist``.  Slow by design: only for
small test problems.
"""

from __future__ import annotations

import itertools

from divsel import Problem, distance_thresholds


def greedy(problem: Problem, d: float) -> list[int]:
    """Greedy independent set at threshold ``d``, ties to the lowest index."""
    inst, util = problem.instance, problem.utility
    selected: list[int] = []
    while len(selected) < problem.k:
        candidates = [
            v for v in range(inst.n)
            if v not in selected and all(inst.dist(v, s) >= d for s in selected)
        ]
        if not candidates:
            break
        # max returns the first maximal candidate, i.e. the lowest index
        selected.append(max(candidates, key=lambda v: util.marginal(v, selected)))
    return selected


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
    candidates = [(greedy(problem, 0.0), 0.0)]
    if problem.k >= 2 and inst.n >= 2:
        pairs = itertools.combinations(range(inst.n), 2)
        candidates.append((list(max(pairs, key=lambda p: inst.dist(*p))), None))
    return candidates


def simple_baseline(problem: Problem) -> tuple:
    return best(problem, extreme_candidates(problem))


def gist(problem: Problem) -> tuple:
    thresholds = distance_thresholds(problem)
    return best(problem, extreme_candidates(problem) + [(greedy(problem, d), d) for d in thresholds])
