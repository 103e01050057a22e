"""Selection algorithms.

* :func:`greedy_independent_set` -- budget-capped greedy over the points at
  distance >= d from the current selection (the candidates form an independent
  set of the intersection graph with edges between pairs closer than d).
* :func:`gist` -- best of the d = 0 greedy, a diametrical pair, and one
  greedy independent set per group of distance thresholds that no pairwise
  distance separates.
* :func:`simple_baseline` -- only the two extreme candidates (d = 0 greedy and
  the diametrical pair), shared with :func:`gist`.
* :func:`classic_greedy` -- marginal-gain greedy on the full objective f that
  stops once every remaining gain is negative, then returns its best prefix.
* :func:`random_baseline` -- best prefix of a uniformly random ordered
  k-sample.

All tie-breaking is by lowest index.  Among equal-valued candidates the later
one wins; among equal-valued prefixes the earlier one does.  Given identical
inputs (and seed where applicable), every algorithm is deterministic.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .core import Instance, Problem, Solution, UtilityOracle, distance_thresholds, objective
from .errors import InputError

#: A selection offered by a solver, with the threshold it reports if it wins
#: (0.0 for the d = 0 greedy, None for the diametrical pair).
_Candidate = tuple[list[int], float | None]


def greedy_independent_set(
    instance: Instance, utility: UtilityOracle, d: float, k: int
) -> list[int]:
    """Greedy maximal independent set at distance threshold ``d``, capped at ``k``.

    Repeatedly adds the candidate with the largest utility marginal gain
    (ties to the lowest index) among points at distance >= d from everything
    selected so far.  Stops at ``k`` points or when no candidate remains, in
    which case the selection is a maximal independent set of the
    distance-< d intersection graph.  Returns indices in selection order.
    """
    if k < 1:
        raise InputError("budget k must be >= 1")
    if not d >= 0:
        raise InputError(f"distance threshold must be a nonnegative number, got {d}")
    if utility.n != instance.n:
        raise InputError("utility and instance sizes differ")
    n = instance.n
    selected: list[int] = []
    in_set = np.zeros(n, dtype=bool)
    # dist(v, S); +inf sentinel while S is empty (only ever compared, never
    # used in arithmetic)
    min_dist = np.full(n, np.inf)
    state = utility._gain_state()
    for _ in range(k):
        cand = np.flatnonzero(~in_set & (min_dist >= d))
        if cand.size == 0:
            break
        gains = state.gains(cand)
        t = int(cand[int(np.argmax(gains))])
        selected.append(t)
        state.add(t)
        in_set[t] = True
        np.minimum(min_dist, instance.distance_row(t), out=min_dist)
    return selected


def _extreme_candidates(problem: Problem) -> Iterator[_Candidate]:
    """The d = 0 greedy (plain utility greedy), then a diametrical pair when k >= 2."""
    inst = problem.instance
    yield greedy_independent_set(inst, problem.utility, 0.0, problem.k), 0.0
    if problem.k >= 2 and inst.n >= 2:
        yield list(inst.diametrical_pair()), None


def _gist_candidates(problem: Problem) -> Iterator[_Candidate]:
    """The extreme candidates, then one greedy run per group of thresholds.

    A greedy run sees ``d`` only through ``dist >= d`` tests on pairwise
    distances, so thresholds with the same count of smaller pairwise distances
    share one run.  Groups are contiguous in the ascending schedule; each
    reports its largest threshold, as a later-wins per-threshold sweep would.
    """
    yield from _extreme_candidates(problem)
    thresholds = distance_thresholds(problem)
    keys = np.searchsorted(problem.instance.pair_distances_sorted(), thresholds, side="left")
    # a group ends where the next key differs (or the list ends)
    for last in np.flatnonzero(np.diff(keys, append=np.inf)):
        d = thresholds[last]
        yield greedy_independent_set(problem.instance, problem.utility, d, problem.k), d


def _best_candidate(problem: Problem, algorithm: str, candidates: Iterable[_Candidate]) -> Solution:
    """Evaluate every candidate and return the best; a later candidate replaces
    an equal one.  ``candidates`` is consumed here, so the queries of the
    greedy runs that lazily produce it count toward ``oracle_calls``."""
    start = problem.utility.query_count
    best = None
    for sel, threshold in candidates:
        value = objective(problem, sel)
        if best is None or value[0] >= best[0][0]:
            best = value, threshold, sel
    (f, g, d), threshold, sel = best
    return Solution(
        selected=tuple(sorted(sel)),
        f_value=f,
        g_value=g,
        div_value=d,
        algorithm=algorithm,
        oracle_calls=problem.utility.query_count - start,
        winning_threshold=threshold,
    )


def _best_prefix(
    problem: Problem, algorithm: str, start: int, order: list[int], values: list,
    seed: int | None = None,
) -> Solution:
    """The best prefix of ``order``, earliest on ties; ``values[t]`` is the
    ``(f, g, div)`` of ``order[: t + 1]``."""
    best = int(np.argmax([f for f, _, _ in values]))
    f, g, d = values[best]
    return Solution(
        selected=tuple(sorted(order[: best + 1])),
        f_value=f,
        g_value=g,
        div_value=d,
        algorithm=algorithm,
        oracle_calls=problem.utility.query_count - start,
        seed=seed,
    )


def gist(problem: Problem) -> Solution:
    """Threshold-sweep search returning the best candidate by objective value.

    Candidates, in order: the d = 0 greedy (plain utility greedy), a
    diametrical pair when k >= 2, and one greedy independent set per group of
    thresholds in the schedule that no pairwise distance separates.  Each is
    evaluated once; a later candidate replaces an equal one.  The reported
    ``winning_threshold`` is 0.0 for the greedy pass, ``None`` for the
    diametrical pair, and otherwise the winning group's largest threshold.
    """
    label = "gist" if problem.schedule == "geometric" else "gist-exhaustive"
    return _best_candidate(problem, label, _gist_candidates(problem))


def simple_baseline(problem: Problem) -> Solution:
    """Best of the two extreme candidates: utility-only greedy and a
    diametrical pair (skipped when k < 2)."""
    return _best_candidate(problem, "simple", _extreme_candidates(problem))


def classic_greedy(problem: Problem) -> Solution:
    """Marginal-gain greedy on the full objective f.

    Each step adds the point with the largest f-gain (utility marginal plus
    the weighted drop in diversity), ties to the lowest index.  The first
    point is always taken; afterwards the loop stops as soon as the best
    available gain is negative.  Returns the best prefix of the built chain
    (earliest prefix on ties).
    """
    inst, util, lam = problem.instance, problem.utility, problem.lam
    start = util.query_count
    n = inst.n
    g_cur = util.evaluate(())
    div_cur = inst.d_max
    min_dist = np.full(n, np.inf)
    in_set = np.zeros(n, dtype=bool)
    order: list[int] = []
    values = []
    state = util._gain_state()
    for step in range(min(problem.k, n)):
        cand = np.flatnonzero(~in_set)
        g_gains = state.gains(cand)
        new_div = np.minimum(div_cur, min_dist[cand])
        gains = g_gains + lam * (new_div - div_cur)
        pos = int(np.argmax(gains))
        if step > 0 and gains[pos] < 0:
            break
        t = int(cand[pos])
        order.append(t)
        state.add(t)
        in_set[t] = True
        g_cur = g_cur + float(g_gains[pos])
        div_cur = float(min(div_cur, min_dist[t]))
        np.minimum(min_dist, inst.distance_row(t), out=min_dist)
        values.append((g_cur + lam * div_cur, g_cur, div_cur))
    return _best_prefix(problem, "greedy", start, order, values)


def random_baseline(problem: Problem, seed: int = 0) -> Solution:
    """Best prefix of a uniformly random ordered k-sample (seeded).

    Draws k points without replacement in random order, evaluates the
    objective on every prefix, and returns the best one (earliest on ties).
    """
    inst, util, lam = problem.instance, problem.utility, problem.lam
    start = util.query_count
    rng = np.random.default_rng(seed)
    order = [int(v) for v in rng.permutation(inst.n)[: problem.k]]
    div_cur = inst.d_max
    values = []
    for t, v in enumerate(order):
        if t >= 1:
            div_cur = min(div_cur, float(inst.distance_row(v)[order[:t]].min()))
        g = util.evaluate(order[: t + 1])
        values.append((g + lam * div_cur, g, div_cur))
    return _best_prefix(problem, "random", start, order, values, seed)
