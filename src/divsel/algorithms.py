"""Selection algorithms.

* :func:`greedy_independent_set` -- budget-capped greedy over the points at
  distance >= d from the current selection (the candidates form an independent
  set of the intersection graph with edges between pairs closer than d).
* :func:`gist` -- best of the d = 0 greedy, a diametrical pair, and the
  greedy independent sets of a sweep over every threshold of the schedule.
* :func:`simple_baseline` -- only the two extreme candidates (d = 0 greedy and
  the diametrical pair), shared with :func:`gist`.
* :func:`classic_greedy` -- marginal-gain greedy on the full objective f that
  stops once every remaining gain is negative, then returns its best prefix.
* :func:`random_baseline` -- best prefix of a uniformly random ordered
  k-sample.

All tie-breaking is by lowest index.  Every solver returns the best of its
candidates through one loop, where a later candidate replaces an equal one;
prefixes are offered longest first, so among equal-valued prefixes the
earliest wins.  Given identical inputs (and seed where applicable), every
algorithm is deterministic.
"""

from __future__ import annotations

import bisect
import math
from itertools import islice, repeat
from typing import Iterable, Iterator

import numpy as np

from .core import Instance, Problem, Solution, UtilityOracle, _run_args, _thresholds, div
from .utilities import ConstantZeroUtility, LinearUtility

#: An offer: selection, reported threshold (0.0 at d = 0, None otherwise), (f, g, div).
_Candidate = tuple[Iterable[int], float | None, tuple[float, float, float]]


def _threshold_tree(
    instance: Instance, utility: UtilityOracle, thresholds: np.ndarray, k: int
) -> Iterator[tuple[list[int], int, int, float]]:
    """The greedy independent set at each of the ascending ``thresholds``: one
    depth-first sweep that shares the common prefixes of the runs.

    At a prefix S of the runs at ``thresholds[lo:hi + 1]``, gains are asked
    once, for the candidates at ``thresholds[lo]``.  Their pick t (ties to the
    lowest index) is every threshold's pick up to dist(t, S); each higher one
    takes the best candidate it still has, in a branch with its own gain
    state, or its run ends at S.  Yields ``(selection in order, lo, hi,
    run_div)`` by ascending ``lo``, ``run_div`` being the selection's minimum
    distance (+inf below two points).  Exact linear and constant-zero
    utilities (not subclasses) are asked once per point, at the root.
    """
    # pending paths: (S, lo, hi, dist(v, S) or +inf, candidates at thresholds[lo], run_div)
    n, rows, cut = instance.n, instance.distance_matrix(), thresholds.searchsorted
    paths = [([], 0, len(thresholds) - 1, np.full(n, np.inf), np.arange(n), math.inf)]
    fixed = None  # exact linear or zero gains do not depend on S: ask each point's once
    if type(utility) in (LinearUtility, ConstantZeroUtility):
        fixed = utility._gain_state().gains(np.arange(n))
    while paths:
        sel, lo, hi, min_dist, cand, run_div = paths.pop()
        floor = thresholds[lo]
        state = utility._gain_state(sel) if fixed is None and cand.size and len(sel) < k else None
        while len(sel) < k and cand.size:
            gains = fixed[cand] if state is None else state.gains(cand)
            t = int(cand[gains.argmax()])
            top = last = min(hi, int(cut(min_dist[t], "right")) - 1)
            at = len(paths)  # each higher branch goes below the lower ones: they pop ascending
            while last < hi:  # peel off the thresholds above dist(t, S)
                first = last + 1
                sub = (min_dist[cand] >= thresholds[first]).nonzero()[0]
                if not sub.size:  # their runs end at S
                    paths.insert(at, (sel.copy(), first, hi, None, sub, run_div))
                    break
                rest = cand[sub]  # thresholds[first] > dist(t, S) >= 0: u's zero entry drops it
                u = int(rest[gains[sub].argmax()])
                row = rows[u]
                last = min(hi, int(cut(min_dist[u], "right")) - 1)
                paths.insert(at, (sel + [u], first, last, np.minimum(min_dist, row),
                                  rest[row[rest] >= thresholds[first]],
                                  min(run_div, float(min_dist[u]))))
            row = rows[t]  # a floor above 0 drops t itself through its zero diagonal entry
            cand = cand[row[cand] >= floor] if floor > 0 else cand[cand != t]
            hi, run_div = top, min(run_div, float(min_dist[t]))
            np.minimum(min_dist, row, out=min_dist)
            sel.append(t)
            if state is not None:
                state.add(t)
        yield sel, lo, hi, run_div


def greedy_independent_set(
    instance: Instance, utility: UtilityOracle, d: float, k: int
) -> list[int]:
    """Greedy maximal independent set at distance threshold ``d``, capped at ``k``.

    Repeatedly adds the candidate with the largest utility marginal gain
    (ties to the lowest index) among points at distance >= d from everything
    selected so far, until ``k`` points or no candidate remains (then a maximal
    independent set of the distance-< d intersection graph).  Returns indices
    in selection order; the one-threshold case of the sweep :func:`gist` runs.
    It counts one query per candidate scored at each step, or n in all for an
    exact linear or constant-zero utility, whose gains never change.  Raises
    :class:`InputError` unless both arguments are over the same points, ``d``
    is a nonnegative number and ``k`` an integer >= 1 (3.0 passes; 2.5, NaN
    and booleans do not); a ``k`` above n selects at most n points.
    """
    k = _run_args(instance, utility, d, k)
    return next(_threshold_tree(instance, utility, np.array([d], dtype=np.float64), k))[0]


def _sweep_candidates(problem: Problem, schedule: np.ndarray) -> Iterator[_Candidate]:
    """One sweep over ``[0.0] + schedule``, offered in order: the run at d = 0,
    a diametrical pair when k >= 2, then each distinct run holding schedule
    thresholds with its largest (the one a later-wins loop would report)."""
    inst, util, lam = problem.instance, problem.utility, problem.lam
    thresholds = np.concatenate(([0.0], schedule))
    for sel, lo, hi, run_div in _threshold_tree(inst, util, thresholds, problem.k):
        util._queries.add(1)  # one query per g; the solver built sel and pair: no index check
        g, d = util._value(tuple(sorted(sel))), min(inst.d_max, run_div)
        value = (g + lam * d, g, d)
        if lo == 0:
            yield sel, 0.0, value
            if problem.k >= 2 and inst.n >= 2:
                pair = inst.diametrical_pair()
                util._queries.add(1)
                g, d = util._value(pair), div(inst, pair)
                yield pair, None, (g + lam * d, g, d)
        if hi > 0:
            yield sel, float(thresholds[hi]), value


def _best_candidate(
    problem: Problem, algorithm: str, start: int, candidates: Iterable[_Candidate],
    seed: int | None = None,
) -> Solution:
    """The best candidate; a later candidate replaces an equal one.  ``start`` is the
    query count when the run began, so the queries of the greedy runs that lazily
    produce ``candidates`` count toward ``oracle_calls``; only the winner's selection is read."""
    best = None
    for sel, threshold, value in candidates:
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
        seed=seed,
    )


def _prefixes(order: list[int], values: list) -> Iterator[_Candidate]:
    """Each prefix of ``order`` (a lazy ``islice``) with its ``values`` entry, longest
    first, so that later-wins keeps the earliest of equal prefixes."""
    lengths = range(len(order), 0, -1)
    return zip(map(islice, repeat(order), lengths), repeat(None), reversed(values))


def gist(problem: Problem) -> Solution:
    """Threshold-sweep search returning the best candidate by objective value.

    Candidates, in order: the d = 0 greedy (plain utility greedy), a
    diametrical pair when k >= 2, and one greedy independent set per distinct
    run over the schedule, from a sweep that asks the gains at a prefix the
    runs share once (an exact linear or constant-zero utility's only once per
    point, for the whole sweep).  Each is evaluated once; a later candidate
    replaces an equal one.  The reported ``winning_threshold`` is 0.0 for the
    greedy pass, ``None`` for the diametrical pair, and otherwise the winning
    run's largest.
    """
    label = "gist" if problem.schedule == "geometric" else "gist-exhaustive"
    start = problem.utility.query_count
    return _best_candidate(problem, label, start, _sweep_candidates(problem, _thresholds(problem)))


def simple_baseline(problem: Problem) -> Solution:
    """Best of the two extreme candidates: utility-only greedy and a
    diametrical pair (skipped when k < 2)."""
    start = problem.utility.query_count
    return _best_candidate(problem, "simple", start, _sweep_candidates(problem, np.empty(0)))


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
    n, rows = inst.n, inst.distance_matrix()
    util._queries.add(1)
    g_cur = util._value(())
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
        np.minimum(min_dist, rows[t], out=min_dist)
        values.append((g_cur + lam * div_cur, g_cur, div_cur))
    return _best_candidate(problem, "greedy", start, _prefixes(order, values))


def random_baseline(problem: Problem, seed: int = 0) -> Solution:
    """Best prefix of a uniformly random ordered k-sample (seeded).

    Draws k points without replacement in random order, evaluates the
    objective on every prefix, and returns the best one (earliest on ties).
    """
    inst, util, lam = problem.instance, problem.utility, problem.lam
    start = util.query_count
    rng = np.random.default_rng(seed)
    order = [int(v) for v in rng.permutation(inst.n)[: problem.k]]
    div_cur, rows = inst.d_max, inst.distance_matrix()
    min_dist = np.full(inst.n, np.inf)  # dist(v, prefix); +inf while it is empty
    prefix, values = [], []  # prefix: the points drawn so far, sorted
    for v in order:
        div_cur = min(div_cur, float(min_dist[v]))
        np.minimum(min_dist, rows[v], out=min_dist)
        bisect.insort(prefix, v)
        util._queries.add(1)
        g = util._value(tuple(prefix))
        values.append((g + lam * div_cur, g, div_cur))
    return _best_candidate(problem, "random", start, _prefixes(order, values), seed)
