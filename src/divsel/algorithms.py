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

The last two share one chain (:class:`_Chain`) and differ only in their pick
rule.  All tie-breaking is by lowest index.  Every solver returns the best of
its candidates through one loop, where a later candidate replaces an equal
one; prefixes are offered longest first, so among equal-valued prefixes the
earliest wins.  Each candidate's g is g of its selection, read from the gain
state that grew it.  Given identical inputs (and seed where applicable),
every algorithm is deterministic.
"""

from __future__ import annotations

import math
from itertools import islice, repeat
from typing import Callable, Iterable, Iterator

import numpy as np

from .core import (VALUE_RTOL, Instance, Problem, Solution, UtilityOracle, _GainState, _Run,
                   _run_args, _thresholds, integral)
from .errors import InputError

#: An offer: selection, reported threshold (0.0 at d = 0, None otherwise), (f, g, div).
_Candidate = tuple[Iterable[int], float | None, tuple[float, float, float]]


def _threshold_tree(
    instance: Instance, utility: UtilityOracle, thresholds: np.ndarray, k: int,
    lam: float, best: list[float], run: _Run,
) -> Iterator[tuple[list[int], int, int, float, _GainState]]:
    """The greedy independent set at each of the ascending ``thresholds``: one
    depth-first sweep that shares the common prefixes of the runs.

    A path at a prefix S of the runs at ``thresholds[lo:hi + 1]`` keeps ``min_dist``, each
    point's distance to S (-1 exactly on S, +0.0 or more elsewhere); its candidates are the
    points with ``min_dist >= thresholds[lo]``, at a zero floor the points off S.  Its gain
    state picks among them (``pick``: one query per candidate, ties to the lowest index) the
    t that is every threshold's pick up to dist(t, S); each higher one takes the best
    candidate it still has, in a branch, or its run ends at S.  A step that peels such
    branches reads its candidates' gain vector from the pick, or uncounted (``_gains``) when
    the pick built none: the pick counted them.  Each path carries its own gain state,
    counting into the call's ``run``, and walk position, which a pick may move past t: the
    root's is the kind's ``_sweep_state(run)``; a branch copies the state at S, adds its pick
    when popped, and starts where its parent's step left the position.  Yields ``(selection
    in order, lo, hi, run_div, state)`` by ascending ``lo``, ``run_div`` being the selection's
    minimum distance (+inf below two points) and ``state`` the run's gain state, at the
    selection; its ``value()`` is the run's g, counted when read.  A step reads dist(t, S)
    once, and searches ``thresholds`` only when it lies below ``thresholds[hi]``.

    For a ``_bounded`` kind, a path at prefix S with candidates C only has runs
    of f <= g(S) + (the k - |S| largest gains at S over C) + ``lam`` *
    min(d_max, run_div), g(S) summed from the picks' gains.  It is dropped when
    that plus ``VALUE_RTOL`` * |bound| is below ``best[0]``, the largest f
    offered so far: a branch by its parent's gains (a sum past the float range
    is inf, which drops nothing), a step by the cap with (k - |S|) * (largest
    gain) in place of the sum.  Distance rows come from ``instance._rows()``.
    """
    # pending paths: (S, lo, hi, min_dist or None when no point is left at thresholds[lo], walk
    # position, run_div, g(S), its own gain state, None or a branch's (g, pick's gain, its gains)
    # at its parent)
    n, rows, cut, d_max = instance.n, instance._rows(), thresholds.searchsorted, instance.d_max
    root = utility._sweep_state(run)
    paths = [([], 0, len(thresholds) - 1, np.full(n, np.inf), 0, math.inf, 0.0, root, None)]
    bounded = utility._bounded
    while paths:
        sel, lo, hi, min_dist, pos, run_div, g, state, parent = paths.pop()
        limit = best[0] if bounded and best[0] > -math.inf else None  # None: nothing to skip
        if parent is not None and limit is not None:  # runs P + R, P the parent, R in its gains
            g0, top, pg = parent  # runs ending at P: no gains, top 0
            r, tail = k - len(sel) + 1, lam * min(d_max, run_div)
            bound = g0 + r * top + tail
            if bound + VALUE_RTOL * abs(bound) >= limit:
                top_r = pg if r >= pg.size else np.partition(pg, pg.size - r)[pg.size - r:]
                try:
                    bound = g0 + math.fsum(top_r.tolist()) + tail
                except OverflowError:  # gains >= 0 past the float range: inf skips nothing
                    bound = math.inf
            if bound + VALUE_RTOL * abs(bound) < limit:
                continue
        if parent is not None and min_dist is not None:  # a branch with a pick:
            state.add(sel[-1])  # it joins the branch's copy of its parent's state once the bound keeps it
        floor, d_hi, pick, add = thresholds.item(lo), thresholds.item(hi), state.pick, state.add
        room = 0 if min_dist is None else k - len(sel)
        while room and (step := pick(min_dist, floor, pos, n - len(sel))):
            t, gain, pos, gains = step
            if limit is not None:
                bound = g + room * gain + lam * min(d_max, run_div)
                if bound + VALUE_RTOL * abs(bound) < limit:
                    break  # no run through S can beat the best offer
            dt = min_dist.item(t)  # dist(t, S); top: the last of thresholds[:hi + 1] at or below it
            top = last = hi if dt >= d_hi else int(cut(dt, "right")) - 1
            if last < hi:
                cand = (min_dist >= floor).nonzero()[0]
                if gains is None:  # the pick built none; it counted them
                    gains = state._gains(cand)
                at, d_hi = len(paths), thresholds.item(top)  # each higher branch goes below the lower ones
            while last < hi:  # peel off the thresholds above dist(t, S)
                first = last + 1
                sub = (min_dist[cand] >= thresholds[first]).nonzero()[0]
                if not sub.size:  # their runs end at S
                    paths.insert(at, (sel.copy(), first, hi, None, pos, run_div, g,
                                      state.copy(), (g, 0.0, gains[sub])))
                    break
                pg = gains[sub]
                j = pg.argmax()
                u, gu = int(cand[sub[j]]), pg.item(j)
                branch = np.minimum(min_dist, rows[u])
                branch[u] = -1.0
                last = min(hi, int(cut(min_dist[u], "right")) - 1)
                paths.insert(at, (sel + [u], first, last, branch, pos, min(run_div, float(min_dist[u])),
                                  g + gu, state.copy(), (g, gu, pg)))
            hi, g, room, run_div = top, g + gain, room - 1, dt if dt < run_div else run_div  # min's bits
            np.minimum(min_dist, rows[t], out=min_dist)
            min_dist[t] = -1.0
            sel.append(t)
            add(t)
        else:
            yield sel, lo, hi, run_div, state


def greedy_independent_set(
    instance: Instance, utility: UtilityOracle, d: float, k: int
) -> list[int]:
    """Greedy maximal independent set at distance threshold ``d``, capped at ``k``.

    Repeatedly adds the candidate with the largest utility marginal gain
    (ties to the lowest index) among points at distance >= d from everything
    selected so far, until ``k`` points or no candidate remains (then a maximal
    independent set of the distance-< d intersection graph).  Returns indices
    in selection order; the one-threshold case of the sweep :func:`gist` runs.
    It counts one query per candidate scored at each step, or n in all for a
    ``_fixed`` kind (linear, constant zero), whose gains never change.  Raises
    :class:`InputError` unless both arguments are over the same points, ``d``
    is a nonnegative number and ``k`` an integer >= 1 (3.0 passes; 2.5, NaN
    and booleans do not); a ``k`` above n selects at most n points.
    """
    k, run = _run_args(instance, utility, d, k), _Run(utility)
    thresholds = np.array([d], dtype=np.float64)
    return run.end(next(_threshold_tree(instance, utility, thresholds, k, 0.0, [-math.inf], run))[0])


def _sweep_candidates(problem: Problem, thresholds: np.ndarray, run: _Run) -> Iterator[_Candidate]:
    """One sweep over ``thresholds`` (0.0 first), offered in order: the run at d = 0,
    a diametrical pair when k >= 2, then each distinct run holding later
    thresholds with its largest (the one a later-wins loop would report); the
    sweep sees the largest f offered so far, to skip runs that stay below it."""
    inst, util, lam = problem.instance, problem.utility, problem.lam
    best = [-math.inf]
    for sel, lo, hi, run_div, state in _threshold_tree(inst, util, thresholds, problem.k, lam, best, run):
        g = state.value()  # the solver built sel and pair: no index check
        d = min(inst.d_max, run_div)
        value = (g + lam * d, g, d)
        best[0] = max(best[0], value[0])
        if lo == 0:
            yield sel, 0.0, value
            if problem.k >= 2 and inst.n >= 2:
                pair, d = inst.diametrical_pair(), inst.d_max  # the pair's distance is d_max
                g = util._gain_state(pair, run).value()
                best[0] = max(best[0], g + lam * d)
                yield pair, None, (g + lam * d, g, d)
        if hi > 0:
            yield sel, float(thresholds[hi]), value


def _best_candidate(problem: Problem, algorithm: str, offers: Callable[[_Run], Iterable[_Candidate]],
                    seed: int | None = None) -> Solution:
    """The best of the candidates ``offers(run)`` makes lazily for one solver call, whose gain
    states count into ``run``; a later candidate replaces an equal one.  The run ends here: its
    count is ``oracle_calls``.  Only the winner's selection is read."""
    best, run = None, _Run(problem.utility)
    for sel, threshold, value in offers(run):
        if best is None or value[0] >= best[0][0]:
            best = value, threshold, sel
    (f, g, d), threshold, sel = best
    return run.end(Solution(selected=tuple(sorted(sel)), f_value=f, g_value=g, div_value=d,
                            algorithm=algorithm, oracle_calls=run.count,
                            winning_threshold=threshold, seed=seed))


class _Chain:
    """One selection, grown from the empty set by :meth:`grow`: ``min_dist`` is each
    point's distance to it (+inf while it is empty), ``div`` its div and ``state``
    its gain state, counting into ``run``."""

    def __init__(self, problem: Problem, run: _Run):
        inst, self.problem = problem.instance, problem
        self.min_dist, self.div = np.full(inst.n, np.inf), inst.d_max
        self.state = problem.utility._gain_state((), run)

    def grow(self, picks: Callable[[_Chain], Iterable[int]]) -> Iterator[_Candidate]:
        """Adds each of ``picks(self)`` in turn (a generator of picks may read the chain between
        two) and records the prefix's (f, g, div), g read from the state; then offers the
        prefixes longest first, as lazy ``islice``s, so later-wins keeps the earliest of equals."""
        rows, lam = self.problem.instance._rows(), self.problem.lam
        min_dist, state, order, values = self.min_dist, self.state, [], []
        for t in picks(self):
            self.div = div = min(self.div, min_dist.item(t))
            np.minimum(min_dist, rows[t], out=min_dist)
            state.add(t)
            g = state.value()
            order.append(t)
            values.append((g + lam * div, g, div))
        yield from zip(map(islice, repeat(order), range(len(order), 0, -1)), repeat(None), reversed(values))


def gist(problem: Problem) -> Solution:
    """Threshold-sweep search returning the best candidate by objective value.

    Candidates, in order: the d = 0 greedy (plain utility greedy), a
    diametrical pair when k >= 2, and one greedy independent set per distinct
    run over the schedule, from a sweep that asks the gains at a prefix the
    runs share once (a ``_fixed`` kind's only once per point, for the whole
    sweep).  Each is evaluated once; a later candidate replaces an equal one;
    runs whose bound lies below a candidate already offered are skipped,
    unasked (see :func:`_threshold_tree`).  The reported
    ``winning_threshold`` is 0.0 for the greedy pass, ``None`` for the
    diametrical pair, and otherwise the winning run's largest.
    """
    label = "gist" if problem.schedule == "geometric" else "gist-exhaustive"
    return _best_candidate(problem, label, lambda run: _sweep_candidates(problem, _thresholds(problem), run))


def simple_baseline(problem: Problem) -> Solution:
    """Best of the two extreme candidates: utility-only greedy and a
    diametrical pair (skipped when k < 2)."""
    return _best_candidate(problem, "simple", lambda run: _sweep_candidates(problem, np.zeros(1), run))


def classic_greedy(problem: Problem) -> Solution:
    """Marginal-gain greedy on the full objective f.

    Each step adds the point with the largest f-gain (utility marginal plus
    the weighted drop in diversity), ties to the lowest index.  The first
    point is always taken; afterwards the loop stops as soon as the best
    available gain is negative.  Returns the best prefix of the built chain
    (earliest prefix on ties).
    """
    lam = problem.lam

    def picks(chain: _Chain) -> Iterator[int]:  # the chain adds each pick before it asks for the next
        cand = np.arange(problem.instance.n)
        for step in range(problem.k):
            gains = chain.state.gains(cand) + lam * (np.minimum(chain.div, chain.min_dist[cand]) - chain.div)
            pos = int(np.argmax(gains))
            if step > 0 and gains[pos] < 0:
                return
            t = int(cand[pos])
            yield t
            cand = cand[cand != t]
    return _best_candidate(problem, "greedy", lambda run: _Chain(problem, run).grow(picks))


def random_baseline(problem: Problem, seed: int = 0) -> Solution:
    """Best prefix of a uniformly random ordered k-sample (seeded).

    Draws k points without replacement in random order, scores every prefix
    from one growing gain state, and returns the best (earliest on ties).
    ``seed`` is an integer >= 0 by the one integer rule, else InputError.
    """
    seed = integral(seed, "seed")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    order = np.random.default_rng(seed).permutation(problem.instance.n)[: problem.k].tolist()
    return _best_candidate(problem, "random", lambda run: _Chain(problem, run).grow(lambda _: order), seed)
