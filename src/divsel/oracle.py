"""Exact exponential-time solvers used as ground truth in ratio tests.

Both solvers take one walk over the nonempty subsets of size <= k, by size
and then lexicographically, and keep the best score; ties go to the
lexicographically smallest witness.  ``_ratio`` is the one rule for an
approximation ratio against a zero optimum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .core import Instance, Problem, UtilityOracle, integral
from .errors import DegenerateRatioError, InputError, SizeGuardError

#: Refuse to enumerate more nonempty subsets than this.
SUBSET_GUARD = 10_000_000


@dataclass(frozen=True)
class ExactResult:
    """Optimum from exhaustive enumeration.

    ``feasible`` is False only for the constrained solver when no nonempty
    subset meets the diversity floor (then ``opt_value`` is None and the
    witness is empty).
    """

    opt_value: float | None
    witness: tuple[int, ...]
    subsets_examined: int
    feasible: bool = True


def _subsets(instance: Instance, k: int) -> Iterator[tuple[tuple[int, ...], float]]:
    """Every nonempty subset of size <= k, by size and then lexicographically,
    with its div: the first minimum over its pairs in ``combinations`` order
    (a -0.0 keeps its sign), or the diameter for a singleton."""
    k = integral(k, "budget k")
    if k < 1:
        raise InputError("budget k must be >= 1")
    n, k = instance.n, min(k, instance.n)
    total = sum(math.comb(n, t) for t in range(1, k + 1))
    if total > SUBSET_GUARD:
        raise SizeGuardError(
            f"{total} subsets of size <= {k} over {n} points exceeds the guard of {SUBSET_GUARD}"
        )
    rows = instance.distance_matrix().tolist()
    d_max = instance.d_max
    for size in range(1, k + 1):
        for combo in itertools.combinations(range(n), size):
            pairs = itertools.combinations(combo, 2)
            yield combo, min((rows[a][b] for a, b in pairs), default=d_max)


def _best(scored: Iterable[tuple[tuple[int, ...], float | None]]) -> ExactResult:
    """The best ``(subset, score)`` pair, ties to the lexicographically smaller
    subset.  Every pair counts as examined; a None score is no candidate."""
    best_value, best, examined = None, None, 0
    for combo, value in scored:
        examined += 1
        if value is not None and (best is None or value > best_value
                                  or (value == best_value and combo < best)):
            best_value, best = value, combo
    return ExactResult(best_value, best or (), examined, feasible=best is not None)


def brute_force_opt(problem: Problem) -> ExactResult:
    """Maximize f = g + lam * div over the walk, evaluating g once per subset."""
    util, lam = problem.utility, problem.lam
    return _best((combo, util.evaluate(combo) + lam * dv)
                 for combo, dv in _subsets(problem.instance, problem.k))


def brute_force_constrained(
    instance: Instance, utility: UtilityOracle, d: float, k: int
) -> ExactResult:
    """Maximize g over the walk's subsets whose diversity is at least ``d``,
    evaluating g on those only.

    A singleton's diversity is the diameter, so singletons qualify iff
    d <= d_max.  When no subset does, the result is flagged infeasible rather
    than falling back to the empty set.  Like
    :func:`~divsel.algorithms.greedy_independent_set`, it raises
    :class:`InputError` unless ``k`` is an integer >= 1, ``d`` a nonnegative
    number and both arguments are over the same points.
    """
    if not d >= 0:
        raise InputError(f"distance threshold must be a nonnegative number, got {d}")
    if utility.n != instance.n:
        raise InputError("utility and instance sizes differ")
    return _best((combo, utility.evaluate(combo) if dv >= d else None)
                 for combo, dv in _subsets(instance, k))


def _ratio(f: float, opt: float) -> float | None:
    """f / opt; 1.0 when both are 0, and None, undefined, when only opt is."""
    if opt == 0.0:
        return 1.0 if f == 0.0 else None
    return f / opt


def ratio_report(problem: Problem, solution) -> float:
    """Algorithm value over the brute-force optimum by :func:`_ratio`; raises
    :class:`DegenerateRatioError` where that is undefined."""
    ratio = _ratio(solution.f_value, brute_force_opt(problem).opt_value)
    if ratio is None:
        raise DegenerateRatioError(f"optimum is 0 but algorithm value is {solution.f_value}")
    return ratio
