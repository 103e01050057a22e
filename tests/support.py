"""Shared builders for randomized test suites.

Everything here is deterministic: each suite cell derives its rng from the
cell index, so repeated runs see identical instances.
"""

from __future__ import annotations

import numpy as np

from divsel import (
    BudgetAdditiveUtility,
    CoverageUtility,
    Instance,
    LinearUtility,
    Problem,
)

METRIC_STYLES = ("euclidean", "box", "shortest-path")


def random_metric_instance(rng: np.random.Generator, n: int, style: str) -> Instance:
    """Random instance whose metric provably satisfies the triangle inequality.

    * euclidean: standard-normal coordinates;
    * box: symmetric distances drawn from [1, 2) (any triple satisfies the
      triangle inequality since 2 <= 1 + 1);
    * shortest-path: metric closure of a random symmetric matrix.
    """
    if style == "euclidean":
        dim = int(rng.integers(2, 6))
        return Instance.from_euclidean(rng.standard_normal((n, dim)))
    if style == "box":
        m = rng.uniform(1.0, 2.0, size=(n, n))
        m = np.triu(m, 1)
        m = m + m.T
        return Instance.from_matrix(m, validate_triangle=True)
    if style == "shortest-path":
        m = rng.uniform(0.5, 3.0, size=(n, n))
        m = np.triu(m, 1)
        m = m + m.T
        for via in range(n):
            np.minimum(m, m[:, via][:, None] + m[via, :][None, :], out=m)
        return Instance.from_matrix(m, validate_triangle=True)
    raise ValueError(f"unknown style {style}")


def counted(utility, solve):
    """``solve()``'s result and the queries it made of ``utility``."""
    before = utility.query_count
    result = solve()
    return result, utility.query_count - before


def random_coverage_utility(rng: np.random.Generator, n: int) -> CoverageUtility:
    universe = int(rng.integers(6, 15))
    family = []
    for _ in range(n):
        members = np.flatnonzero(rng.random(universe) < 0.35)
        family.append([int(e) for e in members])
    return CoverageUtility(family, universe)


def sparse_coverage_utility(rng: np.random.Generator, n: int) -> CoverageUtility:
    """Coverage over negative and far-apart element ids; every third set is empty."""
    ids = np.array([-7, -1, 0, 5, 10**6, 2**40])
    family = [[] if v % 3 == 0 else [int(e) for e in ids[rng.random(ids.size) < 0.4]]
              for v in range(n)]
    return CoverageUtility(family)


def random_budget_utility(rng: np.random.Generator, n: int, k: int) -> BudgetAdditiveUtility:
    return BudgetAdditiveUtility(
        rng.uniform(0.0, 1.0, size=n),
        alpha=float(rng.uniform(0.5, 1.0)),
        beta=float(rng.uniform(0.3, 0.9)),
        k=k,
    )


def random_linear_utility(rng: np.random.Generator, n: int) -> LinearUtility:
    return LinearUtility(rng.uniform(0.0, 1.0, size=n))


def make_utility(kind: str, rng: np.random.Generator, n: int, k: int):
    if kind == "coverage":
        return random_coverage_utility(rng, n)
    if kind == "budget":
        return random_budget_utility(rng, n, k)
    if kind.startswith("linear"):
        return random_linear_utility(rng, n)
    raise ValueError(f"unknown utility kind {kind}")


def guarantee_suite(utility_kinds=("coverage", "budget"), lam_values=(0.1, 1.0, 10.0)):
    """Full cross product of small solvable cells.

    n in [6, 12] x k in [2, 5] x 3 metric styles x utility kinds x lam values:
    504 cells for two utility kinds.
    """
    cell = 0
    for n in range(6, 13):
        for k in range(2, 6):
            for style in METRIC_STYLES:
                for kind in utility_kinds:
                    for lam in lam_values:
                        cell += 1
                        rng = np.random.default_rng(10_000 + cell)
                        instance = random_metric_instance(rng, n, style)
                        utility = make_utility(kind, rng, n, k)
                        problem = Problem(
                            instance=instance, utility=utility, lam=lam, k=k, epsilon=0.1
                        )
                        yield problem, f"cell{cell}-n{n}-k{k}-{style}-{kind}-lam{lam}"
