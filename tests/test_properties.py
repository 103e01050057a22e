"""Property tests: every solver against the literal reference on generated
degenerate problems (duplicate points, all-equal distances, n = 1, k = n,
lam = 0, the zero utility, tied weights and nearly antipodal cosine
vectors), with their oracle query counts, and none above the exact optimum."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

import reference  # noqa: E402
from divsel import (  # noqa: E402
    BudgetAdditiveUtility,
    ConstantZeroUtility,
    CoverageUtility,
    Instance,
    LinearUtility,
    Problem,
    brute_force_opt,
    classic_greedy,
    distance_thresholds,
    gist,
    random_baseline,
    simple_baseline,
)
from support import counted  # noqa: E402


def small_ints(draw, shape, lo, hi):
    size = int(np.prod(shape))
    return np.array(draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size)),
                    dtype=float).reshape(shape)


@st.composite
def instances(draw, n):
    kind = draw(st.sampled_from(["grid", "duplicates", "all-equal", "antipodal"]))
    if kind == "grid":  # many equal distances
        return Instance.from_euclidean(small_ints(draw, (n, 2), 0, 3))
    if kind == "duplicates":
        return Instance.from_euclidean(small_ints(draw, (n, 1), 0, 1))
    if kind == "all-equal":
        return Instance.from_matrix(np.ones((n, n)) - np.eye(n))
    # every odd vector nearly antipodal to the even one before it
    points = small_ints(draw, (n, 3), 1, 3) * np.where(small_ints(draw, (n, 3), 0, 1), 1.0, -1.0)
    points[1::2] = -points[0::2][: n // 2] + 1e-9 * small_ints(draw, (n // 2, 3), -1, 1)
    return Instance.from_cosine(points)


@st.composite
def utilities(draw, n, k):
    kind = draw(st.sampled_from(["zero", "tied", "coverage", "budget"]))
    if kind == "zero":
        return ConstantZeroUtility(n)
    if kind == "tied":
        return LinearUtility(small_ints(draw, (n,), 0, 2))
    if kind == "coverage":
        return CoverageUtility([draw(st.lists(st.integers(0, 5), max_size=4)) for _ in range(n)])
    return BudgetAdditiveUtility(small_ints(draw, (n,), 0, 4) / 4.0, alpha=0.9, beta=0.6, k=k)


@st.composite
def problems(draw):
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, n))
    return Problem(
        draw(instances(n)),
        draw(utilities(n, k)),
        lam=draw(st.sampled_from([0.0, 0.3, 2.0])),
        k=k,
        epsilon=draw(st.sampled_from([0.1, 0.5])),
        schedule=draw(st.sampled_from(["geometric", "exhaustive"])),
    )


def outcome(sol):
    return sol.selected, sol.f_value, sol.g_value, sol.div_value, sol.winning_threshold


@given(problems())
def test_gist_and_simple_baseline_match_literal_reference(problem):
    n, k = problem.instance.n, problem.k
    sol = gist(problem)
    assert outcome(sol) == reference.gist(problem)
    assert sol.oracle_calls == reference.gist_queries(problem)
    assert sol.oracle_calls <= n * k * (len(distance_thresholds(problem)) + 2)
    simple = simple_baseline(problem)
    assert outcome(simple) == reference.simple_baseline(problem)
    pair = k >= 2 and n >= 2
    assert simple.oracle_calls == reference.greedy(problem, 0.0)[1] + 1 + pair


@given(problems())
def test_classic_greedy_and_random_baseline_match_literal_reference(problem):
    util = problem.utility
    solutions = [classic_greedy(problem)]
    assert (outcome(solutions[0]), solutions[0].oracle_calls) == counted(
        util, lambda: reference.classic_greedy(problem))
    for seed in (0, 7):
        solutions.append(random_baseline(problem, seed))
        assert (outcome(solutions[-1]), solutions[-1].oracle_calls) == counted(
            util, lambda: reference.random_baseline(problem, seed))
    opt = brute_force_opt(problem).opt_value
    for sol in solutions + [gist(problem), simple_baseline(problem)]:
        assert sol.f_value <= opt + 1e-9 * abs(opt), sol.algorithm
