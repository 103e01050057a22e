import itertools
import math

import numpy as np
import pytest

from divsel import (
    ConstantZeroUtility,
    CoverageUtility,
    Instance,
    LinearUtility,
    Problem,
    brute_force_opt,
    classic_greedy,
    distance_thresholds,
    div,
    gen_greedy_hard,
    gist,
    greedy_independent_set,
    objective,
    random_baseline,
    simple_baseline,
)
from support import METRIC_STYLES, make_utility, random_metric_instance

ALGORITHM_RUNS = [
    ("gist", lambda p: gist(p)),
    ("simple", lambda p: simple_baseline(p)),
    ("greedy", lambda p: classic_greedy(p)),
    ("random", lambda p: random_baseline(p, seed=5)),
]


def collinear_instance():
    return Instance.from_euclidean([[0.0], [1.0], [2.0]])


def random_problem(rng, trial):
    n = int(rng.integers(4, 12))
    k = int(rng.integers(2, min(6, n + 1)))
    style = METRIC_STYLES[trial % 3]
    kind = ("coverage", "budget", "linear")[trial % 3]
    instance = random_metric_instance(rng, n, style)
    utility = make_utility(kind, rng, n, k)
    lam = float(rng.choice([0.1, 1.0, 10.0]))
    return Problem(instance, utility, lam=lam, k=k, epsilon=0.1)


# ---------------------------------------------------------------------------
# greedy_independent_set
# ---------------------------------------------------------------------------


def test_greedy_independent_set_collinear():
    inst = collinear_instance()
    # equal gains everywhere: index 0 wins, then only point 2 is >= 1.5 away
    assert greedy_independent_set(inst, LinearUtility([1, 1, 1]), 1.5, 3) == [0, 2]


def test_greedy_independent_set_zero_threshold_is_classic_coverage_greedy():
    inst = Instance.from_matrix(np.ones((3, 3)) - np.eye(3))
    util = CoverageUtility([[1, 2], [2, 3], [3, 4]])
    assert greedy_independent_set(inst, util, 0.0, 2) == [0, 2]
    assert util.evaluate([0, 2]) == 4.0


def test_greedy_independent_set_budget_one():
    rng = np.random.default_rng(0)
    inst = random_metric_instance(rng, 8, "euclidean")
    weights = [0.3, 0.9, 0.9, 0.1, 0.5, 0.2, 0.9, 0.4]
    for d in (0.0, 0.5, 10.0):
        # argmax singleton utility, lowest index among the three ties
        assert greedy_independent_set(inst, LinearUtility(weights), d, 1) == [1]


def test_greedy_independent_set_invariants():
    rng = np.random.default_rng(13)
    for trial in range(150):
        problem = random_problem(rng, trial)
        inst = problem.instance
        d = float(rng.uniform(0, 1.2) * inst.d_max)
        selected = greedy_independent_set(inst, problem.utility, d, problem.k)
        assert 1 <= len(selected) <= problem.k
        # independence at threshold d (exact comparisons)
        for u, v in itertools.combinations(selected, 2):
            assert inst.dist(u, v) >= d
        # maximality or budget exhaustion
        if len(selected) < problem.k:
            others = set(range(inst.n)) - set(selected)
            for v in others:
                assert min(inst.dist(v, s) for s in selected) < d


# ---------------------------------------------------------------------------
# gist
# ---------------------------------------------------------------------------


def test_gist_greedy_hard_attains_optimum():
    gen = gen_greedy_hard(8, 6, 0.1)
    problem = gen.to_problem()
    sol = gist(problem)
    exact = brute_force_opt(problem)
    assert sol.f_value == exact.opt_value == 6.0 + (1.0 + 0.1)
    assert len(sol.selected) == 6


def test_gist_lambda_zero_matches_classic_submodular_guarantee():
    rng = np.random.default_rng(31)
    for trial in range(25):
        n = int(rng.integers(6, 13))
        k = int(rng.integers(2, 6))
        inst = random_metric_instance(rng, n, METRIC_STYLES[trial % 3])
        util = make_utility("coverage", rng, n, k)
        problem = Problem(inst, util, lam=0.0, k=k)
        sol = gist(problem)
        exact = brute_force_opt(problem)
        assert sol.f_value >= (1.0 - 1.0 / math.e) * exact.opt_value - 1e-9


def test_gist_diversity_only_returns_diametrical_pair():
    problem = Problem(collinear_instance(), ConstantZeroUtility(3), lam=1.0, k=2)
    sol = gist(problem)
    assert sol.selected == (0, 2)
    assert sol.f_value == problem.instance.d_max == 2.0


def test_gist_dominates_simple_baseline():
    rng = np.random.default_rng(37)
    for trial in range(40):
        problem = random_problem(rng, trial)
        assert gist(problem).f_value >= simple_baseline(problem).f_value


def test_gist_winning_threshold_is_a_candidate():
    rng = np.random.default_rng(41)
    for trial in range(20):
        problem = random_problem(rng, trial)
        sol = gist(problem)
        if sol.winning_threshold is not None:
            assert sol.winning_threshold == 0.0 or sol.winning_threshold in set(
                distance_thresholds(problem)
            )


def test_gist_exhaustive_label():
    problem = Problem(collinear_instance(), ConstantZeroUtility(3), lam=1.0, k=2,
                      schedule="exhaustive")
    assert gist(problem).algorithm == "gist-exhaustive"


# ---------------------------------------------------------------------------
# simple baseline
# ---------------------------------------------------------------------------


def test_simple_baseline_diversity_only():
    rng = np.random.default_rng(47)
    for trial in range(20):
        inst = random_metric_instance(rng, int(rng.integers(2, 10)), METRIC_STYLES[trial % 3])
        problem = Problem(inst, ConstantZeroUtility(inst.n), lam=1.0, k=2)
        assert simple_baseline(problem).f_value == inst.d_max


def test_simple_baseline_greedy_hard():
    problem = gen_greedy_hard(8, 6, 0.1).to_problem()
    sol = simple_baseline(problem)
    # the utility-greedy branch takes any 6 points: 6 + (1 + eps)
    assert sol.f_value == 6.0 + 1.1
    assert sol.winning_threshold == 0.0


def test_simple_baseline_skips_pair_for_unit_budget():
    rng = np.random.default_rng(53)
    inst = random_metric_instance(rng, 6, "euclidean")
    util = LinearUtility(rng.uniform(0, 1, 6))
    problem = Problem(inst, util, lam=5.0, k=1)
    sol = simple_baseline(problem)
    assert len(sol.selected) == 1


# ---------------------------------------------------------------------------
# classic greedy
# ---------------------------------------------------------------------------


def test_classic_greedy_stalls_on_greedy_hard():
    gen = gen_greedy_hard(8, 6, 0.1)
    for k in (2, 4, 6):
        sol = classic_greedy(gen.to_problem(k=k))
        assert sol.selected == (0, 1)
        assert sol.f_value == 4.0 + 2.0 * 0.1


def test_classic_greedy_matches_zero_threshold_greedy_when_lambda_zero():
    rng = np.random.default_rng(59)
    for trial in range(30):
        n = int(rng.integers(3, 12))
        k = int(rng.integers(1, n + 1))
        inst = random_metric_instance(rng, n, METRIC_STYLES[trial % 3])
        util = make_utility(("coverage", "budget", "linear")[trial % 3], rng, n, k)
        problem = Problem(inst, util, lam=0.0, k=k)
        sol = classic_greedy(problem)
        reference = greedy_independent_set(inst, util, 0.0, k)
        assert set(sol.selected) <= set(reference)
        assert sol.f_value == pytest.approx(util.evaluate(reference), rel=1e-12)


def test_classic_greedy_single_point():
    inst = Instance.from_euclidean([[3.0]])
    problem = Problem(inst, LinearUtility([0.4]), lam=1.0, k=1)
    sol = classic_greedy(problem)
    assert sol.selected == (0,)
    assert sol.f_value == pytest.approx(0.4, rel=1e-12)


# ---------------------------------------------------------------------------
# random baseline
# ---------------------------------------------------------------------------


def test_random_baseline_at_least_full_sample():
    rng = np.random.default_rng(61)
    for trial in range(30):
        problem = random_problem(rng, trial)
        seed = int(rng.integers(1 << 16))
        sol = random_baseline(problem, seed)
        perm = [int(v) for v in np.random.default_rng(seed).permutation(problem.instance.n)[: problem.k]]
        full_f, _, _ = objective(problem, perm)
        assert sol.f_value >= full_f
        assert set(sol.selected) <= set(perm)


def test_random_baseline_deterministic_under_seed():
    problem = gen_greedy_hard(10, 5, 0.2).to_problem()
    assert random_baseline(problem, 99) == random_baseline(problem, 99)


def test_random_baseline_full_ground_set_prefixes():
    rng = np.random.default_rng(67)
    inst = random_metric_instance(rng, 6, "box")
    util = ConstantZeroUtility(6)
    problem = Problem(inst, util, lam=1.0, k=6)
    sol = random_baseline(problem, 7)
    perm = [int(v) for v in np.random.default_rng(7).permutation(6)]
    best = max(objective(problem, perm[: t + 1])[0] for t in range(6))
    assert sol.f_value == best


# ---------------------------------------------------------------------------
# cross-cutting solution invariants
# ---------------------------------------------------------------------------


def test_solution_invariants_all_algorithms():
    rng = np.random.default_rng(71)
    for trial in range(25):
        problem = random_problem(rng, trial)
        for name, run in ALGORITHM_RUNS:
            sol = run(problem)
            assert len(sol.selected) <= problem.k
            assert sol.selected == tuple(sorted(sol.selected))
            assert sol.f_value == pytest.approx(
                sol.g_value + problem.lam * sol.div_value, rel=1e-9
            )
            f_again, _, _ = objective(problem, sol.selected)
            assert sol.f_value == pytest.approx(f_again, rel=1e-9)
            assert sol.oracle_calls > 0


def test_algorithms_deterministic():
    rng = np.random.default_rng(73)
    for trial in range(10):
        problem = random_problem(rng, trial)
        for name, run in ALGORITHM_RUNS:
            assert run(problem) == run(problem), name


def test_gist_is_exact_for_pure_linear_objectives():
    # lam = 0 with a linear utility: the d = 0 pass picks the k heaviest points
    rng = np.random.default_rng(83)
    for trial in range(15):
        n = int(rng.integers(4, 11))
        k = int(rng.integers(1, n + 1))
        inst = random_metric_instance(rng, n, METRIC_STYLES[trial % 3])
        util = make_utility("linear", rng, n, k)
        problem = Problem(inst, util, lam=0.0, k=k)
        sol = gist(problem)
        assert sol.f_value / brute_force_opt(problem).opt_value == 1.0


def test_gist_oracle_call_budget():
    rng = np.random.default_rng(79)
    for trial in range(25):
        problem = random_problem(rng, trial)
        sol = gist(problem)
        n_thresholds = len(distance_thresholds(problem))
        bound = problem.instance.n * problem.k * (n_thresholds + 2)
        assert sol.oracle_calls <= bound
