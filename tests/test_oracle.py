import itertools

import numpy as np
import pytest

from divsel import (
    ConstantZeroUtility,
    DegenerateRatioError,
    InputError,
    Instance,
    LinearUtility,
    Problem,
    SizeGuardError,
    Solution,
    brute_force_constrained,
    brute_force_opt,
    classic_greedy,
    div,
    gen_greedy_hard,
    gen_nonsubmodular_example,
    gist,
    greedy_independent_set,
    objective,
    ratio_report,
)
from divsel.oracle import _ratio
from support import METRIC_STYLES, make_utility, random_metric_instance


def test_brute_force_nonsubmodular_example():
    gen = gen_nonsubmodular_example()
    problem = Problem(gen.instance, gen.utility, lam=1.0, k=2)
    exact = brute_force_opt(problem)
    assert exact.opt_value == 2.0
    # singletons tie the best pair at the diameter value; the witness is the
    # lexicographically smallest tying subset
    assert exact.witness == (0,)
    assert exact.subsets_examined == 4 + 6


def test_brute_force_greedy_hard():
    problem = gen_greedy_hard(8, 6, 0.1).to_problem()
    exact = brute_force_opt(problem)
    assert exact.opt_value == 6.0 + (1.0 + 0.1)
    assert len(exact.witness) == 6


def test_brute_force_unit_budget():
    rng = np.random.default_rng(101)
    for trial in range(20):
        n = int(rng.integers(2, 9))
        inst = random_metric_instance(rng, n, METRIC_STYLES[trial % 3])
        util = make_utility("linear", rng, n, 1)
        lam = float(rng.uniform(0, 3))
        problem = Problem(inst, util, lam=lam, k=1)
        exact = brute_force_opt(problem)
        best = max(util.weights[v] + lam * inst.d_max for v in range(n))
        assert exact.opt_value == pytest.approx(best, rel=1e-12)


def test_brute_force_witness_reproduces_value():
    rng = np.random.default_rng(103)
    for trial in range(25):
        n = int(rng.integers(3, 10))
        k = int(rng.integers(1, min(5, n) + 1))
        inst = random_metric_instance(rng, n, METRIC_STYLES[trial % 3])
        util = make_utility(("coverage", "budget", "linear")[trial % 3], rng, n, k)
        problem = Problem(inst, util, lam=float(rng.uniform(0, 5)), k=k)
        exact = brute_force_opt(problem)
        f, _, _ = objective(problem, exact.witness)
        assert f == pytest.approx(exact.opt_value, rel=1e-12)
        assert 1 <= len(exact.witness) <= k


def test_brute_force_tie_witness_is_lexicographically_smallest():
    inst = Instance.from_matrix(np.ones((4, 4)) - np.eye(4))
    problem = Problem(inst, ConstantZeroUtility(4), lam=0.0, k=2)
    # every subset has f = 0
    assert brute_force_opt(problem).witness == (0,)


def test_constrained_zero_floor_equals_unconstrained_max_utility():
    rng = np.random.default_rng(107)
    for trial in range(20):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, min(4, n) + 1))
        inst = random_metric_instance(rng, n, METRIC_STYLES[trial % 3])
        util = make_utility("coverage", rng, n, k)
        result = brute_force_constrained(inst, util, 0.0, k)
        # independent enumeration of max g over subsets of size <= k
        best = 0.0
        for size in range(1, k + 1):
            for combo in itertools.combinations(range(n), size):
                best = max(best, util.evaluate(combo))
        assert result.opt_value == best


def test_constrained_collinear_example():
    inst = Instance.from_euclidean([[0.0], [1.0], [2.0]])
    util = LinearUtility([1.0, 1.0, 1.0])  # g(S) = |S|
    result = brute_force_constrained(inst, util, 1.5, 3)
    assert result.opt_value == 2.0
    assert result.witness == (0, 2)


def test_constrained_infeasible_above_diameter():
    inst = Instance.from_euclidean([[0.0], [1.0], [2.0]])
    util = LinearUtility([1.0, 1.0, 1.0])
    result = brute_force_constrained(inst, util, inst.d_max * 1.5, 3)
    assert not result.feasible
    assert result.opt_value is None and result.witness == ()
    # at d == d_max singletons (and the diametrical pair) still qualify
    boundary = brute_force_constrained(inst, util, inst.d_max, 3)
    assert boundary.feasible and boundary.opt_value == 2.0


def test_constrained_rejects_what_the_greedy_rejects():
    inst = Instance.from_euclidean([[0.0], [1.0], [2.0]])
    util = LinearUtility([1.0, 1.0, 1.0])
    bad = [
        (LinearUtility(np.ones(5)), 0.5, 2, "sizes differ"),
        (util, float("nan"), 2, "nonnegative number"),
        (util, -1.0, 2, "nonnegative number"),
        (util, "0.5", 2, "nonnegative number"),
        (util, None, 2, "nonnegative number"),
        (util, True, 3, "nonnegative number"),  # a boolean is no number, though it equals 1
        (util, 0.5, 0, ">= 1"),
        (util, 0.5, -3, ">= 1"),
        (util, 0.5, 1.5, "must be an integer"),
        (util, 0.5, float("nan"), "must be an integer"),
    ]
    for utility, d, k, message in bad:
        for solver in (brute_force_constrained, greedy_independent_set):
            with pytest.raises(InputError, match=message):
                solver(inst, utility, d, k)
    assert util.query_count == 0
    # an integral k of any type, and a k above n, which walks every subset
    assert brute_force_constrained(inst, util, 0.5, 2.0) == brute_force_constrained(inst, util, 0.5, 2)
    assert brute_force_constrained(inst, util, 0.5, 10).subsets_examined == 7


def test_constrained_value_non_increasing_in_floor():
    rng = np.random.default_rng(109)
    for trial in range(15):
        n = int(rng.integers(3, 9))
        inst = random_metric_instance(rng, n, METRIC_STYLES[trial % 3])
        util = make_utility("budget", rng, n, 3)
        floors = sorted(rng.uniform(0, inst.d_max, size=4))
        values = [brute_force_constrained(inst, util, d, 3).opt_value for d in floors]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_ratio_report_greedy_hard():
    gen = gen_greedy_hard(8, 6, 0.1)
    problem = gen.to_problem()
    assert ratio_report(problem, gist(problem)) == 1.0
    greedy_ratio = ratio_report(problem, classic_greedy(problem))
    assert greedy_ratio == pytest.approx((4.0 + 2.0 * 0.1) / (6.0 + 1.1), rel=1e-12)
    assert greedy_ratio < (4.0 + 2.0 * 0.1) / 6.0


def test_ratio_report_degenerate_zero_optimum():
    inst = Instance.from_euclidean([[0.0]])
    problem = Problem(inst, ConstantZeroUtility(1), lam=1.0, k=1)
    sol = gist(problem)
    assert sol.f_value == 0.0
    assert ratio_report(problem, sol) == 1.0
    fake = Solution(
        selected=(0,), f_value=0.5, g_value=0.5, div_value=0.0,
        algorithm="fake", oracle_calls=0,
    )
    with pytest.raises(DegenerateRatioError):
        ratio_report(problem, fake)


def test_ratio_rule():
    assert _ratio(1.0, 2.0) == 0.5
    assert _ratio(0.0, 0.0) == _ratio(-0.0, 0.0) == 1.0
    assert _ratio(0.5, 0.0) is None and _ratio(-0.5, 0.0) is None


def test_size_guard():
    rng = np.random.default_rng(113)
    inst = Instance.from_euclidean(rng.standard_normal((64, 3)))
    util = LinearUtility(np.ones(64))
    problem = Problem(inst, util, lam=1.0, k=10)
    with pytest.raises(SizeGuardError):
        brute_force_opt(problem)
    with pytest.raises(SizeGuardError):
        brute_force_constrained(inst, util, 0.5, 10)
