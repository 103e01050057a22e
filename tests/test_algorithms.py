import itertools
import math
import sys
import threading
import warnings

import numpy as np
import pytest

from divsel import (
    BudgetAdditiveUtility,
    ConstantZeroUtility,
    CoverageUtility,
    InputError,
    Instance,
    LinearUtility,
    Problem,
    Solution,
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
    utilities,
)
from divsel.cli import SOLVERS
from divsel.core import SCHEDULES, QueryCounter, _GainState, _Run, _thresholds
from support import METRIC_STYLES, counted, every_kind, integer_cases, make_utility, random_metric_instance

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


def test_prefix_solvers_keep_the_earliest_of_tied_prefixes():
    # every prefix is worth 0: the earliest, one point, wins for both prefix solvers
    rng = np.random.default_rng(71)
    for trial in range(6):
        inst = random_metric_instance(rng, 7, METRIC_STYLES[trial % 3])
        problem = Problem(inst, ConstantZeroUtility(7), lam=0.0, k=5)
        for sol in (classic_greedy(problem), random_baseline(problem, trial)):
            assert len(sol.selected) == 1 and sol.f_value == 0.0, sol
        assert classic_greedy(problem).selected == (0,)  # ties to the lowest index


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


def test_random_baseline_takes_seeds_by_the_one_integer_rule():
    problem = gen_greedy_hard(10, 5, 0.2).to_problem()
    accepted, refused = integer_cases()
    expected = random_baseline(problem, 3)
    for seed in accepted:
        sol = random_baseline(problem, seed)
        assert sol == expected and type(sol.seed) is int
    before = problem.utility.query_count
    for seed in refused + (-1,):  # None would draw OS entropy; -1 numpy refuses
        with pytest.raises(InputError, match="seed"):
            random_baseline(problem, seed)
    assert problem.utility.query_count == before


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
    # every solver reports g and div of the set it returns, bit for bit, and f = g + lam * div
    rng = np.random.default_rng(71)
    for trial in range(15):
        n = int(rng.integers(1, 12))
        k = int(rng.integers(1, n + 1))
        instance = random_metric_instance(rng, n, METRIC_STYLES[trial % 3])
        lam = float(rng.choice([0.0, 0.1, 1.0, 10.0]))
        for kind, utility in every_kind(rng, n, k).items():
            for schedule in SCHEDULES:
                problem = Problem(instance, utility, lam=lam, k=k, schedule=schedule)
                for name, run in ALGORITHM_RUNS:
                    sol, label = run(problem), (trial, kind, schedule, name)
                    assert len(sol.selected) <= k, label
                    assert sol.selected == tuple(sorted(sol.selected)), label
                    g, d = utility.evaluate(sol.selected), div(instance, sol.selected)
                    assert (sol.g_value.hex(), sol.div_value.hex()) == (g.hex(), d.hex()), label
                    assert sol.f_value.hex() == (sol.g_value + lam * sol.div_value).hex(), label
                    assert sol.oracle_calls > 0, label


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


def test_only_the_exhaustive_schedule_sorts_the_pairs(monkeypatch):
    rng = np.random.default_rng(11)
    points, weights = rng.standard_normal((12, 4)), rng.uniform(0, 1, 12)

    def fresh(schedule="geometric"):
        return Problem(Instance.from_cosine(points), LinearUtility(weights), lam=0.5, k=3,
                       schedule=schedule)

    def refuse(self):
        raise AssertionError("pair sort requested")

    def zeros():  # no two points apart, and -0.0 off the diagonal
        m = np.zeros((5, 5))
        m[0, 1] = m[1, 0] = m[2, 4] = m[4, 2] = -0.0
        return Problem(Instance.from_matrix(m), LinearUtility(weights[:5]), lam=0.5, k=3)

    monkeypatch.setattr(Instance, "pair_distances_sorted", refuse)
    for solve in (gist, simple_baseline, classic_greedy, random_baseline, brute_force_opt):
        solve(fresh())
        solve(zeros())
    assert div(fresh().instance, [0]) > 0.0
    assert zeros().instance.d_max.hex() == "0x0.0p+0"
    with pytest.raises(AssertionError, match="pair sort requested"):
        gist(fresh("exhaustive"))


def test_the_exhaustive_schedule_is_built_once_per_instance(monkeypatch):
    rng = np.random.default_rng(13)
    instance = Instance.from_euclidean(rng.standard_normal((20, 3)))
    sorts = []

    def counted_sort(self, sort=Instance.pair_distances_sorted):
        sorts.append(self)
        return sort(self)

    monkeypatch.setattr(Instance, "pair_distances_sorted", counted_sort)
    problem = Problem(instance, LinearUtility(rng.uniform(0, 1, 20)), lam=0.5, k=4, schedule="exhaustive")
    gist(problem)
    gist(Problem(instance, ConstantZeroUtility(20), lam=1.0, k=3, schedule="exhaustive"))
    thresholds = distance_thresholds(problem)
    assert sorts == [instance]
    swept = _thresholds(problem)
    assert swept is _thresholds(problem) and not swept.flags.writeable
    assert swept.tolist() == [0.0] + thresholds


def test_chain_solvers_report_the_exact_linear_sum():
    # classic_greedy and random_baseline read g from the state that grew their chain: on a
    # linear utility it is evaluate(selected) and the weights' math.fsum, bit for bit
    rng = np.random.default_rng(43)
    for _ in range(40):
        n = int(rng.integers(2, 16))
        w = rng.uniform(0.0, 1.0, n) ** rng.integers(1, 30, n)  # many binades
        util = LinearUtility(w)
        problem = Problem(random_metric_instance(rng, n, "euclidean"), util, lam=0.0, k=n)
        for sol in (classic_greedy(problem), random_baseline(problem, seed=int(rng.integers(100)))):
            expected = math.fsum(w[list(sol.selected)].tolist()).hex()
            assert sol.g_value.hex() == util.evaluate(sol.selected).hex() == expected, sol


def test_gist_builds_one_sweep_state_and_the_pairs(monkeypatch):
    # every sweep path carries its own state, a branch a copy of its parent's: one gist
    # call builds the root's state and, for its g, the diametrical pair's, and no other.
    # Both count into the call's one run, whose count is the call's oracle_calls
    rng = np.random.default_rng(17)
    points, weights = rng.standard_normal((40, 2)), rng.uniform(0, 1, 40)
    family = [rng.choice(30, size=int(rng.integers(1, 8)), replace=False).tolist() for _ in range(40)]
    instance = Instance.from_euclidean(points)
    built = []
    for utility, state_class in ((CoverageUtility(family), utilities._CoverageGains),
                                 (BudgetAdditiveUtility(weights, 0.95, 0.75, 8), utilities._BudgetGains)):
        def counted_init(self, utility, base=(), run=None, init=state_class.__init__):
            built.append((tuple(base), run))
            init(self, utility, base, run)

        # on the class itself: a subclass would not read the kind's _bounded
        monkeypatch.setattr(state_class, "__init__", counted_init)
        for schedule in ("geometric", "exhaustive"):
            built.clear()
            sol = gist(Problem(instance, utility, lam=0.05, k=8, schedule=schedule))
            (root, run), (pair, pair_run) = built
            assert [root, pair] == [(), instance.diametrical_pair()], (utility.kind, schedule)
            assert type(run) is _Run and pair_run is run, (utility.kind, schedule)
            assert run.count == sol.oracle_calls > 0, (utility.kind, schedule)


def test_greedy_independent_set_reads_no_g(monkeypatch):
    # it returns the selection alone, so it asks no kind's state for g
    read = []
    monkeypatch.setattr(_GainState, "value", lambda self: read.append(type(self)))
    rng = np.random.default_rng(29)
    for n in (1, 6):
        instance = random_metric_instance(rng, n, "euclidean")
        for kind, utility in every_kind(rng, n, 3).items():
            for d in (0.0, instance.d_max / 3):
                greedy_independent_set(instance, utility, d, 3)
                assert read == [], kind


def test_only_gain_states_count_queries(monkeypatch):
    # every query is counted by a gain state's gains, pick or value: never by a solver or a
    # public entry.  A solver call's states count into its run, which adds its total to the
    # utility's counter once, when the call ends; a public entry's state adds its count to the
    # utility's counter itself, once per call
    callers, totals = [], []

    def traced(add, log):
        def traced_add(self, amount=1):
            frame = sys._getframe(1)
            log.append((type(frame.f_locals.get("self")), frame.f_code.co_name))
            add(self, amount)
        return traced_add

    monkeypatch.setattr(_Run, "add", traced(_Run.add, callers))
    monkeypatch.setattr(QueryCounter, "add", traced(QueryCounter.add, totals))

    def adds(call, *args):
        """The adds to the utility's counter that ``call(*args)`` makes."""
        start = len(totals)
        call(*args)
        return totals[start:]

    rng = np.random.default_rng(31)
    for n, k in ((1, 1), (2, 2), (7, 3)):
        instance = random_metric_instance(rng, n, "euclidean")
        for kind, utility in every_kind(rng, n, k).items():
            for schedule in SCHEDULES:
                problem = Problem(instance, utility, lam=0.3, k=k, epsilon=0.2, schedule=schedule)
                for _, run in ALGORITHM_RUNS:
                    assert adds(run, problem) == [(_Run, "end")], kind
            assert adds(greedy_independent_set, instance, utility, instance.d_max / 3, k) == [(_Run, "end")]
            for call, args, name in ((utility.evaluate, ([n - 1],), "value"),
                                     (utility.marginal, (0, range(1, n)), "gains"),
                                     (utility.batch_marginal, (range(n - 1), [n - 1]), "gains")):
                (state, counted_by), = adds(call, *args)
                assert issubclass(state, _GainState) and counted_by == name, kind
    assert callers
    assert {(c, name) for c, name in callers
            if not (issubclass(c, _GainState) and name in ("gains", "pick", "value"))} == set()


def test_branch_bound_past_the_float_range_is_inf():
    # the gains of a branch's parent sum past the float range; the bound is then inf and
    # skips nothing, where math.fsum alone raises OverflowError
    rng = np.random.default_rng(61)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(200):
            n = int(rng.integers(3, 9))
            inst = Instance.from_euclidean(rng.standard_normal((n, 2)))
            util = LinearUtility(rng.uniform(0.5e308, 1e308, n))
            k = int(rng.integers(1, n + 1))
            for schedule in SCHEDULES:
                sol = gist(Problem(inst, util, lam=1.0, k=k, schedule=schedule))
                assert isinstance(sol, Solution) and len(sol.selected) <= k


def test_solvers_on_either_schedule_read_cosine_rows_without_the_dense_matrix(monkeypatch):
    # the exhaustive schedule sorts the pair distances of the held Gram rows too
    rng = np.random.default_rng(4)
    points, weights = rng.standard_normal((300, 16)), rng.uniform(0.0, 1.0, 300)

    def problem(schedule):
        inst = Instance.from_cosine(points)
        return Problem(inst, LinearUtility(weights), lam=0.3, k=8, schedule=schedule)

    expected = {(name, s): solve(problem(s)) for s in SCHEDULES for name, solve in ALGORITHM_RUNS}

    def refuse(self):
        raise AssertionError("dense distance matrix built")

    monkeypatch.setattr(Instance, "distance_matrix", refuse)
    for s in SCHEDULES:
        for name, solve in ALGORITHM_RUNS:
            assert solve(problem(s)) == expected[name, s], (name, s)


def test_threads_share_one_cosine_instance():
    # threads on both schedules read the one store of Gram rows that the first of them
    # builds; each returns its solo output
    rng = np.random.default_rng(0)
    points, weights = rng.standard_normal((300, 16)), rng.uniform(0.0, 1.0, 300)

    def problems(inst):  # one utility, shared as the instance is
        utility = LinearUtility(weights)
        return [Problem(inst, utility, lam=0.3, k=8, schedule=s) for s in SCHEDULES * 2]

    solo = [gist(p) for p in problems(Instance.from_cosine(points))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            shared = problems(Instance.from_cosine(points))
            got, start = [None] * len(shared), threading.Barrier(len(shared))

            def run(i):
                start.wait(timeout=60)
                got[i] = gist(shared[i])

            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(shared))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert got == solo
    finally:
        sys.setswitchinterval(interval)


def test_threads_sharing_one_utility_each_count_their_own_queries():
    # every cli.SOLVERS entry, greedy_independent_set and evaluate run in threads that share
    # one instance and one utility: each returns its solo output, oracle_calls included, and
    # the utility's count rises by exactly the sum of the solo counts
    rng = np.random.default_rng(53)
    n, k = 90, 9
    instance = Instance.from_euclidean(rng.standard_normal((n, 3)))
    family = [rng.choice(40, size=int(rng.integers(1, 8)), replace=False).tolist() for _ in range(n)]
    for utility in (BudgetAdditiveUtility(rng.uniform(0, 1, n), 0.95, 0.75, k), CoverageUtility(family)):
        problem = Problem(instance, utility, lam=0.5, k=k)
        calls = [lambda run=run: run(problem, 3) for run in SOLVERS.values()]
        calls += [lambda: greedy_independent_set(instance, utility, instance.d_max / 4, k),
                  lambda: utility.evaluate(range(0, n, 7))]
        solo = [counted(utility, call) for call in calls]
        for result, queries in solo:
            assert not isinstance(result, Solution) or result.oracle_calls == queries, utility.kind
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                got, start, before = [None] * len(calls), threading.Barrier(len(calls)), utility.query_count

                def run_call(i):
                    start.wait(timeout=60)
                    got[i] = calls[i]()

                threads = [threading.Thread(target=run_call, args=(i,)) for i in range(len(calls))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
                assert got == [result for result, _ in solo], utility.kind
                assert utility.query_count - before == sum(queries for _, queries in solo), utility.kind
        finally:
            sys.setswitchinterval(interval)
