"""The solvers against the literal reference in ``reference.py``:
selections, f/g/div and the winning threshold must match exactly, on random
and degenerate inputs, and so must the exact solvers' optimum, witness,
subset count, feasibility and queries.  Every greedy run must count one
query per candidate it scores, and gist one per candidate at each distinct
prefix of its runs; an exact linear or constant-zero utility only one per
point in all (a subclass of one counts like any other utility).
The cosine matrix, the diameter and the diametrical pair must match the
reference's bit for bit."""

import itertools
import math
from dataclasses import astuple

import numpy as np
import pytest

import reference
from divsel import (
    BudgetAdditiveUtility,
    ConstantZeroUtility,
    Instance,
    LinearUtility,
    MarginSimilarityUtility,
    Problem,
    TabulatedUtility,
    UtilityOracle,
    brute_force_constrained,
    brute_force_opt,
    classic_greedy,
    distance_thresholds,
    gist,
    greedy_independent_set,
    random_baseline,
    simple_baseline,
)
from divsel.core import _thresholds
from support import (cosine_points, counted, make_utility, random_metric_instance,
                     sparse_coverage_utility)


def cosine_instance(rng, n):
    # every odd point nearly antipodal to the even point before it
    points = rng.standard_normal((n, 3))
    points[1::2] = -points[0::2][: n // 2] + 1e-9 * rng.standard_normal((n // 2, 3))
    return Instance.from_cosine(points)


INSTANCES = {
    "euclidean": lambda rng, n: random_metric_instance(rng, n, "euclidean"),
    "box": lambda rng, n: random_metric_instance(rng, n, "box"),
    "shortest-path": lambda rng, n: random_metric_instance(rng, n, "shortest-path"),
    "duplicates": lambda rng, n: Instance.from_euclidean(rng.integers(0, 2, size=(n, 2))),
    "all-equal": lambda rng, n: Instance.from_matrix(np.ones((n, n)) - np.eye(n)),
    "cosine": cosine_instance,
}


def margin_similarity(rng, n, dense):
    sim = np.triu(rng.uniform(-1.0, 1.0, (n, n)), 1)
    uncertainty = rng.uniform(0.0, 2.0, n)
    if dense:
        return MarginSimilarityUtility(uncertainty, similarity=sim + sim.T)
    edges = [(i, j, sim[i, j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    return MarginSimilarityUtility(uncertainty, edges=edges)


class SubclassedLinear(LinearUtility):
    """A linear utility by subclass: the solvers may not assume its gains are fixed."""


class SqrtWeights(UtilityOracle):
    """sqrt of a weight sum, a concave function of a modular one.  It defines only
    ``_value``, so the solvers reach it through the default value-difference gains."""

    kind = "sqrt_weights"

    def __init__(self, weights):
        super().__init__(len(weights), monotone_declared=True, submodular_declared=True)
        self.weights = weights

    def _value(self, s):
        return math.sqrt(float(self.weights[list(s)].sum()))


UTILITIES = {
    "coverage": lambda rng, n, k: make_utility("coverage", rng, n, k),
    "budget": lambda rng, n, k: make_utility("budget", rng, n, k),
    "linear": lambda rng, n, k: make_utility("linear", rng, n, k),
    "tied-integers": lambda rng, n, k: LinearUtility(rng.integers(0, 3, n).astype(float)),
    "zero": lambda rng, n, k: ConstantZeroUtility(n),
    "margin-dense": lambda rng, n, k: margin_similarity(rng, n, dense=True),
    "margin-edges": lambda rng, n, k: margin_similarity(rng, n, dense=False),
    "sparse-coverage": lambda rng, n, k: sparse_coverage_utility(rng, n),
    "linear-subclass": lambda rng, n, k: SubclassedLinear(rng.uniform(0.0, 1.0, n)),
    "value-only": lambda rng, n, k: SqrtWeights(rng.uniform(0.0, 1.0, n)),
}


def problems(instance_kind):
    """Every utility kind x n in {1, 3, 6, 8}, k cycling over {1, n, random},
    lam over {0, 0.3, 2}, and both schedules."""
    for u, utility_kind in enumerate(UTILITIES):
        for n in (1, 3, 6, 8):
            cell = 4 * u + n
            rng = np.random.default_rng(100 * list(INSTANCES).index(instance_kind) + cell)
            instance = INSTANCES[instance_kind](rng, n)
            k = (1, n, int(rng.integers(1, n + 1)))[cell % 3]
            utility = UTILITIES[utility_kind](rng, n, k)
            lam = (0.0, 0.3, 2.0)[(cell // 3) % 3]
            for schedule in ("geometric", "exhaustive"):
                problem = Problem(instance, utility, lam=lam, k=k, epsilon=0.2,
                                  schedule=schedule)
                yield problem, f"{instance_kind}-{utility_kind}-n{n}-k{k}-lam{lam}-{schedule}"


def outcome(sol):
    return sol.selected, sol.f_value, sol.g_value, sol.div_value, sol.winning_threshold


@pytest.mark.parametrize("instance_kind", sorted(INSTANCES))
def test_gist_and_simple_baseline_match_literal_reference(instance_kind):
    for problem, label in problems(instance_kind):
        assert outcome(gist(problem)) == reference.gist(problem), label
        assert outcome(simple_baseline(problem)) == reference.simple_baseline(problem), label


@pytest.mark.parametrize("instance_kind", sorted(INSTANCES))
def test_classic_greedy_matches_literal_reference(instance_kind):
    for problem, label in problems(instance_kind):
        if problem.schedule == "geometric":  # classic greedy has no schedule
            sol = classic_greedy(problem)
            expected = counted(problem.utility, lambda: reference.classic_greedy(problem))
            assert (outcome(sol), sol.oracle_calls) == expected, label


@pytest.mark.parametrize("instance_kind", sorted(INSTANCES))
def test_greedy_counts_one_query_per_scored_candidate(instance_kind):
    for problem, label in problems(instance_kind):
        inst, util = problem.instance, problem.utility
        for d in [0.0] + distance_thresholds(problem):
            expected, queries = reference.greedy(problem, d)
            before = util.query_count
            assert greedy_independent_set(inst, util, d, problem.k) == expected, (label, d)
            assert util.query_count - before == queries, (label, d)


@pytest.mark.parametrize("instance_kind", sorted(INSTANCES))
def test_random_baseline_matches_literal_reference(instance_kind):
    for problem, label in problems(instance_kind):
        if problem.schedule == "geometric":  # the random baseline has no schedule
            for seed in (0, 7):
                sol = random_baseline(problem, seed)
                before = problem.utility.query_count
                expected = reference.random_baseline(problem, seed)
                queries = problem.utility.query_count - before
                assert (outcome(sol), sol.seed, sol.oracle_calls) == (expected, seed, queries), label


@pytest.mark.parametrize("instance_kind", sorted(INSTANCES))
def test_gist_counts_gains_once_per_distinct_prefix(instance_kind):
    for problem, label in problems(instance_kind):
        calls = gist(problem).oracle_calls
        assert calls == reference.gist_queries(problem), label
        assert calls <= reference.gist_queries_unpruned(problem), label


def exact(value, witness, examined, feasible):
    return None if value is None else value.hex(), witness, examined, feasible


@pytest.mark.parametrize("instance_kind", sorted(INSTANCES))
def test_exact_solvers_match_literal_reference(instance_kind):
    for problem, label in problems(instance_kind):
        if problem.schedule == "exhaustive":  # the exact solvers have no schedule
            continue
        inst, util = problem.instance, problem.utility
        got, queries = counted(util, lambda: astuple(brute_force_opt(problem)))
        expected, expected_queries = counted(util, lambda: reference.brute_force(problem))
        assert (exact(*got), queries) == (exact(*expected), expected_queries), label
        pairs = sorted(inst.distance_matrix()[np.triu_indices(inst.n, 1)].tolist())
        for d in (0.0, pairs[len(pairs) // 2] if pairs else 0.0, inst.d_max, inst.d_max + 1.0):
            got, queries = counted(
                util, lambda: astuple(brute_force_constrained(inst, util, d, problem.k)))
            expected, expected_queries = counted(
                util, lambda: reference.brute_force_constrained(problem, d))
            assert (exact(*got), queries) == (exact(*expected), expected_queries), (label, d)


@pytest.mark.parametrize("kind", ["gaussian", "ties"])
@pytest.mark.parametrize("dim", [1, 64])
@pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 600])
def test_cosine_matrix_and_diameter_match_literal_reference(n, dim, kind):
    points = cosine_points(np.random.default_rng(10 * n + dim), n, dim, kind)
    inst = Instance.from_cosine(points)
    expected = reference.cosine_distance_matrix(points)
    assert inst.distance_matrix().tobytes() == expected.tobytes()
    d_max, pair = reference.diameter(expected)
    assert inst.d_max.hex() == d_max.hex()
    if n >= 2:
        assert inst.diametrical_pair() == pair
    if n >= 255 and kind == "ties":
        assert np.count_nonzero(expected == d_max) >= 4  # two or more pairs tie at d_max


@pytest.mark.parametrize("dense_first", [False, True])
@pytest.mark.parametrize("kind", ["gaussian", "ties"])
@pytest.mark.parametrize("dim", [1, 64])
@pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 600])
def test_cosine_rows_match_literal_reference_in_either_build_order(n, dim, kind, dense_first):
    # the rows the solvers read, made from the Gram matrix whether or not a dense matrix was
    # asked for first; the dense matrix, made anew from the points, matches too
    points = cosine_points(np.random.default_rng(10 * n + dim), n, dim, kind)
    inst = Instance.from_cosine(points)
    expected = reference.cosine_distance_matrix(points)
    if dense_first:
        inst.distance_matrix()
    rows = inst._rows()
    dense = inst.distance_matrix()  # made anew: rows stays the held store
    assert all(rows[t].tobytes() == expected[t].tobytes() for t in range(n))
    assert dense.tobytes() == expected.tobytes()
    assert (inst.d_max, inst.diametrical_pair() if n >= 2 else None) == reference.diameter(expected)


def signed_zero_matrix(rng, n):
    """Distances from {-0.0, +0.0, 1, 2} with a +0.0 diagonal: both zeros
    off the diagonal, which an instance stores as +0.0."""
    m = np.triu(rng.choice([-0.0, 0.0, 0.0, 1.0, 2.0], (n, n)), 1)
    m = np.where(np.tri(n, k=-1, dtype=bool), m.T, m)
    np.fill_diagonal(m, 0.0)
    return m


def test_exhaustive_thresholds_match_unique_half_pairs():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        duplicates = rng.integers(0, 3, (n, 2)).astype(float)
        duplicates[1] = duplicates[0]
        for inst in (Instance.from_matrix(signed_zero_matrix(rng, n)),
                     Instance.from_euclidean(duplicates), cosine_instance(rng, n)):
            problem = Problem(inst, ConstantZeroUtility(n), lam=1.0, k=1, schedule="exhaustive")
            pairs = np.sort(inst.distance_matrix()[np.triu_indices(n, 1)])
            expected = np.unique(pairs) / 2.0 if inst.d_max > 0 else np.empty(0)
            got = np.array(distance_thresholds(problem))
            assert got.tobytes() == expected.tobytes(), (seed, inst.metric)


def zero_distance_instance(kind):
    """A matrix with -0.0 and +0.0 off the diagonal, or Euclidean points with
    duplicates: either way the exhaustive schedule starts at a zero threshold."""
    if kind == "signed-zeros":
        m = np.array([[0.0, -0.0, 2.0, 1.0, 2.0, 1.0],
                      [-0.0, 0.0, 1.0, 2.0, 1.0, 2.0],
                      [2.0, 1.0, 0.0, 0.0, 2.0, 1.0],
                      [1.0, 2.0, 0.0, 0.0, 1.0, 2.0],
                      [2.0, 1.0, 2.0, 1.0, 0.0, 1.0],
                      [1.0, 2.0, 1.0, 2.0, 1.0, 0.0]])
        return Instance.from_matrix(m)
    return Instance.from_euclidean([[0, 0], [0, 0], [1, 0], [1, 0], [0, 2], [3, 1], [0, 2]])


def hexed(outcome):
    """The selection and float.hex of f, g, div and the threshold."""
    selected, f, g, d, threshold = outcome
    return selected, f.hex(), g.hex(), d.hex(), None if threshold is None else threshold.hex()


@pytest.mark.parametrize("kind", ["signed-zeros", "duplicate-points"])
def test_zero_thresholds_match_literal_reference(kind):
    # every point, the pick included, is at distance >= a floor <= 0 from the
    # pick, so the sweep must leave the pick out by position at such a floor
    inst = zero_distance_instance(kind)
    distances = (0.0, 1.0, 2.0) if kind == "signed-zeros" else (0.0, 1.0, 2.0, math.sqrt(5), math.sqrt(10))
    swept = [0.0] + sorted({d / 2 for d in distances})  # 0.0 twice: the d = 0 run, then the zero pairs
    problem = Problem(inst, ConstantZeroUtility(inst.n), lam=1.0, k=2, schedule="exhaustive")
    assert list(map(float.hex, _thresholds(problem).tolist())) == list(map(float.hex, swept))
    for u, utility_kind in enumerate(("linear", "budget", "coverage", "zero", "value-only")):
        for k in (2, 4, inst.n):
            rng = np.random.default_rng(10 * u + k)
            util = UTILITIES[utility_kind](rng, inst.n, k)
            for lam, schedule in ((0.0, "exhaustive"), (0.5, "exhaustive"), (0.5, "geometric")):
                problem = Problem(inst, util, lam=lam, k=k, epsilon=0.2, schedule=schedule)
                if schedule == "exhaustive":
                    assert distance_thresholds(problem)[0] == 0.0
                sol = gist(problem)
                label = (kind, utility_kind, k, lam, schedule)
                assert hexed(outcome(sol)) == hexed(reference.gist(problem)), label
                assert sol.oracle_calls == reference.gist_queries(problem), label
                assert sol.oracle_calls <= reference.gist_queries_unpruned(problem), label
            for d in (0.0, -0.0):
                expected, queries = reference.greedy(problem, d)
                before = util.query_count
                assert greedy_independent_set(inst, util, d, k) == expected, (label, d)
                assert util.query_count - before == queries, (label, d)


def lowdim_problems(utility_of, lams=(0.0, 0.05, 0.5)):
    """Problems like the low-dimensional benchmark family, where the sweep skips
    many runs: n = 9 Gaussian points in the plane, k = 4, both schedules."""
    for seed in range(6):
        rng = np.random.default_rng(900 + seed)
        inst = Instance.from_euclidean(rng.standard_normal((9, 2)))
        util = utility_of(rng, 9)
        for lam in lams:
            for schedule in ("geometric", "exhaustive"):
                problem = Problem(inst, util, lam=lam, k=4, epsilon=0.2, schedule=schedule)
                yield problem, (seed, lam, schedule)


def test_tied_runs_are_never_skipped():
    # every run has the same f, so later-wins reports the last threshold's run
    # and the sweep may skip none of them
    def capped(rng, n):  # each point alone reaches the cap: every nonempty run scores alpha*beta
        return BudgetAdditiveUtility(rng.uniform(0.5, 1.0, n), alpha=0.9, beta=0.1, k=4)

    for utility_of in (lambda rng, n: ConstantZeroUtility(n), capped):
        for problem, label in lowdim_problems(utility_of, lams=(0.0,)):
            sol = gist(problem)
            expected = reference.gist(problem)
            assert outcome(sol) == expected, label
            assert sol.winning_threshold == expected[4] == distance_thresholds(problem)[-1], label
            assert sol.oracle_calls == reference.gist_queries(problem), label
            assert sol.oracle_calls == reference.gist_queries_unpruned(problem), label


@pytest.mark.parametrize("kind", ["linear", "budget"])
def test_many_binade_weights_match_literal_reference(kind):
    # weights u**p with p up to 29 spread the running sums and gains over many
    # binades, where rounding could push a bound across the best f
    for seed in range(8):
        rng = np.random.default_rng(950 + seed)
        n = int(rng.integers(6, 11))
        weights = rng.uniform(0.0, 1.0, n) ** rng.integers(1, 30, n)
        k = int(rng.integers(2, n + 1))
        util = (LinearUtility(weights) if kind == "linear"
                else BudgetAdditiveUtility(weights, alpha=0.95, beta=0.75, k=k))
        inst = Instance.from_euclidean(rng.standard_normal((n, 2)))
        for lam in (0.0, 0.5):
            for schedule in ("geometric", "exhaustive"):
                problem = Problem(inst, util, lam=lam, k=k, epsilon=0.2, schedule=schedule)
                sol = gist(problem)
                label = (kind, seed, lam, schedule)
                assert hexed(outcome(sol)) == hexed(reference.gist(problem)), label
                assert sol.oracle_calls == reference.gist_queries(problem), label


def negative_similarities(rng, n):
    """Symmetric similarities in (-1, 0] with a zero diagonal: a supermodular g."""
    sim = np.triu(rng.uniform(-1.0, 0.0, (n, n)), 1)
    return sim + sim.T


def supermodular_table(rng, n):
    """A tabulated g, declared monotone and submodular, that is neither: the
    square of a weight sum, less 0.4 per point."""
    weights = rng.uniform(0.0, 1.0, n)
    return TabulatedUtility.from_function(
        n, lambda s: float(weights[list(s)].sum()) ** 2 - 0.4 * len(s),
        monotone_declared=True, submodular_declared=True)


@pytest.mark.parametrize("kind", ["margin-negative", "tabulated-liar", "linear-subclass"])
def test_kinds_outside_the_bound_never_skip(kind):
    # the bound holds only for kinds submodular and monotone by construction;
    # these declare submodularity (or subclass a kind that has it) and skip nothing
    utility_of = {
        "margin-negative": lambda rng, n: MarginSimilarityUtility(
            rng.uniform(0.0, 2.0, n), similarity=negative_similarities(rng, n), beta_s=0.5),
        "tabulated-liar": supermodular_table,
        "linear-subclass": lambda rng, n: SubclassedLinear(rng.uniform(0.0, 1.0, n)),
    }[kind]
    for problem, label in lowdim_problems(utility_of):
        sol = gist(problem)
        assert outcome(sol) == reference.gist(problem), label
        assert sol.oracle_calls == reference.gist_queries_unpruned(problem), label
        if kind == "linear-subclass":  # the same weights as an exact linear utility do skip
            exact = Problem(problem.instance, LinearUtility(problem.utility.weights),
                            lam=problem.lam, k=problem.k, epsilon=0.2, schedule=problem.schedule)
            calls = gist(exact).oracle_calls
            assert calls == reference.gist_queries(exact) < reference.gist_queries_unpruned(exact), label


def walk_utilities():
    """Budget-additive and fixed-gain utilities over 15 points whose fixed-order picks must
    fall back to the gain vector, or pick the lowest index, to keep their picks."""
    n = 15
    heavy = [1.0 - j * 2.0**-10 for j in range(10)]  # a running total near 10 after ten picks
    ulp = heavy + [0.5, 0.5 + 2.0**-50, 0.5 + 2.0**-51, 0.5, 0.25]  # a lower index ties
    tied = [(0.25, 0.5, 0.75)[v % 3] for v in range(n)]
    spread = [(v * 7 % n) / n for v in range(n)]
    signed = [(-0.0, 0.0, 0.5, 0.0, -0.0, 1.0)[v % 6] for v in range(n)]
    return {
        "below-one-ulp": BudgetAdditiveUtility(ulp, alpha=0.9, beta=1.0, k=40),
        "tied-weights": BudgetAdditiveUtility(tied, alpha=0.9, beta=0.6, k=6),
        "alpha-zero": BudgetAdditiveUtility(spread, alpha=0.0, beta=0.5, k=4),
        "beta-zero": BudgetAdditiveUtility(spread, alpha=0.9, beta=0.0, k=4),
        "signed-zero-parameters": BudgetAdditiveUtility(spread, alpha=-0.0, beta=-0.0, k=4),
        "straddle-then-cap": BudgetAdditiveUtility(spread, alpha=0.95, beta=0.3, k=6),
        "linear-signed-zeros": LinearUtility(signed),
        "zero": ConstantZeroUtility(n),
    }


@pytest.mark.parametrize("side", [3, 6])
def test_fixed_order_picks_match_literal_reference(side):
    # gist (both schedules), simple_baseline and greedy_independent_set against the
    # reference where a pick walks a fixed order of the points: gains equal within an ulp
    # of the running total, equal weights, alpha or beta 0, a cap the candidates straddle
    # and then reach, +-0.0 linear weights and the zero utility; on a grid of side 3 or 6,
    # with duplicate points and few distinct distances, so exhaustive schedules stay short
    inst = Instance.from_euclidean(np.random.default_rng(77).integers(0, side, (15, 2)))
    for name, util in walk_utilities().items():
        for k, lam in ((4, 0.5), (13, 0.0)):
            for schedule in ("geometric", "exhaustive"):
                problem = Problem(inst, util, lam=lam, k=k, epsilon=0.2, schedule=schedule)
                label = (side, name, k, lam, schedule)
                sol = gist(problem)
                assert hexed(outcome(sol)) == hexed(reference.gist(problem)), label
                assert sol.oracle_calls == reference.gist_queries(problem), label
            sol = simple_baseline(problem)
            greedy_queries = reference.greedy(problem, 0.0)[1]
            assert hexed(outcome(sol)) == hexed(reference.simple_baseline(problem)), label
            assert sol.oracle_calls == greedy_queries + 1 + (k >= 2), label
            for d in [0.0] + distance_thresholds(problem)[::7]:
                expected, queries = reference.greedy(problem, d)
                got, calls = counted(util, lambda: greedy_independent_set(inst, util, d, k))
                assert (got, calls) == (expected, queries), (label, d)


def tied_pair_problems(b_at):
    """Ten heavy points 10 apart on a line (weights 1 - j / 1024), then b (index 10, weight
    0.5) at ``b_at``, t (index 11, 2**-51 heavier) at 200 and a light point at 300.  After the
    ten heavy picks, t is first on the fixed order and b next, and their gains tie: 2**-51 is a
    quarter ulp of the running total.  Free (beta 1) and capped from the first pick (beta 0.1)
    budget-additive utilities, with k = 11 (the tie decides the last pick) and k = 13."""
    weights = [1.0 - j * 2.0**-10 for j in range(10)] + [0.5, 0.5 + 2.0**-51, 0.25]
    inst = Instance.from_euclidean([[10.0 * j] for j in range(10)] + [[b_at], [200.0], [300.0]])
    for regime, beta, k_cap in (("free", 1.0, 40), ("capped", 0.1, 4)):
        util = BudgetAdditiveUtility(weights, alpha=0.9, beta=beta, k=k_cap)
        if regime == "free":
            state = util._gain_state(range(10))
            assert util._order[10:12].tolist() == [11, 10] and state._gain(11) == state._gain(10)
        for k in (11, 13):
            for schedule in ("geometric", "exhaustive"):
                yield Problem(inst, util, lam=0.0, k=k, epsilon=0.2, schedule=schedule), (regime, k, schedule)


@pytest.mark.parametrize("b_at", [0.5, 150.0, 0.0])
def test_budget_pick_exits_match_literal_reference(b_at):
    # b at 0.5 is no candidate at floor 5 when t is picked, so t wins after one walk past b
    # to the light point; at 150 b is a candidate of lower index tying t, which the gain
    # vector must pick; at 0.0 b duplicates point 0: the exhaustive schedule repeats the zero
    # floor, where b (at +0.0 from the selection) stays a candidate.  Each greedy prefix at
    # floors 0.0, -0.0 and 5 checks the picks and one step's queries at a time.
    for problem, label in tied_pair_problems(b_at):
        inst, util, k = problem.instance, problem.utility, problem.k
        if b_at == 0.0 and problem.schedule == "exhaustive":
            assert distance_thresholds(problem)[0] == 0.0, label
        sol = gist(problem)
        assert hexed(outcome(sol)) == hexed(reference.gist(problem)), label
        assert sol.oracle_calls == reference.gist_queries(problem), label
        sol = simple_baseline(problem)
        assert hexed(outcome(sol)) == hexed(reference.simple_baseline(problem)), label
        if problem.schedule == "geometric":
            for d, size in itertools.product((0.0, -0.0, 5.0), range(1, k + 1)):
                prefix = Problem(inst, util, lam=0.0, k=size)
                got = counted(util, lambda: greedy_independent_set(inst, util, d, size))
                assert got == reference.greedy(prefix, d), (label, d, size)
