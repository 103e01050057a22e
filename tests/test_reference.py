"""The solvers against the literal reference in ``reference.py``:
selections, f/g/div and the winning threshold must match exactly, on random
and degenerate inputs, and so must the exact solvers' optimum, witness,
subset count, feasibility and queries.  Every greedy run must count one
query per candidate it scores, and gist one per candidate at each distinct
prefix of its runs; an exact linear or constant-zero utility only one per
point in all (a subclass of one counts like any other utility).
The cosine matrix, the diameter and the diametrical pair must match the
reference's bit for bit."""

import math
from dataclasses import astuple

import numpy as np
import pytest

import reference
from divsel import (
    ConstantZeroUtility,
    Instance,
    LinearUtility,
    MarginSimilarityUtility,
    Problem,
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
from support import counted, make_utility, random_metric_instance, sparse_coverage_utility


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
            assert outcome(classic_greedy(problem)) == reference.classic_greedy(problem), label


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
        assert gist(problem).oracle_calls == reference.gist_queries(problem), label


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


def cosine_points(rng, n, dim, kind):
    """Gaussian rows with duplicates and antipodes, or axis-aligned rows of
    varied length and sign, which tie many pairs at exactly 2."""
    if kind == "ties":
        p = np.zeros((n, dim))
        p[np.arange(n), rng.integers(0, dim, n)] = rng.choice([-3.0, -1.0, 0.5, 2.0], n)
        return p
    p = rng.standard_normal((n, dim))
    p[1::4] = p[0::4][: len(p[1::4])]
    p[2::4] = -2.0 * p[0::4][: len(p[2::4])]
    return p


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


def signed_zero_matrix(rng, n):
    """Distances from {-0.0, +0.0, 1, 2} with a +0.0 diagonal: both zeros
    off the diagonal, so a dedup may keep either sign."""
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
            # np.unique's choice between -0.0 and +0.0 depends on its input's order
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


def hexed(instance, outcome):
    """The selection and float.hex of f, g, div and the threshold.  A zero div
    is compared by value alone when the selection holds pairs at both -0.0 and
    +0.0: the sweep's running minimum and the reference's first minimum over
    pairs may then keep different signs."""
    selected, f, g, d, threshold = outcome
    pairs = instance.distance_matrix()[np.ix_(selected, selected)][np.triu_indices(len(selected), 1)]
    signs = set(np.signbit(pairs[pairs == 0.0]).tolist())
    d = d.hex() if d != 0.0 or len(signs) < 2 else d
    return selected, f.hex(), g.hex(), d, None if threshold is None else threshold.hex()


@pytest.mark.parametrize("kind", ["signed-zeros", "duplicate-points"])
def test_zero_thresholds_match_literal_reference(kind):
    # every point, the pick included, is at distance >= a floor <= 0 from the
    # pick, so the sweep must leave the pick out by position at such a floor
    inst = zero_distance_instance(kind)
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
                assert hexed(inst, outcome(sol)) == hexed(inst, reference.gist(problem)), label
                assert sol.oracle_calls == reference.gist_queries(problem), label
            for d in (0.0, -0.0):
                expected, queries = reference.greedy(problem, d)
                before = util.query_count
                assert greedy_independent_set(inst, util, d, k) == expected, (label, d)
                assert util.query_count - before == queries, (label, d)
