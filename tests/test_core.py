import math
import tracemalloc

import numpy as np
import pytest

from divsel import (
    ConstantZeroUtility,
    InputError,
    Instance,
    LinearUtility,
    Problem,
    distance_thresholds,
    div,
    gen_greedy_hard,
    gen_nonsubmodular_example,
    greedy_independent_set,
    objective,
)
from divsel.core import DENSE_MAX_BYTES, _mirror_upper
from support import METRIC_STYLES, random_metric_instance


def collinear_instance():
    return Instance.from_euclidean([[0.0], [1.0], [2.0]])


def zero_problem(instance, lam=1.0, k=2, epsilon=0.1, schedule="geometric"):
    return Problem(instance, ConstantZeroUtility(instance.n), lam, k, epsilon, schedule)


# ---------------------------------------------------------------------------
# Instance construction and validation
# ---------------------------------------------------------------------------


def test_matrix_instance_validation_rejects_bad_matrices():
    with pytest.raises(InputError):
        Instance.from_matrix([[0.0, 1.0], [2.0, 0.0]])  # asymmetric
    with pytest.raises(InputError):
        Instance.from_matrix([[0.0, -1.0], [-1.0, 0.0]])  # negative
    with pytest.raises(InputError):
        Instance.from_matrix([[1.0, 1.0], [1.0, 0.0]])  # nonzero diagonal
    with pytest.raises(InputError):
        Instance.from_matrix([[0.0, 1.0, 1.0], [1.0, 0.0]])  # ragged


def test_triangle_validation_is_opt_in():
    # 3 > 1 + 1 violates the triangle inequality
    bad = [[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]]
    Instance.from_matrix(bad)  # accepted without the flag
    with pytest.raises(InputError, match="triangle"):
        Instance.from_matrix(bad, validate_triangle=True)


def test_triangle_validation_size_gate():
    n = 600
    m = np.zeros((n, n))
    with pytest.raises(InputError, match="512"):
        Instance.from_matrix(m, validate_triangle=True)


def test_euclidean_distances_are_exactly_symmetric():
    rng = np.random.default_rng(7)
    inst = Instance.from_euclidean(rng.standard_normal((40, 5)))
    m = inst.distance_matrix()
    assert (m == m.T).all()
    assert (np.diagonal(m) == 0).all()
    assert (m >= 0).all()


def test_cosine_distances():
    inst = Instance.from_cosine([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    assert inst.dist(0, 1) == 2.0  # antipodal
    assert inst.dist(0, 2) == 1.0  # orthogonal
    m = inst.distance_matrix()
    assert (m == m.T).all() and (m >= 0).all()


def test_cosine_normalizes_rows():
    inst = Instance.from_cosine([[3.0, 0.0], [0.0, 0.5]])
    assert inst.max_unit_deviation == 2.0
    assert inst.dist(0, 1) == 1.0
    with pytest.raises(InputError):
        Instance.from_cosine([[0.0, 0.0], [1.0, 0.0]])


def test_diametrical_pair_is_lexicographically_smallest():
    m = np.array(
        [
            [0.0, 2.0, 1.0, 2.0],
            [2.0, 0.0, 1.0, 1.0],
            [1.0, 1.0, 0.0, 2.0],
            [2.0, 1.0, 2.0, 0.0],
        ]
    )
    inst = Instance.from_matrix(m)
    assert inst.d_max == 2.0
    assert inst.diametrical_pair() == (0, 1)
    duplicates = Instance.from_euclidean(np.zeros((4, 2)))
    assert duplicates.d_max == 0.0
    assert duplicates.diametrical_pair() == (0, 1)
    # d_max = 3 at (1, 4), (1, 5), (2, 3), (3, 4) and their mirrors, none in row 0
    ties = np.ones((6, 6)) - np.eye(6)
    for i, j in [(3, 4), (2, 3), (1, 5), (1, 4)]:
        ties[i, j] = ties[j, i] = 3.0
    inst = Instance.from_matrix(ties)
    assert (inst.d_max, inst.diametrical_pair()) == (3.0, (1, 4))


@pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 600])
def test_mirror_upper_copies_the_upper_triangle_of_any_matrix(n):
    d = np.random.default_rng(n).standard_normal((n, n))  # not symmetric
    upper = np.triu(d, 1)
    _mirror_upper(d)
    assert d.tobytes() == (upper + upper.T).tobytes()


def test_cosine_matrix_and_diameter_are_built_in_place():
    n = 1000
    inst = Instance.from_cosine(np.random.default_rng(0).standard_normal((n, 16)))
    tracemalloc.start()
    try:
        inst.distance_matrix()
        inst.diametrical_pair()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * n * n


def test_dense_matrix_above_byte_budget_is_refused():
    # 16385 one-dimensional points are 131 KB; their dense matrix would be 2 GB
    inst = Instance.from_euclidean(np.zeros((16385, 1)))
    assert 8 * inst.n**2 > DENSE_MAX_BYTES
    with pytest.raises(InputError, match="dense distance matrix"):
        inst.distance_matrix()
    with pytest.raises(InputError, match="dense distance matrix"):
        inst.d_max


def test_problem_validation():
    inst = collinear_instance()
    util = ConstantZeroUtility(3)
    with pytest.raises(InputError):
        Problem(inst, util, lam=1.0, k=4)  # k > n
    with pytest.raises(InputError):
        Problem(inst, util, lam=1.0, k=0)
    with pytest.raises(InputError):
        Problem(inst, util, lam=-0.5, k=2)
    with pytest.raises(InputError):
        Problem(inst, util, lam=1.0, k=2, epsilon=1.0)
    with pytest.raises(InputError):
        Problem(inst, util, lam=1.0, k=2, schedule="other")
    with pytest.raises(InputError):
        Problem(inst, ConstantZeroUtility(5), lam=1.0, k=2)  # size mismatch
    with pytest.raises(InputError):
        Problem(inst, util, lam=1.0, k=2.5)  # non-integral budget
    for lam in (math.inf, math.nan):
        with pytest.raises(InputError):
            Problem(inst, util, lam=lam, k=2)
    assert Problem(inst, util, lam=1.0, k=np.int64(2)).k == 2  # numpy integers pass
    with pytest.raises(InputError):
        greedy_independent_set(inst, util, math.nan, 2)


# ---------------------------------------------------------------------------
# div
# ---------------------------------------------------------------------------


def test_div_collinear_full_set():
    assert div(collinear_instance(), [0, 1, 2]) == 1.0


def test_div_of_small_sets_is_the_diameter():
    rng = np.random.default_rng(3)
    for style in METRIC_STYLES:
        inst = random_metric_instance(rng, 8, style)
        assert div(inst, []) == inst.d_max
        for i in range(inst.n):
            assert div(inst, [i]) == inst.d_max


def test_div_nonsubmodular_example_pair():
    inst = gen_nonsubmodular_example().instance
    assert div(inst, [0, 2]) == 2.0
    assert div(inst, [2, 3]) == 0.0  # duplicate points


def test_div_rejects_bad_indices():
    with pytest.raises(InputError):
        div(collinear_instance(), [0, 3])
    for subset in ([0.2, 2.9], [float("nan")], [0, float("inf")]):
        with pytest.raises(InputError, match="must be integers"):
            div(collinear_instance(), subset)
    assert div(collinear_instance(), [0.0, 2.0]) == 2.0


def test_dist_rejects_bad_indices():
    inst = collinear_instance()
    for i, j in ((0.5, 1), (0, float("nan")), (float("inf"), 0), ("1", 0)):
        with pytest.raises(InputError, match="must be integers"):
            inst.dist(i, j)
    with pytest.raises(InputError, match="out of range"):
        inst.dist(0, 3)
    assert inst.dist(0.0, np.int64(2)) == 2.0


def test_div_monotone_non_increasing_under_inclusion():
    rng = np.random.default_rng(11)
    for trial in range(200):
        style = METRIC_STYLES[trial % 3]
        inst = random_metric_instance(rng, int(rng.integers(2, 10)), style)
        t_mask = rng.random(inst.n) < 0.6
        s_mask = t_mask & (rng.random(inst.n) < 0.6)
        s = list(np.flatnonzero(s_mask))
        t = list(np.flatnonzero(t_mask))
        assert div(inst, s) >= div(inst, t)


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------


def test_objective_nonsubmodular_example():
    gen = gen_nonsubmodular_example()
    problem = Problem(gen.instance, gen.utility, lam=1.0, k=4)
    f, g, d = objective(problem, [0, 1, 2])
    assert (f, g, d) == (1.0, 0.0, 1.0)


def test_objective_lambda_zero_reduces_to_utility():
    rng = np.random.default_rng(5)
    inst = random_metric_instance(rng, 7, "euclidean")
    util = LinearUtility(rng.uniform(0, 1, 7))
    problem = Problem(inst, util, lam=0.0, k=4)
    for _ in range(20):
        s = list(np.flatnonzero(rng.random(7) < 0.5))
        f, g, _ = objective(problem, s)
        assert f == g


def test_objective_greedy_hard_pair():
    gen = gen_greedy_hard(8, 6, 0.1)
    problem = gen.to_problem()
    f, g, d = objective(problem, [0, 1])
    assert f == 4.0 + 2.0 * 0.1
    assert (g, d) == (2.0, 2.0 + 2.0 * 0.1)


def test_objective_counts_one_query():
    gen = gen_greedy_hard(8, 6, 0.1)
    problem = gen.to_problem()
    before = problem.utility.query_count
    objective(problem, [0, 1, 2])
    assert problem.utility.query_count == before + 1


def test_objective_decomposition_reconstructs():
    rng = np.random.default_rng(17)
    for trial in range(50):
        inst = random_metric_instance(rng, 6, METRIC_STYLES[trial % 3])
        util = LinearUtility(rng.uniform(0, 1, 6))
        lam = float(rng.uniform(0, 10))
        problem = Problem(inst, util, lam=lam, k=3)
        s = list(np.flatnonzero(rng.random(6) < 0.5))
        f, g, d = objective(problem, s)
        assert f == pytest.approx(g + lam * d, rel=1e-9)


# ---------------------------------------------------------------------------
# distance thresholds
# ---------------------------------------------------------------------------


def test_geometric_thresholds_example():
    inst = Instance.from_matrix([[0.0, 4.0], [4.0, 0.0]])
    problem = zero_problem(inst, epsilon=0.5)
    assert distance_thresholds(problem) == [1.0, 1.5, 2.25, 3.375]
    assert (1.5) ** 4 == 5.0625 > 4.0  # the next power falls out of range


def test_exhaustive_thresholds_collinear():
    problem = zero_problem(collinear_instance(), schedule="exhaustive")
    assert distance_thresholds(problem) == [0.5, 1.0]


def test_geometric_threshold_length_bound():
    rng = np.random.default_rng(23)
    for _ in range(50):
        inst = random_metric_instance(rng, int(rng.integers(2, 12)), "euclidean")
        eps = float(rng.uniform(0.02, 0.9))
        problem = zero_problem(inst, epsilon=eps)
        thresholds = distance_thresholds(problem)
        assert len(thresholds) <= 1 + math.ceil(math.log(2.0 / eps, 1.0 + eps))


def test_thresholds_strictly_increasing_and_bounded_by_diameter():
    rng = np.random.default_rng(29)
    for trial in range(60):
        inst = random_metric_instance(rng, int(rng.integers(2, 12)), METRIC_STYLES[trial % 3])
        eps = float(rng.uniform(0.05, 0.9))
        for schedule in ("geometric", "exhaustive"):
            problem = zero_problem(inst, epsilon=eps, schedule=schedule)
            thresholds = distance_thresholds(problem)
            assert all(a < b for a, b in zip(thresholds, thresholds[1:]))
            assert thresholds[-1] <= inst.d_max


def test_thresholds_degenerate_instance():
    inst = Instance.from_matrix(np.zeros((3, 3)))
    assert distance_thresholds(zero_problem(inst)) == []
    assert distance_thresholds(zero_problem(inst, schedule="exhaustive")) == []
    single = Instance.from_euclidean([[1.0, 2.0]])
    assert distance_thresholds(zero_problem(single, k=1)) == []
