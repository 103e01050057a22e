import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from divsel import (
    BudgetAdditiveUtility,
    ConstantZeroUtility,
    Graph,
    InputError,
    Instance,
    LinearUtility,
    Problem,
    brute_force_constrained,
    distance_thresholds,
    div,
    gen_clique_reduction,
    gen_greedy_hard,
    gen_independent_set_reduction,
    gen_nonsubmodular_example,
    gist,
    greedy_independent_set,
    objective,
)
from divsel import core
from divsel.cli import SOLVERS
from divsel.core import DENSE_MAX_BYTES, SCHEDULES, _GramRows
from support import METRIC_STYLES, cosine_points, integer_cases, random_metric_instance


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


def test_instance_coordinates_and_distances_must_be_numbers():
    # points and matrix entries follow the one rule of numbers: a string, boolean or None
    # is no number, nor is an int beyond the float range; ints and numpy numbers are
    for metric in ("euclidean", "cosine"):
        for bad in ([["0.5"], [1.0], [2.0]], [[True], [1.0], [2.0]], [[None], [1.0], [2.0]],
                    np.array([[True], [False]]), [[10**400], [1.0]]):
            with pytest.raises(InputError, match="must be numbers"):
                Instance(metric, points=bad)
        assert Instance(metric, points=[[1], [np.int64(2)], [np.float32(3.0)]]).n == 3
    for bad in ([[0.0, "1"], ["1", 0.0]], [[0.0, True], [True, 0.0]], [[0.0, None], [None, 0.0]],
                np.array([[False, True], [True, False]])):
        with pytest.raises(InputError, match="must be numbers"):
            Instance.from_matrix(bad)
    assert Instance.from_matrix([[0, 1], [np.int64(1), 0.0]]).d_max == 1.0


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


def test_every_zero_distance_is_positive_zero():
    signed = np.full((4, 4), -0.0)  # the diagonal included
    inst = Instance.from_matrix(signed)
    assert inst.d_max.hex() == "0x0.0p+0"
    assert inst.diametrical_pair() == (0, 1)
    assert not np.signbit(inst.distance_matrix()).any()
    assert np.signbit(signed).all()  # the caller's array keeps its -0.0


@pytest.mark.parametrize("scale", [1e-200, 1e300])
def test_cosine_rows_whose_plain_norm_under_or_overflows_are_scaled_first(scale):
    # squaring [1e-200, 1e-200] gives a zero norm and [1e300, 1e300] an inf one; divided
    # by their largest magnitude first, both give the bits of [1, 1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inst = Instance.from_cosine([[scale, scale], [1.0, 0.0], [0.0, 1.0]])
    plain = Instance.from_cosine([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    assert inst.points.tobytes() == plain.points.tobytes()
    assert inst.distance_matrix().tobytes() == plain.distance_matrix().tobytes()
    assert inst.max_unit_deviation == pytest.approx(abs(math.hypot(scale, scale) - 1.0), rel=1e-15)
    with pytest.raises(InputError, match="nonzero vectors"):
        Instance.from_cosine([[scale, scale], [0.0, 0.0]])


def test_computed_distances_past_the_float_range_are_refused():
    # pdist overflows to inf without a warning; an inf matrix entry is refused, and so is this
    inst = Instance.from_euclidean([[1e200, 0.0], [-1e200, 0.0], [0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="finite"):
            inst.d_max
        with pytest.raises(InputError, match="finite"):
            gist(Problem(inst, LinearUtility([1.0, 2.0, 3.0]), lam=1.0, k=2))


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


def solver_bits(inst, weights):
    """Every cli.SOLVERS entry on both schedules over ``inst`` (geometric first, so those read
    held Gram rows), each Solution with its floats as hex."""
    out = []
    for schedule in SCHEDULES:
        problem = Problem(inst, LinearUtility(weights), lam=0.3, k=min(inst.n, 6), schedule=schedule)
        for name, solve in sorted(SOLVERS.items(), key=lambda item: item[0] == "gist-exhaustive"):
            sol = solve(problem, 3)
            out.append((name, schedule, sol.selected, sol.oracle_calls,
                        *(x if x is None else float(x).hex()
                          for x in (sol.f_value, sol.g_value, sol.div_value, sol.winning_threshold))))
    return out


def held_gram(points, fill):
    """A cosine instance holding the Gram matrix built as usual, its lower triangle then made by
    ``fill(gram, below)``."""
    inst = Instance.from_cosine(points)
    g = inst._rows().gram.copy()
    below = np.tri(inst.n, k=-1, dtype=bool)
    g[below] = fill(g, below)
    inst._keep(_GramRows(g))
    return inst


@pytest.mark.parametrize("kind", ["gaussian", "ties"])
@pytest.mark.parametrize("n", [1, 2, 3, 127, 128, 129, 300])
def test_cosine_reads_only_the_upper_triangle_of_the_gram_matrix(n, kind):
    # NaN below the diagonal changes no row, dist, div, d_max, diametrical pair or solver
    # output against a Gram matrix mirrored in full; n crosses the block edges of the row maximum
    rng = np.random.default_rng(n)
    points, weights = cosine_points(rng, n, 8, kind), rng.uniform(0.0, 1.0, n)
    poisoned = held_gram(points, lambda g, below: np.nan)
    mirrored = held_gram(points, lambda g, below: g.T[below])
    for a, b in ((poisoned, mirrored), (mirrored, poisoned)):
        assert all(a._rows()[t].tobytes() == b._rows()[t].tobytes() for t in range(n))
    pairs = rng.integers(0, n, (40, 2)).tolist()
    assert [poisoned.dist(i, j) for i, j in pairs] == [mirrored.dist(i, j) for i, j in pairs]
    subsets = [rng.choice(n, size=size, replace=False).tolist() for size in range(min(n, 9) + 1)]
    assert [div(poisoned, s).hex() for s in subsets] == [div(mirrored, s).hex() for s in subsets]
    assert poisoned.d_max.hex() == mirrored.d_max.hex()
    if n >= 2:
        assert poisoned.diametrical_pair() == mirrored.diametrical_pair()
    assert solver_bits(poisoned, weights) == solver_bits(mirrored, weights)
    assert poisoned.distance_matrix().tobytes() == mirrored.distance_matrix().tobytes()


@pytest.fixture
def fresh_syrk():
    """A new binding for this test, and for the tests after it (this one may patch it)."""
    core._syrk.cache_clear()
    yield
    core._syrk.cache_clear()


def test_gram_triangle_without_the_binding_has_the_fast_paths_bits(monkeypatch, fresh_syrk):
    rng = np.random.default_rng(5)
    for n, dim in ((1, 4), (2, 1), (129, 1), (130, 7), (300, 64)):
        points, weights = cosine_points(rng, n, dim, "gaussian"), rng.uniform(0.0, 1.0, n)
        fast = Instance.from_cosine(points)
        with monkeypatch.context() as patched:
            patched.setattr(core, "_syrk", lambda: None)
            plain = Instance.from_cosine(points)
            upper = ~np.tri(n, k=-1, dtype=bool)
            assert fast._rows().gram[upper].tobytes() == plain._rows().gram[upper].tobytes()
            assert solver_bits(fast, weights) == solver_bits(plain, weights)


def test_numpy_linked_to_ilp64_openblas_binds_its_dsyrk():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    ilp64 = blas["name"] == "scipy-openblas" and "USE64BITINT" in blas.get("openblas configuration", "")
    assert (core._syrk() is not None) == ilp64


def test_a_binding_that_fails_its_check_falls_back_to_the_product(monkeypatch, fresh_syrk):
    import ctypes

    def zeros(order, uplo, trans, n, k, alpha, a, lda, beta, c, ldc):  # a dsyrk that writes zeros
        ctypes.memset(c, 0, 8 * n * ldc)

    points = cosine_points(np.random.default_rng(6), 40, 5, "gaussian")
    monkeypatch.setattr(ctypes, "CDLL", lambda path: SimpleNamespace())  # no such symbol
    assert core._syrk() is None
    core._syrk.cache_clear()
    monkeypatch.setattr(ctypes, "CDLL", lambda path: SimpleNamespace(scipy_cblas_dsyrk64_=zeros))
    assert core._syrk() is None
    p = Instance.from_cosine(points).points
    expected = p @ p.T
    np.fill_diagonal(expected, np.inf)
    assert Instance.from_cosine(points)._rows().gram.tobytes() == expected.tobytes()


def test_points_in_fortran_order_take_the_product():
    # numpy passes a Fortran-order p to dsyrk transposed: the binding's C-order call would
    # read it wrongly, so such points take p @ p.T itself
    points = cosine_points(np.random.default_rng(8), 60, 7, "gaussian")
    inst = Instance.from_cosine(np.asfortranarray(points))
    p = inst.points
    assert p.flags.f_contiguous and not p.flags.c_contiguous
    expected = p @ p.T
    np.fill_diagonal(expected, np.inf)
    assert inst._rows().gram.tobytes() == expected.tobytes()


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
    for lam in (math.inf, math.nan, "0.5", None, True):  # booleans are no numbers
        with pytest.raises(InputError):
            Problem(inst, util, lam=lam, k=2)
    for epsilon in ("0.1", None):
        with pytest.raises(InputError):
            Problem(inst, util, lam=1.0, k=2, epsilon=epsilon)
    assert Problem(inst, util, lam=1.0, k=np.int64(2)).k == 2  # numpy integers pass
    for d in (math.nan, True):
        with pytest.raises(InputError):
            greedy_independent_set(inst, util, d, 2)


def test_one_budget_rule_at_every_entry_point():
    inst = Instance.from_euclidean([[0.0], [1.0], [2.0], [3.0]])
    ones, graph = LinearUtility(np.ones(4)), Graph.from_edges(4, [(0, 1)])
    entry_points = [  # (budget value, call returning the budget it used)
        (3, lambda k: Problem(inst, ones, lam=1.0, k=k).k),
        (3, lambda k: len(greedy_independent_set(inst, ones, 0.0, k))),
        (3, lambda k: len(brute_force_constrained(inst, ones, 0.0, k).witness)),
        (3, lambda k: BudgetAdditiveUtility([0.5] * 4, alpha=0.9, beta=0.5, k=k).k),
        (3, lambda k: gen_clique_reduction(graph, 0.5, k).k),
        (3, lambda k: gen_independent_set_reduction(graph, 0.5, k).k),
        (5, lambda k: gen_greedy_hard(8, k, 0.1).k),
    ]
    for value, call in entry_points:
        accepted, refused = integer_cases(value)
        for k in accepted:
            used = call(k)
            assert used == value and type(used) is int, (value, k)
        for k in refused:
            with pytest.raises(InputError, match="must be an integer"):
                call(k)


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
    accepted, refused = integer_cases(2)
    for subset in ([0.2, 2.9], [float("nan")], [0, float("inf")], np.array([False, True, True]),
                   *([0, bad] for bad in refused)):
        with pytest.raises(InputError, match="must be integers"):
            div(collinear_instance(), subset)
    assert div(collinear_instance(), [0.0, 2.0]) == 2.0
    for ok in accepted:
        assert div(collinear_instance(), [0, ok]) == 2.0


def test_dist_rejects_bad_indices():
    # distance_row takes dist's rule: -1 is no last row, True no boolean mask
    inst = collinear_instance()
    for i, j in ((0.5, 1), (0, float("nan")), (float("inf"), 0), ("1", 0), (True, False)):
        with pytest.raises(InputError, match="must be integers"):
            inst.dist(i, j)
    for i in (0.5, float("nan"), float("inf"), "1", True, np.True_):
        with pytest.raises(InputError, match="must be integers"):
            inst.distance_row(i)
    for i in (-1, 3):
        with pytest.raises(InputError, match="out of range"):
            inst.dist(0, i)
        with pytest.raises(InputError, match="out of range"):
            inst.distance_row(i)
    assert inst.dist(0.0, np.int64(2)) == 2.0
    assert inst.distance_row(2.0).tolist() == inst.distance_row(np.int64(2)).tolist() == [2.0, 1.0, 0.0]


def test_dist_div_and_objective_read_held_gram_rows(monkeypatch):
    # after a geometric solve a cosine instance holds Gram rows: dist, div, objective and
    # distance_row read them without the dense matrix, with the bits of an instance whose
    # dense matrix came first
    rng = np.random.default_rng(37)
    for kind in ("gaussian", "ties"):
        points, weights = cosine_points(rng, 120, 8, kind), rng.uniform(0.0, 1.0, 120)
        dense, held = Instance.from_cosine(points), Instance.from_cosine(points)
        dense.distance_matrix()
        gist(Problem(held, LinearUtility(weights), lam=0.3, k=6))
        assert not isinstance(held._rows(), np.ndarray)  # Gram rows, no dense matrix

        def refuse(self):
            raise AssertionError("dense distance matrix built")

        def read(inst, s):
            problem = Problem(inst, LinearUtility(weights), lam=0.3, k=6)
            return [x.hex() for x in (div(inst, s), *objective(problem, s))]

        with monkeypatch.context() as patched:
            patched.setattr(Instance, "distance_matrix", refuse)
            for size in (0, 1, 2, 3, 7, 20):
                s = rng.choice(120, size=size, replace=False).tolist()
                assert read(held, s) == read(dense, s), (kind, s)
            for i, j in rng.integers(0, 120, (40, 2)).tolist() + [(5, 5)]:
                assert held.dist(i, j).hex() == dense.dist(i, j).hex(), (kind, i, j)
                assert held.distance_row(i).tobytes() == dense.distance_row(i).tobytes(), (kind, i)


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
