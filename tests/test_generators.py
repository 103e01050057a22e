import itertools
import math

import numpy as np
import pytest

from divsel import (
    Graph,
    InputError,
    Instance,
    Problem,
    TabulatedUtility,
    brute_force_opt,
    check_monotone_submodular,
    classic_greedy,
    div,
    embed_graph,
    gen_clique_reduction,
    gen_cover_reduction,
    gen_gaussian,
    gen_greedy_hard,
    gen_independent_set_reduction,
    gen_nonsubmodular_example,
    objective,
    random_bounded_degree_graph,
    ratio_report,
)

from support import integer_cases

TRIANGLE_TOL = 1e-9


def assert_valid_metric(instance: Instance):
    m = instance.distance_matrix()
    assert (m == m.T).all()
    assert (np.diagonal(m) == 0).all()
    assert (m >= 0).all()
    n = instance.n
    for via in range(n):
        bound = m[:, via][:, None] + m[via, :][None, :]
        assert (m <= bound + TRIANGLE_TOL).all()


# ---------------------------------------------------------------------------
# Graph
# ---------------------------------------------------------------------------


def test_graph_canonicalization_and_validation():
    g = Graph.from_edges(4, [(2, 0), (1, 3)])
    assert g.edges == ((0, 2), (1, 3))
    assert g.degrees() == [1, 1, 1, 1]
    assert g.max_degree == 1
    with pytest.raises(InputError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(InputError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(InputError):
        Graph.from_edges(3, [(0, 5)])
    with pytest.raises(InputError, match="must be an integer"):
        Graph.from_edges(2.5, [])


def test_random_bounded_degree_graph():
    for seed in range(20):
        g = random_bounded_degree_graph(15, 3, seed)
        assert g.max_degree <= 3
        assert g == random_bounded_degree_graph(15, 3, seed)
    assert random_bounded_degree_graph(6, 2, 0, target_edges=3.0).edges == \
        random_bounded_degree_graph(6, 2, 0, target_edges=3).edges
    for bad in (dict(target_edges=2.5), dict(n=5.5), dict(max_degree=True)):
        with pytest.raises(InputError, match="must be an integer"):
            random_bounded_degree_graph(**{"n": 6, "max_degree": 2, "seed": 0, **bad})


# ---------------------------------------------------------------------------
# gaussian
# ---------------------------------------------------------------------------


def test_gaussian_shapes_and_determinism():
    gen = gen_gaussian(200, 16, seed=4)
    again = gen_gaussian(200, 16, seed=4)
    assert gen.instance.metric == "euclidean"
    assert gen.instance.points.shape == (200, 16)
    assert (gen.instance.points == again.instance.points).all()
    assert (gen.params["weights"] == again.params["weights"]).all()
    assert ((gen.params["weights"] >= 0) & (gen.params["weights"] <= 1)).all()
    same = gen_gaussian(20.0, np.int64(3), seed=4).instance.points
    assert (same == gen_gaussian(20, 3, seed=4).instance.points).all()
    for n, dim in ((2.5, 3), (20, "3"), (True, 3)):
        with pytest.raises(InputError, match="must be an integer"):
            gen_gaussian(n, dim, seed=4)


def test_gaussian_mean_concentration():
    gen = gen_gaussian(500, 32, seed=9)
    mean = float(gen.instance.points.mean())
    assert abs(mean) <= 5.0 / math.sqrt(500 * 32)


def test_gaussian_budget_utility_binding():
    gen = gen_gaussian(50, 4, seed=1)
    util = gen.budget_utility(alpha=0.95, beta=0.75, k=10)
    assert util.k == 10 and util.n == 50
    problem = gen.to_problem(k=10, utility=util)
    assert problem.lam == 0.05


# ---------------------------------------------------------------------------
# greedy-hard
# ---------------------------------------------------------------------------


def test_greedy_hard_structure():
    gen = gen_greedy_hard(8, 6, 0.1)
    m = gen.instance.distance_matrix()
    assert m[0, 1] == 2.0 + 2.0 * 0.1
    off_diag = m[np.triu_indices(8, 1)]
    assert sorted(set(off_diag.tolist())) == [1.1, 2.2]
    assert_valid_metric(gen.instance)
    with pytest.raises(InputError):
        gen_greedy_hard(8, 3, 0.1)  # k < 4
    with pytest.raises(InputError):
        gen_greedy_hard(5, 6, 0.1)  # n < k
    with pytest.raises(InputError, match="must be an integer"):
        gen_greedy_hard(8.5, 6, 0.1)  # its budget k runs through the table in test_core


def test_greedy_hard_ratio_shrinks_with_k():
    eps = 0.1
    gen = gen_greedy_hard(10, 8, eps)
    problem = gen.to_problem()
    greedy = classic_greedy(problem)
    assert greedy.f_value == 4.0 + 2.0 * eps
    exact = brute_force_opt(problem)
    assert exact.opt_value == 8.0 + 1.0 + eps
    ratio = ratio_report(problem, greedy)
    assert ratio <= (4.0 + 2.0 * eps) / 8.0
    # and at k = 6 the same bound from the smaller suite
    problem6 = gen_greedy_hard(8, 6, eps).to_problem()
    assert ratio_report(problem6, classic_greedy(problem6)) < (4.0 + 2.0 * eps) / 6.0


# ---------------------------------------------------------------------------
# non-submodular four-point example
# ---------------------------------------------------------------------------


def test_nonsubmodular_example_geometry():
    gen = gen_nonsubmodular_example()
    assert gen.instance.dist(2, 3) == 0.0  # duplicate points are allowed
    assert gen.instance.d_max == 2.0
    problem = Problem(gen.instance, gen.utility, lam=1.0, k=4)
    tabulated = TabulatedUtility.from_function(4, lambda s: objective(problem, s)[0])
    report = check_monotone_submodular(tabulated, exhaustive=True)
    witnesses = {
        (w.small, w.large, w.point) for w in report.submodularity_violations
    }
    assert ((0, 2), (0, 2, 3), 1) in witnesses


def test_nonsubmodular_monotone_variant():
    gen = gen_nonsubmodular_example(monotone_variant=True)
    problem = Problem(gen.instance, gen.utility, lam=1.0, k=4)
    values = {}
    for size in range(5):
        for combo in itertools.combinations(range(4), size):
            values[combo] = objective(problem, combo)[0]
    # monotone over all 16 subsets
    for s, fs in values.items():
        for t, ft in values.items():
            if set(s) <= set(t):
                assert fs <= ft + 1e-12
    # but still not submodular
    tabulated = TabulatedUtility.from_function(4, lambda s: values[s])
    assert check_monotone_submodular(tabulated, exhaustive=True).submodularity_violation_count > 0


# ---------------------------------------------------------------------------
# clique reduction
# ---------------------------------------------------------------------------


def test_clique_reduction_triangle_graph():
    triangle = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    gen = gen_clique_reduction(triangle, alpha=0.5, k=3)
    assert_valid_metric(gen.instance)
    exact = brute_force_opt(gen.to_problem())
    assert exact.opt_value == pytest.approx(2.0 - 0.5, rel=1e-12)
    assert exact.witness == (0, 1, 2)


def test_clique_reduction_edgeless_graph():
    empty = Graph.from_edges(5, [])
    gen = gen_clique_reduction(empty, alpha=0.6, k=3)
    exact = brute_force_opt(gen.to_problem())
    assert exact.opt_value == pytest.approx(0.6 + (1.0 - 0.6) * 1.0, rel=1e-12)


def test_clique_reduction_alpha_one_is_pure_cardinality():
    g = random_bounded_degree_graph(8, 3, seed=2, target_edges=6)
    gen = gen_clique_reduction(g, alpha=1.0, k=4)
    assert gen.lam == 0.0
    exact = brute_force_opt(gen.to_problem())
    assert exact.opt_value == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# adjacency embedding
# ---------------------------------------------------------------------------


def test_embedding_single_edge_graph():
    k2 = Graph.from_edges(2, [(0, 1)])
    h = embed_graph(k2)
    assert h.shape == (2, 3)
    dist = float(np.linalg.norm(h[0] - h[1]))
    assert abs(dist - math.sqrt(1.0 - 0.5)) <= 1e-12


def test_embedding_norms_and_distances():
    rng = np.random.default_rng(15)
    for trial in range(20):
        n = int(rng.integers(2, 15))
        g = random_bounded_degree_graph(n, 3, seed=trial)
        h = embed_graph(g)
        assert h.shape == (n, n + len(g.edges))
        norms = np.linalg.norm(h, axis=1)
        assert np.abs(norms - math.sqrt(0.5)).max() <= 1e-12
        edge_set = set(g.edges)
        bound = 1.0 - 1.0 / (2.0 * (g.max_degree + 1))
        for u in range(n):
            for v in range(u + 1, n):
                d = float(np.linalg.norm(h[u] - h[v]))
                if (u, v) in edge_set:
                    assert d <= bound + 1e-12
                else:
                    assert abs(d - 1.0) <= 1e-12


def test_independent_set_reduction_values():
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    gen = gen_independent_set_reduction(path, alpha=0.5, k=2)
    # the two endpoints are non-adjacent: f = 0.5/2 * 2 + 0.5 * 1 = 1
    f, _, _ = objective(gen.to_problem(), [0, 2])
    assert abs(f - 1.0) <= 1e-12
    exact = brute_force_opt(gen.to_problem())
    assert abs(exact.opt_value - 1.0) <= 1e-12
    assert exact.witness == (0, 2)


def test_independent_set_reduction_adjacent_diversity_cap():
    rng = np.random.default_rng(19)
    for trial in range(10):
        g = random_bounded_degree_graph(10, 3, seed=100 + trial, target_edges=8)
        if not g.edges:
            continue
        gen = gen_independent_set_reduction(g, alpha=0.5, k=4)
        u, v = g.edges[0]
        assert div(gen.instance, [u, v]) <= 1.0 - 1.0 / 8.0 + 1e-12


# ---------------------------------------------------------------------------
# cover reduction
# ---------------------------------------------------------------------------


def test_cover_reduction_distances():
    family = [[1, 2], [3, 4], [1, 3]]
    gen = gen_cover_reduction(family, groups=[0, 1, 1])
    d = (1.0 - 1.0 / math.e) * 4
    assert gen.params["d"] == pytest.approx(d, rel=1e-12)
    m = gen.instance.distance_matrix()
    assert m[0, 1] == 2.0 * d  # disjoint, different groups
    assert m[0, 2] == d  # intersecting
    assert m[1, 2] == d  # same group
    assert_valid_metric(gen.instance)


def test_cover_reduction_without_groups_uses_disjointness():
    family = [[1, 2], [3, 4], [1, 3]]
    gen = gen_cover_reduction(family)
    m = gen.instance.distance_matrix()
    d = gen.params["d"]
    assert m[0, 1] == 2.0 * d and m[0, 2] == d and m[1, 2] == d


def test_cover_reduction_brute_force_optimum():
    family = [[1, 2], [3, 4], [1, 3]]
    gen = gen_cover_reduction(family, groups=[0, 1, 1])
    problem = gen.to_problem(k=2)
    exact = brute_force_opt(problem)
    # independent recomputation over all subsets of size <= 2
    best = max(
        objective(problem, combo)[0]
        for size in (1, 2)
        for combo in itertools.combinations(range(3), size)
    )
    assert exact.opt_value == best
    # picking the two disjoint sets covers everything and earns distance 2d
    assert exact.opt_value == pytest.approx(4.0 + 2.0 * gen.params["d"], rel=1e-12)
    assert exact.witness == (0, 1)


def test_cover_reduction_rejects_empty_family():
    with pytest.raises(InputError):
        gen_cover_reduction([])


def test_cover_reduction_takes_integers_by_the_one_rule():
    accepted, refused = integer_cases(2)
    for x in accepted:
        gen = gen_cover_reduction([[x, 1], [0]], groups=[x, 1])
        assert gen.params["family"] == ((0,), (1, 2)) and gen.params["groups"] == (2, 1)
        assert all(type(e) is int for s in gen.params["family"] for e in s + gen.params["groups"])
    for bad in refused:
        with pytest.raises(InputError, match="set element must be an integer"):
            gen_cover_reduction([[bad, 1], [0]])
        with pytest.raises(InputError, match="group label must be an integer"):
            gen_cover_reduction([[2, 1], [0]], groups=[bad, 1])
    with pytest.raises(InputError, match="set element must be an integer"):
        gen_cover_reduction([[2.5, True], [1]], groups=[0.5, 1.7])


# ---------------------------------------------------------------------------
# cross-family checks
# ---------------------------------------------------------------------------


def every_generated_instance():
    yield gen_greedy_hard(8, 6, 0.1)
    yield gen_nonsubmodular_example()
    yield gen_nonsubmodular_example(monotone_variant=True)
    yield gen_clique_reduction(random_bounded_degree_graph(7, 3, seed=3), alpha=0.4, k=3)
    yield gen_independent_set_reduction(random_bounded_degree_graph(7, 3, seed=5), alpha=0.4, k=3)
    yield gen_cover_reduction([[0, 1], [2], [0, 3]])
    yield gen_gaussian(30, 5, seed=6)


def test_all_generator_outputs_pass_metric_validation():
    for gen in every_generated_instance():
        assert_valid_metric(gen.instance)


def test_declared_monotone_submodular_utilities_pass_checker():
    for gen in every_generated_instance():
        util = gen.utility
        if util is None:
            util = gen.budget_utility(0.95, 0.75, 5)
        if util.monotone_declared and util.submodular_declared:
            if util.n <= 10:
                report = check_monotone_submodular(util, exhaustive=True)
            else:
                report = check_monotone_submodular(util, trials=2000, seed=1)
            assert report.ok, gen.family
