import numpy as np
import pytest

from divsel import (
    BudgetAdditiveUtility,
    ConstantZeroUtility,
    CoverageUtility,
    InputError,
    LinearUtility,
    MarginSimilarityUtility,
    Problem,
    SubmodularityWitness,
    TabulatedUtility,
    check_monotone_submodular,
    gen_nonsubmodular_example,
    objective,
)
from support import (
    integer_cases,
    random_budget_utility,
    random_coverage_utility,
    random_linear_utility,
    sparse_coverage_utility,
)


def coverage_example():
    return CoverageUtility([[1, 2], [2, 3], [3, 4]], universe_size=5)


def four_point_objective_utility(monotone_variant=False):
    """The combined objective of the four-collinear-point example, tabulated."""
    gen = gen_nonsubmodular_example(monotone_variant)
    problem = Problem(gen.instance, gen.utility, lam=gen.lam, k=4)
    return TabulatedUtility.from_function(4, lambda s: objective(problem, s)[0])


# ---------------------------------------------------------------------------
# evaluate / marginal examples
# ---------------------------------------------------------------------------


def test_coverage_evaluate_example():
    assert coverage_example().evaluate([0, 2]) == 4.0


def test_coverage_marginal_example():
    assert coverage_example().marginal(1, [0]) == 1.0


def test_linear_uniform_weights_sum_to_alpha():
    alpha, k = 0.8, 5
    util = LinearUtility(np.full(10, alpha / k))
    assert util.evaluate(range(k)) == pytest.approx(alpha, rel=1e-12)


def test_budget_additive_example():
    util = BudgetAdditiveUtility([0.9, 0.9, 0.9, 0.9, 0.0], alpha=0.95, beta=0.75, k=4)
    # weights of S sum to 3.6 -> 0.95 * min(0.9, 0.75)
    assert util.evaluate([0, 1, 2, 3]) == 0.95 * 0.75
    assert util.evaluate([0, 1, 2, 3]) == pytest.approx(0.7125, rel=1e-12)


def test_budget_additive_bounds():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        util = random_budget_utility(rng, n, int(rng.integers(1, 6)))
        s = list(np.flatnonzero(rng.random(n) < 0.5))
        value = util.evaluate(s)
        assert 0.0 <= value <= util.alpha * util.beta


def test_linear_marginal_independent_of_base_set():
    rng = np.random.default_rng(2)
    util = random_linear_utility(rng, 9)
    for v in range(9):
        gains = set()
        for _ in range(10):
            s = [int(i) for i in np.flatnonzero(rng.random(9) < 0.5) if i != v]
            gains.add(util.marginal(v, s))
        assert gains == {float(util.weights[v])}


def test_margin_similarity_marginal_example():
    util = MarginSimilarityUtility(
        [1.0, 0.5], edges=[(0, 1, 0.5)], alpha_s=0.9, beta_s=0.1
    )
    # one adjacent selected node with similarity 0.5; both orders counted
    assert util.marginal(0, [1]) == pytest.approx(0.9 * 1.0 - 0.1 * (2 * 0.5), rel=1e-12)
    generic = util.evaluate([0, 1]) - util.evaluate([1])
    assert util.marginal(0, [1]) == pytest.approx(generic, rel=1e-12)


def test_marginal_rejects_member():
    with pytest.raises(InputError):
        coverage_example().marginal(0, [0, 1])


def test_non_integral_indices_are_rejected():
    util = LinearUtility([0.1, 0.2, 0.3])
    for call in (lambda: util.evaluate([0.5, 1.7]),
                 lambda: util.evaluate([float("nan")]),
                 lambda: util.evaluate([float("inf")]),
                 lambda: util.evaluate(["1"]),
                 lambda: util.batch_marginal([1.7], [0]),
                 lambda: util.batch_marginal(np.array([np.nan]), []),
                 lambda: util.batch_marginal([1], [0.5]),
                 lambda: util.marginal(1.5, [0]),
                 lambda: util.evaluate(np.array([False, True, True]))):  # a mask is no subset
        with pytest.raises(InputError, match="must be integers"):
            call()
    accepted, refused = integer_cases(2)
    for bad in refused:
        for call in (lambda: util.evaluate([0, bad]),
                     lambda: util.batch_marginal([bad], [0]),
                     lambda: util.batch_marginal([1], [bad])):
            with pytest.raises(InputError, match="must be integers"):
                call()
    assert util.query_count == 0
    # integral numbers of any type count as their integer
    assert util.evaluate([0.0, np.int64(2)]) == util.evaluate(np.array([2, 0])) == 0.4
    assert util.batch_marginal(np.array([1.0, 2.0]), (0,)).tolist() == [0.2, 0.3]
    for ok in accepted:
        assert util.evaluate([0, ok]) == 0.4
        assert util.batch_marginal([ok], [0]).tolist() == [0.3]


def test_query_count_accounting():
    util = coverage_example()
    start = util.query_count
    util.evaluate([0])
    util.marginal(1, [0])
    util.batch_marginal([1, 2], [0])
    assert util.query_count == start + 1 + 1 + 2


# ---------------------------------------------------------------------------
# fast paths agree with the value-difference path
# ---------------------------------------------------------------------------


def _agree(fast, slow, tol=1e-12):
    return abs(fast - slow) <= tol * max(1.0, abs(fast), abs(slow))


@pytest.mark.parametrize("kind", ["linear", "coverage", "budget", "margin", "zero"])
def test_marginal_fast_path_matches_value_difference(kind):
    rng = np.random.default_rng(sum(map(ord, kind)))
    checked = 0
    while checked < 10_000:
        n = int(rng.integers(2, 14))
        if kind == "linear":
            util = random_linear_utility(rng, n)
        elif kind == "coverage":
            util = random_coverage_utility(rng, n)
        elif kind == "budget":
            util = random_budget_utility(rng, n, int(rng.integers(1, 6)))
        elif kind == "zero":
            util = ConstantZeroUtility(n)
        else:
            edges = [
                (int(i), int(j), float(rng.uniform(-1, 1)))
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.4
            ]
            util = MarginSimilarityUtility(
                rng.uniform(0, 2, n),
                edges=edges,
                alpha_s=float(rng.uniform(0, 1)),
                beta_s=float(rng.uniform(0, 0.5)),
            )
        for _ in range(50):
            mask = rng.random(n) < 0.5
            v = int(rng.integers(n))
            mask[v] = False
            s = [int(i) for i in np.flatnonzero(mask)]
            fast = util.marginal(v, s)
            slow = util.evaluate(sorted(s + [v])) - util.evaluate(s)
            assert _agree(fast, slow), (kind, v, s, fast, slow)
            batch = util.batch_marginal([v], s)
            assert batch[0] == fast
            checked += 1


def test_batch_marginal_matches_singles():
    rng = np.random.default_rng(77)
    for make in (random_linear_utility, random_coverage_utility, sparse_coverage_utility):
        util = make(rng, 10)
        s = [0, 3]
        cand = [1, 2, 4, 7, 9]
        batch = util.batch_marginal(cand, s)
        singles = [util.marginal(v, s) for v in cand]
        assert list(batch) == singles


def per_set_csr(family):
    """The coverage CSR arrays built set by set: one np.unique per set, then one over their union."""
    sets = [np.unique(np.array(f, dtype=np.int64)) for f in family]
    ids, cols = np.unique(np.concatenate(sets), return_inverse=True)
    ptr = np.cumsum([0] + [c.size for c in sets])
    owner = np.repeat(np.arange(len(sets)), np.diff(ptr))
    el_ptr = np.cumsum(np.bincount(cols + 1, minlength=ids.size + 1))
    return ids, cols, ptr, owner, el_ptr, owner[np.argsort(cols, kind="stable")]


def test_coverage_csr_matches_per_set_unique():
    # repeated ids within a set, empty sets, the int64 extremes and random families
    families = [[[3, 1, 3, 2], [], [2, 2], [7]], [[]], [[], []], [[5, 5, 5]],
                [[2**63 - 1, -2**63, 0], [0, -2**63]]]
    rng = np.random.default_rng(41)
    for _ in range(40):
        families.append([rng.integers(-4, 12, int(rng.integers(0, 9))).tolist()
                         for _ in range(int(rng.integers(1, 10)))])
    for family in families:
        util = CoverageUtility(family)
        got = (util._ids, util._cols, util._ptr, util._owner, util._el_ptr, util._el_pts)
        for a, b in zip(got, per_set_csr(family), strict=True):
            assert (a.dtype, a.tolist()) == (b.dtype, b.tolist()), family


def test_budget_additive_gains_are_bit_exact():
    # the closed form over the sorted base's weight sum, bit for bit, through the
    # public entry and through a gain state grown in shuffled order: a running sum
    # would round differently
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        # k >= n keeps most sums below the cap, where their rounding shows
        util = BudgetAdditiveUtility(rng.uniform(0.0, 1.0, n), float(rng.uniform(0.5, 1.0)),
                                     float(rng.uniform(0.3, 1.0)), int(rng.integers(n, 2 * n)))
        s = [int(i) for i in rng.permutation(n)[: int(rng.integers(0, n))]]
        cand = [v for v in range(n) if v not in s]
        total = util.weights[sorted(s)].sum()
        expected = [util.alpha * min((total + util.weights[v]) / util.k, util.beta)
                    - util.alpha * min(total / util.k, util.beta) for v in cand]
        assert util.batch_marginal(cand, s).tolist() == expected
        state = util._gain_state()
        for v in s:
            state.add(v)
        assert state.gains(np.array(cand)).tolist() == expected


# ---------------------------------------------------------------------------
# monotonicity / submodularity checking
# ---------------------------------------------------------------------------


def test_coverage_has_no_violations():
    report = check_monotone_submodular(random_coverage_utility(np.random.default_rng(4), 10),
                                       trials=1000, seed=0)
    assert report.ok and report.chains_checked == 1000


@pytest.mark.parametrize("make", [random_linear_utility, random_coverage_utility])
def test_monotone_submodular_kinds_pass_exhaustive(make):
    util = make(np.random.default_rng(9), 7)
    assert check_monotone_submodular(util, exhaustive=True).ok


def test_budget_additive_passes_exhaustive():
    util = random_budget_utility(np.random.default_rng(10), 7, 3)
    assert check_monotone_submodular(util, exhaustive=True).ok


def test_tabulated_objective_submodularity_witness():
    report = check_monotone_submodular(four_point_objective_utility(), exhaustive=True)
    assert not report.ok
    expected = SubmodularityWitness(
        small=(0, 2), large=(0, 2, 3), point=1, gain_small=-1.0, gain_large=0.0
    )
    assert expected in report.submodularity_violations


def test_monotone_variant_is_monotone_but_not_submodular():
    report = check_monotone_submodular(four_point_objective_utility(monotone_variant=True),
                                       exhaustive=True)
    assert report.monotonicity_violation_count == 0
    assert report.submodularity_violation_count > 0


def test_margin_similarity_monotonicity_violation_witnessed():
    util = MarginSimilarityUtility(
        np.zeros(5), edges=[(0, 1, 0.8)], alpha_s=0.9, beta_s=0.1
    )
    report = check_monotone_submodular(util, trials=500, seed=3)
    assert report.monotonicity_violation_count > 0
    witness = report.monotonicity_violations[0]
    assert witness.gain < 0


def test_checker_is_deterministic():
    util = random_coverage_utility(np.random.default_rng(12), 9)
    a = check_monotone_submodular(util, trials=300, seed=42)
    b = check_monotone_submodular(util, trials=300, seed=42)
    assert (a.chains_checked, a.monotonicity_violation_count) == (
        b.chains_checked,
        b.monotonicity_violation_count,
    )


# ---------------------------------------------------------------------------
# construction validation
# ---------------------------------------------------------------------------


def test_utility_validation_errors():
    with pytest.raises(InputError):
        LinearUtility([-0.1, 0.5])
    with pytest.raises(InputError):
        BudgetAdditiveUtility([0.5, 1.5], alpha=0.9, beta=0.5, k=2)  # weight > 1
    with pytest.raises(InputError):
        BudgetAdditiveUtility([0.5], alpha=1.2, beta=0.5, k=1)
    with pytest.raises(InputError):
        BudgetAdditiveUtility([0.5], alpha=0.9, beta=0.5, k=2.5)  # non-integral cap
    with pytest.raises(InputError):
        MarginSimilarityUtility([0.5, 3.0], edges=[])  # uncertainty > 2
    with pytest.raises(InputError):
        MarginSimilarityUtility([0.5, 0.5], edges=[(0, 0, 0.5)])  # self loop
    with pytest.raises(InputError):
        MarginSimilarityUtility([0.5, 0.5], edges=[(0, 1, 0.5), (1, 0, 0.2)])  # duplicate
    with pytest.raises(InputError):
        CoverageUtility([])
    with pytest.raises(InputError):
        CoverageUtility([[1, 9], [2, 3]], universe_size=2)  # universe smaller than union
    with pytest.raises(InputError):
        CoverageUtility([[1], [2**70]])  # element id beyond 64 bits
    with pytest.raises(InputError):
        TabulatedUtility(2, [0.0, 1.0])  # wrong table size
    with pytest.raises(InputError, match="finite"):
        TabulatedUtility(2, [0.0, 1.0, np.nan, 2.0])
    for sim in ([[0.0, 5.0], [5.0, 0.0]], [[0.0, np.inf], [np.inf, 0.0]], [[0, -1.5], [-1.5, 0]]):
        with pytest.raises(InputError, match=r"lie in \[-1, 1\]"):
            MarginSimilarityUtility([0.5, 0.5], similarity=sim)
    # the diagonal is ignored, as the edge form has none
    ignored = MarginSimilarityUtility([0.5, 0.5], similarity=[[9.0, 1.0], [1.0, 0.0]])
    assert ignored.evaluate([0, 1]) == 0.9 * 1.0 - 0.1 * 2.0
    assert TabulatedUtility(np.int64(2), [0.0, 1.0, 1.0, 2.0]).n == 2
    for make in (lambda: CoverageUtility([[1.5], [1.2], [2.9]]),  # non-integral integers
                 lambda: CoverageUtility([[1], [2]], universe_size=5.5),
                 lambda: ConstantZeroUtility(3.7),
                 lambda: CoverageUtility([[True], [False]]),  # booleans are no ids
                 lambda: CoverageUtility([[np.True_], [2]]),
                 lambda: TabulatedUtility(2.5, [0.0] * 4),
                 lambda: TabulatedUtility(None, [0.0] * 4),
                 lambda: MarginSimilarityUtility([0.5, 0.5], edges=[(0.5, 1, 0.2)]),
                 lambda: BudgetAdditiveUtility([0.5], alpha=0.9, beta=0.5, k="2")):
        with pytest.raises(InputError, match="must be an integer"):
            make()


def test_tabulated_from_function_round_trip():
    util = TabulatedUtility.from_function(3, lambda s: float(len(s)) ** 2)
    assert util.evaluate([0, 2]) == 4.0
    assert util.marginal(1, [0, 2]) == 9.0 - 4.0


def test_margin_similarity_dense_matches_edges():
    rng = np.random.default_rng(21)
    n = 6
    sim = np.zeros((n, n))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            s = float(rng.uniform(-1, 1))
            sim[i, j] = sim[j, i] = s
            edges.append((i, j, s))
    u = rng.uniform(0, 2, n)
    dense = MarginSimilarityUtility(u, similarity=sim, alpha_s=0.7, beta_s=0.2)
    sparse = MarginSimilarityUtility(u, edges=edges, alpha_s=0.7, beta_s=0.2)
    for _ in range(50):
        s = [int(i) for i in np.flatnonzero(rng.random(n) < 0.5)]
        assert dense.evaluate(s) == pytest.approx(sparse.evaluate(s), rel=1e-12, abs=1e-12)
