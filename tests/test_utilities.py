import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from divsel import (
    BudgetAdditiveUtility,
    ConstantZeroUtility,
    CoverageUtility,
    InputError,
    Instance,
    LinearUtility,
    MarginSimilarityUtility,
    Problem,
    SubmodularityWitness,
    TabulatedUtility,
    check_monotone_submodular,
    div,
    gen_nonsubmodular_example,
    objective,
)
from divsel.core import _Run
from divsel.utilities import _BudgetGains, _FixedGains
from support import (
    every_kind,
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


def test_budget_additive_signed_zero_parameters_are_positive_zero():
    # alpha or beta given as -0.0 is stored as +0.0, so no gain or value takes a zero's sign
    # from a parameter: each is +0.0 where alpha = beta = +0.0 gives +0.0
    for alpha, beta in ((0.95, -0.0), (-0.0, 0.5), (-0.0, -0.0)):
        util = BudgetAdditiveUtility([0.5, 0.25, 0.0], alpha=alpha, beta=beta, k=2)
        assert (util.alpha.hex(), util.beta.hex()) == ((alpha + 0.0).hex(), (beta + 0.0).hex())
        gains = util.batch_marginal([0, 1, 2], [])
        assert [x.hex() for x in gains.tolist()] == ["0x0.0p+0"] * 3, (alpha, beta)
        assert util.evaluate([0]).hex() == util.evaluate([0, 2]).hex() == "0x0.0p+0", (alpha, beta)


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


def test_out_of_range_indices_are_rejected_by_one_rule():
    # every public entry checks an index's range the same way, one beyond 64 bits included
    util = LinearUtility([0.1, 0.2, 0.3])
    inst = Instance.from_euclidean([[0.0], [1.0], [3.0]])
    for bad in (-1, 3, 2**70, -2**70):
        for call in (lambda: util.evaluate([0, bad]),
                     lambda: util.batch_marginal([bad], [0]),
                     lambda: util.batch_marginal([1], [bad]),
                     lambda: util.marginal(bad, [0]),
                     lambda: div(inst, [0, bad]),
                     lambda: inst.dist(0, bad),
                     lambda: inst.distance_row(bad)):
            with pytest.raises(InputError, match="index out of range for ground set of size 3"):
                call()
    assert util.query_count == 0


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


@pytest.mark.parametrize("kind", ["linear", "coverage", "budget", "margin", "zero", "tabulated"])
def test_marginal_fast_path_matches_value_difference(kind):
    # and a gain state grown in shuffled order holds g of its selection, bit for bit
    rng, shuffle = np.random.default_rng(sum(map(ord, kind))), np.random.default_rng(5)
    checked = 0
    while checked < 10_000:
        n = int(rng.integers(2, 8 if kind == "tabulated" else 14))
        if kind == "linear":
            util = random_linear_utility(rng, n)
        elif kind == "coverage":
            util = random_coverage_utility(rng, n)
        elif kind == "budget":
            util = random_budget_utility(rng, n, int(rng.integers(1, 6)))
        elif kind == "zero":
            util = ConstantZeroUtility(n)
        elif kind == "tabulated":
            weights = rng.uniform(0, 1, n)
            util = TabulatedUtility.from_function(n, lambda s: math.sqrt(weights[list(s)].sum()))
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
        state = util._gain_state()  # once per utility, on its last s
        for i in shuffle.permutation(s):
            state.add(int(i))
        assert state.value().hex() == util.evaluate(s).hex(), (kind, s)


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
    return (ids, cols, ptr, owner.astype(np.min_scalar_type(len(sets))), el_ptr,
            owner[np.argsort(cols, kind="stable")])


def co_holder_index(family):
    """The co-holder index built point by point: for each of a set's distinct ids, ascending,
    every set that holds it; then the row offsets, the holders and each id's holder count."""
    sets = [sorted(set(f)) for f in family]
    ptr, pts, lens = [0], [], []
    for s in sets:
        for e in s:
            holders = [w for w, t in enumerate(sets) if e in t]
            pts += holders
            lens.append(len(holders))
        ptr.append(len(pts))
    small = np.min_scalar_type(len(sets))
    return np.array(ptr, np.int64), np.array(pts, small), np.array(lens, small)


def test_coverage_csr_matches_per_set_unique():
    # repeated ids within a set, empty sets, the int64 extremes and random families.  A
    # family keeps the co-holder index when that has at most n**2 entries, else the
    # element -> points arrays; both sides are reached
    families = [[[3, 1, 3, 2], [], [2, 2], [7]], [[]], [[], []], [[5, 5, 5]],
                [[2**63 - 1, -2**63, 0], [0, -2**63]]]
    rng = np.random.default_rng(41)
    for _ in range(40):
        families.append([rng.integers(-4, 12, int(rng.integers(0, 9))).tolist()
                         for _ in range(int(rng.integers(1, 10)))])
    sides = set()
    for family in families:
        util = CoverageUtility(family)
        ids, cols, ptr, owner, el_ptr, el_pts = per_set_csr(family)
        el_len = np.diff(el_ptr)
        indexed = util._nb_ptr is not None
        assert indexed == (int(el_len @ el_len) <= len(family) ** 2), family
        got, want = [util._ids, util._cols, util._ptr, util._owner], [ids, cols, ptr, owner]
        if indexed:
            got += [util._nb_ptr, util._nb_pts, util._nb_len]
            want += co_holder_index(family)
            assert not hasattr(util, "_el_pts"), family
        else:
            got += [util._el_ptr, util._el_pts, util._el_len]
            want += [el_ptr, el_pts, el_len]
        sides.add(indexed)
        for a, b in zip(got, want, strict=True):
            assert (a.dtype, a.tolist()) == (b.dtype, b.tolist()), family
    assert sides == {False, True}


def uncovered_counts(family, chosen):
    """Each point's count of distinct ids that no point of ``chosen`` holds, by Python sets."""
    covered = set().union(*(family[v] for v in chosen))
    return [float(len(set(f) - covered)) for f in family]


def assert_counts(state, family, chosen):
    cand = np.array([v for v in range(len(family)) if v not in chosen], dtype=np.intp)
    plain = uncovered_counts(family, chosen)
    assert list(map(float.hex, state.gains(cand).tolist())) == \
        [plain[v].hex() for v in cand.tolist()], (family, chosen)


@pytest.mark.parametrize("side", ["sparse", "overlapping"])
def test_coverage_gains_match_plain_counts_on_both_sides_of_the_index_rule(side):
    # sparse families (sets of up to 6 ids from a pool of 4n, so some overlap) keep the
    # co-holder index, overlapping ones (at most 15 ids) the element rows.  Both carry empty
    # sets, repeated ids, negative ids and 2**40.  After every add of a random order, on a
    # state that built its gains first or lazily and on copies grown apart, the gains are by
    # float.hex those of a state rebuilt from its base and a per-point count of uncovered ids
    rng = np.random.default_rng(1 if side == "sparse" else 2)
    special = [-7, -1, 0, 2**40]
    for _ in range(30):
        if side == "sparse":
            n = int(rng.integers(10, 20))
            pool = rng.choice(10**6, 4 * n, replace=False)
            family = [rng.choice(pool, int(rng.integers(0, 7))).tolist() for _ in range(n)]
            for i, e in enumerate(special):  # each twice, in one set
                family[(3 * i + 1) % n] += [e, e]
        else:
            n = int(rng.integers(3, 12))
            pool = np.array(special + list(range(1, int(rng.integers(3, 12)))))
            family = [[] if v % 4 == 0 else rng.choice(pool, 2 * pool.size).tolist()
                      for v in range(n)]
        util = CoverageUtility(family)
        assert (util._nb_ptr is not None) == (side == "sparse"), family
        state, chosen = util._gain_state(), []
        if rng.random() < 0.5:
            assert_counts(state, family, chosen)
        for v in rng.permutation(n).tolist()[:n - 1]:
            if rng.random() < 0.3:  # a copy grown along the rest in another order
                twin, grown = state.copy(), list(chosen)
                for w in [w for w in rng.permutation(n).tolist() if w not in chosen][:-1]:
                    twin.add(w)
                    grown.append(w)
                    assert_counts(twin, family, grown)
                    _matches_rebuild(twin, util, grown)
            state.add(v)
            chosen.append(v)
            assert_counts(state, family, chosen)
            _matches_rebuild(state, util, chosen)


def test_coverage_index_rule_at_n_squared():
    # four points that all hold id 7: 4**2 = n**2 index entries keeps the index; one more
    # id, held once, makes 17 and the element rows are kept instead
    for family, indexed in (([[7, 7], [7], [7], [7]], True), ([[7, 7, -1], [7], [7], [7]], False)):
        util = CoverageUtility(family)
        assert (util._nb_ptr is not None) == indexed
        assert hasattr(util, "_el_pts") != indexed
        state = util._gain_state()
        assert_counts(state, family, [])
        state.add(1)
        assert_counts(state, family, [1])


def _matches_rebuild(state, util, base):
    """``state`` equals one built from ``base``: gains over the rest by ``float.hex``, and g."""
    rebuilt = util._gain_state(base)
    cand = np.array([v for v in range(util.n) if v not in base], dtype=np.intp)
    assert list(map(float.hex, state.gains(cand).tolist())) == \
        list(map(float.hex, rebuilt.gains(cand).tolist())), base
    assert state.value().hex() == rebuilt.value().hex(), base


@pytest.mark.parametrize("kind", ["coverage", "sparse", "budget", "tabulated", "margin", "fixed"])
def test_gain_state_copy_grows_apart_from_its_original(kind):
    # a copy taken mid-run and the original grow along different points; each stays the
    # state of its own selection, and the copy's growth leaves the original as it was.  The
    # copy counts into the original's run
    rng = np.random.default_rng(sum(map(ord, kind)) + 3)
    for _ in range(40):
        n = int(rng.integers(2, 12))
        if kind == "coverage":
            util = random_coverage_utility(rng, n)
        elif kind == "sparse":
            util = sparse_coverage_utility(rng, n)
        elif kind == "budget":
            util = random_budget_utility(rng, n, int(rng.integers(1, 6)))
        elif kind == "tabulated":
            weights = rng.uniform(0, 1, n)
            util = TabulatedUtility.from_function(n, lambda s: math.sqrt(weights[list(s)].sum()))
        elif kind == "fixed":
            util = random_linear_utility(rng, n)
        else:
            sim = rng.uniform(-1, 1, (n, n))
            util = MarginSimilarityUtility(rng.uniform(0, 2, n), similarity=(sim + sim.T) / 2)
        order = [int(v) for v in rng.permutation(n)]
        cut = int(rng.integers(0, n - 1))
        base, mine, theirs = order[:cut], order[cut::2], order[cut + 1::2]
        run = _Run(util)
        state = _FixedGains(util, run) if kind == "fixed" else util._gain_state((), run)
        for v in base:
            state.add(v)
        twin = state.copy()
        assert twin.run is run
        if kind == "fixed":  # it serves the utility's one read-only weight array, never a copy
            assert vars(twin).keys() == {"utility", "run", "units"} and not util.weights.flags.writeable
        for v in theirs:
            twin.add(v)
            _matches_rebuild(state, util, base)
        for v in mine:
            state.add(v)
        _matches_rebuild(state, util, base + mine)
        _matches_rebuild(twin, util, base + theirs)


def test_every_gain_state_counts_one_query_per_value_and_per_candidate():
    # value() counts one query, gains(cand) cand.size and pick one per candidate of its step
    # (min_dist >= floor; a selected point carries -1), on each kind's state, into the run it
    # was built with; a _FixedGains counts every point's gain once, when built, and no gain or
    # pick afterwards.  The utility's own count waits for the run's end.  The pick is the
    # argmax of the candidates' gains, ties to the lowest index
    rng = np.random.default_rng(23)
    for n in (1, 2, 7):
        for kind, util in every_kind(rng, n, 3).items():
            for fixed in (False, True) if kind in ("linear", "zero") else (False,):
                run, lifetime = _Run(util), util.query_count
                state = _FixedGains(util, run) if fixed else util._gain_state((), run)
                assert run.count == (n if fixed else 0), kind
                order = [int(v) for v in rng.permutation(n)]
                min_dist = rng.uniform(0.0, 2.0, n)
                for i, v in enumerate(order):
                    rest = np.array(order[i:], dtype=np.intp)
                    before = run.count
                    gains = state.gains(rest)
                    assert run.count - before == (0 if fixed else rest.size), (kind, fixed)
                    state.value()
                    assert run.count - before == (1 if fixed else rest.size + 1), (kind, fixed)
                    floor = float(np.sort(min_dist[rest])[rest.size // 2])  # half the rest, or more
                    cand = np.flatnonzero(min_dist >= floor)
                    before = run.count
                    t, gain, _, picked = state.pick(min_dist, floor, 0)
                    assert run.count - before == (0 if fixed else cand.size), (kind, fixed)
                    assert type(run.count) is int, kind  # no numpy integer
                    expected = gains[np.argsort(rest)][np.isin(np.sort(rest), cand)]
                    top = expected.argmax()
                    assert (t, gain.hex()) == (int(cand[top]), expected[top].hex()), kind
                    if picked is not None:  # the candidates' gain vector, as gains gives it
                        assert picked.tobytes() == expected.tobytes(), kind
                    state.add(v)
                    min_dist[v] = -1.0
                assert state.pick(min_dist, 0.0, 0) is None, kind
                assert util.query_count == lifetime, kind
                assert run.end(kind) == kind and util.query_count == lifetime + run.count, kind


@pytest.mark.parametrize("make", [random_coverage_utility, sparse_coverage_utility])
def test_coverage_gains_built_late_match_gains_kept_from_the_start(make):
    # a state asked no gains marks ``uncovered`` only; the gains it builds when first asked
    # equal, bit for bit, those of a state that has kept them since the empty set
    rng = np.random.default_rng(19)
    for _ in range(60):
        n = int(rng.integers(1, 12))
        util = make(rng, n)
        order = [int(v) for v in rng.permutation(n)]
        early = util._gain_state()
        early.gains(np.arange(n))
        for i, v in enumerate(order):
            early.add(v)
            late, from_base = util._gain_state(), util._gain_state(order[:i + 1])
            for w in order[:i + 1]:
                late.add(w)
            assert late.value() == from_base.value() == early.value(), order
            assert late.gain is None and from_base.gain is None, order
            rest = np.array(order[i + 1:], dtype=np.intp)
            expected = list(map(float.hex, early.gains(rest).tolist()))
            for state in (late, from_base):
                assert list(map(float.hex, state.gains(rest).tolist())) == expected, order


def test_coverage_add_on_degenerate_families():
    families = [
        [[1, 2], [2], [1, 2, 2]],  # after point 0, points 1 and 2 cover nothing new
        [[], [3], [], [3, 4]],  # empty sets
        [[7, 1], [7], [7, 2], [7]],  # one element held by every point
        [[5, 5, 5], [5, 6, 6], [6, 5, 6]],  # repeated ids within a set
        [[9]], [[]], [[4, 4]],  # n = 1
    ]
    for family in families:
        util = CoverageUtility(family)
        for order in itertools.permutations(range(util.n)):
            state = util._gain_state()
            for i, v in enumerate(order):
                state.add(v)
                base = sorted(order[:i + 1])
                _matches_rebuild(state, util, base)
                g = util.evaluate(base)
                assert state.value() == g, (family, order)
                rest = [w for w in range(util.n) if w not in base]
                assert state.gains(np.array(rest, dtype=np.intp)).tolist() == \
                    [util.evaluate(base + [w]) - g for w in rest], (family, order)


def test_budget_additive_gains_are_bit_exact():
    # the closed form over the correctly rounded weight sum, bit for bit, through the
    # public entry and through a gain state grown in shuffled order
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        # k >= n keeps most sums below the cap, where their rounding shows
        util = BudgetAdditiveUtility(rng.uniform(0.0, 1.0, n), float(rng.uniform(0.5, 1.0)),
                                     float(rng.uniform(0.3, 1.0)), int(rng.integers(n, 2 * n)))
        s = [int(i) for i in rng.permutation(n)[: int(rng.integers(0, n))]]
        cand = [v for v in range(n) if v not in s]
        total = math.fsum(util.weights[s].tolist())
        expected = [util.alpha * min((total + util.weights[v]) / util.k, util.beta)
                    - util.alpha * min(total / util.k, util.beta) for v in cand]
        assert util.batch_marginal(cand, s).tolist() == expected
        state = util._gain_state()
        for v in s:
            state.add(v)
        assert state.gains(np.array(cand)).tolist() == expected


def test_budget_additive_sum_is_correctly_rounded():
    # pairwise summation rounds 1 + 2**-53 + 2**-53 down to 1.0; the exact sum is
    # 1 + 2**-52.  A subnormal weight makes the sum's unit 2**-1074 and is not lost
    # either
    for tail in ([], [5e-324]):
        util = BudgetAdditiveUtility([1.0, 2**-53, 2**-53] + tail, alpha=1.0, beta=1.0, k=4)
        assert util.evaluate([0, 1, 2]).hex() == "0x1.0000000000001p-2"
        for order in itertools.permutations(range(util.n)):
            state = util._gain_state()
            for v in order:
                state.add(v)
            assert state.value().hex() == "0x1.0000000000001p-2"
    tiny = BudgetAdditiveUtility([5e-324, 5e-324, 2**-1022], alpha=1.0, beta=1.0, k=1)
    assert tiny.evaluate([0, 1, 2]) == 2**-1022 + 1e-323
    rng = np.random.default_rng(3)
    for trial in range(200):
        w = rng.uniform(0.0, 1.0, 12) ** rng.integers(1, 60, 12)  # long mantissas, many binades
        if trial % 2:
            w[rng.random(12) < 0.3] = rng.choice([5e-324, 3 * 2.0**-1070, 2**-1022])
        util = BudgetAdditiveUtility(w, alpha=1.0, beta=1.0, k=16)
        s = [int(i) for i in np.flatnonzero(rng.random(12) < 0.6)]
        assert util.evaluate(s) == math.fsum(w[s].tolist()) / 16


def test_linear_sum_is_correctly_rounded_in_any_order():
    # linear g is the weights' math.fsum, as budget-additive's is, whatever the order in
    # which the base is given or its state grew; a pairwise float sum misses the last bit
    # on some of these
    rng = np.random.default_rng(41)
    for _ in range(200):
        w = rng.uniform(0.0, 1.0, 16) ** rng.integers(1, 30, 16)  # many binades
        util = LinearUtility(w)
        s = [int(i) for i in rng.permutation(16)[:int(rng.integers(0, 17))]]
        expected = math.fsum(w[s].tolist()).hex()
        assert util.evaluate(s).hex() == util.evaluate(s[::-1]).hex() == expected
        state = util._gain_state()
        for v in s:
            state.add(v)
        assert state.value().hex() == expected


def test_linear_sum_beyond_the_float_range_is_inf():
    # the exact sum rounds to inf, with no RuntimeWarning (an error in this suite) and no
    # OverflowError from the int division
    util = LinearUtility([1e308, 1e308])
    assert util.evaluate([0, 1]) == math.inf
    assert util.evaluate([1]) == 1e308


def test_a_subclass_has_only_the_capabilities_it_states():
    # _fixed (gains never change) and _bounded (monotone submodular by construction) hold
    # for the kind that states them; a subclass reads False unless it states them again,
    # and its sweep then gets the plain gain state
    kinds = {LinearUtility: (True, True), ConstantZeroUtility: (True, True),
             CoverageUtility: (False, True), BudgetAdditiveUtility: (False, True),
             MarginSimilarityUtility: (False, False), TabulatedUtility: (False, False)}
    for kind, capabilities in kinds.items():
        assert (kind._fixed, kind._bounded) == capabilities, kind
        sub = type("Sub", (kind,), {})
        assert (sub._fixed, sub._bounded) == (False, False), kind
        restated = type("Restated", (kind,), {"_fixed": kind._fixed, "_bounded": kind._bounded})
        assert (restated._fixed, restated._bounded) == capabilities, kind
        deeper = type("Deeper", (restated,), {})
        assert (deeper._fixed, deeper._bounded) == (False, False), kind
    sub = type("Sub", (LinearUtility,), {})([0.5, 0.25])
    linear = LinearUtility([0.5, 0.25])
    for utility, fixed in ((sub, False), (linear, True)):  # the sweep's state counts into its run
        run = _Run(utility)
        state = utility._sweep_state(run)
        assert (type(state) is _FixedGains, state.run, run.count) == (fixed, run, 2 if fixed else 0)


def test_a_zero_utility_of_any_size_holds_one_zero():
    # its weights and units broadcast one zero, so a size read from a file allocates nothing
    util = ConstantZeroUtility(10**12)
    assert util.weights.strides == util._mant.strides == util._sh.strides == (0,)
    assert util.evaluate([0, 10**12 - 1]) == 0.0
    assert util.batch_marginal([5, 7], [0]).tolist() == [0.0, 0.0]


def test_budget_additive_units_and_gains_are_the_literal_formula_in_every_regime():
    # each point's unit, mant << sh, is its weight times _den exactly; a state's gains are
    # alpha * min((fsum(S) + w) / k, beta) - g(S) by float.hex whether every candidate is
    # past the cap (capped), none reaches it (free) or the cap falls among them
    rng = np.random.default_rng(22)
    u = rng.uniform(0.0, 1.0, 12)
    families = [u ** rng.integers(1, 30, 12),  # many binades
                np.where(rng.random(12) < 0.4, rng.choice([5e-324, 1e-310, 2**-1022], 12), u),
                np.array([0.0, -0.0, 1.0, 0.5, 0.25, 0.25, 5e-324, 1e-310, 0.75, 0.0, 1.0, 0.125]),
                np.full(12, 0.3)]
    seen = set()
    for w in families:
        for alpha, beta, k in itertools.product((0.0, 0.5, 0.95, 1.0), (0.0, 0.1, 0.375, 0.75, 1.0),
                                                (1, 2, 12, 25)):
            util = BudgetAdditiveUtility(w, alpha, beta, k)
            units = [m << s for m, s in zip(util._mant.tolist(), util._sh.tolist())]
            assert units == [Fraction(x) * util._den for x in w.tolist()]
            assert min(util._sh.tolist()) >= 0
            for _ in range(3):
                s = sorted(int(i) for i in np.flatnonzero(rng.random(12) < rng.random()))
                cand = np.array([v for v in range(12) if v not in s], dtype=np.intp)
                total = math.fsum(w[s].tolist())
                g = alpha * min(total / k, beta)
                expected = [(alpha * min((total + x) / k, beta) - g).hex() for x in w[cand].tolist()]
                state = _BudgetGains(util, s)
                assert [x.hex() for x in state.gains(cand).tolist()] == expected
                assert [x.hex() for x in util.batch_marginal(cand, s).tolist()] == expected
                assert state.value().hex() == g.hex()
                seen.add("capped" if state.capped else "free" if state.free else "straddling")
    assert seen == {"capped", "free", "straddling"}
    # a selection exactly at the cap: avg == beta, so every gain is +0.0
    util = BudgetAdditiveUtility([0.5, 0.25, 0.25, 1.0], alpha=0.95, beta=0.375, k=2)
    state = _BudgetGains(util, [0, 1])
    assert state.capped and state.value() == 0.95 * 0.375
    assert [x.hex() for x in state.gains(np.array([2, 3])).tolist()] == ["0x0.0p+0"] * 2


def test_float_parameters_and_weights_must_be_numbers():
    # booleans, strings and None are no numbers, as in the embeddings loader
    for bad in (True, np.True_, "0.5", None):
        for params in ({"alpha": bad, "beta": 0.5}, {"alpha": 0.9, "beta": bad}):
            with pytest.raises(InputError, match="must be numbers"):
                BudgetAdditiveUtility([0.5, 0.5], k=2, **params)
        for params in ({"alpha_s": bad}, {"beta_s": bad}):
            with pytest.raises(InputError, match="finite and nonnegative"):
                MarginSimilarityUtility([0.5, 0.5], edges=[(0, 1, 0.5)], **params)
        with pytest.raises(InputError, match="must be numbers"):
            MarginSimilarityUtility([0.5, 0.5], edges=[(0, 1, bad)])
    for bad in (["0.5", 0.2, 0.9], [True, 0.2, 0.9], [np.True_, 0.2, 0.9], [None, 0.2, 0.9],
                np.array([True, False, True]), np.array(["0.5", "0.2", "0.9"]),
                np.array([0.5, 0.2, None], dtype=object)):
        for make in (LinearUtility, lambda w: BudgetAdditiveUtility(w, 0.9, 0.5, 2),
                     lambda w: MarginSimilarityUtility(w, edges=[])):
            with pytest.raises(InputError, match="must be numbers"):
                make(bad)
    for bad in ([[0.0, True], [True, 0.0]], [[0.0, "1"], ["1", 0.0]]):
        with pytest.raises(InputError, match="must be numbers"):
            MarginSimilarityUtility([0.5, 0.5], similarity=bad)
    with pytest.raises(InputError, match="must be numbers"):
        TabulatedUtility(1, [0.0, "1.0"])
    with pytest.raises(InputError, match="must be numbers"):
        TabulatedUtility(1, [False, True])
    # ints, floats, numpy numbers and numeric arrays pass, as before
    for good in ([1, 0.5, 0], [np.float64(1.0), np.float32(0.5), np.int64(0)], (1, 0.5, 0),
                 np.array([1.0, 0.5, 0.0], dtype=np.float32), np.array([2, 1, 0]) / 2):
        assert LinearUtility(good).weights.tolist() == [1.0, 0.5, 0.0]
        assert BudgetAdditiveUtility(good, np.float64(0.9), 1, 2).beta == 1.0
    assert LinearUtility(np.array([2, 0], dtype=np.uint8)).weights.tolist() == [2.0, 0.0]


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


def test_margin_similarity_declares_submodular_only_without_negative_similarities():
    # a negative similarity makes a pair worth more than its parts
    sim = np.zeros((3, 3))
    sim[0, 1] = sim[1, 0] = -1.0
    for params in ({"edges": [(0, 1, -1.0)]}, {"similarity": sim}):
        util = MarginSimilarityUtility([1.0, 1.0, 1.0], **params)
        assert not util.submodular_declared
        assert check_monotone_submodular(util, exhaustive=True).submodularity_violation_count == 6
    sim[0, 1] = sim[1, 0] = 0.5
    np.fill_diagonal(sim, -1.0)  # the diagonal is ignored
    for params in ({"edges": [(0, 1, 0.5), (1, 2, 0.0)]}, {"similarity": sim}):
        util = MarginSimilarityUtility([1.0, 1.0, 1.0], **params)
        assert util.submodular_declared
        assert check_monotone_submodular(util, exhaustive=True).submodularity_violation_count == 0


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
    for bad in (np.nan, np.inf, -0.5):  # finite and nonnegative, as lam
        for params in ({"alpha_s": bad}, {"beta_s": bad}):
            with pytest.raises(InputError, match="finite and nonnegative"):
                MarginSimilarityUtility([0.5, 0.5], edges=[(0, 1, 0.5)], **params)
    for make in (lambda: CoverageUtility([[1.5], [1.2], [2.9]]),  # non-integral integers
                 lambda: CoverageUtility([[1], [2]], universe_size=5.5),
                 lambda: ConstantZeroUtility(3.7),
                 lambda: CoverageUtility([[True], [False]]),  # booleans are no ids
                 lambda: CoverageUtility([[np.True_], [2]]),
                 lambda: TabulatedUtility(2.5, [0.0] * 4),
                 lambda: TabulatedUtility(None, [0.0] * 4),
                 lambda: CoverageUtility([["a"]]),  # strings, NaN, None and inf are no ids
                 lambda: CoverageUtility([[float("nan")]]),
                 lambda: CoverageUtility([[None]]),
                 lambda: CoverageUtility([[float("inf")]]),
                 lambda: BudgetAdditiveUtility([0.5], alpha=0.9, beta=0.5, k="2")):
        with pytest.raises(InputError, match="must be an integer"):
            make()
    # an edge endpoint follows the index rule of every point index
    with pytest.raises(InputError, match="similarity edge indices must be integers"):
        MarginSimilarityUtility([0.5, 0.5], edges=[(0.5, 1, 0.2)])
    with pytest.raises(InputError, match="similarity edge index out of range"):
        MarginSimilarityUtility([0.5, 0.5], edges=[(0, 2, 0.2)])


def test_tabulated_from_function_checks_n_before_calling():
    def fn(s):
        raise AssertionError("fn called")

    for n in (40, -1, 2.5):
        with pytest.raises(InputError, match="tabulated"):
            TabulatedUtility.from_function(n, fn)


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
