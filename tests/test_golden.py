"""Golden output digests.

``GOLDEN``: every field of every solver's ``Solution``, each utility's
``marginal`` and ``batch_marginal`` values and its sampled
``check_monotone_submodular`` report, over a small seeded grid, hashed into
one SHA-256 with floats as ``float.hex``.  ``GOLDEN_EXACT``: the exact layer
over the same grid's cells with n <= 5, that is ``brute_force_opt``,
``brute_force_constrained`` at two floors and the exhaustive property
report, each with the queries it made.
A change meant to keep outputs bit for bit leaves both digests as they are; a
change meant to alter an output records the new digest and says why.

Matrix and Euclidean instances only: the cosine matrix goes through BLAS
gemm, whose rounding may differ between builds.
"""

import hashlib
import math

import numpy as np

from divsel import (
    BudgetAdditiveUtility,
    ConstantZeroUtility,
    CoverageUtility,
    Instance,
    LinearUtility,
    MarginSimilarityUtility,
    Problem,
    TabulatedUtility,
    brute_force_constrained,
    brute_force_opt,
    check_monotone_submodular,
    classic_greedy,
    gist,
    random_baseline,
    simple_baseline,
)

GOLDEN = "d4cf17d74a48b71e7914c95e54833e665fbbe129bc10adcf42fe21b3c12b3ed8"
GOLDEN_EXACT = "e90141513f124db0ce7332cab925ff9e3a5d64b53cec8347b5fcd894cfcd317d"


def instances(rng, n):
    """Two matrix and two Euclidean instances over ``n`` points, with ties."""
    tied = np.triu(rng.integers(1, 4, (n, n)).astype(float), 1)
    box = np.triu(rng.uniform(1.0, 2.0, (n, n)), 1)
    yield Instance.from_matrix(tied + tied.T)
    yield Instance.from_matrix(box + box.T)
    yield Instance.from_euclidean(rng.standard_normal((n, 3)))
    yield Instance.from_euclidean(rng.integers(0, 2, (n, 2)))  # duplicate points


def utilities(rng, n, k):
    """One utility of each kind over ``n`` points."""
    weights = rng.uniform(0.0, 1.0, n)
    uncertainty = rng.uniform(0.0, 2.0, n)
    sim = np.triu(rng.uniform(-1.0, 1.0, (n, n)), 1)
    edges = [(i, j, float(sim[i, j])) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.5]
    family = [[int(e) for e in np.flatnonzero(rng.random(10) < 0.3)] for _ in range(n)]
    yield LinearUtility(weights)
    yield CoverageUtility(family, 10)
    yield BudgetAdditiveUtility(weights, alpha=0.95, beta=0.75, k=k)
    yield MarginSimilarityUtility(uncertainty, edges=edges)
    yield MarginSimilarityUtility(uncertainty, similarity=sim + sim.T, alpha_s=0.7, beta_s=0.3)
    yield ConstantZeroUtility(n)
    yield TabulatedUtility.from_function(n, lambda s: math.sqrt(weights[list(s)].sum()))


def solution_fields(sol):
    return tuple(x.hex() if isinstance(x, float) else x for x in (
        sol.selected, sol.f_value, sol.g_value, sol.div_value, sol.algorithm,
        sol.oracle_calls, sol.winning_threshold, sol.seed))


def grid(sizes):
    """``(inst, k, lam, util, base)`` for each cell over ``sizes`` points."""
    for n in sizes:
        rng = np.random.default_rng(n)
        for inst in instances(rng, n):
            k = int(rng.integers(1, n + 1))
            lam = float(rng.choice([0.0, 0.3, 2.0]))
            for util in utilities(rng, n, k):
                yield inst, k, lam, util, [int(i) for i in np.flatnonzero(rng.random(n) < 0.4)]


def records():
    for inst, k, lam, util, base in grid((1, 5, 9)):
        n = util.n
        cand = [v for v in range(n) if v not in base]
        yield util.kind, [util.marginal(v, base).hex() for v in cand]
        yield util.kind, util.batch_marginal(cand, base).tobytes().hex()
        yield repr(check_monotone_submodular(util, trials=40, seed=n))
        for schedule in ("geometric", "exhaustive"):
            problem = Problem(inst, util, lam=lam, k=k, epsilon=0.2, schedule=schedule)
            for sol in (gist(problem), simple_baseline(problem),
                        classic_greedy(problem), random_baseline(problem, seed=3)):
                yield solution_fields(sol)


def exact_fields(exact):
    value = None if exact.opt_value is None else exact.opt_value.hex()
    return value, exact.witness, exact.subsets_examined, exact.feasible


def exact_records():
    for inst, k, lam, util, _ in grid((1, 5)):
        before = util.query_count
        yield repr(check_monotone_submodular(util, exhaustive=True)), util.query_count - before
        yield exact_fields(brute_force_opt(Problem(inst, util, lam=lam, k=k)))
        for d in (inst.d_max / 2.0, inst.d_max):
            yield exact_fields(brute_force_constrained(inst, util, d, k))
        yield util.query_count - before


def digest(records):
    h = hashlib.sha256()
    for record in records:
        h.update(repr(record).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_golden_digest():
    assert digest(records()) == GOLDEN


def test_golden_exact_digest():
    assert digest(exact_records()) == GOLDEN_EXACT
