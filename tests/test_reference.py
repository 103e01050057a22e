"""``gist`` and ``simple_baseline`` against the literal reference in
``reference.py``: selections, f/g/div and the winning threshold must match
exactly, on random and degenerate inputs."""

import numpy as np
import pytest

import reference
from divsel import ConstantZeroUtility, Instance, LinearUtility, Problem, gist, simple_baseline
from support import make_utility, random_metric_instance


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

UTILITIES = {
    "coverage": lambda rng, n, k: make_utility("coverage", rng, n, k),
    "budget": lambda rng, n, k: make_utility("budget", rng, n, k),
    "linear": lambda rng, n, k: make_utility("linear", rng, n, k),
    "tied-integers": lambda rng, n, k: LinearUtility(rng.integers(0, 3, n).astype(float)),
    "zero": lambda rng, n, k: ConstantZeroUtility(n),
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
