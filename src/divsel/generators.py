"""Constructive instance families.

Each generator packages an :class:`~divsel.core.Instance` with a matching
utility and recommended objective parameters:

* :func:`gen_gaussian` -- i.i.d. standard-normal points with uniform weights
  (the utility is built at solve time via :meth:`GeneratedInstance.budget_utility`);
* :func:`gen_greedy_hard` -- one far-apart pair, everything else equidistant;
  the objective-greedy stalls on the pair while large sets win;
* :func:`gen_nonsubmodular_example` -- four collinear points 0, 1, 2, 2 whose
  combined objective is not submodular (and not monotone unless the weighted
  variant is requested);
* :func:`gen_clique_reduction` -- distance 2 across edges of a given graph and
  1 elsewhere, with uniform weights alpha/k and lam = 1 - alpha: cliques are
  exactly the diverse sets;
* :func:`embed_graph` / :func:`gen_independent_set_reduction` -- a Euclidean
  embedding that puts non-adjacent nodes at distance exactly 1 and adjacent
  nodes strictly closer, so independent sets are exactly the diverse sets;
* :func:`gen_cover_reduction` -- one point per set of a coverage family, far
  apart iff disjoint (and in different groups, when groups are given).

All randomness is drawn from ``numpy.random.default_rng(seed)`` (PCG64;
normals via its ziggurat ``standard_normal``), so outputs are reproducible
for a fixed seed within one build of this package.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .core import Instance, Problem, UtilityOracle, _budget, _indices, integral
from .errors import InputError
from .utilities import (
    BudgetAdditiveUtility,
    ConstantZeroUtility,
    CoverageUtility,
    LinearUtility,
)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes 0..n-1 with canonical edge tuples."""

    n: int
    edges: tuple[tuple[int, int], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]]) -> "Graph":
        n = integral(n, "graph size n")
        if n < 1:
            raise InputError("graph needs at least one node")
        canon = []
        seen = set()
        for e in edges:
            u, v = _indices((e[0], e[1]), "edge endpoint", n)
            if u == v:
                raise InputError(f"self-loop on node {u} is not allowed")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise InputError(f"duplicate edge {key}")
            seen.add(key)
            canon.append(key)
        return cls(n=n, edges=tuple(sorted(canon)))

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    @property
    def max_degree(self) -> int:
        return max(self.degrees(), default=0) if self.n else 0


def random_bounded_degree_graph(
    n: int, max_degree: int, seed: int, target_edges: int | None = None
) -> Graph:
    """Random simple graph with max degree <= ``max_degree``.

    Candidate pairs are visited in a seeded random order and inserted greedily
    while both endpoints stay under the degree cap.
    """
    n = integral(n, "graph size n")
    if integral(max_degree, "max_degree") < 0:
        raise InputError("max_degree must be nonnegative")
    rng = np.random.default_rng(seed)
    pairs = list(itertools.combinations(range(n), 2))
    order = rng.permutation(len(pairs))
    if target_edges is None:
        target_edges = int(rng.integers(0, len(pairs) + 1)) if pairs else 0
    target_edges = integral(target_edges, "target_edges")
    deg = [0] * n
    edges = []
    for idx in order:
        if len(edges) >= target_edges:
            break
        u, v = pairs[int(idx)]
        if deg[u] < max_degree and deg[v] < max_degree:
            deg[u] += 1
            deg[v] += 1
            edges.append((u, v))
    return Graph.from_edges(n, edges)


@dataclass(frozen=True)
class GeneratedInstance:
    """An instance plus a matching utility and recommended parameters.

    ``utility`` is None for families whose utility depends on solve-time
    parameters (the Gaussian family binds its budget-additive cap at solve
    time); ``k`` is the recommended budget where the family implies one.
    """

    instance: Instance
    utility: UtilityOracle | None
    lam: float
    k: int | None
    family: str
    params: dict = field(default_factory=dict)
    seed: int | None = None

    def budget_utility(self, alpha: float, beta: float, k: int) -> BudgetAdditiveUtility:
        """Capped-average utility over this instance's stored weights."""
        if "weights" not in self.params:
            raise InputError(f"family {self.family!r} carries no per-point weights")
        return BudgetAdditiveUtility(self.params["weights"], alpha, beta, k)

    def to_problem(
        self,
        k: int | None = None,
        lam: float | None = None,
        epsilon: float = 0.1,
        schedule: str = "geometric",
        utility: UtilityOracle | None = None,
    ) -> Problem:
        util = utility if utility is not None else self.utility
        if util is None:
            raise InputError(f"family {self.family!r} requires an explicit utility")
        budget = k if k is not None else self.k
        if budget is None:
            raise InputError(f"family {self.family!r} requires an explicit budget k")
        return Problem(
            instance=self.instance,
            utility=util,
            lam=self.lam if lam is None else lam,
            k=budget,
            epsilon=epsilon,
            schedule=schedule,
        )


def gen_gaussian(n: int, dim: int, seed: int) -> GeneratedInstance:
    """n i.i.d. standard-normal points in R^dim with uniform [0, 1] weights."""
    n, dim = integral(n, "n"), integral(dim, "dim")
    if n < 1 or dim < 1:
        raise InputError("n and dim must be >= 1")
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((n, dim))
    weights = rng.uniform(0.0, 1.0, size=n)
    return GeneratedInstance(
        instance=Instance.from_euclidean(points),
        utility=None,
        lam=0.05,
        k=None,
        family="gaussian",
        params={"n": n, "dim": dim, "weights": weights},
        seed=seed,
    )


def gen_greedy_hard(n: int, k: int, eps_inst: float) -> GeneratedInstance:
    """Instance on which the objective greedy stalls at a single far pair.

    Points 0 and 1 sit at distance 2 + 2*eps_inst; every other pair is at
    1 + eps_inst (a valid metric: the far distance equals the two-hop sum).
    Utility is the cardinality function g(S) = |S| and lam = 1.  The greedy
    takes {0, 1} for value 4 + 2*eps_inst and then sees only negative gains,
    while any k points are worth k + 1 + eps_inst.
    """
    n, k = integral(n, "n"), _budget(k)
    if not n >= k >= 4:
        raise InputError("requires n >= k >= 4")
    if not 0.0 < eps_inst < 1.0:
        raise InputError("eps_inst must lie in (0, 1)")
    near = 1.0 + eps_inst
    far = 2.0 + 2.0 * eps_inst
    m = np.full((n, n), near)
    np.fill_diagonal(m, 0.0)
    m[0, 1] = m[1, 0] = far
    return GeneratedInstance(
        instance=Instance.from_matrix(m, validate_triangle=True),
        utility=LinearUtility(np.ones(n)),
        lam=1.0,
        k=k,
        family="greedy-hard",
        params={"n": n, "k": k, "eps_inst": eps_inst},
    )


def gen_nonsubmodular_example(monotone_variant: bool = False) -> GeneratedInstance:
    """Four collinear points 0, 1, 2, 2 (two of them coincide).

    With the zero utility the combined objective is neither monotone nor
    submodular; with ``monotone_variant`` every point gets weight 2, which
    makes the objective monotone but still not submodular.
    """
    points = [[0.0], [1.0], [2.0], [2.0]]
    utility: UtilityOracle = (
        LinearUtility([2.0, 2.0, 2.0, 2.0]) if monotone_variant else ConstantZeroUtility(4)
    )
    return GeneratedInstance(
        instance=Instance.from_euclidean(points),
        utility=utility,
        lam=1.0,
        k=2,
        family="nonsubmodular-example",
        params={"monotone_variant": monotone_variant},
    )


def gen_clique_reduction(graph: Graph, alpha: float, k: int) -> GeneratedInstance:
    """Distance 2 across edges, 1 across non-edges; weights alpha/k; lam = 1 - alpha.

    Selecting k points that form a clique is worth 2 - alpha; any non-clique
    selection drops the diversity term to 1.
    """
    if not 0.0 < alpha <= 1.0:
        raise InputError("alpha must lie in (0, 1]")
    k = _budget(k)
    if k > graph.n:
        raise InputError("k must lie in [1, n]")
    n = graph.n
    m = np.ones((n, n))
    np.fill_diagonal(m, 0.0)
    for u, v in graph.edges:
        m[u, v] = m[v, u] = 2.0
    return GeneratedInstance(
        instance=Instance.from_matrix(m, validate_triangle=True),
        utility=LinearUtility(np.full(n, alpha / k)),
        lam=1.0 - alpha,
        k=k,
        family="clique-reduction",
        params={"alpha": alpha, "k": k, "n": n, "edges": graph.edges},
    )


def embed_graph(graph: Graph) -> np.ndarray:
    """Embed graph nodes into R^(n+m) so distances encode adjacency.

    A self-loop is added to every node; each augmented edge (ordered
    lexicographically by its sorted endpoints) owns one coordinate, and node
    v puts sqrt(1 / (2 deg'(v))) into the coordinates of its incident edges.
    Non-adjacent nodes then sit at distance exactly 1, adjacent nodes at
    sqrt(1 - 1/sqrt(deg'(u) deg'(v))) <= 1 - 1/(2(max_degree + 1)).
    """
    n = graph.n
    augmented = sorted(list(graph.edges) + [(v, v) for v in range(n)])
    deg_aug = np.array(graph.degrees(), dtype=np.float64) + 1.0
    entry = np.sqrt(1.0 / (2.0 * deg_aug))
    h = np.zeros((n, len(augmented)))
    for col, (a, b) in enumerate(augmented):
        h[a, col] = entry[a]
        h[b, col] = entry[b]
    return h


def gen_independent_set_reduction(graph: Graph, alpha: float, k: int) -> GeneratedInstance:
    """Euclidean instance from :func:`embed_graph`; weights alpha/k; lam = 1 - alpha.

    Independent sets of size k are worth exactly 1; any adjacent pair caps the
    diversity term at 1 - 1/(2(max_degree + 1)).
    """
    if not 0.0 < alpha <= 1.0:
        raise InputError("alpha must lie in (0, 1]")
    k = _budget(k)
    if k > graph.n:
        raise InputError("k must lie in [1, n]")
    points = embed_graph(graph)
    return GeneratedInstance(
        instance=Instance.from_euclidean(points),
        utility=LinearUtility(np.full(graph.n, alpha / k)),
        lam=1.0 - alpha,
        k=k,
        family="independent-set-reduction",
        params={"alpha": alpha, "k": k, "n": graph.n, "max_degree": graph.max_degree,
                "edges": graph.edges},
    )


def gen_cover_reduction(
    family: Sequence[Iterable[int]],
    groups: Sequence[int] | None = None,
    lambda_override: float | None = None,
) -> GeneratedInstance:
    """One point per set of a coverage family.

    Two points sit at distance 2d when their sets are disjoint and belong to
    different groups, and at distance d otherwise, with d = (1 - 1/e) * U for
    U the size of the union of all sets.  Without group labels, disjointness
    alone decides.  The utility is coverage and lam defaults to 1.
    """
    sets = tuple(frozenset(integral(e, "set element") for e in f) for f in family)
    if not sets:
        raise InputError("set family must be nonempty")
    n = len(sets)
    if groups is not None:
        groups = tuple(integral(g, "group label") for g in groups)
        if len(groups) != n:
            raise InputError("groups must assign one label per set")
    union = frozenset().union(*sets)
    d = (1.0 - 1.0 / math.e) * len(union)
    m = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            apart = not (sets[i] & sets[j])
            if groups is not None:
                apart = apart and groups[i] != groups[j]
            m[i, j] = m[j, i] = 2.0 * d if apart else d
    return GeneratedInstance(
        instance=Instance.from_matrix(m, validate_triangle=True),
        utility=CoverageUtility(sets),
        lam=1.0 if lambda_override is None else float(lambda_override),
        k=None,
        family="cover-reduction",
        params={"n": n, "universe_size": len(union), "d": d,
                "groups": groups, "family": tuple(sorted(map(tuple, map(sorted, sets))))},
    )
