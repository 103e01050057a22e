"""Core domain types: a point set with a metric, the utility-oracle interface,
and the combined utility-plus-diversity objective.

The objective maximized throughout this package is

    f(S) = g(S) + lam * div(S),      |S| <= k,

where ``g`` is a set-utility function queried through :class:`UtilityOracle`
and ``div(S)`` is the minimum pairwise distance within ``S`` (the diameter of
the whole ground set when ``|S| <= 1``, which makes ``div`` monotone
non-increasing under inclusion).
"""

from __future__ import annotations

import bisect
import math
import threading
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError

METRIC_KINDS = ("matrix", "euclidean", "cosine")
SCHEDULES = ("geometric", "exhaustive")

#: Relative tolerance for comparisons of objective values.
VALUE_RTOL = 1e-9
#: Absolute slack allowed when validating the triangle inequality.
TRIANGLE_ATOL = 1e-9
#: Largest instance for which the O(n^3) triangle validation may run.
TRIANGLE_CHECK_MAX_N = 512
#: Largest dense distance matrix (in bytes) an instance may allocate.
DENSE_MAX_BYTES = 2**31


def canonical_subset(subset: Iterable[int], n: int) -> tuple[int, ...]:
    """Return ``subset`` as a sorted, deduplicated, range-checked index tuple."""
    s = tuple(sorted(set(_indices(subset, "subset"))))
    if s and (s[0] < 0 or s[-1] >= n):
        raise InputError(f"subset index out of range for ground set of size {n}: {s}")
    return s


#: Booleans equal 0 and 1 but are no integers here.
_BOOLS = frozenset((bool, np.bool_))


def _indices(items: Iterable, what: str) -> list[int]:
    """``items`` as ints under the rule of :func:`integral`: plain ints as they are
    (an array's are made plain by ``tolist``), anything else through one list
    comparison and a type check."""
    items = items.tolist() if isinstance(items, np.ndarray) else list(items)
    types = set(map(type, items))
    if types <= {int}:  # plain ints, the common case (a bool's type is bool)
        return items
    try:
        ints = list(map(int, items))
    except (TypeError, ValueError, OverflowError):  # None, NaN, inf
        ints = None
    if ints != items or types & _BOOLS:
        raise InputError(f"{what} indices must be integers, got {items!r}")
    return ints


def integral(x, what: str) -> int:
    """``x`` as an int when it equals one: 3, 3.0 and np.int64(3) pass; 3.5, "3",
    NaN, inf, None and booleans raise InputError."""
    try:
        i = int(x)
    except (TypeError, ValueError, OverflowError):
        i = None  # a sentinel: x may itself be None
    if i is None or i != x or type(x) in _BOOLS:
        raise InputError(f"{what} must be an integer, got {x!r}")
    return i


def _budget(k, what: str = "budget k") -> int:
    """The one budget rule: ``k`` as an int by :func:`integral`, at least 1."""
    k = integral(k, what)
    if k < 1:
        raise InputError(f"{what} must be >= 1, got {k}")
    return k


def _run_args(instance: Instance, utility: UtilityOracle, d: float, k) -> int:
    """The one gate for a run's arguments: the sizes match, ``d`` is a
    nonnegative number and ``k`` meets :func:`_budget`; returns ``k`` as an int."""
    if utility.n != instance.n:
        raise InputError(f"utility and instance sizes differ: {utility.n} and {instance.n} points")
    if not d >= 0:
        raise InputError(f"distance threshold must be a nonnegative number, got {d}")
    return _budget(k)


def _mirror_upper(d: np.ndarray) -> None:
    """Mirror the strict upper triangle of ``d`` and zero the diagonal, in place by row tiles."""
    for i0 in range(0, len(d), 256):
        d[i0:i0 + 256, :i0] = d[:i0, i0:i0 + 256].T
        tile = d[i0:i0 + 256, i0:i0 + 256]
        np.copyto(tile, tile.T, where=np.tri(len(tile), k=-1, dtype=bool))
    np.fill_diagonal(d, 0.0)


class Instance:
    """Ground set of ``n`` points together with a metric.

    Three metric forms are supported:

    * ``"matrix"``   -- an explicit dense, symmetric, nonnegative distance matrix;
    * ``"euclidean"``-- coordinates in R^d under the Euclidean distance;
    * ``"cosine"``   -- unit vectors under ``dist(u, v) = 1 - <u, v>`` (rows are
      normalized on construction; note this distance may violate the triangle
      inequality, which is why the triangle check applies to matrices only).

    The full pairwise distance matrix is materialized lazily and cached (above
    ``DENSE_MAX_BYTES`` it raises :class:`InputError`); ``d_max`` is its maximum.
    Instances are immutable after construction and safe to share across threads: a
    lock lets one thread fill each lazy cache, so two never build an n^2 array at once.
    """

    def __init__(
        self,
        metric: str,
        *,
        points: Sequence[Sequence[float]] | np.ndarray | None = None,
        matrix: Sequence[Sequence[float]] | np.ndarray | None = None,
        validate_triangle: bool = False,
    ):
        if metric not in METRIC_KINDS:
            raise InputError(f"unknown metric kind {metric!r}; expected one of {METRIC_KINDS}")
        self.metric = metric
        self._points: np.ndarray | None = None
        self._pairwise: np.ndarray | None = None
        self._sorted_pair_distances: np.ndarray | None = None
        self._diameter: tuple[float, tuple[int, int]] | None = None
        self._lock = threading.RLock()
        self.max_unit_deviation = 0.0

        if metric == "matrix":
            if matrix is None or points is not None:
                raise InputError("matrix metric requires 'matrix' and forbids 'points'")
            try:
                m = np.array(matrix, dtype=np.float64)
            except ValueError as exc:
                raise InputError(f"malformed distance matrix: {exc}") from exc
            self._validate_matrix(m, validate_triangle)
            m.setflags(write=False)
            self._pairwise = m
            self.n = m.shape[0]
        else:
            if points is None or matrix is not None:
                raise InputError(f"{metric} metric requires 'points' and forbids 'matrix'")
            try:
                p = np.array(points, dtype=np.float64)
            except ValueError as exc:
                raise InputError(f"malformed point list: {exc}") from exc
            if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 1:
                raise InputError("points must be a nonempty 2-D array")
            if not np.isfinite(p).all():
                raise InputError("points must be finite")
            if metric == "cosine":
                norms = np.linalg.norm(p, axis=1)
                if (norms == 0).any():
                    raise InputError("cosine metric requires nonzero vectors")
                self.max_unit_deviation = float(np.abs(norms - 1.0).max())
                p = p / norms[:, None]
            p.setflags(write=False)
            self._points = p
            self.n = p.shape[0]

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_matrix(cls, matrix, validate_triangle: bool = False) -> "Instance":
        return cls("matrix", matrix=matrix, validate_triangle=validate_triangle)

    @classmethod
    def from_euclidean(cls, points) -> "Instance":
        return cls("euclidean", points=points)

    @classmethod
    def from_cosine(cls, points) -> "Instance":
        return cls("cosine", points=points)

    @property
    def points(self) -> np.ndarray | None:
        """Coordinates for euclidean/cosine instances; None for matrix instances."""
        return self._points

    # -- validation ---------------------------------------------------------

    @staticmethod
    def _validate_matrix(m: np.ndarray, validate_triangle: bool) -> None:
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise InputError("distance matrix must be square and nonempty")
        if not np.isfinite(m).all():
            raise InputError("distance matrix must be finite")
        if (np.diagonal(m) != 0.0).any():
            raise InputError("distance matrix must have an exactly zero diagonal")
        if not (m == m.T).all():
            raise InputError("distance matrix must be exactly symmetric")
        if (m < 0).any():
            raise InputError("distances must be nonnegative")
        if validate_triangle:
            Instance._validate_triangle(m)

    @staticmethod
    def _validate_triangle(m: np.ndarray) -> None:
        n = m.shape[0]
        if n > TRIANGLE_CHECK_MAX_N:
            raise InputError(
                f"triangle validation is an O(n^3) check limited to n <= {TRIANGLE_CHECK_MAX_N}"
            )
        for via in range(n):
            bound = m[:, via][:, None] + m[via, :][None, :]
            bad = m > bound + TRIANGLE_ATOL
            if bad.any():
                i, j = map(int, np.argwhere(bad)[0])
                raise InputError(
                    f"triangle inequality violated: dist({i},{j})={m[i, j]} > "
                    f"dist({i},{via})+dist({via},{j})={bound[i, j]}"
                )

    # -- distances ----------------------------------------------------------

    def distance_matrix(self) -> np.ndarray:
        """Full pairwise distance matrix (cached, read-only)."""
        if self._pairwise is None:
            if 8 * self.n**2 > DENSE_MAX_BYTES:
                raise InputError(f"dense distance matrix for n={self.n} exceeds {DENSE_MAX_BYTES} B")
            with self._lock:
                if self._pairwise is None:
                    if self.metric == "euclidean":  # scipy's import is costly: only here
                        from scipy.spatial.distance import pdist, squareform
                        d = squareform(pdist(self._points))
                    else:  # cosine; dist = 1 - dot on unit rows, in place
                        d = self._points @ self._points.T
                        np.subtract(1.0, d, out=d)
                        np.maximum(d, 0.0, out=d)
                        _mirror_upper(d)  # exact symmetry
                    d.setflags(write=False)
                    self._pairwise = d
        return self._pairwise

    def dist(self, i: int, j: int) -> float:
        i, j = _indices((i, j), "point")
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise InputError(f"point index out of range: ({i}, {j})")
        return float(self.distance_matrix()[i, j])

    def distance_row(self, i: int) -> np.ndarray:
        """Distances from point ``i`` to every point (read-only view)."""
        return self.distance_matrix()[i]

    def pair_distances_sorted(self) -> np.ndarray:
        """All n*(n-1)/2 pairwise distances, sorted ascending (cached; exhaustive schedule only)."""
        if self._sorted_pair_distances is None:
            with self._lock:
                if self._sorted_pair_distances is None:
                    m = self.distance_matrix()  # before the n^2 mask, so both are never built at once
                    vals = np.sort(m[~np.tri(self.n, dtype=bool)])  # i < j, in row-major order
                    vals.setflags(write=False)
                    self._sorted_pair_distances = vals
        return self._sorted_pair_distances

    @property
    def d_max(self) -> float:
        """Diameter of the ground set, the matrix maximum (cached); 0 below two points."""
        if self._diameter is None:
            with self._lock:
                if self._diameter is None:
                    m = self.distance_matrix()  # read-only: np.argmax(m) would copy it
                    # symmetric with a zero diagonal: the first row-major maximum has i < j
                    i = int(np.argmax(m.max(axis=1)))
                    if m[i].max() > 0.0:
                        self._diameter = (float(m[i].max()), (i, int(np.argmax(m[i]))))
                    else:  # no two points apart: zero with the sign the sorted pairs end with
                        vals = self.pair_distances_sorted()
                        self._diameter = (float(vals[-1]) if vals.size else 0.0, (0, 1))
        return self._diameter[0]

    def diametrical_pair(self) -> tuple[int, int]:
        """Lexicographically smallest pair (i < j) at distance d_max; (0, 1) if d_max is 0."""
        if self.n < 2:
            raise InputError("diametrical pair requires at least two points")
        self.d_max  # fills the cached pair
        return self._diameter[1]


class QueryCounter:
    """Thread-safe monotone counter of value-oracle queries.

    The lock keeps ``+=``, a read-modify-write, from losing counts across threads.
    It is ~0.3 us of each ~0.4 us ``add``: about 1% of a ``lowdim-exhaustive`` request."""

    __slots__ = ("_lock", "_count")

    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0

    def add(self, amount: int = 1) -> None:
        with self._lock:
            self._count += amount

    @property
    def count(self) -> int:
        return self._count


class UtilityOracle:
    """Base class for set-utility functions ``g`` queried by value.

    Accounting convention: every call to :meth:`evaluate` and every marginal
    gain (single or batched, one per candidate) counts as one value-oracle
    query, matching the usual oracle-complexity model in which ``g(S)`` is
    already known when a marginal ``g(S + v) - g(S)`` is requested.  Solvers
    ask an exact :class:`LinearUtility` or :class:`ConstantZeroUtility` (not a
    subclass) for each point's gain once per sweep, since it never changes.

    A kind supplies ``g`` through three hooks, each given a sorted index tuple
    ``s`` and counting no queries:

    * ``_value(s)``, required: g(S).
    * ``_batch_marginal(cand, s)``, optional, for gains that need no running
      state: each candidate's g(S + v) - g(S).  The default takes value
      differences, computing g(S) once per call.  A gain must not depend on
      the rest of the batch, bit for bit: the sweep scores a superset of some
      runs' candidates.
    * ``_gain_state(base)``, optional, where state kept across a growing
      selection pays (coverage, budget-additive): a :class:`_GainState` subclass.

    The public ``marginal`` is ``batch_marginal`` of one candidate, and both
    reach the hooks through ``_gain_state``, as the solvers do.  Parameters
    are immutable; the query counter is the only mutable state.
    """

    kind: str = "abstract"

    def __init__(self, n: int, *, monotone_declared: bool, submodular_declared: bool):
        self.n = integral(n, "utility ground set size")
        if self.n < 1:
            raise InputError("utility requires a nonempty ground set")
        self.monotone_declared = bool(monotone_declared)
        self.submodular_declared = bool(submodular_declared)
        self._queries = QueryCounter()

    @property
    def query_count(self) -> int:
        return self._queries.count

    def evaluate(self, subset: Iterable[int]) -> float:
        """g(S).  Counts one query."""
        s = canonical_subset(subset, self.n)
        self._queries.add(1)
        return self._value(s)

    def marginal(self, v: int, subset: Iterable[int]) -> float:
        """g(S + v) - g(S) for v not in S.  Counts one query."""
        return float(self.batch_marginal([v], subset)[0])

    def batch_marginal(self, candidates: Sequence[int], subset: Iterable[int]) -> np.ndarray:
        """Marginal gain of each candidate against the same base set.

        Counts one query per candidate.
        """
        s = canonical_subset(subset, self.n)
        cand = np.array(_indices(candidates, "candidate"), dtype=np.intp)
        if cand.size and (cand.min() < 0 or cand.max() >= self.n):
            raise InputError("candidate index out of range")
        if set(map(int, cand)) & set(s):
            raise InputError("candidates must be disjoint from the base set")
        return self._gain_state(s).gains(cand)

    def _gain_state(self, base: Iterable[int] = ()) -> "_GainState":
        return _GainState(self, base)

    # -- kind-specific internals (no query accounting) -----------------------

    def _value(self, s: tuple[int, ...]) -> float:
        raise NotImplementedError

    def _batch_marginal(self, cand: np.ndarray, s: tuple[int, ...]) -> np.ndarray:
        base = self._value(s)
        return np.array([self._value(tuple(sorted(s + (int(v),)))) - base for v in cand],
                        dtype=np.float64)


class _GainState:
    """Gains against a growing selection, unchecked: callers pass in-range candidates
    disjoint from it.  ``gains`` counts one query per candidate; ``add`` grows the
    selection.  This default asks ``_batch_marginal`` against the sorted selection ``s``;
    a kind with its own gains overrides ``_gains``, and ``add`` if it keeps more state."""

    def __init__(self, utility: UtilityOracle, base: Iterable[int] = ()):
        self.utility, self.s = utility, tuple(sorted(base))

    def gains(self, cand: np.ndarray) -> np.ndarray:
        self.utility._queries.add(int(cand.size))
        return np.asarray(self._gains(cand), dtype=np.float64)

    def _gains(self, cand: np.ndarray) -> np.ndarray:
        return self.utility._batch_marginal(cand, self.s)

    def add(self, v: int) -> None:
        i = bisect.bisect(self.s, v)
        self.s = self.s[:i] + (int(v),) + self.s[i:]


@dataclass(frozen=True)
class Problem:
    """A solvable configuration: instance + utility + objective parameters.

    ``lam`` weighs the diversity term, ``k`` is the cardinality budget,
    ``epsilon`` controls the geometric threshold schedule, and ``schedule``
    chooses between the geometric grid and the exhaustive grid of all
    half-distances.  The instance and utility pass the gate of the solvers
    called without a Problem, and ``k`` the one budget rule (``3.0`` is
    stored as the int 3; booleans are refused) and ``k <= n``.
    """

    instance: Instance
    utility: UtilityOracle
    lam: float
    k: int
    epsilon: float = 0.1
    schedule: str = "geometric"

    def __post_init__(self):
        object.__setattr__(self, "k", _run_args(self.instance, self.utility, 0.0, self.k))
        if self.k > self.instance.n:
            raise InputError(f"cardinality budget {self.k} exceeds ground set size {self.instance.n}")
        if not 0.0 < self.epsilon < 1.0:
            raise InputError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not 0.0 <= self.lam < math.inf:
            raise InputError(f"lam must be finite and nonnegative, got {self.lam}")
        if self.schedule not in SCHEDULES:
            raise InputError(f"unknown schedule {self.schedule!r}; expected one of {SCHEDULES}")

    def with_schedule(self, schedule: str) -> "Problem":
        return Problem(self.instance, self.utility, self.lam, self.k, self.epsilon, schedule)


@dataclass(frozen=True)
class Solution:
    """Result of one algorithm run.

    ``winning_threshold`` is the distance threshold whose candidate won
    (0.0 for the plain greedy pass, ``None`` when a diametrical pair or an
    algorithm without thresholds produced the set).  ``oracle_calls`` counts
    the utility value queries issued during the run.
    """

    selected: tuple[int, ...]
    f_value: float
    g_value: float
    div_value: float
    algorithm: str
    oracle_calls: int
    winning_threshold: float | None = None
    seed: int | None = None


def div(instance: Instance, subset: Iterable[int]) -> float:
    """Minimum pairwise distance within ``subset``.

    Returns the ground-set diameter for sets of size <= 1 (including the
    empty set), which keeps the function monotone non-increasing.
    """
    s = canonical_subset(subset, instance.n)
    if len(s) <= 1:
        return instance.d_max
    sub = instance.distance_matrix()[np.ix_(s, s)]
    np.fill_diagonal(sub, np.inf)
    return float(sub.min())


def objective(problem: Problem, subset: Iterable[int]) -> tuple[float, float, float]:
    """Evaluate f(S) = g(S) + lam * div(S); returns ``(f, g, div)``.

    Issues exactly one utility query.
    """
    g = problem.utility.evaluate(subset)
    d = div(problem.instance, subset)
    return g + problem.lam * d, g, d


def distance_thresholds(problem: Problem) -> list[float]:
    """The list of distance thresholds swept by the threshold search.

    Geometric schedule: ``{(1+eps)^i * eps*d_max/2 : (1+eps)^i <= 2/eps}``,
    strictly increasing.  Exhaustive schedule: the sorted deduplicated set of
    half pairwise distances ``{dist(u, v)/2 : u != v}``.  Degenerate instances
    (fewer than two points, or diameter zero) yield an empty list.
    """
    return _thresholds(problem).tolist()


def _thresholds(problem: Problem) -> np.ndarray:
    """:func:`distance_thresholds` as a float array."""
    inst = problem.instance
    if inst.n < 2 or inst.d_max == 0.0:
        return np.empty(0)
    if problem.schedule == "exhaustive":
        vals = inst.pair_distances_sorted()
        if np.signbit(vals).any():  # -0.0 beside +0.0: keep the zero np.unique picks
            return np.unique(vals) / 2.0
        return vals[np.concatenate(([True], vals[1:] != vals[:-1]))] / 2.0
    eps = problem.epsilon
    base = eps * inst.d_max / 2.0
    out: list[float] = []
    i = 0
    while (1.0 + eps) ** i <= 2.0 / eps:
        out.append((1.0 + eps) ** i * base)
        i += 1
    return np.array(out)
