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
import functools
import math
import numbers
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
#: Rows per block when a Gram matrix's upper triangle is scanned or mirrored.
_BLOCK = 128
_BELOW = np.tri(_BLOCK, k=-1, dtype=bool)  # a block's entries below its diagonal


def canonical_subset(subset: Iterable[int], n: int) -> tuple[int, ...]:
    """Return ``subset`` as a sorted, deduplicated, range-checked index tuple."""
    return tuple(sorted(set(_indices(subset, "subset", n))))


#: Booleans equal 0 and 1 but are no integers here.
_BOOLS = frozenset((bool, np.bool_))


def _indices(items: Iterable, what: str, n: int) -> list[int]:
    """``items`` as ints under the rule of :func:`integral`, each in ``range(n)``, else
    InputError: plain ints as they are (an array's are made plain by ``tolist``),
    anything else through one list comparison and a type check."""
    items = items.tolist() if isinstance(items, np.ndarray) else list(items)
    types = set(map(type, items))
    if not types <= {int}:  # plain ints are the common case (a bool's type is bool)
        try:
            ints = list(map(int, items))
        except (TypeError, ValueError, OverflowError):  # None, NaN, inf
            ints = None
        if ints != items or types & _BOOLS:
            raise InputError(f"{what} indices must be integers, got {items!r}")
        items = ints
    if items and not 0 <= min(items) <= max(items) < n:
        raise InputError(f"{what} index out of range for ground set of size {n}: {items}")
    return items


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


def _real(x) -> bool:
    """Whether ``x`` is a real number and no boolean: the rule for every float parameter."""
    return isinstance(x, numbers.Real) and type(x) not in _BOOLS


def _float_array(values, what: str) -> np.ndarray:
    """``values`` as a new float64 array when every entry is a number by its exact type, as
    in the embeddings loader: an array of float or integer dtype, or nested sequences of
    ints, floats and numpy numbers.  A boolean, string, None, ragged row or an int beyond
    the float range raises InputError."""
    if isinstance(values, np.ndarray):
        numeric = values.dtype.kind in "fiu"
    else:  # bool is no int here, np.bool_ no np.integer
        numeric = all(t in (int, float) or issubclass(t, (np.integer, np.floating))
                      for t in set(map(type, np.array(values, dtype=object).flat)))
    if not numeric:
        raise InputError(f"{what} must be numbers, not booleans, strings, None or ragged rows")
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError as exc:  # an int beyond the float range
        raise InputError(f"{what} must be numbers in the float range: {exc}") from exc


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
    if not (_real(d) and d >= 0):
        raise InputError(f"distance threshold must be a nonnegative number, got {d!r}")
    return _budget(k)


def _unit_rows(p: np.ndarray, zero: str) -> tuple[np.ndarray, float]:
    """The finite rows of ``p`` over their norms, and the largest |norm - 1|.  The plain
    norm squares each entry, so a row whose norm under- or overflows (0 or inf) is divided
    by its largest magnitude first; every other row keeps the plain quotient's bits.  A
    zero row raises InputError(``zero``)."""
    with np.errstate(over="ignore"):  # an inf norm is taken again, scaled
        norms = np.linalg.norm(p, axis=1)
        deviation = np.abs(norms - 1.0)
        odd = (norms == 0.0) | (norms == np.inf)
        if odd.any():
            scale = np.abs(p[odd]).max(axis=1)
            if not scale.all():
                raise InputError(zero)
            p, norms = p.copy(), norms.copy()
            p[odd] /= scale[:, None]
            norms[odd] = np.linalg.norm(p[odd], axis=1)
            deviation[odd] = np.abs(scale * norms[odd] - 1.0)
    return p / norms[:, None], float(deviation.max())


@functools.cache
def _syrk():
    """numpy's own ILP64 ``scipy_cblas_dsyrk64_`` (found through its extension module) as ``syrk(p)``:
    numpy's matmul call for ``p @ p.T``, into a new matrix's upper triangle.  Bound at the first
    cosine build; None unless it makes ``p @ p.T``'s upper triangle bit for bit on a 7 x 5 shape."""
    try:
        import ctypes
        from numpy._core import _multiarray_umath
        fn = ctypes.CDLL(_multiarray_umath.__file__).scipy_cblas_dsyrk64_
    except (ImportError, OSError, AttributeError):
        return None
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    fn.restype, fn.argtypes = None, (ctypes.c_int,) * 3 + (i64, i64, f64, ptr, i64, f64, ptr, i64)

    def syrk(p: np.ndarray) -> np.ndarray:  # RowMajor, Upper, NoTrans; n, k, 1, p, k, 0, g, n
        g = np.empty((len(p), len(p)))
        fn(101, 121, 111, *p.shape, 1.0, p.ctypes.data, p.shape[1], 0.0, g.ctypes.data, len(g))
        return g
    p = np.random.default_rng(0).standard_normal((7, 5))
    return syrk if np.triu(syrk(p)).tobytes() == np.triu(p @ p.T).tobytes() else None


def _gram_upper(p: np.ndarray) -> np.ndarray:
    """``p @ p.T`` on and above the diagonal, the lower triangle unset: numpy's ``dsyrk`` call without
    its element-by-element copy; else ``p @ p.T`` (no binding, a side of 1 where numpy calls no
    ``dsyrk``, or a ``p`` not in C order, for which numpy passes other arguments)."""
    syrk = _syrk()
    return p @ p.T if syrk is None or 1 in p.shape or not p.flags.c_contiguous else syrk(p)


def _mirror(g: np.ndarray) -> None:
    """Copy ``g``'s upper triangle into its lower one in place, by blocks of rows: no n^2 index
    array, temporaries of at most ``_BLOCK`` rows."""
    for i in range(0, len(g), _BLOCK):
        j = min(i + _BLOCK, len(g))
        g[i:j, :i] = g[:i, i:j].T
        block = g[i:j, i:j]
        np.copyto(block, block.T.copy(), where=_BELOW[:j - i, :j - i])


class _GramRows:
    """Cosine distances made on demand from the upper triangle of the Gram matrix ``G`` (+inf
    diagonal), the only part read, as ``max(1 - x, 0)``: ``[t]`` of ``G[:t, t]`` then ``G[t, t:]``,
    ``[i, j]`` and ``np.ix_`` reads of entry (min, max) of each index pair; the dense matrix's bits
    (G is exactly symmetric; fl(1 - x) is monotone).  ``max(axis=1)``, each row's over j >= i, has
    d_max as its maximum, first in the row of the first row-major diametrical pair (a partner j < i
    would put d_max in the earlier row j): :meth:`Instance._keep` finds the same pair."""

    def __init__(self, gram: np.ndarray):
        self.gram = gram

    def __getitem__(self, t) -> np.ndarray:
        g = self.gram
        if isinstance(t, tuple):  # [i, j] or np.ix_
            return np.maximum(1.0 - g[np.minimum(*t), np.maximum(*t)], 0.0)
        return np.maximum(1.0 - np.concatenate((g[:t, t], g[t, t:])), 0.0)

    def max(self, axis: int) -> np.ndarray:  # axis 1, by blocks of rows: a block's own triangle
        g, low = self.gram, np.empty(len(self.gram))  # masked below the diagonal, then the rest
        for i in range(0, len(g), _BLOCK):
            j = min(i + _BLOCK, len(g))
            low[i:j] = np.where(_BELOW[:j - i, :j - i], np.inf, g[i:j, i:j]).min(axis=1)
            np.minimum(low[i:j], g[i:j, j:].min(axis=1, initial=np.inf), out=low[i:j])
        return np.maximum(1.0 - low, 0.0)


class Instance:
    """Ground set of ``n`` points together with a metric.

    Three metric forms are supported:

    * ``"matrix"``   -- an explicit dense, symmetric, nonnegative distance matrix;
    * ``"euclidean"``-- coordinates in R^d under the Euclidean distance;
    * ``"cosine"``   -- unit vectors under ``dist(u, v) = 1 - <u, v>`` (rows are
      normalized on construction; note this distance may violate the triangle
      inequality, which is why the triangle check applies to matrices only).

    The full pairwise distance matrix is materialized lazily and cached (above ``DENSE_MAX_BYTES``
    it raises :class:`InputError`); ``d_max`` is its maximum, stored with it.  A cosine instance
    holds half its Gram matrix until a caller asks for the whole matrix; the solvers, ``dist`` and
    ``div`` read from it.  Every zero distance is +0.0: a matrix input's ``-0.0`` is stored as
    ``+0.0`` (the caller's array is not touched), and the Euclidean and cosine matrices never hold
    ``-0.0``.  Instances are immutable after construction and safe to share across threads: a
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
        self._pairwise: np.ndarray | _GramRows | None = None
        self._sweep: np.ndarray | None = None
        self._diameter: tuple[float, tuple[int, int]] | None = None
        self._lock = threading.Lock()
        self.max_unit_deviation = 0.0

        if metric == "matrix":
            if matrix is None or points is not None:
                raise InputError("matrix metric requires 'matrix' and forbids 'points'")
            try:
                m = _float_array(matrix, "distance matrix entries")
            except ValueError as exc:
                raise InputError(f"malformed distance matrix: {exc}") from exc
            self._validate_matrix(m, validate_triangle)
            m += 0.0  # our own copy: a -0.0 becomes +0.0
            self._keep(m)
            self.n = m.shape[0]
        else:
            if points is None or matrix is not None:
                raise InputError(f"{metric} metric requires 'points' and forbids 'matrix'")
            try:
                p = _float_array(points, "point coordinates")
            except ValueError as exc:
                raise InputError(f"malformed point list: {exc}") from exc
            if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 1:
                raise InputError("points must be a nonempty 2-D array")
            if not np.isfinite(p).all():
                raise InputError("points must be finite")
            if metric == "cosine":
                p, self.max_unit_deviation = _unit_rows(p, "cosine metric requires nonzero vectors")
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

    def _keep(self, m: np.ndarray | _GramRows) -> None:
        """Store ``m`` read-only as the distance rows, with the diameter and its first
        row-major pair (``(0, 1)`` when no two points are apart), refusing a non-finite one."""
        (m.gram if isinstance(m, _GramRows) else m).setflags(write=False)
        row_max = m.max(axis=1)  # one pass, no n^2 temporary
        i = int(np.argmax(row_max))  # symmetric with a zero diagonal: the pair has i < j
        if not math.isfinite(row_max[i]):
            raise InputError("computed distances must be finite; the coordinates are too large")
        pair = (i, int(np.argmax(m[i]))) if row_max[i] > 0.0 else (0, 1)
        self._diameter = (float(row_max[i]), pair)  # first: unlocked readers test _pairwise
        self._pairwise = m

    def _rows(self, dense: bool = False) -> np.ndarray | _GramRows:
        """Distance rows as the solvers read them, ``rows[t]``: the distance matrix once built or
        when ``dense``, else a cosine instance's :class:`_GramRows` of ``P @ P.T``.  A dense matrix
        made from held Gram rows is made from a mirrored copy: other threads may be reading them."""
        if self._pairwise is None or (dense and isinstance(self._pairwise, _GramRows)):
            if 8 * self.n**2 > DENSE_MAX_BYTES:
                raise InputError(f"dense distance matrix for n={self.n} exceeds {DENSE_MAX_BYTES} B")
            with self._lock:
                held = self._pairwise
                if held is None and self.metric == "euclidean":  # scipy's import is costly: only here
                    from scipy.spatial.distance import pdist, squareform
                    self._keep(squareform(pdist(self._points)))
                elif held is None or (dense and isinstance(held, _GramRows)):
                    g = _gram_upper(self._points) if held is None else held.gram.copy()
                    if dense:
                        _mirror(g)  # exactly symmetric, as numpy's own copy of the triangle makes it
                    np.fill_diagonal(g, np.inf)  # 1 - inf clamps to +0.0
                    self._keep(np.maximum(np.subtract(1.0, g, out=g), 0.0, out=g) if dense else _GramRows(g))
        return self._pairwise

    def distance_matrix(self) -> np.ndarray:
        """Full pairwise distance matrix (cached, read-only)."""
        return self._rows(dense=True)

    def dist(self, i: int, j: int) -> float:
        i, j = _indices((i, j), "point", self.n)
        return float(self._rows()[i, j])

    def distance_row(self, i: int) -> np.ndarray:
        """Distances from point ``i`` (checked as by :meth:`dist`): a read-only view, or a new row."""
        (i,) = _indices((i,), "point", self.n)
        return self._rows()[i]

    def pair_distances_sorted(self) -> np.ndarray:
        """All n*(n-1)/2 pairwise distances, sorted ascending (a new array per call)."""
        vals = self.distance_matrix()[~np.tri(self.n, dtype=bool)]  # i < j, in row-major order
        vals.sort()
        return vals

    def _exhaustive_sweep(self) -> np.ndarray:
        """0.0, then the sorted distinct half pair distances (built once, read-only)."""
        self.distance_matrix()  # before the lock, which it takes itself
        with self._lock:  # every reader takes it, so the array is published read-only
            if self._sweep is None:
                vals = self.pair_distances_sorted()
                vals = vals[np.concatenate(([True], vals[1:] != vals[:-1]))]  # distinct, then halved
                self._sweep = np.concatenate(([0.0], vals / 2.0))
                self._sweep.setflags(write=False)
        return self._sweep

    @property
    def d_max(self) -> float:
        """Diameter of the ground set, the matrix maximum (stored with it); 0 below two points."""
        if self._diameter is None:
            self._rows()
        return self._diameter[0]

    def diametrical_pair(self) -> tuple[int, int]:
        """Lexicographically smallest pair (i < j) at distance d_max; (0, 1) if d_max is 0."""
        if self.n < 2:
            raise InputError("diametrical pair requires at least two points")
        self.d_max  # fills the stored pair
        return self._diameter[1]


class QueryCounter:
    """Thread-safe monotone counter of a utility's queries over its life: a solver call adds its
    :class:`_Run`'s total once, a public query its own.  The lock keeps ``+=`` whole."""

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


class _Run:
    """One solver call's query ``count``: its gain states add to it lock-free (a call runs on one thread)."""

    def __init__(self, utility: UtilityOracle):
        self.utility, self.count = utility, 0

    def add(self, amount: int) -> None:
        self.count += amount

    def end(self, result):  # ``result``, once the count has joined the utility's QueryCounter
        self.utility._queries.add(self.count)
        return result


class UtilityOracle:
    """Base class for set-utility functions ``g`` queried by value.

    Accounting convention: every call to :meth:`evaluate` and every marginal
    gain (single or batched, one per candidate) counts as one value-oracle
    query, matching the usual oracle-complexity model in which ``g(S)`` is
    already known when a marginal ``g(S + v) - g(S)`` is requested.  Only a
    :class:`_GainState` counts, a solver's into its call's :class:`_Run`.
    ``gist`` asks nothing for the runs its sweep skips as unable to win.

    A kind states its capabilities, which a subclass reads as False unless it
    states them again: ``_fixed``, gains that never change with the selection
    (the sweep's root state, :meth:`_sweep_state`, asks each point's once and
    walks a fixed order), and ``_bounded``, monotone and submodular by
    construction with gains >= 0 (the sweep may skip runs by their bound).

    A kind plugs in one of two ways, through hooks that count no queries:

    * the default state: ``_value(s)``, g of a sorted index tuple ``s``, and
      optionally ``_batch_marginal(cand, s)``, each candidate's g(S + v) - g(S);
      the default takes value differences, computing g(S) once per call.  A
      gain must not depend on the rest of the batch, bit for bit: the sweep
      scores a superset of some runs' candidates.
    * its own ``_gain_state(base)``, where state kept across a growing selection
      pays (the additive kinds, coverage): a :class:`_GainState` with ``_gains``,
      ``add`` and ``_g``, and optionally its own ``pick``.

    ``evaluate``, ``marginal`` (``batch_marginal`` of one candidate) and
    ``batch_marginal`` build a state at their base set, as the solvers do.
    Parameters are immutable; the query counter is the only mutable state.
    """

    kind: str = "abstract"
    _fixed = _bounded = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for capability in ("_fixed", "_bounded"):  # stated by the class itself, or False
            setattr(cls, capability, vars(cls).get(capability, False))

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
        return self._gain_state(canonical_subset(subset, self.n)).value()

    def marginal(self, v: int, subset: Iterable[int]) -> float:
        """g(S + v) - g(S) for v not in S.  Counts one query."""
        return float(self.batch_marginal([v], subset)[0])

    def batch_marginal(self, candidates: Sequence[int], subset: Iterable[int]) -> np.ndarray:
        """Marginal gain of each candidate against the same base set.  Counts one query per candidate."""
        s = canonical_subset(subset, self.n)
        cand = np.array(_indices(candidates, "candidate", self.n), dtype=np.intp)
        if set(map(int, cand)) & set(s):
            raise InputError("candidates must be disjoint from the base set")
        return self._gain_state(s).gains(cand)

    def _gain_state(self, base: Iterable[int] = (), run: _Run | None = None) -> _GainState:
        return _GainState(self, base, run)

    def _sweep_state(self, run: _Run | None = None) -> _GainState:  # the sweep's root: S empty
        return self._gain_state((), run)

    # -- kind-specific internals (no query accounting) -----------------------

    def _value(self, s: tuple[int, ...]) -> float:
        raise NotImplementedError

    def _batch_marginal(self, cand: np.ndarray, s: tuple[int, ...]) -> np.ndarray:
        base = self._value(s)
        return np.array([self._value(tuple(sorted(s + (int(v),)))) - base for v in cand],
                        dtype=np.float64)


class _GainState:
    """Gains against a growing selection, unchecked: callers pass in-range candidates
    disjoint from it.  The one counter of queries, into ``run`` (a solver's, else the utility's):
    ``gains`` counts one per candidate, ``pick`` one per candidate of its step and ``value`` (g
    of the selection) one, over the uncounted ``_gains`` and ``_g``; ``add`` grows it; ``copy``
    shares ``run`` and read-only arrays only (this one copies each writable numpy array
    attribute).  This default asks ``_batch_marginal`` and ``_value`` on the sorted ``s``, and
    picks by the argmax of ``gains``; a kind's own state (coverage; the additive kinds' exact
    sum, whatever the order) overrides ``_gains``, ``add`` and ``_g``, and may override ``pick``."""

    def __init__(self, utility: UtilityOracle, base: Iterable[int] = (), run: _Run | None = None):
        self.utility, self.s, self.run = utility, tuple(sorted(base)), run or utility._queries

    def gains(self, cand: np.ndarray) -> np.ndarray:
        self.run.add(cand.size)
        return self._gains(cand)

    def _gains(self, cand: np.ndarray) -> np.ndarray:
        return np.asarray(self.utility._batch_marginal(cand, self.s), dtype=np.float64)

    def pick(self, min_dist: np.ndarray, floor: float, pos: int):
        """``(t, its gain, pos, gains)`` for the candidate t of largest gain (ties to the lowest
        index) among the points with ``min_dist >= floor``, or None; one query per candidate.
        ``gains`` is their gain vector when the pick built one, else None.  No candidate lies
        before ``pos`` on a walking state's order: it may return ``pos`` moved."""
        cand = (min_dist >= floor).nonzero()[0]
        if not cand.size:
            return None
        gains = self.gains(cand)
        i = gains.argmax()
        return int(cand[i]), gains.item(i), pos, gains

    def value(self) -> float:
        self.run.add(1)
        return self._g()

    def _g(self) -> float:
        return self.utility._value(self.s)

    def add(self, v: int) -> None:
        i = bisect.bisect(self.s, v)
        self.s = self.s[:i] + (int(v),) + self.s[i:]

    def copy(self) -> "_GainState":  # not copy.copy, twice as slow: the sweep copies per branch
        new = object.__new__(type(self))
        new.__dict__ = {a: v.copy() if isinstance(v, np.ndarray) and v.flags.writeable else v
                        for a, v in vars(self).items()}
        return new


@dataclass(frozen=True)
class Problem:
    """A solvable configuration: instance + utility + objective parameters.

    ``lam`` weighs the diversity term, ``k`` is the cardinality budget,
    ``epsilon`` controls the geometric threshold schedule, and ``schedule``
    chooses between the geometric grid and the exhaustive grid of all
    half-distances.  The instance and utility pass the gate of the solvers
    called without a Problem, and ``k`` the one budget rule (``3.0`` is
    stored as the int 3; booleans are refused) and ``k <= n``; ``lam`` is a
    finite number >= 0 and ``epsilon`` a number in (0, 1), else InputError.
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
        if not (_real(self.epsilon) and 0.0 < self.epsilon < 1.0):
            raise InputError(f"epsilon must lie in (0, 1), got {self.epsilon!r}")
        if not (_real(self.lam) and 0.0 <= self.lam < math.inf):
            raise InputError(f"lam must be finite and nonnegative, got {self.lam!r}")
        if self.schedule not in SCHEDULES:
            raise InputError(f"unknown schedule {self.schedule!r}; expected one of {SCHEDULES}")

    def with_schedule(self, schedule: str) -> "Problem":
        return Problem(self.instance, self.utility, self.lam, self.k, self.epsilon, schedule)


@dataclass(frozen=True)
class Solution:
    """Result of one algorithm run.

    ``winning_threshold`` is the distance threshold whose candidate won
    (0.0 for the plain greedy pass, ``None`` when a diametrical pair or an
    algorithm without thresholds produced the set).  ``g_value`` is g of
    ``selected``, ``div_value`` its div and ``f_value = g_value + lam *
    div_value``.  ``oracle_calls`` counts the utility value queries the run's
    own gain states issued, even on a utility other threads query meanwhile.
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
    sub = instance._rows()[np.ix_(s, s)]  # a new k x k array, from held Gram rows too
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
    return _thresholds(problem)[1:].tolist()


def _thresholds(problem: Problem) -> np.ndarray:
    """The thresholds a sweep runs at: 0.0, then :func:`distance_thresholds`."""
    inst = problem.instance
    if inst.n < 2 or inst.d_max == 0.0:
        return np.zeros(1)
    if problem.schedule == "exhaustive":
        return inst._exhaustive_sweep()
    eps = problem.epsilon
    base = eps * inst.d_max / 2.0
    out = [0.0]
    i = 0
    while (1.0 + eps) ** i <= 2.0 / eps:
        out.append((1.0 + eps) ** i * base)
        i += 1
    return np.array(out)
