"""Concrete utility-function families exposed through the UtilityOracle
interface, plus a sampling/enumeration checker for monotonicity and
submodularity."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import UtilityOracle, _BOOLS, _GainState, _budget, integral
from .errors import InputError


class ConstantZeroUtility(UtilityOracle):
    """g(S) = 0 for every S.  Used for diversity-only objectives."""

    kind = "constant_zero"

    def __init__(self, n: int):
        super().__init__(n, monotone_declared=True, submodular_declared=True)

    def _value(self, s):
        return 0.0

    def _batch_marginal(self, cand, s):
        return np.zeros(cand.size, dtype=np.float64)


class LinearUtility(UtilityOracle):
    """g(S) = sum of fixed nonnegative per-point weights."""

    kind = "linear"

    def __init__(self, weights: Sequence[float] | np.ndarray):
        w = np.array(weights, dtype=np.float64)
        if w.ndim != 1 or w.size < 1:
            raise InputError("weights must be a nonempty 1-D array")
        if not np.isfinite(w).all() or (w < 0).any():
            raise InputError("weights must be finite and nonnegative")
        w.setflags(write=False)
        super().__init__(w.size, monotone_declared=True, submodular_declared=True)
        self.weights = w

    def _value(self, s):
        return float(self.weights[list(s)].sum())

    def _batch_marginal(self, cand, s):
        return self.weights[cand]


class CoverageUtility(UtilityOracle):
    """g(S) = size of the union of the element sets attached to the chosen points."""

    kind = "coverage"

    def __init__(self, family: Sequence[Iterable[int]], universe_size: int | None = None):
        family = [list(f) for f in family]
        try:
            ids = [list(map(int, f)) for f in family]
            flat = np.fromiter(itertools.chain.from_iterable(ids), np.int64)
        except OverflowError as exc:
            raise InputError(f"coverage element ids must fit in 64 bits: {exc}") from exc
        # the rule of ``integral``, at C speed: each id equals an int and is no bool
        if ids != family or not _BOOLS.isdisjoint(map(type, itertools.chain.from_iterable(family))):
            raise InputError("each coverage element id must be an integer")
        if not ids:
            raise InputError("coverage family must be nonempty")
        # each point's distinct ids, ascending: one sort by (point, id), repeats dropped
        owner = np.repeat(np.arange(len(ids)), [len(f) for f in ids])
        order = np.lexsort((flat, owner))
        flat, owner = flat[order], owner[order]
        first = np.ones(flat.size, dtype=bool)
        first[1:] = (flat[1:] != flat[:-1]) | (owner[1:] != owner[:-1])
        # CSR arrays: point -> element columns (ids compacted by np.unique), element -> points
        self._ids, self._cols = np.unique(flat[first], return_inverse=True)
        universe_size = integral(
            self._ids.size if universe_size is None else universe_size, "universe_size")
        if universe_size < self._ids.size:
            raise InputError(f"universe_size {universe_size} is smaller than the union of the "
                             f"family ({self._ids.size} elements)")
        super().__init__(len(ids), monotone_declared=True, submodular_declared=True)
        self.universe_size = universe_size
        self._owner = owner[first]  # point of each column
        self._ptr = np.concatenate(([0], np.cumsum(np.bincount(self._owner, minlength=self.n))))
        self._el_ptr = np.cumsum(np.bincount(self._cols + 1, minlength=self._ids.size + 1))
        self._el_pts = self._owner[np.argsort(self._cols, kind="stable")]

    @property
    def family(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(c.tolist()) for c in np.split(self._ids[self._cols], self._ptr[1:-1]))

    def _value(self, s):
        return float(np.count_nonzero(~_CoverageGains(self, s).uncovered))

    def _gain_state(self, base=()):
        return _CoverageGains(self, base)


def _segments(ptr: np.ndarray, rows) -> np.ndarray:
    """Positions of the CSR rows ``rows`` (row offsets ``ptr``), concatenated."""
    rows = np.asarray(rows, dtype=np.intp)
    starts, lens = ptr[rows], ptr[rows + 1] - ptr[rows]
    return np.repeat(starts - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())


class _CoverageGains(_GainState):
    """Each point's count of uncovered elements, less one per element ``add`` covers."""

    def __init__(self, utility: CoverageUtility, base=()):
        self.utility, self.uncovered = utility, np.ones(utility._ids.size, dtype=bool)
        self.uncovered[utility._cols[_segments(utility._ptr, tuple(base))]] = False
        self.gain = np.bincount(utility._owner, self.uncovered[utility._cols], utility.n)

    def _gains(self, cand):
        return self.gain[cand]

    def add(self, v):
        u = self.utility
        cols = u._cols[u._ptr[v]:u._ptr[v + 1]]
        new = cols[self.uncovered[cols]]
        self.uncovered[new] = False
        self.gain -= np.bincount(u._el_pts[_segments(u._el_ptr, new)], minlength=u.n)


class BudgetAdditiveUtility(UtilityOracle):
    """g(S) = alpha * min(sum of weights / k, beta).

    A capped, budget-normalized average of per-point weights in [0, 1];
    monotone and submodular, bounded by alpha * beta.  ``k`` is the cap's
    normalizer and usually equals the selection budget.
    """

    kind = "budget_additive"

    def __init__(self, weights: Sequence[float] | np.ndarray, alpha: float, beta: float, k: int):
        w = np.array(weights, dtype=np.float64)
        if w.ndim != 1 or w.size < 1:
            raise InputError("weights must be a nonempty 1-D array")
        if not np.isfinite(w).all() or (w < 0).any() or (w > 1).any():
            raise InputError("budget-additive weights must lie in [0, 1]")
        if not 0.0 <= alpha <= 1.0 or not 0.0 <= beta <= 1.0:
            raise InputError("alpha and beta must lie in [0, 1]")
        k = _budget(k, "cap normalizer k")
        w.setflags(write=False)
        super().__init__(w.size, monotone_declared=True, submodular_declared=True)
        self.weights = w
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.k = k

    def _sum(self, s):
        return float(self.weights[np.fromiter(s, np.intp, len(s))].sum())

    def _value(self, s):
        return self.alpha * min(self._sum(s) / self.k, self.beta)

    def _gain_state(self, base=()):
        return _BudgetGains(self, base)


class _BudgetGains(_GainState):
    """alpha * min((total + w_v) / k, beta) - g(S) in place, total over the sorted selection."""

    def _gains(self, cand):
        u, total = self.utility, self.utility._sum(self.s)  # a running sum rounds differently
        gains = u.weights[cand] + total
        gains /= u.k
        np.minimum(gains, u.beta, out=gains)
        gains *= u.alpha
        return np.subtract(gains, u.alpha * min(total / u.k, u.beta), out=gains)


class MarginSimilarityUtility(UtilityOracle):
    """g(S) = alpha_s * sum_{i in S} u_i - beta_s * sum over ordered pairs of
    distinct adjacent points in S of their similarity.

    Each undirected edge inside S contributes twice (once per order).
    Adjacency comes either from an explicit edge list ``(i, j, s)`` with
    similarities in [-1, 1], or from a dense symmetric similarity matrix
    (diagonal ignored).  Submodular by construction but **not** monotone:
    adding a point adjacent to the current set can lose value.
    """

    kind = "margin_similarity"

    def __init__(
        self,
        uncertainty: Sequence[float] | np.ndarray,
        *,
        edges: Iterable[tuple[int, int, float]] | None = None,
        similarity: np.ndarray | None = None,
        alpha_s: float = 0.9,
        beta_s: float = 0.1,
    ):
        u = np.array(uncertainty, dtype=np.float64)
        if u.ndim != 1 or u.size < 1:
            raise InputError("uncertainty must be a nonempty 1-D array")
        if not np.isfinite(u).all() or (u < 0).any() or (u > 2).any():
            raise InputError("uncertainty scores must lie in [0, 2]")
        if alpha_s < 0 or beta_s < 0:
            raise InputError("alpha_s and beta_s must be nonnegative")
        if (edges is None) == (similarity is None):
            raise InputError("provide exactly one of 'edges' or 'similarity'")
        u.setflags(write=False)
        super().__init__(u.size, monotone_declared=False, submodular_declared=True)
        self.uncertainty = u
        self.alpha_s = float(alpha_s)
        self.beta_s = float(beta_s)
        self._sim: np.ndarray | None = None
        self._adj: list[list[tuple[int, float]]] | None = None
        self.edges: tuple[tuple[int, int, float], ...] = ()

        if similarity is not None:
            sim = np.array(similarity, dtype=np.float64)
            if sim.shape != (self.n, self.n):
                raise InputError("similarity matrix must be n x n")
            if not (sim == sim.T).all():
                raise InputError("similarity matrix must be exactly symmetric")
            np.fill_diagonal(sim, 0.0)
            if not (np.abs(sim) <= 1.0).all():  # NaN fails too
                raise InputError("similarities must lie in [-1, 1]")
            sim.setflags(write=False)
            self._sim = sim
        else:
            adj: list[list[tuple[int, float]]] = [[] for _ in range(self.n)]
            seen: set[tuple[int, int]] = set()
            canon = []
            for i, j, sval in edges:
                i, j, sval = integral(i, "edge index"), integral(j, "edge index"), float(sval)
                if i == j:
                    raise InputError("similarity edges must join distinct points")
                if not (0 <= i < self.n and 0 <= j < self.n):
                    raise InputError("similarity edge index out of range")
                if not -1.0 <= sval <= 1.0:
                    raise InputError("similarities must lie in [-1, 1]")
                key = (min(i, j), max(i, j))
                if key in seen:
                    raise InputError(f"duplicate similarity edge {key}")
                seen.add(key)
                adj[i].append((j, sval))
                adj[j].append((i, sval))
                canon.append((key[0], key[1], sval))
            self._adj = adj
            self.edges = tuple(sorted(canon))

    def _ordered_pair_sum(self, s):
        if not s:
            return 0.0
        if self._sim is not None:
            idx = list(s)
            return float(self._sim[np.ix_(idx, idx)].sum())
        members = set(s)
        total = 0.0
        for i in s:
            for j, sval in self._adj[i]:
                if j > i and j in members:
                    total += sval
        return 2.0 * total

    def _neighbor_sums(self, cand, s):
        """Each candidate's summed similarity to the points of ``s``."""
        if self._sim is not None:
            return self._sim[np.ix_(cand, list(s))].sum(axis=1) if s else np.zeros(len(cand))
        members = set(s)  # once per call, not once per candidate
        return np.array([sum(x for j, x in self._adj[v] if j in members) for v in cand])

    def _value(self, s):
        return float(
            self.alpha_s * self.uncertainty[list(s)].sum()
            - self.beta_s * self._ordered_pair_sum(s)
        )

    def _batch_marginal(self, cand, s):
        return self.alpha_s * self.uncertainty[cand] - self.beta_s * 2.0 * self._neighbor_sums(cand, s)


class TabulatedUtility(UtilityOracle):
    """Explicit value for every subset of a small ground set (n <= 20).

    Mainly used to wrap counterexample objectives so they can be fed to the
    monotonicity/submodularity checker.
    """

    kind = "custom_tabulated"

    MAX_N = 20

    def __init__(
        self,
        n: int,
        values: Sequence[float],
        *,
        monotone_declared: bool = False,
        submodular_declared: bool = False,
    ):
        n = integral(n, "tabulated ground set size")
        if not 1 <= n <= self.MAX_N:
            raise InputError(f"tabulated utilities support 1 <= n <= {self.MAX_N}")
        table = np.array(values, dtype=np.float64)
        if table.shape != (1 << n,):
            raise InputError(f"expected 2^{n} subset values, got {table.shape}")
        if not np.isfinite(table).all():
            raise InputError("tabulated values must be finite")
        table.setflags(write=False)
        super().__init__(
            n, monotone_declared=monotone_declared, submodular_declared=submodular_declared
        )
        self.table = table

    @classmethod
    def from_function(
        cls,
        n: int,
        fn: Callable[[tuple[int, ...]], float],
        *,
        monotone_declared: bool = False,
        submodular_declared: bool = False,
    ) -> "TabulatedUtility":
        values = []
        for mask in range(1 << n):
            subset = tuple(i for i in range(n) if mask >> i & 1)
            values.append(float(fn(subset)))
        return cls(
            n,
            values,
            monotone_declared=monotone_declared,
            submodular_declared=submodular_declared,
        )

    def _value(self, s):
        mask = 0
        for i in s:
            mask |= 1 << i
        return float(self.table[mask])


# ---------------------------------------------------------------------------
# Monotonicity / submodularity checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonotonicityWitness:
    """A set and a point whose marginal gain is negative."""

    base: tuple[int, ...]
    point: int
    gain: float


@dataclass(frozen=True)
class SubmodularityWitness:
    """A chain small <= large and a point whose gain grows with the set."""

    small: tuple[int, ...]
    large: tuple[int, ...]
    point: int
    gain_small: float
    gain_large: float


@dataclass
class PropertyReport:
    n: int
    chains_checked: int
    exhaustive: bool
    seed: int | None
    monotonicity_violation_count: int = 0
    submodularity_violation_count: int = 0
    monotonicity_violations: list[MonotonicityWitness] = field(default_factory=list)
    submodularity_violations: list[SubmodularityWitness] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.monotonicity_violation_count == 0 and self.submodularity_violation_count == 0


def check_monotone_submodular(
    utility: UtilityOracle,
    trials: int = 1000,
    seed: int = 0,
    *,
    exhaustive: bool = False,
    tol: float = 1e-12,
    max_witnesses: int = 32,
) -> PropertyReport:
    """Look for monotonicity and submodularity violations of ``utility``.

    By default samples ``trials`` random chains S <= T, v not in T (seeded,
    deterministic), asking two single ``marginal`` gains per chain.  With
    ``exhaustive=True`` every chain is enumerated (requires n <= 16), so the
    returned witnesses are complete up to ``max_witnesses`` per category.  It
    asks one ``batch_marginal`` per subset S, over every point outside S:
    one query per (S, v), and, by the batch-independence rule of
    ``_batch_marginal``, the same values as single gains.

    Monotonicity violation: some marginal gain is below ``-tol``.
    Submodularity violation: gain at the smaller set is below the gain at the
    larger set by more than ``tol``.
    """
    n = utility.n
    report = PropertyReport(n=n, chains_checked=0, exhaustive=exhaustive, seed=None if exhaustive else seed)

    def note_monotone(base, v, gain):
        report.monotonicity_violation_count += 1
        if len(report.monotonicity_violations) < max_witnesses:
            report.monotonicity_violations.append(MonotonicityWitness(base, v, gain))

    def note_submodular(small, large, v, gs, gl):
        report.submodularity_violation_count += 1
        if len(report.submodularity_violations) < max_witnesses:
            report.submodularity_violations.append(SubmodularityWitness(small, large, v, gs, gl))

    if exhaustive:
        if n > 16:
            raise InputError("exhaustive property checking supports n <= 16")
        members = [tuple(i for i in range(n) if mask >> i & 1) for mask in range(1 << n)]
        gains: list[dict[int, float]] = []
        for mask, base in enumerate(members):
            outside = [v for v in range(n) if not mask >> v & 1]
            gains.append(dict(zip(outside, utility.batch_marginal(outside, base).tolist())))
        for t_mask in range(1 << n):
            for v, gain_t in gains[t_mask].items():
                if gain_t < -tol:
                    note_monotone(members[t_mask], v, gain_t)
                s_mask = (t_mask - 1) & t_mask
                while True:
                    report.chains_checked += 1
                    gain_s = gains[s_mask][v]
                    if gain_s < gain_t - tol:
                        note_submodular(members[s_mask], members[t_mask], v, gain_s, gain_t)
                    if s_mask == 0:
                        break
                    s_mask = (s_mask - 1) & t_mask
        return report

    rng = np.random.default_rng(seed)
    for _ in range(trials):
        report.chains_checked += 1
        t_mask = rng.random(n) < 0.5
        if t_mask.all():
            t_mask[int(rng.integers(n))] = False
        outside = np.flatnonzero(~t_mask)
        v = int(outside[int(rng.integers(outside.size))])
        s_mask = t_mask & (rng.random(n) < 0.5)
        t_set = tuple(int(i) for i in np.flatnonzero(t_mask))
        s_set = tuple(int(i) for i in np.flatnonzero(s_mask))
        gain_t = utility.marginal(v, t_set)
        gain_s = utility.marginal(v, s_set)
        if gain_t < -tol:
            note_monotone(t_set, v, gain_t)
        if gain_s < -tol:
            note_monotone(s_set, v, gain_s)
        if gain_s < gain_t - tol:
            note_submodular(s_set, t_set, v, gain_s, gain_t)
    return report
