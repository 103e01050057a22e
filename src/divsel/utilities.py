"""Concrete utility-function families exposed through the UtilityOracle
interface, plus a sampling/enumeration checker for monotonicity and
submodularity."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import UtilityOracle, _BOOLS, _GainState, _budget, _float_array, _indices, _real, integral
from .errors import InputError


class _Additive(UtilityOracle):
    """A g of the selection's weight sum, weights finite and >= 0.  The sum is an exact int
    of units of 1 / ``_den``, a power of two that makes every weight (53-bit mantissa) an
    integer, so g reads the correctly rounded sum, ``math.fsum``, in any order.  A weight is
    ``_mant << _sh`` units, from one ``np.frexp`` (a subnormal's mantissa shifted right).
    ``_order`` holds the points by weight descending, then index, compact and read-only."""

    def __init__(self, weights: Sequence[float] | np.ndarray, message: str, top: float = math.inf):
        w = _float_array(weights, "weights")
        if w.ndim != 1 or w.size < 1:
            raise InputError("weights must be a nonempty 1-D array")
        if not np.isfinite(w).all() or (w < 0).any() or (w > top).any():
            raise InputError(message)
        w.setflags(write=False)
        super().__init__(w.size, monotone_declared=True, submodular_declared=True)
        self.weights = w
        mant, exp = np.frexp(w)
        den = min(53 - int(exp.min()), 1074)  # 2**1074 suits any float
        self._den, sh = 2 ** den, exp.astype(np.int64) + (den - 53)
        self._mant, self._sh = (mant * 2.0**53).astype(np.int64) >> np.maximum(-sh, 0), np.maximum(sh, 0)
        self._order = np.argsort(-w, kind="stable").astype(np.min_scalar_type(w.size))  # -0.0 ties +0.0
        for a in (self._mant, self._sh, self._order):
            a.setflags(write=False)

    def _gain_state(self, base=(), run=None):
        return _AdditiveGains(self, base, run)

    def _sweep_state(self, run=None):
        return _FixedGains(self, run) if self._fixed else self._gain_state((), run)


class ConstantZeroUtility(_Additive):
    """g(S) = 0 for every S: the additive kind with every weight 0.  Used for diversity-only
    objectives.  Its weights and units are one read-only zero, broadcast to the n points."""

    kind = "constant_zero"
    _fixed = _bounded = True

    def __init__(self, n: int):
        UtilityOracle.__init__(self, n, monotone_declared=True, submodular_declared=True)
        self.weights, self._den = np.broadcast_to(0.0, self.n), 1
        self._mant = self._sh = np.broadcast_to(np.int64(0), self.n)

    @functools.cached_property
    def _order(self) -> np.ndarray:  # index order, built by the first walk: n may be any size
        return np.arange(self.n)


class LinearUtility(_Additive):
    """g(S) = sum of fixed nonnegative per-point weights."""

    kind = "linear"
    _fixed = _bounded = True

    def __init__(self, weights: Sequence[float] | np.ndarray):
        super().__init__(weights, "weights must be finite and nonnegative")


class _AdditiveGains(_GainState):
    """The selection's weight sum as ``units``, one int add per ``add`` (``_set`` lets a kind
    derive more from it): g = units / _den, correctly rounded (inf past the float range), and
    each gain is the candidate's weight."""

    def __init__(self, utility: _Additive, base=(), run=None):
        b, self.utility, self.run = list(base), utility, run or utility._queries
        self._set(sum(map(int.__lshift__, utility._mant[b].tolist(), utility._sh[b].tolist())))

    def add(self, v):
        self._set(self.units + (self.utility._mant.item(v) << self.utility._sh.item(v)))

    def _set(self, units):
        self.units = units

    def _g(self):
        try:  # int / int true division rounds correctly
            return self.units / self.utility._den
        except OverflowError:
            return math.inf

    def _gains(self, cand):
        return self.utility.weights[cand]


class _FixedGains(_AdditiveGains):
    """The sweep's root state for a ``_fixed`` kind: it counts every point's gain once, through
    the counted ``gains``, then serves the weights uncounted.  Its ``pick`` counts nothing and
    walks ``_order``: a point that stops being a candidate never becomes one again."""

    def __init__(self, utility: _Additive, run=None):
        super().__init__(utility, (), run)
        super().gains(np.arange(utility.n))

    gains = _AdditiveGains._gains

    def pick(self, min_dist, floor, pos):
        order = self.utility._order
        pos = _walk(order, min_dist, floor, pos)
        if pos == order.size:
            return None
        t = order.item(pos)
        return t, self.utility.weights.item(t), pos, None


class CoverageUtility(UtilityOracle):
    """g(S) = size of the union of the element sets attached to the chosen points.  Beside its
    CSR arrays, point -> element columns, it derives ``_counts``, elements per point, and the
    points that share each column: the co-holder index (``_nb_ptr``, ``_nb_pts``, and
    ``_nb_len``, the holders of each column) when it has at most n**2 entries (the sum over
    elements of holders squared), no more than the n x n distances of a solve; else the
    element -> points arrays ``_el_ptr``, ``_el_pts`` and ``_el_len``."""

    kind = "coverage"
    _bounded = True

    def __init__(self, family: Sequence[Iterable[int]], universe_size: int | None = None):
        ids = family = [list(f) for f in family]
        types = set(map(type, itertools.chain.from_iterable(family)))
        if not types <= {int}:  # the rule of ``integral``, as ``core._indices`` keeps it
            try:
                ids = [list(map(int, f)) for f in family]
            except (TypeError, ValueError, OverflowError):  # None, "a", NaN, inf
                ids = None
            if ids != family or types & _BOOLS:
                raise InputError("each coverage element id must be an integer")
        if not ids:
            raise InputError("coverage family must be nonempty")
        try:
            flat = np.fromiter(itertools.chain.from_iterable(ids), np.int64)
        except OverflowError as exc:
            raise InputError(f"coverage element ids must fit in 64 bits: {exc}") from exc
        # CSR arrays, point -> element columns (ids compacted by np.unique): each point's
        # distinct columns, ascending, from one sort of (point, column) keys, repeats dropped
        self._ids, col = np.unique(flat, return_inverse=True)
        key = np.sort(np.repeat(np.arange(len(ids)), [len(f) for f in ids]) * self._ids.size + col)
        owner, self._cols = np.divmod(key[np.diff(key, prepend=-1) != 0], self._ids.size)
        universe_size = integral(
            self._ids.size if universe_size is None else universe_size, "universe_size")
        if universe_size < self._ids.size:
            raise InputError(f"universe_size {universe_size} is smaller than the union of the "
                             f"family ({self._ids.size} elements)")
        super().__init__(len(ids), monotone_declared=True, submodular_declared=True)
        self.universe_size = universe_size
        self._owner = owner.astype(np.min_scalar_type(self.n))  # point of each column
        self._ptr = np.concatenate(([0], np.cumsum(np.bincount(owner, minlength=self.n))))
        self._counts = np.diff(self._ptr).astype(np.float64)
        el_ptr = np.cumsum(np.bincount(self._cols + 1, minlength=self._ids.size + 1))
        el_pts, el_len = np.sort(self._cols * self.n + owner) % self.n, np.diff(el_ptr)  # by column
        if el_len @ el_len > self.n ** 2:  # the co-holder index would outgrow n x n
            self._nb_ptr, self._el_ptr, self._el_pts, self._el_len = None, el_ptr, el_pts, el_len
            return
        lens = el_len[self._cols]  # row v: for each column of v in turn, the points holding it
        self._nb_pts = el_pts.astype(self._owner.dtype)[_ranges(el_ptr[self._cols], lens)]
        self._nb_len = lens.astype(self._owner.dtype)
        self._nb_ptr = np.concatenate(([0], lens.cumsum()))[self._ptr]

    @property
    def family(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(c.tolist()) for c in np.split(self._ids[self._cols], self._ptr[1:-1]))

    def _gain_state(self, base=(), run=None):
        return _CoverageGains(self, base, run)


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The ranges [s, s + l) of each start s and length l, end to end, as one index."""
    ends = lens.cumsum()
    return np.repeat(starts - ends + lens, lens) + np.arange(ends[-1] if ends.size else 0)


class _CoverageGains(_GainState):
    """Each point's count of uncovered elements, ``gain``, built when ``_gains`` first needs
    it (None until then, so a state only asked ``value`` marks ``uncovered`` alone), then
    less one per element ``add`` covers, by one bincount of the added point's co-holder row
    or, without the index, of the new elements' rows.  Integer counts, exact either way."""

    def __init__(self, utility: CoverageUtility, base=(), run=None):
        self.utility, self.run, self.gain = utility, run or utility._queries, None
        self.uncovered = np.ones(utility._ids.size, dtype=bool)
        if base:  # the columns of base's points
            self.uncovered[utility._cols[np.bincount(base, minlength=utility.n)[utility._owner] > 0]] = False

    def _gains(self, cand):
        if self.gain is None:  # a copy of the counts at the empty set while nothing is covered
            u, unc = self.utility, self.uncovered
            self.gain = u._counts.copy() if unc.all() else np.bincount(u._owner, unc[u._cols], u.n)
        return self.gain[cand]

    def _g(self):
        return float(np.count_nonzero(~self.uncovered))

    def add(self, v):
        u = self.utility
        p, q = u._ptr[v], u._ptr[v + 1]
        cols = u._cols[p:q]
        fresh = self.uncovered[cols]
        self.uncovered[cols] = False
        if self.gain is not None:  # each point loses one per fresh column it holds
            if u._nb_ptr is None:  # the fresh elements' rows, one multi-range index
                new = cols[fresh]
                pts = u._el_pts[_ranges(u._el_ptr[new], u._el_len[new])]
            else:  # v's co-holder row, the segments of its fresh columns
                pts = u._nb_pts[u._nb_ptr[v]:u._nb_ptr[v + 1]][fresh.repeat(u._nb_len[p:q])]
            self.gain -= np.bincount(pts, minlength=u.n)


class BudgetAdditiveUtility(_Additive):
    """g(S) = alpha * min(sum of weights / k, beta), a capped average of weights in [0, 1];
    monotone and submodular, bounded by alpha * beta.  ``k`` is the cap's normalizer, usually
    the selection budget.  The sum is the additive kinds' exact one."""

    kind = "budget_additive"
    _bounded = True

    def __init__(self, weights: Sequence[float] | np.ndarray, alpha: float, beta: float, k: int):
        super().__init__(weights, "budget-additive weights must lie in [0, 1]", 1.0)
        if not (_real(alpha) and _real(beta) and 0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0):
            raise InputError(f"alpha {alpha!r} and beta {beta!r} must be numbers in [0, 1]")
        self.alpha = float(alpha) + 0.0  # -0.0 is stored as +0.0
        self.beta = float(beta) + 0.0
        self.k = _budget(k, "cap normalizer k")
        self._w_max = float(self.weights.max())

    def _gain_state(self, base=(), run=None):
        return _BudgetGains(self, base, run)


class _BudgetGains(_AdditiveGains):
    """alpha * min((total + w_v) / k, beta) - g in place.  ``_set`` sets total = units / _den,
    avg = total / k, g and the regime once: capped (avg >= beta: each gain is +0.0), free
    ((w_max + total) / k < beta: no minimum) or straddling.  Rounding is monotone: same bits.
    So a free gain never falls as the weight rises, and ``pick`` walks ``_order``."""

    def _set(self, units):
        u = self.utility  # weights in [0, 1]: the division stays in range
        self.units, self.total = units, units / u._den
        avg = self.total / u.k
        self.g, self.capped = u.alpha * min(avg, u.beta), avg >= u.beta
        self.free = (u._w_max + self.total) / u.k < u.beta

    def _g(self):
        return self.g

    def _gains(self, cand):
        u = self.utility
        if self.capped:
            return np.zeros(cand.size)
        gains = u.weights[cand] + self.total
        gains /= u.k
        if not self.free:
            np.minimum(gains, u.beta, out=gains)
        gains *= u.alpha
        return np.subtract(gains, self.g, out=gains)

    def _gain(self, v):  # a free gain, with the bits of ``_gains``
        u = self.utility
        return u.alpha * ((u.weights.item(v) + self.total) / u.k) - self.g

    def pick(self, min_dist, floor, pos):
        """Capped, the lowest index; free, the first candidate on ``_order`` unless the next
        one's gain equals its (a lower index may tie): then, or straddling, the default."""
        if self.capped or self.free:
            mask = min_dist >= floor
            count = int(np.count_nonzero(mask))
            if not count:
                return None
            if self.capped:
                self.run.add(count)
                return int(mask.argmax()), 0.0, pos, None
            order = self.utility._order
            pos = _walk(order, min_dist, floor, pos)
            # nxt, the next candidate's position, is the next walk's start: once t joins S no point
            # before it is a candidate, here or on a branch peeled now (floors above dist(t, S))
            t, nxt = order.item(pos), pos + 1 if count == 1 else _walk(order, min_dist, floor, pos + 1)
            gain = self._gain(t)
            if count == 1 or self._gain(order.item(nxt)) != gain:
                self.run.add(count)
                return t, gain, nxt, None
        return super().pick(min_dist, floor, pos)


def _walk(order: np.ndarray, min_dist: np.ndarray, floor: float, pos: int) -> int:
    """The first position from ``pos`` on of a point with ``min_dist >= floor``, or the end."""
    while pos < order.size and min_dist.item(order.item(pos)) < floor:
        pos += 1
    return pos


class MarginSimilarityUtility(UtilityOracle):
    """g(S) = alpha_s * sum_{i in S} u_i - beta_s * sum over ordered pairs of
    distinct adjacent points in S of their similarity.

    Each undirected edge inside S contributes twice (once per order).
    Adjacency comes either from an explicit edge list ``(i, j, s)`` with
    similarities in [-1, 1], or from a dense symmetric similarity matrix
    (diagonal ignored).  **Not** monotone: adding a point adjacent to the current
    set can lose value; submodular (and declared so) only when no similarity is < 0.
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
        u = _float_array(uncertainty, "uncertainty")
        if u.ndim != 1 or u.size < 1:
            raise InputError("uncertainty must be a nonempty 1-D array")
        if not np.isfinite(u).all() or (u < 0).any() or (u > 2).any():
            raise InputError("uncertainty scores must lie in [0, 2]")
        if not (_real(alpha_s) and _real(beta_s) and 0.0 <= alpha_s < np.inf and 0.0 <= beta_s < np.inf):
            raise InputError(f"alpha_s {alpha_s} and beta_s {beta_s} must be finite and nonnegative")
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
            sim = _float_array(similarity, "similarity")
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
                i, j = _indices((i, j), "similarity edge", self.n)
                if i == j:
                    raise InputError("similarity edges must join distinct points")
                if not (_real(sval) and -1.0 <= sval <= 1.0):  # NaN fails too
                    raise InputError(f"similarities must be numbers in [-1, 1], got {sval!r}")
                sval = float(sval)
                key = (min(i, j), max(i, j))
                if key in seen:
                    raise InputError(f"duplicate similarity edge {key}")
                seen.add(key)
                adj[i].append((j, sval))
                adj[j].append((i, sval))
                canon.append((key[0], key[1], sval))
            self._adj = adj
            self.edges = tuple(sorted(canon))
        sims = self._sim if self._sim is not None else [e[2] for e in self.edges]
        self.submodular_declared = bool(np.all(np.greater_equal(sims, 0.0)))

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
        n = self._size(n)
        table = _float_array(values, "tabulated values")
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
    def _size(cls, n) -> int:
        """The ground set size ``n`` as an int, an integer in [1, MAX_N], else InputError."""
        n = integral(n, "tabulated ground set size")
        if not 1 <= n <= cls.MAX_N:
            raise InputError(f"tabulated utilities support 1 <= n <= {cls.MAX_N}")
        return n

    @classmethod
    def from_function(
        cls,
        n: int,
        fn: Callable[[tuple[int, ...]], float],
        *,
        monotone_declared: bool = False,
        submodular_declared: bool = False,
    ) -> "TabulatedUtility":
        """Tabulate ``fn`` over every subset, after ``n`` passes the size rule."""
        n, values = cls._size(n), []
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
