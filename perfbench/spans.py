"""Span tracing at the public boundaries of divsel's layers.

The traced run replaces public functions of ``divsel.algorithms``,
``divsel.formats`` and ``divsel.cli`` and public methods of ``Instance``
and ``UtilityOracle`` with wrappers defined here; the program itself is
not changed.  Each call made while a request is open records a span (name,
start, end, parent, request) and adds to counters taken at the same
boundary.  A span's self time is its duration minus the part its child
spans cover; calls run on one thread, so children never overlap.  Spans are
kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path

#: Wrapped boundaries: (span name, owner path under ``divsel``, attribute).
#: ``objective`` and ``distance_thresholds`` are core functions; they are
#: wrapped where the solvers look them up, in the ``algorithms`` namespace.
HOOKS = (
    ("algorithms.gist", "algorithms", "gist"),
    ("algorithms.simple_baseline", "algorithms", "simple_baseline"),
    ("algorithms.classic_greedy", "algorithms", "classic_greedy"),
    ("algorithms.random_baseline", "algorithms", "random_baseline"),
    ("algorithms.greedy_independent_set", "algorithms", "greedy_independent_set"),
    ("core.objective", "algorithms", "objective"),
    ("core.distance_thresholds", "algorithms", "distance_thresholds"),
    ("core.Instance.__init__", "Instance", "__init__"),
    ("core.distance_matrix", "Instance", "distance_matrix"),
    ("core.distance_row", "Instance", "distance_row"),
    ("core.pair_distances_sorted", "Instance", "pair_distances_sorted"),
    ("core.diametrical_pair", "Instance", "diametrical_pair"),
    ("utilities.batch_marginal", "UtilityOracle", "batch_marginal"),
    ("utilities.evaluate", "UtilityOracle", "evaluate"),
    ("formats.load_embeddings", "formats", "load_embeddings"),
    ("cli.main", "cli", "main"),
)
SOLVERS = ("algorithms.gist", "algorithms.simple_baseline", "algorithms.classic_greedy",
           "algorithms.random_baseline")
DISTANCE_ARRAYS = ("core.distance_matrix", "core.distance_row", "core.pair_distances_sorted")

#: Per-layer metrics: name -> (unit, better, the hook names it needs).
METRICS = {
    "core.distance_matrix_s": ("s", "lower", ["core.distance_matrix"]),
    "core.distance_bytes": ("bytes", "lower", DISTANCE_ARRAYS),
    "core.pair_sort_s": ("s", "lower", ["core.pair_distances_sorted"]),
    "core.distance_row_calls": ("count", "lower", ["core.distance_row"]),
    "core.distance_row_s": ("s", "lower", ["core.distance_row"]),
    "core.diametrical_pair_s": ("s", "lower", ["core.diametrical_pair"]),
    "core.instance_init_s": ("s", "lower", ["core.Instance.__init__"]),
    "core.thresholds": ("count", "lower", ["core.distance_thresholds"]),
    "core.thresholds_s": ("s", "lower", ["core.distance_thresholds"]),
    "core.objective_calls": ("count", "lower", ["core.objective"]),
    "core.objective_s": ("s", "lower", ["core.objective"]),
    "utilities.batch_marginal_calls": ("count", "lower", ["utilities.batch_marginal"]),
    "utilities.gain_queries": ("count", "lower", ["utilities.batch_marginal"]),
    "utilities.batch_marginal_s": ("s", "lower", ["utilities.batch_marginal"]),
    "utilities.s_per_gain_query": ("s/query", "lower", ["utilities.batch_marginal"]),
    "utilities.evaluate_calls": ("count", "lower", ["utilities.evaluate"]),
    "utilities.evaluate_s": ("s", "lower", ["utilities.evaluate"]),
    "algorithms.greedy_runs": ("count", "lower", ["algorithms.greedy_independent_set"]),
    "algorithms.greedy_steps": ("count", "lower", ["algorithms.greedy_independent_set"]),
    "algorithms.greedy_self_s": ("s", "lower", ["algorithms.greedy_independent_set"]),
    "algorithms.thresholds_per_run": (
        "count", "higher", ["core.distance_thresholds", "algorithms.greedy_independent_set"]),
    "algorithms.distinct_prefixes": ("count", "lower", ["algorithms.greedy_independent_set"]),
    "algorithms.steps_per_prefix": ("count", "lower", ["algorithms.greedy_independent_set"]),
    "algorithms.solver_self_s": ("s", "lower", SOLVERS),
    "formats.load_s": ("s", "lower", ["formats.load_embeddings"]),
    "formats.bytes_read": ("bytes", "lower", ["formats.load_embeddings"]),
    "cli.self_s": ("s", "lower", ["cli.main"]),
    "trace.unattributed_s": ("s", "lower", []),
    "trace.requests_per_s": ("1/s", "higher", []),
    "trace.untraced_requests_per_s": ("1/s", "higher", []),
    "trace.overhead_frac": ("ratio", "lower", []),
}


class Tracer:
    """Records spans and boundary counters for the request that is open."""

    def __init__(self, max_spans: int):
        self.max_spans = max_spans
        self.request: int | None = None  # tracing is off outside a request
        self.stack: list[list] = []  # open spans: [span id, child seconds]
        self.spans: list[tuple] = []  # (request, id, parent, name, start, end)
        self.dropped = 0
        self.next_id = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.requests = 0
        self.wall_s = 0.0
        self.worst_gap_frac = 0.0
        self.missing: list[str] = []

    # -- hooks ----------------------------------------------------------------

    def install(self, dv) -> None:
        """Wrap every boundary in HOOKS that the loaded package still has."""
        for name, owner_path, attr in HOOKS:
            owner = getattr(dv, owner_path, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None or not callable(fn):
                self.missing.append(name)
                continue
            setattr(owner, attr, self._wrap(name, fn))

    def _wrap(self, name: str, fn):
        observe = getattr(self, "_observe_" + name.rsplit(".", 1)[-1], None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.request is None:
                return fn(*args, **kwargs)
            frame = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._close(name, frame, start, end)
            if observe is not None:
                observe(name, args, kwargs, result)
            return result

        return traced

    def _open(self) -> list:
        frame = [self.next_id, 0.0]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, start: float, end: float) -> None:
        self.stack.pop()
        duration = end - start
        parent = self.stack[-1]
        parent[1] += duration
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - frame[1]
        if len(self.spans) < self.max_spans:
            self.spans.append((self.request, frame[0], parent[0], name, start, end))
        else:
            self.dropped += 1

    # -- counters taken at the boundaries --------------------------------------

    def _observe_batch_marginal(self, name, args, kwargs, result):
        self.counts["gain_queries"] += len(result)

    def _observe_distance_thresholds(self, name, args, kwargs, result):
        self.counts["thresholds"] += len(result)

    def _observe_greedy_independent_set(self, name, args, kwargs, result):
        self.counts["greedy_steps"] += len(result)
        node = 0  # root of this request's prefix trie
        for v in result:
            node = self._trie.setdefault((node, int(v)), len(self._trie) + 1)

    def _observe_load_embeddings(self, name, args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        self.counts["bytes_read"] += os.path.getsize(path)

    def _observe_array(self, name, args, kwargs, result):
        base = result
        while getattr(base, "base", None) is not None:
            base = base.base
        if id(base) not in self._arrays:
            self._arrays[id(base)] = base  # held until the request ends, so ids stay unique
            self.counts["distance_bytes"] += getattr(base, "nbytes", 0)

    _observe_distance_matrix = _observe_distance_row = _observe_pair_distances_sorted = _observe_array

    # -- requests --------------------------------------------------------------

    def begin(self, request: int) -> None:
        self.request = request
        self._trie: dict[tuple[int, int], int] = {}
        self._arrays: dict[int, object] = {}
        self.stack = [[self.next_id, 0.0]]
        self.next_id += 1
        self._start = time.perf_counter()

    def end(self) -> None:
        """Close the request; its root span's self time is the unattributed gap."""
        end = time.perf_counter()
        root_id, covered = self.stack[0]
        wall = end - self._start
        gap = wall - covered
        self.spans.append((self.request, root_id, None, "request", self._start, end))
        self.requests += 1
        self.wall_s += wall
        self.counts["unattributed_s"] += gap
        self.counts["distinct_prefixes"] += len(self._trie)
        if wall > 0:
            self.worst_gap_frac = max(self.worst_gap_frac, gap / wall)
        self.request = None
        self.stack = []
        self._trie = {}
        self._arrays = {}

    # -- results ----------------------------------------------------------------

    def metrics(self, rates: dict[str, float]) -> dict[str, float]:
        """Per-layer metrics as means per traced request."""
        r = max(self.requests, 1)
        c, s = self.calls, self.self_s

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        steps = self.counts["greedy_steps"]
        values = {
            "core.distance_matrix_s": s["core.distance_matrix"] / r,
            "core.distance_bytes": self.counts["distance_bytes"] / r,
            "core.pair_sort_s": s["core.pair_distances_sorted"] / r,
            "core.distance_row_calls": c["core.distance_row"] / r,
            "core.distance_row_s": s["core.distance_row"] / r,
            "core.diametrical_pair_s": s["core.diametrical_pair"] / r,
            "core.instance_init_s": s["core.Instance.__init__"] / r,
            "core.thresholds": self.counts["thresholds"] / r,
            "core.thresholds_s": s["core.distance_thresholds"] / r,
            "core.objective_calls": c["core.objective"] / r,
            "core.objective_s": s["core.objective"] / r,
            "utilities.batch_marginal_calls": c["utilities.batch_marginal"] / r,
            "utilities.gain_queries": self.counts["gain_queries"] / r,
            "utilities.batch_marginal_s": s["utilities.batch_marginal"] / r,
            "utilities.s_per_gain_query": ratio(s["utilities.batch_marginal"],
                                                self.counts["gain_queries"]),
            "utilities.evaluate_calls": c["utilities.evaluate"] / r,
            "utilities.evaluate_s": s["utilities.evaluate"] / r,
            "algorithms.greedy_runs": c["algorithms.greedy_independent_set"] / r,
            "algorithms.greedy_steps": steps / r,
            "algorithms.greedy_self_s": s["algorithms.greedy_independent_set"] / r,
            "algorithms.thresholds_per_run": ratio(self.counts["thresholds"],
                                                   c["algorithms.greedy_independent_set"]),
            "algorithms.distinct_prefixes": self.counts["distinct_prefixes"] / r,
            "algorithms.steps_per_prefix": ratio(steps, self.counts["distinct_prefixes"]),
            "algorithms.solver_self_s": sum(s[name] for name in SOLVERS) / r,
            "formats.load_s": s["formats.load_embeddings"] / r,
            "formats.bytes_read": self.counts["bytes_read"] / r,
            "cli.self_s": s["cli.main"] / r,
            "trace.unattributed_s": self.counts["unattributed_s"] / r,
            **rates,
        }
        return values

    def absent(self) -> list[str]:
        """Metrics whose boundary the loaded package no longer has."""
        return [m for m, (_, _, hooks) in METRICS.items() if any(h in self.missing for h in hooks)]

    def summary(self) -> dict:
        return {
            "traced_requests": self.requests,
            "traced_wall_s": self.wall_s,
            "self_s_sum": sum(self.self_s.values()) + self.counts["unattributed_s"],
            "unattributed_frac": self.counts["unattributed_s"] / self.wall_s if self.wall_s else 0.0,
            "worst_request_gap_frac": self.worst_gap_frac,
            "spans_kept": len(self.spans),
            "spans_dropped": self.dropped,
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "hooks_missing": self.missing,
        }

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for req, span, parent, name, start, end in self.spans:
                fh.write(json.dumps({"request": req, "id": span, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
