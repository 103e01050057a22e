"""JSON file formats.

Instance file::

    { "n": int, "metric": "euclidean" | "cosine" | "matrix",
      "points": [[float, ...], ...]   # euclidean / cosine
      "matrix": [[float, ...], ...]   # matrix
      "provenance": {...}  }          # optional, ignored on load

Exactly one of ``points`` / ``matrix`` must be present, matching the metric.

Utility file::

    { "kind": "linear",            "weights": [float, ...] }
    { "kind": "coverage",          "family": [[int, ...], ...], "universe_size": int? }
    { "kind": "budget_additive",   "weights": [...], "alpha": f, "beta": f, "k": int? }
    { "kind": "margin_similarity", "uncertainty": [...], "edges": [[i, j, s], ...],
                                   "alpha_s": f, "beta_s": f }
    { "kind": "constant_zero",     "n": int }

A budget-additive utility may omit ``k``; the loader then binds the cap to
the budget supplied at solve time.

Embeddings file: JSON lines, one record per point::

    { "embedding": [float, ...], "uncertainty": float }

Graph file:: ``{ "n": int, "edges": [[u, v], ...] }``

Set-family file:: ``{ "family": [[int, ...], ...], "groups": [int, ...]? }``
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from .core import Instance, UtilityOracle, integral
from .errors import FormatError, InputError
from .generators import Graph
from .utilities import (
    BudgetAdditiveUtility,
    ConstantZeroUtility,
    CoverageUtility,
    LinearUtility,
    MarginSimilarityUtility,
)

UTILITY_KINDS = ("linear", "coverage", "budget_additive", "margin_similarity", "constant_zero")


def _read_json(path: str | Path) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot parse {path}: {exc}") from exc


def _write_json(obj: Any, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_instance(instance: Instance, path: str | Path, provenance: dict | None = None) -> None:
    doc: dict[str, Any] = {"n": instance.n, "metric": instance.metric}
    if instance.metric == "matrix":
        doc["matrix"] = instance.distance_matrix().tolist()
    else:
        doc["points"] = instance.points.tolist()
    if provenance is not None:
        doc["provenance"] = provenance
    _write_json(doc, path)


def load_instance(path: str | Path, validate_triangle: bool = False) -> Instance:
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: instance document must be a JSON object")
    try:
        n = integral(doc["n"], "'n'")
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: missing or invalid 'n'") from exc
    try:  # Instance holds the rules for 'metric', 'points' and 'matrix'
        inst = Instance(
            doc.get("metric"), points=doc.get("points"), matrix=doc.get("matrix"),
            validate_triangle=validate_triangle,
        )
    except InputError as exc:
        raise FormatError(f"{path}: invalid instance data: {exc}") from exc
    if inst.n != n:
        raise FormatError(f"{path}: declared n={n} but found {inst.n} points")
    return inst


def utility_to_dict(utility: UtilityOracle) -> dict[str, Any]:
    if isinstance(utility, LinearUtility):
        return {"kind": "linear", "weights": utility.weights.tolist()}
    if isinstance(utility, CoverageUtility):
        return {
            "kind": "coverage",
            "family": [sorted(s) for s in utility.family],
            "universe_size": utility.universe_size,
        }
    if isinstance(utility, BudgetAdditiveUtility):
        return {
            "kind": "budget_additive",
            "weights": utility.weights.tolist(),
            "alpha": utility.alpha,
            "beta": utility.beta,
            "k": utility.k,
        }
    if isinstance(utility, MarginSimilarityUtility):
        if utility._sim is not None:
            raise FormatError("dense-similarity utilities are not serializable; use an edge list")
        return {
            "kind": "margin_similarity",
            "uncertainty": utility.uncertainty.tolist(),
            "edges": [[i, j, s] for i, j, s in utility.edges],
            "alpha_s": utility.alpha_s,
            "beta_s": utility.beta_s,
        }
    if isinstance(utility, ConstantZeroUtility):
        return {"kind": "constant_zero", "n": utility.n}
    raise FormatError(f"utility kind {utility.kind!r} is not serializable")


def save_utility(utility: UtilityOracle, path: str | Path, provenance: dict | None = None) -> None:
    doc = utility_to_dict(utility)
    if provenance is not None:
        doc["provenance"] = provenance
    _write_json(doc, path)


def utility_from_dict(doc: dict[str, Any], bind_k: int | None = None) -> UtilityOracle:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise FormatError("utility document must be a JSON object with a 'kind'")
    kind = doc["kind"]
    try:
        if kind == "linear":
            return LinearUtility(doc["weights"])
        if kind == "coverage":
            return CoverageUtility(doc["family"], doc.get("universe_size"))
        if kind == "budget_additive":
            k = bind_k if doc.get("k") is None else doc["k"]
            if k is None:
                raise FormatError(
                    "budget_additive utility omits 'k'; a solve-time budget is required"
                )
            return BudgetAdditiveUtility(doc["weights"], doc["alpha"], doc["beta"], k)
        if kind == "margin_similarity":
            edges = [tuple(e) for e in doc.get("edges", [])]
            if any(len(e) != 3 for e in edges):
                raise FormatError("margin_similarity edges must be [i, j, s] triples")
            return MarginSimilarityUtility(
                doc["uncertainty"],
                edges=edges,
                alpha_s=doc.get("alpha_s", 0.9),
                beta_s=doc.get("beta_s", 0.1),
            )
        if kind == "constant_zero":
            return ConstantZeroUtility(doc["n"])
    except (KeyError, TypeError) as exc:  # TypeError: e.g. a 'family' entry that is not a list
        raise FormatError(f"utility document has a missing or malformed field: {exc}") from exc
    raise FormatError(f"unknown utility kind {kind!r}; expected one of {UTILITY_KINDS}")


def load_utility(path: str | Path, bind_k: int | None = None) -> UtilityOracle:
    return utility_from_dict(_read_json(path), bind_k=bind_k)


def load_embeddings(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a JSON-lines embeddings file; returns (embeddings, uncertainty).

    orjson rounds as ``json`` does; a line it refuses (NaN, Infinity, numbers
    beyond float range, lone surrogates, bad syntax) is read by ``json``, so
    every file loads or fails as with ``json`` alone: NaN and Infinity still
    reach the finiteness checks (exit 3) and malformed lines still exit 2.
    Other loaders keep ``json``: orjson reads integers beyond 64 bits as floats."""
    import orjson  # imported by the first ingest, not by ``import divsel``
    vectors: list[list[float]] = []
    scores: list[float] = []
    dim: int | None = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = orjson.loads(line)
                except orjson.JSONDecodeError:
                    rec = json.loads(line)
                vec, score = rec["embedding"], rec["uncertainty"]
                if not isinstance(vec, list):
                    raise FormatError(f"{path}:{lineno}: embedding must be a JSON array")
                # exact types, so a JSON string or boolean (bool subclasses int) is no number
                if not set(map(type, vec)) | {type(score)} <= {int, float}:
                    raise FormatError(
                        f"{path}:{lineno}: embedding and uncertainty must be JSON numbers")
                if dim is None:
                    dim = len(vec)
                elif len(vec) != dim:
                    raise FormatError(
                        f"{path}:{lineno}: embedding dimension {len(vec)} != {dim}"
                    )
                vectors.append(vec)
                scores.append(score)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, FormatError):
            raise
        raise FormatError(f"cannot parse embeddings file {path}: {exc}") from exc
    if not vectors:
        raise FormatError(f"{path}: no embedding records found")
    try:
        return np.asarray(vectors, dtype=np.float64), np.asarray(scores, dtype=np.float64)
    except OverflowError as exc:  # an integer beyond float range
        raise FormatError(f"cannot parse embeddings file {path}: {exc}") from exc


def load_graph(path: str | Path) -> Graph:
    doc = _read_json(path)
    try:
        return Graph.from_edges(integral(doc["n"], "'n'"), doc.get("edges", []))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"cannot parse graph file {path}: {exc}") from exc


def load_edge_pairs(path: str | Path) -> list[tuple[int, int]]:
    doc = _read_json(path)
    if not isinstance(doc, list):
        raise FormatError(f"{path}: edge file must be a JSON list of [i, j] pairs")
    try:
        return [(integral(e[0], "edge index"), integral(e[1], "edge index")) for e in doc]
    except (TypeError, ValueError, IndexError) as exc:
        raise FormatError(f"{path}: malformed edge pair") from exc


def load_set_family(path: str | Path) -> tuple[list[list[int]], list[int] | None]:
    doc = _read_json(path)
    try:
        family = [[integral(e, "set element") for e in s] for s in doc["family"]]
        groups = doc.get("groups")
        if groups is not None:
            groups = [integral(g, "group label") for g in groups]
        return family, groups
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"cannot parse set-family file {path}: {exc}") from exc
