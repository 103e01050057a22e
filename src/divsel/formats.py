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
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from .core import Instance, UtilityOracle, integral
from .errors import FormatError, InputError
from .utilities import (
    BudgetAdditiveUtility,
    ConstantZeroUtility,
    CoverageUtility,
    LinearUtility,
    MarginSimilarityUtility,
)

if TYPE_CHECKING:
    from .generators import Graph

UTILITY_KINDS = ("linear", "coverage", "budget_additive", "margin_similarity", "constant_zero")


def _read_json(path: str | Path) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot parse {path}: {exc}") from exc


def _write_text(text: str, path: str | Path) -> None:
    """Write ``text`` as UTF-8 over ``path`` in place: O_TRUNC can take ~40 ms to free disk blocks."""
    data = text.encode("utf-8")  # before the open, so a failure leaves the old file alone
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:  # an fd: no truncation
        fh.write(data)  # a buffered write loops until every byte is written
        if os.fstat(fh.fileno()).st_size > len(data):  # cut a longer old tail; devices report 0
            fh.truncate()


def _write_json(obj: Any, path: str | Path) -> None:
    _write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", path)


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
    Other loaders keep ``json``: orjson reads integers beyond 64 bits as floats.

    The records are checked as a whole (``np.array`` must infer a 2-d float64 or
    int64 array; rows holding a 0 or 1 are probed for booleans), else per line in file
    order, so the first offending line names the error."""
    import orjson  # imported by the first ingest, not by ``import divsel``
    linenos, vectors, scores = [], [], []  # not the records: a dict per line doubles gc passes
    failure: Exception | None = None
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
                if not (isinstance(rec, dict) and "embedding" in rec and "uncertainty" in rec):
                    raise FormatError(f'{path}:{lineno}: each record must be a JSON object '
                                      'with "embedding" and "uncertainty"')
                linenos.append(lineno)
                vectors.append(rec["embedding"])
                scores.append(rec["uncertainty"])
    except Exception as exc:  # raised once every line before it has passed the walk
        failure = exc
    try:  # the whole file at once; anything in doubt is left to the walk below
        points = np.array(vectors)
    except ValueError:  # ragged rows
        points = None
    if (points is None or points.dtype not in (np.float64, np.int64) or points.ndim != 2
            or not set(map(type, scores)) <= {int, float}
            or any(bool in set(map(type, vectors[i]))  # numpy reads true and false as 1.0 and 0.0
                   for i in np.flatnonzero(((points == 0) | (points == 1)).any(axis=1)))):
        points, dim = vectors, None
        for lineno, vec, score in zip(linenos, vectors, scores):
            if not isinstance(vec, list):
                raise FormatError(f"{path}:{lineno}: embedding must be a JSON array")
            # exact types, so a JSON string or boolean (bool subclasses int) is no number
            if not set(map(type, vec)) | {type(score)} <= {int, float}:
                raise FormatError(f"{path}:{lineno}: embedding and uncertainty must be JSON numbers")
            if dim is None:
                dim = len(vec)
            elif len(vec) != dim:
                raise FormatError(f"{path}:{lineno}: embedding dimension {len(vec)} != {dim}")
    if failure is not None:
        if isinstance(failure, (OSError, ValueError)) and not isinstance(failure, FormatError):
            raise FormatError(f"cannot parse embeddings file {path}: {failure}") from failure
        raise failure  # a record that is no object with both keys, or what json itself raised
    if not vectors:
        raise FormatError(f"{path}: no embedding records found")
    try:
        return np.asarray(points, dtype=np.float64), np.asarray(scores, dtype=np.float64)
    except OverflowError as exc:  # an integer beyond float range
        raise FormatError(f"cannot parse embeddings file {path}: {exc}") from exc


def load_graph(path: str | Path) -> Graph:
    from .generators import Graph  # imported on first use, as ``gen`` does

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
        return [(integral(i, "edge index"), integral(j, "edge index")) for i, j in doc]
    except (TypeError, ValueError) as exc:  # ValueError: a record of another length, or no integer
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
