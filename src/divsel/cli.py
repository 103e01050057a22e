"""Command-line front end.

Subcommands:

* ``gen``    -- write an instance + utility JSON pair for a named family;
* ``solve``  -- run one algorithm (or all of them) on an instance file;
* ``sweep``  -- cross-product of algorithms x budgets x seeds, one CSV row each;
* ``verify`` -- compare every algorithm against the brute-force optimum and
  flag approximation-guarantee violations;
* ``ingest`` -- read a JSON-lines embeddings file and select a subset under
  cosine distance, always (no ``--metric`` flag).

``solve``, ``sweep`` and ``verify`` share ``--instance``, ``--utility``,
``--lam``, ``--epsilon`` and ``--validate-triangle``; the solver name picks
gist's schedule (``gist`` geometric, ``gist-exhaustive`` exhaustive).

Exit codes: 0 success, 2 parse failure, 3 invalid parameters, 4 exact-solver
size guard, 5 guarantee violation found by ``verify``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, algorithms, formats, oracle
from .core import Instance, Problem, Solution, _indices, _unit_rows
from .errors import FormatError, InputError, SizeGuardError
from .utilities import LinearUtility, MarginSimilarityUtility

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PARAMS = 3
EXIT_SIZE_GUARD = 4
EXIT_GUARANTEE = 5

#: Exit code of each error type ``main`` reports; the first match wins, so a
#: ``FormatError`` (a ``ValueError``) is a parse failure.
EXIT_CODES = {
    FormatError: EXIT_PARSE,
    SizeGuardError: EXIT_SIZE_GUARD,
    ValueError: EXIT_PARAMS,  # InputError included
    OSError: EXIT_PARSE,
}

#: CLI solver name -> ``run(problem, seed)``.  Each entry looks its solver up in
#: ``algorithms`` when called, so that wrappers installed there later are seen.
SOLVERS = {
    "gist": lambda problem, seed: algorithms.gist(problem),
    "gist-exhaustive": lambda problem, seed: algorithms.gist(problem.with_schedule("exhaustive")),
    "simple": lambda problem, seed: algorithms.simple_baseline(problem),
    "greedy": lambda problem, seed: algorithms.classic_greedy(problem),
    "random": lambda problem, seed: algorithms.random_baseline(problem, seed),
}

#: Fixed column set of results CSV files.
CSV_COLUMNS = (
    "algorithm",
    "k",
    "seed",
    "f",
    "g",
    "div",
    "oracle_calls",
    "wall_time_ms",
    "threshold",
)

SIMPLE_GUARANTEE = (math.e - 1.0) / (2.0 * math.e - 1.0)
GUARANTEE_SLACK = 1e-9

#: Largest point count for which a dense similarity matrix is built by ingest.
DENSE_SIMILARITY_MAX_N = 5000


def _sha256(path: str | Path) -> str:
    # read whole: parsing the same file already held more than its bytes in memory
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _solver_names(names: list[str]) -> list[str]:
    for name in names:
        if name not in SOLVERS:
            raise InputError(f"unknown algorithm {name!r}; expected one of {tuple(SOLVERS)}")
    return names


def _problem(args: argparse.Namespace, instance: Instance, utility_doc, k: int) -> Problem:
    """The problem of the shared flags, with the utility document bound to budget ``k``."""
    utility = formats.utility_from_dict(utility_doc, bind_k=k)
    return Problem(instance, utility, args.lam, k, args.epsilon)


def _record(sol: Solution, elapsed_ms: float) -> dict:
    return {
        "algorithm": sol.algorithm,
        "f": sol.f_value,
        "g": sol.g_value,
        "div": sol.div_value,
        "oracle_calls": sol.oracle_calls,
        "wall_time_ms": round(elapsed_ms, 3),
        "threshold": sol.winning_threshold,
        "selected": list(sol.selected),
    }


def _timed_run(name: str, problem: Problem, seed: int, instance_hash: str) -> dict:
    t0 = time.perf_counter()
    sol = SOLVERS[name](problem, seed)
    rec = _record(sol, (time.perf_counter() - t0) * 1000.0)
    rec.update(k=problem.k, seed=seed, instance_hash=instance_hash)
    return rec


def _write_records(records: list[dict], path: str | Path, fmt: str) -> None:
    if fmt == "json":
        formats._write_json(records, path)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow(["" if rec[col] is None else rec[col] for col in CSV_COLUMNS])


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise InputError(f"{flag} expects a comma-separated integer list, got {text!r}") from exc
    if not values:
        raise InputError(f"{flag} must be nonempty")
    return values


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def cmd_gen(args: argparse.Namespace) -> int:
    from . import generators  # only gen needs it: loaded here

    family = args.family
    if family == "gaussian":
        gen = generators.gen_gaussian(args.n, args.dim, args.seed)
        parameters = {"n": args.n, "dim": args.dim, "alpha": args.alpha, "beta": args.beta}
    elif family == "greedy-hard":
        gen = generators.gen_greedy_hard(args.n, args.k, args.eps_inst)
        parameters = {"n": args.n, "k": args.k, "eps_inst": args.eps_inst}
    elif family == "nonsubmodular":
        gen = generators.gen_nonsubmodular_example(args.monotone_variant)
        parameters = {"monotone_variant": args.monotone_variant}
    elif family in ("clique-reduction", "independent-set-reduction"):
        graph = formats.load_graph(args.graph)
        build = (
            generators.gen_clique_reduction
            if family == "clique-reduction"
            else generators.gen_independent_set_reduction
        )
        gen = build(graph, args.alpha, args.k)
        parameters = {"alpha": args.alpha, "k": args.k, "graph": str(args.graph)}
    elif family == "cover-reduction":
        family_sets, groups = formats.load_set_family(args.set_family)
        gen = generators.gen_cover_reduction(family_sets, groups, args.lambda_override)
        parameters = {"set_family": str(args.set_family), "lambda_override": args.lambda_override}
    else:
        raise InputError(f"unknown family {family!r}")
    if gen.utility is None:  # gaussian
        utility_doc = {
            "kind": "budget_additive",
            "weights": gen.params["weights"].tolist(),
            "alpha": args.alpha,
            "beta": args.beta,
            # no "k": the cap binds to the solve-time budget
        }
        lam = 1.0 - args.alpha
    else:
        utility_doc = formats.utility_to_dict(gen.utility)
        lam = gen.lam

    provenance = {
        "family": family,
        "seed": args.seed,
        "parameters": parameters,
        "lam": lam,
        "k": gen.k,
        "divsel_version": __version__,
    }
    formats.save_instance(gen.instance, args.out_instance, provenance=provenance)
    utility_doc["provenance"] = provenance
    formats._write_json(utility_doc, args.out_utility)
    print(
        f"generated family={family} n={gen.instance.n} -> "
        f"{args.out_instance}, {args.out_utility} (recommended lam={lam}, k={gen.k})"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve / sweep
# ---------------------------------------------------------------------------


def cmd_solve(args: argparse.Namespace) -> int:
    names = list(SOLVERS) if args.algorithm == "all" else _solver_names([args.algorithm])
    instance = formats.load_instance(args.instance, validate_triangle=args.validate_triangle)
    utility_doc = formats._read_json(args.utility)
    problem = _problem(args, instance, utility_doc, args.k)
    instance_hash = _sha256(args.instance)
    records = [_timed_run(name, problem, args.seed, instance_hash) for name in names]
    _write_records(records, args.out, args.format)
    print(f"wrote {len(records)} record(s) to {args.out}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    names = _solver_names(sorted(set(args.algorithms.split(","))))
    k_list = sorted(set(_parse_int_list(args.k_list, "--k-list")))
    seeds = sorted(set(_parse_int_list(args.seeds, "--seeds")))
    instance = formats.load_instance(args.instance, validate_triangle=args.validate_triangle)
    utility_doc = formats._read_json(args.utility)
    instance_hash = _sha256(args.instance)

    records = []
    for k in k_list:
        problem = _problem(args, instance, utility_doc, k)
        for name in names:
            for seed in seeds:
                records.append(_timed_run(name, problem, seed, instance_hash))
    records.sort(key=lambda rec: (rec["algorithm"], rec["k"], rec["seed"]))
    _write_records(records, args.out, "csv")
    print(f"wrote {len(records)} row(s) to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _guarantee_threshold(name: str, problem: Problem) -> float | None:
    """Proven lower bound on the approximation ratio, where one exists."""
    util = problem.utility
    linear = util._fixed  # a modular g
    monotone_submodular = util.monotone_declared and util.submodular_declared
    if name == "gist":
        if linear:
            return 2.0 / 3.0 - problem.epsilon
        if monotone_submodular:
            return 0.5 - problem.epsilon
        return None
    if name == "gist-exhaustive":
        return 2.0 / 3.0 if linear else None
    if name == "simple":
        return SIMPLE_GUARANTEE if monotone_submodular else None
    return None


def cmd_verify(args: argparse.Namespace) -> int:
    instance = formats.load_instance(args.instance, validate_triangle=args.validate_triangle)
    utility_doc = formats._read_json(args.utility)
    problem = _problem(args, instance, utility_doc, args.k)
    exact = oracle.brute_force_opt(problem)

    report: dict = {
        "opt_value": exact.opt_value,
        "opt_witness": list(exact.witness),
        "subsets_examined": exact.subsets_examined,
        "epsilon": args.epsilon,
        "algorithms": {},
        "violations": [],
    }
    for name, run in SOLVERS.items():
        sol = run(problem, args.seed)
        ratio = oracle._ratio(sol.f_value, exact.opt_value)
        guarantee = _guarantee_threshold(name, problem)
        meets = None
        if guarantee is not None and ratio is not None:
            meets = ratio >= guarantee - GUARANTEE_SLACK
            if not meets:
                report["violations"].append(
                    {"algorithm": name, "ratio": ratio, "guarantee": guarantee}
                )
        report["algorithms"][name] = {
            "f": sol.f_value,
            "ratio": ratio,
            "guarantee": guarantee,
            "meets_guarantee": meets,
            "selected": list(sol.selected),
            "oracle_calls": sol.oracle_calls,
        }
        flag = "ok" if meets in (True, None) else "VIOLATION"
        print(f"{name}: f={sol.f_value} ratio={ratio} guarantee={guarantee} [{flag}]")

    if args.out:
        formats._write_json(report, args.out)
        print(f"wrote report to {args.out}")
    if report["violations"]:
        return EXIT_GUARANTEE
    return EXIT_OK


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


def cmd_ingest(args: argparse.Namespace) -> int:
    embeddings, uncertainty = formats.load_embeddings(args.embeddings)
    if not np.isfinite(embeddings).all():  # before the norm, which would warn on them
        raise InputError("points must be finite")
    unit, deviation = _unit_rows(embeddings, "embeddings must be nonzero vectors")
    if deviation > 1e-6:
        print(
            f"warning: normalizing embeddings to unit length "
            f"(max deviation {deviation:.3e})",
            file=sys.stderr,
        )
    instance = Instance.from_cosine(unit)
    n = instance.n

    if args.utility == "margin":
        alpha = args.alpha if args.alpha is not None else 0.9
        utility = LinearUtility(alpha * uncertainty)
    else:  # margin_similarity
        alpha = args.alpha if args.alpha is not None else 0.95
        # fold the outer utility weight into the linear form of the similarity
        # objective so that f = alpha * g + (1 - alpha) * div holds exactly
        alpha_s = alpha * args.alpha_s
        beta_s = alpha * args.beta_s
        if args.edges:
            pairs = formats.load_edge_pairs(args.edges)
            edge_list = [(i, j, float(np.clip(unit[i] @ unit[j], -1.0, 1.0)))
                         for i, j in (_indices(e, "edge", n) for e in pairs)]
            utility = MarginSimilarityUtility(
                uncertainty, edges=edge_list, alpha_s=alpha_s, beta_s=beta_s
            )
        else:
            if n > DENSE_SIMILARITY_MAX_N:
                raise InputError(
                    f"dense similarity is capped at n <= {DENSE_SIMILARITY_MAX_N}; "
                    "supply --edges for larger inputs"
                )
            sim = unit @ unit.T
            np.clip(sim, -1.0, 1.0, out=sim)
            np.fill_diagonal(sim, 0.0)  # off it, exactly symmetric (numpy's syrk)
            sim += 0.0  # a zero product of either sign becomes +0.0
            utility = MarginSimilarityUtility(
                uncertainty, similarity=sim, alpha_s=alpha_s, beta_s=beta_s
            )
    lam = args.lam if args.lam is not None else 1.0 - alpha

    problem = Problem(instance, utility, lam, args.k, args.epsilon, args.schedule)
    t0 = time.perf_counter()
    sol = algorithms.gist(problem)
    result = _record(sol, (time.perf_counter() - t0) * 1000.0)
    result.update(utility=args.utility, n=n, k=args.k, lam=lam, epsilon=args.epsilon)
    formats._write_json(result, args.out)
    print(f"selected {len(sol.selected)} of {n} points -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache  # one tree per process; parse_args leaves it as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divsel",
        description="Diversity-aware subset selection: maximize g(S) + lam * div(S), |S| <= k.",
    )
    parser.add_argument("--version", action="version", version=f"divsel {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance + utility JSON pair")
    gen.add_argument(
        "--family",
        required=True,
        help="one of: gaussian, greedy-hard, nonsubmodular, clique-reduction, "
        "independent-set-reduction, cover-reduction",
    )
    gen.add_argument("--n", type=int, default=100, help="point count (gaussian, greedy-hard)")
    gen.add_argument("--dim", type=int, default=64, help="dimension (gaussian)")
    gen.add_argument("--k", type=int, default=4, help="recommended budget (family-dependent)")
    gen.add_argument("--eps-inst", type=float, default=0.1, help="gap parameter (greedy-hard)")
    gen.add_argument("--alpha", type=float, default=0.95, help="utility weight (family-dependent)")
    gen.add_argument("--beta", type=float, default=0.75, help="utility cap (gaussian)")
    gen.add_argument("--monotone-variant", action="store_true", help="nonsubmodular family only")
    gen.add_argument("--graph", help="graph JSON file (clique/independent-set reductions)")
    gen.add_argument("--set-family", help="set-family JSON file (cover-reduction)")
    gen.add_argument("--lambda-override", type=float, default=None, help="cover-reduction only")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out-instance", required=True)
    gen.add_argument("--out-utility", required=True)
    gen.set_defaults(func=cmd_gen)

    # flags shared by every subcommand that reads an instance and a utility file
    files = argparse.ArgumentParser(add_help=False)
    files.add_argument("--instance", required=True)
    files.add_argument("--utility", required=True)
    files.add_argument("--lam", type=float, required=True, help="diversity weight lambda")
    files.add_argument("--epsilon", type=float, default=0.1)
    files.add_argument(
        "--validate-triangle", action="store_true",
        help="check the triangle inequality on matrix instances (O(n^3), n <= 512)",
    )

    solve = sub.add_parser(
        "solve", parents=[files], help="run one algorithm (or all) on an instance file"
    )
    solve.add_argument("--k", type=int, required=True)
    solve.add_argument("--algorithm", default="gist", help=f"{tuple(SOLVERS)} or 'all'")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--format", default="csv", choices=("csv", "json"))
    solve.add_argument("--out", required=True)
    solve.set_defaults(func=cmd_solve)

    sweep = sub.add_parser(
        "sweep", parents=[files], help="algorithms x budgets x seeds, one CSV row each"
    )
    sweep.add_argument("--k-list", required=True, help="comma-separated budgets")
    sweep.add_argument("--algorithms", default="gist,simple,greedy,random")
    sweep.add_argument("--seeds", default="0")
    sweep.add_argument("--out", required=True)
    sweep.set_defaults(func=cmd_sweep)

    verify = sub.add_parser(
        "verify", parents=[files], help="compare algorithms against the exact optimum"
    )
    verify.add_argument("--k", type=int, required=True)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--out", default=None)
    verify.set_defaults(func=cmd_verify)

    ingest = sub.add_parser("ingest", help="select a subset from an embeddings file")
    ingest.add_argument("--embeddings", required=True, help="JSON-lines embeddings file")
    ingest.add_argument("--utility", default="margin", choices=("margin", "margin_similarity"))
    ingest.add_argument(
        "--alpha", type=float, default=None,
        help="utility weight; lam defaults to 1 - alpha (default 0.9 margin, 0.95 similarity)",
    )
    ingest.add_argument("--alpha-s", type=float, default=0.9, help="margin_similarity only")
    ingest.add_argument("--beta-s", type=float, default=0.1, help="margin_similarity only")
    ingest.add_argument("--edges", default=None, help="similarity edge file [[i, j], ...]")
    ingest.add_argument("--k", type=int, required=True)
    ingest.add_argument("--lam", type=float, default=None, help="override the 1 - alpha default")
    ingest.add_argument("--epsilon", type=float, default=0.05)
    ingest.add_argument("--schedule", default="geometric")
    ingest.add_argument("--out", required=True)
    ingest.set_defaults(func=cmd_ingest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
