"""Golden output digests.

``GOLDEN``: every field of every solver's ``Solution``, each utility's
``marginal`` and ``batch_marginal`` values and its sampled
``check_monotone_submodular`` report, over a small seeded grid, hashed into
one SHA-256 with floats as ``float.hex``.  ``GOLDEN_EXACT``: the exact layer
over the same grid's cells with n <= 5, that is ``brute_force_opt``,
``brute_force_constrained`` at two floors and the exhaustive property
report, each with the queries it made.
A change meant to keep outputs bit for bit leaves both digests as they are; a
change meant to alter an output records the new digest and says why.

To see which records a change moves, run ``python tests/test_golden.py --dump
FILE`` in each checkout and ``diff`` the files: one record per line, the text
each digest hashes (floats as ``float.hex``), numbered within its digest.

Matrix and Euclidean instances only: the cosine matrix goes through BLAS,
whose rounding may differ between builds.  ``--dump FILE --cosine`` writes a
cosine grid instead, kept out of both digests, for diffing two checkouts on
one machine: every solver on both schedules, ``greedy_independent_set`` at
three floors, ``d_max`` with its pair, and a hash of every distance row the
solvers read, on a fresh instance and on one whose dense matrix came first.
``--dump FILE --coverage`` writes a coverage grid, also kept out of both digests:
families like the benchmark's ``coverage-gains`` (universe 800, sets of 5 to 30
ids) and overlapping ones on either side of the co-holder index's n**2 rule, each
with ``evaluate`` and ``batch_marginal``, every solver on both schedules and
``greedy_independent_set`` at three floors.
``--dump FILE --ingest`` runs ``divsel ingest`` in process over a fixed grid of
embeddings files, also kept out of both digests: valid files of float, integer
and one-hot rows at a few sizes, some with blank lines and CRLF or CR line ends,
and one file per fault kind with the fault on line 1 and again on line 4.  Each
run records its exit code, the last line of stderr (the file's directory as
``<DIR>``) and the output fields, floats as ``float.hex``.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import tempfile
from pathlib import Path

import numpy as np

from divsel import (
    BudgetAdditiveUtility,
    ConstantZeroUtility,
    CoverageUtility,
    Instance,
    LinearUtility,
    MarginSimilarityUtility,
    Problem,
    TabulatedUtility,
    brute_force_constrained,
    brute_force_opt,
    check_monotone_submodular,
    classic_greedy,
    gist,
    greedy_independent_set,
    random_baseline,
    simple_baseline,
)
from support import cosine_points

GOLDEN = "2bad52461c59fad0c8d34a1f8fb19cd1499d579c8fde5361a7a4ecc7cf978fb9"
GOLDEN_EXACT = "d82993095b834194971740e76951826b3324ef3cba0852fe95943127c3e5b1a4"


def instances(rng, n):
    """Two matrix and two Euclidean instances over ``n`` points, with ties."""
    tied = np.triu(rng.integers(1, 4, (n, n)).astype(float), 1)
    box = np.triu(rng.uniform(1.0, 2.0, (n, n)), 1)
    yield Instance.from_matrix(tied + tied.T)
    yield Instance.from_matrix(box + box.T)
    yield Instance.from_euclidean(rng.standard_normal((n, 3)))
    yield Instance.from_euclidean(rng.integers(0, 2, (n, 2)))  # duplicate points


def utilities(rng, n, k):
    """One utility of each kind over ``n`` points."""
    weights = rng.uniform(0.0, 1.0, n)
    uncertainty = rng.uniform(0.0, 2.0, n)
    sim = np.triu(rng.uniform(-1.0, 1.0, (n, n)), 1)
    edges = [(i, j, float(sim[i, j])) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.5]
    family = [[int(e) for e in np.flatnonzero(rng.random(10) < 0.3)] for _ in range(n)]
    yield LinearUtility(weights)
    yield CoverageUtility(family, 10)
    yield BudgetAdditiveUtility(weights, alpha=0.95, beta=0.75, k=k)
    yield MarginSimilarityUtility(uncertainty, edges=edges)
    yield MarginSimilarityUtility(uncertainty, similarity=sim + sim.T, alpha_s=0.7, beta_s=0.3)
    yield ConstantZeroUtility(n)
    yield TabulatedUtility.from_function(n, lambda s: math.sqrt(weights[list(s)].sum()))


def solution_fields(sol):
    return tuple(x.hex() if isinstance(x, float) else x for x in (
        sol.selected, sol.f_value, sol.g_value, sol.div_value, sol.algorithm,
        sol.oracle_calls, sol.winning_threshold, sol.seed))


def grid(sizes):
    """``(inst, k, lam, util, base)`` for each cell over ``sizes`` points."""
    for n in sizes:
        rng = np.random.default_rng(n)
        for inst in instances(rng, n):
            k = int(rng.integers(1, n + 1))
            lam = float(rng.choice([0.0, 0.3, 2.0]))
            for util in utilities(rng, n, k):
                yield inst, k, lam, util, [int(i) for i in np.flatnonzero(rng.random(n) < 0.4)]


def records():
    for inst, k, lam, util, base in grid((1, 5, 9)):
        n = util.n
        cand = [v for v in range(n) if v not in base]
        yield util.kind, [util.marginal(v, base).hex() for v in cand]
        yield util.kind, util.batch_marginal(cand, base).tobytes().hex()
        yield repr(check_monotone_submodular(util, trials=40, seed=n))
        for schedule in ("geometric", "exhaustive"):
            problem = Problem(inst, util, lam=lam, k=k, epsilon=0.2, schedule=schedule)
            for sol in (gist(problem), simple_baseline(problem),
                        classic_greedy(problem), random_baseline(problem, seed=3)):
                yield solution_fields(sol)


def exact_fields(exact):
    value = None if exact.opt_value is None else exact.opt_value.hex()
    return value, exact.witness, exact.subsets_examined, exact.feasible


def exact_records():
    for inst, k, lam, util, _ in grid((1, 5)):
        before = util.query_count
        yield repr(check_monotone_submodular(util, exhaustive=True)), util.query_count - before
        yield exact_fields(brute_force_opt(Problem(inst, util, lam=lam, k=k)))
        for d in (inst.d_max / 2.0, inst.d_max):
            yield exact_fields(brute_force_constrained(inst, util, d, k))
        yield util.query_count - before


def digest(records):
    h = hashlib.sha256()
    for record in records:
        h.update(repr(record).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_golden_digest():
    assert digest(records()) == GOLDEN


def test_golden_exact_digest():
    assert digest(exact_records()) == GOLDEN_EXACT


def row_hash(inst):
    """SHA-256 of every distance row the solvers read, in order."""
    rows = getattr(inst, "_rows", inst.distance_matrix)()  # older trees read the dense matrix
    h = hashlib.sha256()
    for t in range(inst.n):
        h.update(rows[t].tobytes())
    return h.hexdigest()


def cosine_records():
    for n in (1, 2, 3, 4, 7, 16, 50, 150, 300):
        for dim in (1, 3, 64):
            for kind in ("gaussian", "ties", "identical"):
                rng = np.random.default_rng([n, dim, len(kind)])
                points = cosine_points(rng, n, dim, kind)
                k = int(rng.integers(1, min(n, 20) + 1))
                lam = float(rng.choice([0.0, 0.05, 0.5, 3.0]))
                family_sets = [np.flatnonzero(rng.random(10) < 0.3).tolist() for _ in range(n)]
                weights = rng.uniform(0.0, 1.0, n)
                utils = (LinearUtility(weights), BudgetAdditiveUtility(weights, 0.95, 0.75, k=k),
                         CoverageUtility(family_sets, 10), ConstantZeroUtility(n))
                for dense_first in (False, True):
                    inst = Instance.from_cosine(points)
                    if dense_first:
                        inst.distance_matrix()
                    yield "rows", row_hash(inst)
                    yield inst.d_max.hex(), inst.diametrical_pair() if n >= 2 else None
                    for schedule in ("geometric", "exhaustive"):  # the dense matrix comes last
                        for util in utils:
                            problem = Problem(inst, util, lam=lam, k=k, epsilon=0.2, schedule=schedule)
                            for sol in (gist(problem), simple_baseline(problem),
                                        classic_greedy(problem), random_baseline(problem, seed=3)):
                                yield solution_fields(sol)
                            if schedule == "geometric":
                                for d in (0.0, inst.d_max / 4.0, inst.d_max / 2.0):
                                    yield greedy_independent_set(inst, util, d, k)
                    inst.distance_matrix()
                    yield "rows", row_hash(inst)


def coverage_families(rng, n):
    """A family like the benchmark's, one overlapping family sparse enough for the co-holder
    index (on average 0.64 n**2 entries and up) and one too dense for it (about 2 n**2)."""
    yield [rng.choice(800, int(rng.integers(5, 31)), replace=False).tolist() for _ in range(n)], 800
    yield [np.flatnonzero(rng.random(16) < 0.2).tolist() for _ in range(n)], 16
    yield [np.flatnonzero(rng.random(15) < 0.35).tolist() for _ in range(n)], 15


def coverage_records():
    for n, rep in itertools.product((10, 20, 50, 100, 150, 300), (0, 1)):
        rng = np.random.default_rng([n, 800, rep])
        inst = Instance.from_euclidean(rng.standard_normal((n, 8)))
        for family, universe in coverage_families(rng, n):
            util = CoverageUtility(family, universe)
            k = int(rng.integers(1, min(n, 60) + 1))
            lam = float(rng.choice([0.0, 0.05, 0.5, 3.0]))
            base = [int(i) for i in np.flatnonzero(rng.random(n) < 0.1)]
            cand = [v for v in range(n) if v not in base]
            yield util.evaluate(base).hex(), util.batch_marginal(cand, base).tobytes().hex()
            for schedule in ("geometric", "exhaustive"):
                problem = Problem(inst, util, lam=lam, k=k, epsilon=0.2, schedule=schedule)
                for sol in (gist(problem), simple_baseline(problem),
                            classic_greedy(problem), random_baseline(problem, seed=3)):
                    yield solution_fields(sol)
            for d in (0.0, inst.d_max / 4.0, inst.d_max / 2.0):
                yield greedy_independent_set(inst, util, d, k)


INGEST_FAULTS = {  # fault kind -> a line with it
    "true-in-embedding": '{"embedding": [true, 0.5], "uncertainty": 0.5}',
    "false-in-embedding": '{"embedding": [0.5, false], "uncertainty": 0.5}',
    "true-uncertainty": '{"embedding": [0.6, 0.8], "uncertainty": true}',
    "false-uncertainty": '{"embedding": [0.6, 0.8], "uncertainty": false}',
    "string": '{"embedding": ["0.6", 0.8], "uncertainty": 0.5}',
    "null": '{"embedding": [0.6, null], "uncertainty": 0.5}',
    "nested": '{"embedding": [[0.6], 0.8], "uncertainty": 0.5}',
    "ragged": '{"embedding": [0.6, 0.8, 0.0], "uncertainty": 0.5}',
    "non-array": '{"embedding": "12", "uncertainty": 0.5}',
    "missing-key": '{"embedding": [0.6, 0.8]}',
    "non-object": "[0.6, 0.8]",
    "trailing-comma": '{"embedding": [0.6, 0.8,], "uncertainty": 0.5}',
    "nan": '{"embedding": [NaN, 0.8], "uncertainty": 0.5}',
    "65-bit-integer": '{"embedding": [%d, 0.8], "uncertainty": 0.5}' % (2**64 + 1),
    "401-digit-integer": '{"embedding": [%s, 0.8], "uncertainty": 0.5}' % ("1" * 401),
}

INGEST_FLAGS = ([], ["--alpha", "0.5", "--lam", "0.3"], ["--utility", "margin_similarity"])


def ingest_files():
    """``(name, text, k, flag sets)`` of each embeddings file of the ingest grid."""
    for n, dim in ((1, 1), (2, 3), (7, 5), (60, 16), (400, 64)):
        rng = np.random.default_rng([n, dim])
        rows = {"floats": rng.standard_normal((n, dim)).tolist(),
                "ints": rng.integers(-9, 10, (n, dim)).tolist(),
                "one-hot": np.eye(dim)[rng.integers(0, dim, n)].tolist(),
                "one-hot-ints": np.eye(dim, dtype=int)[rng.integers(0, dim, n)].tolist()}
        scores = rng.uniform(0.0, 2.0, n).tolist()
        for kind, vectors in rows.items():
            lines = [json.dumps({"embedding": v, "uncertainty": u})
                     for v, u in zip(vectors, scores)]
            k = min(n, 3)
            yield f"{kind}-{n}x{dim}", "".join(line + "\n" for line in lines), k, INGEST_FLAGS
            if kind == "floats":
                yield f"{kind}-{n}x{dim}-crlf", "\r\n  \r\n".join(lines), k, INGEST_FLAGS[:1]
                yield f"{kind}-{n}x{dim}-cr", "\r\t\r".join(lines) + "\r", k, INGEST_FLAGS[:1]
    rng = np.random.default_rng(6)
    good = [json.dumps({"embedding": rng.standard_normal(2).tolist(), "uncertainty": u})
            for u in rng.uniform(0.0, 2.0, 6).tolist()]
    for fault, line in INGEST_FAULTS.items():
        for at in (1, 4):
            lines = good[:at - 1] + [line] + good[at:]
            yield f"{fault}-line{at}", "".join(line + "\n" for line in lines), 3, INGEST_FLAGS[:1]


def ingest_records():
    """One record per ``divsel ingest`` run over the ingest grid."""
    from divsel import cli

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.json"
        for name, text, k, flag_sets in ingest_files():
            path = Path(tmp) / f"{name}.jsonl"
            path.write_bytes(text.encode("utf-8"))
            for flags in flag_sets:
                out.unlink(missing_ok=True)
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = cli.main(["ingest", "--embeddings", str(path), "--k", str(k), *flags,
                                     "--out", str(out)])
                last = err.getvalue().splitlines()[-1:]
                fields = json.loads(out.read_text()) if code == 0 else {}
                yield (name, flags, code, [line.replace(tmp, "<DIR>") for line in last],
                       [(key, value.hex() if isinstance(value, float) else value)
                        for key, value in sorted(fields.items()) if key != "wall_time_ms"])


def dump(path, cosine=False, coverage=False, ingest=False):
    """Write every record of both digests, or of the cosine, coverage or ingest grid, to
    ``path``, one per line."""
    sources = ((("cosine", cosine_records()),) if cosine else
               (("coverage", coverage_records()),) if coverage else
               (("ingest", ingest_records()),) if ingest else
               (("golden", records()), ("exact", exact_records())))
    with open(path, "w") as fh:
        for name, recs in sources:
            for i, record in enumerate(recs):
                fh.write(f"{name} {i} {record!r}\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Dump the golden records for diffing.")
    parser.add_argument("--dump", metavar="FILE", required=True)
    parser.add_argument("--cosine", action="store_true",
                        help="dump the same-machine cosine grid instead of the digests' records")
    parser.add_argument("--coverage", action="store_true",
                        help="dump the same-machine coverage grid instead of the digests' records")
    parser.add_argument("--ingest", action="store_true",
                        help="dump divsel ingest over a grid of embeddings files instead")
    args = parser.parse_args()
    dump(args.dump, args.cosine, args.coverage, args.ingest)
