import argparse
import csv
import json
import math
import warnings

import numpy as np
import pytest

import reference
from divsel import CoverageUtility, Instance, LinearUtility, MarginSimilarityUtility, Problem
from divsel import cli
from divsel.cli import CSV_COLUMNS, _guarantee_threshold, main


def run(*argv):
    return main([str(a) for a in argv])


def write_embeddings(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def mask_wall_time(rows):
    col = rows[0].index("wall_time_ms")
    return [[v for i, v in enumerate(row) if i != col] for row in rows]


@pytest.fixture
def greedy_hard_files(tmp_path):
    inst = tmp_path / "inst.json"
    util = tmp_path / "util.json"
    assert run("gen", "--family", "greedy-hard", "--n", 8, "--k", 6, "--eps-inst", 0.1,
               "--out-instance", inst, "--out-utility", util) == 0
    return inst, util


def test_gen_is_byte_deterministic(tmp_path):
    paths = []
    for tag in ("a", "b"):
        inst = tmp_path / f"inst-{tag}.json"
        util = tmp_path / f"util-{tag}.json"
        assert run("gen", "--family", "gaussian", "--n", 40, "--dim", 8, "--seed", 3,
                   "--out-instance", inst, "--out-utility", util) == 0
        paths.append((inst, util))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_solve_all_writes_five_rows(greedy_hard_files, tmp_path):
    inst, util = greedy_hard_files
    out = tmp_path / "out.csv"
    assert run("solve", "--instance", inst, "--utility", util, "--lam", 1, "--k", 6,
               "--algorithm", "all", "--out", out) == 0
    rows = read_csv(out)
    assert rows[0] == list(CSV_COLUMNS)
    assert [r[0] for r in rows[1:]] == ["gist", "gist-exhaustive", "simple", "greedy", "random"]
    by_algo = {r[0]: r for r in rows[1:]}
    assert float(by_algo["gist"][3]) == 7.1
    assert float(by_algo["greedy"][3]) == 4.2


def test_solve_all_writes_one_row_per_solver_name(greedy_hard_files, tmp_path):
    # the solver name picks gist's schedule: solve takes no --schedule
    inst, util = greedy_hard_files
    out = tmp_path / "all.json"
    args = ("solve", "--instance", inst, "--utility", util, "--lam", 1, "--k", 6,
            "--algorithm", "all", "--format", "json", "--out", out)
    assert run(*args) == 0
    assert [rec["algorithm"] for rec in json.loads(out.read_text())] == list(cli.SOLVERS)
    with pytest.raises(SystemExit) as exc:
        run(*args, "--schedule", "exhaustive")
    assert exc.value.code == 2


def test_solve_json_format(greedy_hard_files, tmp_path):
    inst, util = greedy_hard_files
    out = tmp_path / "out.json"
    assert run("solve", "--instance", inst, "--utility", util, "--lam", 1, "--k", 6,
               "--algorithm", "gist", "--format", "json", "--out", out) == 0
    records = json.loads(out.read_text())
    assert len(records) == 1
    assert records[0]["f"] == 7.1
    assert records[0]["selected"] == [0, 1, 2, 3, 4, 5]
    assert len(records[0]["instance_hash"]) == 64


def test_solve_unknown_algorithm_is_parameter_error(greedy_hard_files, tmp_path):
    inst, util = greedy_hard_files
    assert run("solve", "--instance", inst, "--utility", util, "--lam", 1, "--k", 6,
               "--algorithm", "annealing", "--out", tmp_path / "x.csv") == 3
    assert run("sweep", "--instance", inst, "--utility", util, "--lam", 1, "--k-list", 6,
               "--algorithms", "gist,bogus", "--out", tmp_path / "x.csv") == 3
    assert not (tmp_path / "x.csv").exists()


def test_solve_infeasible_budget_is_parameter_error(greedy_hard_files, tmp_path):
    inst, util = greedy_hard_files
    assert run("solve", "--instance", inst, "--utility", util, "--lam", 1, "--k", 99,
               "--out", tmp_path / "x.csv") == 3
    for lam in ("inf", "nan"):
        assert run("solve", "--instance", inst, "--utility", util, "--lam", lam, "--k", 6,
                   "--algorithm", "all", "--out", tmp_path / "x.csv") == 3
    assert not (tmp_path / "x.csv").exists()


def test_solve_missing_and_malformed_files_are_parse_errors(tmp_path):
    missing = tmp_path / "missing.json"
    out = tmp_path / "x.csv"
    assert run("solve", "--instance", missing, "--utility", missing, "--lam", 1, "--k", 2,
               "--out", out) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert run("solve", "--instance", bad, "--utility", bad, "--lam", 1, "--k", 2,
               "--out", out) == 2
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"n": 2, "metric": "euclidean", "points": [[0.0], [1.0]]}))
    for doc in ({"kind": "coverage", "family": 5},
                {"kind": "margin_similarity", "uncertainty": [0.5, 0.5], "edges": [5]}):
        bad.write_text(json.dumps(doc))
        assert run("solve", "--instance", inst, "--utility", bad, "--lam", 1, "--k", 2,
                   "--out", out) == 2


def test_non_numeric_instance_data_is_a_parse_error(tmp_path):
    # the instance loader refuses a string, boolean or null coordinate or distance
    util, out = tmp_path / "util.json", tmp_path / "x.csv"
    util.write_text(json.dumps({"kind": "constant_zero", "n": 3}))
    inst = tmp_path / "inst.json"
    for doc in ({"n": 3, "metric": "euclidean", "points": [["0.5"], [True], [2.0]]},
                {"n": 3, "metric": "cosine", "points": [[None], [1.0], [2.0]]},
                {"n": 3, "metric": "matrix",
                 "matrix": [[0, "1", 1], ["1", 0, 1], [1, 1, 0]]},
                {"n": 3, "metric": "matrix",
                 "matrix": [[0, True, 1], [True, 0, 1], [1, 1, 0]]}):
        inst.write_text(json.dumps(doc))
        assert run("solve", "--instance", inst, "--utility", util, "--lam", 1, "--k", 2,
                   "--out", out) == 2, doc
    assert not out.exists()


def test_non_integral_integers_are_rejected(tmp_path):
    # a utility class raises InputError (exit 3), a file loader FormatError (exit 2)
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"n": 3, "metric": "euclidean", "points": [[0.0], [1.0], [3.0]]}))
    util, out = tmp_path / "util.json", tmp_path / "x.csv"
    for doc, code in (({"kind": "coverage", "family": [[1.5], [1.2], [2.9]]}, 3),
                      ({"kind": "constant_zero", "n": 3.7}, 3),
                      ({"kind": "constant_zero", "n": math.inf}, 3),
                      ({"kind": "constant_zero", "n": math.nan}, 3),
                      ({"kind": "coverage", "family": [[None], [1], [2]]}, 3),  # no ids
                      ({"kind": "coverage", "family": [["a"], [1], [2]]}, 3),
                      ({"kind": "coverage", "family": [[1.0], [1], [2.0]]}, 0),
                      ({"kind": "constant_zero", "n": 3.0}, 0)):
        util.write_text(json.dumps(doc))
        assert run("solve", "--instance", inst, "--utility", util, "--lam", 1, "--k", 2,
                   "--out", out) == code, doc
    for n in (math.inf, True):
        inst.write_text(json.dumps({"n": n, "metric": "euclidean", "points": [[0.0]]}))
        assert run("solve", "--instance", inst, "--utility", util, "--lam", 1, "--k", 1,
                   "--out", out) == 2
    emb, edges = tmp_path / "emb.jsonl", tmp_path / "edges.json"
    write_embeddings(emb, [{"embedding": v, "uncertainty": 0.5}
                           for v in ([1.0, 0.0], [0.0, 1.0], [-1.0, 0.0])])
    for pairs, code in (([[0.7, 1.2]], 2), ([[0.0, 1.0]], 0), ([[0, 3]], 3), ([[-1, 0]], 3)):
        edges.write_text(json.dumps(pairs))
        assert run("ingest", "--embeddings", emb, "--utility", "margin_similarity",
                   "--edges", edges, "--k", 2, "--out", tmp_path / "sel.json") == code, pairs


def test_non_numbers_and_short_edges_are_parse_errors(tmp_path):
    emb = tmp_path / "emb.jsonl"
    for bad in ({"embedding": ["1", "0"], "uncertainty": 0.5},
                {"embedding": [0, True], "uncertainty": 0.5},
                {"embedding": [1.0, 0.0], "uncertainty": "0.5"},
                {"embedding": [1.0, 0.0], "uncertainty": False},
                {"embedding": [1.0, 10**400], "uncertainty": 0.5}):  # beyond float range
        write_embeddings(emb, [{"embedding": [0.0, 1.0], "uncertainty": 0.5}, bad])
        assert run("ingest", "--embeddings", emb, "--k", 1, "--out", tmp_path / "x.json") == 2, bad
    inst, util = tmp_path / "inst.json", tmp_path / "util.json"
    inst.write_text(json.dumps({"n": 2, "metric": "euclidean", "points": [[0.0], [1.0]]}))
    util.write_text(json.dumps({"kind": "margin_similarity", "uncertainty": [0.5, 0.5],
                                "edges": [[0, 1]]}))
    assert run("solve", "--instance", inst, "--utility", util, "--lam", 1, "--k", 2,
               "--out", tmp_path / "x.csv") == 2


def test_utility_fields_that_are_no_numbers_exit_3(tmp_path):
    # a utility file's numbers reach the utility class, which refuses booleans, strings
    # and None (InputError, exit 3) instead of reading True as 1.0 and "0.5" as 0.5
    inst, util, out = tmp_path / "inst.json", tmp_path / "util.json", tmp_path / "x.csv"
    inst.write_text(json.dumps({"n": 3, "metric": "euclidean", "points": [[0.0], [1.0], [3.0]]}))
    budget = {"kind": "budget_additive", "weights": [0.5, 0.2, 0.9], "alpha": 0.9, "beta": 0.5}
    margin = {"kind": "margin_similarity", "uncertainty": [0.5, 0.2, 0.9], "edges": [[0, 1, 0.5]]}
    docs = [({"kind": "linear", "weights": [0.5, 0.2, 0.9]}, 0), (budget, 0), (margin, 0)]
    for bad in (True, "0.5", None):
        docs += [({"kind": "linear", "weights": [bad, 0.2, 0.9]}, 3),
                 ({**budget, "weights": [bad, 0.2, 0.9]}, 3),
                 ({**budget, "alpha": bad}, 3), ({**budget, "beta": bad}, 3),
                 ({**margin, "uncertainty": [bad, 0.2, 0.9]}, 3),
                 ({**margin, "alpha_s": bad}, 3), ({**margin, "beta_s": bad}, 3),
                 ({**margin, "edges": [[0, 1, bad]]}, 3)]
    for doc, code in docs:
        util.write_text(json.dumps(doc))
        assert run("solve", "--instance", inst, "--utility", util, "--lam", 1, "--k", 2,
                   "--out", out) == code, doc


def test_sweep_row_grid_and_stability(greedy_hard_files, tmp_path):
    inst, util = greedy_hard_files
    out1 = tmp_path / "sweep1.csv"
    out2 = tmp_path / "sweep2.csv"
    for out in (out1, out2):
        assert run("sweep", "--instance", inst, "--utility", util, "--lam", 1,
                   "--k-list", "4,6", "--algorithms", "gist,greedy,random",
                   "--seeds", "0,1", "--out", out) == 0
    rows = read_csv(out1)
    assert len(rows) == 1 + 3 * 2 * 2
    keys = [(r[0], int(r[1]), int(r[2])) for r in rows[1:]]
    assert keys == sorted(keys)
    # byte-stable except the timing column
    assert mask_wall_time(read_csv(out1)) == mask_wall_time(read_csv(out2))


def test_solve_triangle_validation_flag(tmp_path):
    inst = tmp_path / "inst.json"
    util = tmp_path / "util.json"
    # 3 > 1 + 1 violates the triangle inequality
    inst.write_text(json.dumps({
        "n": 3, "metric": "matrix",
        "matrix": [[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]],
    }))
    util.write_text(json.dumps({"kind": "linear", "weights": [1.0, 1.0, 1.0]}))
    out = tmp_path / "out.csv"
    assert run("solve", "--instance", inst, "--utility", util, "--lam", 1, "--k", 2,
               "--out", out) == 0
    assert run("solve", "--instance", inst, "--utility", util, "--lam", 1, "--k", 2,
               "--validate-triangle", "--out", out) == 2


def test_sweep_single_cell(greedy_hard_files, tmp_path):
    inst, util = greedy_hard_files
    out = tmp_path / "one.csv"
    assert run("sweep", "--instance", inst, "--utility", util, "--lam", 1,
               "--k-list", "6", "--algorithms", "gist", "--seeds", "0", "--out", out) == 0
    rows = read_csv(out)
    assert len(rows) == 2  # header plus exactly one record


def test_verify_greedy_hard(greedy_hard_files, tmp_path):
    inst, util = greedy_hard_files
    report_path = tmp_path / "report.json"
    assert run("verify", "--instance", inst, "--utility", util, "--lam", 1, "--k", 6,
               "--out", report_path) == 0
    report = json.loads(report_path.read_text())
    assert report["opt_value"] == 7.1
    assert report["algorithms"]["gist"]["ratio"] == 1.0
    greedy = report["algorithms"]["greedy"]
    assert greedy["ratio"] < 0.5 + 0.2  # no guarantee, expected below one half
    assert greedy["guarantee"] is None
    assert report["violations"] == []


def test_verify_random_coverage_instance(tmp_path):
    rng = np.random.default_rng(8)
    inst_path = tmp_path / "inst.json"
    util_path = tmp_path / "util.json"
    points = rng.standard_normal((10, 3))
    inst_path.write_text(json.dumps({"n": 10, "metric": "euclidean", "points": points.tolist()}))
    family = [sorted(int(e) for e in np.flatnonzero(rng.random(8) < 0.4)) for _ in range(10)]
    util_path.write_text(json.dumps({"kind": "coverage", "family": family, "universe_size": 8}))
    assert run("verify", "--instance", inst_path, "--utility", util_path,
               "--lam", 1, "--k", 4) == 0


def test_verify_reports_undefined_ratio_without_violation(tmp_path):
    # g is 0 on singletons and negative on the pair, so with lam = 0 the optimum
    # is 0, and a solver that returns the pair has no defined ratio
    inst, util, out = tmp_path / "inst.json", tmp_path / "util.json", tmp_path / "report.json"
    inst.write_text(json.dumps({"n": 2, "metric": "euclidean", "points": [[0.0], [1.0]]}))
    util.write_text(json.dumps({"kind": "margin_similarity", "uncertainty": [0.0, 0.0],
                                "edges": [[0, 1, 0.5]]}))
    assert run("verify", "--instance", inst, "--utility", util, "--lam", 0, "--k", 2,
               "--out", out) == 0
    report = json.loads(out.read_text())
    assert report["opt_value"] == 0.0 and report["violations"] == []
    gist = report["algorithms"]["gist"]
    assert gist["f"] < 0.0 and gist["ratio"] is None and gist["meets_guarantee"] is None
    assert report["algorithms"]["greedy"]["ratio"] == 1.0  # f = 0 as well


def test_verify_guarantee_thresholds():
    inst = Instance.from_euclidean([[0.0], [1.0], [3.0]])

    def problem_for(utility):
        return Problem(inst, utility, lam=1.0, k=2, epsilon=0.1)

    linear = problem_for(LinearUtility([1.0, 2.0, 3.0]))
    coverage = problem_for(CoverageUtility([[0], [1], [2]]))
    non_monotone = problem_for(
        MarginSimilarityUtility([0.5, 0.5, 0.5], edges=[(0, 1, 0.5)])
    )
    assert _guarantee_threshold("gist", linear) == pytest.approx(2.0 / 3.0 - 0.1)
    assert _guarantee_threshold("gist", coverage) == pytest.approx(0.5 - 0.1)
    assert _guarantee_threshold("gist", non_monotone) is None
    assert _guarantee_threshold("gist-exhaustive", linear) == pytest.approx(2.0 / 3.0)
    assert _guarantee_threshold("gist-exhaustive", coverage) is None
    assert _guarantee_threshold("simple", coverage) == pytest.approx(
        (math.e - 1.0) / (2.0 * math.e - 1.0)
    )
    assert _guarantee_threshold("greedy", coverage) is None
    assert _guarantee_threshold("random", linear) is None

    class SubclassedLinear(LinearUtility):
        """States no capability, so its guarantee is the monotone submodular one."""

    subclassed = problem_for(SubclassedLinear([1.0, 2.0, 3.0]))
    assert _guarantee_threshold("gist", subclassed) == pytest.approx(0.5 - 0.1)
    assert _guarantee_threshold("gist-exhaustive", subclassed) is None


def test_verify_size_guard(tmp_path):
    inst = tmp_path / "inst.json"
    util = tmp_path / "util.json"
    assert run("gen", "--family", "gaussian", "--n", 64, "--dim", 4,
               "--out-instance", inst, "--out-utility", util) == 0
    assert run("verify", "--instance", inst, "--utility", util, "--lam", 1, "--k", 12) == 4


def test_ingest_antipodal_pair(tmp_path):
    emb = tmp_path / "emb.jsonl"
    write_embeddings(emb, [
        {"embedding": [1.0, 0.0], "uncertainty": 0.3},
        {"embedding": [-1.0, 0.0], "uncertainty": 0.6},
    ])
    out = tmp_path / "sel.json"
    for utility in ("margin", "margin_similarity"):
        assert run("ingest", "--embeddings", emb, "--utility", utility, "--k", 2,
                   "--out", out) == 0
        result = json.loads(out.read_text())
        assert result["selected"] == [0, 1]
        assert result["div"] == 2.0


def test_ingest_margin_defaults(tmp_path):
    emb = tmp_path / "emb.jsonl"
    rng = np.random.default_rng(5)
    vecs = rng.standard_normal((12, 4))
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]
    write_embeddings(emb, [
        {"embedding": v.tolist(), "uncertainty": float(u)}
        for v, u in zip(vecs, rng.uniform(0, 2, 12))
    ])
    out = tmp_path / "sel.json"
    assert run("ingest", "--embeddings", emb, "--utility", "margin", "--k", 4,
               "--out", out) == 0
    result = json.loads(out.read_text())
    assert result["lam"] == pytest.approx(1.0 - 0.9)
    assert len(result["selected"]) <= 4
    # similarity variant with the tuned defaults
    assert run("ingest", "--embeddings", emb, "--utility", "margin_similarity", "--k", 4,
               "--out", out) == 0
    result = json.loads(out.read_text())
    assert result["lam"] == pytest.approx(1.0 - 0.95)


def test_margin_similarity_weights_must_be_finite(tmp_path):
    emb, out = tmp_path / "emb.jsonl", tmp_path / "sel.json"
    write_embeddings(emb, [{"embedding": [1.0, 0.0], "uncertainty": 0.3},
                           {"embedding": [0.0, 1.0], "uncertainty": 0.6}])
    for flag, value in (("--alpha-s", "nan"), ("--beta-s", "inf")):
        assert run("ingest", "--embeddings", emb, "--utility", "margin_similarity", "--k", 2,
                   flag, value, "--out", out) == 3
    inst, util = tmp_path / "inst.json", tmp_path / "util.json"
    inst.write_text(json.dumps({"n": 2, "metric": "euclidean", "points": [[0.0], [1.0]]}))
    util.write_text(json.dumps({"kind": "margin_similarity", "uncertainty": [0.5, 0.5],
                                "edges": [[0, 1, 0.5]], "alpha_s": math.nan}))
    assert run("solve", "--instance", inst, "--utility", util, "--lam", 1, "--k", 2,
               "--out", tmp_path / "x.csv") == 3


def test_ingest_edge_file(tmp_path):
    emb = tmp_path / "emb.jsonl"
    rng = np.random.default_rng(6)
    vecs = rng.standard_normal((6, 3))
    write_embeddings(emb, [
        {"embedding": v.tolist(), "uncertainty": 0.5} for v in vecs
    ])
    edges = tmp_path / "edges.json"
    edges.write_text(json.dumps([[0, 1], [2, 3], [4, 5]]))
    out = tmp_path / "sel.json"
    assert run("ingest", "--embeddings", emb, "--utility", "margin_similarity",
               "--edges", edges, "--k", 3, "--out", out) == 0
    assert len(json.loads(out.read_text())["selected"]) <= 3


def test_ingest_dense_similarity_matches_literal_reference(tmp_path, monkeypatch):
    # axis-aligned +-1 rows give many exactly zero products; a BLAS may sign them
    # either way, and the reference's sum makes them +0.0
    rng = np.random.default_rng(9)
    vecs = rng.standard_normal((300, 5))
    vecs[:150] = 0.0
    vecs[np.arange(150), rng.integers(0, 5, 150)] = rng.choice([-1.0, 1.0], 150)
    write_embeddings(tmp_path / "emb.jsonl", [
        {"embedding": v.tolist(), "uncertainty": 0.5} for v in vecs
    ])
    seen = []

    def spy(uncertainty, similarity, **kwargs):
        seen.append(similarity)
        return MarginSimilarityUtility(uncertainty, similarity=similarity, **kwargs)

    monkeypatch.setattr(cli, "MarginSimilarityUtility", spy)
    assert run("ingest", "--embeddings", tmp_path / "emb.jsonl", "--utility",
               "margin_similarity", "--k", 3, "--out", tmp_path / "sel.json") == 0
    unit = vecs / np.linalg.norm(vecs, axis=1)[:, None]
    assert seen[0].tobytes() == reference.similarity_matrix(unit).tobytes()


def test_ingest_dimension_mismatch_is_parse_error(tmp_path):
    emb = tmp_path / "emb.jsonl"
    write_embeddings(emb, [
        {"embedding": [1.0, 0.0], "uncertainty": 0.3},
        {"embedding": [1.0, 0.0, 0.0], "uncertainty": 0.3},
    ])
    assert run("ingest", "--embeddings", emb, "--k", 2, "--out", tmp_path / "x.json") == 2


def test_ingest_metric_is_usage_error(tmp_path):
    emb = tmp_path / "emb.jsonl"
    write_embeddings(emb, [{"embedding": [1.0, 0.0], "uncertainty": 0.3}])
    with pytest.raises(SystemExit) as exc:
        run("ingest", "--embeddings", emb, "--metric", "cosine", "--k", 1,
            "--out", tmp_path / "x.json")
    assert exc.value.code == 2


def test_subcommand_option_strings():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: {opt for action in p._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    files = {"--instance", "--utility", "--lam", "--epsilon", "--validate-triangle"}
    assert options == {
        "gen": {"--family", "--n", "--dim", "--k", "--eps-inst", "--alpha", "--beta",
                "--monotone-variant", "--graph", "--set-family", "--lambda-override", "--seed",
                "--out-instance", "--out-utility"},
        "solve": files | {"--k", "--algorithm", "--seed", "--format", "--out"},
        "sweep": files | {"--k-list", "--algorithms", "--seeds", "--out"},
        "verify": files | {"--k", "--seed", "--out"},
        "ingest": {"--embeddings", "--utility", "--alpha", "--alpha-s", "--beta-s", "--edges",
                   "--k", "--lam", "--epsilon", "--schedule", "--out"},
    }


def antipodal_embeddings(tmp_path):
    emb = tmp_path / "emb.jsonl"
    write_embeddings(emb, [{"embedding": [1.0, 0.0], "uncertainty": 0.3},
                           {"embedding": [-1.0, 0.0], "uncertainty": 0.6},
                           {"embedding": [0.0, 1.0], "uncertainty": 0.5}])
    return emb


def test_parser_is_built_once_and_keeps_no_flag_between_calls(tmp_path):
    assert cli._build_parser() is cli._build_parser()
    emb, out = antipodal_embeddings(tmp_path), tmp_path / "sel.json"
    assert run("ingest", "--embeddings", emb, "--k", 2, "--alpha", 0.5, "--lam", 0.3,
               "--out", out) == 0
    assert json.loads(out.read_text())["lam"] == 0.3
    assert run("ingest", "--embeddings", emb, "--k", 2, "--out", out) == 0
    assert json.loads(out.read_text())["lam"] == 1.0 - 0.9  # the defaults, not the last call's


def test_solve_after_ingest_in_one_process(greedy_hard_files, tmp_path):
    inst, util = greedy_hard_files
    assert run("ingest", "--embeddings", antipodal_embeddings(tmp_path), "--k", 2,
               "--out", tmp_path / "sel.json") == 0
    out = tmp_path / "solve.json"
    assert run("solve", "--instance", inst, "--utility", util, "--lam", 0.5, "--k", 3,
               "--algorithm", "greedy", "--format", "json", "--out", out) == 0
    (record,) = json.loads(out.read_text())
    assert record["algorithm"] == "greedy" and record["k"] == 3


def test_bad_flag_after_a_good_call_is_a_usage_error(tmp_path):
    emb, out = antipodal_embeddings(tmp_path), tmp_path / "sel.json"
    assert run("ingest", "--embeddings", emb, "--k", 2, "--out", out) == 0
    with pytest.raises(SystemExit) as exc:
        run("ingest", "--embeddings", emb, "--k", 2, "--no-such-flag", "--out", out)
    assert exc.value.code == 2
    assert run("ingest", "--embeddings", emb, "--k", 2, "--out", out) == 0


def test_ingest_normalization_warning(tmp_path, capsys):
    emb = tmp_path / "emb.jsonl"
    write_embeddings(emb, [
        {"embedding": [2.0, 0.0], "uncertainty": 0.3},
        {"embedding": [0.0, 1.0], "uncertainty": 0.4},
    ])
    assert run("ingest", "--embeddings", emb, "--k", 2, "--out", tmp_path / "sel.json") == 0
    assert "normalizing embeddings" in capsys.readouterr().err


def test_solve_refuses_distances_past_the_float_range(tmp_path):
    inst, util = tmp_path / "inst.json", tmp_path / "util.json"
    inst.write_text(json.dumps({"n": 3, "metric": "euclidean",
                                "points": [[1e200, 0.0], [-1e200, 0.0], [0.0, 1.0]]}))
    util.write_text(json.dumps({"kind": "linear", "weights": [1.0, 2.0, 3.0]}))
    assert run("solve", "--instance", inst, "--utility", util, "--lam", 1, "--k", 2,
               "--out", tmp_path / "out.csv") == 3


def ingest_output(tmp_path, vectors, *flags):
    """The document ``ingest`` writes for these embeddings, its wall time left out."""
    write_embeddings(tmp_path / "emb.jsonl", [
        {"embedding": v, "uncertainty": 0.1 * (i + 1)} for i, v in enumerate(vectors)])
    assert run("ingest", "--embeddings", tmp_path / "emb.jsonl", "--k", 2,
               "--out", tmp_path / "sel.json", *flags) == 0
    doc = json.loads((tmp_path / "sel.json").read_text())
    del doc["wall_time_ms"]
    return doc


@pytest.mark.parametrize("scale", [1e-200, 1e300])
def test_ingest_scales_rows_whose_plain_norm_under_or_overflows(tmp_path, scale):
    rest = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.5]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ingest_output(tmp_path, [[scale, scale]] + rest)
    assert got == ingest_output(tmp_path, [[1.0, 1.0]] + rest)


def test_default_ingest_builds_no_dense_distance_matrix(tmp_path, monkeypatch):
    vectors = np.random.default_rng(8).standard_normal((200, 8)).tolist()
    expected = ingest_output(tmp_path, vectors)

    def refuse(self):
        raise AssertionError("dense distance matrix built")

    monkeypatch.setattr(Instance, "distance_matrix", refuse)
    assert ingest_output(tmp_path, vectors) == expected


def test_gen_graph_families(tmp_path):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}))
    inst = tmp_path / "inst.json"
    util = tmp_path / "util.json"
    assert run("gen", "--family", "clique-reduction", "--graph", graph, "--alpha", 0.5,
               "--k", 3, "--out-instance", inst, "--out-utility", util) == 0
    doc = json.loads(inst.read_text())
    assert doc["metric"] == "matrix" and doc["provenance"]["lam"] == 0.5
    assert run("verify", "--instance", inst, "--utility", util, "--lam", 0.5, "--k", 3) == 0

    assert run("gen", "--family", "independent-set-reduction", "--graph", graph,
               "--alpha", 0.5, "--k", 2, "--out-instance", inst, "--out-utility", util) == 0
    assert json.loads(inst.read_text())["metric"] == "euclidean"


def test_gen_cover_family(tmp_path):
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps({"family": [[1, 2], [3, 4], [1, 3]], "groups": [0, 1, 1]}))
    inst = tmp_path / "inst.json"
    util = tmp_path / "util.json"
    assert run("gen", "--family", "cover-reduction", "--set-family", fam,
               "--out-instance", inst, "--out-utility", util) == 0
    assert json.loads(util.read_text())["kind"] == "coverage"
    assert run("verify", "--instance", inst, "--utility", util, "--lam", 1, "--k", 2) == 0


def test_solve_runs_repeatably(greedy_hard_files, tmp_path):
    inst, util = greedy_hard_files
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"rep-{tag}.csv"
        assert run("solve", "--instance", inst, "--utility", util, "--lam", 1, "--k", 6,
                   "--algorithm", "all", "--seed", 11, "--out", out) == 0
        outs.append(read_csv(out))
    assert mask_wall_time(outs[0]) == mask_wall_time(outs[1])
