import contextlib
import io
import json
import os
import sys

import numpy as np
import pytest

import reference
from divsel import (
    BudgetAdditiveUtility,
    ConstantZeroUtility,
    CoverageUtility,
    FormatError,
    Instance,
    LinearUtility,
    MarginSimilarityUtility,
)
from divsel.cli import main
from divsel import formats
from divsel.formats import (
    load_edge_pairs,
    load_embeddings,
    load_graph,
    load_instance,
    load_set_family,
    load_utility,
    save_instance,
    save_utility,
    utility_to_dict,
)


@pytest.mark.parametrize("metric", ["matrix", "euclidean", "cosine"])
def test_instance_round_trip(metric, tmp_path):
    rng = np.random.default_rng(1)
    if metric == "matrix":
        m = rng.uniform(1, 2, size=(5, 5))
        m = np.triu(m, 1)
        inst = Instance.from_matrix(m + m.T)
    elif metric == "euclidean":
        inst = Instance.from_euclidean(rng.standard_normal((5, 3)))
    else:
        p = rng.standard_normal((5, 3))
        inst = Instance.from_cosine(p)
    path = tmp_path / "inst.json"
    save_instance(inst, path, provenance={"note": "test"})
    loaded = load_instance(path)
    assert loaded.metric == inst.metric and loaded.n == inst.n
    if metric == "cosine":
        # rows are re-normalized on load, which may shift distances by an ulp
        assert np.allclose(loaded.distance_matrix(), inst.distance_matrix(), atol=1e-14)
        assert loaded.max_unit_deviation <= 1e-14
    else:
        assert (loaded.distance_matrix() == inst.distance_matrix()).all()


def test_instance_schema_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    with pytest.raises(FormatError):
        load_instance(path)
    path.write_text(json.dumps({"n": 2, "metric": "euclidean", "matrix": [[0, 1], [1, 0]]}))
    with pytest.raises(FormatError):
        load_instance(path)
    path.write_text(json.dumps({"n": 3, "metric": "euclidean", "points": [[0.0], [1.0]]}))
    with pytest.raises(FormatError, match="declared n"):
        load_instance(path)
    path.write_text(json.dumps({"n": 2, "metric": "hamming", "points": [[0.0], [1.0]]}))
    with pytest.raises(FormatError):
        load_instance(path)


def test_utility_round_trips(tmp_path):
    rng = np.random.default_rng(2)
    utilities = [
        LinearUtility(rng.uniform(0, 1, 6)),
        CoverageUtility([[0, 1], [2], [1, 3]], universe_size=4),
        CoverageUtility([[-7, 10**6], [], [0, -7], [10**6], []]),
        BudgetAdditiveUtility(rng.uniform(0, 1, 6), alpha=0.9, beta=0.6, k=3),
        MarginSimilarityUtility(
            rng.uniform(0, 2, 4), edges=[(0, 1, 0.5), (2, 3, -0.25)], alpha_s=0.8, beta_s=0.2
        ),
        ConstantZeroUtility(5),
    ]
    for idx, util in enumerate(utilities):
        path = tmp_path / f"util{idx}.json"
        save_utility(util, path)
        loaded = load_utility(path)
        assert loaded.kind == util.kind and loaded.n == util.n
        assert utility_to_dict(loaded) == utility_to_dict(util)
        for _ in range(10):
            s = [int(i) for i in np.flatnonzero(rng.random(util.n) < 0.5)]
            assert loaded.evaluate(s) == util.evaluate(s)


def test_coverage_dump_lists_each_set_sorted():
    util = CoverageUtility([[10**6, -7], [], [0, -7, 0]])
    assert utility_to_dict(util) == {
        "kind": "coverage", "family": [[-7, 10**6], [], [-7, 0]], "universe_size": 3
    }


def test_budget_additive_k_binding(tmp_path):
    path = tmp_path / "budget.json"
    doc = {"kind": "budget_additive", "weights": [0.5, 0.6, 0.7], "alpha": 0.9, "beta": 0.7}
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="omits 'k'"):
        load_utility(path)
    util = load_utility(path, bind_k=2)
    assert util.k == 2
    path.write_text(json.dumps({**doc, "k": 2.0}))  # integral values load
    assert load_utility(path).k == 2


def test_unknown_utility_kind(tmp_path):
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps({"kind": "facility_location", "weights": [1.0]}))
    with pytest.raises(FormatError, match="unknown utility kind"):
        load_utility(path)


def test_dense_similarity_not_serializable(tmp_path):
    util = MarginSimilarityUtility([0.5, 0.5], similarity=np.zeros((2, 2)))
    with pytest.raises(FormatError):
        save_utility(util, tmp_path / "x.json")


def write_long_fsynced(path, size=64 * 1024):
    """An old output longer than any new one, on disk: its inode number."""
    with open(path, "wb") as fh:
        fh.write(b"old tail " * (size // 9))
        fh.flush()
        os.fsync(fh.fileno())
    return os.stat(path).st_ino


def test_outputs_are_rewritten_in_place_and_a_longer_tail_is_cut(tmp_path):
    path = tmp_path / "util.json"
    inode = write_long_fsynced(path)
    util = LinearUtility([0.5, 1.0])
    save_utility(util, path)
    assert path.read_bytes() == (json.dumps(utility_to_dict(util), indent=2, sort_keys=True)
                                 + "\n").encode()
    assert os.stat(path).st_ino == inode
    formats._write_text("longer text " * 9000, path)  # longer than the old file: nothing to cut
    assert path.read_text() == "longer text " * 9000 and os.stat(path).st_ino == inode


def test_outputs_are_opened_without_o_trunc(tmp_path, monkeypatch):
    opened, real_open = [], os.open

    def spy(path, flags, *args):
        opened.append(flags)
        return real_open(path, flags, *args)

    monkeypatch.setattr(os, "open", spy)
    save_utility(LinearUtility([0.5]), tmp_path / "util.json")
    assert len(opened) == 1 and opened[0] & os.O_CREAT and not opened[0] & os.O_TRUNC


def test_a_document_json_cannot_serialize_leaves_the_old_file(tmp_path):
    path = tmp_path / "out.json"
    write_long_fsynced(path)
    old = path.read_bytes()
    with pytest.raises(TypeError):
        formats._write_json({"selected": [0, 1], "bad": object()}, path)
    assert path.read_bytes() == old


def test_a_new_output_gets_the_mode_open_would_give(tmp_path):
    umask = os.umask(0o027)
    try:
        save_utility(LinearUtility([0.5]), tmp_path / "util.json")
    finally:
        os.umask(umask)
    assert os.stat(tmp_path / "util.json").st_mode & 0o777 == 0o666 & ~0o027


def test_embeddings_loader(tmp_path):
    path = tmp_path / "emb.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"embedding": [1.0, 0.0], "uncertainty": 0.25}) + "\n")
        fh.write("\n")  # blank lines are skipped
        fh.write(json.dumps({"embedding": [0.0, 1.0], "uncertainty": 0.75}) + "\n")
    vectors, scores = load_embeddings(path)
    assert vectors.shape == (2, 2)
    assert scores.tolist() == [0.25, 0.75]


def test_embeddings_dimension_mismatch(tmp_path):
    path = tmp_path / "emb.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"embedding": [1.0, 0.0], "uncertainty": 0.2}) + "\n")
        fh.write(json.dumps({"embedding": [1.0, 0.0, 0.0], "uncertainty": 0.2}) + "\n")
    with pytest.raises(FormatError, match="dimension"):
        load_embeddings(path)


def test_embeddings_vector_must_be_array(tmp_path):
    path = tmp_path / "emb.jsonl"
    path.write_text(json.dumps({"embedding": "12", "uncertainty": 0.2}) + "\n")
    with pytest.raises(FormatError, match="JSON array"):
        load_embeddings(path)


def test_embeddings_empty_file(tmp_path):
    path = tmp_path / "emb.jsonl"
    path.write_text("")
    with pytest.raises(FormatError, match="no embedding records"):
        load_embeddings(path)


def test_graph_and_set_family_loaders(tmp_path):
    gpath = tmp_path / "graph.json"
    gpath.write_text(json.dumps({"n": 4, "edges": [[0, 1], [2, 3]]}))
    graph = load_graph(gpath)
    assert graph.n == 4 and graph.edges == ((0, 1), (2, 3))

    fpath = tmp_path / "family.json"
    fpath.write_text(json.dumps({"family": [[1, 2], [3]], "groups": [0, 1]}))
    family, groups = load_set_family(fpath)
    assert family == [[1, 2], [3]] and groups == [0, 1]

    fpath.write_text(json.dumps({"family": [[1, 2], [3]]}))
    _, groups = load_set_family(fpath)
    assert groups is None


def test_loaders_reject_non_integral_integers(tmp_path):
    path = tmp_path / "doc.json"
    for doc, load in (({"n": 2.5, "metric": "matrix", "matrix": [[0, 1], [1, 0]]}, load_instance),
                      ({"n": 4.5, "edges": []}, load_graph),
                      ({"n": 4, "edges": [[0, 1.5]]}, load_graph),
                      ({"family": [[1, 2.5]]}, load_set_family),
                      ({"family": [[1]], "groups": [0.5]}, load_set_family),
                      ([[0.7, 1.2]], load_edge_pairs),
                      # booleans are no integers, though JSON true equals 1 in Python
                      ({"n": True, "metric": "euclidean", "points": [[0.0]]}, load_instance),
                      ({"n": True, "edges": []}, load_graph),
                      ({"family": [[1, True]]}, load_set_family),
                      ([[0, True]], load_edge_pairs)):
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            load(path)


@pytest.mark.parametrize("pairs", [[[0, 1, 7]], [[0, 1, "junk"]], [[0]], [[0, 1], [2]],
                                   [{"i": 0, "j": 1}]])
def test_edge_records_that_are_no_pairs_are_malformed(tmp_path, pairs):
    path = tmp_path / "edges.json"
    path.write_text(json.dumps(pairs))
    with pytest.raises(FormatError, match="malformed edge pair"):
        load_edge_pairs(path)


def assert_loads_like_json(path):
    """``load_embeddings`` returns the bytes of the ``json``-only reader."""
    got, want = load_embeddings(path), reference.load_embeddings_json(path)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


# subnormals, signed zeros, the smallest normal and the largest double
EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, sys.float_info.min,
            sys.float_info.max, -sys.float_info.max]


def test_embeddings_parse_finite_doubles_as_json_does(tmp_path):
    pytest.importorskip("hypothesis")
    from hypothesis import given, strategies as st

    path = tmp_path / "emb.jsonl"

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=24))
    def check(values):
        values, lines = values + EXTREMES, []
        for form in ("{!r}".format, "{:.17g}".format, "{:.20e}".format):
            numbers = [form(x) for x in values]
            lines.append(f'{{"embedding": [{", ".join(numbers)}], "uncertainty": {numbers[0]}}}\n')
        formats._write_text("".join(lines), path)  # in place: O_TRUNC can cost ~40 ms per example
        assert_loads_like_json(path)

    check()


def test_embeddings_parse_wide_integers_as_json_does(tmp_path):
    # beyond 64 bits orjson reads an integer as a float; np.asarray rounds json's int
    # the same way, ties to even included (2**64 + 2**11 is halfway between doubles)
    wide = [2**64, 2**64 + 1, 2**64 + 2**11, 2**64 + 3 * 2**11, 2**64 + 2**11 + 1,
            2**64 - 1, 2**63, -2**63 - 1, -(2**64 + 2**11), 10**30, 2**1024 - 2**970 - 1]
    path = tmp_path / "emb.jsonl"
    path.write_text("".join(f'{{"embedding": [{w}, -0, 1], "uncertainty": {abs(w)}}}\n'
                            for w in wide))
    assert_loads_like_json(path)


def test_embeddings_parse_an_ingest_sized_file_as_json_does(tmp_path):
    rng = np.random.default_rng(7)
    vectors = rng.standard_normal((1500, 64))
    vectors /= np.linalg.norm(vectors, axis=1)[:, None]
    path = tmp_path / "emb.jsonl"
    with open(path, "w") as fh:
        for vec, unc in zip(vectors.tolist(), rng.uniform(0.0, 2.0, 1500).tolist()):
            fh.write(json.dumps({"embedding": vec, "uncertainty": unc}) + "\n")
    assert_loads_like_json(path)


PARSE = "error: cannot parse embeddings file {path}: "


@pytest.mark.parametrize("line, code, last", [
    pytest.param('{"embedding": [NaN, 1.0], "uncertainty": 0.5}', 3,
                 "error: points must be finite", id="nan"),
    pytest.param('{"embedding": [Infinity, 1.0], "uncertainty": 0.5}', 3,
                 "error: points must be finite", id="infinity"),
    pytest.param('{"embedding": [1.0, 0.0], "uncertainty": -Infinity}', 3,
                 "error: weights must be finite and nonnegative", id="negative-infinity"),
    pytest.param('{"embedding": [1e400, 1.0], "uncertainty": 0.5}', 3,
                 "error: points must be finite", id="beyond-float-range"),
    pytest.param('{"embedding": [%s, 1.0], "uncertainty": 0.5}' % ("1" * 401), 2,
                 PARSE + "int too large to convert to float", id="401-digit-integer"),
    pytest.param('{"embedding": [%d, 1.0], "uncertainty": 0.5}' % (2**64 + 1), 0,
                 "warning: normalizing embeddings to unit length (max deviation 1.845e+19)",
                 id="65-bit-integer"),
    pytest.param('{"embedding": [1.0, 0.0], "uncertainty": 0.5, "id": "\\ud800"}', 0, None,
                 id="lone-surrogate"),
    pytest.param('\ufeff{"embedding": [1.0, 0.0], "uncertainty": 0.5}', 2,
                 PARSE + "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)",
                 id="byte-order-mark"),
    pytest.param('{"embedding": [1.0, 0.0,], "uncertainty": 0.5}', 2,
                 PARSE + "Expecting value: line 1 column 25 (char 24)", id="trailing-comma"),
])
@pytest.mark.parametrize("first", [True, False], ids=["first", "second"])
def test_ingest_answers_lines_orjson_refuses_as_json_does(tmp_path, line, code, last, first):
    path = tmp_path / "emb.jsonl"
    good = '{"embedding": [0.6, 0.8], "uncertainty": 0.5}'
    path.write_text("\n".join([line, good] if first else [good, line]) + "\n", encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        got = main(["ingest", "--embeddings", str(path), "--k", "1",
                    "--out", str(tmp_path / "sel.json")])
    lines = err.getvalue().splitlines()
    assert (got, lines[-1] if lines else None) == (code, last and last.format(path=path))
    assert lines[:-1] == []  # no warning before a refusal


# tokens that make an embedding entry or a score no JSON number, or one the loader refuses
BAD_ENTRIES = ["true", "false", '"0.5"', "null", "[1.0]", "NaN", str(2**64 + 1), "1" * 401]
BAD_SCORES = ["true", "false", '"0.5"', "null", "[0.5]", "NaN", "1" * 401]
FAULTS = ["entry", "ragged", "score", "trailing-comma", "non-array", "missing-key",
          "non-object", "blank"]


def embeddings_line(draw, st, dim, fault=None):
    """One line of an embeddings file: a valid record, or one with ``fault``."""
    kind = draw(st.sampled_from(["floats", "ints", "one-hot", "one-hot-ints"]))
    if kind == "floats":
        floats = st.floats(allow_nan=False, allow_infinity=False)
        entries = [repr(x) for x in draw(st.lists(floats, min_size=dim, max_size=dim))]
    elif kind == "ints":
        ints = st.integers(-2**63, 2**63 - 1)
        entries = [str(i) for i in draw(st.lists(ints, min_size=dim, max_size=dim))]
    else:
        hot = draw(st.integers(0, dim - 1))
        one, zero = ("1.0", "0.0") if kind == "one-hot" else ("1", "0")
        entries = [one if i == hot else zero for i in range(dim)]
    score = draw(st.sampled_from(["0.5", "0", "1", "0.0", "1.0", "2.25"]))
    if fault == "entry":
        entries[draw(st.integers(0, dim - 1))] = draw(st.sampled_from(BAD_ENTRIES))
    elif fault == "ragged":
        entries = entries[1:] if draw(st.booleans()) else entries + ["0.5"]
    elif fault == "score":
        score = draw(st.sampled_from(BAD_SCORES))
    embedding = f"[{', '.join(entries)}{',' if fault == 'trailing-comma' else ''}]"
    if fault == "non-array":
        embedding = draw(st.sampled_from(['"12"', "3", "{}", "null", "true"]))
    record = f'{{"embedding": {embedding}, "uncertainty": {score}}}'
    if fault == "missing-key":
        record = draw(st.sampled_from(
            [f'{{"embedding": {embedding}}}', f'{{"uncertainty": {score}}}', "{}"]))
    elif fault == "non-object":
        record = draw(st.sampled_from([embedding, '"x"', "3", "null", "true"]))
    elif fault == "blank":
        record = draw(st.sampled_from(["", "  ", "\t \t"]))
    return record


def load_outcome(load, path):
    """What a loader returns, as bytes, or the message it refuses the file with."""
    try:
        return [(a.dtype.str, a.shape, a.tobytes()) for a in load(path)]
    except FormatError as exc:
        return str(exc)


def test_embeddings_loader_answers_as_the_line_by_line_reference(tmp_path):
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    path = tmp_path / "emb.jsonl"

    @st.composite
    def files(draw):
        """1 to 6 lines, each valid or with a fault; at most two faults mostly."""
        dim = draw(st.integers(1, 3))
        n = draw(st.integers(1, 6))
        faults = [None] * n
        for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=n)):
            faults[draw(st.integers(0, n - 1))] = fault
        ends = st.sampled_from(["\n", "\r\n", "\r"])
        return "".join(embeddings_line(draw, st, dim, fault) + draw(ends) for fault in faults)

    @settings(max_examples=400, deadline=None)
    @given(files())
    # every row nested alike makes a 3-d array; a string alone makes a string array
    @example('{"embedding": [[0.5]], "uncertainty": 0.5}\n{"embedding": [[0.25]], "uncertainty": 1}')
    @example('{"embedding": [0.5, "0.5"], "uncertainty": 0.5}\n')
    def check(text):
        formats._write_text(text, path)  # in place: O_TRUNC can cost ~40 ms per example
        assert load_outcome(load_embeddings, path) == load_outcome(
            reference.load_embeddings_json, path)

    check()


def test_embeddings_first_offending_line_is_named_before_a_later_syntax_error(tmp_path):
    # a boolean on line 2, then a trailing comma on line 3: line 2 is the error
    path = tmp_path / "emb.jsonl"
    path.write_text('{"embedding": [1.0, 0.0], "uncertainty": 0.5}\n'
                    '{"embedding": [true, 0.0], "uncertainty": 0.5}\n'
                    '{"embedding": [1.0, 0.0,], "uncertainty": 0.5}\n')
    want = f"{path}:2: embedding and uncertainty must be JSON numbers"
    assert load_outcome(load_embeddings, path) == want
    assert load_outcome(reference.load_embeddings_json, path) == want


@pytest.mark.parametrize("record", ['{"embedding": [1.0, 0.0]}', '{"uncertainty": 0.5}',
                                    "[1.0, 0.0]", '"x"', "null"])
def test_ingest_names_the_line_of_a_record_that_is_no_object_with_both_keys(tmp_path, record):
    path = tmp_path / "emb.jsonl"
    path.write_text('{"embedding": [0.6, 0.8], "uncertainty": 0.5}\n' + record + "\n")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        got = main(["ingest", "--embeddings", str(path), "--k", "1",
                    "--out", str(tmp_path / "sel.json")])
    assert (got, err.getvalue().splitlines()) == (2, [
        f'error: {path}:2: each record must be a JSON object with "embedding" and "uncertainty"'])


@pytest.mark.parametrize("bad_line", [2, 200])
def test_embeddings_utf8_errors_answer_as_the_reference(tmp_path, bad_line):
    # past the reader's first chunk too, where the lines before the bad bytes come first
    good = b'{"embedding": [0.6, 0.8], "uncertainty": 0.5}\n'
    lines = [good] * 300
    lines[bad_line] = b'{"embedding": [0.6, 0.8], "uncertainty": 0.5, "id": "\xff"}\n'
    path = tmp_path / "emb.jsonl"
    for boolean_line in (None, 150):
        if boolean_line is not None:
            lines[boolean_line] = good.replace(b"0.6", b"true")
        path.write_bytes(b"".join(lines))
        got = load_outcome(load_embeddings, path)
        assert isinstance(got, str) and got == load_outcome(reference.load_embeddings_json, path)
