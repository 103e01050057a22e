"""Import hygiene: scipy is loaded only by the first Euclidean distance
matrix, orjson only by the first embeddings file read, and
``divsel.generators`` only by its first name used.  Each check runs
in a fresh isolated interpreter, since this test process has long imported
both."""

import json
import subprocess
import sys
from pathlib import Path

import divsel

SRC = str(Path(divsel.__file__).resolve().parents[1])


def run_fresh(code: str, *args) -> str:
    """Run ``code`` in a new ``python -I`` with this checkout's divsel
    importable; return the last line it prints."""
    prelude = f"import sys; sys.path.insert(0, {SRC!r})\n"
    done = subprocess.run([sys.executable, "-I", "-c", prelude + code, *map(str, args)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_import_loads_no_scipy_or_orjson_and_cosine_ingest_only_orjson(tmp_path):
    # nor divsel.generators: only gen and the tests need it
    emb = tmp_path / "emb.jsonl"
    emb.write_text("".join(json.dumps({"embedding": [float(i), 1.0, -2.0], "uncertainty": 0.5})
                           + "\n" for i in range(12)))
    code = """
def loaded():
    return [m in sys.modules for m in ('scipy', 'orjson', 'divsel.generators')]
import divsel
seen = [loaded()]
import divsel.cli
seen.append(loaded())
code = divsel.cli.main(['ingest', '--embeddings', sys.argv[1], '--k', '3', '--out', sys.argv[2]])
seen.append(loaded())
print(code, seen)
"""
    assert (run_fresh(code, emb, tmp_path / "sel.json")
            == "0 [[False, False, False], [False, False, False], [False, True, False]]")
    assert len(json.loads((tmp_path / "sel.json").read_text())["selected"]) <= 3


def test_matrix_gist_leaves_scipy_unloaded():
    code = """
import numpy as np
from divsel import Instance, LinearUtility, Problem, gist
m = np.abs(np.subtract.outer(np.arange(6.0), np.arange(6.0)))
problem = Problem(Instance.from_matrix(m), LinearUtility(np.arange(6.0)), lam=1.0, k=3,
                  schedule='exhaustive')
print(gist(problem).selected, 'scipy' in sys.modules)
"""
    assert run_fresh(code) == "(3, 4, 5) False"


def test_euclidean_matrix_equals_scipy_pdist():
    code = """
import numpy as np
from divsel import Instance
points = np.random.default_rng(3).standard_normal((300, 7))
points[1::5] = points[0::5]  # duplicates: exact zeros off the diagonal
inst = Instance.from_euclidean(points)
before = 'scipy' in sys.modules
d = inst.distance_matrix()
from scipy.spatial.distance import pdist, squareform
print(before, d.tobytes() == squareform(pdist(points)).tobytes())
"""
    assert run_fresh(code) == "False True"
