"""What a fresh ``unsense`` process loads and reads, checked in a new interpreter.

The test process has imported scipy long before these tests run, so each one
starts its own interpreter on the package from this checkout and reports back
one JSON line.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import unlabeled_sensing
from unlabeled_sensing.cli import main

SRC = str(Path(unlabeled_sensing.__file__).resolve().parents[1])

# Run in the fresh interpreter before each script: ``run(*argv)`` calls the
# command line with its printout silenced, ``scipy()`` lists the scipy
# packages loaded so far.
PRELUDE = """
import contextlib, io, json, sys
from unlabeled_sensing import cli

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])

def scipy():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
"""


def fresh(script, *args, flags=()):
    """The JSON value that ``script`` prints last, run after PRELUDE in a new interpreter."""
    proc = subprocess.run([sys.executable, *flags, "-c", PRELUDE + script, *map(str, args)],
                          env={**os.environ, "PYTHONPATH": SRC}, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def run(argv):
    return main([str(a) for a in argv])


def test_import_loads_no_scipy():
    assert fresh("print(json.dumps(scipy()))") == []


def test_theory_checks_and_a_gaussian_rlocal_solve_load_no_scipy(tmp_path):
    # validate-theory runs no assignment, and every block of this r-local
    # solve is certified by its row argmax.
    got = fresh("""
loaded = {}
rc = [run("validate-theory", "--checks", "lemma1,chi2", "--trials", 5,
          "--out", sys.argv[1] + "/reports.json")]
loaded["validate-theory"] = scipy()
rc.append(run("synth", "--n", 200, "--d", 5, "--m", 3, "--model", "rlocal", "--r", 10,
              "--sigma", 0.01, "--seed", 1, "--out", sys.argv[1] + "/bundle"))
rc.append(run("solve", sys.argv[1] + "/bundle"))
loaded["solve"] = scipy()
print(json.dumps({"rc": rc, "loaded": loaded}))
""", tmp_path)
    assert got == {"rc": [0, 0, 0], "loaded": {"validate-theory": [], "solve": []}}
    assert json.loads((tmp_path / "bundle" / "result.json").read_text())["mode"] == "rlocal"


def test_colliding_ksparse_solve_loads_only_scipy_spatial_and_writes_the_in_process_bytes(
        tmp_path):
    # At k = n/2 the first step's nearest fitted rows collide and row
    # reduction settles them without scipy's LAP; the later steps' fits are close
    # enough for the KD-tree. So scipy.optimize is never loaded.
    bundle = tmp_path / "bundle"
    assert run(["synth", "--n", 200, "--d", 10, "--m", 10, "--model", "ksparse", "--k", 100,
                "--sigma", 0.01, "--seed", 1, "--out", bundle]) == 0
    got = fresh("""
from unlabeled_sensing import assignment
pays, real = [], assignment._tree_pays
assignment._tree_pays = lambda *a: pays.append(real(*a)) or pays[-1]
reduced, real_reduce = [], assignment._reduce_rows
assignment._reduce_rows = lambda *a: reduced.append(1) or real_reduce(*a)
rc = run("solve", sys.argv[1], "--out", sys.argv[2])
print(json.dumps({"rc": rc, "tree": any(pays), "reduced": len(reduced), "loaded": scipy()}))
""", bundle, tmp_path / "fresh")
    assert got["rc"] == 0 and got["tree"] and got["reduced"] >= 1
    assert "scipy.spatial" in got["loaded"] and "scipy.optimize" not in got["loaded"]
    assert run(["solve", bundle, "--out", tmp_path / "in_process"]) == 0
    for name in ("P_hat.json", "X_hat.csv", "result.json"):
        assert ((tmp_path / "fresh" / name).read_bytes()
                == (tmp_path / "in_process" / name).read_bytes()), name


def test_ksparse_step_left_far_from_done_loads_scipy_optimize(tmp_path):
    # At k = n - 1 row reduction leaves most free rows free at its cap, so
    # within the memory budget the cost matrix goes to scipy's LAP.
    bundle = tmp_path / "bundle"
    assert run(["synth", "--n", 200, "--d", 10, "--m", 5, "--model", "ksparse", "--k", 199,
                "--sigma", 0.01, "--seed", 1, "--out", bundle]) == 0
    got = fresh("""
rc = run("solve", sys.argv[1], "--out", sys.argv[2])
print(json.dumps({"rc": rc, "loaded": scipy()}))
""", bundle, tmp_path / "fresh")
    assert got["rc"] == 0 and "scipy.optimize" in got["loaded"]


def _without_wall_ms(out: Path) -> list:
    """Every row of a bench run's CSV, aggregate and ledger, less its wall time."""
    rows = []
    for path in (out, out.with_name(out.stem + "_agg.csv")):
        lines = path.read_text().splitlines()
        drop = lines[0].split(",").index("wall_ms" if path == out else "mean_wall_ms")
        rows += [[cell for i, cell in enumerate(line.split(",")) if i != drop]
                 for line in lines]
    for line in out.with_name(out.stem + "_runs.jsonl").read_text().splitlines():
        record = json.loads(line)
        del record["wall_ms"]
        rows.append(record)
    return rows


def test_first_scipy_import_inside_two_bench_threads_changes_no_row(tmp_path):
    # scipy is first imported inside the pool's two worker threads, which the
    # in-process threads test cannot reach once the test process has scipy.
    # At k = 199 row reduction leaves steps far from done, so scipy's LAP runs.
    argv = ["bench", "--sweep", "k", "--grid", "20,100,199", "--seeds", 2, "--n", 200]
    got = fresh("""
before = scipy()
rc = run(*sys.argv[1:])
print(json.dumps({"rc": rc, "before": before, "after": scipy()}))
""", *argv, "--threads", 2, "--out", tmp_path / "two.csv")
    assert got["rc"] == 0 and got["before"] == [] and "scipy.optimize" in got["after"]
    assert run(argv + ["--threads", 1, "--out", tmp_path / "one.csv"]) == 0
    assert _without_wall_ms(tmp_path / "two.csv") == _without_wall_ms(tmp_path / "one.csv")


def test_solve_under_warn_default_encoding_keeps_the_fast_csv_reader(tmp_path):
    # Every text file is opened as UTF-8 by name. A file opened with the
    # locale's default would warn here; inside read_matrix_csv that warning
    # turns into an error and sends the matrix to the exact per-cell reader.
    # A file numpy opened by path would warn from numpy's code, so every
    # EncodingWarning counts, wherever it is reported.
    bundle = tmp_path / "bundle"
    assert run(["synth", "--n", 40, "--d", 3, "--m", 2, "--model", "rlocal", "--r", 4,
                "--sigma", 0.01, "--seed", 2, "--out", bundle]) == 0
    got = fresh("""
import warnings
from unlabeled_sensing import data
exact, real = [], data._read_matrix_csv_exact
data._read_matrix_csv_exact = lambda path: exact.append(path.name) or real(path)
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    rc = run("solve", sys.argv[1], "--out", sys.argv[2])
print(json.dumps({"rc": rc, "exact": exact, "encoding_warnings": [
    f"{w.filename}:{w.lineno}" for w in caught if issubclass(w.category, EncodingWarning)]}))
""", bundle, tmp_path / "out", flags=("-X", "warn_default_encoding"))
    assert got == {"rc": 0, "exact": [], "encoding_warnings": []}
