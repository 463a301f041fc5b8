import argparse
import functools
import importlib.util
import inspect
import json
import math
import os
import re
import resource
import shlex
import string
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unlabeled_sensing
from unlabeled_sensing import cli, linalg, solver
from unlabeled_sensing import data as data_module
from unlabeled_sensing.cli import (_SPEC_VALUE_KINDS, CHECK_FUNCS, COMMANDS, DEFAULT_SUITE,
                                   _resolve, build_parser, main)
from unlabeled_sensing.data import (SynthConfig, generate, load_bundle, read_matrix_csv,
                                    write_matrix_csv)
from unlabeled_sensing.errors import InvalidConfig
from unlabeled_sensing.permutation import KSparse, Permutation


def run(argv):
    return main([str(a) for a in argv])


def read_csv_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


# ------------------------------------------------------------- synth + solve

def test_synth_solve_roundtrip_identity_permutation(tmp_path, capsys):
    bundle = tmp_path / "bundle"
    assert run(["synth", "--n", 30, "--d", 4, "--m", 2, "--model", "ksparse",
                "--k", 0, "--sigma", 0, "--seed", 7, "--out", bundle]) == 0
    for name in ("B.csv", "Y.csv", "Ystar.csv", "truth.json", "meta.json"):
        assert (bundle / name).exists()

    assert run(["solve", bundle]) == 0
    result = json.loads((bundle / "result.json").read_text())
    assert result["converged"] is True
    assert result["final_objective"] <= 1e-10
    assert result["metrics"]["frac_distortion"] == 0.0
    assert (bundle / "P_hat.json").exists()
    assert (bundle / "X_hat.csv").exists()
    capsys.readouterr()


def test_synth_is_deterministic(tmp_path):
    args = ["synth", "--n", 12, "--d", 3, "--m", 2, "--model", "rlocal",
            "--r", 4, "--sigma", 0.1, "--seed", 3]
    assert run(args + ["--out", tmp_path / "a"]) == 0
    assert run(args + ["--out", tmp_path / "b"]) == 0
    for name in ("B.csv", "Y.csv", "Ystar.csv", "truth.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_synth_rejects_k_one(tmp_path, capsys):
    code = run(["synth", "--n", 10, "--d", 2, "--m", 1, "--model", "ksparse",
                "--k", 1, "--seed", 0, "--out", tmp_path / "x"])
    assert code == 2
    assert "k=1" in capsys.readouterr().err


def test_solve_rlocal_bundle_recovers(tmp_path):
    bundle = tmp_path / "bundle"
    assert run(["synth", "--n", 100, "--d", 10, "--m", 10, "--model", "rlocal",
                "--r", 5, "--sigma", 0, "--seed", 1, "--out", bundle]) == 0
    assert run(["solve", bundle, "--mode", "rlocal"]) == 0
    result = json.loads((bundle / "result.json").read_text())
    assert result["metrics"]["frac_distortion"] == 0.0
    assert result["metrics"]["relative_error"] <= 1e-8


def test_solve_malformed_csv_reports_line(tmp_path, capsys):
    bundle = tmp_path / "broken"
    bundle.mkdir()
    (bundle / "B.csv").write_text("1,2\n3,oops\n")
    (bundle / "Y.csv").write_text("1\n2\n")
    assert run(["solve", bundle]) == 2
    assert "line 2" in capsys.readouterr().err


def test_solve_missing_bundle_is_usage_error(tmp_path, capsys):
    assert run(["solve", tmp_path / "nope"]) == 2
    capsys.readouterr()


# ------------------------------------------------------------- bench

def test_bench_r_grid_one_is_identity_only(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["bench", "--sweep", "r", "--grid", "1", "--seeds", "5",
                "--n", 20, "--d", 3, "--m", 2, "--seed", 0, "--out", out]) == 0
    _, rows = read_csv_rows(out)
    assert len(rows) == 5
    assert all(float(r["d_H_over_n"]) == 0.0 for r in rows)


def test_bench_k_grid_zero_is_exact(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["bench", "--sweep", "k", "--grid", "0", "--seeds", "5",
                "--n", 20, "--d", 3, "--m", 2, "--seed", 0, "--out", out]) == 0
    _, rows = read_csv_rows(out)
    assert all(float(r["d_H_over_n"]) == 0.0 for r in rows)
    assert all(float(r["rel_error"]) <= 1e-8 for r in rows)


def test_bench_outputs_sorted_deterministic_and_aggregated(tmp_path):
    argv = ["bench", "--sweep", "r", "--grid", "5,2", "--seeds", "3",
            "--n", 20, "--d", 3, "--m", 2, "--sigma", 0.05, "--seed", 4]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(argv + ["--out", out_a]) == 0
    assert run(argv + ["--out", out_b, "--threads", "4"]) == 0

    header, rows_a = read_csv_rows(out_a)
    assert header == ["sweep_value", "seed", "d_H_over_n", "rel_error", "iters", "wall_ms"]
    keys = [(float(r["sweep_value"]), int(r["seed"])) for r in rows_a]
    assert keys == sorted(keys)

    _, rows_b = read_csv_rows(out_b)
    stable = ("sweep_value", "seed", "d_H_over_n", "rel_error", "iters")
    assert [[r[c] for c in stable] for r in rows_a] == [[r[c] for c in stable] for r in rows_b]

    _, agg = read_csv_rows(tmp_path / "a_agg.csv")
    assert len(agg) == 2
    assert [float(r["sweep_value"]) for r in agg] == [2.0, 5.0]
    assert all(int(r["seeds"]) == 3 for r in agg)
    assert (tmp_path / "a_runs.jsonl").exists()


LEDGER_KEYS = ["config_hash", "sweep_value", "seed", "d_h_over_n", "rel_error", "iters",
               "wall_ms", "trace_tail"]


def test_bench_ledger_rows_have_exactly_the_ledger_keys_in_order(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["bench", "--sweep", "k", "--grid", "0,4", "--seeds", 2, "--n", 12, "--d", 2,
                "--m", 1, "--out", out]) == 0
    rows = [json.loads(line) for line in (tmp_path / "s_runs.jsonl").read_text().splitlines()]
    assert len(rows) == 4
    assert all(list(row) == LEDGER_KEYS for row in rows)


@pytest.mark.parametrize("threads", [1, 2])
def test_bench_unsorted_grid_with_a_repeat_lists_rows_by_value_then_seed(tmp_path, threads):
    out = tmp_path / "s.csv"
    assert run(["bench", "--sweep", "r", "--grid", "4,1,4", "--seeds", 3, "--n", 12, "--d", 2,
                "--m", 1, "--sigma", 0.1, "--threads", threads, "--out", out]) == 0
    want = [(value, seed) for value in (1.0, 4.0) for seed in range(3)]
    _, rows = read_csv_rows(out)
    assert [(float(r["sweep_value"]), int(r["seed"])) for r in rows] == want
    _, agg = read_csv_rows(tmp_path / "s_agg.csv")
    assert [(float(r["sweep_value"]), int(r["seeds"])) for r in agg] == [(1.0, 3), (4.0, 3)]
    ledger = [json.loads(line) for line in (tmp_path / "s_runs.jsonl").read_text().splitlines()]
    assert [(row["sweep_value"], row["seed"]) for row in ledger] == want


def test_bench_invalid_spec(tmp_path, capsys):
    assert run(["bench", "--grid", "1", "--seed", 0,
                "--out", tmp_path / "x.csv"]) == 2
    assert run(["bench", "--sweep", "r", "--seed", 0,
                "--out", tmp_path / "x.csv"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("sweep", ["r", "k"])
def test_bench_fractional_block_size_or_shuffle_count_is_usage_error(tmp_path, capsys, sweep):
    out = tmp_path / "sweep.csv"
    assert run(["bench", "--sweep", sweep, "--grid", "2.5", "--seeds", 1,
                "--n", 10, "--d", 2, "--m", 1, "--out", out]) == 2
    assert f"{sweep} grid values must be whole numbers, got [2.5]" in capsys.readouterr().err
    assert not out.exists()


def test_bench_config_grid_accepts_json_list(tmp_path):
    argv = ["bench", "--sweep", "r", "--seeds", "2", "--n", 20, "--d", 3, "--m", 2,
            "--sigma", 0.05, "--seed", 4]
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"grid": [5, 2]}))
    assert run(argv + ["--config", config, "--out", tmp_path / "list.csv"]) == 0
    assert run(argv + ["--grid", "5,2", "--out", tmp_path / "text.csv"]) == 0
    stable = ("sweep_value", "seed", "d_H_over_n", "rel_error", "iters")
    _, from_list = read_csv_rows(tmp_path / "list.csv")
    _, from_text = read_csv_rows(tmp_path / "text.csv")
    assert [[r[c] for c in stable] for r in from_list] == [[r[c] for c in stable] for r in from_text]


def test_bench_config_grid_of_wrong_type_is_usage_error(tmp_path, capsys):
    config = tmp_path / "conf.json"
    for grid in ({"r": 2}, [2, "x"], [True], 7):
        config.write_text(json.dumps({"sweep": "r", "grid": grid}))
        assert run(["bench", "--config", config, "--n", 10, "--d", 2, "--m", 1,
                    "--seeds", 1, "--out", tmp_path / "x.csv"]) == 2
    assert "grid" in capsys.readouterr().err


def test_solve_meta_model_without_variant_is_usage_error(tmp_path, capsys):
    bundle = tmp_path / "bundle"
    assert run(["synth", "--n", 12, "--d", 3, "--m", 2, "--model", "ksparse",
                "--k", 4, "--seed", 1, "--out", bundle]) == 0
    meta = json.loads((bundle / "meta.json").read_text())
    meta["model"] = {"k": 4}
    (bundle / "meta.json").write_text(json.dumps(meta))
    assert run(["solve", bundle]) == 2
    assert "variant" in capsys.readouterr().err


@pytest.mark.parametrize("model", [
    {"variant": "ksparse", "k": 2.7},
    {"variant": "ksparse", "k": True},
    {"variant": "rlocal", "sizes": [2.7, 4, 5.3]},
], ids=["k-fractional", "k-bool", "sizes-fractional"])
def test_solve_meta_model_of_non_integers_is_usage_error(tmp_path, capsys, model):
    bundle = _small_bundle(tmp_path)
    _edit_json(bundle / "meta.json", model=model)
    assert run(["solve", bundle]) == 2
    assert f"malformed {model['variant']} model" in capsys.readouterr().err
    assert not (bundle / "result.json").exists()


def test_ingest_then_solve(tmp_path, capsys):
    csv = tmp_path / "data.csv"
    rows = ["key,f1,f2,t1"]
    rng_vals = [(k, 0.1 * i, 0.2 * i, 0.5 * i + 0.3 * k) for i, k in
                enumerate([1, 2, 1, 2, 1, 2, 1, 2])]
    rows += [",".join(str(v) for v in vals) for vals in rng_vals]
    csv.write_text("\n".join(rows) + "\n")
    bundle = tmp_path / "bundle"
    assert run(["ingest", csv, "--targets", "t1", "--features", "f1,f2",
                "--block-cols", "key", "--seed", 3, "--out", bundle]) == 0
    assert "2 blocks" in capsys.readouterr().out
    assert run(["solve", bundle]) == 0
    result = json.loads((bundle / "result.json").read_text())
    assert result["mode"] == "rlocal"
    assert "relative_error" in result["metrics"]
    # block-sorted row i of the bundle is CSV data row source_rows[i]
    truth = json.loads((bundle / "truth.json").read_text())
    assert truth["source_rows"] == [0, 2, 4, 6, 1, 3, 5, 7]

    assert run(["ingest", csv, "--targets", "t1", "--features", "f1,f2",
                "--block-cols", "", "--seed", 3, "--out", bundle]) == 2
    capsys.readouterr()


def test_ingest_skips_text_in_columns_it_does_not_name_and_refuses_a_repeated_one(tmp_path,
                                                                                 capsys):
    csv = tmp_path / "t.csv"
    csv.write_text("name,key,f1,t1\nann,1,0.5,2\nbob,1,1.5,3\ncy,2,2.5,4\ndee,2,3.5,6\n")
    bundle = tmp_path / "b"
    assert run(["ingest", csv, "--targets", "t1", "--features", "f1", "--block-cols", "key",
                "--out", bundle]) == 0
    assert run(["solve", bundle]) == 0
    assert "relative_error" in json.loads((bundle / "result.json").read_text())["metrics"]

    csv.write_text("key,f1,f1,t1\n1,1,9,2\n2,2,8,3\n")
    assert run(["ingest", csv, "--targets", "t1", "--features", "f1", "--block-cols", "key",
                "--out", tmp_path / "dup"]) == 2
    assert "column 'f1' named more than once in header" in capsys.readouterr().err
    assert not (tmp_path / "dup").exists()


def test_readme_record_linkage_example_runs(tmp_path, monkeypatch, capsys):
    # README's ingest and solve lines as written, on an Excel-style CSV: a
    # byte order mark and a quoted text column that the call does not name
    rng = np.random.default_rng(0)
    lines = ["name,site,age,height,y1,y2"]
    for i in range(24):
        age, height = rng.uniform(20, 60), rng.uniform(150, 190)
        name = "Smith, Ann" if i == 5 else f"person {i}"
        lines.append(f'"{name}",{i % 4},{age:.1f},{height:.1f},'
                     f"{0.5 * age - 0.1 * height:.3f},{0.2 * age + 0.3 * height:.3f}")
    (tmp_path / "data.csv").write_text("\n".join(lines) + "\n", encoding="utf-8-sig")
    ingest = next(argv for argv in README_COMMAND_LINES
                  if argv[0] == "ingest" and "data.csv" in argv)
    out = ingest[ingest.index("--out") + 1]
    solve = next(argv for argv in README_COMMAND_LINES if argv == ["solve", out])
    monkeypatch.chdir(tmp_path)
    assert run(ingest) == 0
    assert "4 blocks" in capsys.readouterr().out
    assert run(solve) == 0
    result = json.loads((tmp_path / out / "result.json").read_text())
    assert {"relative_error", "r2"} <= set(result["metrics"])


def test_bench_large_scale_point_is_subsecond_per_solve(tmp_path):
    # n=1000, r=125 solves well under a second; the k=850 point is dominated
    # by the dense 1000x1000 assignment (~0.2s/iteration on slow hardware) and
    # gets a conservative envelope instead
    import time

    from unlabeled_sensing.data import SynthConfig, generate
    from unlabeled_sensing.permutation import KSparse as KS
    from unlabeled_sensing.solver import SolverConfig, solve

    out = tmp_path / "big.csv"
    start = time.perf_counter()
    assert run(["bench", "--sweep", "r", "--grid", "125", "--seeds", "1",
                "--n", 1000, "--d", 20, "--m", 10, "--seed", 0, "--out", out]) == 0
    _, rows = read_csv_rows(out)
    assert float(rows[0]["wall_ms"]) <= 1000.0
    assert time.perf_counter() - start <= 10.0

    inst = generate(SynthConfig(n=1000, d=20, m=10, model=KS(850), seed=0))
    start = time.perf_counter()
    solve(inst, SolverConfig(mode="ksparse"))
    assert time.perf_counter() - start <= 5.0


# ------------------------------------------------------------- validate-theory

def test_validate_theory_single_check(tmp_path, capsys):
    out = tmp_path / "reports.json"
    assert run(["validate-theory", "--checks", "chi2", "--seed", 1, "--out", out]) == 0
    reports = json.loads(out.read_text())
    assert len(reports) == 1
    rep = reports[0]
    for key in ("check", "params", "threshold", "bound", "empirical", "trials", "passed"):
        assert key in rep
    assert rep["check"] == "chi2"
    assert rep["passed"] is True
    assert rep["empirical"] <= math.exp(-1.0) + 0.02
    assert "passed" in capsys.readouterr().out


def test_validate_theory_zero_trials_is_invalid(tmp_path, capsys):
    assert run(["validate-theory", "--checks", "chi2", "--trials", 0,
                "--seed", 1, "--out", tmp_path / "r.json"]) == 2
    capsys.readouterr()


def test_validate_theory_unknown_check(tmp_path, capsys):
    assert run(["validate-theory", "--checks", "nope", "--seed", 1,
                "--out", tmp_path / "r.json"]) == 2
    capsys.readouterr()


def test_validate_theory_spec_file(tmp_path, capsys):
    spec = tmp_path / "suite.json"
    spec.write_text(json.dumps({"checks": [
        {"check": "lemma2", "params": {"d": 40, "s": 20, "t": 1.0, "trials": 300}},
        {"check": "chi2", "params": {"D": 10, "t": 0.5, "trials": 500}},
    ]}))
    out = tmp_path / "reports.json"
    assert run(["validate-theory", "--spec", spec, "--seed", 2, "--out", out]) == 0
    reports = json.loads(out.read_text())
    assert [r["check"] for r in reports] == ["lemma2", "chi2"]
    assert all(r["passed"] for r in reports)
    capsys.readouterr()


BAD_SUITE_INPUTS = [
    ("spec", [{"check": "chi2"}], "non-empty 'checks' list"),
    ("spec", {"checks": ["chi2"]}, "must be an object"),
    ("spec", {"checks": [{"check": "chi2", "params": [1, 2]}]}, "check chi2: params"),
    ("spec", {"checks": [{"check": "chi2", "params": {"bogus": 1}}]},
     "check chi2: unknown parameter 'bogus'"),
    ("spec", {"checks": [{"check": "chi2", "params": {"trials": "abc"}}]},
     "check chi2: invalid value for trials"),
    ("spec", {"checks": [{"check": "chi2", "params": {"D": "abc"}}]},
     "check chi2: invalid value for D"),
    ("spec", {"checks": [{"check": "chi2", "params": {"t": "x"}}]},
     "check chi2: invalid value for t"),
    ("spec", {"checks": [{"check": "chi2", "params": {"trials": 10.5}}]},
     "check chi2: invalid value for trials"),
    ("config", {"checks": 5}, "checks must be comma-separated names"),
    ("config", {"checks": []}, "checks must name at least one check"),
    ("config", {"checks": " , "}, "checks must name at least one check"),
]


@pytest.mark.parametrize("flag,payload,message", BAD_SUITE_INPUTS,
                         ids=[json.dumps(p) for _, p, _ in BAD_SUITE_INPUTS])
def test_validate_theory_malformed_suite_is_usage_error(tmp_path, capsys, flag, payload,
                                                        message):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "r.json"
    assert run(["validate-theory", f"--{flag}", path, "--seed", 1, "--out", out]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_validate_theory_integer_beyond_float_range_is_usage_error(tmp_path, capsys):
    spec = tmp_path / "suite.json"
    spec.write_text('{"checks": [{"check": "chi2", "params": {"t": 1%s, "trials": 10}}]}'
                    % ("0" * 400))
    out = tmp_path / "r.json"
    assert run(["validate-theory", "--spec", spec, "--seed", 1, "--out", out]) == 2
    assert "check chi2: invalid value for t" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("names", ["", " , "])
def test_validate_theory_checks_flag_naming_no_check_is_usage_error(tmp_path, capsys, names):
    out = tmp_path / "r.json"
    assert run(["validate-theory", "--checks", names, "--out", out]) == 2
    assert capsys.readouterr() == ("", "error: checks must name at least one check\n")
    assert not out.exists()


# Values the spec layer accepts but the check cannot take: a typed error with
# exit 2 raised before any draw, and no numpy warning.
BAD_CHECK_VALUES = [
    ("theorem2", {"K": -1.0}, "need K > 0 with K^2 (d - s) finite, got K=-1.0, d=60, s=30"),
    ("lemma2", {"K": 0.0}, "need K > 0 with K^2 (d - s) finite, got K=0.0, d=80, s=40"),
    ("lemma2", {"K": 1e200}, "need K > 0 with K^2 (d - s) finite, got K=1e+200, d=80, s=40"),
    ("lemma2", {"s": 0}, "need 0 < s < d, got s=0, d=80"),
    ("theorem2", {"s": 0}, "need 0 < s < d, got s=0, d=60"),
]


@pytest.mark.parametrize("name,params,message", BAD_CHECK_VALUES,
                         ids=[f"{n}-{json.dumps(p)}" for n, p, _ in BAD_CHECK_VALUES])
def test_validate_theory_value_a_check_cannot_take_is_usage_error(tmp_path, capsys, name,
                                                                  params, message):
    spec = tmp_path / "suite.json"
    spec.write_text(json.dumps({"checks": [{"check": name, "params": params}]}))
    out = tmp_path / "r.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["validate-theory", "--spec", spec, "--out", out]) == 2
    assert caught == []
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("name,params,message", [
    ("lemma1", {"rows_per_block": 0}, "rows_per_block must be >= 1, got 0"),
    ("theorem1", {"t_grid": [-5.0, 3.0]},
     "t_grid entries must be finite and >= 0, got [-5.0, 3.0]"),
], ids=["rows_per_block-0", "negative-t_grid"])
def test_validate_theory_block_size_or_grid_a_check_cannot_take_is_usage_error(
        tmp_path, capsys, name, params, message):
    spec = tmp_path / "suite.json"
    spec.write_text(json.dumps({"checks": [{"check": name, "params": params}]}))
    out = tmp_path / "r.json"
    assert run(["validate-theory", "--spec", spec, "--out", out]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("form", ["flags", "config"])
def test_validate_theory_checks_with_spec_is_usage_error(tmp_path, capsys, monkeypatch, form):
    spec = tmp_path / "suite.json"
    spec.write_text(json.dumps({"checks": [{"check": "chi2"}]}))
    out = tmp_path / "r.json"
    if form == "flags":
        argv = ["--spec", spec, "--checks", "lemma1"]
    else:
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"spec": str(spec), "checks": "lemma1"}))
        argv = ["--config", config]
    monkeypatch.setitem(CHECK_FUNCS, "chi2", None)  # no check may run
    monkeypatch.setitem(CHECK_FUNCS, "lemma1", None)
    assert run(["validate-theory", *argv, "--out", out]) == 2
    assert capsys.readouterr() == ("", "error: give --checks or --spec, not both\n")
    assert not out.exists()


# A spec may not set a check's pass criterion. lemma1 fails on this spec with
# the fixed band margin of 0.1; a margin of 1.0 would have passed it.
SPEC_CRITERION_KNOBS = [
    ("lemma1", {"d": 100, "s": 75, "t": 0.01, "trials": 50}, "band_margin"),
    ("theorem1", {"trials": 5}, "band_margin"),
    ("theorem2", {"trials": 5}, "smallness"),
    ("theorem3", {"trials": 5}, "slack"),
    ("worst_case", {"trials": 5}, "slack"),
]


@pytest.mark.parametrize("name,params,knob", SPEC_CRITERION_KNOBS,
                         ids=[f"{name}-{knob}" for name, _, knob in SPEC_CRITERION_KNOBS])
def test_validate_theory_spec_cannot_set_a_pass_criterion(tmp_path, capsys, name, params,
                                                          knob):
    spec = tmp_path / "suite.json"
    spec.write_text(json.dumps({"checks": [{"check": name, "params": {**params, knob: 1.0}}]}))
    out = tmp_path / "r.json"
    assert run(["validate-theory", "--spec", spec, "--out", out]) == 2
    assert f"check {name}: unknown parameter {knob!r}" in capsys.readouterr().err
    assert not out.exists()


# A value for every check parameter that a spec may set to something other
# than null.
SPEC_VALUES = {
    "lemma1": {"d": 20, "s": 10, "t": 0.3, "trials": 7, "rows_per_block": 3,
               "t_grid": [0.2, 0.9]},
    "theorem1": {"d": 20, "s": 10, "m": 2, "t": 0.3, "trials": 7, "rows_per_block": 3,
                 "t_grid": [0.2, 0.9]},
    "lemma2": {"d": 20, "s": 10, "t": 1.5, "trials": 7, "K": 2.0},
    "theorem2": {"d": 20, "s": 10, "m": 2, "trials": 7, "t": 3.0, "K": 2.0},
    "lemma4": {"n": 30, "d": 4, "k": 5, "t": 1.5, "trials": 7},
    "theorem3": {"n": 30, "d": 4, "k": 5, "m": 2, "t": 2.0, "trials": 7},
    "chi2": {"D": 5, "t": 0.5, "trials": 7},
    "worst_case": {"n": 12, "d": 4, "trials": 7},
}


@pytest.mark.parametrize("name", sorted(CHECK_FUNCS))
def test_every_parameter_a_spec_sets_is_in_the_report(tmp_path, name):
    # so that no spec can change a verdict without the report showing it
    signature = inspect.signature(CHECK_FUNCS[name], eval_str=True).parameters
    settable = {key for key, param in signature.items()
                if key != "rng" and param.annotation in _SPEC_VALUE_KINDS}
    assert settable == set(SPEC_VALUES[name])
    spec = tmp_path / "suite.json"
    spec.write_text(json.dumps({"checks": [{"check": name, "params": SPEC_VALUES[name]}]}))
    out = tmp_path / "r.json"
    assert run(["validate-theory", "--spec", spec, "--out", out]) in (0, 1)
    [report] = json.loads(out.read_text())
    for key, value in SPEC_VALUES[name].items():
        if key == "trials":
            assert report["trials"] == value
        elif key == "t_grid":
            assert set(value) <= set(report["details"]["t_grid"])
        else:
            assert report["params"][key] == value, key


# A file that is not UTF-8, an integer past Python's 4300-digit conversion
# limit, nesting past the recursion limit, and malformed JSON.
UNREADABLE_JSON = [b'{"n": \xff}', b'{"n": 1' + b"0" * 5000 + b"}", b"[" * 100000,
                   b'{"n": 1\n"d": 2}']


@pytest.mark.parametrize("flag", ["config", "spec"])
@pytest.mark.parametrize("content", UNREADABLE_JSON,
                         ids=["not-utf8", "long-integer", "deep-nesting", "malformed"])
def test_unreadable_json_file_is_usage_error_naming_it(tmp_path, capsys, flag, content):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    out = tmp_path / "r.json"
    assert run(["validate-theory", f"--{flag}", path, "--out", out]) == 2
    assert f"error: {path}: " in capsys.readouterr().err
    assert not out.exists()


_NUMBERS = st.one_of(st.integers(-50, 50), st.floats(-50, 50, allow_nan=False))
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), _NUMBERS, st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


def _or_junk(strategy, junk=_JSON):
    """Mostly ``strategy``; ``junk`` in its place one time in eight."""
    return st.sampled_from((strategy,) * 7 + (junk,)).flatmap(lambda pick: pick)


def _entries_for(name):
    # every generated entry sets params and every params object sets trials
    # (at most 50, mostly at most 20), so that no example runs a check at its
    # default trial count; half of the integer values are negative, which the
    # spec check must reject before a check draws arrays of that size
    keys = set(inspect.signature(CHECK_FUNCS[name]).parameters) - {"rng", "trials"}
    values = _or_junk(st.one_of(st.integers(0, 50), st.integers(-50, -1)),
                      st.one_of(_NUMBERS, st.lists(_NUMBERS, max_size=3), _JSON))
    params = st.fixed_dictionaries({"trials": _or_junk(st.integers(1, 20))},
                                   optional={key: values for key in sorted(keys)})
    # an empty params object would run the check at its default trial count
    junk_params = _JSON.filter(lambda value: value != {})
    return st.fixed_dictionaries({"check": st.just(name),
                                  "params": _or_junk(params, junk_params)})


_ENTRY = _or_junk(st.sampled_from(sorted(CHECK_FUNCS)).flatmap(_entries_for))
_SPEC = _or_junk(st.fixed_dictionaries(
    {"checks": _or_junk(st.lists(_ENTRY, min_size=1, max_size=2))}))


@settings(max_examples=200, deadline=None)
@given(payload=_SPEC)
def test_validate_theory_spec_exit_code_is_0_1_or_2(payload):
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "suite.json"
        spec.write_text(json.dumps(payload))
        code = run(["validate-theory", "--spec", spec, "--seed", 0,
                    "--out", Path(tmp) / "r.json"])
    assert code in (0, 1, 2)


# validate-theory runs its checks on the main thread plus one worker per
# further usable core, with numpy's OpenBLAS pinned to one thread. With that
# library out of reach it runs the checks one after another on the main
# thread and leaves BLAS alone. Both must return, print and write the same.
OPENBLAS = linalg._openblas()
needs_openblas = pytest.mark.skipif(OPENBLAS is None, reason="numpy's OpenBLAS not found")


@pytest.fixture
def two_cores(monkeypatch):
    """Two usable cores, so that validate-theory starts a worker on any machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _spied(func, seen, get):
    """``func``, with the signature the spec check reads, noting its thread and BLAS count."""
    @functools.wraps(func)
    def spied(*args, **kwargs):
        seen.append((threading.get_ident(), get()))
        return func(*args, **kwargs)
    return spied


def _validate_alone_and_threaded(monkeypatch, capsys, tmp_path, argv):
    """``validate-theory argv`` with numpy's OpenBLAS out of reach, then threaded.

    BLAS is set to 3 threads first. Asserts that both runs return the same
    code, print the same lines and write the same reports.json bytes (or
    none); that the one-thread loop ran the checks up to the first that
    raises on this thread with BLAS at 3, and the threaded run its checks
    with BLAS at 1; and that BLAS is back at 3 after each run. Returns the
    threaded run's (code, stdout, stderr, reports bytes or None) and the
    idents of the threads that ran its checks.
    """
    get, put = OPENBLAS
    found = get()
    put(3)
    try:
        runs, threads = [], []
        for alone in (True, False):
            seen = []
            with monkeypatch.context() as patch:
                for name, check in CHECK_FUNCS.items():
                    patch.setitem(CHECK_FUNCS, name, _spied(check, seen, get))
                if alone:
                    patch.setattr(linalg, "_openblas", lambda: None)
                out = tmp_path / ("alone" if alone else "threaded") / "reports.json"
                rc = run(["validate-theory", *argv, "--out", out])
            printed = capsys.readouterr()
            runs.append((rc, printed.out.replace(str(out), "<out>"), printed.err,
                         out.read_bytes() if out.exists() else None))
            threads.append({ident for ident, _ in seen})
            assert {count for _, count in seen} == {3 if alone else 1}
            if alone:  # the loop runs no check past the first that raises
                assert len(seen) == printed.out.count("check ") + (rc == 2)
            assert get() == 3
    finally:
        put(found)
    assert runs[0] == runs[1]
    assert threads[0] == {threading.get_ident()}
    return runs[1], threads[1]


@needs_openblas
@pytest.mark.parametrize("seed", [1, 9173])
def test_threaded_default_suite_matches_the_one_thread_loop(two_cores, monkeypatch, capsys,
                                                            tmp_path, seed):
    (rc, out, err, reports), threads = _validate_alone_and_threaded(
        monkeypatch, capsys, tmp_path, ["--trials", 20, "--seed", seed])
    assert rc in (0, 1) and err == ""
    assert [r["check"] for r in json.loads(reports)] == list(DEFAULT_SUITE)
    assert sum(line.startswith("check ") for line in out.splitlines()) == len(DEFAULT_SUITE)
    assert len(threads) == 2  # the main thread and the worker each ran checks


_CHI2 = {"check": "chi2", "params": {"trials": 50}}
_LEMMA2 = {"check": "lemma2", "params": {"trials": 50}}
THREADED_SPECS = {
    "repeated check": ([_CHI2, _LEMMA2, _CHI2], 0, ["chi2", "lemma2", "chi2"]),
    "failed check": ([_CHI2, {"check": "lemma1", "params": {"t": 0.01, "trials": 20}}, _LEMMA2],
                     1, ["chi2", "lemma1", "lemma2"]),
    # s = d raises InvalidRange inside the check: the lines before it are
    # printed, none after, and no report is written
    "check that raises": ([_CHI2, {"check": "lemma1", "params": {"d": 8, "s": 8, "trials": 20}},
                           _LEMMA2], 2, ["chi2"]),
}


@needs_openblas
@pytest.mark.parametrize("case", sorted(THREADED_SPECS))
def test_threaded_spec_matches_the_one_thread_loop(two_cores, monkeypatch, capsys, tmp_path,
                                                   case):
    entries, code, printed = THREADED_SPECS[case]
    spec = tmp_path / "suite.json"
    spec.write_text(json.dumps({"checks": entries}))
    (rc, out, err, reports), _ = _validate_alone_and_threaded(
        monkeypatch, capsys, tmp_path, ["--spec", spec, "--seed", 3])
    assert rc == code
    assert [line.split(":")[0] for line in out.splitlines() if line.startswith("check ")] == [
        f"check {name}" for name in printed]
    if code == 2:
        assert reports is None and err == "error: need 0 <= s < d, got s=8, d=8\n"
    else:
        assert [r["check"] for r in json.loads(reports)] == printed
        assert ("FAILED" in out) == (code == 1)


def _note_starts(patch, started):
    """Patch ``threading.Thread.start`` to note each thread started in ``started``."""
    start = threading.Thread.start

    def noted(thread):
        started.append(thread)
        return start(thread)
    patch.setattr(threading.Thread, "start", noted)


def _note_blas_lookups(patch, looked):
    """Patch ``linalg._openblas`` to note each time BLAS's count is about to be read or set."""
    find = linalg._openblas
    patch.setattr(linalg, "_openblas", lambda: looked.append(True) or find())


# One worker runs every task on the main thread and starts no thread (a pool
# thread's own malloc arena raised the rlocal_sweep peak RSS from 128 to
# 195 MB); more workers run the tasks on pool threads only.

@pytest.mark.parametrize("cores", [{0}, pytest.param({0, 1}, marks=needs_openblas)],
                         ids=["one core", "two cores"])
def test_validate_theory_runs_on_the_main_thread_on_one_core_and_on_pool_threads_on_more(
        monkeypatch, capsys, tmp_path, cores):
    ran, started, looked = [], [], []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores, raising=False)
    for name, check in CHECK_FUNCS.items():
        monkeypatch.setitem(CHECK_FUNCS, name, _spied(check, ran, lambda: None))
    _note_starts(monkeypatch, started)
    _note_blas_lookups(monkeypatch, looked)
    out = tmp_path / "reports.json"
    assert run(["validate-theory", "--trials", 20, "--seed", 1, "--out", out]) in (0, 1)
    idents = {ident for ident, _ in ran}
    assert len(ran) == len(DEFAULT_SUITE)
    if len(cores) == 1:  # BLAS is left untouched: its count is never read or set
        assert idents == {threading.get_ident()} and started == [] and looked == []
    else:
        assert threading.get_ident() not in idents and 1 <= len(started) <= 2
        assert looked == [True]
    capsys.readouterr()


def test_bench_runs_on_the_main_thread_at_one_worker_and_on_pool_threads_at_two(
        monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(linalg, "BLAS_SERIAL_MAX", 0)  # so bench leaves BLAS alone
    written = {}
    for threads in (1, 2):
        ran, started, looked = [], [], []
        out = tmp_path / f"threads{threads}" / "sweep.csv"
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_bench_task", _spied(cli._bench_task, ran, lambda: None))
            _note_starts(patch, started)
            _note_blas_lookups(patch, looked)
            assert run(["bench", "--sweep", "r", "--grid", "5,10", "--seeds", 2, "--n", 200,
                        "--d", 5, "--m", 2, "--sigma", 0.01, "--seed", 0,
                        "--threads", threads, "--out", out]) == 0
        idents = {ident for ident, _ in ran}
        assert len(ran) == 4 and looked == []
        if threads == 1:
            assert idents == {threading.get_ident()} and started == []
        else:
            assert threading.get_ident() not in idents and 1 <= len(started) <= 2
        written[threads] = [_without_wall(out.with_name(name)) for name in
                            ("sweep.csv", "sweep_agg.csv", "sweep_runs.jsonl")]
    assert written[1] == written[2]
    capsys.readouterr()


# bench and solve run on one BLAS thread when their B has at most
# linalg.BLAS_SERIAL_MAX entries, and leave BLAS alone above that. With
# numpy's OpenBLAS out of reach they leave it alone at any size; both must
# write the same bytes. 2048 x 256 is exactly the limit.

@pytest.fixture
def blas_at_two():
    """numpy's OpenBLAS set to 2 threads for the test; yields its get function.

    Not more: above the limit, a count past the core count made OpenBLAS's
    SVD of a 2048 x 257 matrix 80 times slower on a 2-core VM.
    """
    get, put = OPENBLAS
    found = get()
    put(2)
    try:
        yield get
    finally:
        put(found)


def _note_blas(patch, name, seen, get):
    """Patch ``cli.<name>`` to note the BLAS thread count in ``seen`` at each call."""
    patch.setattr(cli, name, _spied(getattr(cli, name), seen, get))


def _counts(seen):
    return [count for _, count in seen]


def _without_wall(path):
    """The lines of a bench output with its wall-clock fields removed."""
    lines = path.read_text().splitlines()
    if path.suffix == ".jsonl":
        return [json.dumps({k: v for k, v in json.loads(line).items() if k != "wall_ms"})
                for line in lines]
    rows = [line.split(",") for line in lines]
    keep = [i for i, name in enumerate(rows[0]) if not name.endswith("wall_ms")]
    return [",".join(row[i] for i in keep) for row in rows]


_BENCH_AT_2000 = ["bench", "--seeds", 2, "--n", 2000, "--d", 10, "--m", 5, "--sigma", 0.01,
                  "--seed", 5]
BLAS_SWEEPS = {"k": ["--sweep", "k", "--grid", "50,1000"],
               "r": ["--sweep", "r", "--grid", "10,100"]}


@needs_openblas
@pytest.mark.parametrize("sweep", sorted(BLAS_SWEEPS))
def test_bench_below_the_limit_runs_on_one_blas_thread_and_writes_the_unpinned_rows(
        blas_at_two, monkeypatch, tmp_path, sweep):
    get = blas_at_two
    written = {}
    for threads in (1, 2):
        for pinned in (True, False):
            seen = []
            with monkeypatch.context() as patch:
                _note_blas(patch, "solve", seen, get)
                if not pinned:
                    patch.setattr(linalg, "_openblas", lambda: None)
                run_dir = f"threads{threads}_{'pinned' if pinned else 'alone'}"
                out = tmp_path / run_dir / "sweep.csv"
                assert run([*_BENCH_AT_2000, *BLAS_SWEEPS[sweep], "--threads", threads,
                            "--out", out]) == 0
            assert _counts(seen) == [1 if pinned else 2] * 4
            assert get() == 2
            written[threads, pinned] = [_without_wall(out.with_name(name)) for name in
                                        ("sweep.csv", "sweep_agg.csv", "sweep_runs.jsonl")]
    assert all(files == written[1, False] for files in written.values())


@needs_openblas
@pytest.mark.parametrize("threads", [1, 2])
def test_bench_restores_blas_after_an_error_inside_the_pin(blas_at_two, monkeypatch, tmp_path,
                                                           capsys, threads):
    seen = []  # SynthConfig raises for k = 2001, after the k = 50 tasks have solved
    _note_blas(monkeypatch, "SynthConfig", seen, blas_at_two)
    assert run([*_BENCH_AT_2000, "--sweep", "k", "--grid", "50,2001", "--threads", threads,
                "--out", tmp_path / "sweep.csv"]) == 2
    assert capsys.readouterr().err == "error: k=2001 exceeds n=2000\n"
    assert len(seen) >= 3 and set(_counts(seen)) == {1}
    assert blas_at_two() == 2


def _ksparse_bundle(tmp_path, n=200, d=5, k=40):
    bundle = tmp_path / "bundle"
    assert run(["synth", "--n", n, "--d", d, "--m", 3, "--model", "ksparse", "--k", k,
                "--sigma", 0.01, "--seed", 4, "--out", bundle]) == 0
    return bundle


@needs_openblas
def test_solve_runs_on_one_blas_thread_and_writes_the_unpinned_bytes(blas_at_two, monkeypatch,
                                                                    tmp_path, capsys):
    get = blas_at_two
    bundle = _ksparse_bundle(tmp_path)
    written = {}
    for pinned in (True, False):
        seen = []
        with monkeypatch.context() as patch:
            for name in ("solve", "oracle_and_naive"):  # the solve and its scoring
                _note_blas(patch, name, seen, get)
            if not pinned:
                patch.setattr(linalg, "_openblas", lambda: None)
            out = tmp_path / ("pinned" if pinned else "alone")
            assert run(["solve", bundle, "--out", out]) == 0
        assert _counts(seen) == [1 if pinned else 2] * 2
        assert get() == 2
        written[pinned] = [(out / name).read_bytes()
                           for name in ("P_hat.json", "X_hat.csv", "result.json")]
    assert written[True] == written[False]
    capsys.readouterr()


@needs_openblas
def test_bench_above_the_limit_factors_b_to_the_same_bytes_at_one_and_two_blas_threads(
        monkeypatch, tmp_path):
    # Above the limit the command leaves BLAS at the count it finds. Every B
    # and collapsed B here is tall, so CholeskyQR2 factors it, in products that
    # round alike at either count; gesdd's factors of 11000 x 48 do not.
    assert 11000 * 48 > linalg.BLAS_SERIAL_MAX
    factored = {1: [], 2: []}
    for count in (1, 2):
        def spy(A, svd=linalg.svd, seen=factored[count]):
            f = svd(A)
            seen.append(b"".join(M.tobytes() for M in (f.U, f.S, f.V)))
            return f
        with monkeypatch.context() as patch, linalg.blas_threads(count):
            patch.setattr(linalg, "svd", spy)  # the collapsed B, through pinv_solve
            patch.setattr(data_module, "svd", spy)  # ProblemInstance.b_svd
            assert run(["bench", "--sweep", "r", "--grid", "10", "--seeds", 1, "--n", 11000,
                        "--d", 48, "--m", 10, "--sigma", 0.01, "--seed", 7,
                        "--out", tmp_path / f"blas{count}" / "sweep.csv"]) == 0
    assert len(factored[1]) == 2 and factored[1] == factored[2]


@needs_openblas
def test_bench_of_the_readme_example_writes_the_same_ledger_at_one_and_two_blas_threads(
        tmp_path):
    # README's reproducibility example, above the limit.
    written = []
    for count in (1, 2):
        out = tmp_path / f"blas{count}" / "sweep.csv"
        with linalg.blas_threads(count):
            assert run(["bench", "--sweep", "r", "--grid", "10,100", "--seeds", 2, "--n", 20000,
                        "--d", 50, "--m", 10, "--sigma", 0.01, "--seed", 7, "--out", out]) == 0
        written.append(_without_wall(out.with_name("sweep_runs.jsonl")))
    assert written[0] == written[1]


def test_solve_reports_the_rank_and_extreme_singular_values_of_b(tmp_path, capsys):
    bundle = tmp_path / "bundle"  # 2048 x 8: tall enough for CholeskyQR2
    assert run(["synth", "--n", 2048, "--d", 8, "--m", 2, "--model", "rlocal", "--r", 8,
                "--sigma", 0.01, "--seed", 2, "--out", bundle]) == 0
    assert run(["solve", bundle]) == 0
    got = json.loads((bundle / "result.json").read_text())["B"]
    S = np.linalg.svd(load_bundle(bundle).B, compute_uv=False)
    assert set(got) == {"rank", "sigma_max", "sigma_min"} and got["rank"] == 8
    np.testing.assert_allclose([got["sigma_max"], got["sigma_min"]], [S[0], S[-1]], rtol=1e-12)
    capsys.readouterr()


@needs_openblas
def test_solve_restores_blas_after_an_error_inside_the_pin(blas_at_two, monkeypatch, tmp_path,
                                                           capsys):
    bundle = _ksparse_bundle(tmp_path)
    seen = []
    _note_blas(monkeypatch, "solve", seen, blas_at_two)
    assert run(["solve", bundle, "--mode", "rlocal"]) == 2
    assert "rlocal mode requires an instance with a partition" in capsys.readouterr().err
    assert _counts(seen) == [1]
    assert blas_at_two() == 2


@needs_openblas
@pytest.mark.parametrize("command", ["bench", "solve"])
@pytest.mark.parametrize("d,pinned", [(256, True), (257, False)])
def test_bench_and_solve_pin_blas_up_to_the_limit_and_never_above_it(
        blas_at_two, monkeypatch, tmp_path, capsys, command, d, pinned):
    assert (2048 * d <= linalg.BLAS_SERIAL_MAX) == pinned
    if command == "bench":  # two workers, one solve each
        argv = ["bench", "--sweep", "r", "--grid", 1, "--seeds", 2, "--n", 2048, "--d", d,
                "--m", 1, "--seed", 0, "--threads", 2, "--out", tmp_path / "sweep.csv"]
    else:
        argv = ["solve", _ksparse_bundle(tmp_path, n=2048, d=d, k=0)]
    seen, looked = [], []
    find = linalg._openblas
    monkeypatch.setattr(linalg, "_openblas", lambda: looked.append(True) or find())
    _note_blas(monkeypatch, "solve", seen, blas_at_two)
    assert run(argv) == 0
    assert _counts(seen) == [1 if pinned else 2] * (2 if command == "bench" else 1)
    assert bool(looked) is pinned  # above the limit BLAS's count is never read or set
    assert blas_at_two() == 2
    capsys.readouterr()


# ------------------------------------------------------------- config file


def test_config_file_with_flag_precedence(tmp_path):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"n": 16, "d": 3, "m": 2, "model": "rlocal",
                                  "r": 4, "seed": 11}))
    bundle = tmp_path / "bundle"
    # --n on the command line overrides the config file's 16
    assert run(["synth", "--config", config, "--n", 8, "--out", bundle]) == 0
    B = [line for line in (bundle / "B.csv").read_text().strip().splitlines()]
    assert len(B) == 8


# ------------------------------------------------------------- malformed input

def _small_bundle(tmp_path):
    bundle = tmp_path / "bundle"
    assert run(["synth", "--n", 12, "--d", 3, "--m", 2, "--model", "rlocal",
                "--r", 4, "--sigma", 0.1, "--seed", 2, "--out", bundle]) == 0
    return bundle


def _edit_json(path, **changes):
    payload = json.loads(path.read_text())
    payload.update(changes)
    path.write_text(json.dumps(payload))


def test_solve_truncated_permutation_is_caught_at_load(tmp_path, capsys):
    bundle = _small_bundle(tmp_path)
    _edit_json(bundle / "truth.json", permutation=list(range(11)))
    assert run(["solve", bundle]) == 2
    assert "permutation covers 11 rows" in capsys.readouterr().err
    assert not (bundle / "result.json").exists()


@pytest.mark.parametrize("rows,message", [
    ([0] * 12, "permutation map must be a bijection on 0..n-1"),
    (list(range(1, 13)), "permutation map must be a bijection on 0..n-1"),
    ([], "permutation map must be a non-empty"),
    (list(range(11)), "truth.json source_rows covers 11 rows but B.csv has 12"),
], ids=["repeated", "shifted", "empty", "short"])
def test_solve_source_rows_not_a_bijection_on_the_rows_is_usage_error(tmp_path, capsys,
                                                                      rows, message):
    bundle = _small_bundle(tmp_path)
    _edit_json(bundle / "truth.json", source_rows=rows)
    assert run(["solve", bundle]) == 2
    assert message in capsys.readouterr().err
    assert not (bundle / "result.json").exists()


def test_solve_partition_not_covering_n_is_usage_error(tmp_path, capsys):
    bundle = _small_bundle(tmp_path)
    _edit_json(bundle / "truth.json", partition=[4, 4])
    assert run(["solve", bundle]) == 2
    assert "partition covers 8 rows" in capsys.readouterr().err


def test_solve_ystar_row_count_mismatch_is_usage_error(tmp_path, capsys):
    bundle = _small_bundle(tmp_path)
    lines = (bundle / "Ystar.csv").read_text().splitlines()
    (bundle / "Ystar.csv").write_text("\n".join(lines[:-1]) + "\n")
    assert run(["solve", bundle]) == 2
    assert "Ystar.csv covers 11 rows" in capsys.readouterr().err


def test_solve_non_numeric_sigma_is_usage_error(tmp_path, capsys):
    bundle = _small_bundle(tmp_path)
    _edit_json(bundle / "meta.json", sigma="abc")
    assert run(["solve", bundle]) == 2
    assert "sigma" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["meta.json", "truth.json"])
def test_solve_non_object_bundle_json_is_usage_error(tmp_path, capsys, name):
    bundle = _small_bundle(tmp_path)
    (bundle / name).write_text("[]\n")
    assert run(["solve", bundle]) == 2
    assert f"{name} must hold a JSON object" in capsys.readouterr().err


def test_non_numeric_config_scalars_are_usage_errors(tmp_path, capsys):
    bundle = _small_bundle(tmp_path)
    config = tmp_path / "conf.json"
    cases = [
        ({"n": "abc"}, ["bench", "--sweep", "r", "--grid", 2, "--seeds", 1,
                        "--out", tmp_path / "x.csv"]),
        ({"sigma": "abc"}, ["bench", "--sweep", "r", "--grid", 2, "--seeds", 1, "--n", 10,
                            "--out", tmp_path / "x.csv"]),
        ({"d": "abc"}, ["synth", "--n", 8, "--r", 4, "--out", tmp_path / "s"]),
        ({"sizes": "4,x"}, ["synth", "--n", 8, "--out", tmp_path / "s"]),
        ({"epsilon": "abc"}, ["solve", bundle]),
        ({"max_iters": [3]}, ["solve", bundle]),
    ]
    for payload, argv in cases:
        config.write_text(json.dumps(payload))
        assert run(argv + ["--config", config]) == 2, payload
        name = next(iter(payload))
        assert f"invalid value for {name}" in capsys.readouterr().err


def test_bench_grid_with_no_values_is_usage_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run(["bench", "--sweep", "r", "--grid", " , ", "--seeds", 1, "--n", 10,
                "--d", 2, "--m", 1, "--out", out]) == 2
    assert "no values" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,value", [
    ("partition", "abc"),
    ("partition", [[1]]),
    ("partition", [4.5, 4.5, 4.5]),
    ("permutation", "abc"),
    ("permutation", [0, True] + list(range(2, 12))),
    ("source_rows", "abc"),
    ("source_rows", [-1] + list(range(1, 12))),
], ids=["partition-text", "partition-nested", "partition-fractional", "permutation-text",
        "permutation-bool", "source-rows-text", "source-rows-negative"])
def test_solve_mistyped_truth_is_usage_error(tmp_path, capsys, key, value):
    bundle = _small_bundle(tmp_path)
    _edit_json(bundle / "truth.json", **{key: value})
    assert main(["solve", str(bundle)]) == 2
    assert f"truth.json {key} must be a list of non-negative integers" in capsys.readouterr().err
    assert not (bundle / "result.json").exists()


@pytest.mark.parametrize("meta_model,partition", [
    ({"variant": "ksparse", "k": 4}, [4, 4, 4]),
    ({"variant": "rlocal", "sizes": [6, 6]}, [4, 4, 4]),
    ({"variant": "rlocal", "sizes": [4, 4, 4]}, None),
], ids=["ksparse-with-partition", "rlocal-sizes-differ", "rlocal-without-partition"])
def test_solve_meta_model_contradicting_truth_partition_is_usage_error(tmp_path, capsys,
                                                                       meta_model, partition):
    bundle = _small_bundle(tmp_path)
    _edit_json(bundle / "meta.json", model=meta_model)
    _edit_json(bundle / "truth.json", partition=partition)
    message = "meta.json model does not match the truth.json partition"
    with pytest.raises(InvalidConfig, match=message):
        load_bundle(bundle)
    out = tmp_path / "out"
    assert run(["solve", bundle, "--out", out]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("partition,mode", [([4, 4, 4], "rlocal"), (None, "ksparse")])
def test_solve_default_mode_follows_the_partition(tmp_path, partition, mode):
    bundle = _small_bundle(tmp_path)
    _edit_json(bundle / "meta.json", model=None)
    _edit_json(bundle / "truth.json", partition=partition)
    assert run(["solve", bundle]) == 0
    assert json.loads((bundle / "result.json").read_text())["mode"] == mode


def test_solve_ystar_column_count_mismatch_is_caught_at_load(tmp_path, capsys):
    bundle = _small_bundle(tmp_path)
    lines = (bundle / "Ystar.csv").read_text().splitlines()
    (bundle / "Ystar.csv").write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in lines))
    out = tmp_path / "out"
    assert run(["solve", bundle, "--out", out]) == 2
    assert "Ystar.csv has 1 columns but Y.csv has 2" in capsys.readouterr().err
    assert not out.exists()


def test_solve_out_of_memory_is_one_line_usage_error(tmp_path, capsys, monkeypatch):
    bundle, out = tmp_path / "bundle", tmp_path / "out"
    assert run(["synth", "--n", 40, "--d", 3, "--m", 2, "--model", "ksparse", "--k", 20,
                "--sigma", 0.1, "--seed", 3, "--out", bundle]) == 0
    capsys.readouterr()

    def exhausted(Y, Z, partition):
        raise MemoryError("Unable to allocate 6.71 GiB for an array with shape "
                          "(30000, 30000) and data type float64")

    monkeypatch.setattr(solver, "solve_nearest", exhausted)
    assert run(["solve", bundle, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: solve: out of memory: Unable to allocate 6.71 GiB")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def _run_capped(code: str, *argv: str, limit: int = 3 * 2**30) -> subprocess.CompletedProcess:
    """``python -c code *argv`` on this checkout's package under an
    address-space cap of ``limit`` bytes. The cap assumes one BLAS thread:
    each thread of the pool adds its own buffer and stack to the address
    space, so the pool is pinned to measure the solver's arrays and not the
    host's core count."""
    env = {**os.environ, **{name: "1" for name in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
           "PYTHONPATH": str(Path(unlabeled_sensing.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, timeout=600,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
                          capture_output=True, text=True)


def test_large_ksparse_solve_fits_a_3gb_address_space(tmp_path):
    # Two n x n float64 arrays at n = 30000 take 14.4 GB; the dense step built
    # both and ended in numpy's _ArrayMemoryError. The KD-tree and the warm
    # start (one row lost its nearest fitted row on seed 1) need O(n m).
    code = "import sys; from unlabeled_sensing.cli import main; sys.exit(main(sys.argv[1:]))"
    bundle = tmp_path / "bundle"
    for argv in (["synth", "--n", "30000", "--d", "50", "--m", "10", "--model", "ksparse",
                  "--k", "3000", "--seed", "1", "--out", str(bundle)],
                 ["solve", str(bundle)]):
        proc = _run_capped(code, *argv)
        assert proc.returncode == 0, proc.stderr
    result = json.loads((bundle / "result.json").read_text())
    assert result["converged"] and result["metrics"]["frac_distortion"] == 0.0


def test_colliding_ksparse_solve_within_the_budget_builds_no_cost_matrix(tmp_path):
    # n = 8000 is within the 512 MiB budget, so a colliding k = n/2 step used
    # to build the 8000 x 8000 cost matrix for scipy: the solve peaked at 757
    # MiB of address space with one BLAS thread on a 2-core x86-64 VM. Row
    # reduction settles it in O(n m) memory, and synth plus solve peaked at
    # 163 MiB there, so a cap of the matrix's own 512 MiB leaves 349 MiB.
    code = "import sys; from unlabeled_sensing.cli import main; sys.exit(main(sys.argv[1:]))"
    bundle = tmp_path / "bundle"
    for argv in (["synth", "--n", "8000", "--d", "50", "--m", "10", "--model", "ksparse",
                  "--k", "4000", "--seed", "1", "--out", str(bundle)],
                 ["solve", str(bundle)]):
        proc = _run_capped(code, *argv, limit=2**29)
        assert proc.returncode == 0, proc.stderr
    result = json.loads((bundle / "result.json").read_text())
    assert result["converged"] and result["metrics"]["frac_distortion"] == 0.0


def test_rlocal_block_past_the_memory_budget_fits_a_3gb_address_space():
    # One block of 20000 rows: its 20000 x 20000 cost stack (3 GiB) ended in
    # a MemoryError under this cap. A block past the budget takes the dense
    # step, which certifies this close fit by KD-tree in O(n m) memory.
    code = """
from unlabeled_sensing.data import SynthConfig, generate
from unlabeled_sensing.permutation import BlockPartition, RLocal
from unlabeled_sensing.solver import permutation_update
part = BlockPartition((20000,))
inst = generate(SynthConfig(n=20000, d=50, m=10, model=RLocal(part), sigma=0.01, seed=1))
p = permutation_update(inst.B, inst.Y, inst.x_star, part)
assert (p.map == inst.p_star.map).all()
"""
    proc = _run_capped(code)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("model,option", [("rlocal", "--r"), ("ksparse", "--k")])
def test_solve_bundle_whose_squares_overflow_is_usage_error(tmp_path, capsys, model, option):
    # Scaled by 1e154, ||Y||_F^2 overflows float64 and the solve stops with
    # NonFinite; by 1e153 it fits and the solve runs as before.
    for scale, code in ((1e153, 0), (1e154, 2)):
        bundle = tmp_path / f"{scale:g}"
        assert run(["synth", "--n", 12, "--d", 3, "--m", 2, "--model", model, option, 4,
                    "--sigma", 0.1, "--seed", 2, "--out", bundle]) == 0
        for name in ("B.csv", "Y.csv", "Ystar.csv"):
            write_matrix_csv(bundle / name, scale * read_matrix_csv(bundle / name))
        assert run(["solve", bundle, "--mode", model]) == code
        assert (bundle / "result.json").exists() == (code == 0)
    assert "||Y||_F^2 overflows" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["true", '"0.5"', '"nan"', "NaN", "Infinity", "-0.5",
                                 "1" + "0" * 400, "null"],
                         ids=["true", "text", "text-nan", "NaN", "Infinity", "negative",
                              "beyond-float-range", "null"])
def test_solve_meta_sigma_not_a_finite_non_negative_number_is_usage_error(tmp_path, capsys,
                                                                          raw):
    bundle = _small_bundle(tmp_path)
    _edit_json(bundle / "meta.json", sigma="SIGMA")
    meta = bundle / "meta.json"
    meta.write_text(meta.read_text().replace('"SIGMA"', raw))
    assert run(["solve", bundle]) == 2
    assert "meta.json sigma must be a finite number >= 0" in capsys.readouterr().err
    assert not (bundle / "result.json").exists()


@pytest.mark.parametrize("key,decimals,message", [
    ("nan", 0, "t.csv, line 3, column key: blocking key nan has no finite rounding to 0 decimals"),
    ("inf", 0, "t.csv, line 3, column key: blocking key inf has no finite rounding to 0 decimals"),
    ("1e300", 10,
     "t.csv, line 3, column key: blocking key 1e+300 has no finite rounding to 10 decimals"),
    ("1.5", 310, "blocking columns key: cannot round to 310 decimals"),
    ("1.5", -400, "blocking columns key: cannot round to -400 decimals"),
], ids=["nan-key", "infinite-key", "overflowing-key", "decimals-310", "decimals-minus-400"])
def test_ingest_unroundable_blocking_key_is_usage_error(tmp_path, capsys, key, decimals,
                                                        message):
    data = tmp_path / "t.csv"
    data.write_text(f"key,f1,f2,t1\n1,0.5,0.25,2\n{key},1.5,0.75,3\n")
    out = tmp_path / "o"
    assert run(["ingest", data, "--targets", "t1", "--features", "f1,f2",
                "--block-cols", "key", "--decimals", decimals, "--out", out]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_ingest_non_finite_feature_is_usage_error_naming_its_cell(tmp_path, capsys):
    data = tmp_path / "nf.csv"
    data.write_text("key,f1,t1\n1,0.5,2\n1,nan,3\n")
    out = tmp_path / "b"
    assert run(["ingest", data, "--targets", "t1", "--features", "f1", "--block-cols", "key",
                "--out", out]) == 2
    assert capsys.readouterr() == ("", f"error: {data}, line 3, column f1: "
                                       "nan is not a finite number\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["synth", "--n", 4, "--d", 2, "--model", "rlocal", "--r", 2, "--sigma", 1e308],
    ["bench", "--sweep", "sigma", "--grid", 1e308, "--seeds", 1, "--r", 2],
], ids=["synth", "bench"])
def test_sigma_whose_noise_overflows_is_one_error_line(tmp_path, capsys, argv):
    # pytest turns warnings into errors, so numpy's overflow warning would escape main
    out = tmp_path / "out"
    assert run([*argv, "--out", out]) == 2
    assert capsys.readouterr() == ("", "error: Y contains NaN or Inf entries\n")
    assert not out.exists()


# A cell that is not UTF-8, and a field one character past csv's length limit.
UNREADABLE_CSV_CELLS = [b"\xff\xfe1", b"x" * 131073]
_UNREADABLE_IDS = ["not-utf8", "field-past-csv-limit"]


@pytest.mark.parametrize("cell", UNREADABLE_CSV_CELLS, ids=_UNREADABLE_IDS)
def test_solve_unreadable_bundle_csv_is_usage_error(tmp_path, capsys, cell):
    bundle = _small_bundle(tmp_path)
    (bundle / "Y.csv").write_bytes(cell + b",2\n")
    assert run(["solve", bundle]) == 2
    assert "Y.csv: cannot read as a UTF-8 CSV file" in capsys.readouterr().err
    assert not (bundle / "result.json").exists()


@pytest.mark.parametrize("cell", UNREADABLE_CSV_CELLS, ids=_UNREADABLE_IDS)
def test_ingest_unreadable_csv_is_usage_error(tmp_path, capsys, cell):
    data = tmp_path / "t.csv"
    data.write_bytes(b"key,f1,f2,t1\n1,0.5,0.25,2\n" + cell + b",1.5,0.75,3\n")
    out = tmp_path / "o"
    assert run(["ingest", data, "--targets", "t1", "--features", "f1,f2",
                "--block-cols", "key", "--out", out]) == 2
    assert "t.csv: cannot read as a UTF-8 CSV file" in capsys.readouterr().err
    assert not out.exists()


# Junk for a bundle field: every JSON kind, with integers past int64 and past
# the float range, NaN and the infinities (json writes them as NaN/Infinity).
_BUNDLE_JUNK = st.one_of(
    _JSON, st.integers(-2 ** 70, 2 ** 70), st.just(10 ** 400), st.floats(),
    st.lists(st.one_of(st.integers(-1, 13), st.integers(2 ** 62, 2 ** 70)), max_size=13))
_SIZES = st.lists(st.integers(1, 6), min_size=1, max_size=4)


@st.composite
def _bundle_edits(draw):
    """The synth model of a 12-row bundle and edits to its files, mostly plausible."""
    base = draw(st.sampled_from([("rlocal", "--r", 4), ("ksparse", "--k", 4)]))
    models = st.one_of(
        st.none(), st.builds(lambda sizes: {"variant": "rlocal", "sizes": sizes}, _SIZES),
        st.just({"variant": "rlocal", "sizes": [4, 4, 4]}),
        st.builds(lambda k: {"variant": "ksparse", "k": k}, st.integers(0, 13)))
    edits = {
        ("meta.json", "model"): _or_junk(models, _BUNDLE_JUNK),
        ("meta.json", "sigma"): _or_junk(st.one_of(st.floats(0, 1), st.integers(0, 3)),
                                         _BUNDLE_JUNK),
        ("truth.json", "partition"): _or_junk(st.one_of(st.none(), st.just([4, 4, 4]), _SIZES),
                                              _BUNDLE_JUNK),
        ("truth.json", "permutation"): _or_junk(
            st.one_of(st.none(), st.permutations(range(12)), st.permutations(range(11))),
            _BUNDLE_JUNK),
        ("truth.json", "source_rows"): _or_junk(
            st.one_of(st.none(), st.permutations(range(12)), st.permutations(range(11))),
            _BUNDLE_JUNK),
    }
    picked = draw(st.sets(st.sampled_from(sorted(edits)), max_size=5))
    ystar = draw(st.sampled_from(["keep", "keep", "drop-row", "drop-column", "add-column",
                                  "remove"]))
    mode = draw(st.sampled_from([None, None, "rlocal", "ksparse"]))
    return base, {key: draw(edits[key]) for key in sorted(picked)}, ystar, mode


@settings(max_examples=200, deadline=None)
@given(case=_bundle_edits())
def test_solve_exit_code_on_an_edited_bundle_is_0_or_2(case):
    (model, flag, value), edits, ystar, mode = case
    with tempfile.TemporaryDirectory() as tmp:
        bundle, out = Path(tmp) / "bundle", Path(tmp) / "out"
        assert run(["synth", "--n", 12, "--d", 3, "--m", 2, "--model", model, flag, value,
                    "--sigma", 0.1, "--seed", 2, "--out", bundle]) == 0
        for (name, key), edit in edits.items():
            _edit_json(bundle / name, **{key: edit})
        path = bundle / "Ystar.csv"
        lines = path.read_text().splitlines()
        if ystar == "remove":
            path.unlink()
        elif ystar != "keep":
            lines = {"drop-row": lines[:-1],
                     "drop-column": [line.rsplit(",", 1)[0] for line in lines],
                     "add-column": [line + ",1" for line in lines]}[ystar]
            path.write_text("\n".join(lines) + "\n")
        argv = ["solve", bundle, "--out", out, "--max-iters", 5]
        code = run(argv + (["--mode", mode] if mode else []))
        # a bundle that is refused is refused before anything is written
        assert code == 0 or (code == 2 and not out.exists())


# ------------------------------------------------------------- option tables

_SYNTH = ["synth", "--r", 4, "--d", 3, "--m", 2]
_BENCH = ["bench", "--sweep", "r", "--grid", 2, "--n", 10, "--d", 2, "--m", 1]
BAD_CONFIGS = [
    (["validate-theory", "--checks", "chi2"], {"trials": 10.5}, "invalid value for trials"),
    (_SYNTH, {"n": 12.9}, "invalid value for n"),
    (_BENCH, {"seeds": True}, "invalid value for seeds"),
    (_SYNTH + ["--n", 12], {"out": 5}, "invalid value for out"),
    (["solve", "BUNDLE"], {"out": 5}, "invalid value for out"),
    (_BENCH + ["--seeds", 1], {"out": 5}, "invalid value for out"),
    (["solve", "BUNDLE"], {"max_iter": 5}, "solve takes no config key 'max_iter'"),
    (_SYNTH + ["--n", 12], {"threads": 2}, "synth takes no config key 'threads'"),
    (_BENCH + ["--seeds", 1], {"model": "dense"}, "invalid value for model"),
    (_BENCH, {"seeds": 0}, "invalid value for seeds: 0"),
    (_BENCH + ["--seeds", 1], {"threads": 0}, "invalid value for threads: 0"),
    (["validate-theory", "--checks", "chi2"], {"spec": ""}, "invalid value for spec: ''"),
]


@pytest.mark.parametrize("argv,payload,message", BAD_CONFIGS,
                         ids=[f"{a[0]}-{json.dumps(p)}" for a, p, _ in BAD_CONFIGS])
def test_mistyped_or_unknown_config_value_is_usage_error(tmp_path, capsys, argv, payload,
                                                         message):
    # each argv exits 0 with an empty config file
    if "BUNDLE" in argv:
        argv = [_small_bundle(tmp_path) if a == "BUNDLE" else a for a in argv]
    if "out" not in payload:
        argv = argv + ["--out", tmp_path / "out"]
    config = tmp_path / "conf.json"
    config.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run(argv + ["--config", config]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (_BENCH + ["--seeds", 0], "invalid value for seeds: '0'"),
    (_BENCH + ["--seeds", 1, "--threads", 0], "invalid value for threads: '0'"),
    (["validate-theory", "--spec", ""], "invalid value for spec: ''"),
    (["validate-theory", "--spec", "", "--checks", "chi2", "--trials", 10],
     "invalid value for spec: ''"),
], ids=["seeds-0", "threads-0", "empty-spec", "empty-spec-with-checks"])
def test_zero_count_or_empty_spec_flag_is_usage_error_before_any_run(tmp_path, capsys, argv,
                                                                     message):
    out = tmp_path / "out"
    assert run(argv + ["--out", out]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["synth", "--n", 8, "--r", 4], "synth requires --out DIRECTORY"),
    (["ingest", "CSV", "--features", "f1", "--block-cols", "key", "--out", "OUT"],
     "ingest requires --targets and --features column lists"),
    (["ingest", "CSV", "--targets", "t1", "--block-cols", "key", "--out", "OUT"],
     "ingest requires --targets and --features column lists"),
    (["ingest", "CSV", "--targets", "t1", "--features", "f1", "--block-cols", "key"],
     "ingest requires --out DIRECTORY"),
], ids=["synth-no-out", "ingest-no-targets", "ingest-no-features", "ingest-no-out"])
def test_command_without_a_required_option_is_usage_error(tmp_path, capsys, argv, message):
    data = tmp_path / "t.csv"
    data.write_text("key,f1,t1\n1,0.5,2\n1,1.5,3\n")
    argv = [data if a == "CSV" else tmp_path / "o" if a == "OUT" else a for a in argv]
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == [data]


def test_config_file_that_is_not_an_object_is_usage_error(tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_text("[]\n")
    out = tmp_path / "s"
    assert run(["synth", "--n", 8, "--r", 4, "--out", out, "--config", config]) == 2
    assert capsys.readouterr() == ("", f"error: config file {config} must hold a JSON object\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["solve", "bundle", "--threads", "2"],
    ["solve", "bundle", "--seed", "1"],
    ["synth", "--threads", "2"],
    ["ingest", "data.csv", "--threads", "2"],
    ["validate-theory", "--threads", "2"],
], ids=lambda argv: f"{argv[0]}-{argv[-2]}")
def test_flag_a_command_ignores_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_bench_ledger_hash_is_pinned_and_config_file_matches_flags(tmp_path):
    flags = {"sweep": "r", "grid": "5,2", "seeds": 2, "n": 40, "d": 3, "m": 2, "seed": 4}
    argv = ["bench"] + [a for key, value in flags.items() for a in (f"--{key}", value)]
    assert run(argv + ["--out", tmp_path / "flags.csv"]) == 0
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({**flags, "grid": [5, 2]}))
    assert run(["bench", "--config", config, "--out", tmp_path / "config.csv"]) == 0

    def ledger(name):
        records = [json.loads(line)
                   for line in (tmp_path / f"{name}_runs.jsonl").read_text().splitlines()]
        for rec in records:
            del rec["wall_ms"]
        return records

    from_flags = ledger("flags")
    assert len(from_flags) == 4
    assert {rec["config_hash"] for rec in from_flags} == {"a5745a36f56df1af"}
    assert ledger("config") == from_flags


def _perfbench(module: str):
    """``perfbench/<module>.py`` imported by path; the benchmark is not a package."""
    name = f"perfbench_{module}"
    if name not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "perfbench" / f"{module}.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


@pytest.mark.parametrize("name", sorted(_perfbench("workloads").WORKLOADS))
@pytest.mark.parametrize("threads", [1, 2])
def test_benchmark_command_lines_parse_and_resolve(tmp_path, name, threads):
    workload = _perfbench("workloads").WORKLOADS[name](1, tmp_path)
    workload.bundle = tmp_path / "bundle"  # where set-up writes the bundle_solve input
    opts = _resolve(build_parser().parse_args(workload.argv(0, threads)))
    if workload.threads_flag:
        assert opts["threads"] == threads


def test_benchmark_tracer_wraps_and_restores_every_original():
    # ``--trace 1`` runs inside Tracer().installed(): every traced name must
    # resolve and be wrapped where its module binds it, a traced solve must
    # record its spans, and every original must be back on exit. A src/ change
    # that drops a traced name fails here, not in the benchmark's traced run.
    tracing = _perfbench("tracing")
    modules = {name: module for name, module in sys.modules.items()
               if name.split(".")[0] == "unlabeled_sensing"}
    before = {name: dict(vars(module)) for name, module in modules.items()}
    init, checks = Permutation.__init__, dict(CHECK_FUNCS)
    traced = [(importlib.import_module(f"unlabeled_sensing.{module}"), attr)
              for module, attr, _ in tracing.FUNCTIONS]
    originals = [getattr(module, attr) for module, attr in traced]
    with tracing.Tracer().installed() as tracer:
        for (module, attr), original in zip(traced, originals):
            wrapper = getattr(module, attr)
            assert getattr(wrapper, "__wrapped__", None) is original, f"{module.__name__}.{attr}"
        assert Permutation.__init__ is not init
        assert all(CHECK_FUNCS[name] is not fn for name, fn in checks.items())
        inst = generate(SynthConfig(n=12, d=2, m=2, model=KSparse(4), seed=1))
        solver.solve(inst, solver.SolverConfig(mode="ksparse"))
    assert {"solver.solve", "linalg.svd", "permutation.Permutation"} <= set(tracer.names)
    assert tracer.counts["solver.iters"] >= 1
    for name, module in modules.items():
        assert all(vars(module)[key] is value for key, value in before[name].items()), name
    assert Permutation.__init__ is init and CHECK_FUNCS == checks


@needs_openblas
def test_benchmark_tracer_records_one_span_per_check_of_a_threaded_suite(two_cores, tmp_path,
                                                                         capsys):
    # The checks run on two threads inside the traced op. The span recorder
    # assumes one thread, so only the span count per check is asserted.
    tracing = _perfbench("tracing")
    modules = {name: module for name, module in sys.modules.items()
               if name.split(".")[0] == "unlabeled_sensing"}
    before = {name: dict(vars(module)) for name, module in modules.items()}
    checks = dict(CHECK_FUNCS)
    with tracing.Tracer().installed() as tracer:
        rc = run(["validate-theory", "--trials", 5, "--seed", 1, "--out", tmp_path / "r.json"])
    assert rc in (0, 1)
    assert sorted(name for name in tracer.names if name.startswith("theory.")) == sorted(
        f"theory.{name}" for name in DEFAULT_SUITE)
    for name, module in modules.items():
        assert all(vars(module)[key] is value for key, value in before[name].items()), name
    assert CHECK_FUNCS == checks
    capsys.readouterr()


def _readme_command_lines():
    """Every ``unsense ...`` line in README's fenced code blocks, continuations joined."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    lines = []
    for block in re.findall(r"^```[a-z]*\n(.*?)^```", text, re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("unsense "):
                lines.append(shlex.split(line, comments=True)[1:])
    return lines


README_COMMAND_LINES = _readme_command_lines()


def test_readme_shows_every_command():
    assert {argv[0] for argv in README_COMMAND_LINES} == set(COMMANDS)


@pytest.mark.parametrize("argv", README_COMMAND_LINES, ids=" ".join)
def test_readme_command_lines_parse_and_resolve(argv):
    _resolve(build_parser().parse_args(argv))
    # full flag names only: argparse would also take a stale prefix such as --max-iter
    flags = {"--" + opt.name.replace("_", "-") for opt in COMMANDS[argv[0]].options}
    assert {word for word in argv if word.startswith("--")} <= flags | {"--config"}


def test_main_builds_its_parser_once_per_process(monkeypatch, tmp_path, capsys):
    # Every benchmark op calls main, and building the 5 subparsers and their
    # flags takes about 1.7 ms; the parser is built on the first call and
    # then reused.
    built, real = [], argparse.ArgumentParser.add_subparsers
    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers",
                        lambda self, **kw: built.append(1) or real(self, **kw))
    build_parser.cache_clear()
    try:
        for _ in range(2):
            assert run(["solve", tmp_path / "missing"]) == 2
    finally:
        build_parser.cache_clear()
    assert built == [1]
    assert capsys.readouterr().err.count("error: ") == 2


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_help_lists_every_option_of_the_table(capsys, command):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for opt in COMMANDS[command].options:
        assert f"--{opt.name.replace('_', '-')}" in text
    assert "--config" in text


# Values that no option of synth or bench may take; no digits in text, so none
# parses as a number.
_JUNK = st.recursive(
    st.one_of(st.booleans(), st.integers(-3, -1),
              st.floats(-50, 50).filter(lambda v: not v.is_integer()),
              st.text(string.ascii_letters + " ,", max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=4)
_GRID = st.lists(st.one_of(st.integers(0, 30), st.floats(0, 1)), min_size=1, max_size=3)
# Values of the right type and range per option name, small enough that every
# run is quick. They can still clash, say an r that does not divide n.
_VALUES = {
    "n": st.integers(1, 30), "d": st.integers(1, 4), "m": st.integers(1, 3),
    "r": st.integers(1, 30), "k": st.integers(0, 30),
    "sizes": st.one_of(st.lists(st.integers(1, 12), min_size=1, max_size=3), st.just("4,8")),
    "model": st.sampled_from(["rlocal", "ksparse"]),
    "b_dist": st.sampled_from(["gaussian", "uniform01"]),
    "sigma": st.floats(0, 1), "epsilon": st.floats(1e-3, 1), "seed": st.integers(0, 2 ** 40),
    "sweep": st.sampled_from(["r", "k", "sigma"]),
    "grid": st.one_of(_GRID, _GRID.map(lambda values: ",".join(map(str, values)))),
    "seeds": st.integers(1, 3), "max_iters": st.integers(1, 20),
    "threads": st.sampled_from([-1, 0, 1, 2]), "out": st.just("elsewhere"),
}
# n, seeds and max_iters are always set, so no run falls back to a large
# default; sweep and grid are always set, so most bench runs get to solve.
_REQUIRED = {"synth": (), "bench": ("sweep", "grid", "n", "seeds", "max_iters")}


def _config_for(command):
    """A config object: the command's options, mostly valid; one in eight junk."""
    names = [opt.name for opt in COMMANDS[command].options]
    junk_names = [name for name in ("threads", "max_iter", "N", "config", "")
                  if name not in names]
    options = st.fixed_dictionaries(
        {name: _or_junk(_VALUES[name], _JUNK) for name in _REQUIRED[command]},
        optional={name: _or_junk(_VALUES[name], st.one_of(_JUNK, st.none()))
                  for name in names if name not in _REQUIRED[command]})
    unknown = _or_junk(st.just({}), st.dictionaries(st.sampled_from(junk_names), _JUNK,
                                                    min_size=1, max_size=1))
    return st.tuples(options, unknown).map(lambda pair: {**pair[0], **pair[1]})


@settings(max_examples=100, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("command", ["synth", "bench"])
def test_config_file_exit_code_is_0_1_or_2(command, data):
    payload = data.draw(_config_for(command))
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "conf.json"
        config.write_text(json.dumps(payload))
        code = run([command, "--config", config, "--out", Path(tmp) / "out"])
    assert code in (0, 1, 2)
