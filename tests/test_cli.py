import importlib.util
import inspect
import json
import math
import re
import shlex
import string
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unlabeled_sensing.cli import (_SPEC_VALUE_KINDS, CHECK_FUNCS, COMMANDS, _resolve,
                                   build_parser, main)
from unlabeled_sensing.data import load_bundle
from unlabeled_sensing.errors import InvalidConfig


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

    assert run(["ingest", csv, "--targets", "t1", "--features", "f1,f2",
                "--block-cols", "", "--seed", 3, "--out", bundle]) == 2
    capsys.readouterr()


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
], ids=["partition-text", "partition-nested", "partition-fractional", "permutation-text",
        "permutation-bool"])
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
    ("nan", 0, "column key: blocking key nan has no finite rounding to 0 decimals"),
    ("inf", 0, "column key: blocking key inf has no finite rounding to 0 decimals"),
    ("1e300", 10, "column key: blocking key 1e+300 has no finite rounding to 10 decimals"),
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
    }
    picked = draw(st.sets(st.sampled_from(sorted(edits)), max_size=4))
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


def _benchmark_workloads():
    """``perfbench/workloads.py`` imported by path; the benchmark is not a package."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name].WORKLOADS


@pytest.mark.parametrize("name", sorted(_benchmark_workloads()))
@pytest.mark.parametrize("threads", [1, 2])
def test_benchmark_command_lines_parse_and_resolve(tmp_path, name, threads):
    workload = _benchmark_workloads()[name](1, tmp_path)
    workload.bundle = tmp_path / "bundle"  # where set-up writes the bundle_solve input
    opts = _resolve(build_parser().parse_args(workload.argv(0, threads)))
    if workload.threads_flag:
        assert opts["threads"] == threads


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
