"""Command-line entry point: synth, ingest, solve, bench, validate-theory.

Flag values take precedence over the optional JSON --config file, which takes
precedence over built-in defaults. Exit codes: 0 success, 1 a theory check
failed validation, 2 usage / parse / I-O errors.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import theory
from .data import (BlockRule, ProblemInstance, SynthConfig, evaluate, generate,
                   ingest_csv, load_bundle, load_bundle_meta, model_from_dict,
                   oracle_and_naive, save_bundle, write_matrix_csv)
from .errors import InvalidConfig, InvalidSpec, UnlabeledSensingError
from .permutation import BlockPartition, KSparse, RLocal, hamming_distortion
from .solver import SolverConfig, solve

CHECK_FUNCS = {
    "lemma1": theory.check_lemma1,
    "theorem1": theory.check_theorem1,
    "lemma2": theory.check_lemma2,
    "theorem2": theory.check_theorem2,
    "lemma4": theory.check_lemma4,
    "theorem3": theory.check_theorem3,
    "chi2": theory.chi2_tail_check,
    "worst_case": theory.check_worst_case,
}

DEFAULT_SUITE = {
    "lemma1": {"d": 100, "s": 75, "t": 0.5, "trials": 500},
    "theorem1": {"d": 64, "s": 48, "m": 8, "t": 0.5, "trials": 300},
    "lemma2": {"d": 80, "s": 40, "t": 2.0, "trials": 2000},
    "theorem2": {"d": 60, "s": 30, "m": 4, "trials": 1000},
    "lemma4": {"n": 200, "d": 10, "k": 20, "t": 3.0, "trials": 1000},
    "theorem3": {"n": 150, "d": 8, "k": 15, "m": 3, "t": math.log(9.0) + 2.0, "trials": 500},
    "chi2": {"D": 50, "t": 1.0, "trials": 10000},
    "worst_case": {"n": 40, "d": 10, "trials": 100},
}


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise InvalidConfig(f"config file {path} must hold a JSON object")
    return payload


def _opt(args, config: dict, name: str, default, kind=None):
    """Flag > config file > default, converted by ``kind`` unless None.

    A value ``kind`` cannot convert (``{"n": "abc"}`` in a config file) is
    ``InvalidConfig``.
    """
    value = getattr(args, name, None)
    if value is None:
        value = config.get(name, default)
    if kind is None or value is None:
        return value
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise InvalidConfig(f"invalid value for {name}: {value!r}") from None


def _int_list(text) -> tuple[int, ...]:
    return tuple(int(s) for s in str(text).split(","))


def _parse_grid(grid) -> list[float]:
    """Sweep values from a comma-separated string (flag or config) or a JSON list."""
    if isinstance(grid, str):
        values = [v for v in grid.split(",") if v.strip()]
    elif isinstance(grid, list):
        values = grid
    else:
        raise InvalidSpec(f"grid must be comma-separated numbers or a list, got {grid!r}")
    if any(isinstance(v, bool) for v in values):
        raise InvalidSpec(f"cannot parse grid {grid!r} as numbers")
    try:
        parsed = [float(v) for v in values]
    except (TypeError, ValueError):
        raise InvalidSpec(f"cannot parse grid {grid!r} as numbers") from None
    if not parsed:
        raise InvalidSpec(f"grid {grid!r} holds no values")
    return parsed


def _build_model(n: int, model_name: str, r: int | None, sizes: tuple[int, ...] | None,
                 k: int | None):
    if model_name == "rlocal":
        if sizes:
            return RLocal(BlockPartition(sizes)), "rlocal"
        if r is None:
            raise InvalidConfig("rlocal model needs --r or --sizes")
        return RLocal(BlockPartition.equal_blocks(n, r)), "rlocal"
    if model_name == "ksparse":
        if k is None:
            raise InvalidConfig("ksparse model needs --k")
        return KSparse(k), "ksparse"
    raise InvalidConfig(f"unknown model {model_name!r}")


# ---------------------------------------------------------------- synth

def cmd_synth(args) -> int:
    config = _load_config(args.config)
    n = _opt(args, config, "n", 100, int)
    model, _ = _build_model(n, _opt(args, config, "model", "rlocal"),
                            _opt(args, config, "r", None, int),
                            _opt(args, config, "sizes", None, _int_list),
                            _opt(args, config, "k", None, int))
    synth = SynthConfig(
        n=n,
        d=_opt(args, config, "d", 10, int),
        m=_opt(args, config, "m", 1, int),
        model=model,
        sigma=_opt(args, config, "sigma", 0.0, float),
        b_dist=_opt(args, config, "b_dist", "gaussian"),
        seed=_opt(args, config, "seed", 0, int),
    )
    out = _opt(args, config, "out", None)
    if out is None:
        raise InvalidConfig("synth requires --out DIRECTORY")
    instance = generate(synth)
    save_bundle(instance, out, seed=synth.seed, model=model)
    print(f"wrote instance bundle to {out}")
    return 0


# ---------------------------------------------------------------- ingest

def _parse_cols(text) -> tuple[str, ...]:
    return tuple(c.strip() for c in str(text).split(",") if c.strip())


def cmd_ingest(args) -> int:
    config = _load_config(args.config)
    targets = _parse_cols(_opt(args, config, "targets", ""))
    features = _parse_cols(_opt(args, config, "features", ""))
    block_cols = _parse_cols(_opt(args, config, "block_cols", ""))
    if not targets or not features:
        raise InvalidConfig("ingest requires --targets and --features column lists")
    rule = BlockRule(block_cols, decimals=_opt(args, config, "decimals", 0, int))
    seed = _opt(args, config, "seed", 0, int)
    out = _opt(args, config, "out", None)
    if out is None:
        raise InvalidConfig("ingest requires --out DIRECTORY")
    instance = ingest_csv(args.csv, targets, features, rule, seed=seed)
    save_bundle(instance, out, seed=seed, model=RLocal(instance.partition))
    print(f"ingested {instance.n} rows into {instance.partition.block_count} blocks "
          f"(largest {max(instance.partition.sizes)}), wrote {out}")
    return 0


# ---------------------------------------------------------------- solve

def _result_metrics(instance: ProblemInstance, result) -> dict | None:
    if instance.p_star is None and instance.y_star is None:
        return None
    metrics: dict = {}
    if instance.p_star is not None:
        metrics["frac_distortion"] = hamming_distortion(result.p_hat, instance.p_star) / instance.n
    if instance.y_star is not None:
        x_oracle, x_naive = oracle_and_naive(instance.b_svd, instance.y_star, instance.Y)
        scored = evaluate(result.x_hat, x_oracle, instance.B, instance.y_star,
                          result.p_hat, instance.p_star)
        naive = evaluate(x_naive, x_oracle, instance.B, instance.y_star)
        oracle = evaluate(x_oracle, x_oracle, instance.B, instance.y_star)
        metrics.update({
            "relative_error": scored.relative_error,
            "r2": scored.r2,
            "naive_relative_error": naive.relative_error,
            "naive_r2": naive.r2,
            "oracle_r2": oracle.r2,
        })
    return metrics


def cmd_solve(args) -> int:
    config = _load_config(args.config)
    bundle_dir = Path(args.instance)
    instance = load_bundle(bundle_dir)
    meta = load_bundle_meta(bundle_dir)

    mode = _opt(args, config, "mode", None)
    if mode is None:
        model = model_from_dict(meta.get("model"))
        mode = "rlocal" if isinstance(model, RLocal) or (
            model is None and instance.partition is not None) else "ksparse"
    solver_config = SolverConfig(
        mode=mode,
        epsilon=_opt(args, config, "epsilon", 0.01, float),
        max_iters=_opt(args, config, "max_iters", 100, int),
        partition=instance.partition if mode == "rlocal" else None,
    )
    result = solve(instance, solver_config)

    out = Path(_opt(args, config, "out", None) or bundle_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "P_hat.json").write_text(result.p_hat.to_json() + "\n")
    write_matrix_csv(out / "X_hat.csv", result.x_hat)
    payload = {
        "converged": result.converged,
        "iters": result.iters,
        "final_objective": result.final_objective,
        "objective_trace": [float(f) for f in result.objective_trace],
        "mode": mode,
        "metrics": _result_metrics(instance, result),
    }
    (out / "result.json").write_text(json.dumps(payload, indent=2) + "\n")
    print(f"solved in {result.iters} iterations, converged={result.converged}, "
          f"F={result.final_objective:.6g}")
    return 0


# ---------------------------------------------------------------- bench

@dataclass
class RunRecord:
    config_hash: str
    sweep_value: float
    seed: int
    d_h_over_n: float
    rel_error: float
    iters: int
    wall_ms: float
    trace_tail: list[float]


def _bench_task(spec: dict, config_hash: str, point_idx: int, value: float,
                seed_idx: int) -> RunRecord:
    child_seed = int(np.random.SeedSequence(
        (spec["seed"], point_idx, seed_idx)).generate_state(1)[0])
    n, d, m = spec["n"], spec["d"], spec["m"]
    sweep = spec["sweep"]
    sigma = spec["sigma"]
    if sweep == "r":
        model: RLocal | KSparse = RLocal(BlockPartition.equal_blocks(n, int(value)))
        mode = "rlocal"
    elif sweep == "k":
        model = KSparse(int(value))
        mode = "ksparse"
    else:
        model, mode = _build_model(n, spec["model"], spec.get("r"), None, spec.get("k"))
        sigma = float(value)
    synth = SynthConfig(n=n, d=d, m=m, model=model, sigma=sigma,
                        b_dist=spec["b_dist"], seed=child_seed)
    instance = generate(synth)
    solver_config = SolverConfig(
        mode=mode,
        epsilon=spec["epsilon"],
        max_iters=spec["max_iters"],
        partition=instance.partition if mode == "rlocal" else None,
    )
    start = time.perf_counter()
    result = solve(instance, solver_config)
    wall_ms = (time.perf_counter() - start) * 1e3
    x_norm = float(np.linalg.norm(instance.x_star))
    rel = float(np.linalg.norm(instance.x_star - result.x_hat)) / x_norm if x_norm else 0.0
    return RunRecord(
        config_hash=config_hash,
        sweep_value=value,
        seed=seed_idx,
        d_h_over_n=hamming_distortion(result.p_hat, instance.p_star) / n,
        rel_error=rel,
        iters=result.iters,
        wall_ms=wall_ms,
        trace_tail=[float(f) for f in result.objective_trace[-3:]],
    )


def cmd_bench(args) -> int:
    config = _load_config(args.config)
    sweep = _opt(args, config, "sweep", None)
    if sweep not in ("r", "k", "sigma"):
        raise InvalidSpec("bench requires --sweep r|k|sigma")
    grid_value = _opt(args, config, "grid", None)
    if not grid_value:
        raise InvalidSpec("bench requires --grid v1,v2,...")
    grid = sorted(set(_parse_grid(grid_value)))
    seeds = _opt(args, config, "seeds", 15, int)
    if seeds < 1:
        raise InvalidSpec(f"seeds must be >= 1, got {seeds}")
    spec = {
        "sweep": sweep,
        "grid": grid,
        "seeds": seeds,
        "n": _opt(args, config, "n", 100, int),
        "d": _opt(args, config, "d", 10, int),
        "m": _opt(args, config, "m", 10, int),
        "model": _opt(args, config, "model", "rlocal"),
        "r": _opt(args, config, "r", None, int),
        "k": _opt(args, config, "k", None, int),
        "sigma": _opt(args, config, "sigma", 0.0, float),
        "b_dist": _opt(args, config, "b_dist", "gaussian"),
        "epsilon": _opt(args, config, "epsilon", 0.01, float),
        "max_iters": _opt(args, config, "max_iters", 100, int),
        "seed": _opt(args, config, "seed", 0, int),
    }
    config_hash = hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()[:16]
    threads = _opt(args, config, "threads", 1, int)

    tasks = [(pi, value, si) for pi, value in enumerate(grid) for si in range(seeds)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(
                lambda t: _bench_task(spec, config_hash, *t), tasks))
    else:
        records = [_bench_task(spec, config_hash, *t) for t in tasks]
    records.sort(key=lambda rec: (rec.sweep_value, rec.seed))

    out = Path(_opt(args, config, "out", "sweep.csv"))
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w") as fh:
        fh.write("sweep_value,seed,d_H_over_n,rel_error,iters,wall_ms\n")
        for rec in records:
            fh.write(f"{rec.sweep_value:.10g},{rec.seed},{rec.d_h_over_n:.10g},"
                     f"{rec.rel_error:.10g},{rec.iters},{rec.wall_ms:.3f}\n")

    agg_path = out.with_name(out.stem + "_agg.csv")
    with agg_path.open("w") as fh:
        fh.write("sweep_value,mean_d_H_over_n,mean_rel_error,mean_iters,mean_wall_ms,seeds\n")
        for value in grid:
            batch = [rec for rec in records if rec.sweep_value == value]
            fh.write(f"{value:.10g},"
                     f"{np.mean([r.d_h_over_n for r in batch]):.10g},"
                     f"{np.mean([r.rel_error for r in batch]):.10g},"
                     f"{np.mean([r.iters for r in batch]):.10g},"
                     f"{np.mean([r.wall_ms for r in batch]):.3f},{len(batch)}\n")

    ledger_path = out.with_name(out.stem + "_runs.jsonl")
    with ledger_path.open("w") as fh:
        for rec in records:
            fh.write(json.dumps(rec.__dict__) + "\n")
    print(f"wrote {out}, {agg_path}, {ledger_path}")
    return 0


# ---------------------------------------------------------------- validate-theory

def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


# What a suite spec may give for a check parameter, by the parameter's
# annotation. The int parameters of the checks all count rows, columns, blocks
# or trials. Parameters that take arrays or partitions keep their default null.
_SPEC_VALUE_KINDS = {
    int: _is_count,
    float: _is_real,
    float | None: lambda v: v is None or _is_real(v),
    list[float] | None: lambda v: v is None or (isinstance(v, list) and all(map(_is_real, v))),
}


def _check_name(name) -> str:
    if not isinstance(name, str) or name not in CHECK_FUNCS:
        raise InvalidSpec(f"unknown check {name!r}")
    return name


def _check_params(name: str, params: dict) -> None:
    """Bind spec params to the check's signature; trials must be >= 1."""
    signature = inspect.signature(CHECK_FUNCS[name], eval_str=True).parameters
    for key, value in params.items():
        if key not in signature or key == "rng":
            raise InvalidSpec(f"check {name}: unknown parameter {key!r}")
        if not _SPEC_VALUE_KINDS.get(signature[key].annotation, lambda v: v is None)(value):
            raise InvalidSpec(f"check {name}: invalid value for {key}: {value!r}")
    if params["trials"] < 1:
        raise InvalidSpec(f"check {name}: trials must be >= 1")


def _suite_from_args(args, config: dict) -> list[tuple[str, dict]]:
    """The checks to run with their params, every name and value validated.

    A ``--spec`` file overrides default params by name; ``--trials`` overrides
    every check's trial count.
    """
    spec_path = _opt(args, config, "spec", None, str)
    if spec_path:
        payload = json.loads(Path(spec_path).read_text())
        entries = payload.get("checks") if isinstance(payload, dict) else None
        if not isinstance(entries, list) or not entries:
            raise InvalidSpec(f"suite spec {spec_path} must hold a non-empty 'checks' list")
        suite = []
        for entry in entries:
            if not isinstance(entry, dict):
                raise InvalidSpec(f"suite entry {entry!r} must be an object")
            name = _check_name(entry.get("check"))
            params = entry.get("params", {})
            if not isinstance(params, dict):
                raise InvalidSpec(f"check {name}: params must be an object, got {params!r}")
            suite.append((name, {**DEFAULT_SUITE[name], **params}))
    else:
        names_text = _opt(args, config, "checks", None)
        if names_text is not None and not isinstance(names_text, str):
            raise InvalidSpec(f"checks must be comma-separated names, got {names_text!r}")
        names = [n.strip() for n in names_text.split(",")] if names_text else list(DEFAULT_SUITE)
        suite = [(_check_name(name), dict(DEFAULT_SUITE[name])) for name in names]
    trials = _opt(args, config, "trials", None, int)
    for name, params in suite:
        if trials is not None:
            params["trials"] = trials
        _check_params(name, params)
    return suite


def cmd_validate_theory(args) -> int:
    config = _load_config(args.config)
    suite = _suite_from_args(args, config)
    seed = _opt(args, config, "seed", 0, int)

    reports = []
    for idx, (name, params) in enumerate(suite):
        rng = np.random.default_rng(np.random.SeedSequence((seed, idx)))
        report = CHECK_FUNCS[name](rng=rng, **params)
        reports.append(report)
        status = "passed" if report.passed else "FAILED"
        bound_text = "none" if report.bound is None else f"{report.bound:.4g}"
        print(f"check {name}: {status} empirical={report.empirical:.4g} "
              f"bound={bound_text} trials={report.trials}")

    out = Path(_opt(args, config, "out", "reports.json"))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps([r.to_dict() for r in reports], indent=2) + "\n")
    print(f"wrote {out}")
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unsense",
        description="Recover a signal and a structured permutation from permuted linear measurements.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shared(p):
        p.add_argument("--seed", type=int, help="base RNG seed")
        p.add_argument("--out", help="output path")
        p.add_argument("--config", help="JSON config file (flags take precedence)")
        p.add_argument("--threads", type=int, help="worker threads where supported")

    p_synth = sub.add_parser("synth", help="generate a synthetic instance bundle")
    p_synth.add_argument("--n", type=int)
    p_synth.add_argument("--d", type=int)
    p_synth.add_argument("--m", type=int)
    p_synth.add_argument("--model", choices=("rlocal", "ksparse"))
    p_synth.add_argument("--r", type=int, help="equal block size for rlocal")
    p_synth.add_argument("--sizes", help="comma-separated block sizes for rlocal")
    p_synth.add_argument("--k", type=int, help="shuffle count for ksparse")
    p_synth.add_argument("--sigma", type=float)
    p_synth.add_argument("--b-dist", dest="b_dist", choices=("gaussian", "uniform01"))
    add_shared(p_synth)
    p_synth.set_defaults(func=cmd_synth)

    p_ingest = sub.add_parser("ingest", help="turn a CSV file into an instance bundle")
    p_ingest.add_argument("csv", help="CSV file with a header row")
    p_ingest.add_argument("--targets", help="comma-separated target column names")
    p_ingest.add_argument("--features", help="comma-separated feature column names")
    p_ingest.add_argument("--block-cols", dest="block_cols",
                          help="comma-separated blocking key columns")
    p_ingest.add_argument("--decimals", type=int,
                          help="decimals the blocking key is rounded to (default 0)")
    add_shared(p_ingest)
    p_ingest.set_defaults(func=cmd_ingest)

    p_solve = sub.add_parser("solve", help="solve an instance bundle")
    p_solve.add_argument("instance", help="instance bundle directory")
    p_solve.add_argument("--mode", choices=("rlocal", "ksparse"))
    p_solve.add_argument("--epsilon", type=float)
    p_solve.add_argument("--max-iters", dest="max_iters", type=int)
    add_shared(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="Monte-Carlo sweep, CSV output")
    p_bench.add_argument("--sweep", choices=("r", "k", "sigma"))
    p_bench.add_argument("--grid", help="comma-separated sweep values")
    p_bench.add_argument("--seeds", type=int, help="Monte-Carlo runs per grid point")
    p_bench.add_argument("--n", type=int)
    p_bench.add_argument("--d", type=int)
    p_bench.add_argument("--m", type=int)
    p_bench.add_argument("--model", choices=("rlocal", "ksparse"),
                         help="base model for sigma sweeps")
    p_bench.add_argument("--r", type=int)
    p_bench.add_argument("--k", type=int)
    p_bench.add_argument("--sigma", type=float)
    p_bench.add_argument("--b-dist", dest="b_dist", choices=("gaussian", "uniform01"))
    p_bench.add_argument("--epsilon", type=float)
    p_bench.add_argument("--max-iters", dest="max_iters", type=int)
    add_shared(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_val = sub.add_parser("validate-theory", help="run the bound validation suite")
    p_val.add_argument("--checks", help="comma-separated subset of checks")
    p_val.add_argument("--spec", help="JSON suite spec {'checks': [{'check', 'params'}]}")
    p_val.add_argument("--trials", type=int, help="override trial count for every check")
    add_shared(p_val)
    p_val.set_defaults(func=cmd_validate_theory)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UnlabeledSensingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
