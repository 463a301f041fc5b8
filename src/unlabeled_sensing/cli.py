"""Command-line entry point: synth, ingest, solve, bench, validate-theory.

Each command declares its options once, in an option table. The table builds
the command's flags, and one resolver takes each value from its flag, else
from the optional JSON --config file, else from its default, and converts and
checks it the same way whichever source it came from. Exit codes: 0 success,
1 a theory check failed validation, 2 usage / parse / I-O errors.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import sys
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import theory
from .data import (BlockRule, ProblemInstance, SynthConfig, evaluate, generate,
                   ingest_csv, is_count, is_real, load_bundle, oracle_and_naive,
                   read_json, save_bundle, write_matrix_csv)
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


# ---------------------------------------------------------------- options

def _scalar(kind, accepts) -> Callable[[str, object], object]:
    """Converter to ``kind``: a flag string is parsed, then ``accepts`` must hold."""
    def convert(name: str, value):
        try:
            typed = kind(value) if isinstance(value, str) else value
            if accepts(typed):
                return kind(typed)
        except ValueError:
            pass
        raise InvalidConfig(f"invalid value for {name}: {value!r}")
    return convert


_int = _scalar(int, lambda value: type(value) is int)
_count = _scalar(int, is_count)
_real = _scalar(float, is_real)
_text = _scalar(str, lambda value: isinstance(value, str))


def _items(item, noun: str) -> Callable[[str, object], tuple]:
    """Converter of a comma-separated string or a JSON list, each item by ``item``."""
    def convert(name: str, value) -> tuple:
        if isinstance(value, str):
            value = [v.strip() for v in value.split(",") if v.strip()]
        elif not isinstance(value, list):
            raise InvalidConfig(
                f"{name} must be comma-separated {noun} or a JSON list, got {value!r}")
        return tuple(item(name, v) for v in value)
    return convert


@dataclass(frozen=True)
class Option:
    """The ``--name`` flag and ``name`` config key of a command.

    ``convert(name, value)`` types a flag string or a JSON config value and
    raises ``InvalidConfig`` for one it cannot take.
    """

    name: str
    convert: Callable[[str, object], object]
    default: object
    help: str
    choices: tuple[str, ...] | None = None


_N = Option("n", _count, 100, "rows of B and Y")
_D = Option("d", _count, 10, "columns of B")
_MODEL = Option("model", _text, "rlocal", "permutation model (bench: of a sigma sweep)",
                ("rlocal", "ksparse"))
_R = Option("r", _count, None, "equal block size for rlocal")
_K = Option("k", _count, None, "shuffle count for ksparse")
_SIGMA = Option("sigma", _real, 0.0, "noise standard deviation")
_B_DIST = Option("b_dist", _text, "gaussian", "distribution of the entries of B",
                 ("gaussian", "uniform01"))
_EPSILON = Option("epsilon", _real, 0.01,
                  "stop when the objective's relative change is at most this")
_MAX_ITERS = Option("max_iters", _count, 100, "iteration cap of the solver")
_SEED = Option("seed", _count, 0, "base RNG seed")
_NAMES = _items(_text, "names")


def _build_model(n: int, model_name: str, r: int | None, sizes: tuple[int, ...] | None,
                 k: int | None) -> RLocal | KSparse:
    if model_name == "rlocal":
        if sizes:
            return RLocal(BlockPartition(sizes))
        if r is None:
            raise InvalidConfig("rlocal model needs --r or --sizes")
        return RLocal(BlockPartition.equal_blocks(n, r))
    if k is None:
        raise InvalidConfig("ksparse model needs --k")
    return KSparse(k)


# ---------------------------------------------------------------- synth

SYNTH_OPTIONS = (
    _N, _D, Option("m", _count, 1, "columns of X"), _MODEL, _R,
    Option("sizes", _items(_count, "integers"), None, "comma-separated block sizes for rlocal"),
    _K, _SIGMA, _B_DIST, _SEED, Option("out", _text, None, "bundle directory to write"),
)


def cmd_synth(opts: dict) -> int:
    model = _build_model(opts["n"], opts["model"], opts["r"], opts["sizes"], opts["k"])
    synth = SynthConfig(n=opts["n"], d=opts["d"], m=opts["m"], model=model,
                        sigma=opts["sigma"], b_dist=opts["b_dist"], seed=opts["seed"])
    if opts["out"] is None:
        raise InvalidConfig("synth requires --out DIRECTORY")
    instance = generate(synth)
    save_bundle(instance, opts["out"], seed=synth.seed, model=model)
    print(f"wrote instance bundle to {opts['out']}")
    return 0


# ---------------------------------------------------------------- ingest

INGEST_OPTIONS = (
    Option("targets", _NAMES, (), "comma-separated target column names"),
    Option("features", _NAMES, (), "comma-separated feature column names"),
    Option("block_cols", _NAMES, (), "comma-separated blocking key columns"),
    Option("decimals", _int, 0, "decimals the blocking key is rounded to"),
    _SEED, Option("out", _text, None, "bundle directory to write"),
)


def cmd_ingest(opts: dict) -> int:
    if not opts["targets"] or not opts["features"]:
        raise InvalidConfig("ingest requires --targets and --features column lists")
    rule = BlockRule(opts["block_cols"], decimals=opts["decimals"])
    seed, out = opts["seed"], opts["out"]
    if out is None:
        raise InvalidConfig("ingest requires --out DIRECTORY")
    instance = ingest_csv(opts["csv"], opts["targets"], opts["features"], rule, seed=seed)
    save_bundle(instance, out, seed=seed, model=RLocal(instance.partition))
    print(f"ingested {instance.n} rows into {instance.partition.block_count} blocks "
          f"(largest {max(instance.partition.sizes)}), wrote {out}")
    return 0


# ---------------------------------------------------------------- solve

def _mode(instance: ProblemInstance) -> str:
    """The solver mode of an instance: r-local exactly when it has a row partition."""
    return "ksparse" if instance.partition is None else "rlocal"


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


SOLVE_OPTIONS = (
    Option("mode", _text, None, "solver mode (default: rlocal when the bundle has a partition)",
           ("rlocal", "ksparse")),
    _EPSILON, _MAX_ITERS,
    Option("out", _text, None, "output directory (default: the bundle directory)"),
)


def cmd_solve(opts: dict) -> int:
    bundle_dir = Path(opts["instance"])
    instance = load_bundle(bundle_dir)
    mode = opts["mode"] or _mode(instance)
    result = solve(instance, SolverConfig(mode, opts["epsilon"], opts["max_iters"]))

    out = Path(opts["out"] or bundle_dir)
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
    model_name, r, k, sigma = spec["model"], spec["r"], spec["k"], spec["sigma"]
    if spec["sweep"] == "r":
        model_name, r = "rlocal", int(value)
    elif spec["sweep"] == "k":
        model_name, k = "ksparse", int(value)
    else:
        sigma = float(value)
    synth = SynthConfig(n=n, d=d, m=m, model=_build_model(n, model_name, r, None, k),
                        sigma=sigma, b_dist=spec["b_dist"], seed=child_seed)
    instance = generate(synth)
    solver_config = SolverConfig(_mode(instance), spec["epsilon"], spec["max_iters"])
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


BENCH_OPTIONS = (
    Option("sweep", _text, None, "parameter the grid sweeps", ("r", "k", "sigma")),
    Option("grid", _items(_real, "numbers"), None, "comma-separated sweep values"),
    Option("seeds", _count, 15, "Monte-Carlo runs per grid point"),
    _N, _D, Option("m", _count, 10, "columns of X"), _MODEL, _R, _K, _SIGMA, _B_DIST,
    _EPSILON, _MAX_ITERS, _SEED,
    Option("threads", _count, 1, "worker threads; rows do not depend on it"),
    Option("out", _text, "sweep.csv", "sweep CSV; the aggregate and the ledger go beside it"),
)


def cmd_bench(opts: dict) -> int:
    if opts["sweep"] is None:
        raise InvalidSpec("bench requires --sweep r|k|sigma")
    if not opts["grid"]:
        raise InvalidSpec("bench requires --grid v1,v2,..., got no values")
    for name in ("seeds", "threads"):
        if opts[name] < 1:
            raise InvalidSpec(f"{name} must be >= 1, got {opts[name]}")
    if opts["sweep"] in ("r", "k") and not all(v.is_integer() for v in opts["grid"]):
        raise InvalidSpec(
            f"{opts['sweep']} grid values must be whole numbers, got {list(opts['grid'])}")
    # The config hash covers every option but where the outputs go and how
    # many threads compute them, which do not change a row.
    spec = {name: value for name, value in opts.items() if name not in ("threads", "out")}
    spec["grid"] = grid = sorted(set(opts["grid"]))
    config_hash = hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()[:16]

    tasks = [(pi, value, si) for pi, value in enumerate(grid) for si in range(spec["seeds"])]
    if opts["threads"] > 1:
        with ThreadPoolExecutor(max_workers=opts["threads"]) as pool:
            records = list(pool.map(lambda t: _bench_task(spec, config_hash, *t), tasks))
    else:
        # Not a one-worker pool: the pool thread's own malloc arena raised the
        # rlocal_sweep benchmark's peak RSS from 128 to 195 MB.
        records = [_bench_task(spec, config_hash, *t) for t in tasks]
    records.sort(key=lambda rec: (rec.sweep_value, rec.seed))

    out = Path(opts["out"])
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

# What a suite spec may give for a check parameter, by the parameter's
# annotation. The int parameters of the checks all count rows, columns, blocks
# or trials. Parameters that take arrays or partitions keep their default null.
_SPEC_VALUE_KINDS = {
    int: is_count,
    float: is_real,
    float | None: lambda v: v is None or is_real(v),
    list[float] | None: lambda v: v is None or (isinstance(v, list) and all(map(is_real, v))),
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


VALIDATE_OPTIONS = (
    Option("checks", _NAMES, None, "comma-separated subset of checks (default: all)"),
    Option("spec", _text, None, "JSON suite spec {'checks': [{'check', 'params'}]}"),
    Option("trials", _count, None, "override trial count for every check"),
    _SEED, Option("out", _text, "reports.json", "reports JSON"),
)


def _suite(opts: dict) -> list[tuple[str, dict]]:
    """The checks to run with their params, every name and value validated.

    A ``--spec`` file overrides default params by name; ``--trials`` overrides
    every check's trial count.
    """
    spec_path = opts["spec"]
    if spec_path:
        payload = read_json(spec_path)
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
        names = opts["checks"] or tuple(DEFAULT_SUITE)
        suite = [(_check_name(name), dict(DEFAULT_SUITE[name])) for name in names]
    for name, params in suite:
        if opts["trials"] is not None:
            params["trials"] = opts["trials"]
        _check_params(name, params)
    return suite


def cmd_validate_theory(opts: dict) -> int:
    reports = []
    for idx, (name, params) in enumerate(_suite(opts)):
        rng = np.random.default_rng(np.random.SeedSequence((opts["seed"], idx)))
        report = CHECK_FUNCS[name](rng=rng, **params)
        reports.append(report)
        status = "passed" if report.passed else "FAILED"
        bound_text = "none" if report.bound is None else f"{report.bound:.4g}"
        print(f"check {name}: {status} empirical={report.empirical:.4g} "
              f"bound={bound_text} trials={report.trials}")

    out = Path(opts["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps([r.to_dict() for r in reports], indent=2) + "\n")
    print(f"wrote {out}")
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------- parser

@dataclass(frozen=True)
class Command:
    """A subcommand: the function that runs it, its help line and its option table."""

    run: Callable[[dict], int]
    help: str
    options: tuple[Option, ...]
    positional: tuple[tuple[str, str], ...] = ()  # name and help of each positional argument


COMMANDS = {
    "synth": Command(cmd_synth, "generate a synthetic instance bundle", SYNTH_OPTIONS),
    "ingest": Command(cmd_ingest, "turn a CSV file into an instance bundle", INGEST_OPTIONS,
                      (("csv", "CSV file with a header row"),)),
    "solve": Command(cmd_solve, "solve an instance bundle", SOLVE_OPTIONS,
                     (("instance", "instance bundle directory"),)),
    "bench": Command(cmd_bench, "Monte-Carlo sweep, CSV output", BENCH_OPTIONS),
    "validate-theory": Command(cmd_validate_theory, "run the bound validation suite",
                               VALIDATE_OPTIONS),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unsense",
        description="Recover a signal and a structured permutation from permuted linear measurements.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for positional, help_text in command.positional:
            p.add_argument(positional, help=help_text)
        for opt in command.options:
            shown = "" if opt.default in (None, ()) else f" (default {opt.default})"
            p.add_argument("--" + opt.name.replace("_", "-"), dest=opt.name,
                           choices=opt.choices, help=opt.help + shown)
        p.add_argument("--config", help="JSON config file of option values; flags take precedence")
    return parser


def _resolve(args) -> dict:
    """Flag > config file > default for each of the command's options, typed and checked.

    A config key that names no option of the command is ``InvalidConfig``.
    """
    command = COMMANDS[args.command]
    config = {}
    if args.config:
        config = read_json(args.config)
        if not isinstance(config, dict):
            raise InvalidConfig(f"config file {args.config} must hold a JSON object")
    unknown = sorted(set(config) - {opt.name for opt in command.options})
    if unknown:
        raise InvalidConfig(f"{args.command} takes no config key {unknown[0]!r}")
    values = {name: getattr(args, name) for name, _ in command.positional}
    for opt in command.options:
        value = getattr(args, opt.name)
        if value is None:
            value = config.get(opt.name)
        typed = opt.default if value is None else opt.convert(opt.name, value)
        if value is not None and opt.choices and typed not in opt.choices:
            raise InvalidConfig(f"invalid value for {opt.name}: {value!r} "
                                f"(choose from {', '.join(opt.choices)})")
        values[opt.name] = typed
    return values


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command].run(_resolve(args))
    except (UnlabeledSensingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
