"""The four benchmark workloads: inputs from the workload seed, one op, its output check.

Every op is one call of ``unlabeled_sensing.cli.main(argv)``, the function the
``unsense`` console script runs. The program only ever sees the generated
inputs: the bundle directory for ``bundle_solve`` and the ``--seed`` value for
the other three. Each op is checked here, outside the timed region, against
criteria stated in this file; an op that fails a check is counted, never
dropped.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# An op passes when every solve in it recovers the permutation up to this
# fraction of rows and the signal up to this relative error. On the seed code
# every solve of every workload reaches d_H/n = 0 and rel_error < 3e-4.
TOL_FRAC_DISTORTION = 1e-3
TOL_REL_ERROR = 1e-3
# Same slack as the acceptance gate: F_t <= F_{t-1} + 1e-9 * F_0.
TRACE_SLACK = 1e-9


@dataclass
class Check:
    ok: bool
    reason: str = ""
    frac_distortion: list[float] = field(default_factory=list)
    rel_error: list[float] = field(default_factory=list)


def _nonincreasing(trace, first: float) -> bool:
    slack = TRACE_SLACK * first
    return all(b <= a + slack for a, b in zip(trace, trace[1:]))


def _quality(d_h: list[float], rel: list[float]) -> Check:
    if max(d_h) > TOL_FRAC_DISTORTION:
        return Check(False, f"d_H/n {max(d_h):.3g} > {TOL_FRAC_DISTORTION}", d_h, rel)
    if max(rel) > TOL_REL_ERROR:
        return Check(False, f"rel_error {max(rel):.3g} > {TOL_REL_ERROR}", d_h, rel)
    return Check(True, "", d_h, rel)


class Workload:
    """One named workload. ``setup`` makes the inputs, ``argv`` is one op."""

    name: str
    work_unit: str
    units_per_op: int
    threads_flag = False  # True when the op takes the bench ``--threads`` flag

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)

    def argv(self, op_index: int, threads: int = 1) -> list[str]:
        """The op's command line; ``op_index`` numbers the ops of a run from 0."""
        raise NotImplementedError

    def outputs(self) -> list[Path]:
        """Files an op writes; removed before each op so a stale one cannot pass a check."""
        raise NotImplementedError

    def check(self, rc: int) -> Check:
        raise NotImplementedError


class BundleSolve(Workload):
    """``solve <bundle> --out <dir>`` on an r-local bundle written once by set-up."""

    name = "bundle_solve"
    work_unit = "solves"
    units_per_op = 1
    n, d, m, r, sigma = 20000, 50, 10, 10, 0.01

    def setup(self) -> None:
        super().setup()
        rng = np.random.default_rng(self.seed)
        n, d, m, r = self.n, self.d, self.m, self.r
        B = rng.standard_normal((n, d))
        x_star = rng.standard_normal((d, m))
        # Row i of Y is row perm[i] of Y_star; rows move only within blocks of r.
        perm = rng.permuted(np.arange(n).reshape(-1, r), axis=1).ravel()
        y_star = B @ x_star
        Y = y_star[perm] + self.sigma * rng.standard_normal((n, m))
        bundle = self.workdir / "bundle"
        bundle.mkdir(parents=True, exist_ok=True)
        for fname, M in (("B.csv", B), ("Y.csv", Y), ("Ystar.csv", y_star)):
            np.savetxt(bundle / fname, M, delimiter=",", fmt="%.17g")
        sizes = [r] * (n // r)
        (bundle / "truth.json").write_text(json.dumps(
            {"permutation": perm.tolist(), "partition": sizes}))
        (bundle / "meta.json").write_text(json.dumps(
            {"sigma": self.sigma, "seed": self.seed,
             "model": {"variant": "rlocal", "sizes": sizes}}))
        self.bundle = bundle
        self.perm = perm
        self.x_oracle = np.linalg.lstsq(B, y_star, rcond=None)[0]

    def argv(self, op_index: int, threads: int = 1) -> list[str]:
        return ["solve", str(self.bundle), "--out", str(self.workdir / "solved")]

    def outputs(self) -> list[Path]:
        return [self.workdir / "solved" / f for f in ("P_hat.json", "X_hat.csv", "result.json")]

    def check(self, rc: int) -> Check:
        if rc != 0:
            return Check(False, f"exit code {rc}")
        out = self.workdir / "solved"
        p_hat = np.asarray(json.loads((out / "P_hat.json").read_text()), dtype=np.int64)
        n = self.perm.size
        if p_hat.shape != (n,) or not np.array_equal(np.sort(p_hat), np.arange(n)):
            return Check(False, "P_hat is not a bijection on 0..n-1")
        if not np.array_equal(p_hat // self.r, np.arange(n) // self.r):
            return Check(False, "P_hat is not block diagonal under the truth partition")
        trace = json.loads((out / "result.json").read_text())["objective_trace"]
        if not trace or not _nonincreasing(trace, trace[0]):
            return Check(False, f"objective trace is not nonincreasing: {trace}")
        x_hat = np.loadtxt(out / "X_hat.csv", delimiter=",", ndmin=2)
        if x_hat.shape != self.x_oracle.shape:
            return Check(False, f"X_hat has shape {x_hat.shape}")
        d_h = float(np.mean(p_hat != self.perm))
        rel = float(np.linalg.norm(x_hat - self.x_oracle) / np.linalg.norm(self.x_oracle))
        return _quality([d_h], [rel])


class Sweep(Workload):
    """``bench --sweep <sweep> ...``: in-memory solves, CSV and ledger outputs.

    Op i passes a ``--seed`` drawn from (workload seed, i), so a run averages
    over instances. On ``ksparse_sweep`` the k=1000 solve takes 3 or 4
    iterations depending on the instance; with one instance per run that
    choice alone moved a run's op times by about 14%.
    """

    work_unit = "solves"
    threads_flag = True
    sweep: str
    grid: tuple[int, ...]
    seeds: int
    n: int
    d, m, sigma = 50, 10, 0.01

    @property
    def units_per_op(self) -> int:
        return len(self.grid) * self.seeds

    def argv(self, op_index: int, threads: int = 1) -> list[str]:
        op_seed = int(np.random.SeedSequence([self.seed, op_index]).generate_state(1)[0])
        return ["bench", "--sweep", self.sweep, "--grid", ",".join(map(str, self.grid)),
                "--seeds", str(self.seeds), "--n", str(self.n), "--d", str(self.d),
                "--m", str(self.m), "--sigma", str(self.sigma), "--threads", str(threads),
                "--seed", str(op_seed), "--out", str(self.workdir / "sweep.csv")]

    def outputs(self) -> list[Path]:
        return [self.workdir / f for f in ("sweep.csv", "sweep_agg.csv", "sweep_runs.jsonl")]

    def check(self, rc: int) -> Check:
        if rc != 0:
            return Check(False, f"exit code {rc}")
        with (self.workdir / "sweep.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != self.units_per_op:
            return Check(False, f"{len(rows)} rows, expected {self.units_per_op}")
        if sorted({float(row["sweep_value"]) for row in rows}) != sorted(map(float, self.grid)):
            return Check(False, "sweep values differ from the grid")
        with (self.workdir / "sweep_runs.jsonl").open() as fh:
            ledger = [json.loads(line) for line in fh]
        if len(ledger) != self.units_per_op:
            return Check(False, f"{len(ledger)} ledger records, expected {self.units_per_op}")
        for rec in ledger:
            tail = rec["trace_tail"]
            if not _nonincreasing(tail, tail[0]):
                return Check(False, f"trace tail is not nonincreasing: {tail}")
        d_h = [float(row["d_H_over_n"]) for row in rows]
        rel = [float(row["rel_error"]) for row in rows]
        return _quality(d_h, rel)


class RLocalSweep(Sweep):
    name = "rlocal_sweep"
    sweep, grid, seeds, n = "r", (10, 100), 2, 20000


class KSparseSweep(Sweep):
    name = "ksparse_sweep"
    sweep, grid, seeds, n = "k", (200, 1000), 1, 2000


class TheorySuite(Workload):
    """``validate-theory --seed <seed>``: the default suite of eight checks."""

    name = "theory_suite"
    work_unit = "trials"
    checks = 8

    @property
    def units_per_op(self) -> int:
        from unlabeled_sensing.cli import DEFAULT_SUITE
        return sum(int(params["trials"]) for params in DEFAULT_SUITE.values())

    def argv(self, op_index: int, threads: int = 1) -> list[str]:
        return ["validate-theory", "--seed", str(self.seed),
                "--out", str(self.workdir / "reports.json")]

    def outputs(self) -> list[Path]:
        return [self.workdir / "reports.json"]

    def check(self, rc: int) -> Check:
        if rc != 0:
            return Check(False, f"exit code {rc}")
        reports = json.loads((self.workdir / "reports.json").read_text())
        if len(reports) != self.checks:
            return Check(False, f"{len(reports)} reports, expected {self.checks}")
        failed = [r["check"] for r in reports if not r["passed"]]
        if failed:
            return Check(False, f"checks failed: {failed}")
        return Check(True)


WORKLOADS = {w.name: w for w in (BundleSolve, RLocalSweep, KSparseSweep, TheorySuite)}
