"""Problem instances: synthetic generation, CSV ingestion with blocking, metrics, bundle I/O.

Synthetic instances follow Y = P_star @ B @ X_star + W with Gaussian or
Uniform[0,1] B, standard-normal X_star, a structured permutation, and Gaussian
noise of standard deviation sigma. CSV ingestion groups rows into blocks by a
rounded key, permutes targets within blocks, and retains the ground truth so
recovered estimates can be scored against the oracle regression.

Instance bundle layout (one directory):
    B.csv       measurement matrix, one row per line, comma separated
    Y.csv       permuted observations
    Ystar.csv   optional unpermuted observations
    truth.json  {"permutation": [...0-based indices...], "partition": [sizes] | null,
                 "source_rows": [...0-based CSV rows...], only for an ingested instance}
    meta.json   {"sigma": float, "seed": int | null, "model": {...} | null}

The meta.json model must agree with the truth.json partition: an r-local
model names the partition's sizes, and a k-sparse model goes with no partition.
``save_bundle`` derives the model from the instance, so it always agrees.
"""

from __future__ import annotations

import csv
import json
import math
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from pathlib import Path

import numpy as np

from .errors import (EmptyBlockRule, InvalidConfig, NonFinite, NonNumeric,
                     ParseError, ShapeMismatch)
from .linalg import SvdFactors, as_matrix, svd
from .permutation import (BlockPartition, KSparse, Permutation, PermutationModel,
                          RLocal, apply, hamming_distortion, sample_ksparse, sample_rlocal)


def _check_sigma(sigma, what: str = "sigma") -> None:
    """A noise level must be finite and >= 0; ``what`` names it in the message."""
    value = sigma.item() if isinstance(sigma, np.generic) else sigma  # numpy scalars too
    if not (is_real(value) and value >= 0):
        raise InvalidConfig(f"{what} must be a finite number >= 0, got {sigma!r}")


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """Measurements plus optional ground truth.

    ``y_star`` holds the unpermuted observations (noiseless B @ X_star for
    synthetic instances, the original targets for ingested CSV data).
    ``source_rows`` maps the block-sorted rows of an ingested instance back to
    the original file order. ``b_svd`` is the thin SVD of ``B``, computed on
    first use and then shared by the solver and the scoring step.
    """

    B: np.ndarray
    Y: np.ndarray
    sigma: float = 0.0
    partition: BlockPartition | None = None
    p_star: Permutation | None = None
    x_star: np.ndarray | None = None
    y_star: np.ndarray | None = None
    source_rows: np.ndarray | None = None

    def __post_init__(self):
        B = as_matrix(self.B, "B")
        Y = as_matrix(self.Y, "Y")
        if B.shape[0] != Y.shape[0]:
            raise ShapeMismatch(f"B has {B.shape[0]} rows but Y has {Y.shape[0]}")
        _check_sigma(self.sigma)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "Y", Y)

    @property
    def n(self) -> int:
        return self.B.shape[0]

    @cached_property
    def b_svd(self) -> SvdFactors:
        return svd(self.B)


@dataclass(frozen=True)
class SynthConfig:
    n: int
    d: int
    m: int
    model: PermutationModel
    sigma: float = 0.0
    b_dist: str = "gaussian"
    seed: int = 0

    def __post_init__(self):
        if min(self.n, self.d, self.m) < 1:
            raise InvalidConfig(f"n, d, m must be >= 1, got ({self.n}, {self.d}, {self.m})")
        _check_sigma(self.sigma)
        if self.b_dist not in ("gaussian", "uniform01"):
            raise InvalidConfig(f"b_dist must be 'gaussian' or 'uniform01', got {self.b_dist!r}")
        if isinstance(self.model, RLocal) and self.model.partition.n != self.n:
            raise InvalidConfig(
                f"partition covers {self.model.partition.n} rows but n={self.n}")
        if isinstance(self.model, KSparse) and self.model.k > self.n:
            raise InvalidConfig(f"k={self.model.k} exceeds n={self.n}")


@dataclass(frozen=True)
class EvalMetrics:
    relative_error: float
    r2: float


@np.errstate(over="ignore", invalid="ignore")
def generate(config: SynthConfig) -> ProblemInstance:
    """Draw an instance; a fixed seed reproduces it bit for bit.

    Draw order is B, X_star, P_star, W, so changing only sigma rescales the
    same noise panel and leaves everything else untouched. A sigma so large
    that Y overflows raises ``NonFinite``, with numpy's overflow warning silenced.
    """
    rng = np.random.default_rng(config.seed)
    if config.b_dist == "gaussian":
        B = rng.standard_normal((config.n, config.d))
    else:
        B = rng.uniform(0.0, 1.0, size=(config.n, config.d))
    x_star = rng.standard_normal((config.d, config.m))
    if isinstance(config.model, RLocal):
        p_star = sample_rlocal(config.model.partition, rng)
        partition = config.model.partition
    else:
        p_star = sample_ksparse(config.n, config.model.k, rng)
        partition = None
    w = rng.standard_normal((config.n, config.m))
    y_star = B @ x_star
    return ProblemInstance(
        B=B,
        Y=apply(p_star, y_star) + config.sigma * w,
        sigma=config.sigma,
        partition=partition,
        p_star=p_star,
        x_star=x_star,
        y_star=y_star,
    )


# ---------------------------------------------------------------- CSV ingestion

@dataclass(frozen=True)
class BlockRule:
    """Rows whose named columns round to the same value share a block."""

    columns: tuple[str, ...]
    decimals: int = 0

    def __post_init__(self):
        cols = tuple(self.columns)
        if not cols:
            raise EmptyBlockRule("block rule must name at least one column")
        try:
            scale = 10.0 ** self.decimals
        except OverflowError:
            scale = math.inf
        if not 0.0 < scale < math.inf:
            raise InvalidConfig(
                f"blocking columns {', '.join(cols)}: cannot round to {self.decimals} decimals")
        object.__setattr__(self, "columns", cols)


def _round_half_away(value: float, decimals: int, path, column: str, line=None) -> float:
    scale = 10.0 ** decimals
    scaled = abs(value) * scale + 0.5
    if not math.isfinite(scaled):
        raise ParseError(f"blocking key {value!r} has no finite rounding to {decimals} decimals",
                         path=str(path), line=line, column=column)
    return math.copysign(math.floor(scaled), value) / scale


def _csv_records(path: Path, encoding: str = "utf-8"):
    """Each record of a CSV file with its 1-based record number, blank ones included.

    A file that is not UTF-8, or that ``csv`` cannot split (such as a field
    past its length limit), raises ``ParseError`` naming the file. The
    ``utf-8-sig`` encoding also drops a leading byte order mark.
    """
    try:
        with path.open(newline="", encoding=encoding) as fh:
            yield from enumerate(csv.reader(fh), start=1)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"cannot read as a UTF-8 CSV file: {exc}", path=str(path)) from None


def ingest_csv(path, target_cols, feature_cols, block_rule: BlockRule,
               seed: int = 0) -> ProblemInstance:
    """Build an r-local instance from a CSV file with a header row.

    Only the cells of the named target, feature and blocking columns are
    parsed, so other columns may hold text. Rows are stably sorted by the
    rounded blocking key so blocks are contiguous; the original row order is
    kept in ``source_rows``. Targets are then permuted within blocks by a
    seeded uniform r-local permutation, and the unpermuted targets are
    retained as ground truth.
    """
    path = Path(path)
    records = _csv_records(path, encoding="utf-8-sig")  # a leading BOM is not part of a name
    first = next(records, None)
    if first is None:
        raise ParseError("file is empty", path=str(path))
    header = [h.strip() for h in first[1]]
    named = (*target_cols, *feature_cols, *block_rule.columns)
    for name in named:
        if header.count(name) != 1:
            where = "named more than once in" if name in header else "not found in"
            raise ParseError(f"column {name!r} {where} header {header}", path=str(path))
    used = sorted({header.index(name) for name in named})
    pos = {header[i]: j for j, i in enumerate(used)}

    rows, keys, lines = [], [], []
    for lineno, raw in records:
        if not raw or all(not cell.strip() for cell in raw):
            continue
        if len(raw) != len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(raw)}",
                             path=str(path), line=lineno)
        row = []
        for i in used:
            try:
                row.append(float(raw[i]))
            except ValueError:
                raise NonNumeric(f"cannot parse {raw[i]!r} as a number",
                                 path=str(path), line=lineno, column=header[i]) from None
        rows.append(row)
        lines.append(lineno)
        keys.append(tuple(_round_half_away(row[pos[c]], block_rule.decimals, path, c, lineno)
                          for c in block_rule.columns))
    if not rows:
        raise ParseError("no data rows after header", path=str(path))

    table = np.asarray(rows, dtype=np.float64)
    # The first non-finite target or feature cell in file order, found once
    # every cell has parsed so that an unparseable cell is reported first.
    cells = sorted({pos[c] for c in (*target_cols, *feature_cols)})
    bad = np.argwhere(~np.isfinite(table[:, cells]))
    if bad.size:
        row, j = bad[0][0], cells[bad[0][1]]
        raise NonFinite(f"{path}, line {lines[row]}, column {header[used[j]]}: "
                        f"{table[row, j]} is not a finite number")

    order = sorted(range(len(rows)), key=keys.__getitem__)
    partition = BlockPartition(tuple(len(list(g)) for _, g in groupby(order, keys.__getitem__)))
    table = table[order]
    B = table[:, [pos[c] for c in feature_cols]]
    y_star = table[:, [pos[c] for c in target_cols]]

    p_star = sample_rlocal(partition, np.random.default_rng(seed))
    return ProblemInstance(
        B=B,
        Y=apply(p_star, y_star),
        sigma=0.0,
        partition=partition,
        p_star=p_star,
        y_star=y_star,
        source_rows=np.asarray(order, dtype=np.intp),
    )


# ---------------------------------------------------------------- evaluation

def oracle_and_naive(B, Y_star, Y) -> tuple[np.ndarray, np.ndarray]:
    """Reference regressions: oracle pinv(B) @ Y_star and naive pinv(B) @ Y.

    ``B`` is the measurement matrix or its ``SvdFactors``; passing the factors
    (such as ``ProblemInstance.b_svd``) reuses them instead of factoring again.
    """
    f = B if isinstance(B, SvdFactors) else svd(B)
    return f.solve(Y_star), f.solve(Y)


def evaluate(X_hat, X_oracle, B, Y_star) -> EvalMetrics:
    """Score an estimate against the oracle regression.

    relative_error is ||X_oracle - X_hat||_F / ||X_oracle||_F and the
    goodness-of-fit coefficient is 1 - ||Y_star - B X_hat||_F / ||Y_star||_F
    (a plain ratio, not the squared one). A permutation is scored by
    ``permutation.hamming_distortion``.
    """
    X_hat = as_matrix(X_hat, "X_hat")
    X_oracle = as_matrix(X_oracle, "X_oracle")
    B = as_matrix(B, "B")
    Y_star = as_matrix(Y_star, "Y_star")
    if X_hat.shape != X_oracle.shape:
        raise ShapeMismatch(f"X_hat {X_hat.shape} vs X_oracle {X_oracle.shape}")
    if B.shape[1] != X_hat.shape[0] or B.shape[0] != Y_star.shape[0]:
        raise ShapeMismatch(
            f"inconsistent shapes B {B.shape}, X_hat {X_hat.shape}, Y_star {Y_star.shape}")

    denom = float(np.linalg.norm(X_oracle))
    num = float(np.linalg.norm(X_oracle - X_hat))
    relative_error = num / denom if denom > 0 else (0.0 if num == 0.0 else float("inf"))

    y_norm = float(np.linalg.norm(Y_star))
    resid = float(np.linalg.norm(Y_star - B @ X_hat))
    r2 = 1.0 - (resid / y_norm if y_norm > 0 else 0.0)
    return EvalMetrics(relative_error=relative_error, r2=r2)


# ---------------------------------------------------------------- bundle I/O

def write_matrix_csv(path, M) -> None:
    # numpy would open a path with the locale's encoding; it writes to a handle as given.
    with open(path, "w", encoding="utf-8") as fh:
        np.savetxt(fh, np.atleast_2d(np.asarray(M, dtype=np.float64)), delimiter=",",
                   fmt="%.17g")


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


# Whitespace to numpy's number parser but not to float(); a file holding any of
# these goes to the exact reader.
_NUMPY_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def read_matrix_csv(path) -> np.ndarray:
    """Matrix CSV reader; tolerates one optional header line.

    Line 1 is a header only when none of its cells is a number. A line 1 that
    mixes numbers and text is a corrupt data row and raises ``ParseError``, so
    a damaged first row never silently drops out of the matrix.

    The matrix is parsed by numpy's C reader. Where that reader fails, warns or
    finds no rows, the exact per-cell reader (``csv.reader`` plus ``float()``)
    decides instead: it accepts what ``float()`` accepts (quoted cells, ``1_0``,
    Unicode digits, whitespace-only rows) and otherwise locates the error.
    """
    path = Path(path)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy warns, not raises, on a file with no rows
            matrix = _loadtxt_matrix(path)
    except (ValueError, Warning, csv.Error):
        matrix = None
    if matrix is None or matrix.shape[0] == 0:
        return _read_matrix_csv_exact(path)
    return matrix


def _loadtxt_matrix(path: Path) -> np.ndarray | None:
    """numpy's parse of the file, or None when a cell could parse otherwise with float().

    numpy reads the open file rather than the path, so it never decompresses a
    file by its suffix the way ``numpy.loadtxt(path)`` would.
    """
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        first = next(reader, [])
        # A blank line 1 counts as a header here: both readers skip it anyway.
        header = reader.line_num == 1 and not any(_is_number(c) for c in first)
        fh.seek(0)
        for chunk in iter(lambda: fh.read(1 << 20), ""):
            if any(c in chunk for c in _NUMPY_ONLY_SPACE):
                return None
        fh.seek(0)
        return np.loadtxt(fh, delimiter=",", ndmin=2, comments=None,
                          skiprows=int(header), dtype=np.float64)


def _read_matrix_csv_exact(path: Path) -> np.ndarray:
    rows: list[list[float]] = []
    for lineno, raw in _csv_records(path):
        if not raw or all(not cell.strip() for cell in raw):
            continue
        parsed = []
        for col, cell in enumerate(raw):
            try:
                parsed.append(float(cell))
            except ValueError:
                if lineno == 1 and not any(_is_number(c) for c in raw):
                    parsed = None  # header line, skip
                    break
                raise ParseError(
                    f"cannot parse {cell!r} as a number",
                    path=str(path), line=lineno, column=col + 1) from None
        if parsed is None:
            continue
        if rows and len(parsed) != len(rows[0]):
            raise ParseError(
                f"expected {len(rows[0])} fields, got {len(parsed)}",
                path=str(path), line=lineno)
        rows.append(parsed)
    if not rows:
        raise ParseError("no numeric rows", path=str(path))
    return np.asarray(rows, dtype=np.float64)


def _model_to_dict(instance: ProblemInstance) -> dict | None:
    """The ``meta.json`` model of an instance, so that it agrees with its truth.

    r-local on the instance's partition, else k-sparse with k the rows
    ``p_star`` moves, else None.
    """
    if instance.partition is not None:
        return {"variant": "rlocal", "sizes": list(instance.partition.sizes)}
    if instance.p_star is None:
        return None
    return {"variant": "ksparse",
            "k": hamming_distortion(instance.p_star, Permutation.identity(instance.n))}


def model_from_dict(payload) -> PermutationModel | None:
    """Inverse of the ``model`` entry written to ``meta.json``; None stays None."""
    if payload is None:
        return None
    if not isinstance(payload, dict) or "variant" not in payload:
        raise InvalidConfig(f"model must be an object with a 'variant' key, got {payload!r}")
    variant = payload["variant"]
    if variant not in ("rlocal", "ksparse"):
        raise InvalidConfig(f"unknown model variant {variant!r}")
    key, accepts = ("sizes", _is_count_list) if variant == "rlocal" else ("k", is_count)
    value = payload.get(key)
    if not accepts(value):
        raise InvalidConfig(f"malformed {variant} model {payload!r}")
    return RLocal(BlockPartition(tuple(value))) if variant == "rlocal" else KSparse(value)


def save_bundle(instance: ProblemInstance, out_dir, seed: int | None = None) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(out / "B.csv", instance.B)
    write_matrix_csv(out / "Y.csv", instance.Y)
    if instance.y_star is not None:
        write_matrix_csv(out / "Ystar.csv", instance.y_star)
    truth = {
        "permutation": instance.p_star.to_list() if instance.p_star is not None else None,
        "partition": list(instance.partition.sizes) if instance.partition is not None else None,
    }
    if instance.source_rows is not None:
        truth["source_rows"] = instance.source_rows.tolist()
    (out / "truth.json").write_text(json.dumps(truth, indent=2) + "\n", encoding="utf-8")
    meta = {"sigma": float(instance.sigma), "seed": seed, "model": _model_to_dict(instance)}
    (out / "meta.json").write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
    return out


def load_bundle(bundle_dir) -> ProblemInstance:
    """Read a bundle and check that its files agree before anything is solved.

    Every file must cover the n rows of ``B.csv`` and ``Ystar.csv`` must have
    the columns of ``Y.csv`` (``ShapeMismatch``). The ``truth.json``
    ``permutation`` and ``source_rows`` must each be a bijection on 0..n-1
    (``InvalidConfig``). ``meta.json`` must give a
    finite non-negative ``sigma`` and a valid ``model`` that agrees with the
    ``truth.json`` partition (``InvalidConfig``).
    """
    bundle = Path(bundle_dir)
    B = read_matrix_csv(bundle / "B.csv")
    Y = read_matrix_csv(bundle / "Y.csv")
    n = B.shape[0]
    y_star = None
    if (bundle / "Ystar.csv").exists():
        y_star = read_matrix_csv(bundle / "Ystar.csv")
        _check_rows("Ystar.csv", y_star.shape[0], n)
        if y_star.shape[1] != Y.shape[1]:
            raise ShapeMismatch(
                f"Ystar.csv has {y_star.shape[1]} columns but Y.csv has {Y.shape[1]}")
    meta = _read_json_object(bundle / "meta.json")
    truth = _read_json_object(bundle / "truth.json")
    sigma = meta.get("sigma", 0.0)
    _check_sigma(sigma, "meta.json sigma")
    sizes = _truth_indices(truth, "partition")
    partition = None if sizes is None else BlockPartition(tuple(sizes))
    indices = _truth_indices(truth, "permutation")
    p_star = None if indices is None else Permutation.from_list(indices)
    rows = _truth_indices(truth, "source_rows")
    source_rows = None if rows is None else Permutation.from_list(rows)
    for what, value in (("truth.json partition", partition), ("truth.json permutation", p_star),
                        ("truth.json source_rows", source_rows)):
        if value is not None:
            _check_rows(what, value.n, n)
    model = model_from_dict(meta.get("model"))
    # an r-local model carries the partition; a k-sparse model goes with none
    if model is not None and partition != getattr(model, "partition", None):
        raise InvalidConfig("meta.json model does not match the truth.json partition: an "
                            "rlocal model gives its sizes, a ksparse model has none")
    return ProblemInstance(B=B, Y=Y, sigma=float(sigma), partition=partition,
                           p_star=p_star, y_star=y_star,
                           source_rows=None if source_rows is None else source_rows.map)


def is_count(value) -> bool:
    """A non-negative JSON integer; booleans are refused."""
    return type(value) is int and value >= 0


def is_real(value) -> bool:
    """A finite JSON number; booleans are refused."""
    # int/float comparison is exact, so NaN, the infinities and integers beyond
    # the float range all fail it without an OverflowError.
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _is_count_list(value) -> bool:
    return isinstance(value, list) and all(map(is_count, value))


def _truth_indices(truth: dict, key: str) -> list[int] | None:
    """``truth[key]``: null, or a JSON list of non-negative integers (no booleans)."""
    value = truth.get(key)
    if value is not None and not _is_count_list(value):
        raise InvalidConfig(f"truth.json {key} must be a list of non-negative integers")
    return value


def _check_rows(what: str, rows: int, n: int) -> None:
    if rows != n:
        raise ShapeMismatch(f"{what} covers {rows} rows but B.csv has {n}")


def read_json(path) -> object:
    """The JSON value in the file ``path``.

    A file that is not UTF-8, or whose JSON Python cannot convert, is
    ``InvalidConfig`` naming the file.
    """
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # also a too long integer or too deep nesting
        raise InvalidConfig(f"{path}: {exc}") from None


def _read_json_object(path: Path) -> dict:
    """The JSON object in ``path``; an absent file reads as an empty object."""
    if not path.exists():
        return {}
    payload = read_json(path)
    if not isinstance(payload, dict):
        raise InvalidConfig(f"{path.name} must hold a JSON object, got {type(payload).__name__}")
    return payload
