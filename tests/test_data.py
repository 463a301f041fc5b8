import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import reference_ingest_csv, reference_read_matrix_csv
from unlabeled_sensing.data import (BlockRule, ProblemInstance, SynthConfig, _round_half_away,
                                    evaluate, generate, ingest_csv, load_bundle,
                                    model_from_dict, oracle_and_naive, read_matrix_csv,
                                    save_bundle, write_matrix_csv)
from unlabeled_sensing.errors import (EmptyBlockRule, InvalidConfig, NonFinite, NonNumeric,
                                      ParseError, ShapeMismatch, UnlabeledSensingError)
from unlabeled_sensing.permutation import (BlockPartition, KSparse, Permutation,
                                           RLocal, apply, hamming_distortion)


def toy_csv(tmp_path, name="toy.csv"):
    """6 rows with a 2-valued key scattered through the file."""
    text = (
        "key,f1,f2,t1\n"
        "2,1.0,0.0,10.0\n"
        "1,0.0,1.0,20.0\n"
        "2,1.5,0.5,30.0\n"
        "1,0.5,1.5,40.0\n"
        "2,2.0,1.0,50.0\n"
        "1,1.0,2.0,60.0\n"
    )
    path = tmp_path / name
    path.write_text(text)
    return path


# ------------------------------------------------------------- generation

def test_generate_noiseless_identity_model():
    inst = generate(SynthConfig(n=20, d=4, m=3, model=KSparse(0), sigma=0.0, seed=0))
    np.testing.assert_array_equal(inst.Y, inst.B @ inst.x_star)
    np.testing.assert_array_equal(inst.y_star, inst.B @ inst.x_star)
    assert hamming_distortion(Permutation.identity(20), inst.p_star) == 0


def test_generate_deterministic_per_seed():
    cfg = SynthConfig(n=15, d=3, m=2, model=KSparse(4), sigma=0.3, seed=42)
    a, b = generate(cfg), generate(cfg)
    np.testing.assert_array_equal(a.B, b.B)
    np.testing.assert_array_equal(a.Y, b.Y)
    assert a.p_star.to_list() == b.p_star.to_list()
    c = generate(SynthConfig(n=15, d=3, m=2, model=KSparse(4), sigma=0.3, seed=43))
    assert not np.array_equal(a.Y, c.Y)


def test_generate_sigma_changes_only_noise():
    base = dict(n=12, d=3, m=2, model=KSparse(4), seed=9)
    i0 = generate(SynthConfig(sigma=0.0, **base))
    i1 = generate(SynthConfig(sigma=0.1, **base))
    i2 = generate(SynthConfig(sigma=0.2, **base))
    np.testing.assert_array_equal(i1.B, i2.B)
    assert i1.p_star.to_list() == i2.p_star.to_list()
    np.testing.assert_array_equal(i1.x_star, i2.x_star)
    # doubling sigma doubles the same noise panel
    np.testing.assert_allclose(i2.Y - i0.Y, 2.0 * (i1.Y - i0.Y), atol=1e-12)


def test_generate_uniform01_measurements():
    inst = generate(SynthConfig(n=30, d=4, m=1, model=KSparse(0),
                                b_dist="uniform01", seed=1))
    assert inst.B.min() >= 0.0 and inst.B.max() <= 1.0


def test_generate_validates_config():
    with pytest.raises(InvalidConfig):
        SynthConfig(n=0, d=2, m=1, model=KSparse(0), seed=0)
    with pytest.raises(InvalidConfig):
        SynthConfig(n=10, d=2, m=1, model=KSparse(0), sigma=-1.0, seed=0)
    with pytest.raises(InvalidConfig):
        SynthConfig(n=10, d=2, m=1, model=KSparse(11), seed=0)
    with pytest.raises(InvalidConfig):
        SynthConfig(n=10, d=2, m=1, model=KSparse(0), b_dist="cauchy", seed=0)
    with pytest.raises(InvalidConfig):
        SynthConfig(n=10, d=2, m=1,
                    model=RLocal(BlockPartition((4, 4))), seed=0)


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf, -1.0, True, "0.1"])
def test_non_finite_or_negative_sigma_is_refused_where_an_instance_is_built(sigma):
    with pytest.raises(InvalidConfig, match="sigma must be a finite number >= 0"):
        ProblemInstance(B=np.eye(3), Y=np.ones((3, 1)), sigma=sigma)
    with pytest.raises(InvalidConfig, match="sigma must be a finite number >= 0"):
        SynthConfig(n=10, d=2, m=1, model=KSparse(0), sigma=sigma, seed=0)


def test_sigma_whose_noise_overflows_is_non_finite_without_a_numpy_warning():
    # pytest turns warnings into errors, so an overflow warning would fail here
    with pytest.raises(NonFinite, match="Y contains NaN or Inf entries"):
        generate(SynthConfig(n=4, d=2, m=1, model=RLocal(BlockPartition((2, 2))),
                             sigma=1e308, seed=0))


@pytest.mark.parametrize("sigma", [0, 0.25, np.float64(0.25), np.float32(0.5), np.int64(1)])
def test_finite_sigma_of_any_real_type_round_trips_through_a_bundle(tmp_path, sigma):
    inst = generate(SynthConfig(n=6, d=2, m=1, model=KSparse(2), sigma=sigma, seed=0))
    assert load_bundle(save_bundle(inst, tmp_path / "b")).sigma == float(sigma)


# ------------------------------------------------------------- ingestion

def test_ingest_all_distinct_keys_leaves_targets_alone(tmp_path):
    path = tmp_path / "distinct.csv"
    path.write_text("key,f1,t1\n1,0.1,10\n2,0.2,20\n3,0.3,30\n")
    inst = ingest_csv(path, ("t1",), ("f1",), BlockRule(("key",)), seed=0)
    assert inst.partition.sizes == (1, 1, 1)
    np.testing.assert_array_equal(inst.Y, inst.y_star)


def test_ingest_groups_by_key_with_stable_order(tmp_path):
    inst = ingest_csv(toy_csv(tmp_path), ("t1",), ("f1", "f2"),
                      BlockRule(("key",)), seed=0)
    assert inst.partition.sizes == (3, 3)
    # stable sort: key-1 rows keep file order 20, 40, 60, then key-2 rows
    np.testing.assert_array_equal(inst.y_star.ravel(),
                                  [20.0, 40.0, 60.0, 10.0, 30.0, 50.0])
    np.testing.assert_array_equal(inst.source_rows, [1, 3, 5, 0, 2, 4])
    # the permutation never crosses the two blocks
    np.testing.assert_array_equal(inst.Y, apply(inst.p_star, inst.y_star))
    assert set(inst.Y.ravel()[:3]) == {20.0, 40.0, 60.0}


def test_ingest_same_seed_reproduces(tmp_path):
    path = toy_csv(tmp_path)
    rule = BlockRule(("key",))
    a = ingest_csv(path, ("t1",), ("f1", "f2"), rule, seed=5)
    b = ingest_csv(path, ("t1",), ("f1", "f2"), rule, seed=5)
    np.testing.assert_array_equal(a.Y, b.Y)
    assert a.p_star.to_list() == b.p_star.to_list()


def test_ingest_rounding_merges_blocks(tmp_path):
    path = tmp_path / "round.csv"
    path.write_text("key,f1,t1\n0.6,1,1\n1.4,2,2\n1.6,3,3\n2.5,4,4\n-0.5,5,5\n")
    inst = ingest_csv(path, ("t1",), ("f1",), BlockRule(("key",), decimals=0), seed=0)
    # keys round (half away from zero) to -1, 1, 1, 2, 3
    assert inst.partition.sizes == (1, 2, 1, 1)


def test_ingest_composite_key(tmp_path):
    path = tmp_path / "composite.csv"
    path.write_text("month,day,f1,t1\n1,2,0.1,1\n1,3,0.2,2\n1,2,0.3,3\n2,2,0.4,4\n")
    inst = ingest_csv(path, ("t1",), ("f1",), BlockRule(("month", "day")), seed=0)
    assert inst.partition.sizes == (2, 1, 1)


def test_ingest_error_reporting(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("key,f1,t1\n1,0.5,2\n1,oops,3\n")
    with pytest.raises(NonNumeric) as err:
        ingest_csv(bad, ("t1",), ("f1",), BlockRule(("key",)), seed=0)
    assert err.value.line == 3
    assert err.value.column == "f1"

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("key,f1,t1\n1,0.5\n")
    with pytest.raises(ParseError) as err:
        ingest_csv(ragged, ("t1",), ("f1",), BlockRule(("key",)), seed=0)
    assert err.value.line == 2

    with pytest.raises(ParseError):
        ingest_csv(toy_csv(tmp_path), ("t1",), ("nope",), BlockRule(("key",)), seed=0)
    with pytest.raises(EmptyBlockRule):
        BlockRule(())
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ParseError):
        ingest_csv(empty, ("t1",), ("f1",), BlockRule(("key",)), seed=0)


@settings(max_examples=300, deadline=None)
@given(value=st.floats(allow_nan=False, allow_infinity=False),
       decimals=st.integers(-323, 308))
def test_ingest_key_rounding_is_half_away_from_zero_or_a_parse_error(value, decimals):
    # the rounding rule of every finite key; where it has no finite value
    # (|key| * 10**decimals overflows) the key is refused, naming the column
    scale = 10.0 ** decimals
    scaled = abs(value) * scale + 0.5
    if math.isfinite(scaled):
        want = math.copysign(math.floor(scaled), value) / scale
        assert _round_half_away(value, decimals, "t.csv", "key") == want
    else:
        with pytest.raises(ParseError, match="column key"):
            _round_half_away(value, decimals, "t.csv", "key")


@pytest.mark.parametrize("decimals", [309, 400, -324, -400])
def test_block_rule_refuses_decimals_without_a_finite_nonzero_scale(decimals):
    with pytest.raises(InvalidConfig, match=f"blocking columns key, site: cannot round "
                                            f"to {decimals} decimals"):
        BlockRule(("key", "site"), decimals=decimals)


@pytest.mark.parametrize("decimals", [308, -323])
def test_block_rule_takes_decimals_up_to_the_float_range(decimals):
    assert BlockRule(("key",), decimals=decimals).decimals == decimals


def test_ingest_parses_only_the_columns_it_names(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text('name,key,f1,t1,note\nann,1,0.5,2,"x, y"\nbob,1,1.5,3,\ncy,2,2.5,4,z\n')
    inst = ingest_csv(path, ("t1",), ("f1",), BlockRule(("key",)), seed=0)
    want = tmp_path / "numeric.csv"
    want.write_text("key,f1,t1\n1,0.5,2\n1,1.5,3\n2,2.5,4\n")
    _assert_same_instance(inst, reference_ingest_csv(want, ("t1",), ("f1",), BlockRule(("key",))))
    # a text cell in a named column is still refused at its line and column
    with pytest.raises(NonNumeric) as err:
        ingest_csv(path, ("t1",), ("name",), BlockRule(("key",)), seed=0)
    assert (err.value.line, err.value.column) == (2, "name")


def test_ingest_refuses_a_named_column_that_appears_twice(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("key,f1,f1,t1,x,x\n1,1,9,5,a,b\n2,2,8,6,c,d\n3,3,7,7,e,f\n")
    for targets, features, block in [("t1", "f1", "key"), ("f1", "t1", "key"),
                                     ("t1", "key", "f1")]:
        with pytest.raises(ParseError, match="column 'f1' named more than once in header"):
            ingest_csv(path, (targets,), (features,), BlockRule((block,)), seed=0)
    # a repeated name among the columns the call does not name is harmless
    inst = ingest_csv(path, ("t1",), ("key",), BlockRule(("key",)), seed=0)
    np.testing.assert_array_equal(inst.y_star.ravel(), [5.0, 6.0, 7.0])


def test_ingest_ignores_a_leading_byte_order_mark(tmp_path):
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    text = "key,f1,t1\n2,0.5,1\n1,1.5,2\n2,2.5,3\n"
    plain.write_text(text, encoding="utf-8")
    bom.write_text(text, encoding="utf-8-sig")
    assert bom.read_bytes().startswith(b"\xef\xbb\xbfkey,")
    rule = BlockRule(("key",))
    _assert_same_instance(ingest_csv(bom, ("t1",), ("f1",), rule, seed=4),
                         ingest_csv(plain, ("t1",), ("f1",), rule, seed=4))


@pytest.mark.parametrize("body,where", [
    ("1,0.5,2\n1,nan,3\n", "line 3, column f1: nan"),
    ("1,0.5,inf\n1,-inf,3\n", "line 2, column t1: inf"),  # file order: line, then column
    ("\n1,0.5,2\n2,1e999,3\n", "line 4, column f1: inf"),
], ids=["nan-feature", "first-of-two-lines", "overflowing-cell-after-a-blank-line"])
def test_ingest_names_the_first_non_finite_target_or_feature_cell(tmp_path, body, where):
    path = tmp_path / "nf.csv"
    path.write_text("key,f1,t1\n" + body)
    with pytest.raises(NonFinite) as err:
        ingest_csv(path, ("t1",), ("f1",), BlockRule(("key",)), seed=0)
    assert str(err.value) == f"{path}, {where} is not a finite number"
    # an unparseable cell anywhere in the file is still reported first
    path.write_text("key,f1,t1\n" + body + "1,2,oops\n")
    with pytest.raises(NonNumeric, match="column t1: cannot parse 'oops'"):
        ingest_csv(path, ("t1",), ("f1",), BlockRule(("key",)), seed=0)


# ------------------------------------------------------------- ingestion vs the reference

def _assert_same_instance(got, want):
    for name in ("B", "Y", "y_star", "source_rows"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert got.partition == want.partition
    assert got.p_star.map.tobytes() == want.p_star.map.tobytes()


def _ingest_outcome(ingest, path, call):
    try:
        return ingest(path, *call), None
    except UnlabeledSensingError as exc:
        return None, exc


_NUMERIC_CELLS = st.sampled_from(["0", "1", "-1", "2", "0.5", "-0.5", "1.25", "1.5", "-2.5",
                                  "0.05", " 3 ", "1e1", "-0"])
_NON_FINITE_CELLS = st.sampled_from(["nan", "inf", "-inf"])
_BAD_CELLS = st.sampled_from(["", " ", "x", "1,5", "--1", "1.2.3", "0x1"])
_TEXT_CELLS = st.sampled_from(["ann", "smith, j", 'say "hi"', "", " ", "1", "nan", "\u00e9"])


@st.composite
def _ingest_cases(draw):
    """A header, rows of cells and an ingest call; only the named cells may be text.

    Rows may be blank, whitespace-only or ragged, and cells may be non-finite.
    """
    header = draw(st.lists(st.sampled_from(["a", "b", "c", "d", " e "]), min_size=2,
                           max_size=5, unique=True))
    names = [h.strip() for h in header]
    targets = draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True))
    features = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True))
    if draw(st.integers(0, 3)) == 0 and targets[0] not in features:
        features.append(targets[0])  # a target that is also a feature
    block = draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True))
    named = {*targets, *features, *block}
    bad_rate, non_finite_rate = (draw(st.sampled_from([0.0, 0.0, 0.05, 0.3])),
                                 draw(st.sampled_from([0.0, 0.0, 0.0, 0.05])))

    def cell(name):
        if name in named and draw(st.floats(0, 1)) < bad_rate:
            return draw(_BAD_CELLS)
        return draw(_NON_FINITE_CELLS if draw(st.floats(0, 1)) < non_finite_rate
                    else _NUMERIC_CELLS)

    rows = []  # about one file in ten has no data rows
    for _ in range(draw(st.integers(1, 10)) * (draw(st.integers(0, 9)) != 7)):
        kind = draw(st.sampled_from(["row"] * 16 + ["blank", "spaces", "ragged"]))
        if kind == "blank":
            rows.append([])
        elif kind == "spaces":
            rows.append(draw(st.sampled_from([[" "], ["", ""], [" ", "\t"]])))
        else:
            rows.append([cell(name) for name in names])
            if kind == "ragged":
                rows[-1] = rows[-1][:-1] if draw(st.booleans()) else rows[-1] + ["1"]
    call = (tuple(targets), tuple(features),
            BlockRule(tuple(block), decimals=draw(st.integers(-1, 2))), draw(st.integers(0, 3)))
    return header, rows, call


def _write_csv(path, header, rows):
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    return path


def _assert_matches_reference(path, want_path, call):
    want, err = _ingest_outcome(reference_ingest_csv, want_path, call)
    got, got_err = _ingest_outcome(ingest_csv, path, call)
    if err is None:
        assert got_err is None, got_err
        _assert_same_instance(got, want)
    else:
        assert got is None
        assert isinstance(got_err, ParseError if isinstance(err, ParseError) else type(err))


@settings(max_examples=300, deadline=None)
@given(case=_ingest_cases())
def test_ingest_matches_the_reference_on_numeric_files(tmp_path_factory, case):
    header, rows, call = case
    path = _write_csv(tmp_path_factory.getbasetemp() / "ingest.csv", header, rows)
    _assert_matches_reference(path, path, call)


@settings(max_examples=300, deadline=None)
@given(case=_ingest_cases(), extra=st.lists(st.tuples(st.integers(0, 5), _TEXT_CELLS),
                                            min_size=1, max_size=3))
def test_ingest_of_a_file_with_text_columns_matches_the_reference_without_them(
        tmp_path_factory, case, extra):
    # each extra column holds one text value in every row that is not blank
    header, rows, call = case
    base = tmp_path_factory.getbasetemp()
    want_path = _write_csv(base / "numeric.csv", header, rows)

    def widen(cells, fill):
        cells = list(cells)
        for at, value in extra:
            cells.insert(min(at, len(cells)), fill(value))
        return cells

    wide = widen(header, lambda _: "id")  # a name repeated among unnamed columns is allowed
    wide_rows = [widen(row, lambda value: value) if any(c.strip() for c in row) else row
                 for row in rows]
    _assert_matches_reference(_write_csv(base / "text.csv", wide, wide_rows), want_path, call)


# ------------------------------------------------------------- metrics

def test_oracle_and_naive_definitions():
    rng = np.random.default_rng(2)
    B = rng.standard_normal((10, 3))
    y_star = rng.standard_normal((10, 2))
    oracle, naive = oracle_and_naive(B, y_star, y_star)
    np.testing.assert_array_equal(oracle, naive)
    oracle_i, _ = oracle_and_naive(np.eye(4), y_star[:4], y_star[:4])
    np.testing.assert_allclose(oracle_i, y_star[:4], atol=1e-12)


def test_naive_never_beats_oracle_on_its_own_metric():
    for seed in range(20):
        inst = generate(SynthConfig(n=20, d=4, m=2, model=KSparse(6),
                                    seed=seed))
        oracle, naive = oracle_and_naive(inst.B, inst.y_star, inst.Y)
        got_o = evaluate(oracle, oracle, inst.B, inst.y_star)
        got_n = evaluate(naive, oracle, inst.B, inst.y_star)
        assert got_o.relative_error == 0.0
        assert got_n.relative_error >= got_o.relative_error


def test_evaluate_trivial_cases():
    rng = np.random.default_rng(4)
    B = rng.standard_normal((12, 3))
    x_oracle = rng.standard_normal((3, 2))
    y_star = B @ x_oracle
    got = evaluate(x_oracle, x_oracle, B, y_star)
    assert got.relative_error == 0.0
    assert got.r2 == pytest.approx(1.0, abs=1e-9)

    got_zero = evaluate(np.zeros_like(x_oracle), x_oracle, B, y_star)
    assert got_zero.r2 == pytest.approx(0.0, abs=1e-12)


def test_problem_instance_refuses_unequal_row_counts():
    with pytest.raises(ShapeMismatch, match="B has 3 rows but Y has 4"):
        ProblemInstance(B=np.ones((3, 2)), Y=np.ones((4, 1)))


@pytest.mark.parametrize("shapes,message", [
    (((3, 2), (2, 2), (12, 2), (12, 2)), r"X_hat \(3, 2\) vs X_oracle \(2, 2\)"),
    (((3, 2), (3, 2), (12, 4), (12, 2)), r"inconsistent shapes B \(12, 4\), X_hat \(3, 2\)"),
    (((3, 2), (3, 2), (12, 3), (11, 2)), r"inconsistent shapes B \(12, 3\), .*Y_star \(11, 2\)"),
], ids=["x-hat-vs-oracle", "b-columns", "b-rows-vs-y-star"])
def test_evaluate_refuses_inconsistent_shapes(shapes, message):
    X_hat, X_oracle, B, Y_star = (np.ones(shape) for shape in shapes)
    with pytest.raises(ShapeMismatch, match=message):
        evaluate(X_hat, X_oracle, B, Y_star)


def test_generate_evaluate_roundtrip():
    # a solver that returns the stored truth scores perfectly
    inst = generate(SynthConfig(n=18, d=3, m=2, model=KSparse(5), seed=11))
    oracle, _ = oracle_and_naive(inst.B, inst.y_star, inst.Y)
    got = evaluate(inst.x_star, oracle, inst.B, inst.y_star)
    ref = evaluate(oracle, oracle, inst.B, inst.y_star)
    assert got.relative_error <= 1e-8
    assert abs(got.r2 - ref.r2) <= 1e-8


# ------------------------------------------------------------- bundles

def test_matrix_csv_roundtrip_and_header_tolerance(tmp_path):
    rng = np.random.default_rng(5)
    M = rng.standard_normal((4, 3))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, M)
    np.testing.assert_allclose(read_matrix_csv(path), M, rtol=0, atol=0)

    with_header = tmp_path / "h.csv"
    with_header.write_text("a,b,c\n1,2,3\n4,5,6\n")
    np.testing.assert_array_equal(read_matrix_csv(with_header),
                                  [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,oops\n")
    with pytest.raises(ParseError) as err:
        read_matrix_csv(bad)
    assert err.value.line == 2


def test_matrix_csv_corrupt_first_row_is_not_a_header(tmp_path):
    # A line 1 mixing numbers and text used to be skipped as a header, which
    # silently dropped a row of the matrix.
    path = tmp_path / "m.csv"
    for text in ("1.0,abc\n2,3\n4,5\n", "a,1\n2,3\n"):
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            read_matrix_csv(path)
        assert err.value.line == 1
    path.write_text("x, y\n2,3\n")
    np.testing.assert_array_equal(read_matrix_csv(path), [[2.0, 3.0]])


def test_model_from_dict_rejects_malformed_models():
    assert model_from_dict(None) is None
    assert model_from_dict({"variant": "ksparse", "k": 4}).k == 4
    assert model_from_dict({"variant": "rlocal", "sizes": [2, 3]}).partition.sizes == (2, 3)
    for bad in ({"sizes": [2, 3]}, {"variant": "blocky"}, {"variant": "ksparse"},
                {"variant": "rlocal", "sizes": 5}, {"variant": "ksparse", "k": "x"}, "rlocal"):
        with pytest.raises(InvalidConfig):
            model_from_dict(bad)


def test_bundle_roundtrip(tmp_path):
    part = BlockPartition.equal_blocks(12, 3)
    inst = generate(SynthConfig(n=12, d=3, m=2, model=RLocal(part), sigma=0.1, seed=7))
    out = save_bundle(inst, tmp_path / "bundle", seed=7, model=RLocal(part))
    loaded = load_bundle(out)
    np.testing.assert_allclose(loaded.B, inst.B)
    np.testing.assert_allclose(loaded.Y, inst.Y)
    np.testing.assert_allclose(loaded.y_star, inst.y_star)
    assert loaded.partition.sizes == part.sizes
    assert hamming_distortion(loaded.p_star, inst.p_star) == 0
    assert loaded.sigma == 0.1


def test_bundle_without_meta_or_truth_reads_them_as_empty(tmp_path):
    inst = generate(SynthConfig(n=12, d=3, m=2, model=KSparse(4), sigma=0.1, seed=7))
    out = save_bundle(inst, tmp_path / "bundle", seed=7, model=KSparse(4))
    (out / "meta.json").unlink()
    (out / "truth.json").unlink()
    loaded = load_bundle(out)
    assert loaded.sigma == 0.0
    assert loaded.partition is None and loaded.p_star is None and loaded.source_rows is None
    assert loaded.Y.tobytes() == inst.Y.tobytes()
    assert loaded.y_star.tobytes() == inst.y_star.tobytes()


def test_bundle_roundtrip_is_bit_exact(tmp_path):
    part = BlockPartition.equal_blocks(40, 4)
    inst = generate(SynthConfig(n=40, d=5, m=3, model=RLocal(part), sigma=0.3, seed=11))
    loaded = load_bundle(save_bundle(inst, tmp_path / "bundle", seed=11, model=RLocal(part)))
    for got, want in ((loaded.B, inst.B), (loaded.Y, inst.Y), (loaded.y_star, inst.y_star)):
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_ingested_bundle_keeps_its_source_rows(tmp_path):
    # P_hat of an ingested bundle indexes its block-sorted rows; source_rows
    # maps them back to the CSV. A synthesized bundle has no such key.
    inst = ingest_csv(toy_csv(tmp_path), ("t1",), ("f1", "f2"), BlockRule(("key",)), seed=1)
    assert inst.source_rows.tolist() == [1, 3, 5, 0, 2, 4]
    loaded = load_bundle(save_bundle(inst, tmp_path / "bundle", model=RLocal(inst.partition)))
    assert np.array_equal(loaded.source_rows, inst.source_rows)
    assert loaded.partition == inst.partition
    assert np.array_equal(loaded.p_star.map, inst.p_star.map)
    synth = generate(SynthConfig(n=6, d=2, m=1, model=KSparse(2), seed=1))
    out = save_bundle(synth, tmp_path / "synth")
    assert "source_rows" not in json.loads((out / "truth.json").read_text())
    assert load_bundle(out).source_rows is None


def test_partition_and_permutation_take_integers_past_int64():
    # sizes past int64 must not wrap around to a plausible n, and an index past
    # int64 is simply not in 0..n-1
    assert BlockPartition((2**62,) * 4 + (12,)).n == 2**64 + 12
    with pytest.raises(InvalidConfig, match="bijection"):
        Permutation.from_list([2**70, 0])


def test_load_bundle_checks_partition_rows_with_sizes_beyond_int64(tmp_path):
    part = BlockPartition.equal_blocks(12, 3)
    inst = generate(SynthConfig(n=12, d=3, m=2, model=RLocal(part), seed=7))
    out = save_bundle(inst, tmp_path / "bundle")
    (out / "truth.json").write_text(json.dumps({"partition": [2**62] * 4 + [12]}))
    with pytest.raises(ShapeMismatch, match="partition covers 18446744073709551628 rows"):
        load_bundle(out)


# ------------------------------------------------------------- matrix CSV reader vs the reference

def _outcome(reader, path):
    """The array bytes a reader returns, or the error it raises with its position."""
    try:
        M = reader(path)
    except Exception as exc:
        return ("error", type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))
    return ("array", M.dtype, M.shape, M.tobytes())


def _assert_same_as_reference(path, text):
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(read_matrix_csv, path) == _outcome(reference_read_matrix_csv, path), repr(text)


def test_read_matrix_csv_2000x50_is_bit_identical_to_reference(tmp_path):
    rng = np.random.default_rng(2024)
    M = rng.standard_normal((2000, 50)) * 10.0 ** rng.integers(-300, 300, size=(2000, 50))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, M)
    got = read_matrix_csv(path)
    assert got.tobytes() == M.tobytes()
    assert got.tobytes() == reference_read_matrix_csv(path).tobytes()


@pytest.mark.parametrize("text", [
    "a,b\n1,2\n", "x, y\n2,3\n", "a,1\n2,3\n", "\na,b\n1,2\n", " , \n1,2\n",
    "1,2\n\n3,4\n", "1,2\n  \n3,4\n", "1,2\n\t\n", "\"1\",2\n3,4\n", "\"a\n1,2\n",
    "\"1\n\",2\n3,4\n", "1_0,2\n", "\u0661,2\n", "nan,-nan\ninf,-Infinity\n",
    "1e999,-1e-999\n", "1,2\r\n3,4\r\n", "1,2\r3,4\r", "1,2\r\r\n3,4\n", "\ufeff1,2\n",
    "\ufeff1\n2\n", "#1,2\n", "1,,2\n", "1,2,\n", "1,2\n3\n", "", "\n\n", "a,b\n",
    "a,b\n\n", "\x1c1,2\n", "1,2\x1f\n", "a\x1e,b\n1,2\n", "\xa01,2\u2003\n", "1 2,3\n",
    "0x10,1\n", "1\x00,2\n", "1,2\n3,4",
])
def test_read_matrix_csv_edge_cases_match_reference(tmp_path, text):
    _assert_same_as_reference(tmp_path / "m.csv", text)


_NUMBER_CELLS = st.one_of(
    st.floats().map(repr),
    st.floats().map(lambda x: "%.17g" % x),
    st.integers(-10**20, 10**20).map(str),
)
_ODD_CELLS = st.one_of(
    st.sampled_from(["nan", "-nan", "+inf", "-Infinity", "1e999", "-1e-999", "1_0", "1__0",
                     "\u0661", "\u0662.5", '"1.5"', '"2"', " 3 ", "\t4", "\xa05", "\x1c6",
                     "7\x1f", "", " ", "abc", "x", "#8", "0x9", "1e", ".", "+.5", "5.",
                     '"a,b"', '"1\n2"', "1 2"]),
    st.text(alphabet="0123456789.eE+-_ \t\"#anif\x1c\xa0\u0663", max_size=5),
)


@st.composite
def _matrix_texts(draw):
    ncols = draw(st.integers(1, 4))
    odd = draw(st.sampled_from([0.0, 0.05, 0.3]))
    def cell():
        return draw(_ODD_CELLS if draw(st.floats(0, 1)) < odd else _NUMBER_CELLS)
    lines = []
    if draw(st.booleans()):
        names = st.sampled_from(["a", "b", " x", "col 1", '"h"', "nan_", ""])
        lines.append(",".join(draw(st.lists(names, min_size=ncols, max_size=ncols))))
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 8 + ["blank", "spaces", "ragged"]))
        if kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append(draw(st.sampled_from([" ", "\t", " , ", "  ,\t"])))
        else:
            width = ncols + (draw(st.sampled_from([-1, 1])) if kind == "ragged" else 0)
            lines.append(",".join(cell() for _ in range(max(width, 1))))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


@settings(max_examples=300, deadline=None)
@given(text=_matrix_texts())
def test_read_matrix_csv_matches_reference_reader(tmp_path_factory, text):
    _assert_same_as_reference(tmp_path_factory.getbasetemp() / "fuzz.csv", text)
