import json
import math
import warnings

import numpy as np
import pytest

from _oracles import (reference_check_lemma1, reference_check_lemma2,
                      reference_check_lemma4, reference_check_theorem1,
                      reference_check_theorem2, reference_check_theorem3,
                      reference_chi2_tail_check, reference_report_dict)
from unlabeled_sensing.errors import InvalidRange, InvalidSpec, SingularMatrix
from unlabeled_sensing.linalg import pinv_solve
from unlabeled_sensing.permutation import BlockPartition
from unlabeled_sensing.theory import (binomial_margin, check_lemma1, check_lemma2,
                                      check_lemma4, check_theorem1, check_theorem2,
                                      check_theorem3, check_worst_case,
                                      chi2_tail_check, const_c1, const_c2,
                                      const_c3, const_k1, jl_threshold,
                                      worst_case_init_bound)


# ------------------------------------------------------------- constants

def test_jl_threshold_values():
    assert jl_threshold(100, 75, 0.0) == 0.5
    assert abs(jl_threshold(100, 36, 0.25) - 1.0) <= 1e-12
    assert jl_threshold(100, 99, 0.3) < 0.14  # s -> d drives the threshold to 0
    with pytest.raises(InvalidRange):
        jl_threshold(100, 100, 0.1)
    with pytest.raises(InvalidRange):
        jl_threshold(100, 0, 0.1)
    with pytest.raises(InvalidRange):
        jl_threshold(100, 50, -0.1)


def test_derived_constants_frozen_values():
    gap = 40.0
    assert abs(const_c1(80, 40) - (gap + 0.5 * math.sqrt(gap))) <= 1e-12
    assert abs(const_k1(80, 40) - 2.0 * (math.sqrt(gap) + 1.0)) <= 1e-12
    assert abs(const_c2(60, 35) - math.sqrt(39.5)) <= 1e-12  # gap 25: 25 + 12.5 + 2
    assert abs(const_c3(200, 20) - (2 * math.sqrt(180) + 2 * math.sqrt(60))) <= 1e-12
    # K scaling: c1, K1 quadratic in K, c2 linear
    assert abs(const_c1(80, 40, K=2.0) - 4 * const_c1(80, 40)) <= 1e-12
    assert abs(const_k1(80, 40, K=2.0) - 4 * const_k1(80, 40)) <= 1e-12
    assert abs(const_c2(80, 40, K=2.0) - 2 * const_c2(80, 40)) <= 1e-12


def test_derived_constants_nonnegative():
    for d, s in ((10, 5), (100, 99), (64, 1)):
        assert const_c1(d, s) >= 0
        assert const_k1(d, s) >= 0
        assert const_c2(d, s) >= 0
    for n, k in ((10, 0), (10, 9), (200, 150)):
        assert const_c3(n, k) >= 0


# ------------------------------------------------------------- r-local checks

def test_check_lemma1_acceptance_scale():
    rep = check_lemma1(d=100, s=75, t=0.5, trials=500, rng=np.random.default_rng(1))
    assert rep.passed
    assert rep.empirical <= 0.05
    assert 0.4 <= rep.details["median_ratio"] <= 0.6
    exceed = rep.details["exceedance"]
    assert all(b <= a + 1e-12 for a, b in zip(exceed, exceed[1:]))
    assert rep.threshold == jl_threshold(100, 75, 0.5)


def test_check_lemma1_huge_t_has_zero_exceedance():
    # the error ratio of a projection never exceeds 1 while the threshold does
    rep = check_lemma1(d=50, s=25, t=10.0, trials=50, rng=np.random.default_rng(2))
    assert rep.empirical == 0.0


def test_check_lemma1_rejects_bad_params():
    rng = np.random.default_rng(3)
    with pytest.raises(InvalidSpec):
        check_lemma1(d=100, s=75, t=0.5, trials=0, rng=rng)
    with pytest.raises(InvalidRange):
        check_lemma1(d=100, s=100, t=0.5, trials=10, rng=rng)


def test_check_theorem1_threshold_independent_of_m():
    rep1 = check_theorem1(d=64, s=48, m=1, t=0.5, trials=60, rng=np.random.default_rng(4))
    rep8 = check_theorem1(d=64, s=48, m=8, t=0.5, trials=60, rng=np.random.default_rng(5))
    assert rep1.threshold == rep8.threshold == jl_threshold(64, 48, 0.5)


def test_check_theorem1_acceptance_scale():
    rep = check_theorem1(d=64, s=48, m=8, t=0.5, trials=300, rng=np.random.default_rng(6))
    assert rep.passed
    assert rep.empirical <= 0.05


def test_check_theorem1_m1_matches_lemma1_statistics():
    # the m = 1 case measures the same ratio as the single-vector check
    rep_l = check_lemma1(d=40, s=30, t=0.25, trials=400, rng=np.random.default_rng(7))
    rep_t = check_theorem1(d=40, s=30, m=1, t=0.25, trials=400, rng=np.random.default_rng(8))
    assert abs(rep_l.details["median_ratio"] - rep_t.details["median_ratio"]) <= 0.05


def test_check_lemma2_explicit_constants():
    rep = check_lemma2(d=80, s=40, t=2.0, trials=2000, rng=np.random.default_rng(9))
    assert rep.passed
    assert rep.bound == pytest.approx(math.exp(-2.0))
    assert rep.empirical <= math.exp(-2.0) + 0.02
    expected_thr = const_c1(80, 40) + const_k1(80, 40) * 2.0
    assert rep.threshold == pytest.approx(expected_thr)


def test_check_lemma2_t_zero_trivially_passes():
    rep = check_lemma2(d=30, s=15, t=0.0, trials=100, rng=np.random.default_rng(10))
    assert rep.bound == 1.0
    assert rep.passed


def test_check_lemma2_threshold_at_t_one():
    rep = check_lemma2(d=80, s=40, t=1.0, trials=100, rng=np.random.default_rng(11))
    gap = 40.0
    expected = (gap + 0.5 * math.sqrt(gap)) + 2.0 * (math.sqrt(gap) + 1.0)
    assert rep.threshold == pytest.approx(expected)


def test_check_theorem2_smallness_and_reduction():
    rep = check_theorem2(d=60, s=30, m=4, trials=1000, rng=np.random.default_rng(12))
    assert rep.passed
    assert rep.details["exceedance_at_t_star"] <= 0.1
    # headline at t = 2 sqrt(m K1) stays small even with the generous margin
    t_probe = 2.0 * math.sqrt(4 * const_k1(60, 30))
    rep2 = check_theorem2(d=60, s=30, m=4, t=t_probe, trials=1000,
                          rng=np.random.default_rng(13))
    assert rep2.empirical <= 0.15
    rep_m1 = check_theorem2(d=60, s=30, m=1, trials=200, rng=np.random.default_rng(14))
    assert rep_m1.passed


def test_check_lemma4_explicit_constants():
    rep = check_lemma4(n=200, d=10, k=20, t=3.0, trials=1000, rng=np.random.default_rng(15))
    assert rep.passed
    assert rep.bound == pytest.approx(min(1.0, 7.0 * math.exp(-3.0)))
    assert rep.empirical <= 7.0 * math.exp(-3.0) + 0.02
    assert rep.details["c3"] == pytest.approx(2 * math.sqrt(180) + 2 * math.sqrt(60))


def test_check_lemma4_k_zero_trivially_passes():
    # k = 0 shuffles nothing, so the forward error is exactly zero and the
    # check passes against its (capped) tail bound
    rng = np.random.default_rng(16)
    from unlabeled_sensing.permutation import apply, sample_ksparse
    y = rng.standard_normal(50)
    assert np.array_equal(apply(sample_ksparse(50, 0, rng), y), y)
    rep = check_lemma4(n=50, d=5, k=0, t=1.0, trials=200, rng=rng)
    assert rep.passed
    assert rep.empirical <= rep.bound


def test_check_lemma4_rejects_k_one():
    with pytest.raises(InvalidRange):
        check_lemma4(n=50, d=5, k=1, t=1.0, trials=10, rng=np.random.default_rng(17))


def test_check_theorem3_deterministic_corollary_and_tail():
    rep = check_theorem3(n=150, d=8, k=15, m=3, t=math.log(9.0) + 2.0, trials=500,
                         rng=np.random.default_rng(18))
    assert rep.passed
    assert rep.details["unconditional_violations"] == 0
    assert rep.empirical <= 7.0 * math.exp(-(math.log(9.0) + 2.0)) + 0.03


def test_check_theorem3_k_zero_recovers_exactly():
    rep = check_theorem3(n=40, d=5, k=0, m=2, t=math.log(4.0) + 1.0, trials=50,
                         rng=np.random.default_rng(19))
    assert rep.passed
    assert rep.empirical == 0.0


def test_check_theorem3_requires_t_above_log_m_squared():
    with pytest.raises(InvalidRange):
        check_theorem3(n=40, d=5, k=3, m=4, t=1.0, trials=10,
                       rng=np.random.default_rng(20))


# ------------------------------------------------------------- generic tails

def test_chi2_tail_check_acceptance_scale():
    rep = chi2_tail_check(D=50, t=1.0, trials=10000, rng=np.random.default_rng(21))
    assert rep.passed
    assert rep.empirical <= math.exp(-1.0) + 0.02
    assert rep.details["lower_frequency"] <= math.exp(-1.0) + 0.02


def test_chi2_tail_check_tiny_t_trivially_passes():
    rep = chi2_tail_check(D=1, t=1e-9, trials=500, rng=np.random.default_rng(22))
    assert rep.bound == pytest.approx(1.0)
    assert rep.passed


def test_worst_case_bound_orthonormal_and_alignment():
    rng = np.random.default_rng(23)
    # orthonormal columns: sigma_min = 1 and the cap is ||y||^2 - ||x_hat||^2
    Q, _ = np.linalg.qr(rng.standard_normal((12, 4)))
    x_star = rng.standard_normal(4)
    y = Q @ x_star
    x_hat = pinv_solve(Q, y)
    cap = worst_case_init_bound(Q, x_hat, y)
    assert cap == pytest.approx(float(y @ y - x_hat @ x_hat), abs=1e-9)
    assert np.sum((x_star - x_hat) ** 2) <= cap + 1e-9

    # signal aligned with the smallest singular direction makes the cap tight
    U, S, Vt = np.linalg.svd(rng.standard_normal((10, 4)), full_matrices=False)
    B = (U * S) @ Vt
    x_aligned = Vt[-1]
    y = B @ x_aligned
    x_hat = pinv_solve(B, y)
    cap = worst_case_init_bound(B, x_hat, y)
    err = float(np.sum((x_aligned - x_hat) ** 2))
    assert abs(cap - err) <= 1e-6 * max(1.0, abs(cap))


def test_worst_case_bound_random_instances_hold():
    rng = np.random.default_rng(24)
    for _ in range(100):
        B = rng.standard_normal((40, 10))
        x_star = rng.standard_normal(10)
        y = B @ x_star
        x_hat = pinv_solve(B, y)
        cap = worst_case_init_bound(B, x_hat, y)
        assert np.sum((x_star - x_hat) ** 2) <= cap + 1e-8 * max(1.0, cap)


def test_worst_case_bound_rejects_singular():
    with pytest.raises(SingularMatrix):
        worst_case_init_bound(np.zeros((3, 2)), np.zeros(2), np.zeros(3))
    # wide matrices have a nontrivial null space, so no positive cap exists
    rng = np.random.default_rng(99)
    with pytest.raises(SingularMatrix):
        worst_case_init_bound(rng.standard_normal((3, 5)), np.zeros(5), np.zeros(3))


def test_check_theorem3_wide_matrix_cap_still_holds():
    # rank-deficient domain makes the left side vanish; the cap must not break
    rep = check_theorem3(n=6, d=9, k=3, m=1, t=1.0, trials=30,
                         rng=np.random.default_rng(98))
    assert rep.details["unconditional_violations"] == 0


def test_check_worst_case_sampler():
    rep = check_worst_case(n=40, d=10, trials=100, rng=np.random.default_rng(25))
    assert rep.passed
    assert rep.details["violations"] == 0


# ------------------------------------------------------------- report plumbing

def test_bound_report_json_schema():
    rep = chi2_tail_check(D=5, t=0.5, trials=100, rng=np.random.default_rng(26))
    payload = rep.to_dict()
    for key in ("check", "params", "threshold", "bound", "empirical", "trials", "passed"):
        assert key in payload
    assert payload["trials"] == 100
    assert 0.0 <= payload["empirical"] <= 1.0


def test_binomial_margin_scale():
    assert binomial_margin(math.exp(-2.0), 2000) <= 0.03
    assert binomial_margin(0.0, 100) == 0.0
    assert binomial_margin(1.2, 100) == 0.0  # clipped into [0, 1]


def test_every_check_exceedance_monotone_on_grid():
    reports = [
        check_lemma1(d=40, s=30, t=0.5, trials=120, rng=np.random.default_rng(27)),
        check_theorem1(d=40, s=30, m=3, t=0.5, trials=120, rng=np.random.default_rng(28)),
        check_lemma2(d=40, s=20, t=1.5, trials=400, rng=np.random.default_rng(29)),
        check_theorem2(d=40, s=20, m=3, trials=400, rng=np.random.default_rng(30)),
        check_lemma4(n=60, d=6, k=10, t=2.0, trials=300, rng=np.random.default_rng(31)),
        check_theorem3(n=60, d=6, k=10, m=2, t=2.0, trials=200, rng=np.random.default_rng(32)),
        chi2_tail_check(D=20, t=1.0, trials=2000, rng=np.random.default_rng(33)),
    ]
    for rep in reports:
        grid = rep.details["t_grid"]
        exceed = rep.details["exceedance"]
        assert len(grid) >= 5
        assert all(b <= a + 1e-12 for a, b in zip(exceed, exceed[1:])), rep.check


# ------------------------------------------------------------- same reports as the reference

CHECKS = {
    "lemma1": (check_lemma1, reference_check_lemma1),
    "theorem1": (check_theorem1, reference_check_theorem1),
    "lemma2": (check_lemma2, reference_check_lemma2),
    "theorem2": (check_theorem2, reference_check_theorem2),
    "lemma4": (check_lemma4, reference_check_lemma4),
    "theorem3": (check_theorem3, reference_check_theorem3),
    "chi2": (chi2_tail_check, reference_chi2_tail_check),
}

_B = np.random.default_rng(40).standard_normal((12, 8))

SAME_REPORT_CASES = [
    ("lemma1", dict(d=100, s=75, t=0.5, trials=20)),
    ("lemma1", dict(d=50, s=25, t=10.0, trials=10)),
    ("lemma1", dict(d=20, s=10, t=0.0, trials=10)),
    ("lemma1", dict(d=30, s=20, t=0.25, trials=15, rows_per_block=3,
                    t_grid=[1.5, 0.25, 0.0])),
    ("theorem1", dict(d=64, s=48, m=8, t=0.5, trials=10)),
    ("theorem1", dict(d=40, s=30, m=1, t=0.25, trials=20, t_grid=[1.0])),
    ("lemma2", dict(d=80, s=40, t=2.0, trials=200)),
    ("lemma2", dict(d=30, s=15, t=0.0, trials=50)),
    ("lemma2", dict(d=20, s=5, t=1.0, trials=50, K=2.0)),
    ("lemma2", dict(d=8, s=6, t=1.0, trials=50, B=_B)),
    ("lemma2", dict(d=8, s=4, t=0.5, trials=50, B=_B,
                    partition=BlockPartition((1, 2, 4, 5)))),
    ("theorem2", dict(d=60, s=30, m=4, trials=100)),
    ("theorem2", dict(d=30, s=10, m=1, trials=40, t=0.0)),
    ("theorem2", dict(d=8, s=3, m=2, trials=40, t=3.0, K=2.0, B=_B[:3])),
    ("lemma4", dict(n=200, d=10, k=20, t=3.0, trials=30)),
    ("lemma4", dict(n=50, d=5, k=0, t=1.0, trials=20)),
    ("lemma4", dict(n=30, d=4, k=5, t=0.0, trials=20)),
    ("theorem3", dict(n=150, d=8, k=15, m=3, t=math.log(9.0) + 2.0, trials=10)),
    ("theorem3", dict(n=40, d=5, k=0, m=2, t=math.log(4.0) + 1.0, trials=10)),
    ("theorem3", dict(n=6, d=9, k=3, m=1, t=1.0, trials=10)),
    ("chi2", dict(D=50, t=1.0, trials=500)),
    ("chi2", dict(D=1, t=1e-9, trials=100)),
    ("chi2", dict(D=5, t=0.0, trials=100)),
]

BAD_PARAM_CASES = [
    ("lemma1", dict(d=40, s=30, t=0.5, trials=0)),
    ("lemma1", dict(d=40, s=40, t=0.5, trials=5)),
    ("lemma1", dict(d=40, s=30, t=-0.5, trials=5)),
    ("theorem1", dict(d=40, s=30, m=0, t=0.5, trials=5)),
    ("lemma2", dict(d=30, s=15, t=-1.0, trials=5)),
    ("lemma2", dict(d=9, s=6, t=1.0, trials=5, B=_B)),
    ("lemma2", dict(d=8, s=5, t=1.0, trials=5, B=_B)),
    ("lemma2", dict(d=8, s=4, t=1.0, trials=5, B=_B, partition=BlockPartition((4, 4, 4)))),
    ("theorem2", dict(d=30, s=15, m=2, trials=5, t=-1.0)),
    ("theorem2", dict(d=8, s=4, m=0, trials=5)),
    ("lemma4", dict(n=50, d=5, k=1, t=1.0, trials=5)),
    ("lemma4", dict(n=50, d=5, k=5, t=-1.0, trials=5)),
    ("theorem3", dict(n=40, d=5, k=3, m=4, t=1.0, trials=5)),
    ("theorem3", dict(n=20, d=4, k=5, m=0, t=3.0, trials=5)),
    ("chi2", dict(D=0, t=1.0, trials=5)),
]


def _case_id(case):
    name, params = case
    return name + "-" + "-".join(f"{k}={v}" for k, v in params.items() if k not in ("B", "partition"))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name,params", SAME_REPORT_CASES,
                         ids=[_case_id(c) for c in SAME_REPORT_CASES])
def test_check_reports_match_reference(name, params, seed):
    # same floats bit for bit (json writes each float's shortest round-trip
    # repr); only the key order inside ``details`` may differ
    check, reference = CHECKS[name]
    new = json.loads(json.dumps(check(rng=np.random.default_rng(seed), **params).to_dict()))
    ref = json.loads(json.dumps(reference_report_dict(
        reference(rng=np.random.default_rng(seed), **params))))
    assert json.dumps(new, sort_keys=True) == json.dumps(ref, sort_keys=True)


@pytest.mark.parametrize("name,params", BAD_PARAM_CASES,
                         ids=[_case_id(c) for c in BAD_PARAM_CASES])
def test_check_errors_match_reference(name, params):
    check, reference = CHECKS[name]
    with pytest.raises(Exception) as ref_exc:
        reference(rng=np.random.default_rng(0), **params)
    with pytest.raises(type(ref_exc.value)) as new_exc:
        check(rng=np.random.default_rng(0), **params)
    assert type(new_exc.value) is type(ref_exc.value)
    assert str(new_exc.value) == str(ref_exc.value)


# The reference takes any K, and at s = 0 it fails with an untyped error or one
# about its internal partition, so these cases are checked here and not in
# BAD_PARAM_CASES.
_SCALE_CHECKS = {"lemma2": (check_lemma2, dict(d=8, s=4, t=1.0, trials=5)),
                 "theorem2": (check_theorem2, dict(d=8, s=4, m=2, trials=5))}


@pytest.mark.parametrize("name", sorted(_SCALE_CHECKS))
@pytest.mark.parametrize("K", [-1.0, 0.0, math.nan, math.inf, 1e200])
def test_lemma2_and_theorem2_refuse_a_bad_scale_before_any_draw(name, K):
    check, params = _SCALE_CHECKS[name]
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # 1e200 squared would overflow in the draws
        with pytest.raises(InvalidRange, match=r"need K > 0 with K\^2 \(d - s\) finite"):
            check(rng=rng, **params, K=K)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("name", sorted(_SCALE_CHECKS))
@pytest.mark.parametrize("B", [None, _B[:4]], ids=["drawn B", "given B"])
def test_lemma2_and_theorem2_refuse_s_zero(name, B):
    check, params = _SCALE_CHECKS[name]
    with pytest.raises(InvalidRange) as exc:
        check(rng=np.random.default_rng(0), **{**params, "s": 0}, B=B)
    assert str(exc.value) == "need 0 < s < d, got s=0, d=8"


@pytest.mark.parametrize("name", sorted(_SCALE_CHECKS))
@pytest.mark.parametrize("s", [8, 9], ids=["s-equals-d", "s-past-d"])
def test_lemma2_and_theorem2_refuse_s_at_or_past_d_before_any_draw(name, s):
    check, params = _SCALE_CHECKS[name]
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(InvalidRange, match=f"need 0 <= s < d, got s={s}, d=8"):
        check(rng=rng, **{**params, "s": s})
    assert rng.bit_generator.state == state


def test_worst_case_refuses_fewer_rows_than_columns_before_any_draw():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(InvalidRange, match="need n >= d for full column rank, got n=5, d=10"):
        check_worst_case(n=5, d=10, trials=3, rng=rng)
    assert rng.bit_generator.state == state


# The reference takes these values too: rows_per_block = 0 ends in an error
# about an empty partition and a negative t_grid entry is reported as a point
# of the tail, so these cases are checked here and not in BAD_PARAM_CASES.
_RLOCAL_CHECKS = {"lemma1": (check_lemma1, dict(d=10, s=5, t=0.5, trials=3)),
                  "theorem1": (check_theorem1, dict(d=10, s=5, m=2, t=0.5, trials=3))}


@pytest.mark.parametrize("name", sorted(_RLOCAL_CHECKS))
@pytest.mark.parametrize("bad,message", [
    ({"rows_per_block": 0}, "rows_per_block must be >= 1, got 0"),
    ({"rows_per_block": -2}, "rows_per_block must be >= 1, got -2"),
    ({"t_grid": [-5.0, 3.0]}, r"t_grid entries must be finite and >= 0, got \[-5.0, 3.0\]"),
    ({"t_grid": [0.5, math.inf]}, r"t_grid entries must be finite and >= 0, got \[0.5, inf\]"),
    ({"t_grid": [math.nan]}, r"t_grid entries must be finite and >= 0, got \[nan\]"),
], ids=["rows-0", "rows-minus-2", "negative-t", "infinite-t", "nan-t"])
def test_lemma1_and_theorem1_refuse_a_bad_block_size_or_grid_before_any_draw(name, bad,
                                                                             message):
    check, params = _RLOCAL_CHECKS[name]
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(InvalidRange, match=message):
        check(rng=rng, **params, **bad)
    assert rng.bit_generator.state == state
