"""Moment oracles, report plumbing, and the verification suites."""

import csv
import dataclasses
import inspect
import io
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbm import verify
from qbm.process import GeometricGrid, simulate_batch
from qbm.qcore import QContext
from qbm.verify import (
    CHECKS,
    CSV_HEADER,
    McEstimate,
    VerificationReport,
    kurtosis_ratio,
    oracle_EZ2,
    oracle_EZ4,
    oracle_increment_4th,
    reports_to_csv,
    run_convergence_suite,
    run_identity_suite,
    run_mc_suite,
    run_quadrature_suite,
)

HALF = Fraction(1, 2)

rational_q = st.fractions(
    min_value=Fraction(1, 10), max_value=Fraction(9, 10), max_denominator=10
)


def test_ez2_frozen():
    # r = 0 gives 1; r = 1, q = 1/2 gives 4/7; r = 1/2, q = 4/5 gives 5/9
    assert oracle_EZ2(0, HALF) == 1
    assert oracle_EZ2(1, HALF) == Fraction(4, 7)
    assert oracle_EZ2(2, HALF) == Fraction(16, 31)
    assert oracle_EZ2(Fraction(1, 2), Fraction(4, 5)) == Fraction(5, 9)


def test_ez4_frozen():
    assert oracle_EZ4(0, HALF) == Fraction(5, 2)
    # at r = 0 the fourth moment is 2 + q for any q
    for q in (Fraction(1, 5), Fraction(2, 3), Fraction(9, 10)):
        assert oracle_EZ4(0, q) == 2 + q


def test_ez2_rejects_negative_exponent():
    with pytest.raises(ValueError):
        oracle_EZ2(-1, HALF)
    with pytest.raises(ValueError):
        oracle_EZ4(-2, HALF)


def test_increment_4th_oracle():
    q = HALF
    s, t = Fraction(1, 2), Fraction(1)
    assert oracle_increment_4th(s, t, q) == (t - s) * ((q + 2) * t - 3 * q * s)
    assert oracle_increment_4th(0, 1, q) == 2 + q


@given(q=rational_q, r=st.integers(min_value=0, max_value=4))
@settings(max_examples=40, deadline=None)
def test_kurtosis_ratio_consistent_with_moments(q, r):
    assert kurtosis_ratio(r, q) == oracle_EZ4(r, q) / oracle_EZ2(r, q) ** 2


def test_kurtosis_ratio_moves_with_r():
    assert kurtosis_ratio(0, 0.5) != kurtosis_ratio(1, 0.5)
    assert kurtosis_ratio(0, HALF) == 2 + HALF


@pytest.mark.parametrize("r", [-1, -2, -0.5, Fraction(-1, 3)])
def test_kurtosis_ratio_rejects_negative_exponent(r):
    # as oracle_EZ2 and oracle_EZ4 do; r = -1 used to divide by zero and
    # r = -2 to return a negative kurtosis
    with pytest.raises(ValueError, match="nonnegative"):
        kurtosis_ratio(r, 0.5)
    with pytest.raises(ValueError, match="nonnegative"):
        kurtosis_ratio(r, HALF)


def test_mc_estimate_validation():
    with pytest.raises(ValueError):
        McEstimate(estimate=1.0, std_error=0.0, n_paths=10, seed=1, oracle=1.0)
    est = McEstimate(estimate=1.2, std_error=0.1, n_paths=10, seed=1, oracle=1.0)
    assert est.z == pytest.approx(2.0)


def test_report_csv_shape():
    est = McEstimate(estimate=1.2, std_error=0.1, n_paths=10, seed=1, oracle=1.0)
    rep = VerificationReport(
        name="demo", params={"q": 0.5}, passed=True, tolerance=4.0, kind="mc",
        estimate=est,
    )
    text = reports_to_csv([rep])
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == CSV_HEADER
    assert rows[1][0] == "demo"
    assert json.loads(rows[1][1]) == {"q": 0.5}
    assert float(rows[1][3]) == pytest.approx(1.2)
    assert rows[1][6] == "True"


def test_report_json_roundtrip_fields():
    rep = VerificationReport(
        name="demo", params={"q": 0.5}, passed=False, tolerance=0.0, kind="exact",
        residual=0.25,
    )
    d = rep.to_json_dict()
    assert d["name"] == "demo" and d["residual"] == 0.25 and d["estimate"] is None


def test_registry_names_stable():
    assert [name for name, suite in CHECKS.items() if suite == "mc"] == [
        "isometry", "ez2", "ez4", "increment-4th", "cross-22", "cross-13",
        "stoch-exp-mean", "variance-horizon", "hermite-increment-2nd",
        "increment-orthogonality",
    ]


def test_off_grid_time_rejected():
    grid = GeometricGrid.build(q=0.5, t=1.0)
    assert verify._grid_index(grid, 0.25) == 2
    with pytest.raises(ValueError, match="not on the geometric grid"):
        verify._grid_index(grid, 0.3)


def test_mc_moment_deterministic():
    a = run_mc_suite(n_paths=4000, seed=5, only={"variance-horizon", "ez4"})
    b = run_mc_suite(n_paths=4000, seed=5, only={"variance-horizon", "ez4"})
    assert [r.to_json_dict() for r in a] == [r.to_json_dict() for r in b]


def test_mc_isometry_small_run():
    reps = run_mc_suite(n_paths=4000, seed=8, only={"isometry"})
    (rep,) = [r for r in reps if r.params["q"] == 0.5 and r.params["degree"] == 1]
    assert rep.passed
    assert rep.estimate.oracle == pytest.approx(2.0 / 3.0)
    assert rep.params["truncation_bias_bound"] < 1e-4


def test_identity_suite_filter():
    reps = run_identity_suite(only={"recurrence", "kurtosis-r0"})
    assert len(reps) == 6
    assert all(r.passed and r.residual == 0.0 for r in reps)
    assert {r.name for r in reps} == {"recurrence", "kurtosis-r0"}


def test_kurtosis_varies_fails_when_the_ratio_is_constant(monkeypatch):
    # the failing form of the check: a ratio that does not move with r
    monkeypatch.setattr(verify, "kurtosis_ratio", lambda r, q: 3)
    (rep,) = run_identity_suite(qs=(HALF,), only={"kurtosis-varies"})
    assert rep.passed is False and rep.residual == 1.0 and rep.kind == "exact"
    assert rep.tolerance == 0.0 and rep.params == {"q": "1/2"}


def test_quadrature_suite_filter():
    reps = run_quadrature_suite(only={"variance"}, ts=(1.0,), qs=(0.5,))
    assert len(reps) == 1
    assert reps[0].passed


def test_sampler_bias_report():
    (rep,) = run_quadrature_suite(only={"sampler-bias"}, qs=(0.5,))
    assert rep.passed and rep.kind == "quadrature" and rep.tolerance == verify.SAMPLER_TOL == 1e-6
    assert rep.residual == max(rep.params["variance_error"], rep.params["mean_error"])
    assert len(rep.params["states"]) == 6


@pytest.mark.parametrize("q", [0.95, 0.99])
def test_sampler_bias_holds_near_the_classical_limit(q):
    # the quadrature suite covers q = 0.2, 0.5 and 0.8; these tables take
    # longer to build
    _, var_err, mean_err = verify.sampler_bias(q)
    assert var_err <= verify.SAMPLER_TOL and mean_err <= verify.SAMPLER_TOL


def test_sampler_bias_quadrature_is_exact():
    # five points per knot interval are exact for the draws' second moments:
    # seven give the same figures, far inside a tenth of the gate
    five, seven = verify.sampler_bias(0.8), verify.sampler_bias(0.8, points=7)
    assert abs(five[1] - seven[1]) <= 1e-13 and abs(five[2] - seven[2]) <= 1e-13


def test_sampler_bias_sees_the_blend_loss(monkeypatch):
    # without the variance the blend of two rows loses, the draws between
    # the two rows at the edge miss the gate at q = 0.8
    table = verify.scaled_transition_table(0.8)
    lossless = dataclasses.replace(table, blend_loss=np.zeros_like(table.blend_loss))
    monkeypatch.setattr(verify, "scaled_transition_table", lambda q: lossless)
    _, var_err, mean_err = verify.sampler_bias(0.8)
    assert var_err > 2e-6 and mean_err <= verify.SAMPLER_TOL


def test_mc_suite_filter_and_threshold():
    reps = run_mc_suite(n_paths=4000, seed=3, only={"variance-horizon"})
    assert len(reps) == 3
    assert all(r.kind == "mc" for r in reps)
    # an absurdly small threshold fails even after the single rerun
    reps = run_mc_suite(n_paths=4000, seed=3, threshold=1e-6, only={"variance-horizon"})
    assert all(not r.passed and r.params.get("reran") for r in reps)
    # the rerun batch starts where the first ended, so no path is reused
    assert all(r.estimate.seed == 3 + 4000 for r in reps)


def test_mc_suite_rejects_a_single_path():
    with pytest.raises(ValueError, match="at least 2 paths"):
        run_mc_suite(n_paths=1, only={"variance-horizon"})


def test_mc_chunks_merge_to_the_one_chunk_run(monkeypatch):
    whole = run_mc_suite(n_paths=3001, seed=4)
    # three chunks of 1000 paths and a last chunk of one path
    monkeypatch.setattr(verify, "MC_CHUNK", 1000)
    chunked = run_mc_suite(n_paths=3001, seed=4)
    assert len(chunked) == len(whole) == 31
    for a, b in zip(whole, chunked):
        assert (a.name, a.params, a.passed) == (b.name, b.params, b.passed)
        assert (a.estimate.seed, a.estimate.n_paths) == (b.estimate.seed, b.estimate.n_paths)
        assert b.estimate.estimate == pytest.approx(a.estimate.estimate, rel=1e-13, abs=0.0)
        assert b.estimate.std_error == pytest.approx(a.estimate.std_error, rel=1e-13, abs=0.0)


#: each suite at a small size; only= passes through
SMALL_SUITES = {
    "identities": lambda only=None: run_identity_suite(qs=(Fraction(1, 2),), only=only),
    "quadrature": lambda only=None: run_quadrature_suite(only=only, qs=(0.2,), ts=(1.0,)),
    "mc": lambda only=None: run_mc_suite(n_paths=200, seed=1, only=only),
    "convergence": lambda only=None: run_convergence_suite(
        qs=(0.5,), depths=(5, 10), n_paths=1, n_polys=1, only=only
    ),
}


def test_registry_matches_emitted_names():
    for suite, run in SMALL_SUITES.items():
        reports = run()
        emitted = list(dict.fromkeys(r.name for r in reports))
        assert emitted == [name for name, owner in CHECKS.items() if owner == suite]
        for name in emitted:
            # only= selects exactly the reports of that name, unchanged
            picked = [r.to_json_dict() for r in run({name})]
            assert picked == [r.to_json_dict() for r in reports if r.name == name]
        others = {name for name, owner in CHECKS.items() if owner != suite}
        assert run(others) == []


def test_unknown_names_rejected_by_suites():
    for run in SMALL_SUITES.values():
        with pytest.raises(ValueError, match="unknown check 'typo'"):
            run({"typo"})
    with pytest.raises(ValueError, match="unknown check 'cond-moments'"):
        run_quadrature_suite(only={"cond-moments"})


def test_rounding_scale_rows_match_single_path_form():
    # reference: the scale summed along one path at a time
    def one_path(parts, path, q):
        xs = np.abs(np.asarray(path.values, dtype=float))
        ts = np.asarray(path.grid.times, dtype=float)
        fa, da, sa = parts
        steps = (1.0 - q) * ts[:-1] * (da(xs[1:], ts[:-1]) + sa(xs[1:], ts[:-1]))
        return float(3.0 * np.sum(fa(xs, ts)) + fa(0.0, 0.0) + np.sum(steps))

    rng = np.random.default_rng(3)
    for q, K in ((0.5, 20), (0.8, 80)):
        ctx = QContext.numeric(q)
        parts = verify._abs_parts(verify._random_qpolynomial(rng, 6, 2), ctx)
        batch = simulate_batch(GeometricGrid.build(q=q, t=1.0, depth=K), 20, 7, ctx)
        scales = verify._rounding_scale(parts, batch, q)
        assert scales.tolist() == [one_path(parts, path, q) for path in batch]


def _convergence_on_cancelling_path():
    # polynomial 7 of default_rng(2024) on the path seeded 2024 + 7000 at
    # q = 0.8, K = 40, where terms up to 0.59 cancel to a residual of 3.8e-3
    # and the float residual misses the boundary form by 1.3e-14
    rng = np.random.default_rng(2024)
    p = [verify._random_qpolynomial(rng, 6, 2) for _ in range(8)][7]
    ctx = QContext.numeric(0.8)
    batch = simulate_batch(GeometricGrid.build(q=0.8, t=1.0, depth=40), 1, 2024 + 7000, ctx)
    return verify._ito_checks(p, verify._abs_parts(p, ctx), batch, ctx)


def test_convergence_allowance_covers_rounding_on_cancelling_path():
    boundary, bound, ok = _convergence_on_cancelling_path()
    assert ok and np.all(boundary <= bound)


def test_convergence_rejects_shifted_second_order_term(monkeypatch):
    good = _convergence_on_cancelling_path()
    exact = verify.ito_decompose_batch

    def shifted(f, batch, ctx):
        dec = exact(f, batch, ctx)
        second = dec.second_order_term + 1e-9
        residual = np.abs(dec.lhs - (dec.gradient_term + dec.drift_term + second))
        return dataclasses.replace(dec, second_order_term=second, residual=residual)

    def suite():
        return run_convergence_suite(
            qs=(0.8,), depths=(40,), n_paths=1, n_polys=1, seed=2024, only={"ito-convergence"}
        )

    (good_report,) = suite()
    monkeypatch.setattr(verify, "ito_decompose_batch", shifted)
    bad = _convergence_on_cancelling_path()
    # the boundary forms and bounds are unchanged; only the decomposition is off
    assert bad[0].tolist() == good[0].tolist() and bad[1] == good[1]
    assert good[2] and not bad[2]
    # and the suite's report fails on that check alone
    (bad_report,) = suite()
    assert bad_report.params == good_report.params
    assert good_report.passed and not bad_report.passed


def test_convergence_suite_draws_one_deep_batch_per_q(monkeypatch):
    calls = []

    def spy(grid, n_paths, base_seed, ctx=None):
        calls.append((grid.q, grid.K, n_paths, base_seed))
        return simulate_batch(grid, n_paths, base_seed, ctx)

    monkeypatch.setattr(verify, "simulate_batch", spy)
    reports = run_convergence_suite(qs=(0.5,), depths=(5, 10), n_paths=3, n_polys=2, seed=9)
    # one 6-path batch at the deepest depth, then 5 fresh paths per depth
    assert calls == [(0.5, 10, 6, 9), (0.5, 5, 5, 9), (0.5, 10, 5, 9)]
    assert [r.name for r in reports] == ["ito-convergence", "sde-residual"]
    # polynomial i's residuals at depth K are rows 3 i .. 3 i + 2 of the deep
    # batch restricted to K, in polynomial order
    rng = np.random.default_rng(9)
    polys = [verify._random_qpolynomial(rng, 6, 2) for _ in range(2)]
    deep = simulate_batch(GeometricGrid.build(q=0.5, t=1.0, depth=10), 6, 9)
    for K, mean in zip((5, 10), reports[0].params["mean_residuals"]):
        vals = deep.values[:, K]
        residuals = [abs(float(polys[i // 3](vals[i], 0.5**K)) - float(polys[i // 3](0.0, 0.0)))
                     for i in range(6)]
        assert mean == pytest.approx(sum(residuals) / 6, rel=1e-12)
    # the seed count the command line reserves follows the suite's defaults
    defaults = inspect.signature(run_convergence_suite).parameters
    assert verify.CONVERGENCE_SEEDS == defaults["n_paths"].default * defaults["n_polys"].default
    assert verify.SDE_PATHS <= verify.CONVERGENCE_SEEDS


@pytest.mark.parametrize(
    "kwargs",
    [
        {"depths": ()},
        {"depths": (40, 20)},
        {"depths": (20, 20)},
        {"depths": (0, 10)},
        {"depths": (-1,)},
        {"n_paths": 0},
        {"n_polys": 0},
    ],
)
def test_convergence_suite_rejects_bad_inputs(kwargs):
    message = "depths must be" if "depths" in kwargs else "n_paths and n_polys must be"
    with pytest.raises(ValueError, match=message):
        run_convergence_suite(**{"qs": (0.5,), "n_paths": 1, "n_polys": 1, **kwargs})


@pytest.mark.parametrize("seed", range(29, 34))
def test_sde_residual_passes_where_nested_paths_fail(seed):
    # with one nested path per j, q = 0.8 fails at these seeds: a single path's
    # residual need not shrink (seed 33: 4.8e-3 at K = 20, 7.4e-3 at K = 40),
    # so the check draws a fresh batch per depth
    reports = run_convergence_suite(only={"sde-residual"}, seed=seed)
    assert [r.params["q"] for r in reports] == [0.5, 0.8]
    assert all(r.passed for r in reports)
