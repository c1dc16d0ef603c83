"""GP engine against independent linear-algebra oracles."""

from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

import oracles
from bathysurvey import gp
from bathysurvey.errors import ConfigError, EmptyModelError, FactorizationError
from bathysurvey.gp import (
    DEFAULT_BOUNDS,
    GpModel,
    HyperParams,
    benchmark_prediction,
    extend_cholesky,
    kernel,
    kernel_matrix,
    op_count,
    optimize_hypers,
)

H = HyperParams(2.0, 0.05, 8.0)


def _random_model(rng, n, hypers=H, subtract_mean=False, chunks=True):
    x = rng.uniform(-40.0, 40.0, (n, 2))
    y = oracles.sample_gp(rng, x, hypers.sigma_f2, hypers.sigma_n2, hypers.length_scale)
    model = GpModel(hypers, subtract_mean=subtract_mean)
    if chunks:
        i = 0
        while i < n:
            m = int(rng.integers(1, 8))
            model.append(x[i : i + m], y[i : i + m])
            i += m
    else:
        model.append(x, y)
    return model, x, y


def test_kernel_matches_pointwise_formula():
    rng = np.random.default_rng(0)
    a = rng.uniform(-5, 5, (7, 2))
    b = rng.uniform(-5, 5, (4, 2))
    k = kernel_matrix(a, b, H)
    ref = oracles.se_matrix(a, b, H.sigma_f2, H.length_scale)
    assert np.allclose(k, ref, atol=1e-14)
    assert kernel(a[0], b[0], H) == pytest.approx(ref[0, 0], abs=1e-14)


def test_incremental_factor_matches_scratch():
    rng = np.random.default_rng(1)
    for _ in range(10):
        model, x, y = _random_model(rng, int(rng.integers(20, 80)))
        k_ref = oracles.noisy_kernel(x, H.sigma_f2, H.sigma_n2, H.length_scale)
        l_ref = oracles.upper_cholesky(k_ref)
        assert np.abs(model.K_y - k_ref).max() < 1e-12
        assert np.abs(model.L - l_ref).max() < 1e-10


def test_predictions_match_explicit_inverse():
    rng = np.random.default_rng(2)
    model, x, y = _random_model(rng, 60)
    q = rng.uniform(-50.0, 50.0, (25, 2))
    pred = model.predict(q)
    mean_ref, var_ref = oracles.gp_predict(x, y, q, H.sigma_f2, H.sigma_n2, H.length_scale)
    assert np.abs(pred.mean - mean_ref).max() < 1e-8
    assert np.abs(pred.variance - var_ref).max() < 1e-8
    assert np.allclose(pred.std, np.sqrt(pred.variance))


def test_variance_tends_to_noisy_prior_far_from_data():
    rng = np.random.default_rng(3)
    model, _, _ = _random_model(rng, 30)
    far = np.array([[1e4, 1e4]])
    pred = model.predict(far)
    assert pred.variance[0] == pytest.approx(H.sigma_f2 + H.sigma_n2, rel=1e-9)


def test_predict_mean_agrees_with_predict():
    rng = np.random.default_rng(4)
    model, _, _ = _random_model(rng, 50)
    q = rng.uniform(-60.0, 60.0, (40, 2))
    assert np.abs(model.predict_mean(q) - model.predict(q).mean).max() < 1e-10


def test_lml_and_gradient_match_oracles():
    rng = np.random.default_rng(5)
    for _ in range(5):
        model, x, y = _random_model(rng, 20)
        rep = model.log_marginal_likelihood()
        assert rep.lml == pytest.approx(
            oracles.log_marginal(x, y, H.sigma_f2, H.sigma_n2, H.length_scale), rel=1e-9
        )
        fd = oracles.fd_gradient(x, y, H.as_array())
        rel = np.abs(rep.gradient - fd) / np.maximum(np.abs(fd), 1e-8)
        assert rel.max() < 1e-4


def _track_model():
    # soundings 1 m apart along a circular track, with the noise and length
    # scale that mission fits settle at, centred by the model
    rng = np.random.default_rng(14)
    s = np.arange(300.0)
    x = np.column_stack([250.0 + 50.0 * np.cos(s / 50.0), 200.0 + 50.0 * np.sin(s / 50.0)])
    mound = 1.5 * np.exp(-((x[:, 0] - 230.0) ** 2 + (x[:, 1] - 170.0) ** 2) / 800.0)
    y = 4.5 + 0.01 * x[:, 0] - 0.005 * x[:, 1] + mound + 0.05 * rng.standard_normal(300)
    h = HyperParams(1.0, 0.0025, 70.0)
    model = GpModel(h, subtract_mean=True)
    model.append(x, y)
    return model, x, y, h


def _count_starts(monkeypatch):
    """Record the objective values of every L-BFGS-B run optimize_hypers makes."""
    runs = []

    def counting(fun, x0, **kwargs):
        values = []
        runs.append(values)

        def recorded(log_theta):
            value, grad = fun(log_theta)
            values.append(value)
            return value, grad

        return minimize(recorded, x0, **kwargs)

    monkeypatch.setattr(gp, "minimize", counting)
    return runs


def test_lml_gradient_in_mission_regime():
    # K_y is ill-conditioned in this regime and the sigma_f2 gradient is a
    # difference of two large scalars
    model, x, y, h = _track_model()
    rep = model.log_marginal_likelihood()
    fd = oracles.fd_gradient(x, y - y.mean(), h.as_array())
    assert (np.abs(rep.gradient - fd) / np.abs(fd)).max() < 1e-4


def _moment_fit(model, x, y):
    lo, hi = np.array(DEFAULT_BOUNDS, dtype=float).T
    start = gp._moment_start(x, y - y.mean(), lo, hi)
    return optimize_hypers(model, initial=HyperParams.from_array(start))


def test_converged_warm_start_runs_one_start(monkeypatch):
    model, x, y, _ = _track_model()
    moment = _moment_fit(model, x, y)
    runs = _count_starts(monkeypatch)
    fit = optimize_hypers(model)
    assert fit.converged
    assert len(runs) == 1
    assert fit.n_evals == len(runs[0])
    # the one start reaches what the data-moment start would have
    assert fit.lml >= moment.lml - 1e-6 * abs(moment.lml)


def test_cut_off_warm_start_also_runs_the_moment_start(monkeypatch):
    model, _, _, _ = _track_model()
    runs = _count_starts(monkeypatch)
    with pytest.warns(RuntimeWarning, match="hyper fit stopped early"):
        fit = optimize_hypers(model, max_iter=1)
    assert len(runs) == 2
    # the objective is the negated likelihood
    assert fit.lml >= -min(runs[0])
    assert fit.lml == -min(runs[0] + runs[1])


def test_warm_start_on_the_trend_ridge_also_runs_the_moment_start(monkeypatch):
    # a contour-phase snapshot whose previous fit put the length scale far
    # beyond the data's extent; from there L-BFGS-B converges on the ridge
    # about 11.7 nats below the optimum the data-moment start reaches
    path = Path(__file__).parent / "data" / "trend_ridge_track.csv"
    data = np.loadtxt(path, delimiter=",")
    x, y = data[:, :2], data[:, 2]
    model = GpModel(HyperParams(53.8683, 0.00043214, 909.8566), subtract_mean=True)
    model.append(x, y)
    moment = _moment_fit(model, x, y)
    runs = _count_starts(monkeypatch)
    fit = optimize_hypers(model)
    assert fit.converged
    assert len(runs) == 2
    assert -min(runs[0]) < moment.lml - 10.0
    assert fit.lml >= moment.lml - 1e-6 * abs(moment.lml)
    assert fit.hypers.length_scale < np.ptp(x, axis=0).max()


def test_fit_never_degrades_lml_and_respects_bounds():
    rng = np.random.default_rng(6)
    model, _, _ = _random_model(rng, 60)
    before = model.log_marginal_likelihood().lml
    fit = optimize_hypers(model)
    assert fit.lml >= before - 1e-9
    for val, (lo, hi) in zip(fit.hypers.as_array(), DEFAULT_BOUNDS):
        assert lo <= val <= hi
    # applying the fit reproduces the reported likelihood
    model.set_hypers(fit.hypers)
    assert model.log_marginal_likelihood().lml == pytest.approx(fit.lml, rel=1e-9)


def test_fit_escapes_noise_floor_start():
    # a warm start parked in the pure-noise optimum must not trap the fit
    rng = np.random.default_rng(7)
    truth = HyperParams(4.0, 0.01, 10.0)
    x = rng.uniform(-30.0, 30.0, (120, 2))
    y = oracles.sample_gp(rng, x, truth.sigma_f2, truth.sigma_n2, truth.length_scale)
    stuck = HyperParams(1e-6, float(np.var(y)), 1e6)
    model = GpModel(stuck)
    model.append(x, y)
    fit = optimize_hypers(model)
    assert fit.hypers.sigma_f2 > 0.1 * truth.sigma_f2
    assert fit.lml > model.log_marginal_likelihood().lml + 1.0


def test_recovers_known_hypers_single_seed():
    rng = np.random.default_rng(11)
    truth = HyperParams(4.0, 0.01, 10.0)
    x = rng.uniform(-50.0, 50.0, (200, 2))
    y = oracles.sample_gp(rng, x, truth.sigma_f2, truth.sigma_n2, truth.length_scale)
    model = GpModel(HyperParams(1.0, 0.1, 5.0))
    model.append(x, y)
    fit = optimize_hypers(model)
    assert abs(np.sqrt(fit.hypers.sigma_f2) - 2.0) < 0.3 * 2.0
    assert abs(fit.hypers.length_scale - 10.0) < 0.3 * 10.0


def test_snapshot_isolated_from_later_appends():
    rng = np.random.default_rng(8)
    model, x, y = _random_model(rng, 20)
    st = model.snapshot()
    n0, l0 = st.n, st.L.copy()
    model.append(rng.uniform(-40, 40, (5, 2)), rng.normal(0, 1, 5))
    assert st.n == n0
    assert np.array_equal(st.L, l0)
    assert model.n == n0 + 5


def test_subtract_mean_extrapolates_to_data_mean():
    rng = np.random.default_rng(9)
    x = rng.uniform(0.0, 10.0, (30, 2))
    y = 5.0 + 0.01 * rng.standard_normal(30)
    model = GpModel(H, subtract_mean=True)
    model.append(x, y)
    far = model.predict_mean(np.array([[500.0, 500.0]]))[0]
    assert far == pytest.approx(y.mean(), abs=1e-6)
    # plain model falls back to zero instead
    plain = GpModel(H)
    plain.append(x, y)
    assert abs(plain.predict_mean(np.array([[500.0, 500.0]]))[0]) < 1e-6


def test_set_hypers_matches_fresh_model():
    rng = np.random.default_rng(10)
    model, x, y = _random_model(rng, 40)
    h2 = HyperParams(1.0, 0.02, 15.0)
    model.set_hypers(h2)
    fresh = GpModel(h2)
    fresh.append(x, y)
    q = rng.uniform(-40, 40, (10, 2))
    assert np.abs(model.predict(q).mean - fresh.predict(q).mean).max() < 1e-9
    assert np.abs(model.predict(q).variance - fresh.predict(q).variance).max() < 1e-9


def test_input_validation():
    model = GpModel()
    with pytest.raises(EmptyModelError):
        model.predict(np.zeros((1, 2)))
    with pytest.raises(EmptyModelError):
        model.log_marginal_likelihood()
    with pytest.raises(EmptyModelError):
        optimize_hypers(model)
    with pytest.raises(ConfigError):
        model.append(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ConfigError):
        model.append(np.array([[0.0, np.nan]]), np.array([1.0]))
    with pytest.raises(ConfigError):
        HyperParams(-1.0, 0.1, 1.0)
    model.append(np.zeros((1, 2)), np.ones(1))
    with pytest.raises(ConfigError):
        model.predict(np.zeros((1, 3)))


def test_jitter_retry_on_near_duplicate_points(monkeypatch):
    # three co-located points with noise below rounding make K_y exactly
    # singular, so every factorization of them needs the jitter retry
    extend, failures = gp._extend_blocks, []

    def counted(*args):
        try:
            return extend(*args)
        except FactorizationError:
            failures.append(args[1].shape)
            raise

    monkeypatch.setattr(gp, "_extend_blocks", counted)
    model = GpModel(HyperParams(1.0, 1e-17, 10.0))
    pts = np.zeros((3, 2))
    model.append(pts[:1], np.array([2.0]))
    model.append(pts[1:], np.array([2.0, 2.0]))
    assert model.n == 3 and failures == [(1, 2)]
    assert np.isfinite(model.predict(np.array([[1.0, 1.0]])).mean).all()
    # a hyper swap refactors the same points through the same retry
    h2 = HyperParams(1.0, 1e-17, 5.0)
    model.set_hypers(h2)
    fresh = GpModel(h2)
    fresh.append(pts, np.array([2.0, 2.0, 2.0]))
    assert failures == [(1, 2), (0, 3), (0, 3)]
    q = np.array([[1.0, 1.0], [0.0, 3.0]])
    assert np.array_equal(model.L, fresh.L)
    assert np.array_equal(model.predict(q).mean, fresh.predict(q).mean)


def test_extend_cholesky_standalone():
    rng = np.random.default_rng(12)
    x = rng.uniform(-10, 10, (12, 2))
    k = oracles.noisy_kernel(x, H.sigma_f2, H.sigma_n2, H.length_scale)
    fac = oracles.upper_cholesky(k[:8, :8])
    out = extend_cholesky(fac, k[:8, 8:], k[8:, 8:])
    assert np.abs(out - oracles.upper_cholesky(k)).max() < 1e-10
    with pytest.raises(FactorizationError):
        extend_cholesky(fac, k[:8, 8:], -np.eye(4))


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    model, _, _ = _random_model(rng, 25)
    path = tmp_path / "model.csv"
    model.save_checkpoint(path)
    clone = GpModel.load_checkpoint(path)
    q = rng.uniform(-20, 20, (6, 2))
    assert np.abs(clone.predict(q).mean - model.predict(q).mean).max() < 1e-9
    assert clone.hypers == model.hypers
    with pytest.raises(ConfigError):
        GpModel.load_checkpoint(tmp_path / "missing.csv")


def test_checkpoint_without_the_mean_flag_loads_centred(tmp_path):
    path = tmp_path / "model.csv"
    path.write_text("sigma_f2,sigma_n2,length_scale\n2.0,0.01,8.0\nx,y,depth\n0,0,4.0\n1,0,6.0\n")
    model = GpModel.load_checkpoint(path)
    assert model.snapshot().subtract_mean
    assert model.predict_mean(np.array([[1e4, 1e4]]))[0] == pytest.approx(5.0)  # far from data: the data mean
    path.write_text("sigma_f2,sigma_n2,length_scale,subtract_mean\n2.0,0.01,8.0,2\nx,y,depth\n0,0,4.0\n")
    with pytest.raises(ConfigError, match=r"model.csv:2: subtract_mean must be 0 or 1"):
        GpModel.load_checkpoint(path)


def test_op_count_model():
    batch, seq = op_count(500, 50)
    assert batch == 550**3
    assert seq == 50 * 501**3
    with pytest.raises(ConfigError):
        op_count(-1, 5)
    with pytest.raises(ConfigError):
        op_count(5, 0)


def test_benchmark_prediction_smoke():
    res = benchmark_prediction(n=120, m=10, seed=0)
    assert res.op_ratio == pytest.approx(10 * 121**3 / 130**3, rel=1e-12)
    assert res.batch_seconds > 0.0 and res.sequential_seconds > 0.0
    # sequential refactoring must actually cost more wall time
    assert res.measured_ratio > 1.0
