"""GP engine against independent linear-algebra oracles."""

import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies
from scipy.linalg import cholesky, solve_triangular
from scipy.linalg.lapack import dpotri, dtrttp
from scipy.optimize import minimize

import mutations
import oracles
from bathysurvey import gp
from bathysurvey.errors import ConfigError, EmptyModelError, FactorizationError
from bathysurvey.gp import (
    DEFAULT_BOUNDS,
    GpModel,
    HyperParams,
    benchmark_prediction,
    kernel_matrix,
    op_count,
    optimize_hypers,
)

H = HyperParams(2.0, 0.05, 8.0)


def _random_model(rng, n, hypers=H, chunks=True):
    x = rng.uniform(-40.0, 40.0, (n, 2))
    y = oracles.sample_gp(rng, x, hypers.sigma_f2, hypers.sigma_n2, hypers.length_scale)
    model = GpModel(hypers)
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


def test_incremental_factor_matches_scratch():
    assert GpModel().L.shape == (0, 0)
    rng = np.random.default_rng(1)
    for _ in range(10):
        model, x, y = _random_model(rng, int(rng.integers(20, 80)))
        k_ref = oracles.noisy_kernel(x, H.sigma_f2, H.sigma_n2, H.length_scale)
        l_ref = oracles.upper_cholesky(k_ref)
        assert np.abs(model.L - l_ref).max() < 1e-10
        assert np.all(np.tril(model.L, -1) == 0.0)


def test_predictions_match_explicit_inverse():
    rng = np.random.default_rng(2)
    model, x, y = _random_model(rng, 60)
    q = rng.uniform(-50.0, 50.0, (25, 2))
    pred = model.predict(q)
    mean_ref, var_ref = oracles.gp_predict(x, y, q, H.sigma_f2, H.sigma_n2, H.length_scale, y_mean=y.mean())
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
    assert np.array_equal(model.predict_mean(q), model.predict(q).mean)


def test_lml_and_gradient_match_oracles():
    rng = np.random.default_rng(5)
    for _ in range(5):
        model, x, y = _random_model(rng, 20)
        yc = y - y.mean()
        rep = model.log_marginal_likelihood()
        assert rep.lml == pytest.approx(
            oracles.log_marginal(x, yc, H.sigma_f2, H.sigma_n2, H.length_scale), rel=1e-9
        )
        fd = oracles.fd_gradient(x, yc, H.as_array())
        rel = np.abs(rep.gradient - fd) / np.maximum(np.abs(fd), 1e-8)
        assert rel.max() < 1e-4


@pytest.mark.parametrize("chunks", [False, True])
def test_log_likelihood_reads_the_stored_factor(chunks):
    # the factor is built in one block, or grows column by column, and
    # set_hypers then refactors it in one block
    rng = np.random.default_rng(26)
    model, x, y = _random_model(rng, 50, chunks=chunks)
    yc = y - y.mean()
    assert model.snapshot().log_likelihood() == pytest.approx(oracles.log_marginal(x, yc, *H.as_array()), rel=1e-9)
    h = HyperParams(1.5, 0.02, 12.0)
    model.set_hypers(h)
    assert model.snapshot().log_likelihood() == pytest.approx(oracles.log_marginal(x, yc, *h.as_array()), rel=1e-9)


def _track_model():
    # soundings 1 m apart along a circular track, with the noise and length
    # scale that mission fits settle at, centred by the model
    rng = np.random.default_rng(14)
    s = np.arange(300.0)
    x = np.column_stack([250.0 + 50.0 * np.cos(s / 50.0), 200.0 + 50.0 * np.sin(s / 50.0)])
    mound = 1.5 * np.exp(-((x[:, 0] - 230.0) ** 2 + (x[:, 1] - 170.0) ** 2) / 800.0)
    y = 4.5 + 0.01 * x[:, 0] - 0.005 * x[:, 1] + mound + 0.05 * rng.standard_normal(300)
    h = HyperParams(1.0, 0.0025, 70.0)
    model = GpModel(h)
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


def _trend_ridge_model():
    # a contour-phase snapshot whose previous fit put the length scale far
    # beyond the data's extent
    path = Path(__file__).parent / "data" / "trend_ridge_track.csv"
    data = np.loadtxt(path, delimiter=",")
    x, y = data[:, :2], data[:, 2]
    model = GpModel(HyperParams(53.8683, 0.00043214, 909.8566))
    model.append(x, y)
    return model, x, y


def test_profile_gradient_in_mission_regime():
    model, x, y, h = _track_model()
    yc, d2 = y - y.mean(), ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
    log_x = np.log([h.sigma_n2 / h.sigma_f2, h.length_scale])
    value, grad, theta = gp._profile_lml_and_grad(log_x, yc, d2)
    # sigma_f2 is the closed-form optimum, and the value the full likelihood there
    assert value == pytest.approx(oracles.log_marginal(x, yc, *theta), rel=1e-9)
    assert theta[1] == pytest.approx(theta[0] * h.sigma_n2 / h.sigma_f2, rel=1e-12)
    fd = oracles.fd_gradient_log(lambda lx: gp._profile_lml_and_grad(lx, yc, d2)[0], log_x)
    assert (np.abs(grad - fd) / np.abs(fd)).max() < 1e-4


def test_profile_gradient_where_a_noise_bound_holds_sigma_f2():
    # depths of 0.1 mm put the best sigma_f2 for lambda = 1e-3 below
    # sigma_n2's lower bound over lambda, so sigma_f2 = 1e-6 / lambda
    # moves with lambda
    rng = np.random.default_rng(15)
    _, x, y = _random_model(rng, 40)
    y = 1e-4 * y
    d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
    log_x = np.log([1e-3, 8.0])
    value, grad, theta = gp._profile_lml_and_grad(log_x, y, d2)
    assert theta[1] == pytest.approx(gp.DEFAULT_BOUNDS[1][0], rel=1e-12)
    assert value == pytest.approx(oracles.log_marginal(x, y, *theta), rel=1e-9)
    fd = oracles.fd_gradient_log(lambda lx: gp._profile_lml_and_grad(lx, y, d2)[0], log_x)
    assert (np.abs(grad - fd) / np.abs(fd)).max() < 1e-4


def _sq_dists(a, b):
    return ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)


def _loop_model(n):
    # soundings 1 m apart around a loop of n metres past three mounds, with
    # the plane, noise and warm start of _track_model
    rng = np.random.default_rng(24)
    r = n / (2.0 * np.pi)
    s = np.arange(float(n))
    x = np.column_stack([250.0 + r * np.cos(s / r), 200.0 + r * np.sin(s / r)])
    y = 4.5 + 0.01 * x[:, 0] - 0.005 * x[:, 1] + 0.05 * rng.standard_normal(n)
    for angle, amp in ((0.5, 1.5), (2.5, -1.0), (4.5, 0.8)):
        centre = (250.0 + r * np.cos(angle), 200.0 + r * np.sin(angle))
        y += amp * np.exp(-((x[:, 0] - centre[0]) ** 2 + (x[:, 1] - centre[1]) ** 2) / 800.0)
    model = GpModel(HyperParams(1.0, 0.0025, 70.0))
    model.append(x, y)
    return model


def test_bound_gradient_in_mission_regime():
    # the mission's inducing inputs on 300 track soundings: every sixth,
    # 6 m apart at a 70 m length scale, so C_zz is nearly singular
    model, x, y, h = _track_model()
    yc, z = y - y.mean(), gp._inducing_inputs(x, gp.INDUCING)
    d2_zx, d2_zz = _sq_dists(z, x), _sq_dists(z, z)
    log_x = np.log([h.sigma_n2 / h.sigma_f2, h.length_scale])
    value, grad, theta = gp._profile_lml_and_grad(log_x, yc, d2_zx, d2_zz)
    assert np.array_equal(z, x[::6])
    assert value == pytest.approx(oracles.variational_bound(x, z, yc, *theta, gp._INDUCING_JITTER), rel=1e-9)
    # a lower bound of the profile likelihood, here within 1e-5 nats of it
    exact = gp._profile_lml_and_grad(log_x, yc, _sq_dists(x, x))[0]
    assert exact - 1e-5 < value <= exact
    fd = oracles.fd_gradient_log(lambda lx: gp._profile_lml_and_grad(lx, yc, d2_zx, d2_zz)[0], log_x)
    assert (np.abs(grad - fd) / np.abs(fd)).max() < 1e-4


def test_bound_on_every_sounding_is_the_exact_likelihood(monkeypatch):
    # soundings on an 8 m grid, a length scale of 8 m: with Z = X the bound
    # differs from the exact profile only through the jitter on C_zz
    rng = np.random.default_rng(25)
    x = np.stack(np.meshgrid(np.arange(8.0), np.arange(8.0)), axis=-1).reshape(-1, 2) * 8.0
    y = 3.0 + oracles.sample_gp(rng, x, H.sigma_f2, H.sigma_n2, H.length_scale)
    yc, d2 = y - y.mean(), _sq_dists(x, x)
    log_x = np.log([H.sigma_n2 / H.sigma_f2, H.length_scale])
    exact, exact_grad, exact_theta = gp._profile_lml_and_grad(log_x, yc, d2)
    value, grad, theta = gp._profile_lml_and_grad(log_x, yc, d2, d2)
    tol = len(y) * gp._INDUCING_JITTER * H.sigma_f2 / H.sigma_n2
    assert abs(value - exact) < tol
    assert np.abs(grad - exact_grad).max() < tol
    assert theta == pytest.approx(exact_theta, rel=tol)
    # with at least as many inducing inputs as soundings the fit is the exact one
    model = GpModel(H)
    model.append(x, y)
    exact_fit = optimize_hypers(model)
    monkeypatch.setattr(gp, "_bound_factor", None)
    assert optimize_hypers(model, inducing=len(y)) == exact_fit


@pytest.mark.parametrize(("n", "m"), [(100, 100), (141, 141), (200, 200)])
def test_fit_on_at_most_the_inducing_inputs_is_the_exact_fit(monkeypatch, n, m):
    # on at most m soundings the fit never evaluates the bound and is the
    # exact one, bit for bit
    model = _loop_model(n)
    exact_fit = optimize_hypers(model)
    monkeypatch.setattr(gp, "_bound_factor", None)
    assert optimize_hypers(model, inducing=m) == exact_fit


@pytest.mark.parametrize(("m", "inputs"), [(50, 9), (71, 12), (100, 17)])
def test_a_fit_on_one_sounding_more_than_inducing_evaluates_the_bound(monkeypatch, m, inputs):
    # every sixth of the m + 1 soundings is an inducing input
    sizes = []  # the inducing inputs of each bound evaluation

    def bound_factor(lam, ell, yc, d2_zx, d2_zz, factor=gp._bound_factor):
        sizes.append(len(d2_zz))
        return factor(lam, ell, yc, d2_zx, d2_zz)

    monkeypatch.setattr(gp, "_bound_factor", bound_factor)
    fit = optimize_hypers(_loop_model(m + 1), inducing=m)
    assert fit.converged
    assert sizes and set(sizes) == {inputs}


@pytest.mark.parametrize("n", [1, 6, 7, 100, 101, 141, 201, 351, 500, 501, 600, 601, 1425, 3000])
def test_inducing_inputs_are_every_sixth_sounding_or_sparser(n):
    x = np.column_stack([np.arange(float(n)), np.zeros(n)])
    z = gp._inducing_inputs(x, gp.INDUCING)
    stride = -(-n // gp.INDUCING)
    if n > 500:
        # the inputs a fit took before the stride floor: every ceil(n/m)-th
        assert np.array_equal(z, x[::stride])
    assert 1 <= len(z) <= gp.INDUCING
    assert z[0, 0] == 0.0 and np.all(np.diff(z[:, 0]) >= 6)


@pytest.mark.parametrize("n", [111, 141, 201, 261, 351, 441, 640])
def test_bound_fit_lands_on_the_exact_fit(n):
    # the sizes of a canonical_half mission's contour refits, and of its
    # end fit; from n = 111 on every one runs on the bound
    model = _loop_model(n)
    exact = optimize_hypers(model)
    fit = optimize_hypers(model, inducing=gp.INDUCING)
    assert exact.converged and fit.converged
    # measured: at most 6.7e-6 relative at n = 111-441 (sigma_f2 at n = 111),
    # and 1.8e-5 in sigma_f2 and 1.4e-6 in the length scale at n = 640
    assert fit.hypers.sigma_f2 == pytest.approx(exact.hypers.sigma_f2, rel=0.01)
    assert fit.hypers.length_scale == pytest.approx(exact.hypers.length_scale, rel=0.01)
    assert fit.hypers.sigma_n2 == pytest.approx(exact.hypers.sigma_n2, rel=0.01)
    assert fit.lml <= exact.lml


def test_bound_fit_builds_no_square_array():
    # n = 3000: one n x n array of doubles takes 72 MB; the bound fit's
    # arrays are n x m and m x m, and its peak measured 10.5 MB
    n = 3000
    model = _loop_model(n)
    tracemalloc.start()
    try:
        fit = optimize_hypers(model, inducing=gp.INDUCING)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.converged
    assert peak < n * n * 8 / 5


def _unit_factor_through_scipy_linalg(lam, ell, yc, d2):
    # the exact objective's scalars through scipy.linalg's cholesky and
    # solve_triangular, kept as the reference for the direct LAPACK calls
    n = len(yc)
    k = np.exp(np.multiply(d2, -0.5 / ell / ell))
    m = k * d2
    k.flat[:: n + 1] += lam
    factor = cholesky(k, lower=False)
    beta = solve_triangular(factor, yc, trans="T", lower=False)
    alpha = solve_triangular(factor, beta, lower=False)
    inv_upper, info = dpotri(factor, lower=0)
    assert info == 0
    return gp._UnitFactor(
        n,
        float(beta @ beta),
        2.0 * float(np.log(np.diag(factor)).sum()),
        float(np.trace(inv_upper)),
        float(alpha @ alpha),
        float(alpha @ (m @ alpha)),
        2.0 * float(np.einsum("ij,ij->", inv_upper, m)),
    )


def test_exact_path_is_the_scipy_linalg_route_bit_for_bit():
    # the exact objective and every set_hypers factor run the same LAPACK
    # arithmetic as scipy.linalg's wrappers, on the arrays as they lie
    model = _loop_model(141)
    st = model.snapshot()
    yc, d2 = st.y_centered, gp._squared_distances(st.X, st.X)
    for lam, ell in ((0.0025, 70.0), (0.05, 20.0)):
        assert gp._unit_factor(lam, ell, yc, d2) == _unit_factor_through_scipy_linalg(lam, ell, yc, d2)
    h = HyperParams(1.2, 0.01, 35.0)
    model.set_hypers(h)
    st = model.snapshot()
    k_y = kernel_matrix(st.X, st.X, h) + h.sigma_n2 * np.eye(st.n)
    factor = cholesky(k_y, lower=False)
    assert np.array_equal(st._packed, dtrttp(factor)[0])
    rhs = np.column_stack([st.y, np.ones(st.n)])
    assert np.array_equal(st._bufs.solved[: st.n], solve_triangular(factor, rhs, trans="T", lower=False))


def test_a_covariance_that_is_not_positive_definite_raises():
    # twenty soundings at one point under lam = 1e-300: K~ is the all-ones
    # matrix, whose second pivot is exactly 0, and on ten inducing inputs
    # B = lam I + V V^T is rank one but for rounding. A LAPACK info left
    # unchecked would hand the fit numbers from a failed factorization
    n = 20
    x, yc = np.zeros((n, 2)), np.linspace(-1.0, 1.0, n)
    z = x[::2]
    with pytest.raises(np.linalg.LinAlgError):
        gp._unit_factor(1e-300, 10.0, yc, gp._squared_distances(x, x))
    with pytest.raises(np.linalg.LinAlgError):
        gp._bound_factor(1e-300, 10.0, yc, gp._squared_distances(z, x), gp._squared_distances(z, z))


@pytest.mark.parametrize("case", ["track", "trend_ridge", "random_0", "random_1", "random_2"])
def test_profile_fit_reaches_the_three_parameter_fit(case):
    if case == "track":
        model = _track_model()[0]
    elif case == "trend_ridge":
        model = _trend_ridge_model()[0]
    else:
        rng = np.random.default_rng(20 + int(case[-1]))
        start = HyperParams(*rng.uniform([0.2, 0.001, 2.0], [5.0, 0.5, 30.0]))
        model = _random_model(rng, int(rng.integers(30, 120)), hypers=start)[0]
    _, lml = oracles.fit_three_hypers(model)
    fit = optimize_hypers(model)
    assert fit.lml >= lml - 1e-6 * abs(lml)
    for val, (lo, hi) in zip(fit.hypers.as_array(), DEFAULT_BOUNDS):
        assert lo <= val <= hi


def test_warm_fit_evaluation_count():
    # one factorization per evaluation: the profile fit of this snapshot
    # takes 13, where the three-parameter search took 19
    model, _, _, _ = _track_model()
    fit = optimize_hypers(model)
    assert fit.converged
    assert fit.n_evals <= 13


def _moment_fit(x, y):
    """The fit of the soundings by a model whose hypers, its warm start,
    are the data-moment start."""
    lo, hi = np.array(DEFAULT_BOUNDS, dtype=float).T
    model = GpModel(HyperParams.from_array(gp._moment_start(x, y - y.mean(), lo, hi)))
    model.append(x, y)
    return optimize_hypers(model)


def test_converged_warm_start_runs_one_start(monkeypatch):
    model, x, y, _ = _track_model()
    moment = _moment_fit(x, y)
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
    # the objective is the negated likelihood per sounding
    assert -fit.lml / model.n <= min(runs[0])
    assert -fit.lml / model.n == min(runs[0] + runs[1])


def test_warm_start_on_the_trend_ridge_also_runs_the_moment_start(monkeypatch):
    # from the ridge the warm start converges about 11.7 nats below the
    # optimum the data-moment start reaches
    model, x, y = _trend_ridge_model()
    moment = _moment_fit(x, y)
    runs = _count_starts(monkeypatch)
    fit = optimize_hypers(model)
    assert fit.converged
    assert len(runs) == 2
    assert -model.n * min(runs[0]) < moment.lml - 10.0
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


def _probe(st, q):
    return st.L.copy(), st.alpha.copy(), st.predict_mean(q), st.predict(q)


def test_snapshot_isolated_across_capacity_growth():
    # snapshots held at the initial capacity of 64, just before each of
    # the growths by half (64 -> 96 -> 144 -> 216 -> 324) and between
    # them, read only after the model has grown past all of them; each
    # must match a twin model stopped at its n
    rng = np.random.default_rng(15)
    x = rng.uniform(-40.0, 40.0, (256, 2))
    y = 3.0 + oracles.sample_gp(rng, x, H.sigma_f2, H.sigma_n2, H.length_scale)
    q = rng.uniform(-50.0, 50.0, (12, 2))
    model = GpModel(H)
    held = {}
    for i in range(len(y)):
        model.append(x[i : i + 1], y[i : i + 1])
        if model.n in (64, 96, 100, 144):
            held[model.n] = model.snapshot()
    assert model.snapshot()._bufs.cap == 324
    for n, st in held.items():
        twin = GpModel(H)
        for i in range(n):
            twin.append(x[i : i + 1], y[i : i + 1])
        got, want = _probe(st, q), _probe(twin.snapshot(), q)
        assert st.n == n
        for a, b in zip(got[:3], want[:3]):
            assert np.array_equal(a, b)
        assert np.array_equal(got[3].mean, want[3].mean)
        assert np.array_equal(got[3].variance, want[3].variance)


def test_batch_append_matches_one_at_a_time():
    # a batch onto a non-empty model grows the factor one sounding at a
    # time, so batches of mixed sizes equal single appends bit for bit,
    # also when the buffers grow (40 + HEADROOM rows, then by half)
    # inside the last batch
    rng = np.random.default_rng(18)
    x = rng.uniform(-40.0, 40.0, (360, 2))
    y = 3.0 + oracles.sample_gp(rng, x, H.sigma_f2, H.sigma_n2, H.length_scale)
    q = rng.uniform(-50.0, 50.0, (12, 2))
    batched = GpModel(H)
    single = GpModel(H)
    batched.append(x[:40], y[:40])
    single.append(x[:40], y[:40])
    for i in range(40, 360):
        single.append(x[i : i + 1], y[i : i + 1])
    for lo, hi in ((40, 41), (41, 47), (47, 360)):
        assert batched.snapshot()._bufs.cap == 40 + gp.HEADROOM
        batched.append(x[lo:hi], y[lo:hi])
    assert batched.snapshot()._bufs.cap == (40 + gp.HEADROOM) * 3 // 2
    got, want = _probe(batched.snapshot(), q), _probe(single.snapshot(), q)
    for a, b in zip(got[:3], want[:3]):
        assert np.array_equal(a, b)
    assert np.array_equal(got[3].mean, want[3].mean)
    assert np.array_equal(got[3].variance, want[3].variance)


def test_tick_copies_no_square_factor():
    # one sounding plus the mean query that follows it, at n = 1500: the
    # packed prefix is read in place, so the tick allocates O(n), far below
    # the n^2 doubles one copy of the square factor would take
    n = 1500
    rng = np.random.default_rng(17)
    x = rng.uniform(0.0, 300.0, (n + 1, 2))
    y = rng.normal(5.0, 1.0, n + 1)
    model = GpModel(HyperParams(1.0, 0.01, 30.0))
    for i in range(n):
        model.append(x[i : i + 1], y[i : i + 1])
    model.predict_mean(x[:1])
    tracemalloc.start()
    try:
        model.append(x[n:], y[n:])
        model.predict_mean(x[n:])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.n == n + 1
    assert peak < n * n * 8 / 10


def test_held_snapshot_keeps_no_square_factor():
    # predict copies the packed factor into RFP layout for its variance
    # solve; a snapshot that cached that copy would hold n(n+1)/2 doubles,
    # 9 MB at n = 1500, for as long as it is held
    n = 1500
    rng = np.random.default_rng(23)
    model = GpModel(HyperParams(1.0, 0.01, 30.0))
    model.append(rng.uniform(0.0, 300.0, (n, 2)), rng.normal(5.0, 1.0, n))
    st = model.snapshot()
    q = rng.uniform(0.0, 300.0, (20, 2))
    tracemalloc.start()
    try:
        pred = st.predict(q)
        st.predict(q)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert np.isfinite(pred.variance).all()
    assert retained < n * n * 8 / 10


def test_predict_peak_builds_no_square_factor():
    # the variance solve reads the packed factor copied into RFP layout,
    # n(n+1)/2 doubles, and solves the (n, m) kernel block in place: 0.68
    # n^2 doubles at n = 1100, m = 200, where a square factor unpacked for
    # the solve peaks at 1.18 n^2
    n, m = 1100, 200
    rng = np.random.default_rng(29)
    model = GpModel(HyperParams(1.0, 0.01, 40.0))
    model.append(rng.uniform(0.0, 300.0, (n, 2)), rng.normal(5.0, 1.0, n))
    st = model.snapshot()
    q = rng.uniform(0.0, 300.0, (m, 2))
    st.predict_mean(q)  # caches the weights, which are O(n)
    tracemalloc.start()
    try:
        pred = st.predict(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(pred.variance).all()
    assert peak < 0.75 * n * n * 8


def test_set_hypers_peak_follows_n_not_the_old_capacity():
    # a batch of n = 1100 soundings; set_hypers sizes its fresh buffers to
    # n + HEADROOM and factors K_y in place, so its peak is K_y and the
    # packed factor dtrttp returns beside the new packed buffer: 2.27 n^2
    # doubles. Buffers sized at a doubled capacity of 2048 would peak at
    # 4.7 n^2, and K_y built beside an identity and factored in a copy at 3.27
    n = 1100
    rng = np.random.default_rng(19)
    model = GpModel(HyperParams(1.0, 0.01, 30.0))
    model.append(rng.uniform(0.0, 300.0, (n, 2)), rng.normal(5.0, 1.0, n))
    tracemalloc.start()
    try:
        model.set_hypers(HyperParams(1.2, 0.01, 35.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.snapshot()._bufs.cap == n + gp.HEADROOM
    assert peak < 8 * (2 * n * n + gp._tri(n + gp.HEADROOM))


def test_subtract_mean_extrapolates_to_data_mean():
    rng = np.random.default_rng(9)
    x = rng.uniform(0.0, 10.0, (30, 2))
    y = 5.0 + 0.01 * rng.standard_normal(30)
    model = GpModel(H)
    model.append(x, y)
    far = model.predict_mean(np.array([[500.0, 500.0]]))[0]
    assert far == pytest.approx(y.mean(), abs=1e-6)


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


@pytest.mark.parametrize("values", [[1.0, 0.1], [1.0, 0.1, 5.0, 99.0]])
def test_set_hypers_takes_exactly_three_numbers(values):
    model = GpModel()
    with pytest.raises(ConfigError, match="three numbers"):
        model.set_hypers(values)
    assert model.hypers == gp.DEFAULT_HYPERS


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


def _count_failures(monkeypatch):
    """Record (n, m) for every failed attempt to grow the factor: the
    size n of the state grown and the number m of soundings added."""
    failures = []
    for name in ("_factored", "_with_sounding"):

        def counted(st, xs, ys, jitter, grow=getattr(gp, name)):
            try:
                return grow(st, xs, ys, jitter)
            except FactorizationError:
                failures.append((st.n, np.size(ys)))
                raise

        monkeypatch.setattr(gp, name, counted)
    return failures


def test_jitter_retry_on_near_duplicate_points(monkeypatch):
    # three co-located points with noise below rounding make K_y exactly
    # singular, so every factorization of them needs the jitter retry
    failures = _count_failures(monkeypatch)
    model = GpModel(HyperParams(1.0, 1e-17, 10.0))
    pts = np.zeros((3, 2))
    model.append(pts[:1], np.array([2.0]))
    # a batch onto a non-empty model grows one sounding at a time, each
    # with its own retry
    model.append(pts[1:], np.array([2.0, 2.0]))
    assert model.n == 3 and failures == [(1, 1), (2, 1)]
    assert np.isfinite(model.predict(np.array([[1.0, 1.0]])).mean).all()
    # a hyper swap refactors the same points through the same retry
    h2 = HyperParams(1.0, 1e-17, 5.0)
    model.set_hypers(h2)
    fresh = GpModel(h2)
    fresh.append(pts, np.array([2.0, 2.0, 2.0]))
    assert failures == [(1, 1), (2, 1), (0, 3), (0, 3)]
    q = np.array([[1.0, 1.0], [0.0, 3.0]])
    assert np.array_equal(model.L, fresh.L)
    assert np.array_equal(model.predict(q).mean, fresh.predict(q).mean)


def test_single_append_retries_once_then_rejects(monkeypatch):
    # a sounding co-located with a stored one under a noise floor below
    # rounding has a Schur complement of exactly zero
    failures = _count_failures(monkeypatch)
    h = HyperParams(1.0, 1e-17, 10.0)
    model = GpModel(h)
    model.append(np.array([[3.0, 4.0], [20.0, 0.0]]), np.array([2.0, 1.0]))
    model.append(np.array([[3.0, 4.0]]), np.array([2.5]))
    assert model.n == 3 and failures == [(2, 1)]
    assert model.L[2, 2] == pytest.approx(np.sqrt(gp.JITTER_SCALE * h.sigma_f2), rel=1e-3)

    # without the jitter the retry fails as well, and the model is untouched
    monkeypatch.setattr(gp, "JITTER_SCALE", 0.0)
    q = np.array([[1.0, 1.0], [20.0, 1.0]])
    l0, mean0 = model.L.copy(), model.predict_mean(q)
    failures.clear()
    with pytest.raises(FactorizationError):
        model.append(np.array([[20.0, 0.0]]), np.array([1.0]))
    assert failures == [(3, 1), (3, 1)]
    assert model.n == 3
    assert np.array_equal(model.L, l0)
    assert np.array_equal(model.predict_mean(q), mean0)


def test_failed_batch_leaves_the_model_unchanged(monkeypatch):
    # without the jitter, a batch whose last sounding is co-located with a
    # stored one fails on it twice, after its first two grew a local state
    failures = _count_failures(monkeypatch)
    monkeypatch.setattr(gp, "JITTER_SCALE", 0.0)
    model = GpModel(HyperParams(1.0, 1e-17, 10.0))
    model.append(np.array([[3.0, 4.0], [20.0, 0.0]]), np.array([2.0, 1.0]))
    q = np.array([[1.0, 1.0], [20.0, 1.0]])
    l0, mean0 = model.L.copy(), model.predict_mean(q)
    with pytest.raises(FactorizationError):
        model.append(np.array([[0.0, 10.0], [10.0, 10.0], [20.0, 0.0]]), np.array([1.5, 1.2, 1.0]))
    assert failures == [(4, 1), (4, 1)]
    assert model.n == 2
    assert np.array_equal(model.L, l0)
    assert np.array_equal(model.predict_mean(q), mean0)


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
    assert model.predict_mean(np.array([[1e4, 1e4]]))[0] == pytest.approx(5.0)  # far from data: the data mean


def test_checkpoint_mean_flag_loads_only_as_the_centred_model(tmp_path):
    # the four-column header that missions and gp-fit wrote while centring
    # was optional: their flag, 1, loads the model three columns describe;
    # 0 named the uncentred model, which no longer exists
    rows = "\nx,y,depth\n0,0,4.0\n1,0,6.0\n"
    q = np.array([[0.5, 0.0], [1e4, 1e4]])
    path = tmp_path / "model.csv"
    path.write_text("sigma_f2,sigma_n2,length_scale\n2.0,0.01,8.0" + rows)
    want = GpModel.load_checkpoint(path).predict(q)
    path.write_text("sigma_f2,sigma_n2,length_scale,subtract_mean\n2.0,0.01,8.0,1" + rows)
    got = GpModel.load_checkpoint(path).predict(q)
    assert np.array_equal(got.mean, want.mean) and np.array_equal(got.variance, want.variance)
    for flag in ("0", "2"):
        path.write_text("sigma_f2,sigma_n2,length_scale,subtract_mean\n2.0,0.01,8.0," + flag + rows)
        with pytest.raises(ConfigError, match=r"model.csv:2: subtract_mean must be 1"):
            GpModel.load_checkpoint(path)


#: a valid checkpoint: hyper row, then four soundings
CHECKPOINT_LINES = [
    ["sigma_f2", "sigma_n2", "length_scale"],
    ["2.0", "0.01", "8.0"],
    ["x", "y", "depth"],
    ["1.0", "2.0", "5.0"],
    ["3.5", "2.0", "5.5"],
    ["1.0", "4.25", "4.75"],
    ["-2.0", "0.5", "5.25"],
]
#: the same checkpoint under the four-column header of older versions
LEGACY_CHECKPOINT_LINES = [[*CHECKPOINT_LINES[0], "subtract_mean"], [*CHECKPOINT_LINES[1], "1"], *CHECKPOINT_LINES[2:]]


@given(strategies.sampled_from([CHECKPOINT_LINES, LEGACY_CHECKPOINT_LINES]).flatmap(mutations.mutated_lines))
def test_mutated_checkpoint_loads_or_raises_config_error(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("checkpoint") / "model.csv"
    path.write_text(text)
    try:
        model = GpModel.load_checkpoint(path)
    except ConfigError:
        return
    assert model.n >= 1
    assert np.isfinite(model.predict(np.array([[0.0, 0.0]])).mean).all()


def test_checkpoint_with_a_huge_length_scale_loads(tmp_path):
    # a length scale whose square overflows means a constant kernel; squaring
    # it raised a bare OverflowError from the loader
    path = tmp_path / "model.csv"
    path.write_text("sigma_f2,sigma_n2,length_scale\n2.0,0.01,1e308\nx,y,depth\n0,0,4.0\n1,0,6.0\n")
    model = GpModel.load_checkpoint(path)
    assert np.array_equal(kernel_matrix([[0.0, 0.0]], [[1e3, 0.0]], model.hypers), [[2.0]])
    assert model.predict_mean(np.array([[0.5, 0.0]]))[0] == pytest.approx(5.0)
    assert np.isfinite(model.log_marginal_likelihood().gradient).all()


def test_checkpoint_with_overflowing_weights_is_refused(tmp_path):
    # a depth of 1e308 loaded into a model whose weights and predictions were inf
    path = tmp_path / "model.csv"
    path.write_text("sigma_f2,sigma_n2,length_scale\n2.0,0.01,8.0\nx,y,depth\n1,2,1e308\n3.5,2,5.5\n")
    with pytest.raises(ConfigError, match="depths too large to model"):
        GpModel.load_checkpoint(path)


@pytest.mark.parametrize("refactored", [False, True])
def test_append_refuses_depths_whose_weights_overflow(refactored):
    # three soundings near 1e308 on a fresh model left alpha non-finite
    # without an error, and every prediction NaN; the refused batch must
    # leave the factor alone whether appends grew it or set_hypers rebuilt it
    far = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    huge = np.array([1e308, -1e308, 1.5e308])
    q = np.array([[1.0, 1.0], [20.0, 1.0]])
    model = GpModel(H)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="weights overflow"):
            model.append(far, huge)
        assert model.n == 0
        model.append(np.array([[3.0, 4.0], [20.0, 0.0]]), np.array([2.0, 1.0]))
        if refactored:
            model.set_hypers(HyperParams(1.5, 0.02, 12.0))
        l0, mean0 = model.L.copy(), model.predict_mean(q)
        with pytest.raises(ConfigError, match="weights overflow"):
            model.append(far, huge)
    assert model.n == 2
    assert np.array_equal(model.L, l0)
    assert np.array_equal(model.predict_mean(q), mean0)


def test_a_fit_refuses_soundings_whose_squared_distance_overflows():
    # a point 1e200 m off gave every other point an infinite squared
    # distance, so the length-scale gradient read 0 * inf = NaN and the
    # fit stopped early at its start
    model = GpModel(H)
    model.append(np.array([[0.0, 0.0], [5.0, 0.0], [1e200, 0.0]]), np.array([4.0, 5.0, 4.5]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="too far apart"):
            optimize_hypers(model)
        with pytest.raises(ConfigError, match="too far apart"):
            model.log_marginal_likelihood()
    assert model.predict_mean(np.array([[1e200, 0.0]]))[0] == pytest.approx(4.5, abs=0.2)


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
