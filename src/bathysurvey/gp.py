"""Streaming Gaussian-process depth model.

The model regresses depth on horizontal position with a squared
exponential kernel and maintains an upper-triangular Cholesky factor
of the noisy covariance (L.T @ L = K_y) that is extended in place when
observations arrive, never refactored from scratch except on a
hyper-parameter change. Alongside the factor it extends L^-T y and
L^-T 1, from which each snapshot builds its own (optionally centred)
weights, so an append writes only new rows and columns.

Thread contract: one writer (append / set_hypers), any number of
readers. Readers operate on an immutable snapshot grabbed once per
call, so a prediction reflects either the pre-append or the post-append
model, never a mix; a snapshot held across later appends or hyper
changes keeps predicting exactly as it did when it was taken.
"""

from __future__ import annotations

import math
import threading
import time
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky, solve_triangular
from scipy.linalg.lapack import dpotri
from scipy.optimize import minimize
from scipy.spatial.distance import cdist

from . import files
from .errors import ConfigError, EmptyModelError, FactorizationError

LOG_2PI = math.log(2.0 * math.pi)

#: factor applied to sigma_f^2 for the one jitter retry on a failed factorization
JITTER_SCALE = 1e-10

#: default raw-space box for each hyper-parameter during optimization
DEFAULT_BOUNDS = ((1e-6, 1e6), (1e-6, 1e6), (1e-6, 1e6))


@dataclass(frozen=True)
class HyperParams:
    """Squared-exponential kernel parameters.

    Attributes
    ----------
    sigma_f2 : float
        Signal variance (amplitude squared).
    sigma_n2 : float
        Observation noise variance, added to the covariance diagonal.
    length_scale : float
        Isotropic length scale in the units of the input coordinates.
    """

    sigma_f2: float
    sigma_n2: float
    length_scale: float

    def __post_init__(self):
        for name in ("sigma_f2", "sigma_n2", "length_scale"):
            val = getattr(self, name)
            if not (np.isfinite(val) and val > 0.0):
                raise ConfigError(f"hyper-parameter {name} must be positive and finite, got {val}")

    def as_array(self) -> np.ndarray:
        return np.array([self.sigma_f2, self.sigma_n2, self.length_scale])

    @classmethod
    def from_array(cls, arr) -> "HyperParams":
        return cls(float(arr[0]), float(arr[1]), float(arr[2]))


#: first-fit starting point when nothing better is known
DEFAULT_HYPERS = HyperParams(1.0, 0.01, 10.0)
#: hyper row columns of a checkpoint; a file without the last one predates it
_CHECKPOINT_COLUMNS = ["sigma_f2", "sigma_n2", "length_scale", "subtract_mean"]


@dataclass(frozen=True)
class Prediction:
    """Posterior mean and pointwise predictive variance (noise included)."""

    mean: np.ndarray
    variance: np.ndarray

    @property
    def std(self) -> np.ndarray:
        return np.sqrt(self.variance)


@dataclass(frozen=True)
class LmlReport:
    """Log marginal likelihood and its gradient.

    Gradient order is (sigma_f2, sigma_n2, length_scale), taken with
    respect to the raw (not log) parameters.
    """

    lml: float
    gradient: np.ndarray
    hypers: HyperParams
    n: int


@dataclass(frozen=True)
class HyperFit:
    """Result of a bounded maximum-likelihood hyper fit."""

    hypers: HyperParams
    lml: float
    converged: bool
    n_evals: int


def kernel(xi, xj, hypers: HyperParams) -> float:
    """Squared-exponential covariance between two points."""
    dx = xi[0] - xj[0]
    dy = xi[1] - xj[1]
    d2 = dx * dx + dy * dy
    return hypers.sigma_f2 * math.exp(-d2 / (2.0 * hypers.length_scale**2))


def kernel_matrix(a, b, hypers: HyperParams) -> np.ndarray:
    """Cross-covariance matrix between two point sets, no noise term."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        return np.zeros((len(a), len(b)))
    d2 = cdist(a, b, "sqeuclidean")
    return hypers.sigma_f2 * np.exp(-d2 / (2.0 * hypers.length_scale**2))


def extend_cholesky(factor: np.ndarray, k12: np.ndarray, k22: np.ndarray) -> np.ndarray:
    """Extend an upper-triangular factor with new rows and columns.

    Given L with L.T @ L = K11, the cross block K12 (n x m) and the new
    block K22 (m x m, noise included), returns the (n+m) upper factor of
    the bordered matrix without touching the existing n x n block:

        S12 = solve(L.T, K12)
        S22 = chol(K22 - S12.T @ S12)

    Raises FactorizationError if the trailing block is not positive
    definite (no jitter is applied here; the model layer retries).
    """
    factor = np.asarray(factor, dtype=float)
    k12 = np.asarray(k12, dtype=float)
    k22 = np.atleast_2d(np.asarray(k22, dtype=float))
    n, m = k12.shape if k12.ndim == 2 else (len(factor), 1)
    s12, s22 = _extend_blocks(factor, k12.reshape(n, m), k22)
    out = np.zeros((n + m, n + m))
    out[:n, :n] = factor
    out[:n, n:] = s12
    out[n:, n:] = s22
    return out


def _extend_blocks(factor, k12, k22):
    n, m = k12.shape
    if n == 0:
        s12 = np.zeros((0, m))
        schur = k22
    else:
        s12 = solve_triangular(factor, k12, trans="T", lower=False, check_finite=False)
        schur = k22 - s12.T @ s12
    try:
        s22 = cholesky(schur, lower=False, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"covariance extension not positive definite: {exc}") from exc
    return s12, s22


class _Buffers:
    """Preallocated storage shared by successive snapshots.

    Appends only ever write rows/columns at indices >= n of the current
    snapshot, so earlier snapshots keep seeing consistent data. Column 0
    of `solved` holds L^-T y and column 1 holds L^-T 1.
    """

    __slots__ = ("x", "y", "L", "solved", "cap")

    def __init__(self, cap: int):
        cap = max(int(cap), 16)
        self.cap = cap
        self.x = np.zeros((cap, 2))
        self.y = np.zeros(cap)
        self.L = np.zeros((cap, cap))
        self.solved = np.zeros((cap, 2))

    def with_room(self, n: int, need: int) -> "_Buffers":
        """These buffers if `need` rows fit, else a copy of the first n
        rows with the capacity doubled until they fit."""
        if need <= self.cap:
            return self
        new_cap = self.cap
        while new_cap < need:
            new_cap *= 2
        out = _Buffers(new_cap)
        out.x[:n] = self.x[:n]
        out.y[:n] = self.y[:n]
        out.L[:n, :n] = self.L[:n, :n]
        out.solved[:n] = self.solved[:n]
        return out


def _query_points(xs, st: "GpState", what: str) -> np.ndarray:
    if st.n == 0:
        raise EmptyModelError(f"{what} requires at least one observation")
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if xs.shape[1] != 2 or not np.all(np.isfinite(xs)):
        raise ConfigError(f"query points must be finite (m, 2), got shape {xs.shape}")
    return xs


class GpState:
    """Immutable view of the model at a point in time.

    Its predictions never change, whatever the model does after the
    snapshot was taken.
    """

    __slots__ = ("_bufs", "n", "hypers", "subtract_mean", "y_mean", "_beta", "_alpha")

    def __init__(self, bufs, n, hypers, subtract_mean, y_mean):
        self._bufs = bufs
        self.n = n
        self.hypers = hypers
        self.subtract_mean = subtract_mean
        self.y_mean = y_mean
        self._beta = None
        self._alpha = None

    @property
    def X(self) -> np.ndarray:
        return self._bufs.x[: self.n]

    @property
    def y(self) -> np.ndarray:
        return self._bufs.y[: self.n]

    @property
    def y_centered(self) -> np.ndarray:
        return self.y - self.y_mean if self.subtract_mean else self.y

    @property
    def K_y(self) -> np.ndarray:
        """Noisy covariance of the stored points, built on demand."""
        return kernel_matrix(self.X, self.X, self.hypers) + self.hypers.sigma_n2 * np.eye(self.n)

    @property
    def L(self) -> np.ndarray:
        return self._bufs.L[: self.n, : self.n]

    @property
    def beta(self) -> np.ndarray:
        """Cached L^-T applied to the (centered) depths, a vector of this snapshot's own."""
        b = self._beta
        if b is None:
            solved = self._bufs.solved[: self.n]
            b = solved[:, 0] - self.y_mean * solved[:, 1]
            self._beta = b
        return b

    @property
    def alpha(self) -> np.ndarray:
        """Cached solve of K_y @ alpha = y (centered when mean subtraction is on)."""
        a = self._alpha
        if a is None:
            a = solve_triangular(self.L, self.beta, lower=False, check_finite=False)
            self._alpha = a
        return a

    def predict(self, xs) -> Prediction:
        """Posterior mean and variance at query points.

        Parameters
        ----------
        xs : array-like, shape (m, 2) or (2,)

        Returns
        -------
        Prediction
            mean (m,) and variance (m,); the variance includes the
            observation noise, so far from all data it tends to
            sigma_f2 + sigma_n2.
        """
        xs = _query_points(xs, self, "predict()")
        h = self.hypers
        ks = kernel_matrix(xs, self.X, h)
        v = solve_triangular(self.L, ks.T, trans="T", lower=False, check_finite=False)
        mean = v.T @ self.beta + self.y_mean
        var = (h.sigma_f2 + h.sigma_n2) - np.einsum("ij,ij->j", v, v)
        return Prediction(mean, np.maximum(var, 0.0))

    def predict_mean(self, xs) -> np.ndarray:
        """Posterior mean only, via the cached alpha vector.

        Costs O(n*m) with no triangular solve beyond the one cached per
        snapshot, so control loops can query every tick without paying
        the variance path. Agrees with predict().mean to rounding.
        """
        xs = _query_points(xs, self, "predict_mean()")
        return kernel_matrix(xs, self.X, self.hypers) @ self.alpha + self.y_mean


class GpModel:
    """Online GP over (x, y) -> depth with an incrementally extended factor."""

    def __init__(self, hypers: HyperParams = DEFAULT_HYPERS, subtract_mean: bool = False):
        self._lock = threading.Lock()
        self._state = GpState(_Buffers(64), 0, hypers, subtract_mean, 0.0)

    # -- reader API ------------------------------------------------------

    def snapshot(self) -> GpState:
        return self._state

    @property
    def n(self) -> int:
        return self._state.n

    @property
    def hypers(self) -> HyperParams:
        return self._state.hypers

    @property
    def train_x(self) -> np.ndarray:
        return self._state.X

    @property
    def train_y(self) -> np.ndarray:
        return self._state.y

    @property
    def K_y(self) -> np.ndarray:
        return self._state.K_y

    @property
    def L(self) -> np.ndarray:
        return self._state.L

    @property
    def alpha(self) -> np.ndarray:
        return self._state.alpha

    def predict(self, xs) -> Prediction:
        """Posterior mean and variance at query points; see GpState.predict."""
        return self._state.predict(xs)

    def predict_mean(self, xs) -> np.ndarray:
        """Posterior mean only; see GpState.predict_mean."""
        return self._state.predict_mean(xs)

    def log_marginal_likelihood(self) -> LmlReport:
        """Log marginal likelihood of the data with its hyper gradient.

        Factors K_y afresh, without the jitter an append may have added;
        raises FactorizationError when that factorization fails.
        """
        st = self._state
        if st.n == 0:
            raise EmptyModelError("log marginal likelihood requires observations")
        try:
            value, grad = _lml_and_grad(st.hypers, st.y_centered, cdist(st.X, st.X, "sqeuclidean"))
        except np.linalg.LinAlgError as exc:
            raise FactorizationError(f"covariance not positive definite: {exc}") from exc
        return LmlReport(value, grad, st.hypers, st.n)

    # -- writer API ------------------------------------------------------

    def append(self, xs, ys) -> None:
        """Add observations, extending the stored factor in place.

        On a non-positive-definite extension the trailing diagonal gets
        one jitter retry (1e-10 * sigma_f2); if that also fails the
        points are rejected with FactorizationError and the model is
        unchanged.
        """
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        if xs.shape != (len(ys), 2):
            raise ConfigError(f"append expects (m, 2) points and (m,) depths, got {xs.shape} / {ys.shape}")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ConfigError("append rejects non-finite observations")
        if len(ys) == 0:
            return
        with self._lock:
            self._state = _extended(self._state, xs, ys)

    def set_hypers(self, hypers: HyperParams) -> None:
        """Swap hyper-parameters, refactoring K_y from scratch."""
        if not isinstance(hypers, HyperParams):
            hypers = HyperParams.from_array(np.asarray(hypers, dtype=float))
        with self._lock:
            st = self._state
            empty = GpState(_Buffers(st._bufs.cap), 0, hypers, st.subtract_mean, 0.0)
            self._state = _extended(empty, st.X, st.y) if st.n else empty

    # -- persistence -----------------------------------------------------

    def save_checkpoint(self, path) -> None:
        """Write hypers, the mean flag and the training rows as columnar text."""
        st = self._state
        text = files.csv_text(",".join(_CHECKPOINT_COLUMNS), [(*st.hypers.as_array(), st.subtract_mean)], "fffi")
        files.write_text(path, text + files.csv_text("x,y,depth", np.column_stack([st.X, st.y]), "fff"))

    @classmethod
    def load_checkpoint(cls, path) -> "GpModel":
        """Rebuild a model from a checkpoint with one deterministic batch append.

        A checkpoint without the subtract_mean column, as written before
        the column existed, comes back centred: missions and `gp-fit`
        saved centred models.
        """
        rows = files.read_rows(path)
        heads = (_CHECKPOINT_COLUMNS, _CHECKPOINT_COLUMNS[:3])
        if len(rows) < 3 or rows[0][1] not in heads or rows[2][1] != ["x", "y", "depth"]:
            raise ConfigError(f"{path} is not a model checkpoint")
        values = files.numbers(path, rows[1], len(rows[0][1]))
        centred = values[3] if len(values) > 3 else 1.0
        if centred not in (0.0, 1.0):
            raise ConfigError(f"{path}:{rows[1][0]}: subtract_mean must be 0 or 1, got {centred}")
        model = cls(HyperParams.from_array(values[:3]), subtract_mean=bool(centred))
        if len(rows) > 3:
            data = np.array([files.numbers(path, row, 3) for row in rows[3:]])
            model.append(data[:, :2], data[:, 2])
        return model


def _extended(st: GpState, xs: np.ndarray, ys: np.ndarray) -> GpState:
    """The state `st` plus observations, with the factor extended and
    the jitter retry as `append` describes; `st` itself stays valid."""
    n, m = st.n, len(ys)
    h = st.hypers
    k12 = kernel_matrix(st.X, xs, h)
    k22 = kernel_matrix(xs, xs, h) + h.sigma_n2 * np.eye(m)
    try:
        s12, s22 = _extend_blocks(st.L, k12, k22)
    except FactorizationError:
        k22 = k22 + JITTER_SCALE * h.sigma_f2 * np.eye(m)
        s12, s22 = _extend_blocks(st.L, k12, k22)
    bufs = st._bufs.with_room(n, n + m)
    rhs = np.column_stack([ys, np.ones(m)])
    if n:
        rhs -= s12.T @ bufs.solved[:n]
    bufs.x[n : n + m] = xs
    bufs.y[n : n + m] = ys
    bufs.L[:n, n : n + m] = s12
    bufs.L[n : n + m, n : n + m] = s22
    bufs.solved[n : n + m] = solve_triangular(s22, rhs, trans="T", lower=False, check_finite=False)
    y_mean = float(bufs.y[: n + m].mean()) if st.subtract_mean else 0.0
    return GpState(bufs, n + m, h, st.subtract_mean, y_mean)


def _lml_and_grad(h: HyperParams, yc: np.ndarray, d2: np.ndarray):
    """Log marginal likelihood of yc and its gradient in raw parameters.

    Builds K_y from the squared distances d2 and factors it in place.
    With W = alpha alpha^T - K_y^-1 the gradient is 0.5 tr(W dK_y/dtheta)
    (GPML eq. 5.9); the sigma_f2 and sigma_n2 terms reduce to scalars
    through K_f = K_y - sigma_n2 I and K_y alpha = yc:

        tr(K_y^-1 K_f)    = n - sigma_n2 tr(K_y^-1)
        alpha^T K_f alpha = alpha^T yc - sigma_n2 |alpha|^2

    Raises np.linalg.LinAlgError when K_y is not positive definite.
    """
    n = len(yc)
    k = np.multiply(d2, -0.5 / h.length_scale**2)
    np.exp(k, out=k)
    k *= h.sigma_f2
    # length-scale derivative times ell^3; the noise diagonal drops out of
    # it because diag(d2) is zero, so it can be taken from K_f or K_y
    m = k * d2
    k.flat[:: n + 1] += h.sigma_n2
    # k is symmetric, so its transpose is the Fortran-ordered view LAPACK factors in place
    factor = cholesky(k.T, lower=False, overwrite_a=True, check_finite=False)
    beta = solve_triangular(factor, yc, trans="T", lower=False, check_finite=False)
    alpha = solve_triangular(factor, beta, lower=False, check_finite=False)
    b2 = float(beta @ beta)  # = alpha^T yc
    value = -0.5 * b2 - float(np.log(np.diag(factor)).sum()) - 0.5 * n * LOG_2PI
    # upper triangle of K_y^-1 over a zero lower triangle; m is symmetric
    # with a zero diagonal, so the full sum of K_y^-1 * m is twice this one
    inv_upper, info = dpotri(factor, lower=0, overwrite_c=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dpotri failed with info={info}")
    tr_inv = float(np.trace(inv_upper))
    a2 = float(alpha @ alpha)
    grad = np.array(
        [
            0.5 * ((b2 - h.sigma_n2 * a2) - (n - h.sigma_n2 * tr_inv)) / h.sigma_f2,
            0.5 * (a2 - tr_inv),
            0.5 * (float(alpha @ (m @ alpha)) - 2.0 * float(np.einsum("ij,ij->", inv_upper, m))) / h.length_scale**3,
        ]
    )
    return value, grad


def _data_extent(x: np.ndarray) -> float:
    """Largest coordinate range of the inputs, 1 for a single point."""
    return float(np.ptp(x, axis=0).max()) if len(x) > 1 else 1.0


def _moment_start(x: np.ndarray, yc: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Data-moment starting point: signal variance from the sample variance,
    a tenth of it as noise, a quarter of the data extent as length scale."""
    v = float(np.var(yc))
    if not v > 0.0:
        v = 1.0
    guess = np.array([v, 0.1 * v, max(_data_extent(x) / 4.0, 1e-3)])
    return np.clip(guess, lo, hi)


def optimize_hypers(model, initial: HyperParams | None = None, bounds=None, max_iter: int = 60) -> HyperFit:
    """Bounded maximum-likelihood fit with L-BFGS-B in log space.

    Runs against a frozen snapshot of the model's data and never mutates
    the model; apply the result with model.set_hypers(fit.hypers).
    Returns the best point evaluated, so the fitted likelihood is never
    below the starting one. Non-convergence degrades to a warning with
    converged=False rather than an error.

    The likelihood has a pure-noise local optimum (tiny signal variance,
    arbitrary length scale) that can trap a warm start when early data
    carried no structure. A length scale beyond the data's extent is a
    trend the data cannot pin down: sigma_f2 and the length scale trade
    off along a ridge, and a warm start that once entered it can stay
    there while a shorter-scale optimum lies several nats higher. The
    warm start runs alone; a second data-moment start is tried only when
    it gives no usable answer: it found no finite point, it landed in
    the pure-noise optimum or on the trend ridge, or L-BFGS-B did not
    converge.
    """
    st = model.snapshot() if isinstance(model, GpModel) else model
    if st.n == 0:
        raise EmptyModelError("cannot fit hyper-parameters without observations")
    if initial is None:
        initial = st.hypers
    if bounds is None:
        bounds = DEFAULT_BOUNDS
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    if np.any(lo <= 0.0) or np.any(hi <= lo):
        raise ConfigError(f"bounds must be positive intervals, got {bounds}")
    x = st.X.copy()
    yc = st.y_centered.copy()
    d2 = cdist(x, x, "sqeuclidean")
    best = {"lml": -np.inf, "theta": None, "evals": 0}

    def objective(log_theta):
        best["evals"] += 1
        theta = np.exp(log_theta)
        try:
            value, grad = _lml_and_grad(HyperParams.from_array(theta), yc, d2)
        except np.linalg.LinAlgError:
            return 1e25, np.zeros(3)
        if value > best["lml"]:
            best["lml"] = value
            best["theta"] = theta.copy()
        return -value, -(grad * theta)  # chain rule into log space

    log_bounds = list(zip(np.log(lo), np.log(hi)))

    def run(theta0: np.ndarray):
        x0 = np.log(np.clip(theta0, lo, hi))
        return minimize(objective, x0, jac=True, method="L-BFGS-B", bounds=log_bounds, options={"maxiter": max_iter})

    results = [run(initial.as_array())]
    var_y = float(np.var(yc))
    found = best["theta"] is not None
    degenerate = found and best["theta"][0] < 1e-3 * max(var_y, 1e-12)
    trend = found and best["theta"][2] > _data_extent(x)
    if not found or degenerate or trend or not results[0].success:
        results.append(run(_moment_start(x, yc, lo, hi)))
    converged = any(bool(r.success) for r in results)
    if best["theta"] is None:
        raise FactorizationError("likelihood was not finite anywhere the optimizer looked")
    if not converged:
        messages = "; ".join(str(r.message) for r in results)
        warnings.warn(f"hyper fit stopped early ({messages}); returning best point seen", RuntimeWarning)
    return HyperFit(HyperParams.from_array(best["theta"]), float(best["lml"]), converged, best["evals"])


def op_count(n: int, m: int) -> tuple:
    """Floating-point cost model for predicting m points against n stored.

    Returns (batch_ops, sequential_ops): one joint factorization of the
    (n+m) system versus m from-scratch factorizations of (n+1) systems.
    """
    if n < 0 or m < 1:
        raise ConfigError(f"op_count needs n >= 0 and m >= 1, got n={n} m={m}")
    return (n + m) ** 3, m * (n + 1) ** 3


@dataclass(frozen=True)
class BenchResult:
    n: int
    m: int
    batch_ops: int
    sequential_ops: int
    op_ratio: float
    batch_seconds: float
    sequential_seconds: float
    measured_ratio: float


def benchmark_prediction(n: int = 500, m: int = 50, seed: int = 0) -> BenchResult:
    """Time batch versus sequential prediction under the naive cost model.

    Batch factorizes the joint (n+m) covariance once; sequential
    factorizes a fresh (n+1) covariance per test point, mirroring what
    the incremental extension avoids.
    """
    batch_ops, seq_ops = op_count(n, m)
    rng = np.random.default_rng(seed)
    h = HyperParams(1.0, 0.01, 25.0)
    pts = rng.uniform(0.0, 200.0, size=(n + m, 2))
    y = np.sin(pts[:n, 0] / 40.0) + 0.1 * rng.standard_normal(n)
    k_full = kernel_matrix(pts, pts, h) + h.sigma_n2 * np.eye(n + m)

    t0 = time.perf_counter()
    fac = cholesky(k_full, lower=False, check_finite=False)
    beta = solve_triangular(fac[:n, :n], y, trans="T", lower=False, check_finite=False)
    _ = fac[:n, n:].T @ beta
    batch_s = time.perf_counter() - t0

    k_train = k_full[:n, :n]
    t0 = time.perf_counter()
    joint = np.empty((n + 1, n + 1))
    joint[:n, :n] = k_train
    for j in range(m):
        joint[:n, n] = k_full[:n, n + j]
        joint[n, :n] = k_full[n + j, :n]
        joint[n, n] = k_full[n + j, n + j]
        fac_j = cholesky(joint, lower=False, check_finite=False)
        beta_j = solve_triangular(fac_j[:n, :n], y, trans="T", lower=False, check_finite=False)
        _ = fac_j[:n, n:].T @ beta_j
    seq_s = time.perf_counter() - t0

    return BenchResult(
        n=n,
        m=m,
        batch_ops=batch_ops,
        sequential_ops=seq_ops,
        op_ratio=seq_ops / batch_ops,
        batch_seconds=batch_s,
        sequential_seconds=seq_s,
        measured_ratio=seq_s / batch_s if batch_s > 0 else float("inf"),
    )
