"""Streaming Gaussian-process depth model.

The model regresses depth less its mean on horizontal position with a
squared exponential kernel and maintains an upper-triangular Cholesky
factor of the noisy covariance (L.T @ L = K_y). The factor grows one way: a
batch appended to an empty model is factored in one block, and every
other sounding extends it in place by one column, so it is refactored
from scratch only on a hyper-parameter change. Alongside the factor it
extends L^-T y and L^-T 1, from which each snapshot builds its own
centred weights, so an append writes only new rows and columns.

The factor is stored in LAPACK's upper packed, column-major layout:
column j (rows 0..j) occupies P[j(j+1)/2 : (j+1)(j+2)/2]. A model of n
points reads the contiguous prefix P[:n(n+1)/2], which the packed BLAS
routine dtpsv solves against without a copy, and appending columns
n, n+1, ... writes only past that prefix. One sounding thus takes two
O(n^2) triangular solves that read the factor in place (its own column
and the new snapshot's weights) and allocates O(n); the factor takes
cap(cap+1)/2 doubles. predict's variance solves on an RFP copy of the
prefix; the square factor `L` is unpacked anew per read.

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
from typing import NamedTuple

import numpy as np
from scipy.linalg.blas import dtpsv, dtrsm
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs, dtfsm, dtpttf, dtpttr, dtrtrs, dtrttp
from scipy.optimize import minimize
from scipy.spatial.distance import cdist

from . import files
from .errors import ConfigError, EmptyModelError, FactorizationError

LOG_2PI = math.log(2.0 * math.pi)

#: factor applied to sigma_f^2 for the one jitter retry on a failed factorization
JITTER_SCALE = 1e-10

#: rows a freshly factored model leaves free past its n, so that the
#: appends that follow a refit seldom copy the buffers
HEADROOM = 256

#: default raw-space box for each hyper-parameter during optimization
DEFAULT_BOUNDS = ((1e-6, 1e6), (1e-6, 1e6), (1e-6, 1e6))

#: the inducing= that missions pass to optimize_hypers: a fit on more
#: soundings than this runs on the variational bound, O(n m^2) per
#: evaluation instead of O(n^3), on at most this many inducing inputs
INDUCING = 100

#: fewest soundings from one inducing input to the next. Missions sound
#: 1 m apart, and 99% of the bound fits of 352 canonical_half missions
#: settle at a length scale of 32 m or more, so inputs 6 m apart leave
#: five or more to a length scale along the track
_MIN_STRIDE = 6

#: added to the diagonal of the inducing inputs' unit correlation, which
#: neighbouring soundings on one track make nearly singular
_INDUCING_JITTER = 1e-10


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
        """Parameters from exactly three numbers in field order."""
        try:
            values = np.asarray(arr, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"hyper-parameters must be three numbers, got {arr!r}") from exc
        if values.shape != (3,):
            raise ConfigError(f"hyper-parameters must be three numbers, got {arr!r}")
        return cls(*values.tolist())


#: first-fit starting point when nothing better is known
DEFAULT_HYPERS = HyperParams(1.0, 0.01, 10.0)
#: hyper row columns of a checkpoint
_CHECKPOINT_COLUMNS = ["sigma_f2", "sigma_n2", "length_scale"]
#: the hyper header written while centring was optional, its flag 1 when centred
_LEGACY_COLUMNS = [*_CHECKPOINT_COLUMNS, "subtract_mean"]


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
    """Result of a bounded maximum-likelihood hyper fit. lml is the value
    it maximised: the exact log marginal likelihood, or the
    inducing-point bound for a fit that ran on one, which lies below the
    exact likelihood at the same hypers."""

    hypers: HyperParams
    lml: float
    converged: bool
    n_evals: int


def kernel_matrix(a, b, hypers: HyperParams) -> np.ndarray:
    """Cross-covariance matrix between two point sets, no noise term."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        return np.zeros((len(a), len(b)))
    k = cdist(a, b, "sqeuclidean")
    try:
        two_ell2 = 2.0 * hypers.length_scale**2
    except OverflowError:  # a length scale past 1e154: the constant kernel it tends to
        two_ell2 = math.inf
    k /= -two_ell2
    np.exp(k, out=k)
    k *= hypers.sigma_f2
    return k


def _lapack(routine, *args, **kwargs) -> np.ndarray:
    """The array a LAPACK routine returns. An argument is copied only
    when it is not Fortran-ordered or the call does not let the routine
    overwrite it. Raises np.linalg.LinAlgError on a nonzero info: a
    matrix that is not positive definite, a singular triangle or an
    illegal argument."""
    out, info = routine(*args, **kwargs)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine.__name__} returned info={info}")
    return out


def _tri(n: int) -> int:
    """Length of the packed upper triangle of an n x n factor."""
    return n * (n + 1) // 2


class _Buffers:
    """Preallocated storage shared by successive snapshots.

    `P` holds the upper factor packed by columns: column j, rows 0..j,
    at P[_tri(j) : _tri(j + 1)]. A snapshot of n points reads only
    P[:_tri(n)] and rows < n of x, y and `solved`; an append writes only
    columns and rows >= n, so it never writes under a held snapshot, and
    one that outgrows the capacity copies into new buffers instead.
    Column 0 of `solved` holds L^-T y and column 1 holds L^-T 1.
    """

    __slots__ = ("x", "y", "P", "solved", "cap")

    def __init__(self, cap: int):
        cap = max(int(cap), 16)
        self.cap = cap
        self.x = np.zeros((cap, 2))
        self.y = np.zeros(cap)
        self.P = np.zeros(_tri(cap))
        self.solved = np.zeros((cap, 2))

    def with_room(self, n: int, need: int) -> "_Buffers":
        """These buffers if `need` rows fit, else a copy of the first n
        rows with the capacity grown by half until they fit."""
        if need <= self.cap:
            return self
        new_cap = self.cap
        while new_cap < need:
            new_cap += new_cap // 2
        out = _Buffers(new_cap)
        out.x[:n] = self.x[:n]
        out.y[:n] = self.y[:n]
        out.P[: _tri(n)] = self.P[: _tri(n)]
        out.solved[:n] = self.solved[:n]
        return out


def _query_points(xs, st: "GpState", what: str) -> np.ndarray:
    if st.n == 0:
        raise EmptyModelError(f"{what} requires at least one observation")
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if xs.shape[1] != 2 or not np.isfinite(xs).all():
        raise ConfigError(f"query points must be finite (m, 2), got shape {xs.shape}")
    return xs


class GpState:
    """Immutable view of the model at a point in time.

    Its predictions never change, whatever the model does after the
    snapshot was taken.
    """

    __slots__ = ("_bufs", "n", "hypers", "y_mean", "_beta", "_alpha")

    def __init__(self, bufs, n, hypers, y_mean):
        self._bufs = bufs
        self.n = n
        self.hypers = hypers
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
        return self.y - self.y_mean

    @property
    def _packed(self) -> np.ndarray:
        """The upper factor packed by columns, a view of the shared buffer."""
        return self._bufs.P[: _tri(self.n)]

    @property
    def L(self) -> np.ndarray:
        """Square upper factor with zeros below the diagonal, unpacked
        from the packed prefix on each read; the snapshot keeps none."""
        return dtpttr(self.n, self._packed)[0]

    @property
    def beta(self) -> np.ndarray:
        """Cached L^-T applied to the centred depths, a vector of this snapshot's own."""
        b = self._beta
        if b is None:
            solved = self._bufs.solved[: self.n]
            b = solved[:, 0] - self.y_mean * solved[:, 1]
            self._beta = b
        return b

    @property
    def alpha(self) -> np.ndarray:
        """Cached solve of K_y @ alpha = y - y_mean."""
        a = self._alpha
        if a is None:
            a = dtpsv(self.n, self._packed, self.beta) if self.n else np.zeros(0)
            self._alpha = a
        return a

    def log_likelihood(self) -> float:
        """Log marginal likelihood of the centred depths under this
        snapshot's own factor, any jitter it took included, in O(n):
        -|beta|^2 / 2 - sum(log diag L) - n log(2 pi) / 2."""
        diag = self._packed[np.arange(1, self.n + 1).cumsum() - 1]  # column j ends at _tri(j + 1)
        return -0.5 * float(self.beta @ self.beta) - float(np.log(diag).sum()) - 0.5 * self.n * LOG_2PI

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
        mean = ks @ self.alpha + self.y_mean
        # L^T v = ks^T solved at level 3 on the packed prefix in RFP layout,
        # n(n+1)/2 doubles, so no n x n square lives; ks.T is Fortran-ordered
        # and read only here, so it is solved in place
        rfp = _lapack(dtpttf, self.n, self._packed)
        v = dtfsm(1.0, rfp, ks.T, trans="T", overwrite_b=1)
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
    """Online GP over (x, y) -> depth with an incrementally extended factor.

    It models the depths less their mean and adds the mean back to every
    prediction: depths lie far from zero, so a zero-mean prior would read
    unsounded water as shallow, and the follower's arc search would steer
    the vessel back into its own wake.
    """

    def __init__(self, hypers: HyperParams = DEFAULT_HYPERS):
        self._lock = threading.Lock()
        self._state = GpState(_Buffers(64), 0, hypers, 0.0)

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
        raises FactorizationError when that factorization fails, and
        ConfigError when two soundings lie too far apart for it.
        """
        st = self._state
        if st.n == 0:
            raise EmptyModelError("log marginal likelihood requires observations")
        try:
            value, grad = _lml_and_grad(st.hypers, st.y_centered, _squared_distances(st.X, st.X))
        except np.linalg.LinAlgError as exc:
            raise FactorizationError(f"covariance not positive definite: {exc}") from exc
        return LmlReport(value, grad, st.hypers, st.n)

    # -- writer API ------------------------------------------------------

    def append(self, xs, ys) -> None:
        """Add observations, extending the stored factor in place.

        A batch onto an empty model is factored in one block; otherwise
        each sounding extends the factor by one column. A block or
        column that is not positive definite gets one jitter retry,
        1e-10 * sigma_f2 on its new diagonal; if that also fails the
        whole batch is rejected with FactorizationError and the model is
        unchanged. Depths so large that the model's weights (alpha)
        overflow are rejected whole with ConfigError, the model
        unchanged.
        """
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        if xs.shape != (len(ys), 2):
            raise ConfigError(f"append expects (m, 2) points and (m,) depths, got {xs.shape} / {ys.shape}")
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ConfigError("append rejects non-finite observations")
        if len(ys) == 0:
            return
        with self._lock, np.errstate(over="ignore", invalid="ignore"):
            st = _extended(self._state, xs, ys)
            if not (math.isfinite(st.y_mean) and np.isfinite(st.alpha).all()):
                raise ConfigError("depths too large to model: the model's weights overflow")
            self._state = st

    def set_hypers(self, hypers: HyperParams) -> None:
        """Swap hyper-parameters, refactoring K_y from scratch into fresh
        buffers, which the block factor sizes to n + HEADROOM rows."""
        if not isinstance(hypers, HyperParams):
            hypers = HyperParams.from_array(hypers)
        with self._lock:
            st = self._state
            empty = GpState(_Buffers(0), 0, hypers, 0.0)
            self._state = _extended(empty, st.X, st.y) if st.n else empty

    # -- persistence -----------------------------------------------------

    def save_checkpoint(self, path) -> None:
        """Write hypers and the training rows as columnar text."""
        st = self._state
        text = files.csv_text(",".join(_CHECKPOINT_COLUMNS), [st.hypers.as_array()], "fff")
        files.write_text(path, text + files.csv_text("x,y,depth", np.column_stack([st.X, st.y]), "fff"))

    @classmethod
    def load_checkpoint(cls, path) -> "GpModel":
        """Rebuild a model from a checkpoint with one deterministic batch append.

        A checkpoint written while centring was optional has a fourth
        hyper column, subtract_mean; it loads when that flag is 1, as
        every mission and `gp-fit` wrote it, and is refused with
        ConfigError otherwise, since an uncentred model no longer exists.
        Depths so large that the model's weights overflow are refused by
        `append`, as every other bad file is, with ConfigError.
        """
        rows = files.read_rows(path)
        heads = (_CHECKPOINT_COLUMNS, _LEGACY_COLUMNS)
        if len(rows) < 3 or rows[0][1] not in heads or rows[2][1] != ["x", "y", "depth"]:
            raise ConfigError(f"{path} is not a model checkpoint")
        values = files.numbers(path, rows[1], len(rows[0][1]))
        if len(values) > 3 and values[3] != 1.0:
            raise ConfigError(f"{path}:{rows[1][0]}: subtract_mean must be 1, the centred model, got {values[3]}")
        model = cls(HyperParams.from_array(values[:3]))
        if len(rows) > 3:
            data = np.array([files.numbers(path, row, 3) for row in rows[3:]])
            model.append(data[:, :2], data[:, 2])
        return model


def _extended(st: GpState, xs: np.ndarray, ys: np.ndarray) -> GpState:
    """The state `st` plus observations, with the jitter retry as
    `append` describes; `st` itself stays valid. A batch onto an empty
    state is factored in one block; every other sounding extends the
    factor by one column, so a batch onto a non-empty state grows
    through states nothing else sees and is committed whole. A lone
    sounding, even the first, takes the column route, which makes no
    LAPACK call."""
    if st.n == 0 and len(ys) > 1:
        return _retried(_factored, st, xs, ys)
    for x, y in zip(xs, ys):
        st = _retried(_with_sounding, st, x, y)
    return st


def _retried(grow, st: GpState, *obs) -> GpState:
    """grow(st, *obs, jitter) as it is, then once more with
    JITTER_SCALE * sigma_f2 added to the new diagonal."""
    try:
        return grow(st, *obs, 0.0)
    except FactorizationError:
        return grow(st, *obs, JITTER_SCALE * st.hypers.sigma_f2)


def _factored(st: GpState, xs: np.ndarray, ys: np.ndarray, jitter: float) -> GpState:
    """The empty state `st` with its factor built from scratch: one
    Cholesky factorization of K_y in place, packed into fresh buffers of
    m + HEADROOM rows. K_y is symmetric, so its transpose is the
    Fortran-ordered view LAPACK factors; only its upper triangle is read."""
    m, h = len(ys), st.hypers
    k = kernel_matrix(xs, xs, h)
    k.flat[:: m + 1] += h.sigma_n2
    k.flat[:: m + 1] += jitter
    rhs = np.ones((m, 2), order="F")
    rhs[:, 0] = ys
    try:
        factor = _lapack(dpotrf, k.T, clean=0, overwrite_a=1)
        solved = _lapack(dtrtrs, factor, rhs, trans=1, overwrite_b=1)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"covariance not positive definite: {exc}") from exc
    bufs = _Buffers(m + HEADROOM)
    bufs.x[:m] = xs
    bufs.y[:m] = ys
    bufs.P[: _tri(m)] = dtrttp(factor)[0]
    bufs.solved[:m] = solved
    return GpState(bufs, m, h, float(bufs.y[:m].mean()))


def _with_sounding(st: GpState, x: np.ndarray, y: float, jitter: float) -> GpState:
    """The state `st` plus one sounding. Its factor column is L^-T k,
    solved on the packed prefix in place, over the square root of the
    Schur complement; only rows and columns past n are written."""
    n, h = st.n, st.hypers
    k12 = kernel_matrix(x, st.X, h)[0]  # a row: cdist runs along the n soundings
    s12 = dtpsv(n, st._packed, k12, trans=1) if n else k12  # dtpsv rejects n = 0
    schur = (h.sigma_f2 + h.sigma_n2 + jitter) - s12 @ s12  # k(x, x) = sigma_f2
    if not schur > 0.0:
        raise FactorizationError(f"covariance extension not positive definite: Schur complement {schur}")
    s22 = math.sqrt(schur)
    bufs = st._bufs.with_room(n, n + 1)
    bufs.x[n] = x
    bufs.y[n] = y
    end = _tri(n + 1) - 1  # the column's diagonal entry
    bufs.P[end - n : end] = s12
    bufs.P[end] = s22
    bufs.solved[n] = (np.array([y, 1.0]) - s12 @ bufs.solved[:n]) / s22
    return GpState(bufs, n + 1, h, float(bufs.y[: n + 1].mean()))


class _UnitFactor(NamedTuple):
    """Scalars of one factorization of the unit-amplitude covariance
    K~ = C + lambda I, with C the SE correlation at length scale ell and
    lambda = sigma_n2 / sigma_f2, so that K_y = sigma_f2 K~. With
    a = K~^-1 yc and M = ell^3 dC/d ell (C * d2), the likelihood and its
    gradient at every sigma_f2 follow from:

        q      = yc^T K~^-1 yc           tr_inv = tr K~^-1
        logdet = log |K~|                a2     = |a|^2
        ama    = a^T M a                 tr_m   = sum(K~^-1 * M)

    On the inducing-point bound (_bound_factor) C is its Nystrom
    approximation Q~, and the bound is the likelihood less
    slack = (n - tr Q~) / (2 lambda); tr_m then also holds that term's
    share, -tr(M) / lambda, so the gradient reads the same. The exact
    likelihood has no slack.
    """

    n: int
    q: float
    logdet: float
    tr_inv: float
    a2: float
    ama: float
    tr_m: float
    slack: float = 0.0

    def lml(self, sigma_f2: float) -> float:
        """Log marginal likelihood (or bound) at signal variance sigma_f2, through
        yc^T K_y^-1 yc = q / sigma_f2 and log |K_y| = n log sigma_f2 + logdet."""
        n = self.n
        return -0.5 * self.q / sigma_f2 - 0.5 * (n * math.log(sigma_f2) + self.logdet) - 0.5 * n * LOG_2PI - self.slack


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between two sets of inputs, for the likelihood.

    Raises ConfigError when one overflows: the length-scale gradient
    would read 0 * inf there.
    """
    d2 = cdist(a, b, "sqeuclidean")
    if not np.isfinite(d2).all():
        raise ConfigError("soundings too far apart to fit: their squared distance overflows")
    return d2


def _unit_factor(lam: float, ell: float, yc: np.ndarray, d2: np.ndarray) -> _UnitFactor:
    """Factor K~ = C + lam I once, built from the squared distances d2 in
    place (one dpotrf, two dtrtrs, one dpotri), and return its scalars.

    Raises np.linalg.LinAlgError when K~ is not positive definite.
    """
    n = len(yc)
    k = np.multiply(d2, -0.5 / ell / ell)
    np.exp(k, out=k)
    # the noise diagonal drops out of M because diag(d2) is zero
    m = k * d2
    k.flat[:: n + 1] += lam
    # k is symmetric, so its transpose is the Fortran-ordered view LAPACK
    # factors in place; clean=1 zeroes the lower triangle, which dpotri keeps
    factor = _lapack(dpotrf, k.T, clean=1, overwrite_a=1)
    beta = _lapack(dtrtrs, factor, yc, trans=1)
    alpha = _lapack(dtrtrs, factor, beta)
    logdet = 2.0 * float(np.log(np.diag(factor)).sum())
    # upper triangle of K~^-1 over a zero lower triangle; m is symmetric
    # with a zero diagonal, so the full sum of K~^-1 * m is twice this one
    inv_upper = _lapack(dpotri, factor, overwrite_c=1)
    return _UnitFactor(
        n,
        float(beta @ beta),
        logdet,
        float(np.trace(inv_upper)),
        float(alpha @ alpha),
        float(alpha @ (m @ alpha)),
        2.0 * float(np.einsum("ij,ij->", inv_upper, m)),
    )


def _bound_factor(lam: float, ell: float, yc: np.ndarray, d2_zx: np.ndarray, d2_zz: np.ndarray) -> _UnitFactor:
    """The scalars of Titsias's (2009) collapsed variational bound at unit
    amplitude: K~ = Q~ + lam I with Q~ = C_xz C_zz^-1 C_zx, from the
    squared distances of m inducing inputs to the n soundings (d2_zx, m x n)
    and among themselves (d2_zz), C_zz carrying _INDUCING_JITTER.

    Through V = L_z^-1 C_zx (L_z the lower factor of C_zz), solved on the
    right as V^T = C_xz L_z^-T in C_zx's own storage, and Woodbury
    with B = lam I + V V^T, every term costs O(n m^2) and no n x n array
    is built: K~^-1 = (I - V^T B^-1 V) / lam, so tr K~^-1 =
    (n - tr B^-1 V V^T) / lam, log |K~| = (n - m) log lam + log |B| and
    tr Q~ = |V|^2. For the length scale, ell^3 dQ~/d ell is
    M_xz W + W^T M_zx - W^T M_zz W with W = C_zz^-1 C_zx and M = C * d2.
    The bound's gradient in Q~, G = a a^T / (2 sigma_f2) - K~^-1 / 2
    + I / (2 lam), reduces through W G = w a^T / (2 sigma_f2) + S V / (2 lam),
    where w = W a and S = L_z^-T (I - lam B^-1), so ama and tr_m take
    one more O(n m^2) product, M_zx V^T.

    Raises np.linalg.LinAlgError when C_zz or B is not positive definite.
    """
    m, n = d2_zx.shape
    scale = -0.5 / ell / ell
    c_zx = np.multiply(d2_zx, scale)
    np.exp(c_zx, out=c_zx)
    c_zz = np.exp(d2_zz * scale)
    m_zx = c_zx * d2_zx
    m_zz = c_zz * d2_zz
    c_zz.flat[:: m + 1] += _INDUCING_JITTER
    # C_zz, C_zx and B are C-ordered, so their transposes are the
    # Fortran-ordered views LAPACK and BLAS work on in place; C_zz and B
    # are symmetric
    lz = _lapack(dpotrf, c_zz.T, lower=1, clean=0, overwrite_a=1)
    v = dtrsm(1.0, lz, c_zx.T, side=1, lower=1, trans_a=1, overwrite_b=1).T
    vvt = v @ v.T
    b = vvt.copy()
    b.flat[:: m + 1] += lam
    lb = _lapack(dpotrf, b.T, lower=1, clean=0, overwrite_a=1)
    a = (yc - v.T @ _lapack(dpotrs, lb, v @ yc, lower=1)) / lam
    w = _lapack(dtrtrs, lz, v @ a, lower=1, trans=1)
    # [S | R] = L_z^-T [B^-1 V V^T | V V^T], dpotrs solving the left half
    # in place: I - lam B^-1 = B^-1 V V^T, solved rather than subtracted,
    # and R = W V^T
    sr = np.empty((m, 2 * m), order="F")
    sr[:, :m] = vvt
    sr[:, m:] = vvt
    b_vvt = _lapack(dpotrs, lb, sr[:, :m], lower=1, overwrite_b=1)
    trace_b_vvt = float(np.trace(b_vvt))
    sr = dtrsm(1.0, lz, sr, lower=1, trans_a=1, overwrite_b=1)
    s, r = sr[:, :m], sr[:, m:]
    return _UnitFactor(
        n,
        float(yc @ a),
        (n - m) * math.log(lam) + 2.0 * float(np.log(np.diag(lb)).sum()),
        (n - trace_b_vvt) / lam,
        float(a @ a),
        2.0 * float(w @ (m_zx @ a)) - float(w @ (m_zz @ w)),
        (float(np.einsum("ij,ij->", s @ r.T, m_zz)) - 2.0 * float(np.einsum("ij,ij->", s, m_zx @ v.T))) / lam,
        (n - float(np.einsum("ij,ij->", v, v))) / (2.0 * lam),
    )


def _lml_and_grad(h: HyperParams, yc: np.ndarray, d2: np.ndarray):
    """Log marginal likelihood of yc and its gradient in raw parameters.

    With W = alpha alpha^T - K_y^-1 the gradient is 0.5 tr(W dK_y/dtheta)
    (GPML eq. 5.9). In the scalars of K~ = K_y / sigma_f2, where
    K_y^-1 = K~^-1 / sigma_f2 and alpha = a / sigma_f2, it reads

        d/d sigma_f2 = 0.5 ((q - lam a2) / sigma_f2 - (n - lam tr_inv)) / sigma_f2
        d/d sigma_n2 = 0.5 (a2 / sigma_f2 - tr_inv) / sigma_f2
        d/d ell      = 0.5 (ama / sigma_f2 - tr_m) / ell^3

    Raises np.linalg.LinAlgError when K_y is not positive definite.
    """
    sf2, ell = h.sigma_f2, h.length_scale
    lam = h.sigma_n2 / sf2
    u = _unit_factor(lam, ell, yc, d2)
    grad = np.array(
        [
            0.5 * ((u.q - lam * u.a2) / sf2 - (u.n - lam * u.tr_inv)) / sf2,
            0.5 * (u.a2 / sf2 - u.tr_inv) / sf2,
            0.5 * (u.ama / sf2 - u.tr_m) / ell / ell / ell,
        ]
    )
    return u.lml(sf2), grad


def _profile_lml_and_grad(log_x: np.ndarray, yc: np.ndarray, d2: np.ndarray, d2_zz: np.ndarray | None = None):
    """Profile log marginal likelihood at x = (lambda, ell), given as logs;
    with d2_zz, the profile of the inducing-point bound instead, d2 then
    holding the squared distances from the inducing inputs to the
    soundings (_bound_factor).

    sigma_f2 takes its best value for this lambda and ell, q / n, clamped
    to the range in which sigma_f2 and sigma_n2 = lambda sigma_f2 both lie
    in DEFAULT_BOUNDS; the likelihood has one peak in sigma_f2, so the
    clamp is the constrained maximiser. The bound's slack depends on
    lambda and ell alone, so the same holds for it. Returns the value,
    its gradient in (log lambda, log ell) and the raw (sigma_f2,
    sigma_n2, ell).

    Raises np.linalg.LinAlgError when K~ is not positive definite.
    """
    lam, ell = np.exp(log_x)
    u = _unit_factor(lam, ell, yc, d2) if d2_zz is None else _bound_factor(lam, ell, yc, d2, d2_zz)
    (f_lo, f_hi), (n_lo, n_hi), _ = DEFAULT_BOUNDS
    free = u.q / u.n
    sf2 = min(max(free, f_lo, n_lo / lam), f_hi, n_hi / lam)
    d_lam = lam * 0.5 * (u.a2 / sf2 - u.tr_inv) + u.slack
    if sf2 != free and sf2 in (n_lo / lam, n_hi / lam):
        # a noise bound binds, so sigma_f2 = bound / lambda moves with lambda
        d_lam -= 0.5 * (u.q / sf2 - u.n)
    grad = np.array([d_lam, 0.5 * (u.ama / sf2 - u.tr_m) / ell / ell])
    return u.lml(sf2), grad, np.array([sf2, lam * sf2, ell])


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


def _inducing_inputs(x: np.ndarray, m: int) -> np.ndarray:
    """The inducing inputs of a bound fit on the soundings x: every k-th,
    k = max(_MIN_STRIDE, ceil(n / m)), so at most m of them, chosen by
    index alone."""
    return x[:: max(_MIN_STRIDE, -(-len(x) // m))]


def optimize_hypers(model, max_iter: int = 60, inducing: int | None = None) -> HyperFit:
    """Maximum-likelihood fit within DEFAULT_BOUNDS, on the profile likelihood.

    Writing K_y = sigma_f2 (C + lambda I) with lambda = sigma_n2 / sigma_f2,
    the best sigma_f2 for a fixed lambda and length scale has the closed
    form yc^T (C + lambda I)^-1 yc / n (the concentrated likelihood of
    kriging; GPML ch. 5). It is clamped to the range in which sigma_f2 and
    sigma_n2 = lambda sigma_f2 both lie in DEFAULT_BOUNDS: the likelihood
    has one peak in sigma_f2, so the clamp is the constrained maximiser,
    and the fit reaches the same maximum as a search over all three.
    L-BFGS-B then searches (log lambda, log length scale) alone, over the
    box those bounds allow. Its objective is the negated profile
    likelihood per sounding, with the default gtol divided by n to match,
    so its first step has the same size whatever n is; each evaluation
    costs one factorization. max_iter caps L-BFGS-B's iterations per start.

    With inducing=m and more than m soundings, the objective is Titsias's
    (2009) collapsed variational lower bound instead, on every k-th
    sounding as inducing input, k = max(_MIN_STRIDE, ceil(n / m))
    (_inducing_inputs): the likelihood of sigma_f2 (Q~ + lambda I), with
    Q~ the Nystrom approximation of C through those inputs, less
    (n - tr Q~) / (2 lambda). That last term depends on lambda and the
    length scale alone, so sigma_f2 profiles out as before, and one
    evaluation costs O(n m^2) instead of O(n^3), with no n x n array.
    Everything else is as for the exact fit, and the fit's lml is then
    the bound's value. The hypers still apply to the exact model. At up
    to m soundings the exact fit runs, bit for bit, so the objective and
    its inputs follow from n alone. The stride floor of 6 binds up to
    n = 5m: a fit on 101-500 soundings with the mission's m = INDUCING
    takes 17-84 inputs, where ceil(n / m) would take up to 100, and one
    on more takes every ceil(n / m)-th sounding. One evaluation on loop
    soundings, OpenBLAS on 1 thread of a 2-vCPU Xeon, exact against the
    bound: 0.16 against 0.065 ms at n = 101 (17 inducing inputs), 0.31
    against 0.093 ms at n = 141 (24), 0.66 against 0.13 ms at n = 201
    (34), 3.1 against 0.43 ms at n = 351 (59).

    Runs against a frozen snapshot of the model's data and never mutates
    the model; apply the result with model.set_hypers(fit.hypers).
    Returns the best point evaluated, so the fitted likelihood is never
    below the starting one. Non-convergence degrades to a warning with
    converged=False rather than an error; soundings whose squared
    distance overflows raise ConfigError.

    The likelihood has a pure-noise local optimum (tiny signal variance,
    arbitrary length scale) that can trap a warm start when early data
    carried no structure. A length scale beyond the data's extent is a
    trend the data cannot pin down: sigma_f2 and the length scale trade
    off along a ridge, and a warm start that once entered it can stay
    there while a shorter-scale optimum lies several nats higher. The
    warm start, the model's own hypers, runs alone; a second data-moment
    start is tried only when it gives no usable answer: it found no
    finite point, it landed in the pure-noise optimum or on the trend
    ridge, or L-BFGS-B did not converge. A start's sigma_f2 only sets
    its lambda.
    """
    st = model.snapshot() if isinstance(model, GpModel) else model
    if st.n == 0:
        raise EmptyModelError("cannot fit hyper-parameters without observations")
    lo, hi = np.array(DEFAULT_BOUNDS, dtype=float).T
    n = st.n
    x = st.X.copy()
    yc = st.y_centered.copy()
    if inducing is not None and n > inducing:
        z = _inducing_inputs(x, inducing)
        distances = (_squared_distances(z, x), _squared_distances(z, z))
    else:
        distances = (_squared_distances(x, x),)
    best = {"lml": -np.inf, "theta": None, "evals": 0}

    def objective(log_x):
        best["evals"] += 1
        try:
            value, grad, theta = _profile_lml_and_grad(log_x, yc, *distances)
        except np.linalg.LinAlgError:
            return 1e25, np.zeros(2)
        if value > best["lml"]:
            best["lml"] = value
            best["theta"] = theta
        return -value / n, -grad / n

    # (lambda, ell) box: lambda spans sigma_n2's bounds over sigma_f2's
    log_lo = np.log([lo[1] / hi[0], lo[2]])
    log_hi = np.log([hi[1] / lo[0], hi[2]])

    def run(theta0: np.ndarray):
        sf2, sn2, ell = np.clip(theta0, lo, hi)
        x0 = np.clip(np.log([sn2 / sf2, ell]), log_lo, log_hi)
        # L-BFGS-B's default gtol, per sounding like the objective
        options = {"maxiter": max_iter, "gtol": 1e-5 / n}
        return minimize(objective, x0, jac=True, method="L-BFGS-B", bounds=list(zip(log_lo, log_hi)), options=options)

    results = [run(st.hypers.as_array())]
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
    hypers = HyperParams.from_array(np.clip(best["theta"], lo, hi))
    return HyperFit(hypers, float(best["lml"]), converged, best["evals"])


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
    fac = _lapack(dpotrf, k_full)
    beta = _lapack(dtrtrs, fac[:n, :n], y, trans=1)
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
        fac_j = _lapack(dpotrf, joint)
        beta_j = _lapack(dtrtrs, fac_j[:n, :n], y, trans=1)
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
