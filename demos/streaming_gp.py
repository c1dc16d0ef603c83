"""
Stream sonar soundings into the online depth model and watch it learn.

A synthetic seabed (plane plus one mound) is sampled along a lawnmower
track. Soundings arrive in small chunks, the way a survey vessel
delivers them, and each chunk extends the existing Cholesky factor one
sounding at a time instead of refactorizing. After every few chunks the
script prints the prediction at a fixed probe point, the factor
reconstruction error against a from-scratch build, and the cost of the
append. Halfway through, the hyper-parameters are re-estimated from the
data.

Run:  python3 demos/streaming_gp.py
"""
import time

import numpy as np

from bathysurvey import GpModel, HyperParams, benchmark_prediction, kernel_matrix, optimize_hypers

rng = np.random.default_rng(42)

# ---------------------------------------------------------------- seabed
# depth in metres, positive down: a gentle plane with a 2 m mound
def seabed(p):
    p = np.atleast_2d(p)
    plane = 6.0 + 0.01 * p[:, 0] - 0.005 * p[:, 1]
    mound = -2.0 * np.exp(-((p[:, 0] - 60.0) ** 2 + (p[:, 1] - 40.0) ** 2) / (2 * 25.0**2))
    return plane + mound

NOISE_STD = 0.05

# survey track: east-west lines 10 m apart over a 100 x 80 m box
xs = np.arange(0.0, 100.0 + 1e-9, 4.0)
track = []
for i, y in enumerate(np.arange(5.0, 80.0, 10.0)):
    row = xs if i % 2 == 0 else xs[::-1]
    track.extend((x, y) for x in row)
track = np.array(track)
depths = seabed(track) + rng.normal(0.0, NOISE_STD, size=len(track))

# ------------------------------------------------------------- streaming
model = GpModel(HyperParams(1.0, 0.01, 10.0))
probe = np.array([[60.0, 40.0]])  # the mound summit
truth = float(seabed(probe)[0])

print(f"streaming {len(track)} soundings, probe = mound summit, true depth {truth:.3f} m")
print(f"{'n':>5} {'mean@probe':>11} {'std@probe':>10} {'factor err':>11} {'append ms':>10}")

i = 0
while i < len(track):
    k = int(rng.integers(5, 15))
    chunk = slice(i, min(i + k, len(track)))
    t0 = time.perf_counter()
    model.append(track[chunk], depths[chunk])
    dt_ms = 1e3 * (time.perf_counter() - t0)
    i = chunk.stop

    if i // 40 != (i - k) // 40 or i == len(track):
        # reconstruction check: the incrementally extended factor must
        # match a from-scratch factorization of the same covariance
        K = kernel_matrix(model.train_x, model.train_x, model.hypers)
        K[np.diag_indices_from(K)] += model.hypers.sigma_n2
        err = float(np.abs(model.L.T @ model.L - K).max())
        pred = model.predict(probe)
        print(f"{model.n:>5} {pred.mean[0]:>11.3f} {pred.std[0]:>10.3f} {err:>11.2e} {dt_ms:>10.2f}")

    if model.n >= len(track) // 2 and len(model.train_x) - k < len(track) // 2:
        fit = optimize_hypers(model)
        model.set_hypers(fit.hypers)
        h = fit.hypers
        print(f"  refit at n={model.n}: sigma_f={np.sqrt(h.sigma_f2):.3f}  "
              f"sigma_n={np.sqrt(h.sigma_n2):.3f}  l={h.length_scale:.1f} m")

pred = model.predict(probe)
print(f"\nfinal probe prediction {pred.mean[0]:.3f} +- {pred.std[0]:.3f} m "
      f"(truth {truth:.3f}, error {abs(pred.mean[0] - truth):.3f})")

# ------------------------------------------------------ why incremental
b = benchmark_prediction(n=500, m=50)
print(f"\ncost model at n={b.n}, m={b.m}: sequential/batch op ratio {b.op_ratio:.1f} "
      f"(measured wall-time ratio {b.measured_ratio:.1f})")
