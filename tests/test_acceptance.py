"""Acceptance gate: one test and one printed verdict line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict
lines; each criterion also stands alone as a named test.
"""

import math
import threading
import time
import warnings

import numpy as np
import pytest

import oracles
from bathysurvey.cli import main
from bathysurvey.coverage import partition_monotone, plan_coverage, sweep_frame
from bathysurvey.geometry import Polygon, points_in_polygon
from bathysurvey.gp import GpModel, HyperParams, benchmark_prediction, optimize_hypers


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"acceptance criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_1_incremental_factor_matches_scratch():
    rng = np.random.default_rng(101)
    worst_factor = 0.0
    worst_pred = 0.0
    for _ in range(50):
        sf2 = float(rng.uniform(0.5, 4.0))
        sn2 = float(rng.uniform(0.01, 0.1))
        ell = float(rng.uniform(5.0, 20.0))
        n = int(rng.integers(20, 301))
        x = rng.uniform(0, 100, (n, 2))
        y = rng.uniform(0, 8, n)

        model = GpModel(HyperParams(sf2, sn2, ell))
        i = 0
        while i < n:
            k = min(n - i, int(rng.integers(1, 12)))
            model.append(x[i : i + k], y[i : i + k])
            i += k

        ref_l = oracles.upper_cholesky(oracles.noisy_kernel(x, sf2, sn2, ell))
        worst_factor = max(worst_factor, float(np.abs(model.L - ref_l).max()))

        q = rng.uniform(0, 100, (10, 2))
        got = model.predict(q)
        want_mean, want_var = oracles.gp_predict(x, y, q, sf2, sn2, ell, y_mean=y.mean())
        worst_pred = max(
            worst_pred,
            float(np.abs(got.mean - want_mean).max()),
            float(np.abs(got.variance - want_var).max()),
        )
    ok = worst_factor <= 1e-10 and worst_pred <= 1e-8
    assert _report(1, ok, f"max factor err {worst_factor:.2e} <= 1e-10, max prediction err {worst_pred:.2e} <= 1e-8")


def test_criterion_2_analytic_gradient_matches_finite_differences():
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        x = rng.uniform(0, 40, (20, 2))
        y = rng.uniform(2, 8, 20)
        hypers = HyperParams(float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.01, 0.1)), float(rng.uniform(4, 15)))
        model = GpModel(hypers)
        model.append(x, y)
        rep = model.log_marginal_likelihood()
        fd = oracles.fd_gradient(x, y - y.mean(), hypers.as_array())
        rel = np.abs(rep.gradient - fd) / np.maximum(1.0, np.abs(fd))
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 5.0
    assert _report(2, ok, f"20 instances, max rel err {worst:.2e} <= 1e-4, {elapsed:.2f} s < 5 s")


def test_criterion_3_prediction_cost_ratio(tmp_path, capsys):
    res = benchmark_prediction(500, 50, seed=0)
    expected = 50 * (500 + 1) ** 3 / (500 + 50) ** 3
    code = main(["bench-ops", "500", "50", "--out", str(tmp_path / "bench")])
    stdout = capsys.readouterr().out
    ok = (
        code == 0
        and abs(res.op_ratio - 37.8) <= 0.1
        and res.op_ratio == pytest.approx(expected, rel=1e-12)
        and "model op ratio (sequential/batch): 37.8" in stdout
    )
    assert _report(3, ok, f"n=500 m=50 op ratio {res.op_ratio:.3f} within 37.8±0.1, printed by bench-ops")


def test_criterion_4_hyperparameter_recovery():
    sf, ell, sn = 2.0, 10.0, 0.1
    hits = 0
    results = []
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        x = rng.uniform(0, 60, (200, 2))
        y = oracles.sample_gp(rng, x, sf**2, sn**2, ell)
        model = GpModel()
        model.append(x, y)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            fit = optimize_hypers(model)
        got_sf = math.sqrt(fit.hypers.sigma_f2)
        got_sn = math.sqrt(fit.hypers.sigma_n2)
        got_l = fit.hypers.length_scale
        good = (
            abs(got_sf - sf) <= 0.3 * sf
            and abs(got_l - ell) <= 0.3 * ell
            and abs(got_sn - sn) <= 0.5 * sn
        )
        hits += good
        results.append((seed, round(got_sf, 3), round(got_l, 2), round(got_sn, 4), good))
    ok = hits >= 8
    assert _report(4, ok, f"{hits}/10 seeds recovered sigma_f within 30%, l within 30%, sigma_n within 50%"), results


def test_criterion_5_tracklines_on_random_polygons():
    rng = np.random.default_rng(105)
    delta = 1.5
    n_polys = 100
    waypoints_total = 0
    waypoints_inside = 0
    worst_spacing = 0.0
    pairs = 0
    for _ in range(n_polys):
        poly = Polygon(oracles.star_polygon(rng, int(rng.integers(5, 13)), r_lo=8.0, r_hi=20.0))
        sweep = float(rng.uniform(-math.pi / 2, math.pi / 2 * 0.999))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            plan = plan_coverage(poly, tuple(poly.vertices[0]), delta, sweep)

        inside = points_in_polygon(plan.waypoints, poly)
        waypoints_total += len(plan.waypoints)
        waypoints_inside += int(inside.sum())

        u, _ = sweep_frame(sweep)
        for seg in plan.segments:
            if seg.kind != "lawnmower":
                continue
            t = np.asarray(seg.points, dtype=float) @ u
            track_ts = np.unique(np.round(t[:-1][np.abs(np.diff(t)) < 1e-9], 12))
            if len(track_ts) >= 2:
                diffs = np.diff(np.sort(track_ts))
                worst_spacing = max(worst_spacing, float(np.abs(diffs - delta).max()))
                pairs += len(diffs)
    ok = waypoints_inside == waypoints_total and worst_spacing <= 1e-9 and pairs > 0
    assert _report(
        5,
        ok,
        f"{n_polys} polygons: {waypoints_inside}/{waypoints_total} waypoints inside, "
        f"{pairs} adjacent track pairs, worst spacing dev {worst_spacing:.2e} <= 1e-9",
    )


def test_criterion_6_partition_counts_and_canonical_cells(canonical_run):
    rect = Polygon([(0, 0), (20, 0), (20, 10), (0, 10)])
    u_shape = Polygon([(0, 0), (30, 0), (30, 40), (20, 40), (20, 10), (10, 10), (10, 40), (0, 40)])
    n_rect = len(partition_monotone(rect, 2.0, 0.0))
    n_u = len(partition_monotone(u_shape, 2.0, 0.0))
    log, _wall = canonical_run
    ok = n_rect == 1 and n_u == 3 and log.closed and len(log.plan.cells) >= 1
    assert _report(
        6,
        ok,
        f"rectangle {n_rect} cell(s), U-shape {n_u} cells, canonical mission closed with {len(log.plan.cells)} cell(s)",
    )


def test_criterion_7_canonical_mission_budgets(canonical_run):
    log, wall = canonical_run
    cfg = log.config
    poly_ok = log.aborted is None and log.closed
    sigma_f = math.sqrt(log.model.hypers.sigma_f2)

    # predictive confidence over the polygon the mission produced and then
    # surveyed; the outer box is deliberately left unsounded by design
    region = log.intersection
    x_lo, y_lo, x_hi, y_hi = region.bounds
    gx, gy = np.meshgrid(np.arange(x_lo, x_hi, 4.0), np.arange(y_lo, y_hi, 4.0))
    grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
    grid = grid[points_in_polygon(grid, region)]
    mean_std = float(np.sqrt(log.model.predict(grid).variance).mean())

    ok = (
        poly_ok
        and log.sim_time < cfg.max_sim_time
        and wall < 60.0
        and mean_std < 0.1 * sigma_f
    )
    assert _report(
        7,
        ok,
        f"sim {log.sim_time:.0f} s < {cfg.max_sim_time:.0f}, wall {wall:.1f} s < 60, closed, "
        f"mean predictive std {mean_std:.4f} < {0.1 * sigma_f:.4f}",
    )


def test_criterion_8_search_radius_robustness(canonical_run, variant_runs):
    ref, _wall = canonical_run
    ref_ring = oracles.densify_ring(ref.intersection.vertices, 0.5)
    details = []
    ok = ref.closed
    for r, log in sorted(variant_runs.items()):
        if not log.closed or log.intersection is None:
            ok = False
            details.append(f"r={r}: did not close")
            continue
        ring = oracles.densify_ring(log.intersection.vertices, 0.5)
        h = oracles.hausdorff(ring, ref_ring)
        details.append(f"r={r}: Hausdorff {h:.2f} <= {2 * r:.1f}")
        ok = ok and h <= 2.0 * r
    assert _report(8, ok, "; ".join(details))


def test_criterion_9_readers_never_see_partial_states():
    rng = np.random.default_rng(109)
    hypers = HyperParams(2.0, 0.05, 8.0)
    chunks = []
    for _ in range(25):
        k = int(rng.integers(1, 6))
        chunks.append((rng.uniform(0, 60, (k, 2)), rng.uniform(2, 8, k)))
    queries = rng.uniform(0, 60, (5, 2))

    replica = GpModel(hypers)
    reference = {}
    for idx, (x, y) in enumerate(chunks):
        replica.append(x, y)
        p = replica.predict(queries)
        reference[p.mean.tobytes() + p.variance.tobytes()] = idx

    model = GpModel(hypers)
    model.append(*chunks[0])
    stop = threading.Event()
    seen_sets = []
    errors = []

    def reader():
        local = set()
        try:
            while not stop.is_set():
                p = model.predict(queries)
                local.add(p.mean.tobytes() + p.variance.tobytes())
        except Exception as exc:  # pragma: no cover - surfaced in the assert
            errors.append(exc)
        seen_sets.append(local)

    threads = [threading.Thread(target=reader) for _ in range(3)]
    for t in threads:
        t.start()
    for x, y in chunks[1:]:
        model.append(x, y)
        time.sleep(0.001)
    stop.set()
    for t in threads:
        t.join()

    seen = set().union(*seen_sets)
    unmatched = [key for key in seen if key not in reference]
    states = {reference[k] for k in seen if k in reference}
    ok = not errors and not unmatched and len(states) >= 3
    assert _report(
        9,
        ok,
        f"3 readers observed {len(seen)} distinct predictions across {len(states)} complete states, "
        f"{len(unmatched)} partial",
    )
