"""Command-line entry point.

Subcommands run full missions, individual pipeline stages, and the
prediction benchmark. All computation lives in the library modules;
this file parses arguments, wires files, and maps errors to exit codes
(0 success, 2 config error, 3 geometry error, 4 numerical failure,
5 mission abort); an unreadable input or an unwritable output exits 2.
Every subcommand writes a manifest.json describing its inputs before
doing any work, and `run` adds the mission's outcome and the files it
wrote once the mission ends; the default output root comes from the
BATHYSURVEY_OUT environment variable.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import files
from .coverage import cells_to_geojson, partition_monotone, plan_coverage
from .errors import ConfigError, GeometryError, NumericalError, SurveyError
from .geometry import load_polygon
from .gp import GpModel, benchmark_prediction, optimize_hypers
from .sim import apply_overrides, canonical_scenario, load_scenario, mission_fingerprint, run_mission

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GEOMETRY = 3
EXIT_NUMERICAL = 4
EXIT_ABORT = 5

OUT_ENV = "BATHYSURVEY_OUT"


def _out_dir(args, default_name: str) -> Path:
    if args.out:
        return Path(args.out)
    return Path(os.environ.get(OUT_ENV, ".")) / default_name


def _write_manifest(out: Path, doc: dict) -> None:
    files.write_json(files.make_dir(out) / "manifest.json", doc, sort_keys=True)


def _overrides(pairs) -> dict:
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, val = item.split("=", 1)
        out[key.strip()] = val
    return out


def _load_points(path):
    """Read survey points from a CSV with columns x,y,depth or t,x,y,depth,
    after an optional header line whose first token is not a number."""
    rows = files.read_rows(path)
    if rows:
        try:
            float(rows[0][1][0])
        except ValueError:  # a header
            rows = rows[1:]
    if not rows:
        raise ConfigError(f"{path} contains no data rows")
    width = len(rows[0][1])
    if width not in (3, 4):
        raise ConfigError(f"{path} must have 3 columns (x,y,depth) or 4 (t,x,y,depth)")
    data = np.array([files.numbers(path, row, width) for row in rows])[:, width - 3 :]
    return data[:, :2], data[:, 2]


# -- subcommands ----------------------------------------------------------


def cmd_run(args) -> int:
    if args.scenario:
        cfg, fld, poly = load_scenario(args.scenario)
    else:
        cfg, fld, poly = canonical_scenario()
    overrides = _overrides(args.set)
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    if overrides:
        cfg = apply_overrides(cfg, overrides)

    out = _out_dir(args, "mission")
    _write_manifest(
        out,
        {
            "command": "run",
            "scenario": str(args.scenario) if args.scenario else "packaged canonical",
            "overrides": overrides,
            "seed": cfg.seed,
            "config_hash": mission_fingerprint(cfg, fld, poly),
            "config": cfg.as_dict(),
            "field": fld.to_dict(),
            "polygon": np.asarray(poly.vertices).tolist(),
        },
    )
    log = run_mission(cfg, fld, poly)
    log.save(out)
    print(f"simulated {log.sim_time:.1f} s, {len(log.measurements)} soundings, contour closed: {log.closed}")
    if log.plan is not None:
        print(
            f"coverage: {len(log.plan.cells)} cells, {len(log.plan.waypoints)} waypoints, "
            f"{log.plan.total_length:.1f} m path ({log.plan.transit_length:.1f} m transit)"
        )
    print(f"artifacts written to {out}")
    if log.aborted:
        print(f"mission aborted: {log.aborted}", file=sys.stderr)
        return EXIT_ABORT
    return EXIT_OK


def cmd_partition(args) -> int:
    poly = load_polygon(args.polygon)
    out = _out_dir(args, "partition")
    _write_manifest(
        out,
        {
            "command": "partition",
            "polygon": str(args.polygon),
            "delta": args.delta,
            "sweep_dir": args.sweep_dir,
        },
    )
    cells = partition_monotone(poly, args.delta, args.sweep_dir)
    cells_to_geojson(cells, out / "cells.geojson")
    print(f"{len(cells)} monotone cells (delta={args.delta} m, sweep_dir={args.sweep_dir} rad)")
    print(f"cells written to {out / 'cells.geojson'}")
    return EXIT_OK


def cmd_plan(args) -> int:
    poly = load_polygon(args.polygon)
    start = files.parse_point(args.start) if args.start else tuple(poly.vertices[0])
    out = _out_dir(args, "plan")
    _write_manifest(
        out,
        {
            "command": "plan",
            "polygon": str(args.polygon),
            "delta": args.delta,
            "sweep_dir": args.sweep_dir,
            "start": list(start),
        },
    )
    plan = plan_coverage(poly, start, args.delta, args.sweep_dir)
    plan.save(out)
    print(
        f"{len(plan.cells)} cells, {len(plan.waypoints)} waypoints, "
        f"{plan.total_length:.1f} m path ({plan.transit_length:.1f} m transit)"
    )
    if plan.skipped_cells:
        print(f"skipped cells (narrower than delta): {plan.skipped_cells}")
    print(f"plan written to {out}")
    return EXIT_OK


def cmd_gp_fit(args) -> int:
    X, y = _load_points(args.data)
    out = _out_dir(args, "gp-fit")
    _write_manifest(out, {"command": "gp-fit", "data": str(args.data), "points": len(y)})
    model = GpModel()
    model.append(X, y)
    fit = optimize_hypers(model)
    model.set_hypers(fit.hypers)
    model.save_checkpoint(out / "gp_checkpoint.csv")
    h = fit.hypers
    print(f"fitted {len(y)} points in {fit.n_evals} evaluations, log marginal likelihood {fit.lml:.3f}")
    print(
        f"sigma_f={math.sqrt(h.sigma_f2):.4f} m  length_scale={h.length_scale:.4f} m  "
        f"sigma_n={math.sqrt(h.sigma_n2):.4f} m  converged={fit.converged}"
    )
    print(f"checkpoint written to {out / 'gp_checkpoint.csv'}")
    return EXIT_OK


def cmd_bench_ops(args) -> int:
    if args.n < 1 or args.m < 1:
        raise ConfigError(f"bench-ops needs n >= 1 and m >= 1, got n={args.n} m={args.m}")
    out = _out_dir(args, "bench-ops")
    _write_manifest(out, {"command": "bench-ops", "n": args.n, "m": args.m, "seed": args.seed or 0})
    res = benchmark_prediction(args.n, args.m, seed=args.seed or 0)
    print(f"prediction of {args.m} points from {args.n} training points")
    print(f"  batch (one joint factorization): {res.batch_ops:>16,} model ops  {res.batch_seconds * 1e3:9.2f} ms")
    print(f"  sequential (one point at a time): {res.sequential_ops:>15,} model ops  {res.sequential_seconds * 1e3:9.2f} ms")
    measured = res.sequential_seconds / res.batch_seconds if res.batch_seconds > 0 else float("inf")
    print(f"model op ratio (sequential/batch): {res.op_ratio:.1f}")
    print(f"measured wall-time ratio: {measured:.1f}")
    return EXIT_OK


# -- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bathysurvey",
        description="Depth-constrained bathymetric survey: mission simulation, partitioning, planning, GP fitting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", help=f"output directory (default: ${OUT_ENV} or cwd, plus the subcommand name)")
        p.add_argument("--seed", type=int, help="random seed override")

    p_run = sub.add_parser("run", help="run a full simulated survey mission")
    p_run.add_argument("--scenario", help="scenario file (default: packaged canonical scenario)")
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a mission setting (repeatable)")
    add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_part = sub.add_parser("partition", help="partition a polygon into sweep-monotone cells")
    p_part.add_argument("--polygon", required=True, help="polygon vertex file (x y per line)")
    p_part.add_argument("--delta", type=float, default=10.0, help="track spacing in metres (default 10)")
    p_part.add_argument("--sweep-dir", type=float, default=0.0, help="sweep direction in radians, [-pi/2, pi/2)")
    add_common(p_part)
    p_part.set_defaults(func=cmd_partition)

    p_plan = sub.add_parser("plan", help="plan a full coverage path over a polygon")
    p_plan.add_argument("--polygon", required=True, help="polygon vertex file (x y per line)")
    p_plan.add_argument("--delta", type=float, default=10.0, help="track spacing in metres (default 10)")
    p_plan.add_argument("--sweep-dir", type=float, default=0.0, help="sweep direction in radians, [-pi/2, pi/2)")
    p_plan.add_argument("--start", help="start point as x,y (default: first polygon vertex)")
    add_common(p_plan)
    p_plan.set_defaults(func=cmd_plan)

    p_fit = sub.add_parser("gp-fit", help="fit GP hyper-parameters to a CSV of soundings")
    p_fit.add_argument("data", help="CSV with columns x,y,depth or t,x,y,depth")
    add_common(p_fit)
    p_fit.set_defaults(func=cmd_gp_fit)

    p_bench = sub.add_parser("bench-ops", help="batch vs sequential prediction cost, modeled and measured")
    p_bench.add_argument("n", type=int, nargs="?", default=500, help="training set size (default 500)")
    p_bench.add_argument("m", type=int, nargs="?", default=50, help="prediction batch size (default 50)")
    add_common(p_bench)
    p_bench.set_defaults(func=cmd_bench_ops)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GeometryError as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SurveyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ABORT


if __name__ == "__main__":
    sys.exit(main())
