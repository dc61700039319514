"""Command line front-end.

Subcommands: ``run`` executes an experiment config; ``rates`` sweeps horizons
and fits the empirical convergence slope; ``prox-check`` runs the backward-step
oracle equivalence suite; ``polar-fit`` emits the polynomial/preconditioner/sign
curves as plot-ready CSV; ``validate`` runs the fast invariant suites.

Exit codes: 0 success, 1 validation failure, 2 configuration error (a
malformed config, a parameter out of range, or a constraint or reference that
does not fit the problem's blocks), 3 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .errors import ConfigError, InvalidConfigError, InvalidSpecError, SpecproxError
from .harness import (MODES, RATE_METRICS, ExperimentConfig, load_config, rate_sweep,
                      run_experiment)
from .polar import DEFAULT_SCHEDULE, fit_report, load_schedule


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="specprox",
        description="Proximal preconditioned spectral gradient methods",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment config file")
    run_p.set_defaults(handler=_cmd_run)
    run_p.add_argument("--config", required=True, help="path to a key = value config file")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--out", default=None, help="override the output CSV path")
    run_p.add_argument("--quiet", action="store_true")

    rates_p = sub.add_parser("rates", help="multi-horizon sweep and rate estimate")
    rates_p.set_defaults(handler=_cmd_rates)
    rates_p.add_argument("--config", default=None, help="base config file (optional)")
    rates_p.add_argument("--mode", default=None, choices=list(MODES))
    rates_p.add_argument("--horizons", default="64,128,256,512,1024,2048,4096",
                         help="comma-separated horizons")
    rates_p.add_argument("--reps", type=int, default=10)
    rates_p.add_argument("--seed", type=int, default=None)
    rates_p.add_argument("--metric", default=None, choices=list(RATE_METRICS))
    rates_p.add_argument("--out", default=None, help="write per-horizon means as CSV")
    rates_p.add_argument("--quiet", action="store_true")

    prox_p = sub.add_parser("prox-check", help="backward-step oracle equivalence suite")
    prox_p.set_defaults(handler=_cmd_prox_check)
    prox_p.add_argument("--instances", type=int, default=25)
    prox_p.add_argument("--seed", type=int, default=0)
    prox_p.add_argument("--quiet", action="store_true")

    fit_p = sub.add_parser("polar-fit", help="polynomial fit report as CSV")
    fit_p.set_defaults(handler=_cmd_polar_fit)
    fit_p.add_argument("--eps", type=float, default=3e-4)
    fit_p.add_argument("--kappa", type=float, default=4.0)
    fit_p.add_argument("--schedule", default=DEFAULT_SCHEDULE)
    fit_p.add_argument("--grid-points", type=int, default=2001)
    fit_p.add_argument("--out", default="polar_fit.csv")
    fit_p.add_argument("--quiet", action="store_true")

    val_p = sub.add_parser("validate", help="run the fast invariant suites")
    val_p.set_defaults(handler=_cmd_validate)
    val_p.add_argument("--quiet", action="store_true")

    return p


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, out=args.out)
    run_experiment(cfg, quiet=args.quiet)
    return 0


def _cmd_rates(args) -> int:
    cfg = load_config(args.config) if args.config else ExperimentConfig(
        problem="quadratic", n=16, cond=10.0, noise="gaussian", sigma=1.0,
        mode="polyak", constraint="zero", reference="barrier-aniso", epsilon=1.0,
    )
    if args.mode:
        cfg = replace(cfg, mode=args.mode)
        if args.mode == "polar":
            cfg = replace(cfg, reference="hyper-aniso", epsilon=3e-4, kappa=4.0,
                          constraint="zero")
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    horizons = [int(h) for h in args.horizons.split(",") if h.strip()]
    metric = args.metric or ("grad-norm" if cfg.mode == "polar" else "gap")
    estimate, per_horizon = rate_sweep(cfg, horizons, repetitions=args.reps,
                                       metric=metric, quiet=args.quiet)
    print(f"slope = {estimate.slope:.6f}  intercept = {estimate.intercept:.6f}  "
          f"r_squared = {estimate.r_squared:.6f}")
    if estimate.excluded:
        print(f"warning: horizons excluded for degenerate means: {list(estimate.excluded)}")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"K,mean_{metric.replace('-', '_')}\n")
            for K in estimate.horizons:
                fh.write(f"{K},{float(np.mean(per_horizon[K])):.17g}\n")
    return 0


def _cmd_prox_check(args) -> int:
    from .validate import check_prox_oracles

    ok, detail = check_prox_oracles(instances=args.instances, seed=args.seed)
    if not args.quiet:
        print(f"{'ok  ' if ok else 'FAIL'} prox-oracles: {detail}")
    return 0 if ok else 1


def _cmd_polar_fit(args) -> int:
    schedule = load_schedule(args.schedule)
    grid = np.linspace(0.0, 1.0, args.grid_points)
    rep = fit_report(schedule, args.eps, args.kappa, grid)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,poly,preconditioner,sign\n")
        for i in range(grid.size):
            fh.write(f"{rep.grid[i]:.17g},{rep.poly[i]:.17g},"
                     f"{rep.preconditioner[i]:.17g},{rep.sign[i]:.17g}\n")
    if not args.quiet:
        print(f"schedule {rep.schedule}: max dev vs preconditioner "
              f"{rep.max_dev_vs_preconditioner:.6f}, vs sign {rep.max_dev_vs_sign:.6f}")
    return 0


def _cmd_validate(args) -> int:
    from .validate import run_validation

    return 0 if run_validation(quiet=args.quiet) else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, InvalidConfigError, InvalidSpecError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SpecproxError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
