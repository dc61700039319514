"""Experiment harness: config files, repeated runs, CSV traces, rate estimation.

Configs are flat ``key = value`` text files (``#`` starts a comment) so a run
is fully described by one human-readable artifact.  Each named config axis
has one name -> builder table, read by ``validate_config`` and ``build_*``
(reference structures are ``Structure`` values).  Repetitions use seeds
``seed, seed+1, ...`` against a problem instance built once from the base
seed, and step together as one batch of the run loop; traces come in seed
order, so a config plus a seed pins the output bytes exactly.

The determinism contract: the same config gives the same bytes, and
repetition i of a config is byte for byte the single run (``optimizer.run``)
of seed ``seed + i`` on the same problem, whatever the number of repetitions.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .errors import ConfigError, InvalidConfigError
from .optimizer import (
    Deterministic,
    PolarExpressMode,
    RunConfig,
    StochasticPolyak,
    StochasticStorm,
    Trace,
    run_batch,
)
from .polar import load_schedule
from .problems import NoiseModel, make_logistic, make_matrix_quadratic, make_quadratic
from .prox import (
    ConstraintSpec,
    FrobeniusBall,
    HardThreshold,
    L2Ball,
    LinfBall,
    LinfSphere,
    RankLimit,
    SignSet,
    SpectralBall,
    SpectralSphere,
    Stiefel,
    Zero,
    feasible_start,
)
from .reference import Barrier, HyperKappa, ReferenceFn, Structure

CSV_COLUMNS = ("run_id", "k", "F", "gap_bregman", "step_norm", "gamma_k", "alpha_k")


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str = "quadratic"       # a key of PROBLEMS
    n: int = 16
    m: int = 8                       # rows (matrix problems) / samples (logistic)
    cond: float = 10.0
    noise: str = "none"              # a key of NOISES
    sigma: float = 1.0
    df: float = 1.8
    p_moment: float = 1.5
    mode: str = "polyak"             # a key of MODES
    K: int = 256
    gamma: float = 0.1               # deterministic stepsize
    gamma_bar: float = 1.0
    eps_hat: float = 0.0             # 0 -> (K+1)^(-1/4) in polar mode
    poly_schedule: str = ""          # schedule name/path for the polar surrogate
    reference: str = "barrier-aniso"  # <key of REFERENCE_FAMILIES>-<Structure value>
    epsilon: float = 1.0
    kappa: float = 4.0
    constraint: str = "zero"         # a key of CONSTRAINTS
    radius: float = 1.0
    sparsity: int = 1
    seed: int = 0
    repetitions: int = 1
    out: str = "trace.csv"


# One name -> builder table per config axis; each name is defined here only.

PROBLEMS = {
    "quadratic": lambda cfg, rng: make_quadratic(cfg.n, cfg.cond, rng),
    "logistic": lambda cfg, rng: make_logistic(cfg.m, cfg.n, rng),
    "matrix-quadratic": lambda cfg, rng: make_matrix_quadratic(cfg.m, cfg.n, rng),
}

NOISES = {
    "none": lambda cfg: NoiseModel.none(),
    "gaussian": lambda cfg: NoiseModel.gaussian(cfg.sigma),
    "student-t": lambda cfg: NoiseModel.student_t(cfg.df, cfg.sigma, cfg.p_moment),
}


def _polar_mode(cfg: ExperimentConfig) -> PolarExpressMode:
    schedule = load_schedule(cfg.poly_schedule) if cfg.poly_schedule else None
    eps_hat = cfg.eps_hat if cfg.eps_hat > 0.0 else None
    return PolarExpressMode(K=cfg.K, eps_hat=eps_hat, gamma_bar=cfg.gamma_bar,
                            poly_schedule=schedule)


MODES = {
    "deterministic": lambda cfg: Deterministic(gamma=cfg.gamma, K=cfg.K),
    "polyak": lambda cfg: StochasticPolyak(K=cfg.K, gamma_bar=cfg.gamma_bar),
    "storm": lambda cfg: StochasticStorm(K=cfg.K, gamma_bar=cfg.gamma_bar),
    "polar": _polar_mode,
}

REFERENCE_FAMILIES = {
    "barrier": lambda cfg: Barrier(cfg.epsilon),
    "hyper": lambda cfg: HyperKappa(cfg.epsilon, cfg.kappa),
}

CONSTRAINTS = {
    "zero": lambda cfg: Zero(),
    "sign-set": lambda cfg: SignSet(cfg.radius),
    "l2-ball": lambda cfg: L2Ball(cfg.radius),
    "linf-ball": lambda cfg: LinfBall(cfg.radius),
    "linf-sphere": lambda cfg: LinfSphere(cfg.radius),
    "hard-threshold": lambda cfg: HardThreshold(cfg.sparsity),
    "stiefel": lambda cfg: Stiefel(cfg.radius),
    "frobenius-ball": lambda cfg: FrobeniusBall(cfg.radius),
    "spectral-ball": lambda cfg: SpectralBall(cfg.radius),
    "spectral-sphere": lambda cfg: SpectralSphere(cfg.radius),
    "rank-limit": lambda cfg: RankLimit(cfg.sparsity),
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse a flat key = value config with per-line diagnostics."""
    spec_fields = {f.name: f.type for f in fields(ExperimentConfig)}
    defaults = ExperimentConfig()
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        val = val.strip()
        if key not in spec_fields:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        current = getattr(defaults, key)
        try:
            if isinstance(current, int):
                values[key] = int(val)
            elif isinstance(current, float):
                values[key] = float(val)
            else:
                values[key] = val
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: field {key!r}: {exc}") from exc
    cfg = replace(defaults, **values)
    validate_config(cfg)
    return cfg


def serialize_config(cfg: ExperimentConfig) -> str:
    out = io.StringIO()
    for f in fields(ExperimentConfig):
        # A float formats as its repr, which parses back to the same value.
        out.write(f"{f.name} = {getattr(cfg, f.name)}\n")
    return out.getvalue()


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.problem not in PROBLEMS:
        raise ConfigError(f"unknown problem {cfg.problem!r}")
    if cfg.noise not in NOISES:
        raise ConfigError(f"unknown noise {cfg.noise!r}")
    if cfg.mode not in MODES:
        raise ConfigError(f"unknown mode {cfg.mode!r}")
    if cfg.reference.count("-") < 1:
        raise ConfigError(f"reference must look like 'barrier-aniso', got {cfg.reference!r}")
    family, _, structure = cfg.reference.partition("-")
    if family not in REFERENCE_FAMILIES:
        raise ConfigError(f"unknown reference family {family!r}")
    if structure not in [s.value for s in Structure]:
        raise ConfigError(f"unknown reference structure {structure!r}")
    if cfg.constraint not in CONSTRAINTS:
        raise ConfigError(f"unknown constraint {cfg.constraint!r}")
    if cfg.eps_hat < 0.0:
        raise ConfigError(f"eps_hat must be >= 0 (0 means the default), got {cfg.eps_hat!r}")
    if cfg.repetitions < 1:
        raise ConfigError("repetitions must be >= 1")
    if cfg.K < 0:
        raise ConfigError("K must be >= 0")


# ---------------------------------------------------------------------------
# Building the pieces from a config
# ---------------------------------------------------------------------------


def build_problem(cfg: ExperimentConfig):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(999,)))
    return PROBLEMS[cfg.problem](cfg, rng)


def build_reference(cfg: ExperimentConfig) -> ReferenceFn:
    family, _, structure = cfg.reference.partition("-")
    return ReferenceFn.uniform(Structure(structure), REFERENCE_FAMILIES[family](cfg))


def build_constraint(cfg: ExperimentConfig) -> ConstraintSpec:
    return ConstraintSpec(CONSTRAINTS[cfg.constraint](cfg))


def build_mode(cfg: ExperimentConfig):
    return MODES[cfg.mode](cfg)


def build_noise(cfg: ExperimentConfig) -> NoiseModel:
    return NOISES[cfg.noise](cfg)


def build_run(cfg: ExperimentConfig) -> tuple[RunConfig, object, NoiseModel]:
    """What every repetition of ``cfg`` shares: its run config (at the base seed),
    the problem and the noise model, each built once."""
    validate_config(cfg)
    problem = build_problem(cfg)
    spec = build_constraint(cfg)
    spec.validate_for(problem.shapes)
    run_cfg = RunConfig(ref=build_reference(cfg), spec=spec, mode=build_mode(cfg), seed=cfg.seed,
                        x0=feasible_start(spec, problem.shapes))
    return run_cfg, problem, build_noise(cfg)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunSummary:
    run_id: int
    seed: int
    K: int
    time_avg_gap: float
    time_avg_grad_norm: float
    final_F: float


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    traces: list[Trace]
    summaries: list[RunSummary]

    @property
    def mean_time_avg_gap(self) -> float:
        return sum(s.time_avg_gap for s in self.summaries) / len(self.summaries)

    @property
    def mean_time_avg_grad_norm(self) -> float:
        return sum(s.time_avg_grad_norm for s in self.summaries) / len(self.summaries)


def _fmt17(v: float) -> str:
    return format(float(v), ".17g")


def execute(cfg: ExperimentConfig) -> ExperimentResult:
    """Run all repetitions as one batch; results come in seed order.

    The problem, constraint, reference, noise model, mode and start point are
    built once (:func:`build_run`) and shared by every repetition; only the
    seed, and with it the noise table, differs from row to row.
    """
    run_cfg, problem, noise = build_run(cfg)
    traces = run_batch(run_cfg, problem, noise, cfg.repetitions)
    summaries = [
        RunSummary(
            run_id=rep,
            seed=trace.seed,
            K=cfg.K,
            time_avg_gap=trace.time_averaged_gap(),
            time_avg_grad_norm=trace.time_averaged_grad_norm(),
            final_F=problem.f(trace.final_x),
        )
        for rep, trace in enumerate(traces)
    ]
    return ExperimentResult(config=cfg, traces=traces, summaries=summaries)


def traces_to_csv(traces: list[Trace]) -> str:
    out = io.StringIO()
    out.write(",".join(CSV_COLUMNS) + "\n")
    for run_id, trace in enumerate(traces):
        for rec in trace.records:
            out.write(
                f"{run_id},{rec.k},{_fmt17(rec.F)},{_fmt17(rec.gap_bregman)},"
                f"{_fmt17(rec.step_norm)},{_fmt17(rec.gamma)},{_fmt17(rec.alpha)}\n"
            )
    return out.getvalue()


def summary_to_csv(result: ExperimentResult) -> str:
    out = io.StringIO()
    out.write("run_id,seed,K,time_avg_gap,time_avg_grad_norm,final_F\n")
    for s in result.summaries:
        out.write(
            f"{s.run_id},{s.seed},{s.K},{_fmt17(s.time_avg_gap)},"
            f"{_fmt17(s.time_avg_grad_norm)},{_fmt17(s.final_F)}\n"
        )
    out.write(
        f"mean,,{result.config.K},{_fmt17(result.mean_time_avg_gap)},"
        f"{_fmt17(result.mean_time_avg_grad_norm)},\n"
    )
    return out.getvalue()


def run_experiment(cfg: ExperimentConfig, quiet: bool = False) -> ExperimentResult:
    """Execute the config and write the trace CSV plus a summary CSV."""
    result = execute(cfg)
    with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(traces_to_csv(result.traces))
    summary_path = cfg.out + ".summary.csv" if not cfg.out.endswith(".csv") \
        else cfg.out[:-4] + ".summary.csv"
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(summary_to_csv(result))
    if not quiet:
        print(f"wrote {cfg.out} ({sum(len(t) for t in result.traces)} rows, "
              f"{cfg.repetitions} runs); mean time-averaged gap "
              f"{result.mean_time_avg_gap:.6e}")
    return result


# ---------------------------------------------------------------------------
# Rate estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateEstimate:
    """Log-log slope of the averaged stationarity measure against K+1."""

    slope: float
    intercept: float
    r_squared: float
    horizons: tuple[int, ...]
    means: tuple[float, ...]
    excluded: tuple[int, ...] = ()


def estimate_rate(results: dict[int, list[float]]) -> RateEstimate:
    """Least squares of log(mean value) on log(K+1) over >= 4 horizons.

    ``results`` maps each horizon K to the per-repetition time-averaged values
    (>= 10 repetitions each).  Horizons whose mean is not strictly positive are
    excluded with a warning flag; at least four must survive.
    """
    if len(results) < 4:
        raise InvalidConfigError("need at least 4 horizons")
    horizons = sorted(results)
    kept_h, kept_m, excluded = [], [], []
    for K in horizons:
        vals = results[K]
        if len(vals) < 10:
            raise InvalidConfigError(f"horizon {K}: need >= 10 repetitions, got {len(vals)}")
        m = float(np.mean(vals))
        if not (m > 0.0) or not math.isfinite(m):
            excluded.append(K)
            continue
        kept_h.append(K)
        kept_m.append(m)
    if len(kept_h) < 4:
        raise InvalidConfigError("fewer than 4 horizons with positive means")
    lx = np.log([K + 1.0 for K in kept_h])
    ly = np.log(kept_m)
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    pred = A @ coef
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return RateEstimate(
        slope=slope,
        intercept=intercept,
        r_squared=r2,
        horizons=tuple(kept_h),
        means=tuple(kept_m),
        excluded=tuple(excluded),
    )


# Rate metric name -> the per-run summary value a sweep averages.
RATE_METRICS = {
    "gap": lambda s: s.time_avg_gap,
    "grad-norm": lambda s: s.time_avg_grad_norm,
}


def rate_sweep(cfg: ExperimentConfig, horizons, repetitions: Optional[int] = None,
               metric: str = "gap", quiet: bool = True) -> tuple[RateEstimate, dict[int, list[float]]]:
    """Run the config across horizons and fit the empirical rate.

    ``metric`` is ``gap`` (time-averaged dual Bregman gap) or ``grad-norm``
    (time-averaged true gradient norm, the natural measure for the normalized
    mode).
    """
    if metric not in RATE_METRICS:
        raise InvalidConfigError(f"unknown metric {metric!r}")
    reps = repetitions if repetitions is not None else cfg.repetitions
    per_horizon: dict[int, list[float]] = {}
    for K in horizons:
        sweep_cfg = replace(cfg, K=int(K), repetitions=reps)
        result = execute(sweep_cfg)
        vals = [RATE_METRICS[metric](s) for s in result.summaries]
        per_horizon[int(K)] = vals
        if not quiet:
            print(f"K={K}: mean {metric} = {float(np.mean(vals)):.6e}")
    return estimate_rate(per_horizon), per_horizon
