"""The benchmark workloads: their configs, one job each, and the checks on its outputs.

Every job drives the entry points the ``specprox`` CLI uses
(``harness.rate_sweep``, ``harness.execute``, ``harness.traces_to_csv``),
looked up on the harness module at call time so that the execute recorder
and the tracer see every call.  ``perfbench/README.md`` records why each
workload was chosen.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

import numpy as np

import speed
from specprox.errors import SpecproxError
from specprox.harness import ExperimentConfig

harness = importlib.import_module("specprox.harness")

# Iterates must satisfy the constraint to this absolute tolerance.
CONSTRAINT_TOL = 1e-9


@dataclass(frozen=True)
class Sizes:
    rate_horizons: tuple[int, ...]
    rate_reps: int
    spectral_dim: int
    spectral_K: int
    hyper_K: int
    hyper_reps: int
    setup_probes: int


FULL = Sizes(rate_horizons=(32, 64, 128, 256), rate_reps=10, spectral_dim=16, spectral_K=8,
             hyper_K=12, hyper_reps=2, setup_probes=5)
# Smoke-test size: every code path and check, in seconds.
TINY = Sizes(rate_horizons=(8, 16, 32, 64), rate_reps=10, spectral_dim=6, spectral_K=2,
             hyper_K=2, hyper_reps=1, setup_probes=1)


def job_seed(seed: int, j: int) -> int:
    """Seed of the j-th job of a run; job 0 uses the workload seed itself."""
    return seed + 1000 * j


# ---------------------------------------------------------------------------
# Execute calls, jobs and groups
# ---------------------------------------------------------------------------


@dataclass
class Call:
    """One ``harness.execute`` call and what the checks found."""

    cfg: ExperimentConfig
    seconds: float = 0.0
    kernel: float = 0.0  # calibration kernel seconds around the call, 0 when not calibrated
    iters: int = 0
    result: Optional[object] = None
    sha256: str = ""
    error: str = ""


class ExecuteRecorder:
    """Stands in for ``harness.execute`` and times each call, also inside ``rate_sweep``.

    With ``calibrate`` set, the speed kernel runs right before and right after
    every call, for at least ``speed.SHARE`` of the previous call's time;
    ``kernel_seconds`` sums the time that took.
    """

    def __init__(self, execute):
        self._execute = execute
        self.calls: list[Call] = []
        self.calibrate = False
        self.kernel_seconds = 0.0
        self._last_call = 0.0

    def _kernel(self) -> float:
        if not self.calibrate:
            return 0.0
        passes = speed.kernel_passes(speed.SHARE * self._last_call)
        self.kernel_seconds += sum(passes)
        return statistics.median(passes)

    def __call__(self, cfg: ExperimentConfig):
        call = Call(cfg)
        self.calls.append(call)
        before = self._kernel()
        t0 = perf_counter()
        try:
            call.result = self._execute(cfg)
        except SpecproxError as exc:
            call.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            call.seconds = self._last_call = perf_counter() - t0
            call.kernel = 0.5 * (before + self._kernel())
        call.iters = sum(len(t.records) for t in call.result.traces)
        return call.result


@dataclass
class Group:
    """Consecutive calls of a job that produce one output (a sweep, or one run)."""

    label: str
    first: int
    end: int
    outcome: object = None  # RateEstimate, or the SpecproxError that ended the group


@dataclass
class Job:
    seed: int
    seconds: float  # wall time, without the calibration kernel's
    calls: list[Call]
    groups: list[Group] = field(default_factory=list)
    kernel: float = 0.0  # calibration kernel seconds that go with ``seconds``

    @property
    def iters(self) -> int:
        return sum(c.iters for c in self.calls)


def run_job(workload, recorder: ExecuteRecorder, seed: int, sizes: Sizes) -> Job:
    recorder.calls = []
    recorder.kernel_seconds = 0.0
    t0 = perf_counter()
    groups = workload.job(seed, sizes, recorder)
    seconds = perf_counter() - t0 - recorder.kernel_seconds
    calls = recorder.calls
    # A calibrated job's kernel time is its calls' kernel times, weighted by call time.
    kernel = (sum(c.seconds * c.kernel for c in calls) / sum(c.seconds for c in calls)
              if recorder.calibrate else 0.0)
    return Job(seed=seed, seconds=seconds, calls=calls, groups=groups, kernel=kernel)


def _run_group(label: str, recorder: ExecuteRecorder, fn) -> Group:
    group = Group(label, len(recorder.calls), 0)
    try:
        group.outcome = fn()
    except SpecproxError as exc:
        group.outcome = exc
    group.end = len(recorder.calls)
    return group


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def trace_sha256(result) -> str:
    return hashlib.sha256(harness.traces_to_csv(result.traces).encode()).hexdigest()


def _non_finite(result) -> Optional[str]:
    for run_id, trace in enumerate(result.traces):
        for rec in trace.records:
            for name in ("F", "gap_bregman", "step_norm", "gamma", "alpha", "grad_norm", "dir_error"):
                if not math.isfinite(getattr(rec, name)):
                    return f"run {run_id} k={rec.k}: {name} is not finite"
    return None


def check_call(workload, call: Call) -> None:
    """Hash the trace and run the per-call checks; drops the result afterwards."""
    if call.result is None:
        call.error = call.error or "execute returned no result"
        return
    call.sha256 = trace_sha256(call.result)
    problem = _non_finite(call.result)
    for run_id, trace in enumerate(call.result.traces):
        if problem:
            break
        problem = workload.final_iterate_problem(call.cfg, trace.final_x)
        if problem:
            problem = f"run {run_id}: {problem}"
    if problem and not call.error:
        call.error = problem
    call.result = None


def check_job(workload, job: Job) -> None:
    for call in job.calls:
        check_call(workload, call)
    for group in job.groups:
        problem = workload.group_problem(group)
        if problem is None:
            continue
        for call in job.calls[group.first:group.end]:
            call.error = call.error or f"{group.label}: {problem}"


def replay(workload, recorder: ExecuteRecorder, job: Job) -> list[Call]:
    """Execute the first call of every group of ``job`` again; traces must match byte for byte."""
    out = []
    for group in job.groups:
        if group.first >= group.end:
            continue
        original = job.calls[group.first]
        recorder.calls = []
        try:
            recorder(original.cfg)
        except SpecproxError:
            pass
        again = recorder.calls[0]
        check_call(workload, again)
        if not again.error and again.sha256 != original.sha256:
            again.error = f"{group.label}: replay trace SHA-256 differs from the first execution"
        out.append(again)
    return out


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

RATE_BASE = dict(problem="quadratic", n=8, cond=2.0, sigma=1.0, reference="barrier-aniso",
                 epsilon=1e-3, constraint="zero")

# The calibrated sweeps of the rate acceptance criteria: (label, config overrides, metric).
RATE_SWEEPS = (
    ("polyak-gaussian", dict(mode="polyak", noise="gaussian", gamma_bar=2.0), "gap"),
    ("polyak-student-t", dict(mode="polyak", noise="student-t", df=1.8, p_moment=1.5,
                              gamma_bar=2.0), "gap"),
    ("storm-gaussian", dict(mode="storm", noise="gaussian", gamma_bar=1.0), "gap"),
    ("normalized-hyper", dict(mode="polar", noise="gaussian", gamma_bar=1.0,
                              reference="hyper-aniso", epsilon=3e-4, kappa=4.0), "grad-norm"),
)


class Rates:
    """The four calibrated rate sweeps, each through ``harness.rate_sweep``."""

    name = "rates"

    def sweeps(self, seed: int, sizes: Sizes):
        for label, overrides, metric in RATE_SWEEPS:
            cfg = ExperimentConfig(**{**RATE_BASE, **overrides}, seed=seed,
                                   K=sizes.rate_horizons[0], repetitions=sizes.rate_reps)
            yield label, cfg, metric

    def configs(self, seed: int, sizes: Sizes) -> list[ExperimentConfig]:
        return [cfg for _, cfg, _ in self.sweeps(seed, sizes)]

    def job(self, seed: int, sizes: Sizes, recorder: ExecuteRecorder) -> list[Group]:
        groups = []
        for label, cfg, metric in self.sweeps(seed, sizes):
            groups.append(_run_group(label, recorder, lambda: harness.rate_sweep(
                cfg, sizes.rate_horizons, repetitions=sizes.rate_reps, metric=metric)[0]))
        return groups

    def group_problem(self, group: Group) -> Optional[str]:
        est = group.outcome
        if isinstance(est, Exception):
            return f"{type(est).__name__}: {est}"
        if len(est.horizons) < 4:
            return f"rate fit kept only {len(est.horizons)} horizons"
        if not (math.isfinite(est.slope) and est.slope < 0.0):
            return f"rate slope {est.slope!r} is not finite and negative"
        return None

    def final_iterate_problem(self, cfg, x) -> Optional[str]:
        return None


class _SingleRun:
    """A workload whose job is one config run, like ``specprox run``."""

    name = ""
    to_csv = False

    def config(self, seed: int, sizes: Sizes) -> ExperimentConfig:
        raise NotImplementedError

    def configs(self, seed: int, sizes: Sizes) -> list[ExperimentConfig]:
        return [self.config(seed, sizes)]

    def job(self, seed: int, sizes: Sizes, recorder: ExecuteRecorder) -> list[Group]:
        cfg = self.config(seed, sizes)

        def run():
            result = harness.execute(cfg)
            if self.to_csv:
                harness.traces_to_csv(result.traces)

        return [_run_group(self.name, recorder, run)]

    def group_problem(self, group: Group) -> Optional[str]:
        if isinstance(group.outcome, Exception):
            return f"{type(group.outcome).__name__}: {group.outcome}"
        return None


class Spectral(_SingleRun):
    """Matrix quadratic under a spectral-anisotropic barrier and a spectral ball."""

    name = "spectral"
    to_csv = True

    def config(self, seed: int, sizes: Sizes) -> ExperimentConfig:
        d = sizes.spectral_dim
        return ExperimentConfig(problem="matrix-quadratic", m=d, n=d, noise="gaussian", sigma=1.0,
                                mode="polyak", K=sizes.spectral_K, gamma_bar=1.0,
                                reference="barrier-spectral-aniso", epsilon=0.1,
                                constraint="spectral-ball", radius=1.0, seed=seed, repetitions=1)

    def final_iterate_problem(self, cfg, x) -> Optional[str]:
        for block in x.blocks:
            smax = float(np.linalg.svd(block, compute_uv=False)[0])
            if smax > cfg.radius + CONSTRAINT_TOL:
                return f"final sigma_max {smax!r} exceeds radius {cfg.radius!r}"
        return None


class HyperL2Ball(_SingleRun):
    """Power-family reference without a closed form, projected on an l2 ball."""

    name = "hyper-l2ball"

    def config(self, seed: int, sizes: Sizes) -> ExperimentConfig:
        return ExperimentConfig(problem="quadratic", n=8, noise="gaussian", sigma=1.0,
                                mode="polyak", K=sizes.hyper_K, gamma_bar=1.0,
                                reference="hyper-aniso", epsilon=0.1, kappa=2.5,
                                constraint="l2-ball", radius=0.5, seed=seed,
                                repetitions=sizes.hyper_reps)

    def final_iterate_problem(self, cfg, x) -> Optional[str]:
        norm = float(np.linalg.norm(np.concatenate([b.ravel() for b in x.blocks])))
        if norm > cfg.radius + CONSTRAINT_TOL:
            return f"final l2 norm {norm!r} exceeds radius {cfg.radius!r}"
        return None


WORKLOADS = {w.name: w for w in (Rates(), Spectral(), HyperL2Ball())}


def setup(name: str, seed: int, sizes: Sizes) -> None:
    """What a run does before its first job: configs, problems, constraint validation."""
    for cfg in WORKLOADS[name].configs(seed, sizes):
        problem = harness.build_problem(cfg)
        spec = harness.build_constraint(cfg)
        spec.validate_for(problem.shapes)
        harness.build_reference(cfg)
        harness.build_noise(cfg)
