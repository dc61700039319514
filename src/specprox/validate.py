"""Fast invariant suites behind the ``validate`` and ``prox-check`` commands.

These are smaller, seeded versions of the property checks in the test suite;
they run in seconds and gate a fresh checkout.  Each check prints one
``ok``/``FAIL`` line and the suite returns whether everything passed.
"""

from __future__ import annotations

import math

import numpy as np

from . import oracle
from .harness import ExperimentConfig, execute, traces_to_csv
from .polar import DEFAULT_SCHEDULE, fit_report, load_schedule
from .prox import HardThreshold, L2Ball, LinfBall, LinfSphere, SignSet, prox_vector
from .reference import Barrier, BlockRef, HyperKappa, ReferenceFn, Structure, bregman_dual, precondition
from .tensor import ParamVec, full_svd, norm2, singular_values_batch


def _scalar_refs():
    return [
        ("barrier(1.0)", Barrier(1.0)),
        ("hyper(3e-4,4)", HyperKappa(3e-4, 4.0)),
        ("hyper(1e-3,1.5)", HyperKappa(1e-3, 1.5)),
    ]


def check_conjugate_calculus(n_points: int = 200, seed: int = 0) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _, sc in _scalar_refs():
        s = rng.standard_normal(n_points) * 10.0 ** rng.uniform(-3, 3, n_points)
        t = sc.h_star_prime(s)
        fy = np.abs(sc.h(t) + sc.h_star(s) - s * t)
        odd = np.abs(sc.h_star_prime(-s) + sc.h_star_prime(s))
        # Inversion is checked from the primal side, where it is well posed.
        ti = rng.uniform(-1.0 + 1e-9, 1.0 - 1e-9, n_points)
        rt = np.abs(sc.h_star_prime(sc.h_prime(ti)) - ti)
        worst = max(worst, fy.max(), rt.max(), odd.max())
    return worst <= 1e-8, f"max residual {worst:.2e}"


def check_preconditioner_bounds(seed: int = 1) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    ref = ReferenceFn.uniform(Structure.ANISO, Barrier(0.5))
    worst = 0.0
    for scale in (1.0, 1e6, 1e12):
        d = ParamVec([scale * rng.standard_normal(8)])
        w = precondition(ref, d)
        worst = max(worst, norm2(w) / math.sqrt(8))
        if norm2(precondition(ref, -d) + w) != 0.0:
            return False, "preconditioner is not odd"
    return worst < 1.0, f"max relative radius {worst:.6f}"


def check_prox_oracles(instances: int = 12, seed: int = 2) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    scalar = Barrier(1.0)
    entry = BlockRef(Structure.ANISO, scalar)
    worst = 0.0
    for _ in range(instances):
        d = int(rng.integers(2, 5))
        gamma = float(rng.uniform(0.3, 1.2))
        base = rng.uniform(-1, 1, d)
        y = base + gamma * rng.uniform(-0.95, 0.95, d)
        for tag in (SignSet(1.0), LinfBall(1.0), LinfSphere(1.0), HardThreshold(1), L2Ball(1.0)):
            x = prox_vector(tag, entry, y, gamma)
            ours = oracle.prox_objective(tag, entry, y, gamma, x)
            best = oracle.best_candidate_objective(tag, entry, y, gamma, x)
            worst = max(worst, ours - best)
    return worst <= 1e-9, f"max objective excess {worst:.2e}"


def check_svd(seed: int = 3) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    mats = [rng.standard_normal(shape) for shape in ((5, 3), (4, 6), (7, 7), (4, 3))]
    worst = 0.0
    for M in mats + [mats[-1] * 1e-200, mats[-1] * 1e150]:
        res = full_svd(M)
        # Reconstruction relative to max |M_ij|; orthogonality is scale-free.
        worst = max(worst, float(np.abs(res.reconstruct() - M).max() / np.abs(M).max()))
        worst = max(worst, float(np.abs(res.U.T @ res.U - np.eye(M.shape[0])).max()))
        worst = max(worst, float(np.abs(res.V.T @ res.V - np.eye(M.shape[1])).max()))
    return worst <= 1e-10, f"max factor residual {worst:.2e}"


def check_majorization(pairs: int = 100, seed: int = 4) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((pairs, 5, 4))
    Y = rng.standard_normal((pairs, 5, 4))
    sx = singular_values_batch(X)
    sy = singular_values_batch(Y)
    sd = singular_values_batch(X - Y)
    lhs = ((sx - sy) ** 2).sum(axis=1)
    rhs = (sd ** 2).sum(axis=1)
    worst = float((lhs - rhs).max())
    return worst <= 1e-10, f"max majorization excess {worst:.2e}"


def check_polar_fit() -> tuple[bool, str]:
    rep = fit_report(load_schedule(DEFAULT_SCHEDULE), 3e-4, 4.0, np.linspace(0, 1, 2001))
    ok = rep.max_dev_vs_preconditioner < rep.max_dev_vs_sign
    return ok, (f"dev vs preconditioner {rep.max_dev_vs_preconditioner:.4f} "
                f"vs sign {rep.max_dev_vs_sign:.4f}")


def check_replay_determinism() -> tuple[bool, str]:
    cfg = ExperimentConfig(problem="quadratic", n=6, noise="gaussian", sigma=0.5,
                           mode="polyak", K=20, repetitions=2, seed=11,
                           constraint="linf-ball", radius=1.0)
    a = traces_to_csv(execute(cfg).traces)
    b = traces_to_csv(execute(cfg).traces)
    return a == b, "byte-identical" if a == b else "CSV bytes differ"


def check_gap_nonnegativity(seed: int = 5) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    ref = ReferenceFn.uniform(Structure.ANISO, Barrier(1.0))
    worst = 0.0
    for _ in range(100):
        a = ParamVec([rng.standard_normal(6)])
        b = ParamVec([rng.standard_normal(6)])
        worst = min(worst, bregman_dual(ref, a, b))
    return worst >= -1e-12, f"min divergence {worst:.2e}"


ALL_CHECKS = (
    ("conjugate-calculus", check_conjugate_calculus),
    ("preconditioner-bounds", check_preconditioner_bounds),
    ("prox-oracles", check_prox_oracles),
    ("svd-factors", check_svd),
    ("majorization", check_majorization),
    ("polar-fit-ordering", check_polar_fit),
    ("replay-determinism", check_replay_determinism),
    ("gap-nonnegativity", check_gap_nonnegativity),
)


def run_validation(quiet: bool = False) -> bool:
    all_ok = True
    for name, fn in ALL_CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok &= ok
        if not quiet:
            print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    return all_ok
