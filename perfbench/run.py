"""specprox benchmark: one closed-loop client drives one workload for a fixed time.

    python3 perfbench/run.py --workload rates|spectral|hyper-l2ball \\
        --seed N --seconds S --trace 0|1 [--tiny]

A single client in one process issues one job after another and waits for
each (a closed loop); BLAS runs on one thread and repetitions are not fanned
out (``workers = 1``).  Job j of a run uses seed ``seed + 1000*j``.  After
every job the outputs are checked; the first call of each group of job 0 is
executed again at the end and must give the same trace bytes.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
fresh processes), ``iters_per_s``, ``us_per_iter_p50`` and ``peak_rss_mb``,
with times scaled to a reference machine speed (see ``speed.py``).
``--trace 1`` alternates untraced and traced executions of job 0 and prints
the per-layer metrics of one traced job plus the tracing overhead.  Human
readable lines come first; the last line of standard output is one JSON
object.  A fuller record, with the environment, goes to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import checkout
import speed

WORKLOAD_NAMES = ("rates", "spectral", "hyper-l2ball")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    return p.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {name: os.environ.get(name) for name in checkout.BLAS_PINS},
        "workers": 1,
        "seed": seed,
    }


def measure_setup(args, probes: int) -> tuple[list[float], list[float]]:
    """Set-up seconds of fresh processes: raw, and in reference time."""
    cmd = [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
           "--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    raw, scaled = [], []
    before = speed.kernel_seconds()
    for _ in range(probes):
        out = subprocess.run(cmd, cwd=checkout.ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        after = speed.kernel_seconds()
        raw.append(float(out.stdout.strip().splitlines()[-1]))
        scaled.append(speed.to_reference(raw[-1], 0.5 * (before + after)))
        before = after
    return raw, scaled


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------


def run_untraced(args, workload, recorder, sizes) -> dict:
    import workloads as wl

    setup_raw, setup_ref = measure_setup(args, sizes.setup_probes)
    jobs, spent = [], 0.0
    recorder.calibrate = True
    while True:
        job = wl.run_job(workload, recorder, wl.job_seed(args.seed, len(jobs)), sizes)
        wl.check_job(workload, job)
        jobs.append(job)
        spent += job.seconds
        if spent + job.seconds > args.seconds:
            break
    recorder.calibrate = False
    replays = wl.replay(workload, recorder, jobs[0])
    calls = [c for job in jobs for c in job.calls if c.iters]
    if not calls:
        sys.exit("perfbench: no execute call completed")
    iters = sum(job.iters for job in jobs)
    per_iter_us = [speed.to_reference(c.seconds, c.kernel) / c.iters * 1e6 for c in calls]
    raw_per_iter_us = [c.seconds / c.iters * 1e6 for c in calls]
    kernels = [c.kernel for c in calls]
    return {
        "metrics": {
            "setup_s": (statistics.median(setup_ref), "s"),
            "iters_per_s": (iters / sum(speed.to_reference(job.seconds, job.kernel)
                                        for job in jobs), "1/s"),
            "us_per_iter_p50": (statistics.median(per_iter_us), "us"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        },
        "calls": [c for job in jobs for c in job.calls] + replays,
        "notes": {
            "setup_s": f"median of {len(setup_ref)} fresh processes; raw "
                       f"{statistics.median(setup_raw):.4g} s",
            "iters_per_s": f"{iters} iterations in {spent:.3f} s over {len(jobs)} jobs; raw "
                           f"{iters / spent:.6g} 1/s",
            "us_per_iter_p50": f"median of {len(per_iter_us)} execute calls; raw "
                               f"{statistics.median(raw_per_iter_us):.6g} us",
            "speed": f"times are scaled to a {speed.REFERENCE_S * 1e3:.0f} ms calibration kernel; "
                     f"it took {min(kernels) * 1e3:.1f}-{max(kernels) * 1e3:.1f} ms, median "
                     f"{statistics.median(kernels) * 1e3:.1f} ms",
        },
        "samples": {"setup_s_raw": setup_raw, "setup_s": setup_ref, "us_per_iter": per_iter_us,
                    "us_per_iter_raw": raw_per_iter_us, "kernel_seconds": kernels,
                    "job_seconds_raw": [job.seconds for job in jobs]},
        "job0": jobs[0],
    }


def run_traced(args, workload, recorder, sizes) -> dict:
    import tracer as tr
    import workloads as wl

    tracer = tr.Tracer()
    runs = {False: [], True: []}
    first = None
    spent = 0.0
    kernel = statistics.median(speed.kernel_passes(0.0))
    while spent < args.seconds:
        # Alternate which side goes first, so drift in machine speed favours neither.
        for traced in ((False, True) if len(runs[True]) % 2 == 0 else (True, False)):
            if traced:
                tr.install(tracer)
            try:
                job = wl.run_job(workload, recorder, args.seed, sizes)
            finally:
                tracer.uninstall()
            # The kernel runs between jobs, outside every span.
            after = statistics.median(speed.kernel_passes(speed.SHARE * job.seconds))
            job.kernel, kernel = 0.5 * (kernel + after), after
            wl.check_job(workload, job)
            if first is None:
                first = job
            else:
                for again, original in zip(job.calls, first.calls):
                    if not again.error and again.sha256 != original.sha256:
                        again.error = "replay trace SHA-256 differs from the first execution"
            runs[traced].append(job)
            spent += job.seconds
    checkout.OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(str(checkout.OUT / f"{args.workload}-seed{args.seed}.spans.npz"))
    metrics = layer_metrics(tracer, runs[True], runs[False])
    return {
        "metrics": metrics,
        "calls": [c for jobs in runs.values() for job in jobs for c in job.calls],
        "notes": {"per-layer": f"per traced job, averaged over {len(runs[True])} traced and "
                               f"{len(runs[False])} untraced executions of job 0; the "
                               f"trace.iters_per_s figures are scaled like the end-to-end ones"},
        "samples": {"job_seconds_untraced": [j.seconds for j in runs[False]],
                    "job_seconds_traced": [j.seconds for j in runs[True]]},
        "job0": first,
    }


def layer_metrics(tracer, traced_jobs, untraced_jobs) -> dict:
    n = len(traced_jobs)
    job_iters = traced_jobs[0].iters
    job_ms = sum(j.seconds for j in traced_jobs) * 1e3 / n
    spans = tracer.summary()

    def calls(name):
        return spans[name]["calls"] / n

    def self_ms(name):
        return spans[name]["self_ms"] / n

    def us_per_call(name):
        return spans[name]["ms"] * 1e3 / spans[name]["calls"] if spans[name]["calls"] else 0.0

    def per_iter(count):
        return count / (n * job_iters) if job_iters else 0.0

    def ips(jobs):
        return sum(j.iters for j in jobs) / sum(speed.to_reference(j.seconds, j.kernel)
                                                for j in jobs)

    untraced_ips, traced_ips = ips(untraced_jobs), ips(traced_jobs)
    executes = calls("harness.execute")
    out = {
        "tensor.full_svd.calls": (calls("tensor.full_svd"), "count"),
        "tensor.full_svd.self_ms": (self_ms("tensor.full_svd"), "ms"),
        "tensor.full_svd.us_per_call": (us_per_call("tensor.full_svd"), "us"),
        "tensor.paramvec.per_iter": (per_iter(tracer.counts["tensor.paramvec"]), "count/iter"),
        "reference.precondition.calls": (calls("reference.precondition"), "count"),
        "reference.precondition.self_ms": (self_ms("reference.precondition"), "ms"),
        "reference.phi_star.self_ms": (self_ms("reference.phi_star"), "ms"),
        "reference.h_star.cold_calls": (calls("reference.h_star.cold"), "count"),
        "reference.h_star.cold_ms": (spans["reference.h_star.cold"]["ms"] / n, "ms"),
        "reference.h_star.warm_us_per_call": (us_per_call("reference.h_star.warm"), "us"),
        "reference.h_star_prime.calls": (tracer.counts["reference.h_star_prime"] / n, "count"),
        "prox.prox.calls": (calls("prox.prox"), "count"),
        "prox.prox.self_ms": (self_ms("prox.prox"), "ms"),
        "prox.recover_subgradient.self_ms": (self_ms("prox.recover_subgradient"), "ms"),
        "prox.feasibility_error.self_ms": (self_ms("prox.feasibility_error"), "ms"),
        "problems.grad_f.per_iter": (per_iter(spans["problems.grad_f"]["calls"]), "count/iter"),
        "problems.grad_f.self_ms": (self_ms("problems.grad_f"), "ms"),
        "problems.oracle_sample.self_ms": (self_ms("problems.oracle_sample"), "ms"),
        "problems.noise_draw.self_ms": (self_ms("problems.noise_draw"), "ms"),
        "direction.update.calls": (calls("direction.update"), "count"),
        "direction.update.self_ms": (self_ms("direction.update"), "ms"),
        "stationarity.gap_bregman.self_ms": (self_ms("stationarity.gap_bregman"), "ms"),
        "optimizer.run.self_ms": (self_ms("optimizer.run"), "ms"),
        "optimizer.step.self_ms": (self_ms("optimizer.step"), "ms"),
        "harness.build_problem.calls": (calls("harness.build_problem"), "count"),
        "harness.build_reference.calls": (calls("harness.build_reference"), "count"),
        "harness.execute.calls": (executes, "count"),
        "harness.build_problem.per_execute": (
            calls("harness.build_problem") / executes if executes else 0.0, "count"),
        "harness.execute.self_ms": (self_ms("harness.execute"), "ms"),
        "harness.traces_to_csv.ms": (spans["harness.traces_to_csv"]["ms"] / n, "ms"),
        "job.iters": (float(job_iters), "count"),
        "job.traced_ms": (job_ms, "ms"),
        "stress.full_svd_pct": (100.0 * self_ms("tensor.full_svd") / job_ms, "%"),
        "stress.prox_and_cold_h_star_pct": (
            100.0 * (self_ms("prox.prox") + spans["reference.h_star.cold"]["ms"] / n) / job_ms, "%"),
        "trace.iters_per_s_untraced": (untraced_ips, "1/s"),
        "trace.iters_per_s_traced": (traced_ips, "1/s"),
        "trace.overhead_pct": (100.0 * (untraced_ips - traced_ips) / untraced_ips, "%"),
    }
    return out


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def report(args, env: dict, run: dict) -> dict:
    calls = run["calls"]
    failed = [c for c in calls if c.error]
    job0 = run["job0"]
    sha = hashlib.sha256("".join(c.sha256 for c in job0.calls).encode()).hexdigest()
    metrics = run["metrics"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
          f"{' tiny' if args.tiny else ''}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        note = run["notes"].get(name)
        print(f"  {name:<36} {value:>14.6g} {unit:<10}" + (f" ({note})" if note else ""))
    for name, note in run["notes"].items():
        if name not in metrics:
            print(f"  {name}: {note}")
    print(f"  {'failed_frac':<36} {len(failed) / len(calls):>14.6g} {'ratio':<10} "
          f"({len(failed)} of {len(calls)} execute calls)")
    print(f"  trace_sha256 {sha} (job 0, seed {job0.seed}; recorded, not checked)")
    for c in failed:
        print(f"  FAILED seed={c.cfg.seed} K={c.cfg.K}: {c.error}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "environment": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": run["notes"], "samples": run["samples"],
        "attempted": len(calls), "failed": len(failed),
        "failed_frac": len(failed) / len(calls),
        "errors": [c.error for c in failed],
        "trace_sha256": sha,
        "trace_sha256_per_call": [c.sha256 for c in job0.calls],
    }
    checkout.OUT.mkdir(parents=True, exist_ok=True)
    path = checkout.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return {
        "correct": not failed,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": record["metrics"],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    checkout.prepare()
    import workloads as wl

    harness = importlib.import_module("specprox.harness")
    recorder = wl.ExecuteRecorder(harness.execute)
    harness.execute = recorder
    workload = wl.WORKLOADS[args.workload]
    sizes = wl.TINY if args.tiny else wl.FULL
    run = (run_traced if args.trace else run_untraced)(args, workload, recorder, sizes)
    result = report(args, environment(args.seed), run)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
