import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

import specprox as sp
from specprox import harness
from specprox.cli import main
from specprox.harness import CSV_COLUMNS, ExperimentConfig, execute, traces_to_csv
from specprox.prox import VECTOR_TAGS


def small_cfg(**kw):
    base = dict(problem="quadratic", n=5, cond=2.0, noise="gaussian", sigma=0.5,
                mode="polyak", K=12, repetitions=2, seed=3,
                constraint="linf-ball", radius=1.0)
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# Config file handling
# ---------------------------------------------------------------------------


def test_config_round_trip():
    cfg = small_cfg(gamma_bar=1.5, out="x.csv")
    assert sp.parse_config(sp.serialize_config(cfg)) == cfg


def test_config_comments_and_dashes():
    text = "problem = quadratic\nnoise = gaussian  # tail\n# full-line comment\ngamma-bar = 2.0\n"
    cfg = sp.parse_config(text)
    assert cfg.gamma_bar == 2.0
    assert cfg.noise == "gaussian"


def test_config_error_diagnostics():
    with pytest.raises(sp.ConfigError, match="line 2"):
        sp.parse_config("problem = quadratic\nbogus_key = 1\n")
    with pytest.raises(sp.ConfigError, match="line 1"):
        sp.parse_config("K = notanint\n")
    with pytest.raises(sp.ConfigError, match="'key = value'"):
        sp.parse_config("just some text\n")
    with pytest.raises(sp.ConfigError):
        sp.parse_config("mode = warp\n")
    with pytest.raises(sp.ConfigError):
        sp.parse_config("repetitions = 0\n")


@pytest.mark.parametrize("line,message", [
    ("problem = bogus", "unknown problem"),
    ("noise = bogus", "unknown noise"),
    ("mode = bogus", "unknown mode"),
    ("reference = bogus", "reference must look like"),
    ("reference = bogus-aniso", "unknown reference family"),
    ("reference = barrier-bogus", "unknown reference structure"),
    ("constraint = bogus", "unknown constraint"),
])
def test_unknown_name_names_its_field(line, message):
    with pytest.raises(sp.ConfigError, match=message):
        sp.parse_config(line + "\n")
    field, _, name = line.partition(" = ")
    with pytest.raises(sp.ConfigError, match=message):
        execute(small_cfg(**{field: name}))


def test_negative_eps_hat_rejected():
    # Only 0 selects the default (K+1)^(-1/4); a negative value is a mistake.
    with pytest.raises(sp.ConfigError, match="eps_hat"):
        sp.parse_config("mode = polar\nconstraint = zero\neps_hat = -0.5\n")
    assert sp.parse_config("mode = polar\neps_hat = 0\n").eps_hat == 0.0


def _table_cases():
    references = [f"{family}-{s.value}" for family in harness.REFERENCE_FAMILIES
                  for s in sp.Structure]
    tables = {"problem": harness.PROBLEMS, "noise": harness.NOISES, "mode": harness.MODES,
              "reference": references, "constraint": harness.CONSTRAINTS}
    return [(field, name) for field, names in tables.items() for name in names]


@pytest.mark.parametrize("field,name", _table_cases())
def test_every_table_name_builds_and_runs(field, name):
    # Matrix problems, spectral structures and matrix sets run on a 4x3
    # matrix-quadratic with a spectral reference; the rest on a vector quadratic.
    cfg = small_cfg(K=1, repetitions=1, **{"constraint": "zero", field: name})
    matrix = (len(harness.build_problem(cfg).shapes[0]) == 2
              or sp.Structure(cfg.reference.partition("-")[2]).is_spectral
              or not isinstance(harness.build_constraint(cfg).tags[0], VECTOR_TAGS))
    if matrix:
        cfg = replace(cfg, problem="matrix-quadratic", m=4, n=3)
        if field != "reference":
            cfg = replace(cfg, reference="barrier-spectral-aniso")
    result = execute(cfg)
    assert len(result.traces[0]) == 2
    assert all(math.isfinite(r.gap_bregman) and math.isfinite(r.F)
               for r in result.traces[0].records)


# ---------------------------------------------------------------------------
# Execution and CSV
# ---------------------------------------------------------------------------


def test_csv_schema_and_rows():
    cfg = small_cfg(K=0, repetitions=1)
    result = execute(cfg)
    csv = traces_to_csv(result.traces)
    lines = csv.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2  # header + one data row for K=0
    fields = lines[1].split(",")
    assert fields[0] == "0" and fields[1] == "0"
    assert all(math.isfinite(float(v)) for v in fields[2:])


def test_csv_byte_determinism():
    cfg = small_cfg()
    a = traces_to_csv(execute(cfg).traces)
    b = traces_to_csv(execute(cfg).traces)
    assert a == b


# SHA-256 of the trace CSV for one small config per path through the run
# loop.  The digests pin the bytes across commits, not just across two runs of
# one checkout; they are tied to this numpy/BLAS build, so a different numpy
# or BLAS may legitimately change them.
PINNED_TRACE_DIGESTS = {
    "deterministic": (
        dict(mode="deterministic", noise="none", gamma=0.1),
        "1ff33a9a1a69409823752a00bef370094749893072999b018d5dc46d7a006d3e"),
    "polyak-gaussian": (
        dict(),
        "2159460b48200baa48983ff0cc239d32e6ddb34667339cc746c2f8c1a6c37ca5"),
    "polyak-student-t": (
        dict(noise="student-t"),
        "8c63946f6cb7ed68c198c5c2df775e287bbdd401f6bfa1bb0d0590579d0db670"),
    "storm": (
        dict(mode="storm"),
        "597fea390e5bc06d0d56a62ba9d15496ad712d24cb91d84df34bc71d00b5b119"),
    "normalized-exact": (
        dict(mode="polar", constraint="zero"),
        "beec0d899cdf9583f0bc1be7e6208adf1b9ba092aed5d8a4cbb123b39d18197a"),
    "normalized-newton-schulz": (
        dict(mode="polar", constraint="zero", poly_schedule="newton-schulz"),
        "5defdac8f002f688be0997b3593f95b38d0d6ca78868cef14d7d5bfae6cd1136"),
    "spectral-polyak": (
        dict(problem="matrix-quadratic", m=4, n=3, reference="barrier-spectral-aniso",
             constraint="spectral-ball"),
        "dc5c226a9c911c45e6bd9f7cfdeb05c7a08a30e1cf78224b0520cc48473d4bc0"),
    "spectral-iso-frobenius": (
        dict(problem="matrix-quadratic", m=4, n=3, reference="barrier-spectral-iso",
             constraint="frobenius-ball"),
        "2df1be575f5df18be9f9cb45f1ff1807fe5c152cd16838092c24facf4eb2a5e8"),
    "spectral-aniso-stiefel": (
        dict(problem="matrix-quadratic", m=4, n=3, reference="barrier-spectral-aniso",
             constraint="stiefel"),
        "cc8f22287a1394e25bb015c9e105a65da1c2521785a67950a2afa653a4a2df70"),
    "hyper-spectral-rank-storm": (
        dict(problem="matrix-quadratic", m=3, n=5, mode="storm",
             reference="hyper-spectral-aniso", kappa=3.0, constraint="rank-limit"),
        "f4a73a2713e86b7bb0a4e59af498414651ea08375d50765bbaae394fc4a65ab6"),
    "spectral-sphere-deterministic": (
        dict(problem="matrix-quadratic", m=4, n=3, mode="deterministic", noise="none",
             gamma=0.1, reference="barrier-spectral-aniso", constraint="spectral-sphere"),
        "302ba65f90540ffe9a4590215a0bf9a2e80a919d390938b190ad15a8d8ec3b67"),
}


@pytest.mark.parametrize("case", sorted(PINNED_TRACE_DIGESTS))
def test_trace_csv_matches_pinned_digest(case):
    overrides, digest = PINNED_TRACE_DIGESTS[case]
    csv = traces_to_csv(execute(small_cfg(**overrides)).traces)
    assert hashlib.sha256(csv.encode()).hexdigest() == digest


def test_seeds_progress_per_repetition():
    cfg = small_cfg(repetitions=3)
    result = execute(cfg)
    assert [t.seed for t in result.traces] == [3, 4, 5]
    assert [s.seed for s in result.summaries] == [3, 4, 5]


def test_run_experiment_writes_files(tmp_path):
    out = tmp_path / "trace.csv"
    cfg = small_cfg(out=str(out))
    result = sp.run_experiment(cfg, quiet=True)
    assert out.exists()
    summary = tmp_path / "trace.summary.csv"
    assert summary.exists()
    text = summary.read_text()
    assert text.startswith("run_id,seed,K,time_avg_gap")
    assert "mean," in text
    assert result.mean_time_avg_gap > 0.0


def test_deterministic_min_gap_column(tmp_path):
    # noiseless deterministic run on a certified problem: running min of the
    # gap column contracts toward zero
    cfg = small_cfg(mode="deterministic", noise="none", gamma=0.5, K=200,
                    repetitions=1, constraint="zero")
    result = execute(cfg)
    gaps = result.traces[0].column("gap_bregman")
    running = np.minimum.accumulate(gaps)
    assert running[-1] <= 1e-6
    assert running[-1] <= running[0] * 1e-3


# ---------------------------------------------------------------------------
# Rate estimation
# ---------------------------------------------------------------------------


def test_estimate_rate_exact_power_law():
    data = {K: [2.0 * (K + 1.0) ** -0.5] * 10 for K in (10, 30, 100, 300)}
    est = sp.estimate_rate(data)
    assert est.slope == pytest.approx(-0.5, abs=1e-12)
    assert est.r_squared == pytest.approx(1.0)


def test_estimate_rate_constant():
    data = {K: [3.0] * 10 for K in (10, 30, 100, 300)}
    est = sp.estimate_rate(data)
    assert est.slope == pytest.approx(0.0, abs=1e-12)


def test_estimate_rate_excludes_degenerate():
    data = {K: [1.0 * (K + 1.0) ** -0.25] * 10 for K in (10, 30, 100, 300)}
    data[1000] = [0.0] * 10
    est = sp.estimate_rate(data)
    assert est.excluded == (1000,)
    assert est.slope == pytest.approx(-0.25, abs=1e-12)


def test_estimate_rate_validation():
    with pytest.raises(sp.InvalidConfigError):
        sp.estimate_rate({1: [1.0] * 10, 2: [1.0] * 10, 3: [1.0] * 10})
    with pytest.raises(sp.InvalidConfigError):
        sp.estimate_rate({K: [1.0] * 3 for K in (1, 2, 3, 4)})


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_run_and_replay(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    out = tmp_path / "t.csv"
    cfg_path.write_text(sp.serialize_config(small_cfg(out=str(out))))
    assert main(["run", "--config", str(cfg_path), "--quiet"]) == 0
    first = out.read_bytes()
    assert main(["run", "--config", str(cfg_path), "--quiet"]) == 0
    assert out.read_bytes() == first


def test_cli_config_error_exit_code(tmp_path):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("problem = hyperbolic\n")
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_cli_run_hyper_kappa_near_one(tmp_path):
    cfg_path = tmp_path / "hyper.cfg"
    out = tmp_path / "h.csv"
    cfg = small_cfg(reference="hyper-aniso", epsilon=1.0, kappa=1.01, out=str(out))
    cfg_path.write_text(sp.serialize_config(cfg))
    assert main(["run", "--config", str(cfg_path), "--quiet"]) == 0
    lines = out.read_text().strip().split("\n")
    col = lines[0].split(",").index("gap_bregman")
    assert all(math.isfinite(float(row.split(",")[col])) for row in lines[1:])


@pytest.mark.parametrize("text,message", [
    ("constraint = l2-ball\nradius = -1\n", "radius must be positive"),
    ("constraint = stiefel\n", "Stiefel cannot constrain a vector block"),
    ("reference = barrier-spectral-aniso\n", "SPECTRAL_ANISO applies to matrix blocks"),
])
def test_cli_block_mismatch_is_config_error(tmp_path, capsys, text, message):
    # A constraint or reference that does not fit the problem's blocks is a
    # configuration mistake (exit 2), reported before the first step.
    cfg_path = tmp_path / "mismatch.cfg"
    cfg_path.write_text(f"problem = quadratic\nn = 4\nK = 2\nout = {tmp_path / 'x.csv'}\n"
                        + text)
    assert main(["run", "--config", str(cfg_path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not (tmp_path / "x.csv").exists()


def test_cli_polar_fit_csv(tmp_path):
    out = tmp_path / "fit.csv"
    code = main(["polar-fit", "--eps", "3e-4", "--kappa", "4", "--out", str(out),
                 "--grid-points", "101", "--quiet"])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,poly,preconditioner,sign"
    assert len(lines) == 102


def test_cli_validate_passes():
    assert main(["validate", "--quiet"]) == 0


def test_cli_prox_check():
    assert main(["prox-check", "--instances", "6", "--quiet"]) == 0


def test_cli_rates_smoke(tmp_path, capsys):
    out = tmp_path / "rates.csv"
    code = main(["rates", "--mode", "polyak", "--horizons", "8,16,32,64",
                 "--reps", "10", "--quiet", "--out", str(out)])
    assert code == 0
    assert "slope" in capsys.readouterr().out
    assert out.read_text().startswith("K,mean_gap")


def test_cli_unknown_flag_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", "x", "--frobnicate"])
    assert exc.value.code == 2


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_cli_runtime_error_exit_code(tmp_path):
    # unwritable output path -> runtime error -> exit 3
    cfg_path = tmp_path / "bad_run.cfg"
    cfg_path.write_text(
        "problem = quadratic\nn = 4\nmode = deterministic\ngamma = 0.1\nK = 2\n"
        f"out = {tmp_path / 'no' / 'such' / 'dir' / 'x.csv'}\n"
    )
    assert main(["run", "--config", str(cfg_path), "--quiet"]) == 3


ROW_CASES = {**{case: overrides for case, (overrides, _) in PINNED_TRACE_DIGESTS.items()},
             "hyper-l2ball": dict(reference="hyper-aniso", epsilon=0.1, kappa=2.5,
                                  constraint="l2-ball", radius=0.5)}


@pytest.mark.parametrize("case", sorted(ROW_CASES))
def test_batch_rows_match_single_runs(case):
    # Repetition i of a 4-seed execute is byte for byte the single run of seed
    # s+i on the same problem: its CSV rows and its final iterate.
    cfg = small_cfg(**ROW_CASES[case], repetitions=4)
    batch = execute(cfg)
    run_cfg, problem, noise = harness.build_run(cfg)
    for i, trace in enumerate(batch.traces):
        single = sp.run(replace(run_cfg, seed=cfg.seed + i), problem, noise)
        assert traces_to_csv([trace]) == traces_to_csv([single])
        for a, b in zip(trace.final_x.blocks, single.final_x.blocks):
            assert np.array_equal(a, b)
