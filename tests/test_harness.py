import hashlib
import math

import numpy as np
import pytest

import specprox as sp
from specprox.cli import main
from specprox.harness import CSV_COLUMNS, ExperimentConfig, execute, traces_to_csv


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
        "22a9ffea161bf3552983fe349982e9874b2d716bfe83cd451bc810cbc06dfef5"),
    "polyak-gaussian": (
        dict(),
        "b41a7419ee95da99cb2306ba543156479d26d5d8375dfe14948527c635c9e79b"),
    "polyak-student-t": (
        dict(noise="student-t"),
        "9024e04b5c2dab718f1193ba6c42e3eac7ee48571c71174c23e171fe4752c996"),
    "storm": (
        dict(mode="storm"),
        "700861612d6a9fb1b1b6f7f36a8e33d12fc51724839850bb0522f97acd26905b"),
    "normalized-exact": (
        dict(mode="polar", constraint="zero"),
        "c46f5e5d281960b2396431c794cb1460e067ee318b21804d0b70ef34f12a42f8"),
    "normalized-newton-schulz": (
        dict(mode="polar", constraint="zero", poly_schedule="newton-schulz"),
        "037e2300692e467900e7604aae4027394d46e8026832f55b3441984b403dad47"),
    "spectral-polyak": (
        dict(problem="matrix-quadratic", m=4, n=3, reference="barrier-spectral-aniso",
             constraint="spectral-ball"),
        "789d2a0322ae6c810a2a8e7bf7712fdcf6e8fccbd1b1e2f77763b9de323bf45e"),
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


def test_parallel_workers_match_sequential():
    cfg_seq = small_cfg(repetitions=4)
    cfg_par = small_cfg(repetitions=4, workers=2)
    a = traces_to_csv(execute(cfg_seq).traces)
    b = traces_to_csv(execute(cfg_par).traces)
    assert a == b
