import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cspilot import cli


def run(tmp_path, name, experiment, *args):
    out = tmp_path / name
    code = cli.main([experiment, "--out", str(out), *args])
    return code, out


def parse(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    provenance = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    rows = list(csv.reader(body))
    return provenance, rows[0], rows[1:]


NETSIM_TINY = [
    "--set", "trials=200",
    "--set", "cells=4",
    "--set", "group_sizes=1,4",
    "--set", "alphas=0.5,1.0",
]
RECOVER_TINY = [
    "--set", "trials=2",
    "--set", "snr_dbs=10,inf",
    "--set", "tap_count=25",
]


def test_provenance_lines(tmp_path):
    code, out = run(tmp_path, "a.csv", "fig3", "--seed", "7", "--set", "kg_max=2")
    assert code == 0
    provenance, header, rows = parse(out)
    assert len(provenance) == 4
    assert provenance[0].startswith("# tool: cspilot ")
    assert provenance[1] == "# experiment: fig3"
    assert provenance[2] == "# seed: 7"
    assert provenance[3].startswith("# config-sha256: ")
    assert len(provenance[3].split(": ")[1]) == 64


def test_config_digest_tracks_values(tmp_path):
    _, a = run(tmp_path, "a.csv", "fig3", "--set", "kg_max=2")
    _, b = run(tmp_path, "b.csv", "fig3", "--set", "kg_max=3")
    _, c = run(tmp_path, "c.csv", "fig3", "--set", "kg_max=2")
    digest = lambda p: parse(p)[0][3]
    assert digest(a) == digest(c)
    assert digest(a) != digest(b)


def test_headers_are_stable(tmp_path):
    expected = {
        "fig3": ["k_g", "p_out", "rho_fq", "rho_ag_fq", "rho_cs", "rho_ag_cs"],
        "detect-sweep": ["m_bs", "g_p", "threshold", "pe_mc", "pe_stderr"],
        "recover-bench": [
            "snr_db", "method", "nmse_db_mean", "support_rate", "pilot_tones_used",
        ],
        "codebook-verify": ["check", "cases", "failures"],
        "netsim": ["cells", "group_size", "alpha", "trials", "p_analytic", "p_mc", "p_stderr"],
    }
    tiny = {
        "fig3": ["--set", "kg_max=2"],
        "detect-sweep": [
            "--set", "antenna_counts=4", "--set", "pathloss_powers=2", "--set", "trials=200",
        ],
        "recover-bench": [
            "--set", "trials=1", "--set", "snr_dbs=inf", "--set", "tap_count=25",
        ],
        "codebook-verify": ["--set", "l_prime=3", "--set", "k=4"],
        "netsim": [
            "--set", "cells=4", "--set", "group_sizes=1",
            "--set", "alphas=1.0", "--set", "trials=10",
        ],
    }
    for experiment, header in expected.items():
        code, out = run(tmp_path, f"{experiment}.csv", experiment, *tiny[experiment])
        assert code == 0, experiment
        _, got, rows = parse(out)
        assert got == header, experiment
        assert rows, experiment


def test_fig3_row_values(tmp_path):
    code, out = run(tmp_path, "fig3.csv", "fig3")
    assert code == 0
    _, header, rows = parse(out)
    assert len(rows) == 200
    table = {(r[0], r[1]): r for r in rows}
    base = table[("16", "0.0")]
    assert float(base[2]) == 10.0
    assert float(base[4]) == 50.0
    assert float(base[5]) == pytest.approx(289.38088062113957, abs=1e-9)
    shifted = table[("16", "0.3")]
    assert float(shifted[4]) == pytest.approx(35.0)


def test_detect_sweep_blind_point(tmp_path):
    code, out = run(
        tmp_path, "d.csv", "detect-sweep",
        "--set", "antenna_counts=16",
        "--set", "pathloss_powers=0",
        "--set", "trials=4000",
    )
    assert code == 0
    _, _, rows = parse(out)
    assert len(rows) == 1
    m, gp, threshold, pe, stderr = rows[0]
    assert float(threshold) == 1.5
    assert abs(float(pe) - 0.5) < 3 * math.sqrt(0.25 / 4000)


@pytest.mark.parametrize("bad", ["nan", "inf", "2,nan"])
def test_detect_sweep_non_finite_power_is_config_error(tmp_path, capsys, bad):
    code, out = run(
        tmp_path, "d.csv", "detect-sweep",
        "--set", "antenna_counts=16",
        "--set", f"pathloss_powers={bad}",
        "--set", "trials=100",
    )
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_recover_bench_zero_trials_is_config_error(tmp_path, capsys):
    code, out = run(
        tmp_path, "r.csv", "recover-bench",
        "--set", "trials=0", "--set", "snr_dbs=inf", "--set", "tap_count=25",
    )
    assert code == 2
    assert "trials" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", ["-inf", "-4000", "nan", "20,nan"])
def test_recover_bench_snr_without_finite_noise_is_config_error(
    tmp_path, capsys, monkeypatch, bad
):
    # only +inf dB means noiseless; an SNR whose noise variance is not finite
    # and positive is refused before the first trial
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(cli, "sample_channel", no_trial)
    code, out = run(
        tmp_path, "r.csv", "recover-bench",
        "--set", "trials=2", "--set", f"snr_dbs={bad}", "--set", "tap_count=25",
    )
    assert code == 2
    assert "snr_dbs" in capsys.readouterr().err
    assert not out.exists()


def test_numpy_scalars_written_as_plain_numbers(tmp_path):
    out = tmp_path / "np.csv"
    row = [np.float64(1.6479184330021646), np.int64(3), 0.1]
    cli._write_csv(out, "fig3", 0, {}, ["a", "b", "c"], [row])
    _, _, rows = parse(out)
    assert rows == [["1.6479184330021646", "3", "0.1"]]


def test_cli_import_leaves_scipy_stats_out():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = "import sys, cspilot.cli; print('scipy.stats' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"


def test_recover_bench_noiseless(tmp_path):
    code, out = run(
        tmp_path, "r.csv", "recover-bench",
        "--set", "trials=3", "--set", "snr_dbs=inf", "--set", "tap_count=25",
    )
    assert code == 0
    _, _, rows = parse(out)
    by_method = {r[1]: r for r in rows}
    assert set(by_method) == {"dantzig", "dantzig+debias", "omp", "fde_ls"}
    assert float(by_method["omp"][3]) == 1.0
    assert float(by_method["omp"][2]) < -100.0
    assert by_method["omp"][4] == "20"
    assert by_method["fde_ls"][4] == "25"


def test_codebook_verify_defaults(tmp_path):
    code, out = run(tmp_path, "cb.csv", "codebook-verify")
    assert code == 0
    _, _, rows = parse(out)
    assert [r[0] for r in rows] == ["empty", "single", "pair"]
    assert [r[1] for r in rows] == ["1", "21", "210"]
    assert all(r[2] == "0" for r in rows)


def test_codebook_verify_empty_book(tmp_path):
    code, out = run(tmp_path, "cb0.csv", "codebook-verify", "--set", "k=0")
    assert code == 0
    _, _, rows = parse(out)
    assert [r[1] for r in rows] == ["1", "0", "0"]


def test_rerun_is_byte_identical(tmp_path):
    _, a = run(tmp_path, "a.csv", "netsim", "--seed", "5", *NETSIM_TINY)
    _, b = run(tmp_path, "b.csv", "netsim", "--seed", "5", *NETSIM_TINY)
    assert a.read_bytes() == b.read_bytes()


def test_workers_do_not_change_output(tmp_path):
    _, a = run(tmp_path, "a.csv", "netsim", *NETSIM_TINY)
    _, b = run(tmp_path, "b.csv", "netsim", "--workers", "3", *NETSIM_TINY)
    assert a.read_bytes() == b.read_bytes()
    _, c = run(tmp_path, "c.csv", "recover-bench", *RECOVER_TINY)
    _, d = run(tmp_path, "d.csv", "recover-bench", "--workers", "2", *RECOVER_TINY)
    assert c.read_bytes() == d.read_bytes()


def test_seed_changes_monte_carlo_output(tmp_path):
    _, a = run(tmp_path, "a.csv", "netsim", "--seed", "1", *NETSIM_TINY)
    _, b = run(tmp_path, "b.csv", "netsim", "--seed", "2", *NETSIM_TINY)
    assert a.read_bytes() != b.read_bytes()


def test_config_file_layering(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nkg_max = 3\np_outs = 0\n", encoding="utf-8")
    code, out = run(
        tmp_path, "a.csv", "fig3", "--config", str(cfg), "--set", "kg_max=2",
    )
    assert code == 0
    _, _, rows = parse(out)
    assert len(rows) == 2  # --set beat the file; file's p_outs survived


def test_unknown_key_rejected(tmp_path, capsys):
    code, _ = run(tmp_path, "a.csv", "fig3", "--set", "bogus=1")
    assert code == 2
    assert "unknown key" in capsys.readouterr().err
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mystery=5\n", encoding="utf-8")
    code = cli.main(["fig3", "--config", str(cfg), "--out", str(tmp_path / "b.csv")])
    assert code == 2


def test_missing_config_file(tmp_path):
    code, _ = run(tmp_path, "a.csv", "fig3", "--config", str(tmp_path / "absent.cfg"))
    assert code == 2


def test_malformed_config_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just words\n", encoding="utf-8")
    code, _ = run(tmp_path, "a.csv", "fig3", "--config", str(cfg))
    assert code == 2
    assert "key=value" in capsys.readouterr().err


def test_capacity_overflow_is_config_error(tmp_path, capsys):
    code, _ = run(
        tmp_path, "a.csv", "codebook-verify", "--set", "k=500", "--set", "l=1",
    )
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_bad_numeric_is_config_error(tmp_path):
    code, _ = run(tmp_path, "a.csv", "codebook-verify", "--set", "l_prime=abc")
    assert code == 2


def test_bad_tone_policy(tmp_path):
    code, _ = run(
        tmp_path, "a.csv", "recover-bench",
        "--set", "tone_policy=best", "--set", "trials=1", "--set", "snr_dbs=inf",
    )
    assert code == 2


def test_unwritable_output_path(tmp_path):
    code = cli.main(["fig3", "--set", "kg_max=2", "--out", str(tmp_path / "no" / "a.csv")])
    assert code == 1
