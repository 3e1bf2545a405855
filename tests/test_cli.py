import csv
import functools
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cspilot import cli, recovery, simplex


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
DETECT_TINY = [
    "--set", "trials=300",
    "--set", "antenna_counts=4,16,8",
    "--set", "pathloss_powers=0,2",
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


def test_detect_sweep_golden_rows(tmp_path):
    # exact strings, captured before the Monte-Carlo kernel was rewritten in
    # place: two chunks per point, so the draw order across chunks is pinned
    code, out = run(
        tmp_path, "g.csv", "detect-sweep",
        "--seed", "1", "--set", "trials=5000", "--set", "antenna_counts=8,32",
    )
    assert code == 0
    assert out.read_text(encoding="utf-8").splitlines()[4:] == [
        "m_bs,g_p,threshold,pe_mc,pe_stderr",
        "8,0.0,1.5,0.4986,0.007071040093225324",
        "8,2.0,1.6479184330021646,0.0596,0.0033480692943844517",
        "8,10.0,2.6376848000782074,0.001,0.0004469899327725402",
        "32,0.0,1.5,0.4988,0.007071047447160852",
        "32,2.0,1.6479184330021646,0.0012,0.0004896039215529222",
        "32,10.0,2.6376848000782074,0.0,0.0",
    ]


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


def test_cli_import_leaves_scipy_stats_out(tmp_path):
    # scipy.special is imported by the one detection function that needs it,
    # which recover-bench never calls
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = tmp_path / "r.csv"
    probe = (
        "import sys, cspilot.cli\n"
        "loaded = lambda: [m in sys.modules for m in ('scipy.stats', 'scipy.special')]\n"
        "print(loaded())\n"
        f"cspilot.cli.main(['recover-bench', '--out', {str(out)!r}, *{RECOVER_TINY!r}])\n"
        "print(loaded())\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.split("\n")[:2] == ["[False, False]", "[False, False]"]
    assert out.exists()


def test_recover_bench_leaves_failed_solves_unscored(tmp_path, capsys, monkeypatch):
    # a solve cut off after one pivot is counted as a failure and left out of
    # both Dantzig rows; the other methods still score every trial
    args = ["--workers", "1", "--set", "trials=4", "--set", "snr_dbs=10"]
    args += ["--set", "tap_count=25"]
    params = cli._ofdm_from({**cli.EXPERIMENTS["recover-bench"].defaults, "tap_count": "25"})
    item = (0, params, "designed", 0, cli._noise_variance(10.0), 0, 4)
    with cli._one_blas_thread():  # the BLAS setting main runs the trials with
        clean = cli._recover_chunk(item)

    def means(trials, mi):
        total, hits = 0.0, 0
        for trial in trials:
            total += trial[mi][0]
            hits += trial[mi][1]
        return [repr(total / len(trials)), repr(hits / len(trials))]

    calls = []

    def second_solve_cut(*args, **kwargs):
        calls.append(None)
        return simplex.solve_lp(*args, **kwargs, max_iter=1 if len(calls) == 2 else None)

    monkeypatch.setattr(recovery, "solve_lp", second_solve_cut)
    code, out = run(tmp_path, "f.csv", "recover-bench", *args)
    assert code == 1
    assert "1 check(s) failed" in capsys.readouterr().err
    rows = {r[1]: r[2:4] for r in parse(out)[2]}
    kept = [clean[t] for t in (0, 2, 3)]
    assert rows["dantzig"] == means(kept, 0)
    assert rows["dantzig+debias"] == means(kept, 1)
    assert rows["omp"] == means(clean, 2)
    assert rows["fde_ls"] == means(clean, 3)

    monkeypatch.setattr(recovery, "solve_lp", functools.partial(simplex.solve_lp, max_iter=1))
    code, out = run(tmp_path, "g.csv", "recover-bench", *args)
    assert code == 1
    assert "4 check(s) failed" in capsys.readouterr().err
    rows = {r[1]: r[2:4] for r in parse(out)[2]}
    assert rows["dantzig"] == rows["dantzig+debias"] == ["nan", "nan"]
    assert rows["omp"] == means(clean, 2)


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


_GOLDEN_RECOVER = {
    ("tap_count=100", "tone_policy=designed"): [
        "10.0,dantzig,-8.698525696212487,0.0,20",
        "10.0,dantzig+debias,-22.635991810700972,0.9,20",
        "10.0,omp,-22.309011042918254,0.9,20",
        "inf,dantzig,-138.77555906412863,1.0,20",
        "inf,dantzig+debias,-200.0,1.0,20",
        "inf,omp,-200.0,1.0,20",
    ],
    ("tap_count=25", "tone_policy=random"): [
        "10.0,dantzig,-11.97456033652055,0.4,20",
        "10.0,dantzig+debias,-22.255773267762855,0.9,20",
        "10.0,omp,-22.58859362643621,1.0,20",
        "inf,dantzig,-140.52943908749472,1.0,20",
        "inf,dantzig+debias,-200.0,1.0,20",
        "inf,omp,-200.0,1.0,20",
    ],
}


@pytest.mark.parametrize("sets", sorted(_GOLDEN_RECOVER))
def test_recover_bench_golden_rows(tmp_path, sets):
    # exact strings: a faster solver or debias must keep every byte of the
    # dantzig, dantzig+debias and omp rows
    args = ["--seed", "1", "--set", "trials=10", "--set", "snr_dbs=10,inf"]
    for item in sets:
        args += ["--set", item]
    code, out = run(tmp_path, "g.csv", "recover-bench", *args)
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    kept = [ln for ln in lines[5:] if ln.split(",")[1] != "fde_ls"]
    assert kept == _GOLDEN_RECOVER[sets]


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
    # detect-sweep starts the largest antenna count first and writes grid order
    _, e = run(tmp_path, "e.csv", "detect-sweep", *DETECT_TINY)
    _, f = run(tmp_path, "f.csv", "detect-sweep", "--workers", "3", *DETECT_TINY)
    assert e.read_bytes() == f.read_bytes()
    assert [row[0] for row in parse(e)[2]] == ["4", "4", "16", "16", "8", "8"]


def test_trial_chunks_do_not_change_output(tmp_path, monkeypatch):
    # several chunks with a short last one; the per-trial values are summed
    # in trial order, so neither the chunk size nor the worker count moves a byte
    args = [
        "--set", f"trials={2 * cli._TRIAL_CHUNK + 3}",
        "--set", "snr_dbs=10,inf",
        "--set", "tap_count=25",
    ]
    _, first = run(tmp_path, "w1.csv", "recover-bench", *args)
    for workers in ("2", "3"):
        _, out = run(tmp_path, f"w{workers}.csv", "recover-bench", "--workers", workers, *args)
        assert out.read_bytes() == first.read_bytes()
        assert not multiprocessing.active_children()  # the pool was joined in main
    for chunk in (1, 7, 1000):
        monkeypatch.setattr(cli, "_TRIAL_CHUNK", chunk)
        _, out = run(tmp_path, f"c{chunk}.csv", "recover-bench", "--workers", "2", *args)
        assert out.read_bytes() == first.read_bytes()


def test_recover_bench_builds_each_matrix_once_per_process(tmp_path, monkeypatch):
    # the comb and the designed-tone matrix are built on the first chunk and
    # shared by every later one, and by later runs with the same params
    builds = []
    build = cli.build_sensing_matrix

    def counting_build(tones, params):
        builds.append(len(tones))
        return build(tones, params)

    monkeypatch.setattr(cli, "build_sensing_matrix", counting_build)
    cli._bench_matrices.cache_clear()
    args = ["--workers", "1", "--set", f"trials={2 * cli._TRIAL_CHUNK + 1}"]
    args += ["--set", "snr_dbs=10,inf"]
    try:
        for name in ("a.csv", "b.csv"):
            code, _ = run(tmp_path, name, "recover-bench", *args)
            assert code == 0
            assert sorted(builds) == [20, 100]  # designed tones, then the comb
    finally:
        cli._bench_matrices.cache_clear()  # drop the matrices built here
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_blas_threads_do_not_change_output(tmp_path):
    # LAPACK may round fde_ls's 100x100 pseudo-inverse differently under two
    # BLAS threads; main pins one, in its own process and in the workers
    src = str(Path(cli.__file__).resolve().parents[1])
    args = ["recover-bench", "--seed", "1", "--set", "trials=5", "--set", "snr_dbs=10,20"]
    outputs = []
    for threads, workers in (("1", "1"), ("2", "1"), ("2", "2")):
        out = tmp_path / f"b{threads}w{workers}.csv"
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        subprocess.run(
            [sys.executable, "-m", "cspilot.cli", *args, "--workers", workers, "--out", str(out)],
            env=env, check=True, timeout=120,
        )
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_main_runs_on_one_blas_thread_and_restores_the_count(tmp_path, monkeypatch):
    threads = cli._openblas_threads()
    if threads is None:
        pytest.skip("numpy does not bundle OpenBLAS here")
    get, put = threads
    seen = []
    real_sample = cli.sample_channel

    def spy(*args, **kwargs):
        seen.append(get())
        return real_sample(*args, **kwargs)

    monkeypatch.setattr(cli, "sample_channel", spy)
    original = get()
    put(2)
    try:
        code, _ = run(tmp_path, "ok.csv", "recover-bench", *RECOVER_TINY)
        assert code == 0
        assert get() == 2

        def broken(*args, **kwargs):
            seen.append(get())
            raise ValueError("broken channel")

        monkeypatch.setattr(cli, "sample_channel", broken)
        code, _ = run(tmp_path, "bad.csv", "recover-bench", *RECOVER_TINY)
        assert code == 2
        assert get() == 2
    finally:
        put(original)
    assert seen and set(seen) == {1}


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
    # pilots have unit energy: there is no energy key to set
    capsys.readouterr()
    code, _ = run(tmp_path, "c.csv", "recover-bench", "--set", "symbol_energy=1.0")
    assert code == 2
    assert "unknown key" in capsys.readouterr().err


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
