import ast
import csv
import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cspilot import cli, netsim, recovery, simplex


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


# the smallest config of each experiment: one that writes at least one row
TINY = {
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


def test_headers_are_stable(tmp_path):
    expected = {
        "fig3": ["k_g", "p_out", "rho_fq", "rho_ag_fq", "rho_cs", "rho_ag_cs"],
        "detect-sweep": ["m_bs", "g_p", "threshold", "pe_analytic", "pe_mc", "pe_stderr"],
        "recover-bench": [
            "snr_db", "method", "nmse_db_mean", "support_rate", "pilot_tones_used",
        ],
        "codebook-verify": ["check", "cases", "failures"],
        "netsim": ["cells", "group_size", "alpha", "trials", "p_analytic", "p_mc", "p_stderr"],
    }
    for experiment, header in expected.items():
        code, out = run(tmp_path, f"{experiment}.csv", experiment, *TINY[experiment])
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
    m, gp, threshold, analytic, pe, stderr = rows[0]
    assert float(threshold) == 1.5
    assert float(analytic) == 0.5
    assert abs(float(pe) - 0.5) < 3 * math.sqrt(0.25 / 4000)


def test_detect_sweep_golden_rows(tmp_path):
    # exact strings: m_bs, g_p, threshold and pe_analytic as captured when the
    # pe_analytic column was added; pe_mc and pe_stderr as captured when the
    # grid came to share each trial's draws.  20 001 trials are two full
    # trial blocks and a block of one trial, so the block seeds, the draw
    # order across budget chunks and the activity of each block are pinned
    code, out = run(
        tmp_path, "g.csv", "detect-sweep",
        "--seed", "1", "--set", "trials=20001", "--set", "antenna_counts=8,32",
    )
    assert code == 0
    assert out.read_text(encoding="utf-8").splitlines()[4:] == [
        "m_bs,g_p,threshold,pe_analytic,pe_mc,pe_stderr",
        "8,0.0,1.5,0.5,0.49972501374931255,0.0035354449862168083",
        "8,2.0,1.6479184330021646,0.06361518747379569,0.061946902654867256,0.0017045025458679549",
        "8,10.0,2.6376848000782074,0.0006056320512150371,0.00039998000099995,0.00014138600125143227",
        "32,0.0,1.5,0.5,0.5005749712514375,0.0035354431833191547",
        "32,2.0,1.6479184330021646,0.0010563053174226286,0.00119994000299985,0.0002447897286425435",
        "32,10.0,2.6376848000782074,3.489668494345095e-11,0.0,0.0",
    ]


def test_detect_sweep_draws_the_largest_antenna_count_per_trial(tmp_path, monkeypatch):
    # at defaults each of the 100 000 trials draws 128 exponentials for the
    # whole grid: 12.8 M, where one stream per point drew (32+64+128)*3*100 000
    calls, error_counts = [], cli.error_counts

    def counted(points, trials, rng):
        calls.append(([p.antenna_count for p in points], trials))
        return error_counts(points, trials, rng)

    monkeypatch.setattr(cli, "error_counts", counted)
    code, _ = run(tmp_path, "d.csv", "detect-sweep")
    assert code == 0
    assert [trials for _, trials in calls] == [cli._MC_BLOCK] * 10
    drawn = sum(max(counts) * trials for counts, trials in calls)
    per_point = sum(calls[0][0]) * 100_000
    assert (drawn, per_point) == (12_800_000, 67_200_000)


def test_netsim_draws_one_block_per_group_size(tmp_path, monkeypatch):
    # at defaults each trial of a group size draws K_G uniforms once for its
    # 9 (N, alpha) points: (1+4+16+64) * 100 000 = 8.5 M, where one stream
    # per point drew 9 times as many, 76.5 M
    calls, tallies = [], cli.singleton_tallies

    def counted(models, trials, rng):
        k = models[0].group_size
        reference = np.random.default_rng()
        reference.bit_generator.state = rng.bit_generator.state
        result = tallies(models, trials, rng)
        reference.random(k * trials)  # the call drew exactly K_G uniforms a trial
        assert rng.bit_generator.state == reference.bit_generator.state
        calls.append((len(models), k, trials))
        return result

    monkeypatch.setattr(cli, "singleton_tallies", counted)
    code, _ = run(tmp_path, "n.csv", "netsim")
    assert code == 0
    assert [(k, trials) for _, k, trials in calls] == [
        (k, cli._MC_BLOCK) for k in (1, 4, 16, 64) for _ in range(10)
    ]
    drawn = sum(k * trials for _, k, trials in calls)
    per_point = sum(points * k * trials for points, k, trials in calls)
    assert (drawn, per_point) == (8_500_000, 76_500_000)


def test_netsim_blocks_draw_from_seed_tag_size_and_block(tmp_path):
    # each row sums its group size's block tallies, block b of size index i
    # drawn from (seed, tag, i, b); three blocks, the last one short
    trials = 2 * cli._MC_BLOCK + 7
    code, out = run(
        tmp_path, "n.csv", "netsim", "--seed", "3", "--set", f"trials={trials}",
        "--set", "cells=4,64", "--set", "group_sizes=2,3", "--set", "alphas=0.5,1.0",
    )
    assert code == 0
    points = [(4, 0.5), (4, 1.0), (64, 0.5), (64, 1.0)]
    expected = {}
    for size, k in enumerate((2, 3)):
        total = sum(
            netsim.singleton_tallies(
                [netsim.NetworkModel(n, a, k) for n, a in points],
                min(cli._MC_BLOCK, trials - t0),
                np.random.default_rng([3, cli._TAG_NETSIM, size, block]),
            )
            for block, t0 in enumerate(range(0, trials, cli._MC_BLOCK))
        )
        for (n, a), tally in zip(points, total):
            expected[str(n), str(k), repr(a)] = netsim.collision_moments(tally)
    rows = parse(out)[2]
    assert [tuple(row[:3]) for row in rows] == [
        (n, k, a) for n in ("4", "64") for k in ("2", "3") for a in ("0.5", "1.0")
    ]
    for row in rows:
        assert (float(row[5]), float(row[6])) == expected[tuple(row[:3])], row


def test_netsim_golden_rows(tmp_path):
    # exact strings, captured when each group size came to draw one sorted
    # block of uniforms for every (N, alpha) point: the rows of one K_G share
    # their draws, and at K_G = 64 the 10 000 trials span several kernel
    # blocks, so the draw order across them is pinned.  The N = 4 rows read
    # as before: a SeedSequence pads its entropy with zeros, so block 0 of
    # group size i, (seed, tag, i, 0), seeds as grid point i did, (seed, tag, i)
    code, out = run(
        tmp_path, "n.csv", "netsim",
        "--seed", "1", "--set", "trials=10000", "--set", "cells=4,64",
        "--set", "group_sizes=1,4,64", "--set", "alphas=0.7",
    )
    assert code == 0
    assert out.read_text(encoding="utf-8").splitlines()[4:] == [
        "cells,group_size,alpha,trials,p_analytic,p_mc,p_stderr",
        "4,1,0.7,10000,0.30000000000000004,0.3012,0.004587794241244914",
        "4,4,0.7,10000,0.6069390625000001,0.611575,0.0024270819799710104",
        "4,64,0.7,10000,0.9999961832228931,0.9999953125,2.7059234069675736e-06",
        "64,1,0.7,10000,0.30000000000000004,0.3012,0.004587794241244914",
        "64,4,0.7,10000,0.3227184452056886,0.32095,0.002382038990025142",
        "64,64,0.7,10000,0.6498989525406581,0.6496078125,0.0005831577812245451",
    ]


@pytest.mark.parametrize("seed", ["1", "2", "3"])
def test_netsim_default_grid_agrees_with_closed_form(tmp_path, seed):
    # the default 36-point grid: every Monte-Carlo estimate within 4 standard
    # errors plus one singleton's worth, 1/(K trials), of the closed form
    code, out = run(tmp_path, "n.csv", "netsim", "--seed", seed, "--set", "trials=20000")
    assert code == 0
    _, _, rows = parse(out)
    assert len(rows) == 36
    for row in rows:
        n, k, a, trials = int(row[0]), int(row[1]), float(row[2]), int(row[3])
        p_analytic, p_mc, p_stderr = map(float, row[4:])
        assert p_analytic == pytest.approx(1.0 - a * (1.0 - a / n) ** (k - 1), rel=1e-12)
        assert abs(p_mc - p_analytic) <= 4.0 * p_stderr + 1.0 / (k * trials), row


def test_netsim_a_million_cells(tmp_path):
    # the tally's memory follows the group, not the cell count: the bins of a
    # million cells per trial would take gigabytes
    code, out = run(tmp_path, "n.csv", "netsim", "--set", "cells=1000000", "--set", "trials=2000")
    assert code == 0
    _, _, rows = parse(out)
    assert len(rows) == 12
    for row in rows:
        trials = int(row[3])
        p_analytic, p_mc, p_stderr = map(float, row[4:])
        assert abs(p_mc - p_analytic) <= 4.0 * p_stderr + 1.0 / trials, row


def test_netsim_cells_up_to_the_intp_limit(tmp_path, capsys):
    # bins 0 .. N must fit intp: 2^63 - 2 cells run, 2^63 - 1 is a config
    # error naming cells before any work, and no file is written
    top = int(np.iinfo(np.intp).max)
    args = ["--set", "trials=10", "--set", "group_sizes=3", "--set", "alphas=0.5"]
    code, out = run(tmp_path, "ok.csv", "netsim", "--set", f"cells={top - 1}", *args)
    assert code == 0
    assert parse(out)[2][0][0] == str(top - 1)
    code, out = run(tmp_path, "bad.csv", "netsim", "--set", f"cells={top}", *args)
    assert code == 2
    assert f"cells='{top}'" in capsys.readouterr().err
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
    # the package runs on numpy alone: the detection tails are Poisson sums
    # and the recovery kernels numpy; scipy.linalg alone takes about 0.2 s to
    # import, scipy.special about 0.2 s and 25 MB
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = tmp_path / "r.csv"
    probe = (
        "import sys, cspilot.cli\n"
        "from cspilot.detection import DetectionConfig, error_probability, min_threshold_for_network\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "print(loaded())\n"
        f"cspilot.cli.main(['recover-bench', '--out', {str(out)!r}, *{RECOVER_TINY!r}])\n"
        f"cspilot.cli.main(['detect-sweep', '--out', {str(out)!r}, '--workers', '1', *{DETECT_TINY!r}])\n"
        "error_probability(DetectionConfig(8, 2.0))\n"
        "min_threshold_for_network([1.0, 10.0], 8, max_error_probability=1e-3)\n"
        "print(loaded())\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.split("\n")[:2] == ["[]"] * 2
    assert out.exists()


def _lp_key(args):
    """The bytes of one `solve_lp` call's inputs, the same in every process."""
    return b"".join(np.asarray(arg).tobytes() for arg in args)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_recover_bench_leaves_failed_solves_unscored(tmp_path, capsys, monkeypatch, workers):
    # a failed solve is counted as a failure and left out of both Dantzig
    # rows; the other methods still score every trial.  Trials 9 and 10
    # straddle the first chunk boundary, and the solves fail by their inputs,
    # so each forked worker cuts the same trials
    trials = cli._TRIAL_CHUNK + 3
    args = ["--workers", workers, "--set", f"trials={trials}", "--set", "snr_dbs=10"]
    args += ["--set", "tap_count=25"]
    params = cli.default_params(tap_count=25)
    matrices = cli._bench_matrices(params, cli._designed_tones("designed", 1000, 25, 20))
    item = (0, params, matrices, 0, cli._noise_variance(10.0), 0, trials)
    threads = cli._openblas_threads()
    if threads is not None:
        threads[1](1)  # the BLAS setting main runs the trials with
    keys = []

    def recording(*args):
        keys.append(_lp_key(args))
        return simplex.solve_lp(*args)

    monkeypatch.setattr(recovery, "solve_lp", recording)
    nmse, hits = (part.tolist() for part in cli._recover_chunk(item))  # one chunk: the reference
    assert len(keys) == trials
    cut = {keys[t] for t in (1, 9, 10)}

    def means(kept, mi):
        total, hit_count = 0.0, 0
        for t in kept:
            total += nmse[t][mi]
            hit_count += hits[t][mi]
        return [repr(total / len(kept)), repr(hit_count / len(kept))]

    def cut_solve(*args):
        if _lp_key(args) in cut:
            return simplex.LpResult(x=None, status="iteration-limit", iterations=1)
        return simplex.solve_lp(*args)

    monkeypatch.setattr(recovery, "solve_lp", cut_solve)
    code, out = run(tmp_path, "f.csv", "recover-bench", *args)
    assert code == 1
    assert "3 check(s) failed" in capsys.readouterr().err
    rows = {r[1]: r[2:4] for r in parse(out)[2]}
    kept = [t for t in range(trials) if t not in (1, 9, 10)]
    assert rows["dantzig"] == means(kept, 0)
    assert rows["dantzig+debias"] == means(kept, 1)
    assert rows["omp"] == means(range(trials), 2)
    assert rows["fde_ls"] == means(range(trials), 3)

    monkeypatch.setattr(recovery, "solve_lp", simplex.solve_lp)
    monkeypatch.setattr(simplex, "_MAX_ITER_FACTOR", 0)
    code, out = run(tmp_path, "g.csv", "recover-bench", *args)
    assert code == 1
    assert f"{trials} check(s) failed" in capsys.readouterr().err
    rows = {r[1]: r[2:4] for r in parse(out)[2]}
    assert rows["dantzig"] == rows["dantzig+debias"] == ["nan", "nan"]
    assert rows["omp"] == means(range(trials), 2)


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
        "10.0,dantzig,-8.69852569621249,0.0,20",
        "10.0,dantzig+debias,-22.635991810701036,0.9,20",
        "10.0,omp,-22.309011042918268,0.9,20",
        "inf,dantzig,-138.7700303735209,1.0,20",
        "inf,dantzig+debias,-200.0,1.0,20",
        "inf,omp,-200.0,1.0,20",
    ],
    ("tap_count=25", "tone_policy=random"): [
        "10.0,dantzig,-11.974560336520552,0.4,20",
        "10.0,dantzig+debias,-22.25577326776284,0.9,20",
        "10.0,omp,-22.588593626436214,1.0,20",
        "inf,dantzig,-140.5292406997201,1.0,20",
        "inf,dantzig+debias,-200.0,1.0,20",
        "inf,omp,-200.0,1.0,20",
    ],
}


@pytest.mark.parametrize("sets", sorted(_GOLDEN_RECOVER))
def test_recover_bench_golden_rows(tmp_path, sets):
    # exact strings: a faster solver, debias or OMP must keep every support
    # rate; an NMSE moves in its last digits when its arithmetic changes at
    # rounding level: the raw dantzig one with the LP's store, pivot path or
    # row ranges (the factored store, the range-row steepest-edge pricing
    # and the width 2t in place of (v + t) - (v - t) did), the
    # dantzig+debias one with the refit (reading it off the stepwise
    # debias's final QR factor did, and so did deflating its inverse factor
    # on each prune), the omp one with its fit (modified Gram-Schmidt on
    # [X | y] in place of a lstsq per iteration did)
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


@pytest.mark.parametrize("k, pairs", [(1, "0"), (2, "1")])
def test_codebook_verify_smallest_books(tmp_path, k, pairs):
    # one user has no pair and two users one: every row is still written
    code, out = run(tmp_path, "cb.csv", "codebook-verify", "--set", f"k={k}")
    assert code == 0
    _, _, rows = parse(out)
    assert rows == [["empty", "1", "0"], ["single", str(k), "0"], ["pair", pairs, "0"]]


def test_codebook_verify_one_one_per_column(tmp_path):
    # l_prime=1 takes l = k - 1 zeros: every rank sums 599 binomials
    args = ["--set", "l_prime=1", "--set", "k=600"]
    code, out = run(tmp_path, "cb.csv", "codebook-verify", *args)
    assert code == 0
    _, _, rows = parse(out)
    assert rows == [["empty", "1", "0"], ["single", "600", "0"], ["pair", "10000", "0"]]
    # the 10 000 sampled pairs are checked in blocks no larger than the
    # singles, so a warm rerun peaks at a few times the 600 x 600 book
    tracemalloc.start()
    try:
        assert run(tmp_path, "cb2.csv", "codebook-verify", *args)[0] == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * cli._codebook(600, 1, None).columns.nbytes


def _pairs_one_draw_at_a_time(k, rng):
    pairs = set()
    while len(pairs) < 10_000:
        i, j = rng.integers(0, k, size=2)
        if i != j:
            pairs.add((min(i, j), max(i, j)))
    return sorted(pairs)


@pytest.mark.parametrize("k", [301, 1771, 5000])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampled_pairs_match_one_draw_at_a_time(k, seed):
    # blocks of as many draws as pairs are missing take the same stream, and
    # stop at the same draw, as one two-draw call per pair
    rng = lambda: np.random.default_rng([seed, cli._TAG_CODEBOOK, 0])
    pairs = cli._sampled_pairs(k, rng())
    assert pairs.shape == (10_000, 2)
    assert [tuple(pair) for pair in pairs.tolist()] == _pairs_one_draw_at_a_time(k, rng())


def test_codebook_verify_empty_book(tmp_path, capsys):
    # a book of no users verifies nothing: it is refused, not reported clean
    code, out = run(tmp_path, "cb0.csv", "codebook-verify", "--set", "k=0")
    assert code == 2
    assert "config error: k='0'" in capsys.readouterr().err
    assert not out.exists()


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
    # detect-sweep writes grid order
    _, e = run(tmp_path, "e.csv", "detect-sweep", *DETECT_TINY)
    _, f = run(tmp_path, "f.csv", "detect-sweep", "--workers", "3", *DETECT_TINY)
    assert e.read_bytes() == f.read_bytes()
    assert [row[0] for row in parse(e)[2]] == ["4", "4", "16", "16", "8", "8"]
    # several trial blocks and a short last one: the parent adds their counts
    blocks = [*DETECT_TINY, "--set", f"trials={3 * cli._MC_BLOCK + 1}"]
    _, g = run(tmp_path, "g.csv", "detect-sweep", *blocks)
    for workers in ("2", "3"):
        _, h = run(tmp_path, f"h{workers}.csv", "detect-sweep", "--workers", workers, *blocks)
        assert g.read_bytes() == h.read_bytes()


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
        assert_no_child_left()
    for chunk in (1, 7, 1000):
        monkeypatch.setattr(cli, "_TRIAL_CHUNK", chunk)
        _, out = run(tmp_path, f"c{chunk}.csv", "recover-bench", "--workers", "2", *args)
        assert out.read_bytes() == first.read_bytes()


def assert_no_child_left():
    # every child of this process was reaped: none runs and none is a zombie
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _square(item):
    return item, np.full(2, item * item)


@pytest.mark.parametrize("workers", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("count", [0, 1, 3, 11])
def test_fan_out_returns_the_results_in_item_order(workers, count):
    items = list(range(count))
    results = cli._fan_out(_square, items, workers)
    assert [(i, a.tolist()) for i, a in results] == [(i, [i * i] * 2) for i in items]
    assert_no_child_left()


@pytest.mark.parametrize("workers, count", [(1, 0), (1, 1), (1, 3), (3, 0), (4, 1)])
def test_fan_out_on_one_worker_forks_nothing(monkeypatch, workers, count):
    # at most one worker after the clamp to the item count: the caller runs
    # every item itself
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    items = list(range(count))
    results = cli._fan_out(_square, items, workers)
    assert [(i, a.tolist()) for i, a in results] == [(i, [i * i] * 2) for i in items]


@pytest.mark.parametrize("workers", [2, 3, 5])
def test_fan_out_runs_item_i_on_worker_i_mod_workers(workers):
    pids = cli._fan_out(lambda item: os.getpid(), list(range(13)), workers)
    assert pids[::workers] == [os.getpid()] * len(pids[::workers])  # the caller's share
    shares = [set(pids[w::workers]) for w in range(workers)]
    assert all(len(share) == 1 for share in shares)
    assert len(set.union(*shares)) == workers  # one process per worker
    assert_no_child_left()


def test_fan_out_raises_a_child_exception_with_its_traceback():
    def work(item):
        if item == 4:
            raise ValueError(f"bad item {item}")
        return item

    with pytest.raises(ValueError, match="^bad item 4$") as raised:
        cli._fan_out(work, list(range(9)), 3)  # item 4 runs on worker 1
    cause = str(raised.value.__cause__)
    assert "fan-out worker 1 raised" in cause
    assert "in work" in cause and "ValueError: bad item 4" in cause
    assert_no_child_left()


def test_fan_out_child_exiting_without_a_reply_raises():
    def work(item):
        if item == 3:
            os._exit(3)
        return item

    with pytest.raises(RuntimeError, match=r"worker 1 exited without a reply, wait status 768$"):
        cli._fan_out(work, list(range(6)), 2)  # items 1 and 5 ran; no partial result
    assert_no_child_left()


def test_fan_out_caller_failure_kills_its_children():
    def work(item):
        if item == 0:
            raise KeyError("caller")
        time.sleep(60)  # the children would outlive the caller's failure

    start = time.monotonic()
    with pytest.raises(KeyError, match="caller"):
        cli._fan_out(work, list(range(8)), 4)
    assert time.monotonic() - start < 30
    assert_no_child_left()


@pytest.mark.parametrize("workers", ["2", "3"])
@pytest.mark.parametrize("in_caller", [True, False])
def test_main_leaves_no_child_when_a_run_raises(tmp_path, monkeypatch, workers, in_caller):
    caller, dense_ls = os.getpid(), cli.fde_ls_estimates

    def singular(*args):
        if (os.getpid() == caller) == in_caller:
            raise np.linalg.LinAlgError("forced singular matrix")
        return dense_ls(*args)

    monkeypatch.setattr(cli, "fde_ls_estimates", singular)
    args = ["--workers", workers, *RECOVER_TINY, "--set", f"trials={2 * cli._TRIAL_CHUNK}"]
    with pytest.raises(np.linalg.LinAlgError, match="forced singular matrix"):
        run(tmp_path, "r.csv", "recover-bench", *args)  # 4 items
    assert_no_child_left()


def test_cli_import_leaves_process_pools_out():
    # the fan-out is bare forks and pipes: multiprocessing and
    # concurrent.futures took about 15 ms of every import.  A child leaves by
    # os._exit, so the parent's unflushed stdout is written once
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = (
        "import sys, cspilot.cli\n"
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))\n"
        "print(cspilot.cli._fan_out(abs, [-1, -2, -3], 3))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    assert done.stdout == "[]\n[1, 2, 3]\n"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_recover_bench_builds_each_matrix_once_per_run(tmp_path, monkeypatch, workers):
    # the comb and the designed-tone matrix are built at config time, before
    # any work item starts, and every chunk on every worker shares them; a
    # second run builds its own, since the CLI keeps no matrix between runs
    builds = []
    build, fan_out = cli.build_sensing_matrix, cli._fan_out

    def counting_build(tones, params):
        builds.append(len(tones))
        return build(tones, params)

    def checked(work):
        def run_item(item):
            assert sorted(builds) == [20, 100]  # on a forked worker too
            result = work(item)
            assert sorted(builds) == [20, 100]
            return result

        return run_item

    def checking_fan_out(work, items, workers):
        assert sorted(builds) == [20, 100]  # designed tones and the comb
        return fan_out(checked(work), items, workers)

    monkeypatch.setattr(cli, "build_sensing_matrix", counting_build)
    monkeypatch.setattr(cli, "_fan_out", checking_fan_out)
    args = ["--workers", workers, "--set", f"trials={2 * cli._TRIAL_CHUNK + 1}"]
    args += ["--set", "snr_dbs=10,inf"]
    for name in ("a.csv", "b.csv"):
        builds.clear()
        code, _ = run(tmp_path, name, "recover-bench", *args)
        assert code == 0
        assert sorted(builds) == [20, 100]
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_recover_bench_runs_the_batched_work_once_per_chunk(tmp_path, monkeypatch):
    # draws and the Dantzig solve stay per trial; the random-tone matrices,
    # OMP, dense LS, its support and the NMSE each run once per chunk of
    # trials, and the measurements twice, with and without the comb
    batched = (
        "build_sensing_matrices", "omp_estimates", "fde_ls_estimates", "support_mask", "nmse",
    )
    calls = {name: 0 for name in (*batched, "synthesize_measurements", "dantzig_recover")}

    def counting(name):
        work = getattr(cli, name)

        def counted(*args):
            calls[name] += 1
            return work(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(cli, name, counting(name))
    trials = 2 * cli._TRIAL_CHUNK + 1
    args = ["--workers", "1", "--set", f"trials={trials}", "--set", "snr_dbs=10,inf"]
    args += ["--set", "tap_count=25", "--set", "tone_policy=random"]
    code, _ = run(tmp_path, "r.csv", "recover-bench", *args)
    assert code == 0
    chunks = 2 * 3  # two SNRs of three chunks, the last one trial long
    assert calls == {
        **dict.fromkeys(batched, chunks),
        "synthesize_measurements": 2 * chunks,
        "dantzig_recover": 2 * trials,
    }


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


def test_main_pins_one_blas_thread_once_and_never_restores_it(tmp_path, monkeypatch):
    # after a fork every OpenBLAS set call restarts a thread that spins
    # ~0.125 s of CPU, so main sets the count only when it does not read 1 and
    # keeps it: one set call per process at most, none after a runner returns
    threads = cli._openblas_threads()
    if threads is None:
        pytest.skip("numpy does not bundle OpenBLAS here")
    get, put = threads
    events = []

    def spy_put(count):
        events.append(("set", count))
        put(count)

    monkeypatch.setattr(cli, "_openblas_threads", lambda: (get, spy_put))

    def watched(runner):
        def run_and_watch(cfg, seed, workers):
            events.append(("run", get()))
            return runner(cfg, seed, workers)

        return run_and_watch

    def broken(cfg, seed, workers):
        raise ValueError("broken runner")

    def outcome(index, args):
        try:
            return run(tmp_path, f"{index}.csv", *args)[0]
        except ValueError as exc:  # a run's own error leaves main as raised
            return str(exc)

    for experiment in ("fig3", "netsim"):
        _stub_runner(monkeypatch, experiment, watched(cli.EXPERIMENTS[experiment].runner))
    _stub_runner(monkeypatch, "codebook-verify", watched(broken))
    put(2)  # as OPENBLAS_NUM_THREADS or the core count may leave it
    runs = [
        (0, ["fig3", "--set", "kg_max=2"]),
        ("broken runner", ["codebook-verify"]),
        (0, ["netsim", "--workers", "2", *NETSIM_TINY]),
        (0, ["fig3", "--set", "kg_max=2"]),
    ]
    for index, (expected, args) in enumerate(runs):
        assert outcome(index, args) == expected, args
    assert events == [("set", 1)] + [("run", 1)] * len(runs)
    assert get() == 1


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


def test_fig3_has_no_sparsity_key(tmp_path, capsys):
    # rho_metrics reads wt, tap_count and pilot_count alone: a sparsity would
    # move the digest and no row
    code, out = run(tmp_path, "a.csv", "fig3", "--set", "sparsity=4")
    assert code == 2
    assert "unknown key 'sparsity'" in capsys.readouterr().err
    assert not out.exists()
    code, out = run(tmp_path, "b.csv", "fig3", "--set", "pilot_count=3", "--set", "kg_max=2")
    assert code == 0


def _private_package_names(source: str) -> list[str]:
    """Each ``_name`` that `source` imports from the package or reads off one of its modules.

    Dunders such as ``__version__`` are public by convention.
    """
    private = lambda name: name.startswith("_") and not name.endswith("__")
    modules, found = {"cspilot"}, []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("cspilot")):
            found += [alias.name for alias in node.names if private(alias.name)]
            modules |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            names = [alias for alias in node.names if alias.name.startswith("cspilot")]
            modules |= {alias.asname or alias.name.partition(".")[0] for alias in names}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                found.append(f"{ast.unparse(node.value)}.{node.attr}")
    return found


def test_cli_imports_no_private_name():
    # the CLI keeps config, I/O and fan-out: the work it runs is each layer's
    # public, checked batch function, never a kernel behind its back
    assert _private_package_names(Path(cli.__file__).read_text(encoding="utf-8")) == []
    assert _private_package_names(
        "from .recovery import _omp, nmse\n"
        "import cspilot.netsim\n"
        "from . import detection\n"
        "x = cspilot.netsim._MC_BUDGET + detection._crossing(1.0)\n"
    ) == ["_omp", "cspilot.netsim._MC_BUDGET", "detection._crossing"]


def _cached_functions(source: str) -> list[str]:
    """Each function in `source` decorated with ``functools.lru_cache`` or ``functools.cache``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                if name in ("lru_cache", "cache"):
                    found.append(node.name)
    return found


def test_cli_keeps_no_cache_across_runs():
    # a run's inputs are built once per run, at config time, and reach every
    # worker in its work items; a process-wide cache would carry them into
    # the next `main` call
    assert _cached_functions(Path(cli.__file__).read_text(encoding="utf-8")) == []
    assert _cached_functions(
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@functools.lru_cache(maxsize=4)\ndef a(): pass\n"
        "@functools.cache\ndef b(): pass\n"
        "@lru_cache\ndef c(): pass\n"
        "@cache\ndef d(): pass\n"
        "@staticmethod\ndef e(): pass\n"
    ) == ["a", "b", "c", "d"]


def test_missing_config_file(tmp_path):
    code, _ = run(tmp_path, "a.csv", "fig3", "--config", str(tmp_path / "absent.cfg"))
    assert code == 2


def test_malformed_config_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just words\n", encoding="utf-8")
    code, _ = run(tmp_path, "a.csv", "fig3", "--config", str(cfg))
    assert code == 2
    assert "key=value" in capsys.readouterr().err


@pytest.mark.parametrize(
    "experiment, text",
    [
        pytest.param(experiment, text, id=f"{experiment}-{label}")
        for experiment in sorted(cli.EXPERIMENTS)
        for label, text in [
            ("utf16-bom", b"\xff\xfe=1\n"),
            ("latin1-value", b"# written by a Latin-1 editor\nseed_note=caf\xe9\n"),
        ]
    ],
)
def test_config_file_not_utf8_exits_2(tmp_path, capsys, monkeypatch, experiment, text):
    # refused as it is read, before any key is checked or a runner starts
    _stub_runner(monkeypatch, experiment, _no_run)
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(text)
    code, out = run(tmp_path, "a.csv", experiment, "--config", str(cfg))
    assert code == 2
    assert f"config error: {cfg}: not UTF-8" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "item, point",
    [
        ("tap_count=50", (1000, 50, 20)),
        ("pilot_count=25", (1000, 100, 25)),
        ("wt=2000", (2000, 100, 20)),
    ],
)
def test_designed_tones_only_at_their_frozen_points(tmp_path, capsys, monkeypatch, item, point):
    # no frozen tone set fits these points: random tones run there, and
    # designed is refused before any work item starts (it once fell back to
    # random)
    args = ["--set", item, "--set", "trials=1", "--set", "snr_dbs=inf"]
    code, out = run(tmp_path, "r.csv", "recover-bench", *args, "--set", "tone_policy=random")
    assert code == 0
    assert len(parse(out)[2]) == 4

    def no_items(*args):
        raise AssertionError("a work item started")

    monkeypatch.setattr(cli, "_fan_out", no_items)
    code, out = run(tmp_path, "d.csv", "recover-bench", *args)
    assert code == 2
    err = capsys.readouterr().err
    assert "config error: tone_policy=designed" in err
    assert f"(1000, 25, 20) or (1000, 100, 20), not {point}" in err
    assert not out.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_run_error_exits_1_with_its_traceback(tmp_path, workers):
    # numpy's LinAlgError is a ValueError; raised by a run after its config
    # resolved, it is the run's own failure, not a config error
    src = str(Path(cli.__file__).resolve().parents[1])
    out = tmp_path / "r.csv"
    argv = ["recover-bench", "--workers", workers, "--out", str(out), *RECOVER_TINY]
    probe = (
        "import sys, numpy as np\n"
        "from cspilot import cli\n"
        "def singular(*args):\n"
        "    raise np.linalg.LinAlgError('forced singular matrix')\n"
        "cli.fde_ls_estimates = singular\n"
        f"sys.exit(cli.main({argv!r}))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1
    assert "Traceback" in done.stderr
    assert "LinAlgError: forced singular matrix" in done.stderr
    assert "config error" not in done.stderr
    assert not out.exists()


def test_dense_ls_comb_spans_the_band_at_any_tap_count(tmp_path):
    # at tap_count=300 of 1000 a comb at the integer stride 3 covered 90% of
    # the band, and its 300 x 300 dense-LS matrix was rank deficient
    args = ["--set", "tap_count=300", "--set", "tone_policy=random"]
    args += ["--set", "trials=1", "--set", "snr_dbs=20"]
    code, out = run(tmp_path, "r.csv", "recover-bench", *args)
    assert code == 0
    rows = parse(out)[2]
    assert [row[1] for row in rows] == list(cli._RECOVER_METHODS)
    assert rows[3][4] == "300"


def test_unwritable_output_path(tmp_path):
    code = cli.main(["fig3", "--set", "kg_max=2", "--out", str(tmp_path / "no" / "a.csv")])
    assert code == 1


# ---------------------------------------------------------------------------
# the config boundary: every key of every experiment's table, walked


def _stub_runner(monkeypatch, experiment, runner):
    entry = cli.EXPERIMENTS[experiment]
    monkeypatch.setitem(cli.EXPERIMENTS, experiment, dataclasses.replace(entry, runner=runner))


def _no_run(*args):
    raise AssertionError("the experiment ran")


def _exit_code(argv):
    """`cli.main`'s return value, or the code argparse exits with."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


_NOT_COUNT = ["", "nan", "inf", "-1", "0", "1.5", "abc"]
_OFDM = [name for name, entry in cli.EXPERIMENTS.items() if "wt" in entry.keys]
_SPARSE = [name for name, entry in cli.EXPERIMENTS.items() if "sparsity" in entry.keys]
_OFDM_WALK = dict.fromkeys(("wt", "tap_count", "sparsity", "pilot_count"), _NOT_COUNT)


def _not_list(bad_entries, good):
    """Each bad entry alone and after the good entry `good`, and a stray empty entry."""
    return [*bad_entries, *(f"{good},{bad}" for bad in bad_entries if bad), f"{good},,{good}"]


# experiment -> {key: values outside the key's domain}
_CONFIG_WALK = {
    "fig3": {
        **{key: bad for key, bad in _OFDM_WALK.items() if key != "sparsity"},
        "cells": _NOT_COUNT,
        "kg_max": _NOT_COUNT,
        "p_outs": _not_list(["", "nan", "inf", "-1", "1", "1.5", "abc"], "0"),
    },
    "detect-sweep": {
        "antenna_counts": _not_list(_NOT_COUNT, "4"),
        "pathloss_powers": _not_list(["", "nan", "inf", "-1", "-0.5", "abc"], "2"),
        "trials": _NOT_COUNT,
    },
    "recover-bench": {
        **_OFDM_WALK,
        "trials": _NOT_COUNT,
        "snr_dbs": _not_list(["", "nan", "-inf", "-4000", "abc"], "10"),
        "tone_policy": ["", "best", "Designed", "nan", "1"],
    },
    "codebook-verify": {
        "l_prime": _NOT_COUNT,
        "l": [bad for bad in _NOT_COUNT if bad],  # empty means "the smallest l that fits"
        "k": _NOT_COUNT,
    },
    "netsim": {
        "cells": _not_list(_NOT_COUNT, "4"),
        "group_sizes": _not_list(_NOT_COUNT, "4"),
        "alphas": _not_list(["", "nan", "inf", "-1", "0", "1.5", "abc"], "0.5"),
        "trials": _NOT_COUNT,
    },
}
_FLAG_WALK = {
    "--seed": ["", "-1", "1.5", "nan", "abc"],
    "--workers": ["", "0", "-3", "1.5", "nan", "abc"],
}


# one row per bound checked where an input is built from several keys: the
# experiments it applies to, the values set, and the keys the refusal names,
# with their config text
_CROSS_KEY_WALK = {
    "sparsity>tap_count": (_SPARSE, {"sparsity": "30", "tap_count": "25"}, {}),
    "tap_count>wt": (_OFDM, {"tap_count": "200", "wt": "150"}, {}),
    "pilot_count<sparsity": (_SPARSE, {"pilot_count": "3"}, {"sparsity": "4"}),
    "pilot_count>wt": (_OFDM, {"wt": "100", "pilot_count": "101"}, {}),
    "designed-without-frozen-tones": (
        ["recover-bench"],
        {"tap_count": "50"},
        {"tone_policy": "designed", "wt": "1000", "pilot_count": "20"},
    ),
    "k>capacity": (["codebook-verify"], {"k": "500", "l": "1"}, {"l_prime": "20"}),
    # 1e-20 is finite and positive, but its density crossing rounds to 1.0
    "crossing-rounds-to-1": (
        ["detect-sweep"], {"pathloss_powers": "2,1e-20"}, {"antenna_counts": "32,64,128"}
    ),
}


@pytest.mark.parametrize(
    "experiment, sets, named",
    [
        pytest.param(experiment, sets, {**sets, **others}, id=f"{experiment}-{bound}")
        for bound, (experiments, sets, others) in _CROSS_KEY_WALK.items()
        for experiment in experiments
    ],
)
def test_cross_key_bound_exits_2_and_names_its_keys(
    tmp_path, capsys, monkeypatch, experiment, sets, named
):
    # refused where the config builds the inputs it bounds: no runner, and so
    # no pool, starts and no file is written
    _stub_runner(monkeypatch, experiment, _no_run)
    out = tmp_path / "out.csv"
    argv = [experiment, "--out", str(out)]
    for key, value in sets.items():
        argv += ["--set", f"{key}={value}"]
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("cspilot: config error: ")
    for key, value in named.items():
        assert f"{key}={value}" in err
    assert not out.exists()


def test_every_config_key_has_a_walk_row():
    assert {name: set(keys) for name, keys in _CONFIG_WALK.items()} == {
        name: set(entry.keys) for name, entry in cli.EXPERIMENTS.items()
    }


@pytest.mark.parametrize(
    "experiment, key, bad",
    [
        pytest.param(experiment, key, bad, id=f"{experiment}-{key}={bad}")
        for experiment, keys in _CONFIG_WALK.items()
        for key, values in keys.items()
        for bad in values
    ],
)
def test_config_value_outside_its_domain_exits_2(
    tmp_path, capsys, monkeypatch, experiment, key, bad
):
    # refused while the config resolves: no experiment starts and no file is written
    _stub_runner(monkeypatch, experiment, _no_run)
    out = tmp_path / "out.csv"
    assert _exit_code([experiment, "--out", str(out), "--set", f"{key}={bad}"]) == 2
    assert f"config error: {key}={bad!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "experiment, flag, bad",
    [
        pytest.param(experiment, flag, bad, id=f"{experiment}{flag}={bad}")
        for experiment in sorted(cli.EXPERIMENTS)
        for flag, values in _FLAG_WALK.items()
        for bad in values
    ],
)
def test_seed_or_workers_outside_its_domain_exits_2(
    tmp_path, capsys, monkeypatch, experiment, flag, bad
):
    _stub_runner(monkeypatch, experiment, _no_run)
    out = tmp_path / "out.csv"
    assert _exit_code([experiment, "--out", str(out), f"{flag}={bad}"]) == 2
    assert f"argument {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "experiment, item, expected",
    [
        ("recover-bench", "snr_dbs=inf,-3", [(math.inf, 0.0), (-3.0, cli._noise_variance(-3.0))]),
        ("detect-sweep", "pathloss_powers=0", [0.0]),
        ("codebook-verify", "l=", None),
        ("netsim", "alphas=1", [1.0]),
        ("fig3", "p_outs=0", [0.0]),
        ("detect-sweep", "pathloss_powers=1e308", [1e308]),
    ],
)
def test_edge_values_inside_their_domain_reach_the_runner(
    tmp_path, monkeypatch, experiment, item, expected
):
    seen = {}

    def capture(cfg, seed, workers):
        seen.update(cfg)
        return ["x"], [], 0

    _stub_runner(monkeypatch, experiment, capture)
    code, _ = run(tmp_path, "a.csv", experiment, "--set", item)
    assert code == 0
    assert seen[item.partition("=")[0]] == expected


# the digest of each experiment's default config strings
_DEFAULT_DIGESTS = {
    "codebook-verify": "d21803664bf3a4bb79f341372e9f7c1f175757029fe12dde7e5bc0c5177adef6",
    "detect-sweep": "c3ded23dd948a3d4a45e1723f1d5ebbb8f131df28fb78405ace376174837f599",
    "fig3": "a93468021d64c66a2d1dbffcb6407928dd95c26741114ae7cea3381fad8b63f2",
    "netsim": "ca77237feab9cf626895e2de422b0519452c05e04b115b124cf030aa3d2a2008",
    "recover-bench": "1adf3ae83a25548310c6c18c58a05a53bd44898a66ad425763c9474c1955f5b0",
}


@pytest.mark.parametrize("experiment", sorted(cli.EXPERIMENTS))
def test_default_config_digest_is_pinned(tmp_path, monkeypatch, experiment):
    _stub_runner(monkeypatch, experiment, lambda cfg, seed, workers: (["x"], [], 0))
    code, out = run(tmp_path, "a.csv", experiment)
    assert code == 0
    assert parse(out)[0][3] == f"# config-sha256: {_DEFAULT_DIGESTS[experiment]}"


# the sha256 of the whole CSV of codebook-verify at l=3, k=1771 (sampled pairs), per seed
_SAMPLED_CODEBOOK_DIGESTS = {
    0: "131ef5b115e973d8d1c9d3d8a80463769c63d8c38c41863a45b449d4fbf62dbe",
    1: "94f0ccfcd7f5ce80095763e4634d0e5b19266c03d18ba00dfcb844cd06017db4",
    2: "14db1376ad4a2c4772f1dbf612416a9b0682071d00559e2936a65c10d16e829d",
}


@pytest.mark.parametrize("seed", sorted(_SAMPLED_CODEBOOK_DIGESTS))
def test_sampled_codebook_verify_is_pinned(tmp_path, seed):
    args = ["--seed", str(seed), "--set", "l=3", "--set", "k=1771"]
    code, out = run(tmp_path, "cb.csv", "codebook-verify", *args)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _SAMPLED_CODEBOOK_DIGESTS[seed]


def test_one_one_codebook_verify_is_pinned(tmp_path):
    # K = L = 2000, l = 1999: the book and its single patterns are built and
    # ranked in many blocks, and the CSV keeps the bytes of the unblocked code
    code, out = run(tmp_path, "cb.csv", "codebook-verify", "--set", "l_prime=1", "--set", "k=2000")
    assert code == 0
    digest = "8d04f51029ad1044991685f657cc67782fea48ce6e85b4019303b81506d0ec6a"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
