"""Each output check accepts a consistent CSV and rejects a corrupted row."""

import math

import pytest

from checks import (
    check_step,
    density_crossing,
    detection_error,
)

PROVENANCE = "# tool: cspilot 0.1.0\n# experiment: x\n# seed: 1\n# config-sha256: 00\n"


def csv_text(header, rows):
    lines = [",".join(header)] + [",".join(str(v) for v in row) for row in rows]
    return PROVENANCE + "\n".join(lines) + "\n"


def failed(step, text):
    return [label for label, ok in check_step(step, {"text": text}) if not ok]


# --- recover-bench --------------------------------------------------------

RECOVER_HEADER = ["snr_db", "method", "nmse_db_mean", "support_rate", "pilot_tones_used"]
RECOVER_STEP = {"kind": "cli", "experiment": "recover-bench", "rows": 16}


def recover_rows():
    rows = []
    for snr, base in (("0.0", -5.0), ("10.0", -15.0), ("20.0", -25.0), ("inf", -200.0)):
        for method, offset, rate in (("dantzig", 1.0, 0.5), ("dantzig+debias", -6.0, 0.97),
                                     ("omp", -1.0, 0.6), ("fde_ls", 0.0, 0.0)):
            value = base if snr == "inf" else base + offset
            rows.append([snr, method, value, 1.0 if snr == "inf" else rate, 20])
    return rows


def corrupt(rows, snr, method, column, value):
    index = RECOVER_HEADER.index(column)
    out = [list(r) for r in rows]
    for r in out:
        if r[0] == snr and r[1] == method:
            r[index] = value
    return out


def test_recover_check_accepts_consistent_rows():
    assert failed(RECOVER_STEP, csv_text(RECOVER_HEADER, recover_rows())) == []


@pytest.mark.parametrize(
    "snr, method, column, value",
    [
        ("10.0", "omp", "nmse_db_mean", "nan"),
        ("0.0", "dantzig", "nmse_db_mean", "inf"),
        ("inf", "dantzig+debias", "support_rate", 0.89),
        ("20.0", "dantzig+debias", "support_rate", 0.89),
        ("20.0", "dantzig+debias", "nmse_db_mean", -21.9),  # fde_ls is -25 dB
        ("20.0", "dantzig+debias", "method", "renamed"),
    ],
)
def test_recover_check_rejects_a_corrupted_row(snr, method, column, value):
    rows = corrupt(recover_rows(), snr, method, column, value)
    assert failed(RECOVER_STEP, csv_text(RECOVER_HEADER, rows))


def test_recover_check_rejects_a_missing_row():
    rows = recover_rows()[:-1]
    assert failed(RECOVER_STEP, csv_text(RECOVER_HEADER, rows)) == ["16 rows"]


# --- detect-sweep ---------------------------------------------------------

DETECT_HEADER = ["m_bs", "g_p", "threshold", "pe_mc", "pe_stderr"]
DETECT_STEP = {"kind": "cli", "experiment": "detect-sweep", "rows": 4, "trials": 100_000}


def detect_rows():
    rows = [[32, 0.0, 1.5, 0.5004, 0.00158]]
    for m, gp in ((32, 2.0), (64, 2.0), (128, 10.0)):
        th = density_crossing(gp)
        pe = detection_error(m, gp, th)
        rows.append([m, gp, th, pe, math.sqrt(pe * (1 - pe) / 100_000)])
    return rows


def test_detect_check_accepts_consistent_rows():
    assert failed(DETECT_STEP, csv_text(DETECT_HEADER, detect_rows())) == []


def test_detect_check_rejects_a_shifted_estimate():
    rows = detect_rows()
    rows[1][3] += 5 * rows[1][4] + 1e-5
    assert failed(DETECT_STEP, csv_text(DETECT_HEADER, rows)) == ["pe_mc at M=32, gP=2.0"]


def test_detect_check_rejects_gp_zero_away_from_half():
    rows = detect_rows()
    rows[0][3] = 0.51
    assert failed(DETECT_STEP, csv_text(DETECT_HEADER, rows)) == ["pe_mc at M=32, gP=0.0"]


def test_detect_check_rejects_a_wrong_threshold():
    rows = detect_rows()
    rows[1][2] = 1.2  # Pe at this threshold is far from the row's estimate
    assert failed(DETECT_STEP, csv_text(DETECT_HEADER, rows)) == ["pe_mc at M=32, gP=2.0"]


# --- netsim ---------------------------------------------------------------

NETSIM_HEADER = ["cells", "group_size", "alpha", "trials", "p_analytic", "p_mc", "p_stderr"]
NETSIM_STEP = {"kind": "cli", "experiment": "netsim", "rows": 3}


def netsim_rows():
    rows = []
    for n, k, a in ((4, 1, 1.0), (16, 4, 0.7), (64, 64, 0.5)):
        p = 1.0 - a * (1.0 - a / n) ** (k - 1)
        rows.append([n, k, a, 100_000, repr(p), repr(p), 0.0005])
    return rows


def test_netsim_check_accepts_consistent_rows():
    assert failed(NETSIM_STEP, csv_text(NETSIM_HEADER, netsim_rows())) == []


def test_netsim_check_rejects_a_wrong_analytic_value():
    rows = netsim_rows()
    rows[1][4] = repr(float(rows[1][4]) + 1e-9)
    assert failed(NETSIM_STEP, csv_text(NETSIM_HEADER, rows)) == ["p_analytic at N=16, K=4, alpha=0.7"]


def test_netsim_check_rejects_a_far_monte_carlo_value():
    rows = netsim_rows()
    rows[2][5] = repr(float(rows[2][5]) - 0.003)
    assert failed(NETSIM_STEP, csv_text(NETSIM_HEADER, rows)) == ["p_mc at N=64, K=64, alpha=0.5"]


# --- codebook-verify ------------------------------------------------------

CODEBOOK_STEP = {"kind": "cli", "experiment": "codebook-verify", "rows": 3}


def test_codebook_check():
    good = [["empty", 1, 0], ["single", 1771, 0], ["pair", 10000, 0]]
    header = ["check", "cases", "failures"]
    assert failed(CODEBOOK_STEP, csv_text(header, good)) == []
    bad = [list(r) for r in good]
    bad[2][2] = 1
    assert failed(CODEBOOK_STEP, csv_text(header, bad)) == ["codebook pair failures == 0"]


# --- network threshold design ---------------------------------------------


def threshold_step(powers, antennas=32, cap=1e-3):
    return {"kind": "threshold", "powers": powers, "antennas": antennas, "cap": cap}


def test_threshold_check_uses_the_smallest_qualifying_ue():
    powers = [0.5, 3.0, 5.0]  # at M=32 only 3.0 and 5.0 meet the cap
    step = threshold_step(powers)
    expected = density_crossing(3.0)
    assert [ok for _, ok in check_step(step, {"value": expected + 5e-7})] == [True]
    assert [ok for _, ok in check_step(step, {"value": density_crossing(0.5)})] == [False]
    assert [ok for _, ok in check_step(step, {"value": expected + 1e-3})] == [False]


def test_threshold_check_fails_when_no_ue_qualifies():
    step = threshold_step([0.1, 0.2])
    assert [ok for _, ok in check_step(step, {"value": 1.05})] == [False]
