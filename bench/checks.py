"""Output checks against oracles computed here, never by the package under test.

Each check function returns a list of ``(label, ok)`` pairs, one per
operation the benchmark counts in ``attempted`` and, when not ok, in
``failed``.  Oracles use closed forms and ``scipy.special`` only.
"""

from __future__ import annotations

import csv
import math

from scipy.special import gammainc, gammaincc


def parse_csv(text: str) -> list[dict]:
    """Rows of a cspilot CSV as dicts, provenance lines skipped."""
    body = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(body))


def _num(value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        return math.nan


def density_crossing(gp: float) -> float:
    """Where the silent and active energy densities cross: (1+gP) ln(1+gP) / gP."""
    return (1.0 + gp) * math.log1p(gp) / gp


def detection_error(antennas: int, gp: float, threshold: float) -> float:
    """Equal-prior error of the energy test; energies are Gamma(M, (1+gP)/M)."""
    silent_sf = gammaincc(antennas, antennas * threshold)
    active_cdf = gammainc(antennas, antennas * threshold / (1.0 + gp))
    return float(0.5 * (silent_sf + active_cdf))


def _row_count(rows, expected):
    return [(f"{expected} rows", len(rows) == expected)]


def check_recover(rows, expected_rows):
    """Finite NMSE everywhere; support-rate and NMSE bounds for dantzig+debias.

    The support rates are 100-trial binomial estimates, so each bound sits
    about four standard errors below the rate the estimator reaches: 0.9
    at 20 dB is criterion 4's 180/200, and 0.9 without noise is four
    standard errors below the 0.966 measured over 1000 noiseless trials at
    100 taps (0.95 would fail about one seed in ten on correct code).
    """
    out = _row_count(rows, expected_rows)
    for r in rows:
        nmse = _num(r.get("nmse_db_mean"))
        out.append((f"{r.get('method')} at {r.get('snr_db')} dB: NMSE finite", math.isfinite(nmse)))
    by = {(_num(r.get("snr_db")), r.get("method")): r for r in rows}
    noiseless = by.get((math.inf, "dantzig+debias"), {})
    at20 = by.get((20.0, "dantzig+debias"), {})
    fde20 = by.get((20.0, "fde_ls"), {})
    out.append((
        "dantzig+debias support rate >= 0.9 without noise",
        _num(noiseless.get("support_rate")) >= 0.9,
    ))
    out.append((
        "dantzig+debias support rate >= 0.9 at 20 dB",
        _num(at20.get("support_rate")) >= 0.9,
    ))
    out.append((
        "dantzig+debias NMSE <= fde_ls NMSE + 3 dB at 20 dB",
        _num(at20.get("nmse_db_mean")) <= _num(fde20.get("nmse_db_mean")) + 3.0,
    ))
    return out


def check_detect(rows, expected_rows, trials):
    """|pe_mc - Pe| <= 4 stderr + 1/trials, Pe from the Gamma laws (0.5 at gP = 0).

    The 1/trials term is the resolution of a count of errors: without it a
    row whose true Pe is far below 1/trials and which saw no error (so
    stderr 0) would fail.
    """
    out = _row_count(rows, expected_rows)
    for r in rows:
        m, gp = _num(r.get("m_bs")), _num(r.get("g_p"))
        threshold = _num(r.get("threshold"))
        expected = 0.5 if gp == 0 else detection_error(m, gp, threshold)
        gap = abs(_num(r.get("pe_mc")) - expected)
        ok = gap <= 4.0 * _num(r.get("pe_stderr")) + 1.0 / trials
        out.append((f"pe_mc at M={r.get('m_bs')}, gP={r.get('g_p')}", ok))
    return out


def check_netsim(rows, expected_rows):
    """p_analytic against 1 - a(1 - a/N)^(K-1); p_mc within 4 stderr + 1/(K trials)."""
    out = _row_count(rows, expected_rows)
    for r in rows:
        n, k = _num(r.get("cells")), _num(r.get("group_size"))
        a, trials = _num(r.get("alpha")), _num(r.get("trials"))
        closed = 1.0 - a * (1.0 - a / n) ** (k - 1.0)
        label = f"N={r.get('cells')}, K={r.get('group_size')}, alpha={r.get('alpha')}"
        analytic = _num(r.get("p_analytic"))
        out.append((f"p_analytic at {label}", math.isclose(analytic, closed, rel_tol=1e-12, abs_tol=1e-15)))
        gap = abs(_num(r.get("p_mc")) - closed)
        ok = gap <= 4.0 * _num(r.get("p_stderr")) + 1.0 / (k * trials)
        out.append((f"p_mc at {label}", ok))
    return out


def check_codebook(rows, expected_rows):
    out = _row_count(rows, expected_rows)
    for r in rows:
        out.append((f"codebook {r.get('check')} failures == 0", _num(r.get("failures")) == 0))
    return out


def check_threshold(powers, antennas, cap, value):
    """The result equals the density crossing of the smallest qualifying UE."""
    qualifying = [
        density_crossing(gp)
        for gp in powers
        if detection_error(antennas, gp, density_crossing(gp)) <= cap
    ]
    ok = bool(qualifying) and abs(_num(value) - min(qualifying)) <= 1e-6
    return [(f"network threshold at M={antennas}", ok)]


def check_step(step: dict, outcome: dict):
    """Checks for one step's outcome: its CSV text or its returned value."""
    if step["kind"] == "threshold":
        return check_threshold(step["powers"], step["antennas"], step["cap"], outcome["value"])
    rows = parse_csv(outcome["text"])
    experiment = step["experiment"]
    if experiment == "recover-bench":
        return check_recover(rows, step["rows"])
    if experiment == "detect-sweep":
        return check_detect(rows, step["rows"], step["trials"])
    if experiment == "netsim":
        return check_netsim(rows, step["rows"])
    if experiment == "codebook-verify":
        return check_codebook(rows, step["rows"])
    raise ValueError(f"no check for experiment {experiment!r}")
