"""cspilot benchmark: seeded workloads, end-to-end timings, checked outputs, traced layers.

Run from the repository root::

    python3 bench/run.py --workload recover-100 --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --compare OLD_DIR NEW_DIR

Each repetition of a workload is a fresh interpreter (``bench/child.py``)
that imports the package from ``src/``, generates its inputs from the seed
and runs the workload's calls once.  With ``--trace 0`` repetitions repeat
until ``--seconds`` is used up, and extra set-up-only interpreters run
until there are enough set-up samples; every end-to-end metric is the
median over them.  With ``--trace 1`` the workload runs in pairs of an
untraced and a traced interpreter at ``--workers 1`` until ``--seconds``
is used up, and each per-layer metric is the median over the traced runs'
spans.

Every output is checked against oracles in ``checks.py``; each call, each
check and each CSV-digest comparison is one operation in ``attempted``.
A results file with an environment block goes to ``.bench_results/``, and
the last line of standard output is the JSON summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

from checks import check_step, parse_csv
from summary import median, quartiles, summarize, verdict
from tracer import Span, layer_metrics
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = ROOT / ".bench_results"
MIN_SETUP_SAMPLES = 7
# every run must end within 180 s; no child may start or run past this
RUN_LIMIT_S = 170.0
SETUP_PROBE_RESERVE_S = 10.0

# reported in the results and the table, but not in BENCHMARK.json: each
# applies to some workloads only, or reads 0 when all is well
EXTRA_METRICS = {
    "trials_per_s": ("1/s", "higher"),
    "failed_ratio": ("ratio", "lower"),
    "nmse_db_debias": ("dB", "lower"),
    "support_rate_debias": ("ratio", "higher"),
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def metric_table(spec) -> dict:
    """name -> (unit, better, bound or None) for every metric the benchmark knows."""
    table = {name: (unit, better, None) for name, (unit, better) in EXTRA_METRICS.items()}
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            table[m["name"]] = (m["unit"], m["better"], m.get("bound"))
    return table


def git_commit(root: Path) -> str:
    """HEAD's commit read from ``.git`` directly; "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {
            var: os.environ.get(var)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "commit": git_commit(ROOT),
    }


def spawn(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    """Run one child interpreter and return its record, CSV texts and digests attached.

    The child is killed, and the run fails, if it is still running at
    `deadline` (a ``time.monotonic()`` value).
    """
    RESULTS.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="child-", dir=RESULTS)
    try:
        t0 = time.monotonic()
        if deadline <= t0:
            raise BenchError(f"{workload}: no time left in the {RUN_LIMIT_S:g} s run limit")
        argv = [sys.executable, str(BENCH / "child.py"), str(ROOT), workload, str(seed),
                repr(t0), out_dir, *flags]
        try:
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=deadline - t0)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{workload}: run limit of {RUN_LIMIT_S:g} s reached") from exc
        elapsed = time.monotonic() - t0
        if proc.returncode != 0:
            raise BenchError(f"{workload}: child exited {proc.returncode}\n{proc.stderr[-2000:]}")
        with open(os.path.join(out_dir, "result.json"), encoding="utf-8") as fh:
            record = json.load(fh)
        record["elapsed_s"] = elapsed
        for outcome in record.get("outcomes", ()):
            path = outcome.pop("csv", None)
            if path is not None and os.path.isfile(path):
                with open(path, "rb") as fh:
                    data = fh.read()
                outcome["digest"] = hashlib.sha256(data).hexdigest()
                outcome["text"] = data.decode("utf-8", errors="replace")
        return record
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


class Ops:
    """Attempted and failed operations, with a note for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def score(record: dict, ops: Ops, reference: dict | None = None) -> None:
    """Count the calls and output checks of one child run, and its digests.

    With a `reference` run of the same seed, every CSV digest must equal
    the reference's.
    """
    ref_outcomes = reference["outcomes"] if reference else None
    for i, (step, outcome) in enumerate(zip(record["steps"], record["outcomes"])):
        name = step["name"]
        ops.record(outcome["ok"], f"{name}: {outcome['error']}")
        if not outcome["ok"]:
            continue
        if step["kind"] == "cli" and "text" not in outcome:
            ops.record(False, f"{name}: no CSV written")
            continue
        for label, ok in check_step(step, outcome):
            ops.record(ok, f"{name}: {label}")
        if ref_outcomes is not None and "digest" in outcome:
            ops.record(
                outcome["digest"] == ref_outcomes[i].get("digest"),
                f"{name}: CSV digest differs from the first run of this seed",
            )


def recover_quality(record: dict) -> dict:
    """Mean dantzig+debias NMSE over finite SNRs and support rate over all rows."""
    for step, outcome in zip(record["steps"], record["outcomes"]):
        if step.get("experiment") == "recover-bench" and "text" in outcome:
            rows = [r for r in parse_csv(outcome["text"]) if r["method"] == "dantzig+debias"]
            finite = [float(r["nmse_db_mean"]) for r in rows if float(r["snr_db"]) != float("inf")]
            rates = [float(r["support_rate"]) for r in rows]
            if finite and rates:
                return {
                    "nmse_db_debias": sum(finite) / len(finite),
                    "support_rate_debias": sum(rates) / len(rates),
                }
    return {}


def digests(record: dict) -> dict:
    return {step["name"]: outcome.get("digest")
            for step, outcome in zip(record["steps"], record["outcomes"])}


def step_walls(records) -> dict:
    """Median wall time of each step over `records`, for attribution only."""
    names = [step["name"] for step in records[0]["steps"]]
    return {name: median([r["outcomes"][i]["wall_s"] for r in records])
            for i, name in enumerate(names)}


def measure(workload: str, seed: int, seconds: float, table: dict):
    """Untraced run: repetitions until `seconds` is used, medians of each metric."""
    reps = []
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    while not reps or time.monotonic() - start + median([r["elapsed_s"] for r in reps]) <= seconds:
        reps.append(spawn(workload, seed, deadline))
    setups = [r["setup_s"] for r in reps]
    while len(setups) < MIN_SETUP_SAMPLES and deadline - time.monotonic() > SETUP_PROBE_RESERVE_S:
        setups.append(spawn(workload, seed, deadline, "--setup-only")["setup_s"])

    ops = Ops()
    for i, rep in enumerate(reps):
        score(rep, ops, reps[0] if i else None)

    samples = {
        "setup_s": setups,
        "wall_s": [r["wall_s"] for r in reps],
        "cpu_s": [r["cpu_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    trials = WORKLOADS[workload][1]
    if trials is not None:
        samples["trials_per_s"] = [trials / r["wall_s"] for r in reps]
    for name, value in recover_quality(reps[0]).items():
        samples[name] = [value]
    metrics = {name: summarize(values, table[name][0]) for name, values in samples.items()}
    return metrics, ops, {"repetitions": len(reps), "digests": digests(reps[0]),
                          "step_wall_s": step_walls(reps)}


def trace(workload: str, seed: int, seconds: float, table: dict, names: list[str]):
    """Untraced then traced runs at --workers 1, in pairs until `seconds` is used.

    Per-layer metrics are computed from each traced run's spans; each is the
    median over the traced runs, and the overhead ratio pairs each traced
    run with its untraced partner.  Every other pair runs the traced
    interpreter first, so an effect of running second cancels in the median.
    """
    pairs = []
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    while not pairs or time.monotonic() - start + median(
        [plain["elapsed_s"] + traced["elapsed_s"] for plain, traced in pairs]
    ) <= seconds:
        if len(pairs) % 2:
            traced = spawn(workload, seed, deadline, "--single", "--trace")
            plain = spawn(workload, seed, deadline, "--single")
        else:
            plain = spawn(workload, seed, deadline, "--single")
            traced = spawn(workload, seed, deadline, "--single", "--trace")
        pairs.append((plain, traced))

    ops = Ops()
    reference = pairs[0][0]
    samples = defaultdict(list)
    missing = set()
    for plain, traced in pairs:
        score(plain, ops, None if plain is reference else reference)
        score(traced, ops, reference)
        spans = [Span(*s) for s in traced["spans"]]
        values, lost = layer_metrics(names, spans, set(traced["wrapped"]),
                                     traced["wall_s"] / plain["wall_s"])
        missing.update(lost)
        for name, value in values.items():
            samples[name].append(value)
    metrics = {name: summarize(values, table[name][0]) for name, values in samples.items()}
    return metrics, ops, {"repetitions": len(pairs), "digests": digests(reference),
                          "missing": sorted(missing), "spans": pairs[0][1]["spans"]}


def print_table(metrics: dict) -> None:
    print(f"{'metric':40} {'unit':6} {'median':>14} {'n':>4}  tail")
    for name, m in metrics.items():
        tail = m.get("tail")
        tail_text = f"p{tail['percentile']:g} {tail['value']:.6g}" if tail else "-"
        samples = m.get("samples", 1)
        print(f"{name:40} {m['unit']:6} {m['value']:14.6g} {samples:4d}  {tail_text}")


def run(args) -> int:
    spec = load_spec()
    if not (ROOT / "src" / "cspilot" / "__init__.py").is_file():
        raise BenchError(f"no package at {ROOT / 'src' / 'cspilot'}")
    table = metric_table(spec)
    if args.trace:
        group = [m["name"] for m in spec["per_layer"]]
        metrics, ops, info = trace(args.workload, args.seed, args.seconds, table, group)
    else:
        group = [m["name"] for m in spec["end_to_end"]]
        metrics, ops, info = measure(args.workload, args.seed, args.seconds, table)
        metrics["failed_ratio"] = {"value": len(ops.failures) / ops.attempted,
                                   "unit": "ratio", "samples": 1, "tail": None}
    missing = info.pop("missing", [])
    spans = info.pop("spans", None)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{ops.attempted} operations, {len(ops.failures)} failed")
    print_table(metrics)
    if missing:
        print("missing functions (their metrics read 0): " + ", ".join(missing))
    for failure in ops.failures:
        print(f"FAILED {failure}", file=sys.stderr)

    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    base = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}"
    RESULTS.mkdir(exist_ok=True)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(),
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "failures": ops.failures,
        "missing": missing,
        "metrics": metrics,
        **info,
    }
    with open(f"{base}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    if spans is not None:
        with open(f"{base}.spans.json", "w", encoding="utf-8") as fh:
            json.dump(spans, fh)

    summary = {
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
                    for name in group},
    }
    print(json.dumps(summary))
    return 0


def load_runs(directory: str) -> list[dict]:
    runs = []
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith(".spans.json"):
            continue
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if isinstance(data, dict) and "workload" in data and "metrics" in data:
            runs.append(data)
    return runs


def digest_mismatches(runs) -> tuple[int, list[str]]:
    """Compare CSV digests of every pair of runs of one workload and seed.

    Traced and untraced runs, of either set, must write the same bytes.
    Returns the number of comparisons and a note for each mismatch.
    """
    first = {}
    compared, notes = 0, []
    for r in runs:
        for step, digest in (r.get("digests") or {}).items():
            if digest is None:
                continue
            key = (r["workload"], r["seed"], step)
            if key not in first:
                first[key] = (digest, r)
                continue
            compared += 1
            ref, ref_run = first[key]
            if digest != ref:
                notes.append(f"{r['workload']} seed {r['seed']} {step}: trace {r['trace']} "
                             f"CSV digest {digest[:12]} differs from trace {ref_run['trace']} "
                             f"{ref[:12]}")
    return compared, notes


def compare(old_dir: str, new_dir: str) -> int:
    """Per workload x metric: each side's median and quartiles, the ratio, the verdict.

    Exits 1 if a CSV digest differs between runs of one workload and seed.
    """
    table = metric_table(load_spec())
    old, new = load_runs(old_dir), load_runs(new_dir)
    if not old or not new:
        raise BenchError("each side needs at least one results file")
    print(f"{'workload':18} {'tr':2} {'metric':36} {'unit':6} {'old median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'ratio':>7}  verdict")
    keys = sorted({(r["workload"], r["trace"]) for r in old} & {(r["workload"], r["trace"]) for r in new})
    for workload, tr in keys:
        olds, news = (
            sorted((r for r in runs if (r["workload"], r["trace"]) == (workload, tr)),
                   key=lambda r: r["seed"])
            for runs in (old, new)
        )
        names = [n for n in olds[0]["metrics"] if n in news[0]["metrics"] and n in table]
        for name in names:
            ov = [r["metrics"][name]["value"] for r in olds if name in r["metrics"]]
            nv = [r["metrics"][name]["value"] for r in news if name in r["metrics"]]
            unit, better, bound = table[name]
            mo, mn = median(ov), median(nv)
            ratio = f"{mn / mo:7.3f}" if mo else "    n/a"
            cells = []
            for values, mid in ((ov, mo), (nv, mn)):
                q1, q3 = quartiles(values)
                cells.append(f"{mid:.5g} [{q1:.5g}, {q3:.5g}]")
            print(f"{workload:18} {tr:2d} {name:36} {unit:6} {cells[0]:>34} {cells[1]:>34} "
                  f"{ratio}  {verdict(ov, nv, better, bound)}")
    compared, notes = digest_mismatches(old + new)
    print(f"CSV digests: {compared} compared between runs of one workload and seed, "
          f"{len(notes)} differ")
    for note in notes:
        print(f"FAILED {note}", file=sys.stderr)
    return 1 if notes else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two directories of results files")
    args = parser.parse_args(argv)
    try:
        if args.compare:
            return compare(*args.compare)
        if args.workload is None:
            parser.error("--workload is required")
        if args.seed < 0 or args.seconds <= 0:
            parser.error("--seed must be >= 0 and --seconds > 0")
        return run(args)
    except (BenchError, OSError, json.JSONDecodeError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
