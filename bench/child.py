"""One fresh interpreter that runs one workload once; started by run.py.

Usage::

    python3 bench/child.py ROOT WORKLOAD SEED T0 OUT_DIR [--single] [--trace] [--setup-only]

``T0`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start, imports and input
generation.  The record (and, with ``--trace``, the spans) is written to
``OUT_DIR/result.json``; CSVs go to ``OUT_DIR`` too.  Exit code 3 means the
package could not be imported from ``ROOT/src``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; the children figure is the largest child
    return max(
        resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def _run_step(cspilot, step: dict, out_dir: str) -> dict:
    """Run one step; a failure is recorded, not raised."""
    try:
        if step["kind"] == "cli":
            path = os.path.join(out_dir, step["name"] + ".csv")
            code = cspilot.cli.main([*step["argv"], "--out", path])
            return {"ok": code == 0, "error": None if code == 0 else f"exit code {code}", "csv": path}
        value = cspilot.detection.min_threshold_for_network(
            step["powers"], step["antennas"], step["cap"]
        )
        return {"ok": True, "error": None, "value": value}
    except SystemExit as exc:  # argparse rejects the arguments
        return {"ok": False, "error": f"exit code {exc.code}"}
    except Exception:  # any other failure of the call counts against it
        return {"ok": False, "error": traceback.format_exc(limit=3)}


def main(argv) -> int:
    root, workload, seed, t0, out_dir = argv[:5]
    flags = set(argv[5:])
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    try:
        import cspilot
        import cspilot.cli
        import cspilot.detection
    except ImportError as exc:
        print(f"bench: cannot import cspilot from {src}: {exc}", file=sys.stderr)
        return 3
    if not os.path.abspath(cspilot.__file__).startswith(src + os.sep):
        print(f"bench: cspilot imported from {cspilot.__file__}, not {src}", file=sys.stderr)
        return 3

    from workloads import make_steps

    steps = make_steps(workload, int(seed), single="--single" in flags)
    setup_s = time.monotonic() - float(t0)
    record = {"setup_s": setup_s}
    if "--setup-only" not in flags:
        tracer = None
        if "--trace" in flags:
            from tracer import Tracer

            tracer = Tracer(run_id=f"{workload}-{seed}-{os.getpid()}")
            tracer.install()
        cpu0 = _cpu_s()
        wall0 = time.perf_counter()
        outcomes = []
        for step in steps:
            step_start = time.perf_counter()
            outcomes.append(_run_step(cspilot, step, out_dir))
            outcomes[-1]["wall_s"] = time.perf_counter() - step_start
        wall_s = time.perf_counter() - wall0
        cpu_s = _cpu_s() - cpu0
        record.update(
            wall_s=wall_s,
            cpu_s=cpu_s,
            peak_rss_mb=_peak_rss_mb(),
            steps=steps,
            outcomes=outcomes,
        )
        if tracer is not None:
            tracer.uninstall()
            record["wrapped"] = sorted(tracer.wrapped)
            record["spans"] = [list(span) for span in tracer.spans]
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
