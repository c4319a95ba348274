"""E14 — the performance layer: speedup with bit-identical transcripts.

Every sweep point is one full simulated execution — the E13 chaos
workloads (DISPERSE chatter and full ULS under seeded fault plans) and
the E8 refresh at growing ``n`` — run twice in the same process: once
with the crypto perf layer disabled (``configure(enabled=False)``, all
caches cleared; the simulation floor is unconditional, so it is part of
both modes) and once enabled (caches cleared first, so the optimized run
starts cold and warms itself, which is the real workload pattern).  For
each point we record

* a deterministic transcript digest of both runs — they must be equal
  (the layer is transcript-neutral, see docs/PROTOCOLS.md §12), and
* the wall-clock of both runs and their ratio.

Sweep points fan out across worker processes (``--jobs N``).  The JSON
report separates the deterministic payload from the ``timing`` section:
stripping ``timing`` must yield byte-identical output for any ``--jobs``
value (the transcripts are replayed, not re-randomized), which
``test_e14_jobs_do_not_change_results`` checks by running the sweep both
serially and in parallel.

Regenerate the committed report with::

    PYTHONPATH=src python benchmarks/bench_e14_perf.py --jobs 8

``BENCH_SMOKE=1`` shrinks the sweep to a CI-sized sanity check (and the
smoke report goes to ``BENCH_E14_smoke.json``, leaving the committed
full-sweep ``BENCH_E14.json`` alone).
"""

import argparse
import json
import os
import pathlib
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

if __name__ == "__main__":  # script mode: make src/ importable without PYTHONPATH
    _src = pathlib.Path(__file__).resolve().parent.parent / "src"
    if str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro.perf import configure

from common import build_uls_network, emit_json, format_table, transcript_digest
from bench_e13_chaos import run_disperse_chaos, run_uls_chaos

SMOKE = bool(os.environ.get("BENCH_SMOKE"))

E8_T = 2
E8_UNITS = 2

# the full sweep backs the committed BENCH_E14.json; the smoke sweep is
# the CI sanity check (one point per workload kind)
FULL_POINTS = (
    [("disperse", seed) for seed in range(0, 10)]
    + [("uls", seed) for seed in range(100, 110)]
    + [("e8", n) for n in (9, 13)]
)
SMOKE_POINTS = [("disperse", 0), ("uls", 100), ("e8", 6)]


def sweep_points():
    return SMOKE_POINTS if SMOKE else FULL_POINTS


def point_id(point) -> str:
    kind, param = point
    return f"{kind}-{param}"


# ------------------------------------------------------------ workloads

def _run_e8(n: int):
    public, programs, runner, schedule = build_uls_network(n, E8_T, seed=0)
    execution = runner.run(units=E8_UNITS)
    return execution


def _run_point(point):
    kind, param = point
    if kind == "disperse":
        _, execution, _, _ = run_disperse_chaos(param)
    elif kind == "uls":
        _, execution, _, _ = run_uls_chaos(param)
    elif kind == "e8":
        execution = _run_e8(param)
    else:
        raise ValueError(f"unknown sweep point kind {kind!r}")
    return execution


# ----------------------------------------------------------- measurement

def measure_point(point):
    """Run one sweep point in both modes; return digests and timings."""
    out = {"point": point_id(point)}
    try:
        for mode, enabled in (("baseline", False), ("optimized", True)):
            configure(enabled=enabled)  # also clears every cache (cold start)
            start = time.perf_counter()
            execution = _run_point(point)
            elapsed = time.perf_counter() - start
            out[mode] = {
                "seconds": elapsed,
                "digest": transcript_digest(execution),
            }
    finally:
        configure(enabled=True)
    return out


def run_sweep(points, jobs: int):
    if jobs <= 1:
        return [measure_point(point) for point in points]
    with ProcessPoolExecutor(max_workers=jobs, mp_context=get_context("fork")) as pool:
        return list(pool.map(measure_point, points, chunksize=1))


def _pre_pr_reference() -> dict:
    """Per-point pre-PR wall-clock, measured once at commit 1908fd3 and
    committed as BENCH_E14_prepr.json (the pre-PR tree predates the
    perf layer *and* this PR's ungated improvements, so the in-process
    baseline mode understates the true before/after gap)."""
    path = pathlib.Path(__file__).resolve().parent / "results" / "BENCH_E14_prepr.json"
    try:
        with open(path) as handle:
            return json.load(handle).get("points", {})
    except (OSError, ValueError):
        return {}


def build_report(measurements, jobs: int) -> dict:
    results = {}
    timing_points = {}
    total_baseline = 0.0
    total_optimized = 0.0
    pre_pr = _pre_pr_reference()
    total_pre_pr = 0.0
    pre_pr_complete = True
    for m in measurements:
        pid = m["point"]
        results[pid] = {
            "digest": m["optimized"]["digest"],
            "transcripts_match": m["baseline"]["digest"] == m["optimized"]["digest"],
        }
        baseline_s = m["baseline"]["seconds"]
        optimized_s = m["optimized"]["seconds"]
        total_baseline += baseline_s
        total_optimized += optimized_s
        timing_points[pid] = {
            "baseline_s": round(baseline_s, 4),
            "optimized_s": round(optimized_s, 4),
            "speedup": round(baseline_s / optimized_s, 2),
        }
        if pid in pre_pr:
            total_pre_pr += pre_pr[pid]
            timing_points[pid]["pre_pr_s"] = pre_pr[pid]
            timing_points[pid]["speedup_vs_pre_pr"] = round(pre_pr[pid] / optimized_s, 2)
        else:
            pre_pr_complete = False
    timing_extra = {}
    if pre_pr_complete and total_optimized:
        timing_extra = {
            "total_pre_pr_s": round(total_pre_pr, 4),
            "speedup_vs_pre_pr": round(total_pre_pr / total_optimized, 2),
        }
    return {
        "experiment": "e14_perf",
        "description": "perf layer on vs off: wall-clock and transcript digests "
                       "(E13 chaos workloads + E8 refresh); digests must match "
                       "in both modes and across --jobs values",
        "config": {
            "group": "toy64",
            "smoke": SMOKE,
            "modes": {"baseline": "enabled=False (crypto layer off; the "
                                  "simulation floor is unconditional)",
                      "optimized": "enabled=True"},
            "points": [point_id(p) for p in sweep_points()],
        },
        "results": results,
        "timing": {
            "jobs": jobs,
            "points": timing_points,
            "total_baseline_s": round(total_baseline, 4),
            "total_optimized_s": round(total_optimized, 4),
            "speedup": round(total_baseline / total_optimized, 2),
            **timing_extra,
        },
    }


def canonical_payload(report: dict) -> dict:
    """The deterministic part of a report (identical for any --jobs)."""
    return {key: value for key, value in report.items() if key != "timing"}


def report_table(report: dict) -> str:
    timing = report["timing"]
    with_pre_pr = "speedup_vs_pre_pr" in timing
    rows = []
    for pid, point in sorted(timing["points"].items()):
        row = [pid, point["baseline_s"], point["optimized_s"], point["speedup"]]
        if with_pre_pr:
            row.append(point.get("speedup_vs_pre_pr", "-"))
        row.append("yes" if report["results"][pid]["transcripts_match"] else "NO")
        rows.append(tuple(row))
    total = ["TOTAL", timing["total_baseline_s"], timing["total_optimized_s"],
             timing["speedup"]]
    if with_pre_pr:
        total.append(timing["speedup_vs_pre_pr"])
    total.append("")
    rows.append(tuple(total))
    headers = ["point", "baseline s", "optimized s", "speedup"]
    if with_pre_pr:
        headers.append("vs pre-PR")
    headers.append("same transcript")
    return format_table(
        "E14  perf layer: wall-clock with optimizations off vs on (transcripts equal)",
        headers,
        rows,
    )


# ---------------------------------------------------------------- pytest

def test_e14_transcripts_match_and_speedup(benchmark):
    """Every mode flip leaves the transcript bit-identical; the optimized
    runs must not be slower overall (the committed full sweep shows the
    real >=3x margin — smoke points are too small to bound tightly)."""
    measurements = run_sweep(sweep_points(), jobs=1)
    report = build_report(measurements, jobs=1)
    assert all(r["transcripts_match"] for r in report["results"].values()), report
    assert report["timing"]["speedup"] > (1.0 if SMOKE else 3.0)
    stem = "BENCH_E14_smoke" if SMOKE else "BENCH_E14"
    emit_json(stem, report)
    print("\n" + report_table(report) + "\n")
    benchmark(lambda: measure_point(("uls", 100)))


def test_e14_jobs_do_not_change_results():
    """The parallel harness is a pure fan-out: stripping the timing
    section, --jobs 1 and --jobs 2 reports are identical."""
    points = SMOKE_POINTS
    serial = build_report(run_sweep(points, jobs=1), jobs=1)
    parallel = build_report(run_sweep(points, jobs=2), jobs=2)
    assert canonical_payload(serial) == canonical_payload(parallel)


# ---------------------------------------------------------------- script

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="worker processes for the sweep (default: all cores)")
    args = parser.parse_args(argv)
    measurements = run_sweep(sweep_points(), jobs=args.jobs)
    report = build_report(measurements, jobs=args.jobs)
    stem = "BENCH_E14_smoke" if SMOKE else "BENCH_E14"
    path = emit_json(stem, report)
    print(report_table(report))
    print(f"\nwrote {path}")
    mismatched = [pid for pid, r in report["results"].items()
                  if not r["transcripts_match"]]
    if mismatched:
        print(f"TRANSCRIPT MISMATCH: {mismatched}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
