"""E16 — the simulation floor: calibrated rounds/sec with bit-identical transcripts.

E14 measures the *crypto* hot paths; E16 measures the crypto-free
simulation floor itself — envelope routing, per-round transcript
materialization, and ``disperse.on_round`` bookkeeping:

* **crypto-free floods** at n ∈ {5, 13, 25, 49}: every node runs a
  full-flood DISPERSE chatter (ring probes, one retransmission) under a
  passive adversary, so the run is pure routing + accounting with zero
  signature work.  The n = 49 point is the E8-style run: it uses the §6
  sparse relay (``relay_fanout = 2t+1``), the exact configuration E8
  prescribes for large n — a full ULS refresh at n = 49 is still
  crypto-bound for tens of minutes per mode even sparse, which is why
  the floor benchmark isolates E8's n = 49 *message pattern* instead;
* **the E13 chaos workloads** (DISPERSE chatter and full ULS under
  seeded fault plans), each point aggregating several seeds so the
  timing is not dominated by per-run noise; the crypto-free
  ``chaos-disperse`` point is the acceptance target (≥ 2× on vs off);
* **a real E8 sparse-relay refresh at n = 13**, showing the floor drop
  propagating into the crypto-bearing experiments (E14 re-measures the
  full-flood e8 points; its committed report is regenerated with this
  layer in place).

The floor's mechanisms (channel demux, lazy randomness, faithful-plan
provenance, zero-copy records, fault indexing) are unconditional, so
there is no in-process "floor off" mode to divide by.  Each point instead
runs with the crypto perf layer off (``configure(enabled=False)``) and on
(caches cleared, cold start), at least ``REPEATS`` times per mode,
recording best wall-clock, rounds/sec and a transcript digest per mode;
the digests are computed *outside* the timed region and must be equal
(the crypto layer is transcript-neutral, docs/PROTOCOLS.md §12).  The
regression metric is the **calibrated score**: the layer-on rounds/sec
of each repeat multiplied by the time of a fixed pure-Python calibration
loop (:func:`calibration_s`) run right before and after it in the same
process — rounds simulated per calibration-loop time — with the median
over the repeats.  The product cancels the host's interpreter speed to
first order, so a fixed committed floor stays comparable across
machines.

Compact-record mode is covered separately: it intentionally drops the
per-round envelopes, so its parity claim goes through the streaming
:class:`~repro.analysis.digest.RoundsDigest` — the compact run's digest
must equal the full run's.

Sweep points fan out across worker processes (``--jobs N``); stripping
the ``timing`` section must yield byte-identical reports for any
``--jobs`` value, which ``test_e16_jobs_do_not_change_results`` checks.

Regenerate the committed report with::

    PYTHONPATH=src python benchmarks/bench_e16_simfloor.py --jobs 4

``BENCH_SMOKE=1`` shrinks the sweep to a CI-sized sanity check (report
goes to ``BENCH_E16_smoke.json``; the committed full-sweep
``BENCH_E16.json`` and the regression floor ``BENCH_E16_floor.json``
are left alone).  ``check_e16_regression.py`` compares a fresh report's
calibrated scores against the committed floor and fails CI on a > 25%
regression.  The on/off ratios measured while the floor still had
per-mechanism switches are kept in ``BENCH_E16_prefold.json``.
"""

import argparse
import hashlib
import os
import pathlib
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

if __name__ == "__main__":  # script mode: make src/ importable without PYTHONPATH
    _src = pathlib.Path(__file__).resolve().parent.parent / "src"
    if str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro.core.disperse import DisperseService
from repro.perf import configure
from repro.sim.adversary_api import PassiveAdversary
from repro.sim.clock import Schedule
from repro.sim.messages import Envelope
from repro.sim.node import NodeContext, NodeProgram
from repro.sim.runner import ULRunner

from common import build_uls_network, emit_json, format_table, transcript_digest
from bench_e13_chaos import run_disperse_chaos, run_uls_chaos

SMOKE = bool(os.environ.get("BENCH_SMOKE"))

FLOOD_T = 2
FLOOD_SCHED = Schedule(setup_rounds=2, refresh_rounds=2, normal_rounds=20)
FLOOD_UNITS = 1 if SMOKE else 3
SPARSE_N = 49  # full flood is Θ(n²) per probe; at n=49 use the §6 sparse relay

E8_T = 2
E8_N = 13  # a real refresh at n=49 runs for tens of minutes even sparse
E8_UNITS = 2  # refresh runs at unit boundaries: units=2 is one real refresh

CHAOS_SEEDS = {
    "disperse": range(0, 2) if SMOKE else range(0, 8),
    "uls": range(100, 101) if SMOKE else range(100, 104),
}

FULL_POINTS = (
    [("flood", n) for n in (5, 13, 25, 49)]
    + [("chaos", "disperse"), ("chaos", "uls"), ("e8", E8_N)]
)
SMOKE_POINTS = [("flood", 5), ("flood", 49), ("chaos", "disperse")]

COMPACT_N = 5 if SMOKE else 13


def sweep_points():
    return SMOKE_POINTS if SMOKE else FULL_POINTS


def point_id(point) -> str:
    kind, param = point
    return f"{kind}-n{param}" if isinstance(param, int) else f"{kind}-{param}"


# ------------------------------------------------------------ workloads

class FloodChatter(NodeProgram):
    """Ring-probe DISPERSE chatter — the crypto-free floor workload.

    Identical in shape to E13's ``ChaosChatter`` but parameterized by
    relay fanout so the n = 49 point can run the §6 sparse relay."""

    def __init__(self, relay_fanout: int | None = None) -> None:
        super().__init__()
        self.disperse = DisperseService(relay_fanout=relay_fanout, retransmit=1)
        self.delivered: list = []

    def step(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        self.disperse.on_round(ctx, inbox)
        self.delivered.extend(self.disperse.receipts(""))
        if ctx.info.phase.value == "normal":
            target = (self.node_id + 1) % ctx.n
            self.disperse.send(ctx, target, ("probe", self.node_id, ctx.info.round))


def run_flood(n: int, *, stream_digest: bool = False):
    relay_fanout = 2 * FLOOD_T + 1 if n >= SPARSE_N else None
    programs = [FloodChatter(relay_fanout) for _ in range(n)]
    runner = ULRunner(programs, PassiveAdversary(), FLOOD_SCHED,
                      s=FLOOD_T, seed=n, stream_digest=stream_digest)
    return runner.run(units=FLOOD_UNITS)


def _run_e8(n: int):
    public, programs, runner, schedule = build_uls_network(
        n, E8_T, seed=0, relay_fanout=2 * E8_T + 1)
    return runner.run(units=E8_UNITS)


def _run_point(point):
    """One sweep point → list of executions (chaos points aggregate
    several seeds so per-run noise does not dominate the timing)."""
    kind, param = point
    if kind == "flood":
        return [run_flood(param)]
    if kind == "chaos":
        runs = {"disperse": run_disperse_chaos, "uls": run_uls_chaos}[param]
        return [runs(seed)[1] for seed in CHAOS_SEEDS[param]]
    if kind == "e8":
        return [_run_e8(param)]
    raise ValueError(f"unknown sweep point kind {kind!r}")


# ----------------------------------------------------------- measurement

def _combined_digest(executions) -> str:
    digests = "|".join(transcript_digest(execution) for execution in executions)
    return hashlib.sha256(digests.encode("ascii")).hexdigest()


#: every mode of every point runs at least REPEATS times and for at least
#: MIN_MODE_S seconds (smoke points take milliseconds, so this is cheap)
REPEATS = 5
MIN_MODE_S = 0.5


class _Slot:
    __slots__ = ("channel", "payload")

    def __init__(self, channel, payload):
        self.channel = channel
        self.payload = payload


def calibration_s() -> float:
    """Seconds of one pass of a fixed pure-Python loop whose work mix —
    object and tuple construction, dict probes and inserts, list
    appends, attribute reads, small-int arithmetic — mirrors the
    simulation floor's, so it scales with the interpreter and the host
    the way the floor does."""
    start = time.perf_counter()
    bins: dict[str, list] = {}
    seen: set = set()
    for i in range(20_000):
        slot = _Slot("c%d" % (i & 7), (i, i & 15, "body"))
        bin_ = bins.get(slot.channel)
        if bin_ is None:
            bin_ = bins[slot.channel] = []
        bin_.append(slot)
        key = (slot.payload[1], i & 255)
        if key not in seen:
            seen.add(key)
    return time.perf_counter() - start


def measure_point(point):
    """Run one sweep point in both modes; return digests, timings and
    calibrated scores.

    Only the simulation is inside the timed region; the digest pass
    costs the same in both modes and would dilute the measurement.  The
    reported wall-clock of a mode is its best repeat (min), so a
    scheduler hiccup cannot fake or mask a change; the digest must be
    identical across repeats.  Every repeat is bracketed by two passes
    of the calibration loop, and its score is rounds/sec times their
    mean: pairing each run with the host speed of the same moment
    cancels the host's speed drift, which a best-of over separately
    timed loops does not (the host's per-core speed can swing by 2x
    within seconds).  The mode's score is the median over its repeats."""
    out = {"point": point_id(point)}
    try:
        for mode, enabled in (("baseline", False), ("optimized", True)):
            times: list[float] = []
            scores: list[float] = []
            digest = None
            began = time.perf_counter()
            while len(times) < REPEATS or time.perf_counter() - began < MIN_MODE_S:
                before = calibration_s()
                configure(enabled=enabled)  # also clears caches (cold start)
                start = time.perf_counter()
                executions = _run_point(point)
                elapsed = time.perf_counter() - start
                after = calibration_s()
                rounds = sum(len(execution.records) for execution in executions)
                this_digest = _combined_digest(executions)
                if digest is None:
                    digest = this_digest
                elif digest != this_digest:
                    raise AssertionError(f"{point_id(point)} {mode}: "
                                         "repeat changed the transcript")
                times.append(elapsed)
                scores.append(rounds / elapsed * (before + after) / 2)
            best = min(times)
            out[mode] = {
                "seconds": best,
                "rounds": rounds,
                "rounds_per_s": rounds / best,
                "digest": digest,
                "repeats": len(times),
                "score": statistics.median(scores),
            }
    finally:
        configure(enabled=True)
    return out


def measure_compact(n: int = COMPACT_N):
    """Compact-record mode vs full records, both with the streaming
    digest on: the digests must match (docs/PROTOCOLS.md §12) and the
    compact run records its own timing."""
    out = {"n": n}
    try:
        for mode, compact in (("full", False), ("compact", True)):
            configure(enabled=True, compact_records=compact)
            start = time.perf_counter()
            execution = run_flood(n, stream_digest=True)
            out[mode] = {
                "seconds": time.perf_counter() - start,
                "rounds_digest": execution.rounds_digest,
            }
    finally:
        configure(enabled=True, compact_records=False)
    out["digest_match"] = out["full"]["rounds_digest"] == out["compact"]["rounds_digest"]
    return out


def run_sweep(points, jobs: int):
    if jobs <= 1:
        return [measure_point(point) for point in points]
    with ProcessPoolExecutor(max_workers=jobs, mp_context=get_context("fork")) as pool:
        return list(pool.map(measure_point, points, chunksize=1))


def build_report(measurements, compact, jobs: int) -> dict:
    results = {}
    timing_points = {}
    total_baseline = 0.0
    total_optimized = 0.0
    for m in measurements:
        pid = m["point"]
        results[pid] = {
            "digest": m["optimized"]["digest"],
            "transcripts_match": m["baseline"]["digest"] == m["optimized"]["digest"],
            "rounds": m["optimized"]["rounds"],
        }
        baseline_s = m["baseline"]["seconds"]
        optimized_s = m["optimized"]["seconds"]
        total_baseline += baseline_s
        total_optimized += optimized_s
        timing_points[pid] = {
            "baseline_s": round(baseline_s, 4),
            "optimized_s": round(optimized_s, 4),
            "baseline_rounds_per_s": round(m["baseline"]["rounds_per_s"], 1),
            "optimized_rounds_per_s": round(m["optimized"]["rounds_per_s"], 1),
            "speedup": round(baseline_s / optimized_s, 2),
            "repeats": m["optimized"]["repeats"],
            "optimized_score": round(m["optimized"]["score"], 2),
        }
    return {
        "experiment": "e16_simfloor",
        "description": "simulation floor: calibrated rounds/sec (layer-on "
                       "rounds/sec x same-process calibration-loop seconds) "
                       "and transcript digests with the crypto perf layer off "
                       "and on, on crypto-free floods (n in {5,13,25,49}), the "
                       "E13 chaos points, and a sparse-relay E8 refresh; the "
                       "n=49 flood runs E8's large-n sparse-relay config; "
                       "digests must match in both modes and compact records "
                       "must keep rounds-digest parity",
        "config": {
            "group": "toy64",
            "smoke": SMOKE,
            "min_repeats": REPEATS,
            "min_mode_s": MIN_MODE_S,
            "modes": {"baseline": "enabled=False", "optimized": "enabled=True"},
            "flood": {"schedule": [FLOOD_SCHED.setup_rounds,
                                   FLOOD_SCHED.refresh_rounds,
                                   FLOOD_SCHED.normal_rounds],
                      "units": FLOOD_UNITS, "t": FLOOD_T,
                      "sparse_relay_from_n": SPARSE_N,
                      "relay_fanout_sparse": 2 * FLOOD_T + 1,
                      "e8_style_point": f"flood-n{SPARSE_N}"},
            "chaos_seeds": {kind: list(seeds) for kind, seeds in CHAOS_SEEDS.items()},
            "e8": {"n": E8_N, "t": E8_T, "units": E8_UNITS,
                   "relay_fanout": 2 * E8_T + 1},
            "points": [point_id(p) for p in sweep_points()],
        },
        "results": results,
        "compact_records": {
            "n": compact["n"],
            "digest_match": compact["digest_match"],
            "rounds_digest": compact["full"]["rounds_digest"],
        },
        "timing": {
            "jobs": jobs,
            "points": timing_points,
            "compact": {
                "full_s": round(compact["full"]["seconds"], 4),
                "compact_s": round(compact["compact"]["seconds"], 4),
                "speedup": round(compact["full"]["seconds"]
                                 / compact["compact"]["seconds"], 2),
            },
            "total_baseline_s": round(total_baseline, 4),
            "total_optimized_s": round(total_optimized, 4),
            "speedup": round(total_baseline / total_optimized, 2),
        },
    }


def canonical_payload(report: dict) -> dict:
    """The deterministic part of a report (identical for any --jobs)."""
    return {key: value for key, value in report.items() if key != "timing"}


def report_table(report: dict) -> str:
    timing = report["timing"]
    rows = []
    for pid, point in sorted(timing["points"].items()):
        rows.append((
            pid,
            report["results"][pid]["rounds"],
            point["baseline_s"],
            point["optimized_s"],
            point["baseline_rounds_per_s"],
            point["optimized_rounds_per_s"],
            point["speedup"],
            point["optimized_score"],
            "yes" if report["results"][pid]["transcripts_match"] else "NO",
        ))
    rows.append(("TOTAL", "", timing["total_baseline_s"],
                 timing["total_optimized_s"], "", "", timing["speedup"], "", ""))
    return format_table(
        "E16  simulation floor: wall-clock, rounds/sec and calibrated score, "
        "crypto layer off vs on (transcripts equal)",
        ["point", "rounds", "off s", "on s", "off rds/s", "on rds/s",
         "speedup", "on score", "same transcript"],
        rows,
    )


# ---------------------------------------------------------------- pytest

def test_e16_transcripts_match_and_floor_holds(benchmark):
    """Every mode flip leaves the transcript bit-identical, and every
    point's calibrated score stays within the regression guard's
    tolerance of the committed floor (``check_e16_regression.py``)."""
    from check_e16_regression import FLOOR_PATH, check, load

    measurements = run_sweep(sweep_points(), jobs=1)
    compact = measure_compact()
    report = build_report(measurements, compact, jobs=1)
    assert all(r["transcripts_match"] for r in report["results"].values()), report
    assert report["compact_records"]["digest_match"], report
    floor = load(FLOOR_PATH)
    if not SMOKE:  # the floor is a smoke floor; score only the shared points
        floor["scores"] = {pid: score for pid, score in floor["scores"].items()
                           if pid in report["timing"]["points"]}
    assert not check(report, floor, tolerance=0.25), report
    stem = "BENCH_E16_smoke" if SMOKE else "BENCH_E16"
    emit_json(stem, report)
    print("\n" + report_table(report) + "\n")
    benchmark(lambda: run_flood(5))


def test_e16_jobs_do_not_change_results():
    """The parallel harness is a pure fan-out: stripping the timing
    section, --jobs 1 and --jobs 2 reports are identical."""
    points = SMOKE_POINTS
    compact = measure_compact()
    serial = build_report(run_sweep(points, jobs=1), compact, jobs=1)
    parallel = build_report(run_sweep(points, jobs=2), compact, jobs=2)
    assert canonical_payload(serial) == canonical_payload(parallel)


# ---------------------------------------------------------------- script

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="worker processes for the sweep (default: all cores)")
    args = parser.parse_args(argv)
    measurements = run_sweep(sweep_points(), jobs=args.jobs)
    compact = measure_compact()
    report = build_report(measurements, compact, jobs=args.jobs)
    stem = "BENCH_E16_smoke" if SMOKE else "BENCH_E16"
    path = emit_json(stem, report)
    print(report_table(report))
    print(f"\nwrote {path}")
    failures = [pid for pid, r in report["results"].items()
                if not r["transcripts_match"]]
    if not report["compact_records"]["digest_match"]:
        failures.append("compact-records")
    if failures:
        print(f"TRANSCRIPT MISMATCH: {failures}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
