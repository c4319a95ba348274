"""Sim-floor perf-regression guard: fail CI when the floor creeps back up.

Compares a freshly generated E16 report (usually the smoke report CI
just produced) against the committed floor baseline
``benchmarks/results/BENCH_E16_floor.json`` and exits non-zero when

* any point's transcripts stopped matching (the layer must stay
  transcript-neutral — this is a correctness failure, not a perf one),
* the compact-record mode lost rounds-digest parity, or
* any point's **calibrated score** — layer-on rounds/sec of each of at
  least five repeats, multiplied by the seconds of the fixed pure-Python
  calibration loop timed around it in the same process
  (``bench_e16_simfloor.calibration_s``), median over the repeats — fell
  by more than ``--tolerance`` (default 25%) below the committed floor,
  or is missing.

The score is an absolute rounds/sec normalized by the host's own
interpreter speed, not a ratio against an in-process "floor off" mode:
the floor's mechanisms are unconditional, so no such mode exists.  A
slower machine slows the calibration loop and the simulation alike, so
the product survives.  The committed floor is regenerated together with
``BENCH_E16.json``::

    BENCH_SMOKE=1 PYTHONPATH=src python benchmarks/bench_e16_simfloor.py
    PYTHONPATH=src python benchmarks/check_e16_regression.py --write-floor

Usage (CI)::

    PYTHONPATH=src python benchmarks/check_e16_regression.py \
        --current benchmarks/results/BENCH_E16_smoke.json
"""

import argparse
import json
import pathlib
import sys

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"
DEFAULT_CURRENT = RESULTS_DIR / "BENCH_E16_smoke.json"
FLOOR_PATH = RESULTS_DIR / "BENCH_E16_floor.json"


def load(path: pathlib.Path) -> dict:
    with open(path) as handle:
        return json.load(handle)


def floor_from_report(report: dict) -> dict:
    """The committed floor: per-point calibrated scores of a known-good run."""
    return {
        "source_experiment": report["experiment"],
        "smoke": report["config"]["smoke"],
        "scores": {
            pid: point["optimized_score"]
            for pid, point in report["timing"]["points"].items()
        },
    }


def check(current: dict, floor: dict, tolerance: float) -> list[str]:
    failures = []
    for pid, result in current["results"].items():
        if not result["transcripts_match"]:
            failures.append(f"{pid}: transcripts diverged between modes")
    if not current["compact_records"]["digest_match"]:
        failures.append("compact-records: rounds-digest parity lost")
    points = current["timing"]["points"]
    for pid, reference in floor["scores"].items():
        measured = points.get(pid, {}).get("optimized_score")
        if measured is None:
            # a floor point missing from the current sweep is a silent
            # coverage loss — flag it instead of skipping
            failures.append(f"{pid}: in the committed floor but no calibrated "
                            "score measured")
            continue
        allowed = (1.0 - tolerance) * reference
        if measured < allowed:
            failures.append(
                f"{pid}: calibrated score {measured:.3f} regressed > "
                f"{tolerance:.0%} below the committed floor {reference:.3f} "
                f"(allowed >= {allowed:.3f})")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--current", type=pathlib.Path, default=DEFAULT_CURRENT,
                        help="freshly generated E16 report to check "
                             "(default: the smoke report)")
    parser.add_argument("--baseline", type=pathlib.Path, default=FLOOR_PATH,
                        help="committed floor baseline")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional score regression (default 0.25)")
    parser.add_argument("--write-floor", action="store_true",
                        help="regenerate the committed floor from --current "
                             "instead of checking against it")
    args = parser.parse_args(argv)

    current = load(args.current)
    if args.write_floor:
        floor = floor_from_report(current)
        args.baseline.write_text(json.dumps(floor, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.baseline}: {floor['scores']}")
        return 0

    floor = load(args.baseline)
    failures = check(current, floor, args.tolerance)
    if failures:
        for failure in failures:
            print(f"E16 REGRESSION: {failure}", file=sys.stderr)
        return 1
    print(f"E16 floor holds: {len(floor['scores'])} points within "
          f"{args.tolerance:.0%} of the committed baseline, transcripts equal")
    return 0


# ---------------------------------------------------------------- pytest

def test_committed_floor_matches_committed_report():
    """The committed smoke floor must stay in sync with what the guard
    expects: every floor point exists, scores are positive, and the
    committed full report itself passes the guard against it."""
    floor = load(FLOOR_PATH)
    assert floor["scores"], "empty floor baseline"
    assert all(score > 0 for score in floor["scores"].values())
    full = load(RESULTS_DIR / "BENCH_E16.json")
    relevant = {pid: score for pid, score in floor["scores"].items()
                if pid in full["timing"]["points"]}
    assert relevant, "floor and committed report share no points"
    failures = check(full, {"scores": relevant}, tolerance=0.25)
    assert not failures, failures


def test_guard_fails_the_floor_off_report():
    """The guard is at least as strict as the ratio guard it replaced: a
    smoke report measured with the pre-fold code and its five sim-floor
    switches off fails on every floor point's calibrated score."""
    floor = load(FLOOR_PATH)
    prefold = load(RESULTS_DIR / "BENCH_E16_prefold.json")
    failures = check(prefold["floor_off_smoke_report"], floor, tolerance=0.25)
    assert len(failures) == len(floor["scores"]), failures
    assert all("calibrated score" in failure for failure in failures), failures


if __name__ == "__main__":
    raise SystemExit(main())
