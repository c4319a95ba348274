"""One benchmark iteration, run in a freshly spawned interpreter.

    python3 -m perfbench.worker '{"workload": "flood-n49", "seed": 0,
                                  "trace": false, "transcript": false}'

prints the iteration's result as one JSON line.  A fresh interpreter per iteration gives every timed run empty perf caches
and its own ``PerfConfig`` (``configure()`` mutates one process-global
object in place), and makes ``ru_maxrss`` the peak of that run alone.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import resource
import sys
from time import perf_counter

from repro.analysis.digest import outcome_digest
from repro.perf.config import clear_all_caches, configure, perf_config
from repro.sim.clock import Phase
from repro.sim.runner import RunObserver

from perfbench.workloads import WORKLOADS

#: set-ups per iteration: at least this many, and until this much time has
#: gone by; ``setup_s`` is their median (the first one in a fresh process
#: also pays lazy imports, and one set-up can take well under a millisecond)
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 0.25


class RoundClock(RunObserver):
    """Wall-clock duration of each round: the gap between consecutive
    ``on_round`` calls (the first gap starts when ``Runner.run`` is
    entered)."""

    def __init__(self) -> None:
        self.durations: list[float] = []
        self.last = 0.0

    def on_round(self, execution, record) -> None:
        now = perf_counter()
        self.durations.append(now - self.last)
        self.last = now


def run_iteration(spec: dict) -> dict:
    workload = WORKLOADS[spec["workload"]]
    seed = spec["seed"]
    if type(seed) is not int:
        raise TypeError(f"seeds must be int, got {type(seed).__name__}")
    saved = dataclasses.replace(perf_config())
    instrumentation = None
    try:
        configure(**workload.perf_flags)
        setup_s = []
        began = perf_counter()
        while len(setup_s) < SETUP_MIN_REPEATS or perf_counter() - began < SETUP_MIN_SECONDS:
            clear_all_caches()
            start = perf_counter()
            network = workload.build(seed)
            setup_s.append(perf_counter() - start)
        clear_all_caches()
        clock = RoundClock()
        network.runner.add_observer(clock)
        if spec["trace"]:
            # imported only here: an untraced worker never loads the tracer
            from perfbench import tracing

            instrumentation = tracing.instrument(network)
            caches_before = tracing.cache_counters()
        clock.last = start = perf_counter()
        execution = network.runner.run(units=network.units)
        run_s = perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if instrumentation is not None:
            caches_after = tracing.cache_counters()
            instrumentation.remove()
    finally:
        configure(**dataclasses.asdict(saved))
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "config_restored": perf_config() == saved,
    }
    result.update(_round_stats(execution, clock.durations))
    outcome = workload.check(network, execution)
    result.update(
        attempted=outcome.attempted,
        failed=outcome.failed,
        unguaranteed=outcome.unguaranteed,
        app_accepted=outcome.app_accepted,
        errors=outcome.errors,
        outcome_digest=outcome_digest(execution),
    )
    if spec["transcript"]:
        from perfbench.transcript import transcript_digest

        result["transcript_digest"] = transcript_digest(execution)
    if instrumentation is not None:
        recorder = instrumentation.recorder
        result["layers"] = tracing.layer_metrics(
            recorder, execution, network.programs, caches_before, caches_after)
        result["spans"] = len(recorder.start_col)
        result["self_sum_s"] = recorder.total_self_s()
        if spec.get("trace_path"):
            recorder.write(pathlib.Path(spec["trace_path"]))
    return result


def _round_stats(execution, durations: list[float]) -> dict:
    """Per-phase round times and envelope counts of one execution."""
    refresh_s: dict[int, float] = {}
    refresh_envelopes = 0
    normal_round_s = []
    normal_envelopes = 0
    envelopes = 0
    for record, duration in zip(execution.records, durations):
        info = record.info
        sent = record.sent_count
        envelopes += sent
        if info.phase is Phase.REFRESH:
            refresh_s[info.time_unit] = refresh_s.get(info.time_unit, 0.0) + duration
            refresh_envelopes += sent
        elif info.phase is Phase.NORMAL:
            normal_round_s.append(duration)
            normal_envelopes += sent
    return {
        "rounds": len(execution.records),
        "envelopes": envelopes,
        "refresh_s": list(refresh_s.values()),
        "refresh_envelopes": refresh_envelopes,
        "normal_round_s": normal_round_s,
        "normal_envelopes": normal_envelopes,
    }


if __name__ == "__main__":
    print(json.dumps(run_iteration(json.loads(sys.argv[1]))))
