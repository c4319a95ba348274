"""The repository benchmark: one command, three workloads, every metric.

Usage (from the repository root)::

    python3 perfbench/run.py --workload refresh-n25 --seed 0 --seconds 30 --trace 0

``--trace 0`` runs fresh worker iterations of the workload one after the
other until ``--seconds`` is used up (at least two), and prints the
end-to-end metrics as medians over them.  ``--trace 1`` runs one untraced
and two traced iterations and prints the per-layer metrics (README.md).
Each iteration runs in its own freshly spawned interpreter under a
different ``PYTHONHASHSEED``; the outcome digests (and, traced, the transcript
digests) of one seed must agree across them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
MIN_ITERATIONS = 2
#: no iteration starts after this many seconds of the run (the whole
#: command must finish within 180 s)
DEADLINE_S = 120.0
WORKER_TIMEOUT_S = 170.0
TRACE_DIR = ROOT / ".perfbench" / "traces"


class BenchmarkError(Exception):
    pass


def spawn_iteration(spec: dict, hashseed: int, timeout: float) -> dict:
    """Run one iteration in a fresh interpreter (a spawned process, never a
    fork of this one) and return its result; the worker has always ended
    when this returns (it is killed on timeout)."""
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, "-m", "perfbench.worker", json.dumps(spec)]
    with subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as process:
        try:
            out, err = process.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()
            raise BenchmarkError(f"{spec['workload']}: worker timed out "
                                 f"after {timeout:.0f} s") from None
    if process.returncode != 0:
        raise BenchmarkError(f"{spec['workload']}: worker failed "
                             f"(exit {process.returncode})\n{err}")
    return json.loads(out.splitlines()[-1])


def _median(values) -> float:
    return statistics.median(values)


def _check_agreement(samples: list[dict], keys: tuple[str, ...], errors: list[str]) -> None:
    """Same seed, same code: these fields must agree across iterations."""
    for key in keys:
        values = {repr(sample.get(key)) for sample in samples}
        if len(values) != 1:
            errors.append(f"iterations disagree on {key}: {sorted(values)}")


DETERMINISTIC = ("outcome_digest", "transcript_digest", "rounds", "envelopes",
                 "refresh_envelopes", "normal_envelopes", "app_accepted",
                 "attempted", "failed", "unguaranteed")


def end_to_end(samples: list[dict]) -> dict[str, tuple[float, str]]:
    first = samples[0]
    return {
        "setup_s": (_median([s for sample in samples for s in sample["setup_s"]]), "s"),
        "rounds_per_s": (_median([s["rounds"] / s["run_s"] for s in samples]), "1/s"),
        "refresh_s": (_median([r for s in samples for r in s["refresh_s"]]), "s"),
        "normal_round_ms_p50": (
            1000 * _median([r for s in samples for r in s["normal_round_s"]]), "ms"),
        "app_msgs_per_s": (_median([s["app_accepted"] / s["run_s"] for s in samples]), "1/s"),
        "msgs_per_refresh": (first["refresh_envelopes"] / len(first["refresh_s"]), "count"),
        "msgs_per_app_msg": (first["normal_envelopes"] / first["app_accepted"], "count"),
        "peak_rss_mb": (_median([s["peak_rss_mb"] for s in samples]), "MB"),
    }


def per_layer(untraced: dict, traced: list[dict]) -> dict[str, tuple[float, str]]:
    layers = {}
    for name, value in traced[0]["layers"].items():
        if name.endswith("_s"):
            layers[name] = (_median([t["layers"][name] for t in traced]), "s")
        elif name.endswith("_ratio"):
            layers[name] = (value, "ratio")
        else:
            layers[name] = (value, "count")
    traced_run_s = _median([t["run_s"] for t in traced])
    layers["trace.run_s"] = (traced_run_s, "s")
    layers["trace.overhead_s"] = (traced_run_s - untraced["run_s"], "s")
    layers["trace.spans"] = (traced[0]["spans"], "count")
    return layers


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, list[dict], list[str]]:
    began = perf_counter()
    errors: list[str] = []
    spec = {"workload": workload, "seed": seed, "trace": False, "transcript": trace}
    if trace:
        untraced = spawn_iteration(spec, 1, WORKER_TIMEOUT_S)
        traced = []
        for k in (1, 2):
            traced_spec = dict(spec, trace=True,
                               trace_path=str(TRACE_DIR / f"{workload}-{k}"))
            remaining = WORKER_TIMEOUT_S - (perf_counter() - began)
            traced.append(spawn_iteration(traced_spec, 1 + k, remaining))
        samples = [untraced] + traced
        metrics = per_layer(untraced, traced)
        counts = [{k: v for k, v in t["layers"].items() if not k.endswith("_s")}
                  for t in traced]
        if counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
            errors.append(f"per-layer counts differ between traced runs: {diff}")
        for t in traced:
            if abs(t["self_sum_s"] - t["run_s"]) > max(metrics["trace.overhead_s"][0], 0.0) + 0.01:
                errors.append(f"self times sum to {t['self_sum_s']:.3f} s, "
                              f"traced run took {t['run_s']:.3f} s")
    else:
        samples = []
        while True:
            start = perf_counter()
            remaining = WORKER_TIMEOUT_S - (start - began)
            samples.append(spawn_iteration(spec, len(samples) + 1, remaining))
            now = perf_counter()
            last = now - start
            if len(samples) >= MIN_ITERATIONS and (
                    now - began + last > seconds or now - began + last > DEADLINE_S):
                break
        metrics = end_to_end(samples)
    _check_agreement(samples, DETERMINISTIC, errors)
    for sample in samples:
        errors.extend(sample["errors"])
        if not sample["config_restored"]:
            errors.append("PerfConfig was not restored after the run")
    if samples[0]["failed"]:
        errors.append(f"{samples[0]['failed']} guaranteed operations failed")
    return metrics, samples, errors


def report(workload: str, seed: int, metrics: dict, samples: list[dict],
           errors: list[str]) -> dict:
    first = samples[0]
    attempted, failed = first["attempted"], first["failed"]
    print(f"workload {workload}  seed {seed}  iterations {len(samples)}")
    for index, sample in enumerate(samples):
        print(f"  iteration {index}: run {sample['run_s']:.3f} s  "
              f"setup {_median(sample['setup_s']) * 1000:.3f} ms  "
              f"rss {sample['peak_rss_mb']:.1f} MB  outcome {sample['outcome_digest'][:16]}"
              + (f"  transcript {sample['transcript_digest'][:16]}"
                 if "transcript_digest" in sample else ""))
    print(f"  ops attempted {attempted}  failed {failed}  "
          f"fail_share {failed / attempted if attempted else 0.0:.6f}  "
          f"not guaranteed by the paper {first['unguaranteed']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:16.6f} {unit}")
    for error in errors:
        print(f"  CHECK FAILED: {error}")
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    try:
        metrics, samples, errors = run(args.workload, args.seed, args.seconds,
                                       bool(args.trace))
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    result = report(args.workload, args.seed, metrics, samples, errors)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
