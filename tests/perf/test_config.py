"""The perf configuration surface: exactly three settable switches.

The per-mechanism crypto switches are folded into ``enabled`` and the
simulation-floor and GC switches are unconditional, so a script that
still sets one of the old names must fail loudly rather than silently
measure something else.
"""

import dataclasses

import pytest

from repro.perf import PerfConfig, configure, perf_config

#: every switch that existed before the fold, none of which is settable now
REMOVED_SWITCHES = [
    "verify_cache",
    "canonical_cache",
    "challenge_cache",
    "fixed_base",
    "batch_verify",
    "feldman_batch",
    "partial_batch",
    "share_image_cache",
    "gc_tuning",
    "fixed_base_min_bits",
    "inbox_demux",
    "lazy_rng",
    "faithful_fastpath",
    "zero_copy_records",
    "fault_index",
]


def test_perf_config_has_exactly_three_switches():
    names = {field.name for field in dataclasses.fields(PerfConfig)}
    assert names == {"enabled", "compact_records", "msg_volume"}


@pytest.mark.parametrize("name", REMOVED_SWITCHES)
def test_configure_rejects_removed_switch(perf, name):
    before = dataclasses.asdict(perf_config())
    with pytest.raises(AttributeError):
        configure(enabled=False, **{name: False})
    assert dataclasses.asdict(perf_config()) == before  # nothing half-applied


def test_configure_rejects_methods_as_switches(perf):
    with pytest.raises(AttributeError):
        configure(flag=True)
