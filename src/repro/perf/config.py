"""Global configuration of the performance layer.

Three settable values remain, each with a reason to exist:

* ``enabled`` (``REPRO_PERF=0`` turns it off) switches the crypto
  performance layer — verification cache, canonical dedup-key memo,
  certificate-assertion table, challenge memo, fixed-base windows,
  batched Schnorr / Feldman / partial-signature verification,
  share-image cache — against its plain reference path.  (A certified
  message's ``signed_bytes`` belongs to the message, a pure function of
  its fields, and is not switched.)  Both paths produce bit-identical
  transcripts (the caches memoize pure functions under exact keys;
  fixed-base windows compute the same group element; batch verification
  falls back to individual verification whenever a batch fails), so the
  E14 benchmark measures one against the other in the same process and
  the CI ``REPRO_PERF=0`` leg runs the whole suite against the reference
  path.
* ``compact_records`` is a benchmark-sweep memory mode: round records
  keep counts instead of envelopes.
* ``msg_volume`` is the one wire-changing switch (see below); off is the
  paper-faithful wire path.

The simulation floor (channel-binned inboxes, lazy per-round randomness,
faithful-plan provenance, zero-copy round records, active-fault indexing)
and the widened GC threshold are unconditional: they are
transcript-neutral and carry no semantics of their own.

The configuration is process-global (the simulator is single-threaded);
worker processes of the parallel benchmark harness each carry their own.
"""

from __future__ import annotations

import gc
import os
from dataclasses import dataclass, fields
from typing import Callable

__all__ = [
    "PerfConfig",
    "perf_config",
    "configure",
    "register_cache_clearer",
    "clear_all_caches",
]


@dataclass
class PerfConfig:
    """Feature switches of the performance layer.

    ``enabled`` is the master switch: when False the crypto layer runs its
    reference path and every other flag reads as off.
    """

    enabled: bool = True
    #: benchmark-sweep mode: round records keep counts, not envelopes
    #: (off by default — analyses that read record.sent need full records)
    compact_records: bool = False
    # -- the message-volume layer (refresh/DKG wire traffic) -----------------
    #: receipt aggregation (broadcast-certified round-wide messages, batched
    #: PA step-3 re-dispersal, plural threshold-signer bodies) and sampled
    #: need/help responders with deterministic escalation.  Unlike every
    #: other flag this one changes *which* envelopes cross the wire, so it
    #: is parity-checked at the protocol-outcome level (rejected sets, key
    #: histories, ``outcome_digest``) rather than by transcript digest —
    #: and it defaults to off.
    msg_volume: bool = False

    def flag(self, name: str) -> bool:
        return self.enabled and bool(getattr(self, name))


_CONFIG = PerfConfig(
    enabled=os.environ.get("REPRO_PERF", "1") != "0",
    msg_volume=os.environ.get("REPRO_MSG_VOLUME", "0") == "1",
)

_CLEARERS: list[Callable[[], None]] = []

# Flood-style rounds allocate hundreds of thousands of envelopes and wire
# tuples per run; nearly all die by refcount, but every generation-0 pass
# still walks the live tail of that churn, and at E8 scale the walks cost
# more than the protocol's own Python work.  A wide gen-0 threshold makes
# cycle collection run ~300x less often — collection never affects
# semantics, only when the (rare, long-lived) cycles are reclaimed.
gc.set_threshold(200_000, 50, 25)


def perf_config() -> PerfConfig:
    """The process-global performance configuration."""
    return _CONFIG


def register_cache_clearer(fn: Callable[[], None]) -> Callable[[], None]:
    """Register a callable that drops one cache's entries; returns it so
    the call can be used as a decorator."""
    _CLEARERS.append(fn)
    return fn


def clear_all_caches() -> None:
    """Empty every registered cache (verification, canonical keys,
    challenges, fixed-base windows).  Never changes results — only makes
    the next operations cold."""
    for fn in _CLEARERS:
        fn()


def configure(enabled: bool | None = None, **flags: bool) -> PerfConfig:
    """Flip performance flags at runtime; clears all caches so that a
    newly disabled flag leaves no warm state behind (and a benchmark's
    "off" measurement is genuinely cold).  Unknown names — including the
    per-mechanism switches folded into ``enabled`` — raise
    ``AttributeError``."""
    known = {field.name for field in fields(PerfConfig)}
    for name in flags:
        if name not in known:
            raise AttributeError(f"unknown perf flag {name!r}")
    if enabled is not None:
        _CONFIG.enabled = bool(enabled)
    for name, value in flags.items():
        setattr(_CONFIG, name, value)
    clear_all_caches()
    return _CONFIG
