"""The performance layer: caches, precomputation and batching.

Everything in this package except ``msg_volume`` is
*transcript-neutral*: switching the layer on or off (``enabled``,
``REPRO_PERF=0``) changes wall-clock time, never protocol behaviour.  The
E14 benchmark (``benchmarks/bench_e14_perf.py``) measures the layer
against its reference path and asserts bit-identical transcripts both
ways; ``docs/PROTOCOLS.md`` §12 states the security argument for each
piece.

Components:

* :mod:`repro.perf.config` — the three process-global switches
  (``enabled``, ``compact_records``, ``msg_volume``);
* :mod:`repro.perf.cache` — the signature-verification cache and the
  identity-keyed canonical-encoding cache;
* :mod:`repro.perf.fixed_base` — fixed-base exponentiation windows used
  by :class:`repro.crypto.group.SchnorrGroup` for ``g`` and long-lived
  keys such as ``v_cert``.

Batch Schnorr verification lives with the scheme itself
(:meth:`repro.crypto.schnorr.SchnorrScheme.batch_verify`); the batched
VER-CERT entry point is :func:`repro.core.certify.ver_cert_many`.
"""

from repro.perf.cache import (
    CanonicalKeyCache,
    VerificationCache,
    cached_verify,
    canonical_body_key,
    invalidate_verify_key,
    verification_cache,
)
from repro.perf.config import (
    PerfConfig,
    clear_all_caches,
    configure,
    perf_config,
    register_cache_clearer,
)
from repro.perf.fixed_base import FixedBaseWindow
from repro.perf.volume import BROADCAST, responder_sample, sample_size

__all__ = [
    "BROADCAST",
    "responder_sample",
    "sample_size",
    "PerfConfig",
    "perf_config",
    "configure",
    "register_cache_clearer",
    "clear_all_caches",
    "VerificationCache",
    "verification_cache",
    "cached_verify",
    "invalidate_verify_key",
    "CanonicalKeyCache",
    "canonical_body_key",
    "FixedBaseWindow",
]
