"""Canonical transcript digests for determinism replay checks.

A transcript digest is a SHA-256 over the full
:class:`~repro.sim.transcript.Execution` — round records, system log,
node outputs and adversary output — in a *canonical, process-independent*
form: sets are sorted (frozenset iteration order depends on
``PYTHONHASHSEED``), dicts are sorted by key, envelopes are flattened.
Two runs digest identically iff they produced bit-identical transcripts.

This is the primitive behind every determinism claim in the repo: the E8
and E14 benchmarks hash layer-on vs layer-off runs with it (via the
``benchmarks/common.py`` re-export), and the adaptive chaos campaigns
(:mod:`repro.faults.campaign`, experiment E15) hash replayed campaign
runs to prove that the same campaign seed reproduces every per-run
transcript exactly.
"""

from __future__ import annotations

import hashlib

from repro.sim.messages import Envelope

__all__ = [
    "stable_form",
    "transcript_digest",
    "outcome_digest",
    "RoundsDigest",
    "rounds_digest",
]


def stable_form(value):
    """A canonical, process-independent form of transcript values."""
    if isinstance(value, Envelope):
        return ("Env", value.sender, value.receiver, value.channel,
                stable_form(value.payload), value.round_sent)
    if isinstance(value, (set, frozenset)):
        return ("set",) + tuple(sorted((stable_form(v) for v in value), key=repr))
    if isinstance(value, dict):
        return ("dict",) + tuple(
            sorted(((stable_form(k), stable_form(v)) for k, v in value.items()), key=repr)
        )
    if isinstance(value, (tuple, list)):
        return tuple(stable_form(v) for v in value)
    return value


def _put_stable(put, value) -> None:
    """Feed ``repr(stable_form(value))`` to ``put`` piece by piece: tuples,
    lists and int-keyed dicts are streamed element by element; anything
    else (an envelope, a set) is one piece."""
    if isinstance(value, (tuple, list)):
        put("(")
        for index, item in enumerate(value):
            put(", " if index else "")
            _put_stable(put, item)
        put(",)" if len(value) == 1 else ")")
    elif isinstance(value, dict) and value and all(type(k) is int for k in value):
        # stable_form sorts the pairs by repr; "(k, …" compares as str(k) + ","
        put("('dict'")
        for key in sorted(value, key=lambda k: f"{k},"):
            put(f", ({key}, ")
            _put_stable(put, value[key])
            put(")")
        put(")")
    else:
        put(repr(stable_form(value)))


def transcript_digest(execution) -> str:
    """SHA-256 over the full execution transcript in canonical form.

    The value is ``sha256(repr(payload))`` of the payload
    ``([(info, sent, delivered, broken, operational, unreliable_links)
    per record], system_log, node_outputs, adversary_output)`` in stable
    form, fed to the hash piece by piece: the whole repr of a large run
    runs to several GB (E8 at n = 25 with the message-volume layer off),
    one envelope's does not.
    """
    sha = hashlib.sha256()

    def put(text: str) -> None:
        sha.update(text.encode("utf-8"))

    put("([")
    for index, record in enumerate(execution.records):
        put(f", ({record.info!r}, " if index else f"({record.info!r}, ")
        for value in (record.sent, record.delivered, record.broken, record.operational):
            _put_stable(put, value)
            put(", ")
        _put_stable(put, record.unreliable_links)
        put(")")
    put("], ")
    _put_stable(put, execution.system_log)
    put(", ")
    _put_stable(put, execution.node_outputs)
    put(", ")
    _put_stable(put, execution.adversary_output)
    put(")")
    return sha.hexdigest()


def outcome_digest(execution) -> str:
    """SHA-256 over the *protocol outcomes* of an execution: node outputs,
    system log and adversary output — everything the paper's global output
    contains — but not the wire traffic.

    This is the parity primitive for the message-volume layer
    (``PerfConfig.msg_volume``): unlike every other perf flag it changes
    *which* envelopes are sent, so :func:`transcript_digest` equality is
    impossible by construction; what must (and does) coincide is what the
    protocols *did* — keys certified, signatures produced, alerts raised,
    dealers rejected.  Two runs with identical outcome digests emulated
    each other in the Definition 5 sense for a traffic-blind environment.
    """
    payload = (
        stable_form(execution.node_outputs),
        stable_form(execution.system_log),
        stable_form(execution.adversary_output),
    )
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


class RoundsDigest:
    """Incremental canonical digest over per-round traffic.

    One :meth:`update` per round hashes the same canonical tuple that
    :func:`transcript_digest` builds for a full record, so a run that
    streams this digest while keeping only compact records stays
    digest-comparable to a full-mode run (see :func:`rounds_digest`).
    The per-round canonical forms are hashed as they arrive and then
    dropped — memory use is O(1) in the number of rounds.
    """

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def update(self, info, sent, delivered, broken, operational, unreliable_links) -> None:
        form = (
            info,
            stable_form(sent),
            stable_form(delivered),
            stable_form(broken),
            stable_form(operational),
            stable_form(unreliable_links),
        )
        self._hash.update(repr(form).encode("utf-8"))

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def rounds_digest(execution) -> str:
    """The :class:`RoundsDigest` of a full-mode execution's records.

    Equals ``execution.rounds_digest`` of a compact-records run of the
    same protocol iff the two runs delivered bit-identical round traffic —
    the parity check the E16 benchmark performs for compact mode.
    """
    digest = RoundsDigest()
    for record in execution.records:
        digest.update(
            record.info,
            record.sent,
            record.delivered,
            record.broken,
            record.operational,
            record.unreliable_links,
        )
    return digest.hexdigest()
