"""A streaming canonical transcript digest for large executions.

``repro.analysis.digest.transcript_digest`` builds the whole canonical
form of an execution in memory and hashes its ``repr``: on the benchmark's
workloads that costs 121 s for ``refresh-n25`` and 30 s plus 1.3 GB for
``flood-n49`` (2-core x86 VM).  This digest covers the same content —
every round's info, sent envelopes, delivered inboxes, broken,
operational and unreliable-link sets, then node outputs, system log and
adversary output — hashed round by round:

* a payload's nested tuples are rendered once per object (flooded bodies
  are shared by every relay hop), and
* a delivered envelope that is the very object sent this round is
  rendered as its index in ``sent``; any other delivered envelope is
  rendered by content.

Sets are sorted through ``stable_form``, so the digest does not depend on
``PYTHONHASHSEED``; two executions digest equal iff their transcripts are
equal.  It takes 5-6 s on either workload above.
"""

from __future__ import annotations

import hashlib

from repro.analysis.digest import stable_form

_SCALARS = frozenset((int, str, bytes, bool, float, type(None)))


def transcript_digest(execution) -> str:
    memo: dict[int, tuple[object, str]] = {}  # holds the object: ids stay unique

    def render(value, shared: bool = True) -> str:
        kind = type(value)
        if kind in _SCALARS:
            return repr(value)
        if isinstance(value, tuple):
            if not shared:
                return "(" + ",".join([render(item) for item in value]) + ")"
            entry = memo.get(id(value))
            if entry is None:
                text = "(" + ",".join([render(item) for item in value]) + ")"
                entry = memo[id(value)] = (value, text)
            return entry[1]
        return repr(stable_form(value))

    def envelope(e) -> str:
        return "%d>%d %r %d %s" % (e.sender, e.receiver, e.channel, e.round_sent,
                                   render(e.payload, shared=False))

    digest = hashlib.sha256()
    for record in execution.records:
        sent = record.sent
        index = {id(e): i for i, e in enumerate(sent)}
        parts = [repr(record.info)]
        parts.extend(envelope(e) for e in sent)
        for receiver in sorted(record.delivered):
            parts.append("@%d" % receiver)
            for e in record.delivered[receiver]:
                i = index.get(id(e))
                parts.append("#%d" % i if i is not None else envelope(e))
        parts.append(repr(stable_form(record.broken)))
        parts.append(repr(stable_form(record.operational)))
        parts.append(repr(stable_form(record.unreliable_links)))
        digest.update("\n".join(parts).encode("utf-8"))
    digest.update(repr((
        stable_form(execution.node_outputs),
        stable_form(execution.system_log),
        stable_form(execution.adversary_output),
    )).encode("utf-8"))
    return digest.hexdigest()
