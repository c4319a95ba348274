"""Honest senders put the ``CertifiedMessage`` itself on the wire.

One certified object travels by reference to every relay and receiver,
which is what lets each message compute its signed bytes once.  These
tests pin that sharing: a ``tuple(...)`` copy anywhere between CERTIFY
and the PARTIAL-AGREEMENT records fails here instead of silently costing
a re-encoding per receiver.
"""

import pytest

from repro.core import auth_send
from repro.core.auth_send import AuthSendTransport
from repro.core.uls import UlsProgram, build_uls_states, uls_schedule
from repro.crypto.group import named_group
from repro.crypto.schnorr import SchnorrScheme
from repro.perf import configure
from repro.sim.adversary_api import PassiveAdversary
from repro.sim.runner import ULRunner

GROUP = named_group("toy64")
SCHEME = SchnorrScheme(GROUP)
N, T = 5, 2


@pytest.mark.parametrize("msg_volume", [False, True])
def test_receivers_and_pa_records_share_the_certified_object(perf, monkeypatch, msg_volume):
    configure(enabled=True, msg_volume=msg_volume)
    certified = {}  # id -> object returned by certify (kept alive)
    accepted = []  # (receiving transport, accepted raw)
    real_certify = auth_send.certify
    real_begin_round = AuthSendTransport.begin_round

    def recording_certify(*args, **kwargs):
        msg = real_certify(*args, **kwargs)
        if msg is not None:
            certified[id(msg)] = msg
        return msg

    def recording_begin_round(self, ctx, inbox):
        real_begin_round(self, ctx, inbox)
        accepted.extend((self, item.raw) for item in self.accepted_certified_view())

    monkeypatch.setattr(auth_send, "certify", recording_certify)
    monkeypatch.setattr(AuthSendTransport, "begin_round", recording_begin_round)

    public, states, keys = build_uls_states(GROUP, SCHEME, N, T, seed=6)
    programs = [UlsProgram(states[i], SCHEME, keys[i]) for i in range(N)]
    ULRunner(programs, PassiveAdversary(), uls_schedule(), s=T, seed=6).run(units=2)

    # every acceptance holds the very object its sender's certify returned
    assert accepted
    receivers = {}
    for transport, raw in accepted:
        assert certified.get(id(raw)) is raw
        receivers.setdefault(id(raw), set()).add(id(transport))
    if msg_volume:
        # a broadcast certificate: one object, accepted by every other node
        assert max(len(nodes) for nodes in receivers.values()) == N - 1

    # PA records (step 1 and step-3 re-dispersals) hold that object too
    pa_raws = [
        raw
        for program in programs
        for session in program.core.pa.sessions.values()
        for bucket in session.records.values()
        for _value, raw in bucket.values()
        if raw is not None
    ]
    assert pa_raws
    for raw in pa_raws:
        assert certified.get(id(raw)) is raw
