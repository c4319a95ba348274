"""The simulation floor: golden transcript digests, compact records,
bounded DISPERSE bookkeeping, and the faithfulness fast path.

The sim-floor mechanisms (inbox demux, lazy rng, faithful fast path,
zero-copy records, fault indexing) are unconditional, so there is no
in-process "off" twin to compare against.  Their transcript neutrality is
pinned instead by golden digests recorded with the per-mechanism
switches still in place (every one of them on and off gave these same
digests), checked with the crypto layer both on and off.  Compact
records are covered separately — they intentionally drop the envelopes,
so their parity claim goes through the streaming
:class:`~repro.analysis.digest.RoundsDigest` instead.
"""

from repro.analysis.digest import rounds_digest, transcript_digest
from repro.core.disperse import DisperseService
from repro.faults import FaultInjectionAdversary, FaultPlan
from repro.perf import configure
from repro.sim.adversary_api import FaithfulPlan
from repro.sim.clock import Schedule
from repro.sim.messages import Envelope
from repro.sim.node import NodeContext, NodeProgram
from repro.sim.runner import Runner, ULRunner
from repro.sim.transcript import CompactRoundRecord, RoundRecord

N, T = 5, 2
SCHED = Schedule(setup_rounds=2, refresh_rounds=4, normal_rounds=8)
UNITS = 2

#: ``transcript_digest(_run(seed)[0])`` before the sim-floor switches
#: were folded into the single path
PREFOLD_DIGESTS = {
    0: "490d678af80bcd22d81229a1c2b180b0e761ecdddb678ab6f209a749bea92b96",
    3: "bbd3b6b6109754e64a62d72b314efed30d080fe5381710cb4b721fade29823e0",
    7: "046f32f3c3d559bdfefc14cfadb7b9ef6b2a9992cfe8866cd903838d75327022",
    11: "b960d4c53bc405a138981f11d792c8372c72b0c55cf8bff2dc1c9804dd9b6667",
}


class Chatter(NodeProgram):
    """Ring-probe DISPERSE chatter — the crypto-free floor workload."""

    def __init__(self) -> None:
        super().__init__()
        self.disperse = DisperseService(retransmit=1)
        self.delivered: list = []
        self.secret = "initial-secret"  # default corruption target

    def step(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        self.disperse.on_round(ctx, inbox)
        self.delivered.extend(self.disperse.receipts(""))
        if ctx.info.phase.value == "normal":
            target = (self.node_id + 1) % ctx.n
            self.disperse.send(ctx, target, ("probe", self.node_id, ctx.info.round))


def _run(seed=3, *, units=UNITS, stream_digest=False):
    plan = FaultPlan.generate(seed=seed, n=N, t=T, schedule=SCHED, units=units)
    programs = [Chatter() for _ in range(N)]
    runner = ULRunner(programs, FaultInjectionAdversary(plan), SCHED,
                      s=T, seed=seed, stream_digest=stream_digest)
    execution = runner.run(units=units)
    return execution, programs


# ------------------------------------------------- golden transcripts

def test_floor_transcripts_match_prefold_digests(perf):
    for seed, expected in PREFOLD_DIGESTS.items():
        assert transcript_digest(_run(seed)[0]) == expected, f"seed {seed} diverged"


def test_floor_layer_neutral_across_seeds(perf):
    configure(enabled=False)
    for seed, expected in PREFOLD_DIGESTS.items():
        assert transcript_digest(_run(seed)[0]) == expected, f"seed {seed} diverged"


# ------------------------------------------------------ compact records

def test_compact_records_keep_rounds_digest_parity(perf):
    configure(enabled=True, compact_records=False)
    full, _ = _run(stream_digest=True)
    expected = rounds_digest(full)
    # streaming digest over full records equals the post-hoc one
    assert full.rounds_digest == expected
    assert all(isinstance(record, RoundRecord) for record in full.records)

    configure(enabled=True, compact_records=True)
    compact, _ = _run(stream_digest=True)
    assert compact.rounds_digest == expected
    assert all(isinstance(record, CompactRoundRecord) for record in compact.records)
    # count-level views survive compaction
    assert compact.messages_sent() == full.messages_sent()
    assert [r.broken for r in compact.records] == [r.broken for r in full.records]
    assert [r.operational for r in compact.records] == [r.operational for r in full.records]
    assert ([r.delivered_count for r in compact.records]
            == [r.delivered_count for r in full.records])
    assert compact.system_log == full.system_log


# ------------------------------------- bounded DISPERSE state (bugfix)

def test_disperse_relay_dedup_stays_bounded_across_units(perf):
    execution, programs = _run(seed=5, units=4)
    for program in programs:
        service = program.disperse
        # before the fix _relayed accumulated one key per relayed flood
        # for the whole run; now it holds at most the last round's keys
        assert service.messages_relayed > 4 * N
        assert len(service._relayed) <= 4 * N
        assert len(service._fanout_targets) <= N


def test_disperse_relay_dedup_bounded_with_layer_off(perf):
    # the pruning is an unconditional bugfix, not a perf flag
    configure(enabled=False)
    execution, programs = _run(seed=5, units=4)
    for program in programs:
        service = program.disperse
        assert service.messages_relayed > 4 * N
        assert len(service._relayed) <= 4 * N


# ----------------------------------------------- faithful-plan proving

def test_faithful_plan_build_marks_and_mutation_unmarks():
    traffic = (Envelope(0, 1, "c", "x", 4), Envelope(2, 1, "c", "y", 4))
    plan = FaithfulPlan.build(traffic, 3)
    assert plan.source is traffic
    assert sorted(plan) == [0, 1, 2]
    assert plan[1] == list(traffic)
    plan[0] = []  # key-level mutation drops the provenance
    assert plan.source is None


def test_faithful_plan_pickle_roundtrip_drops_marker():
    import pickle

    traffic = (Envelope(0, 1, "c", "x", 4),)
    plan = FaithfulPlan.build(traffic, 2)
    clone = pickle.loads(pickle.dumps(plan))
    assert type(clone) is dict
    assert clone == {0: [], 1: list(traffic)}


# ------------------------------------------- _plan_is_faithful edges

def _env(sender, receiver, payload="x", round_sent=1):
    return Envelope(sender, receiver, "c", payload, round_sent)


def test_plan_is_faithful_accepts_equal_copy_substitution():
    original = _env(0, 1)
    copy = _env(0, 1)  # distinct object, equal content
    assert copy is not original
    assert Runner._plan_is_faithful((original,), {0: [], 1: [copy], 2: []})


def test_plan_is_faithful_rejects_receiver_missing_from_plan():
    # traffic for node 1 but the plan has no inbox for it at all
    assert not Runner._plan_is_faithful((_env(0, 1),), {0: [], 2: []})


def test_plan_is_faithful_rejects_extra_traffic_in_plan():
    sent = _env(0, 1)
    injected = _env(0, 2)
    assert not Runner._plan_is_faithful((sent,), {1: [sent], 2: [injected]})


def test_plan_is_faithful_allows_empty_inbox_receivers():
    sent = _env(0, 1)
    assert Runner._plan_is_faithful((sent,), {0: [], 1: [sent], 2: [], 3: []})
    # a plan-only receiver with an empty inbox is fine; a non-empty one is not
    assert not Runner._plan_is_faithful((), {0: [_env(1, 0)]})
    assert Runner._plan_is_faithful((), {0: [], 1: []})


# --------------------------------------- Envelope hashing fallback

def test_envelope_hash_raises_for_unhashable_payload_and_stays_usable():
    import pytest

    hashable = _env(0, 1, payload=("t", 1))
    assert hash(hashable) == hash(hashable)  # memoized, stable

    unhashable = _env(0, 1, payload=["list", "payload"])
    with pytest.raises(TypeError):
        hash(unhashable)
    with pytest.raises(TypeError):
        hash(unhashable)  # the failed attempt must not cache garbage
    # equality is unaffected
    assert unhashable == _env(0, 1, payload=["list", "payload"])


def test_unreliable_links_fall_back_on_unhashable_payloads(perf):
    """A direction carrying unhashable payloads goes through the legacy
    multiset comparison and still classifies drops correctly."""

    class Dropper:
        pass

    runner = object.__new__(ULRunner)
    runner.n = 3

    sent_ok = _env(0, 1, payload=["unhashable"])
    sent_dropped = _env(1, 2, payload=["also-unhashable"], round_sent=1)
    traffic = (sent_ok, sent_dropped)
    # equal-content copy delivered on 0->1 (id-counts differ, content equal);
    # 1->2 dropped entirely
    plan = {0: [], 1: [_env(0, 1, payload=["unhashable"])], 2: []}
    unreliable = Runner._unreliable_links(runner, traffic, plan, frozenset())
    assert unreliable == frozenset({frozenset({1, 2})})
