"""The benchmark's three workloads: how each is built, run and checked.

Every workload is a function of one integer seed.  ``build(seed)`` is the
set-up the benchmark times as ``setup_s`` (UGen / ``build_uls_states``,
fault-plan generation, program and runner construction); the returned
:class:`Network` carries the runner plus what the output checks need.
``check(network, execution)`` runs after the timed region and classifies
every operation of the run (see :class:`Outcome`).

Seeds are integers only: ``build_uls_states`` seeds string seeds with the
per-process salted ``hash()``, so a string seed would give a different key
set in every process (see README.md, "Seeding").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.adversary.limits import audit_st_limited
from repro.core.authenticator import compile_protocol
from repro.core.disperse import DisperseService
from repro.core.uls import UlsProgram, build_uls_states, uls_schedule
from repro.crypto.group import named_group
from repro.crypto.schnorr import SchnorrScheme
from repro.faults import FaultInjectionAdversary, FaultPlan
from repro.sim.adversary_api import PassiveAdversary
from repro.sim.clock import Phase, Schedule
from repro.sim.node import ALERT, NodeProgram
from repro.sim.runner import ULRunner

GROUP = named_group("toy64")
SCHEME = SchnorrScheme(GROUP)
T = 2
SPARSE_RELAY = 2 * T + 1  # the §6 relaxation: DISPERSE floods 2t+1 relays


@dataclass
class Network:
    """One built workload instance (the output of the timed set-up)."""

    runner: ULRunner
    programs: list
    units: int
    plan: FaultPlan | None = None


@dataclass
class Outcome:
    """Operations of one run, classified after it ended.

    ``attempted``/``failed`` count only operations the paper guarantees:
    node refreshes, and messages (Λ app messages, ring app messages, flood
    probes) whose sender and receiver stayed s-operational from the send
    round to the due delivery round.  ``unguaranteed`` counts messages
    outside that promise — a faulted endpoint, or still in flight when the
    run ended.  ``errors`` lists every failed output check.
    """

    attempted: int = 0
    failed: int = 0
    unguaranteed: int = 0
    app_accepted: int = 0
    errors: list[str] = field(default_factory=list)


# -- programs ---------------------------------------------------------------


class RingUlsProgram(UlsProgram):
    """A ULS node that also sends one authenticated application message
    per normal round to the node ``offset`` places on around the ring
    (``UlsCore.app_send``), so the refresh workload has steady AUTH-SEND
    traffic around its refresh."""

    def __init__(self, *args: Any, offset: int, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.offset = offset

    def step(self, ctx, inbox) -> None:
        super().step(ctx, inbox)
        if ctx.info.phase is Phase.SETUP:
            return
        for source, message in self.core.app_accepted():
            ctx.output(("app-recv", source, "ring", message))
        if ctx.info.phase is Phase.NORMAL:
            target = (self.node_id + self.offset) % ctx.n
            message = ("ring", self.node_id, ctx.info.round)
            self.core.app_send(ctx, target, message)
            ctx.output(("app-sent", target, "ring", message))


class AllToAllChatter(NodeProgram):
    """The AL protocol π compiled by Λ: every normal round each node sends
    one message to each of its n-1 peers."""

    def step(self, ctx, inbox) -> None:
        if ctx.info.phase is Phase.NORMAL:
            for receiver in range(ctx.n):
                if receiver != self.node_id:
                    ctx.send(receiver, "chat", (self.node_id, ctx.info.round))


class FloodChatter(NodeProgram):
    """Crypto-free ring-probe DISPERSE chatter (one retransmission)."""

    def __init__(self, relay_fanout: int, offset: int) -> None:
        super().__init__()
        self.disperse = DisperseService(relay_fanout=relay_fanout, retransmit=1)
        self.offset = offset
        self.sent: list[tuple[int, tuple, int]] = []  # (target, probe, round)
        self.delivered: list[tuple[int, Any]] = []

    def step(self, ctx, inbox) -> None:
        self.disperse.on_round(ctx, inbox)
        self.delivered.extend(self.disperse.receipts(""))
        if ctx.info.phase is Phase.NORMAL:
            target = (self.node_id + self.offset) % ctx.n
            probe = ("probe", self.node_id, ctx.info.round)
            self.disperse.send(ctx, target, probe)
            self.sent.append((target, probe, ctx.info.round))


def _ring_offset(seed: int, n: int) -> int:
    return 1 + seed % (n - 1)


# -- builders (the timed set-up) --------------------------------------------


REFRESH_N = 25
REFRESH_UNITS = 2  # URfr runs at unit boundaries: two units = one refresh
# long normal phases give normal_round_ms_p50 120 samples per iteration
REFRESH_SCHEDULE = uls_schedule(normal_rounds=60)


def build_refresh(seed: int) -> Network:
    _public, states, keys = build_uls_states(GROUP, SCHEME, REFRESH_N, T, seed=seed)
    offset = _ring_offset(seed, REFRESH_N)
    programs = [
        RingUlsProgram(states[i], SCHEME, keys[i], relay_fanout=SPARSE_RELAY,
                       offset=offset)
        for i in range(REFRESH_N)
    ]
    runner = ULRunner(programs, PassiveAdversary(), REFRESH_SCHEDULE, s=T, seed=seed)
    return Network(runner, programs, REFRESH_UNITS)


LAMBDA_N = 7
LAMBDA_UNITS = 5
LAMBDA_SCHEDULE = uls_schedule(normal_rounds=120)


def build_lambda(seed: int) -> Network:
    _public, states, keys = build_uls_states(GROUP, SCHEME, LAMBDA_N, T, seed=seed)
    programs = compile_protocol(
        [AllToAllChatter() for _ in range(LAMBDA_N)], states, SCHEME, keys)
    plan = FaultPlan.generate(seed=seed, n=LAMBDA_N, t=T,
                              schedule=LAMBDA_SCHEDULE, units=LAMBDA_UNITS)
    runner = ULRunner(programs, FaultInjectionAdversary(plan), LAMBDA_SCHEDULE,
                      s=T, seed=seed)
    return Network(runner, programs, LAMBDA_UNITS, plan)


FLOOD_N = 49
FLOOD_UNITS = 80
FLOOD_SCHEDULE = Schedule(setup_rounds=2, refresh_rounds=2, normal_rounds=20)


def build_flood(seed: int) -> Network:
    offset = _ring_offset(seed, FLOOD_N)
    programs = [FloodChatter(SPARSE_RELAY, offset) for _ in range(FLOOD_N)]
    runner = ULRunner(programs, PassiveAdversary(), FLOOD_SCHEDULE, s=T, seed=seed)
    return Network(runner, programs, FLOOD_UNITS)


# -- output checks (outside the timed region) --------------------------------


def _guaranteed(records, sender: int, receiver: int, sent_round: int, delay: int) -> bool:
    """Whether the paper promises delivery: both endpoints s-operational
    in every round from the send to the due delivery, inside the run."""
    due = sent_round + delay
    if due >= len(records):
        return False
    return all(
        sender in records[r].operational and receiver in records[r].operational
        for r in range(sent_round, due + 1)
    )


def _check_app_messages(network: Network, execution, outcome: Outcome) -> None:
    """Every app-recv matches an app-sent from that source; every
    guaranteed app-sent is received."""
    sent: dict[tuple, int] = {}
    for source, outputs in enumerate(execution.node_outputs):
        for round_number, entry in outputs:
            if isinstance(entry, tuple) and entry[:1] == ("app-sent",):
                sent[(source, entry[1], entry[2], entry[3])] = round_number
    received: set[tuple] = set()
    for receiver, outputs in enumerate(execution.node_outputs):
        for _round, entry in outputs:
            if isinstance(entry, tuple) and entry[:1] == ("app-recv",):
                key = (entry[1], receiver, entry[2], entry[3])
                if key not in sent:
                    outcome.errors.append(f"app-recv without app-sent: {key!r}")
                received.add(key)
    outcome.app_accepted = len(received)
    delay = network.programs[0].core.transport.delay
    for key, round_number in sent.items():
        if not _guaranteed(execution.records, key[0], key[1], round_number, delay):
            outcome.unguaranteed += 1
            continue
        outcome.attempted += 1
        if key not in received:
            outcome.failed += 1


def _check_refreshes(network: Network, execution, outcome: Outcome) -> None:
    """One op per node per refresh: fails unless the key history says ok,
    the node did not alert and its share refresh did not fail."""
    for node, program in enumerate(network.programs):
        history = dict(program.core.keystore.history)
        refresh_failed = {
            event["unit"] for event in program.core.degraded_log
            if event["reason"] == "share-refresh-failed"
        }
        for unit in range(1, network.units):
            outcome.attempted += 1
            if (history.get(unit) != "ok" or unit in program.core.alert_units
                    or unit in refresh_failed):
                outcome.failed += 1
                outcome.errors.append(f"node {node} refresh of unit {unit} failed")


def check_refresh(network: Network, execution) -> Outcome:
    outcome = Outcome()
    _check_refreshes(network, execution, outcome)
    _check_app_messages(network, execution, outcome)
    for node, program in enumerate(network.programs):
        if program.keystore.history != [(1, "ok")]:
            outcome.errors.append(f"node {node} history {program.keystore.history!r}")
        if not program.state.share_is_valid():
            outcome.errors.append(f"node {node} ends with an invalid share")
        if program.core.refresher.rejected_dealers:
            outcome.errors.append(f"node {node} rejected dealers "
                                  f"{sorted(program.core.refresher.rejected_dealers)}")
    return outcome


def check_lambda(network: Network, execution) -> Outcome:
    outcome = Outcome()
    _check_refreshes(network, execution, outcome)
    _check_app_messages(network, execution, outcome)
    audit = audit_st_limited(execution, T)
    if not audit.within_limits:
        outcome.errors.append(f"(s,t) limits exceeded: {audit.violations!r}")
    for node, outputs in enumerate(execution.node_outputs):
        if any(entry == ALERT for _round, entry in outputs):
            outcome.errors.append(f"node {node} alerted")
    return outcome


def check_flood(network: Network, execution) -> Outcome:
    outcome = Outcome()
    records = execution.records
    received = [set(program.delivered) for program in network.programs]
    for source, program in enumerate(network.programs):
        for target, probe, round_number in program.sent:
            if not _guaranteed(records, source, target, round_number,
                               DisperseService.RETX_INTERVAL):
                outcome.unguaranteed += 1
                continue
            outcome.attempted += 1
            if (source, probe) not in received[target]:
                outcome.failed += 1
    outcome.app_accepted = sum(map(len, received))
    return outcome


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], Network]
    check: Callable[[Network, Any], Outcome]
    #: PerfConfig flags the workload runs under (restored afterwards)
    perf_flags: dict


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("refresh-n25", build_refresh, check_refresh, {"msg_volume": True}),
        Workload("lambda-chaos-n7", build_lambda, check_lambda, {"msg_volume": False}),
        Workload("flood-n49", build_flood, check_flood, {"msg_volume": False}),
    )
}
