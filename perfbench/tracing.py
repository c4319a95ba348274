"""In-memory span recorder installed around the program's public entry points.

Nothing here changes the program: :func:`instrument` wraps classes,
functions and the runner/adversary/program instances of one built
network from outside, and :meth:`Instrumentation.remove` restores every
original.  Each span records its name, start, end, parent span and the
round it ran in; a span's *self time* is its duration minus the time its
direct children cover, accumulated per span name as the run goes.

Layer metric names map onto span names and counters in
:func:`layer_metrics`; README.md gives the layer → metric → end-to-end map.
"""

from __future__ import annotations

import importlib
import json
import pathlib
import sys
from array import array
from time import perf_counter
from typing import Any, Callable

from repro.core.auth_send import AuthSendTransport
from repro.core.disperse import DisperseService
from repro.core.partial_agreement import PartialAgreementService
from repro.core.uls import UlsCore
from repro.crypto import feldman, hashing
from repro.crypto.schnorr import SchnorrScheme
from repro.perf import cache as perf_cache
from repro.perf.cache import verification_cache
from repro.perf.share_image import share_image_cache
from repro.pds.refresh import RefreshService
from repro.pds.threshold_schnorr import ThresholdSigner

# the package re-exports the function ``certify`` under the module's name
certify_module = importlib.import_module("repro.core.certify")


class SpanRecorder:
    """Columnar span store plus per-name self-time and call totals."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array("i")
        self.parent_col = array("i")
        self.round_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self.counts: dict[str, int] = {}
        self.round_id = -1
        self._stack: list[list] = []  # [span index, child time]

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return nid

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def call(self, nid: int, fn: Callable, args: tuple, kwargs: dict) -> Any:
        stack = self._stack
        index = len(self.start_col)
        self.name_col.append(nid)
        self.parent_col.append(stack[-1][0] if stack else -1)
        self.round_col.append(self.round_id)
        self.start_col.append(0.0)
        self.end_col.append(0.0)
        frame = [index, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.start_col[index] = start
            self.end_col[index] = end
            duration = end - start
            self.self_s[nid] += duration - frame[1]
            self.calls[nid] += 1
            if stack:
                stack[-1][1] += duration

    def self_time(self, *names: str) -> float:
        return sum(self.self_s[self._ids[n]] for n in names if n in self._ids)

    def call_count(self, *names: str) -> int:
        return sum(self.calls[self._ids[n]] for n in names if n in self._ids)

    def total_self_s(self) -> float:
        return sum(self.self_s)

    def write(self, path: pathlib.Path) -> None:
        """Write the spans: a JSON index beside one binary file of columns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = ("name", "parent", "round", "start", "end")
        arrays = (self.name_col, self.parent_col, self.round_col,
                  self.start_col, self.end_col)
        with open(path.with_suffix(".bin"), "wb") as handle:
            for column in arrays:
                column.tofile(handle)
        index = {
            "spans": len(self.start_col),
            "names": self.names,
            "columns": [{"name": c, "typecode": a.typecode, "itemsize": a.itemsize}
                        for c, a in zip(columns, arrays)],
            "byteorder": sys.byteorder,
        }
        path.with_suffix(".json").write_text(json.dumps(index) + "\n")


class Instrumentation:
    """Installed wrappers; :meth:`remove` puts every original back."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[Any, str, Any, bool]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        had_own = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original, had_own in reversed(self._undo):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()

    def span(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """``fn`` wrapped in a span; ``after(result, args)`` may count."""
        recorder = self.recorder
        nid = recorder.name_id(name)
        call = recorder.call
        if after is None:
            def wrapper(*args, **kwargs):
                return call(nid, fn, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                result = call(nid, fn, args, kwargs)
                after(result, args)
                return result
        return wrapper

    def wrap_method(self, cls: type, attr: str, name: str,
                    after: Callable | None = None) -> None:
        self._set(cls, attr, self.span(name, getattr(cls, attr), after))

    def wrap_function(self, module: Any, attr: str, wrapper_for: Callable) -> None:
        """Replace a module function everywhere a ``repro`` module bound it
        by name (``from m import f`` copies the reference)."""
        original = getattr(module, attr)
        wrapper = wrapper_for(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "repro" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)


def instrument(network) -> Instrumentation:
    """Wrap every layer entry point the per-layer metrics name."""
    recorder = SpanRecorder()
    inst = Instrumentation(recorder)
    count = recorder.count

    # sim: the runner, one round span per round, the node programs
    runner = network.runner
    inst._set(runner, "run", inst.span("sim.run", runner.run))
    run_round = runner._run_round
    round_nid = recorder.name_id("sim.round")

    def traced_round(info):
        recorder.round_id = info.round
        return recorder.call(round_nid, run_round, (info,), {})

    inst._set(runner, "_run_round", traced_round)
    for program in network.programs:
        inst._set(program, "step", inst.span("sim.step", program.step))

    # adversary / faults
    adversary = runner.adversary
    inst._set(adversary, "on_round", inst.span("adversary.on_round", adversary.on_round))
    inst._set(adversary, "deliver", inst.span("adversary.deliver", adversary.deliver))
    count("faults.planned_faults", network.plan.fault_count() if network.plan else 0)

    # core.disperse
    inst.wrap_method(DisperseService, "on_round", "disperse.on_round")
    inst.wrap_method(DisperseService, "send", "disperse.send",
                     lambda _r, _a: count("disperse.send_calls"))
    inst.wrap_method(DisperseService, "broadcast", "disperse.broadcast",
                     lambda _r, _a: count("disperse.broadcast_calls"))
    receipts = DisperseService.receipts

    def counted_receipts(self, tag=""):
        result = receipts(self, tag)
        count("disperse.receipts", len(result))
        return result

    inst._set(DisperseService, "receipts", counted_receipts)

    # core.auth_send (help escalations are counted at the transport boundary)
    def auth_sent(_result, args):
        body = args[-1]
        if isinstance(body, tuple) and body[:1] == ("rf-need",) and body[2:3] == ("esc",):
            count("refresh.help_escalations")

    inst.wrap_method(AuthSendTransport, "begin_round", "auth_send.begin_round",
                     lambda _r, args: count("auth_send.accepted",
                                            len(args[0].accepted_view())))
    inst.wrap_method(AuthSendTransport, "send", "auth_send.send", auth_sent)
    inst.wrap_method(AuthSendTransport, "send_broadcast", "auth_send.send", auth_sent)

    # core.certify
    inst.wrap_function(certify_module, "certify",
                       lambda fn: inst.span("certify.certify", fn))

    def ver_cert_one(result, _args):
        count("certify.ver_cert_items")
        count("certify.ver_cert_accepted", result is not None)

    def ver_cert_many(result, _args):
        count("certify.ver_cert_items", len(result))
        count("certify.ver_cert_accepted", sum(r is not None for r in result))

    for attr, after in (("ver_cert", ver_cert_one), ("verify_certified_body", ver_cert_one),
                        ("ver_cert_many", ver_cert_many)):
        inst.wrap_function(certify_module, attr,
                           lambda fn, after=after: inst.span("certify.ver_cert", fn, after))

    # core.partial_agreement, core.uls, pds.threshold_schnorr, pds.refresh
    inst.wrap_method(PartialAgreementService, "on_round", "pa.on_round",
                     lambda _r, args: count("pa.outputs", len(args[0].outputs())))
    start = PartialAgreementService.start

    def counted_start(self, ctx, pa_id, input_value):
        count("pa.sessions")
        return start(self, ctx, pa_id, input_value)

    inst._set(PartialAgreementService, "start", counted_start)
    inst.wrap_method(UlsCore, "on_round", "uls.on_round")

    def signer_round(_result, args):
        signer = args[0]
        count("signer.completed", len(signer.completed()))
        count("signer.failed", len(signer.failed()))

    inst.wrap_method(ThresholdSigner, "on_round", "signer.on_round", signer_round)
    inst.wrap_method(ThresholdSigner, "request", "signer.request",
                     lambda _r, _a: count("signer.requests"))
    inst.wrap_method(RefreshService, "on_round", "refresh.on_round")

    # crypto
    inst.wrap_method(SchnorrScheme, "sign", "crypto.sign")
    inst.wrap_method(SchnorrScheme, "verify", "crypto.verify")
    inst.wrap_method(SchnorrScheme, "batch_verify", "crypto.batch_verify",
                     lambda _r, args: count("crypto.batch_verify_items", len(args[1])))
    inst.wrap_function(feldman, "verify_shares_batch",
                       lambda fn: inst.span("crypto.feldman_batch", fn))

    encode_nid = recorder.name_id("crypto.encode")

    def encode_wrapper(fn):
        # encode_for_hash recurses through its module global: only the
        # outermost call is a span, nested calls go straight through
        depth = [0]

        def traced(value):
            if depth[0]:
                return fn(value)
            depth[0] = 1
            try:
                return recorder.call(encode_nid, fn, (value,), {})
            finally:
                depth[0] = 0
        return traced

    inst.wrap_function(hashing, "encode_for_hash", encode_wrapper)

    # perf
    inst.wrap_function(perf_cache, "canonical_body_key",
                       lambda fn: inst.span("perf.canonical_key", fn))
    return inst


def cache_counters() -> dict[str, int]:
    """Hit/miss counters of the verification and share-image caches."""
    verify = verification_cache()
    share = share_image_cache()
    return {"verify_hits": verify.hits, "verify_misses": verify.misses,
            "share_hits": share.hits, "share_misses": share.misses}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder: SpanRecorder, execution, programs,
                  caches_before: dict[str, int], caches_after: dict[str, int]) -> dict:
    """Every per-layer metric of one traced run, by name."""
    s = recorder.self_time
    calls = recorder.call_count
    counts = recorder.counts.get
    delta = {k: caches_after[k] - caches_before[k] for k in caches_after}
    cores = [program.core for program in programs if hasattr(program, "core")]
    items = counts("certify.ver_cert_items", 0)
    return {
        "sim.round_self_s": s("sim.round", "sim.run"),
        "sim.step_s": s("sim.step"),
        "sim.envelopes_sent": sum(record.sent_count for record in execution.records),
        "sim.envelopes_delivered": sum(record.delivered_count
                                       for record in execution.records),
        "adversary.on_round_s": s("adversary.on_round"),
        "adversary.deliver_s": s("adversary.deliver"),
        "adversary.unreliable_links": sum(len(record.unreliable_links)
                                          for record in execution.records),
        "faults.planned_faults": counts("faults.planned_faults", 0),
        "disperse.on_round_s": s("disperse.on_round"),
        "disperse.send_s": s("disperse.send", "disperse.broadcast"),
        "disperse.on_round_calls": calls("disperse.on_round"),
        "disperse.send_calls": counts("disperse.send_calls", 0),
        "disperse.broadcast_calls": counts("disperse.broadcast_calls", 0),
        "disperse.receipts": counts("disperse.receipts", 0),
        "auth_send.begin_round_s": s("auth_send.begin_round"),
        "auth_send.send_s": s("auth_send.send"),
        "auth_send.send_calls": calls("auth_send.send"),
        "auth_send.accepted": counts("auth_send.accepted", 0),
        "certify.certify_s": s("certify.certify"),
        "certify.certify_calls": calls("certify.certify"),
        "certify.ver_cert_s": s("certify.ver_cert"),
        "certify.ver_cert_items": items,
        "certify.accept_ratio": _ratio(counts("certify.ver_cert_accepted", 0), items),
        "pa.on_round_s": s("pa.on_round"),
        "pa.sessions": counts("pa.sessions", 0),
        "pa.outputs": counts("pa.outputs", 0),
        "uls.on_round_s": s("uls.on_round"),
        "uls.alerts": sum(len(core.alert_units) for core in cores),
        "signer.on_round_s": s("signer.on_round", "signer.request"),
        "signer.requests": counts("signer.requests", 0),
        "signer.completed": counts("signer.completed", 0),
        "signer.failed": counts("signer.failed", 0),
        "refresh.on_round_s": s("refresh.on_round"),
        "refresh.rejected_dealers": sum(len(core.refresher.rejected_dealers)
                                        for core in cores),
        "refresh.help_escalations": counts("refresh.help_escalations", 0),
        "crypto.sign_s": s("crypto.sign"),
        "crypto.sign_calls": calls("crypto.sign"),
        "crypto.verify_s": s("crypto.verify"),
        "crypto.verify_calls": calls("crypto.verify"),
        "crypto.batch_verify_s": s("crypto.batch_verify"),
        "crypto.batch_verify_items": counts("crypto.batch_verify_items", 0),
        "crypto.feldman_batch_s": s("crypto.feldman_batch"),
        "crypto.feldman_batch_calls": calls("crypto.feldman_batch"),
        "crypto.encode_s": s("crypto.encode"),
        "crypto.encode_calls": calls("crypto.encode"),
        "perf.canonical_key_s": s("perf.canonical_key"),
        "perf.canonical_key_calls": calls("perf.canonical_key"),
        "perf.verify_cache_hit_ratio": _ratio(
            delta["verify_hits"], delta["verify_hits"] + delta["verify_misses"]),
        "perf.share_image_hit_ratio": _ratio(
            delta["share_hits"], delta["share_hits"] + delta["share_misses"]),
    }
