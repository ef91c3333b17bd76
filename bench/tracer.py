"""Spans around calls into the pseudorate layers, recorded from outside.

``Tracer.install()`` replaces the public functions named in ``TARGETS`` with
timing wrappers: module attributes (in every ``pseudorate`` module that
imported the function by name) and class methods. ``uninstall()`` puts the
originals back. Untraced runs never install anything.

A span holds only the layer name, its duration, its self time (duration
minus the time of the spans it caused on the same thread) and, where
listed, a byte length or an outcome code. Arguments, return values, digests,
platform ids and key bytes are never stored.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import threading
import time
import types
from collections import Counter
from dataclasses import dataclass, field

from pseudorate import agent, charging, crypto, encoding, privacy_ca, reputation, scenario, tpm, wire


def _len_result(args, kwargs, result, child):
    return len(result)


def _len_first_arg(args, kwargs, result, child):
    return len(args[0])


def _line_of_child_encode(args, kwargs, result, child):
    # append_record writes base64 of what its child encode span returned, plus a newline
    return None if child is None else 4 * ((child + 2) // 3) + 1


def _frame_lengths(args, kwargs, result, child):
    return (len(args[1]), len(result))


def _transcript_size(args, kwargs, result, child):
    return (len(result.events), len(result.to_bytes()))


def _outcome_denied(result):
    return "denied" if isinstance(result, privacy_ca.DeniedRequest) else None


def _outcome_declined(result):
    return "declined" if isinstance(result, charging.Declined) else None


def _outcome_submit(result):
    return "reject." + result.reason if isinstance(result, reputation.Reject) else "ack"


def _records_scanned(args, kwargs, result, child):
    return len(args[0].records)


@dataclass(frozen=True)
class Target:
    name: str
    owner: object
    attr: str
    size: object = None  # (args, kwargs, result, size of the last child span) -> int | tuple
    outcome: object = None  # result -> str | None


# every client method is wrapped, so that wire.transport_ms covers all exchanges
WIRE_ENDPOINTS = {
    (wire.PcaClient, "register_platform"): "pca_register",
    (wire.PcaClient, "request_credential"): "pca_request",
    (wire.PcaClient, "complete_handshake"): "pca_complete",
    (wire.PcaClient, "resolve_identity"): "pca_resolve",
    (wire.PcaClient, "blacklist"): "pca_blacklist",
    (wire.RsClient, "submit_rating"): "rs_submit",
    (wire.RsClient, "score"): "rs_score",
    (wire.RsClient, "configure_groups"): "rs_admin_groups",
    (wire.CpClient, "charge"): "cp_charge",
    (wire.CpClient, "balance"): "cp_balance",
    (wire.CpClient, "get_policy"): "cp_policy",
    (wire.CpClient, "set_policy"): "cp_policy",
}

TARGETS = [
    Target("encoding.encode", encoding, "encode", size=_len_result),
    Target("encoding.decode", encoding, "decode", size=_len_first_arg),
    Target("encoding.append_record", encoding, "append_record", size=_line_of_child_encode),
    Target("crypto.verify_chain", crypto, "verify_chain"),
    Target("crypto.verify", crypto, "verify"),
    Target("crypto.sign", crypto, "sign"),
    Target("crypto.generate_keypair", crypto, "generate_keypair"),
    Target("crypto.seal", crypto, "seal"),
    Target("crypto.unseal", crypto, "unseal"),
    *(
        Target(f"tpm.{m}", tpm.TpmInstance, m)
        for m in (
            "make_identity",
            "activate_identity",
            "cmk_create_key",
            "load_key",
            "certify_key",
            "sign_with_key",
            "sign_issuance_nonce",
        )
    ),
    Target("agent.acquire_ticket", agent.TrustedAgent, "acquire_ticket"),
    Target("agent.build_chain", agent.TrustedAgent, "build_chain"),
    Target("agent.submit_chain", agent.TrustedAgent, "submit_chain"),
    Target("privacy_ca.request_credential", privacy_ca.PrivacyCa, "request_credential", outcome=_outcome_denied),
    Target("privacy_ca.complete_handshake", privacy_ca.PrivacyCa, "complete_handshake"),
    Target("privacy_ca.charge_for_ticket", privacy_ca.PrivacyCa, "charge_for_ticket"),
    Target("charging.charge", charging.ChargingProvider, "charge", outcome=_outcome_declined),
    Target("reputation.submit_rating", reputation.ReputationSystem, "submit_rating", outcome=_outcome_submit),
    Target("reputation.aggregate", reputation.ReputationSystem, "aggregate", size=_records_scanned),
    Target("wire.handle", wire.Router, "handle", size=_frame_lengths),
    *(Target(f"wire.call.{ep}", cls, m) for (cls, m), ep in WIRE_ENDPOINTS.items()),
    Target("scenario.run_scenario", scenario, "run_scenario", size=_transcript_size),
]



@dataclass
class _ThreadLog:
    stack: list = field(default_factory=list)
    spans: list = field(default_factory=list)  # (name, dur_s, self_s, size, outcome, depth)
    suspended: bool = False


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._logs_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            with self._logs_lock:
                self._logs.append(log)
        return log

    def _wrap(self, target: Target, fn):
        tracer, name, size, outcome = self, target.name, target.size, target.outcome

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            log = tracer._log()
            if log.suspended:
                return fn(*args, **kwargs)
            frame = [0.0, None]  # time in child spans, size of the last child span
            depth = len(log.stack)
            log.stack.append(frame)
            failed = True
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                dur = time.perf_counter() - t0
                log.stack.pop()
                log.suspended = True
                try:
                    n = None if failed or size is None else size(args, kwargs, result, frame[1])
                    code = "failed" if failed else (outcome(result) if outcome else None)
                finally:
                    log.suspended = False
                log.spans.append((name, dur, dur - frame[0], n, code, depth))
                if log.stack:
                    # the parent's self time excludes this span and its bookkeeping
                    log.stack[-1][0] += time.perf_counter() - t0
                    log.stack[-1][1] = n

        return traced

    @contextlib.contextmanager
    def paused(self):
        """Calls on this thread inside the block record no spans: the
        benchmark's own checks are not the program's work."""
        log = self._log()
        was, log.suspended = log.suspended, True
        try:
            yield
        finally:
            log.suspended = was

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        # module functions are also bound by name in the modules importing them
        modules = [m for n, m in sorted(sys.modules.items()) if n == "pseudorate" or n.startswith("pseudorate.")]
        by_original: dict[int, Target] = {}
        for target in TARGETS:
            if isinstance(target.owner, types.ModuleType):
                by_original[id(getattr(target.owner, target.attr))] = target
            else:
                original = target.owner.__dict__[target.attr]
                self._patch(target.owner, target.attr, self._wrap(target, original))
        by_name = {target.attr for target in by_original.values()}
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr in by_name:
                original = module.__dict__.get(attr)
                target = by_original.get(id(original))
                if target is None:
                    continue
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(target, original)
                self._patch(module, attr, wrappers[id(original)])

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def spans(self) -> list[tuple]:
        with self._logs_lock:
            return [span for log in self._logs for span in log.spans]

    def write_spans(self, path) -> int:
        """One line per span: name, duration and self time in microseconds,
        size (or -), outcome code (or -), nesting depth on its thread."""
        spans = self.spans()
        with open(path, "w") as fh:
            fh.write("name\tdur_us\tself_us\tsize\toutcome\tdepth\n")
            for name, dur, self_s, n, code, depth in spans:
                size = "-" if n is None else (n if isinstance(n, int) else "/".join(map(str, n)))
                fh.write(f"{name}\t{dur * 1e6:.1f}\t{self_s * 1e6:.1f}\t{size}\t{code or '-'}\t{depth}\n")
        return len(spans)


def summarize(spans: list[tuple], rounds: int) -> dict[str, float]:
    """Per-layer metrics; counts, bytes and times are per traced round.
    Every name returned is a ``per_layer`` metric of BENCHMARK.json."""
    by_name: dict[str, list[tuple]] = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span)
    per = 1.0 / max(rounds, 1)
    out: dict[str, float] = {}

    def base(name: str, key: str | None = None) -> list[tuple]:
        rows = by_name.get(name, [])
        key = key or name
        out[f"{key}.calls"] = len(rows) * per
        out[f"{key}.self_ms"] = sum(r[2] for r in rows) * 1e3 * per
        return rows

    def p50_us(rows: list[tuple]) -> float:
        return statistics.median(r[1] for r in rows) * 1e6 if rows else 0.0

    def outcomes(rows: list[tuple]) -> Counter:
        return Counter(r[4] for r in rows)

    for name in ("encoding.encode", "encoding.decode", "encoding.append_record"):
        rows = base(name)
        out[f"{name}.p50_us"] = p50_us(rows)
        out[f"{name}.bytes"] = sum(r[3] for r in rows if r[3] is not None) * per
    for target in TARGETS:
        if target.name.startswith(("crypto.", "tpm.", "privacy_ca.", "charging.", "reputation.")):
            base(target.name)
    out["crypto.verify_chain.p50_us"] = p50_us(by_name.get("crypto.verify_chain", []))
    for name in ("agent.acquire_ticket", "agent.build_chain", "agent.submit_chain"):
        out[f"{name}.p50_us"] = p50_us(by_name.get(name, []))
    out["privacy_ca.request_credential.denied"] = (
        outcomes(by_name.get("privacy_ca.request_credential", []))["denied"] * per
    )
    out["privacy_ca.complete_handshake.failed"] = (
        outcomes(by_name.get("privacy_ca.complete_handshake", []))["failed"] * per
    )
    out["charging.charge.declined"] = outcomes(by_name.get("charging.charge", []))["declined"] * per
    submits = by_name.get("reputation.submit_rating", [])
    submit_outcomes = outcomes(submits)
    out["reputation.submit_rating.p50_us"] = p50_us(submits)
    out["reputation.accept_ratio"] = submit_outcomes["ack"] / len(submits) if submits else 0.0
    for reason in ("invalid-chain", "double-spend", "bad-payload", "wrong-rs"):
        out[f"reputation.rejected.{reason}"] = submit_outcomes[f"reject.{reason}"] * per
    aggregates = by_name.get("reputation.aggregate", [])
    out["reputation.aggregate.p50_us"] = p50_us(aggregates)
    out["reputation.records"] = statistics.median(r[3] for r in aggregates) if aggregates else 0.0

    client_rows = [r for name, rows in by_name.items() if name.startswith("wire.call.") for r in rows]
    for ep in ("pca_register", "pca_request", "pca_complete", "rs_submit", "rs_score"):
        out[f"wire.call.{ep}.p50_us"] = p50_us(by_name.get(f"wire.call.{ep}", []))
    handles = by_name.get("wire.handle", [])
    out["wire.handle.self_ms"] = sum(r[2] for r in handles) * 1e3 * per
    out["wire.transport_ms"] = (
        (sum(r[1] for r in client_rows) - sum(r[1] for r in handles)) * 1e3 / len(handles)
        if handles and client_rows
        else 0.0
    )
    out["wire.frames"] = 2 * len(handles) * per
    frame_sizes = [n for r in handles if r[3] is not None for n in r[3]]
    out["wire.frame_bytes.p50"] = statistics.median(frame_sizes) if frame_sizes else 0.0

    runs = by_name.get("scenario.run_scenario", [])
    out["scenario.run_scenario.self_ms"] = sum(r[2] for r in runs) * 1e3 * per
    out["scenario.events"] = sum(r[3][0] for r in runs if r[3]) * per
    out["scenario.transcript_bytes"] = sum(r[3][1] for r in runs if r[3]) * per
    out["trace.spans"] = len(spans) * per
    return out


def layer_shares(spans: list[tuple]) -> dict[str, float]:
    """Each layer's share of the self time inside traced calls. A server
    thread's top-level ``wire.handle`` span is also time its client spent
    waiting inside ``wire.call``; it is taken out of the wire layer once."""
    totals: dict[str, float] = {}
    for name, dur, self_s, _, _, depth in spans:
        layer = name.split(".")[0]
        totals[layer] = totals.get(layer, 0.0) + self_s
        if name == "wire.handle" and depth == 0:
            totals[layer] -= dur
    whole = sum(totals.values()) or 1.0
    return {layer: round(t / whole, 4) for layer, t in sorted(totals.items(), key=lambda kv: -kv[1])}
