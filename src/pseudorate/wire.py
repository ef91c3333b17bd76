"""Message schemas, transports, and service clients.

Every exchange is one canonical-encoded request frame and one response
frame. The router is total: arbitrary bytes at any endpoint produce a
protocol error response, never a crash. The in-process and socket
transports carry byte-identical frames, so behaviour is the same over
either.

Frame layout (socket transport adds a 4-byte big-endian length prefix):

    request  = {"version": 1, "endpoint": s, "correlation_id": b, "body": d}
    response = {"version": 1, "endpoint": s, "correlation_id": b,
                "status": "ok"|"error", "body": d}
"""

from __future__ import annotations

import contextlib
import itertools
import logging
import socket
import threading
from fractions import Fraction
from typing import Callable

from .charging import ChargingProvider, Declined, PricingPolicy
from .crypto import CredentialChain
from .encoding import EncodingError, decode, encode
from .errors import TicketError
from .privacy_ca import Challenge, DeniedRequest, PrivacyCa
from .reputation import Ack, RatingPayload, Reject, ReputationSystem

logger = logging.getLogger(__name__)

WIRE_VERSION = 1
MAX_FRAME = 16 * 1024 * 1024


class WireError(TicketError):
    code = "protocol-error"


def encode_request(endpoint: str, body: dict, correlation_id: bytes) -> bytes:
    return encode(
        {"version": WIRE_VERSION, "endpoint": endpoint, "correlation_id": correlation_id, "body": body}
    )


def encode_response(endpoint: str, correlation_id: bytes, status: str, body: dict) -> bytes:
    return encode(
        {
            "version": WIRE_VERSION,
            "endpoint": endpoint,
            "correlation_id": correlation_id,
            "status": status,
            "body": body,
        }
    )


_REQUEST_FIELDS = frozenset({"version", "endpoint", "correlation_id", "body"})
_RESPONSE_FIELDS = _REQUEST_FIELDS | {"status"}


def _decode_frame(data: bytes, kind: str, fields: frozenset[str], spans: dict | None = None) -> dict:
    try:
        frame = decode(data, spans)
    except EncodingError as exc:
        raise WireError(f"undecodable frame: {exc}") from exc
    if not isinstance(frame, dict) or frame.keys() != fields:
        raise WireError(f"bad {kind} frame shape")
    if frame["version"] != WIRE_VERSION:
        raise WireError(f"unsupported version {frame['version']!r}", code="unsupported-version")
    if (
        not isinstance(frame["endpoint"], str)
        or not isinstance(frame["body"], dict)
        or not isinstance(frame["correlation_id"], bytes)
    ):
        raise WireError(f"bad {kind} frame field types")
    return frame


def decode_request(data: bytes, spans: dict | None = None) -> tuple[str, dict, bytes]:
    frame = _decode_frame(data, "request", _REQUEST_FIELDS, spans)
    return frame["endpoint"], frame["body"], frame["correlation_id"]


def decode_response(data: bytes) -> tuple[str, bytes, str, dict]:
    frame = _decode_frame(data, "response", _RESPONSE_FIELDS)
    if frame["status"] not in ("ok", "error"):
        raise WireError("bad response status")
    return frame["endpoint"], frame["correlation_id"], frame["status"], frame["body"]


def _field(body: dict, name: str, kind: type):
    if name not in body:
        raise WireError(f"missing field {name!r}")
    value = body[name]
    if kind is int and isinstance(value, bool) or not isinstance(value, kind):
        raise WireError(f"field {name!r} must be {kind.__name__}")
    return value


# -- handlers: each takes its service and the checked request fields, and maps
# the service's result to the response body

def _h_request(pca: PrivacyCa, aik_public: bytes, group: int, platform_id: str) -> dict:
    result = pca.request_credential(aik_public, group, platform_id)
    if isinstance(result, DeniedRequest):
        return {"status": "denied", "reason": result.reason}
    return {"status": "challenge", "nonce": result.nonce, "expires": result.expires}


def _h_resolve(pca: PrivacyCa, aik_digest: str, authority_token: str) -> dict:
    record = pca.resolve_identity(aik_digest, authority_token)
    return {
        "platform_id": record.platform_id,
        "user_account": record.user_account,
        "blacklisted": int(record.blacklisted),
        "issued": [
            {"aik_digest": t.aik_digest, "group": t.group, "at": t.at} for t in record.issued
        ],
    }


def _h_blacklist(pca: PrivacyCa, platform_id: str, flag: int) -> dict:
    pca.blacklist(platform_id, bool(flag))
    return {"ok": 1}


def _h_submit(rs: ReputationSystem, payload: dict, chain: dict, data: bytes, spans: dict) -> dict:
    try:
        rating = RatingPayload.from_record(payload, data, spans)
        credentials = CredentialChain.from_record(chain, data, spans)
    except EncodingError as exc:
        raise WireError(f"bad submission record: {exc}") from exc
    result = rs.submit_rating(rating, credentials)
    if isinstance(result, Reject):
        return {"status": "reject", "reason": result.reason, "detail": result.detail}
    return {"status": "ack", "receipt": result.receipt, "subject": result.subject, "group": result.group}


def _h_score(rs: ReputationSystem, subject: str) -> dict:
    score = rs.aggregate(subject)
    value = rs.none_value if score.score is None else str(score.score)
    return {"count": score.count, "score": value}


def _h_groups(rs: ReputationSystem, groups: dict) -> dict:
    registry: dict[int, tuple[bytes, Fraction]] = {}
    try:
        for key, entry in groups.items():
            if not isinstance(entry, dict) or set(entry) != {"pub", "impact"}:
                raise WireError("bad group entry")
            registry[int(key)] = (_field(entry, "pub", bytes), Fraction(_field(entry, "impact", str)))
    except (ValueError, ZeroDivisionError) as exc:
        raise WireError(f"bad group registry: {exc}") from exc
    rs.configure_groups(registry)
    return {"count": len(registry)}


def _h_charge(cp: ChargingProvider, account_id: str, amount: int, group: int, phase: str) -> dict:
    result = cp.charge(account_id, amount, group=group, phase=phase)
    if isinstance(result, Declined):
        return {"status": "declined", "reason": result.reason}
    return {
        "status": "receipt",
        "receipt_id": result.receipt_id,
        "amount": result.amount,
        "balance": result.balance_after,
        "at": result.at,
    }


def _h_set_policy(cp: ChargingProvider, policy: dict) -> dict:
    cp.set_policy(PricingPolicy.from_record(policy))
    return {"policy": cp.policy.to_record()}


# endpoint -> (Router keyword of its service, request field -> type, handler).
# Every request schema lives here: the router checks a body's fields and their
# types before the handler sees them.
ROUTES: dict[str, tuple[str, dict[str, type], Callable[..., dict]]] = {
    "pca/register": (
        "pca",
        {"ek_public": bytes, "user_account": str},
        lambda pca, ek_public, user_account: {"platform_id": pca.register_platform(ek_public, user_account)},
    ),
    "pca/request": ("pca", {"aik_public": bytes, "group": int, "platform_id": str}, _h_request),
    "pca/complete": (
        "pca",
        {"nonce": bytes, "signature": bytes},
        lambda pca, nonce, signature: {"activation_blob": pca.complete_handshake(nonce, signature)},
    ),
    "pca/resolve": ("pca", {"aik_digest": str, "authority_token": str}, _h_resolve),
    "pca/blacklist": ("pca", {"platform_id": str, "flag": int}, _h_blacklist),
    "rs/submit": ("rs", {"payload": dict, "chain": dict}, _h_submit),
    "rs/score": ("rs", {"subject": str}, _h_score),
    "rs/admin/groups": ("rs", {"groups": dict}, _h_groups),
    "cp/charge": ("cp", {"account_id": str, "amount": int, "group": int, "phase": str}, _h_charge),
    "cp/balance": ("cp", {"account_id": str}, lambda cp, account_id: {"balance": cp.balance(account_id)}),
    "cp/policy": ("cp", {}, lambda cp: {"policy": cp.policy.to_record()}),
    "cp/admin/policy": ("cp", {"policy": dict}, _h_set_policy),
}


class Router:
    """Dispatches decoded request bodies to service handlers. Total over
    arbitrary input bytes; an endpoint whose service was not given is unknown."""

    def __init__(
        self,
        pca: PrivacyCa | None = None,
        rs: ReputationSystem | None = None,
        cp: ChargingProvider | None = None,
    ):
        self._services = {"pca": pca, "rs": rs, "cp": cp}

    def handle(self, data: bytes) -> bytes:
        endpoint, corr = "", b""
        try:
            spans: dict = {}
            endpoint, body, corr = decode_request(data, spans)
            service_name, fields, handler = ROUTES.get(endpoint, ("", {}, None))
            service = self._services.get(service_name)
            if service is None:
                raise WireError(f"unknown endpoint {endpoint!r}", code="unknown-endpoint")
            if body.keys() != fields.keys():
                raise WireError(f"expected fields {sorted(fields)}, got {sorted(body)}")
            args = {name: _field(body, name, kind) for name, kind in fields.items()}
            if handler is _h_submit:  # signed records are read from the bytes they arrived as
                args.update(data=data, spans=spans)
            result = handler(service, **args)
            return encode_response(endpoint, corr, "ok", result)
        except TicketError as exc:
            return encode_response(endpoint, corr, "error", {"code": exc.code, "message": str(exc)})
        except Exception as exc:  # pragma: no cover - defensive catch-all
            logger.exception("handler failure on %s", endpoint)
            return encode_response(endpoint, corr, "error", {"code": "internal", "message": str(exc)})


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------

class InprocTransport:
    """Dispatches frames straight into a router; same bytes as the socket path."""

    def __init__(self, router: Router, tap: list | None = None):
        self._router = router
        self.tap = tap

    def request(self, data: bytes) -> bytes:
        if self.tap is not None:
            self.tap.append(("send", data))
        response = self._router.handle(data)
        if self.tap is not None:
            self.tap.append(("recv", response))
        return response

    def close(self) -> None:
        pass


def _read_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("peer closed")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _read_frame(sock: socket.socket) -> bytes:
    header = _read_exact(sock, 4)
    length = int.from_bytes(header, "big")
    if length > MAX_FRAME:
        raise WireError("frame too large")
    return _read_exact(sock, length)


def _write_frame(sock: socket.socket, data: bytes) -> None:
    if len(data) > MAX_FRAME:
        raise WireError("frame too large")
    sock.sendall(len(data).to_bytes(4, "big") + data)


class SocketServer:
    """Threaded TCP server speaking length-prefixed frames into a router.
    ``close`` stops accepting, ends every connection it accepted and returns
    once no request is still being handled, so a service rebuilt behind the
    same port never runs beside the old one."""

    def __init__(self, router: Router, host: str = "127.0.0.1", port: int = 0):
        self._handle = router.handle
        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()[:2]
        self._lock = threading.Lock()
        self._connections: dict[socket.socket, threading.Thread] = {}
        self._thread = threading.Thread(target=self._accept, daemon=True)
        self._thread.start()

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            with self._lock:
                thread = self._connections[conn] = threading.Thread(target=self._serve, args=(conn,))
            thread.start()

    def _serve(self, conn: socket.socket) -> None:
        try:
            with conn:
                while True:
                    _write_frame(conn, self._handle(_read_frame(conn)))
        except (OSError, WireError):
            pass
        finally:
            with self._lock:
                del self._connections[conn]

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self._listener.shutdown(socket.SHUT_RDWR)  # ends the accept loop
        self._thread.join()
        self._listener.close()
        with self._lock:
            connections = list(self._connections.items())
        for conn, thread in connections:
            with contextlib.suppress(OSError):  # a connection its client already closed
                conn.shutdown(socket.SHUT_RDWR)  # wakes a blocked read or write
            thread.join()


class SocketTransport:
    def __init__(self, host: str, port: int, tap: list | None = None):
        self._addr = (host, port)
        self._sock: socket.socket | None = None
        self._lock = threading.Lock()
        self.tap = tap

    def request(self, data: bytes) -> bytes:
        with self._lock:
            try:
                if self._sock is None:
                    self._sock = socket.create_connection(self._addr)
                if self.tap is not None:
                    self.tap.append(("send", data))
                _write_frame(self._sock, data)
                response = _read_frame(self._sock)
            except BaseException:
                # the next request opens a new connection; this one is never
                # sent again, because a lost reply must not become a second charge
                self._drop()
                raise
            if self.tap is not None:
                self.tap.append(("recv", response))
            return response

    def close(self) -> None:
        with self._lock:
            self._drop()

    def _drop(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None


# ---------------------------------------------------------------------------
# Clients
# ---------------------------------------------------------------------------

class _Client:
    def __init__(self, transport):
        self._transport = transport
        self._corr = itertools.count(1)

    def _call(self, endpoint: str, body: dict) -> dict:
        corr = next(self._corr).to_bytes(8, "big")
        response = self._transport.request(encode_request(endpoint, body, corr))
        r_endpoint, r_corr, status, r_body = decode_response(response)
        if r_corr != corr and r_corr != b"":
            raise WireError("correlation id mismatch")
        if status == "error":
            raise TicketError(str(r_body.get("message", "")), code=str(r_body.get("code", "internal")))
        return r_body


class PcaClient(_Client):
    def register_platform(self, ek_public: bytes, user_account: str) -> str:
        body = self._call("pca/register", {"ek_public": ek_public, "user_account": user_account})
        return _field(body, "platform_id", str)

    def request_credential(
        self, aik_public: bytes, group: int, platform_id: str
    ) -> Challenge | DeniedRequest:
        body = self._call(
            "pca/request",
            {"aik_public": aik_public, "group": group, "platform_id": platform_id},
        )
        if _field(body, "status", str) == "denied":
            return DeniedRequest(reason=_field(body, "reason", str))
        return Challenge(nonce=_field(body, "nonce", bytes), expires=_field(body, "expires", int))

    def complete_handshake(self, nonce: bytes, signature: bytes) -> bytes:
        body = self._call("pca/complete", {"nonce": nonce, "signature": signature})
        return _field(body, "activation_blob", bytes)

    def resolve_identity(self, aik_digest: str, authority_token: str) -> dict:
        return self._call(
            "pca/resolve", {"aik_digest": aik_digest, "authority_token": authority_token}
        )

    def blacklist(self, platform_id: str, flag: bool) -> None:
        self._call("pca/blacklist", {"platform_id": platform_id, "flag": int(flag)})


class RsClient(_Client):
    def submit_rating(self, payload: RatingPayload, chain: CredentialChain) -> Ack | Reject:
        body = self._call(
            "rs/submit", {"payload": payload.to_record(), "chain": chain.to_record()}
        )
        if _field(body, "status", str) == "reject":
            return Reject(reason=_field(body, "reason", str), detail=_field(body, "detail", str))
        return Ack(
            receipt=_field(body, "receipt", str),
            subject=_field(body, "subject", str),
            group=_field(body, "group", int),
        )

    def score(self, subject: str) -> tuple[int, str]:
        body = self._call("rs/score", {"subject": subject})
        return _field(body, "count", int), _field(body, "score", str)

    def configure_groups(self, registry: dict[int, tuple[bytes, Fraction]]) -> int:
        groups = {
            str(g): {"pub": pub, "impact": str(Fraction(impact))}
            for g, (pub, impact) in registry.items()
        }
        body = self._call("rs/admin/groups", {"groups": groups})
        return _field(body, "count", int)


class CpClient(_Client):
    def charge(self, account_id: str, amount: int, *, group: int, phase: str) -> dict:
        return self._call(
            "cp/charge",
            {"account_id": account_id, "amount": amount, "group": group, "phase": phase},
        )

    def balance(self, account_id: str) -> int:
        return _field(self._call("cp/balance", {"account_id": account_id}), "balance", int)

    def get_policy(self) -> dict:
        return _field(self._call("cp/policy", {}), "policy", dict)

    def set_policy(self, policy: PricingPolicy) -> dict:
        return _field(self._call("cp/admin/policy", {"policy": policy.to_record()}), "policy", dict)
