"""Message schemas, transports, and service clients.

Every exchange is one canonical-encoded request frame and one response
frame. The router is total: arbitrary bytes at any endpoint produce a
protocol error response, never a crash. The in-process and socket
transports carry byte-identical frames; a socket is answered as in process
on every route but the operator routes, which it does not serve.

Frame layout (socket transport adds a 4-byte big-endian length prefix):

    request  = {"version": 1, "endpoint": s, "correlation_id": b, "body": d}
    response = {"version": 1, "endpoint": s, "correlation_id": b,
                "status": "ok"|"error", "body": d}
"""

from __future__ import annotations

import contextlib
import copy
import itertools
import logging
import socket
import threading
from fractions import Fraction
from typing import Callable

from .charging import ChargingProvider, Declined, PricingPolicy, group_id
from .crypto import CredentialChain
from .encoding import EncodingError, Shape, check_fields, cut_entry, decode_head, encode
from .errors import TicketError
from .privacy_ca import Challenge, DeniedRequest, PrivacyCa
from .reputation import SCORE_BODY, Ack, RatingPayload, Reject, ReputationSystem

logger = logging.getLogger(__name__)

WIRE_VERSION = 1
MAX_FRAME = 16 * 1024 * 1024


class WireError(TicketError):
    code = "protocol-error"


def encode_request(endpoint: str, body: dict | bytes, correlation_id: bytes) -> bytes:
    return _frame(body, correlation_id, endpoint, b"")


def encode_response(endpoint: str, correlation_id: bytes, status: str, body: dict | bytes) -> bytes:
    raw = status.encode()
    return _frame(body, correlation_id, endpoint, b"s6:statuss%d:%s" % (len(raw), raw))


def _frame(body: dict | bytes, correlation_id: bytes, endpoint: str, status: bytes) -> bytes:
    """``encode`` of the frame dict, spliced around the body's bytes: the frame
    keys sort as body < correlation_id < endpoint < status < version.
    ``status`` is a response's encoded status entry, empty in a request. A
    body given as bytes is already encoded, and is spliced as it is."""
    raw = endpoint.encode()
    encoded = body if type(body) is bytes else encode(body)
    return b"ds4:body%ss14:correlation_idb%d:%ss8:endpoints%d:%s%ss7:versioni%dee" % (
        encoded, len(correlation_id), correlation_id, len(raw), raw, status, WIRE_VERSION
    )


def _ok_tail(correlation_id: bytes, endpoint: str) -> bytes:
    """What :func:`_frame` writes after the body of an ok response to a route."""
    return b"s14:correlation_idb%d:%s%s" % (len(correlation_id), correlation_id, _OK_SUFFIXES[endpoint])


_VERSION_ENTRY = b"s7:versioni%dee" % WIRE_VERSION  # a frame's last entry, and its end


def _decode_frame(data: bytes, response: bool) -> tuple[str, bytes, str, dict]:
    """A frame's endpoint, correlation id, status ("" in a request) and body:
    :func:`_frame` in reverse. Only the body is decoded; each entry after it
    is cut at its fixed key by :func:`encoding.cut_entry`, the reader that
    cuts credentials too, and the version is read last. A frame that is
    canonical but for a version other than 1 is unsupported-version; any
    other fault is a protocol-error."""
    try:
        if type(data) is not bytes or not data.startswith(b"ds4:bodyd"):
            raise EncodingError("not a canonical frame")
        body, pos = decode_head(data, 8, 1)  # one level inside the frame dict
        corr, pos = cut_entry(data, pos, b"s14:correlation_idb")
        endpoint, pos = cut_entry(data, pos, b"s8:endpoints")
        status = b""
        if response:
            status, pos = cut_entry(data, pos, b"s6:statuss")
            if status != b"ok" and status != b"error":
                raise EncodingError("status must be ok or error")
        endpoint, status = endpoint.decode(), status.decode()
        if data[pos:] != _VERSION_ENTRY:
            if not data.startswith(b"s7:version", pos):
                raise EncodingError("no version entry at the end")
            version, pos = decode_head(data, pos + 10, 1)
            if data[pos:] != b"e":
                raise EncodingError("bytes after the version entry")
            raise WireError(f"unsupported version {version!r}", code="unsupported-version")
    except (ValueError, IndexError) as exc:  # EncodingError, bad UTF-8, a length past
        # Python's int-string limit; a read past the end
        raise WireError(f"bad {'response' if response else 'request'} frame: {exc}") from exc
    return endpoint, corr, status, body


def decode_request(data: bytes) -> tuple[str, dict, bytes]:
    endpoint, corr, _, body = _decode_frame(data, False)
    return endpoint, body, corr


def decode_response(data: bytes) -> tuple[str, bytes, str, dict]:
    return _decode_frame(data, True)


def _field(body: dict, name: str, kind: type):
    """A response body's field ``name``, exactly of type ``kind``."""
    value = body.get(name)
    if type(value) is not kind:
        raise WireError(f"response field {name!r} missing or not {kind.__name__}")
    return value


# -- the six ok bodies a client reads at fixed keys (FORMATS §3); the score
# body is reputation.SCORE_BODY, which the reputation system writes itself
CHALLENGE = Shape("pca/request challenge", expires=int, nonce=bytes, status="challenge")
DENIED = Shape("pca/request denial", reason=str, status="denied")
ACTIVATION = Shape("pca/complete answer", activation_blob=bytes)
ACK = Shape("rs/submit ack", group=int, receipt=str, status="ack", subject=str)
REJECT = Shape("rs/submit reject", detail=str, reason=str, status="reject")


def _either(cut: Callable, other: Shape, make: Callable) -> Callable:
    """What ``other`` cuts and ``make`` makes of a body that starts with its head, else what ``cut`` returns."""
    other_cut = other.cutter(make)
    return lambda data, pos: (other_cut if data.startswith(other.head, pos) else cut)(data, pos)


# endpoint -> what its client cuts an ok body by: the client's answer, made of the fields at fixed keys
_OK_ANSWERS = {
    "pca/request": _either(CHALLENGE.cutter(Challenge), DENIED, DeniedRequest),
    "pca/complete": ACTIVATION.cutter(lambda activation_blob: activation_blob),
    "rs/submit": _either(ACK.cutter(Ack), REJECT, Reject),
    "rs/score": SCORE_BODY.cutter(tuple),
}


# -- handlers: each takes its service and the checked request fields, and maps
# the service's result to the response body, a dict or its encoded bytes

def _h_request(pca: PrivacyCa, aik_public: bytes, group: int, platform_id: str) -> dict | bytes:
    result = pca.request_credential(aik_public, group, platform_id)
    if isinstance(result, DeniedRequest):
        return DENIED.write(reason=result.reason)
    return CHALLENGE.write(expires=result.expires, nonce=result.nonce)


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


def _h_submit(rs: ReputationSystem, payload: bytes, chain: bytes) -> dict | bytes:
    credentials = CredentialChain.from_bytes(chain)
    result = rs.submit_rating(RatingPayload.from_bytes(payload), credentials)
    if isinstance(result, Reject):
        return REJECT.write(detail=result.detail, reason=result.reason)
    return ACK.write(group=result.group, receipt=result.receipt, subject=result.subject)


def _h_score(rs: ReputationSystem, subject: str) -> bytes:
    return rs.aggregate(subject).body


def _h_groups(rs: ReputationSystem, groups: dict) -> dict:
    registry: dict[int, tuple[bytes, Fraction]] = {}
    try:
        for key, entry in groups.items():
            check_fields(entry, {"pub": bytes, "impact": str}, where=f"group {key}")
            registry[group_id(key)] = (entry["pub"], Fraction(entry["impact"]))
    except (ValueError, ZeroDivisionError) as exc:
        raise WireError(f"bad group registry: {exc}") from exc
    rs.configure_groups(registry)
    return {"count": len(registry)}


def _h_charge(cp: ChargingProvider, account_id: str, amount: int, group: int, phase: str, ref: str) -> dict:
    result = cp.charge(account_id, amount, group=group, phase=phase, ref=ref)
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


# endpoint -> (Router keyword of its service, the shape of its request body, handler).
# Every request schema lives here: the router checks a body's fields and their
# types before the handler sees them, and each client writes its body by it.
ROUTES: dict[str, tuple[str, Shape, Callable[..., dict | bytes]]] = {
    endpoint: (service, Shape(endpoint, **fields), handler)
    for endpoint, (service, fields, handler) in {
        "pca/register": (
            "pca",
            {"ek_public": bytes, "user_account": str},
            lambda pca, ek_public, user_account: {"platform_id": pca.register_platform(ek_public, user_account)},
        ),
        "pca/request": ("pca", {"aik_public": bytes, "group": int, "platform_id": str}, _h_request),
        "pca/complete": (
            "pca",
            {"nonce": bytes, "signature": bytes},
            lambda pca, nonce, signature: ACTIVATION.write(activation_blob=pca.complete_handshake(nonce, signature)),
        ),
        "pca/resolve": ("pca", {"aik_digest": str, "authority_token": str}, _h_resolve),
        "pca/blacklist": ("pca", {"platform_id": str, "flag": int}, _h_blacklist),
        "rs/submit": ("rs", {"payload": bytes, "chain": bytes}, _h_submit),
        "rs/score": ("rs", {"subject": str}, _h_score),
        "rs/admin/groups": ("rs", {"groups": dict}, _h_groups),
        "cp/charge": ("cp", {"account_id": str, "amount": int, "group": int, "phase": str, "ref": str}, _h_charge),
        "cp/balance": ("cp", {"account_id": str}, lambda cp, account_id: {"balance": cp.balance(account_id)}),
        "cp/policy": ("cp", {}, lambda cp: {"policy": cp.policy.to_record()}),
        "cp/admin/policy": ("cp", {"policy": dict}, _h_set_policy),
    }.items()
}
# called in process only: over a socket each is answered as an endpoint no one serves (FORMATS §3)
OPERATOR_ROUTES = frozenset({"pca/blacklist", "rs/admin/groups", "cp/charge", "cp/balance", "cp/admin/policy"})
_PUBLIC_ROUTES = {endpoint: route for endpoint, route in ROUTES.items() if endpoint not in OPERATOR_ROUTES}
_WRITE = {endpoint: shape.write for endpoint, (_, shape, _) in ROUTES.items()}  # each route's request writer
# what follows the correlation id of an ok answer on each route: the rest of the frame dict
_OK_SUFFIXES = {
    endpoint: encode({"endpoint": endpoint, "status": "ok", "version": WIRE_VERSION})[1:] for endpoint in ROUTES
}
# what follows the correlation id of a request to each route whose fields are all
# bytes, str or int -> its endpoint, and the shape its body is cut by
_FIXED_REQUESTS = {
    encode({"endpoint": endpoint, "version": WIRE_VERSION})[1:]: (endpoint, shape)
    for endpoint, (_, shape, _) in ROUTES.items()
    if dict not in shape.kinds.values()
}


def _read_fixed(data: bytes) -> tuple[str, dict, bytes] | None:
    """What :func:`decode_request` and ``check_fields`` read of a request to a
    route found by its frame's tail in ``_FIXED_REQUESTS``, cut at fixed keys
    that must end where that tail starts; None for any other frame (FORMATS §3)."""
    if type(data) is not bytes or not data.startswith(b"ds4:body"):
        return None
    at = data.rfind(b"s8:endpoints")
    route = _FIXED_REQUESTS.get(data[at:])  # with no such entry, one byte: no route's tail
    if route is None:
        return None
    try:
        body, pos = route[1].cut(data, 8)
        corr, pos = cut_entry(data, pos, b"s14:correlation_idb")
    except (ValueError, IndexError):  # EncodingError, bad UTF-8; a read past the end
        return None
    return (route[0], body, corr) if pos == at else None


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
        self._routes = ROUTES  # a SocketServer's copy answers _PUBLIC_ROUTES only

    def handle(self, data: bytes) -> bytes:
        endpoint, corr = "", b""
        try:
            request = _read_fixed(data)
            endpoint, body, corr = request or decode_request(data)
            service_name, shape, handler = self._routes.get(endpoint, ("", None, None))
            service = self._services.get(service_name)
            if service is None:
                raise WireError(f"unknown endpoint {endpoint!r}", code="unknown-endpoint")
            result = handler(service, **(body if request else shape.check(body)))
            if type(result) is bytes:
                return b"ds4:body" + result + _ok_tail(corr, endpoint)
            return encode_response(endpoint, corr, "ok", result)
        except EncodingError as exc:  # a body, or a record it carries, that is not of its shape
            return encode_response(endpoint, corr, "error", {"code": WireError.code, "message": str(exc)})
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
    """Threaded TCP server speaking length-prefixed frames into a copy of a
    router that serves no operator route. ``close`` stops accepting, ends
    every connection it accepted and returns once no request is still being
    handled, so a service rebuilt behind the same port never runs beside the
    old one."""

    def __init__(self, router: Router, host: str = "127.0.0.1", port: int = 0):
        public = copy.copy(router)  # the same services
        public._routes = _PUBLIC_ROUTES
        self._handle = public.handle
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

    def _call(self, endpoint: str, body: bytes):
        """The ok answer to the request of ``body``, which ``_WRITE`` wrote:
        its body, or, on a route of ``_OK_ANSWERS``, what that cuts of the
        body at fixed keys. An ok answer carries this request's correlation
        id and endpoint; an error answer carries them or neither, as the
        router's answer to a frame it could not read does."""
        corr = next(self._corr).to_bytes(8, "big")
        response = self._transport.request(encode_request(endpoint, body, corr))
        cut = _OK_ANSWERS.get(endpoint)
        if cut and type(response) is bytes and response.startswith(b"ds4:body"):
            tail = _ok_tail(corr, endpoint)
            if response.endswith(tail):  # an ok answer to this request, if its body is
                try:  # the body is cut in place, and must end where the tail starts
                    value, end = cut(response, 8)
                    if end == len(response) - len(tail):
                        return value
                    raise EncodingError("trailing bytes after the body")
                except (ValueError, IndexError) as exc:  # EncodingError, bad UTF-8; a read past the end
                    decode_response(response)  # a frame the generic decoder refuses is refused as it refuses it
                    raise WireError(f"bad {endpoint} answer: {exc}") from exc
        r_endpoint, r_corr, status, r_body = decode_response(response)
        if (r_corr, r_endpoint) != (corr, endpoint) and (status == "ok" or r_corr or r_endpoint):
            raise WireError("correlation id mismatch" if r_corr != corr else "endpoint mismatch")
        if status == "error":
            raise TicketError(str(r_body.get("message", "")), code=str(r_body.get("code", "internal")))
        return r_body  # on a route of _OK_ANSWERS, an ok answer to this request ends with its tail and was cut above


class PcaClient(_Client):
    def register_platform(self, ek_public: bytes, user_account: str) -> str:
        body = self._call("pca/register", _WRITE["pca/register"](ek_public=ek_public, user_account=user_account))
        return _field(body, "platform_id", str)

    def request_credential(
        self, aik_public: bytes, group: int, platform_id: str
    ) -> Challenge | DeniedRequest:
        body = _WRITE["pca/request"](aik_public=aik_public, group=group, platform_id=platform_id)
        return self._call("pca/request", body)

    def complete_handshake(self, nonce: bytes, signature: bytes) -> bytes:
        return self._call("pca/complete", _WRITE["pca/complete"](nonce=nonce, signature=signature))

    def resolve_identity(self, aik_digest: str, authority_token: str) -> dict:
        body = _WRITE["pca/resolve"](aik_digest=aik_digest, authority_token=authority_token)
        return self._call("pca/resolve", body)

    def blacklist(self, platform_id: str, flag: bool) -> None:
        self._call("pca/blacklist", _WRITE["pca/blacklist"](platform_id=platform_id, flag=int(flag)))


class RsClient(_Client):
    def submit_rating(self, payload: RatingPayload, chain: CredentialChain) -> Ack | Reject:
        body = _WRITE["rs/submit"](chain=chain.to_bytes(), payload=payload.canonical_bytes())
        return self._call("rs/submit", body)

    def score(self, subject: str) -> tuple[int, str]:
        return self._call("rs/score", _WRITE["rs/score"](subject=subject))

    def configure_groups(self, registry: dict[int, tuple[bytes, Fraction]]) -> int:
        groups = {str(g): {"pub": pub, "impact": str(impact)} for g, (pub, impact) in registry.items()}
        return _field(self._call("rs/admin/groups", _WRITE["rs/admin/groups"](groups=groups)), "count", int)


class CpClient(_Client):
    def charge(self, account_id: str, amount: int, *, group: int, phase: str, ref: str) -> dict:
        body = _WRITE["cp/charge"](account_id=account_id, amount=amount, group=group, phase=phase, ref=ref)
        return self._call("cp/charge", body)

    def balance(self, account_id: str) -> int:
        return _field(self._call("cp/balance", _WRITE["cp/balance"](account_id=account_id)), "balance", int)

    def get_policy(self) -> dict:
        return _field(self._call("cp/policy", _WRITE["cp/policy"]()), "policy", dict)

    def set_policy(self, policy: PricingPolicy) -> dict:
        body = _WRITE["cp/admin/policy"](policy=policy.to_record())
        return _field(self._call("cp/admin/policy", body), "policy", dict)
