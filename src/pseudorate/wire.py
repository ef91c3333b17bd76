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
from .encoding import EncodingError, check_fields, cut_entry, cut_fields, cut_int, decode_head, encode, field_table
from .errors import TicketError
from .privacy_ca import Challenge, DeniedRequest, PrivacyCa
from .reputation import Ack, RatingPayload, Reject, ReputationSystem, cut_score_body

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


# -- the fixed-shape bodies of the acquire -> redeem -> score path: each is
# ``encode`` of its dict, spliced with its keys in sorted order. A field not
# exactly of its type, a str UTF-8 cannot encode or an int past Python's 4300
# digits is an EncodingError, as in ``encode``. The ok answer of each route
# stands beside its reader, which cuts the body at its fixed keys and reads
# the denied and reject bodies the handlers write too: a reader accepts
# exactly the bodies ``decode`` reads as one of its route's shapes (FORMATS
# §3), and refuses any other key, kind or status with an EncodingError.

def _cut_fixed(data: bytes, pos: int, fixed: bytes) -> int:
    """The position after the ``fixed`` bytes that must stand at ``pos``."""
    if not data.startswith(fixed, pos):
        raise EncodingError(f"not {fixed!r}")
    return pos + len(fixed)


def _challenge_body(nonce: bytes, expires: int) -> bytes:
    """The ``pca/request`` challenge body ``{"expires", "nonce", "status": "challenge"}``"""
    if type(nonce) is not bytes or type(expires) is not int:
        raise EncodingError("challenge: nonce must be bytes and expires an int")
    try:
        return b"ds7:expiresi%des5:nonceb%d:%ss6:statuss9:challengee" % (expires, len(nonce), nonce)
    except ValueError as exc:
        raise EncodingError(f"cannot encode: {exc}") from exc


def _cut_challenge_or_denied(data: bytes, pos: int) -> tuple[Challenge | DeniedRequest, int]:
    if data.startswith(b"ds6:reasons", pos):
        reason, pos = cut_entry(data, pos, b"ds6:reasons")
        return DeniedRequest(reason.decode()), _cut_fixed(data, pos, b"s6:statuss6:deniede")
    expires, pos = cut_int(data, pos, b"ds7:expiresi")
    nonce, pos = cut_entry(data, pos, b"s5:nonceb")
    return Challenge(nonce, expires), _cut_fixed(data, pos, b"s6:statuss9:challengee")


def _activation_body(activation_blob: bytes) -> bytes:
    """The ``pca/complete`` ok body ``{"activation_blob"}``"""
    if type(activation_blob) is not bytes:
        raise EncodingError("activation_blob must be bytes")
    return b"ds15:activation_blobb%d:%se" % (len(activation_blob), activation_blob)


def _cut_activation(data: bytes, pos: int) -> tuple[bytes, int]:
    blob, pos = cut_entry(data, pos, b"ds15:activation_blobb")
    return blob, _cut_fixed(data, pos, b"e")


def _ack_body(receipt: str, subject: str, group: int) -> bytes:
    """The ``rs/submit`` ack body ``{"group", "receipt", "status": "ack", "subject"}``"""
    if type(receipt) is not str or type(subject) is not str or type(group) is not int:
        raise EncodingError("ack: receipt and subject must be str and group an int")
    try:
        receipt_raw, subject_raw = receipt.encode(), subject.encode()
        return b"ds5:groupi%des7:receipts%d:%ss6:statuss3:acks7:subjects%d:%se" % (
            group, len(receipt_raw), receipt_raw, len(subject_raw), subject_raw
        )
    except ValueError as exc:
        raise EncodingError(f"cannot encode: {exc}") from exc


def _cut_ack_or_reject(data: bytes, pos: int) -> tuple[Ack | Reject, int]:
    if data.startswith(b"ds6:details", pos):
        detail, pos = cut_entry(data, pos, b"ds6:details")
        reason, pos = cut_entry(data, pos, b"s6:reasons")
        return Reject(reason.decode(), detail.decode()), _cut_fixed(data, pos, b"s6:statuss6:rejecte")
    group, pos = cut_int(data, pos, b"ds5:groupi")
    receipt, pos = cut_entry(data, pos, b"s7:receipts")
    subject, pos = cut_entry(data, _cut_fixed(data, pos, b"s6:statuss3:ack"), b"s7:subjects")
    return Ack(receipt.decode(), subject.decode(), group), _cut_fixed(data, pos, b"e")


def _pca_request_body(aik_public: bytes, group: int, platform_id: str) -> bytes:
    """The ``pca/request`` body ``{"aik_public", "group", "platform_id"}``"""
    if type(aik_public) is not bytes or type(group) is not int or type(platform_id) is not str:
        raise EncodingError("pca/request: aik_public must be bytes, group an int and platform_id a str")
    try:
        raw = platform_id.encode()
        return b"ds10:aik_publicb%d:%ss5:groupi%des11:platform_ids%d:%se" % (
            len(aik_public), aik_public, group, len(raw), raw
        )
    except ValueError as exc:
        raise EncodingError(f"cannot encode: {exc}") from exc


def _pca_complete_body(nonce: bytes, signature: bytes) -> bytes:
    """The ``pca/complete`` body ``{"nonce", "signature"}``"""
    if type(nonce) is not bytes or type(signature) is not bytes:
        raise EncodingError("pca/complete: nonce and signature must be bytes")
    return b"ds5:nonceb%d:%ss9:signatureb%d:%se" % (len(nonce), nonce, len(signature), signature)


def _rs_submit_body(payload: bytes, chain: bytes) -> bytes:
    """The ``rs/submit`` body ``{"chain", "payload"}``"""
    if type(payload) is not bytes or type(chain) is not bytes:
        raise EncodingError("rs/submit: payload and chain must be bytes")
    return b"ds5:chainb%d:%ss7:payloadb%d:%se" % (len(chain), chain, len(payload), payload)


def _rs_score_body(subject: str) -> bytes:
    """The ``rs/score`` body ``{"subject"}``; its ok body is ``reputation.score_body``'s"""
    if type(subject) is not str:
        raise EncodingError("rs/score: subject must be a str")
    try:
        raw = subject.encode()
    except ValueError as exc:
        raise EncodingError(f"cannot encode: {exc}") from exc
    return b"ds7:subjects%d:%se" % (len(raw), raw)


# -- handlers: each takes its service and the checked request fields, and maps
# the service's result to the response body, a dict or its encoded bytes

def _h_request(pca: PrivacyCa, aik_public: bytes, group: int, platform_id: str) -> dict | bytes:
    result = pca.request_credential(aik_public, group, platform_id)
    if isinstance(result, DeniedRequest):
        return {"status": "denied", "reason": result.reason}
    return _challenge_body(result.nonce, result.expires)


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
        return {"status": "reject", "reason": result.reason, "detail": result.detail}
    return _ack_body(result.receipt, result.subject, result.group)


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


# endpoint -> (Router keyword of its service, request field -> type, handler).
# Every request schema lives here: the router checks a body's fields and their
# types before the handler sees them.
ROUTES: dict[str, tuple[str, dict[str, type], Callable[..., dict | bytes]]] = {
    "pca/register": (
        "pca",
        {"ek_public": bytes, "user_account": str},
        lambda pca, ek_public, user_account: {"platform_id": pca.register_platform(ek_public, user_account)},
    ),
    "pca/request": ("pca", {"aik_public": bytes, "group": int, "platform_id": str}, _h_request),
    "pca/complete": (
        "pca",
        {"nonce": bytes, "signature": bytes},
        lambda pca, nonce, signature: _activation_body(pca.complete_handshake(nonce, signature)),
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
}
# called in process only: over a socket each is answered as an endpoint no one serves (FORMATS §3)
OPERATOR_ROUTES = frozenset({"pca/blacklist", "rs/admin/groups", "cp/charge", "cp/balance", "cp/admin/policy"})
_PUBLIC_ROUTES = {endpoint: route for endpoint, route in ROUTES.items() if endpoint not in OPERATOR_ROUTES}
# what follows the correlation id of an ok answer on each route: the rest of the frame dict
_OK_SUFFIXES = {
    endpoint: encode({"endpoint": endpoint, "status": "ok", "version": WIRE_VERSION})[1:] for endpoint in ROUTES
}
# what follows the correlation id of a request to each route whose fields are all
# bytes, str or int -> its endpoint, and the table encoding.cut_fields cuts its body by
_FIXED_REQUESTS = {
    encode({"endpoint": endpoint, "version": WIRE_VERSION})[1:]: (endpoint, field_table(fields))
    for endpoint, (_, fields, _) in ROUTES.items()
    if all(kind in (bytes, str, int) for kind in fields.values())
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
        body, pos = cut_fields(data, 8, route[1])
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
            service_name, fields, handler = self._routes.get(endpoint, ("", {}, None))
            service = self._services.get(service_name)
            if service is None:
                raise WireError(f"unknown endpoint {endpoint!r}", code="unknown-endpoint")
            result = handler(service, **(body if request else check_fields(body, fields, where=endpoint)))
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

    def _call(self, endpoint: str, body: dict | bytes, cut: Callable[[bytes, int], tuple] | None = None):
        """The ok answer to this request: its body, or what ``cut`` reads of
        its body at fixed keys. An ok answer carries this request's
        correlation id and endpoint; an error answer carries them or neither,
        as the router's answer to a frame it could not read does."""
        corr = next(self._corr).to_bytes(8, "big")
        response = self._transport.request(encode_request(endpoint, body, corr))
        if cut is not None and type(response) is bytes and response.startswith(b"ds4:body"):
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
        return r_body  # with a cut, an ok answer to this request ends with its tail and was cut above


class PcaClient(_Client):
    def register_platform(self, ek_public: bytes, user_account: str) -> str:
        body = self._call("pca/register", {"ek_public": ek_public, "user_account": user_account})
        return _field(body, "platform_id", str)

    def request_credential(
        self, aik_public: bytes, group: int, platform_id: str
    ) -> Challenge | DeniedRequest:
        return self._call("pca/request", _pca_request_body(aik_public, group, platform_id), _cut_challenge_or_denied)

    def complete_handshake(self, nonce: bytes, signature: bytes) -> bytes:
        return self._call("pca/complete", _pca_complete_body(nonce, signature), _cut_activation)

    def resolve_identity(self, aik_digest: str, authority_token: str) -> dict:
        return self._call(
            "pca/resolve", {"aik_digest": aik_digest, "authority_token": authority_token}
        )

    def blacklist(self, platform_id: str, flag: bool) -> None:
        self._call("pca/blacklist", {"platform_id": platform_id, "flag": int(flag)})


class RsClient(_Client):
    def submit_rating(self, payload: RatingPayload, chain: CredentialChain) -> Ack | Reject:
        return self._call(
            "rs/submit", _rs_submit_body(payload.canonical_bytes(), chain.to_bytes()), _cut_ack_or_reject
        )

    def score(self, subject: str) -> tuple[int, str]:
        return self._call("rs/score", _rs_score_body(subject), cut_score_body)

    def configure_groups(self, registry: dict[int, tuple[bytes, Fraction]]) -> int:
        groups = {str(g): {"pub": pub, "impact": str(impact)} for g, (pub, impact) in registry.items()}
        body = self._call("rs/admin/groups", {"groups": groups})
        return _field(body, "count", int)


class CpClient(_Client):
    def charge(self, account_id: str, amount: int, *, group: int, phase: str, ref: str) -> dict:
        return self._call(
            "cp/charge",
            {"account_id": account_id, "amount": amount, "group": group, "phase": phase, "ref": ref},
        )

    def balance(self, account_id: str) -> int:
        return _field(self._call("cp/balance", {"account_id": account_id}), "balance", int)

    def get_policy(self) -> dict:
        return _field(self._call("cp/policy", {}), "policy", dict)

    def set_policy(self, policy: PricingPolicy) -> dict:
        return _field(self._call("cp/admin/policy", {"policy": policy.to_record()}), "policy", dict)
